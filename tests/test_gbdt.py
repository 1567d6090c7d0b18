"""Boosted-tree change predictor: fitting, prediction and training files.

The leaf-value and split tests verify against directly-computed formulas;
the fitting tests use constructed datasets whose optimal behavior is known.
"""

import io
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from socialstance.errors import InputDataError
from socialstance.gbdt import (
    GbdtConfig,
    GbdtModel,
    RegressionTree,
    TreeNode,
    _MIN_GAIN,
    _best_split,
    _leaf_value,
    decision_scores,
    evaluate,
    fit,
    load_training_csv,
    log_loss,
    majority_baseline_accuracy,
    predict,
    predict_proba,
    priors_log_loss,
    training_csv_header,
    write_training_csv,
)
from socialstance.metrics import PROB_FLOOR, softmax
from socialstance.hesitancy import ChangeLabel
from socialstance.synthetic import change_benchmark


# Label arrays that are not integer class indices and must not be cast.
NON_CLASS_LABELS = [[0.5, 1.7, 2.2], [0.0, 1.0, 2.0], [True, False, True], ["0", "1", "2"]]


# -- reference: the per-feature split search and predict-based score update ----


def reference_best_split(features, residuals, idx):
    """One feature at a time; the vectorized search must match it exactly."""
    node_r = residuals[idx]
    n = idx.size
    total = node_r.sum()
    total_sq = float(node_r @ node_r)
    parent_sse = total_sq - total * total / n
    best_gain = _MIN_GAIN
    best = None
    for f in range(features.shape[1]):
        vals = features[idx, f]
        order = np.argsort(vals, kind="stable")
        sv = vals[order]
        if sv[0] == sv[-1]:
            continue
        sr = node_r[order]
        left_sum = np.cumsum(sr)[:-1]
        left_sq = np.cumsum(sr * sr)[:-1]
        n_left = np.arange(1, n, dtype=np.float64)
        n_right = n - n_left
        left_sse = left_sq - left_sum * left_sum / n_left
        right_sum = total - left_sum
        right_sse = (total_sq - left_sq) - right_sum * right_sum / n_right
        gain = parent_sse - left_sse - right_sse
        gain[sv[1:] == sv[:-1]] = -np.inf
        i = int(np.argmax(gain))
        if gain[i] > best_gain:
            best_gain = float(gain[i])
            best = (f, (float(sv[i]) + float(sv[i + 1])) / 2.0)
    return best


def reference_grow_tree(features, residuals, idx, depth, max_depth):
    if depth >= max_depth or idx.size < 2:
        return TreeNode(value=_leaf_value(residuals[idx], residuals[idx].sum()))
    split = reference_best_split(features, residuals, idx)
    if split is None:
        return TreeNode(value=_leaf_value(residuals[idx], residuals[idx].sum()))
    feature, threshold = split
    left_mask = features[idx, feature] <= threshold
    return TreeNode(
        feature=feature,
        threshold=threshold,
        left=reference_grow_tree(features, residuals, idx[left_mask],
                                 depth + 1, max_depth),
        right=reference_grow_tree(features, residuals, idx[~left_mask],
                                  depth + 1, max_depth),
    )


def reference_fit(features, labels, config, n_classes=3):
    """fit as a loop: grow with the reference, update scores by predict_one."""
    n = features.shape[0]
    priors = np.bincount(labels, minlength=n_classes) / n
    base_scores = np.log(np.maximum(priors, PROB_FLOOR))
    model = GbdtModel(config=config, n_features=features.shape[1],
                      base_scores=base_scores)
    scores = np.tile(base_scores, (n, 1))
    onehot = np.zeros((n, n_classes))
    onehot[np.arange(n), labels] = 1.0
    for _ in range(config.rounds):
        residuals = onehot - softmax(scores)
        round_trees = []
        for c in range(n_classes):
            tree = RegressionTree(reference_grow_tree(
                features, residuals[:, c], np.arange(n), 0, config.max_depth))
            round_trees.append(tree)
            scores[:, c] += config.shrinkage * np.array(
                [tree.predict_one(row) for row in features])
        model.trees.append(round_trees)
    return model


def best_split(features, residuals):
    """_best_split over every row of (n, f) features, as the grower calls it
    at a root."""
    block = np.vstack([features.T, residuals, residuals * residuals])
    return _best_split(block, residuals.sum(),
                       np.arange(1, residuals.size, dtype=np.float64))


def separable_dataset(rng, n=120, n_features=6, n_classes=3):
    """Labels decided by thresholds on feature 0 alone."""
    features = rng.standard_normal((n, n_features))
    labels = np.digitize(features[:, 0], [-0.4, 0.4])
    return features, labels.astype(np.int64)


class TestLeafValue:
    def test_formula(self):
        residuals = np.array([0.5, -0.3, 0.8])
        k = 3
        expected = ((k - 1) / k) * residuals.sum() / np.sum(
            np.abs(residuals) * (1 - np.abs(residuals)))
        assert _leaf_value(residuals, residuals.sum()) == pytest.approx(expected, abs=1e-15)

    def test_zero_hessian_guard(self):
        # residuals of exactly 0 and 1 have zero curvature
        residuals = np.array([0.0, 1.0, -1.0])
        assert _leaf_value(residuals, residuals.sum()) == 0.0


class TestBestSplit:
    def test_threshold_strictly_between_values(self):
        features = np.array([[0.0], [1.0], [2.0], [3.0]])
        residuals = np.array([-1.0, -1.0, 1.0, 1.0])
        feat, thresh = best_split(features, residuals)
        assert feat == 0
        assert thresh == pytest.approx(1.5)
        assert 1.0 < thresh < 2.0

    def test_no_split_on_constant_feature(self):
        features = np.ones((5, 2))
        residuals = np.array([1.0, -1.0, 1.0, -1.0, 0.0])
        assert best_split(features, residuals) is None

    def test_tie_breaks_lowest_feature_then_threshold(self):
        # feature 1 duplicates feature 0: identical gains, feature 0 wins
        base = np.array([0.0, 0.0, 1.0, 1.0])
        features = np.stack([base, base], axis=1)
        residuals = np.array([-1.0, -1.0, 1.0, 1.0])
        feat, thresh = best_split(features, residuals)
        assert feat == 0
        assert thresh == pytest.approx(0.5)

    def test_split_is_sse_optimal(self):
        """The chosen split's gain matches the best gain a brute-force scan
        over every (feature, midpoint) candidate can find."""
        rng = np.random.default_rng(0)

        def sse(vals):
            return float(np.sum((vals - vals.mean()) ** 2)) if len(vals) else 0.0

        def gain_of(features, residuals, f, t):
            mask = features[:, f] <= t
            return (sse(residuals) - sse(residuals[mask]) - sse(residuals[~mask]))

        for _ in range(30):
            n = int(rng.integers(3, 20))
            features = rng.standard_normal((n, 3))
            residuals = rng.standard_normal(n)
            got = best_split(features, residuals)

            best_gain = 0.0
            for f in range(3):
                vals = np.unique(features[:, f])
                for lo, hi in zip(vals[:-1], vals[1:]):
                    best_gain = max(best_gain, gain_of(features, residuals, f,
                                                       (lo + hi) / 2))
            if best_gain <= 1e-12:
                assert got is None
            else:
                f, t = got
                assert gain_of(features, residuals, f, t) == pytest.approx(
                    best_gain, rel=1e-9, abs=1e-12)
                # threshold sits strictly between two adjacent feature values
                vals = np.sort(features[:, f])
                assert np.any((vals[:-1] < t) & (t < vals[1:]))

    def test_tie_goes_to_lower_feature_over_lower_threshold(self):
        # Both features isolate row 0 (gain 6 exactly). Feature 1 does so at
        # the first sorted position, threshold 2.5; feature 0 at the second,
        # threshold 5.0. The lower feature still wins.
        features = np.array([[9.0, 0.0], [0.0, 5.0], [1.0, 6.0]])
        residuals = np.array([2.0, -1.0, -1.0])
        assert best_split(features, residuals) == (0, 5.0)
        assert reference_best_split(features, residuals, np.arange(3)) == (0, 5.0)


@st.composite
def boosting_inputs(draw):
    n = draw(st.integers(2, 60))
    n_features = draw(st.integers(1, 6))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    if draw(st.booleans()):
        features = rng.standard_normal((n, n_features))
    else:
        features = rng.integers(0, 3, size=(n, n_features)).astype(np.float64)
    constant = draw(st.lists(st.integers(0, n_features - 1), max_size=2))
    features[:, constant] = 1.0
    labels = rng.integers(0, 3, size=n)
    config = GbdtConfig(rounds=draw(st.integers(1, 3)),
                        max_depth=draw(st.integers(1, 6)))
    return features, labels, config


def model_text(model):
    """A bit-exact fingerprint of a fitted model: its shape, config and base
    scores, then every tree's nodes in training order, each tree as its
    preorder walk. repr tells -0.0 from 0.0 and round-trips every float64."""
    trees = [[(node.feature, repr(node.threshold), repr(node.value))
              for node, _ in tree.walk()]
             for round_trees in model.trees for tree in round_trees]
    return repr((model.n_features, model.config,
                 [repr(b) for b in model.base_scores.tolist()], trees))


class TestAgainstReference:
    @settings(max_examples=60, deadline=None)
    @given(boosting_inputs())
    def test_fit_matches_per_feature_search_byte_for_byte(self, inputs):
        features, labels, config = inputs
        assert model_text(fit(features, labels, config)) == \
            model_text(reference_fit(features, labels, config))

    @pytest.mark.parametrize("seed", [3, 11, 29])
    def test_fit_matches_reference_at_the_benchmark_shape(self, seed):
        # The 160-row sessions of predict-change on change_benchmark(200):
        # nodes far larger than the property test's n <= 60 draws.
        features, labels = change_benchmark(200, seed=seed)
        rows = np.random.default_rng(seed).permutation(200)[:160]
        config = GbdtConfig(rounds=10)
        assert model_text(fit(features[rows], labels[rows], config)) == \
            model_text(reference_fit(features[rows], labels[rows], config))

    def test_predict_matches_predict_one_row_by_row(self):
        rng = np.random.default_rng(13)
        features, labels = separable_dataset(rng, n=80, n_features=4)
        model = fit(features, labels, GbdtConfig(rounds=4, max_depth=4))
        # training rows, fresh rows, and rows sitting exactly on thresholds
        thresholds = [node.threshold for trees in model.trees for tree in trees
                      for node, _ in tree.walk() if not node.is_leaf]
        rows = np.vstack([features, rng.standard_normal((40, 4)),
                          np.tile(np.array(thresholds)[:, None], (1, 4))])
        for round_trees in model.trees:
            for tree in round_trees:
                np.testing.assert_array_equal(
                    tree.predict(rows), [tree.predict_one(row) for row in rows])


class TestTree:
    def test_predict_walk(self):
        root = TreeNode(feature=0, threshold=0.5,
                        left=TreeNode(value=-1.0), right=TreeNode(value=2.0))
        tree = RegressionTree(root)
        assert tree.predict_one(np.array([0.2])) == -1.0
        assert tree.predict_one(np.array([0.5])) == -1.0  # <= goes left
        assert tree.predict_one(np.array([0.9])) == 2.0
        np.testing.assert_array_equal(
            tree.predict(np.array([[0.0], [1.0]])), [-1.0, 2.0])
        assert tree.n_nodes() == 3
        assert tree.depth() == 1


class TestFit:
    def test_separable_reaches_perfect_accuracy(self):
        rng = np.random.default_rng(1)
        features, labels = separable_dataset(rng)
        model = fit(features, labels, GbdtConfig(rounds=20, max_depth=5))
        assert np.mean(predict(model, features) == labels) == 1.0

    def test_loss_beats_priors_and_decreases(self):
        rng = np.random.default_rng(2)
        features, labels = separable_dataset(rng)
        few = fit(features, labels, GbdtConfig(rounds=5))
        many = fit(features, labels, GbdtConfig(rounds=40))
        prior = priors_log_loss(labels)
        assert log_loss(many, features, labels) < log_loss(few, features, labels)
        assert log_loss(many, features, labels) < prior

    def test_base_scores_are_log_priors(self):
        features = np.zeros((4, 2))
        labels = np.array([0, 0, 0, 1])
        model = fit(features, labels, GbdtConfig(rounds=1))
        np.testing.assert_allclose(
            model.base_scores, np.log([0.75, 0.25, 1e-12]), rtol=1e-12)

    def test_depth_respected(self):
        rng = np.random.default_rng(3)
        features, labels = separable_dataset(rng)
        model = fit(features, labels, GbdtConfig(rounds=3, max_depth=2))
        for round_trees in model.trees:
            for tree in round_trees:
                assert tree.depth() <= 2

    def test_deterministic(self):
        rng = np.random.default_rng(4)
        features, labels = separable_dataset(rng)
        m1 = fit(features, labels, GbdtConfig(rounds=5))
        m2 = fit(features, labels, GbdtConfig(rounds=5))
        np.testing.assert_array_equal(decision_scores(m1, features),
                                      decision_scores(m2, features))

    def test_validation(self):
        with pytest.raises(InputDataError):
            fit(np.zeros((1, 2)), np.array([0]))
        with pytest.raises(InputDataError):
            fit(np.zeros((3, 2)), np.array([0, 1, 3]))
        with pytest.raises(InputDataError):
            fit(np.zeros(3), np.array([0, 1, 0]))

    @pytest.mark.parametrize("labels", NON_CLASS_LABELS)
    def test_non_class_labels_rejected(self, labels):
        with pytest.raises(InputDataError, match="integer class indices"):
            fit(np.zeros((3, 2)), labels)

    def test_featureless_rows_rejected(self):
        with pytest.raises(InputDataError, match="got shape"):
            fit(np.zeros((3, 0)), np.array([0, 1, 2]))

    def test_config_validation(self):
        with pytest.raises(InputDataError):
            GbdtConfig(rounds=-1)
        with pytest.raises(InputDataError):
            GbdtConfig(shrinkage=0.0)
        with pytest.raises(InputDataError):
            GbdtConfig(max_depth=0)

    @pytest.mark.parametrize("shrinkage", [float("inf"), float("nan")])
    def test_non_finite_shrinkage_rejected(self, shrinkage):
        with pytest.raises(InputDataError, match="shrinkage"):
            GbdtConfig(shrinkage=shrinkage)

    def test_overflowing_scores_name_the_round(self):
        rng = np.random.default_rng(5)
        features, labels = separable_dataset(rng)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # reported once, not as warnings
            with pytest.raises(InputDataError,
                               match=r"^round 1: training scores are not finite"):
                fit(features, labels, GbdtConfig(rounds=3, shrinkage=1e308))

    @pytest.mark.parametrize("field", ["rounds", "max_depth"])
    def test_fractional_count_rejected(self, field):
        # fit can neither run 2.5 rounds nor grow to depth 2.5.
        with pytest.raises(InputDataError,
                           match=f"^config key '{field}': expected int, got 2.5$"):
            GbdtConfig(**{field: 2.5})

    def test_numpy_values_stored_as_python_numbers(self):
        config = GbdtConfig(rounds=np.int64(2), max_depth=np.int32(3),
                            shrinkage=np.float32(0.5))
        assert config == GbdtConfig(rounds=2, max_depth=3, shrinkage=0.5)
        assert [type(v) for v in (config.rounds, config.max_depth, config.shrinkage)] \
            == [int, int, float]


class TestScoringLabels:
    """Every function that takes labels refuses what fit refuses."""

    @pytest.fixture(scope="class")
    def model(self):
        return fit(np.arange(6.0).reshape(3, 2), [0, 1, 2], GbdtConfig(rounds=3))

    @pytest.mark.parametrize("labels", NON_CLASS_LABELS + [[0, 1, 5], [-1, 0, 1]])
    def test_log_loss(self, model, labels):
        with pytest.raises(InputDataError, match="integer class indices"):
            log_loss(model, np.zeros((3, 2)), labels)

    @pytest.mark.parametrize("labels", NON_CLASS_LABELS + [[0, 1, 5], [-1, 0, 1]])
    def test_evaluate(self, model, labels):
        with pytest.raises(InputDataError, match="integer class indices"):
            evaluate(model, np.zeros((3, 2)), labels)

    @pytest.mark.parametrize("labels", NON_CLASS_LABELS + [[0, 1, 5], [-1, 0, 1]])
    def test_priors_log_loss(self, labels):
        with pytest.raises(InputDataError, match="integer class indices"):
            priors_log_loss(labels)

    @pytest.mark.parametrize("labels", NON_CLASS_LABELS + [[0, 1, 5], [-1, 0, 1]])
    def test_majority_baseline_accuracy(self, labels):
        with pytest.raises(InputDataError, match="integer class indices"):
            majority_baseline_accuracy(labels, [0, 1, 2])
        with pytest.raises(InputDataError, match="integer class indices"):
            majority_baseline_accuracy([0, 1, 2], labels)

    def test_length_must_match_rows(self, model):
        with pytest.raises(InputDataError, match="length"):
            log_loss(model, np.zeros((3, 2)), [0, 1])
        with pytest.raises(InputDataError, match="length"):
            evaluate(model, np.zeros((2, 2)), [0, 1, 2])

    def test_integer_labels_still_score(self, model):
        x = np.arange(6.0).reshape(3, 2)
        assert evaluate(model, x, np.array([0, 1, 2], dtype=np.uint8)).accuracy == 1.0
        assert log_loss(model, x, [0, 1, 2]) < priors_log_loss([0, 1, 2])
        assert majority_baseline_accuracy([1, 1, 0], [1, 2]) == 0.5


class TestPredict:
    def test_proba_rows_sum_to_one(self):
        rng = np.random.default_rng(5)
        features, labels = separable_dataset(rng, n=60)
        model = fit(features, labels, GbdtConfig(rounds=10))
        probs = predict_proba(model, features)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(probs >= 0)

    def test_single_sample_shape(self):
        rng = np.random.default_rng(6)
        features, labels = separable_dataset(rng, n=60)
        model = fit(features, labels, GbdtConfig(rounds=5))
        p = predict_proba(model, features[0])
        assert p.shape == (3,)
        assert predict(model, features[0]) == np.argmax(p)

    def test_feature_width_checked(self):
        rng = np.random.default_rng(7)
        features, labels = separable_dataset(rng, n=60)
        model = fit(features, labels, GbdtConfig(rounds=2))
        with pytest.raises(InputDataError):
            predict(model, np.zeros(4))

    def test_evaluate_report(self):
        rng = np.random.default_rng(8)
        features, labels = separable_dataset(rng)
        model = fit(features, labels, GbdtConfig(rounds=20))
        rep = evaluate(model, features, labels)
        assert rep.accuracy == 1.0


def _training_csv_text():
    out = io.StringIO()
    write_training_csv(*change_benchmark(6, seed=1), out)
    return out.getvalue()


TRAINING_CSV = _training_csv_text()
# Cells an edit writes: numbers that parse, overflow or are not finite,
# label and column names, and nothing.
CSV_TOKEN = st.one_of(
    st.floats().map(repr), st.integers(-3, 40).map(str),
    st.sampled_from(["1e999", "-inf", "nan", "", " ", "label", "prior_score",
                     "PositiveNews", *(label.name for label in ChangeLabel)]))


class TestTrainingCsv:
    def test_header_names_all_themes(self):
        header = training_csv_header()
        assert header.startswith("PositiveNews,")
        assert header.endswith(",label")
        assert len(header.split(",")) == 12
        assert len(training_csv_header(with_prior=True).split(",")) == 13

    def test_round_trip(self, tmp_path):
        features = np.array([[1.0] * 11, [0.0] * 11])
        labels = np.array([ChangeLabel.increased, ChangeLabel.unchanged])
        path = tmp_path / "train.csv"
        write_training_csv(features, labels, path)
        feats, labs = load_training_csv(path)
        np.testing.assert_array_equal(feats, features)
        np.testing.assert_array_equal(labs, [0, 2])

    def test_unknown_label_rejected(self, tmp_path):
        path = tmp_path / "train.csv"
        rows = [training_csv_header(), ",".join(["0.0"] * 11) + ",sideways"]
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(InputDataError, match="line 2"):
            load_training_csv(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e999"])
    def test_non_finite_feature_names_its_line(self, tmp_path, value):
        path = tmp_path / "train.csv"
        good = ",".join(["1.0"] * 11) + ",unchanged"
        bad = ",".join([value] + ["1.0"] * 10) + ",decreased"
        path.write_text("\n".join([training_csv_header(), good, bad, good]) + "\n")
        with pytest.raises(InputDataError, match="^line 3: non-finite feature$"):
            load_training_csv(path)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_edited_file_loads_or_is_refused(self, tmp_path_factory, data):
        lines = TRAINING_CSV.splitlines()
        edit = data.draw(st.sampled_from(["token", "line", "bytes"]), label="edit")
        at = data.draw(st.integers(0, len(lines) - 1), label="line")
        if edit == "token":
            parts = lines[at].split(",")
            i = data.draw(st.integers(0, len(parts) - 1), label="token")
            parts[i] = data.draw(CSV_TOKEN | st.text(max_size=6), label="value")
            lines[at] = ",".join(parts)
        elif edit == "line":
            lines[at] = data.draw(st.lists(CSV_TOKEN, max_size=14).map(",".join),
                                  label="new line")
        content = "\n".join(lines).encode() + b"\n"
        if edit == "bytes":
            # after the header, or in place of the whole file
            content = data.draw(st.binary(max_size=300).map(
                lambda b: content[:content.index(b"\n") + 1] + b) | st.binary(max_size=300),
                label="bytes")
        path = tmp_path_factory.mktemp("edited") / "train.csv"
        path.write_bytes(content)
        try:
            features, labels = load_training_csv(path)
        except (InputDataError, UnicodeDecodeError):
            return
        assert np.all(np.isfinite(features))
        assert features.shape[0] == labels.shape[0]


class TestMajorityBaseline:
    def test_majority_class_accuracy(self):
        train = np.array([0, 0, 0, 1, 2])
        test = np.array([0, 0, 1, 1])
        assert majority_baseline_accuracy(train, test) == pytest.approx(0.5)
