"""Boosted-tree change predictor: fitting, prediction, and serialization.

The leaf-value and split tests verify against directly-computed formulas;
the fitting tests use constructed datasets whose optimal behavior is known.
"""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from socialstance.errors import InputDataError
from socialstance.gbdt import (
    GbdtConfig,
    GbdtModel,
    PROB_FLOOR,
    RegressionTree,
    TreeNode,
    _MIN_GAIN,
    _best_split,
    _leaf_value,
    _softmax_rows,
    decision_scores,
    evaluate,
    fit,
    load_model,
    load_training_csv,
    log_loss,
    majority_baseline_accuracy,
    predict,
    predict_proba,
    priors_log_loss,
    save_model,
    training_csv_header,
    write_training_csv,
)
from socialstance.hesitancy import ChangeLabel


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


def reference_grow_tree(features, residuals, idx, depth, max_depth, n_classes):
    if depth >= max_depth or idx.size < 2:
        return TreeNode(value=_leaf_value(residuals[idx], n_classes))
    split = reference_best_split(features, residuals, idx)
    if split is None:
        return TreeNode(value=_leaf_value(residuals[idx], n_classes))
    feature, threshold = split
    left_mask = features[idx, feature] <= threshold
    return TreeNode(
        feature=feature,
        threshold=threshold,
        left=reference_grow_tree(features, residuals, idx[left_mask],
                                 depth + 1, max_depth, n_classes),
        right=reference_grow_tree(features, residuals, idx[~left_mask],
                                  depth + 1, max_depth, n_classes),
    )


def reference_fit(features, labels, config, n_classes=3):
    """fit as a loop: grow with the reference, update scores by predict_one."""
    n = features.shape[0]
    priors = np.bincount(labels, minlength=n_classes) / n
    base_scores = np.log(np.maximum(priors, PROB_FLOOR))
    model = GbdtModel(config=config, n_classes=n_classes,
                      n_features=features.shape[1], base_scores=base_scores)
    scores = np.tile(base_scores, (n, 1))
    onehot = np.zeros((n, n_classes))
    onehot[np.arange(n), labels] = 1.0
    for _ in range(config.rounds):
        residuals = onehot - _softmax_rows(scores)
        round_trees = []
        for c in range(n_classes):
            tree = RegressionTree(reference_grow_tree(
                features, residuals[:, c], np.arange(n), 0, config.max_depth,
                n_classes))
            round_trees.append(tree)
            scores[:, c] += config.shrinkage * np.array(
                [tree.predict_one(row) for row in features])
        model.trees.append(round_trees)
    return model


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
        assert _leaf_value(residuals, k) == pytest.approx(expected, abs=1e-15)

    def test_zero_hessian_guard(self):
        # residuals of exactly 0 and 1 have zero curvature
        assert _leaf_value(np.array([0.0, 1.0, -1.0]), 3) == 0.0


class TestBestSplit:
    def test_threshold_strictly_between_values(self):
        features = np.array([[0.0], [1.0], [2.0], [3.0]])
        residuals = np.array([-1.0, -1.0, 1.0, 1.0])
        feat, thresh = _best_split(features, residuals, np.arange(4))
        assert feat == 0
        assert thresh == pytest.approx(1.5)
        assert 1.0 < thresh < 2.0

    def test_no_split_on_constant_feature(self):
        features = np.ones((5, 2))
        residuals = np.array([1.0, -1.0, 1.0, -1.0, 0.0])
        assert _best_split(features, residuals, np.arange(5)) is None

    def test_tie_breaks_lowest_feature_then_threshold(self):
        # feature 1 duplicates feature 0: identical gains, feature 0 wins
        base = np.array([0.0, 0.0, 1.0, 1.0])
        features = np.stack([base, base], axis=1)
        residuals = np.array([-1.0, -1.0, 1.0, 1.0])
        feat, thresh = _best_split(features, residuals, np.arange(4))
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
            got = _best_split(features, residuals, np.arange(n))

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
        assert _best_split(features, residuals, np.arange(3)) == (0, 5.0)
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
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.txt"
        save_model(model, path)
        return path.read_text()


class TestAgainstReference:
    @settings(max_examples=60, deadline=None)
    @given(boosting_inputs())
    def test_fit_matches_per_feature_search_byte_for_byte(self, inputs):
        features, labels, config = inputs
        assert model_text(fit(features, labels, config)) == \
            model_text(reference_fit(features, labels, config))

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
            fit(np.zeros((3, 2)), np.array([0, 1, 3]), n_classes=3)
        with pytest.raises(InputDataError):
            fit(np.zeros(3), np.array([0, 1, 0]))

    @pytest.mark.parametrize("labels", [[0.5, 1.7, 2.2], [0.0, 1.0, 2.0],
                                        [True, False, True], ["0", "1", "2"]])
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


class TestSerialization:
    def test_round_trip_preserves_predictions(self, tmp_path):
        rng = np.random.default_rng(9)
        features, labels = separable_dataset(rng)
        model = fit(features, labels, GbdtConfig(rounds=7, max_depth=3))
        path = tmp_path / "model.txt"
        save_model(model, path)
        loaded = load_model(path)
        np.testing.assert_array_equal(decision_scores(model, features),
                                      decision_scores(loaded, features))
        assert loaded.config == model.config
        assert loaded.n_features == model.n_features

    def test_save_load_save_is_byte_identical(self, tmp_path):
        rng = np.random.default_rng(10)
        features, labels = separable_dataset(rng, n=50)
        model = fit(features, labels, GbdtConfig(rounds=4))
        p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
        save_model(model, p1)
        save_model(load_model(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "model.txt"
        path.write_text("gbdt v9\n")
        with pytest.raises(InputDataError, match="gbdt v1"):
            load_model(path)

    def test_truncation_rejected(self, tmp_path):
        rng = np.random.default_rng(11)
        features, labels = separable_dataset(rng, n=50)
        model = fit(features, labels, GbdtConfig(rounds=2))
        path = tmp_path / "model.txt"
        save_model(model, path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(InputDataError):
            load_model(path)

    def test_trailing_garbage_rejected(self, tmp_path):
        rng = np.random.default_rng(12)
        features, labels = separable_dataset(rng, n=50)
        model = fit(features, labels, GbdtConfig(rounds=2))
        path = tmp_path / "model.txt"
        save_model(model, path)
        with open(path, "a") as fh:
            fh.write("leaf 0.0\n")
        with pytest.raises(InputDataError, match="trailing"):
            load_model(path)


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


class TestMajorityBaseline:
    def test_majority_class_accuracy(self):
        train = np.array([0, 0, 0, 1, 2])
        test = np.array([0, 0, 1, 1])
        assert majority_baseline_accuracy(train, test) == pytest.approx(0.5)
