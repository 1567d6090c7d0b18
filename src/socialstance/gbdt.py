"""Multiclass gradient-boosted regression trees over theme-count features.

Softmax objective: per boosting round and per class, a regression tree is
fit to the pseudo-residuals (one-hot minus predicted probability) by exact
greedy squared-error split search, and its leaves take the standard Newton
step for multiclass log-loss. Scores start at the per-class log-priors and
accumulate shrinkage-weighted tree outputs, which fit takes from the leaves
as they grow.

Each node holds its rows as one (f + 2, n) block: the features,
feature-major, then the residuals and their squares. A split partitions
the block with one compress, and the search covers all features in one
array pass: one sort per feature row, one take of the residuals and
squares in every row's order, and one prefix-sum pass over both. Every
float comes from the same operation on the same operands in the same
order as in a search of one feature at a time, so the trees are the ones
that search grows, byte for byte.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InputDataError, checked_fields, checked_lines, write_csv
from .hesitancy import ChangeLabel, Theme
from .metrics import (PROB_FLOOR, MetricReport, mean_log_loss,
                      multiclass_report, softmax)

N_CHANGE_CLASSES = len(ChangeLabel)

# Residuals live in [-1, 1]; real split gains dwarf this, float noise does not.
_MIN_GAIN = 1e-12
# Below this the Newton denominator is all rounding error; emit a dead leaf.
_MIN_HESSIAN = 1e-150


@dataclass(frozen=True)
class GbdtConfig:
    rounds: int = 100
    max_depth: int = 5
    shrinkage: float = 0.1

    def __post_init__(self):
        checked_fields(self)
        if not self.rounds >= 0:
            raise InputDataError("rounds must be >= 0")
        if not self.max_depth >= 1:
            raise InputDataError("max_depth must be >= 1")
        if not (math.isfinite(self.shrinkage) and self.shrinkage > 0.0):
            raise InputDataError("shrinkage must be finite and > 0")


@dataclass(slots=True, eq=False)
class TreeNode:
    """One node; internal nodes carry (feature, threshold), leaves a value."""

    feature: int | None = None
    threshold: float | None = None
    value: float | None = None
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None

    @property
    def is_leaf(self):
        return self.feature is None


@dataclass(eq=False)
class RegressionTree:
    """Binary regression tree; routing is x[feature] <= threshold → left."""

    root: TreeNode

    def predict_one(self, x) -> float:
        node = self.root
        while not node.is_leaf:
            node = node.left if x[node.feature] <= node.threshold else node.right
        return node.value

    def predict(self, features: np.ndarray) -> np.ndarray:
        """predict_one for every row of a 2-D array, routing row sets."""
        out = np.empty(features.shape[0])
        stack = [(self.root, np.arange(features.shape[0]))]
        while stack:
            node, rows = stack.pop()
            if node.is_leaf:
                out[rows] = node.value
            elif rows.size:
                left = features[rows, node.feature] <= node.threshold
                stack.extend(((node.left, rows[left]), (node.right, rows[~left])))
        return out

    def walk(self):
        """(node, depth) for every node, in preorder."""
        stack = [(self.root, 0)]
        while stack:
            node, d = stack.pop()
            yield node, d
            if not node.is_leaf:
                stack.extend(((node.right, d + 1), (node.left, d + 1)))

    def n_nodes(self) -> int:
        return sum(1 for _ in self.walk())

    def depth(self) -> int:
        return max(d for _, d in self.walk())


def _leaf_value(residuals: np.ndarray, total) -> float:
    """Newton step of one leaf; total is residuals.sum()."""
    # Newton step for the multiclass softmax objective: the hessian diagonal
    # for residual r = y - p is p(1-p) = |r|(1-|r|).
    numerator = float(total)
    magnitude = np.abs(residuals)
    denominator = float((magnitude * (1.0 - magnitude)).sum())
    if abs(denominator) < _MIN_HESSIAN:
        return 0.0
    return (N_CHANGE_CLASSES - 1.0) / N_CHANGE_CLASSES * numerator / denominator


def _best_split(block: np.ndarray, total, counts: np.ndarray):
    """Exact greedy SSE split over all (feature, midpoint) candidates at once.

    block is the node's (f + 2, n) block: its features feature-major, then
    its residuals and their squares; total is the residuals' sum and counts
    holds 1.0, 2.0, ... up to at least n - 1. Returns (feature, threshold)
    or None when no split reduces squared error. Ties break toward the
    lowest feature index, then the lowest threshold: argmax takes the first
    maximum of the (f, n - 1) gains, and each row's candidates ascend with
    its values.
    """
    f, n = block.shape[0] - 2, block.shape[1]
    vals, node_r = block[:f], block[f]
    total_sq = float(node_r @ node_r)
    parent_sse = total_sq - total * total / n
    order = vals.argsort(axis=1, kind="stable")
    sv = vals[np.arange(f)[:, None], order]
    # Row k of each (f, n) half runs the residuals, or their squares, in
    # feature k's order; one pass sums every prefix in that order.
    prefix = np.add.accumulate(block[f:].take(order, axis=1), axis=2)
    left_sum, left_sq = prefix[0, :, :-1], prefix[1, :, :-1]
    n_left, n_right = counts[:n - 1], counts[n - 2::-1]  # n_right = n - n_left
    left_sse = left_sq - left_sum * left_sum / n_left
    right_sum = total - left_sum
    right_sse = (total_sq - left_sq) - right_sum * right_sum / n_right
    gain = parent_sse - left_sse
    gain -= right_sse
    # Splitting between equal values is meaningless; mask those slots.
    np.copyto(gain, -np.inf, where=sv[:, 1:] == sv[:, :-1])
    feature, i = divmod(int(gain.argmax()), n - 1)
    if not gain[feature, i] > _MIN_GAIN:
        return None
    return feature, (float(sv[feature, i]) + float(sv[feature, i + 1])) / 2.0


def _grow_tree(block, idx, depth, max_depth, out, counts) -> TreeNode:
    """Grow the subtree over rows idx, ascending, whose block is as
    _best_split takes it; write each leaf's value to out[idx]."""
    node_r = block[-2]
    total = node_r.sum()
    split = None
    if depth < max_depth and idx.size >= 2:
        split = _best_split(block, total, counts)
    if split is None:
        out[idx] = value = _leaf_value(node_r, total)
        return TreeNode(value=value)
    feature, threshold = split
    left = block[feature] <= threshold
    right = ~left
    return TreeNode(
        feature=feature,
        threshold=threshold,
        left=_grow_tree(block.compress(left, axis=1), idx[left],
                        depth + 1, max_depth, out, counts),
        right=_grow_tree(block.compress(right, axis=1), idx[right],
                         depth + 1, max_depth, out, counts),
    )


@dataclass
class GbdtModel:
    """Fitted booster: per-class base scores plus rounds x classes trees."""

    config: GbdtConfig
    n_features: int
    base_scores: np.ndarray  # (N_CHANGE_CLASSES,)
    trees: list = field(default_factory=list)  # trees[round][class]


def _check_features(features, n_features=None) -> np.ndarray:
    """Finite (n, f) float features; a 1-D vector is one row. n_features
    None (fit) takes the width from the array."""
    arr = np.asarray(features, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    if arr.ndim != 2 or not arr.shape[1] or n_features not in (None, arr.shape[1]):
        raise InputDataError(
            f"expected (n, {n_features or 'f'}) features, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise InputDataError("features contain non-finite values")
    return arr


def _check_labels(labels, n: int | None = None) -> np.ndarray:
    """labels as an int64 vector of class indices in [0, N_CHANGE_CLASSES),
    of length n when n is given."""
    labels = np.asarray(labels)
    if labels.ndim != 1 or (n is not None and labels.shape != (n,)):
        raise InputDataError("labels length does not match features")
    # Refuse bool and float labels rather than cast them: 1.7 would become 1.
    if labels.dtype.kind not in "iu" or (
            labels.size and (labels.min() < 0 or labels.max() >= N_CHANGE_CLASSES)):
        raise InputDataError(
            f"labels must be integer class indices in [0, {N_CHANGE_CLASSES})")
    return labels.astype(np.int64)


def fit(features, labels, config: GbdtConfig = GbdtConfig()) -> GbdtModel:
    """Train a booster on (n, f) features and integer class labels of the
    N_CHANGE_CLASSES change classes.

    Raises InputDataError, naming the round, if the training scores stop
    being finite (a shrinkage too large for the leaf values).
    """
    features = _check_features(features)
    n = features.shape[0]
    if n < 2:
        raise InputDataError("need at least 2 training samples")
    labels = _check_labels(labels, n)

    priors = np.bincount(labels, minlength=N_CHANGE_CLASSES) / n
    base_scores = np.log(np.maximum(priors, PROB_FLOOR))
    model = GbdtModel(config=config, n_features=features.shape[1],
                      base_scores=base_scores)

    scores = np.tile(base_scores, (n, 1))
    onehot = np.zeros((n, N_CHANGE_CLASSES))
    onehot[np.arange(n), labels] = 1.0
    # The root block: the features, feature-major, then one class's
    # residuals and their squares, which each tree overwrites.
    f = features.shape[1]
    root = np.empty((f + 2, n))
    root[:f] = features.T
    all_idx = np.arange(n)
    counts = np.arange(1, n, dtype=np.float64)
    leaf_out = np.empty(n)  # every row lands in one leaf, so all are rewritten
    for round_no in range(1, config.rounds + 1):
        # Scores may overflow (a huge shrinkage); the check below reports
        # that once, as bad input, instead of a warning per operation.
        with np.errstate(over="ignore"):
            probs = softmax(scores)
            round_trees = []
            for c in range(N_CHANGE_CLASSES):
                np.subtract(onehot[:, c], probs[:, c], out=root[f])
                np.multiply(root[f], root[f], out=root[f + 1])
                tree = _grow_tree(root, all_idx, 0, config.max_depth, leaf_out, counts)
                round_trees.append(RegressionTree(tree))
                scores[:, c] += config.shrinkage * leaf_out
        if not np.isfinite(scores).all():
            raise InputDataError(
                f"round {round_no}: training scores are not finite "
                f"(shrinkage {config.shrinkage!r} is too large)")
        model.trees.append(round_trees)
    return model


def decision_scores(model: GbdtModel, features) -> np.ndarray:
    features = _check_features(features, model.n_features)
    scores = np.tile(model.base_scores, (features.shape[0], 1))
    for round_trees in model.trees:
        for c, tree in enumerate(round_trees):
            scores[:, c] += model.config.shrinkage * tree.predict(features)
    return scores


def predict_proba(model: GbdtModel, x) -> np.ndarray:
    """Class probabilities for one feature vector (or a batch)."""
    arr = np.asarray(x, dtype=np.float64)
    probs = softmax(decision_scores(model, arr))
    return probs[0] if arr.ndim == 1 else probs


def predict(model: GbdtModel, x):
    """Most probable class; lowest index wins exact ties."""
    arr = np.asarray(x, dtype=np.float64)
    scores = decision_scores(model, arr)
    labels = np.argmax(scores, axis=1)
    return int(labels[0]) if arr.ndim == 1 else labels


def log_loss(model: GbdtModel, features, labels) -> float:
    """Mean negative log-probability of the true class."""
    probs = softmax(decision_scores(model, features))
    labels = _check_labels(labels, len(probs))
    return mean_log_loss(probs[np.arange(labels.size), labels])


def priors_log_loss(labels) -> float:
    """Log-loss of predicting the training priors for every sample."""
    labels = _check_labels(labels)
    priors = np.bincount(labels, minlength=N_CHANGE_CLASSES) / labels.size
    return mean_log_loss(priors[labels])


def evaluate(model: GbdtModel, features, labels) -> MetricReport:
    """Accuracy and macro precision/recall/F1 on a held-out set."""
    if np.size(labels) == 0:
        raise InputDataError("empty evaluation set")
    predictions = np.argmax(decision_scores(model, features), axis=1)
    labels = _check_labels(labels, len(predictions))
    return multiclass_report(list(predictions), list(labels), N_CHANGE_CLASSES)


# -- training data files -----------------------------------------------------


def training_csv_header(with_prior: bool = False) -> str:
    names = [theme.name for theme in Theme]
    if with_prior:
        names.append("prior_score")
    names.append("label")
    return ",".join(names)


def load_training_csv(path):
    """Read change-prediction training data.

    Expects the 11 theme columns (optionally followed by prior_score), all
    finite numbers, and a label column of ChangeLabel names. Returns
    (features, labels) arrays.
    """
    def example(line):
        parts = line.strip().split(",")
        if len(parts) != n_cols:
            raise InputDataError(f"expected {n_cols} fields, got {len(parts)}")
        try:
            features = [float(v) for v in parts[:-1]]
        except ValueError:
            raise InputDataError("non-numeric feature") from None
        if not all(map(math.isfinite, features)):
            raise InputDataError("non-finite feature")
        try:
            return features, int(ChangeLabel[parts[-1]])
        except KeyError:
            raise InputDataError(f"unknown change label {parts[-1]!r}") from None

    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header not in (training_csv_header(False), training_csv_header(True)):
            raise InputDataError(f"unexpected training csv header: {header!r}")
        n_cols = len(header.split(","))
        rows = checked_lines(fh, example, 2)
    if not rows:
        raise InputDataError("training csv has no rows")
    features, labels = zip(*rows)
    return np.array(features, dtype=np.float64), np.array(labels, dtype=np.int64)


def write_training_csv(features, labels, path) -> None:
    """Write (features, labels) in the load_training_csv format."""
    features = np.asarray(features, dtype=np.float64)
    with_prior = features.shape[1] == len(Theme) + 1
    if not with_prior and features.shape[1] != len(Theme):
        raise InputDataError(
            f"expected {len(Theme)} or {len(Theme) + 1} feature columns")
    write_csv(path, training_csv_header(with_prior),
              ([*map(repr, row.tolist()), ChangeLabel(int(label)).name]
               for row, label in zip(features, labels)))


def majority_baseline_accuracy(train_labels, test_labels) -> float:
    """Accuracy of always predicting the training majority class."""
    train_labels = _check_labels(train_labels)
    test_labels = _check_labels(test_labels)
    counts = np.bincount(train_labels, minlength=N_CHANGE_CLASSES)
    majority = int(np.argmax(counts))
    return float(np.mean(test_labels == majority))
