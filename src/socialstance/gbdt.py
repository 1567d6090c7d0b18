"""Multiclass gradient-boosted regression trees over theme-count features.

Softmax objective: per boosting round and per class, a regression tree is
fit to the pseudo-residuals (one-hot minus predicted probability) by exact
greedy squared-error split search, and its leaves take the standard Newton
step for multiclass log-loss. Scores start at the per-class log-priors and
accumulate shrinkage-weighted tree outputs, which fit takes from the leaves
as they grow. Each node's split search covers all features in one array pass.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InputDataError
from .hesitancy import ChangeLabel, Theme
from .metrics import MetricReport, multiclass_report

MODEL_MAGIC = "gbdt v1"
N_CHANGE_CLASSES = len(ChangeLabel)

# Residuals live in [-1, 1]; real split gains dwarf this, float noise does not.
_MIN_GAIN = 1e-12
# Below this the Newton denominator is all rounding error; emit a dead leaf.
_MIN_HESSIAN = 1e-150

PROB_FLOOR = 1e-12


@dataclass(frozen=True)
class GbdtConfig:
    rounds: int = 100
    max_depth: int = 5
    shrinkage: float = 0.1

    def __post_init__(self):
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


def _leaf_value(residuals: np.ndarray, n_classes: int) -> float:
    # Newton step for the multiclass softmax objective: the hessian diagonal
    # for residual r = y - p is p(1-p) = |r|(1-|r|).
    numerator = float(residuals.sum())
    denominator = float(np.sum(np.abs(residuals) * (1.0 - np.abs(residuals))))
    if abs(denominator) < _MIN_HESSIAN:
        return 0.0
    return (n_classes - 1.0) / n_classes * numerator / denominator


def _best_split(features: np.ndarray, residuals: np.ndarray, idx: np.ndarray):
    """Exact greedy SSE split over all (feature, midpoint) candidates at once.

    Returns (feature, threshold) or None when no split reduces squared
    error. Ties break toward the lowest feature index, then the lowest
    threshold: argmax takes the first maximum of the feature-major ravel of
    the (n - 1, f) gains, and each column's candidates ascend with its values.
    """
    node_r = residuals[idx]
    n = idx.size
    total = node_r.sum()
    total_sq = float(node_r @ node_r)
    parent_sse = total_sq - total * total / n
    vals = features[idx]
    order = np.argsort(vals, axis=0, kind="stable")
    sv = np.take_along_axis(vals, order, axis=0)
    sr = node_r[order]
    left_sum = np.cumsum(sr, axis=0)[:-1]
    left_sq = np.cumsum(sr * sr, axis=0)[:-1]
    n_left = np.arange(1, n, dtype=np.float64)[:, None]
    left_sse = left_sq - left_sum * left_sum / n_left
    right_sum = total - left_sum
    right_sse = (total_sq - left_sq) - right_sum * right_sum / (n - n_left)
    gain = parent_sse - left_sse - right_sse
    # Splitting between equal values is meaningless; mask those slots.
    gain[sv[1:] == sv[:-1]] = -np.inf
    best = int(np.argmax(gain.T.ravel()))
    f, i = divmod(best, n - 1)
    if not gain[i, f] > _MIN_GAIN:
        return None
    return f, (float(sv[i, f]) + float(sv[i + 1, f])) / 2.0


def _grow_tree(features, residuals, idx, depth, max_depth, n_classes,
               out) -> TreeNode:
    """Grow the subtree over rows idx; write each leaf's value to out[rows]."""
    split = None
    if depth < max_depth and idx.size >= 2:
        split = _best_split(features, residuals, idx)
    if split is None:
        out[idx] = value = _leaf_value(residuals[idx], n_classes)
        return TreeNode(value=value)
    feature, threshold = split
    left_mask = features[idx, feature] <= threshold
    return TreeNode(
        feature=feature,
        threshold=threshold,
        left=_grow_tree(features, residuals, idx[left_mask],
                        depth + 1, max_depth, n_classes, out),
        right=_grow_tree(features, residuals, idx[~left_mask],
                         depth + 1, max_depth, n_classes, out),
    )


@dataclass
class GbdtModel:
    """Fitted booster: per-class base scores plus rounds x classes trees."""

    config: GbdtConfig
    n_classes: int
    n_features: int
    base_scores: np.ndarray
    trees: list = field(default_factory=list)  # trees[round][class]

    def __post_init__(self):
        self.base_scores = np.asarray(self.base_scores, dtype=np.float64)
        if self.base_scores.shape != (self.n_classes,):
            raise InputDataError("base_scores shape does not match n_classes")


def _softmax_rows(scores: np.ndarray) -> np.ndarray:
    shifted = scores - scores.max(axis=1, keepdims=True)
    expd = np.exp(shifted)
    return expd / expd.sum(axis=1, keepdims=True)


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


def fit(features, labels, config: GbdtConfig = GbdtConfig(),
        n_classes: int = N_CHANGE_CLASSES) -> GbdtModel:
    """Train a booster on (n, f) features and integer class labels."""
    features = _check_features(features)
    labels = np.asarray(labels)
    n = features.shape[0]
    if n < 2:
        raise InputDataError("need at least 2 training samples")
    if labels.shape != (n,):
        raise InputDataError("labels length does not match features")
    # Refuse bool and float labels rather than cast them: 1.7 would become 1.
    if labels.dtype.kind not in "iu" or labels.min() < 0 or labels.max() >= n_classes:
        raise InputDataError(
            f"labels must be integer class indices in [0, {n_classes})")
    labels = labels.astype(np.int64)

    priors = np.bincount(labels, minlength=n_classes) / n
    base_scores = np.log(np.maximum(priors, PROB_FLOOR))
    model = GbdtModel(config=config, n_classes=n_classes,
                      n_features=features.shape[1], base_scores=base_scores)

    scores = np.tile(base_scores, (n, 1))
    onehot = np.zeros((n, n_classes))
    onehot[np.arange(n), labels] = 1.0
    all_idx = np.arange(n)
    leaf_out = np.empty(n)  # every row lands in one leaf, so all are rewritten
    for _ in range(config.rounds):
        probs = _softmax_rows(scores)
        residuals = onehot - probs
        round_trees = []
        for c in range(n_classes):
            root = _grow_tree(features, residuals[:, c], all_idx, 0,
                              config.max_depth, n_classes, leaf_out)
            round_trees.append(RegressionTree(root))
            scores[:, c] += config.shrinkage * leaf_out
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
    probs = _softmax_rows(decision_scores(model, arr))
    return probs[0] if arr.ndim == 1 else probs


def predict(model: GbdtModel, x):
    """Most probable class; lowest index wins exact ties."""
    arr = np.asarray(x, dtype=np.float64)
    scores = decision_scores(model, arr)
    labels = np.argmax(scores, axis=1)
    return int(labels[0]) if arr.ndim == 1 else labels


def log_loss(model: GbdtModel, features, labels) -> float:
    """Mean negative log-probability of the true class."""
    labels = np.asarray(labels, dtype=np.int64)
    probs = _softmax_rows(decision_scores(model, features))
    picked = np.maximum(probs[np.arange(labels.size), labels], PROB_FLOOR)
    return float(np.mean(-np.log(picked)))


def priors_log_loss(labels, n_classes: int = N_CHANGE_CLASSES) -> float:
    """Log-loss of predicting the training priors for every sample."""
    labels = np.asarray(labels, dtype=np.int64)
    priors = np.bincount(labels, minlength=n_classes) / labels.size
    picked = np.maximum(priors[labels], PROB_FLOOR)
    return float(np.mean(-np.log(picked)))


def evaluate(model: GbdtModel, features, labels) -> MetricReport:
    """Accuracy and macro precision/recall/F1 on a held-out set."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.size == 0:
        raise InputDataError("empty evaluation set")
    predictions = predict(model, features)
    return multiclass_report(list(predictions), list(labels), model.n_classes)


# -- serialization -----------------------------------------------------------


def save_model(model: GbdtModel, path) -> None:
    """Versioned text serialization; floats use repr for exact round-trip.

    Trees are written in training order, each as a preorder walk with one
    node per line.
    """
    lines = [
        MODEL_MAGIC,
        f"n_classes={model.n_classes}",
        f"n_features={model.n_features}",
        f"rounds={len(model.trees)}",
        f"max_depth={model.config.max_depth}",
        f"shrinkage={model.config.shrinkage!r}",
        "base " + " ".join(repr(float(b)) for b in model.base_scores),
    ]
    for rnd, round_trees in enumerate(model.trees):
        for c, tree in enumerate(round_trees):
            lines.append(f"tree {rnd} {c} {tree.n_nodes()}")
            lines.extend(f"leaf {node.value!r}" if node.is_leaf
                         else f"split {node.feature} {node.threshold!r}"
                         for node, _ in tree.walk())
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


class _LineReader:
    def __init__(self, lines):
        self.lines = lines
        self.pos = 0

    def next(self) -> str:
        if self.pos >= len(self.lines):
            raise InputDataError("model file ended early")
        line = self.lines[self.pos]
        self.pos += 1
        return line

    @property
    def lineno(self) -> int:
        return self.pos


def _read_node(reader: _LineReader) -> TreeNode:
    line = reader.next()
    parts = line.split()
    try:
        if parts[0] == "leaf" and len(parts) == 2:
            return TreeNode(value=float(parts[1]))
        if parts[0] == "split" and len(parts) == 3:
            feature, threshold = int(parts[1]), float(parts[2])
            left = _read_node(reader)
            right = _read_node(reader)
            return TreeNode(feature=feature, threshold=threshold,
                            left=left, right=right)
    except ValueError:
        pass
    raise InputDataError(f"line {reader.lineno}: bad tree node {line!r}")


def _header_int(reader: _LineReader, key: str) -> int:
    line = reader.next()
    prefix = key + "="
    if not line.startswith(prefix):
        raise InputDataError(f"line {reader.lineno}: expected {key}=..., got {line!r}")
    try:
        return int(line[len(prefix):])
    except ValueError:
        raise InputDataError(f"line {reader.lineno}: bad integer in {line!r}") from None


def load_model(path) -> GbdtModel:
    """Read a save_model file back; bit-exact inverse of save_model."""
    with open(path, encoding="utf-8") as fh:
        lines = [line.rstrip("\n") for line in fh]
    while lines and not lines[-1]:
        lines.pop()
    reader = _LineReader(lines)
    if reader.next() != MODEL_MAGIC:
        raise InputDataError(f"not a {MODEL_MAGIC!r} file")
    n_classes = _header_int(reader, "n_classes")
    n_features = _header_int(reader, "n_features")
    rounds = _header_int(reader, "rounds")
    max_depth = _header_int(reader, "max_depth")
    shrinkage_line = reader.next()
    if not shrinkage_line.startswith("shrinkage="):
        raise InputDataError(f"line {reader.lineno}: expected shrinkage=...")
    shrinkage = float(shrinkage_line.split("=", 1)[1])
    base_line = reader.next().split()
    if base_line[0] != "base" or len(base_line) != 1 + n_classes:
        raise InputDataError(f"line {reader.lineno}: bad base scores line")
    base_scores = np.array([float(v) for v in base_line[1:]])
    config = GbdtConfig(rounds=rounds, max_depth=max_depth, shrinkage=shrinkage)
    model = GbdtModel(config=config, n_classes=n_classes,
                      n_features=n_features, base_scores=base_scores)
    for rnd in range(rounds):
        round_trees = []
        for c in range(n_classes):
            head = reader.next().split()
            if len(head) != 4 or head[:3] != ["tree", str(rnd), str(c)] \
                    or not head[3].isdigit():
                raise InputDataError(
                    f"line {reader.lineno}: bad tree header {' '.join(head)!r}")
            declared = int(head[3])
            tree = RegressionTree(_read_node(reader))
            if tree.n_nodes() != declared:
                raise InputDataError(
                    f"tree {rnd}/{c}: declared {declared} nodes, read {tree.n_nodes()}")
            round_trees.append(tree)
        model.trees.append(round_trees)
    if reader.pos != len(lines):
        raise InputDataError(f"line {reader.lineno + 1}: trailing content")
    return model


# -- training data files -----------------------------------------------------


def training_csv_header(with_prior: bool = False) -> str:
    names = [theme.name for theme in Theme]
    if with_prior:
        names.append("prior_score")
    names.append("label")
    return ",".join(names)


def load_training_csv(path):
    """Read change-prediction training data.

    Expects the 11 theme columns (optionally followed by prior_score) and a
    label column of ChangeLabel names. Returns (features, labels) arrays.
    """
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header not in (training_csv_header(False), training_csv_header(True)):
            raise InputDataError(f"unexpected training csv header: {header!r}")
        n_cols = len(header.split(","))
        rows, labels = [], []
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != n_cols:
                raise InputDataError(
                    f"line {lineno}: expected {n_cols} fields, got {len(parts)}")
            try:
                rows.append([float(v) for v in parts[:-1]])
            except ValueError:
                raise InputDataError(f"line {lineno}: non-numeric feature") from None
            try:
                labels.append(int(ChangeLabel[parts[-1]]))
            except KeyError:
                raise InputDataError(
                    f"line {lineno}: unknown change label {parts[-1]!r}") from None
    if not rows:
        raise InputDataError("training csv has no rows")
    return np.array(rows, dtype=np.float64), np.array(labels, dtype=np.int64)


def write_training_csv(features, labels, path) -> None:
    """Write (features, labels) in the load_training_csv format."""
    features = np.asarray(features, dtype=np.float64)
    with_prior = features.shape[1] == len(Theme) + 1
    if not with_prior and features.shape[1] != len(Theme):
        raise InputDataError(
            f"expected {len(Theme)} or {len(Theme) + 1} feature columns")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(training_csv_header(with_prior) + "\n")
        for row, label in zip(features, labels):
            cells = [repr(float(v)) for v in row]
            cells.append(ChangeLabel(int(label)).name)
            fh.write(",".join(cells) + "\n")


def majority_baseline_accuracy(train_labels, test_labels) -> float:
    """Accuracy of always predicting the training majority class."""
    train_labels = np.asarray(train_labels, dtype=np.int64)
    test_labels = np.asarray(test_labels, dtype=np.int64)
    counts = np.bincount(train_labels, minlength=N_CHANGE_CLASSES)
    majority = int(np.argmax(counts))
    return float(np.mean(test_labels == majority))
