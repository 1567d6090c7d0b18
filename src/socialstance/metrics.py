"""Class probabilities, classification metrics and agreement statistics.

Both classifiers take their probabilities from softmax and their log-loss
from mean_log_loss. Classification quality is reported macro-averaged over all classes.
Agreement over an annotation round comes in three strengths: average
observed agreement (no chance correction), Fleiss' kappa (chance-corrected,
complete rating matrices), and Krippendorff's alpha (nominal metric,
tolerates missing ratings via the coincidence-matrix formulation).
agreement_report builds its overall entry and every per-label entry the
same way: alpha, plus the two pair statistics or null when ragged.
"""

from dataclasses import dataclass

import numpy as np

from .corpus import StanceLabel
from .errors import InputDataError, checked_header, checked_lines

RATINGS_HEADER = "item_id,rater_id,label"
PROB_FLOOR = 1e-12


def softmax(scores: np.ndarray) -> np.ndarray:
    """Max-shifted softmax over the last axis."""
    expd = np.exp(scores - np.max(scores, axis=-1, keepdims=True))
    return expd / expd.sum(axis=-1, keepdims=True)


def mean_log_loss(true_probs) -> float:
    """Mean negative log of each sample's true-class probability, floored
    at PROB_FLOOR."""
    return float(np.mean(-np.log(np.maximum(true_probs, PROB_FLOOR))))


@dataclass(frozen=True)
class MetricReport:
    accuracy: float
    precision: float
    recall: float
    f1: float

    def as_dict(self):
        return {"accuracy": self.accuracy, "precision": self.precision,
                "recall": self.recall, "f1": self.f1}


def multiclass_report(predicted, gold, n_classes: int) -> MetricReport:
    """Accuracy plus macro precision/recall/F1 over all n_classes.

    Classes with an empty denominator contribute 0 to the macro average
    (they still divide it), so reports stay comparable across runs where a
    rare class drops out of the predictions.
    """
    predicted = np.asarray([int(p) for p in predicted])
    gold = np.asarray([int(g) for g in gold])
    if predicted.shape != gold.shape or predicted.ndim != 1:
        raise ValueError("predicted and gold must be equal-length 1-D sequences")
    if predicted.size == 0:
        raise ValueError("cannot score an empty prediction set")
    both = np.concatenate([predicted, gold])
    bad = both[(both < 0) | (both >= n_classes)]
    if bad.size:
        raise ValueError(f"class index {int(bad[0])} out of range 0..{n_classes - 1}")
    confusion = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(confusion, (gold, predicted), 1)
    tp = np.diag(confusion).astype(np.float64)
    pred_totals = confusion.sum(axis=0).astype(np.float64)
    gold_totals = confusion.sum(axis=1).astype(np.float64)
    precision = np.divide(tp, pred_totals, out=np.zeros(n_classes), where=pred_totals > 0)
    recall = np.divide(tp, gold_totals, out=np.zeros(n_classes), where=gold_totals > 0)
    pr_sum = precision + recall
    f1 = np.divide(2 * precision * recall, pr_sum, out=np.zeros(n_classes), where=pr_sum > 0)
    return MetricReport(
        accuracy=float(np.mean(predicted == gold)),
        precision=float(np.mean(precision)),
        recall=float(np.mean(recall)),
        f1=float(np.mean(f1)),
    )


def stance_report(predicted, gold) -> MetricReport:
    """Report over the StanceLabel classes; accepts labels or indices."""
    return multiclass_report(predicted, gold, n_classes=len(StanceLabel))


# -- agreement --------------------------------------------------------------


def _validate_matrix(matrix) -> np.ndarray:
    matrix = np.asarray(matrix)
    if matrix.ndim != 2 or matrix.shape[0] < 1 or matrix.shape[1] < 2:
        raise InputDataError("rating matrix must be (items, >=2 categories)")
    if np.any(matrix < 0) or not np.issubdtype(matrix.dtype, np.integer):
        raise InputDataError("rating matrix must hold non-negative integer counts")
    row_sums = matrix.sum(axis=1)
    if np.any(row_sums < 2):
        raise InputDataError("every item needs at least two ratings")
    if np.any(row_sums != row_sums[0]):
        raise InputDataError("all items must have the same number of ratings")
    return matrix


def average_observed_agreement(matrix) -> float:
    """Mean over items of the fraction of agreeing rater pairs.

    With r raters per item and counts n_ic, item agreement is
    sum_c n_ic (n_ic - 1) / (r (r - 1)).
    """
    matrix = _validate_matrix(matrix)
    r = int(matrix.sum(axis=1)[0])
    per_item = (matrix * (matrix - 1)).sum(axis=1) / (r * (r - 1))
    return float(np.mean(per_item))


def fleiss_kappa(matrix) -> float:
    """Chance-corrected multi-rater agreement (Fleiss 1971).

    kappa = (P_bar - Pe_bar) / (1 - Pe_bar), where Pe_bar is the squared
    category-proportion mass. When every rating lands in one category the
    correction degenerates; that can only be perfect agreement, reported
    as 1.0 (anything else means the matrix is inconsistent).
    """
    matrix = _validate_matrix(matrix)
    p_bar = average_observed_agreement(matrix)
    proportions = matrix.sum(axis=0) / matrix.sum()
    pe_bar = float(np.sum(proportions ** 2))
    if pe_bar == 1.0:
        if p_bar == 1.0:
            return 1.0
        raise InputDataError("degenerate expected agreement")
    return (p_bar - pe_bar) / (1.0 - pe_bar)


def krippendorff_alpha(units) -> float:
    """Nominal-metric Krippendorff's alpha over possibly-incomplete ratings.

    `units` maps each item to its list of ratings (any hashable labels);
    a plain list of lists works too. Items with fewer than two ratings
    carry no pairable information and are dropped. alpha = 1 - D_o / D_e
    via the coincidence matrix: each ordered pair of distinct positions in
    a unit of m ratings contributes 1/(m-1).
    """
    if hasattr(units, "values"):
        units = list(units.values())
    usable = [list(u) for u in units if len(u) >= 2]
    if not usable:
        raise InputDataError("no unit has two or more ratings")
    categories = sorted({v for unit in usable for v in unit}, key=str)
    cat_index = {c: i for i, c in enumerate(categories)}
    n_cat = len(categories)
    coincidence = np.zeros((n_cat, n_cat), dtype=np.float64)
    for unit in usable:
        m = len(unit)
        for i, a in enumerate(unit):
            for j, b in enumerate(unit):
                if i != j:
                    coincidence[cat_index[a], cat_index[b]] += 1.0 / (m - 1)
    totals = coincidence.sum(axis=1)
    n = totals.sum()
    observed_disagreement = coincidence.sum() - np.trace(coincidence)
    expected_mass = n * n - np.sum(totals ** 2)  # sum_{c != k} n_c n_k
    if expected_mass == 0.0:
        # Single observed category: expected disagreement is zero and the
        # ratio is undefined.
        raise InputDataError("no variation in data")
    return float(1.0 - (n - 1.0) * observed_disagreement / expected_mass)


def one_vs_rest(matrix, category: int) -> np.ndarray:
    """Binarize a rating matrix to [category, everything else] columns."""
    matrix = _validate_matrix(matrix)
    if not 0 <= category < matrix.shape[1]:
        raise InputDataError(f"category {category} out of range")
    target = matrix[:, category]
    rest = matrix.sum(axis=1) - target
    return np.stack([target, rest], axis=1)


# -- ratings file ------------------------------------------------------------


def load_ratings_csv(path):
    """Read (item_id, rater_id, label) rows; duplicates are an error."""
    seen = set()

    def rating(line):
        parts = line.strip().split(",")
        if len(parts) != 3 or not all(parts):
            raise InputDataError("expected three non-empty fields")
        item, rater, label = parts
        if (item, rater) in seen:
            raise InputDataError(f"duplicate rating for item {item!r} by {rater!r}")
        seen.add((item, rater))
        return item, rater, label

    with open(path, encoding="utf-8") as fh:
        checked_header(fh, RATINGS_HEADER)
        rows = checked_lines(fh, rating, 2)
    if not rows:
        raise InputDataError("ratings file has no rows")
    return rows


def ratings_to_units(rows):
    """Group rating rows into item -> list of labels (sorted item order)."""
    units = {}
    for item, _, label in rows:
        units.setdefault(item, []).append(label)
    return {item: units[item] for item in sorted(units)}


def ratings_to_matrix(rows):
    """Build a complete rating matrix from rows.

    Returns (matrix, item_ids, categories), both sorted. Raises if items
    have unequal rating counts; use krippendorff_alpha for ragged data.
    """
    units = ratings_to_units(rows)
    categories = sorted({label for _, _, label in rows})
    cat_index = {c: i for i, c in enumerate(categories)}
    items = list(units)
    matrix = np.zeros((len(items), len(categories)), dtype=np.int64)
    for i, item in enumerate(items):
        for label in units[item]:
            matrix[i, cat_index[label]] += 1
    _validate_matrix(matrix)
    return matrix, items, categories


def agreement_report(rows) -> dict:
    """Overall and per-label agreement for one annotation round.

    Krippendorff's alpha is always computed. The pair statistics (average
    observed agreement, Fleiss' kappa) need a complete matrix and are null
    when rating counts are ragged. Per-label entries binarize to
    label-vs-rest before recomputing each statistic.
    """
    units = ratings_to_units(rows)
    try:
        matrix, _, categories = ratings_to_matrix(rows)
    except InputDataError:
        matrix, categories = None, sorted({label for _, _, label in rows})

    def entry(alpha, counts):
        """alpha plus the pair statistics of the rating matrix `counts`,
        or None for both when the ratings are ragged (counts is None)."""
        ragged = counts is None
        return {"krippendorff_alpha": alpha,
                "average_observed_agreement":
                    None if ragged else average_observed_agreement(counts),
                "fleiss_kappa": None if ragged else fleiss_kappa(counts)}

    report = {"overall": entry(krippendorff_alpha(units), matrix), "per_label": {}}
    for c, label in enumerate(categories):
        try:
            alpha = krippendorff_alpha({item: [int(v == label) for v in vals]
                                        for item, vals in units.items()})
        except InputDataError:
            # The label can vanish from pairable units when it only appears
            # in single-rating items; that is raggedness, not user error.
            alpha = None
        report["per_label"][label] = entry(
            alpha, None if matrix is None else one_vs_rest(matrix, c))
    return report
