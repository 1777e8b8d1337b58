"""Classification metrics for the 2- and 3-point subtasks: per-class
recall/precision/F1, accuracy, macro-averaged recall (AvgRec) and the
Positive/Negative-only F1 average (F1_PN). Each is a function of one
gold-by-prediction confusion matrix.

Recall of a class absent from gold is undefined; such classes are excluded
from the AvgRec mean rather than counted as 0 or 1.
"""

from __future__ import annotations

from .errors import EmptyInput
from .model import ConfusionMatrix


def _require_nonempty(cm: ConfusionMatrix) -> None:
    if not cm.total:
        raise EmptyInput("no gold/prediction pairs to score")


def class_recall(cm: ConfusionMatrix, c: int) -> float | None:
    """Fraction of gold-c items predicted as c; None when gold has no c."""
    i = cm.scale.classes.index(c)
    support = sum(cm.counts[i])
    if not support:
        return None
    return cm.counts[i][i] / support


def class_precision(cm: ConfusionMatrix, c: int) -> float:
    """Fraction of predicted-c items whose gold is c; 0 when c never predicted."""
    i = cm.scale.classes.index(c)
    predicted = sum(row[i] for row in cm.counts)
    if not predicted:
        return 0.0
    return cm.counts[i][i] / predicted


def class_f1(cm: ConfusionMatrix, c: int) -> float:
    """Harmonic mean of precision and recall for class c; 0 on zero denominator."""
    _require_nonempty(cm)
    recall = class_recall(cm, c) or 0.0
    precision = class_precision(cm, c)
    if precision + recall == 0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


def accuracy(cm: ConfusionMatrix) -> float:
    _require_nonempty(cm)
    return sum(row[i] for i, row in enumerate(cm.counts)) / cm.total


def avg_rec(cm: ConfusionMatrix) -> float:
    """Mean of per-class recall over the classes present in gold."""
    _require_nonempty(cm)
    recalls = [class_recall(cm, c) for c in cm.scale.classes]
    present = [r for r in recalls if r is not None]
    return sum(present) / len(present)


def absent_classes(cm: ConfusionMatrix) -> list[int]:
    """Scale classes with no gold item, i.e. those excluded from AvgRec."""
    return [c for c, row in zip(cm.scale.classes, cm.counts) if not any(row)]


def f1_pn(cm: ConfusionMatrix) -> float:
    """Mean of F1 over the most positive (+1) and most negative (-1) classes;
    Neutral is excluded by definition."""
    _require_nonempty(cm)
    return (class_f1(cm, 1) + class_f1(cm, -1)) / 2
