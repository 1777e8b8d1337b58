"""Ordinal classification error for the five-point subtask: macro-averaged
(per-true-class) and micro-averaged (per-item) mean absolute error, as
functions of one gold-by-prediction confusion matrix. Class distance is the
integer difference induced by the -2..+2 encoding."""

from __future__ import annotations

from .errors import EmptyInput
from .model import ConfusionMatrix, left_sum


def _class_errors(cm: ConfusionMatrix) -> list[tuple[int, int]]:
    """(summed |pred - gold|, support) per gold class present, in scale.classes order."""
    if not cm.total:
        raise EmptyInput("no gold/prediction pairs to score")
    classes = cm.scale.classes
    return [
        (sum(n * abs(p - g) for p, n in zip(classes, row)), sum(row))
        for g, row in zip(classes, cm.counts)
        if any(row)
    ]


def mae_micro(cm: ConfusionMatrix) -> float:
    """Mean |pred - gold| over all pairs."""
    errors = _class_errors(cm)
    return sum(err for err, _ in errors) / sum(n for _, n in errors)


def mae_macro(cm: ConfusionMatrix) -> float:
    """Mean over the gold classes present of the class-conditional mean
    |pred - gold|. Classes absent from gold are excluded from the mean."""
    per_class = [err / n for err, n in _class_errors(cm)]
    return left_sum(per_class) / len(per_class)
