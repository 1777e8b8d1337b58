"""Classification metrics of one gold-by-prediction count table: AvgRec,
F1_PN and accuracy for the 2- and 3-point subtasks, and the macro- and
micro-averaged mean absolute error for the 5-point one, with the integer class
distance of the -2..+2 encoding. Classes absent from gold are excluded from
the AvgRec and MAE^M means rather than counted."""

from __future__ import annotations

from typing import Sequence

from .errors import EmptyInput
from .model import Scale, left_sum


def table_metrics(scale: Scale, counts: Sequence[Sequence[int]]) -> dict[str, float]:
    """The subtask's metric bundle of one k x k table (see ``model``), whose
    shape is not checked: ``mae_macro`` and ``mae_micro`` on the five-point
    scale, else ``avgrec``, ``f1_pn`` and ``accuracy``. Means over classes are
    left folds in class order."""
    classes = scale.classes
    support = list(map(sum, counts))
    n = sum(support)
    if not n:
        raise EmptyInput("no gold/prediction pairs to score")
    present = [i for i, s in enumerate(support) if s]
    if scale is Scale.FIVE_POINT:
        errors = [sum(m * abs(p - g) for p, m in zip(classes, row))
                  for g, row in zip(classes, counts)]
        return {
            "mae_macro": left_sum([errors[i] / support[i] for i in present]) / len(present),
            "mae_micro": sum(errors) / n,
        }
    hits = [row[i] for i, row in enumerate(counts)]
    predicted = list(map(sum, zip(*counts)))

    def f1(c: int) -> float:
        """F1 of class c; a recall or precision with a zero denominator is 0."""
        i = classes.index(c)
        recall = hits[i] / support[i] if support[i] else 0.0
        precision = hits[i] / predicted[i] if predicted[i] else 0.0
        if precision + recall == 0:
            return 0.0
        return 2 * precision * recall / (precision + recall)

    return {
        "avgrec": left_sum([hits[i] / support[i] for i in present]) / len(present),
        "f1_pn": (f1(1) + f1(-1)) / 2,  # Neutral is excluded by definition
        "accuracy": sum(hits) / n,
    }

