"""Trivial baseline systems: constant-class classifiers, as confusion tables
built from gold class counts, point-mass prevalences, and the maximum-likelihood
quantifier that predicts the training class distribution."""

from __future__ import annotations

from enum import Enum
from typing import Mapping, Sequence

from .errors import EmptyInput, NoTopics, ScaleMismatch
from .model import ConfusionMatrix, Prevalence, Scale, class_fractions, left_sum


class Averaging(Enum):
    MICRO = "micro"
    MACRO = "macro"


def constant_classifier(
    scale: Scale, counts: Mapping[str | None, Sequence[int]], c: int
) -> dict[str | None, ConfusionMatrix]:
    """Each topic's confusion table when every item is predicted as class c:
    the topic's gold class counts, all in the column of c."""
    if c not in scale.classes:
        raise ScaleMismatch(f"class {c!r} not in scale {scale.name}")
    return {
        topic: ConfusionMatrix(
            scale, tuple(tuple(n if p == c else 0 for p in scale.classes) for n in row)
        )
        for topic, row in counts.items()
    }


def point_mass(scale, c: int) -> Prevalence:
    """Prevalence 1 for class c, 0 elsewhere."""
    scale.validate(c)
    return Prevalence(1.0 if cls == c else 0.0 for cls in scale.classes)


def ml_quantifier(
    scale: Scale, counts: Mapping[str | None, Sequence[int]], averaging: Averaging = Averaging.MICRO
) -> Prevalence:
    """Training-set class distribution from its per-topic class counts (see
    ingestion.count_labels): pooled over all items (micro) or the unweighted
    mean of per-topic distributions (macro)."""
    if not counts:
        raise EmptyInput("cannot estimate a prevalence from an empty training set")
    if averaging is Averaging.MICRO:  # topics may be absent here
        return Prevalence(class_fractions([sum(col) for col in zip(*counts.values())]))
    if None in counts:
        raise NoTopics("dataset has no topics")
    per_topic = [class_fractions(row) for row in counts.values()]
    means = [left_sum(col) / len(per_topic) for col in zip(*per_topic)]
    total = left_sum(means)  # renormalize to guard against rounding drift
    return Prevalence(m / total for m in means)
