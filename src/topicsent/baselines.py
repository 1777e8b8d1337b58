"""Trivial baseline systems: constant-class classifiers, constant-prevalence
quantifiers, and the maximum-likelihood quantifier that predicts the training
class distribution."""

from __future__ import annotations

from enum import Enum
from typing import Iterable

from .errors import EmptyInput, ScaleMismatch
from .model import Dataset, LabeledItem, Prevalence, prevalence_of, topic_class_counts


class Averaging(Enum):
    MICRO = "micro"
    MACRO = "macro"


def constant_classifier(gold: Dataset, c: int) -> Dataset:
    """Predictions labeling every gold item as class c."""
    if c not in gold.scale.classes:
        raise ScaleMismatch(f"class {c!r} not in scale {gold.scale.name}")
    items = tuple(LabeledItem(it.id, it.topic, c) for it in gold.items)
    return Dataset(gold.scale, items, has_topics=gold.has_topics)


def constant_quantifier(topics: Iterable[str], p: Prevalence) -> dict[str, Prevalence]:
    """The same predicted distribution for every topic."""
    return {t: p for t in topics}


def point_mass(scale, c: int) -> Prevalence:
    """Prevalence 1 for class c, 0 elsewhere."""
    scale.validate(c)
    return Prevalence(scale, tuple(1.0 if cls == c else 0.0 for cls in scale.classes))


def ml_quantifier(train: Dataset, averaging: Averaging = Averaging.MICRO) -> Prevalence:
    """Training-set class distribution: pooled over all items (micro) or the
    unweighted mean of per-topic distributions (macro)."""
    if not train.items:
        raise EmptyInput("cannot estimate a prevalence from an empty training set")
    if averaging is Averaging.MICRO:
        return prevalence_of(train.labels(), train.scale)
    per_topic = [
        Prevalence.from_counts(train.scale, counts).fractions
        for counts in topic_class_counts(train).values()
    ]
    means = [sum(col) / len(per_topic) for col in zip(*per_topic)]
    total = sum(means)  # renormalize to guard against rounding drift
    return Prevalence(train.scale, tuple(m / total for m in means))
