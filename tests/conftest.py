from __future__ import annotations

from collections import Counter
from itertools import count
from typing import Iterable, Mapping

from topicsent.model import ConfusionMatrix, Dataset, LabeledItem, Scale, confusion_tables

_ids = count()


def dataset_from_counts(
    scale: Scale, counts: Mapping[int, int], topic: str | None = None
) -> Dataset:
    """A synthetic dataset with the given per-class gold counts."""
    items = []
    for cls, n in counts.items():
        for _ in range(n):
            items.append(LabeledItem(f"t{next(_ids)}", topic, cls))
    return Dataset.build(scale, items)


def table(scale: Scale, gold_pred: Iterable[tuple[int, int]]) -> ConfusionMatrix:
    """The confusion matrix of (gold, pred) label pairs."""
    n = Counter(gold_pred)
    return ConfusionMatrix(
        scale, tuple(tuple(n[g, p] for p in scale.classes) for g in scale.classes)
    )


def joined(gold: Dataset, pred: Dataset) -> ConfusionMatrix:
    """The confusion matrix of single-topic (or topicless) gold joined with pred."""
    (cm,) = confusion_tables(gold, pred)[0].values()
    return cm


def constant_table(gold: Dataset, pred_class: int) -> ConfusionMatrix:
    """Gold joined with an all-pred_class prediction."""
    from topicsent.baselines import constant_classifier

    return joined(gold, constant_classifier(gold, pred_class))
