"""Core data model: sentiment scales, datasets, per-topic count tables
(confusion matrices and gold class counts), and class-prevalence extraction.

Labels are plain integers validated against a :class:`Scale`:
two-point {-1, +1}, three-point {-1, 0, +1}, five-point {-2 .. +2}.
All types are immutable after construction; operations are pure functions.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from dataclasses import dataclass
from enum import Enum
from operator import add
from typing import Iterable, Mapping, Sequence

from .errors import (
    DuplicateKey,
    EmptyInput,
    InvalidLabel,
    MissingPrediction,
    NoTopics,
    ScaleMismatch,
)

# Canonical label names, shared across scales. Positive maps to +1 even on
# the five-point scale, where +2 is HIGHLYPOSITIVE.
_NAME_TO_INT = {
    "HIGHLYPOSITIVE": 2,
    "POSITIVE": 1,
    "NEUTRAL": 0,
    "NEGATIVE": -1,
    "HIGHLYNEGATIVE": -2,
}
_INT_TO_NAME = {v: k for k, v in _NAME_TO_INT.items()}


class Scale(Enum):
    """An ordered sentiment class set. Enum values are the class lists,
    most negative first."""

    TWO_POINT = (-1, 1)
    THREE_POINT = (-1, 0, 1)
    FIVE_POINT = (-2, -1, 0, 1, 2)

    @property
    def classes(self) -> tuple[int, ...]:
        return self.value

    def validate(self, label: int) -> int:
        if label not in self.value:
            raise InvalidLabel(f"label {label!r} not in scale {self.name}")
        return label

    def parse_label(self, raw: str, *, line: int | None = None) -> int:
        """Accepts integer surface forms and canonical names, case-insensitive."""
        text = raw.strip()
        try:
            label = int(text)
        except ValueError:
            label = _NAME_TO_INT.get(text.upper())
            if label is None:
                raise InvalidLabel(f"unrecognized label {raw!r}", line=line) from None
        if label not in self.value:
            raise InvalidLabel(
                f"label {raw!r} invalid on scale {self.name}", line=line
            )
        return label

    def class_name(self, label: int) -> str:
        self.validate(label)
        return _INT_TO_NAME[label]


@dataclass(frozen=True)
class LabeledItem:
    """One record of a gold or prediction file."""

    id: str
    topic: str | None
    label: int
    text: str | None = None

    def __post_init__(self):
        if not self.id:
            raise InvalidLabel("item id must be non-empty")


@dataclass(frozen=True)
class Dataset:
    """A collection of labeled items on a single scale.

    Use :meth:`build` to construct from arbitrary iterables; it enforces the
    scale, the all-or-none topic rule, and (id, topic) uniqueness.
    """

    scale: Scale
    items: tuple[LabeledItem, ...]
    has_topics: bool

    @classmethod
    def build(cls, scale: Scale, items: Iterable[LabeledItem]) -> "Dataset":
        items = tuple(items)
        seen: set[tuple[str, str | None]] = set()
        n_with_topic = 0
        for it in items:
            scale.validate(it.label)
            key = (it.id, it.topic)
            if key in seen:
                raise DuplicateKey(f"duplicate (id, topic) pair {key}")
            seen.add(key)
            if it.topic is not None:
                n_with_topic += 1
        if n_with_topic not in (0, len(items)):
            raise NoTopics("items must either all carry a topic or none")
        return cls(scale, items, has_topics=bool(items) and n_with_topic == len(items))

    def __len__(self) -> int:
        return len(self.items)

    def labels(self) -> list[int]:
        return [it.label for it in self.items]


@dataclass(frozen=True)
class ConfusionMatrix:
    """Gold-by-prediction counts on one scale: ``counts[i][j]`` items have
    gold class ``scale.classes[i]`` and predicted class ``scale.classes[j]``."""

    scale: Scale
    counts: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        k = len(self.scale.classes)
        if len(self.counts) != k or any(len(row) != k for row in self.counts):
            raise ScaleMismatch(f"a {self.scale.name} confusion matrix must be {k}x{k}")

    def __add__(self, other: "ConfusionMatrix") -> "ConfusionMatrix":
        """Cell-wise sum: the table of both tables' items taken together."""
        return ConfusionMatrix(
            self.scale, tuple(tuple(map(add, r, s)) for r, s in zip(self.counts, other.counts))
        )

    @property
    def total(self) -> int:
        return sum(map(sum, self.counts))


@dataclass(frozen=True)
class Prevalence:
    """A class -> fraction distribution on a scale; fractions follow
    scale.classes order and sum to 1."""

    scale: Scale
    fractions: tuple[float, ...]

    _SUM_TOL = 1e-9

    def __post_init__(self):
        if len(self.fractions) != len(self.scale.classes):
            raise InvalidLabel(
                f"expected {len(self.scale.classes)} fractions, got {len(self.fractions)}"
            )
        if not all(math.isfinite(f) and f >= 0 for f in self.fractions):
            raise InvalidLabel("prevalence fractions must be finite and nonnegative")
        if abs(sum(self.fractions) - 1.0) > self._SUM_TOL:
            raise InvalidLabel(
                f"prevalence fractions sum to {sum(self.fractions)!r}, expected 1"
            )

    @classmethod
    def from_mapping(cls, scale: Scale, p: Mapping[int, float]) -> "Prevalence":
        for c in p:
            scale.validate(c)
        return cls(scale, tuple(float(p.get(c, 0.0)) for c in scale.classes))

    @classmethod
    def from_counts(cls, scale: Scale, counts: Sequence[int]) -> "Prevalence":
        """Relative class frequencies from class counts in scale.classes order."""
        n = sum(counts)
        if not n:
            raise EmptyInput("cannot compute prevalence of an empty label list")
        return cls(scale, tuple(c / n for c in counts))

    def __getitem__(self, c: int) -> float:
        return self.fractions[self.scale.classes.index(c)]

    def as_dict(self) -> dict[int, float]:
        return dict(zip(self.scale.classes, self.fractions))


def confusion_tables(
    gold: Dataset, pred: Dataset
) -> tuple[dict[str | None, ConfusionMatrix], int]:
    """Joins predictions onto gold by (id, topic) and counts each topic's
    gold/prediction class pairs. Topics come out sorted; data without topics
    gives one table under the key None.

    Also returns the number of prediction rows absent from gold, which are
    ignored. A gold item without a prediction is an error.
    """
    if gold.scale is not pred.scale:
        raise ScaleMismatch(
            f"gold scale {gold.scale.name} != prediction scale {pred.scale.name}"
        )
    index = {c: i for i, c in enumerate(gold.scale.classes)}
    k = len(index)
    predicted = {(it.id, it.topic): index[it.label] for it in pred.items}
    cells: dict[str | None, list[list[int]]] = defaultdict(lambda: [[0] * k for _ in range(k)])
    for it in gold.items:
        j = predicted.get((it.id, it.topic))
        if j is None:
            raise MissingPrediction(it.id, it.topic)
        cells[it.topic][index[it.label]][j] += 1
    tables = {t: ConfusionMatrix(gold.scale, tuple(map(tuple, cells[t]))) for t in sorted(cells)}
    # (id, topic) keys are unique on both sides and every gold key matched
    return tables, len(predicted) - len(gold.items)


def topic_class_counts(data: Dataset) -> dict[str, tuple[int, ...]]:
    """Each topic's class counts in scale.classes order; topics sorted."""
    if not data.has_topics:
        raise NoTopics("dataset has no topics")
    index = {c: i for i, c in enumerate(data.scale.classes)}
    counts: dict[str, list[int]] = defaultdict(lambda: [0] * len(index))
    for it in data.items:
        counts[it.topic][index[it.label]] += 1
    return {t: tuple(counts[t]) for t in sorted(counts)}


def prevalence_of(labels: Sequence[int], scale: Scale) -> Prevalence:
    """Relative frequency of every scale class among the given labels."""
    counts = Counter(scale.validate(lab) for lab in labels)
    return Prevalence.from_counts(scale, [counts[c] for c in scale.classes])
