"""Core data model: sentiment scales, datasets, per-topic count tables
(confusion matrices and gold class counts), class fractions from counts, and
:class:`Prevalence`, the validated distribution type of prediction inputs.

Labels are plain integers validated against a :class:`Scale`:
two-point {-1, +1}, three-point {-1, 0, +1}, five-point {-2 .. +2}.
All types are immutable after construction; operations are pure functions,
except that :func:`join_rows` consumes the gold dict it is handed.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from enum import Enum
from operator import add
from types import MappingProxyType
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
# The usual surface forms, uppercased, so that parsing them raises nothing.
_SURFACE_FORMS = {**_NAME_TO_INT, **{str(v): v for v in _NAME_TO_INT.values()}}


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
        label = _SURFACE_FORMS.get(text.upper())
        if label is None:
            try:
                label = int(text)
            except ValueError:
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
class Dataset:
    """Labels on a single scale: ``labels`` is a read-only map from each
    (id, topic) key to its label, in input order; the topic is None for data
    without topics. :meth:`build` enforces the scale, non-empty ids, the
    all-or-none topic rule, and (id, topic) uniqueness.
    """

    scale: Scale
    labels: Mapping[tuple[str, str | None], int]

    def __post_init__(self):
        object.__setattr__(self, "labels", MappingProxyType(self.labels))

    @classmethod
    def build(cls, scale: Scale, rows: Iterable[tuple[str, str | None, int]]) -> "Dataset":
        """Builds a dataset from (id, topic, label) rows."""
        labels: dict[tuple[str, str | None], int] = {}
        for item_id, topic, label in rows:
            if not item_id:
                raise InvalidLabel("item id must be non-empty")
            scale.validate(label)
            key = (item_id, topic)
            if key in labels:
                raise DuplicateKey(f"duplicate (id, topic) pair {key}")
            labels[key] = label
        if len({topic is None for _, topic in labels}) > 1:
            raise NoTopics("items must either all carry a topic or none")
        return cls(scale, labels)

    def __len__(self) -> int:
        return len(self.labels)


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
    """A validated class -> fraction distribution on a scale, as a user or a
    file states it: fractions follow scale.classes order, are finite and
    nonnegative, and sum to 1. Scoring works on plain fraction tuples."""

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
        total = exact_sum(self.fractions)
        if abs(total - 1.0) > self._SUM_TOL:
            raise InvalidLabel(f"prevalence fractions sum to {total!r}, expected 1")


def exact_sum(values: Iterable[float]) -> float:
    """math.fsum, which no order of the values can change; inf on overflow."""
    try:
        return math.fsum(values)
    except OverflowError:
        return math.inf


_ABSENT = object()  # join_rows: key not in gold; None marks a matched gold key


def confusion_tables(
    gold: Dataset, pred: Dataset
) -> tuple[dict[str | None, ConfusionMatrix], int]:
    """Joins predictions onto gold by (id, topic) and counts each topic's
    gold/prediction class pairs; see :func:`join_rows`."""
    if gold.scale is not pred.scale:
        raise ScaleMismatch(
            f"gold scale {gold.scale.name} != prediction scale {pred.scale.name}"
        )
    return join_rows(
        gold.scale, dict(gold.labels), ((None, key, label) for key, label in pred.labels.items())
    )


def join_rows(
    scale: Scale,
    gold: dict[tuple[str, str | None], int | None],
    pred_rows: Iterable[tuple[int | None, tuple[str, str | None], int]],
) -> tuple[dict[str | None, ConfusionMatrix], int]:
    """Joins ``(line, (id, topic), label)`` prediction rows onto the gold
    labels and counts each topic's gold/prediction class pairs. Topics come
    out sorted; data without topics gives one table under the key None.
    Also returns the number of prediction rows absent from gold, which are
    ignored.

    The join consumes ``gold``: a matched entry is set to None, so a repeated
    prediction key raises DuplicateKey at its line without a second map.
    After the rows, the first gold key without a prediction, in gold order,
    raises MissingPrediction.
    """
    index = {c: i for i, c in enumerate(scale.classes)}
    k = len(index)
    cells: dict[str | None, list[list[int]]] = defaultdict(lambda: [[0] * k for _ in range(k)])
    ignored: set[tuple[str, str | None]] = set()
    for n, key, label in pred_rows:
        gold_label = gold.get(key, _ABSENT)
        if gold_label is None or gold_label is _ABSENT and key in ignored:
            raise DuplicateKey(f"duplicate (id, topic) pair {key}", line=n)
        if gold_label is _ABSENT:
            ignored.add(key)
        else:
            cells[key[1]][index[gold_label]][index[label]] += 1
            gold[key] = None
    for key, gold_label in gold.items():
        if gold_label is not None:
            raise MissingPrediction(*key)
    tables = {t: ConfusionMatrix(scale, tuple(map(tuple, cells[t]))) for t in sorted(cells)}
    return tables, len(ignored)


def topic_class_counts(data: Dataset) -> dict[str | None, tuple[int, ...]]:
    """Each topic's class counts in scale.classes order; topics sorted. Data
    without topics gives one count vector under the key None."""
    index = {c: i for i, c in enumerate(data.scale.classes)}
    counts: dict[str | None, list[int]] = defaultdict(lambda: [0] * len(index))
    for (_, topic), label in data.labels.items():
        counts[topic][index[label]] += 1
    return {t: tuple(counts[t]) for t in sorted(counts)}


def class_fractions(counts: Sequence[int]) -> tuple[float, ...]:
    """Relative class frequencies from class counts."""
    n = sum(counts)
    if not n:
        raise EmptyInput("cannot compute prevalence of an empty label list")
    return tuple(c / n for c in counts)
