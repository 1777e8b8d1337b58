"""Core data model: sentiment scales, per-topic count tables (confusion
matrices), the row-key join that builds them, class fractions from counts,
and :class:`Prevalence`, the tuple type of predicted class fractions.

Labels are plain integers validated against a :class:`Scale`:
two-point {-1, +1}, three-point {-1, 0, +1}, five-point {-2 .. +2}.
All types are immutable after construction; operations are pure functions,
except that :func:`join_rows` consumes the gold dict it is handed.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from enum import Enum
from functools import reduce
from operator import add
from typing import Iterable, Sequence

from .errors import DuplicateKey, EmptyInput, InvalidLabel, MissingPrediction, ScaleMismatch

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
        """Accepts ASCII integer surface forms and canonical names,
        case-insensitive."""
        text = raw.strip()
        label = _SURFACE_FORMS.get(text.upper()) if text.isascii() else None
        if label is None:
            try:
                label = ascii_number(int, text)
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


class Prevalence(tuple):
    """Class fractions in scale.classes order: a plain tuple, subclassed only
    for ``fractions``, through which ``bench/tracer.py`` counts parsed values.
    ``ingestion.normalized_prevalence`` is the checked constructor."""

    __slots__ = ()

    @property
    def fractions(self) -> tuple[float, ...]:
        """The fractions as a plain tuple."""
        return tuple(self)


def left_sum(values: Iterable[float]) -> float:
    """``0 + v0 + v1 + ...`` in the given order: what float ``sum`` returns on
    Python 3.11, where later versions compensate the rounding, so a score does
    not depend on the Python version."""
    return reduce(add, values, 0)


def ascii_number(kind: type[int] | type[float], text: str) -> int | float:
    """``kind(text)`` for an int or float written in ASCII without ``_``:
    ValueError for the digit separators and non-ASCII digits or spaces that
    Python's ``int`` and ``float`` also accept (``0_1``, U+0661 for 1)."""
    if not text.isascii() or "_" in text:
        raise ValueError(f"not an ASCII number: {text!r}")
    return kind(text)


_ABSENT = object()  # join_rows: key not in gold; None marks a matched gold key
NO_TOPIC = "NA"  # the topic field of a row without a topic


def row_key(item_id: str, topic: str | None) -> str:
    """An (id, topic) pair as the row's first two fields in canonical form;
    injective on parsed rows, as no field holds a tab and no topic is NA."""
    return f"{item_id}\t{NO_TOPIC if topic is None else topic}"


def key_fields(key: str) -> tuple[str, str | None]:
    """The (id, topic) pair of a row_key."""
    item_id, _, topic = key.partition("\t")
    return item_id, None if topic == NO_TOPIC else topic


def duplicate_key(key: str, line: int | None) -> DuplicateKey:
    return DuplicateKey(f"duplicate (id, topic) pair {key_fields(key)}", line=line)


def join_rows(
    scale: Scale,
    gold: dict[str, int | None],
    pred_rows: Iterable[tuple[int | None, str, str | None, int]],
) -> tuple[dict[str | None, ConfusionMatrix], int]:
    """Joins ``(line, row_key, topic, label)`` prediction rows onto the
    row_key -> label gold map and counts each topic's gold/prediction class
    pairs. Topics come out sorted; data without topics gives one table under
    the key None. Also returns the number of prediction rows absent from
    gold, which are ignored.

    The join consumes ``gold``: a matched entry is set to None, so a repeated
    prediction key raises DuplicateKey at its line without a second map.
    After the rows, the first gold key without a prediction, in gold order,
    raises MissingPrediction.
    """
    index = {c: i for i, c in enumerate(scale.classes)}
    k = len(index)
    cells: dict[str | None, list[list[int]]] = defaultdict(lambda: [[0] * k for _ in range(k)])
    ignored: set[str] = set()
    for n, key, topic, label in pred_rows:
        gold_label = gold.get(key, _ABSENT)
        if gold_label is None or gold_label is _ABSENT and key in ignored:
            raise duplicate_key(key, n)
        if gold_label is _ABSENT:
            ignored.add(key)
        else:
            cells[topic][index[gold_label]][index[label]] += 1
            gold[key] = None
    for key, gold_label in gold.items():
        if gold_label is not None:
            raise MissingPrediction(*key_fields(key))
    tables = {t: ConfusionMatrix(scale, tuple(map(tuple, cells[t]))) for t in sorted(cells)}
    return tables, len(ignored)


def class_fractions(counts: Sequence[int]) -> tuple[float, ...]:
    """Relative class frequencies from class counts."""
    n = sum(counts)
    if not n:
        raise EmptyInput("cannot compute prevalence of an empty label list")
    return tuple(c / n for c in counts)
