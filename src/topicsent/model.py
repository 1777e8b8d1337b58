"""Core data model: sentiment scales, the row key that writes a row's id and
topic fields in canonical form, class fractions from counts, and
:class:`Prevalence`, the tuple type of predicted class fractions.

Labels are plain integers validated against a :class:`Scale`:
two-point {-1, +1}, three-point {-1, 0, +1}, five-point {-2 .. +2}.
Per-topic counts are plain tuples in scale.classes order: a class-count
vector (``ingestion.count_labels``), or a gold-by-prediction table whose
``counts[i][j]`` items have gold class ``scale.classes[i]`` and predicted
class ``scale.classes[j]`` (``ingestion.join_labels``). All types are
immutable, and operations are pure functions.
"""

from __future__ import annotations

from enum import Enum
from functools import reduce
from operator import add
from typing import Iterable, Sequence

from .errors import DuplicateKey, EmptyInput, InvalidLabel

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
        if label not in self.value:
            raise InvalidLabel(f"label {label!r} not in scale {self.name}")
        return _INT_TO_NAME[label]


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


NO_TOPIC = "NA"  # the topic field of a row without a topic


def row_key(item_id: str, topic: str | None) -> str:
    """An (id, topic) pair as the row's first two fields in canonical form;
    injective on parsed rows, as no field holds a tab and no topic is NA."""
    return f"{item_id}\t{NO_TOPIC if topic is None else topic}"


def duplicate_key(item_id: str, topic: str | None, line: int | None) -> DuplicateKey:
    return DuplicateKey(f"duplicate (id, topic) pair {(item_id, topic)}", line=line)


def class_fractions(counts: Sequence[int]) -> tuple[float, ...]:
    """Relative class frequencies from class counts."""
    n = sum(counts)
    if not n:
        raise EmptyInput("cannot compute prevalence of an empty label list")
    return tuple(c / n for c in counts)
