"""File parsing, near-duplicate filtering, topic-size filtering, and dataset
statistics.

File formats (TSV, UTF-8, one record per line):
  * label files:        id <TAB> topic <TAB> label [<TAB> text [<TAB> extra...]]
    The topic column is the literal ``NA`` for the non-topic subtask A. Columns
    after the label are accepted and ignored.
  * prevalence files:   topic <TAB> class <TAB> prevalence, one class per
    line; each topic's prevalences must sum to 1 within 1e-6.
  * annotation files:   id <TAB> topic <TAB> label1 <TAB> ... <TAB> labelN
"""

from __future__ import annotations

import math
import unicodedata
from collections import Counter
from dataclasses import dataclass
from typing import IO, Callable, Iterable, Iterator, Sequence

from .annotation import CrowdAnnotation
from .errors import (
    DuplicateKey,
    EmptyText,
    InvalidArgument,
    InvalidLabel,
    MalformedLine,
    NoTopics,
    ScoringError,
    TooFewAnnotators,
)
from .evaluate import SubtaskSpec
from .model import Dataset, Prevalence, Scale, exact_sum, topic_class_counts

NO_TOPIC = "NA"
PREVALENCE_SUM_TOL = 1e-6


@dataclass(frozen=True)
class RawTweetRecord:
    """A raw input row; extra trailing columns are preserved verbatim."""

    id: str
    topic: str | None
    label: str | None
    text: str
    extra: tuple[str, ...] = ()


def _lines(stream: IO[str]) -> Iterator[tuple[int, str]]:
    for n, line in enumerate(stream, start=1):
        line = line.rstrip("\r\n")  # a line holds no "\n" before its end
        if line:
            yield n, line


def _parse_topic(raw: str) -> str | None:
    topic = raw.strip()
    return None if topic == NO_TOPIC else topic


def label_rows(
    stream: IO[str], spec: SubtaskSpec
) -> Iterator[tuple[int, tuple[str, str | None], int]]:
    """Yields each row of a gold or prediction label file as
    ``(line, (id, topic), label)``; every error carries its line number.

    Each distinct raw topic and label field is parsed and checked once, on
    the first line that carries it, so an error names the same line as a
    check of every row would, and rows share one string per topic."""
    topics: dict[str, str | None] = {}
    labels: dict[str, int] = {}
    for n, line in _lines(stream):
        fields = line.split("\t")
        if len(fields) < 3:
            raise MalformedLine("expected at least 3 tab-separated fields", line=n)
        item_id = fields[0].strip()
        if not item_id:
            raise MalformedLine("empty id field", line=n)
        raw_topic, raw_label = fields[1], fields[2]
        try:
            topic = topics[raw_topic]
        except KeyError:
            topic = _parse_topic(raw_topic)
            if spec.topic_based and topic is None:
                raise MalformedLine(f"subtask {spec.id} requires a topic, got NA", line=n) from None
            if not spec.topic_based and topic is not None:
                raise MalformedLine(f"subtask {spec.id} expects topic NA", line=n) from None
            topics[raw_topic] = topic
        try:
            label = labels[raw_label]
        except KeyError:
            label = labels[raw_label] = spec.scale.parse_label(raw_label, line=n)
        yield n, (item_id, topic), label


def parse_labels(stream: IO[str], spec: SubtaskSpec) -> dict[tuple[str, str | None], int]:
    """The (id, topic) -> label map of a label file, in file order; a
    repeated (id, topic) pair is a hard error."""
    labels: dict[tuple[str, str | None], int] = {}
    for n, key, label in label_rows(stream, spec):
        if key in labels:
            raise DuplicateKey(f"duplicate (id, topic) pair {key}", line=n)
        labels[key] = label
    return labels


def parse_dataset(stream: IO[str], spec: SubtaskSpec) -> Dataset:
    """Parses a gold or prediction label file; every error carries its line
    number. Duplicate (id, topic) rows are a hard error."""
    # every row passed the scale, topic-rule and uniqueness checks
    return Dataset(spec.scale, parse_labels(stream, spec))


def serialize_dataset(d: Dataset, stream: IO[str]) -> None:
    """Inverse of parse_dataset on valid datasets (labels written as
    integers, missing topics as NA)."""
    for (item_id, topic), label in d.labels.items():
        stream.write(f"{item_id}\t{topic if topic is not None else NO_TOPIC}\t{label}\n")


def parse_prevalence_file(stream: IO[str], scale: Scale) -> dict[str, Prevalence]:
    """Parses a quantification prediction file into topic -> Prevalence."""
    by_topic: dict[str, dict[int, float]] = {}
    lines_of: dict[str, int] = {}
    for n, line in _lines(stream):
        fields = line.split("\t")
        if len(fields) != 3:
            raise MalformedLine("expected topic<TAB>class<TAB>prevalence", line=n)
        topic = fields[0].strip()
        cls = scale.parse_label(fields[1], line=n)
        try:
            frac = float(fields[2])
        except ValueError:
            raise MalformedLine(f"bad prevalence value {fields[2]!r}", line=n) from None
        if not math.isfinite(frac):
            raise MalformedLine(f"non-finite prevalence {fields[2]!r}", line=n)
        if frac < 0:
            raise MalformedLine(f"negative prevalence {frac}", line=n)
        bucket = by_topic.setdefault(topic, {})
        if cls in bucket:
            raise DuplicateKey(f"class {fields[1]} repeated for topic {topic}", line=n)
        bucket[cls] = frac
        lines_of[topic] = n
    return {
        topic: normalized_prevalence(
            scale,
            [by_topic[topic].get(c, 0.0) for c in scale.classes],
            lambda total: MalformedLine(
                f"prevalences for topic {topic} sum to {total!r}, expected 1",
                line=lines_of[topic],
            ),
        )
        for topic in sorted(by_topic)
    }


def normalized_prevalence(
    scale: Scale,
    fractions: Sequence[float],
    off_sum: Callable[[float], ScoringError] | None = None,
) -> Prevalence:
    """The Prevalence of ``fractions`` (scale.classes order), divided by their
    exact sum when it lies within PREVALENCE_SUM_TOL of 1, so that rounding in
    stated values is forgiven. A sum outside raises ``off_sum(sum)`` or, if
    that is None, Prevalence's own error, as a wrong count or a negative or
    non-finite value does."""
    if all(map(math.isfinite, fractions)):
        total = exact_sum(fractions)
        if abs(total - 1.0) <= PREVALENCE_SUM_TOL:
            fractions = [f / total for f in fractions]
        elif off_sum is not None:
            raise off_sum(total)
    return Prevalence(scale, tuple(fractions))


def parse_annotations(stream: IO[str]) -> list[CrowdAnnotation]:
    """Parses a crowd-annotation file: id, topic, then one label per annotator."""
    rows: list[CrowdAnnotation] = []
    seen: set[tuple[str, str | None]] = set()
    for n, line in _lines(stream):
        fields = line.split("\t")
        if len(fields) < 3:
            raise MalformedLine("expected id, topic and annotator labels", line=n)
        item_id = fields[0].strip()
        if not item_id:
            raise MalformedLine("empty id field", line=n)
        topic = _parse_topic(fields[1])
        key = (item_id, topic)
        if key in seen:
            raise DuplicateKey(f"duplicate (id, topic) pair {key}", line=n)
        seen.add(key)
        try:
            labels = tuple(int(f) for f in fields[2:])
        except ValueError:
            raise InvalidLabel("annotator labels must be integers", line=n) from None
        try:
            rows.append(CrowdAnnotation(item_id, topic, labels))
        except (InvalidLabel, TooFewAnnotators) as exc:
            raise type(exc)(str(exc), line=n) from None
    return rows


def parse_raw_records(stream: IO[str]) -> list[RawTweetRecord]:
    """Parses rows for dedup: id, topic, label, text, extra columns verbatim."""
    rows = []
    for n, line in _lines(stream):
        fields = line.split("\t")
        if len(fields) < 4:
            raise MalformedLine("expected id, topic, label and text fields", line=n)
        if not fields[0].strip() or not fields[3]:
            raise MalformedLine("id and text must be non-empty", line=n)
        rows.append(
            RawTweetRecord(
                id=fields[0].strip(),
                topic=_parse_topic(fields[1]),
                label=fields[2].strip() or None,
                text=fields[3],
                extra=tuple(fields[4:]),
            )
        )
    return rows


def serialize_raw_records(records: Iterable[RawTweetRecord], stream: IO[str]) -> None:
    for r in records:
        fields = [r.id, r.topic if r.topic is not None else NO_TOPIC, r.label or "", r.text]
        fields.extend(r.extra)
        stream.write("\t".join(fields) + "\n")


def tokenize(text: str) -> list[str]:
    """Casefolds, splits on whitespace, strips leading/trailing punctuation."""
    tokens = []
    for raw in text.casefold().split():
        start, end = 0, len(raw)
        while start < end and unicodedata.category(raw[start]).startswith("P"):
            start += 1
        while end > start and unicodedata.category(raw[end - 1]).startswith("P"):
            end -= 1
        if end > start:
            tokens.append(raw[start:end])
    return tokens


def dedup(
    records: list[RawTweetRecord], threshold: float = 0.6
) -> tuple[list[RawTweetRecord], list[tuple[RawTweetRecord, RawTweetRecord]]]:
    """Greedy near-duplicate scan in input order: a record is dropped iff the
    bag-of-words cosine ``dot / (norm * onorm)`` to some already-kept record
    strictly exceeds the threshold, which must lie in [0, 1]; its collider is
    the earliest such kept record. Returns (kept, removed-with-collision).

    Exact symmetric prefix filter (Bayardo, Ma & Srikant 2007): tokens are
    ranked rarest first, and a record's prefix is its leading tokens up to the
    point where the rest holds less than ``threshold`` of its norm. If two
    prefixes share no token, every shared token lies in one record's rest, so
    by Cauchy-Schwarz their cosine is below the threshold; only kept records
    sharing a prefix token are compared."""
    if not 0.0 <= threshold <= 1.0:  # also rejects NaN
        raise InvalidArgument(f"threshold must be in [0, 1], got {threshold!r}")
    df: Counter = Counter()
    for rec in records:
        tokens = set(tokenize(rec.text))
        if not tokens:
            raise EmptyText(f"record {rec.id} has no tokens")
        df.update(tokens)
    rank = {tok: i for i, tok in enumerate(sorted(df, key=lambda t: (df[t], t)))}
    del df
    # the slack keeps float rounding in the cut from dropping a true collider
    cut = (threshold * (1 - 1e-9)) ** 2
    kept: list[RawTweetRecord] = []
    kept_vecs: list[tuple[Counter, float, bool]] = []
    index: dict[int, list[int]] = {}  # prefix token rank -> kept indices, ascending
    removed: list[tuple[RawTweetRecord, RawTweetRecord]] = []
    for rec in records:
        vec = Counter(map(rank.__getitem__, tokenize(rec.text)))
        sq = sum(c * c for c in vec.values())
        norm, binary = math.sqrt(sq), len(vec) == sq
        prefix, rest, bound = [], sq, cut * sq
        for tok in sorted(vec):
            if rest < bound:
                break
            prefix.append(tok)
            rest -= vec[tok] ** 2
        j = len(kept)
        collided = None
        for k in sorted(set().union(*(index.get(tok, ()) for tok in prefix))):
            ovec, onorm, obinary = kept_vecs[k]
            shared = vec.keys() & ovec.keys()
            dot = len(shared) if binary and obinary else sum(vec[t] * ovec[t] for t in shared)
            if dot / (norm * onorm) > threshold:
                collided = kept[k]
                break
        if collided is None:
            kept.append(rec)
            kept_vecs.append((vec, norm, binary))
            for tok in prefix:
                index.setdefault(tok, []).append(j)
        else:
            removed.append((rec, collided))
    return kept, removed


def topic_filter(d: Dataset, min_size: int = 100) -> Dataset:
    """Retains only the topics holding at least min_size items."""
    if min_size < 0:
        raise InvalidArgument(f"min_size must be nonnegative, got {min_size!r}")
    sizes = {topic: sum(counts) for topic, counts in topic_class_counts(d).items()}
    if not sizes or None in sizes:
        raise NoTopics("topic filtering requires topics")
    labels = {key: label for key, label in d.labels.items() if sizes[key[1]] >= min_size}
    return Dataset(d.scale, labels)


@dataclass
class DatasetStats:
    """Count summary shaped like the published dataset tables: class columns
    most positive first."""

    scale: Scale
    per_class: dict[int, int]
    per_topic: dict[str, int]
    total: int

    @property
    def n_topics(self) -> int:
        return len(self.per_topic)


def stats(d: Dataset) -> DatasetStats:
    counts = topic_class_counts(d)
    totals = [sum(col) for col in zip(*counts.values())] or [0] * len(d.scale.classes)
    return DatasetStats(
        scale=d.scale,
        per_class=dict(zip(d.scale.classes[::-1], totals[::-1])),
        per_topic={topic: sum(c) for topic, c in counts.items() if topic is not None},
        total=len(d),
    )
