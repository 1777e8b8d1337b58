"""File parsing, near-duplicate filtering, topic-size filtering, and dataset
statistics.

File formats (TSV, UTF-8, one record per line):
  * label files:        id <TAB> topic <TAB> label [<TAB> text [<TAB> extra...]]
    The topic column is the literal ``NA`` for the non-topic subtask A.
  * prevalence files:   topic <TAB> class <TAB> prevalence, one class per
    line; each topic's prevalences must sum to 1 within 1e-6.
  * annotation files:   id <TAB> topic <TAB> label1 <TAB> ... <TAB> labelN
"""

from __future__ import annotations

import math
import unicodedata
from collections import Counter
from dataclasses import dataclass, field
from typing import IO, Iterable, Iterator

from .annotation import CrowdAnnotation
from .errors import (
    DuplicateKey,
    EmptyText,
    InvalidLabel,
    MalformedLine,
    NoTopics,
    TooFewAnnotators,
)
from .evaluate import SubtaskSpec
from .model import Dataset, LabeledItem, Prevalence, Scale

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
        line = line.rstrip("\n").rstrip("\r")
        if line:
            yield n, line


def _parse_topic(raw: str) -> str | None:
    topic = raw.strip()
    return None if topic == NO_TOPIC else topic


def parse_dataset(stream: IO[str], spec: SubtaskSpec) -> Dataset:
    """Parses a gold or prediction label file; every error carries its line
    number. Duplicate (id, topic) rows are a hard error."""
    items: list[LabeledItem] = []
    seen: set[tuple[str, str | None]] = set()
    for n, line in _lines(stream):
        fields = line.split("\t")
        if len(fields) < 3:
            raise MalformedLine(f"expected at least 3 tab-separated fields", line=n)
        item_id = fields[0].strip()
        if not item_id:
            raise MalformedLine("empty id field", line=n)
        topic = _parse_topic(fields[1])
        if spec.topic_based and topic is None:
            raise MalformedLine(f"subtask {spec.id} requires a topic, got NA", line=n)
        if not spec.topic_based and topic is not None:
            raise MalformedLine(f"subtask {spec.id} expects topic NA", line=n)
        label = spec.scale.parse_label(fields[2], line=n)
        key = (item_id, topic)
        if key in seen:
            raise DuplicateKey(f"duplicate (id, topic) pair {key}", line=n)
        seen.add(key)
        text = fields[3] if len(fields) > 3 else None
        items.append(LabeledItem(item_id, topic, label, text))
    # every row passed the scale, topic-rule and uniqueness checks above
    return Dataset(spec.scale, tuple(items), has_topics=bool(items) and spec.topic_based)


def serialize_dataset(d: Dataset, stream: IO[str]) -> None:
    """Inverse of parse_dataset on valid datasets (labels written as
    integers, missing topics as NA)."""
    for it in d.items:
        fields = [it.id, it.topic if it.topic is not None else NO_TOPIC, str(it.label)]
        if it.text is not None:
            fields.append(it.text)
        stream.write("\t".join(fields) + "\n")


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
    result = {}
    for topic in sorted(by_topic):
        total = math.fsum(by_topic[topic].values())  # exact, so line order cannot matter
        if abs(total - 1.0) > PREVALENCE_SUM_TOL:
            raise MalformedLine(
                f"prevalences for topic {topic} sum to {total!r}, expected 1",
                line=lines_of[topic],
            )
        # renormalize residual float error so Prevalence's stricter check passes
        result[topic] = Prevalence.from_mapping(
            scale, {c: f / total for c, f in by_topic[topic].items()}
        )
    return result


def parse_annotations(stream: IO[str]) -> list[CrowdAnnotation]:
    """Parses a crowd-annotation file: id, topic, then one label per annotator."""
    rows: list[CrowdAnnotation] = []
    seen: set[tuple[str, str | None]] = set()
    for n, line in _lines(stream):
        fields = line.split("\t")
        if len(fields) < 3:
            raise MalformedLine("expected id, topic and annotator labels", line=n)
        item_id = fields[0].strip()
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


def bow(text: str) -> Counter:
    return Counter(tokenize(text))


def bow_cosine(a: str, b: str) -> float:
    """Cosine similarity of term-frequency vectors."""
    va, vb = bow(a), bow(b)
    if not va or not vb:
        raise EmptyText("text has no tokens")
    dot = sum(va[t] * vb[t] for t in va.keys() & vb.keys())
    norm = math.sqrt(sum(c * c for c in va.values())) * math.sqrt(
        sum(c * c for c in vb.values())
    )
    return dot / norm


def dedup(
    records: list[RawTweetRecord], threshold: float = 0.6
) -> tuple[list[RawTweetRecord], list[tuple[RawTweetRecord, RawTweetRecord]]]:
    """Greedy near-duplicate scan in input order: a record is dropped iff its
    bag-of-words cosine to some already-kept record strictly exceeds the
    threshold. Returns (kept, removed-with-collision)."""
    kept: list[RawTweetRecord] = []
    kept_vecs: list[tuple[Counter, float]] = []
    removed: list[tuple[RawTweetRecord, RawTweetRecord]] = []
    for rec in records:
        vec = bow(rec.text)
        if not vec:
            raise EmptyText(f"record {rec.id} has no tokens")
        norm = math.sqrt(sum(c * c for c in vec.values()))
        collided = None
        for other, (ovec, onorm) in zip(kept, kept_vecs):
            dot = sum(vec[t] * ovec[t] for t in vec.keys() & ovec.keys())
            if dot / (norm * onorm) > threshold:
                collided = other
                break
        if collided is None:
            kept.append(rec)
            kept_vecs.append((vec, norm))
        else:
            removed.append((rec, collided))
    return kept, removed


def topic_filter(d: Dataset, min_size: int = 100) -> Dataset:
    """Retains only the topics holding at least min_size items."""
    if not d.has_topics:
        raise NoTopics("topic filtering requires topics")
    sizes = Counter(it.topic for it in d.items)
    items = tuple(it for it in d.items if sizes[it.topic] >= min_size)
    return Dataset(d.scale, items, has_topics=bool(items))


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
    per_class = Counter(it.label for it in d.items)
    per_topic = Counter(it.topic for it in d.items) if d.has_topics else Counter()
    return DatasetStats(
        scale=d.scale,
        per_class={c: per_class.get(c, 0) for c in reversed(d.scale.classes)},
        per_topic=dict(sorted(per_topic.items())),
        total=len(d.items),
    )
