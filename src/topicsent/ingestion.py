"""File parsing, per-topic class counts of label files, near-duplicate
filtering, and count statistics with an optional topic-size filter.

File formats (TSV, UTF-8, one record per line):
  * label files:        id <TAB> topic <TAB> label [<TAB> text [<TAB> extra...]]
    The topic column is the literal ``NA`` for the non-topic subtask A. Columns
    after the label are accepted and ignored.
  * prevalence files:   topic <TAB> class <TAB> prevalence, one class per
    line; each topic's prevalences must sum to 1 within 1e-6.
  * annotation files:   id <TAB> topic <TAB> label1 <TAB> ... <TAB> labelN
Numbers are ASCII, without the ``_`` separators of Python's literal syntax.
"""

from __future__ import annotations

import math
import unicodedata
from array import array
from bisect import bisect_right
from collections import Counter, defaultdict
from dataclasses import dataclass
from itertools import compress, repeat
from operator import lt, mul, sub, truediv
from typing import IO, Iterable, Iterator, Sequence

from .annotation import MIN_ANNOTATORS
from .errors import (
    DuplicateKey,
    EmptyText,
    InvalidArgument,
    InvalidLabel,
    MalformedLine,
    NoTopics,
    TooFewAnnotators,
)
from .evaluate import SubtaskSpec
from .model import NO_TOPIC, Prevalence, Scale, ascii_number, duplicate_key, row_key

PREVALENCE_SUM_TOL = 1e-6


def exact_sum(values: Iterable[float]) -> float:
    """math.fsum, which no order of the values can change; inf on overflow."""
    try:
        return math.fsum(values)
    except OverflowError:
        return math.inf


def _off_sum(totals: Iterable[float]) -> list[bool]:
    """Whether each exact sum of stated fractions lies farther than
    PREVALENCE_SUM_TOL from 1: the sum rule of every prevalence input."""
    return list(map(lt, repeat(PREVALENCE_SUM_TOL), map(abs, map(sub, totals, repeat(1.0)))))


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


def _parse_topic(raw: str, line: int) -> str | None:
    """None for NA; an empty or blank topic field is malformed."""
    topic = raw.strip()
    if not topic:
        raise MalformedLine("empty topic field", line=line)
    return None if topic == NO_TOPIC else topic


def label_rows(
    stream: IO[str], spec: SubtaskSpec
) -> Iterator[tuple[int, str, str | None, int]]:
    """Yields each row of a gold or prediction label file as ``(line,
    row_key, topic, label)``; every error carries its line number.

    Each distinct raw topic and label field is parsed and checked once, on
    the first line that carries it, so an error names the same line as a
    check of every row would, and rows share one string per topic."""
    topics: dict[str, tuple[str | None, str]] = {}  # raw field -> topic, canonical field
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
            topic, text = topics[raw_topic]
        except KeyError:
            topic = _parse_topic(raw_topic, n)
            if spec.topic_based and topic is None:
                raise MalformedLine(f"subtask {spec.id} requires a topic, got NA", line=n) from None
            if not spec.topic_based and topic is not None:
                raise MalformedLine(f"subtask {spec.id} expects topic NA", line=n) from None
            topic, text = topics[raw_topic] = topic, raw_topic.strip()
        try:
            label = labels[raw_label]
        except KeyError:
            label = labels[raw_label] = spec.scale.parse_label(raw_label, line=n)
        yield n, f"{item_id}\t{text}", topic, label  # the row_key, without a call


def parse_labels(stream: IO[str], spec: SubtaskSpec) -> dict[str, int]:
    """The row_key -> label map of a label file, in file order; a repeated
    (id, topic) pair is a hard error."""
    labels: dict[str, int] = {}
    for n, key, _, label in label_rows(stream, spec):
        if key in labels:
            raise duplicate_key(key, n)
        labels[key] = label
    return labels


def count_labels(stream: IO[str], spec: SubtaskSpec) -> dict[str | None, tuple[int, ...]]:
    """Each topic's class counts in spec.scale.classes order from a label
    file, topics sorted; data without topics gives one count vector under the
    key None. Only the set of row keys is held, and a repeated (id, topic)
    pair is a hard error."""
    index = {c: i for i, c in enumerate(spec.scale.classes)}
    counts: dict[str | None, list[int]] = defaultdict(lambda: [0] * len(index))
    seen: set[str] = set()
    for n, key, topic, label in label_rows(stream, spec):
        if key in seen:
            raise duplicate_key(key, n)
        seen.add(key)
        counts[topic][index[label]] += 1
    return {t: tuple(counts[t]) for t in sorted(counts)}


def parse_prevalence_file(stream: IO[str], scale: Scale) -> dict[str, Prevalence]:
    """Parses a quantification prediction file into topic -> fractions in
    scale.classes order (a Prevalence), topics sorted; a class without a line
    has fraction 0. Every line is checked as it is read, and each distinct
    raw class field is parsed once, on the first line that carries it. Then
    each topic's fractions are divided by their exact sum, which must lie
    within PREVALENCE_SUM_TOL of 1."""
    index: dict[str, int] = {}  # raw class field -> class index
    k = len(scale.classes)
    by_topic: dict[str, list] = {}  # None where the topic has no line for a class
    last_line: dict[str, int] = {}
    for n, line in _lines(stream):
        try:
            topic, raw_class, raw_value = line.split("\t")
        except ValueError:
            raise MalformedLine("expected topic<TAB>class<TAB>prevalence", line=n) from None
        topic = topic.strip()
        if not topic:
            raise MalformedLine("empty topic field", line=n)
        try:
            i = index[raw_class]
        except KeyError:
            i = index[raw_class] = scale.classes.index(scale.parse_label(raw_class, line=n))
        try:
            frac = ascii_number(float, raw_value)
        except ValueError:
            raise MalformedLine(f"bad prevalence value {raw_value!r}", line=n) from None
        if not math.isfinite(frac):
            raise MalformedLine(f"non-finite prevalence {raw_value!r}", line=n)
        if frac < 0:
            raise MalformedLine(f"negative prevalence {frac}", line=n)
        row = by_topic.get(topic)
        if row is None:
            row = by_topic[topic] = [None] * k
        elif row[i] is not None:
            raise DuplicateKey(f"class {raw_class} repeated for topic {topic}", line=n)
        row[i] = frac
        last_line[topic] = n
    topics = sorted(by_topic)
    columns = [[0.0 if f is None else f for f in col] for col in zip(*map(by_topic.get, topics))]
    totals = list(map(exact_sum, zip(*columns)))
    off = _off_sum(totals)
    if True in off:  # the first topic in sorted order, as each topic is checked in turn
        first = off.index(True)
        raise MalformedLine(f"prevalences for topic {topics[first]} sum to {totals[first]!r}, "
                            "expected 1", line=last_line[topics[first]])
    rows = zip(*[map(truediv, col, totals) for col in columns])
    return dict(zip(topics, map(Prevalence, rows)))


def normalized_prevalence(scale: Scale, fractions: Sequence[float]) -> Prevalence:
    """The Prevalence of ``fractions`` (scale.classes order), checked: one per
    class, finite, nonnegative, and divided by their exact sum, which must lie
    within PREVALENCE_SUM_TOL of 1, so that rounding in stated values is forgiven."""
    if len(fractions) != len(scale.classes):
        raise InvalidLabel(f"expected {len(scale.classes)} fractions, got {len(fractions)}")
    if not all(math.isfinite(f) and f >= 0 for f in fractions):
        raise InvalidLabel("prevalence fractions must be finite and nonnegative")
    total = exact_sum(fractions)
    if _off_sum([total])[0]:
        raise InvalidLabel(f"prevalence fractions sum to {total!r}, expected 1")
    return Prevalence(f / total for f in fractions)


def parse_annotations(stream: IO[str]) -> list[tuple[str, list[int]]]:
    """(row_key, labels) pairs of an id, topic, label1 ... labelN file."""
    rows: list[tuple[str, list[int]]] = []
    seen: set[str] = set()
    for n, line in _lines(stream):
        fields = line.split("\t")
        if len(fields) < 3:
            raise MalformedLine("expected id, topic and annotator labels", line=n)
        item_id = fields[0].strip()
        if not item_id:
            raise MalformedLine("empty id field", line=n)
        key = row_key(item_id, _parse_topic(fields[1], n))
        if key in seen:
            raise duplicate_key(key, n)
        seen.add(key)
        try:
            labels = [ascii_number(int, f) for f in fields[2:]]
        except ValueError:
            raise InvalidLabel("annotator labels must be integers", line=n) from None
        for lab in labels:
            if lab not in Scale.FIVE_POINT.classes:
                raise InvalidLabel(f"annotator label {lab!r} not in -2..2", line=n)
        if len(labels) < MIN_ANNOTATORS:
            raise TooFewAnnotators(
                f"need at least {MIN_ANNOTATORS} annotators, got {len(labels)}", line=n)
        rows.append((key, labels))
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
                topic=_parse_topic(fields[1], n),
                label=fields[2].strip() or None,
                text=fields[3],
                extra=tuple(fields[4:]),
            )
        )
    return rows


def serialize_raw_records(records: Iterable[RawTweetRecord], stream: IO[str]) -> None:
    for r in records:
        fields = [row_key(r.id, r.topic), r.label or "", r.text]
        fields.extend(r.extra)
        stream.write("\t".join(fields) + "\n")


def _strip_punct(word: str) -> str:
    """The word without leading and trailing punctuation; "" if it is all punctuation."""
    return word.strip("".join([c for c in word if unicodedata.category(c)[0] == "P"]))


def tokenize(text: str) -> list[str]:
    """Casefolds, splits on whitespace, strips leading/trailing punctuation."""
    return [tok for tok in map(_strip_punct, text.casefold().split()) if tok]


def dedup(
    records: list[RawTweetRecord], threshold: float = 0.6
) -> tuple[list[RawTweetRecord], list[tuple[RawTweetRecord, RawTweetRecord]]]:
    """Greedy near-duplicate scan in input order: a record is dropped iff the
    bag-of-words cosine ``dot / (norm * onorm)`` to some already-kept record
    strictly exceeds the threshold, which must lie in [0, 1]; its collider is
    the earliest such kept record. Returns (kept, removed-with-collision).

    Exact symmetric prefix filter (Bayardo, Ma & Srikant 2007) with an l2
    prefix-norm cut (after L2AP, Anastasiu & Karypis 2014). Tokens rank rarest
    first; a record's share ``s`` at a token is its norm from that token on
    over its whole norm, and its prefix ends where ``s`` drops below
    ``threshold``. Every shared token ranks at or after the first one, so by
    Cauchy-Schwarz the product of both shares there bounds the cosine, and a
    collider's first shared token lies in both prefixes. A prefix token's
    postings hold kept records by descending ``s`` (arrays of ``-s`` and kept
    index): a query of share ``rho`` takes the leading ``s >= threshold / rho``
    in one bisection, with 1e-9 relative slack for float rounding, and one lazy
    map chain verifies them in ascending kept index by an integer dot over
    token ranks. Each text is split, and each distinct word stripped, once."""
    if not 0.0 <= threshold <= 1.0:  # also rejects NaN
        raise InvalidArgument(f"threshold must be in [0, 1], got {threshold!r}")
    token_of: dict[str, str] = {}  # casefolded word -> token; equal tokens share one str
    docs: list[list] = []  # each record's tokens, turned into ranks in place below
    df: Counter = Counter()
    for rec in records:
        words = rec.text.casefold().split()
        for word in set(words).difference(token_of):
            tok = _strip_punct(word)
            token_of[word] = token_of.setdefault(tok, tok)
        docs.append(list(filter(None, map(token_of.__getitem__, words))))
        if not docs[-1]:
            raise EmptyText(f"record {rec.id} has no tokens")
        df.update(set(docs[-1]))
    del token_of
    rank = {tok: i for i, tok in enumerate(sorted(df, key=lambda t: (df[t], t)))}
    del df
    low = threshold * (1 - 1e-9)
    tf = [0] * len(rank)  # the record's term frequency by rank; all 0 between records
    kept: list[RawTweetRecord] = []
    kept_ranks: list[list[int]] = []  # token ranks, repeats included
    kept_norms: list[float] = []
    index: defaultdict[int, tuple[array, array]] = defaultdict(lambda: (array("d"), array("l")))
    removed: list[tuple[RawTweetRecord, RawTweetRecord]] = []
    for rec, ranks in zip(records, docs):
        ranks[:] = map(rank.__getitem__, ranks)
        for tok in ranks:
            tf[tok] += 1
        sq = sum(map(tf.__getitem__, ranks))  # the sum of tf**2: tf once per occurrence
        norm = math.sqrt(sq)
        prefix, rest, bound = [], sq, low * low * sq
        for tok in sorted(set(ranks)):
            if rest < bound:
                break
            prefix.append((tok, math.sqrt(rest) / norm))
            rest -= tf[tok] ** 2
        candidates: set[int] = set()
        for tok, rho in prefix:
            shares, ids = index.get(tok, ((), ()))
            candidates.update(ids[: bisect_right(shares, -low / rho)])
        cands = sorted(candidates)
        dots = map(sum, map(map, repeat(tf.__getitem__), map(kept_ranks.__getitem__, cands)))
        cos = map(truediv, dots, map(mul, repeat(norm), map(kept_norms.__getitem__, cands)))
        # lt, not threshold.__lt__: an int's __lt__(float) is NotImplemented, which is truthy
        hit = next(compress(cands, map(lt, repeat(threshold), cos)), None)
        for tok in ranks:
            tf[tok] = 0
        if hit is not None:
            removed.append((rec, kept[hit]))
        else:
            for tok, s in prefix:
                shares, ids = index[tok]
                at = bisect_right(shares, -s)
                shares.insert(at, -s)
                ids.insert(at, len(kept))
            kept.append(rec)
            kept_ranks.append(ranks)
            kept_norms.append(norm)
    return kept, removed


@dataclass
class DatasetStats:
    """Count summary shaped like the published dataset tables: class columns
    most positive first."""

    per_class: dict[int, int]
    per_topic: dict[str, int]
    total: int


def stats(
    scale: Scale, counts: dict[str | None, Sequence[int]], min_size: int | None = None
) -> DatasetStats:
    """Sums per-topic class counts (see count_labels), or with min_size only
    those of the topics holding at least min_size items."""
    if min_size is not None:
        if min_size < 0:
            raise InvalidArgument(f"min_size must be nonnegative, got {min_size!r}")
        if not counts or None in counts:
            raise NoTopics("topic filtering requires topics")
        counts = {topic: c for topic, c in counts.items() if sum(c) >= min_size}
    totals = [sum(col) for col in zip(*counts.values())] or [0] * len(scale.classes)
    return DatasetStats(
        per_class=dict(zip(scale.classes[::-1], totals[::-1])),
        per_topic={topic: sum(c) for topic, c in counts.items() if topic is not None},
        total=sum(totals),
    )
