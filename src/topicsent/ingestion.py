"""File parsing, per-topic class counts of label files, near-duplicate
filtering of ``(id, text, line)`` record tuples, and count statistics with an
optional topic-size filter.

File formats (TSV, UTF-8, one record per line):
  * label files:        id <TAB> topic <TAB> label [<TAB> text [<TAB> extra...]]
    The topic column is the literal ``NA`` for the non-topic subtask A. Columns
    after the label are accepted and ignored.
  * prevalence files:   topic <TAB> class <TAB> prevalence, one class per
    line; each topic's prevalences must sum to 1 within 1e-6.
  * annotation files:   id <TAB> topic <TAB> label1 <TAB> ... <TAB> labelN
  * dedup files:        id <TAB> topic <TAB> label <TAB> text [<TAB> extra...]
Numbers are ASCII, without the ``_`` separators of Python's literal syntax.
A line loses its trailing "\\r" and "\\n" characters; a line that is then empty
is skipped, and one of spaces is malformed.
"""

from __future__ import annotations

import math
import unicodedata
from array import array
from bisect import bisect_right
from collections import Counter, defaultdict
from itertools import accumulate, compress, repeat, tee
from operator import countOf, le, lt, mod, mul, sub, truediv, xor
from typing import IO, Iterable, Iterator, Sequence

from .annotation import MIN_ANNOTATORS
from .errors import (
    DuplicateKey,
    EmptyText,
    InvalidArgument,
    InvalidLabel,
    MalformedLine,
    MissingPrediction,
    NoTopics,
    TooFewAnnotators,
)
from .evaluate import SubtaskSpec
from .model import NO_TOPIC, Prevalence, Scale, ascii_number, duplicate_key, row_key

PREVALENCE_SUM_TOL = 1e-6
_Record = tuple[str, str, str]  # a dedup record: id, text and its output line


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


# The label-file loops (parse_labels, join_labels) split each raw line once,
# line ending included, and call the three helpers below only for a short or
# blank row, on the first line that carries a raw topic or label field, and
# to name the topic of a repeated row; an error names the line that a check
# of every row would name.

def _bad_row(line: str, fields: list[str], n: int) -> None:
    """Raises the fault of a row with fewer than 3 fields or an empty id, and
    returns for a line that is empty once its line ending is removed, which
    is skipped."""
    if len(fields) >= 3:
        raise MalformedLine("empty id field", line=n)
    if line.rstrip("\r\n"):
        raise MalformedLine("expected at least 3 tab-separated fields", line=n)


def _row_topic(raw: str, spec: SubtaskSpec, n: int) -> str | None:
    """The topic of a raw topic field, under the subtask's topic rule."""
    topic = _parse_topic(raw, n)
    if spec.topic_based and topic is None:
        raise MalformedLine(f"subtask {spec.id} requires a topic, got NA", line=n)
    if not spec.topic_based and topic is not None:
        raise MalformedLine(f"subtask {spec.id} expects topic NA", line=n)
    return topic


def _row_label(fields: list[str], spec: SubtaskSpec, n: int) -> int:
    """The label of a row's raw label field on the subtask's scale; the line
    ending is removed first when the label is the last field, so that an
    error never shows it."""
    raw = fields[2] if len(fields) > 3 else fields[2].rstrip("\r\n")
    return spec.scale.parse_label(raw, line=n)


def parse_labels(stream: Iterable[str], spec: SubtaskSpec) -> dict[str | None, dict[str, int]]:
    """The topic -> id -> class index map of a label file, where an item's
    class index is its label's position in spec.scale.classes; topics and
    ids in file order, and data without topics under the key None. Every
    error carries its line number, and a repeated (id, topic) pair is a hard
    error. Each distinct raw topic and label field is checked once."""
    gold: dict[str | None, dict[str, int]] = {}
    topics: dict[str, dict[str, int]] = {}  # raw topic field -> its topic's ids
    parsed: dict[str, int] = {}  # raw label field -> class index
    for n, line in enumerate(stream, 1):
        fields = line.split("\t")
        item_id = fields[0].strip()
        if not item_id or len(fields) < 3:
            _bad_row(line, fields, n)
            continue
        try:
            ids = topics[fields[1]]
        except KeyError:
            ids = topics[fields[1]] = gold.setdefault(_row_topic(fields[1], spec, n), {})
        try:
            c = parsed[fields[2]]
        except KeyError:
            c = parsed[fields[2]] = spec.scale.classes.index(_row_label(fields, spec, n))
        if item_id in ids:
            raise duplicate_key(item_id, _row_topic(fields[1], spec, n), n)
        ids[item_id] = c
    return gold


def count_labels(stream: Iterable[str], spec: SubtaskSpec) -> dict[str | None, tuple[int, ...]]:
    """Each topic's class counts in spec.scale.classes order, counted by
    class index from a label file read by parse_labels, topics sorted; data
    without topics gives one count vector under the key None."""
    gold = parse_labels(stream, spec)
    indices = range(len(spec.scale.classes))
    return {t: tuple(map(list(gold[t].values()).count, indices)) for t in sorted(gold)}


def join_labels(
    stream: Iterable[str], spec: SubtaskSpec, gold: dict[str | None, dict[str, int | None]]
) -> tuple[dict[str | None, tuple[tuple[int, ...], ...]], int]:
    """Joins the rows of a prediction label file, checked as parse_labels
    checks, onto the topic -> id -> class index gold map (parse_labels) and
    counts each topic's gold/prediction class pairs into a k x k table (see
    ``model``). Topics come out sorted; data without topics gives one table
    under the key None. Also returns the number of prediction rows absent
    from gold, which are ignored: row k of a topic's cells counts them, and
    a topic with only such rows has no table.

    The join consumes ``gold``: a matched entry is set to None, and an
    unmatched prediction id is stored as None, so a repeated prediction
    raises DuplicateKey at its line without a second map. After the rows,
    the gold item of least (topic, id) without a prediction raises
    MissingPrediction.
    """
    k = len(spec.scale.classes)
    cells: dict[str | None, list[int]] = {}  # topic -> its table's cells, row by row
    # raw topic field -> its topic's gold ids and cells
    topics: dict[str, tuple[dict[str, int | None], list[int]]] = {}
    classes: dict[str, int] = {}  # raw label field -> class index
    for n, line in enumerate(stream, 1):
        fields = line.split("\t")
        item_id = fields[0].strip()
        if not item_id or len(fields) < 3:
            _bad_row(line, fields, n)
            continue
        try:
            ids, table = topics[fields[1]]
        except KeyError:
            topic = _row_topic(fields[1], spec, n)
            ids = gold.setdefault(topic, {})
            table = cells.setdefault(topic, [0] * (k * k + k))
            topics[fields[1]] = ids, table
        try:
            j = classes[fields[2]]
        except KeyError:
            j = classes[fields[2]] = spec.scale.classes.index(_row_label(fields, spec, n))
        g = ids.get(item_id, k)  # row k for an id that gold lacks
        if g is None:
            raise duplicate_key(item_id, _row_topic(fields[1], spec, n), n)
        ids[item_id] = None
        table[g * k + j] += 1
    # a C-level count per topic; the (topic, id) pairs are listed only if one is missing
    if any(countOf(ids.values(), None) != len(ids) for ids in gold.values()):
        topic, item_id = min((t, i) for t, ids in gold.items() for i, g in ids.items()
                             if g is not None)
        raise MissingPrediction(item_id, topic)
    tables = {t: tuple(tuple(cells[t][i:i + k]) for i in range(0, k * k, k))
              for t in sorted(cells) if any(cells[t][:k * k])}
    return tables, sum(sum(table[k * k:]) for table in cells.values())


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
        topic = _parse_topic(fields[1], n)
        key = row_key(item_id, topic)
        if key in seen:
            raise duplicate_key(item_id, topic, n)
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


def parse_raw_records(stream: IO[str]) -> list[_Record]:
    """Parses rows for dedup into ``(id, text, line)`` tuples: ``line`` is the
    record's output line, its row_key, stripped label (or empty), text and
    extra columns verbatim."""
    rows = []
    for n, line in _lines(stream):
        fields = line.split("\t")
        if len(fields) < 4:
            raise MalformedLine("expected id, topic, label and text fields", line=n)
        item_id, text = fields[0].strip(), fields[3]
        if not item_id or not text:
            raise MalformedLine("id and text must be non-empty", line=n)
        fields[:3] = row_key(item_id, _parse_topic(fields[1], n)), fields[2].strip()
        rows.append((item_id, text, "\t".join(fields)))
    return rows


_SLACK = 1 - 1e-9  # relative slack of dedup's cuts, which absorbs float rounding
_BITS = 128  # bits in a dedup bitmap
# A candidate list goes through the bitmap filter only if it holds _BITMAP_MIN
# or more candidates and at least 1 in _BITMAP_SHARE of the kept records.
# Below the first, the query's bitmap and profile cost more than the verifies
# they save. Below the second, the lists use each kept record's bitmap and
# profile, built on first use, too few times to repay the build: at 20k bench
# records and threshold 0.9, 722 lists of 42 candidates on average built those
# of 9,933 kept records.
_BITMAP_MIN = 32
_BITMAP_SHARE = 100
_BIT = [1 << b for b in range(_BITS)]


class _Lazy(dict):
    """A dict that computes a missing value once, as ``build(key)``."""

    __slots__ = ("build",)

    def __init__(self, build):
        super().__init__()
        self.build = build

    def __missing__(self, key):
        value = self[key] = self.build(key)
        return value


def _bitmap(ranks: Iterable[int]) -> int:
    """The bitmap of a record's token ranks: bit ``rank % _BITS`` set for each."""
    return sum(map(_BIT.__getitem__, set(map(mod, ranks, repeat(_BITS)))))


def _energy(tfs: Iterable[int]) -> list[int]:
    """The energy profile of a record's distinct-token tfs: ``P[m]`` is the
    sum of its ``m`` largest tf**2, for m from 0 to the distinct token count."""
    tfs = sorted(tfs, reverse=True)
    return list(accumulate(map(mul, tfs, tfs), initial=0))


def _h_limit(num: int, den: int, energy: Sequence[int], other: Sequence[int]) -> int:
    """The largest bitmap distance h at which two records of these energy
    profiles (see _energy) can have a cosine of ``low`` or more, where
    ``num / den`` is ``low**2`` as a float, or -1 if at none.

    Each bit set in the xor of two bitmaps (_bitmap) is set by a token of only
    one record, so records of d and od distinct tokens whose bitmaps differ in
    h bits share at most ``m = (d + od - h) // 2`` of them, and by
    Cauchy-Schwarz their cosine is at most ``sqrt(P[m] * Po[m] / (P[d] *
    Po[od]))`` (Sandes, Teodoro & Melo 2020). The test is exact once
    ``low**2`` is rounded to a float."""
    need = num * energy[-1] * other[-1]
    for m in range(min(len(energy), len(other))):
        if den * energy[m] * other[m] >= need:
            return len(energy) + len(other) - 2 - 2 * m
    return -1


def dedup(
    records: list[_Record], threshold: float = 0.6
) -> tuple[list[_Record], list[tuple[_Record, _Record]]]:
    """Greedy near-duplicate scan in input order of ``(id, text, line)``
    records (parse_raw_records), of which only id and text are read: a record
    is dropped iff the bag-of-words cosine ``dot / (norm * onorm)`` to some
    already-kept record strictly exceeds the threshold, which must lie in
    [0, 1]; its collider is the earliest such kept record. Returns (kept,
    removed-with-collision).

    Exact symmetric prefix filter (Bayardo, Ma & Srikant 2007) with an l2
    prefix-norm cut (after L2AP, Anastasiu & Karypis 2014). Tokens rank rarest
    first; a record's share ``s`` at a token is its norm from that token on
    over its whole norm, and its prefix ends where ``s`` drops below
    ``threshold``. Every shared token ranks at or after the first one, so by
    Cauchy-Schwarz the product of both shares there bounds the cosine, and a
    collider's first shared token lies in both prefixes. A prefix token's
    postings hold kept records by descending ``s`` (arrays of ``-s`` and kept
    index): a query of share ``rho`` takes the leading ``s >= threshold / rho``
    in one bisection, with 1e-9 relative slack for float rounding.

    A long candidate list (see _BITMAP_MIN) then passes the exact bitmap
    filter (Sandes, Teodoro & Melo 2020): each record has a _BITS-bit bitmap
    of its tokens and an energy profile keyed by its sorted tf tuple, and a
    candidate goes on only if the distance ``h`` of the two bitmaps is at most
    the limit that _h_limit gives for the two profiles. Bitmaps, profiles and
    limits are built on first use. The filter and the verify, an integer dot
    over token ranks, are one lazy map chain over the candidates in ascending
    kept index, which stops at the first hit. Each text is split, and each
    distinct word stripped, once."""
    if not 0.0 <= threshold <= 1.0:  # also rejects NaN
        raise InvalidArgument(f"threshold must be in [0, 1], got {threshold!r}")
    # the punctuation of the casefolded words: casefold maps each char on its own,
    # and split drops no punctuation
    chars = {c for c in set().union(*[text for _, text, _ in records]) for c in c.casefold()}
    punct = "".join([c for c in chars if unicodedata.category(c)[0] == "P"])
    token_of: dict[str, str] = {}  # casefolded word -> token; equal tokens share one str
    docs: list[list] = []  # each record's tokens, turned into ranks in place below
    df: Counter = Counter()
    for item_id, text, _ in records:
        words = text.casefold().split()
        for word in set(words).difference(token_of):
            tok = word.strip(punct)
            token_of[word] = token_of.setdefault(tok, tok)
        docs.append(list(filter(None, map(token_of.__getitem__, words))))
        if not docs[-1]:
            raise EmptyText(f"record {item_id} has no tokens")
        df.update(set(docs[-1]))
    del token_of
    rank = {tok: i for i, tok in enumerate(sorted(df, key=lambda t: (df[t], t)))}
    del df
    for ranks in docs:
        ranks[:] = map(rank.__getitem__, ranks)
    tf = [0] * len(rank)  # the record's term frequency by rank; all 0 between records
    del rank  # and with it the token strings, before the scan's tables grow
    low = threshold * _SLACK
    kept: list[_Record] = []
    kept_ranks: list[list[int]] = []  # token ranks, repeats included
    kept_norms: list[float] = []
    index: defaultdict[int, tuple[array, array]] = defaultdict(lambda: (array("d"), array("l")))
    removed: list[tuple[_Record, _Record]] = []
    energies: list[list[int]] = []  # profile id -> its energy profile (_energy)
    profile_ids: dict[tuple[int, ...], int] = {}  # sorted tf tuple -> profile id

    def profile(tfs: Iterable[int]) -> int:
        """The id of the energy profile of a record's distinct-token tfs."""
        key = tuple(sorted(tfs))
        if key not in profile_ids:
            profile_ids[key] = len(energies)
            energies.append(_energy(key))
        return profile_ids[key]

    kept_bits = _Lazy(lambda o: _bitmap(kept_ranks[o]))
    kept_profiles = _Lazy(lambda o: profile(Counter(kept_ranks[o]).values()))
    # query profile id -> kept profile id -> the largest h at which a pair can pass
    low_sq = (low * low).as_integer_ratio()
    limits = _Lazy(lambda q: _Lazy(lambda o: _h_limit(*low_sq, energies[q], energies[o])))
    for rec, ranks in zip(records, docs):
        for tok in ranks:
            tf[tok] += 1
        sq = sum(map(tf.__getitem__, ranks))  # the sum of tf**2: tf once per occurrence
        norm = math.sqrt(sq)
        prefix, rest, bound = [], sq, low * low * sq
        toks = sorted(set(ranks))
        for tok in toks:
            if rest < bound:
                break
            prefix.append((tok, math.sqrt(rest) / norm))
            rest -= tf[tok] ** 2
        candidates: set[int] = set()
        for tok, rho in prefix:
            shares, ids = index.get(tok, ((), ()))
            candidates.update(ids[: bisect_right(shares, -low / rho)])
        by_ranks = by_norms = cands = sorted(candidates)
        sig = None  # the record's bitmap and profile id, if its candidates are filtered
        if len(cands) >= max(_BITMAP_MIN, len(kept) // _BITMAP_SHARE):
            sig = bq, qp = _bitmap(toks), profile(map(tf.__getitem__, toks))
            h = map(int.bit_count, map(xor, repeat(bq), map(kept_bits.__getitem__, cands)))
            limit = map(limits[qp].__getitem__, map(kept_profiles.__getitem__, cands))
            by_ranks, by_norms, cands = tee(compress(cands, map(le, h, limit)), 3)
        dots = map(sum, map(map, repeat(tf.__getitem__), map(kept_ranks.__getitem__, by_ranks)))
        cos = map(truediv, dots, map(mul, repeat(norm), map(kept_norms.__getitem__, by_norms)))
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
            if sig:
                kept_bits[len(kept)], kept_profiles[len(kept)] = sig
            kept.append(rec)
            kept_ranks.append(ranks)
            kept_norms.append(norm)
    return kept, removed


def stats(
    scale: Scale, counts: dict[str | None, Sequence[int]], min_size: int | None = None
) -> tuple[dict[int, int], dict[str, int]]:
    """Sums per-topic class counts (see count_labels), or with min_size only
    those of the topics holding at least min_size items, into the per-class
    counts, most positive class first as in the published dataset tables, and
    the per-topic item counts."""
    if min_size is not None:
        if min_size < 0:
            raise InvalidArgument(f"min_size must be nonnegative, got {min_size!r}")
        if not counts or None in counts:
            raise NoTopics("topic filtering requires topics")
        counts = {topic: c for topic, c in counts.items() if sum(c) >= min_size}
    totals = [sum(col) for col in zip(*counts.values())] or [0] * len(scale.classes)
    return (dict(zip(scale.classes[::-1], totals[::-1])),
            {topic: sum(c) for topic, c in counts.items() if topic is not None})
