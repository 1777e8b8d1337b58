"""Near-duplicate filtering of the ``(id, text, line)`` record tuples that
``ingestion.parse_raw_records`` reads: a greedy scan that keeps a record
unless its bag-of-words cosine to an earlier kept record exceeds a threshold."""

from __future__ import annotations

import math
import unicodedata
from array import array
from bisect import bisect_right
from collections import Counter, defaultdict
from itertools import accumulate, compress, repeat, tee
from operator import le, lt, mod, mul, truediv, xor
from typing import Iterable, Sequence

from .errors import EmptyText, InvalidArgument

_Record = tuple[str, str, str]  # a dedup record: id, text and its output line
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
