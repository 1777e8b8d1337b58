import itertools
import math
import random
import string
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import reference_dedup
from topicsent import neardup
from topicsent.errors import EmptyText, InvalidArgument
from topicsent.neardup import dedup


def record(i, text):
    """The (id, text, line) tuple parse_raw_records gives for the row t<i>, x, no label, text."""
    return f"t{i}", text, f"t{i}\tx\t\t{text}"


def seeded_texts():
    """1,500 Zipf-weighted word lists; about 15% are edited copies of an
    earlier one."""
    rng = random.Random(2007)
    vocab = [f"w{i}" for i in range(300)]
    weights = [1 / (rank + 1) for rank in range(len(vocab))]
    texts: list[list[str]] = []
    for _ in range(1_500):
        if texts and rng.random() < 0.15:
            # an edited copy of an earlier record
            words = list(rng.choice(texts))
            if rng.random() < 0.5 and len(words) > 1:
                del words[rng.randrange(len(words))]
            else:
                words.insert(rng.randrange(len(words) + 1), rng.choice(vocab))
        else:
            words = rng.choices(vocab, weights, k=rng.randint(3, 14))
        texts.append(words)
    return texts


class TestDedup:
    def test_near_duplicate_removed(self):
        kept, removed = dedup([record(1, "a b c"), record(2, "a b d")])
        assert [r[0] for r in kept] == ["t1"]
        assert removed[0][0][0] == "t2" and removed[0][1][0] == "t1"

    def test_distinct_kept(self):
        kept, removed = dedup([record(1, "a b"), record(2, "c d"), record(3, "e f")])
        assert len(kept) == 3 and not removed

    def test_exact_duplicates(self):
        kept, removed = dedup([record(i, "same text here") for i in range(3)])
        assert len(kept) == 1 and len(removed) == 2

    def test_at_threshold_kept(self):
        # similarity exactly at the threshold must survive (strictly-greater rule)
        kept, _ = dedup([record(1, "a"), record(2, "a")], threshold=1.0)
        assert len(kept) == 2

    @pytest.mark.parametrize("threshold", [-0.1, 1.5, float("nan")])
    def test_threshold_outside_unit_interval_rejected(self, threshold):
        with pytest.raises(InvalidArgument):
            dedup([record(1, "a b")], threshold=threshold)

    def test_first_empty_record_reported(self):
        # t2 would be removed as a copy of t1, and t4 is empty too; the error
        # names the first record without tokens in input order
        records = [record(1, "a b"), record(2, "a b"), record(3, "..."), record(4, "!")]
        with pytest.raises(EmptyText) as info:
            dedup(records)
        assert str(info.value) == "record t3 has no tokens"

    @given(st.lists(st.text(alphabet="abcdef ", min_size=1).filter(str.strip), max_size=25))
    def test_idempotent(self, texts):
        records = [record(i, t) for i, t in enumerate(texts)]
        kept, _ = dedup(records)
        kept2, removed2 = dedup(kept)
        assert kept2 == kept and not removed2

    @pytest.mark.parametrize("threshold", [0.0, 0.3, 0.6, 0.9, 1.0])
    def test_token_renaming_keeps_result(self, threshold):
        """A one-to-one renaming of the tokens reorders the rarest-first ranks
        on their (df, token) tie-break, and with them the prefixes; the
        filters are exact, so kept and removed stay the same."""
        texts = seeded_texts()
        vocab = sorted({w for words in texts for w in words})
        fresh = ["".join(w) for w in itertools.product(string.ascii_lowercase, repeat=3)]
        rename = dict(zip(vocab, random.Random(1).sample(fresh, len(vocab))))
        results = []
        for corpus in (texts, [[rename[w] for w in words] for words in texts]):
            kept, removed = dedup([record(i, " ".join(words)) for i, words in enumerate(corpus)],
                                  threshold)
            results.append(([r[0] for r in kept], [(r[0], hit[0]) for r, hit in removed]))
        assert results[0] == results[1]

    @pytest.mark.parametrize("threshold", [0, 1])
    def test_integer_threshold_equals_float(self, threshold):
        # the verify compares with operator.lt(threshold, cos); an int's own
        # __lt__(float) returns NotImplemented, which would count as a hit
        records = [record(i, " ".join(words)) for i, words in enumerate(seeded_texts())]
        assert dedup(records, threshold) == dedup(records, float(threshold))

    def test_casefold_and_punctuation(self):
        """dedup's tokens are casefolded words without leading and trailing
        punctuation: the text below has the tokens strasse, fine and i\u0307,
        so the record of those three words is its copy, and two of them are not."""
        records = [record(1, "«Straße» ¿ﬁne? \u00a0İ…\u2003—!"), record(2, "strasse fine"),
                   record(3, "strasse fine i\u0307")]
        _, removed = dedup(records, threshold=0.99)
        assert [(r[0], hit[0]) for r, hit in removed] == [("t3", "t1")]


def assert_matches_reference(records, threshold):
    kept, removed = dedup(records, threshold)
    ref_kept, ref_removed = reference_dedup(records, threshold)
    assert [r[0] for r in kept] == [r[0] for r in ref_kept]
    assert [(r[0], hit[0]) for r, hit in removed] == [(r[0], hit[0]) for r, hit in ref_removed]


_TEXT = st.lists(st.sampled_from("a b c d e f".split()), min_size=1, max_size=8).map(" ".join)
# each token repeated up to 5 times, so most pairs have TF > 1 on both sides
_REPEATED_TEXT = st.lists(
    st.tuples(st.sampled_from("a b c d e f".split()), st.integers(1, 5)), min_size=1, max_size=5
).map(lambda words: " ".join(" ".join([w] * n) for w, n in words))
_THRESHOLD = st.sampled_from([0.0, 1.0, 2**-0.5, 0.6]) | st.floats(0.0, 1.0)
_SHARED = " ".join(f"s{i}" for i in range(18))
_SHARED_TF = "s0 s0 s1 s2 s3 s4 s5 s6"
# Words from Unicode and ASCII punctuation, letters whose casefold expands
# (ß -> ss, ﬁ -> fi, İ -> i + U+0307) next to what they expand to, and mixed
# case, joined by ASCII and Unicode spaces: many raw words share one token,
# and some words are all punctuation.
_WORD = st.lists(
    st.sampled_from([*"«»¿¡—…!?.,", "ß", "ss", "SS", "ﬁ", "fi", "FI", "İ", "i\u0307", "I", "a", "Ab"]),
    min_size=1, max_size=4,
).map("".join)
_UNICODE_TEXT = st.lists(
    st.tuples(_WORD, st.sampled_from([" ", "\u00a0", "\u2003"])), min_size=1, max_size=6
).map(lambda pairs: "".join(w + sep for w, sep in pairs))


# Bags over 400 words, each repeated 1-5 times: a corpus of a few bags holds
# more distinct tokens than a bitmap has bits, so bits collide, and the
# records' sorted tf tuples differ.
_BAG_TEXT = st.lists(
    st.tuples(st.integers(0, 399), st.integers(1, 5)), min_size=1, max_size=40
).map(lambda bag: " ".join(" ".join([f"v{w}"] * n) for w, n in bag))


class TestDedupMatchesReference:
    @settings(max_examples=300)
    @given(
        pool=st.lists(_TEXT, min_size=1, max_size=6),
        picks=st.lists(st.integers(0, 5), max_size=30),
        threshold=_THRESHOLD,
    )
    # The second text is the first without its three rare tokens. Their
    # cosine, sqrt(18/21), lies just below this threshold, but the float
    # expression rounds above it, so the second is removed, and only a prefix
    # and a cut that both have slack find the pair.
    @example(pool=[f"r0 r1 r2 {_SHARED}", _SHARED], picks=[0, 1], threshold=0.9258200997725515)
    @example(pool=["a b c", "a"], picks=[0, 0, 1, 1], threshold=1.0)
    # The pair meets first at s0, the kept record's second prefix token. The
    # query's share there is 1 and the kept record's, counting s0 itself, is
    # sqrt(10/11), which is the cosine, so the cut at the first shared token
    # has no room: a share that leaves out the token's own weight drops the pair.
    @example(pool=[f"r0 {_SHARED_TF}", _SHARED_TF], picks=[0, 1], threshold=0.9534625892455922)
    def test_small_corpora(self, pool, picks, threshold):
        # picks index the pool, so exact duplicate texts are common
        records = [record(i, pool[p % len(pool)]) for i, p in enumerate(picks)]
        assert_matches_reference(records, threshold)

    @settings(max_examples=300)
    @given(
        pool=st.lists(_REPEATED_TEXT, min_size=1, max_size=6),
        picks=st.lists(st.integers(0, 5), max_size=30),
        threshold=_THRESHOLD,
    )
    def test_repeated_tokens(self, pool, picks, threshold):
        records = [record(i, pool[p % len(pool)]) for i, p in enumerate(picks)]
        assert_matches_reference(records, threshold)

    @settings(max_examples=300)
    @given(
        pool=st.lists(_UNICODE_TEXT, min_size=1, max_size=6),
        picks=st.lists(st.integers(0, 5), max_size=30),
        threshold=_THRESHOLD,
    )
    def test_unicode_tokens(self, pool, picks, threshold):
        """The per-call memo maps each raw word to its token; words that
        differ in case, punctuation or casefold form must meet in one token."""
        records = [record(i, pool[p % len(pool)]) for i, p in enumerate(picks)]
        try:
            expected = reference_dedup(records, threshold)
        except EmptyText as exc:
            with pytest.raises(EmptyText, match=f"^{exc}$"):
                dedup(records, threshold)
        else:
            assert dedup(records, threshold) == expected

    @settings(max_examples=300)
    @given(
        pool=st.lists(_BAG_TEXT, min_size=1, max_size=6),
        picks=st.lists(
            st.tuples(st.integers(0, 5), st.lists(st.integers(0, 399), max_size=3)), max_size=30
        ),
        threshold=_THRESHOLD,
    )
    # the slack-boundary pairs of test_small_corpora, through the bitmap filter
    @example(pool=[f"r0 r1 r2 {_SHARED}", _SHARED], picks=[(0, []), (1, [])],
             threshold=0.9258200997725515)
    @example(pool=[f"r0 {_SHARED_TF}", _SHARED_TF], picks=[(0, []), (1, [])],
             threshold=0.9534625892455922)
    def test_bitmap_collisions(self, pool, picks, threshold):
        """Every candidate list goes through the bitmap filter, whatever its
        length; each record is a pool bag with up to three words added, so
        near-duplicates are common."""
        records = [record(i, " ".join([pool[p % len(pool)], *(f"v{w}" for w in extra)]))
                   for i, (p, extra) in enumerate(picks)]
        with mock.patch.object(neardup, "_BITMAP_MIN", 1):
            assert_matches_reference(records, threshold)

    @pytest.mark.parametrize("threshold", [0.0, 0.3, 0.6, 0.9, 1.0])
    def test_seeded_corpus(self, threshold):
        records = [record(i, " ".join(words)) for i, words in enumerate(seeded_texts())]
        assert_matches_reference(records, threshold)


def pair_cosine(tfs):
    """The cosine of two records by dedup's float rule, from (tf in the first,
    tf in the second) per token."""
    dot = sum(a * b for a, b in tfs)
    norm, onorm = (math.sqrt(sum(t * t for t in side)) for side in zip(*tfs))
    return dot / (norm * onorm)


def bitmap_limit(tfs, ranks, threshold):
    """The bitmap distance h of two records and the limit _h_limit sets on it,
    from (tf in the first, tf in the second) per token and its rank."""
    bq, bo = (neardup._bitmap([r for r, t in zip(ranks, side) if t]) for side in zip(*tfs))
    energies = (neardup._energy(filter(None, side)) for side in zip(*tfs))
    low = threshold * neardup._SLACK
    return (bq ^ bo).bit_count(), neardup._h_limit(*(low * low).as_integer_ratio(), *energies)


class TestBitmapBound:
    """The bitmap filter may drop a pair only when its cosine cannot pass."""

    @settings(max_examples=500)
    @given(
        tfs=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), min_size=1, max_size=24)
        .filter(lambda tfs: all(map(any, zip(*tfs)))),
        layout=st.sampled_from(["one bit each", "all on one bit", "random"]),
        ranks=st.lists(st.integers(0, 3 * neardup._BITS), min_size=24, max_size=24),
        threshold=_THRESHOLD,
    )
    @example(tfs=[(1, 1)] * 18 + [(1, 0)] * 3, layout="one bit each", ranks=[0] * 24,
             threshold=0.9258200997725515)
    def test_limit_passes_every_colliding_pair(self, tfs, layout, ranks, threshold):
        """Tokens on bits of their own give the largest h, the size of the
        symmetric difference; all tokens on one bit give h = 0."""
        if layout == "one bit each":
            ranks = range(len(tfs))
        elif layout == "all on one bit":
            ranks = [neardup._BITS * i for i in range(len(tfs))]
        h, limit = bitmap_limit(tfs, ranks, threshold)
        if pair_cosine(tfs) > threshold:
            assert h <= limit

    @pytest.mark.parametrize("threshold", [0.0, 0.3, 0.6, 0.9, 1.0])
    def test_limit_extremes(self, threshold):
        # identical records and all bits colliding: h = 0 always passes
        same = [(2, 2), (1, 1), (1, 1)]
        assert bitmap_limit(same, [0, 0, 0], threshold)[1] >= 0
        # no shared token and a bit per token: h = d + od, which passes only
        # at threshold 0, where the verify still finds cosine 0 not above it
        apart = [(2, 0), (1, 0), (0, 3), (0, 1)]
        h, limit = bitmap_limit(apart, range(4), threshold)
        assert h == 4 and (h <= limit) == (threshold == 0)
