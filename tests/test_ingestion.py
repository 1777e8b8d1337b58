import io
import itertools
import math
import random
import string
import tracemalloc
import unicodedata

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import bow_cosine, class_counts, reference_class_counts, reference_dedup, rows_from_counts
from topicsent.errors import (
    DuplicateKey,
    EmptyText,
    InvalidArgument,
    InvalidLabel,
    MalformedLine,
    NoTopics,
)
from topicsent.evaluate import SUBTASKS
from topicsent.ingestion import (
    RawTweetRecord,
    count_labels,
    dedup,
    label_rows,
    normalized_prevalence,
    parse_annotations,
    parse_labels,
    parse_prevalence_file,
    parse_raw_records,
    stats,
    tokenize,
)
from topicsent.model import Prevalence, Scale, row_key


def parse(text, subtask):
    return parse_labels(io.StringIO(text), SUBTASKS[subtask])


class TestParseDataset:
    """Parsing a whole label file (a data set) into its row_key -> label map."""

    def test_direct_parse(self):
        assert parse("t1\tTOPIC\tpositive\tsome text\n", "B") == {"t1\tTOPIC": 1}

    def test_invalid_label_carries_line(self):
        with pytest.raises(InvalidLabel) as exc:
            parse("t1\tNA\t-3\ttext\n", "A")
        assert exc.value.line == 1
        with pytest.raises(InvalidLabel) as exc:
            parse("t1\tNA\tpositive\nt2\tNA\tpositve\nt3\tNA\tpositve\n", "A")
        assert exc.value.line == 2

    def test_duplicate_key(self):
        with pytest.raises(DuplicateKey):
            parse("t1\tTOPIC\tpositive\nt1\tTOPIC\tnegative\n", "B")

    def test_malformed_line(self):
        with pytest.raises(MalformedLine):
            parse("t1\tTOPIC\n", "B")

    def test_rows_share_topic_strings(self):
        text = "t1\tTOPIC\tpositive\nt2\tTOPIC\tnegative\nt3\tTOPIC \t1\n"
        first, second, third = (t for _, _, t, _ in label_rows(io.StringIO(text), SUBTASKS["B"]))
        assert first is second and third == first

    def test_topic_rules_per_subtask(self):
        with pytest.raises(MalformedLine):
            parse("t1\tNA\tpositive\n", "B")
        with pytest.raises(MalformedLine):
            parse("t1\tTOPIC\tpositive\n", "A")

    @given(st.data())
    def test_round_trip(self, data):
        spec = data.draw(st.sampled_from(list(SUBTASKS.values())))
        word = st.text(alphabet="abcxyz019_-", min_size=1, max_size=4)
        topic = word if spec.topic_based else st.none()
        keyed = data.draw(st.dictionaries(st.tuples(word, topic), st.sampled_from(spec.scale.classes)))
        # a row written as its row_key and integer label parses back to that key and label
        text = "".join(f"{row_key(i, t)}\t{label}\n" for (i, t), label in keyed.items())
        expected = {row_key(i, t): label for (i, t), label in keyed.items()}
        parsed = parse_labels(io.StringIO(text), spec)
        assert parsed == expected and list(parsed) == list(expected)


class TestParseLabels:
    def test_keys_are_canonical_fields(self):
        text = " t1 \t TOPIC\tpositive\nt2\tTOPIC\t-1\n"
        assert parse_labels(io.StringIO(text), SUBTASKS["B"]) == {"t1\tTOPIC": 1, "t2\tTOPIC": -1}
        assert parse_labels(io.StringIO("t1\t NA\t0\n"), SUBTASKS["A"]) == {"t1\tNA": 0}

    def test_gold_map_memory(self):
        """The score path holds gold as one string key per row: 20k subtask-C
        rows with 18-digit ids in 200 topics keep under 125 traced bytes a
        row, where an (id, topic) tuple key beside its id string keeps about
        150."""
        rng = random.Random(14)
        names = ["highlynegative", "negative", "neutral", "positive", "highlypositive"]
        lines = [f"{i}\ttopic{rng.randrange(200):03d}\t{rng.choice(names)}\n"
                 for i in rng.sample(range(10**17, 10**18), 20_000)]
        tracemalloc.start()  # lines, not a StringIO, so that no stream buffer is traced
        try:
            labels = parse_labels(lines, SUBTASKS["C"])
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(labels) == 20_000
        assert kept / 20_000 < 125


@st.composite
def label_files(draw):
    """A subtask and the rows of a label file for it: (id, topic field,
    label field), with padded and repeated ids and topics, label names and
    integers, and sometimes a repeated (id, topic) pair."""
    spec = SUBTASKS[draw(st.sampled_from("ABCDE"))]
    topic = st.sampled_from(["a", " a", "b ", "c"] if spec.topic_based else ["NA", " NA "])
    label = st.sampled_from([str(c) for c in spec.scale.classes]
                            + [spec.scale.class_name(c).lower() for c in spec.scale.classes])
    rows = draw(st.lists(st.tuples(st.sampled_from(["t1", " t1", "t2", "t3"]), topic, label),
                         max_size=12))
    return spec, rows


class TestCountLabels:
    @given(label_files())
    def test_equals_a_per_row_reference(self, data):
        spec, rows = data
        text = "".join("\t".join(r) + "\n" for r in rows)
        keys = [(i.strip(), t.strip()) for i, t, _ in rows]
        repeats = [n for n, key in enumerate(keys, start=1) if key in keys[: n - 1]]
        if repeats:
            with pytest.raises(DuplicateKey) as exc:
                count_labels(io.StringIO(text), spec)
            assert exc.value.line == repeats[0]
        else:
            parsed = [(i, None if t == "NA" else t, spec.scale.parse_label(label))
                      for (i, t), (_, _, label) in zip(keys, rows)]
            expected = reference_class_counts(spec.scale, parsed)
            assert count_labels(io.StringIO(text), spec) == expected

    def test_faults_carry_their_line(self):
        for text, error, line in [("t1\ta\t1\nt2\tNA\t1\n", MalformedLine, 2),
                                  ("t1\ta\t1\nt1\ta \t-1\n", DuplicateKey, 2),
                                  ("t1\ta\t1\nt2\ta\t0_1\n", InvalidLabel, 2)]:
            with pytest.raises(error) as exc:
                count_labels(io.StringIO(text), SUBTASKS["B"])
            assert exc.value.line == line

    def test_empty_and_topicless(self):
        assert count_labels(io.StringIO(""), SUBTASKS["B"]) == {}
        text = "t1\tNA\t1\nt2\tNA\tneutral\nt3\tNA\t1\n"
        assert count_labels(io.StringIO(text), SUBTASKS["A"]) == {None: (0, 1, 2)}


class TestParsePrevalenceFile:
    def test_basic(self):
        text = "a\tpositive\t0.75\na\tnegative\t0.25\n"
        out = parse_prevalence_file(io.StringIO(text), Scale.TWO_POINT)
        assert out["a"].fractions == pytest.approx((0.25, 0.75))

    def test_sum_check(self):
        text = "a\tpositive\t0.75\na\tnegative\t0.35\n"
        with pytest.raises(MalformedLine):
            parse_prevalence_file(io.StringIO(text), Scale.TWO_POINT)

    def test_sum_beyond_float_range(self):
        text = "a\tpositive\t1e308\na\tnegative\t1e308\n"
        with pytest.raises(MalformedLine) as exc:
            parse_prevalence_file(io.StringIO(text), Scale.TWO_POINT)
        assert exc.value.line == 2

    def test_repeated_class(self):
        text = "a\tpositive\t0.5\na\tpositive\t0.5\n"
        with pytest.raises(DuplicateKey):
            parse_prevalence_file(io.StringIO(text), Scale.TWO_POINT)

    @pytest.mark.parametrize("value", ["0.2_5", "\u0660.25", "0.25\u00a0", "\uff10.25"])
    def test_values_are_ascii_numbers(self, value):
        text = f"a\tpositive\t0.75\na\tnegative\t{value}\n"
        with pytest.raises(MalformedLine, match="^line 2: bad prevalence value") as exc:
            parse_prevalence_file(io.StringIO(text), Scale.TWO_POINT)
        assert exc.value.line == 2


def stated_fractions(k):
    """Lists of k fractions: any floats, or shares of a positive total with
    the first moved by up to 2e-6, so that the sum straddles the tolerance."""
    shares = st.lists(st.floats(0, 1), min_size=k, max_size=k).filter(lambda v: math.fsum(v) > 0)
    near_one = st.tuples(shares, st.floats(-2e-6, 2e-6)).map(
        lambda s: [x / math.fsum(s[0]) + (s[1] if i == 0 else 0.0) for i, x in enumerate(s[0])])
    return st.one_of(st.lists(st.floats(), min_size=k, max_size=k), near_one)


class TestPrevalenceRule:
    """A --kind prevalence list and a one-topic prevalence file follow one rule."""

    @example(fractions=[0.000, 0.999])
    @example(fractions=[0.3, 0.7000001])
    @example(fractions=[1e308, 1e308])
    @example(fractions=[-0.1, 1.1])
    @example(fractions=[-0.0, 1.0])
    @example(fractions=[math.nan, 1.0])
    @example(fractions=[0.000, 0.259, 0.296, 0.148, 0.296])
    @given(st.sampled_from([2, 5]).flatmap(stated_fractions))
    def test_lists_and_files_accept_the_same_fractions(self, fractions):
        scale = Scale.TWO_POINT if len(fractions) == 2 else Scale.FIVE_POINT
        text = "".join(f"a\t{c}\t{f!r}\n" for c, f in zip(scale.classes, fractions))
        try:
            listed = normalized_prevalence(scale, fractions)
        except InvalidLabel:
            listed = None
        try:
            parsed = parse_prevalence_file(io.StringIO(text), scale)["a"]
        except MalformedLine:
            parsed = None
        assert parsed == listed
        if listed is not None:
            assert type(listed) is type(parsed) is Prevalence


class TestParseAnnotations:
    def test_basic(self):
        text = "t1\tx\t1\t1\t1\t-2\t-2\n t2 \tNA\t0\t0\t0\t0\t0\n"
        rows = parse_annotations(io.StringIO(text))
        assert rows == [("t1\tx", [1, 1, 1, -2, -2]), ("t2\tNA", [0, 0, 0, 0, 0])]

    def test_too_few(self):
        from topicsent.errors import TooFewAnnotators

        with pytest.raises(TooFewAnnotators):
            parse_annotations(io.StringIO("t1\tx\t1\t1\t1\n"))

    def test_empty_id(self):
        with pytest.raises(MalformedLine) as exc:
            parse_annotations(io.StringIO("t1\tx\t1\t1\t1\t0\t0\n \tx\t1\t1\t1\t0\t0\n"))
        assert exc.value.line == 2

    @pytest.mark.parametrize("label", ["0_1", "\u0661"])
    def test_labels_are_ascii_integers(self, label):
        text = f"t1\tx\t1\t1\t1\t0\t0\nt2\tx\t1\t1\t1\t0\t{label}\n"
        with pytest.raises(InvalidLabel, match="^line 2: annotator labels must be integers"):
            parse_annotations(io.StringIO(text))


class TestBowCosine:
    def test_identical(self):
        assert bow_cosine("Some tweet text", "some tweet text") == pytest.approx(1.0)

    def test_disjoint(self):
        assert bow_cosine("a b", "c d") == 0.0

    def test_hand_dot_product(self):
        assert bow_cosine("a b c", "a b d") == pytest.approx(2 / 3)

    def test_punctuation_stripped(self):
        assert bow_cosine("hello, world!", "hello world") == pytest.approx(1.0)

    def test_empty_text(self):
        with pytest.raises(EmptyText):
            bow_cosine("...", "words here")

    @given(st.text(alphabet="abc d", min_size=1), st.text(alphabet="abc d", min_size=1))
    def test_symmetric(self, a, b):
        try:
            assert bow_cosine(a, b) == pytest.approx(bow_cosine(b, a))
        except EmptyText:
            pass


def record(i, text):
    return RawTweetRecord(id=f"t{i}", topic="x", label=None, text=text)


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
        assert [r.id for r in kept] == ["t1"]
        assert removed[0][0].id == "t2" and removed[0][1].id == "t1"

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
            results.append(([r.id for r in kept], [(r.id, hit.id) for r, hit in removed]))
        assert results[0] == results[1]

    @pytest.mark.parametrize("threshold", [0, 1])
    def test_integer_threshold_equals_float(self, threshold):
        # the verify compares with operator.lt(threshold, cos); an int's own
        # __lt__(float) returns NotImplemented, which would count as a hit
        records = [record(i, " ".join(words)) for i, words in enumerate(seeded_texts())]
        assert dedup(records, threshold) == dedup(records, float(threshold))


def loop_tokenize(text):
    """Reference tokenizer, one character at a time: casefold, split on
    whitespace, then drop Unicode punctuation (category P) from both ends."""
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


def assert_matches_reference(records, threshold):
    kept, removed = dedup(records, threshold)
    ref_kept, ref_removed = reference_dedup(records, threshold)
    assert [r.id for r in kept] == [r.id for r in ref_kept]
    assert [(r.id, hit.id) for r, hit in removed] == [(r.id, hit.id) for r, hit in ref_removed]


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

    @pytest.mark.parametrize("threshold", [0.0, 0.3, 0.6, 0.9, 1.0])
    def test_seeded_corpus(self, threshold):
        records = [record(i, " ".join(words)) for i, words in enumerate(seeded_texts())]
        assert_matches_reference(records, threshold)


class TestTokenize:
    @given(st.text() | _UNICODE_TEXT)
    def test_matches_character_loop(self, text):
        assert tokenize(text) == loop_tokenize(text)

    def test_casefold_and_punctuation(self):
        assert tokenize("«Straße» ¿ﬁne? \u00a0İ…\u2003—!") == ["strasse", "fine", "i\u0307"]


class TestTopicFilter:
    """stats with min_size counts only the topics holding at least min_size items."""

    def test_boundary(self):
        counts = class_counts(Scale.TWO_POINT, rows_from_counts({1: 99}, topic="small")
                              + rows_from_counts({1: 100}, topic="big"))
        out = stats(Scale.TWO_POINT, counts, min_size=100)
        assert set(out.per_topic) == {"big"}
        assert out.total == 100

    def test_min_size_one_is_identity(self):
        counts = {"x": (2, 3)}
        assert stats(Scale.TWO_POINT, counts, min_size=1) == stats(Scale.TWO_POINT, counts)

    def test_negative_min_size_rejected(self):
        with pytest.raises(InvalidArgument):
            stats(Scale.TWO_POINT, {"x": (0, 3)}, min_size=-5)

    def test_requires_topics(self):
        with pytest.raises(NoTopics):
            stats(Scale.TWO_POINT, {None: (0, 3)}, min_size=100)
        with pytest.raises(NoTopics):
            stats(Scale.TWO_POINT, {}, min_size=0)


class TestStats:
    """stats on per-topic class-count maps, as count_labels returns them."""

    def test_counts_and_total(self):
        counts = class_counts(
            Scale.FIVE_POINT, rows_from_counts({2: 13, 1: 1548, 0: 3343, -1: 1175, -2: 21}, topic="x")
        )
        s = stats(Scale.FIVE_POINT, counts)
        assert s.total == 6100
        assert list(s.per_class) == [2, 1, 0, -1, -2]  # most positive first
        assert s.per_class == {2: 13, 1: 1548, 0: 3343, -1: 1175, -2: 21}
        assert sum(s.per_class.values()) == s.total
        assert sum(s.per_topic.values()) == s.total

    def test_empty(self):
        s = stats(Scale.THREE_POINT, {})
        assert s.total == 0 and all(v == 0 for v in s.per_class.values())
        assert list(s.per_class) == [1, 0, -1] and s.per_topic == {}

    def test_no_topics(self):
        s = stats(Scale.THREE_POINT, {None: (1, 0, 2)})
        assert s.per_class == {1: 2, 0: 0, -1: 1}
        assert s.per_topic == {} and s.total == 3

    def test_per_topic_in_count_order(self):
        s = stats(Scale.TWO_POINT, {"a": (1, 0), "b": (2, 5), "c": (0, 0)}, min_size=1)
        assert s.per_topic == {"a": 1, "b": 7} and list(s.per_topic) == ["a", "b"]
        assert s.per_class == {1: 5, -1: 3} and s.total == 8
