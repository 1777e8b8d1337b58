import io
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import bow_cosine, dataset_from_counts, reference_dedup, rows
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
    dedup,
    parse_annotations,
    parse_dataset,
    parse_prevalence_file,
    parse_raw_records,
    serialize_dataset,
    stats,
    topic_filter,
)
from topicsent.model import Dataset, Scale


def parse(text, subtask):
    return parse_dataset(io.StringIO(text), SUBTASKS[subtask])


class TestParseDataset:
    def test_direct_parse(self):
        d = parse("t1\tTOPIC\tpositive\tsome text\n", "B")
        assert dict(d.labels) == {("t1", "TOPIC"): 1}

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
        d = parse("t1\tTOPIC\tpositive\nt2\tTOPIC\tnegative\nt3\tTOPIC \t1\n", "B")
        (_, first), (_, second), (_, third) = d.labels
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
        d = Dataset.build(spec.scale, [(i, t, label) for (i, t), label in keyed.items()])
        buf = io.StringIO()
        serialize_dataset(d, buf)
        buf.seek(0)
        parsed = parse_dataset(buf, spec)
        assert parsed == d and list(parsed.labels) == list(d.labels)


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


class TestParseAnnotations:
    def test_basic(self):
        rows = parse_annotations(io.StringIO("t1\tx\t1\t1\t1\t-2\t-2\n"))
        assert rows[0].labels == (1, 1, 1, -2, -2)

    def test_too_few(self):
        from topicsent.errors import TooFewAnnotators

        with pytest.raises(TooFewAnnotators):
            parse_annotations(io.StringIO("t1\tx\t1\t1\t1\n"))

    def test_empty_id(self):
        with pytest.raises(MalformedLine) as exc:
            parse_annotations(io.StringIO("t1\tx\t1\t1\t1\t0\t0\n \tx\t1\t1\t1\t0\t0\n"))
        assert exc.value.line == 2


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

    @given(st.lists(st.text(alphabet="abcdef ", min_size=1).filter(str.strip), max_size=25))
    def test_idempotent(self, texts):
        records = [record(i, t) for i, t in enumerate(texts)]
        kept, _ = dedup(records)
        kept2, removed2 = dedup(kept)
        assert kept2 == kept and not removed2


def assert_matches_reference(records, threshold):
    kept, removed = dedup(records, threshold)
    ref_kept, ref_removed = reference_dedup(records, threshold)
    assert [r.id for r in kept] == [r.id for r in ref_kept]
    assert [(r.id, hit.id) for r, hit in removed] == [(r.id, hit.id) for r, hit in ref_removed]


_TEXT = st.lists(st.sampled_from("a b c d e f".split()), min_size=1, max_size=8).map(" ".join)
_THRESHOLD = st.sampled_from([0.0, 1.0, 2**-0.5, 0.6]) | st.floats(0.0, 1.0)
_SHARED = " ".join(f"s{i}" for i in range(18))


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
    # cut with slack finds the pair.
    @example(pool=[f"r0 r1 r2 {_SHARED}", _SHARED], picks=[0, 1], threshold=0.9258200997725515)
    @example(pool=["a b c", "a"], picks=[0, 0, 1, 1], threshold=1.0)
    def test_small_corpora(self, pool, picks, threshold):
        # picks index the pool, so exact duplicate texts are common
        records = [record(i, pool[p % len(pool)]) for i, p in enumerate(picks)]
        assert_matches_reference(records, threshold)

    @pytest.mark.parametrize("threshold", [0.3, 0.6, 0.9])
    def test_seeded_corpus(self, threshold):
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
        records = [record(i, " ".join(words)) for i, words in enumerate(texts)]
        assert_matches_reference(records, threshold)


class TestTopicFilter:
    def test_boundary(self):
        a = dataset_from_counts(Scale.TWO_POINT, {1: 99}, topic="small")
        b = dataset_from_counts(Scale.TWO_POINT, {1: 100}, topic="big")
        d = Dataset.build(Scale.TWO_POINT, rows(a, b))
        out = topic_filter(d, min_size=100)
        assert {topic for _, topic in out.labels} == {"big"}
        assert len(out) == 100

    def test_min_size_one_is_identity(self):
        d = dataset_from_counts(Scale.TWO_POINT, {1: 3, -1: 2}, topic="x")
        assert topic_filter(d, min_size=1) == d

    def test_negative_min_size_rejected(self):
        d = dataset_from_counts(Scale.TWO_POINT, {1: 3}, topic="x")
        with pytest.raises(InvalidArgument):
            topic_filter(d, min_size=-5)

    def test_requires_topics(self):
        d = dataset_from_counts(Scale.TWO_POINT, {1: 3})
        with pytest.raises(NoTopics):
            topic_filter(d)
        with pytest.raises(NoTopics):
            topic_filter(Dataset.build(Scale.TWO_POINT, []), min_size=0)


class TestStats:
    def test_counts_and_total(self):
        d = dataset_from_counts(
            Scale.FIVE_POINT, {2: 13, 1: 1548, 0: 3343, -1: 1175, -2: 21}, topic="x"
        )
        s = stats(d)
        assert s.total == 6100
        assert list(s.per_class) == [2, 1, 0, -1, -2]  # most positive first
        assert s.per_class == {2: 13, 1: 1548, 0: 3343, -1: 1175, -2: 21}
        assert sum(s.per_class.values()) == s.total
        assert sum(s.per_topic.values()) == s.total

    def test_empty(self):
        s = stats(Dataset.build(Scale.THREE_POINT, []))
        assert s.total == 0 and all(v == 0 for v in s.per_class.values())

    def test_no_topics(self):
        s = stats(dataset_from_counts(Scale.THREE_POINT, {1: 2, -1: 1}))
        assert s.per_class == {1: 2, 0: 0, -1: 1}
        assert s.per_topic == {} and s.n_topics == 0 and s.total == 3
