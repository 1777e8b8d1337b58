import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (
    constant_predictions,
    dataset_from_counts,
    reference_class_counts,
    reference_join,
    rows,
)
from topicsent.errors import (
    DuplicateKey,
    EmptyInput,
    InvalidLabel,
    MissingPrediction,
    NoTopics,
    ScaleMismatch,
)
from topicsent.model import (
    ConfusionMatrix,
    Dataset,
    Prevalence,
    Scale,
    class_fractions,
    confusion_tables,
    join_rows,
    topic_class_counts,
)


class TestScale:
    def test_class_orders(self):
        assert Scale.TWO_POINT.classes == (-1, 1)
        assert Scale.THREE_POINT.classes == (-1, 0, 1)
        assert Scale.FIVE_POINT.classes == (-2, -1, 0, 1, 2)

    @pytest.mark.parametrize(
        "raw,expected",
        [("positive", 1), ("NEGATIVE", -1), ("Neutral", 0), ("-2", -2),
         ("highlypositive", 2), ("HighlyNegative", -2), ("+1", 1)],
    )
    def test_parse_label_surface_forms(self, raw, expected):
        assert Scale.FIVE_POINT.parse_label(raw) == expected

    def test_parse_label_rejects_out_of_scale(self):
        with pytest.raises(InvalidLabel):
            Scale.TWO_POINT.parse_label("neutral")
        with pytest.raises(InvalidLabel):
            Scale.FIVE_POINT.parse_label("-3")
        with pytest.raises(InvalidLabel):
            Scale.THREE_POINT.parse_label("great")

    @pytest.mark.parametrize("scale", list(Scale))
    def test_parse_label_names_and_integers_agree(self, scale):
        for c in scale.classes:
            name = scale.class_name(c)
            forms = [str(c), f" {c} ", name, name.lower(), f" {name.title()}\t"]
            assert [scale.parse_label(raw) for raw in forms] == [c] * len(forms)

    @pytest.mark.parametrize(
        "scale,raw,message",
        [
            (Scale.THREE_POINT, "great", "line 7: unrecognized label 'great'"),
            (Scale.FIVE_POINT, "", "line 7: unrecognized label ''"),
            (Scale.TWO_POINT, "neutral", "line 7: label 'neutral' invalid on scale TWO_POINT"),
            (Scale.THREE_POINT, " 2 ", "line 7: label ' 2 ' invalid on scale THREE_POINT"),
            (Scale.THREE_POINT, "HighlyPositive",
             "line 7: label 'HighlyPositive' invalid on scale THREE_POINT"),
        ],
    )
    def test_parse_label_errors(self, scale, raw, message):
        with pytest.raises(InvalidLabel) as exc:
            scale.parse_label(raw, line=7)
        assert str(exc.value) == message and exc.value.line == 7


class TestDataset:
    def test_duplicate_key_is_hard_error(self):
        items = [("t1", "x", 1), ("t1", "x", -1)]
        with pytest.raises(DuplicateKey):
            Dataset.build(Scale.TWO_POINT, items)

    def test_same_id_different_topic_allowed(self):
        items = [("t1", "x", 1), ("t1", "y", -1)]
        d = Dataset.build(Scale.TWO_POINT, items)
        assert list(d.labels) == [("t1", "x"), ("t1", "y")]

    def test_mixed_topic_presence_rejected(self):
        items = [("t1", "x", 1), ("t2", None, -1)]
        with pytest.raises(NoTopics):
            Dataset.build(Scale.TWO_POINT, items)

    def test_label_outside_scale_rejected(self):
        with pytest.raises(InvalidLabel):
            Dataset.build(Scale.TWO_POINT, [("t1", None, 0)])

    def test_empty_id_rejected(self):
        with pytest.raises(InvalidLabel):
            Dataset.build(Scale.TWO_POINT, [("t1", "x", 1), ("", "x", -1)])

    def test_labels_keyed_in_input_order_and_read_only(self):
        d = Dataset.build(Scale.TWO_POINT, [("t2", "x", 1), ("t1", "x", -1)])
        assert list(d.labels.items()) == [(("t2", "x"), 1), (("t1", "x"), -1)]
        with pytest.raises(TypeError):
            d.labels["t3", "x"] = 1

    def test_direct_construction_is_read_only(self):
        d = Dataset(Scale.TWO_POINT, {("t1", None): 1})
        with pytest.raises(TypeError):
            d.labels["t2", None] = -1


class TestAlign:
    """Joining predictions onto gold by (id, topic) into confusion matrices."""

    def test_direct_pairing(self):
        gold = Dataset.build(
            Scale.TWO_POINT,
            [("t1", None, 1), ("t2", None, -1)],
        )
        pred = Dataset.build(
            Scale.TWO_POINT,
            [("t1", None, 1), ("t2", None, 1)],
        )
        tables, ignored = confusion_tables(gold, pred)
        assert list(tables) == [None] and ignored == 0
        # rows are gold -1, +1; columns predicted -1, +1
        assert tables[None].counts == ((0, 1), (0, 1))

    def test_missing_prediction(self):
        gold = Dataset.build(Scale.TWO_POINT, [("t1", None, 1)])
        pred = Dataset.build(Scale.TWO_POINT, [])
        with pytest.raises(MissingPrediction):
            confusion_tables(gold, pred)

    def test_extra_predictions_ignored_with_count(self):
        gold = Dataset.build(Scale.TWO_POINT, [("t1", None, 1)])
        pred = Dataset.build(
            Scale.TWO_POINT,
            [("t1", None, 1), ("t9", None, -1)],
        )
        tables, ignored = confusion_tables(gold, pred)
        assert tables[None].total == 1
        assert ignored == 1

    def test_streamed_rows(self):
        """join_rows takes gold over and catches a repeated prediction key,
        in gold or not, at its row's line."""
        gold = {("t1", "a"): 1, ("t2", "a"): -1, ("t3", "a"): 1}
        rows_in = [(1, ("t3", "a"), 1), (2, ("t9", "a"), 1), (3, ("t1", "a"), -1)]
        with pytest.raises(MissingPrediction, match="t2"):
            join_rows(Scale.TWO_POINT, dict(gold), rows_in)
        with pytest.raises(DuplicateKey, match="line 5"):
            join_rows(Scale.TWO_POINT, dict(gold), rows_in + [(5, ("t3", "a"), 1)])
        with pytest.raises(DuplicateKey, match="line 6"):
            join_rows(Scale.TWO_POINT, dict(gold), rows_in + [(6, ("t9", "a"), -1)])
        tables, ignored = join_rows(Scale.TWO_POINT, gold, rows_in + [(7, ("t2", "a"), 1)])
        assert tables["a"].counts == ((0, 1), (1, 1)) and ignored == 1
        assert set(gold.values()) == {None}

    def test_scale_mismatch(self):
        gold = Dataset.build(Scale.TWO_POINT, [("t1", None, 1)])
        pred = Dataset.build(Scale.THREE_POINT, [("t1", None, 1)])
        with pytest.raises(ScaleMismatch):
            confusion_tables(gold, pred)


class TestGroupByTopic:
    """Per-topic count tables: gold class counts and confusion matrices."""

    def test_partition(self):
        d = Dataset.build(
            Scale.TWO_POINT,
            [
                ("t1", "a", 1),
                ("t2", "a", -1),
                ("t3", "b", 1),
            ],
        )
        assert topic_class_counts(d) == {"a": (1, 1), "b": (0, 1)}

    def test_keys_sorted(self):
        d = Dataset.build(
            Scale.TWO_POINT,
            [
                ("t1", "b", 1),
                ("t2", "a", 1),
                ("t3", "b", -1),
                ("t4", "a", -1),
            ],
        )
        assert list(topic_class_counts(d)) == ["a", "b"]
        assert list(confusion_tables(d, d)[0]) == ["a", "b"]

    def test_single_topic_is_identity(self):
        d = dataset_from_counts(Scale.TWO_POINT, {1: 3, -1: 2}, topic="only")
        assert topic_class_counts(d) == {"only": (2, 3)}
        tables, _ = confusion_tables(d, d)
        assert tables == {"only": ConfusionMatrix(Scale.TWO_POINT, ((2, 0), (0, 3)))}

    def test_no_topics_keyed_under_none(self):
        d = dataset_from_counts(Scale.THREE_POINT, {1: 1, -1: 2})
        assert topic_class_counts(d) == {None: (2, 0, 1)}
        assert topic_class_counts(Dataset.build(Scale.THREE_POINT, [])) == {}

    def test_group_counts_sum_to_total_after_align(self):
        gold = dataset_from_counts(Scale.TWO_POINT, {1: 4, -1: 3}, topic="a")
        gold2 = dataset_from_counts(Scale.TWO_POINT, {1: 2}, topic="b")
        merged = Dataset.build(Scale.TWO_POINT, rows(gold, gold2))
        tables, _ = confusion_tables(merged, constant_predictions(merged, 1))
        assert sum(t.total for t in tables.values()) == len(merged)
        pooled = tables["a"] + tables["b"]
        assert pooled.counts == ((0, 3), (0, 6))


@st.composite
def gold_and_pred(draw):
    """Gold and prediction datasets on one scale that share every gold
    (id, topic) key; the predictions may hold extra keys. Ids repeat across
    topics; the data is either topicless or spread over several topics."""
    scale = draw(st.sampled_from(list(Scale)))
    topics = draw(st.sampled_from([[None], ["a", "b", "c"]]))
    keys = st.tuples(st.sampled_from(["t1", "t2", "t3", "t4", "t5"]), st.sampled_from(topics))
    label = st.sampled_from(scale.classes)
    gold = draw(st.dictionaries(keys, label, min_size=1))
    extra = draw(st.dictionaries(keys.filter(lambda k: k not in gold), label))
    pred = [(k, draw(label)) for k in gold] + list(extra.items())
    pred = draw(st.permutations(pred))
    return (
        Dataset.build(scale, [(i, t, c) for (i, t), c in gold.items()]),
        Dataset.build(scale, [(i, t, c) for (i, t), c in pred]),
    )


class TestReferenceJoin:
    """confusion_tables and topic_class_counts against per-row references."""

    @given(gold_and_pred())
    def test_confusion_tables(self, data):
        gold, pred = data
        assert confusion_tables(gold, pred) == reference_join(gold, pred)

    @given(gold_and_pred())
    def test_topic_class_counts(self, data):
        gold, _ = data
        assert topic_class_counts(gold) == reference_class_counts(gold)


def label_fractions(labels, scale):
    """class_fractions of a one-topic dataset with the given labels."""
    d = Dataset.build(scale, [(f"t{i}", "x", label) for i, label in enumerate(labels)])
    return class_fractions(topic_class_counts(d)["x"])


class TestPrevalence:
    def test_symmetric(self):
        p = label_fractions([1, 1, -1, -1], Scale.TWO_POINT)
        assert p == (0.5, 0.5)

    def test_point_mass(self):
        p = label_fractions([0, 0, 0], Scale.FIVE_POINT)
        # classes -2, -1, 0, 1, 2
        assert p[2] == 1.0 and sum(p) == 1.0

    def test_published_test_set_shares(self):
        # class counts 2375 positive / 5937 neutral / 3972 negative
        labels = [1] * 2375 + [0] * 5937 + [-1] * 3972
        p = label_fractions(labels, Scale.THREE_POINT)
        negative, neutral, positive = p
        assert round(positive, 4) == 0.1933
        assert round(neutral, 4) == 0.4833
        assert round(negative, 4) == 0.3233

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            class_fractions((0, 0))

    def test_invalid_fractions_rejected(self):
        with pytest.raises(InvalidLabel):
            Prevalence(Scale.TWO_POINT, (0.6, 0.6))
        with pytest.raises(InvalidLabel):
            Prevalence(Scale.TWO_POINT, (-0.1, 1.1))
        with pytest.raises(InvalidLabel):
            Prevalence(Scale.TWO_POINT, (math.nan, math.nan))

    def test_off_sum_message_states_the_exact_sum(self):
        # a plain left-to-right sum of these values gives 0.9989999999999999
        with pytest.raises(InvalidLabel, match=r"sum to 0\.999, expected 1"):
            Prevalence(Scale.FIVE_POINT, (0.000, 0.259, 0.296, 0.148, 0.296))
        with pytest.raises(InvalidLabel, match=r"sum to inf, expected 1"):
            Prevalence(Scale.TWO_POINT, (1e308, 1e308))

    @given(st.lists(st.sampled_from([-1, 0, 1]), min_size=1, max_size=50),
           st.randoms())
    def test_permutation_invariant_and_sums_to_one(self, labels, rng):
        shuffled = labels[:]
        rng.shuffle(shuffled)
        p1 = label_fractions(labels, Scale.THREE_POINT)
        p2 = label_fractions(shuffled, Scale.THREE_POINT)
        assert p1 == p2
        assert abs(sum(p1) - 1.0) < 1e-12
