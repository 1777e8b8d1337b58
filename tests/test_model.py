import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import dataset_from_counts
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
    LabeledItem,
    Prevalence,
    Scale,
    confusion_tables,
    prevalence_of,
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


class TestDataset:
    def test_duplicate_key_is_hard_error(self):
        items = [LabeledItem("t1", "x", 1), LabeledItem("t1", "x", -1)]
        with pytest.raises(DuplicateKey):
            Dataset.build(Scale.TWO_POINT, items)

    def test_same_id_different_topic_allowed(self):
        items = [LabeledItem("t1", "x", 1), LabeledItem("t1", "y", -1)]
        d = Dataset.build(Scale.TWO_POINT, items)
        assert len(d) == 2 and d.has_topics

    def test_mixed_topic_presence_rejected(self):
        items = [LabeledItem("t1", "x", 1), LabeledItem("t2", None, -1)]
        with pytest.raises(NoTopics):
            Dataset.build(Scale.TWO_POINT, items)

    def test_label_outside_scale_rejected(self):
        with pytest.raises(InvalidLabel):
            Dataset.build(Scale.TWO_POINT, [LabeledItem("t1", None, 0)])


class TestAlign:
    """Joining predictions onto gold by (id, topic) into confusion matrices."""

    def test_direct_pairing(self):
        gold = Dataset.build(
            Scale.TWO_POINT,
            [LabeledItem("t1", None, 1), LabeledItem("t2", None, -1)],
        )
        pred = Dataset.build(
            Scale.TWO_POINT,
            [LabeledItem("t1", None, 1), LabeledItem("t2", None, 1)],
        )
        tables, ignored = confusion_tables(gold, pred)
        assert list(tables) == [None] and ignored == 0
        # rows are gold -1, +1; columns predicted -1, +1
        assert tables[None].counts == ((0, 1), (0, 1))

    def test_missing_prediction(self):
        gold = Dataset.build(Scale.TWO_POINT, [LabeledItem("t1", None, 1)])
        pred = Dataset.build(Scale.TWO_POINT, [])
        with pytest.raises(MissingPrediction):
            confusion_tables(gold, pred)

    def test_extra_predictions_ignored_with_count(self):
        gold = Dataset.build(Scale.TWO_POINT, [LabeledItem("t1", None, 1)])
        pred = Dataset.build(
            Scale.TWO_POINT,
            [LabeledItem("t1", None, 1), LabeledItem("t9", None, -1)],
        )
        tables, ignored = confusion_tables(gold, pred)
        assert tables[None].total == 1
        assert ignored == 1

    def test_scale_mismatch(self):
        gold = Dataset.build(Scale.TWO_POINT, [LabeledItem("t1", None, 1)])
        pred = Dataset.build(Scale.THREE_POINT, [LabeledItem("t1", None, 1)])
        with pytest.raises(ScaleMismatch):
            confusion_tables(gold, pred)


class TestGroupByTopic:
    """Per-topic count tables: gold class counts and confusion matrices."""

    def test_partition(self):
        d = Dataset.build(
            Scale.TWO_POINT,
            [
                LabeledItem("t1", "a", 1),
                LabeledItem("t2", "a", -1),
                LabeledItem("t3", "b", 1),
            ],
        )
        assert topic_class_counts(d) == {"a": (1, 1), "b": (0, 1)}

    def test_keys_sorted(self):
        d = Dataset.build(
            Scale.TWO_POINT,
            [
                LabeledItem("t1", "b", 1),
                LabeledItem("t2", "a", 1),
                LabeledItem("t3", "b", -1),
                LabeledItem("t4", "a", -1),
            ],
        )
        assert list(topic_class_counts(d)) == ["a", "b"]
        assert list(confusion_tables(d, d)[0]) == ["a", "b"]

    def test_single_topic_is_identity(self):
        d = dataset_from_counts(Scale.TWO_POINT, {1: 3, -1: 2}, topic="only")
        assert topic_class_counts(d) == {"only": (2, 3)}
        tables, _ = confusion_tables(d, d)
        assert tables == {"only": ConfusionMatrix(Scale.TWO_POINT, ((2, 0), (0, 3)))}

    def test_no_topics_raises(self):
        d = dataset_from_counts(Scale.TWO_POINT, {1: 1})
        with pytest.raises(NoTopics):
            topic_class_counts(d)

    def test_group_counts_sum_to_total_after_align(self):
        from topicsent.baselines import constant_classifier

        gold = dataset_from_counts(Scale.TWO_POINT, {1: 4, -1: 3}, topic="a")
        gold2 = dataset_from_counts(Scale.TWO_POINT, {1: 2}, topic="b")
        merged = Dataset.build(Scale.TWO_POINT, gold.items + gold2.items)
        tables, _ = confusion_tables(merged, constant_classifier(merged, 1))
        assert sum(t.total for t in tables.values()) == len(merged)
        pooled = tables["a"] + tables["b"]
        assert pooled.counts == ((0, 3), (0, 6))


class TestPrevalence:
    def test_symmetric(self):
        p = prevalence_of([1, 1, -1, -1], Scale.TWO_POINT)
        assert p.as_dict() == {-1: 0.5, 1: 0.5}

    def test_point_mass(self):
        p = prevalence_of([0, 0, 0], Scale.FIVE_POINT)
        assert p[0] == 1.0 and sum(p.fractions) == 1.0

    def test_published_test_set_shares(self):
        # class counts 2375 positive / 5937 neutral / 3972 negative
        labels = [1] * 2375 + [0] * 5937 + [-1] * 3972
        p = prevalence_of(labels, Scale.THREE_POINT)
        assert round(p[1], 4) == 0.1933
        assert round(p[0], 4) == 0.4833
        assert round(p[-1], 4) == 0.3233

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            prevalence_of([], Scale.TWO_POINT)

    def test_invalid_fractions_rejected(self):
        with pytest.raises(InvalidLabel):
            Prevalence(Scale.TWO_POINT, (0.6, 0.6))
        with pytest.raises(InvalidLabel):
            Prevalence(Scale.TWO_POINT, (-0.1, 1.1))
        with pytest.raises(InvalidLabel):
            Prevalence(Scale.TWO_POINT, (math.nan, math.nan))

    @given(st.lists(st.sampled_from([-1, 0, 1]), min_size=1, max_size=50),
           st.randoms())
    def test_permutation_invariant_and_sums_to_one(self, labels, rng):
        shuffled = labels[:]
        rng.shuffle(shuffled)
        p1 = prevalence_of(labels, Scale.THREE_POINT)
        p2 = prevalence_of(shuffled, Scale.THREE_POINT)
        assert p1.fractions == p2.fractions
        assert abs(sum(p1.fractions) - 1.0) < 1e-12
