import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import constant_predictions, constant_table, dataset_from_counts, rows
from topicsent.baselines import Averaging, constant_classifier, ml_quantifier, point_mass
from topicsent.classification import avg_rec
from topicsent.errors import EmptyInput, NoTopics, ScaleMismatch
from topicsent.model import Dataset, Scale, class_fractions, confusion_tables, topic_class_counts
from topicsent.quantification import emd, kld


@st.composite
def gold_sets(draw):
    """A gold dataset on any scale, topicless or over several topics, and
    possibly empty."""
    scale = draw(st.sampled_from(list(Scale)))
    topic = st.sampled_from(draw(st.sampled_from([[None], ["a", "b", "c"]])))
    keys = st.tuples(st.sampled_from(["t1", "t2", "t3", "t4", "t5", "t6"]), topic)
    gold = draw(st.dictionaries(keys, st.sampled_from(scale.classes)))
    return Dataset.build(scale, [(i, t, c) for (i, t), c in gold.items()])


class TestConstantClassifier:
    def test_predicts_one_label_everywhere(self):
        gold = dataset_from_counts(Scale.THREE_POINT, {1: 3, 0: 2, -1: 1}, topic="x")
        tables = constant_classifier(Scale.THREE_POINT, topic_class_counts(gold), 0)
        assert list(tables) == ["x"]
        assert tables["x"].counts == ((0, 1, 0), (0, 2, 0), (0, 3, 0))

    def test_rejects_out_of_scale_class(self):
        with pytest.raises(ScaleMismatch):
            constant_classifier(Scale.TWO_POINT, {None: (0, 1)}, 2)

    @given(gold_sets())
    def test_equals_join_with_per_row_predictions(self, gold):
        counts = topic_class_counts(gold)
        for c in gold.scale.classes:
            tables = constant_classifier(gold.scale, counts, c)
            assert tables == confusion_tables(gold, constant_predictions(gold, c))[0]

    def test_avg_rec_is_one_over_k(self):
        for scale, counts in [
            (Scale.TWO_POINT, {1: 5, -1: 9}),
            (Scale.THREE_POINT, {1: 5, 0: 2, -1: 9}),
            (Scale.FIVE_POINT, {c: 3 for c in range(-2, 3)}),
        ]:
            gold = dataset_from_counts(scale, counts)
            for c in scale.classes:
                assert avg_rec(constant_table(gold, c)) == pytest.approx(1 / len(scale.classes))


class TestConstantQuantifier:
    def test_point_mass_five_point(self):
        p = point_mass(Scale.FIVE_POINT, 1)
        assert p.fractions == (0.0, 0.0, 0.0, 1.0, 0.0)

    def test_perfect_quantifier_scores_zero(self):
        p = point_mass(Scale.FIVE_POINT, 0).fractions
        assert emd(p, p) == 0.0
        assert kld(p, p, 0.005) == pytest.approx(0.0, abs=1e-15)


class TestMlQuantifier:
    def test_single_topic_micro_equals_macro(self):
        train = dataset_from_counts(Scale.TWO_POINT, {1: 7, -1: 3}, topic="only")
        micro = ml_quantifier(train, Averaging.MICRO)
        macro = ml_quantifier(train, Averaging.MACRO)
        assert micro.fractions == pytest.approx(macro.fractions)

    def test_micro_vs_macro_hand_computation(self):
        a = dataset_from_counts(Scale.TWO_POINT, {-1: 10}, topic="a")
        b = dataset_from_counts(Scale.TWO_POINT, {1: 90}, topic="b")
        train = Dataset.build(Scale.TWO_POINT, rows(a, b))
        assert ml_quantifier(train, Averaging.MACRO).fractions == pytest.approx((0.5, 0.5))
        assert ml_quantifier(train, Averaging.MICRO).fractions == pytest.approx((0.1, 0.9))

    def test_published_training_counts(self):
        train = dataset_from_counts(Scale.TWO_POINT, {1: 885, -1: 771}, topic="x")
        p = ml_quantifier(train, Averaging.MICRO)
        negative, positive = p.fractions
        assert round(positive, 4) == 0.5344
        assert round(negative, 4) == 0.4656

    def test_micro_equals_pooled_prevalence(self):
        a = dataset_from_counts(Scale.TWO_POINT, {1: 3, -1: 4}, topic="a")
        b = dataset_from_counts(Scale.TWO_POINT, {1: 6}, topic="b")
        train = Dataset.build(Scale.TWO_POINT, rows(a, b))
        totals = [sum(col) for col in zip(*topic_class_counts(train).values())]
        assert ml_quantifier(train, Averaging.MICRO).fractions == class_fractions(totals)

    def test_micro_needs_no_topics(self):
        train = dataset_from_counts(Scale.TWO_POINT, {1: 3, -1: 1})
        assert ml_quantifier(train, Averaging.MICRO).fractions == (0.25, 0.75)

    def test_errors(self):
        with pytest.raises(EmptyInput):
            ml_quantifier(Dataset.build(Scale.TWO_POINT, []), Averaging.MICRO)
        no_topics = dataset_from_counts(Scale.TWO_POINT, {1: 2, -1: 2})
        with pytest.raises(NoTopics):
            ml_quantifier(no_topics, Averaging.MACRO)

    def test_macro_sums_to_one(self):
        a = dataset_from_counts(Scale.FIVE_POINT, {0: 3, 1: 4}, topic="a")
        b = dataset_from_counts(Scale.FIVE_POINT, {-2: 1, 2: 6}, topic="b")
        train = Dataset.build(Scale.FIVE_POINT, rows(a, b))
        p = ml_quantifier(train, Averaging.MACRO)
        assert sum(p.fractions) == pytest.approx(1.0, abs=1e-12)
