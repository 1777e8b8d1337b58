import pytest

from conftest import constant_table, dataset_from_counts
from topicsent.baselines import (
    Averaging,
    constant_classifier,
    constant_quantifier,
    ml_quantifier,
    point_mass,
)
from topicsent.classification import avg_rec
from topicsent.errors import EmptyInput, NoTopics, ScaleMismatch
from topicsent.model import Dataset, LabeledItem, Scale, prevalence_of
from topicsent.quantification import SmoothingConfig, emd, kld


class TestConstantClassifier:
    def test_predicts_one_label_everywhere(self):
        gold = dataset_from_counts(Scale.THREE_POINT, {1: 3, 0: 2, -1: 1})
        pred = constant_classifier(gold, 0)
        assert len(pred) == len(gold)
        assert all(it.label == 0 for it in pred.items)

    def test_rejects_out_of_scale_class(self):
        gold = dataset_from_counts(Scale.TWO_POINT, {1: 1})
        with pytest.raises(ScaleMismatch):
            constant_classifier(gold, 2)

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
    def test_same_prevalence_everywhere(self):
        p = point_mass(Scale.TWO_POINT, 1)
        out = constant_quantifier(["a", "b", "c"], p)
        assert set(out) == {"a", "b", "c"}
        assert all(v is p for v in out.values())

    def test_point_mass_five_point(self):
        p = point_mass(Scale.FIVE_POINT, 1)
        assert p.fractions == (0.0, 0.0, 0.0, 1.0, 0.0)

    def test_perfect_quantifier_scores_zero(self):
        p = point_mass(Scale.FIVE_POINT, 0)
        assert emd(p, p) == 0.0
        assert kld(p, p, SmoothingConfig(0.005)) == pytest.approx(0.0, abs=1e-15)


class TestMlQuantifier:
    def test_single_topic_micro_equals_macro(self):
        train = dataset_from_counts(Scale.TWO_POINT, {1: 7, -1: 3}, topic="only")
        micro = ml_quantifier(train, Averaging.MICRO)
        macro = ml_quantifier(train, Averaging.MACRO)
        assert micro.fractions == pytest.approx(macro.fractions)

    def test_micro_vs_macro_hand_computation(self):
        a = dataset_from_counts(Scale.TWO_POINT, {-1: 10}, topic="a")
        b = dataset_from_counts(Scale.TWO_POINT, {1: 90}, topic="b")
        train = Dataset.build(Scale.TWO_POINT, a.items + b.items)
        assert ml_quantifier(train, Averaging.MACRO).fractions == pytest.approx((0.5, 0.5))
        assert ml_quantifier(train, Averaging.MICRO).fractions == pytest.approx((0.1, 0.9))

    def test_published_training_counts(self):
        train = dataset_from_counts(Scale.TWO_POINT, {1: 885, -1: 771}, topic="x")
        p = ml_quantifier(train, Averaging.MICRO)
        assert round(p[1], 4) == 0.5344
        assert round(p[-1], 4) == 0.4656

    def test_micro_equals_pooled_prevalence(self):
        a = dataset_from_counts(Scale.TWO_POINT, {1: 3, -1: 4}, topic="a")
        b = dataset_from_counts(Scale.TWO_POINT, {1: 6}, topic="b")
        train = Dataset.build(Scale.TWO_POINT, a.items + b.items)
        assert ml_quantifier(train, Averaging.MICRO).fractions == prevalence_of(
            train.labels(), train.scale
        ).fractions

    def test_errors(self):
        with pytest.raises(EmptyInput):
            ml_quantifier(Dataset.build(Scale.TWO_POINT, []), Averaging.MICRO)
        no_topics = dataset_from_counts(Scale.TWO_POINT, {1: 2, -1: 2})
        with pytest.raises(NoTopics):
            ml_quantifier(no_topics, Averaging.MACRO)

    def test_macro_sums_to_one(self):
        a = dataset_from_counts(Scale.FIVE_POINT, {0: 3, 1: 4}, topic="a")
        b = dataset_from_counts(Scale.FIVE_POINT, {-2: 1, 2: 6}, topic="b")
        train = Dataset.build(Scale.FIVE_POINT, a.items + b.items)
        p = ml_quantifier(train, Averaging.MACRO)
        assert sum(p.fractions) == pytest.approx(1.0, abs=1e-12)
