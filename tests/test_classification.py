import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import constant_table, dataset_from_counts, joined, table
from topicsent.classification import (
    accuracy,
    avg_rec,
    class_f1,
    class_recall,
    f1_pn,
)
from topicsent.errors import EmptyInput
from topicsent.model import ConfusionMatrix, Scale

EN_TEST_A = {1: 2375, 0: 5937, -1: 3972}  # positive / neutral / negative


class TestClassRecall:
    def test_hand_enumeration(self):
        pd = table(Scale.TWO_POINT, [(1, 1), (1, -1), (-1, -1)])
        assert class_recall(pd, 1) == 0.5
        assert class_recall(pd, -1) == 1.0

    def test_perfect_predictions(self):
        pd = table(Scale.THREE_POINT, [(1, 1), (0, 0), (-1, -1)])
        for c in Scale.THREE_POINT.classes:
            assert class_recall(pd, c) == 1.0

    def test_absent_class_is_undefined(self):
        pd = table(Scale.TWO_POINT, [(1, 1), (1, -1)])
        assert class_recall(pd, -1) is None


class TestAvgRec:
    def test_constant_prediction_one_third(self):
        gold = dataset_from_counts(Scale.THREE_POINT, EN_TEST_A)
        for c in Scale.THREE_POINT.classes:
            assert avg_rec(constant_table(gold, c)) == pytest.approx(1 / 3)

    def test_constant_prediction_two_point(self):
        gold = dataset_from_counts(Scale.TWO_POINT, {1: 7, -1: 3})
        assert avg_rec(constant_table(gold, 1)) == pytest.approx(0.5)

    def test_perfect(self):
        gold = dataset_from_counts(Scale.THREE_POINT, {1: 2, 0: 2, -1: 2})
        pd = joined(gold, gold)
        assert avg_rec(pd) == 1.0

    def test_empty_raises(self):
        with pytest.raises(EmptyInput):
            avg_rec(table(Scale.TWO_POINT, []))


class TestAccuracy:
    def test_all_neutral_english_counts(self):
        gold = dataset_from_counts(Scale.THREE_POINT, EN_TEST_A)
        assert accuracy(constant_table(gold, 0)) == pytest.approx(5937 / 12284)

    def test_all_neutral_arabic_counts(self):
        gold = dataset_from_counts(Scale.THREE_POINT, {1: 1514, 0: 2364, -1: 2222})
        assert accuracy(constant_table(gold, 0)) == pytest.approx(2364 / 6100)

    def test_perfect(self):
        gold = dataset_from_counts(Scale.THREE_POINT, {1: 2, 0: 2, -1: 2})
        assert accuracy(joined(gold, gold)) == 1.0


class TestF1:
    def test_all_positive_f1_positive(self):
        gold = dataset_from_counts(Scale.THREE_POINT, EN_TEST_A)
        pd = constant_table(gold, 1)
        prev = 2375 / 12284
        assert class_f1(pd, 1) == pytest.approx(2 * prev / (1 + prev))

    def test_all_positive_f1_negative_zero(self):
        gold = dataset_from_counts(Scale.THREE_POINT, EN_TEST_A)
        assert class_f1(constant_table(gold, 1), -1) == 0.0

    def test_perfect_per_class(self):
        gold = dataset_from_counts(Scale.THREE_POINT, {1: 2, 0: 2, -1: 2})
        pd = joined(gold, gold)
        for c in Scale.THREE_POINT.classes:
            assert class_f1(pd, c) == 1.0

    @pytest.mark.parametrize(
        "pred_class,expected", [(1, 0.162), (-1, 0.244), (0, 0.000)]
    )
    def test_f1_pn_constant_baselines(self, pred_class, expected):
        gold = dataset_from_counts(Scale.THREE_POINT, EN_TEST_A)
        value = f1_pn(constant_table(gold, pred_class))
        assert round(value, 3) == expected


def _swap_pn(cm):
    # classes are -1, 0, +1: reversing both axes swaps Positive and Negative
    return ConfusionMatrix(cm.scale, tuple(row[::-1] for row in cm.counts[::-1]))


class TestLabelSwapInvariance:
    @given(
        st.lists(
            st.tuples(st.sampled_from([-1, 0, 1]), st.sampled_from([-1, 0, 1])),
            min_size=4,
            max_size=60,
        ).filter(lambda gp: {1, -1} <= {g for g, _ in gp})
    )
    def test_avg_rec_invariant(self, gold_pred):
        pd = table(Scale.THREE_POINT, gold_pred)
        assert avg_rec(pd) == pytest.approx(avg_rec(_swap_pn(pd)))

    def test_class_f1_counterexample(self):
        # single-class F1 depends on which class is called positive: swapping
        # the labels changes F1 of the positive class.
        pd = table(Scale.THREE_POINT, [(1, 1), (1, 1), (1, 1), (-1, 1)])
        assert class_f1(pd, 1) != pytest.approx(class_f1(_swap_pn(pd), 1))

    @given(
        st.lists(
            st.tuples(st.sampled_from([-1, 0, 1]), st.sampled_from([-1, 0, 1])),
            min_size=1,
            max_size=60,
        )
    )
    def test_f1_pn_invariant_under_joint_swap(self, gold_pred):
        # swapping both gold and predictions exchanges F1(P) and F1(N), so
        # their mean cannot change
        pd = table(Scale.THREE_POINT, gold_pred)
        assert f1_pn(pd) == pytest.approx(f1_pn(_swap_pn(pd)))


class TestMicroRecallEqualsAccuracy:
    @given(
        st.lists(
            st.tuples(st.sampled_from([-1, 0, 1]), st.sampled_from([-1, 0, 1])),
            min_size=1,
            max_size=60,
        )
    )
    def test_support_weighted_recall_is_accuracy(self, gold_pred):
        pd = table(Scale.THREE_POINT, gold_pred)
        n = len(gold_pred)
        total = 0.0
        for c in pd.scale.classes:
            r = class_recall(pd, c)
            if r is not None:
                support = sum(1 for g, _ in gold_pred if g == c)
                total += r * support / n
        assert total == pytest.approx(accuracy(pd))
