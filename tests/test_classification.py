import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (constant_table, joined, left_fold, reference_f1, reference_recall,
                      reference_table_metrics, rows_from_counts, table)
from topicsent.classification import table_metrics
from topicsent.errors import EmptyInput
from topicsent.model import Scale

EN_TEST_A = {1: 2375, 0: 5937, -1: 3972}  # positive / neutral / negative
EN_TEST_C = {2: 131, 1: 2332, 0: 6194, -1: 3545, -2: 177}
AR_TEST_C = {2: 13, 1: 1548, 0: 3343, -1: 1175, -2: 21}


def avg_rec(scale, counts):
    return table_metrics(scale, counts)["avgrec"]


def accuracy(scale, counts):
    return table_metrics(scale, counts)["accuracy"]


def f1_pn(scale, counts):
    return table_metrics(scale, counts)["f1_pn"]


# MAE^M and MAE^mu, the subtask C bundle
def mae_macro(counts):
    return table_metrics(Scale.FIVE_POINT, counts)["mae_macro"]


def mae_micro(counts):
    return table_metrics(Scale.FIVE_POINT, counts)["mae_micro"]


@st.composite
def tables(draw):
    """A table on any scale with counts up to 10**6, some gold classes
    absent and some classes never predicted; possibly all zero."""
    scale = draw(st.sampled_from(list(Scale)))
    k = len(scale.classes)
    counts = st.one_of(st.just(0), st.integers(0, 9), st.integers(0, 10**6))
    cells = draw(st.lists(st.lists(counts, min_size=k, max_size=k), min_size=k, max_size=k))
    absent = draw(st.sets(st.integers(0, k - 1)))
    unpredicted = draw(st.sets(st.integers(0, k - 1)))
    return scale, tuple(
        tuple(0 if g in absent or p in unpredicted else n for p, n in enumerate(row))
        for g, row in enumerate(cells))


class TestTableMetrics:
    @given(tables())
    def test_equals_the_reference(self, scale_counts):
        scale, counts = scale_counts
        if not any(map(any, counts)):
            with pytest.raises(EmptyInput, match="^no gold/prediction pairs to score$"):
                table_metrics(scale, counts)
            return
        metrics = table_metrics(scale, counts)
        assert metrics == reference_table_metrics(scale, counts)
        assert list(metrics) == list(reference_table_metrics(scale, counts))

    @pytest.mark.parametrize("scale", list(Scale))
    def test_all_zero_table_raises(self, scale):
        k = len(scale.classes)
        with pytest.raises(EmptyInput, match="^no gold/prediction pairs to score$"):
            table_metrics(scale, ((0,) * k,) * k)

    def test_bundle_per_scale(self):
        for scale, pairs, names in [
            (Scale.TWO_POINT, [(1, 1)], ["avgrec", "f1_pn", "accuracy"]),
            (Scale.THREE_POINT, [(0, 1)], ["avgrec", "f1_pn", "accuracy"]),
            (Scale.FIVE_POINT, [(2, -2)], ["mae_macro", "mae_micro"]),
        ]:
            assert list(table_metrics(scale, table(scale, pairs))) == names


class TestClassRecall:
    def test_hand_enumeration(self):
        scale = Scale.TWO_POINT
        pd = table(scale, [(1, 1), (1, -1), (-1, -1)])
        assert reference_recall(scale, pd, 1) == 0.5
        assert reference_recall(scale, pd, -1) == 1.0
        assert avg_rec(scale, pd) == 0.75

    def test_perfect_predictions(self):
        pd = table(Scale.THREE_POINT, [(1, 1), (0, 0), (-1, -1)])
        for c in Scale.THREE_POINT.classes:
            assert reference_recall(Scale.THREE_POINT, pd, c) == 1.0

    def test_absent_class_is_undefined(self):
        scale = Scale.TWO_POINT
        pd = table(scale, [(1, 1), (1, -1)])
        assert reference_recall(scale, pd, -1) is None
        assert avg_rec(scale, pd) == reference_recall(scale, pd, 1) == 0.5


class TestAvgRec:
    def test_constant_prediction_one_third(self):
        gold = rows_from_counts(EN_TEST_A)
        scale = Scale.THREE_POINT
        for c in scale.classes:
            assert avg_rec(scale, constant_table(scale, gold, c)) == pytest.approx(1 / 3)

    def test_constant_prediction_two_point(self):
        gold = rows_from_counts({1: 7, -1: 3})
        pd = constant_table(Scale.TWO_POINT, gold, 1)
        assert avg_rec(Scale.TWO_POINT, pd) == pytest.approx(0.5)

    def test_perfect(self):
        gold = rows_from_counts({1: 2, 0: 2, -1: 2})
        pd = joined(Scale.THREE_POINT, gold)
        assert avg_rec(Scale.THREE_POINT, pd) == 1.0

    def test_empty_raises(self):
        with pytest.raises(EmptyInput):
            avg_rec(Scale.TWO_POINT, table(Scale.TWO_POINT, []))

    def test_mean_of_a_left_fold(self):
        cm = ((2, 9, 1), (4, 1, 7), (7, 7, 6))
        recalls = [2 / 12, 1 / 12, 6 / 20]
        # correctly rounded, the recalls sum to 0.5499999999999999
        assert left_fold(recalls) == 0.55 != math.fsum(recalls)
        assert avg_rec(Scale.THREE_POINT, cm) == 0.55 / 3


class TestAccuracy:
    def test_all_neutral_english_counts(self):
        gold = rows_from_counts(EN_TEST_A)
        pd = constant_table(Scale.THREE_POINT, gold, 0)
        assert accuracy(Scale.THREE_POINT, pd) == pytest.approx(5937 / 12284)

    def test_all_neutral_arabic_counts(self):
        gold = rows_from_counts({1: 1514, 0: 2364, -1: 2222})
        pd = constant_table(Scale.THREE_POINT, gold, 0)
        assert accuracy(Scale.THREE_POINT, pd) == pytest.approx(2364 / 6100)

    def test_perfect(self):
        gold = rows_from_counts({1: 2, 0: 2, -1: 2})
        assert accuracy(Scale.THREE_POINT, joined(Scale.THREE_POINT, gold)) == 1.0


class TestF1:
    def test_all_positive_f1_positive(self):
        gold = rows_from_counts(EN_TEST_A)
        pd = constant_table(Scale.THREE_POINT, gold, 1)
        prev = 2375 / 12284
        assert reference_f1(Scale.THREE_POINT, pd, 1) == pytest.approx(2 * prev / (1 + prev))
        assert f1_pn(Scale.THREE_POINT, pd) == reference_f1(Scale.THREE_POINT, pd, 1) / 2

    def test_all_positive_f1_negative_zero(self):
        gold = rows_from_counts(EN_TEST_A)
        pd = constant_table(Scale.THREE_POINT, gold, 1)
        assert reference_f1(Scale.THREE_POINT, pd, -1) == 0.0

    def test_perfect_per_class(self):
        gold = rows_from_counts({1: 2, 0: 2, -1: 2})
        pd = joined(Scale.THREE_POINT, gold)
        for c in Scale.THREE_POINT.classes:
            assert reference_f1(Scale.THREE_POINT, pd, c) == 1.0
        assert f1_pn(Scale.THREE_POINT, pd) == 1.0

    @pytest.mark.parametrize(
        "pred_class,expected", [(1, 0.162), (-1, 0.244), (0, 0.000)]
    )
    def test_f1_pn_constant_baselines(self, pred_class, expected):
        gold = rows_from_counts(EN_TEST_A)
        value = f1_pn(Scale.THREE_POINT, constant_table(Scale.THREE_POINT, gold, pred_class))
        assert round(value, 3) == expected


def _swap_pn(counts):
    # classes are -1, 0, +1: reversing both axes swaps Positive and Negative
    return tuple(row[::-1] for row in counts[::-1])


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
        assert avg_rec(Scale.THREE_POINT, pd) == pytest.approx(
            avg_rec(Scale.THREE_POINT, _swap_pn(pd)))

    def test_class_f1_counterexample(self):
        # single-class F1 depends on which class is called positive: swapping
        # the labels changes F1 of the positive class.
        pd = table(Scale.THREE_POINT, [(1, 1), (1, 1), (1, 1), (-1, 1)])
        assert (reference_f1(Scale.THREE_POINT, pd, 1)
                != pytest.approx(reference_f1(Scale.THREE_POINT, _swap_pn(pd), 1)))

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
        assert f1_pn(Scale.THREE_POINT, pd) == pytest.approx(
            f1_pn(Scale.THREE_POINT, _swap_pn(pd)))


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
        for c in Scale.THREE_POINT.classes:
            r = reference_recall(Scale.THREE_POINT, pd, c)
            if r is not None:
                support = sum(1 for g, _ in gold_pred if g == c)
                total += r * support / n
        assert total == pytest.approx(accuracy(Scale.THREE_POINT, pd))


class TestMaeMacro:
    @pytest.mark.parametrize(
        "const,expected", [(-2, 2.0), (-1, 1.4), (0, 1.2), (1, 1.4), (2, 2.0)]
    )
    def test_constant_all_classes_present(self, const, expected):
        gold = rows_from_counts(EN_TEST_C)
        assert mae_macro(constant_table(Scale.FIVE_POINT, gold, const)) == pytest.approx(expected)

    def test_perfect(self):
        gold = rows_from_counts({c: 2 for c in range(-2, 3)})
        assert mae_macro(joined(Scale.FIVE_POINT, gold)) == 0.0

    def test_empty_raises(self):
        with pytest.raises(EmptyInput):
            mae_macro(table(Scale.FIVE_POINT, []))

    def test_mean_of_a_left_fold(self):
        rows = ((4, 5, 0, 1, 5), (5, 6, 2, 0, 5), (2, 5, 5, 4, 3), (4, 6, 5, 1, 2), (2, 4, 3, 6, 4))
        classes = Scale.FIVE_POINT.classes
        per_class = [sum(n * abs(p - g) for p, n in zip(classes, row)) / sum(row)
                     for g, row in zip(classes, rows)]
        assert left_fold(per_class) / 5 != math.fsum(per_class) / 5
        assert mae_macro(rows) == left_fold(per_class) / 5


class TestMaeMicro:
    def test_constant_neutral_english_counts(self):
        gold = rows_from_counts(EN_TEST_C)
        assert mae_micro(constant_table(Scale.FIVE_POINT, gold, 0)) == pytest.approx(6493 / 12379)

    def test_constant_minus_two_arabic_counts(self):
        gold = rows_from_counts(AR_TEST_C)
        assert mae_micro(constant_table(Scale.FIVE_POINT, gold, -2)) == pytest.approx(12557 / 6100)

    def test_constant_plus_one_english_counts(self):
        gold = rows_from_counts(EN_TEST_C)
        assert mae_micro(constant_table(Scale.FIVE_POINT, gold, 1)) == pytest.approx(13946 / 12379)


five_point = st.sampled_from(Scale.FIVE_POINT.classes)


class TestMaeMacroAndMicro:
    @given(
        st.integers(min_value=1, max_value=8),
        st.data(),
    )
    def test_macro_equals_micro_on_balanced_gold(self, per_class, data):
        gold_pred = []
        for c in Scale.FIVE_POINT.classes:
            for _ in range(per_class):
                gold_pred.append((c, data.draw(five_point)))
        pd = table(Scale.FIVE_POINT, gold_pred)
        assert mae_macro(pd) == pytest.approx(mae_micro(pd), abs=1e-12)

    @given(st.lists(st.tuples(five_point, five_point), min_size=1, max_size=80))
    def test_bounds_and_zero_iff_perfect(self, gold_pred):
        pd = table(Scale.FIVE_POINT, gold_pred)
        for value in (mae_macro(pd), mae_micro(pd)):
            assert 0.0 <= value <= 4.0
            perfect = all(g == p for g, p in gold_pred)
            assert (value == 0.0) == perfect
