"""MAE^M and MAE^mu, the subtask C bundle of classification.table_metrics."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import constant_table, joined, left_fold, rows_from_counts, table
from topicsent.classification import table_metrics
from topicsent.errors import EmptyInput
from topicsent.model import Scale

EN_TEST_C = {2: 131, 1: 2332, 0: 6194, -1: 3545, -2: 177}
AR_TEST_C = {2: 13, 1: 1548, 0: 3343, -1: 1175, -2: 21}


def mae_macro(counts):
    return table_metrics(Scale.FIVE_POINT, counts)["mae_macro"]


def mae_micro(counts):
    return table_metrics(Scale.FIVE_POINT, counts)["mae_micro"]


def paired(gold_pred):
    return table(Scale.FIVE_POINT, gold_pred)


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
            mae_macro(paired([]))

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


classes = st.sampled_from([-2, -1, 0, 1, 2])


class TestProperties:
    @given(
        st.integers(min_value=1, max_value=8),
        st.data(),
    )
    def test_macro_equals_micro_on_balanced_gold(self, per_class, data):
        gold_pred = []
        for c in Scale.FIVE_POINT.classes:
            for _ in range(per_class):
                gold_pred.append((c, data.draw(classes)))
        pd = paired(gold_pred)
        assert mae_macro(pd) == pytest.approx(mae_micro(pd), abs=1e-12)

    @given(st.lists(st.tuples(classes, classes), min_size=1, max_size=80))
    def test_bounds_and_zero_iff_perfect(self, gold_pred):
        pd = paired(gold_pred)
        for value in (mae_macro(pd), mae_micro(pd)):
            assert 0.0 <= value <= 4.0
            perfect = all(g == p for g, p in gold_pred)
            assert (value == 0.0) == perfect
