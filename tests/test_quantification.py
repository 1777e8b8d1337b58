import math
import sys

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

try:
    from scipy.optimize import linprog
except ImportError:
    linprog = None

from conftest import (reference_metrics, reference_smooth, topic_ae, topic_emd, topic_kld,
                      topic_metrics, topic_rae)
from topicsent.errors import EmptyInput, ScaleMismatch
from topicsent.model import Scale, class_fractions
from topicsent.quantification import column_metrics

# the eps of a 100-item topic, so a true distribution is written as counts out of 100
EPS = 0.005


def prev2(p_neg, p_pos):
    return (p_neg, p_pos)


def prev5(*fractions):
    return fractions


def gold_counts(k):
    """One topic's gold class counts over k classes, at least one item."""
    return st.lists(st.integers(0, 1000), min_size=k, max_size=k).filter(any)


class TestSmooth:
    """The smoothing of reference_measures, whose KLD and RAE column_metrics
    equals exactly (TestLeftFoldReference)."""

    def test_uniform_fixed_point(self):
        s = reference_smooth(prev2(0.5, 0.5), EPS)
        assert s == (0.5, 0.5)

    def test_point_mass(self):
        s = reference_smooth(prev2(1.0, 0.0), EPS)
        assert s[0] == pytest.approx(1.005 / 1.01)
        assert s[1] == pytest.approx(0.005 / 1.01)
        assert sum(s) == pytest.approx(1.0, abs=1e-12)

    def test_quarter(self):
        s = reference_smooth(prev2(0.25, 0.75), EPS)
        assert s[0] == pytest.approx(0.255 / 1.01)
        assert s[1] == pytest.approx(0.755 / 1.01)

    # Smoothing is strictly increasing in exact arithmetic. Rounding is
    # monotone, so the computed order never flips, but it can merge fractions
    # a few ulps apart (this example ties 0.01 and its successor); the strict
    # order and the argmax index are asserted where the gap exceeds that error.
    @example(raw=[1.0, 1.0, 1.0, 0.010000000000000002, 0.01])
    @given(st.lists(st.floats(0.01, 1.0), min_size=5, max_size=5))
    def test_preserves_order_and_argmax(self, raw):
        total = sum(raw)
        p = prev5(*(x / total for x in raw))
        s = reference_smooth(p, EPS)
        gap = 8 * sys.float_info.epsilon  # rounding error of (p + eps) / denom is < 2 ulps of 1
        for i in range(5):
            for j in range(5):
                if p[i] <= p[j]:
                    assert s[i] <= s[j]
                if p[j] - p[i] > gap:
                    assert s[i] < s[j]
        top = sorted(p)
        if top[-1] - top[-2] > gap:
            assert max(range(5), key=lambda i: p[i]) == max(range(5), key=lambda i: s[i])
        assert s[max(range(5), key=lambda i: p[i])] == max(s)
        assert abs(sum(s) - 1.0) < 1e-12
        assert all(f > 0 for f in s)


class TestKld:
    def test_identity_is_zero(self):
        assert topic_kld(prev2(0.3, 0.7), (30, 70)) == pytest.approx(0.0, abs=1e-15)

    def test_known_value(self):
        value = topic_kld(prev2(0.25, 0.75), (50, 50))
        assert value == pytest.approx(0.1405, abs=1e-4)

    def test_point_mass_stays_finite(self):
        value = topic_kld(prev2(0.0, 1.0), (100, 0))
        assert math.isfinite(value) and value > 0

    def test_scale_mismatch(self):
        with pytest.raises(ScaleMismatch):
            topic_kld(prev2(0.5, 0.5), (20, 20, 20, 20, 20))

    def test_empty_topic(self):
        with pytest.raises(EmptyInput):
            column_metrics(Scale.TWO_POINT, [(0.5, 0.5), (0.5, 0.5)], [(1, 0), (1, 0)])

    @given(gold_counts(5), gold_counts(5))
    def test_nonnegative(self, pred_counts, counts):
        assert topic_kld(class_fractions(pred_counts), counts) >= 0.0

    def test_near_equal_distributions_not_negative(self):
        # the unclamped sum is -1.9e-16 here
        pred = prev2(3000000001 / 7000000000, 3999999999 / 7000000000)
        assert topic_kld(pred, (3, 4)) == 0.0


class TestAe:
    def test_identity(self):
        assert topic_ae(prev2(0.4, 0.6), (40, 60)) == 0.0

    def test_hand_value(self):
        assert topic_ae(prev2(0.25, 0.75), (50, 50)) == pytest.approx(0.25)

    def test_opposite_point_masses(self):
        assert topic_ae(prev2(0.0, 1.0), (100, 0)) == pytest.approx(1.0)

    @given(gold_counts(5), gold_counts(5))
    def test_symmetric(self, a, b):
        assert topic_ae(class_fractions(a), b) == pytest.approx(topic_ae(class_fractions(b), a))


class TestRae:
    def test_identity(self):
        assert topic_rae(prev2(0.4, 0.6), (40, 60)) == 0.0

    def test_hand_value(self):
        value = topic_rae(prev2(0.25, 0.75), (50, 50))
        assert value == pytest.approx(0.4950495, abs=1e-6)

    def test_point_mass_vs_uniform(self):
        # oracle: smoothed values computed directly from the formula
        ps = reference_smooth(prev2(1.0, 0.0), EPS)
        qs = reference_smooth(prev2(0.5, 0.5), EPS)
        expected = sum(abs(q - p) / p for q, p in zip(qs, ps)) / 2
        assert topic_rae(prev2(0.5, 0.5), (100, 0)) == pytest.approx(expected)


class TestEmd:
    def test_identity(self):
        assert topic_emd(prev5(0.1, 0.2, 0.4, 0.2, 0.1), (10, 20, 40, 20, 10)) == 0.0

    def test_maximal_transport(self):
        lo = prev5(1, 0, 0, 0, 0)
        assert topic_emd(lo, (0, 0, 0, 0, 100)) == pytest.approx(4.0)

    def test_prefix_sum_oracle(self):
        pred = prev5(0.0, 0.3, 0.4, 0.3, 0.0)
        assert topic_emd(pred, (10, 20, 40, 20, 10)) == pytest.approx(0.2)

    @given(gold_counts(5), gold_counts(5), gold_counts(5))
    def test_symmetry_and_triangle(self, a, b, c):
        fa, fb = class_fractions(a), class_fractions(b)
        assert topic_emd(fa, b) == pytest.approx(topic_emd(fb, a), abs=1e-12)
        assert topic_emd(fa, c) <= topic_emd(fa, b) + topic_emd(fb, c) + 1e-12

    def test_reversal_invariance(self):
        p = (5, 15, 30, 40, 10)
        q = prev5(0.2, 0.1, 0.3, 0.1, 0.3)
        pr = tuple(reversed(p))
        qr = prev5(*reversed(q))
        assert topic_emd(q, p) == pytest.approx(topic_emd(qr, pr), abs=1e-12)
        assert topic_ae(q, p) == pytest.approx(topic_ae(qr, pr), abs=1e-12)

    @pytest.mark.skipif(linprog is None, reason="scipy not installed")
    @settings(max_examples=200)
    @given(gold_counts(5), gold_counts(5))
    def test_against_transport_oracle(self, counts, pred_counts):
        p, q = class_fractions(counts), class_fractions(pred_counts)
        # min-cost transport LP between the two 5-bin histograms
        cost = [abs(i - j) for i in range(5) for j in range(5)]
        a_eq = []
        for i in range(5):  # row sums = q (moved mass out of bin i)
            a_eq.append([1 if k // 5 == i else 0 for k in range(25)])
        for j in range(5):  # column sums = p
            a_eq.append([1 if k % 5 == j else 0 for k in range(25)])
        b_eq = list(q) + list(p)
        res = linprog(
            cost,
            A_eq=a_eq,
            b_eq=b_eq,
            method="highs",
            options={
                "presolve": False,
                "primal_feasibility_tolerance": 1e-10,
                "dual_feasibility_tolerance": 1e-10,
            },
        )
        # bins can be as small as ~1e-9, below HiGHS's default 1e-7
        # feasibility tolerance, and presolve then declares this feasible LP
        # infeasible; solve without presolve at a tolerance below the bins
        assert res.status == 0
        # LP solver feasibility tolerance dominates the residual here; the
        # exact greedy-transport cross-check lives in the acceptance suite
        assert topic_emd(q, counts) == pytest.approx(res.fun, abs=1e-7)


def dyadic_distributions(k):
    """Distributions over k classes in steps of 1/64: sums and differences of
    such fractions are exact in floats."""
    cuts = st.lists(st.integers(0, 64), min_size=k - 1, max_size=k - 1).map(sorted)
    return cuts.map(lambda c: tuple((b - a) / 64 for a, b in zip([0, *c], [*c, 64])))


# the class counts of a prediction and of gold
pairs_on_any_scale = st.sampled_from([2, 3, 5]).flatmap(
    lambda k: st.tuples(gold_counts(k), gold_counts(k))
)


class TestAxioms:
    """Properties of quantification error measures from Sebastiani 2020,
    "Evaluation measures for quantification: an axiomatic approach"."""

    @given(pairs_on_any_scale)
    def test_non_negativity(self, pair):
        pred, counts = class_fractions(pair[0]), pair[1]
        assert topic_kld(pred, counts) >= 0.0
        assert topic_ae(pred, counts) >= 0.0
        assert topic_rae(pred, counts) >= 0.0
        assert topic_emd(pred, counts) >= 0.0

    @given(pairs_on_any_scale)
    def test_identity_of_indiscernibles(self, pair):
        pred, counts = class_fractions(pair[0]), pair[1]
        for c in pair:
            p = class_fractions(c)
            assert (topic_kld(p, c) == topic_ae(p, c) == topic_rae(p, c)
                    == topic_emd(p, c) == 0.0)
        # beyond rounding, different distributions score above zero
        if max(abs(q - p) for q, p in zip(pred, class_fractions(counts))) > 1e-6:
            assert topic_kld(pred, counts) > 0.0
            assert topic_ae(pred, counts) > 0.0
            assert topic_rae(pred, counts) > 0.0
            assert topic_emd(pred, counts) > 0.0

    @given(st.integers(0, 64), st.integers(0, 64))
    def test_impartiality_of_ae_and_emd_on_two_classes(self, a, d):
        """Over- and underestimating a class by the same amount costs the same."""
        assume(d <= a <= 64 - d)
        counts = (a, 64 - a)
        over = ((a + d) / 64, (64 - a - d) / 64)
        under = ((a - d) / 64, (64 - a + d) / 64)
        assert topic_ae(over, counts) == topic_ae(under, counts)
        assert topic_emd(over, counts) == topic_emd(under, counts)

    @given(st.data())
    def test_emd_grows_with_transport_distance_from_a_point_mass(self, data):
        """Against a point-mass truth at class c, moving delta of predicted
        mass one class farther from c raises EMD by exactly delta."""
        c = data.draw(st.integers(0, 4))
        pred = data.draw(dyadic_distributions(5))
        counts = tuple(int(i == c) for i in range(5))
        # class i can move mass away from c to class j
        moves = [(i, j) for i in range(5) for j in (i - 1, i + 1)
                 if 0 <= j < 5 and abs(j - c) > abs(i - c) and pred[i] > 0]
        assume(moves)
        i, j = data.draw(st.sampled_from(moves))
        delta = data.draw(st.integers(1, round(pred[i] * 64))) / 64
        moved = list(pred)
        moved[i] -= delta
        moved[j] += delta
        assert topic_emd(tuple(moved), counts) == topic_emd(pred, counts) + delta


class TestLeftFoldReference:
    """Sums over classes are left folds, so no Python version's float sum
    can change a value."""

    # the EMD terms of this example sum to 0.9331550802139038 from the left
    # and to 0.9331550802139037 correctly rounded
    @example(pair=((0, 3, 8, 8, 3), (4, 6, 2, 2, 3)))
    @given(pairs_on_any_scale)
    def test_measures_equal_the_reference(self, pair):
        pred, counts = class_fractions(pair[0]), pair[1]
        for scale in (Scale.TWO_POINT, Scale.FIVE_POINT):
            assert topic_metrics(scale, pred, counts) == reference_metrics(scale, pred, counts)


class TestColumns:
    @given(st.data())
    def test_each_topic_scores_as_a_one_topic_call(self, data):
        """Scoring many topics in one call gives each topic the values of a
        one-topic call, whatever the other topics and their order."""
        k = data.draw(st.sampled_from([2, 3, 5]))
        topics = data.draw(st.lists(st.tuples(gold_counts(k), gold_counts(k)),
                                    min_size=1, max_size=8))
        preds = [class_fractions(pred_counts) for pred_counts, _ in topics]
        counts = [row for _, row in topics]
        for scale in (Scale.TWO_POINT, Scale.FIVE_POINT):
            values = column_metrics(scale, list(zip(*preds)), list(zip(*counts)))
            for j, (pred, row) in enumerate(zip(preds, counts)):
                assert {name: col[j] for name, col in values.items()} == topic_metrics(
                    scale, pred, row)
