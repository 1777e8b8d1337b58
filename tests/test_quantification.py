import math
import sys
from itertools import accumulate

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

try:
    from scipy.optimize import linprog
except ImportError:
    linprog = None

from conftest import left_fold
from topicsent.errors import ScaleMismatch
from topicsent.quantification import ae, emd, kld, rae, smooth

EPS = 0.005  # test size 100


def prev2(p_neg, p_pos):
    return (p_neg, p_pos)


def prev5(*fractions):
    return fractions


def random_prev5(rng):
    raw = [rng.random() + 1e-9 for _ in range(5)]
    total = sum(raw)
    return prev5(*(x / total for x in raw))


class TestSmooth:
    def test_uniform_fixed_point(self):
        s = smooth(prev2(0.5, 0.5), EPS)
        assert s == (0.5, 0.5)

    def test_point_mass(self):
        s = smooth(prev2(1.0, 0.0), EPS)
        assert s[0] == pytest.approx(1.005 / 1.01)
        assert s[1] == pytest.approx(0.005 / 1.01)
        assert sum(s) == pytest.approx(1.0, abs=1e-12)

    def test_quarter(self):
        s = smooth(prev2(0.25, 0.75), EPS)
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
        s = smooth(p, EPS)
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
        p = prev2(0.3, 0.7)
        assert kld(p, p, EPS) == pytest.approx(0.0, abs=1e-15)

    def test_known_value(self):
        value = kld(prev2(0.25, 0.75), prev2(0.5, 0.5), EPS)
        assert value == pytest.approx(0.1405, abs=1e-4)

    def test_point_mass_stays_finite(self):
        value = kld(prev2(0.0, 1.0), prev2(1.0, 0.0), EPS)
        assert math.isfinite(value) and value > 0

    def test_scale_mismatch(self):
        with pytest.raises(ScaleMismatch):
            kld(prev2(0.5, 0.5), prev5(0.2, 0.2, 0.2, 0.2, 0.2), EPS)

    @given(st.randoms(use_true_random=False))
    def test_nonnegative(self, rng):
        p, q = random_prev5(rng), random_prev5(rng)
        assert kld(q, p, EPS) >= 0.0

    def test_near_equal_distributions_not_negative(self):
        # the unclamped sum is -9.2e-17 here
        pred = prev5(0.33333333303703705, 4.4444444345679015e-10, 0.33333333303703705,
                     0.33333333303703705, 4.4444444345679015e-10)
        true_p = prev5(0.3333333328888889, 6.666666644444445e-10, 0.3333333328888889,
                       0.3333333328888889, 6.666666644444445e-10)
        assert kld(pred, true_p, EPS) == 0.0


class TestAe:
    def test_identity(self):
        p = prev2(0.4, 0.6)
        assert ae(p, p) == 0.0

    def test_hand_value(self):
        assert ae(prev2(0.25, 0.75), prev2(0.5, 0.5)) == pytest.approx(0.25)

    def test_opposite_point_masses(self):
        assert ae(prev2(0.0, 1.0), prev2(1.0, 0.0)) == pytest.approx(1.0)

    @given(st.randoms(use_true_random=False))
    def test_symmetric(self, rng):
        p, q = random_prev5(rng), random_prev5(rng)
        assert ae(p, q) == pytest.approx(ae(q, p))


class TestRae:
    def test_identity(self):
        p = prev2(0.4, 0.6)
        assert rae(p, p, EPS) == 0.0

    def test_hand_value(self):
        value = rae(prev2(0.25, 0.75), prev2(0.5, 0.5), EPS)
        assert value == pytest.approx(0.4950495, abs=1e-6)

    def test_point_mass_vs_uniform(self):
        # oracle: smoothed values computed directly from the formula
        ps = smooth(prev2(1.0, 0.0), EPS)
        qs = smooth(prev2(0.5, 0.5), EPS)
        expected = sum(abs(q - p) / p for q, p in zip(qs, ps)) / 2
        assert rae(prev2(0.5, 0.5), prev2(1.0, 0.0), EPS) == pytest.approx(expected)


class TestEmd:
    def test_identity(self):
        p = prev5(0.1, 0.2, 0.4, 0.2, 0.1)
        assert emd(p, p) == 0.0

    def test_maximal_transport(self):
        lo = prev5(1, 0, 0, 0, 0)
        hi = prev5(0, 0, 0, 0, 1)
        assert emd(lo, hi) == pytest.approx(4.0)

    def test_prefix_sum_oracle(self):
        true_p = prev5(0.1, 0.2, 0.4, 0.2, 0.1)
        pred = prev5(0.0, 0.3, 0.4, 0.3, 0.0)
        assert emd(pred, true_p) == pytest.approx(0.2)

    @given(st.randoms(use_true_random=False))
    def test_symmetry_and_triangle(self, rng):
        a, b, c = (random_prev5(rng) for _ in range(3))
        assert emd(a, b) == pytest.approx(emd(b, a), abs=1e-12)
        assert emd(a, c) <= emd(a, b) + emd(b, c) + 1e-12

    def test_reversal_invariance(self):
        p = prev5(0.05, 0.15, 0.3, 0.4, 0.1)
        q = prev5(0.2, 0.1, 0.3, 0.1, 0.3)
        pr = prev5(*reversed(p))
        qr = prev5(*reversed(q))
        assert emd(q, p) == pytest.approx(emd(qr, pr), abs=1e-12)
        assert ae(q, p) == pytest.approx(ae(qr, pr), abs=1e-12)

    @pytest.mark.skipif(linprog is None, reason="scipy not installed")
    @settings(max_examples=200)
    @given(st.randoms(use_true_random=False))
    def test_against_transport_oracle(self, rng):
        p, q = random_prev5(rng), random_prev5(rng)
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
        assert emd(q, p) == pytest.approx(res.fun, abs=1e-7)


def distributions(k):
    """Random distributions over k classes."""
    weights = st.lists(st.floats(0, 1), min_size=k, max_size=k).filter(lambda w: sum(w) > 0)
    return weights.map(lambda w: tuple(x / sum(w) for x in w))


def dyadic_distributions(k):
    """Distributions over k classes in steps of 1/64: sums and differences of
    such fractions are exact in floats."""
    cuts = st.lists(st.integers(0, 64), min_size=k - 1, max_size=k - 1).map(sorted)
    return cuts.map(lambda c: tuple((b - a) / 64 for a, b in zip([0, *c], [*c, 64])))


pairs_on_any_scale = st.sampled_from([2, 3, 5]).flatmap(
    lambda k: st.tuples(distributions(k), distributions(k))
)


class TestAxioms:
    """Properties of quantification error measures from Sebastiani 2020,
    "Evaluation measures for quantification: an axiomatic approach"."""

    @given(pairs_on_any_scale)
    def test_non_negativity(self, pair):
        pred, true_p = pair
        assert kld(pred, true_p, EPS) >= 0.0
        assert ae(pred, true_p) >= 0.0
        assert rae(pred, true_p, EPS) >= 0.0
        assert emd(pred, true_p) >= 0.0

    @given(pairs_on_any_scale)
    def test_identity_of_indiscernibles(self, pair):
        pred, true_p = pair
        for p in pair:
            assert kld(p, p, EPS) == ae(p, p) == rae(p, p, EPS) == emd(p, p) == 0.0
        # beyond rounding, different distributions score above zero
        if max(abs(q - p) for q, p in zip(pred, true_p)) > 1e-6:
            assert kld(pred, true_p, EPS) > 0.0
            assert ae(pred, true_p) > 0.0
            assert rae(pred, true_p, EPS) > 0.0
            assert emd(pred, true_p) > 0.0

    @given(st.integers(0, 64), st.integers(0, 64))
    def test_impartiality_of_ae_and_emd_on_two_classes(self, a, d):
        """Over- and underestimating a class by the same amount costs the same."""
        assume(d <= a <= 64 - d)
        true_p = (a / 64, (64 - a) / 64)
        over = ((a + d) / 64, (64 - a - d) / 64)
        under = ((a - d) / 64, (64 - a + d) / 64)
        assert ae(over, true_p) == ae(under, true_p)
        assert emd(over, true_p) == emd(under, true_p)

    @given(st.data())
    def test_emd_grows_with_transport_distance_from_a_point_mass(self, data):
        """Against a point-mass truth at class c, moving delta of predicted
        mass one class farther from c raises EMD by exactly delta."""
        c = data.draw(st.integers(0, 4))
        pred = data.draw(dyadic_distributions(5))
        true_p = tuple(1.0 if i == c else 0.0 for i in range(5))
        # class i can move mass away from c to class j
        moves = [(i, j) for i in range(5) for j in (i - 1, i + 1)
                 if 0 <= j < 5 and abs(j - c) > abs(i - c) and pred[i] > 0]
        assume(moves)
        i, j = data.draw(st.sampled_from(moves))
        delta = data.draw(st.integers(1, round(pred[i] * 64))) / 64
        moved = list(pred)
        moved[i] -= delta
        moved[j] += delta
        assert emd(tuple(moved), true_p) == emd(pred, true_p) + delta


def reference_measures(pred, true_p, eps):
    """The measures' formulas with every sum over classes an explicit left fold."""
    k = len(pred)
    ps = [(f + eps) / (1.0 + eps * k) for f in pred]
    ts = [(f + eps) / (1.0 + eps * k) for f in true_p]
    cum = [abs(q - p) for q, p in zip(accumulate(pred), accumulate(true_p))]
    return {
        "kld": max(0.0, left_fold([p * math.log(p / q) for q, p in zip(ps, ts)])),
        "ae": left_fold([abs(q - p) for q, p in zip(pred, true_p)]) / k,
        "rae": left_fold([abs(q - p) / p for q, p in zip(ps, ts)]) / k,
        "emd": left_fold(cum[:-1]),
    }


class TestLeftFoldReference:
    """Sums over classes are left folds, so no Python version's float sum
    can change a value."""

    # the EMD terms of this example sum to 0.9331550802139038 from the left
    # and to 0.9331550802139037 correctly rounded
    @example(pair=(tuple(c / 22 for c in (0, 3, 8, 8, 3)), tuple(c / 17 for c in (4, 6, 2, 2, 3))))
    @given(pairs_on_any_scale)
    def test_measures_equal_the_reference(self, pair):
        pred, true_p = pair
        measured = {"kld": kld(pred, true_p, EPS), "ae": ae(pred, true_p),
                    "rae": rae(pred, true_p, EPS), "emd": emd(pred, true_p)}
        assert measured == reference_measures(pred, true_p, EPS)
