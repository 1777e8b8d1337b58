"""Distribution-error measures for quantification: additive smoothing,
Kullback-Leibler divergence (natural log), absolute error, relative absolute
error, and Earth Mover's Distance for totally ordered classes.

KLD and RAE operate on smoothed distributions so that point masses stay
finite. EMD assumes unit distance between adjacent classes, in which case it
is the L1 distance between the cumulative distributions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate

from .errors import ScaleMismatch
from .model import Prevalence


@dataclass(frozen=True)
class SmoothingConfig:
    epsilon: float

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ValueError("smoothing epsilon must be positive")

    @classmethod
    def for_test_size(cls, n_test: int) -> "SmoothingConfig":
        """The conventional epsilon = 1 / (2 * |test set|)."""
        return cls(1.0 / (2 * n_test))


def _check_scales(pred: Prevalence, true_p: Prevalence) -> None:
    if pred.scale is not true_p.scale:
        raise ScaleMismatch(
            f"prevalence scales differ: {pred.scale.name} vs {true_p.scale.name}"
        )


def smooth(p: Prevalence, cfg: SmoothingConfig) -> Prevalence:
    """Additive smoothing: (p(c) + eps) / (1 + eps * |C|). Keeps the sum at 1
    and makes every class strictly positive."""
    k = len(p.fractions)
    denom = 1.0 + cfg.epsilon * k
    return Prevalence(p.scale, tuple((f + cfg.epsilon) / denom for f in p.fractions))


def kld(pred: Prevalence, true_p: Prevalence, cfg: SmoothingConfig) -> float:
    """Sum of p(c) * ln(p(c) / p_hat(c)) over smoothed distributions."""
    _check_scales(pred, true_p)
    ps = smooth(true_p, cfg).fractions
    qs = smooth(pred, cfg).fractions
    # smoothed fractions need not sum to exactly 1 in floats, which can push
    # the sum of two near-equal distributions a few ulps below zero
    return max(0.0, sum(p * math.log(p / q) for p, q in zip(ps, qs)))


def ae(pred: Prevalence, true_p: Prevalence) -> float:
    """Mean absolute difference of class prevalences."""
    _check_scales(pred, true_p)
    diffs = [abs(q - p) for q, p in zip(pred.fractions, true_p.fractions)]
    return sum(diffs) / len(diffs)


def rae(pred: Prevalence, true_p: Prevalence, cfg: SmoothingConfig) -> float:
    """Mean relative absolute difference, computed on smoothed prevalences so
    the per-class denominator is never zero."""
    _check_scales(pred, true_p)
    ps = smooth(true_p, cfg).fractions
    qs = smooth(pred, cfg).fractions
    return sum(abs(q - p) / p for q, p in zip(qs, ps)) / len(ps)


def emd(pred: Prevalence, true_p: Prevalence) -> float:
    """Earth Mover's Distance under unit adjacent-class distance: the sum of
    absolute differences of the cumulative distributions, excluding the final
    (always-zero) term. Ranges from 0 to |C| - 1."""
    _check_scales(pred, true_p)
    cum_pred = list(accumulate(pred.fractions))
    cum_true = list(accumulate(true_p.fractions))
    return sum(abs(q - p) for q, p in zip(cum_pred[:-1], cum_true[:-1]))
