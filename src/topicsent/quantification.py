"""Distribution-error measures for quantification: additive smoothing,
Kullback-Leibler divergence (natural log), absolute error, relative absolute
error, and Earth Mover's Distance for totally ordered classes.

Every measure is a plain function of two class-fraction sequences in
``scale.classes`` order, the prediction first; sequences of different
lengths come from different scales and raise ScaleMismatch. Validating the
fractions is the input boundary's job (:class:`~topicsent.model.Prevalence`).

KLD and RAE operate on smoothed distributions so that point masses stay
finite; the caller picks the smoothing ``eps``, conventionally
1 / (2 * |test set|). EMD assumes unit distance between adjacent classes, in
which case it is the L1 distance between the cumulative distributions.
"""

from __future__ import annotations

import math
from itertools import accumulate
from typing import Sequence

from .errors import ScaleMismatch


def _pairs(pred: Sequence[float], true_p: Sequence[float]) -> zip:
    if len(pred) != len(true_p):
        raise ScaleMismatch(f"prevalences have {len(pred)} and {len(true_p)} classes")
    return zip(pred, true_p)


def smooth(p: Sequence[float], eps: float) -> tuple[float, ...]:
    """Additive smoothing: (p(c) + eps) / (1 + eps * |C|). Keeps the sum at 1
    and makes every class strictly positive for eps > 0."""
    denom = 1.0 + eps * len(p)
    return tuple((f + eps) / denom for f in p)


def kld(pred: Sequence[float], true_p: Sequence[float], eps: float) -> float:
    """Sum of p(c) * ln(p(c) / p_hat(c)) over smoothed distributions."""
    pairs = _pairs(smooth(pred, eps), smooth(true_p, eps))
    # smoothed fractions need not sum to exactly 1 in floats, which can push
    # the sum of two near-equal distributions a few ulps below zero
    return max(0.0, sum(p * math.log(p / q) for q, p in pairs))


def ae(pred: Sequence[float], true_p: Sequence[float]) -> float:
    """Mean absolute difference of class prevalences."""
    diffs = [abs(q - p) for q, p in _pairs(pred, true_p)]
    return sum(diffs) / len(diffs)


def rae(pred: Sequence[float], true_p: Sequence[float], eps: float) -> float:
    """Mean relative absolute difference, computed on smoothed prevalences so
    the per-class denominator is never zero."""
    pairs = list(_pairs(smooth(pred, eps), smooth(true_p, eps)))
    return sum(abs(q - p) / p for q, p in pairs) / len(pairs)


def emd(pred: Sequence[float], true_p: Sequence[float]) -> float:
    """Earth Mover's Distance under unit adjacent-class distance: the sum of
    absolute differences of the cumulative distributions, excluding the final
    (always-zero) term. Ranges from 0 to |C| - 1."""
    diffs = [abs(q - p) for q, p in _pairs(list(accumulate(pred)), list(accumulate(true_p)))]
    return sum(diffs[:-1])
