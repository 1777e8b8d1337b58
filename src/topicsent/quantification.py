"""Distribution-error measures for quantification: additive smoothing,
Kullback-Leibler divergence (natural log), absolute error, relative absolute
error, and Earth Mover's Distance for totally ordered classes.

Every measure works on class columns: one sequence per class, in
``scale.classes`` order, holding that class's fraction in each topic, the
prediction first. It returns the list of per-topic values, and column
counts that differ come from different scales and raise ScaleMismatch.
``smooth``, ``kld``, ``ae``, ``rae`` and ``emd`` are the one-topic case: they
take two fraction sequences and return one value. Validating the fractions is
the input boundary's job (:class:`~topicsent.model.Prevalence`).

Sums over classes are left folds in class order, as :func:`model.left_sum`,
so the last bits of a value do not depend on the Python version.

KLD and RAE operate on smoothed distributions so that point masses stay
finite; the caller picks each topic's smoothing ``eps``, conventionally
1 / (2 * |test set|), and smooths each distribution once. EMD assumes unit
distance between adjacent classes, in which case it is the L1 distance
between the cumulative distributions.
"""

from __future__ import annotations

import math
from functools import partial, reduce
from itertools import accumulate, repeat
from operator import add, mul, sub, truediv
from typing import Iterable, Iterator, Sequence

from .errors import ScaleMismatch

Columns = Sequence[Sequence[float]]


def _pairs(pred: Columns, true_p: Columns) -> zip:
    if len(pred) != len(true_p):
        raise ScaleMismatch(f"prevalences have {len(pred)} and {len(true_p)} classes")
    return zip(pred, true_p)


def class_sum(columns: Iterable[Iterable[float]]) -> Iterator[float]:
    """Each topic's sum over the class columns, a left fold in class order.
    It starts at the first column, not at 0 as ``sum`` does; the two differ
    only on a first term of -0.0, which no measure's first term can be."""
    return reduce(partial(map, add), columns)


def smooth_columns(columns: Columns, eps: Sequence[float]) -> list[list[float]]:
    """Additive smoothing of each topic, with its own eps: (p(c) + eps) /
    (1 + eps * |C|). Keeps the sum at 1 and makes every class strictly
    positive for eps > 0."""
    denom = list(map(add, repeat(1.0), map(mul, eps, repeat(len(columns)))))
    return [list(map(truediv, map(add, col, eps), denom)) for col in columns]


def kld_columns(pred_s: Columns, true_s: Columns) -> list[float]:
    """Each topic's sum of p(c) * ln(p(c) / p_hat(c)), from smoothed columns."""
    terms = [map(mul, p, map(math.log, map(truediv, p, q))) for q, p in _pairs(pred_s, true_s)]
    # smoothed fractions need not sum to exactly 1 in floats, which can push
    # the sum of two near-equal distributions a few ulps below zero
    return list(map(max, repeat(0.0), class_sum(terms)))


def ae_columns(pred: Columns, true_p: Columns) -> list[float]:
    """Each topic's mean absolute difference of class prevalences."""
    diffs = [map(abs, map(sub, q, p)) for q, p in _pairs(pred, true_p)]
    return list(map(truediv, class_sum(diffs), repeat(len(diffs))))


def rae_columns(pred_s: Columns, true_s: Columns) -> list[float]:
    """Each topic's mean relative absolute difference, from smoothed columns,
    so the per-class denominator is never zero."""
    terms = [map(truediv, map(abs, map(sub, q, p)), p) for q, p in _pairs(pred_s, true_s)]
    return list(map(truediv, class_sum(terms), repeat(len(terms))))


def emd_columns(pred: Columns, true_p: Columns) -> list[float]:
    """Each topic's Earth Mover's Distance under unit adjacent-class distance:
    the sum of absolute differences of the cumulative distributions, excluding
    the final (always-zero) term. Ranges from 0 to |C| - 1."""
    _pairs(pred, true_p)
    cumulative = partial(accumulate, func=lambda a, b: list(map(add, a, b)))
    q_cum, p_cum = cumulative(pred[:-1]), cumulative(true_p[:-1])
    return list(class_sum(map(abs, map(sub, q, p)) for q, p in zip(q_cum, p_cum)))


def _topic(p: Sequence[float]) -> list[tuple[float]]:
    """One distribution as one-topic class columns."""
    return [(f,) for f in p]


def smooth(p: Sequence[float], eps: float) -> tuple[float, ...]:
    """One distribution's additive smoothing; see smooth_columns."""
    return tuple(col[0] for col in smooth_columns(_topic(p), (eps,)))


def kld(pred: Sequence[float], true_p: Sequence[float], eps: float) -> float:
    """One topic's KLD over smoothed distributions; see kld_columns."""
    return kld_columns(smooth_columns(_topic(pred), (eps,)),
                       smooth_columns(_topic(true_p), (eps,)))[0]


def ae(pred: Sequence[float], true_p: Sequence[float]) -> float:
    """One topic's AE; see ae_columns."""
    return ae_columns(_topic(pred), _topic(true_p))[0]


def rae(pred: Sequence[float], true_p: Sequence[float], eps: float) -> float:
    """One topic's RAE over smoothed distributions; see rae_columns."""
    return rae_columns(smooth_columns(_topic(pred), (eps,)),
                       smooth_columns(_topic(true_p), (eps,)))[0]


def emd(pred: Sequence[float], true_p: Sequence[float]) -> float:
    """One topic's EMD; see emd_columns."""
    return emd_columns(_topic(pred), _topic(true_p))[0]
