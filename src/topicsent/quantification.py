"""Distribution-error measures for quantification, in one function,
:func:`column_metrics`: Kullback-Leibler divergence (natural log), absolute
error and relative absolute error, or on the ordered five-point scale Earth
Mover's Distance, which under unit distance between adjacent classes is the
L1 distance between the cumulative distributions.

Validating the predicted fractions is the input boundary's job
(``ingestion.normalized_prevalence`` and ``ingestion.parse_prevalence_file``).
Sums over classes are left folds in class order, as :func:`model.left_sum`,
so the last bits of a value do not depend on the Python version.
"""

from __future__ import annotations

import math
from functools import partial, reduce
from itertools import accumulate, repeat
from operator import add, mul, sub, truediv
from typing import Iterable, Iterator, Sequence

from .errors import EmptyInput, ScaleMismatch
from .model import Scale


def _class_sum(columns: Iterable[Iterable[float]]) -> Iterator[float]:
    """Each topic's sum over the class columns, a left fold in class order.
    It starts at the first column, not at 0 as ``sum`` does; the two differ
    only on a first term of -0.0, which no measure's first term can be."""
    return reduce(partial(map, add), columns)


def column_metrics(
    scale: Scale, pred_columns: Sequence[Sequence[float]], count_columns: Sequence[Sequence[int]]
) -> dict[str, list[float]]:
    """Each topic's metric bundle, as lists of per-topic values, from class
    columns: one sequence per class, in ``scale.classes`` order, holding that
    class's predicted fraction or gold count in each topic (one topic is the
    case of one-element columns). The bundle is ``emd`` on the five-point
    scale, else ``kld``, ``ae`` and ``rae``; KLD and RAE smooth each
    distribution with the topic's eps = 1 / (2 * |topic|), so that point
    masses stay finite. The formulas hold on any class count. Column counts
    that differ come from different scales and raise ScaleMismatch, and a
    topic without gold items raises EmptyInput."""
    k = len(count_columns)
    if len(pred_columns) != k:
        raise ScaleMismatch(f"prevalences have {len(pred_columns)} and {k} classes")
    sizes = list(_class_sum(count_columns))
    if 0 in sizes:
        raise EmptyInput("cannot compute prevalence of an empty label list")
    true_p = [list(map(truediv, col, sizes)) for col in count_columns]
    if scale is Scale.FIVE_POINT:
        # the sum of absolute differences of the cumulative distributions,
        # excluding the final (always-zero) term; ranges from 0 to |C| - 1
        cumulative = partial(accumulate, func=lambda a, b: list(map(add, a, b)))
        q_cum, p_cum = cumulative(pred_columns[:-1]), cumulative(true_p[:-1])
        return {"emd": list(_class_sum(map(abs, map(sub, q, p)) for q, p in zip(q_cum, p_cum)))}
    eps = list(map(truediv, repeat(1.0), map(mul, repeat(2), sizes)))
    # additive smoothing, (p(c) + eps) / (1 + eps * |C|): keeps the sum at 1
    # and makes every class strictly positive
    denom = list(map(add, repeat(1.0), map(mul, eps, repeat(k))))
    pred_s, true_s = ([list(map(truediv, map(add, col, eps), denom)) for col in columns]
                      for columns in (pred_columns, true_p))
    kld_terms = [map(mul, p, map(math.log, map(truediv, p, q))) for q, p in zip(pred_s, true_s)]
    ae_terms = [map(abs, map(sub, q, p)) for q, p in zip(pred_columns, true_p)]
    rae_terms = [map(truediv, map(abs, map(sub, q, p)), p) for q, p in zip(pred_s, true_s)]
    return {
        # smoothed fractions need not sum to exactly 1 in floats, which can push
        # the sum of two near-equal distributions a few ulps below zero
        "kld": list(map(max, repeat(0.0), _class_sum(kld_terms))),
        "ae": list(map(truediv, _class_sum(ae_terms), repeat(k))),
        "rae": list(map(truediv, _class_sum(rae_terms), repeat(k))),
    }
