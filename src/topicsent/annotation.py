"""Consolidation of multi-annotator five-point labels into one gold label.

The rule is two-step: accept any label chosen by a strict majority of the
annotators (3 of 5; floor(n/2)+1 in general); otherwise average the integer
labels and round with thresholds at +/-0.4 and +/-1.4, mapping the exact
boundary values away from zero. Threshold comparisons use integer arithmetic
(5*sum vs. multiples of n), so there is no floating-point boundary ambiguity.
"""

from __future__ import annotations

from collections import Counter
from typing import Sequence

MIN_ANNOTATORS = 5  # the fewest labels an item of an annotation file may have


def consolidate_labels(labels: Sequence[int]) -> int:
    """Consolidates a validated label sequence; see module docstring."""
    n = len(labels)
    value, count = Counter(labels).most_common(1)[0]
    if count >= n // 2 + 1:
        return value
    s = sum(labels)
    # mean >= 1.4  <=>  5*s >= 7*n, and symmetrically below; boundaries map
    # to the more extreme class.
    if 5 * s >= 7 * n:
        return 2
    if 5 * s >= 2 * n:
        return 1
    if 5 * s > -2 * n:
        return 0
    if 5 * s > -7 * n:
        return -1
    return -2
