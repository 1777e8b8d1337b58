import io
from collections import Counter
from fractions import Fraction
from itertools import chain, combinations_with_replacement, product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from topicsent.annotation import consolidate_labels
from topicsent.errors import InvalidLabel, TooFewAnnotators
from topicsent.ingestion import parse_annotations

labels5 = st.lists(st.sampled_from([-2, -1, 0, 1, 2]), min_size=5, max_size=9)


def reference_consolidate(labels):
    """Straightforward exact-rational reference: majority, else thresholded average."""
    value, count = Counter(labels).most_common(1)[0]
    if count >= len(labels) // 2 + 1:
        return value
    x = Fraction(sum(labels), len(labels))
    if x >= Fraction(7, 5):
        return 2
    if x >= Fraction(2, 5):
        return 1
    if x > Fraction(-2, 5):
        return 0
    if x > Fraction(-7, 5):
        return -1
    return -2


class TestConsolidate:
    def test_majority_wins(self):
        assert consolidate_labels([1, 1, 1, -2, -2]) == 1

    def test_symmetric_mean(self):
        assert consolidate_labels([2, 1, 0, -1, -2]) == 0

    def test_mean_below_upper_threshold(self):
        # no 3-of-5 agreement, mean 1.2 < 1.4
        assert consolidate_labels([2, 2, 1, 1, 0]) == 1

    def test_boundary_maps_away_from_zero(self):
        # no 3-of-5 agreement, mean exactly 0.4
        assert consolidate_labels([2, 1, -1, 0, 0]) == 1

    def test_validation(self):
        with pytest.raises(TooFewAnnotators, match="^line 1: need at least 5 annotators, got 4$"):
            parse_annotations(io.StringIO("t1\tNA\t1\t1\t1\t1\n"))
        with pytest.raises(InvalidLabel, match="^line 1: annotator label 3 not in -2..2$"):
            parse_annotations(io.StringIO("t1\tNA\t1\t1\t1\t1\t3\n"))
        # each label's range is checked before the count
        with pytest.raises(InvalidLabel, match="^line 2: annotator label -3 not in -2..2$"):
            parse_annotations(io.StringIO("t1\tx\t0\t0\t0\t0\t0\nt2\tx\t-3\t1\n"))

    def test_consolidate_annotation(self):
        ((key, labels),) = parse_annotations(io.StringIO("t1\tx\t2\t2\t2\t-1\t0\n"))
        assert key == "t1\tx"
        assert consolidate_labels(labels) == 2

    def test_exhaustive_against_reference(self):
        # every 5-label sequence, and every 10-label multiset: the means of ten
        # labels fall on the 7/5 and -7/5 cuts, where those of five never do
        for labels in chain(product(range(-2, 3), repeat=5),
                            combinations_with_replacement(range(-2, 3), 10)):
            assert consolidate_labels(list(labels)) == reference_consolidate(labels), labels

    def test_majority_always_short_circuits_averaging(self):
        # any 3-of-5 agreement returns the agreed label, never the average
        for labels in product([-2, -1, 0, 1, 2], repeat=5):
            value, count = Counter(labels).most_common(1)[0]
            if count >= 3:
                assert consolidate_labels(list(labels)) == value


class TestProperties:
    @given(labels5, st.randoms())
    def test_permutation_invariant(self, labels, rng):
        shuffled = labels[:]
        rng.shuffle(shuffled)
        assert consolidate_labels(labels) == consolidate_labels(shuffled)

    @given(labels5)
    def test_negation_symmetry(self, labels):
        assert consolidate_labels([-x for x in labels]) == -consolidate_labels(labels)

    @given(labels5)
    def test_output_within_label_range(self, labels):
        out = consolidate_labels(labels)
        assert min(labels) <= out <= max(labels)
