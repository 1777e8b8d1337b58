import copy
import math
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import class_counts
from topicsent.errors import EmptyInput, InvalidLabel
from topicsent.ingestion import normalized_prevalence
from topicsent.model import Prevalence, Scale, ascii_number, class_fractions


class TestScale:
    def test_class_orders(self):
        assert Scale.TWO_POINT.classes == (-1, 1)
        assert Scale.THREE_POINT.classes == (-1, 0, 1)
        assert Scale.FIVE_POINT.classes == (-2, -1, 0, 1, 2)

    @pytest.mark.parametrize(
        "raw,expected",
        [("positive", 1), ("NEGATIVE", -1), ("Neutral", 0), ("-2", -2),
         ("highlypositive", 2), ("HighlyNegative", -2), ("+1", 1)],
    )
    def test_parse_label_surface_forms(self, raw, expected):
        assert Scale.FIVE_POINT.parse_label(raw) == expected

    def test_parse_label_rejects_out_of_scale(self):
        with pytest.raises(InvalidLabel):
            Scale.TWO_POINT.parse_label("neutral")
        with pytest.raises(InvalidLabel):
            Scale.FIVE_POINT.parse_label("-3")
        with pytest.raises(InvalidLabel):
            Scale.THREE_POINT.parse_label("great")

    @pytest.mark.parametrize("scale", list(Scale))
    def test_parse_label_names_and_integers_agree(self, scale):
        for c in scale.classes:
            name = scale.class_name(c)
            forms = [str(c), f" {c} ", name, name.lower(), f" {name.title()}\t"]
            assert [scale.parse_label(raw) for raw in forms] == [c] * len(forms)

    @pytest.mark.parametrize(
        "scale,raw,message",
        [
            (Scale.THREE_POINT, "great", "line 7: unrecognized label 'great'"),
            (Scale.FIVE_POINT, "", "line 7: unrecognized label ''"),
            (Scale.TWO_POINT, "neutral", "line 7: label 'neutral' invalid on scale TWO_POINT"),
            (Scale.THREE_POINT, " 2 ", "line 7: label ' 2 ' invalid on scale THREE_POINT"),
            (Scale.THREE_POINT, "HighlyPositive",
             "line 7: label 'HighlyPositive' invalid on scale THREE_POINT"),
        ],
    )
    def test_parse_label_errors(self, scale, raw, message):
        with pytest.raises(InvalidLabel) as exc:
            scale.parse_label(raw, line=7)
        assert str(exc.value) == message and exc.value.line == 7

    @pytest.mark.parametrize("raw", ["0_1", "1_0", "\u0661", "-\u0661", "\uff11", "pos\u0131tive"])
    def test_parse_label_accepts_only_ascii_forms(self, raw):
        # int() reads the first five and str.upper() maps a dotless i to I
        with pytest.raises(InvalidLabel, match="^line 3: unrecognized label") as exc:
            Scale.FIVE_POINT.parse_label(raw, line=3)
        assert exc.value.line == 3

    def test_ascii_number(self):
        assert ascii_number(int, " +1 ") == 1 and ascii_number(float, "2.5e-1") == 0.25
        for text in ("0_1", "0.2_5", "\u0661", "\u0660.5", "\u00a01", "1\u2003"):
            with pytest.raises(ValueError):
                ascii_number(float, text)


def label_fractions(labels, scale):
    """class_fractions of a one-topic label file with the given labels."""
    rows = [(f"t{i}", "x", label) for i, label in enumerate(labels)]
    return class_fractions(class_counts(scale, rows)["x"])


class TestPrevalence:
    def test_symmetric(self):
        p = label_fractions([1, 1, -1, -1], Scale.TWO_POINT)
        assert p == (0.5, 0.5)

    def test_point_mass(self):
        p = label_fractions([0, 0, 0], Scale.FIVE_POINT)
        # classes -2, -1, 0, 1, 2
        assert p[2] == 1.0 and sum(p) == 1.0

    def test_published_test_set_shares(self):
        # class counts 2375 positive / 5937 neutral / 3972 negative
        labels = [1] * 2375 + [0] * 5937 + [-1] * 3972
        p = label_fractions(labels, Scale.THREE_POINT)
        negative, neutral, positive = p
        assert round(positive, 4) == 0.1933
        assert round(neutral, 4) == 0.4833
        assert round(negative, 4) == 0.3233

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            class_fractions((0, 0))

    def test_invalid_fractions_rejected(self):
        with pytest.raises(InvalidLabel, match="sum to 1.2, expected 1"):
            normalized_prevalence(Scale.TWO_POINT, (0.6, 0.6))
        with pytest.raises(InvalidLabel, match="finite and nonnegative"):
            normalized_prevalence(Scale.TWO_POINT, (-0.1, 1.1))
        with pytest.raises(InvalidLabel, match="finite and nonnegative"):
            normalized_prevalence(Scale.TWO_POINT, (math.nan, math.nan))
        with pytest.raises(InvalidLabel, match="expected 2 fractions, got 1"):
            normalized_prevalence(Scale.TWO_POINT, (math.nan,))

    def test_a_validated_tuple(self):
        p = normalized_prevalence(Scale.FIVE_POINT, [0.0, 0.25, 0.5, 0.25, 0.0])
        assert type(p) is Prevalence
        assert p == p.fractions == (0.0, 0.25, 0.5, 0.25, 0.0)
        assert type(p.fractions) is tuple
        for copied in (copy.copy(p), copy.deepcopy(p), pickle.loads(pickle.dumps(p))):
            assert type(copied) is Prevalence and copied == p

    def test_off_sum_message_states_the_exact_sum(self):
        # a plain left-to-right sum of these values gives 0.9989999999999999
        with pytest.raises(InvalidLabel, match=r"sum to 0\.999, expected 1"):
            normalized_prevalence(Scale.FIVE_POINT, (0.000, 0.259, 0.296, 0.148, 0.296))
        with pytest.raises(InvalidLabel, match=r"sum to inf, expected 1"):
            normalized_prevalence(Scale.TWO_POINT, (1e308, 1e308))

    @given(st.lists(st.sampled_from([-1, 0, 1]), min_size=1, max_size=50),
           st.randoms())
    def test_permutation_invariant_and_sums_to_one(self, labels, rng):
        shuffled = labels[:]
        rng.shuffle(shuffled)
        p1 = label_fractions(labels, Scale.THREE_POINT)
        p2 = label_fractions(shuffled, Scale.THREE_POINT)
        assert p1 == p2
        assert abs(sum(p1) - 1.0) < 1e-12
