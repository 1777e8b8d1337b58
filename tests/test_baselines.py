import io

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (class_counts, constant_predictions, constant_table, join, left_fold,
                      reference_avg_rec, rows_from_counts, topic_emd, topic_kld)
from topicsent.baselines import Averaging, constant_classifier, ml_quantifier
from topicsent.classification import table_metrics
from topicsent.errors import EmptyInput, NoTopics, ScaleMismatch
from topicsent.evaluate import SUBTASKS
from topicsent.ingestion import count_labels, normalized_prevalence
from topicsent.model import Scale, class_fractions


@st.composite
def gold_sets(draw):
    """A scale and gold rows on it, topicless or over several topics, and
    possibly none."""
    scale = draw(st.sampled_from(list(Scale)))
    topic = st.sampled_from(draw(st.sampled_from([[None], ["a", "b", "c"]])))
    keys = st.tuples(st.sampled_from(["t1", "t2", "t3", "t4", "t5", "t6"]), topic)
    gold = draw(st.dictionaries(keys, st.sampled_from(scale.classes)))
    return scale, [(i, t, c) for (i, t), c in gold.items()]


class TestConstantClassifier:
    def test_predicts_one_label_everywhere(self):
        gold = rows_from_counts({1: 3, 0: 2, -1: 1}, topic="x")
        tables = constant_classifier(Scale.THREE_POINT, class_counts(Scale.THREE_POINT, gold), 0)
        assert list(tables) == ["x"]
        assert tables["x"] == ((0, 1, 0), (0, 2, 0), (0, 3, 0))

    def test_rejects_out_of_scale_class(self):
        with pytest.raises(ScaleMismatch):
            constant_classifier(Scale.TWO_POINT, {None: (0, 1)}, 2)

    @given(gold_sets())
    def test_equals_join_with_per_row_predictions(self, data):
        scale, gold = data
        counts = class_counts(scale, gold)
        for c in scale.classes:
            tables = constant_classifier(scale, counts, c)
            assert tables == join(scale, gold, constant_predictions(gold, c))[0]

    def test_avg_rec_is_one_over_k(self):
        for scale, counts in [
            (Scale.TWO_POINT, {1: 5, -1: 9}),
            (Scale.THREE_POINT, {1: 5, 0: 2, -1: 9}),
            (Scale.FIVE_POINT, {c: 3 for c in range(-2, 3)}),
        ]:
            gold = rows_from_counts(counts)
            for c in scale.classes:
                cm = constant_table(scale, gold, c)
                assert reference_avg_rec(scale, cm) == pytest.approx(1 / len(scale.classes))
                if scale is not Scale.FIVE_POINT:  # where AvgRec is a subtask metric
                    assert table_metrics(scale, cm)["avgrec"] == reference_avg_rec(scale, cm)


class TestConstantQuantifier:
    """A constant quantifier predicts a point mass: the stated one-hot
    fractions of its class, as ``baseline --kind constant:c`` builds them."""

    def test_point_mass_five_point(self):
        one_hot = [float(x == 1) for x in Scale.FIVE_POINT.classes]
        p = normalized_prevalence(Scale.FIVE_POINT, one_hot)
        assert p.fractions == (0.0, 0.0, 0.0, 1.0, 0.0)

    def test_perfect_quantifier_scores_zero(self):
        p = normalized_prevalence(Scale.FIVE_POINT, [0.0, 0.0, 1.0, 0.0, 0.0]).fractions
        assert topic_emd(p, (0, 0, 100, 0, 0)) == 0.0
        assert topic_kld(p, (0, 0, 100, 0, 0)) == pytest.approx(0.0, abs=1e-15)


class TestMlQuantifier:
    """ml_quantifier on training-set count maps: topic -> class counts in
    scale.classes order, as count_labels returns them."""

    def test_single_topic_micro_equals_macro(self):
        train = {"only": (3, 7)}
        micro = ml_quantifier(train, Averaging.MICRO)
        macro = ml_quantifier(train, Averaging.MACRO)
        assert micro.fractions == pytest.approx(macro.fractions)

    def test_micro_vs_macro_hand_computation(self):
        train = {"a": (10, 0), "b": (0, 90)}
        assert ml_quantifier(train, Averaging.MACRO).fractions == pytest.approx((0.5, 0.5))
        assert ml_quantifier(train, Averaging.MICRO).fractions == pytest.approx((0.1, 0.9))

    def test_published_training_counts(self):
        p = ml_quantifier({"x": (771, 885)}, Averaging.MICRO)
        negative, positive = p.fractions
        assert round(positive, 4) == 0.5344
        assert round(negative, 4) == 0.4656

    def test_micro_equals_pooled_prevalence(self):
        train = class_counts(Scale.TWO_POINT, rows_from_counts({1: 3, -1: 4}, topic="a")
                             + rows_from_counts({1: 6}, topic="b"))
        totals = [sum(col) for col in zip(*train.values())]
        assert ml_quantifier(train, Averaging.MICRO).fractions == class_fractions(totals)

    def test_micro_needs_no_topics(self):
        train = {None: (1, 3)}
        assert ml_quantifier(train, Averaging.MICRO).fractions == (0.25, 0.75)

    def test_errors(self):
        for averaging in Averaging:
            with pytest.raises(EmptyInput):
                ml_quantifier({}, averaging)
        with pytest.raises(NoTopics):
            ml_quantifier({None: (2, 2)}, Averaging.MACRO)

    def test_macro_sums_to_one(self):
        train = {"a": (0, 0, 3, 4, 0), "b": (1, 0, 0, 0, 6)}
        p = ml_quantifier(train, Averaging.MACRO)
        assert sum(p.fractions) == pytest.approx(1.0, abs=1e-12)

    def test_macro_means_are_left_folds(self):
        train = {"a": (3, 2), "b": (3, 3), "c": (4, 1)}
        per_topic = [class_fractions(c) for c in train.values()]
        means = [left_fold(col) / 3 for col in zip(*per_topic)]
        expected = tuple(m / left_fold(means) for m in means)
        # correctly rounded sums give 0.6333333333333333 for the first class
        assert expected == (0.6333333333333334, 0.3666666666666667)
        assert ml_quantifier(train, Averaging.MACRO) == expected

    def test_on_the_counts_of_a_label_file(self):
        text = "t1\ta\t-1\nt2\ta\t1\nt3\tb\tpositive\nt1\tb\t1\n"
        train = count_labels(io.StringIO(text), SUBTASKS["D"])
        assert train == {"a": (1, 1), "b": (0, 2)}
        assert ml_quantifier(train, Averaging.MICRO) == (0.25, 0.75)
        assert ml_quantifier(train, Averaging.MACRO) == (0.25, 0.75)
