import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (class_counts, constant_predictions, join, reference_metrics,
                      reference_table_metrics, rows_from_counts, table)
from topicsent.classification import table_metrics
from topicsent.errors import EmptyInput, MissingPrediction, TopicRequired
from topicsent.evaluate import SUBTASKS, Mode, classification_report, quantification_report
from topicsent.ingestion import normalized_prevalence
from topicsent.model import Prevalence, Scale, class_fractions


def classify(spec, gold, pred, pooled=False):
    """The report of gold and prediction rows, joined as ``score`` joins them."""
    return classification_report(spec, *join(spec.scale, gold, pred), pooled)


def quantify(spec, gold, preds, pooled=False):
    """The report of gold rows, counted as ``score`` counts them, and preds."""
    return quantification_report(spec, class_counts(spec.scale, gold), preds, pooled)


class TestSubtaskTable:
    def test_registry_matches_task_definitions(self):
        assert SUBTASKS["A"].scale is Scale.THREE_POINT
        assert SUBTASKS["B"].scale is Scale.TWO_POINT
        assert SUBTASKS["C"].scale is Scale.FIVE_POINT
        assert SUBTASKS["D"].scale is Scale.TWO_POINT
        assert SUBTASKS["E"].scale is Scale.FIVE_POINT
        assert not SUBTASKS["A"].topic_based
        for sid in "BCDE":
            assert SUBTASKS[sid].topic_based
        for sid in "ABC":
            assert SUBTASKS[sid].mode is Mode.CLASSIFICATION
        for sid in "DE":
            assert SUBTASKS[sid].mode is Mode.QUANTIFICATION
        assert SUBTASKS["A"].higher_is_better and SUBTASKS["B"].higher_is_better
        for sid in "CDE":
            assert not SUBTASKS[sid].higher_is_better


def accuracy_rows(topics):
    """Subtask B gold and prediction rows of topics given as (items, correct
    predictions): every gold label is positive, and the first ``correct``
    predictions too."""
    gold, pred = [], []
    for i, (n, correct) in enumerate(topics):
        rows = rows_from_counts({1: n}, topic=f"t{i}")
        gold += rows
        pred += [(item, t, 1 if j < correct else -1) for j, (item, t, _) in enumerate(rows)]
    return gold, pred


def accuracy_report(*topics):
    return classify(SUBTASKS["B"], *accuracy_rows(topics))


class TestMacroaverage:
    """A report's macro means are the unweighted means of its topic values;
    accuracy is a ratio of counts, so 1/5 is the float 0.2."""

    def test_singleton(self):
        assert accuracy_report((4, 4)).metrics["accuracy"] == 1.0

    def test_symmetry(self):
        assert accuracy_report((2, 0), (2, 2)).metrics["accuracy"] == 0.5

    def test_hand_mean(self):
        report = accuracy_report((5, 1), (5, 2), (10, 9))
        assert [m["accuracy"] for m in report.per_topic.values()] == [0.2, 0.4, 0.9]
        assert report.metrics["accuracy"] == 0.5

    def test_empty(self):
        """No topics at all is empty input, as on subtask A; topicless gold
        still lacks the topics a topic-based subtask needs."""
        with pytest.raises(EmptyInput, match="^no gold/prediction pairs to score$"):
            classification_report(SUBTASKS["B"], {}, 0, False)
        with pytest.raises(EmptyInput, match="^no gold/prediction pairs to score$"):
            quantification_report(SUBTASKS["D"], {}, {}, False)
        with pytest.raises(TopicRequired):
            quantification_report(SUBTASKS["D"], {None: (1, 1)}, {}, False)

    @given(st.lists(st.integers(1, 9).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n))),
                    min_size=1, max_size=12), st.data())
    def test_permutation_invariant(self, topics, data):
        """Macro means do not depend on the order of the topics."""
        spec = SUBTASKS["B"]
        tables, _ = join(spec.scale, *accuracy_rows(topics))
        assert (classification_report(spec, tables, 0, False).metrics
                == classification_report(spec, dict(reversed(tables.items())), 0, False).metrics)
        spec = SUBTASKS["D"]
        counts = {f"t{i}": (n - c, c) for i, (n, c) in enumerate(topics)}
        preds = {t: data.draw(st.floats(0, 1).map(lambda f: (1.0 - f, f))) for t in counts}
        assert (quantification_report(spec, counts, preds, False).metrics
                == quantification_report(spec, dict(reversed(counts.items())), preds,
                                         False).metrics)


three_point_rows = st.one_of(st.just((0, 0, 0)), st.tuples(*[st.integers(0, 4)] * 3))


class TestSubtaskA:
    """Subtask A is its one topicless table, scored as a topic is."""

    def test_constant_neutral_english_counts(self):
        gold = rows_from_counts({1: 2375, 0: 5937, -1: 3972})
        report = classify(SUBTASKS["A"], gold, constant_predictions(gold, 0))
        assert round(report.metrics["avgrec"], 3) == 0.333
        assert round(report.metrics["f1_pn"], 3) == 0.000
        assert round(report.metrics["accuracy"], 3) == 0.483
        assert not report.per_topic

    @given(st.tuples(*[three_point_rows] * 3).filter(lambda t: any(map(any, t))),
           st.integers(0, 2))
    def test_scores_its_one_table(self, t, n_ignored):
        """Rows of zeros are classes absent from gold, which the warning names."""
        scale = Scale.THREE_POINT
        absent = ", ".join(scale.class_name(c) for c, row in zip(scale.classes, t) if not any(row))
        warnings = [f"{n_ignored} prediction rows not in gold were ignored"] if n_ignored else []
        if absent:
            warnings.append(f"gold data: classes absent from gold excluded from macro means: {absent}")
        for pooled in (False, True):
            report = classification_report(SUBTASKS["A"], {None: t}, n_ignored, pooled)
            assert report.metrics == table_metrics(scale, t)
            assert report.per_topic == {} and report.pooled is None
            assert report.warnings == warnings

    def test_absent_classes_warned(self):
        t = table(Scale.THREE_POINT, [(1, 1), (1, 0), (-1, 0)])
        report = classification_report(SUBTASKS["A"], {None: t}, 0, False)
        assert report.warnings == [
            "gold data: classes absent from gold excluded from macro means: NEUTRAL"]


class TestSubtaskBC:
    def _two_topic_gold(self, scale, counts_a, counts_b):
        return rows_from_counts(counts_a, topic="a") + rows_from_counts(counts_b, topic="b")

    def test_topics_required(self):
        gold = rows_from_counts({1: 2, -1: 2})
        with pytest.raises(TopicRequired):
            classify(SUBTASKS["B"], gold, constant_predictions(gold, 1))

    def test_perfect_subtask_c(self):
        gold = self._two_topic_gold(Scale.FIVE_POINT, {0: 3, 1: 2}, {-1: 4})
        report = classify(SUBTASKS["C"], gold, gold)
        assert report.metrics["mae_macro"] == 0.0
        assert report.metrics["mae_micro"] == 0.0

    def test_aggregate_is_mean_of_topics(self):
        gold = self._two_topic_gold(Scale.TWO_POINT, {1: 4, -1: 4}, {1: 2, -1: 6})
        report = classify(SUBTASKS["B"], gold, constant_predictions(gold, 1))
        for name, value in report.metrics.items():
            per_topic = [m[name] for m in report.per_topic.values()]
            assert value == pytest.approx(math.fsum(per_topic) / len(per_topic), abs=1e-12)

    def test_single_topic_macro_equals_pooled(self):
        gold = rows_from_counts({1: 6, -1: 4}, topic="only")
        report = classify(SUBTASKS["B"], gold, constant_predictions(gold, 1), pooled=True)
        assert report.metrics == pytest.approx(report.pooled)

    def test_absent_class_flagged_per_topic(self):
        gold = self._two_topic_gold(Scale.TWO_POINT, {1: 3}, {1: 2, -1: 2})
        report = classify(SUBTASKS["B"], gold, constant_predictions(gold, 1))
        assert any("topic a" in w and "NEGATIVE" in w for w in report.warnings)


@st.composite
def classification_rows(draw):
    """Gold and prediction rows of subtask A, B or C with a prediction for
    every gold row: topicless, or over up to four topics."""
    spec = SUBTASKS[draw(st.sampled_from(["A", "B", "C"]))]
    topics = st.sampled_from(["a", "b", "c", "d"] if spec.topic_based else [None])
    labels = st.sampled_from(spec.scale.classes)
    pairs = draw(st.dictionaries(st.tuples(st.sampled_from([f"t{i}" for i in range(30)]), topics),
                                 st.tuples(labels, labels), min_size=1))
    gold = [(i, t, g) for (i, t), (g, _) in pairs.items()]
    pred = [(i, t, p) for (i, t), (_, p) in pairs.items()]
    return spec, gold, pred


class TestPooledClassification:
    """The cell-wise sum of the per-topic tables is the table of all rows."""

    @given(classification_rows())
    def test_equals_the_reference_of_all_rows(self, data):
        spec, gold, pred = data
        expected = reference_table_metrics(spec.scale, table(spec.scale, [
            (g, p) for (_, _, g), (_, _, p) in zip(gold, pred)]))
        report = classify(spec, gold, pred, pooled=True)
        if spec.topic_based:
            assert report.pooled == expected
        else:
            assert report.metrics == expected and report.pooled is None


class TestQuantification:
    def test_two_topic_kld_mean(self):
        # topic KLDs 0.2 and 0.4 should aggregate to 0.3; build via synthetic
        # per-topic values by checking aggregation on real metric outputs
        gold_a = rows_from_counts({1: 50, -1: 50}, topic="a")
        gold_b = rows_from_counts({1: 80, -1: 20}, topic="b")
        gold = gold_a + gold_b
        preds = {
            "a": Prevalence((0.3, 0.7)),
            "b": Prevalence((0.5, 0.5)),
        }
        report = quantify(SUBTASKS["D"], gold, preds)
        per_topic = [report.per_topic[t]["kld"] for t in ("a", "b")]
        assert report.metrics["kld"] == pytest.approx(sum(per_topic) / 2, abs=1e-12)
        assert set(report.per_topic["a"]) == {"kld", "ae", "rae"}

    def test_perfect_quantifier(self):
        gold = rows_from_counts({0: 5, 1: 5}, topic="x")
        counts = class_counts(Scale.FIVE_POINT, gold)
        true_p = Prevalence(class_fractions(counts["x"]))
        report = quantify(SUBTASKS["E"], gold, {"x": true_p})
        assert report.metrics["emd"] == 0.0

    def test_missing_topic_prediction(self):
        gold = rows_from_counts({1: 3, -1: 2}, topic="x")
        with pytest.raises(MissingPrediction):
            quantify(SUBTASKS["D"], gold, {})

    def test_extra_topic_warned_and_excluded(self):
        gold = rows_from_counts({1: 3, -1: 2}, topic="x")
        preds = dict.fromkeys(["x", "ghost"], normalized_prevalence(Scale.TWO_POINT, [0.0, 1.0]))
        report = quantify(SUBTASKS["D"], gold, preds)
        assert any("ghost" in w for w in report.warnings)
        assert list(report.per_topic) == ["x"]

    def test_hand_computed_subtask_d(self):
        # Topic p: gold (-1, 1) predicted (0.5, 0.5) exactly, all zero. Topic
        # q: gold (1, 1) predicted (0.5, 0.5); eps = 1/(2*2) smooths the true
        # prevalence to (1/6, 5/6) and leaves the prediction at (0.5, 0.5).
        # Pooled: true (1/4, 3/4), predicted (0.5, 0.5), eps = 1/8 gives true
        # (0.3, 0.7).
        gold = [("1", "p", -1), ("2", "p", 1), ("3", "q", 1), ("4", "q", 1)]
        half = Prevalence((0.5, 0.5))
        report = quantify(SUBTASKS["D"], gold, {"p": half, "q": half}, pooled=True)
        kld_q = math.log(1 / 3) / 6 + 5 * math.log(5 / 3) / 6
        assert report.per_topic == {
            "p": {"kld": 0.0, "ae": 0.0, "rae": 0.0},
            "q": pytest.approx({"kld": kld_q, "ae": 0.5, "rae": 1.2}, abs=1e-12),
        }
        assert report.metrics == pytest.approx({"kld": kld_q / 2, "ae": 0.25, "rae": 0.6},
                                               abs=1e-12)
        assert report.pooled == pytest.approx(
            {"kld": 0.3 * math.log(0.6) + 0.7 * math.log(1.4), "ae": 0.25, "rae": 10 / 21},
            abs=1e-12,
        )

    def test_hand_computed_subtask_e(self):
        # Topic u: gold (-2, 0), all mass predicted on 0; the cumulative
        # distributions differ by 1/2 at -2 and -1, so EMD 1. Topic v: gold
        # (1, 2, 2, 2) predicted half on 1, half on 2; they differ by 1/4 at 1.
        # Pooled: the item-weighted prediction 1/3 each on 0, 1 and 2 against
        # gold shares (1/6, 0, 1/6, 1/6, 1/2) differs by 1/6 at -2, -1 and 1.
        gold = [("1", "u", -2), ("2", "u", 0), ("3", "v", 1),
                ("4", "v", 2), ("5", "v", 2), ("6", "v", 2)]
        preds = {"u": Prevalence((0.0, 0.0, 1.0, 0.0, 0.0)),
                 "v": Prevalence((0.0, 0.0, 0.0, 0.5, 0.5))}
        report = quantify(SUBTASKS["E"], gold, preds, pooled=True)
        assert report.per_topic == {"u": {"emd": 1.0}, "v": {"emd": 0.25}}
        assert report.metrics == {"emd": 0.625}
        assert report.pooled == pytest.approx({"emd": 0.5}, abs=1e-12)

    def test_topic_order_does_not_matter(self):
        gold_a = rows_from_counts({1: 5, -1: 5}, topic="a")
        gold_b = rows_from_counts({1: 9, -1: 1}, topic="b")
        fwd, rev = gold_a + gold_b, gold_b + gold_a
        preds = dict.fromkeys(["a", "b"], Prevalence((0.4, 0.6)))
        r1 = quantify(SUBTASKS["D"], fwd, preds)
        r2 = quantify(SUBTASKS["D"], rev, preds)
        assert r1.metrics == r2.metrics


@st.composite
def counts_and_predictions(draw):
    """Per-topic gold class counts and predicted fractions for subtask D or
    E, with one-item topics and point masses among them."""
    spec = SUBTASKS[draw(st.sampled_from(["D", "E"]))]
    k = len(spec.scale.classes)
    unit = st.integers(0, k - 1).map(lambda i: [int(j == i) for j in range(k)])
    counts = st.one_of(unit, st.lists(st.integers(0, 30), min_size=k, max_size=k).filter(any))
    spread = st.lists(st.floats(0, 1), min_size=k, max_size=k).filter(lambda v: math.fsum(v) > 0)
    fractions = st.one_of(unit, spread.map(lambda v: [x / math.fsum(v) for x in v]))
    topics = draw(st.lists(st.text(min_size=1, max_size=3), min_size=1, max_size=8, unique=True))
    return (spec, {t: tuple(draw(counts)) for t in sorted(topics)},
            {t: tuple(map(float, draw(fractions))) for t in topics})


class TestQuantificationReportColumns:
    """The column-at-a-time report against the per-topic reference."""

    @given(counts_and_predictions())
    def test_every_value_equals_the_scalar_measure(self, data):
        spec, counts, preds = data
        report = quantification_report(spec, counts, preds, pooled=True)
        for topic, row in counts.items():
            assert report.per_topic[topic] == reference_metrics(spec.scale, preds[topic], row)
        assert report.metrics == {
            name: math.fsum(m[name] for m in report.per_topic.values()) / len(counts)
            for name in report.metrics
        }
        totals = [sum(col) for col in zip(*counts.values())]
        mixed = [math.fsum(sum(row) / sum(totals) * preds[t][i] for t, row in counts.items())
                 for i in range(len(totals))]
        assert report.pooled == reference_metrics(spec.scale, mixed, totals)
