"""Subtask orchestration: picks the metric bundle for each subtask, scores
per topic, macroaverages across topics, and assembles a report.

Subtasks:
  A - 3-point classification over the whole set (no topics)
  B - 2-point classification, per topic
  C - 5-point ordinal classification, per topic
  D - 2-point quantification, per topic
  E - 5-point ordinal quantification, per topic

Classification subtasks take predicted label datasets; quantification
subtasks take a topic -> predicted Prevalence map. Macroaveraging is the
unweighted mean across topics. The optional pooled report treats the whole
test set as a single group, which is what reproduces constant-baseline table
values on imbalanced data.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping

from . import classification, ordinal, quantification
from .errors import EmptyInput, MissingPrediction, TopicRequired
from .model import ConfusionMatrix, Dataset, Prevalence, Scale, confusion_tables, topic_class_counts


class Mode(Enum):
    CLASSIFICATION = "classification"
    QUANTIFICATION = "quantification"


@dataclass(frozen=True)
class SubtaskSpec:
    id: str
    scale: Scale
    mode: Mode
    topic_based: bool
    primary_metric: str
    # higher_is_better drives ranking direction in reports
    higher_is_better: bool


SUBTASKS: dict[str, SubtaskSpec] = {
    "A": SubtaskSpec("A", Scale.THREE_POINT, Mode.CLASSIFICATION, False, "avgrec", True),
    "B": SubtaskSpec("B", Scale.TWO_POINT, Mode.CLASSIFICATION, True, "avgrec", True),
    "C": SubtaskSpec("C", Scale.FIVE_POINT, Mode.CLASSIFICATION, True, "mae_macro", False),
    "D": SubtaskSpec("D", Scale.TWO_POINT, Mode.QUANTIFICATION, True, "kld", False),
    "E": SubtaskSpec("E", Scale.FIVE_POINT, Mode.QUANTIFICATION, True, "emd", False),
}


@dataclass
class ScoreReport:
    subtask: SubtaskSpec
    metrics: dict[str, float]
    per_topic: dict[str, dict[str, float]] = field(default_factory=dict)
    n_topics: int = 0
    warnings: list[str] = field(default_factory=list)
    pooled: dict[str, float] | None = None

    @property
    def primary_value(self) -> float:
        return self.metrics[self.subtask.primary_metric]


def macroaverage(values: Mapping[str, float]) -> float:
    """Unweighted arithmetic mean over topics."""
    if not values:
        raise EmptyInput("cannot macroaverage an empty topic map")
    return sum(values.values()) / len(values)


def _classification_metrics(spec: SubtaskSpec, cm: ConfusionMatrix) -> dict[str, float]:
    if spec.scale is Scale.FIVE_POINT:
        return {
            "mae_macro": ordinal.mae_macro(cm),
            "mae_micro": ordinal.mae_micro(cm),
        }
    return {
        "avgrec": classification.avg_rec(cm),
        "f1_pn": classification.f1_pn(cm),
        "accuracy": classification.accuracy(cm),
    }


def _quantification_metrics(
    spec: SubtaskSpec, pred: Prevalence, true_p: Prevalence, n_test: int
) -> dict[str, float]:
    if spec.scale is Scale.FIVE_POINT:
        return {"emd": quantification.emd(pred, true_p)}
    cfg = quantification.SmoothingConfig.for_test_size(n_test)
    return {
        "kld": quantification.kld(pred, true_p, cfg),
        "ae": quantification.ae(pred, true_p),
        "rae": quantification.rae(pred, true_p, cfg),
    }


def evaluate(
    spec: SubtaskSpec,
    gold: Dataset,
    pred_labels: Dataset | None = None,
    pred_prevalences: Mapping[str, Prevalence] | None = None,
    pooled: bool = False,
) -> ScoreReport:
    if spec.mode is Mode.CLASSIFICATION:
        if pred_labels is None:
            raise EmptyInput(f"subtask {spec.id} requires predicted labels")
        return _evaluate_classification(spec, gold, pred_labels, pooled)
    if pred_prevalences is None:
        raise EmptyInput(f"subtask {spec.id} requires predicted prevalences")
    return _evaluate_quantification(spec, gold, pred_prevalences, pooled)


def _evaluate_classification(
    spec: SubtaskSpec, gold: Dataset, pred: Dataset, pooled: bool
) -> ScoreReport:
    warnings: list[str] = []
    tables, n_ignored = confusion_tables(gold, pred)
    if n_ignored:
        warnings.append(f"{n_ignored} prediction rows not in gold were ignored")
    # the integer sum of the per-topic tables is exactly the pooled table
    k = len(spec.scale.classes)
    zero = ConfusionMatrix(spec.scale, ((0,) * k,) * k)

    if not spec.topic_based:
        table = sum(tables.values(), zero)
        report = ScoreReport(spec, _classification_metrics(spec, table), warnings=warnings)
        _warn_absent_classes(spec, table, None, warnings)
        return report

    if not gold.has_topics:
        raise TopicRequired(f"subtask {spec.id} requires topics in the gold data")
    per_topic: dict[str, dict[str, float]] = {}
    for topic, table in tables.items():
        per_topic[topic] = _classification_metrics(spec, table)
        _warn_absent_classes(spec, table, topic, warnings)
    metrics = {
        name: macroaverage({t: m[name] for t, m in per_topic.items()})
        for name in next(iter(per_topic.values()))
    }
    report = ScoreReport(spec, metrics, per_topic, len(per_topic), warnings)
    if pooled:
        report.pooled = _classification_metrics(spec, sum(tables.values(), zero))
    return report


def _warn_absent_classes(
    spec: SubtaskSpec, cm: ConfusionMatrix, topic: str | None, warnings: list[str]
) -> None:
    absent = classification.absent_classes(cm)
    if absent:
        where = f"topic {topic}" if topic is not None else "gold data"
        names = ", ".join(spec.scale.class_name(c) for c in absent)
        warnings.append(f"{where}: classes absent from gold excluded from macro means: {names}")


def _evaluate_quantification(
    spec: SubtaskSpec,
    gold: Dataset,
    pred_prevalences: Mapping[str, Prevalence],
    pooled: bool,
) -> ScoreReport:
    if not gold.has_topics:
        raise TopicRequired(f"subtask {spec.id} requires topics in the gold data")
    warnings: list[str] = []
    counts_by_topic = topic_class_counts(gold)
    extra = sorted(set(pred_prevalences) - set(counts_by_topic))
    if extra:
        warnings.append(f"predicted topics not in gold were ignored: {', '.join(extra)}")

    per_topic: dict[str, dict[str, float]] = {}
    for topic, counts in counts_by_topic.items():
        if topic not in pred_prevalences:
            raise MissingPrediction(None, topic)
        true_p = Prevalence.from_counts(gold.scale, counts)
        per_topic[topic] = _quantification_metrics(
            spec, pred_prevalences[topic], true_p, sum(counts)
        )
    metrics = {
        name: macroaverage({t: m[name] for t, m in per_topic.items()})
        for name in next(iter(per_topic.values()))
    }
    report = ScoreReport(spec, metrics, per_topic, len(per_topic), warnings)
    if pooled:
        # pooled view: item-weighted mix of per-topic predictions vs. the
        # pooled gold prevalence, epsilon from the total test size
        n_total = len(gold)
        weights = {t: sum(c) / n_total for t, c in counts_by_topic.items()}
        mixed = tuple(
            sum(weights[t] * pred_prevalences[t].fractions[i] for t in counts_by_topic)
            for i in range(len(gold.scale.classes))
        )
        pooled_pred = Prevalence(gold.scale, mixed)
        totals = [sum(col) for col in zip(*counts_by_topic.values())]
        pooled_true = Prevalence.from_counts(gold.scale, totals)
        report.pooled = _quantification_metrics(spec, pooled_pred, pooled_true, n_total)
    return report
