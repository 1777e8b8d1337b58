"""Subtask orchestration: picks the metric bundle for each subtask, scores
per topic, macroaverages across topics, and assembles a report.

Subtasks:
  A - 3-point classification over the whole set (no topics)
  B - 2-point classification, per topic
  C - 5-point ordinal classification, per topic
  D - 2-point quantification, per topic
  E - 5-point ordinal quantification, per topic

Every score is a function of per-topic counts: ``classification_report``
takes each topic's gold-by-prediction table, and ``quantification_report``
each topic's gold class counts and a topic -> predicted Prevalence map;
``evaluate`` reduces a gold Dataset, and predicted labels, to those counts.
Macroaveraging is the unweighted mean across topics. The optional pooled
report treats the whole test set as a single group, which is what
reproduces constant-baseline table values on imbalanced data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping, Sequence

from . import classification, model, ordinal, quantification
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
    """Unweighted arithmetic mean over topics; the sum is correctly rounded,
    so topic order cannot change it."""
    if not values:
        raise EmptyInput("cannot macroaverage an empty topic map")
    return math.fsum(values.values()) / len(values)


def _macroaverage_metrics(per_topic: Mapping[str, Mapping[str, float]]) -> dict[str, float]:
    """Each metric's macroaverage over the topics, in the metrics' own order."""
    return {
        name: macroaverage({t: m[name] for t, m in per_topic.items()})
        for name in next(iter(per_topic.values()))
    }


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
    spec: SubtaskSpec, pred: Sequence[float], counts: Sequence[int]
) -> dict[str, float]:
    """Scores predicted fractions against gold class counts."""
    true_p = model.class_fractions(counts)
    if spec.scale is Scale.FIVE_POINT:
        return {"emd": quantification.emd(pred, true_p)}
    eps = 1.0 / (2 * sum(counts))  # the conventional 1 / (2 * |test set|)
    return {
        "kld": quantification.kld(pred, true_p, eps),
        "ae": quantification.ae(pred, true_p),
        "rae": quantification.rae(pred, true_p, eps),
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
        return classification_report(spec, *confusion_tables(gold, pred_labels), pooled)
    if pred_prevalences is None:
        raise EmptyInput(f"subtask {spec.id} requires predicted prevalences")
    return quantification_report(spec, topic_class_counts(gold), pred_prevalences, pooled)


def classification_report(
    spec: SubtaskSpec,
    tables: Mapping[str | None, ConfusionMatrix],
    n_ignored: int,
    pooled: bool,
) -> ScoreReport:
    """Scores a classification subtask from the per-topic confusion tables
    of a join and its count of ignored prediction rows."""
    warnings: list[str] = []
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

    # topics are all-or-none: a topicless gold set gives one table under None
    if not tables or None in tables:
        raise TopicRequired(f"subtask {spec.id} requires topics in the gold data")
    per_topic: dict[str, dict[str, float]] = {}
    for topic, table in tables.items():
        per_topic[topic] = _classification_metrics(spec, table)
        _warn_absent_classes(spec, table, topic, warnings)
    metrics = _macroaverage_metrics(per_topic)
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


def quantification_report(
    spec: SubtaskSpec,
    counts: Mapping[str | None, Sequence[int]],
    pred_prevalences: Mapping[str, Prevalence],
    pooled: bool,
) -> ScoreReport:
    """Scores a quantification subtask from each topic's gold class counts
    and a topic -> predicted Prevalence map."""
    # topics are all-or-none: topicless gold gives one count vector under None
    if not counts or None in counts:
        raise TopicRequired(f"subtask {spec.id} requires topics in the gold data")
    warnings: list[str] = []
    extra = sorted(set(pred_prevalences) - set(counts))
    if extra:
        warnings.append(f"predicted topics not in gold were ignored: {', '.join(extra)}")

    per_topic: dict[str, dict[str, float]] = {}
    for topic, row in counts.items():
        if topic not in pred_prevalences:
            raise MissingPrediction(None, topic)
        per_topic[topic] = _quantification_metrics(spec, pred_prevalences[topic].fractions, row)
    metrics = _macroaverage_metrics(per_topic)
    report = ScoreReport(spec, metrics, per_topic, len(per_topic), warnings)
    if pooled:
        # pooled view: item-weighted mix of per-topic predictions vs. the
        # summed gold counts, epsilon from the total test size
        totals = [sum(col) for col in zip(*counts.values())]
        n_total = sum(totals)
        weights = {t: sum(row) / n_total for t, row in counts.items()}
        mixed = [
            math.fsum(weights[t] * pred_prevalences[t].fractions[i] for t in counts)
            for i in range(len(totals))
        ]
        report.pooled = _quantification_metrics(spec, mixed, totals)
    return report
