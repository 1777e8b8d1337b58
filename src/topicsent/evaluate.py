"""Subtask orchestration: picks the metric bundle for each subtask, scores
per topic, macroaverages across topics, and assembles a report.

Subtasks:
  A - 3-point classification over the whole set (no topics)
  B - 2-point classification, per topic
  C - 5-point ordinal classification, per topic
  D - 2-point quantification, per topic
  E - 5-point ordinal quantification, per topic

Every score is a function of per-topic counts: ``classification_report``
takes each topic's gold-by-prediction table (from ``model.join_rows``), and
``quantification_report`` each topic's gold class counts (from
``ingestion.count_labels``) and a topic -> predicted fraction tuple map
(such as a :class:`~topicsent.model.Prevalence` per topic), which it scores
one class column at a time.
Macroaveraging is the unweighted mean across topics. The optional pooled
report treats the whole test set as a single group, which is what
reproduces constant-baseline table values on imbalanced data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from itertools import repeat
from operator import mul, truediv
from typing import Mapping, Sequence

from . import classification, ordinal, quantification
from .errors import EmptyInput, MissingPrediction, ScaleMismatch, TopicRequired
from .model import ConfusionMatrix, Scale


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
    # reported with each score; nothing in the scorer ranks by it
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
    warnings: list[str] = field(default_factory=list)
    pooled: dict[str, float] | None = None


def _mean(values: Sequence[float]) -> float:
    """The unweighted mean over topics; fsum rounds once, so topic order cannot change it."""
    return math.fsum(values) / len(values)


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


def _quantification_columns(
    spec: SubtaskSpec, pred: quantification.Columns, count_columns: Sequence[Sequence[int]]
) -> dict[str, list[float]]:
    """Each metric's per-topic values, from the predicted fraction columns and
    the gold class-count columns; each distribution is smoothed once."""
    sizes = list(quantification.class_sum(count_columns))
    if 0 in sizes:
        raise EmptyInput("cannot compute prevalence of an empty label list")
    true_p = [list(map(truediv, col, sizes)) for col in count_columns]
    if spec.scale is Scale.FIVE_POINT:
        return {"emd": quantification.emd_columns(pred, true_p)}
    eps = list(map(truediv, repeat(1.0), map(mul, repeat(2), sizes)))  # 1 / (2 * |test set|)
    pred_s = quantification.smooth_columns(pred, eps)
    true_s = quantification.smooth_columns(true_p, eps)
    return {
        "kld": quantification.kld_columns(pred_s, true_s),
        "ae": quantification.ae_columns(pred, true_p),
        "rae": quantification.rae_columns(pred_s, true_s),
    }


def _columns(rows: Sequence[Sequence[float]]) -> list[tuple[float, ...]]:
    """The class columns of per-topic rows, which must all have one length."""
    if len(set(map(len, rows))) > 1:
        raise ScaleMismatch("per-topic distributions have different numbers of classes")
    return list(zip(*rows))


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
    names = next(iter(per_topic.values()))
    metrics = {name: _mean([m[name] for m in per_topic.values()]) for name in names}
    report = ScoreReport(spec, metrics, per_topic, warnings)
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
    pred_prevalences: Mapping[str, Sequence[float]],
    pooled: bool,
) -> ScoreReport:
    """Scores a quantification subtask from each topic's gold class counts
    and a topic -> predicted fractions map (scale.classes order), one class
    column at a time."""
    # topics are all-or-none: topicless gold gives one count vector under None
    if not counts or None in counts:
        raise TopicRequired(f"subtask {spec.id} requires topics in the gold data")
    warnings: list[str] = []
    extra = sorted(set(pred_prevalences) - set(counts))
    if extra:
        warnings.append(f"predicted topics not in gold were ignored: {', '.join(extra)}")
    preds = list(map(pred_prevalences.get, counts))
    if None in preds:
        raise MissingPrediction(None, list(counts)[preds.index(None)])

    count_columns, pred_columns = _columns(list(counts.values())), _columns(preds)
    values = _quantification_columns(spec, pred_columns, count_columns)
    rows = map(dict, map(zip, repeat(list(values)), zip(*values.values())))
    per_topic = dict(zip(counts, rows))
    metrics = {name: _mean(col) for name, col in values.items()}
    report = ScoreReport(spec, metrics, per_topic, warnings)
    if pooled:
        # pooled view: item-weighted mix of per-topic predictions vs. the
        # summed gold counts, epsilon from the total test size
        totals = [sum(col) for col in count_columns]
        n_total = sum(totals)
        weights = list(map(truediv, quantification.class_sum(count_columns), repeat(n_total)))
        mixed = [(math.fsum(map(mul, weights, col)),) for col in pred_columns]
        pooled_columns = _quantification_columns(spec, mixed, [(n,) for n in totals])
        report.pooled = {name: col[0] for name, col in pooled_columns.items()}
    return report
