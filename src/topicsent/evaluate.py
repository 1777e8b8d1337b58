"""Subtask orchestration: scores each subtask per topic, macroaverages
across topics, and assembles a report.

Subtasks:
  A - 3-point classification over the whole set (no topics)
  B - 2-point classification, per topic
  C - 5-point ordinal classification, per topic
  D - 2-point quantification, per topic
  E - 5-point ordinal quantification, per topic

Every score is a function of per-topic counts, held as plain tuples:
``classification_report`` takes each topic's gold-by-prediction table (from
``ingestion.join_labels``) and scores it with
``classification.table_metrics``, and
``quantification_report`` each topic's gold class counts (from
``ingestion.count_labels``) and a topic -> predicted fraction tuple map
(such as a :class:`~topicsent.model.Prevalence` per topic), which it scores
one class column at a time with ``quantification.column_metrics``.
Macroaveraging is the unweighted mean across topics; subtask A is one
topicless table, scored as one topic, and reports no per-topic block. The
optional pooled report treats the whole test set as a single group, which
reproduces constant-baseline table values on imbalanced data; A is one
group already, so it has no pooled report. A report is an immutable
:class:`ScoreReport`, built once.
"""

from __future__ import annotations

import math
from enum import Enum
from itertools import repeat
from operator import mul, truediv
from typing import Mapping, NamedTuple, Sequence

from .classification import table_metrics
from .errors import EmptyInput, MissingPrediction, ScaleMismatch, TopicRequired
from .model import Scale
from .quantification import column_metrics


class Mode(Enum):
    CLASSIFICATION = "classification"
    QUANTIFICATION = "quantification"


class SubtaskSpec(NamedTuple):
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


class ScoreReport(NamedTuple):
    subtask: SubtaskSpec
    metrics: dict[str, float]
    per_topic: dict[str, dict[str, float]]  # empty on subtask A
    warnings: Sequence[str] = ()
    pooled: dict[str, float] | None = None


def _mean(values: Sequence[float]) -> float:
    """The unweighted mean over topics; fsum rounds once, so topic order cannot change it."""
    return math.fsum(values) / len(values)


def _columns(rows: Sequence[Sequence[float]]) -> list[tuple[float, ...]]:
    """The class columns of per-topic rows, which must all have one length."""
    if len(set(map(len, rows))) > 1:
        raise ScaleMismatch("per-topic distributions have different numbers of classes")
    return list(zip(*rows))


def classification_report(
    spec: SubtaskSpec,
    tables: Mapping[str | None, Sequence[Sequence[int]]],
    n_ignored: int,
    pooled: bool,
) -> ScoreReport:
    """Scores a classification subtask from the per-topic gold-by-prediction
    tables of a join and its count of ignored prediction rows. Subtask A is
    its one topicless table, under the key None, scored as a topic is."""
    warnings: list[str] = []
    if n_ignored:
        warnings.append(f"{n_ignored} prediction rows not in gold were ignored")
    if not tables:
        raise EmptyInput("no gold/prediction pairs to score")
    # topics are all-or-none: a topicless gold set gives one table under None
    if spec.topic_based and None in tables:
        raise TopicRequired(f"subtask {spec.id} requires topics in the gold data")
    per_topic: dict[str, dict[str, float]] = {}
    for topic, counts in tables.items():
        per_topic[topic] = table_metrics(spec.scale, counts)
        absent = [c for c, row in zip(spec.scale.classes, counts) if not any(row)]
        if absent:
            loc = "gold data" if topic is None else f"topic {topic}"
            names = ", ".join(map(spec.scale.class_name, absent))
            warnings.append(f"{loc}: classes absent from gold excluded from macro means: {names}")
    first = next(iter(per_topic.values()))
    metrics = {name: _mean([m[name] for m in per_topic.values()]) for name in first}
    if not spec.topic_based:
        return ScoreReport(spec, metrics, {}, warnings)
    # the cell-wise integer sum of the per-topic tables is exactly the pooled table
    total = tuple(tuple(map(sum, zip(*rows))) for rows in zip(*tables.values()))
    return ScoreReport(spec, metrics, per_topic, warnings,
                       table_metrics(spec.scale, total) if pooled else None)


def quantification_report(
    spec: SubtaskSpec,
    counts: Mapping[str | None, Sequence[int]],
    pred_prevalences: Mapping[str, Sequence[float]],
    pooled: bool,
) -> ScoreReport:
    """Scores a quantification subtask from each topic's gold class counts
    and a topic -> predicted fractions map (scale.classes order), one class
    column at a time."""
    if not counts:
        raise EmptyInput("no gold/prediction pairs to score")
    # topics are all-or-none: topicless gold gives one count vector under None
    if None in counts:
        raise TopicRequired(f"subtask {spec.id} requires topics in the gold data")
    warnings: list[str] = []
    extra = sorted(set(pred_prevalences) - set(counts))
    if extra:
        warnings.append(f"predicted topics not in gold were ignored: {', '.join(extra)}")
    preds = list(map(pred_prevalences.get, counts))
    if None in preds:
        raise MissingPrediction(None, list(counts)[preds.index(None)])

    count_columns, pred_columns = _columns(list(counts.values())), _columns(preds)
    values = column_metrics(spec.scale, pred_columns, count_columns)
    rows = map(dict, map(zip, repeat(list(values)), zip(*values.values())))
    per_topic = dict(zip(counts, rows))
    metrics = {name: _mean(col) for name, col in values.items()}
    pooled_metrics = None
    if pooled:
        # pooled view: item-weighted mix of per-topic predictions vs. the
        # summed gold counts, epsilon from the total test size
        totals = [sum(col) for col in count_columns]
        n_total = sum(totals)
        weights = list(map(truediv, map(sum, counts.values()), repeat(n_total)))
        mixed = [(math.fsum(map(mul, weights, col)),) for col in pred_columns]
        pooled_columns = column_metrics(spec.scale, mixed, [(n,) for n in totals])
        pooled_metrics = {name: col[0] for name, col in pooled_columns.items()}
    return ScoreReport(spec, metrics, per_topic, warnings, pooled_metrics)
