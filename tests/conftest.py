from __future__ import annotations

import io
import math
from collections import Counter
from functools import reduce
from itertools import accumulate, count
from operator import add
from typing import Iterable, Mapping, Sequence

from topicsent.errors import EmptyText, MissingPrediction
from topicsent.evaluate import Mode, SubtaskSpec
from topicsent.ingestion import RawTweetRecord, count_labels, label_rows, parse_labels, tokenize
from topicsent.model import ConfusionMatrix, Scale, join_rows, key_fields, row_key
from topicsent.quantification import (ae_columns, emd_columns, kld_columns, rae_columns,
                                      smooth_columns)

Row = tuple[str, "str | None", int]  # (id, topic, label), topic None without topics

_ids = count()


def left_fold(values: Iterable[float]) -> float:
    """``0 + v0 + v1 + ...`` in order, the float sum of Python 3.11; from 3.12
    on, ``sum`` compensates rounding and can return another float."""
    return reduce(add, values, 0)


def one_topic(p: Sequence[float]) -> list[tuple[float]]:
    """One distribution as one-topic class columns."""
    return [(f,) for f in p]


def topic_smooth(p: Sequence[float], eps: float) -> tuple[float, ...]:
    """smooth_columns on one topic."""
    return tuple(col[0] for col in smooth_columns(one_topic(p), (eps,)))


def topic_kld(pred: Sequence[float], true_p: Sequence[float], eps: float) -> float:
    """kld_columns on one topic, each distribution smoothed by smooth_columns."""
    return kld_columns(smooth_columns(one_topic(pred), (eps,)),
                       smooth_columns(one_topic(true_p), (eps,)))[0]


def topic_ae(pred: Sequence[float], true_p: Sequence[float]) -> float:
    """ae_columns on one topic."""
    return ae_columns(one_topic(pred), one_topic(true_p))[0]


def topic_rae(pred: Sequence[float], true_p: Sequence[float], eps: float) -> float:
    """rae_columns on one topic, each distribution smoothed by smooth_columns."""
    return rae_columns(smooth_columns(one_topic(pred), (eps,)),
                       smooth_columns(one_topic(true_p), (eps,)))[0]


def topic_emd(pred: Sequence[float], true_p: Sequence[float]) -> float:
    """emd_columns on one topic."""
    return emd_columns(one_topic(pred), one_topic(true_p))[0]


def reference_measures(pred: Sequence[float], true_p: Sequence[float], eps: float) -> dict:
    """The measures' formulas on one topic, written out per class, with every
    sum over classes an explicit left fold in class order."""
    k = len(pred)
    ps = [(f + eps) / (1.0 + eps * k) for f in pred]
    ts = [(f + eps) / (1.0 + eps * k) for f in true_p]
    cum = [abs(q - p) for q, p in zip(accumulate(pred), accumulate(true_p))]
    return {
        "kld": max(0.0, left_fold([p * math.log(p / q) for q, p in zip(ps, ts)])),
        "ae": left_fold([abs(q - p) for q, p in zip(pred, true_p)]) / k,
        "rae": left_fold([abs(q - p) / p for q, p in zip(ps, ts)]) / k,
        "emd": left_fold(cum[:-1]),
    }


def rows_from_counts(counts: Mapping[int, int], topic: str | None = None) -> list[Row]:
    """Synthetic rows, each with a fresh id, with the given per-class gold counts."""
    return [(f"t{next(_ids)}", topic, cls) for cls, n in counts.items() for _ in range(n)]


def label_text(rows: Iterable[Row]) -> str:
    """A label file holding the rows, with NA for no topic."""
    return "".join(f"{row_key(item_id, topic)}\t{label}\n" for item_id, topic, label in rows)


def spec_for(scale: Scale, *rows: Iterable[Row]) -> SubtaskSpec:
    """A classification subtask on the scale, topic-based iff a row has a topic."""
    topic_based = any(t is not None for part in rows for _, t, _ in part)
    return SubtaskSpec("test", scale, Mode.CLASSIFICATION, topic_based, "avgrec", True)


def parsed_rows(text: str, spec: SubtaskSpec) -> list[Row]:
    """The rows of a label file, as parse_labels reads them."""
    return [(*key_fields(key), label) for key, label in parse_labels(io.StringIO(text), spec).items()]


def class_counts(scale: Scale, rows: list[Row]) -> dict[str | None, tuple[int, ...]]:
    """count_labels of the rows' label file."""
    return count_labels(io.StringIO(label_text(rows)), spec_for(scale, rows))


def join(
    scale: Scale, gold: list[Row], pred: list[Row]
) -> tuple[dict[str | None, ConfusionMatrix], int]:
    """The join of two label files, as ``score`` reads them: gold through
    parse_labels, the predictions streamed through label_rows."""
    spec = spec_for(scale, gold, pred)
    gold_labels = parse_labels(io.StringIO(label_text(gold)), spec)
    return join_rows(scale, gold_labels, label_rows(io.StringIO(label_text(pred)), spec))


def table(scale: Scale, gold_pred: Iterable[tuple[int, int]]) -> ConfusionMatrix:
    """The confusion matrix of (gold, pred) label pairs."""
    n = Counter(gold_pred)
    return ConfusionMatrix(
        scale, tuple(tuple(n[g, p] for p in scale.classes) for g in scale.classes)
    )


def joined(scale: Scale, gold: list[Row], pred: list[Row] | None = None) -> ConfusionMatrix:
    """The confusion matrix of single-topic (or topicless) gold joined with
    pred, by default with gold itself."""
    (cm,) = join(scale, gold, gold if pred is None else pred)[0].values()
    return cm


def constant_predictions(gold: list[Row], pred_class: int) -> list[Row]:
    """Per-row reference for constant_classifier: a prediction of pred_class
    for every gold item."""
    return [(item_id, topic, pred_class) for item_id, topic, _ in gold]


def constant_table(scale: Scale, gold: list[Row], pred_class: int) -> ConfusionMatrix:
    """Gold joined with an all-pred_class prediction."""
    return joined(scale, gold, constant_predictions(gold, pred_class))


def reference_join(
    scale: Scale, gold: list[Row], pred: list[Row]
) -> tuple[dict[str | None, ConfusionMatrix], int]:
    """Per-row reference for the join: each gold row finds its prediction by
    a scan over the prediction rows, and each topic's (gold, pred) pairs make
    its table. Also counts the prediction rows whose (id, topic) no gold row
    has. The first gold row, in input order, without a prediction raises
    MissingPrediction."""
    pairs: dict[str | None, list[tuple[int, int]]] = {}
    for gold_id, gold_topic, gold_label in gold:
        matches = [p for i, t, p in pred if (i, t) == (gold_id, gold_topic)]
        if not matches:
            raise MissingPrediction(gold_id, gold_topic)
        (pred_label,) = matches
        pairs.setdefault(gold_topic, []).append((gold_label, pred_label))
    gold_keys = [(i, t) for i, t, _ in gold]
    ignored = sum((i, t) not in gold_keys for i, t, _ in pred)
    return {t: table(scale, pairs[t]) for t in sorted(pairs)}, ignored


def reference_class_counts(scale: Scale, rows: list[Row]) -> dict[str | None, tuple[int, ...]]:
    """Per-row reference for count_labels: each topic's count of every
    scale class, topics sorted; data without topics is keyed under None."""
    topics = sorted({t for _, t, _ in rows})
    return {
        topic: tuple(
            sum(1 for _, t, label in rows if t == topic and label == c) for c in scale.classes
        )
        for topic in topics
    }


def bow_cosine(a: str, b: str) -> float:
    """Cosine similarity of two texts' term-frequency vectors."""
    va, vb = Counter(tokenize(a)), Counter(tokenize(b))
    if not va or not vb:
        raise EmptyText("text has no tokens")
    dot = sum(va[t] * vb[t] for t in va.keys() & vb.keys())
    norm = math.sqrt(sum(c * c for c in va.values())) * math.sqrt(
        sum(c * c for c in vb.values())
    )
    return dot / norm


def reference_dedup(
    records: list[RawTweetRecord], threshold: float = 0.6
) -> tuple[list[RawTweetRecord], list[tuple[RawTweetRecord, RawTweetRecord]]]:
    """Pairwise reference for dedup: each record is compared with every kept
    record in order, and is removed with the first one whose cosine strictly
    exceeds the threshold."""
    kept: list[RawTweetRecord] = []
    kept_vecs: list[tuple[Counter, float]] = []
    removed: list[tuple[RawTweetRecord, RawTweetRecord]] = []
    for rec in records:
        vec = Counter(tokenize(rec.text))
        if not vec:
            raise EmptyText(f"record {rec.id} has no tokens")
        norm = math.sqrt(sum(c * c for c in vec.values()))
        collided = None
        for other, (ovec, onorm) in zip(kept, kept_vecs):
            dot = sum(vec[t] * ovec[t] for t in vec.keys() & ovec.keys())
            if dot / (norm * onorm) > threshold:
                collided = other
                break
        if collided is None:
            kept.append(rec)
            kept_vecs.append((vec, norm))
        else:
            removed.append((rec, collided))
    return kept, removed
