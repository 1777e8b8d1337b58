from __future__ import annotations

import math
from collections import Counter
from itertools import count
from typing import Iterable, Mapping

from topicsent.errors import EmptyText, MissingPrediction
from topicsent.ingestion import RawTweetRecord, tokenize
from topicsent.model import ConfusionMatrix, Dataset, Scale, confusion_tables

_ids = count()


def dataset_from_counts(
    scale: Scale, counts: Mapping[int, int], topic: str | None = None
) -> Dataset:
    """A synthetic dataset with the given per-class gold counts."""
    return Dataset.build(
        scale, [(f"t{next(_ids)}", topic, cls) for cls, n in counts.items() for _ in range(n)]
    )


def rows(*datasets: Dataset) -> list[tuple[str, str | None, int]]:
    """The (id, topic, label) rows of the datasets, one after another."""
    return [(i, t, label) for d in datasets for (i, t), label in d.labels.items()]


def table(scale: Scale, gold_pred: Iterable[tuple[int, int]]) -> ConfusionMatrix:
    """The confusion matrix of (gold, pred) label pairs."""
    n = Counter(gold_pred)
    return ConfusionMatrix(
        scale, tuple(tuple(n[g, p] for p in scale.classes) for g in scale.classes)
    )


def joined(gold: Dataset, pred: Dataset) -> ConfusionMatrix:
    """The confusion matrix of single-topic (or topicless) gold joined with pred."""
    (cm,) = confusion_tables(gold, pred)[0].values()
    return cm


def constant_predictions(gold: Dataset, pred_class: int) -> Dataset:
    """Per-row reference for constant_classifier: a prediction of pred_class
    for every gold item."""
    return Dataset(gold.scale, dict.fromkeys(gold.labels, pred_class))


def constant_table(gold: Dataset, pred_class: int) -> ConfusionMatrix:
    """Gold joined with an all-pred_class prediction."""
    return joined(gold, constant_predictions(gold, pred_class))


def reference_join(
    gold: Dataset, pred: Dataset
) -> tuple[dict[str | None, ConfusionMatrix], int]:
    """Per-row reference for confusion_tables: each gold row finds its
    prediction by a scan over the prediction rows, and each topic's (gold,
    pred) pairs make its table. Also counts the prediction rows whose
    (id, topic) no gold row has. The first gold row, in input order,
    without a prediction raises MissingPrediction."""
    pairs: dict[str | None, list[tuple[int, int]]] = {}
    for gold_id, gold_topic, gold_label in rows(gold):
        matches = [p for i, t, p in rows(pred) if (i, t) == (gold_id, gold_topic)]
        if not matches:
            raise MissingPrediction(gold_id, gold_topic)
        (pred_label,) = matches
        pairs.setdefault(gold_topic, []).append((gold_label, pred_label))
    gold_keys = [(i, t) for i, t, _ in rows(gold)]
    ignored = sum((i, t) not in gold_keys for i, t, _ in rows(pred))
    return {t: table(gold.scale, pairs[t]) for t in sorted(pairs)}, ignored


def reference_class_counts(data: Dataset) -> dict[str, tuple[int, ...]]:
    """Per-row reference for topic_class_counts: each topic's count of every
    scale class, topics sorted; data without topics is keyed under None."""
    topics = sorted({t for _, t, _ in rows(data)})
    return {
        topic: tuple(
            sum(1 for _, t, label in rows(data) if t == topic and label == c)
            for c in data.scale.classes
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
