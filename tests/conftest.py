from __future__ import annotations

import io
import math
import unicodedata
from collections import Counter
from functools import reduce
from itertools import accumulate, count
from operator import add
from typing import Iterable, Iterator, Mapping, Sequence

from topicsent.errors import EmptyInput, EmptyText, MalformedLine, MissingPrediction
from topicsent.evaluate import Mode, SubtaskSpec
from topicsent.ingestion import count_labels, join_labels, parse_labels
from topicsent.model import Scale, row_key
from topicsent.quantification import column_metrics

Row = tuple[str, "str | None", int]  # (id, topic, label), topic None without topics
Table = tuple[tuple[int, ...], ...]  # gold-by-prediction counts, as join_labels returns them

_ids = count()


def left_fold(values: Iterable[float]) -> float:
    """``0 + v0 + v1 + ...`` in order, the float sum of Python 3.11; from 3.12
    on, ``sum`` compensates rounding and can return another float."""
    return reduce(add, values, 0)


def one_topic(values: Sequence[float]) -> list[tuple[float]]:
    """One topic's fractions or counts as one-topic class columns."""
    return [(v,) for v in values]


def topic_metrics(scale: Scale, pred: Sequence[float], counts: Sequence[int]) -> dict[str, float]:
    """column_metrics on one topic."""
    return {name: col[0]
            for name, col in column_metrics(scale, one_topic(pred), one_topic(counts)).items()}


def topic_kld(pred: Sequence[float], counts: Sequence[int]) -> float:
    """KLD of predicted fractions against one topic's gold class counts, on
    any class count, each distribution smoothed with eps = 1 / (2 * |topic|)."""
    return topic_metrics(Scale.TWO_POINT, pred, counts)["kld"]


def topic_ae(pred: Sequence[float], counts: Sequence[int]) -> float:
    """AE of predicted fractions against one topic's gold class counts."""
    return topic_metrics(Scale.TWO_POINT, pred, counts)["ae"]


def topic_rae(pred: Sequence[float], counts: Sequence[int]) -> float:
    """RAE of predicted fractions against one topic's gold class counts,
    smoothed as for KLD."""
    return topic_metrics(Scale.TWO_POINT, pred, counts)["rae"]


def topic_emd(pred: Sequence[float], counts: Sequence[int]) -> float:
    """EMD of predicted fractions against one topic's gold class counts."""
    return topic_metrics(Scale.FIVE_POINT, pred, counts)["emd"]


def reference_smooth(p: Sequence[float], eps: float) -> tuple[float, ...]:
    """Additive smoothing, (p(c) + eps) / (1 + eps * |C|), class by class."""
    return tuple((f + eps) / (1.0 + eps * len(p)) for f in p)


def reference_measures(pred: Sequence[float], true_p: Sequence[float], eps: float) -> dict:
    """The measures' formulas on one topic, written out per class, with every
    sum over classes an explicit left fold in class order."""
    k = len(pred)
    ps, ts = reference_smooth(pred, eps), reference_smooth(true_p, eps)
    cum = [abs(q - p) for q, p in zip(accumulate(pred), accumulate(true_p))]
    return {
        "kld": max(0.0, left_fold([p * math.log(p / q) for q, p in zip(ps, ts)])),
        "ae": left_fold([abs(q - p) for q, p in zip(pred, true_p)]) / k,
        "rae": left_fold([abs(q - p) / p for q, p in zip(ps, ts)]) / k,
        "emd": left_fold(cum[:-1]),
    }


def reference_metrics(scale: Scale, pred: Sequence[float], counts: Sequence[int]) -> dict:
    """The scale's bundle of reference_measures for predicted fractions
    against one topic's gold class counts, eps = 1 / (2 * |topic|): ``emd``
    on the five-point scale, else ``kld``, ``ae`` and ``rae``."""
    n = sum(counts)
    measures = reference_measures(pred, [c / n for c in counts], 1 / (2 * n))
    names = ["emd"] if scale is Scale.FIVE_POINT else ["kld", "ae", "rae"]
    return {name: measures[name] for name in names}


def reference_recall(scale: Scale, counts: Table, c: int) -> float | None:
    """Recall of class c, TP / (TP + FN): None when gold has no c."""
    classes = scale.classes
    tp = counts[classes.index(c)][classes.index(c)]
    fn = sum(n for p, n in zip(classes, counts[classes.index(c)]) if p != c)
    return tp / (tp + fn) if tp + fn else None


def reference_f1(scale: Scale, counts: Table, c: int) -> float:
    """F1 of class c from precision TP / (TP + FP) and recall, either 0 when
    its denominator is; 0 when both are 0."""
    classes = scale.classes
    tp = counts[classes.index(c)][classes.index(c)]
    fp = sum(row[classes.index(c)] for g, row in zip(classes, counts) if g != c)
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = reference_recall(scale, counts, c) or 0.0
    if precision + recall == 0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


def reference_avg_rec(scale: Scale, counts: Table) -> float:
    """Mean recall over the classes in gold, on any scale."""
    recalls = [r for r in (reference_recall(scale, counts, c) for c in scale.classes)
               if r is not None]
    return left_fold(recalls) / len(recalls)


def reference_table_metrics(scale: Scale, counts: Table) -> dict[str, float]:
    """The SemEval-2016 Task 4 measures of one table, from their per-class
    definitions, with every sum over classes a left fold in class order:
    AvgRec (mean recall over the classes in gold), F1_PN (mean F1 of +1 and
    -1) and accuracy, or on the five-point scale MAE^M (mean over the classes
    in gold of the class's mean |pred - gold|) and MAE^mu (mean |pred - gold|
    over items)."""
    classes = scale.classes
    n_items = left_fold(map(left_fold, counts))
    if not n_items:
        raise EmptyInput("no gold/prediction pairs to score")
    if scale is Scale.FIVE_POINT:
        cost = [[n * abs(p - g) for p, n in zip(classes, row)] for g, row in zip(classes, counts)]
        class_mae = [left_fold(err) / left_fold(row)
                     for err, row in zip(cost, counts) if left_fold(row)]
        return {
            "mae_macro": left_fold(class_mae) / len(class_mae),
            "mae_micro": left_fold(map(left_fold, cost)) / n_items,
        }
    return {
        "avgrec": reference_avg_rec(scale, counts),
        "f1_pn": (reference_f1(scale, counts, 1) + reference_f1(scale, counts, -1)) / 2,
        "accuracy": left_fold(counts[i][i] for i in range(len(classes))) / n_items,
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
    """The rows of a label file as parse_labels reads them, each with its class
    index in place of its label: grouped by topic, topics and ids in file order."""
    gold = parse_labels(io.StringIO(text), spec)
    return [(item_id, t, c) for t, ids in gold.items() for item_id, c in ids.items()]


def class_counts(scale: Scale, rows: list[Row]) -> dict[str | None, tuple[int, ...]]:
    """count_labels of the rows' label file."""
    return count_labels(io.StringIO(label_text(rows)), spec_for(scale, rows))


def join(scale: Scale, gold: list[Row], pred: list[Row]) -> tuple[dict[str | None, Table], int]:
    """The join of two label files, as ``score`` reads them: gold through
    parse_labels, the predictions streamed through join_labels."""
    spec = spec_for(scale, gold, pred)
    gold_labels = parse_labels(io.StringIO(label_text(gold)), spec)
    return join_labels(io.StringIO(label_text(pred)), spec, gold_labels)


def table(scale: Scale, gold_pred: Iterable[tuple[int, int]]) -> Table:
    """The gold-by-prediction table of (gold, pred) label pairs."""
    n = Counter(gold_pred)
    return tuple(tuple(n[g, p] for p in scale.classes) for g in scale.classes)


def joined(scale: Scale, gold: list[Row], pred: list[Row] | None = None) -> Table:
    """The table of single-topic (or topicless) gold joined with pred, by
    default with gold itself."""
    (counts,) = join(scale, gold, gold if pred is None else pred)[0].values()
    return counts


def constant_predictions(gold: list[Row], pred_class: int) -> list[Row]:
    """Per-row reference for constant_classifier: a prediction of pred_class
    for every gold item."""
    return [(item_id, topic, pred_class) for item_id, topic, _ in gold]


def constant_table(scale: Scale, gold: list[Row], pred_class: int) -> Table:
    """Gold joined with an all-pred_class prediction."""
    return joined(scale, gold, constant_predictions(gold, pred_class))


def reference_join(
    scale: Scale, gold: list[Row], pred: list[Row]
) -> tuple[dict[str | None, Table], int]:
    """Per-row reference for the join: each gold row finds its prediction by
    a scan over the prediction rows, and each topic's (gold, pred) pairs make
    its table. Also counts the prediction rows whose (id, topic) no gold row
    has. Of the gold rows without a prediction, the one of least (topic, id)
    raises MissingPrediction."""
    pairs: dict[str | None, list[tuple[int, int]]] = {}
    missing = []
    for gold_id, gold_topic, gold_label in gold:
        matches = [p for i, t, p in pred if (i, t) == (gold_id, gold_topic)]
        if not matches:
            missing.append((gold_topic, gold_id))
            continue
        (pred_label,) = matches
        pairs.setdefault(gold_topic, []).append((gold_label, pred_label))
    if missing:
        topic, item_id = min(missing)
        raise MissingPrediction(item_id, topic)
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


def loop_tokenize(text: str) -> list[str]:
    """Reference tokenizer, one character at a time: casefold, split on
    whitespace, then drop Unicode punctuation (category P) from both ends."""
    tokens = []
    for raw in text.casefold().split():
        start, end = 0, len(raw)
        while start < end and unicodedata.category(raw[start]).startswith("P"):
            start += 1
        while end > start and unicodedata.category(raw[end - 1]).startswith("P"):
            end -= 1
        if end > start:
            tokens.append(raw[start:end])
    return tokens


def reference_label_rows(
    stream: Iterable[str], spec: SubtaskSpec
) -> Iterator[tuple[int, str, str | None, int]]:
    """Per-row reference reader of a label file: yields each row as ``(line,
    id, topic, label)``, checking every row in full. Each line loses its
    trailing "\\r" and "\\n" and is skipped if nothing is left; then it needs
    at least 3 tab-separated fields, a non-empty id, a non-blank topic field
    that is NA exactly when the subtask has no topics, and a label on the
    scale, in that order."""
    for n, line in enumerate(stream, start=1):
        line = line.rstrip("\r\n")
        if not line:
            continue
        fields = line.split("\t")
        if len(fields) < 3:
            raise MalformedLine("expected at least 3 tab-separated fields", line=n)
        item_id, text = fields[0].strip(), fields[1].strip()
        if not item_id:
            raise MalformedLine("empty id field", line=n)
        if not text:
            raise MalformedLine("empty topic field", line=n)
        topic = None if text == "NA" else text
        if spec.topic_based and topic is None:
            raise MalformedLine(f"subtask {spec.id} requires a topic, got NA", line=n)
        if not spec.topic_based and topic is not None:
            raise MalformedLine(f"subtask {spec.id} expects topic NA", line=n)
        yield n, item_id, topic, spec.scale.parse_label(fields[2], line=n)


Record = tuple[str, str, str]  # (id, text, output line), as parse_raw_records returns


def reference_dedup(
    records: list[Record], threshold: float = 0.6
) -> tuple[list[Record], list[tuple[Record, Record]]]:
    """Pairwise reference for dedup: each record is compared with every kept
    record in order, and is removed with the first one whose cosine strictly
    exceeds the threshold."""
    kept: list[Record] = []
    kept_vecs: list[tuple[Counter, float]] = []
    removed: list[tuple[Record, Record]] = []
    for rec in records:
        item_id, text, _ = rec
        vec = Counter(loop_tokenize(text))
        if not vec:
            raise EmptyText(f"record {item_id} has no tokens")
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
