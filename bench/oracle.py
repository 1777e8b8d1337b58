"""Reference results for the benchmark workloads, computed from the
generator's ground truth without importing ``topicsent``.

Classification scores come from per-topic confusion tables, quantification
scores from per-topic class counts, and the near-duplicate reference repeats
the documented greedy rule (drop a record iff its bag-of-words cosine to an
earlier kept record strictly exceeds the threshold; report the earliest such
record) over an inverted index.
"""

from __future__ import annotations

import math
import unicodedata
from collections import Counter, defaultdict

TOLERANCE = 1e-9


# ---------------------------------------------------------------- subtask C

def confusion_tables(gold: list[tuple[str, int]], pred: list[int]) -> dict[str, Counter]:
    """topic -> Counter{(gold, pred): n}."""
    tables: dict[str, Counter] = defaultdict(Counter)
    for (topic, g), p in zip(gold, pred):
        tables[topic][g, p] += 1
    return tables


def mae_scores(table: Counter) -> dict[str, float]:
    """MAE^M (mean over gold classes present of their mean |pred - gold|) and
    MAE^mu (mean |pred - gold| over items) of one confusion table."""
    err_by_gold: Counter = Counter()
    n_by_gold: Counter = Counter()
    for (g, p), n in table.items():
        err_by_gold[g] += abs(p - g) * n
        n_by_gold[g] += n
    per_class = [err_by_gold[g] / n_by_gold[g] for g in sorted(n_by_gold)]
    return {
        "mae_macro": math.fsum(per_class) / len(per_class),
        "mae_micro": sum(err_by_gold.values()) / sum(n_by_gold.values()),
    }


def expected_c(gold: list[tuple[str, int]], pred: list[int]) -> dict:
    tables = confusion_tables(gold, pred)
    per_topic = {t: mae_scores(tables[t]) for t in sorted(tables)}
    pooled = mae_scores(sum(tables.values(), Counter()))
    return {"per_topic": per_topic, "metrics": _macro(per_topic), "pooled": pooled}


# ---------------------------------------------------------------- subtask D

def _smooth(p: list[float], eps: float) -> list[float]:
    return [(x + eps) / (1 + eps * len(p)) for x in p]


def quantification_scores(true_p: list[float], pred_p: list[float], n: int) -> dict[str, float]:
    """KLD and RAE on distributions smoothed with eps = 1/(2n); AE unsmoothed."""
    eps = 1.0 / (2 * n)
    ps, qs = _smooth(true_p, eps), _smooth(pred_p, eps)
    k = len(true_p)
    return {
        "kld": math.fsum(p * math.log(p / q) for p, q in zip(ps, qs)),
        "ae": math.fsum(abs(q - p) for p, q in zip(true_p, pred_p)) / k,
        "rae": math.fsum(abs(q - p) / p for p, q in zip(ps, qs)) / k,
    }


def expected_d(gold: list[tuple[str, int]], prevalences: dict[str, tuple[float, ...]],
               classes: tuple[int, ...] = (-1, 1)) -> dict:
    counts: dict[str, Counter] = defaultdict(Counter)
    for topic, label in gold:
        counts[topic][label] += 1
    per_topic = {}
    for t in sorted(counts):
        n = sum(counts[t].values())
        true_p = [counts[t][c] / n for c in classes]
        per_topic[t] = quantification_scores(true_p, list(prevalences[t]), n)
    n_total = len(gold)
    pooled_true = [sum(counts[t][c] for t in counts) / n_total for c in classes]
    pooled_pred = [
        math.fsum(sum(counts[t].values()) / n_total * prevalences[t][i] for t in counts)
        for i in range(len(classes))
    ]
    pooled = quantification_scores(pooled_true, pooled_pred, n_total)
    return {"per_topic": per_topic, "metrics": _macro(per_topic), "pooled": pooled}


def _macro(per_topic: dict[str, dict[str, float]]) -> dict[str, float]:
    names = next(iter(per_topic.values()))
    return {m: math.fsum(s[m] for s in per_topic.values()) / len(per_topic) for m in names}


def report_mismatches(report: dict, expected: dict, tol: float = TOLERANCE) -> list[str]:
    """Differences between a JSON score report and the expected scores; empty
    when every macro, pooled and per-topic value agrees within ``tol``."""
    problems = []
    if report.get("n_topics") != len(expected["per_topic"]):
        problems.append(f"n_topics {report.get('n_topics')} != {len(expected['per_topic'])}")
    got_topics = report.get("per_topic", {})
    if set(got_topics) != set(expected["per_topic"]):
        problems.append("per-topic keys differ")
        return problems
    pairs = [("metrics", report.get("metrics", {}), expected["metrics"]),
             ("pooled", report.get("pooled", {}), expected["pooled"])]
    pairs += [(f"topic {t}", got_topics[t], want) for t, want in expected["per_topic"].items()]
    for where, got, want in pairs:
        for name, value in want.items():
            if name not in got or not abs(got[name] - value) <= tol:
                problems.append(f"{where}: {name} = {got.get(name)!r}, expected {value!r}")
    return problems


# ---------------------------------------------------------------- dedup

def tokens(text: str) -> Counter:
    """Casefolded whitespace tokens with leading and trailing punctuation
    (Unicode categories P*) stripped; empty tokens dropped."""
    bag: Counter = Counter()
    for raw in text.casefold().split():
        start, end = 0, len(raw)
        while start < end and unicodedata.category(raw[start])[0] == "P":
            start += 1
        while end > start and unicodedata.category(raw[end - 1])[0] == "P":
            end -= 1
        if end > start:
            bag[raw[start:end]] += 1
    return bag


def expected_dedup(records: list[tuple[str, str]], threshold: float) -> tuple[list[int], list[tuple[int, int]]]:
    """Indices of kept records, and (removed, earliest colliding kept) index
    pairs. Candidates come from an inverted index over kept records; the
    similarity is evaluated with the same float operations as a direct scan,
    so every decision is identical to it."""
    kept: list[int] = []
    removed: list[tuple[int, int]] = []
    vectors: dict[int, tuple[Counter, float]] = {}
    postings: dict[str, list[int]] = defaultdict(list)
    for i, (_, text) in enumerate(records):
        vec = tokens(text)
        norm = math.sqrt(sum(c * c for c in vec.values()))
        dots: Counter = Counter()
        for tok, c in vec.items():
            for j in postings.get(tok, ()):
                dots[j] += c * vectors[j][0][tok]
        hit = next((j for j in sorted(dots) if dots[j] / (norm * vectors[j][1]) > threshold), None)
        if hit is None:
            kept.append(i)
            vectors[i] = (vec, norm)
            for tok in vec:
                postings[tok].append(i)
        else:
            removed.append((i, hit))
    return kept, removed
