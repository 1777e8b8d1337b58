"""Acceptance suite: one test per criterion, each printing a PASS line.

Fixture datasets are generated from the published per-class test-set counts;
scores must match the published baseline table rows to 3 decimals (rounding
half away from zero).
"""

import io
import json
import math
import os
import random
import subprocess
import sys
import time
from itertools import product

import pytest

import topicsent
from conftest import (
    class_counts,
    constant_predictions,
    constant_table,
    join,
    label_text,
    reference_avg_rec,
    reference_f1,
    rows_from_counts,
    table,
    topic_emd,
    topic_kld,
)
from topicsent.annotation import consolidate_labels
from topicsent.classification import table_metrics
from topicsent.cli import round_display
from topicsent.evaluate import SUBTASKS, classification_report
from topicsent.model import Scale, class_fractions

EN_TEST_A = {1: 2375, 0: 5937, -1: 3972}
AR_TEST_A = {1: 1514, 0: 2364, -1: 2222}
EN_TEST_B = {1: 2463, -1: 3722}
AR_TEST_B = {1: 1561, -1: 1196}
EN_TEST_C = {2: 131, 1: 2332, 0: 6194, -1: 3545, -2: 177}
AR_TEST_C = {2: 13, 1: 1548, 0: 3343, -1: 1175, -2: 21}


def score_a(counts, pred_class):
    gold = rows_from_counts(counts)
    tables, n_ignored = join(Scale.THREE_POINT, gold, constant_predictions(gold, pred_class))
    r = classification_report(SUBTASKS["A"], tables, n_ignored, False)
    return tuple(round_display(r.metrics[k]) for k in ("avgrec", "f1_pn", "accuracy"))


def test_criterion_1_subtask_a_english_baselines():
    start = time.monotonic()
    assert score_a(EN_TEST_A, 1) == (0.333, 0.162, 0.193)
    assert score_a(EN_TEST_A, -1) == (0.333, 0.244, 0.323)
    assert score_a(EN_TEST_A, 0) == (0.333, 0.000, 0.483)
    assert time.monotonic() - start < 1.0
    print("ACCEPTANCE 1 PASS: subtask A English baseline rows, < 1 s")


def test_criterion_2_subtask_a_arabic_baselines():
    assert score_a(AR_TEST_A, 1) == (0.333, 0.199, 0.248)
    assert score_a(AR_TEST_A, -1) == (0.333, 0.267, 0.364)
    assert score_a(AR_TEST_A, 0) == (0.333, 0.000, 0.388)
    print("ACCEPTANCE 2 PASS: subtask A Arabic baseline rows")


def test_criterion_3_subtask_b_pooled_baselines():
    def pooled_b(counts, pred_class):
        gold = rows_from_counts(counts)
        metrics = table_metrics(Scale.TWO_POINT, constant_table(Scale.TWO_POINT, gold, pred_class))
        return tuple(round_display(metrics[k]) for k in ("avgrec", "f1_pn", "accuracy"))

    assert pooled_b(EN_TEST_B, -1) == (0.500, 0.376, 0.602)
    assert pooled_b(AR_TEST_B, 1) == (0.500, 0.362, 0.566)
    assert pooled_b(AR_TEST_B, -1) == (0.500, 0.303, 0.434)
    print("ACCEPTANCE 3 PASS: subtask B pooled baseline rows")


def test_criterion_4_subtask_c_baselines():
    expected_macro = {-2: 2.000, -1: 1.400, 0: 1.200, 1: 1.400, 2: 2.000}
    expected_micro_en = {-2: 1.895, -1: 0.923, 0: 0.525, 1: 1.127, 2: 2.105}
    expected_micro_ar = {-2: 2.059, -1: 1.065, 0: 0.458, 1: 0.946, 2: 1.941}
    for counts, expected_micro in [(EN_TEST_C, expected_micro_en), (AR_TEST_C, expected_micro_ar)]:
        gold = rows_from_counts(counts)
        for c in Scale.FIVE_POINT.classes:
            metrics = table_metrics(Scale.FIVE_POINT, constant_table(Scale.FIVE_POINT, gold, c))
            assert round_display(metrics["mae_macro"]) == expected_macro[c]
            assert round_display(metrics["mae_micro"]) == expected_micro[c]
    print("ACCEPTANCE 4 PASS: subtask C constant baselines, both languages")


def _random_prev(rng, k):
    raw = [rng.random() + 1e-9 for _ in range(k)]
    total = sum(raw)
    return tuple(x / total for x in raw)


def _random_counts(rng, k):
    """The gold class counts of a topic of 1 to 200 items of random classes."""
    counts = [0] * k
    for c in rng.choices(range(k), k=rng.randint(1, 200)):
        counts[c] += 1
    return tuple(counts)


def _greedy_transport_cost(supply, demand):
    """Independent min-cost transport oracle for ordered bins with |i-j|
    cost: the north-west-corner rule, optimal because the cost matrix has
    the Monge property."""
    supply, demand = list(supply), list(demand)
    i = j = 0
    cost = 0.0
    while i < len(supply) and j < len(demand):
        moved = min(supply[i], demand[j])
        cost += moved * abs(i - j)
        supply[i] -= moved
        demand[j] -= moved
        if supply[i] <= demand[j]:
            i += 1
        else:
            j += 1
    return cost


def test_criterion_5_quantification_properties():
    rng = random.Random(20170404)

    # (a) KLD >= 0 and = 0 at equality on 10,000 random smoothed pairs
    for _ in range(10_000):
        p = _random_counts(rng, 2)
        q = _random_prev(rng, 2)
        assert topic_kld(q, p) >= 0.0
        assert topic_kld(class_fractions(p), p) == pytest.approx(0.0, abs=1e-12)

    # (b) smoothed KLD finite for point-mass predictions
    point = (1.0, 0.0)
    other = (0, 100)
    assert math.isfinite(topic_kld(point, other))

    # (c) EMD equals the independent transport oracle on 5 bins
    for _ in range(1_000):
        p = _random_counts(rng, 5)
        q = _random_prev(rng, 5)
        oracle = _greedy_transport_cost(q, class_fractions(p))
        assert abs(topic_emd(q, p) - oracle) <= 1e-12

    # (d) EMD symmetry and triangle inequality on random triples
    for _ in range(1_000):
        a, b, c = (_random_counts(rng, 5) for _ in range(3))
        fa, fb = class_fractions(a), class_fractions(b)
        assert topic_emd(fa, b) == pytest.approx(topic_emd(fb, a), abs=1e-12)
        assert topic_emd(fa, c) <= topic_emd(fa, b) + topic_emd(fb, c) + 1e-12
    print("ACCEPTANCE 5 PASS: KLD/EMD property suite")


def test_criterion_6_consolidation_brute_force():
    from collections import Counter
    from fractions import Fraction

    def reference(labels):
        value, count = Counter(labels).most_common(1)[0]
        if count >= 3:
            return value
        x = Fraction(sum(labels), 5)
        if x >= Fraction(7, 5):
            return 2
        if x >= Fraction(2, 5):
            return 1
        if x > Fraction(-2, 5):
            return 0
        if x > Fraction(-7, 5):
            return -1
        return -2

    rng = random.Random(7)
    n_cases = 0
    for labels in product([-2, -1, 0, 1, 2], repeat=5):
        labels = list(labels)
        assert consolidate_labels(labels) == reference(labels)
        # negation symmetry and permutation invariance
        assert consolidate_labels([-x for x in labels]) == -consolidate_labels(labels)
        shuffled = labels[:]
        rng.shuffle(shuffled)
        assert consolidate_labels(shuffled) == consolidate_labels(labels)
        n_cases += 1
    assert n_cases == 3125
    print("ACCEPTANCE 6 PASS: consolidation equals reference on all 3,125 tuples")


def test_criterion_7_metric_properties():
    rng = random.Random(42)

    def swap(counts):
        # classes are -1, 0, +1: reversing both axes swaps Positive and Negative
        return tuple(row[::-1] for row in counts[::-1])

    def avg_rec(counts):
        return table_metrics(Scale.THREE_POINT, counts)["avgrec"]

    # avg_rec label-swap invariance on random 3-class instances
    for _ in range(500):
        pairs = [
            (rng.choice([-1, 0, 1]), rng.choice([-1, 0, 1]))
            for _ in range(rng.randint(4, 40))
        ]
        pd = table(Scale.THREE_POINT, pairs)
        if {1, -1} <= {g for g, _ in pairs}:
            assert avg_rec(pd) == pytest.approx(avg_rec(swap(pd)), abs=1e-12)

    # exhibited F1 counterexample under the positive/negative label swap.
    # Note: the swap moves the single-class F1 but provably cannot move
    # f1_pn, which averages F1 over both swapped classes.
    pd = table(Scale.THREE_POINT, [(1, 1), (1, 1), (1, 1), (-1, 1)])
    assert (reference_f1(Scale.THREE_POINT, pd, 1)
            != pytest.approx(reference_f1(Scale.THREE_POINT, swap(pd), 1)))

    # MAE^M == MAE^mu on 1,000 class-balanced instances
    for _ in range(1_000):
        per_class = rng.randint(1, 6)
        pairs = []
        for c in Scale.FIVE_POINT.classes:
            for _ in range(per_class):
                pairs.append((c, rng.choice(range(-2, 3))))
        metrics = table_metrics(Scale.FIVE_POINT, table(Scale.FIVE_POINT, pairs))
        assert metrics["mae_macro"] == pytest.approx(metrics["mae_micro"], abs=1e-12)

    # constant-classifier AvgRec = 1/k whenever all k classes are present
    for scale in (Scale.TWO_POINT, Scale.THREE_POINT, Scale.FIVE_POINT):
        counts = {c: rng.randint(1, 30) for c in scale.classes}
        gold = rows_from_counts(counts)
        for c in scale.classes:
            cm = constant_table(scale, gold, c)
            assert reference_avg_rec(scale, cm) == pytest.approx(1 / len(scale.classes), abs=1e-12)
            if scale is not Scale.FIVE_POINT:  # where AvgRec is a subtask metric
                assert table_metrics(scale, cm)["avgrec"] == reference_avg_rec(scale, cm)
    print("ACCEPTANCE 7 PASS: metric property suite")


def test_criterion_8_dedup_and_topic_filter():
    from topicsent.ingestion import dedup, parse_raw_records, stats

    # "a b c" and "a b d" have cosine 2/3: a near-duplicate below it, kept above it
    pair = "t1\tNA\t\ta b c\nt2\tNA\t\ta b d\n"
    for threshold, kept_ids in [(0.66, ["t1"]), (0.67, ["t1", "t2"])]:
        kept, _ = dedup(parse_raw_records(io.StringIO(pair)), threshold=threshold)
        assert [r[0] for r in kept] == kept_ids
    kept, removed = dedup(parse_raw_records(io.StringIO(pair)), threshold=0.6)
    assert [r[0] for r in kept] == ["t1"]
    assert [r[0] for r, _ in removed] == ["t2"]

    rng = random.Random(13)
    words = ["apple", "bird", "cat", "dog", "egg", "fox", "goat", "hat"]
    for _ in range(100):
        corpus = parse_raw_records(io.StringIO("".join(
            f"t{i}\tNA\t\t{' '.join(rng.choices(words, k=rng.randint(1, 6)))}\n"
            for i in range(rng.randint(1, 20))
        )))
        kept, _ = dedup(corpus)
        kept_again, removed_again = dedup(kept)
        assert kept_again == kept and not removed_again

    a = rows_from_counts({1: 50, -1: 50}, topic="exactly100")
    b = rows_from_counts({1: 99}, topic="just99")
    _, per_topic = stats(Scale.TWO_POINT, class_counts(Scale.TWO_POINT, a + b), min_size=100)
    assert set(per_topic) == {"exactly100"}
    print("ACCEPTANCE 8 PASS: dedup threshold, idempotence, topic-size boundary")


def test_criterion_9_cli_determinism(tmp_path):
    gold = rows_from_counts({1: 6, -1: 4}, topic="a") + rows_from_counts({1: 2, -1: 8}, topic="b")
    gold_path = tmp_path / "gold.tsv"
    gold_path.write_text(label_text(gold), encoding="utf-8")
    pred_path = tmp_path / "pred.tsv"
    rng = random.Random(5)
    with open(pred_path, "w", encoding="utf-8") as f:
        for item_id, topic, _ in gold:
            f.write(f"{item_id}\t{topic}\t{rng.choice([-1, 1])}\n")

    argv = [
        sys.executable, "-m", "topicsent.cli", "score", "--subtask", "B",
        "--gold", str(gold_path), "--pred", str(pred_path),
        "--format", "json", "--pooled",
    ]
    # the child imports the package this test imported, however it is on sys.path
    src = os.path.dirname(os.path.dirname(topicsent.__file__))
    path = filter(None, [src, os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    first = subprocess.run(argv, capture_output=True, check=True, env=env)
    second = subprocess.run(argv, capture_output=True, check=True, env=env)
    assert first.stdout == second.stdout
    json.loads(first.stdout)  # well-formed report
    print("ACCEPTANCE 9 PASS: byte-identical CLI reports")
