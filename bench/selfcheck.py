"""Self-check of the benchmark's own parts, run before every measurement:
the generators are deterministic, and the oracle and ``topicsent`` agree on
tiny inputs whose scores are worked out by hand below.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import oracle
import workloads

# Subtask C. Topic x: gold (2, 2, 0, -1), pred (1, 2, 0, 1); absolute errors
# 1, 0, 0, 2, so MAE^M = (0.5 + 0 + 2) / 3 and MAE^mu = 3/4. Topic y: gold
# (-2, -2), pred (0, -2); MAE^M = MAE^mu = 1. Pooled over all six items the
# class means are 0.5, 0, 2, 1 and the errors sum to 5.
C_GOLD = [("x", 2), ("x", 2), ("x", 0), ("x", -1), ("y", -2), ("y", -2)]
C_PRED = [1, 2, 0, 1, 0, -2]
C_EXPECTED = {
    "per_topic": {"x": {"mae_macro": 2.5 / 3, "mae_micro": 0.75},
                  "y": {"mae_macro": 1.0, "mae_micro": 1.0}},
    "metrics": {"mae_macro": 11 / 12, "mae_micro": 0.875},
    "pooled": {"mae_macro": 0.875, "mae_micro": 5 / 6},
}

# Subtask D. Topic p: gold (-1, 1) predicted (0.5, 0.5) exactly, all zero.
# Topic q: gold (1, 1) predicted (0.5, 0.5); eps = 1/(2*2) smooths the true
# prevalence to (1/6, 5/6) and leaves the prediction at (0.5, 0.5). Pooled:
# true (1/4, 3/4), predicted (0.5, 0.5), eps = 1/8 gives true (0.3, 0.7).
D_GOLD = [("p", -1), ("p", 1), ("q", 1), ("q", 1)]
D_PREVALENCES = {"p": (0.5, 0.5), "q": (0.5, 0.5)}
_KLD_Q = math.log(1 / 3) / 6 + 5 * math.log(5 / 3) / 6
D_EXPECTED = {
    "per_topic": {"p": {"kld": 0.0, "ae": 0.0, "rae": 0.0},
                  "q": {"kld": _KLD_Q, "ae": 0.5, "rae": 1.2}},
    "metrics": {"kld": _KLD_Q / 2, "ae": 0.25, "rae": 0.6},
    "pooled": {"kld": 0.3 * math.log(0.6) + 0.7 * math.log(1.4), "ae": 0.25, "rae": 10 / 21},
}

# Dedup at threshold 0.6: r2 has r1's bag of words (cosine 1); r4's bag
# {again: 2, and: 1} meets r1's {hello, world, again} at 2 / sqrt(5 * 3) < 0.6.
DEDUP_RECORDS = [("r1", "Hello world, again!"), ("r2", "hello WORLD again"),
                 ("r3", "something else entirely"), ("r4", "again and again")]
DEDUP_KEPT = [0, 2, 3]
DEDUP_REMOVED = [(1, 0)]


def _digest(obj) -> str:
    return hashlib.sha256(repr(vars(obj)).encode()).hexdigest()


def check_generators() -> list[str]:
    problems = []
    small = [(workloads.score_c, {"rows": 2_000, "n_topics": 20}),
             (workloads.quant_d, {"rows": 2_000, "n_topics": 200}),
             (workloads.dedup, {"records": 200})]
    for gen, size in small:
        first, again, other = (_digest(gen(s, **size)) for s in (11, 11, 12))
        if first != again:
            problems.append(f"{gen.__name__}: seed 11 gave two different inputs")
        if first == other:
            problems.append(f"{gen.__name__}: seeds 11 and 12 gave the same input")
    return problems


def check_oracle() -> list[str]:
    problems = []
    for name, got, want in [("C", oracle.expected_c(C_GOLD, C_PRED), C_EXPECTED),
                            ("D", oracle.expected_d(D_GOLD, D_PREVALENCES), D_EXPECTED)]:
        report = dict(got, n_topics=len(got["per_topic"]))
        problems += [f"oracle {name}: {p}" for p in oracle.report_mismatches(report, want, 1e-12)]
    if oracle.expected_dedup(DEDUP_RECORDS, 0.6) != (DEDUP_KEPT, DEDUP_REMOVED):
        problems.append("oracle dedup disagrees with the hand-computed result")
    return problems


def check_cli(run_cli, workdir: Path) -> list[str]:
    """Runs the hand-computed cases through the CLI; ``run_cli(args)``
    returns the exit code."""
    problems = []
    gold_c = "".join(f"c{i}\t{t}\t{g}\n" for i, (t, g) in enumerate(C_GOLD))
    pred_c = "".join(f"c{i}\t{t}\t{p}\n" for i, ((t, _), p) in enumerate(zip(C_GOLD, C_PRED)))
    gold_d = "".join(f"d{i}\t{t}\t{g}\n" for i, (t, g) in enumerate(D_GOLD))
    pred_d = "".join(f"{t}\t{c}\t{f!r}\n" for t, fr in D_PREVALENCES.items() for c, f in zip((-1, 1), fr))
    for subtask, gold, pred, want in [("C", gold_c, pred_c, C_EXPECTED), ("D", gold_d, pred_d, D_EXPECTED)]:
        g, p, out = (workdir / f"self_{subtask}_{k}" for k in ("gold.tsv", "pred.tsv", "out.json"))
        g.write_text(gold, encoding="utf-8")
        p.write_text(pred, encoding="utf-8")
        code = run_cli(["score", "--subtask", subtask, "--pooled", "--format", "json",
                        "--gold", str(g), "--pred", str(p), "--output", str(out)])
        if code != 0 or not out.exists():
            problems.append(f"cli {subtask}: exit code {code}")
            continue
        report = json.loads(out.read_text(encoding="utf-8"))
        problems += [f"cli {subtask}: {m}" for m in oracle.report_mismatches(report, want, 1e-12)]
    raw, kept, removed = (workdir / f"self_dedup_{k}.tsv" for k in ("in", "kept", "removed"))
    lines = [f"{rid}\tNA\t\t{text}\n" for rid, text in DEDUP_RECORDS]
    raw.write_text("".join(lines), encoding="utf-8")
    code = run_cli(["dedup", "--threshold", "0.6", "--input", str(raw), "--output", str(kept),
                    "--removed", str(removed)])
    want_kept = "".join(lines[i] for i in DEDUP_KEPT)
    want_removed = "".join(f"{DEDUP_RECORDS[i][0]}\t{DEDUP_RECORDS[j][0]}\n" for i, j in DEDUP_REMOVED)
    if code != 0 or not kept.exists() or not removed.exists():
        problems.append(f"cli dedup: exit code {code}")
    elif (kept.read_text(encoding="utf-8"), removed.read_text(encoding="utf-8")) != (want_kept, want_removed):
        problems.append("cli dedup disagrees with the hand-computed result")
    return problems
