#!/usr/bin/env python3
"""Rebuilds the constant-baseline score tables from the per-class test-set
counts of the English and Arabic datasets, using the library's metric stack.

Run: PYTHONPATH=src python3 scripts/reproduce_baselines.py
"""

from topicsent.baselines import constant_classifier
from topicsent.classification import table_metrics
from topicsent.cli import round_display
from topicsent.evaluate import SUBTASKS

COUNTS = {
    "English": {
        "A": {1: 2375, 0: 5937, -1: 3972},
        "B": {1: 2463, -1: 3722},
        "C": {2: 131, 1: 2332, 0: 6194, -1: 3545, -2: 177},
    },
    "Arabic": {
        "A": {1: 1514, 0: 2364, -1: 2222},
        "B": {1: 1561, -1: 1196},
        "C": {2: 13, 1: 1548, 0: 3343, -1: 1175, -2: 21},
    },
}
CLASSIFICATION = {"AvgRec": "avgrec", "F1_PN": "f1_pn", "Acc": "accuracy"}
COLUMNS = {"A": CLASSIFICATION, "B": CLASSIFICATION, "C": {"MAE_M": "mae_macro", "MAE_mu": "mae_micro"}}


def main():
    for language, counts in COUNTS.items():
        for subtask, columns in COLUMNS.items():
            scale = SUBTASKS[subtask].scale
            print(f"\n{language}, subtask {subtask} (constant classifiers, pooled)")
            print(f"{'baseline':<16}" + "".join(f" {name:>7}" for name in columns))
            gold = {None: tuple(counts[subtask][g] for g in scale.classes)}
            for c in scale.classes:
                (table,) = constant_classifier(scale, gold, c).values()
                # as in the published tables, subtask C rows name the integer label
                name = f"All {c}" if subtask == "C" else f"All {scale.class_name(c).title()}"
                metrics = table_metrics(scale, table)
                values = "".join(f" {round_display(metrics[k]):>7.3f}" for k in columns.values())
                print(f"{name:<16}{values}")


if __name__ == "__main__":
    main()
