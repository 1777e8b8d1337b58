#!/usr/bin/env python3
"""Rebuilds the constant-baseline score tables from the per-class test-set
counts of the English and Arabic datasets, using the library's metric stack.

Run: PYTHONPATH=src python3 scripts/reproduce_baselines.py
"""

from topicsent.baselines import constant_classifier
from topicsent.classification import accuracy, avg_rec, f1_pn
from topicsent.cli import round_display
from topicsent.model import Scale
from topicsent.ordinal import mae_macro, mae_micro

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
SCALES = {"A": Scale.THREE_POINT, "B": Scale.TWO_POINT, "C": Scale.FIVE_POINT}


def fmt(x):
    return f"{round_display(x):.3f}"


def main():
    for language, counts in COUNTS.items():
        for subtask in ("A", "B"):
            scale = SCALES[subtask]
            print(f"\n{language}, subtask {subtask} (constant classifiers, pooled)")
            print(f"{'baseline':<16} {'AvgRec':>7} {'F1_PN':>7} {'Acc':>7}")
            gold = {None: tuple(counts[subtask][g] for g in scale.classes)}
            for c in scale.classes:
                (cm,) = constant_classifier(scale, gold, c).values()
                name = f"All {scale.class_name(c).title()}"
                print(
                    f"{name:<16} {fmt(avg_rec(cm)):>7} {fmt(f1_pn(cm)):>7} "
                    f"{fmt(accuracy(cm)):>7}"
                )

        print(f"\n{language}, subtask C (constant classifiers, pooled)")
        print(f"{'baseline':<16} {'MAE_M':>7} {'MAE_mu':>7}")
        scale = SCALES["C"]
        gold = {None: tuple(counts["C"][g] for g in scale.classes)}
        for c in scale.classes:
            (cm,) = constant_classifier(scale, gold, c).values()
            print(f"{'All ' + str(c):<16} {fmt(mae_macro(cm)):>7} {fmt(mae_micro(cm)):>7}")


if __name__ == "__main__":
    main()
