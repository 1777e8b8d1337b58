import runpy
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "reproduce_baselines.py"

# The script's whole output: the constant-baseline rows of both languages.
EXPECTED = """\

English, subtask A (constant classifiers, pooled)
baseline          AvgRec   F1_PN     Acc
All Negative       0.333   0.244   0.323
All Neutral        0.333   0.000   0.483
All Positive       0.333   0.162   0.193

English, subtask B (constant classifiers, pooled)
baseline          AvgRec   F1_PN     Acc
All Negative       0.500   0.376   0.602
All Positive       0.500   0.285   0.398

English, subtask C (constant classifiers, pooled)
baseline           MAE_M  MAE_mu
All -2             2.000   1.895
All -1             1.400   0.923
All 0              1.200   0.525
All 1              1.400   1.127
All 2              2.000   2.105

Arabic, subtask A (constant classifiers, pooled)
baseline          AvgRec   F1_PN     Acc
All Negative       0.333   0.267   0.364
All Neutral        0.333   0.000   0.388
All Positive       0.333   0.199   0.248

Arabic, subtask B (constant classifiers, pooled)
baseline          AvgRec   F1_PN     Acc
All Negative       0.500   0.303   0.434
All Positive       0.500   0.362   0.566

Arabic, subtask C (constant classifiers, pooled)
baseline           MAE_M  MAE_mu
All -2             2.000   2.059
All -1             1.400   1.065
All 0              1.200   0.458
All 1              1.400   0.946
All 2              2.000   1.941
"""


def test_reproduce_baselines_output(capsys):
    runpy.run_path(str(SCRIPT), run_name="reproduce_baselines")["main"]()
    assert capsys.readouterr().out == EXPECTED
