import runpy
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "reproduce_baselines.py"


def test_reproduce_baselines_english_c_row(capsys):
    runpy.run_path(str(SCRIPT), run_name="reproduce_baselines")["main"]()
    out = capsys.readouterr().out
    section = out.split("English, subtask C")[1].split("\n\n")[0]
    assert ["All", "-2", "2.000", "1.895"] in [line.split() for line in section.splitlines()]
