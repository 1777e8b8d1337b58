import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dataset_from_counts
from topicsent.cli import main, round_display
from topicsent.evaluate import SUBTASKS, Mode
from topicsent.ingestion import serialize_dataset
from topicsent.model import Dataset, Scale


def write_dataset(path, scale, counts, topic=None):
    d = dataset_from_counts(scale, counts, topic=topic)
    with open(path, "w", encoding="utf-8") as f:
        serialize_dataset(d, f)
    return d


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestRoundDisplay:
    @pytest.mark.parametrize(
        "x,expected",
        [(0.3333333, 0.333), (0.0005, 0.001), (-0.0005, -0.001),
         (1.8946, 1.895), (0.1615, 0.162), (2.0, 2.0)],
    )
    def test_half_away_from_zero(self, x, expected):
        assert round_display(x) == expected


class TestScore:
    def test_subtask_a_json(self, tmp_path, capsys):
        gold = tmp_path / "gold.tsv"
        d = write_dataset(gold, Scale.THREE_POINT, {1: 4, 0: 3, -1: 3})
        pred = tmp_path / "pred.tsv"
        with open(pred, "w") as f:
            for it in d.items:
                f.write(f"{it.id}\tNA\t0\n")
        code, out, _ = run(
            ["score", "--subtask", "A", "--gold", str(gold), "--pred", str(pred),
             "--format", "json"],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["primary_metric"] == "avgrec"
        assert payload["metrics"]["accuracy"] == pytest.approx(0.3)
        assert payload["metrics_display"]["avgrec"] == 0.333

    def test_missing_prediction_exit_code(self, tmp_path, capsys):
        gold = tmp_path / "gold.tsv"
        write_dataset(gold, Scale.TWO_POINT, {1: 2, -1: 2}, topic="x")
        pred = tmp_path / "pred.tsv"
        pred.write_text("")
        code, _, err = run(
            ["score", "--subtask", "B", "--gold", str(gold), "--pred", str(pred)],
            capsys,
        )
        assert code == 1
        assert json.loads(err.splitlines()[-1])["error"] == "MISSING_PREDICTION"

    def test_invalid_label_exit_code(self, tmp_path, capsys):
        gold = tmp_path / "gold.tsv"
        gold.write_text("t1\tNA\tgreat\n")
        pred = tmp_path / "pred.tsv"
        pred.write_text("t1\tNA\tpositive\n")
        code, _, err = run(
            ["score", "--subtask", "A", "--gold", str(gold), "--pred", str(pred)],
            capsys,
        )
        assert code == 1
        diag = json.loads(err.splitlines()[-1])
        assert diag["error"] == "INVALID_LABEL" and "line 1" in diag["message"]

    def test_quantification_prediction_file(self, tmp_path, capsys):
        gold = tmp_path / "gold.tsv"
        write_dataset(gold, Scale.TWO_POINT, {1: 3, -1: 1}, topic="x")
        pred = tmp_path / "pred.tsv"
        pred.write_text("x\tpositive\t0.75\nx\tnegative\t0.25\n")
        code, out, _ = run(
            ["score", "--subtask", "D", "--gold", str(gold), "--pred", str(pred)],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["metrics"]["kld"] == pytest.approx(0.0, abs=1e-12)
        assert payload["metrics"]["ae"] == pytest.approx(0.0, abs=1e-12)


class TestBaseline:
    def test_constant_neutral_subtask_c_pooled(self, tmp_path, capsys):
        gold = tmp_path / "gold.tsv"
        a = dataset_from_counts(
            Scale.FIVE_POINT, {2: 13, 1: 155, 0: 334, -1: 118, -2: 2}, topic="a"
        )
        b = dataset_from_counts(
            Scale.FIVE_POINT, {2: 1, 1: 154, 0: 335, -1: 117, -2: 2}, topic="b"
        )
        with open(gold, "w") as f:
            serialize_dataset(Dataset.build(Scale.FIVE_POINT, a.items + b.items), f)
        code, out, _ = run(
            ["baseline", "--subtask", "C", "--gold", str(gold),
             "--kind", "constant:0", "--pooled"],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["pooled_display"]["mae_macro"] == 1.2
        assert payload["n_topics"] == 2

    def test_ml_baseline_requires_train(self, tmp_path, capsys):
        gold = tmp_path / "gold.tsv"
        write_dataset(gold, Scale.TWO_POINT, {1: 3, -1: 1}, topic="x")
        code, _, err = run(
            ["baseline", "--subtask", "D", "--gold", str(gold), "--kind", "ml:micro"],
            capsys,
        )
        assert code == 1

    def test_ml_baseline_scores(self, tmp_path, capsys):
        gold = tmp_path / "gold.tsv"
        write_dataset(gold, Scale.TWO_POINT, {1: 3, -1: 1}, topic="x")
        train = tmp_path / "train.tsv"
        write_dataset(train, Scale.TWO_POINT, {1: 3, -1: 1}, topic="t")
        code, out, _ = run(
            ["baseline", "--subtask", "D", "--gold", str(gold),
             "--kind", "ml:micro", "--train", str(train)],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["metrics"]["kld"] == pytest.approx(0.0, abs=1e-12)


class TestConsolidateCommand:
    def test_tsv_round_trip(self, tmp_path, capsys):
        src = tmp_path / "ann.tsv"
        src.write_text("t1\tx\t1\t1\t1\t-2\t-2\nt2\tx\t2\t2\t1\t1\t0\n")
        out_path = tmp_path / "out.tsv"
        code, _, _ = run(
            ["consolidate", "--input", str(src), "--output", str(out_path)], capsys
        )
        assert code == 0
        assert out_path.read_text() == "t1\tx\t1\nt2\tx\t1\n"


class TestDedupCommand:
    def test_removes_near_duplicates(self, tmp_path, capsys):
        src = tmp_path / "raw.tsv"
        src.write_text("t1\tx\t\ta b c\nt2\tx\t\ta b d\nt3\tx\t\tq r s\n")
        out_path = tmp_path / "kept.tsv"
        removed_path = tmp_path / "removed.tsv"
        code, _, err = run(
            ["dedup", "--input", str(src), "--output", str(out_path),
             "--removed", str(removed_path)],
            capsys,
        )
        assert code == 0
        kept_ids = [line.split("\t")[0] for line in out_path.read_text().splitlines()]
        assert kept_ids == ["t1", "t3"]
        assert removed_path.read_text() == "t2\tt1\n"


class TestStatsCommand:
    def test_json_counts(self, tmp_path, capsys):
        gold = tmp_path / "gold.tsv"
        write_dataset(gold, Scale.FIVE_POINT, {2: 1, 1: 4, 0: 5, -1: 1, -2: 2}, topic="x")
        code, out, _ = run(
            ["stats", "--subtask", "C", "--input", str(gold), "--format", "json"],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["total"] == 13
        assert payload["per_class"] == {"2": 1, "1": 4, "0": 5, "-1": 1, "-2": 2}
        assert payload["per_topic"] == {"x": 13}

    def test_min_size_filter(self, tmp_path, capsys):
        gold = tmp_path / "gold.tsv"
        a = dataset_from_counts(Scale.TWO_POINT, {1: 3}, topic="a")
        b = dataset_from_counts(Scale.TWO_POINT, {1: 9, -1: 3}, topic="b")
        with open(gold, "w") as f:
            serialize_dataset(Dataset.build(Scale.TWO_POINT, a.items + b.items), f)
        code, out, _ = run(
            ["stats", "--subtask", "B", "--input", str(gold),
             "--min-size", "5", "--format", "json"],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["per_topic"] == {"b": 12}
        assert payload["total"] == 12


class TestDeterminism:
    def test_identical_runs_byte_identical(self, tmp_path, capsys):
        gold = tmp_path / "gold.tsv"
        d = write_dataset(gold, Scale.TWO_POINT, {1: 5, -1: 5}, topic="x")
        pred = tmp_path / "pred.tsv"
        with open(pred, "w") as f:
            for i, it in enumerate(d.items):
                f.write(f"{it.id}\t{it.topic}\t{1 if i % 2 else -1}\n")
        argv = ["score", "--subtask", "B", "--gold", str(gold), "--pred", str(pred),
                "--format", "json", "--pooled"]
        _, out1, _ = run(argv, capsys)
        _, out2, _ = run(argv, capsys)
        assert out1 == out2


class TestInputContract:
    def test_nan_prevalence_rejected(self, tmp_path, capsys):
        gold = tmp_path / "gold.tsv"
        write_dataset(gold, Scale.TWO_POINT, {1: 1, -1: 1}, topic="x")
        pred = tmp_path / "pred.tsv"
        pred.write_text("x\tpositive\tnan\nx\tnegative\tnan\n")
        code, out, err = run(
            ["score", "--subtask", "D", "--gold", str(gold), "--pred", str(pred)],
            capsys,
        )
        assert code == 1 and out == ""
        diag = json.loads(err)
        assert diag["error"] == "MALFORMED_LINE" and "line 1" in diag["message"]

    @pytest.mark.parametrize("kind", ["prevalence:0.5,x", "ml:bogus"])
    def test_malformed_kind(self, kind, tmp_path, capsys):
        gold = tmp_path / "gold.tsv"
        write_dataset(gold, Scale.TWO_POINT, {1: 3, -1: 1}, topic="x")
        code, _, err = run(
            ["baseline", "--subtask", "D", "--gold", str(gold), "--kind", kind,
             "--train", str(gold)],
            capsys,
        )
        assert code == 1
        assert json.loads(err)["error"] != "INTERNAL"

    def test_byte_order_mark_is_skipped(self, tmp_path, capsys, monkeypatch):
        gold = b"\xef\xbb\xbft1\tx\tpositive\nt2\tx\tnegative\n"
        (tmp_path / "gold.tsv").write_bytes(gold)
        pred = tmp_path / "pred.tsv"
        pred.write_bytes(b"\xef\xbb\xbft2\tx\t1\nt1\tx\t1\n")
        for gold_arg in (str(tmp_path / "gold.tsv"), "-"):
            monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(gold)))
            code, out, err = run(
                ["score", "--subtask", "B", "--gold", gold_arg, "--pred", str(pred)],
                capsys,
            )
            assert code == 0, err
            assert json.loads(out)["metrics"]["avgrec"] == 0.5

    def test_non_utf8_input(self, tmp_path, capsys):
        gold = tmp_path / "gold.tsv"
        gold.write_bytes(b"t1\tNA\tpositive\xff\n")
        code, _, err = run(
            ["score", "--subtask", "A", "--gold", str(gold), "--pred", str(gold)],
            capsys,
        )
        assert code == 1
        assert json.loads(err)["error"] == "IO_ERROR"


_TOKENS = [b"t1", b"t2", b"NA", b"x", b"1", b"-1", b"0", b"2", b"positive", b"nan",
           b"inf", b"0.5", b"1e400", b"\xef\xbb\xbf", b"\xff", b"\r", b" ", b""]
_lines = st.lists(st.sampled_from(_TOKENS) | st.binary(max_size=4), max_size=4).map(b"\t".join)
_files = st.binary(max_size=64) | st.lists(_lines, max_size=6).map(b"\n".join)


@pytest.mark.parametrize("subtask", sorted(SUBTASKS))
@settings(deadline=None)
@given(gold=_files, pred=_files)
def test_score_arbitrary_bytes_exits_0_or_1(subtask, gold, pred):
    with tempfile.TemporaryDirectory() as tmp:
        gold_path, pred_path = Path(tmp, "gold"), Path(tmp, "pred")
        gold_path.write_bytes(gold)
        pred_path.write_bytes(pred)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["score", "--subtask", subtask, "--gold", str(gold_path),
                         "--pred", str(pred_path)])
    assert code in (0, 1)
    if code == 1:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1
        assert "error" in json.loads(lines[0])


@st.composite
def _scored_files(draw, subtask):
    """Valid gold and prediction rows for one subtask, as text lines."""
    spec = SUBTASKS[subtask]
    classes = spec.scale.classes
    topics = ["a", "b", "c"] if spec.topic_based else ["NA"]
    label = st.sampled_from(classes)
    rows = draw(st.lists(st.tuples(st.sampled_from(topics), label, label),
                         min_size=1, max_size=40))
    gold = [f"t{i}\t{t}\t{g}" for i, (t, g, _) in enumerate(rows)]
    if spec.mode is Mode.CLASSIFICATION:
        pred = [f"t{i}\t{t}\t{p}" for i, (t, _, p) in enumerate(rows)]
        pred += [f"extra{i}\t{topics[0]}\t{classes[0]}" for i in range(draw(st.integers(0, 2)))]
        return gold, pred
    pred = []
    for t in topics:
        weights = draw(st.lists(st.integers(0, 9), min_size=len(classes),
                                max_size=len(classes)).filter(any))
        pred += [f"{t}\t{c}\t{w / sum(weights)!r}" for c, w in zip(classes, weights)]
    return gold, pred


@pytest.mark.parametrize("subtask", sorted(SUBTASKS))
@settings(deadline=None)
@given(data=st.data())
def test_row_order_does_not_change_report(subtask, data):
    gold, pred = data.draw(_scored_files(subtask))
    shuffled = (data.draw(st.permutations(gold)), data.draw(st.permutations(pred)))
    reports = []
    with tempfile.TemporaryDirectory() as tmp:
        for i, (gold_lines, pred_lines) in enumerate([(gold, pred), shuffled]):
            paths = [Path(tmp, f"{name}{i}") for name in ("gold", "pred", "out")]
            paths[0].write_text("".join(line + "\n" for line in gold_lines), encoding="utf-8")
            paths[1].write_text("".join(line + "\n" for line in pred_lines), encoding="utf-8")
            with contextlib.redirect_stderr(io.StringIO()):
                code = main(["score", "--subtask", subtask, "--gold", str(paths[0]),
                             "--pred", str(paths[1]), "--pooled", "--output", str(paths[2])])
            assert code == 0
            reports.append(paths[2].read_bytes())
    assert reports[0] == reports[1]
