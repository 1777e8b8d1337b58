import contextlib
import io
import json
import math
import re
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import label_text, parsed_rows, reference_join, rows_from_counts
from topicsent.cli import _emit_report, main, round_display
from topicsent.errors import MissingPrediction, ScoringError, TopicRequired
from topicsent.evaluate import SUBTASKS, Mode, ScoreReport
from topicsent.ingestion import parse_prevalence_file


def write_labels(path, counts, topic=None):
    """Writes a label file with the given per-class counts; returns its rows."""
    rows = rows_from_counts(counts, topic=topic)
    Path(path).write_text(label_text(rows), encoding="utf-8")
    return rows


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


def dumped_report(report):
    """A report as json.dump writes the whole payload at once."""
    payload = {
        "subtask": report.subtask.id,
        "primary_metric": report.subtask.primary_metric,
        "higher_is_better": report.subtask.higher_is_better,
        "metrics": report.metrics,
        "metrics_display": {k: round_display(v) for k, v in report.metrics.items()},
        "per_topic": report.per_topic,
        "n_topics": len(report.per_topic),
        "warnings": report.warnings,
    }
    if report.pooled is not None:
        payload["pooled"] = report.pooled
        payload["pooled_display"] = {k: round_display(v) for k, v in report.pooled.items()}
    return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"


class TestJsonReport:
    """The per_topic block is streamed one topic at a time; the bytes are
    those of json.dump on the whole payload."""

    @example(per_topic={}, pooled=False)  # subtask A's report
    @example(per_topic={'q"uo\\te': {"kld": 0.1}, "ctl\x00\x1f\x7f": {"kld": -0.0},
                        "caf\u00e9 \u2028": {"kld": 1e-300}, "\U0001f600": {"kld": 1e16}},
             pooled=True)
    @given(st.dictionaries(st.text(min_size=1), st.dictionaries(
        st.text(), st.floats(allow_nan=False, allow_infinity=False), min_size=1)), st.booleans())
    def test_matches_json_dump(self, per_topic, pooled):
        report = ScoreReport(SUBTASKS["D"], {"kld": 0.25, "ae": 0.1}, per_topic,
                             ['topic "x\\": a warning'], {"kld": 1 / 3} if pooled else None)
        out = io.StringIO()
        _emit_report(report, "json", out)
        assert out.getvalue() == dumped_report(report)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_value_rejected(self, bad):
        report = ScoreReport(SUBTASKS["D"], {"kld": 0.25}, {"a": {"kld": 0.5}, "b": {"kld": bad}})
        with pytest.raises(ValueError, match="Out of range float values are not JSON compliant"):
            _emit_report(report, "json", io.StringIO())


class TestScore:
    def test_subtask_a_json(self, tmp_path, capsys):
        gold = tmp_path / "gold.tsv"
        d = write_labels(gold, {1: 4, 0: 3, -1: 3})
        pred = tmp_path / "pred.tsv"
        with open(pred, "w") as f:
            for item_id, _, _ in d:
                f.write(f"{item_id}\tNA\t0\n")
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
        write_labels(gold, {1: 2, -1: 2}, topic="x")
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
        write_labels(gold, {1: 3, -1: 1}, topic="x")
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
        a = rows_from_counts({2: 13, 1: 155, 0: 334, -1: 118, -2: 2}, topic="a")
        b = rows_from_counts({2: 1, 1: 154, 0: 335, -1: 117, -2: 2}, topic="b")
        gold.write_text(label_text(a + b), encoding="utf-8")
        code, out, _ = run(
            ["baseline", "--subtask", "C", "--gold", str(gold),
             "--kind", "constant:0", "--pooled"],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["pooled_display"]["mae_macro"] == 1.2
        assert payload["n_topics"] == 2
        # n_topics is the number of scored topics: 0, and no table line, without topics
        topicless = tmp_path / "topicless.tsv"
        write_labels(topicless, {1: 2, 0: 1, -1: 1})
        for path, subtask, n_topics in ((gold, "C", 2), (topicless, "A", 0)):
            baseline = ["baseline", "--subtask", subtask, "--gold", str(path), "--kind", "constant:0"]
            for argv in (baseline, ["stats", "--subtask", subtask, "--input", str(path)]):
                code, out, _ = run(argv, capsys)
                assert code == 0 and json.loads(out)["n_topics"] == n_topics
            code, out, _ = run(baseline + ["--format", "table"], capsys)
            topic_lines = [line for line in out.splitlines() if "topics:" in line]
            assert code == 0 and topic_lines == ([f"  topics: {n_topics}"] if n_topics else [])

    def test_ml_baseline_requires_train(self, tmp_path, capsys):
        gold = tmp_path / "gold.tsv"
        write_labels(gold, {1: 3, -1: 1}, topic="x")
        code, _, err = run(
            ["baseline", "--subtask", "D", "--gold", str(gold), "--kind", "ml:micro"],
            capsys,
        )
        assert code == 1

    def test_ml_baseline_scores(self, tmp_path, capsys):
        gold = tmp_path / "gold.tsv"
        write_labels(gold, {1: 3, -1: 1}, topic="x")
        train = tmp_path / "train.tsv"
        write_labels(train, {1: 3, -1: 1}, topic="t")
        code, out, _ = run(
            ["baseline", "--subtask", "D", "--gold", str(gold),
             "--kind", "ml:micro", "--train", str(train)],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["metrics"]["kld"] == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("fractions", [("0.3333333", "0.6666666"), ("0.3", "0.7000000001")])
    def test_prevalence_list_sum_rule_matches_prevalence_files(self, fractions, tmp_path, capsys):
        """A --kind prevalence: list gets the sum rule of prevalence files:
        within 1e-6 of 1, then renormalized; so it scores as score does."""
        gold = tmp_path / "gold.tsv"
        write_labels(gold, {1: 3, -1: 1}, topic="x")
        pred = tmp_path / "pred.tsv"
        pred.write_text(f"x\t-1\t{fractions[0]}\nx\t1\t{fractions[1]}\n")
        for pooled in ([], ["--pooled"]):
            code, want, _ = run(["score", "--subtask", "D", "--gold", str(gold),
                                 "--pred", str(pred), *pooled], capsys)
            assert code == 0
            code, out, _ = run(["baseline", "--subtask", "D", "--gold", str(gold),
                                "--kind", "prevalence:" + ",".join(fractions), *pooled], capsys)
            assert code == 0 and out == want
        code, out, err = run(["baseline", "--subtask", "D", "--gold", str(gold),
                              "--kind", "prevalence:0.5,0.6"], capsys)
        assert code == 1 and out == ""
        assert json.loads(err)["error"] == "INVALID_LABEL"

    def test_off_sum_list_names_the_sum_a_prevalence_file_would(self, tmp_path, capsys):
        """Both messages state the exact sum of the values (a plain float sum
        of this list gives 0.9989999999999999)."""
        gold = tmp_path / "gold.tsv"
        write_labels(gold, {1: 3, -1: 1}, topic="x")
        values = ["0.000", "0.259", "0.296", "0.148", "0.296"]
        pred = tmp_path / "pred.tsv"
        pred.write_text("".join(f"x\t{c}\t{v}\n" for c, v in zip(range(-2, 3), values)))
        code, _, err = run(["score", "--subtask", "E", "--gold", str(gold),
                            "--pred", str(pred)], capsys)
        assert code == 1
        assert json.loads(err)["message"] == "line 5: prevalences for topic x sum to 0.999, expected 1"
        code, out, err = run(["baseline", "--subtask", "E", "--gold", str(gold),
                              "--kind", "prevalence:" + ",".join(values)], capsys)
        assert code == 1 and out == ""
        assert json.loads(err) == {"error": "INVALID_LABEL",
                                   "message": "prevalence fractions sum to 0.999, expected 1"}


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

    @pytest.mark.parametrize("topic", ["", " "])
    def test_empty_topic_field_rejected(self, topic, tmp_path, capsys):
        # score would reject a gold file with this topic, so consolidate must not write one
        src = tmp_path / "ann.tsv"
        src.write_text(f"a0\tx\t1\t1\t1\t1\t1\na1\t{topic}\t1\t1\t1\t2\t1\n")
        code, out, err = run(
            ["consolidate", "--input", str(src), "--output", str(tmp_path / "out.tsv")], capsys
        )
        assert code == 1 and out == ""
        assert json.loads(err) == {
            "error": "MALFORMED_LINE", "message": "line 2: empty topic field"}


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

    @pytest.mark.parametrize("topic", ["", " "])
    def test_empty_topic_field_rejected(self, topic, tmp_path, capsys):
        # stats and score would reject the kept rows, so dedup must not write them
        src = tmp_path / "raw.tsv"
        src.write_text(f"t0\tx\tpositive\tq r s\nt1\t{topic}\tpositive\ta b c\n")
        code, out, err = run(
            ["dedup", "--input", str(src), "--output", str(tmp_path / "kept.tsv")], capsys
        )
        assert code == 1 and out == ""
        assert json.loads(err) == {
            "error": "MALFORMED_LINE", "message": "line 2: empty topic field"}


class TestStatsCommand:
    def test_json_counts(self, tmp_path, capsys):
        gold = tmp_path / "gold.tsv"
        write_labels(gold, {2: 1, 1: 4, 0: 5, -1: 1, -2: 2}, topic="x")
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
        a = rows_from_counts({1: 3}, topic="a")
        b = rows_from_counts({1: 9, -1: 3}, topic="b")
        gold.write_text(label_text(a + b), encoding="utf-8")
        code, out, _ = run(
            ["stats", "--subtask", "B", "--input", str(gold),
             "--min-size", "5", "--format", "json"],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["per_topic"] == {"b": 12}
        assert payload["total"] == 12

    @pytest.mark.parametrize("min_size", ["0", "1"])
    @pytest.mark.parametrize("subtask,text", [("B", ""), ("A", "t1\tNA\t1\n")])
    def test_min_size_needs_topics(self, subtask, text, min_size, tmp_path, capsys):
        """An empty or topicless file has no topics to filter."""
        gold = tmp_path / "gold.tsv"
        gold.write_text(text)
        argv = ["stats", "--subtask", subtask, "--input", str(gold)]
        assert run(argv, capsys)[0] == 0
        code, out, err = run([*argv, "--min-size", min_size], capsys)
        assert code == 1 and out == ""
        assert json.loads(err)["error"] == "NO_TOPICS"


class TestAsciiNumbers:
    """Numbers are ASCII without ``_``: the forms that only Python's int()
    and float() accept exit 1 with the error code of any other bad value."""

    @pytest.mark.parametrize("label", ["0_1", "\u0661", "pos\u0131tive"])
    def test_label_files(self, label, tmp_path, capsys):
        gold, pred = tmp_path / "gold.tsv", tmp_path / "pred.tsv"
        gold.write_text("t1\tx\t1\nt2\tx\t-1\n", encoding="utf-8")
        pred.write_text(f"t1\tx\t-1\nt2\tx\t{label}\n", encoding="utf-8")
        want = {"error": "INVALID_LABEL", "message": f"line 2: unrecognized label {label!r}"}
        for argv in (["score", "--subtask", "B", "--gold", str(gold), "--pred", str(pred)],
                     ["stats", "--subtask", "B", "--input", str(pred)],
                     ["baseline", "--subtask", "D", "--gold", str(gold), "--kind", "ml",
                      "--train", str(pred)]):
            code, out, err = run(argv, capsys)
            assert (code, out, json.loads(err)) == (1, "", want)

    def test_prevalences(self, tmp_path, capsys):
        gold, pred = tmp_path / "gold.tsv", tmp_path / "pred.tsv"
        gold.write_text("t1\tx\t1\nt2\tx\t-1\n", encoding="utf-8")
        pred.write_text("x\t1\t0.75\nx\t-1\t0.2_5\n", encoding="utf-8")
        code, out, err = run(["score", "--subtask", "D", "--gold", str(gold), "--pred", str(pred)],
                             capsys)
        assert (code, out) == (1, "")
        assert json.loads(err) == {"error": "MALFORMED_LINE",
                                   "message": "line 2: bad prevalence value '0.2_5'"}
        for kind in ("prevalence:0.2_5,0.75", "prevalence:\u0660.25,0.75", "constant:0_1"):
            code, out, err = run(["baseline", "--subtask", "D", "--gold", str(gold),
                                  "--kind", kind], capsys)
            assert (code, out, json.loads(err)["error"]) == (1, "", "INVALID_LABEL")

    @pytest.mark.parametrize("option,value,kind", [
        ("--min-size", "1_0", "int"), ("--min-size", "\u0661", "int"),
        ("--threshold", "0.6_0", "float"), ("--threshold", "\u0660.\u0665", "float")])
    def test_options(self, option, value, kind, tmp_path, capsys):
        path = tmp_path / "in.tsv"
        path.write_text("t1\tx\t1\ta b\nt2\tx\t1\ta b\n", encoding="utf-8")
        command = ["stats", "--subtask", "B"] if option == "--min-size" else ["dedup"]
        code, out, err = run([*command, "--input", str(path), option, value], capsys)
        assert (code, out) == (1, "")
        message = f"topicsent {command[0]}: argument {option}: invalid {kind} value: {value!r}"
        assert json.loads(err) == {"error": "INVALID_ARGUMENT", "message": message}

    def test_annotations(self, tmp_path, capsys):
        path = tmp_path / "annotations.tsv"
        path.write_text("t1\tx\t1\t1\t1\t2\t0_1\n", encoding="utf-8")
        code, out, err = run(["consolidate", "--input", str(path)], capsys)
        assert (code, out) == (1, "")
        assert json.loads(err) == {"error": "INVALID_LABEL",
                                   "message": "line 1: annotator labels must be integers"}


class TestCountedInputs:
    """stats and the ML baseline's --train file are counted by the gold parser."""

    @pytest.mark.parametrize("text,error,message", [
        ("t1\tx\t1\nt1\t x\t-1\n", "DUPLICATE_KEY", "line 2: duplicate (id, topic) pair ('t1', 'x')"),
        ("t1\tx\t1\nt2\tNA\t-1\n", "MALFORMED_LINE", "line 2: subtask D requires a topic, got NA"),
        ("t1\tx\t1\nt2\t \t-1\n", "MALFORMED_LINE", "line 2: empty topic field"),
        ("t1\tx\t1\nt2\tx\t0\n", "INVALID_LABEL", "line 2: label '0' invalid on scale TWO_POINT"),
    ], ids=["repeated key", "NA topic", "blank topic", "off scale"])
    def test_faults_keep_their_line(self, text, error, message, tmp_path, capsys):
        bad, gold = tmp_path / "bad.tsv", tmp_path / "gold.tsv"
        bad.write_text(text, encoding="utf-8")
        write_labels(gold, {1: 3, -1: 1}, topic="x")
        for argv in (["stats", "--subtask", "D", "--input", str(bad), "--min-size", "-1"],
                     ["baseline", "--subtask", "D", "--gold", str(gold), "--kind", "ml:macro",
                      "--train", str(bad)]):
            code, out, err = run(argv, capsys)
            assert (code, out, json.loads(err)) == (1, "", {"error": error, "message": message})

    def test_empty_train_file(self, tmp_path, capsys):
        gold, train = tmp_path / "gold.tsv", tmp_path / "train.tsv"
        write_labels(gold, {1: 3, -1: 1}, topic="x")
        train.write_text("")
        code, out, err = run(["baseline", "--subtask", "D", "--gold", str(gold),
                              "--kind", "ml:macro", "--train", str(train)], capsys)
        assert (code, out) == (1, "")
        assert json.loads(err) == {
            "error": "EMPTY_INPUT", "message": "cannot estimate a prevalence from an empty training set"}


class TestDeterminism:
    def test_identical_runs_byte_identical(self, tmp_path, capsys):
        gold = tmp_path / "gold.tsv"
        d = write_labels(gold, {1: 5, -1: 5}, topic="x")
        pred = tmp_path / "pred.tsv"
        with open(pred, "w") as f:
            for i, (item_id, topic, _) in enumerate(d):
                f.write(f"{item_id}\t{topic}\t{1 if i % 2 else -1}\n")
        argv = ["score", "--subtask", "B", "--gold", str(gold), "--pred", str(pred),
                "--format", "json", "--pooled"]
        _, out1, _ = run(argv, capsys)
        _, out2, _ = run(argv, capsys)
        assert out1 == out2


class TestInputContract:
    def test_nan_prevalence_rejected(self, tmp_path, capsys):
        gold = tmp_path / "gold.tsv"
        write_labels(gold, {1: 1, -1: 1}, topic="x")
        pred = tmp_path / "pred.tsv"
        pred.write_text("x\tpositive\tnan\nx\tnegative\tnan\n")
        code, out, err = run(
            ["score", "--subtask", "D", "--gold", str(gold), "--pred", str(pred)],
            capsys,
        )
        assert code == 1 and out == ""
        diag = json.loads(err)
        assert diag["error"] == "MALFORMED_LINE" and "line 1" in diag["message"]

    @pytest.mark.parametrize(
        "subtask, gold, pred, line",
        [
            ("B", "1\tx\tpositive\n1\t\tpositive\n", "1\tx\t1\n", 2),
            ("B", "1\tx\tpositive\n", "1\t \t1\n", 1),
            ("D", "1\tx\tpositive\n", "x\tpositive\t1\n\tnegative\t0.5\n", 2),
        ],
        ids=["gold", "pred", "prevalence"],
    )
    def test_empty_topic_field_rejected(self, subtask, gold, pred, line, tmp_path, capsys):
        (tmp_path / "gold.tsv").write_text(gold)
        (tmp_path / "pred.tsv").write_text(pred)
        code, out, err = run(
            ["score", "--subtask", subtask, "--gold", str(tmp_path / "gold.tsv"),
             "--pred", str(tmp_path / "pred.tsv")],
            capsys,
        )
        assert code == 1 and out == ""
        assert json.loads(err) == {
            "error": "MALFORMED_LINE", "message": f"line {line}: empty topic field"}

    @pytest.mark.parametrize("kind", ["prevalence:0.5,x", "ml:bogus"])
    def test_malformed_kind(self, kind, tmp_path, capsys):
        gold = tmp_path / "gold.tsv"
        write_labels(gold, {1: 3, -1: 1}, topic="x")
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

    @pytest.mark.parametrize(
        "argv",
        [
            ["dedup", "--input", "IN", "--threshold", "2"],
            ["dedup", "--input", "IN", "--threshold", "-1"],
            ["dedup", "--input", "IN", "--threshold", "nan"],
            ["dedup", "--input", "IN", "--threshold", "abc"],
            ["stats", "--subtask", "B", "--input", "IN", "--min-size", "-5"],
            ["stats", "--subtask", "Z", "--input", "IN"],
            ["frobnicate", "--input", "IN"],
            [],
        ],
    )
    def test_bad_argument_exits_1_with_json(self, argv, tmp_path, capsys):
        src = tmp_path / "in.tsv"
        src.write_text("t1\tx\t1\ta b\nt2\tx\t1\ta b\n")
        code, out, err = run([str(src) if a == "IN" else a for a in argv], capsys)
        assert code == 1 and out == ""
        (line,) = err.splitlines()
        assert json.loads(line)["error"] == "INVALID_ARGUMENT"

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert "usage: topicsent" in capsys.readouterr().out

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
_field = st.sampled_from(_TOKENS) | st.binary(max_size=4)
_lines = st.lists(_field, max_size=4).map(b"\t".join)
_files = st.binary(max_size=64) | st.lists(_lines, max_size=6).map(b"\n".join)


@st.composite
def _row_files(draw):
    """Well-formed files, except for repeated keys: annotation rows (id,
    topic, five or six labels) or label and dedup rows (id, topic, label,
    text), with topics all named or all NA; so that the commands often get
    past parsing."""
    topics = draw(st.sampled_from([[b"x", b"y"], [b"NA"]]))
    label = st.sampled_from([b"-2", b"-1", b"0", b"1", b"2"])
    if draw(st.booleans()):
        rest = st.lists(label, min_size=5, max_size=6)
    else:
        rest = st.tuples(label | st.just(b"positive"), st.sampled_from([b"a b", b"A b!", b"...", b"c"]))
    ids = [f"t{i}".encode() for i in range(9)]
    rows = draw(st.lists(st.tuples(st.sampled_from(ids), st.sampled_from(topics), rest),
                         min_size=1, max_size=6))
    return b"\n".join(b"\t".join([i, t, *r]) for i, t, r in rows)


_other_files = _files | _row_files()


@pytest.mark.parametrize("subtask", sorted(SUBTASKS))
@settings(deadline=None)
@given(gold=_files, pred=_files)
def test_score_arbitrary_bytes_exits_0_or_1(subtask, gold, pred):
    with tempfile.TemporaryDirectory() as tmp:
        gold_path, pred_path = Path(tmp, "gold"), Path(tmp, "pred")
        gold_path.write_bytes(gold)
        pred_path.write_bytes(pred)
        assert_exits_0_or_1(["score", "--subtask", subtask, "--gold", str(gold_path),
                             "--pred", str(pred_path)])


def assert_exits_0_or_1(argv):
    """Runs the CLI, which must exit 0, or 1 with one JSON line on stderr."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1)
    if code == 1:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1
        assert "error" in json.loads(lines[0])


@pytest.mark.parametrize(
    "argv",
    [
        ["dedup", "--removed", "{tmp}/removed"],
        ["dedup", "--threshold", "0"],
        ["dedup", "--threshold", "1"],
        ["consolidate"],
        *(["stats", "--subtask", subtask] for subtask in sorted(SUBTASKS)),
        ["stats", "--subtask", "C", "--min-size", "2", "--format", "tsv"],
    ],
    ids=lambda argv: "-".join(argv).replace("{tmp}/", ""),
)
@settings(deadline=None)
@given(data=_other_files)
def test_other_commands_arbitrary_bytes_exit_0_or_1(argv, data):
    with tempfile.TemporaryDirectory() as tmp:
        in_path, out_path = Path(tmp, "in"), Path(tmp, "out")
        in_path.write_bytes(data)
        assert_exits_0_or_1([a.replace("{tmp}", tmp) for a in argv]
                            + ["--input", str(in_path), "--output", str(out_path)])


@pytest.mark.parametrize(
    "argv",
    [
        *(["--subtask", subtask, "--kind", "constant:0"] for subtask in sorted(SUBTASKS)),
        *(["--subtask", subtask, "--kind", "ml:micro", "--train", "{tmp}/train"]
          for subtask in ["D", "E"]),
    ],
    ids=lambda argv: "-".join(argv).replace("{tmp}/", ""),
)
@settings(deadline=None)
@given(gold=_other_files, train=_other_files)
def test_baseline_arbitrary_bytes_exit_0_or_1(argv, gold, train):
    with tempfile.TemporaryDirectory() as tmp:
        gold_path, out_path = Path(tmp, "gold"), Path(tmp, "out")
        gold_path.write_bytes(gold)
        Path(tmp, "train").write_bytes(train)
        assert_exits_0_or_1(["baseline", *(a.replace("{tmp}", tmp) for a in argv),
                             "--gold", str(gold_path), "--output", str(out_path)])


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


@pytest.mark.parametrize("subtask", ["B", "C", "D", "E"])
@settings(deadline=None, max_examples=50)
@given(data=st.data())
def test_reversed_topic_names_do_not_change_report(subtask, data):
    """Renaming the topics so that their sorted order reverses gives the same
    report once the names are mapped back: macro means are exact sums."""
    spec = SUBTASKS[subtask]
    classes = spec.scale.classes
    n = data.draw(st.integers(2, 30))
    label = st.sampled_from(classes)
    topics = [data.draw(st.lists(st.tuples(label, label), min_size=1, max_size=6))
              for _ in range(n)]
    weights = [data.draw(st.lists(st.integers(0, 9), min_size=len(classes),
                                  max_size=len(classes)).filter(any)) for _ in range(n)]
    names = [f"t{i:02d}" for i in range(n)]
    reversed_names = names[::-1]
    reports = []
    with tempfile.TemporaryDirectory() as tmp:
        for k, name in enumerate([names, reversed_names]):
            gold = [f"id{i}.{j}\t{name[i]}\t{g}"
                    for i, pairs in enumerate(topics) for j, (g, _) in enumerate(pairs)]
            if spec.mode is Mode.CLASSIFICATION:
                pred = [f"id{i}.{j}\t{name[i]}\t{p}"
                        for i, pairs in enumerate(topics) for j, (_, p) in enumerate(pairs)]
            else:
                pred = [f"{name[i]}\t{c}\t{w / sum(ws)!r}"
                        for i, ws in enumerate(weights) for c, w in zip(classes, ws)]
            paths = [Path(tmp, f"{kind}{k}") for kind in ("gold", "pred", "out")]
            paths[0].write_text("".join(line + "\n" for line in gold), encoding="utf-8")
            paths[1].write_text("".join(line + "\n" for line in pred), encoding="utf-8")
            with contextlib.redirect_stderr(io.StringIO()):
                code = main(["score", "--subtask", subtask, "--gold", str(paths[0]),
                             "--pred", str(paths[1]), "--pooled", "--format", "json",
                             "--output", str(paths[2])])
            assert code == 0
            reports.append(paths[2].read_text(encoding="utf-8"))
    back = dict(zip(reversed_names, names))
    payload = json.loads(reports[1])
    payload["per_topic"] = {back[t]: m for t, m in payload["per_topic"].items()}
    # warnings name topics and come in topic order: "topic t07: ..."
    payload["warnings"] = sorted(
        re.sub(r"t\d\d", lambda m: back[m.group()], w) for w in payload["warnings"]
    )
    assert json.dumps(payload, sort_keys=True, indent=2) + "\n" == reports[0]


@st.composite
def _faulty_label_files(draw, subtask):
    """Gold and prediction label rows for a classification subtask, with
    faults injected: a missing prediction, a repeated gold key, a repeated
    prediction key in gold or not in gold, an off-scale label, or a
    malformed line, each at any position of either file. Ids and topics,
    NA included, may carry spaces around them, so the rows of one key can
    differ in both files."""
    spec = SUBTASKS[subtask]
    topics = ["a", "b"] if spec.topic_based else ["NA"]
    label = st.sampled_from([str(c) for c in spec.scale.classes] + ["positive"])
    keys = draw(st.lists(st.tuples(st.sampled_from(["t1", "t2", "t3", "t4", "t5"]),
                                   st.sampled_from(topics)), min_size=1, max_size=6, unique=True))

    def row(i, t):
        """A row of key (i, t) whose id and topic fields may carry spaces."""
        pad = st.sampled_from(["{}", " {}", "{} ", " {} "])
        return [draw(pad).format(i), draw(pad).format(t), draw(label)]

    gold = [row(i, t) for i, t in keys]
    extras = [row(f"x{k}", topics[0]) for k in range(draw(st.integers(0, 2)))]
    pred = draw(st.permutations([row(i, t) for i, t in keys] + extras))
    files = {"gold": gold, "pred": pred}
    malformed = ["t9", "\ta\t1", "t9\ta", f"t9\t{'NA' if spec.topic_based else 'a'}\t1"]
    for fault in draw(st.lists(st.sampled_from(["missing", "gold repeat", "pred repeat",
                                                "extra repeat", "bad label", "malformed"]),
                               max_size=3)):
        which = files[draw(st.sampled_from(["gold", "pred"]))]
        at = draw(st.integers(0, len(which)))
        if fault == "missing":
            in_gold = [r for r in pred if len(r) == 3 and (r[0].strip(), r[1].strip()) in keys]
            if in_gold:
                pred.remove(draw(st.sampled_from(in_gold)))
        elif fault == "gold repeat":
            gold.insert(draw(st.integers(0, len(gold))), row(*draw(st.sampled_from(keys))))
        elif fault == "pred repeat":
            pred.insert(draw(st.integers(0, len(pred))), row(*draw(st.sampled_from(keys))))
        elif fault == "extra repeat":
            for _ in range(2):
                pred.insert(draw(st.integers(0, len(pred))), row("x9", topics[0]))
        elif fault == "bad label":
            which.insert(at, [f"t{at}", topics[0], draw(st.sampled_from(["3", "x", "", "2"]))])
        else:
            which.insert(at, [draw(st.sampled_from(malformed))])
    return ["\t".join(r) for r in gold], ["\t".join(r) for r in pred]


@st.composite
def _faulty_prevalence_files(draw, subtask):
    """Gold label rows and prevalence file rows for a quantification
    subtask, with faults injected: in gold, a repeated key, an off-scale
    label, an NA topic or a malformed line; in the prevalence file, a
    malformed line, a bad class or value, a repeated class or a sum off 1;
    and often some topics left out."""
    spec = SUBTASKS[subtask]
    classes = [str(c) for c in spec.scale.classes]
    label = st.sampled_from(classes + ["positive"])
    keys = draw(st.lists(st.tuples(st.sampled_from(["t1", "t2", "t3", "t4"]),
                                   st.sampled_from(["a", "b", "c"])), max_size=6, unique=True))
    gold = [[i, t, draw(label)] for i, t in keys]
    topics = sorted({t for _, t in keys} | set(draw(st.lists(st.just("x"), max_size=1))))
    pred = [[t, c, "1" if c == classes[0] else "0"] for t in topics for c in classes]
    for fault in draw(st.lists(st.sampled_from(["gold repeat", "bad label", "NA topic",
                                                "gold malformed", "pred malformed", "bad class",
                                                "bad value", "class repeat", "off sum"]),
                               max_size=3)):
        at_gold, at_pred = draw(st.integers(0, len(gold))), draw(st.integers(0, len(pred)))
        if fault == "gold repeat" and keys:
            i, t = draw(st.sampled_from(keys))
            gold.insert(at_gold, [i, t, draw(label)])
        elif fault == "bad label":
            gold.insert(at_gold, ["t9", "a", draw(st.sampled_from(["3", "x", ""]))])
        elif fault == "NA topic":
            gold.insert(at_gold, ["t9", "NA", classes[0]])
        elif fault == "gold malformed":
            gold.insert(at_gold, [draw(st.sampled_from(["t9", "t9\ta"]))])
        elif fault == "pred malformed":
            pred.insert(at_pred, [draw(st.sampled_from(["a", "a\t1"]))])
        elif fault == "bad class":
            pred.insert(at_pred, ["a", "7", "0"])
        elif fault == "bad value":
            pred.insert(at_pred, ["y", classes[0], draw(st.sampled_from(["x", "-0.5", "nan"]))])
        elif fault == "class repeat" and pred:
            pred.insert(at_pred, list(draw(st.sampled_from(pred))))
        elif fault == "off sum":
            pred.append(["z", classes[-1], "0.5"])
    if topics:
        gone = draw(st.sets(st.sampled_from(topics)))
        pred = [r for r in pred if r[0] not in gone]
    return ["\t".join(r) for r in gold], ["\t".join(r) for r in pred]


def _reference_outcome(spec, gold_text, pred_text):
    """Exit code and diagnostic of scoring with both files parsed in full,
    gold first, then joined by the per-row reference or, for
    quantification, checked for a gold topic without a prediction."""
    try:
        gold = parsed_rows(gold_text, spec)
        if spec.mode is Mode.CLASSIFICATION:
            reference_join(spec.scale, gold, parsed_rows(pred_text, spec))
        else:
            pred = parse_prevalence_file(io.StringIO(pred_text), spec.scale)
            topics = sorted({t for _, t, _ in gold})
            if not topics:
                raise TopicRequired(f"subtask {spec.id} requires topics in the gold data")
            missing = [t for t in topics if t not in pred]
            if missing:
                raise MissingPrediction(None, missing[0])
    except ScoringError as exc:
        return 1, {"error": exc.code, "message": str(exc)}
    return 0, None


@pytest.mark.parametrize("subtask", ["A", "B", "C", "D", "E"])
@settings(deadline=None)
@given(data=st.data())
def test_errors_keep_their_order(subtask, data):
    """Scoring reports the error that parsing gold, then the predictions,
    then matching them would: gold file errors first, then prediction file
    errors, then the first gold key (A-C) or topic (D, E) without a
    prediction."""
    if SUBTASKS[subtask].mode is Mode.CLASSIFICATION:
        gold, pred = data.draw(_faulty_label_files(subtask))
    else:
        gold, pred = data.draw(_faulty_prevalence_files(subtask))
    gold_text = "".join(line + "\n" for line in gold)
    pred_text = "".join(line + "\n" for line in pred)
    with tempfile.TemporaryDirectory() as tmp:
        gold_path, pred_path = Path(tmp, "gold"), Path(tmp, "pred")
        gold_path.write_text(gold_text, encoding="utf-8")
        pred_path.write_text(pred_text, encoding="utf-8")
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["score", "--subtask", subtask, "--gold", str(gold_path),
                         "--pred", str(pred_path)])
    want_code, want_diag = _reference_outcome(SUBTASKS[subtask], gold_text, pred_text)
    assert code == want_code
    if code == 1:
        assert json.loads(err.getvalue()) == want_diag


@pytest.mark.parametrize("subtask", ["C", "D", "E"])
@settings(deadline=None, max_examples=50)
@given(data=st.data())
def test_doubled_topics_do_not_change_metrics(subtask, data):
    """Copying every topic under a fresh name and fresh ids leaves the macro
    metrics byte-identical, and the pooled ones too except on subtask D:
    fsum is exact, so doubling every term and count cancels, but D's pooled
    smoothing epsilon depends on the total test size."""
    spec = SUBTASKS[subtask]
    classes = spec.scale.classes
    label = st.sampled_from(classes)
    topics = data.draw(st.lists(st.lists(st.tuples(label, label), min_size=1, max_size=6),
                                min_size=1, max_size=8))
    weights = [data.draw(st.lists(st.integers(0, 9), min_size=len(classes),
                                  max_size=len(classes)).filter(any)) for _ in topics]
    payloads = []
    with tempfile.TemporaryDirectory() as tmp:
        for copies in (1, 2):
            gold, pred = [], []
            for k in range(copies):
                for i, (pairs, ws) in enumerate(zip(topics, weights)):
                    name = f"t{i}.{k}"
                    gold += [f"id{i}.{j}.{k}\t{name}\t{g}" for j, (g, _) in enumerate(pairs)]
                    if spec.mode is Mode.CLASSIFICATION:
                        pred += [f"id{i}.{j}.{k}\t{name}\t{p}" for j, (_, p) in enumerate(pairs)]
                    else:
                        pred += [f"{name}\t{c}\t{w / sum(ws)!r}" for c, w in zip(classes, ws)]
            paths = [Path(tmp, f"{kind}{copies}") for kind in ("gold", "pred", "out")]
            paths[0].write_text("".join(line + "\n" for line in gold), encoding="utf-8")
            paths[1].write_text("".join(line + "\n" for line in pred), encoding="utf-8")
            with contextlib.redirect_stderr(io.StringIO()):
                code = main(["score", "--subtask", subtask, "--gold", str(paths[0]),
                             "--pred", str(paths[1]), "--pooled", "--output", str(paths[2])])
            assert code == 0
            payload = json.loads(paths[2].read_text(encoding="utf-8"))
            pooled = payload["pooled"] if subtask != "D" else None
            payloads.append(json.dumps([payload["metrics"], pooled]))
    assert payloads[0] == payloads[1]


@settings(deadline=None, max_examples=50)
@given(data=st.data())
def test_swapped_polarity_does_not_change_subtask_b(data):
    """Mapping each class c to -c in gold and predictions together leaves the
    subtask A, B and C scores as they were, since every metric treats the two
    polarities alike. F1_PN, accuracy and MAE^mu stay exact. AvgRec and MAE^M
    sum per-class terms, in reversed order after the swap, so above two
    classes they may differ in the last bits; a sum of two terms does not.
    The absent-class warnings name the swapped classes."""
    for subtask in "ABC":
        scale = SUBTASKS[subtask].scale
        gold, pred = data.draw(_scored_files(subtask))
        swapped = [[re.sub(r"[^\t]+$", lambda m: str(-int(m.group())), line) for line in lines]
                   for lines in (gold, pred)]
        payloads = []
        with tempfile.TemporaryDirectory() as tmp:
            for k, (gold_lines, pred_lines) in enumerate([(gold, pred), swapped]):
                paths = [Path(tmp, f"{kind}{k}") for kind in ("gold", "pred", "out")]
                paths[0].write_text("".join(line + "\n" for line in gold_lines), encoding="utf-8")
                paths[1].write_text("".join(line + "\n" for line in pred_lines), encoding="utf-8")
                with contextlib.redirect_stderr(io.StringIO()):
                    code = main(["score", "--subtask", subtask, "--gold", str(paths[0]),
                                 "--pred", str(paths[1]), "--pooled", "--output", str(paths[2])])
                assert code == 0
                payloads.append(json.loads(paths[2].read_text(encoding="utf-8")))
        before, after = payloads
        tol = 1e-12 if len(scale.classes) > 2 else 0.0
        assert before.keys() == after.keys()
        assert before["per_topic"].keys() == after["per_topic"].keys()
        pairs = [(before[key], after[key]) for key in ("metrics", "pooled") if key in before]
        pairs += [(m, after["per_topic"][t]) for t, m in before["per_topic"].items()]
        for old, new in pairs:
            assert old.keys() == new.keys()
            for name, value in old.items():
                if name in ("avgrec", "mae_macro"):
                    assert abs(new[name] - value) <= tol, (subtask, name)
                else:
                    assert new[name] == value, (subtask, name)
        rename = {scale.class_name(c): scale.class_name(-c) for c in scale.classes}
        assert _warning_set(before["warnings"], rename) == _warning_set(after["warnings"], {})


def _warning_set(warnings, rename):
    """The warnings as a set; an absent-class warning's class names are
    renamed and taken as a set."""
    out = set()
    for w in warnings:
        head, sep, names = w.partition(" excluded from macro means: ")
        out.add((head, frozenset(rename.get(n, n) for n in names.split(", ")) if sep else None))
    return out
