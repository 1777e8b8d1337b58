import contextlib
import io
import json
import re
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dataset_from_counts, reference_join, rows
from topicsent.cli import main, round_display
from topicsent.errors import MissingPrediction, ScoringError, TopicRequired
from topicsent.evaluate import SUBTASKS, Mode
from topicsent.ingestion import parse_dataset, parse_prevalence_file, serialize_dataset
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
            for item_id, _ in d.labels:
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
            serialize_dataset(Dataset.build(Scale.FIVE_POINT, rows(a, b)), f)
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

    @pytest.mark.parametrize("fractions", [("0.3333333", "0.6666666"), ("0.3", "0.7000000001")])
    def test_prevalence_list_sum_rule_matches_prevalence_files(self, fractions, tmp_path, capsys):
        """A --kind prevalence: list gets the sum rule of prevalence files:
        within 1e-6 of 1, then renormalized; so it scores as score does."""
        gold = tmp_path / "gold.tsv"
        write_dataset(gold, Scale.TWO_POINT, {1: 3, -1: 1}, topic="x")
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
        write_dataset(gold, Scale.FIVE_POINT, {1: 3, -1: 1}, topic="x")
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
            serialize_dataset(Dataset.build(Scale.TWO_POINT, rows(a, b)), f)
        code, out, _ = run(
            ["stats", "--subtask", "B", "--input", str(gold),
             "--min-size", "5", "--format", "json"],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["per_topic"] == {"b": 12}
        assert payload["total"] == 12

    @pytest.mark.parametrize("subtask,text", [("B", ""), ("A", "t1\tNA\t1\n")])
    def test_min_size_needs_topics(self, subtask, text, tmp_path, capsys):
        """An empty or topicless file has no topics to filter."""
        gold = tmp_path / "gold.tsv"
        gold.write_text(text)
        argv = ["stats", "--subtask", subtask, "--input", str(gold)]
        assert run(argv, capsys)[0] == 0
        code, out, err = run([*argv, "--min-size", "1"], capsys)
        assert code == 1 and out == ""
        assert json.loads(err)["error"] == "NO_TOPICS"


class TestDeterminism:
    def test_identical_runs_byte_identical(self, tmp_path, capsys):
        gold = tmp_path / "gold.tsv"
        d = write_dataset(gold, Scale.TWO_POINT, {1: 5, -1: 5}, topic="x")
        pred = tmp_path / "pred.tsv"
        with open(pred, "w") as f:
            for i, (item_id, topic) in enumerate(d.labels):
                f.write(f"{item_id}\t{topic}\t{1 if i % 2 else -1}\n")
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
    malformed line, each at any position of either file."""
    spec = SUBTASKS[subtask]
    topics = ["a", "b"] if spec.topic_based else ["NA"]
    label = st.sampled_from([str(c) for c in spec.scale.classes] + ["positive"])
    keys = draw(st.lists(st.tuples(st.sampled_from(["t1", "t2", "t3", "t4", "t5"]),
                                   st.sampled_from(topics)), min_size=1, max_size=6, unique=True))
    gold = [[i, t, draw(label)] for i, t in keys]
    extras = [[f"x{k}", topics[0], draw(label)] for k in range(draw(st.integers(0, 2)))]
    pred = draw(st.permutations([[i, t, draw(label)] for i, t in keys] + extras))
    files = {"gold": gold, "pred": pred}
    malformed = ["t9", "\ta\t1", "t9\ta", f"t9\t{'NA' if spec.topic_based else 'a'}\t1"]
    for fault in draw(st.lists(st.sampled_from(["missing", "gold repeat", "pred repeat",
                                                "extra repeat", "bad label", "malformed"]),
                               max_size=3)):
        which = files[draw(st.sampled_from(["gold", "pred"]))]
        at = draw(st.integers(0, len(which)))
        if fault == "missing":
            in_gold = [r for r in pred if tuple(r[:2]) in keys and len(r) == 3]
            if in_gold:
                pred.remove(draw(st.sampled_from(in_gold)))
        elif fault == "gold repeat":
            i, t = draw(st.sampled_from(keys))
            gold.insert(draw(st.integers(0, len(gold))), [i, t, draw(label)])
        elif fault == "pred repeat":
            i, t = draw(st.sampled_from(keys))
            pred.insert(draw(st.integers(0, len(pred))), [i, t, draw(label)])
        elif fault == "extra repeat":
            for _ in range(2):
                pred.insert(draw(st.integers(0, len(pred))), ["x9", topics[0], draw(label)])
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
        gold = parse_dataset(io.StringIO(gold_text), spec)
        if spec.mode is Mode.CLASSIFICATION:
            reference_join(gold, parse_dataset(io.StringIO(pred_text), spec))
        else:
            pred = parse_prevalence_file(io.StringIO(pred_text), spec.scale)
            topics = sorted({t for _, t in gold.labels})
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
    """Mapping 1 to -1 and -1 to 1 in gold and predictions together leaves
    every subtask B value exactly as it was: AvgRec, F1_PN and accuracy treat
    the two classes alike."""
    gold, pred = data.draw(_scored_files("B"))
    swap = {"1": "-1", "-1": "1"}
    swapped = [[re.sub(r"[^\t]+$", lambda m: swap[m.group()], line) for line in lines]
               for lines in (gold, pred)]
    payloads = []
    with tempfile.TemporaryDirectory() as tmp:
        for k, (gold_lines, pred_lines) in enumerate([(gold, pred), swapped]):
            paths = [Path(tmp, f"{kind}{k}") for kind in ("gold", "pred", "out")]
            paths[0].write_text("".join(line + "\n" for line in gold_lines), encoding="utf-8")
            paths[1].write_text("".join(line + "\n" for line in pred_lines), encoding="utf-8")
            with contextlib.redirect_stderr(io.StringIO()):
                code = main(["score", "--subtask", "B", "--gold", str(paths[0]),
                             "--pred", str(paths[1]), "--pooled", "--output", str(paths[2])])
            assert code == 0
            payload = json.loads(paths[2].read_text(encoding="utf-8"))
            payloads.append([payload[key] for key in ("metrics", "per_topic", "pooled")])
    assert payloads[0] == payloads[1]
