"""Byte identity of the command-line outputs.

Each case runs ``cli.main`` in this process on input files generated from
``bench/workloads.py`` at small sizes, or on a fixed fault file. The sha256 of
its exit code, stdout, stderr and the file it writes with ``--removed`` must
equal the digest that ``cli_bytes.sha256`` holds for the case. A change that
alters output bytes on purpose regenerates the manifest, and lists each
changed case with the reason:

    PYTHONPATH=src python tests/test_cli_bytes.py --write

Without ``--write`` the script checks the manifest without pytest, for
example under another Python version, and prints the cases that differ.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import sys
import tempfile
from collections import Counter, defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MANIFEST = Path(__file__).with_name("cli_bytes.sha256")
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))
sys.path.append(str(ROOT / "bench"))

import workloads  # noqa: E402
from topicsent.cli import main  # noqa: E402

SEEDS = (1, 2, 3, 4, 5)
FORMATS = ("json", "tsv", "table")
THRESHOLDS = ("0", "0.3", "0.6", "0.9", "1")
NAME_OF = {"2": "highlypositive", "1": "positive", "0": "neutral", "-1": "negative",
           "-2": "highlynegative"}
VALUE_OF = {name: int(v) for v, name in NAME_OF.items()}


def _recode(text: str, labels: dict[str, str | None], topic: str | None = None) -> str:
    """A label file with each label's value mapped through ``labels`` (rows
    mapped to None dropped), names kept as names in their case, and every
    topic replaced when one is given."""
    lines = []
    for line in text.splitlines():
        item_id, raw_topic, raw = line.split("\t")
        value = str(VALUE_OF.get(raw.lower(), raw))
        value = labels.get(value, value)
        if value is None:
            continue
        if not raw.lstrip("-").isdigit():
            value = NAME_OF[value].upper() if raw.isupper() else NAME_OF[value]
        lines.append(f"{item_id}\t{topic or raw_topic}\t{value}\n")
    return "".join(lines)


def _prevalences(text: str) -> str:
    """A subtask E prevalence file: each topic's predicted class shares in a
    label file, a class without predictions left without a line."""
    counts: dict[str, Counter] = defaultdict(Counter)
    for line in text.splitlines():
        _, topic, label = line.split("\t")
        counts[topic][int(label)] += 1
    return "".join(f"{topic}\t{c}\t{n / sum(row.values())!r}\n"
                   for topic, row in sorted(counts.items()) for c, n in sorted(row.items()))


def _annotations(gold: str, seed: int) -> str:
    """Five to seven annotator labels around each of the first 300 gold
    labels, clipped to -2..2."""
    rng = random.Random(f"annotations:{seed}")
    lines = []
    for line in gold.splitlines()[:300]:
        item_id, topic, name = line.split("\t")
        value = VALUE_OF[name.lower()]
        labels = [max(-2, min(2, value + rng.choice((-1, 0, 0, 1))))
                  for _ in range(rng.randint(5, 7))]
        lines.append("\t".join([item_id, topic, *map(str, labels)]) + "\n")
    return "".join(lines)


def generated_files(seed: int) -> dict[str, str]:
    c = workloads.score_c(seed, rows=1_000, n_topics=20)
    d = workloads.quant_d(seed, rows=1_000, n_topics=100)
    to_three = {"2": "1", "-2": "-1"}
    return {
        "a_gold": _recode(c.gold_text, to_three, topic="NA"),
        "a_pred": _recode(c.pred_text, to_three, topic="NA"),
        "b_gold": _recode(c.gold_text, {**to_three, "0": None}),
        "b_pred": _recode(c.pred_text, {**to_three, "0": "1"}),
        "c_gold": c.gold_text,
        "c_pred": c.pred_text,
        "d_gold": d.gold_text,
        "d_pred": d.pred_text,
        "e_gold": c.gold_text,
        "e_pred": _prevalences(c.pred_text),
        "annotations": _annotations(c.gold_text, seed),
        "raw": "".join(workloads.dedup(seed, records=300).lines),
    }


BASELINE_KINDS = {
    "A": ["constant:-1", "constant:0", "constant:positive"],
    "B": ["constant:-1", "constant:1"],
    "C": ["constant:-2", "constant:-1", "constant:0", "constant:1", "constant:2"],
    "D": ["constant:-1", "constant:1", "prevalence:0.3,0.7", "ml:micro", "ml:macro"],
    "E": ["constant:-2", "constant:0", "constant:2", "prevalence:0.1,0.2,0.4,0.2,0.1",
          "ml:micro", "ml:macro"],
}


def generated_cases(seed: int):
    """(case id, argv) of every command and format on one seed's files;
    ``@name`` stands for the path of file ``name``."""
    for sub in "ABCDE":
        gold = f"@{sub.lower()}_gold"
        for fmt in FORMATS:
            for pooled in ([], ["--pooled"]):
                tag = f"{fmt} pooled" if pooled else fmt
                yield (f"seed{seed} score {sub} {tag}",
                       ["score", "--subtask", sub, "--gold", gold,
                        "--pred", f"@{sub.lower()}_pred", "--format", fmt, *pooled])
                for kind in BASELINE_KINDS[sub]:
                    train = ["--train", gold] if kind.startswith("ml") else []
                    yield (f"seed{seed} baseline {sub} {kind} {tag}",
                           ["baseline", "--subtask", sub, "--gold", gold, "--kind", kind,
                            *train, "--format", fmt, *pooled])
            for min_size in ([], ["--min-size", "100"], ["--min-size", "0"]):
                yield (f"seed{seed} stats {sub} {fmt} {' '.join(min_size)}".rstrip(),
                       ["stats", "--subtask", sub, "--input", gold, "--format", fmt, *min_size])
    yield f"seed{seed} consolidate", ["consolidate", "--input", "@annotations"]
    for t in THRESHOLDS:
        yield (f"seed{seed} dedup {t}",
               ["dedup", "--input", "@raw", "--threshold", t, "--removed", "@removed"])


GOLD_B = "t1\tx\t1\nt2\tx\t-1\nt3\ty\t1\n"
PREVALENCES_B = "x\t1\t0.5\nx\t-1\t0.5\ny\t1\t1\n"
LABEL_FAULTS = {
    "repeated key": "t1\tx\t1\nt1\tx\t-1\n",
    "padded repeated key": "t1\tx\t1\n t1 \t x \t-1\n",
    "NA topic": "t1\tNA\t1\n",
    "blank topic": "t1\t \t1\n",
    "empty topic": "t1\t\t1\n",
    "too few fields": "t1\tx\n",
    "empty id": " \tx\t1\n",
    "bad label": "t1\tx\tgood\n",
    "off-scale label": "t1\tx\t0\n",
    "two faults": "t1\tx\tgood\nt2\t\t1\n",
    "empty file": "",
    "blank file": "\n \n",
    "CRLF": "t1\tx\t1\r\nt2\tx\t-1\r\nt3\ty\t1\r\n",
    "BOM": "\ufefft1\tx\t1\nt2\tx\t-1\nt3\ty\t1\n",
    "names": "t1\tx\tPositive\nt2\tx\tNEGATIVE\nt3\ty\tpositive\n",
    "extra columns": "t1\tx\t1\ta text\tmore\nt2\tx\t-1\t\nt3\ty\t1\n",
    "bad UTF-8": b"t1\tx\t1\nt2\tx\t\xff\n",
}
JOIN_FAULTS = {
    "repeated prediction in gold": GOLD_B + "t1\tx\t-1\n",
    "repeated prediction not in gold": "t9\tx\t1\n" + GOLD_B + "t9\tx\t1\n",
    "missing prediction": "t1\tx\t1\nt3\ty\t1\n",
    "extra predictions": GOLD_B + "t8\tx\t1\nt9\tz\t-1\n",
}
PREVALENCE_FAULTS = {
    "bad value": "x\t1\tabc\n",
    "NaN value": "x\t1\tnan\n",
    "infinite value": "x\t1\tinf\n",
    "negative value": "x\t1\t-0.1\nx\t-1\t1.1\n",
    "repeated class": "x\t1\t0.5\nx\t1\t0.5\n",
    "too few fields": "x\t1\n",
    "too many fields": "x\t1\t0.5\t1\n",
    "empty topic": "\t1\t0.5\n",
    "bad class": "x\tgood\t0.5\n",
    "off-scale class": "x\t0\t0.5\n",
    "off sum": "x\t1\t0.3\nx\t-1\t0.6\ny\t1\t1\n",
    "sum within 1e-6": "x\t1\t0.3\nx\t-1\t0.7000001\ny\t1\t1\n",
    "sum 0.999": "x\t1\t0.000\nx\t-1\t0.999\ny\t1\t1\n",
    "overflowing sum": "x\t1\t1e308\nx\t-1\t1e308\ny\t1\t1\n",
    "two off-sum topics": "y\t1\t0.5\nx\t1\t0.2\nx\t-1\t0.2\n",
    "missing topic": "x\t1\t0.5\nx\t-1\t0.5\n",
    "extra topic": "x\t1\t0.5\nx\t-1\t0.5\ny\t1\t1\nz\t-1\t1\n",
    "missing class line": "x\t-1\t1.0\ny\t1\t1\n",
}
GOLD_E = "t1\tx\t2\nt2\tx\t-2\nt3\ty\t0\n"
PREVALENCE_FAULTS_E = {
    "five classes": "x\t2\t0.5\nx\t-2\t0.5\ny\t0\t0.25\ny\t1\t0.75\n",
    "two-point class names": "x\tpositive\t0.5\nx\tnegative\t0.5\ny\tneutral\t1\n",
    "off sum": "x\t2\t0.5\nx\t-2\t0.4\ny\t0\t1\n",
}
KIND_FAULTS = [
    "prevalence:0.000,0.999", "prevalence:1e308,1e308", "prevalence:nan",
    "prevalence:nan,nan", "prevalence:inf,0", "prevalence:-0.1,1.1", "prevalence:0.5,0.25,0.25",
    "prevalence:0.3,0.7000001", "prevalence:abc", "prevalence:", "constant:7", "constant:x",
    "ml", "ml:bogus", "bogus:1", "constant",
]
ANNOTATION_FAULTS = {
    "label out of range": "t1\tx\t1\t1\t1\t1\t3\n",
    "four annotators": "t1\tx\t1\t1\t1\t1\n",
    "range before count": "t1\tx\t3\t1\n",
    "non-integer label": "t1\tx\t1\t1\t1\tx\t1\n",
    "repeated key": "t1\tx\t1\t1\t1\t1\t1\nt1\tx\t0\t0\t0\t0\t0\n",
    "empty id": " \tx\t1\t1\t1\t1\t1\n",
    "blank topic": "t1\t \t1\t1\t1\t1\t1\n",
    "too few fields": "t1\tx\n",
    "fault on line 2": "t1\tNA\t2\t2\t-2\t-2\t0\nt2\tx\t2\t2\t2\t2\t-3\n",
    "valid": "t1\tNA\t2\t2\t-2\t-2\t0\nt2\t y \t1\t1\t0\t0\t-1\t-1\n",
}
RAW_FAULTS = {
    "no tokens": "t1\tx\tpositive\t!!! ...\n",
    "too few fields": "t1\tx\tpositive\n",
    "empty text": "t1\tx\tpositive\t\n",
}


def fault_cases():
    """(case id, argv, files) of the input faults; ``@name`` names a file."""
    for name, text in LABEL_FAULTS.items():
        files = {"fault": text, "gold": GOLD_B, "prevalences": PREVALENCES_B}
        yield f"fault gold: {name}", ["score", "--subtask", "B", "--gold", "@fault",
                                      "--pred", "@gold"], files
        yield f"fault pred: {name}", ["score", "--subtask", "B", "--gold", "@gold",
                                      "--pred", "@fault"], files
        yield f"fault stats: {name}", ["stats", "--subtask", "B", "--input", "@fault"], files
        yield (f"fault stats min-size: {name}",
               ["stats", "--subtask", "B", "--input", "@fault", "--min-size", "1"], files)
        yield (f"fault train: {name}", ["baseline", "--subtask", "D", "--gold", "@gold",
                                        "--kind", "ml:macro", "--train", "@fault"], files)
        yield (f"fault subtask A: {name}", ["score", "--subtask", "A", "--gold", "@fault",
                                            "--pred", "@fault"], files)
        yield (f"fault gold D: {name}", ["score", "--subtask", "D", "--gold", "@fault",
                                         "--pred", "@prevalences"], files)
    for name, text in JOIN_FAULTS.items():
        yield (f"fault join: {name}", ["score", "--subtask", "B", "--gold", "@gold",
                                       "--pred", "@pred"], {"gold": GOLD_B, "pred": text})
    for name, text in PREVALENCE_FAULTS.items():
        yield (f"fault prevalences: {name}", ["score", "--subtask", "D", "--gold", "@gold",
                                              "--pred", "@pred", "--pooled"],
               {"gold": GOLD_B, "pred": text})
    for name, text in PREVALENCE_FAULTS_E.items():
        yield (f"fault prevalences E: {name}", ["score", "--subtask", "E", "--gold", "@gold",
                                                "--pred", "@pred", "--pooled"],
               {"gold": GOLD_E, "pred": text})
    for sub in "BDE":
        for kind in KIND_FAULTS:
            yield (f"fault kind {sub}: {kind}", ["baseline", "--subtask", sub, "--gold", "@gold",
                                                 "--kind", kind, "--train", "@gold"],
                   {"gold": GOLD_E if sub == "E" else GOLD_B})
    for sub in "DE":
        yield (f"fault kind {sub}: ml without --train",
               ["baseline", "--subtask", sub, "--gold", "@gold", "--kind", "ml"],
               {"gold": GOLD_E if sub == "E" else GOLD_B})
    for name, text in ANNOTATION_FAULTS.items():
        yield f"fault annotations: {name}", ["consolidate", "--input", "@in"], {"in": text}
    for name, text in RAW_FAULTS.items():
        yield f"fault dedup: {name}", ["dedup", "--input", "@in"], {"in": text}
    raw = {"in": "t1\tx\tpositive\ta b c\nt2\ty\tnegative\ta b c\n"}
    yield ("fault dedup: output and removed both stdout",
           ["dedup", "--input", "@in", "--output", "-", "--removed", "-"], raw)
    for t in ("1.5", "-0.1", "nan", "abc"):
        yield f"fault dedup threshold {t}", ["dedup", "--input", "@in", "--threshold", t], raw
    for n in ("-5", "x", "1.5"):
        yield (f"fault stats min-size {n}", ["stats", "--subtask", "B", "--input", "@in",
                                             "--min-size", n], {"in": GOLD_B})


def _write(directory: Path, files: dict[str, str | bytes]) -> None:
    for name, content in files.items():
        path = directory / name
        if isinstance(content, bytes):
            path.write_bytes(content)
        else:
            path.write_text(content, encoding="utf-8")


def run_case(argv: list[str], directory: Path) -> str:
    """The digest of one run: exit code, stdout, stderr and the --removed
    file, with each ``@name`` in argv replaced by the path of that file.
    Stdout is a text stream over bytes, as the real one is, which the CLI
    reconfigures to UTF-8."""
    argv = [str(directory / a[1:]) if a.startswith("@") else a for a in argv]
    out, err = io.TextIOWrapper(io.BytesIO(), encoding="ascii"), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out.flush()
    removed = directory / "removed"
    written = removed.read_text(encoding="utf-8") if removed.exists() else None
    removed.unlink(missing_ok=True)
    blob = json.dumps([code, out.buffer.getvalue().decode("utf-8"), err.getvalue(), written])
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def digests() -> dict[str, str]:
    """case id -> digest of every case, in a fixed order."""
    result: dict[str, str] = {}
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        for seed in SEEDS:
            _write(directory, generated_files(seed))
            for case, argv in generated_cases(seed):
                result[case] = run_case(argv, directory)
        for case, argv, files in fault_cases():
            with tempfile.TemporaryDirectory(dir=tmp) as sub:
                _write(Path(sub), files)
                result[case] = run_case(argv, Path(sub))
    return result


def manifest() -> dict[str, str]:
    lines = MANIFEST.read_text(encoding="utf-8").splitlines()
    return {case: digest for digest, case in (line.split("  ", 1) for line in lines)}


def differing_cases() -> list[str]:
    """The cases whose digest differs from the manifest, or that only one of
    the two has."""
    expected, actual = manifest(), digests()
    return sorted(c for c in expected.keys() | actual.keys() if expected.get(c) != actual.get(c))


def test_case_ids_are_unique():
    cases = [c for seed in SEEDS for c, _ in generated_cases(seed)]
    cases += [c for c, _, _ in fault_cases()]
    assert len(cases) == len(set(cases))


def test_outputs_match_the_manifest():
    assert differing_cases() == []


if __name__ == "__main__":
    if sys.argv[1:] == ["--write"]:
        cases = digests()
        MANIFEST.write_text("".join(f"{d}  {c}\n" for c, d in cases.items()), encoding="utf-8")
        print(f"wrote {len(cases)} digests to {MANIFEST}")
    else:
        differing = differing_cases()
        print("\n".join(differing) or f"all {len(manifest())} cases match")
        sys.exit(1 if differing else 0)
