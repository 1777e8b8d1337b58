"""Batch command-line front end.

Subcommands: score, baseline, consolidate, dedup, stats. Inputs and outputs
are explicit paths or ``-`` for the standard streams. Exit codes: 0 success,
1 input/validation error, 2 internal error. JSON output carries full-precision
values; TABLE output rounds to 3 decimals, half away from zero.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import sys
from contextlib import contextmanager
from decimal import ROUND_HALF_UP, Decimal
from functools import partial
from itertools import chain, filterfalse
from json.encoder import encode_basestring_ascii as _json_str
from typing import IO

from . import baselines, ingestion
from .annotation import consolidate_labels
from .errors import InvalidArgument, InvalidLabel, ScoringError
from .evaluate import (SUBTASKS, Mode, ScoreReport, SubtaskSpec, classification_report,
                       quantification_report)
from .model import ascii_number


def _ascii(kind: type[int] | type[float]) -> partial:
    """The argparse type of an ASCII ``kind`` (model.ascii_number), named as
    kind, so that a bad value gets argparse's "invalid int value" text."""
    convert = partial(ascii_number, kind)
    convert.__name__ = kind.__name__
    return convert


def round_display(x: float) -> float:
    """Rounds to 3 decimals half away from zero, the convention the score
    tables use."""
    return float(Decimal(repr(x)).quantize(Decimal("0.001"), rounding=ROUND_HALF_UP))


@contextmanager
def _open_in(path: str):
    """Reads strict UTF-8, skipping a leading byte-order mark. A line ends at
    "\n" alone, on a path as on stdin, so that the same bytes read the same."""
    if path == "-":
        sys.stdin.reconfigure(encoding="utf-8-sig", newline="\n")
        yield sys.stdin
    else:
        with open(path, encoding="utf-8-sig", newline="\n") as f:
            yield f


@contextmanager
def _open_out(path: str):
    """Writes UTF-8, on a path as on stdout, whatever the locale."""
    if path == "-":
        sys.stdout.reconfigure(encoding="utf-8")
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8") as f:
            yield f


def _write_per_topic(per_topic: dict[str, dict[str, float]], out: IO[str]) -> None:
    """Writes the ``per_topic`` value of a report as ``json.dump`` with
    ``indent=2`` would at its depth, one topic at a time: keys sorted and
    ASCII-escaped, floats by repr, and a non-finite value raising ValueError
    before anything is written. Each topic holds at least one metric."""
    values = chain.from_iterable(map(dict.values, per_topic.values()))
    for value in filterfalse(math.isfinite, values):
        raise ValueError(f"Out of range float values are not JSON compliant: {value!r}")
    sep = "{\n    "
    for topic in sorted(per_topic):
        items = sorted(per_topic[topic].items())
        fields = ",\n      ".join([f"{_json_str(name)}: {value!r}" for name, value in items])
        out.write(f"{sep}{_json_str(topic)}: {{\n      {fields}\n    }}")
        sep = ",\n    "
    out.write("\n  }" if per_topic else "{}")


def _one_std_stream(args, first: str, second: str, stream: str) -> None:
    """Rejects two options that both name the standard ``stream``: one read
    of stdin leaves the other empty, and two outputs on stdout run together."""
    if getattr(args, first) == getattr(args, second) == "-":
        raise InvalidArgument(f"--{first} and --{second} cannot both be - ({stream})")


def _emit_report(report: ScoreReport, fmt: str, out: IO[str]) -> None:
    if fmt == "json":
        payload = {
            "subtask": report.subtask.id,
            "primary_metric": report.subtask.primary_metric,
            "higher_is_better": report.subtask.higher_is_better,
            "metrics": report.metrics,
            "metrics_display": {k: round_display(v) for k, v in report.metrics.items()},
            "per_topic": {},
            "n_topics": len(report.per_topic),
            "warnings": report.warnings,
        }
        if report.pooled is not None:
            payload["pooled"] = report.pooled
            payload["pooled_display"] = {k: round_display(v) for k, v in report.pooled.items()}
        # the per-topic block is most of a report: stream it into its place
        head, _, tail = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False).partition(
            '\n  "per_topic": {}')
        out.write(f'{head}\n  "per_topic": ')
        _write_per_topic(report.per_topic, out)
        out.write(f"{tail}\n")
    elif fmt == "tsv":
        for name in sorted(report.metrics):
            out.write(f"{name}\t{report.metrics[name]!r}\n")
        if report.pooled is not None:
            for name in sorted(report.pooled):
                out.write(f"pooled_{name}\t{report.pooled[name]!r}\n")
        for topic in sorted(report.per_topic):
            for name in sorted(report.per_topic[topic]):
                out.write(f"{topic}\t{name}\t{report.per_topic[topic][name]!r}\n")
    else:  # table
        out.write(f"subtask {report.subtask.id}  (primary: {report.subtask.primary_metric})\n")
        for name in sorted(report.metrics):
            out.write(f"  {name:<10} {round_display(report.metrics[name]):.3f}\n")
        if report.pooled is not None:
            out.write("  pooled:\n")
            for name in sorted(report.pooled):
                out.write(f"    {name:<10} {round_display(report.pooled[name]):.3f}\n")
        if report.per_topic:
            out.write(f"  topics: {len(report.per_topic)}\n")
    for w in report.warnings:
        print(f"warning: {w}", file=sys.stderr)


def cmd_score(args) -> int:
    """Holds the gold file in memory; for classification, streams the
    prediction file through the join, so its rows never form a map, and for
    quantification, reduces gold to class counts before the prediction file
    is read. Errors come from the gold file first, then the prediction file,
    then missing predictions."""
    _one_std_stream(args, "gold", "pred", "stdin")
    spec = SUBTASKS[args.subtask]
    if spec.mode is Mode.CLASSIFICATION:
        with _open_in(args.gold) as f:
            gold = ingestion.parse_labels(f, spec)
        with _open_in(args.pred) as f:
            tables, n_ignored = ingestion.join_labels(f, spec, gold)
        report = classification_report(spec, tables, n_ignored, args.pooled)
    else:
        with _open_in(args.gold) as f:
            counts = ingestion.count_labels(f, spec)
        with _open_in(args.pred) as f:
            pred = ingestion.parse_prevalence_file(f, spec.scale)
        report = quantification_report(spec, counts, pred, args.pooled)
    with _open_out(args.output) as out:
        _emit_report(report, args.format, out)
    return 0


def _baseline_report(spec: SubtaskSpec, counts, args) -> ScoreReport:
    kind, _, arg = args.kind.partition(":")
    if kind == "constant":
        c = spec.scale.parse_label(arg)
        if spec.mode is Mode.CLASSIFICATION:
            tables = baselines.constant_classifier(spec.scale, counts, c)
            return classification_report(spec, tables, 0, args.pooled)
        p = ingestion.normalized_prevalence(spec.scale,
                                            [float(x == c) for x in spec.scale.classes])
    elif kind == "prevalence":
        if spec.mode is not Mode.QUANTIFICATION:
            raise InvalidArgument("prevalence baselines apply to subtasks D and E only")
        try:
            fractions = [ascii_number(float, v) for v in arg.split(",")]
        except ValueError:
            raise InvalidLabel(f"bad prevalence list {arg!r}") from None
        p = ingestion.normalized_prevalence(spec.scale, fractions)
    elif kind == "ml":
        if spec.mode is not Mode.QUANTIFICATION:
            raise InvalidArgument("the ML baseline applies to subtasks D and E only")
        if not args.train:
            raise InvalidArgument("the ML baseline requires --train")
        try:
            averaging = baselines.Averaging(arg or "micro")
        except ValueError:
            raise InvalidArgument(f"unknown baseline kind {args.kind!r}") from None
        with _open_in(args.train) as f:
            train = ingestion.count_labels(f, spec)
        p = baselines.ml_quantifier(train, averaging)
    else:
        raise InvalidArgument(f"unknown baseline kind {args.kind!r}")
    return quantification_report(spec, counts, dict.fromkeys(counts, p), args.pooled)


def cmd_baseline(args) -> int:
    _one_std_stream(args, "gold", "train", "stdin")
    spec = SUBTASKS[args.subtask]
    with _open_in(args.gold) as f:
        counts = ingestion.count_labels(f, spec)
    report = _baseline_report(spec, counts, args)
    with _open_out(args.output) as out:
        _emit_report(report, args.format, out)
    return 0


def cmd_consolidate(args) -> int:
    with _open_in(args.input) as f:
        annotations = ingestion.parse_annotations(f)
    with _open_out(args.output) as out:
        for key, labels in annotations:
            out.write(f"{key}\t{consolidate_labels(labels)}\n")
    return 0


def cmd_dedup(args) -> int:
    _one_std_stream(args, "output", "removed", "stdout")
    if args.removed not in (None, "-") and args.output != "-" and (
            os.path.realpath(args.output) == os.path.realpath(args.removed)):
        # the removed pairs would overwrite the kept records
        raise InvalidArgument("--output and --removed cannot both name one file")
    with _open_in(args.input) as f:
        records = ingestion.parse_raw_records(f)
    kept, removed = ingestion.dedup(records, threshold=args.threshold)
    with _open_out(args.output) as out:
        out.writelines(f"{line}\n" for _, _, line in kept)
    if args.removed:
        with _open_out(args.removed) as out:
            out.writelines(f"{rec[0]}\t{hit[0]}\n" for rec, hit in removed)
    print(f"kept {len(kept)}, removed {len(removed)}", file=sys.stderr)
    return 0


def cmd_stats(args) -> int:
    spec = SUBTASKS[args.subtask]
    with _open_in(args.input) as f:
        per_class, per_topic = ingestion.stats(spec.scale, ingestion.count_labels(f, spec),
                                               args.min_size)
    total = sum(per_class.values())
    with _open_out(args.output) as out:
        if args.format == "json":
            json.dump({
                "per_class": {str(c): n for c, n in per_class.items()},
                "per_topic": per_topic,
                "n_topics": len(per_topic),
                "total": total,
            }, out, sort_keys=True, indent=2, allow_nan=False)
            out.write("\n")
        elif args.format == "tsv":
            for c, n in per_class.items():
                out.write(f"class\t{c}\t{n}\n")
            for t, n in per_topic.items():
                out.write(f"topic\t{t}\t{n}\n")
            out.write(f"total\t\t{total}\n")
        else:
            cols = "\t".join(str(c) for c in per_class)
            vals = "\t".join(str(n) for n in per_class.values())
            out.write(f"classes:\t{cols}\ncounts:\t{vals}\n")
            out.write(f"topics: {len(per_topic)}\ntotal: {total}\n")
    return 0


class _ArgumentParser(argparse.ArgumentParser):
    """Raises usage errors, so that they exit 1 with a JSON diagnostic like
    other input errors; subcommand parsers inherit this class."""

    def error(self, message: str):
        raise InvalidArgument(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="topicsent",
        description="Scoring toolkit for topic-based sentiment classification "
        "and quantification (subtasks A-E).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--subtask", required=True, choices=sorted(SUBTASKS))
        p.add_argument("--format", choices=["json", "tsv", "table"], default="json")
        p.add_argument("--output", default="-", help="output path or - for stdout")

    pooled_help = ("additionally report whole-set (non-macroaveraged) scores; subtask A "
                   "is scored over the whole set already, so it adds nothing there")

    p = sub.add_parser("score", help="score a prediction file against gold")
    add_common(p)
    p.add_argument("--gold", required=True)
    p.add_argument("--pred", required=True)
    p.add_argument("--pooled", action="store_true", help=pooled_help)
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("baseline", help="score a trivial baseline against gold")
    add_common(p)
    p.add_argument("--gold", required=True)
    p.add_argument("--kind", required=True,
                   help="constant:<label> | prevalence:<f1,f2,...> | ml:micro | ml:macro")
    p.add_argument("--train", help="training file for the ML baseline")
    p.add_argument("--pooled", action="store_true", help=pooled_help)
    p.set_defaults(func=cmd_baseline)

    p = sub.add_parser("consolidate", help="consolidate crowd annotations into gold labels")
    p.add_argument("--input", default="-")
    p.add_argument("--output", default="-")
    p.set_defaults(func=cmd_consolidate)

    p = sub.add_parser("dedup", help="drop near-duplicate records by bag-of-words cosine")
    p.add_argument("--input", default="-")
    p.add_argument("--output", default="-")
    p.add_argument("--removed", help="optional path for removed-id\\tkept-id pairs")
    p.add_argument("--threshold", type=_ascii(float), default=0.6)
    p.set_defaults(func=cmd_dedup)

    p = sub.add_parser("stats", help="per-class and per-topic count summary")
    add_common(p)
    p.add_argument("--input", required=True)
    p.add_argument("--min-size", type=_ascii(int), dest="min_size",
                   help="drop topics with fewer items before counting")
    p.set_defaults(func=cmd_stats)

    return parser


def main(argv: list[str] | None = None) -> int:
    # warnings name topics, so stderr too is UTF-8 whatever the locale; a
    # stream of str (io.StringIO) has no encoding to set
    if isinstance(sys.stderr, io.TextIOWrapper):
        sys.stderr.reconfigure(encoding="utf-8", errors="backslashreplace")
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except ScoringError as exc:
        diag = {"error": exc.code, "message": str(exc)}
        print(json.dumps(diag, sort_keys=True), file=sys.stderr)
        return 1
    except (OSError, UnicodeDecodeError) as exc:
        print(json.dumps({"error": "IO_ERROR", "message": str(exc)}, sort_keys=True),
              file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover - internal failure path
        print(json.dumps({"error": "INTERNAL", "message": str(exc)}, sort_keys=True),
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
