"""Runs one ``topicsent`` CLI job in this process with a span around every
call into the package's layers, then writes the spans as JSON.

    PYTHONPATH=src python3 bench/tracer.py SPANS.json -- <topicsent arguments>

The package is left unmodified: the tracer replaces module attributes with
recording wrappers before the CLI starts. It wraps every public function of
the layer modules and ``Dataset.build``, under whichever names the importing
modules bound them (``from .model import align`` in ``evaluate`` is a
separate binding from ``model.align``). Spans are kept in memory and written
once the job has finished, so recording does no I/O inside the job.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

LAYERS = ("cli", "ingestion", "model", "evaluate", "classification", "ordinal", "quantification")
CLASSMETHODS = (("model", "Dataset", "build"),)

# Work counts taken from a span's return value: rows parsed, and records
# removed by dedup (which returns kept and removed lists).
COUNTERS = {
    "ingestion.parse_dataset": len,
    "ingestion.parse_raw_records": len,
    "ingestion.parse_prevalence_file": lambda r: sum(len(p.fractions) for p in r.values()),
    "ingestion.dedup": lambda r: len(r[1]),
}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[tuple] = []  # (name index, start, end, parent span index, count)
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        counter = COUNTERS.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                count = counter(result) if counter and result is not None else None
                spans[sid] = (name_id, start, end, parent, count)

        return traced

    def install(self, package: str = "topicsent") -> None:
        """Wraps the layers' entry points that exist in this version."""
        wrappers: dict[int, object] = {}
        for layer in LAYERS:
            try:
                mod = importlib.import_module(f"{package}.{layer}")
            except ModuleNotFoundError:
                continue
            for attr, value in vars(mod).items():
                if (inspect.isfunction(value) and value.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    wrappers[id(value)] = self.wrap(f"{layer}.{attr}", value)
        # Rebind every module-level reference to a wrapped function, including
        # names imported from another module.
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == package or mod_name.startswith(package + "."):
                for attr, value in list(vars(mod).items()):
                    if id(value) in wrappers:
                        setattr(mod, attr, wrappers[id(value)])
        for layer, cls_name, meth in CLASSMETHODS:
            cls = getattr(sys.modules.get(f"{package}.{layer}"), cls_name, None)
            raw = cls.__dict__.get(meth) if cls is not None else None
            if isinstance(raw, classmethod):
                setattr(cls, meth, classmethod(self.wrap(f"{layer}.{cls_name}.{meth}", raw.__func__)))

    def dump(self) -> dict:
        return {"names": self.names, "spans": self.spans}


def summarize(dump: dict) -> dict:
    """Aggregates a span dump: the names wrapped; per span name the call
    count, inclusive time and summed work count; per layer the self time
    (span durations minus the time their child spans cover); the root span's
    duration, and the time of the non-cli spans called directly from cli."""
    names, spans = dump["names"], dump["spans"]
    child_time = [0.0] * len(spans)
    for name_id, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    counts: dict[str, int] = {}
    self_s: dict[str, float] = {}
    root = top = 0.0
    for sid, (name_id, start, end, parent, count) in enumerate(spans):
        name = names[name_id]
        layer = name.split(".", 1)[0]
        duration = end - start
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + duration
        if count is not None:
            counts[name] = counts.get(name, 0) + count
        self_s[layer] = self_s.get(layer, 0.0) + duration - child_time[sid]
        if parent < 0:
            root += duration
        elif layer != "cli" and names[spans[parent][0]].startswith("cli."):
            top += duration
    return {"wrapped": names, "calls": calls, "total_s": total, "counts": counts,
            "self_s": self_s, "root_s": root, "top_level_s": top}


def main(argv: list[str]) -> int:
    out_path, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: tracer.py SPANS.json -- <topicsent arguments>")
    tracer = Tracer()
    tracer.install()
    code = sys.modules["topicsent.cli"].main(cli_args)
    with open(out_path, "w", encoding="utf-8") as f:
        json.dump(tracer.dump(), f, separators=(",", ":"))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
