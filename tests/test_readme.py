"""Every fenced ``python`` block of README.md runs against the library in
``src``, and every call form in its "Library" prose names a function with
those parameters, so a renamed or removed public name cannot silently break
the docs."""

import builtins
import importlib
import inspect
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import topicsent

ROOT = Path(__file__).resolve().parents[1]
BLOCKS = re.findall(r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(encoding="utf-8"),
                    flags=re.M | re.S)


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("code", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_python_block_runs(code):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def library_call_forms() -> list[tuple[str, list[str]]]:
    """(name, argument names) of each backticked call form ``name(a, b)`` in
    the README "Library" prose, outside code fences."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    prose = re.sub(r"^```.*?^```$", "", section, flags=re.M | re.S)
    forms = []
    for span in re.findall(r"`([^`]+)`", prose):
        call = re.fullmatch(r"([A-Za-z_][\w.]*)\(([\w, ]*)\)", " ".join(span.split()))
        if call:
            forms.append((call[1], [a.strip() for a in call[2].split(",") if a.strip()]))
    return forms


def resolve(name: str):
    """The topicsent object a README name denotes: a dotted name from the
    package, a bare one from the package or any of its modules."""
    modules = [topicsent] + [importlib.import_module(f"topicsent.{m.name}")
                             for m in pkgutil.iter_modules(topicsent.__path__)]
    head, _, attr = name.rpartition(".")
    if head:
        modules = [importlib.import_module(f"topicsent.{head}")]
    for module in modules:
        if hasattr(module, attr):
            return getattr(module, attr)
    return None


def test_library_call_forms_match_signatures():
    forms = library_call_forms()
    assert len(forms) >= 10
    drifted = []
    for name, args in forms:
        if name.split(".")[0] in vars(builtins):
            continue
        target = resolve(name)
        if inspect.isclass(target):
            continue
        params = list(inspect.signature(target).parameters) if callable(target) else None
        if params is None or params[:len(args)] != args:
            drifted.append(f"{name}({', '.join(args)}) against {params}")
    assert drifted == []
