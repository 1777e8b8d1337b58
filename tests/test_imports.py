"""No module imports a name it never uses, and the library defines no public
function or class that it never names. Folding one module's functions into
another tends to leave such imports and definitions behind, and the checks
need only ``ast``: a name counts as used where the code reads it as a
variable, an attribute or an imported name. ``__init__.py`` re-exports its
imports and ``from __future__`` imports are directives, so both are exempt
from the first check, and an ``__init__.py`` export, a string there, counts as
a use in the second. The CLI also starts without the modules that
``dataclasses`` pulls in, each command loads only the layers it runs, and the
package loads an export's module only when the export is read. The tests
mirror the library: each test module names the module it tests, and every
module-level helper of the tests is named somewhere in them, as every public
definition of the library is."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import topicsent

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted(
    path for pattern in ("src/topicsent/*.py", "scripts/*.py", "tests/*.py")
    for path in ROOT.glob(pattern) if path.name != "__init__.py"
)
LIBRARY = sorted(ROOT.glob("src/topicsent/*.py"))
TESTS = sorted(ROOT.glob("tests/*.py"))
# test modules that test the package as a whole rather than one of its modules
CROSS_CUTTING = {"acceptance", "cli_bytes", "imports", "readme", "scripts"}


def unused_imports(source: str) -> list[str]:
    """The names that the module's import statements bind and no expression reads."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_unused_imports_are_found():
    source = "from __future__ import annotations\nimport os.path\nfrom a import b as c, d\nd()\n"
    assert unused_imports(source) == ["os", "c"]


def test_every_import_is_used():
    unused = {str(path.relative_to(ROOT)): unused_imports(path.read_text(encoding="utf-8"))
              for path in FILES}
    assert {path: names for path, names in unused.items() if names} == {}


def unnamed_definitions(sources: dict[str, str]) -> list[str]:
    """``module.name`` of each public module-level function or class that no
    module of ``sources`` (module name -> source) names anywhere else; the
    strings of ``__init__``, which lists the package exports, name too."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    named = set()
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                named.update(alias.name for alias in node.names)
            elif module == "__init__" and isinstance(node, ast.Constant):
                named.add(node.value)
    return [f"{module}.{node.name}" for module, tree in trees.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_") and node.name not in named]


def test_unnamed_definitions_are_found():
    sources = {"a": "def f(): pass\ndef g(): pass\nclass C: pass\ndef _h(): pass\ndef k(): pass",
               "b": "from a import f\nimport a\na.C\n",
               "__init__": '_EXPORTS = {"a": ("k",)}\n'}
    assert unnamed_definitions(sources) == ["a.g"]


def test_every_public_definition_is_named():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in LIBRARY}
    assert unnamed_definitions(sources) == []


def test_every_test_helper_is_named():
    # pytest collects the test_ functions and Test classes by their names
    sources = {path.stem: path.read_text(encoding="utf-8") for path in TESTS}
    assert [name for name in unnamed_definitions(sources)
            if not name.split(".")[1].startswith(("test_", "Test"))] == []


def test_each_test_module_names_a_library_module():
    modules = {path.stem for path in LIBRARY} | CROSS_CUTTING
    assert [path.name for path in ROOT.glob("tests/test_*.py")
            if path.stem.removeprefix("test_") not in modules] == []


def modules_after(code: str, *argv: str, cwd: Path = ROOT) -> set[str]:
    """The modules that a fresh ``python -S`` process holds after it runs
    ``code`` with ``argv`` as ``sys.argv[1:]``, where no site hook has
    loaded any of them first."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-S", "-c", f"{code}\nprint(sorted(sys.modules))",
                           *argv], cwd=cwd, env=env, capture_output=True, text=True, check=True)
    return set(ast.literal_eval(proc.stdout.splitlines()[-1]))


def test_cli_start_imports_no_dataclasses():
    assert {"dataclasses", "inspect"} & modules_after("import sys, topicsent.cli") == set()


RUN_CLI = """import sys
from topicsent.cli import main
try:
    assert main(sys.argv[1:]) == 0
except SystemExit as exc:
    assert exc.code == 0"""
SCORING = {f"topicsent.{m}" for m in ("evaluate", "classification", "quantification")}
BASELINES, INGESTION = "topicsent.baselines", "topicsent.ingestion"
# the near-duplicate filter, which only dedup runs
NEARDUP = {"topicsent.neardup", "unicodedata"}


@pytest.mark.parametrize("argv, loaded, absent", [
    (["--help"], set(), {INGESTION, BASELINES, "json", "decimal", *NEARDUP, *SCORING}),
    (["dedup", "--input", "raw", "--output", "kept"], {INGESTION, *NEARDUP},
     {BASELINES, "json", "decimal", *SCORING}),
    (["score", "--subtask", "C", "--gold", "gold", "--pred", "gold", "--output", "report"],
     {INGESTION, "json", "decimal", *SCORING}, {BASELINES, *NEARDUP}),
    (["baseline", "--subtask", "C", "--gold", "gold", "--kind", "constant:1",
      "--output", "report"], {INGESTION, BASELINES, "json", "decimal", *SCORING}, NEARDUP),
    (["stats", "--subtask", "C", "--input", "gold", "--output", "report"],
     {INGESTION, "json"}, {BASELINES, "decimal", *NEARDUP, *SCORING}),
], ids=["help", "dedup", "score", "baseline", "stats"])
def test_command_loads_only_its_layers(argv, loaded, absent, tmp_path):
    (tmp_path / "raw").write_text("t1\tx\tpositive\ta b c\nt2\tx\tnegative\ta b c!\n")
    (tmp_path / "gold").write_text("t1\tx\t2\nt2\tx\t-1\n")
    modules = modules_after(RUN_CLI, *argv, cwd=tmp_path)
    assert (loaded - modules, absent & modules) == (set(), set())


def test_package_loads_an_export_with_its_module():
    code = ("import sys, topicsent\nbare = sorted(sys.modules)\n"
            "assert not [m for m in bare if m.startswith('topicsent.')], bare\n"
            "topicsent.Scale")
    modules = {m for m in modules_after(code) if m.startswith("topicsent")}
    assert modules == {"topicsent", "topicsent.errors", "topicsent.model"}


def defining_module(name: str) -> str | None:
    """The library module whose top level defines or assigns ``name``."""
    for path in LIBRARY:
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            targets = (node.targets if isinstance(node, ast.Assign) else
                       [node.target] if isinstance(node, ast.AnnAssign) else [node])
            if name in [getattr(t, "id", getattr(t, "name", None)) for t in targets]:
                return path.stem
    return None


def test_each_export_is_its_modules_object():
    homes = {name: defining_module(name) for name in topicsent.__all__}
    assert [name for name, home in homes.items() if home in (None, "__init__")
            or getattr(topicsent, name) is not getattr(importlib.import_module(
                f"topicsent.{home}"), name)] == []


def test_unknown_package_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        topicsent.no_such_name


def test_star_import_binds_the_exports():
    namespace = {}
    exec("from topicsent import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(topicsent.__all__)
