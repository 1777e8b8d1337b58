"""No module imports a name it never uses, and the library defines no public
function or class that it never names. Folding one module's functions into
another tends to leave such imports and definitions behind, and the checks
need only ``ast``: a name counts as used where the code reads it as a
variable, an attribute or an imported name. ``__init__.py`` re-exports its
imports and ``from __future__`` imports are directives, so both are exempt
from the first check, and an ``__init__.py`` export counts as a use in the
second. The CLI also starts without the modules that ``dataclasses``
pulls in. The tests mirror the library: each test module names the module
it tests, and every module-level helper of the tests is named somewhere in
them, as every public definition of the library is."""

import ast
import os
import subprocess
import sys
from pathlib import Path

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
    module of ``sources`` (module name -> source) names anywhere else."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    named = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                named.update(alias.name for alias in node.names)
    return [f"{module}.{node.name}" for module, tree in trees.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_") and node.name not in named]


def test_unnamed_definitions_are_found():
    sources = {"a": "def f(): pass\ndef g(): pass\nclass C: pass\ndef _h(): pass\n",
               "b": "from a import f\nimport a\na.C\n"}
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


def test_cli_start_imports_no_dataclasses():
    code = ("import sys, topicsent.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert proc.stdout == "[]\n"
