"""No module imports a name it never uses. Folding one module's functions
into another tends to leave such imports behind, and the check needs only
``ast``: a name counts as used where the code reads it as a variable.
``__init__.py`` re-exports its imports and ``from __future__`` imports are
directives, so both are exempt."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted(
    path for pattern in ("src/topicsent/*.py", "scripts/*.py", "tests/*.py")
    for path in ROOT.glob(pattern) if path.name != "__init__.py"
)


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
