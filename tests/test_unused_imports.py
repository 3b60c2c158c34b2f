"""No module of the package, the tests or the scripts imports a name it never uses."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "topomi"
# the package's __init__ imports names only to export them; perfbench/ is the
# benchmark's own, and no tier-1 test gates it
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
OTHERS = sorted([*(ROOT / "tests").glob("*.py"), *(ROOT / "scripts").glob("*.py")])


def unused_imports(source: str) -> list[str]:
    """The names bound by the module's imports that no expression reads."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
            for alias in node.names:
                # ``import a.b`` binds ``a``
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_unused_imports_are_found():
    source = "from typing import Callable, Iterable\nimport numpy as np\nx: Iterable = np.zeros(1)\n"
    assert unused_imports(source) == ["line 1: Callable"]


@pytest.mark.parametrize(
    "path", MODULES + OTHERS, ids=[p.stem for p in MODULES] + [f"{p.parent.name}/{p.stem}" for p in OTHERS],
)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []
