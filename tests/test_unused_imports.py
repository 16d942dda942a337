"""No library or test module imports a name it never uses.

A deletion that leaves an import behind (``dataclasses`` once a dataclass
is gone, a function no caller is left for) keeps the module importable, so
nothing else notices.  The modules are parsed, never imported or run;
``__init__.py`` is skipped, since its imports are the package's exports.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted([*(ROOT / "src" / "convolab").glob("*.py"),
                  *(ROOT / "tests").glob("*.py")])


def unused_imports(source: str) -> list[str]:
    """The names ``source`` binds by an import and never reads."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0]
                         for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    # a dotted read a.b.c is an Attribute chain whose root is the Name a
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in read]


def test_the_check_finds_an_unused_import():
    source = ("import dataclasses\nimport numpy as np\n"
              "from .symbols import Symbol, symbol_norms\n"
              "def f(a: Symbol):\n    return np.abs(a)\n")
    assert unused_imports(source) == ["dataclasses", "symbol_norms"]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text()) == []
