"""The names the benchmark imports from convolab must exist.

The benchmark in ``bench/`` imports library names (the layer scan inside a
function, so only when it runs); a deleted name would break the traced run
long after the deletion.  The modules are parsed, never imported or run.
"""

import ast
import importlib
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _convolab_imports(path: Path) -> list[tuple[str, str]]:
    """``(module, name)`` for each name ``path`` imports from convolab;
    ``name`` is None for a plain ``import convolab.x``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and (
                node.module == "convolab"
                or node.module.startswith("convolab.")):
            found += [(node.module, alias.name) for alias in node.names]
        elif isinstance(node, ast.Import):
            found += [(alias.name, None) for alias in node.names
                      if alias.name.split(".")[0] == "convolab"]
    return found


def test_the_layer_scan_imports_names_from_convolab():
    names = {name for _, name in _convolab_imports(BENCH / "scan.py")}
    assert {"convolve", "random_mixture", "maximal_function"} <= names


@pytest.mark.parametrize("path", sorted(BENCH.glob("*.py")),
                         ids=lambda p: p.name)
def test_every_imported_name_exists(path):
    for module, name in _convolab_imports(path):
        mod = importlib.import_module(module)
        assert name is None or hasattr(mod, name), f"{module}.{name}"
