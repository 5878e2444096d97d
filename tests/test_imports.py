"""Every name a pintsolve module imports is used in that module.

``__init__.py`` is left out: its imports are the package's public names.
"""

import ast
from pathlib import Path

import pytest

import pintsolve

MODULES = sorted(
    p for p in Path(pintsolve.__file__).parent.glob("*.py") if p.name != "__init__.py"
)


def imported_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text())
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    assert sorted(imported_names(tree) - used) == []
