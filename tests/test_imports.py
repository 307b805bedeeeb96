"""Every top-level import of a package module is used by that module."""

import ast
from pathlib import Path

import pytest

import bpre

MODULES = sorted(
    path for path in Path(bpre.__file__).parent.glob("*.py") if path.name != "__init__.py"
)


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=[path.stem for path in MODULES])
def test_no_unused_top_level_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_check_sees_an_unused_import():
    source = "import os\nfrom math import pi as tau, e\nimport numpy.linalg\nprint(e)\n"
    assert unused_imports(source) == ["os", "tau", "numpy"]
