"""Each module of the package keeps its private names to itself.

A `_`-prefixed name is a module's own detail. A module that needs another's
private name shares a decision with it, and that decision belongs in one
module. Tests may still import private names.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "opent"


def private_imports(source: str) -> list[str]:
    """`module.name` for each `_`-prefixed name that the source imports from an opent module."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").split(".")[0] == "opent"):
            found += [f"{node.module or ''}.{alias.name}" for alias in node.names if alias.name.startswith("_")]
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_no_module_imports_a_private_name_of_another(path):
    assert private_imports(path.read_text()) == []


def test_the_layering_check_sees_a_private_import():
    source = """
from __future__ import annotations
from numpy import _private
from .schmidt import _parity_layout, realign
def f():
    from opent.linalg import _hidden
    from . import _module
"""
    assert private_imports(source) == ["schmidt._parity_layout", "opent.linalg._hidden", "._module"]
