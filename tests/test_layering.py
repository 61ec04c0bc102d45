"""Each module of the package keeps its private names to itself.

A `_`-prefixed name is a module's own detail. A module that needs another's
private name shares a decision with it, and that decision belongs in one
module. Tests may still import private names. The abort rule of a broken
invariant is such a decision too: only `linalg` writes its line, in one
f-string. And no module imports `dataclasses`: each record is a
`typing.NamedTuple`, so that no CLI process builds dataclass machinery or,
for `saturation`, loads `inspect`.

The package is also held to a size budget: its code lines and tokens, as
`code_size` counts them, may not grow unless the budget here is raised.
"""

import ast
import io
import tokenize
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "opent"


def private_imports(source: str) -> list[str]:
    """`module.name` for each `_`-prefixed name that the source takes from an opent module.

    That is each such name it imports, then each it reads as an attribute `X._name` of a module X
    bound by `from . import X`, `from opent import X` or `import opent.X`.
    """
    found, modules, tree = [], set(), ast.parse(source)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").split(".")[0] == "opent"):
            found += [f"{node.module or ''}.{alias.name}" for alias in node.names if alias.name.startswith("_")]
            if node.module in (None, "opent"):  # the names are modules of the package
                modules |= {alias.asname or alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            modules |= {alias.asname or alias.name for alias in node.names if alias.name.startswith("opent.")}
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr.startswith("_") and ast.unparse(node.value) in modules:
            found.append(f"{ast.unparse(node.value)}.{node.attr}")
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_no_module_imports_a_private_name_of_another(path):
    assert private_imports(path.read_text()) == []


def test_the_layering_check_sees_a_private_import():
    source = """
from __future__ import annotations
from numpy import _private
from .schmidt import _parity_layout, realign
from . import blocks
from opent import spin as s
import opent.linalg
def f():
    from opent.linalg import _hidden
    from . import _module
    return blocks._flip_plan, blocks.band_stack, s._jz, opent.linalg._bands, blocks.x._private
"""
    assert private_imports(source) == ["schmidt._parity_layout", "opent.linalg._hidden", "._module",
                                       "blocks._flip_plan", "s._jz", "opent.linalg._bands"]


def abort_lines(source: str) -> list[int]:
    """The line of each f-string of the source whose text holds "exceeds", the word of the abort line."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.JoinedStr)
                  and any(isinstance(part, ast.Constant) and "exceeds" in part.value for part in node.values))


@pytest.mark.parametrize("path", [path for path in sorted(PACKAGE.glob("*.py")) if path.name != "linalg.py"],
                         ids=lambda path: path.name)
def test_only_linalg_writes_the_abort_line(path):
    assert abort_lines(path.read_text()) == []


def test_linalg_writes_the_abort_line_once():
    assert len(abort_lines((PACKAGE / "linalg.py").read_text())) == 1


def test_the_abort_line_check_sees_an_f_string_that_writes_it():
    source = """
def f(x, tol):
    if not x <= tol:
        raise RuntimeError(f"U_T breaks it: "
                           f"residual {x:.3e} exceeds {tol:g} at U_T")
    print("a plain string that exceeds nothing")
    return f"{x} is fine", f"{x} exceeds"
"""
    assert abort_lines(source) == [4, 7]


def dataclass_imports(source: str) -> list[int]:
    """The line of each import of the standard library's `dataclasses` in the source."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Import) and any(alias.name == "dataclasses" for alias in node.names)
                  or isinstance(node, ast.ImportFrom) and not node.level and node.module == "dataclasses")


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_no_module_imports_dataclasses(path):
    assert dataclass_imports(path.read_text()) == []


def test_the_dataclass_check_sees_an_import():
    source = """
from __future__ import annotations
from dataclasses import dataclass
from typing import NamedTuple
from .dataclasses import own
def f():
    import os, dataclasses as dc
    return "import dataclasses"
"""
    assert dataclass_imports(source) == [3, 7]


# token types that are comments or layout, not code
LAYOUT = {tokenize.COMMENT, tokenize.NEWLINE, tokenize.NL, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}
# the budget of `src/opent`: code lines and non-string tokens
SIZE_BUDGET = (979, 10794)


def code_size(source: str) -> tuple[int, int]:
    """(code lines, non-string tokens) of a source.

    A code line holds a token that is not part of a docstring, a comment or layout. The tokens
    counted are those `tokenize` yields that are not a string, a comment, NEWLINE, NL, INDENT,
    DEDENT or ENDMARKER.
    """
    docstrings = {(body[0].lineno, body[0].col_offset) for node in ast.walk(ast.parse(source))
                  if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
                  and (body := node.body) and isinstance(body[0], ast.Expr)
                  and isinstance(body[0].value, ast.Constant) and isinstance(body[0].value.value, str)}
    lines, tokens = set(), 0
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type in LAYOUT or token.type == tokenize.STRING and token.start in docstrings:
            continue
        lines.update(range(token.start[0], token.end[0] + 1))
        tokens += token.type != tokenize.STRING
    return len(lines), tokens


def test_the_package_keeps_to_its_size_budget():
    lines, tokens = map(sum, zip(*(code_size(path.read_text()) for path in PACKAGE.glob("*.py"))))
    assert lines <= SIZE_BUDGET[0] and tokens <= SIZE_BUDGET[1]


def test_the_size_counter_skips_docstrings_comments_layout_and_strings():
    source = '''"""A module docstring
over two lines."""

# a comment
x = "a string"  # and one after code


def f(a):
    """A function docstring."""
    return (a,
            """a string literal
over two lines""")
'''
    # code lines 5, 8, 10, 11 and 12, the last two the literal's; tokens `x =`, `def f ( a ) :`, `return ( a , )`
    assert code_size(source) == (5, 13)
