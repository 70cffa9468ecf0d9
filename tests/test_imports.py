"""Import hygiene of ``src/qspin``, read from each module's syntax tree:
no module imports a name it never uses, and ``scalar`` imports from no
qspin module but ``errors`` and ``poly``."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "qspin"

#: Modules whose imports are checked; ``__init__`` only re-exports.
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


def _unused_imports(source: str) -> list:
    """The names a module's source imports and never reads.
    ``__future__`` imports are directives, not names."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_the_guard_finds_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import os, re\n"
        "from .poly import Poly, pack as _pack\n"
        "def f(x) -> Poly:\n"
        "    return re.sub('a', 'b', x)\n"
    )
    assert _unused_imports(source) == [(2, "os"), (3, "_pack")]


@pytest.mark.parametrize("module", MODULES)
def test_no_module_imports_a_name_it_never_uses(module):
    assert _unused_imports((SRC / module).read_text()) == []


def _qspin_sources(source: str) -> set:
    """The qspin modules a module's source imports from."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            dotted = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            # a relative import is from within qspin
            base = (("qspin." if node.level else "") + (node.module or "")).rstrip(".")
            dotted = [f"{base}.{a.name}" for a in node.names] if base == "qspin" else [base]
        else:
            continue
        for name in dotted:
            parts = name.split(".")
            if parts[0] == "qspin" and len(parts) > 1:
                out.add(parts[1])
    return out


def test_scalar_imports_only_errors_and_poly():
    # the field is the bottom layer: brackets and braces, built from it,
    # live in qcomb
    assert _qspin_sources("from . import poly\nfrom .x.y import z\nimport qspin.cli, os") == {
        "poly", "x", "cli"}
    assert _qspin_sources((SRC / "scalar.py").read_text()) == {"errors", "poly"}
