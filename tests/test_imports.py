"""Import hygiene of ``src/qspin``, read from each module's syntax tree:
no module imports a name it never uses, no private module-level name goes
unread, ``scalar`` imports from no qspin module but ``errors`` and
``poly``, and every ``lru_cache`` keys its arguments by type."""

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


def _unread_private_names(sources: dict) -> list:
    """The private module-level functions, classes and constants of
    ``sources`` (module name -> source) that no source reads, as
    (module, name) pairs.

    A name is read where it is loaded (``_f(x)``) or taken as an attribute
    (``scalar._f``), in any of the sources; a name read only inside its own
    body, as a recursive function reads itself, counts as read.  Dunder
    names are not private."""
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            defined += [(module, name) for name in names
                        if name.startswith("_") and not name.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return sorted((module, name) for module, name in defined if name not in read)


def test_the_guard_finds_an_unread_private_name():
    sources = {
        "a.py": (
            "_USED = 1\n"
            "_DEAD: int = 2\n"
            "_X, (_Y, _Z) = 3, (4, 5)\n"
            "__all__ = ['f']\n"
            "def _recursive(n):\n"
            "    return _recursive(n - 1) if n else _USED\n"
            "class _Gone:\n"
            "    pass\n"
            "def f(x):\n"
            "    _local = x\n"
            "    return _X + b._helper()\n"
        ),
        "b.py": "def _helper():\n    return _Y\n",
    }
    assert _unread_private_names(sources) == [
        ("a.py", "_DEAD"), ("a.py", "_Gone"), ("a.py", "_Z")]


def test_every_private_name_is_read():
    sources = {p.name: p.read_text() for p in SRC.glob("*.py")}
    assert _unread_private_names(sources) == []


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


def _untyped_caches(source: str) -> list:
    """The lines of the ``lru_cache`` decorators in ``source`` that do not
    pass ``typed=True``: without it ``f(True)`` is served ``f(1)``'s
    value, and ``f(1.0)`` too."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        for dec in node.decorator_list:
            call = dec if isinstance(dec, ast.Call) else None
            name = ast.unparse(call.func if call else dec)
            if name.split(".")[-1] != "lru_cache":
                continue
            typed = [k.value for k in call.keywords if k.arg == "typed"] if call else []
            if not (typed and isinstance(typed[0], ast.Constant) and typed[0].value is True):
                out.append(dec.lineno)
    return out


def test_the_guard_finds_an_untyped_cache():
    source = (
        "import functools\n"
        "from functools import lru_cache\n"
        "@lru_cache(maxsize=None, typed=True)\n"
        "def ok(n): return n\n"
        "@lru_cache\n"
        "def bare(n): return n\n"
        "@functools.lru_cache(maxsize=None)\n"
        "def untyped(n): return n\n"
        "@lru_cache(typed=False)\n"
        "def off(n): return n\n"
        "@lru_cache(None, True)\n"
        "def positional(n): return n\n"
    )
    assert _untyped_caches(source) == [5, 7, 9, 11]


@pytest.mark.parametrize("module", MODULES)
def test_every_lru_cache_is_typed(module):
    assert _untyped_caches((SRC / module).read_text()) == []
