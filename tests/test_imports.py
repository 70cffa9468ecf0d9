"""Import hygiene of ``src/qspin``, read from each module's syntax tree:
no module imports a name it never uses, no module-level name or method
goes unread by the program or the benchmark, ``scalar`` imports from no
qspin module but ``errors`` and ``poly``, every ``lru_cache`` keys its
arguments by type, and every module parses as the oldest Python that
``pyproject.toml`` admits."""

import ast
import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "qspin"
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

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


def _unread_names(sources: dict, readers: tuple = (), allowed=()) -> list:
    """The names of ``sources`` (module name -> source) that nothing reads,
    as (module, name) pairs: each module-level function, class and
    constant, and each method and property of a module-level class, named
    ``Class.method``.  Dunder names are left out: the language reads them.

    A name is read where it is loaded (``f(x)``) or taken as an attribute
    (``scalar.f``, ``self.f``), in any of the sources or of the ``readers``
    (more source texts); a name read only inside its own body, as a
    recursive function reads itself, counts as read.  The (module, name)
    pairs in ``allowed`` are not reported."""
    read = set().union(*map(_loaded, [*sources.values(), *readers]))
    defined = []
    for module, source in sources.items():
        for node in ast.parse(source).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names = [node.name]
            elif isinstance(node, ast.ClassDef):
                names = [node.name] + [
                    f"{node.name}.{item.name}" for item in node.body
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            defined += [(module, name) for name in names
                        if not name.rpartition(".")[2].startswith("__")]
    return sorted((module, name) for module, name in defined
                  if name.rpartition(".")[2] not in read and (module, name) not in allowed)


def _loaded(source: str) -> set:
    """The names that ``source`` loads or takes as attributes."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            or isinstance(node, ast.Attribute)}


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
        "b.py": "def _helper():\n    return _Y + a.f(0)\n",
    }
    assert _unread_names(sources) == [("a.py", "_DEAD"), ("a.py", "_Gone"), ("a.py", "_Z")]


def test_the_guard_finds_an_unread_public_name():
    sources = {
        "m.py": (
            "LIMIT = 3\n"
            "SPARE = 4\n"
            "def used(x):\n"
            "    return x + LIMIT\n"
            "def dead():\n"
            "    pass\n"
            "def benched():\n"
            "    pass\n"
            "def documented():\n"
            "    pass\n"
            "class Thing:\n"
            "    size: int = 0\n"
            "    def __init__(self):\n"
            "        self.n = used(1)\n"
            "    def grow(self):\n"
            "        return self._tidy()\n"
            "    @property\n"
            "    def half(self):\n"
            "        return self.n // 2\n"
            "    def _tidy(self):\n"
            "        pass\n"
        ),
        "n.py": "from .m import Thing\ndef run():\n    return Thing().half\n",
    }
    # run and benched are read only by the benchmark; documented is allowed
    bench = "n.run()\nm.benched()\n"
    assert _unread_names(sources, (bench,), {("m.py", "documented")}) == [
        ("m.py", "SPARE"), ("m.py", "Thing.grow"), ("m.py", "dead")]
    assert ("n.py", "run") in _unread_names(sources, (), {("m.py", "documented")})


#: The names that the README documents as API and nothing in the program or
#: the benchmark reads, each with the README's words as the reason.
DOCUMENTED = {
    ("poly.py", "Poly.from_terms"):
        "README: `Poly.from_terms` builds a polynomial from exponent tuples",
}


def _program_unread() -> list:
    """The names of ``src/qspin`` that neither the program nor the
    benchmark reads, less ``DOCUMENTED``."""
    sources = {p.name: p.read_text() for p in SRC.glob("*.py")}
    bench = tuple(p.read_text() for p in PERFBENCH.glob("*.py"))
    return _unread_names(sources, bench, DOCUMENTED)


def _private(name: str) -> bool:
    return name.rpartition(".")[2].startswith("_")


def test_every_private_name_is_read():
    assert [(m, name) for m, name in _program_unread() if _private(name)] == []


def test_every_public_name_is_read():
    assert [(m, name) for m, name in _program_unread() if not _private(name)] == []


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


#: The oldest Python that pyproject.toml's requires-python admits.
_REQUIRES = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$',
                      (SRC.parents[1] / "pyproject.toml").read_text(), re.M)
OLDEST_PYTHON = (int(_REQUIRES[1]), int(_REQUIRES[2]))


def test_the_guard_finds_newer_syntax():
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n",
                  feature_version=OLDEST_PYTHON)


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_every_module_parses_on_the_oldest_python(module):
    path = SRC / module
    ast.parse(path.read_text(), filename=str(path), feature_version=OLDEST_PYTHON)
