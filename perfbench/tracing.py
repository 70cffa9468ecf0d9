"""Per-layer tracing from outside the program.

``install`` replaces every public function of the qspin modules (and a few
methods) with a wrapper that times it, plus sympy's ``PolyElement.cancel``,
where every field operation of the program ends (``FracElement.new`` calls
it).  Each wrapper charges its time, minus the time of the wrapped calls
beneath it, to its name as self time.  Calls at module boundaries also
record a span (name, start, end, parent); fine-grained calls (field and
scalar arithmetic, matrix algebra, q-combinatorics atoms) are only counted
and timed in aggregate, so the trace stays small.

Only the traced mode of worker.py imports this module; untraced runs run
the program unchanged.
"""

from __future__ import annotations

import inspect
import json
import time
from math import factorial

_perf = time.perf_counter

#: Wrapped names that are counted and timed but get no span.
FINE_PREFIXES = (
    "scalar.arith",
    "scalar.field.",
    "scalar.scalar",
    "scalar.equal",
    "scalar.qint_atom",
    "scalar.brace_atom",
    "qcomb.",
    "matrixlab.matmul",
    "matrixlab.kron",
    "matrixlab.lincomb",
    "matrixlab.trace",
)

#: Spans kept in memory; later ones are counted as dropped.  A pass
#: records a few hundred.
MAX_SPANS = 200_000

SCALAR_ARITH = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__neg__", "__pow__",
)
MATRIX_METHODS = {
    "__matmul__": "matrixlab.matmul",
    "kron": "matrixlab.kron",
    "scale": "matrixlab.lincomb",
    "__add__": "matrixlab.lincomb",
    "__sub__": "matrixlab.lincomb",
    "__eq__": "matrixlab.lincomb",
    "trace": "matrixlab.trace",
}


class Tracer:
    """Counters, self times and spans of one traced pass."""

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.total_s: dict[str, float] = {}
        self.counts: dict[str, int] = {}
        self.spans: list = []
        self.dropped_spans = 0
        self.t0 = 0.0  # the pass's start; span times are relative to it
        self._children: list[list[float]] = []
        self._open_span = -1

    def exclude(self, seconds: float) -> None:
        """Charge time spent outside the program (the reference sampler)
        to no function's self time."""
        if self._children:
            self._children[-1][0] += seconds

    def count(self, name: str, n: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def wrap(self, name: str, fn, name_of=None, after=None):
        """A wrapper of ``fn`` charged to ``name`` (or ``name_of(args)``);
        ``after(args, result)`` may add counts."""
        tracer = self
        children = self._children
        spans = self.spans
        with_span = not name.startswith(FINE_PREFIXES)

        def traced(*args, **kwargs):
            key = name if name_of is None else name_of(args)
            below = [0.0]
            children.append(below)
            span = -1
            if with_span:
                if len(spans) < MAX_SPANS:
                    span = len(spans)
                    spans.append([key, 0.0, 0.0, tracer._open_span])
                    tracer._open_span = span
                else:
                    tracer.dropped_spans += 1
            t0 = _perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = _perf() - t0
                children.pop()
                if children:
                    children[-1][0] += dt
                tracer.calls[key] = tracer.calls.get(key, 0) + 1
                tracer.self_s[key] = tracer.self_s.get(key, 0.0) + dt - below[0]
                tracer.total_s[key] = tracer.total_s.get(key, 0.0) + dt
                if span >= 0:
                    spans[span][1] = t0 - tracer.t0
                    spans[span][2] = t0 + dt - tracer.t0
                    tracer._open_span = spans[span][3]
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- reporting -------------------------------------------------------

    def _sum(self, table, prefix: str):
        return sum(v for k, v in table.items() if k == prefix or k.startswith(prefix + "."))

    def metrics(self) -> dict:
        """The per-layer metrics named in BENCHMARK.json (without
        ``trace.overhead_s``, which needs an untraced pass)."""
        c, s = self.calls, self.self_s
        arith = "scalar.arith"
        lincomb = "matrixlab.lincomb"
        states = self.counts.get("networks.states", 0)
        chrom_s = self.total_s.get("networks.chromatic_eval", 0.0)
        out = {
            "scalar.field.cancel.calls": c.get("scalar.field.cancel", 0),
            "scalar.field.cancel.self_s": s.get("scalar.field.cancel", 0.0),
            "matrixlab.matmul.calls": self._sum(c, "matrixlab.matmul"),
            "matrixlab.matmul.nnz_out": self.counts.get("matrixlab.matmul.nnz_out", 0),
            "matrixlab.matmul.self_s": self._sum(s, "matrixlab.matmul"),
            "matrixlab.matmul.d16.self_s": s.get("matrixlab.matmul.d16", 0.0),
            "matrixlab.matmul.d64.self_s": s.get("matrixlab.matmul.d64", 0.0),
            "matrixlab.kron.self_s": s.get("matrixlab.kron", 0.0),
            "matrixlab.lincomb.self_s": s.get(lincomb, 0.0),
            "matrixlab.build_braid_data.calls": c.get("matrixlab.build_braid_data", 0),
            "matrixlab.build_braid_data.self_s": s.get("matrixlab.build_braid_data", 0.0),
            "matrixlab.idempotent_tower.calls": c.get("matrixlab.idempotent_tower", 0),
            "matrixlab.idempotent_tower.self_s": s.get("matrixlab.idempotent_tower", 0.0),
            "matrixlab.quantum_trace.self_s": s.get("matrixlab.quantum_trace", 0.0),
            "scalar.arith.calls": c.get(arith, 0),
            "scalar.arith.self_s": s.get(arith, 0.0),
            "qcomb.self_s": self._sum(s, "qcomb"),
            "recoupling.fierz.calls": c.get("recoupling.fierz", 0),
            "recoupling.fierz.self_s": s.get("recoupling.fierz", 0.0),
            "scalar.to_text.self_s": s.get("scalar.to_text", 0.0),
            "scalar.parse_scalar.self_s": s.get("scalar.parse_scalar", 0.0),
            "scalar.bar.self_s": s.get("scalar.bar", 0.0),
            "scalar.integer_level.self_s": s.get("scalar.integer_level", 0.0),
            "scalar.q_to_one.self_s": s.get("scalar.q_to_one", 0.0),
            "networks.chromatic_eval.self_s": s.get("networks.chromatic_eval", 0.0),
            "networks.medial.self_s": s.get("networks.medial", 0.0),
            "networks.states": states,
            "networks.states_per_s": states / chrom_s if chrom_s else 0.0,
            "cli.main.self_s": s.get("cli.main", 0.0),
        }
        return out

    def write_spans(self, path) -> None:
        if not path:
            return
        doc = {
            "fields": ["name", "start_s", "end_s", "parent"],
            "dropped": self.dropped_spans,
            "spans": self.spans,
            "calls": self.calls,
            "self_s": self.self_s,
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)


def _matmul_name(args) -> str:
    return f"matrixlab.matmul.d{args[0].dim}"


def install(tracer: Tracer) -> None:
    """Wrap the public functions of the qspin modules, a few methods of
    their classes, and sympy's ``PolyElement.cancel``."""
    from sympy.polys.rings import PolyElement

    from qspin import cli, matrixlab, networks, qcomb, recoupling, scalar

    modules = {
        "cli": cli,
        "scalar": scalar,
        "qcomb": qcomb,
        "recoupling": recoupling,
        "matrixlab": matrixlab,
        "networks": networks,
    }
    wrapped: dict[int, object] = {}

    def states(args, result) -> None:
        n = 1
        for d in args[0].rect_degree.values():
            n *= factorial(d)
        tracer.count("networks.states", n)

    def nnz(args, result) -> None:
        tracer.count("matrixlab.matmul.nnz_out", result.nnz())

    for short, mod in modules.items():
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            if obj.__module__ != mod.__name__:
                continue
            name = f"{short}.{attr}"
            after = states if name == "networks.chromatic_eval" else None
            wrapped[id(obj)] = tracer.wrap(name, obj, after=after)

    # Rebind every reference the modules hold: their own globals, names
    # imported from each other, and functions stored in module-level dicts
    # (the check registry).
    for mod in modules.values():
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and id(obj) in wrapped:
                setattr(mod, attr, wrapped[id(obj)])
            elif isinstance(obj, dict):
                for key, val in list(obj.items()):
                    if inspect.isfunction(val) and id(val) in wrapped:
                        obj[key] = wrapped[id(val)]

    for attr in SCALAR_ARITH:
        fn = vars(scalar.ScalarK)[attr]
        setattr(scalar.ScalarK, attr, tracer.wrap("scalar.arith", fn))
    for attr, name in MATRIX_METHODS.items():
        fn = vars(matrixlab.SquareMatrixK)[attr]
        if attr == "__matmul__":
            new = tracer.wrap(name, fn, name_of=_matmul_name, after=nnz)
        else:
            new = tracer.wrap(name, fn)
        setattr(matrixlab.SquareMatrixK, attr, new)
    for cls, attrs in (
        (recoupling.FierzTable, ("generate", "to_json", "from_json")),
        (networks.LabelledNetwork, ("from_json",)),
        (networks.StrandNetwork, ("from_json",)),
    ):
        for attr in attrs:
            raw = vars(cls)[attr]
            name = f"{_short(cls)}.{cls.__name__}.{attr}"
            if isinstance(raw, staticmethod):
                setattr(cls, attr, staticmethod(tracer.wrap(name, raw.__func__)))
            else:
                setattr(cls, attr, tracer.wrap(name, raw))
    PolyElement.cancel = tracer.wrap("scalar.field.cancel", PolyElement.cancel)


def _short(cls) -> str:
    return cls.__module__.rsplit(".", 1)[-1]
