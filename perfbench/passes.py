"""The timed operations of each workload, run inside worker.py.

Importing this module imports qspin; worker.py times that import as the
set-up.  CLI workloads call ``qspin.cli.main`` in-process with standard
output captured, exactly as the ``qspin`` command would run them.
"""

from __future__ import annotations

import contextlib
import io

import qspin  # noqa: F401  (the package imports every module)
from qspin import cli, scalar
from qspin.errors import QspinError


def _cli(argv) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return {"code": code, "stdout": out.getvalue()}


def check_all(inputs):
    return [_cli(["check", "--all"])]


def fierz_table(inputs):
    return [_cli(["fierz-table", "--max", "5"])]


def chromatic(inputs):
    return [
        _cli(["chromatic", "--file", net["file"], "--normalization",
              net["normalization"], "--format", "json"])
        for net in inputs["networks"]
    ]


def readback(inputs):
    out = []
    for item in inputs["texts"]:
        try:
            x = scalar.parse_scalar(item["text"])
            levels = [scalar.q_to_one(scalar.integer_level(x, n)) for n in (1, 2, 3)]
            out.append((scalar.to_text(x), scalar.bar(x), levels))
        except QspinError as exc:
            out.append(exc)
    return out


def _classical_terms(val) -> dict:
    """An element of Q(delta, Delta) as {"num": [[monom, "p/q"], ...], "den": ...}."""
    return {
        part: [[list(m), str(c)] for m, c in sorted(poly.terms())]
        for part, poly in (("num", val.numer), ("den", val.denom))
    }


def serialize(workload: str, outputs):
    """Outputs as JSON data, made after timing."""
    if workload != "readback":
        return outputs
    return [
        {"error": f"{type(out).__name__}: {out}"} if isinstance(out, QspinError) else
        {"round_trip": out[0], "bar": scalar.to_text(out[1]),
         "levels": [_classical_terms(v) for v in out[2]]}
        for out in outputs
    ]


PASSES = {
    "check-all": check_all,
    "fierz-table": fierz_table,
    "chromatic": chromatic,
    "readback": readback,
}
