"""Command-line front end: evaluation, table generation, verification.

Subcommands: eval-theta, eval-3j, fierz-table, dims, chromatic, check,
specialize.  Exit codes: 0 success, 1 internal check failure, 2 validation
error (with a machine-readable error object on stderr when --format json).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import matrixlab, networks, recoupling, scalar
from .errors import ArgumentOutOfRange, QspinError

# Size caps, from one cold CLI run each on a 2-core x86 machine (Python
# 3.11, sympy 1.14, no gmpy2).
#: Largest ``fierz-table --max``: 8 takes 6.9 s, 9 took 14 s.
MAX_FIERZ_TABLE = 8
#: Largest ``dims --p-max``: 20 takes 2.7 s, 25 10 s, 30 took 30 s.
MAX_DIMS_P = 25


class ValidationFailure(Exception):
    def __init__(self, kind: str, message: str):
        super().__init__(message)
        self.kind = kind


def _emit_error(kind: str, message: str, fmt: str) -> int:
    obj = {"error": {"type": kind, "message": message}}
    if fmt == "json":
        print(json.dumps(obj), file=sys.stderr)
    else:
        print(f"error [{kind}]: {message}", file=sys.stderr)
    return 2


def _parse_specialize_target(text: str):
    if text == "classical":
        return scalar.Classical()
    if text == "q1":
        return "q1"
    if text.startswith("n="):
        try:
            n = int(text[2:])
        except ValueError:
            raise ValidationFailure("bad-target", f"cannot parse level in {text!r}")
        if n < 1:
            raise ValidationFailure("bad-target", "level must be a positive integer")
        return scalar.IntegerLevel(n)
    raise ValidationFailure(
        "bad-target", f"unknown specialization target {text!r}; use n=K, classical, q1"
    )


def _apply_specialize(value, target):
    if target is None:
        return value
    if target == "q1":
        return scalar.q_to_one(value)
    return scalar.specialize(value, target)


def _value_text(value) -> str:
    """Canonical text of a scalar, or of a classical or numeric image."""
    if isinstance(value, scalar.ScalarK):
        return scalar.to_text(value)
    return str(value)


def _render_scalar(value, fmt: str) -> str:
    text = _value_text(value)
    if fmt == "json":
        return json.dumps({"value": text})
    return text


def _even_total_or_die(label_sum: int) -> None:
    if label_sum % 2:
        raise ValidationFailure(
            "odd-leg-total",
            "total leg count is odd; the trace of an odd number of legs "
            "vanishes identically and is not evaluated",
        )


def _cmd_eval_theta(args) -> int:
    if args.a is not None or args.b is not None or args.c is not None:
        if None in (args.a, args.b, args.c):
            raise ValidationFailure("bad-labels", "give all of --a --b --c")
        _even_total_or_die(args.a + args.b + args.c)
        triple = recoupling.AdmissibleTriple(args.a, args.b, args.c)
        r, s, t = triple.rst
    else:
        if None in (args.r, args.s, args.t):
            raise ValidationFailure(
                "bad-labels", "give --r --s --t or all of --a --b --c"
            )
        r, s, t = args.r, args.s, args.t
    if args.kind == "vector":
        value = recoupling.theta_vector(r, s, t)
    else:
        if (s, t) != (0, 0) and (r, s) != (0, 0) and (r, t) != (0, 0):
            raise ValidationFailure(
                "bad-labels", "the spinor theta takes a single nonzero count"
            )
        value = recoupling.theta_spinor(max(r, s, t))
    value = _apply_specialize(value, args.target)
    print(_render_scalar(value, args.format))
    return 0


def _cmd_eval_3j(args) -> int:
    if None in (args.r, args.s, args.t):
        raise ValidationFailure("bad-labels", "give --r --s --t")
    fn = recoupling.threej_double if args.kind == "double" else recoupling.threej_spinor
    value = _apply_specialize(fn(args.r, args.s, args.t), args.target)
    print(_render_scalar(value, args.format))
    return 0


def _check_cap(name: str, value: int, cap: int) -> None:
    if value > cap:
        raise ArgumentOutOfRange(f"{name} {value} exceeds the cap {cap}")


def _cmd_fierz_table(args) -> int:
    _check_cap("--max", args.max, MAX_FIERZ_TABLE)
    table = recoupling.FierzTable.generate(args.max, args.max)
    text = table.to_json()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        if args.format == "json":
            print(json.dumps({"written": args.out}))
        else:
            print(f"wrote {args.out}")
    else:
        print(text)
    return 0


def _cmd_dims(args) -> int:
    _check_cap("--p-max", args.p_max, MAX_DIMS_P)
    rows = []
    for p in range(args.p_max + 1):
        vector = recoupling.dimq_vector_recurrence_consistent(p)
        symmetric = matrixlab.dimq_sym_recursive(p)
        rows.append({
            "p": p,
            "vector_tower": _value_text(_apply_specialize(vector, args.target)),
            "symmetric_tower": _value_text(_apply_specialize(symmetric, args.target)),
        })
    if args.format == "json":
        print(json.dumps({"dims": rows}, indent=2))
    else:
        for row in rows:
            print(
                f"p={row['p']}  vector: {row['vector_tower']}  "
                f"symmetric: {row['symmetric_tower']}"
            )
    return 0


def _cmd_chromatic(args) -> int:
    with open(args.file) as fh:
        text = fh.read()
    doc = json.loads(text)
    if isinstance(doc, dict) and "rectangles" in doc:
        sn = networks.StrandNetwork.from_json(text)
    else:
        sn = networks.medial(networks.LabelledNetwork.from_json(text))
    norm = (
        "ProjectorNormalized"
        if args.normalization in ("projector", "ProjectorNormalized")
        else "Raw"
    )
    poly = networks.chromatic_eval(sn, norm)
    if args.at is not None:
        val = poly(args.at)
        out = {"at": str(args.at), "value": str(val)}
        print(json.dumps(out) if args.format == "json" else str(val))
    else:
        if args.format == "json":
            print(json.dumps({"coefficients": {str(d): str(c) for d, c in poly.coeffs}}))
        else:
            print(str(poly))
    return 0


def _cmd_check(args) -> int:
    if args.manifest:
        with open(args.manifest) as fh:
            doc = json.load(fh)
    elif args.suite and args.suite != "all":
        if args.suite not in matrixlab.CHECKS:
            raise ValidationFailure("bad-suite", f"unknown suite {args.suite!r}")
        doc = matrixlab.manifest([args.suite])
    else:
        doc = matrixlab.default_manifest()
    report = matrixlab.run_manifest(doc)
    report["results"].sort(
        key=lambda r: (r["name"], json.dumps(r["params"], sort_keys=True))
    )
    if args.format == "json":
        print(json.dumps(report, indent=2))
    else:
        for r in report["results"]:
            status = "PASS" if r["passed"] else "FAIL"
            extra = f"  ({r['error']})" if r.get("error") else ""
            print(f"{status}  {r['name']}  {json.dumps(r['params'], sort_keys=True)}{extra}")
        print("all passed" if report["all_passed"] else "FAILURES PRESENT")
    return 0 if report["all_passed"] else 1


def _cmd_specialize(args) -> int:
    try:
        value = scalar.parse_scalar(args.expr)
    except QspinError as exc:
        raise ValidationFailure("parse-error", str(exc))
    target = _parse_specialize_target(args.to)
    value = _apply_specialize(value, target)
    print(_render_scalar(value, args.format))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qspin", description="Exact two-parameter spinor recoupling toolkit"
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, specialize=True):
        p.add_argument("--format", choices=["text", "json"], default="text")
        if specialize:
            p.add_argument(
                "--specialize",
                dest="target_text",
                default=None,
                help="post-process scalars: n=K, classical, or q1",
            )

    p = sub.add_parser("eval-theta", help="closed theta values")
    p.add_argument("--r", type=int, default=None)
    p.add_argument("--s", type=int, default=None)
    p.add_argument("--t", type=int, default=None)
    p.add_argument("--a", type=int, default=None)
    p.add_argument("--b", type=int, default=None)
    p.add_argument("--c", type=int, default=None)
    p.add_argument("--kind", choices=["vector", "spinor"], default="vector")
    common(p)
    p.set_defaults(fn=_cmd_eval_theta)

    p = sub.add_parser("eval-3j", help="closed trivalent vertex values")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--kind", choices=["spinor", "double"], default="spinor")
    common(p)
    p.set_defaults(fn=_cmd_eval_3j)

    p = sub.add_parser("fierz-table", help="generate a Fierz coefficient table")
    p.add_argument("--max", type=int, required=True)
    p.add_argument("--out", default=None)
    common(p, specialize=False)
    p.set_defaults(fn=_cmd_fierz_table)

    p = sub.add_parser("dims", help="quantum dimension towers")
    p.add_argument("--p-max", type=int, default=3)
    common(p)
    p.set_defaults(fn=_cmd_dims)

    p = sub.add_parser("chromatic", help="chromatic/Penrose state sum of a network file")
    p.add_argument("--file", required=True)
    p.add_argument(
        "--normalization",
        choices=["raw", "projector", "Raw", "ProjectorNormalized"],
        default="raw",
    )
    p.add_argument("--at", type=int, default=None, help="evaluate at an integer delta")
    common(p, specialize=False)
    p.set_defaults(fn=_cmd_chromatic)

    p = sub.add_parser("check", help="run verification suites")
    p.add_argument("--suite", default=None, help="a registry entry, or 'all'")
    p.add_argument("--all", dest="suite", action="store_const", const="all")
    p.add_argument("--manifest", default=None, help="manifest JSON path")
    common(p, specialize=False)
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("specialize", help="specialize a scalar expression")
    p.add_argument("--expr", required=True)
    p.add_argument("--to", required=True, help="n=K, classical, or q1")
    common(p, specialize=False)
    p.set_defaults(fn=_cmd_specialize)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    fmt = getattr(args, "format", "text")
    try:
        args.target = (
            _parse_specialize_target(args.target_text)
            if getattr(args, "target_text", None)
            else None
        )
        return args.fn(args)
    except ValidationFailure as exc:
        return _emit_error(exc.kind, str(exc), fmt)
    except QspinError as exc:
        return _emit_error(type(exc).__name__, str(exc), fmt)
    except FileNotFoundError as exc:
        return _emit_error("file-not-found", str(exc), fmt)
    except json.JSONDecodeError as exc:
        return _emit_error("bad-json", str(exc), fmt)


if __name__ == "__main__":
    sys.exit(main())
