"""Command-line front end: evaluation, table generation, verification.

Subcommands: eval-theta, eval-3j, fierz-table, dims, chromatic, check, specialize;
``--help`` lists their options.  Exit codes: 0 success, 1 check failure, 2 validation
error, ``bad-args`` for a bad argument (an error object on stderr with --format json),
141 (128 + SIGPIPE) with nothing on stderr when standard output is closed before all of
it is written, as by ``| head``.  A run started with no standard output at all (fd 1
closed) is refused with exit 2 before it does any work.
"""

from __future__ import annotations

import json
import os
import sys
from types import SimpleNamespace

from . import matrixlab, networks, recoupling, scalar
from .errors import ArgumentOutOfRange, QspinError, check_counts
from .poly import poly_str

# Size caps, from cold runs on a 2-core x86 machine (Python 3.11.7), each
# the fastest and slowest of three to five.  A size past its cap was timed
# as the same computation in a fresh interpreter.
#: Largest ``fierz-table --max``: 8 takes 0.37-0.65 s, 9 0.69-1.16 s and 10
#: 1.4-2.2 s.  It stays at 8 because a ``--max 9`` table has exponents up to
#: 266, past ``scalar.MAX_PARSE_EXPONENT``, so ``FierzTable.from_json``
#: could not read it back.
MAX_FIERZ_TABLE = 8
#: Largest ``dims --p-max``: 20 takes 0.77-0.80 s, 25 2.0-2.1 s and 28
#: 2.1-3.2 s (1.2-2.3 s with ``--specialize n=16`` and 0.12-0.16 s with n=1,
#: since z -> q^n goes key by key); 30 takes 3.0-4.3 s and 35 7.4-7.9 s.
MAX_DIMS_P = 28
#: Largest level K of ``--specialize n=K`` and ``specialize --to n=K``.  At
#: K = 16, ``dims --p-max 28`` takes 1.2-2.3 s and the slowest text the
#: parser accepts, ((q+z+1)^65 + 1)/((q+z+2)^65 + 1), 1.4-1.6 s (0.9-1.0 s
#: at K = 1), three runs each.  At K = 64 they took 34 s and 15 s, when
#: z -> q^n still cancelled the whole normal form.
MAX_LEVEL = 16
#: Largest r + s + t of ``eval-theta`` and ``eval-3j``.  At 24 the slowest
#: accepted call, ``eval-theta --r 8 --s 8 --t 8``, takes 0.74-1.38 s and
#: prints 0.29 MB (``eval-3j --kind double --r 8 --s 8 --t 8`` 0.49-0.89 s,
#: 0.64 MB; 0.09-0.14 s and 0.13-0.30 s with ``--specialize n=16``).  At 25
#: the theta takes 0.83-1.01 s, and at 30 2.2-3.0 s; the 3j double at 30
#: takes 1.2-1.7 s and prints 1.5 MB.
MAX_EVAL_SUM = 24

#: The exit status when the reader of standard output has gone: 128 +
#: SIGPIPE, as a shell reports a command that the signal ended.
EXIT_BROKEN_PIPE = 141


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
    """The specialization ``text`` names (n=K, classical or q1), as a
    function of a value."""
    if text == "classical":
        return scalar.classical
    if text == "q1":
        return scalar.q_to_one
    if text.startswith("n="):
        try:
            n = int(text[2:])
        except ValueError:
            raise ValidationFailure("bad-target", f"cannot parse level in {text!r}")
        if n < 1:
            raise ValidationFailure("bad-target", "level must be a positive integer")
        if n > MAX_LEVEL:
            raise ValidationFailure("bad-target", f"level {n} exceeds the cap {MAX_LEVEL}")
        return lambda x: scalar.integer_level(x, n)
    raise ValidationFailure(
        "bad-target", f"unknown specialization target {text!r}; use n=K, classical, q1"
    )


def _unspecialized(value):
    return value


def _value_text(value) -> str:
    """Canonical text of a scalar, or of a classical image."""
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
    abc, rst = (args.a, args.b, args.c), (args.r, args.s, args.t)
    if abc != (None,) * 3 and rst != (None,) * 3:
        raise ValidationFailure("bad-labels", "give --r --s --t or --a --b --c, not both")
    if abc != (None,) * 3:
        if None in abc:
            raise ValidationFailure("bad-labels", "give all of --a --b --c")
        _even_total_or_die(args.a + args.b + args.c)
        triple = recoupling.AdmissibleTriple(args.a, args.b, args.c)
        r, s, t = triple.rst
    else:
        if None in rst:
            raise ValidationFailure(
                "bad-labels", "give --r --s --t or all of --a --b --c"
            )
        r, s, t = rst
    _check_eval_cap(r, s, t)
    if args.kind == "vector":
        value = recoupling.theta_vector(r, s, t)
    else:
        if (s, t) != (0, 0) and (r, s) != (0, 0) and (r, t) != (0, 0):
            raise ValidationFailure(
                "bad-labels", "the spinor theta takes a single nonzero count"
            )
        value = recoupling.theta_spinor(max(r, s, t))
    print(_render_scalar(args.target(value), args.format))
    return 0


def _cmd_eval_3j(args) -> int:
    _check_eval_cap(args.r, args.s, args.t)
    fn = recoupling.threej_double if args.kind == "double" else recoupling.threej_spinor
    print(_render_scalar(args.target(fn(args.r, args.s, args.t)), args.format))
    return 0


def _check_eval_cap(r: int, s: int, t: int) -> None:
    check_counts(r=r, s=s, t=t)  # a negative count would also slip under the cap
    if r + s + t > MAX_EVAL_SUM:
        raise ArgumentOutOfRange(f"r + s + t = {r + s + t} exceeds the cap {MAX_EVAL_SUM}")


def _check_cap(name: str, value: int, cap: int) -> None:
    check_counts(**{name: value})
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
            "vector_tower": _value_text(args.target(vector)),
            "symmetric_tower": _value_text(args.target(symmetric)),
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
    poly = networks.chromatic_eval(sn, norm)  # a polynomial in delta
    if args.at is not None:
        val = str(poly(args.at, 0))
        print(json.dumps({"at": str(args.at), "value": val}) if args.format == "json" else val)
    elif args.format == "json":
        print(json.dumps({"coefficients": {str(d): str(c) for (d, _), c in poly.terms()}}))
    else:
        print(poly_str(poly, ("delta", "Delta"), "^"))
    return 0


def _cmd_check(args) -> int:
    if args.manifest:
        with open(args.manifest) as fh:
            doc = json.load(fh)
    elif args.suite is not None and args.suite != "all":
        names = matrixlab.suite(args.suite)
        if not names:
            raise ValidationFailure("bad-suite", f"unknown suite {args.suite!r}")
        doc = matrixlab.manifest(names)
    else:
        doc = matrixlab.default_manifest()
    report = matrixlab.run_manifest(doc, stats=args.stats)
    report["results"].sort(
        key=lambda r: (r["name"], json.dumps(r["params"], sort_keys=True))
    )
    if args.format == "json":
        print(json.dumps(report, indent=2))
    else:
        for r in report["results"]:
            status = "PASS" if r["passed"] else "FAIL"
            extra = f"  ({r['error']})" if r.get("error") else ""
            if args.stats:
                extra += f"  [{r['seconds']:.3f} s]"
            print(f"{status}  {r['name']}  {json.dumps(r['params'], sort_keys=True)}{extra}")
        print("all passed" if report["all_passed"] else "FAILURES PRESENT")
    return 0 if report["all_passed"] else 1


def _cmd_specialize(args) -> int:
    try:
        value = scalar.parse_scalar(args.expr)
    except QspinError as exc:
        raise ValidationFailure("parse-error", str(exc))
    target = _parse_specialize_target(args.to)
    print(_render_scalar(target(value), args.format))
    return 0


_FORMAT = ("--format", ("text", "json"), "text", False)
_SPECIALIZE = ("--specialize", str, None, False)

#: Each subcommand: its handler, its help line and its options.  An option
#: is (flag, kind, default, required), and its value is the attribute the
#: flag names (``--p-max`` sets ``p_max``).  The kind is int or str, the
#: type of the value; a tuple, its choices; or a one-item dict, the
#: attribute and the constant that the flag sets without a value.
_COMMANDS = {
    "eval-theta": (_cmd_eval_theta, "closed theta values", (
        ("--r", int, None, False), ("--s", int, None, False), ("--t", int, None, False),
        ("--a", int, None, False), ("--b", int, None, False), ("--c", int, None, False),
        ("--kind", ("vector", "spinor"), "vector", False), _FORMAT, _SPECIALIZE)),
    "eval-3j": (_cmd_eval_3j, "closed trivalent vertex values", (
        ("--r", int, None, True), ("--s", int, None, True), ("--t", int, None, True),
        ("--kind", ("spinor", "double"), "spinor", False), _FORMAT, _SPECIALIZE)),
    "fierz-table": (_cmd_fierz_table, "generate a Fierz coefficient table", (
        ("--max", int, None, True), ("--out", str, None, False), _FORMAT)),
    "dims": (_cmd_dims, "quantum dimension towers", (
        ("--p-max", int, 3, False), _FORMAT, _SPECIALIZE)),
    "chromatic": (_cmd_chromatic, "chromatic/Penrose state sum of a network file", (
        ("--file", str, None, True),
        ("--normalization", ("raw", "projector", "Raw", "ProjectorNormalized"), "raw", False),
        ("--at", int, None, False), _FORMAT)),
    "check": (_cmd_check, "run verification suites", (
        ("--suite", str, None, False), ("--all", {"suite": "all"}, None, False),
        ("--manifest", str, None, False), ("--stats", {"stats": True}, False, False), _FORMAT)),
    "specialize": (_cmd_specialize, "specialize a scalar expression", (
        ("--expr", str, None, True), ("--to", str, None, True), _FORMAT)),
}


def _dest(flag: str, kind) -> str:
    return next(iter(kind)) if isinstance(kind, dict) else flag[2:].replace("-", "_")


def _cmd_help(args) -> int:
    """Print the usage of ``qspin``, or of ``args.command``, from ``_COMMANDS``."""
    if args.command is None:
        rows = [f"  {name:<13}{line}" for name, (_, line, _) in _COMMANDS.items()]
        print("usage: qspin COMMAND [OPTION ...]\n\ncommands:\n" + "\n".join(rows))
        return 0
    _, line, options = _COMMANDS[args.command]
    print(f"usage: qspin {args.command} [OPTION ...]\n\n{line}\n\noptions:")
    for flag, kind, default, required in options:
        value = (" {%s}" % ",".join(kind) if isinstance(kind, tuple)
                 else " INT" if kind is int else " TEXT" if kind is str else "")
        note = (" (required)" if required else
                f" (default {default})" if value and default is not None else "")
        print(f"  {flag}{value}{note}")
    return 0


def _bad_args(message: str) -> ValidationFailure:
    return ValidationFailure("bad-args", message)


def _read_args(argv) -> SimpleNamespace:
    """A fresh namespace for one command line: the handler ``fn`` and one
    attribute per option of the command.  ``--opt value`` and
    ``--opt=value`` both set an option, the last one wins, and a flag may
    be shortened to a unique prefix."""
    command = argv[0] if argv else ""
    if command in ("-h", "--help"):
        return SimpleNamespace(fn=_cmd_help, command=None, format="text", specialize=None)
    if command not in _COMMANDS:
        what = "no command given" if command[:1] in ("", "-") else f"unknown command {command!r}"
        raise _bad_args(f"{what}; choose from {', '.join(_COMMANDS)}")
    fn, _, options = _COMMANDS[command]
    args = SimpleNamespace(fn=fn, command=command, specialize=None)
    vars(args).update((_dest(flag, kind), default) for flag, kind, default, _ in options)
    kinds = {flag: kind for flag, kind, _, _ in options}
    tokens = iter(argv[1:])
    for token in tokens:
        text, eq, value = token.partition("=")
        names = [text] if text in kinds else [
            f for f in (*kinds, "--help") if text[:2] == "--" and f.startswith(text)]
        if token == "-h" or names == ["--help"]:
            return SimpleNamespace(fn=_cmd_help, command=command, format="text", specialize=None)
        if len(names) != 1:
            raise _bad_args(f"ambiguous option {text}: {', '.join(names)}" if names
                            else f"unrecognized argument {token!r}")
        flag, kind = names[0], kinds[names[0]]
        if isinstance(kind, dict):
            if eq:
                raise _bad_args(f"argument {flag}: takes no value")
            vars(args).update(kind)
        else:
            if not eq:
                value = next(tokens, None)
                if value is None or value[:2] == "--":
                    raise _bad_args(f"argument {flag}: expected one value")
            if isinstance(kind, tuple) and value not in kind:
                raise _bad_args(f"argument {flag}: invalid choice {value!r}; "
                                f"choose from {', '.join(kind)}")
            try:
                setattr(args, _dest(flag, kind), int(value) if kind is int else value)
            except ValueError:
                raise _bad_args(f"argument {flag}: invalid int value {value!r}") from None
    missing = [flag for flag, kind, _, required in options
               if required and getattr(args, _dest(flag, kind)) is None]
    if missing:
        raise _bad_args(f"the following arguments are required: {', '.join(missing)}")
    return args


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    json_asked = "--format=json" in argv or ("--format", "json") in zip(argv, argv[1:])
    fmt = "json" if json_asked else "text"
    try:
        if sys.stdout is None:  # the process started with fd 1 closed: print would drop
            raise OSError("standard output is closed")
        args = _read_args(argv)
        fmt = args.format
        args.target = (_parse_specialize_target(args.specialize) if args.specialize
                       else _unspecialized)
        code = args.fn(args)
        sys.stdout.flush()  # so that a closed stdout fails here, not at exit
        return code
    except BrokenPipeError:
        # what is still buffered goes to os.devnull, where the flush at exit
        # cannot fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    except ValidationFailure as exc:
        return _emit_error(exc.kind, str(exc), fmt)
    except QspinError as exc:
        return _emit_error(type(exc).__name__, str(exc), fmt)
    except FileNotFoundError as exc:
        return _emit_error("file-not-found", str(exc), fmt)
    except (OSError, UnicodeDecodeError) as exc:  # a directory, not UTF-8, ...
        return _emit_error(type(exc).__name__, str(exc), fmt)
    except json.JSONDecodeError as exc:
        return _emit_error("bad-json", str(exc), fmt)


if __name__ == "__main__":
    sys.exit(main())
