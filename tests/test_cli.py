"""Command-line interface: subcommands, formats, exit codes."""

import hashlib
import json
import os
import re
import subprocess
import sys
import sysconfig
import time
import tracemalloc
from pathlib import Path

import pytest

import qspin
from counting import counting
from qspin import cli, matrixlab, networks, scalar
from qspin.cli import main
from qspin.networks import MAX_TOTAL_LINES, cabled_unknot, theta_network
from qspin.recoupling import theta_vector
from qspin.scalar import equal, parse_scalar, to_text


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# Stdout of `--specialize classical` runs, captured when the classical image
# was still folded over a per-value expression DAG; the image read off the
# factored value must print the same bytes.
DIMS_CLASSICAL = """\
p=0  vector: 1  symmetric: 1
p=1  vector: 2*delta  symmetric: 2*delta
p=2  vector: 2*delta**2 - delta  symmetric: 2*delta**2 + delta - 1
p=3  vector: (4*delta**3 - 6*delta**2 + 2*delta)/3  symmetric: (4*delta**3 + 6*delta**2 - 4*delta)/3
p=4  vector: (4*delta**4 - 12*delta**3 + 11*delta**2 - 3*delta)/6  symmetric: (4*delta**4 + 12*delta**3 - delta**2 - 3*delta)/6
p=5  vector: (4*delta**5 - 20*delta**4 + 35*delta**3 - 25*delta**2 + 6*delta)/15  symmetric: (4*delta**5 + 20*delta**4 + 15*delta**3 - 5*delta**2 - 4*delta)/15
p=6  vector: (8*delta**6 - 60*delta**5 + 170*delta**4 - 225*delta**3 + 137*delta**2 - 30*delta)/90  symmetric: (8*delta**6 + 60*delta**5 + 110*delta**4 + 45*delta**3 - 28*delta**2 - 15*delta)/90
p=7  vector: (8*delta**7 - 84*delta**6 + 350*delta**5 - 735*delta**4 + 812*delta**3 - 441*delta**2 + 90*delta)/315  symmetric: (8*delta**7 + 84*delta**6 + 266*delta**5 + 315*delta**4 + 77*delta**3 - 84*delta**2 - 36*delta)/315
p=8  vector: (16*delta**8 - 224*delta**7 + 1288*delta**6 - 3920*delta**5 + 6769*delta**4 - 6566*delta**3 + 3267*delta**2 - 630*delta)/2520  symmetric: (16*delta**8 + 224*delta**7 + 1064*delta**6 + 2240*delta**5 + 2009*delta**4 + 266*delta**3 - 569*delta**2 - 210*delta)/2520
p=9  vector: (16*delta**9 - 288*delta**8 + 2184*delta**7 - 9072*delta**6 + 22449*delta**5 - 33642*delta**4 + 29531*delta**3 - 13698*delta**2 + 2520*delta)/11340  symmetric: (16*delta**9 + 288*delta**8 + 1896*delta**7 + 6048*delta**6 + 9849*delta**5 + 7182*delta**4 + 299*delta**3 - 2178*delta**2 - 720*delta)/11340
p=10  vector: (32*delta**10 - 720*delta**9 + 6960*delta**8 - 37800*delta**7 + 126546*delta**6 - 269325*delta**5 + 361840*delta**4 - 293175*delta**3 + 128322*delta**2 - 22680*delta)/113400  symmetric: (32*delta**10 + 720*delta**9 + 6240*delta**8 + 27720*delta**7 + 68586*delta**6 + 92925*delta**5 + 57235*delta**4 - 2295*delta**3 - 18693*delta**2 - 5670*delta)/113400
"""

THETA_CLASSICAL = {
    '1': [(0, 0, 0)],
    '2*delta': [(0, 0, 1), (0, 1, 0), (1, 0, 0)],
    '2*delta**2 - delta': [(0, 0, 2), (0, 1, 1), (0, 2, 0), (1, 0, 1), (1, 1, 0), (2, 0, 0)],
    '(4*delta**3 - 6*delta**2 + 2*delta)/3': [(0, 0, 3), (0, 1, 2), (0, 2, 1), (0, 3, 0), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0), (3, 0, 0)],
    '(4*delta**4 - 12*delta**3 + 11*delta**2 - 3*delta)/6': [(0, 0, 4), (0, 1, 3), (0, 2, 2), (0, 3, 1), (0, 4, 0), (1, 0, 3), (1, 3, 0), (2, 0, 2), (2, 2, 0), (3, 0, 1), (3, 1, 0), (4, 0, 0)],
    '(2*delta**3 - 3*delta**2 + delta)/2': [(1, 1, 1)],
    '(4*delta**4 - 12*delta**3 + 11*delta**2 - 3*delta)/9': [(1, 1, 2), (1, 2, 1), (2, 1, 1)],
}

OTHER_CLASSICAL = [
    (['eval-theta', '--kind', 'spinor', '--r', '2', '--s', '0', '--t', '0', '--specialize', 'classical'],
     '(2*delta**2*Delta - delta*Delta)/2\n'),
    (['eval-3j', '--r', '1', '--s', '1', '--t', '1', '--kind', 'double', '--specialize', 'classical'],
     '(2*delta**3*Delta**2 - 3*delta**2*Delta**2 + delta*Delta**2)/2\n'),
]


# Stdout of `qspin check --all`, text and JSON, captured before the checks
# were read from one registry.  The JSON is stored compactly; indented
# as the CLI prints it, it is byte for byte the captured output.
CHECK_ALL_TEXT = """\
PASS  braid-invariants  {"n": 1}
PASS  braid-invariants  {"n": 2}
PASS  crossing-symmetry-D  {}
PASS  hecke-quotient  {}
PASS  hecke-tower  {"kind": "E"}
PASS  hecke-tower  {"kind": "F"}
PASS  quantum-dims  {"n": 1, "p_max": 3}
PASS  quantum-dims  {"n": 2, "p_max": 3}
PASS  tower  {"kind": "E", "n": 1, "p_max": 3}
PASS  tower  {"kind": "E", "n": 2, "p_max": 3}
PASS  tower  {"kind": "F", "n": 1, "p_max": 3}
PASS  tower  {"kind": "F", "n": 2, "p_max": 3}
PASS  unitarity  {"kind": "BMW_A", "rep": "bmw3"}
PASS  unitarity  {"kind": "BMW_D", "rep": "bmw3"}
PASS  unitarity  {"kind": "HeckeE", "rep": "hecke2"}
PASS  unitarity  {"kind": "HeckeF", "rep": "hecke2"}
PASS  ybe  {"kind": "BMW_A", "n": 1, "rep": "tensor"}
PASS  ybe  {"kind": "BMW_A", "rep": "bmw3"}
PASS  ybe  {"kind": "BMW_D", "n": 1, "rep": "tensor"}
PASS  ybe  {"kind": "BMW_D", "rep": "bmw3"}
PASS  ybe  {"kind": "HeckeE", "rep": "hecke2"}
PASS  ybe  {"kind": "HeckeF", "rep": "hecke2"}
all passed
"""

CHECK_ALL_JSON = (
    '{"format_version":1,"results":['
    '{"name":"braid-invariants","params":{"n":1},"passed":true},'
    '{"name":"braid-invariants","params":{"n":2},"passed":true},'
    '{"name":"crossing-symmetry-D","params":{},"passed":true},'
    '{"name":"hecke-quotient","params":{},"passed":true},'
    '{"name":"hecke-tower","params":{"kind":"E"},"passed":true},'
    '{"name":"hecke-tower","params":{"kind":"F"},"passed":true},'
    '{"name":"quantum-dims","params":{"n":1,"p_max":3},"passed":true},'
    '{"name":"quantum-dims","params":{"n":2,"p_max":3},"passed":true},'
    '{"name":"tower","params":{"kind":"E","n":1,"p_max":3},"passed":true},'
    '{"name":"tower","params":{"kind":"E","n":2,"p_max":3},"passed":true},'
    '{"name":"tower","params":{"kind":"F","n":1,"p_max":3},"passed":true},'
    '{"name":"tower","params":{"kind":"F","n":2,"p_max":3},"passed":true},'
    '{"name":"unitarity","params":{"kind":"BMW_A","rep":"bmw3"},"passed":true},'
    '{"name":"unitarity","params":{"kind":"BMW_D","rep":"bmw3"},"passed":true},'
    '{"name":"unitarity","params":{"kind":"HeckeE","rep":"hecke2"},"passed":true},'
    '{"name":"unitarity","params":{"kind":"HeckeF","rep":"hecke2"},"passed":true},'
    '{"name":"ybe","params":{"kind":"BMW_A","rep":"tensor","n":1},"passed":true},'
    '{"name":"ybe","params":{"kind":"BMW_A","rep":"bmw3"},"passed":true},'
    '{"name":"ybe","params":{"kind":"BMW_D","rep":"tensor","n":1},"passed":true},'
    '{"name":"ybe","params":{"kind":"BMW_D","rep":"bmw3"},"passed":true},'
    '{"name":"ybe","params":{"kind":"HeckeE","rep":"hecke2"},"passed":true},'
    '{"name":"ybe","params":{"kind":"HeckeF","rep":"hecke2"},"passed":true}'
    '],"all_passed":true}'
)


def test_eval_theta_text(capsys):
    code, out, _ = run(capsys, "eval-theta", "--r", "1", "--s", "0", "--t", "0")
    assert code == 0
    assert equal(parse_scalar(out.strip()), theta_vector(1, 0, 0))


def test_eval_theta_by_labels(capsys):
    code, out, _ = run(capsys, "eval-theta", "--a", "1", "--b", "1", "--c", "2")
    assert code == 0
    assert equal(parse_scalar(out.strip()), theta_vector(0, 1, 1))


def test_eval_theta_json(capsys):
    code, out, _ = run(
        capsys, "eval-theta", "--r", "1", "--s", "0", "--t", "0",
        "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert equal(parse_scalar(doc["value"]), theta_vector(1, 0, 0))


def test_odd_leg_total_rejected(capsys):
    code, _, err = run(capsys, "eval-theta", "--a", "1", "--b", "1", "--c", "1")
    assert code == 2
    assert "odd" in err


def test_validation_error_is_machine_readable(capsys):
    code, _, err = run(
        capsys, "eval-theta", "--a", "1", "--b", "1", "--c", "1",
        "--format", "json",
    )
    assert code == 2
    doc = json.loads(err)
    assert doc["error"]["type"] == "odd-leg-total"


def test_specialize_flag(capsys):
    code, out, _ = run(
        capsys, "eval-theta", "--r", "1", "--s", "0", "--t", "0",
        "--specialize", "n=2",
    )
    assert code == 0
    assert out.strip() == "(q^4 + 2*q^2 + 1)/(q^2)"


def test_specialize_subcommand(capsys):
    code, out, _ = run(
        capsys, "specialize", "--expr", "(q^2+z^2)/(q*z)", "--to", "classical"
    )
    assert code == 0
    assert out.strip() == "2"
    code, out, _ = run(capsys, "specialize", "--expr", "delta", "--to", "n=1")
    assert code == 0
    assert equal(parse_scalar(out.strip()), parse_scalar("1"))
    code, _, err = run(capsys, "specialize", "--expr", "q +", "--to", "n=1")
    assert code == 2
    code, out, err = run(capsys, "specialize", "--expr", "q", "--to", "nonsense")
    assert (code, out) == (2, "") and err.startswith("error [bad-target]")
    # the level cap is inclusive
    level = cli.MAX_LEVEL
    assert run(capsys, "specialize", "--expr", "z", "--to", f"n={level}") == (
        0, f"q^{level}\n", "")


def test_eval_3j(capsys):
    code, out, _ = run(capsys, "eval-3j", "--r", "1", "--s", "0", "--t", "1")
    assert code == 0
    assert parse_scalar(out.strip()) is not None


def test_fierz_table_stdout_and_file(tmp_path, capsys):
    code, out, _ = run(capsys, "fierz-table", "--max", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["format_version"] == 1
    assert {(e["a"], e["b"]) for e in doc["entries"]} == {
        (0, 0), (0, 1), (1, 0), (1, 1)
    }
    path = tmp_path / "table.json"
    code, out, _ = run(capsys, "fierz-table", "--max", "1", "--out", str(path))
    assert code == 0
    assert json.loads(path.read_text())["max_a"] == 1


def test_fierz_table_reproducible(capsys):
    code, out1, _ = run(capsys, "fierz-table", "--max", "1")
    code, out2, _ = run(capsys, "fierz-table", "--max", "1")
    assert out1 == out2


def test_dims(capsys):
    code, out, _ = run(capsys, "dims", "--p-max", "1", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["dims"][0]["p"] == 0
    assert doc["dims"][0]["vector_tower"] == "1"


def test_dims_specialized(capsys):
    from qspin.matrixlab import dimq_sym_recursive
    from qspin.recoupling import dimq_vector_recurrence_consistent
    from qspin.scalar import classical, integer_level

    code, out, err = run(capsys, "dims", "--p-max", "3", "--specialize", "classical")
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[1] == "p=1  vector: 2*delta  symmetric: 2*delta"
    for p, line in enumerate(lines):
        assert line == (
            f"p={p}  vector: {classical(dimq_vector_recurrence_consistent(p))}  "
            f"symmetric: {classical(dimq_sym_recursive(p))}"
        )
    code, out, _ = run(capsys, "dims", "--p-max", "3", "--specialize", "n=2")
    assert code == 0
    for p, line in enumerate(out.splitlines()):
        assert line == (
            f"p={p}  vector: {to_text(integer_level(dimq_vector_recurrence_consistent(p), 2))}  "
            f"symmetric: {to_text(integer_level(dimq_sym_recursive(p), 2))}"
        )
    # q -> 1 needs a z-free value: p = 0 is 1, p = 1 is a typed error
    code, out, _ = run(capsys, "dims", "--p-max", "0", "--specialize", "q1",
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["dims"] == [{"p": 0, "vector_tower": "1", "symmetric_tower": "1"}]
    code, out, err = run(capsys, "dims", "--p-max", "1", "--specialize", "q1")
    assert code == 2 and out == ""
    assert err.startswith("error [SpecializationError]")


def test_classical_outputs_pinned(capsys):
    code, out, err = run(capsys, "dims", "--p-max", "10", "--specialize", "classical")
    assert (code, out, err) == (0, DIMS_CLASSICAL, "")
    for want, triples in THETA_CLASSICAL.items():
        for r, s, t in triples:
            code, out, err = run(capsys, "eval-theta", "--r", str(r), "--s", str(s),
                                 "--t", str(t), "--specialize", "classical")
            assert (code, out, err) == (0, want + "\n", ""), (r, s, t)
    assert sum(map(len, THETA_CLASSICAL.values())) == 35  # every r + s + t <= 4
    for argv, want in OTHER_CLASSICAL:
        assert run(capsys, *argv) == (0, want, "")


def test_classical_of_canonical_texts(capsys):
    # delta's own normal form reads back as delta
    for text in ["(z^2-1)*q/((q^2-1)*z)", to_text(scalar.DELTA)]:
        assert run(capsys, "specialize", "--expr", text, "--to", "classical") == (
            0, "delta\n", "")
    # the tool specializes its own output like the value that printed it
    _, want, _ = run(capsys, "eval-theta", "--r", "1", "--s", "1", "--t", "2",
                     "--specialize", "classical")
    text = to_text(theta_vector(1, 1, 2))
    assert run(capsys, "specialize", "--expr", text, "--to", "classical") == (0, want, "")


@pytest.mark.parametrize(
    "to,expr",
    [("classical", "1/(q-1)"), ("classical", "u"), ("q1", "1/(q-1)"), ("q1", "u")],
    ids=["pole", "spectral", "q1-pole", "q1-spectral"],
)
def test_classical_singular_is_a_typed_error(capsys, to, expr):
    code, out, err = run(capsys, "specialize", "--expr", expr, "--to", to)
    assert code == 2 and out == ""
    assert err.startswith("error [ClassicalSingular]")
    assert "Traceback" not in err


_LEVEL = f"n={cli.MAX_LEVEL + 1}"


@pytest.mark.parametrize(
    "argv,error",
    [
        (["fierz-table", "--max", str(cli.MAX_FIERZ_TABLE + 1)], "ArgumentOutOfRange"),
        (["dims", "--p-max", str(cli.MAX_DIMS_P + 1)], "ArgumentOutOfRange"),
        (["fierz-table", "--max", "-1"], "ArgumentOutOfRange"),
        (["dims", "--p-max", "-1"], "ArgumentOutOfRange"),
        (["dims", "--p-max", "25", "--specialize", _LEVEL], "bad-target"),
        (["eval-theta", "--r", "2", "--s", "2", "--t", "2", "--specialize", _LEVEL],
         "bad-target"),
        (["specialize", "--expr", "(z^3 - q)/(z^2 - q^2)", "--to", _LEVEL], "bad-target"),
        (["specialize", "--expr", "q", "--to", "n=100000"], "bad-target"),
        (["specialize", "--expr", "q", "--to", "n=0"], "bad-target"),
        (["specialize", "--expr", "q", "--to", "n=abc"], "bad-target"),
        (["eval-theta", "--a", "1"], "bad-labels"),
        (["eval-theta", "--r", "1"], "bad-labels"),
        (["eval-theta", "--kind", "spinor", "--r", "1", "--s", "1", "--t", "0"],
         "bad-labels"),
        (["specialize", "--expr", "1/(z-q)", "--to", "n=1"], "DivisionByZero"),
        # a negative count would shrink r + s + t under the cap
        (["eval-theta", "--kind", "spinor", "--r", "-3", "--s", "0", "--t", "0"],
         "ArgumentOutOfRange"),
        (["eval-theta", "--kind", "spinor", "--r", "0", "--s", "-2", "--t", "0"],
         "ArgumentOutOfRange"),
        # one label set would be ignored
        (["eval-theta", "--a", "2", "--b", "2", "--c", "2", "--r", "5"], "bad-labels"),
    ],
    ids=["fierz-table-max", "dims-p-max", "fierz-table-negative", "dims-negative",
         "dims-level", "eval-theta-level", "specialize-level", "specialize-huge-level",
         "specialize-level-zero", "specialize-level-not-int", "eval-theta-partial-abc",
         "eval-theta-partial-rst",
         "spinor-theta-two-counts", "specialize-pole-at-level",
         "spinor-theta-negative-r", "spinor-theta-negative-s",
         "eval-theta-both-label-sets"],
)
def test_table_size_caps(capsys, argv, error):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert err.startswith(f"error [{error}]")


@pytest.mark.parametrize("command", ["eval-theta", "eval-3j"])
def test_eval_size_cap(capsys, command):
    cap = cli.MAX_EVAL_SUM
    code, out, err = run(capsys, command, "--r", str(cap), "--s", "0", "--t", "0")
    assert code == 0 and out.strip() and err == ""
    start = time.perf_counter()
    code, out, err = run(capsys, command, "--r", str(cap - 1), "--s", "1", "--t", "1",
                         "--format", "json")
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert json.loads(err) == {"error": {
        "type": "ArgumentOutOfRange",
        "message": f"r + s + t = {cap + 1} exceeds the cap {cap}",
    }}


@pytest.mark.parametrize(
    "expr",
    [
        f"q^{scalar.MAX_PARSE_EXPONENT + 1}",
        f"q^{scalar.MAX_PARSE_DEGREE}*q + 1",
        "((q+z+1)^66+1)/((q+z+2)^66+1)",
    ],
    ids=["exponent", "degree", "size"],
)
def test_oversized_expr_is_a_typed_error(capsys, expr):
    start = time.perf_counter()
    code, out, err = run(capsys, "specialize", "--expr", expr, "--to", "n=1")
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert err.startswith("error [parse-error]")


def test_chromatic(tmp_path, capsys):
    path = tmp_path / "theta.json"
    path.write_text(theta_network(1, 1, 2).to_json())
    code, out, _ = run(
        capsys, "chromatic", "--file", str(path),
        "--normalization", "raw", "--at", "-2",
    )
    assert code == 0
    assert out.strip() == "6"
    code, out, _ = run(
        capsys, "chromatic", "--file", str(path), "--normalization", "projector"
    )
    assert code == 0
    assert "delta" in out
    code, _, err = run(capsys, "chromatic", "--file", str(tmp_path / "nope.json"))
    assert code == 2


# Output of `qspin chromatic` on theta(2, 2, 2), captured when chromatic
# values were still printed by their own polynomial class.
CHROMATIC_THETA_222 = [
    (["--normalization", "projector"], "1/8*delta^3 - 3/8*delta^2 + 1/4*delta\n"),
    (["--normalization", "projector", "--format", "json"],
     '{"coefficients": {"3": "1/8", "2": "-3/8", "1": "1/4"}}\n'),
    (["--normalization", "projector", "--at", "3"], "3/4\n"),
    (["--normalization", "raw"], "delta^3 - 3*delta^2 + 2*delta\n"),
]


@pytest.mark.parametrize("argv,want", CHROMATIC_THETA_222,
                         ids=["projector", "projector-json", "projector-at", "raw"])
def test_chromatic_output_pinned(tmp_path, capsys, argv, want):
    path = tmp_path / "theta.json"
    path.write_text(theta_network(2, 2, 2).to_json())
    assert run(capsys, "chromatic", "--file", str(path), *argv) == (0, want, "")


def _theta_doc(labels) -> dict:
    """Two vertices joined by three edges with these labels."""
    return {
        "vertices": ["u", "v"],
        "edges": [{"ends": ["u", "v"], "label": a} for a in labels],
        "rotation": {"u": [[0, 0], [1, 0], [2, 0]], "v": [[2, 1], [1, 1], [0, 1]]},
    }


def _tetrahedron_doc(labels) -> dict:
    """K4 with edges (12, 13, 14, 23, 24, 34) labelled ``labels``, outer
    triangle 1, 2, 3 and vertex 4 inside."""
    return {
        "vertices": [1, 2, 3, 4],
        "edges": [{"ends": ends, "label": a}
                  for ends, a in zip([[1, 2], [1, 3], [1, 4], [2, 3], [2, 4], [3, 4]], labels)],
        "rotation": {"1": [[0, 0], [2, 0], [1, 0]], "2": [[3, 0], [4, 0], [0, 1]],
                     "3": [[1, 1], [5, 0], [3, 1]], "4": [[2, 1], [4, 1], [5, 1]]},
    }


def _cable_doc(a: int) -> dict:
    """A cable of ``a`` lines closed on itself through one rectangle."""
    return {"rectangles": {"r": a}, "link": [[["r", 1, p], ["r", 0, p]] for p in range(a)]}


# The stdout of `qspin chromatic --file F --normalization N --format json`
# by its sha256, for the network shapes the chromatic benchmark evaluates:
# two thetas, four tetrahedra and four cables.  Captured when each state's
# weight was still a dict from loop counts to coefficients.
CHROMATIC_SHA256 = [
    ("theta-5-5-4", _theta_doc((5, 5, 4)), "projector",
     "fd23f8b23ce76b1e6a89d53561d169da5932b4c9ab904e9913dcadb655e7e095"),
    ("theta-4-4-4", _theta_doc((4, 4, 4)), "projector",
     "9497f4e257b8d49ae19521e39b9e1f362f9cb20b967e2ae32a59886c9fca818f"),
    ("tetrahedron-2-2-2-2-2-2", _tetrahedron_doc((2, 2, 2, 2, 2, 2)), "raw",
     "c610c86f78f1be2ef28c0a13bf91c987086a4d2fc531668589fb8576850bffb6"),
    ("tetrahedron-3-2-3-1-2-3", _tetrahedron_doc((3, 2, 3, 1, 2, 3)), "raw",
     "50d67357de8ef942e7ff7de6d27d1d79d86cc4761523bb5a6e08301b3f8d8904"),
    ("tetrahedron-4-3-1-3-1-2", _tetrahedron_doc((4, 3, 1, 3, 1, 2)), "raw",
     "d4a4b93b8058b3982b35cc8afdb2c76c503027cb67302fc762f2a2a20f1051fa"),
    ("tetrahedron-4-4-0-4-0-0", _tetrahedron_doc((4, 4, 0, 4, 0, 0)), "raw",
     "7793317cf9a0f80fd166e725e3a69778f1a2e8f042f213b8111de76a52710f6d"),
    ("cable-3", _cable_doc(3), "raw",
     "bc4088b722dd0ba656f7803d0478a492e117b3389d00eb884a81bc05a7238109"),
    ("cable-4", _cable_doc(4), "raw",
     "eabb244fd44d13e2c9a27b4be93504b49df62b85cc534415c9a81d78baf31f3f"),
    ("cable-5", _cable_doc(5), "raw",
     "9349106f4ed27a82cff3cb4d427943ee854e3d2f49fc04fd13e20cdb7aa8757e"),
    ("cable-6", _cable_doc(6), "raw",
     "93c31d5da846445a1d870b94c0fd83ce19f8445a92f3e70c9aa12ea5aa6e4048"),
]


@pytest.mark.parametrize("doc,normalization,digest", [row[1:] for row in CHROMATIC_SHA256],
                         ids=[row[0] for row in CHROMATIC_SHA256])
def test_chromatic_sha256_pinned(tmp_path, capsys, doc, normalization, digest):
    path = tmp_path / "net.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "chromatic", "--file", str(path),
                         "--normalization", normalization, "--format", "json")
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


_THETA_DOC = json.loads(theta_network(1, 1, 2).to_json())
#: Rectangles r and s of degree 1 joined in a circle, and a pair that
#: links r's ports to each other again.
_LINKS = [[["r", 1, 0], ["s", 0, 0]], [["s", 1, 0], ["r", 0, 0]]]
_TWICE = [["r", 1, 0], ["r", 0, 0]]


def _links_from(end: list) -> dict:
    """The circle of _LINKS with r's side-1 port written as ``end``."""
    return {"rectangles": {"r": 1, "s": 1}, "link": [[end, ["s", 0, 0]], _LINKS[1]]}


def _theta_with(edge: int, **fields) -> dict:
    """_THETA_DOC with the given fields of one edge replaced."""
    edges = [dict(e) for e in _THETA_DOC["edges"]]
    edges[edge].update(fields)
    return dict(_THETA_DOC, edges=edges)


def test_each_network_is_checked_once(tmp_path, capsys):
    # the constructors check a network; medial and chromatic_eval take it
    # as checked
    # (LabelledNetwork.validate, StrandNetwork.validate) calls
    for net, want in ((theta_network(2, 2, 2), (1, 1)), (cabled_unknot(3, True), (0, 1))):
        path = tmp_path / "net.json"
        path.write_text(net.to_json())
        with counting(networks.LabelledNetwork, "validate") as labelled, \
                counting(networks.StrandNetwork, "validate") as strand:
            code, out, err = run(capsys, "chromatic", "--file", str(path))
        assert (code, err) == (0, "") and out
        assert (labelled.count, strand.count) == want


@pytest.mark.parametrize(
    "doc,error",
    [
        ({"rectangles": {"r": 1}}, "ParseError"),
        ([_THETA_DOC], "ParseError"),
        ({"rectangles": {"r": "2"}, "link": []}, "ConstraintViolated"),
        ({"rectangles": {"r": 1}, "link": [[["r", 1, "x"], ["r", 0, 0]]]}, "ParseError"),
        (dict(_THETA_DOC, rotation=dict(_THETA_DOC["rotation"], w=[[0, 0]])),
         "ParseError"),
        ({"rectangles": {"r": 1},
          "link": [[["r", 1, 0], ["r", 1, 0]], [["r", 0, 0], ["r", 0, 0]]]},
         "ConstraintViolated"),
        (json.loads(cabled_unknot(MAX_TOTAL_LINES + 1, True).to_json()),
         "StateSpaceTooLarge"),
        # a port in two link pairs, the repeated pair listed first and last:
        # both are refused, although with it first the later pairs alone
        # form a valid involution
        ({"rectangles": {"r": 1, "s": 1}, "link": [_TWICE] + _LINKS}, "ConstraintViolated"),
        ({"rectangles": {"r": 1, "s": 1}, "link": _LINKS + [_TWICE]}, "ConstraintViolated"),
        (_theta_with(0, ends=["u", "w"]), "ConstraintViolated"),
        (dict(_THETA_DOC, vertices=["u", "v", "v"]), "ConstraintViolated"),
        (_theta_with(0, label="2"), "ConstraintViolated"),
        (_theta_with(0, label=-2), "InadmissibleLabel"),
        (dict(_THETA_DOC, rotation=dict(_THETA_DOC["rotation"], u=[[0, 0], [1, 0]])),
         "InadmissibleLabel"),
        (dict(_THETA_DOC, free_loops=[-1]), "InadmissibleLabel"),
        ({"rectangles": {"r": -1}, "link": []}, "InadmissibleLabel"),
        # a side or index that is not a JSON integer, even one int() reads
        (_links_from(["r", 1.9, 0]), "ParseError"),
        (_links_from(["r", 1.0, 0]), "ParseError"),
        (_links_from(["r", "1", 0]), "ParseError"),
        (_links_from(["r", True, 0]), "ParseError"),
        (_links_from(["r", 1, 0.5]), "ParseError"),
        # a strand file's free loops count toward the line budget, as a
        # labelled file's do
        ({"rectangles": {}, "link": [], "free_loops": [100]}, "StateSpaceTooLarge"),
        ({"rectangles": {}, "link": [], "free_loops": [40000]}, "StateSpaceTooLarge"),
    ],
    ids=["missing-link", "top-level-list", "string-degree", "port-index-x",
         "rotation-names-no-vertex", "port-linked-to-itself", "over-line-budget",
         "port-in-two-pairs-first", "port-in-two-pairs-last", "edge-to-unknown-vertex",
         "repeated-vertex", "non-integer-label", "negative-label", "vertex-not-trivalent",
         "negative-free-loop", "negative-degree", "port-side-float", "port-side-whole-float",
         "port-side-string", "port-side-bool", "port-index-float",
         "strand-free-loops-100", "strand-free-loops-40000"],
)
def test_bad_network_file_is_a_typed_error(tmp_path, capsys, doc, error):
    path = tmp_path / "net.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "chromatic", "--file", str(path))
    assert code == 2 and out == ""
    assert err.startswith(f"error [{error}]")


@pytest.mark.parametrize(
    "doc,want",
    [
        (dict(_THETA_DOC, edges=[dict(e, label=200_000) for e in _THETA_DOC["edges"]]),
         "error [StateSpaceTooLarge]: 600000 lines exceeds the budget 64\n"),
        ({"rectangles": {"r": 2_000_000}, "link": []},
         "error [ConstraintViolated]: ambient linking must cover every port\n"),
    ],
    ids=["theta-200000", "rectangle-2000000"],
)
def test_oversized_network_is_refused_before_it_is_built(tmp_path, capsys, doc, want):
    # building the links of the theta, or the port set of the rectangle,
    # would take hundreds of MB; the line count refuses both first
    path = tmp_path / "net.json"
    path.write_text(json.dumps(doc))
    tracemalloc.start()
    try:
        result = run(capsys, "chromatic", "--file", str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result == (2, "", want)
    assert peak < 10_000_000


@pytest.mark.parametrize(
    "fmt,want",
    [("text", "error [bad-json]: Expecting ',' delimiter: line 1 column 3 (char 2)\n"),
     ("json", '{"error": {"type": "bad-json", "message": '
              '"Expecting \',\' delimiter: line 1 column 3 (char 2)"}}\n')],
)
def test_chromatic_file_not_json_is_bad_json(tmp_path, capsys, fmt, want):
    # the command reads the JSON itself, so the kind stays bad-json although
    # the network readers raise ParseError for the same text
    path = tmp_path / "net.json"
    path.write_text("[1")
    assert run(capsys, "chromatic", "--file", str(path), "--format", fmt) == (2, "", want)


@pytest.mark.parametrize(
    "argv,error",
    [
        (["chromatic", "--file", "{dir}"], "IsADirectoryError"),
        (["check", "--manifest", "{dir}"], "IsADirectoryError"),
        (["fierz-table", "--max", "1", "--out", "{dir}"], "IsADirectoryError"),
        (["chromatic", "--file", "{binary}"], "UnicodeDecodeError"),
        (["check", "--manifest", "{binary}"], "UnicodeDecodeError"),
        # a full device fails the write with ENOSPC: a file error, not the
        # quiet exit of a closed stdout
        pytest.param(["fierz-table", "--max", "1", "--out", "/dev/full"], "OSError",
                     marks=pytest.mark.skipif(not os.path.exists("/dev/full"),
                                              reason="no /dev/full")),
    ],
    ids=["chromatic-directory", "manifest-directory", "fierz-out-directory",
         "chromatic-not-utf8", "manifest-not-utf8", "fierz-out-full"],
)
def test_unreadable_file_is_a_typed_error(tmp_path, capsys, argv, error):
    binary = tmp_path / "binary"
    binary.write_bytes(b"\x7fELF\xff\xfe\x00\x01")
    paths = {"{dir}": str(tmp_path), "{binary}": str(binary)}
    code, out, err = run(capsys, *(paths.get(a, a) for a in argv))
    assert code == 2 and out == ""
    assert err.startswith(f"error [{error}]")


def test_check_all_pinned(capsys):
    assert run(capsys, "check", "--all") == (0, CHECK_ALL_TEXT, "")
    assert run(capsys, "check", "--all", "--format", "json") == (
        0, json.dumps(json.loads(CHECK_ALL_JSON), indent=2) + "\n", "")


# The stdout of `qspin check --all` in text and in JSON, by their sha256:
# the same bytes as above, as fingerprints to compare other runs with.
CHECK_ALL_SHA256 = {
    "text": "98e94af0b90cc0b9ace8d7c2b7f1fe59be631f24af1ab94a5f7c112483a8d8bc",
    "json": "7883756a3cce7ffcf4afc42e39fc7eb7ecfc508f4f04436ff15d4d5cc79ce2af",
}


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_check_all_sha256_pinned(capsys, fmt):
    code, out, err = run(capsys, "check", "--all", "--format", fmt)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == CHECK_ALL_SHA256[fmt]


# The stdout of `qspin fierz-table --max 5`, 33,253 bytes, by its sha256:
# the write side of the scalar layer, pinned byte for byte.
FIERZ_TABLE_5_SHA256 = "bd85fbd30995251be094b2160c18a7d60be7c3f361e74dffb2742da31ef400f3"


def test_fierz_table_pinned(capsys):
    code, out, err = run(capsys, "fierz-table", "--max", "5")
    assert (code, err) == (0, "")
    assert len(out.encode()) == 33253
    assert hashlib.sha256(out.encode()).hexdigest() == FIERZ_TABLE_5_SHA256


# The stdout of the closed-form commands at their caps, specialized to the
# largest level, by its sha256: captured when z -> q^n cancelled the whole
# normal form at the level, which the key-by-key map must not change.
CAP_LEVEL_SHA256 = [
    (["eval-3j", "--kind", "double", "--r", "8", "--s", "8", "--t", "8", "--specialize", "n=16"],
     "dedeb0bbee3a6e7d906e6d7193e5421bf8e7e5f265b608704a6eafa972225f29"),
    (["eval-theta", "--r", "8", "--s", "8", "--t", "8", "--specialize", "n=16"],
     "02d4519327023516527abd827098fc85679299b883f524f96cb3fd2a28afc4e3"),
    (["dims", "--p-max", "28", "--specialize", "n=16"],
     "ad8a5589d6eccae213b3f0e895c61654e2c223e8f724d02e722a36f50d54d4cb"),
]


@pytest.mark.parametrize("argv,digest", CAP_LEVEL_SHA256, ids=[row[0][0] for row in CAP_LEVEL_SHA256])
def test_cap_levels_sha256_pinned(capsys, argv, digest):
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# The unspecialized stdout of the closed-form commands, by its sha256:
# captured when each product of brackets and braces was its own loop, which
# the shared products of qcomb must not change.
CLOSED_FORM_SHA256 = [
    (["eval-theta", "--r", "3", "--s", "2", "--t", "2"],
     "b5022885362d59a64ee12cf5b8cf9f79f6e63a6769a802060325faebddfc6dc1"),
    (["eval-theta", "--kind", "spinor", "--r", "6", "--s", "0", "--t", "0"],
     "265efe9a69e913d4fff2084c49875dd16001aa9272055d582eb31f9a41cf47db"),
    (["eval-3j", "--r", "3", "--s", "3", "--t", "2"],
     "c7c38732b16d174ba5f8a76751df2fe185b190d9c8bf4e33529d58273f0ed8da"),
    (["eval-3j", "--kind", "double", "--r", "3", "--s", "3", "--t", "2"],
     "0c11830fd8a8bd4f778ef39184eb8ccacf47ebb58ea9d723c0fd4cafb3b3f2ff"),
    (["dims", "--p-max", "8"],
     "77558f0e9770c27c2c192fd679893fc499072a212b51a973368418ea3421467b"),
]


@pytest.mark.parametrize("argv,digest", CLOSED_FORM_SHA256,
                         ids=["theta-vector", "theta-spinor", "3j-spinor", "3j-double", "dims"])
def test_closed_forms_sha256_pinned(capsys, argv, digest):
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_check_stats_adds_row_times(capsys):
    # the same rows as the pinned output, each with its wall time appended
    code, out, err = run(capsys, "check", "--all", "--stats")
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert all(re.search(r"  \[\d+\.\d{3} s\]$", line) for line in lines[:-1])
    assert re.sub(r"  \[\d+\.\d{3} s\]$", "", out, flags=re.M) == CHECK_ALL_TEXT
    code, out, err = run(capsys, "check", "--all", "--format", "json", "--stats")
    assert (code, err) == (0, "")
    doc = json.loads(out)
    for row in doc["results"]:
        assert isinstance(row["seconds"], float) and row["seconds"] >= 0
        del row["seconds"]
    assert doc == json.loads(CHECK_ALL_JSON)


def test_check_named_suite(capsys):
    code, out, _ = run(
        capsys, "check", "--suite", "crossing-symmetry-D", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["all_passed"] is True
    # any registry entry is a suite: an identity and a slip
    code, out, _ = run(capsys, "check", "--suite", "clifford")
    assert code == 0 and out.endswith("all passed\n")
    code, out, _ = run(capsys, "check", "--suite", "bmw3-exponent")
    assert code == 0 and out.count("PASS  bmw3-exponent") == 3


def test_check_bad_suite(capsys):
    # the empty name names no suite, and is not read as --all
    for name in ("no-such-suite", ""):
        code, out, err = run(capsys, "check", "--suite", name)
        assert (code, out) == (2, "")
        assert err.startswith(f"error [bad-suite]: unknown suite {name!r}")


def test_check_group_suites(capsys, monkeypatch):
    # a group name runs every registry entry of the group, in registry order
    def entries(group):
        return [name for name, c in matrixlab.CHECKS.items() if c.group == group]

    assert all(entries(g) for g in ("matrix", "identity", "slip"))
    assert not {"matrix", "identity", "slip", "all"} & set(matrixlab.CHECKS)
    # the matrix group is the suite of --all
    assert run(capsys, "check", "--suite", "matrix") == (0, CHECK_ALL_TEXT, "")
    code, out, err = run(capsys, "check", "--suite", "slip", "--format", "json")
    assert (code, err) == (0, "")
    rows = json.loads(out)["results"]
    want = matrixlab.manifest(entries("slip"))["checks"]
    assert len(rows) == len(want) and all(r["passed"] for r in rows)
    assert {(r["name"], json.dumps(r["params"], sort_keys=True)) for r in rows} == {
        (c["name"], json.dumps(c["params"], sort_keys=True)) for c in want}
    # the identity rows each run as a registry row test; here only the rows
    # the CLI hands on, and the exit code of a failed table
    seen = []

    def failing(doc, stats=False):
        seen.append(doc)
        return {"format_version": 1, "all_passed": False,
                "results": [{"name": "x", "params": {}, "passed": False}]}

    monkeypatch.setattr(matrixlab, "run_manifest", failing)
    code, out, _ = run(capsys, "check", "--suite", "identity")
    assert seen == [matrixlab.manifest(entries("identity"))]
    assert (code, out) == (1, "FAIL  x  {}\nFAILURES PRESENT\n")


def test_check_failure_exit_code(tmp_path, capsys):
    manifest = {
        "format_version": 1,
        "checks": [{"name": "does-not-exist", "params": {}}],
    }
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    code, out, _ = run(capsys, "check", "--manifest", str(path))
    assert code == 1
    assert "FAIL" in out


@pytest.mark.parametrize(
    "doc",
    [
        [{"name": "ybe"}],
        3,
        {"format_version": 1},
        {"checks": {"name": "ybe"}},
        {"checks": ["ybe"]},
        {"checks": [{"params": {}}]},
        {"checks": [{"name": 3}]},
        {"checks": [{"name": "hecke-tower", "params": "x"}]},
        {"format_version": 2, "checks": []},
        {"format_version": "1", "checks": []},
    ],
    ids=["top-level-list", "number", "no-checks", "checks-not-a-list",
         "item-not-an-object", "no-name", "name-not-a-string",
         "params-not-an-object", "format-version-2", "format-version-string"],
)
def test_bad_manifest_is_a_typed_error(tmp_path, capsys, doc):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "check", "--manifest", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error [ParseError]")


def test_calls_keep_no_state(capsys):
    # no call leaks into the next: a flag given in one call (a format, a
    # target, a kind) is back at its default in the next, so each call
    # gives the same result whichever calls ran before it
    calls = [
        ["eval-theta", "--r", "1", "--s", "1", "--t", "0", "--format", "json"],
        ["eval-theta", "--r", "1", "--s", "0", "--t", "1"],
        ["dims", "--p-max", "2", "--specialize", "n=2"],
        ["dims", "--p-max", "2"],
        ["eval-3j", "--r", "1", "--s", "1", "--t", "0", "--kind", "double"],
        ["eval-3j", "--r", "1", "--s", "1", "--t", "0"],
        ["specialize", "--expr", "q + 1", "--to", "classical", "--format", "json"],
        ["fierz-table", "--max", str(cli.MAX_FIERZ_TABLE + 1), "--format", "json"],
        ["fierz-table", "--max", "1"],
        ["check", "--suite", "hecke-quotient"],
    ]
    forward = [run(capsys, *argv) for argv in calls]
    backward = [run(capsys, *argv) for argv in reversed(calls)]
    assert backward[::-1] == forward


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("argv, message", [
    (["eval-3j", "--r", "1", "--s", "1"], "the following arguments are required: --t"),
    (["fierz-table", "--max", "x"], "argument --max: invalid int value 'x'"),
    (["eval-3j", "--r", "1", "--s", "1", "--t", "0", "--kind", "bad"],
     "argument --kind: invalid choice 'bad'; choose from spinor, double"),
    (["dims", "--p-min", "2"], "unrecognized argument '--p-min'"),
    (["chromatic", "--f", "net.json"], "ambiguous option --f: --file, --format"),
    (["bogus"], "unknown command 'bogus'; choose from eval-theta, eval-3j, "
                "fierz-table, dims, chromatic, check, specialize"),
    ([], "no command given; choose from eval-theta, eval-3j, "
         "fierz-table, dims, chromatic, check, specialize"),
    (["check", "--all=x"], "argument --all: takes no value"),
    # with --format json after it, the flag that follows is no value either
    (["fierz-table", "--max"], "argument --max: expected one value"),
], ids=["missing-required", "invalid-int", "invalid-choice", "unknown-option",
        "ambiguous-prefix", "unknown-command", "empty", "flag-with-value", "missing-value"])
def test_bad_arguments_are_a_typed_error(capsys, argv, message, fmt):
    if fmt == "text":
        assert run(capsys, *argv) == (2, "", f"error [bad-args]: {message}\n")
    else:
        code, out, err = run(capsys, *argv, "--format", "json")
        assert (code, out) == (2, "")
        assert json.loads(err) == {"error": {"type": "bad-args", "message": message}}


def test_argument_forms(capsys):
    # --opt=value, a unique prefix, a negative value and a repeated option,
    # whose last value wins, all read as the plain form does
    plain = run(capsys, "eval-3j", "--r", "1", "--s", "1", "--t", "2", "--kind", "double")
    assert plain[0] == 0
    assert run(capsys, "eval-3j", "--r=1", "--s", "1", "--t=2", "--k=double") == plain
    assert run(capsys, "eval-3j", "--r", "5", "--s", "1", "--t", "2", "--r", "1",
               "--kind", "double") == plain
    assert run(capsys, "specialize", "--to", "n=1", "--expr", "-q") == (0, "-q\n", "")
    assert run(capsys, "check", "--suite", "nope", "--all", "--format", "json")[0] == 0


def test_help_lists_commands_and_options(capsys):
    for flag in ("-h", "--help"):
        code, out, err = run(capsys, flag)
        assert (code, err) == (0, "")
        for command in ("eval-theta", "eval-3j", "fierz-table", "dims", "chromatic",
                        "check", "specialize"):
            assert f"\n  {command} " in out
        code, out, err = run(capsys, "chromatic", flag)
        assert (code, err) == (0, "")
        for option in ("--file", "--normalization", "--at", "--format"):
            assert f"\n  {option} " in out


def test_outputs_reproducible(capsys):
    args = ["eval-theta", "--r", "2", "--s", "1", "--t", "0", "--format", "json"]
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


@pytest.mark.parametrize(
    "expr",
    ["0^0", "(" * 3000 + "q" + ")" * 3000, "-" * 3000 + "q"],
    ids=["zero-to-zero", "deep-parentheses", "deep-unary-minus"],
)
def test_hostile_expr_is_a_typed_error(capsys, expr):
    code, out, err = run(capsys, "specialize", f"--expr={expr}", "--to", "classical")
    assert code == 2
    assert out == ""
    assert err.startswith("error [parse-error]")
    assert "Traceback" not in err


def test_module_entry_point_is_quiet():
    src = str(Path(qspin.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    # no warning either: the printed sigma^-1 display is registry data
    proc = subprocess.run(
        [sys.executable, "-m", "qspin.cli", "check", "--all"],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, CHECK_ALL_TEXT, "")


def _entry_point(*argv):
    """``python -m qspin.cli`` with ``argv``, and the environment to run it
    in: none of the caller's PYTHON* variables, so stdout is buffered."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(Path(qspin.__file__).resolve().parent.parent)
    return [sys.executable, "-m", "qspin.cli", *argv], env


def test_a_reader_gone_mid_write_ends_the_run_quietly():
    # 153 KB of output, more than a pipe holds: the write blocks until the
    # reader has gone, then fails
    cmd, env = _entry_point("fierz-table", "--max", "7")
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          env=env) as proc:
        assert proc.stdout.read(10) == b'{\n  "forma'
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=300)
    assert (code, err) == (cli.EXIT_BROKEN_PIPE, b"")


@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
def test_a_reader_gone_before_the_start_ends_the_run_quietly(buffered):
    # buffered, the write fails at the flush that ends main, before the
    # interpreter's own flush at exit could report it; unbuffered, in the
    # print itself
    cmd, env = _entry_point("eval-theta", "--r", "1", "--s", "1", "--t", "0")
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(cmd, stdout=write, stderr=subprocess.PIPE, env=env, timeout=300)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (cli.EXIT_BROKEN_PIPE, b"")


def test_a_run_started_without_a_stdout_is_refused():
    # with fd 1 closed, sys.stdout is None and print would drop the output:
    # the run is refused before it starts, as a write to a full device is
    cmd, env = _entry_point("eval-theta", "--r", "1", "--s", "1", "--t", "0")
    proc = subprocess.run(["sh", "-c", 'exec "$@" >&-', "sh", *cmd],
                          stderr=subprocess.PIPE, env=env, timeout=300)
    assert (proc.returncode, proc.stderr) == (2, b"error [OSError]: standard output is closed\n")


def _drive_commands(tmp_path, holds: str) -> None:
    """In a fresh interpreter, import qspin.cli, run five commands and read
    a Fierz table back, and assert the expression ``holds`` after each step.
    ``bare`` in it is the set of modules the interpreter held at its start.
    The interpreter runs without ``site`` (-S), whose start-up can import
    more (a ``.pth`` file may run any import) and so hide a module in
    ``bare``; the site-packages directories go on its path instead, and the
    script ends by asserting that sympy can be found there, so that a guard
    which keeps sympy out of ``sys.modules`` does not hold for want of it."""
    src = str(Path(qspin.__file__).resolve().parent.parent)
    net = tmp_path / "theta.json"
    net.write_text(theta_network(2, 2, 2).to_json())
    script = f"""
import sys
bare = set(sys.modules)
import contextlib, io
import qspin.cli
assert {holds}, "import qspin.cli"
for argv in (["check", "--all"], ["fierz-table", "--max", "2"],
             ["eval-theta", "--r", "1", "--s", "1", "--t", "0",
              "--specialize", "classical"],
             ["chromatic", "--file", {str(net)!r}, "--at", "3"],
             ["specialize", "--expr", "(q^2*z - 3*Delta)/(q*z + 1)", "--to", "n=1"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert qspin.cli.main(argv) == 0, argv
    assert {holds}, argv
from qspin.recoupling import FierzTable
FierzTable.from_json(FierzTable.generate(2, 2).to_json())
assert {holds}, "FierzTable.from_json"
import importlib.util
assert importlib.util.find_spec("sympy") is not None, "sympy is not on the path"
"""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    site_dirs = dict.fromkeys(sysconfig.get_path(k) for k in ("purelib", "platlib"))
    env["PYTHONPATH"] = os.pathsep.join([src, *site_dirs])
    proc = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True,
                          text=True, env=env, timeout=300)
    assert (proc.returncode, proc.stderr) == (0, "")


def test_commands_do_not_import_sympy(tmp_path):
    # sympy is the tests' oracle, not a dependency of the program: neither
    # the import, a run of any command, nor reading a Fierz table back (the
    # two paths that parse scalar texts) may load it
    _drive_commands(tmp_path, '"sympy" not in sys.modules')


def test_commands_do_not_import_dataclasses(tmp_path):
    # every CLI call pays the import, and dataclasses would bring inspect,
    # ast, dis and tokenize into it; the program needs none of them, nor
    # argparse, whose place the command table of cli.py takes, nor random
    # (with bisect and _sha512), since every identity row is decided exactly
    _drive_commands(
        tmp_path,
        'not {"dataclasses", "inspect", "argparse", "random"} & (set(sys.modules) - bare)',
    )
