"""Command-line interface: subcommands, formats, exit codes."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import qspin
from qspin import cli, scalar
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
    ],
    ids=["fierz-table-max", "dims-p-max", "fierz-table-negative", "dims-negative",
         "dims-level", "eval-theta-level", "specialize-level", "specialize-huge-level"],
)
def test_table_size_caps(capsys, argv, error):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert err.startswith(f"error [{error}]")


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


_THETA_DOC = json.loads(theta_network(1, 1, 2).to_json())


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
    ],
    ids=["missing-link", "top-level-list", "string-degree", "port-index-x",
         "rotation-names-no-vertex", "port-linked-to-itself", "over-line-budget"],
)
def test_bad_network_file_is_a_typed_error(tmp_path, capsys, doc, error):
    path = tmp_path / "net.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "chromatic", "--file", str(path))
    assert code == 2 and out == ""
    assert err.startswith(f"error [{error}]")


@pytest.mark.parametrize(
    "argv,error",
    [
        (["chromatic", "--file", "{dir}"], "IsADirectoryError"),
        (["check", "--manifest", "{dir}"], "IsADirectoryError"),
        (["fierz-table", "--max", "1", "--out", "{dir}"], "IsADirectoryError"),
        (["chromatic", "--file", "{binary}"], "UnicodeDecodeError"),
        (["check", "--manifest", "{binary}"], "UnicodeDecodeError"),
    ],
    ids=["chromatic-directory", "manifest-directory", "fierz-out-directory",
         "chromatic-not-utf8", "manifest-not-utf8"],
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
    code, _, err = run(capsys, "check", "--suite", "no-such-suite")
    assert code == 2


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
