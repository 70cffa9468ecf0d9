"""Tests of the benchmark itself: every output check accepts the
program's real output and rejects a corrupted one.

    python3 -m pytest perfbench/selftest.py

(named so that the repository's own test run does not collect it).
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import inputs  # noqa: E402
import passes  # noqa: E402


def _stored():
    return json.loads(inputs.READBACK_TEXTS.read_text())["texts"]


# -- canonical text ------------------------------------------------------------


def test_parse_text():
    num, den = checks.parse_text("(q*z^2 - q)/(q^2*z - z)")
    assert num == {(1, 2, 0, 0, 0): 1, (1, 0, 0, 0, 0): -1}
    assert den == {(2, 1, 0, 0, 0): 1, (0, 1, 0, 0, 0): -1}
    assert checks.parse_text("-3*Delta^2 + 1")[0] == {
        (0, 0, 2, 0, 0): -3, (0, 0, 0, 0, 0): 1
    }
    with pytest.raises(ValueError):
        checks.parse_text("2*w")


# -- check-all -----------------------------------------------------------------


def _check_stdout():
    rows = [f"PASS  {n}  {json.dumps(p, sort_keys=True)}" for n, p in checks.CHECK_ROWS]
    return "\n".join(rows + ["all passed"]) + "\n"


def test_check_rows_match_the_default_manifest():
    from qspin import matrixlab

    rows = {(c["name"], json.dumps(c["params"], sort_keys=True))
            for c in matrixlab.default_manifest()["checks"]}
    assert rows == {(n, json.dumps(p, sort_keys=True)) for n, p in checks.CHECK_ROWS}


def test_check_all_rejects_a_failed_row():
    good = {"code": 0, "stdout": _check_stdout()}
    assert checks.check_all_failures([good]) == []
    failed = {"code": 1, "stdout": good["stdout"].replace("PASS  ybe", "FAIL  ybe", 1)}
    assert checks.check_all_failures([failed])
    dropped = {"code": 0, "stdout": "\n".join(good["stdout"].splitlines()[1:])}
    assert checks.check_all_failures([dropped])


@pytest.fixture(scope="module")
def towers():
    return checks.numeric_towers()


def test_towers_hold(towers):
    assert checks.tower_failures(towers) == []


def test_towers_reject_a_changed_entry(towers):
    bad = copy.deepcopy(towers)
    rows = bad[("F", 2, 3)]["rows"]
    i = min(rows)
    j = min(rows[i])
    rows[i][j] += Fraction(1, 7)
    assert any("X^2 != X" in f for f in checks.tower_failures(bad))


def test_towers_reject_a_wrong_rank(towers):
    bad = copy.deepcopy(towers)
    bad[("E", 2, 2)] = {"dim": 16, "rows": {i: {i: Fraction(1)} for i in range(16)}}
    assert any("rank" in f for f in checks.tower_failures(bad))


# -- fierz-table ---------------------------------------------------------------


def _fierz_stdout():
    value = {(0, 0): "1"}
    for item in _stored():
        if item["family"] == "fierz":
            value[tuple(item["params"])] = item["text"]
    entries = [
        {"a": a, "b": b, "value": value[(min(a, b), max(a, b))]}
        for a in range(6) for b in range(6)
    ]
    doc = {"format_version": 1, "max_a": 5, "max_b": 5, "entries": entries}
    return json.dumps(doc, indent=2)


def _with_entry(stdout, a, b, value):
    doc = json.loads(stdout)
    for e in doc["entries"]:
        if (e["a"], e["b"]) == (a, b):
            e["value"] = value
    return json.dumps(doc, indent=2)


def test_fierz_table_holds():
    out = {"code": 0, "stdout": _fierz_stdout()}
    assert checks.fierz_table_failures([out, out]) == []


@pytest.mark.parametrize(
    "a,b,change,message",
    [
        (2, 0, lambda t: t.replace(" - ", " + ", 1), "F(2,0) differs"),
        (3, 1, lambda t: t.replace(" - ", " + ", 1), "F(3,1) differs"),
        (3, 3, lambda t: "q*" + t if not t.startswith("(") else "(q*" + t[1:], "invariant"),
        (2, 4, lambda t: "1", "F(2,4) != F(4,2)"),
    ],
)
def test_fierz_table_rejects_a_changed_entry(a, b, change, message):
    good = _fierz_stdout()
    old = next(e["value"] for e in json.loads(good)["entries"] if (e["a"], e["b"]) == (a, b))
    bad = _with_entry(good, a, b, change(old))
    if message.startswith("F(2,4)"):
        bad = _with_entry(bad, b, a, old)
    fails = checks.fierz_table_failures([{"code": 0, "stdout": bad}])
    assert any(message in f for f in fails), fails


def test_fierz_table_rejects_passes_that_differ():
    good = {"code": 0, "stdout": _fierz_stdout()}
    other = {"code": 0, "stdout": good["stdout"] + " "}
    assert checks.fierz_table_failures([good, other])


# -- readback ------------------------------------------------------------------


@pytest.fixture(scope="module")
def small_readback():
    texts = [t for t in _stored() if len(t["text"]) < 200]
    out = passes.serialize("readback", passes.readback({"texts": texts}))
    return texts, out


def test_readback_holds(small_readback):
    texts, out = small_readback
    assert {t["family"] for t in texts} == {
        "theta_vector", "threej_spinor", "threej_double", "theta_spinor", "fierz"
    }
    assert checks.readback_failures(texts, out) == []


@pytest.mark.parametrize("field", ["round_trip", "bar", "levels"])
def test_readback_rejects_a_changed_output(small_readback, field):
    texts, out = small_readback
    k = next(i for i, t in enumerate(texts)
             if t["family"] == "threej_double" and "q" in t["text"])
    bad = copy.deepcopy(out)
    if field == "levels":
        bad[k]["levels"][1]["num"][0][1] = "7/5"
    else:
        bad[k][field] = bad[k][field].replace("q", "z", 1)
    assert checks.readback_failures(texts, bad)


# -- chromatic -----------------------------------------------------------------


@pytest.fixture(scope="module")
def small_chromatic(tmp_path_factory):
    work = tmp_path_factory.mktemp("nets")
    nets = [
        {"kind": "theta", "labels": [2, 3, 3], "normalization": "projector",
         "doc": inputs.theta_doc((2, 3, 3))},
        {"kind": "cable", "lines": 4, "normalization": "raw", "doc": inputs.cable_doc(4)},
    ]
    labels = inputs.TETRAHEDRA[1]
    for variant in (labels, inputs.k4_image(labels, (3, 1, 4, 2))):
        nets.append({"kind": "tetrahedron", "group": 0, "labels": list(variant),
                     "normalization": "raw", "doc": inputs.tetrahedron_doc(variant)})
    for i, net in enumerate(nets):
        path = work / f"net{i}.json"
        path.write_text(json.dumps(net.pop("doc")))
        net["file"] = str(path)
    return nets, passes.chromatic({"networks": nets})


def test_chromatic_holds(small_chromatic):
    nets, out = small_chromatic
    assert checks.chromatic_failures(nets, out) == []


@pytest.mark.parametrize("k", [0, 1, 3])
def test_chromatic_rejects_a_changed_polynomial(small_chromatic, k):
    nets, out = small_chromatic
    bad = copy.deepcopy(out)
    doc = json.loads(bad[k]["stdout"])
    degree = max(doc["coefficients"], key=int)
    doc["coefficients"][degree] = "2"
    bad[k]["stdout"] = json.dumps(doc)
    assert checks.chromatic_failures(nets, bad)


def test_seeded_inputs_repeat_and_keep_the_work():
    from math import factorial, prod

    def states(nets):
        return sorted(prod(factorial(x) for x in n.get("labels", [])) for n in nets)

    a, b = inputs.chromatic_networks(3), inputs.chromatic_networks(4)
    assert inputs.chromatic_networks(3) == a
    assert states(a) == states(b)
    assert sorted(map(str, inputs.readback_texts(3))) == sorted(map(str, _stored()))


# -- the runner ----------------------------------------------------------------


def test_traced_worker_counts_layers(small_chromatic, tmp_path):
    nets, _ = small_chromatic
    spec = tmp_path / "inputs.json"
    spec.write_text(json.dumps({"networks": nets}))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    spans = tmp_path / "spans.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--spawned", "0", "--mode", "trace",
         "--workload", "chromatic", "--inputs", str(spec), "--trace-out", str(spans)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    layers = json.loads(proc.stdout.splitlines()[-1])["layers"]
    # theta (2, 3, 3): 2!3!3!; cable of 4: 4!; two tetrahedra of 3!2!3!1!2!3!
    assert layers["networks.states"] == 72 + 24 + 2 * 864
    assert layers["scalar.field.cancel.calls"] == 0
    doc = json.loads(spans.read_text())
    names = {s[0] for s in doc["spans"]}
    assert {"cli.main", "networks.chromatic_eval", "networks.medial"} <= names
    for name, start, end, parent in doc["spans"]:
        assert start <= end and parent < len(doc["spans"])


def test_run_refuses_a_tree_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "chromatic", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_metric_names_match_the_contract():
    import run
    import tracing

    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    layers = list(tracing.Tracer().metrics()) + ["trace.overhead_s"]
    assert [m["name"] for m in contract["per_layer"]] == layers
    for m in contract["per_layer"]:
        assert m["unit"] == run.LAYER_UNITS.get(m["name"].rsplit(".", 1)[-1], "s")
    assert [m["name"] for m in contract["end_to_end"]] == list(run.END_TO_END_UNITS)
    for m in contract["end_to_end"]:
        assert m["unit"] == run.END_TO_END_UNITS[m["name"]]
