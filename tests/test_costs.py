"""Machine-independent cost pins: exact operation counts of a few small
commands, run in a fresh interpreter.

A time varies from run to run by more than most regressions; these counts
do not.  Each figure is [Poly.__mul__ calls, their term pairs (the sum of
|a| * |b| over the calls), exquo calls, poly.cofactors calls,
ScalarK.__mul__ calls, calls into the parser's recursive descent
(scalar._parse_sum, its nested sums included), terms that poly.probe
evaluates for scalar._reduce (the sum of |p| over its calls)].  A
canonical text goes to the canonical reader, so ``readback`` makes no
call into the descent; ``read-descent`` reads the same texts written with
``**``, which only the descent reads.  A change of any figure is a change
of the program's work: record it and its direction with the change that
makes it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent

#: The figures of each run, made in this order in one interpreter, so that
#: each run finds what the runs before it cached.
COST_PINS = {
    "eval-theta-4": [83, 118718, 0, 0, 93, 0, 0],
    "eval-theta-6": [128, 637462, 0, 0, 91, 0, 0],
    "eval-3j-double-4": [81, 73274, 0, 0, 23, 0, 0],
    "eval-3j-double-5": [107, 173448, 0, 0, 59, 0, 0],
    "dims-12": [884, 117410, 0, 0, 342, 0, 0],
    "fierz-table-5": [852, 31104, 43, 0, 701, 0, 858],
    "readback": [724, 8566, 223, 124, 0, 0, 16],
    "check-all": [4976, 13363, 250, 7, 382, 0, 0],
    "read-descent": [0, 0, 0, 0, 4094, 145, 0],
}

SCRIPT = """
import contextlib, io, json, sys
from counting import counting
from qspin import cli, matrixlab, poly, scalar

texts = json.loads(sys.stdin.read())


def read_descent():
    for text in texts:
        scalar.parse_scalar(text.replace("^", "**"))


def readback():
    for text in texts:
        x = scalar.parse_scalar(text)
        for n in (1, 2, 3):
            scalar.q_to_one(scalar.integer_level(x, n))
        scalar.to_text(x)
        scalar.bar(x)


def command(*argv):
    def run():
        assert cli.main(list(argv)) == 0, argv
    return run


runs = {
    "eval-theta-4": command("eval-theta", "--r", "4", "--s", "4", "--t", "4"),
    "eval-theta-6": command("eval-theta", "--r", "6", "--s", "6", "--t", "6"),
    "eval-3j-double-4": command("eval-3j", "--kind", "double", "--r", "4", "--s", "4", "--t", "4"),
    "eval-3j-double-5": command("eval-3j", "--kind", "double", "--r", "5", "--s", "5", "--t", "5"),
    "dims-12": command("dims", "--p-max", "12"),
    "fierz-table-5": command("fierz-table", "--max", "5"),
    "readback": readback,
    "check-all": command("check", "--all"),
    "read-descent": read_descent,
}
figures = {}
for name, run in runs.items():
    with contextlib.ExitStack() as stack:
        muls = stack.enter_context(counting(poly.Poly, "__mul__", lambda a, b: len(a) * len(b)))
        # each module calls exquo through its own binding
        divs = [stack.enter_context(counting(m, "exquo")) for m in (poly, scalar, matrixlab)]
        gcds = stack.enter_context(counting(poly, "cofactors"))
        scalar_muls = stack.enter_context(counting(scalar.ScalarK, "__mul__"))
        descent = stack.enter_context(counting(scalar, "_parse_sum"))
        probes = stack.enter_context(counting(scalar, "probe", len))
        stack.enter_context(contextlib.redirect_stdout(io.StringIO()))
        run()
    figures[name] = [muls.count, muls.weight, sum(d.count for d in divs), gcds.count,
                     scalar_muls.count, descent.count, probes.weight]
print(json.dumps(figures))
"""


def test_cost_pins():
    texts = json.loads((HERE.parent / "perfbench/data/readback_texts.json").read_text())
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = os.pathsep.join([str(HERE.parent / "src"), str(HERE)])
    env["PYTHONHASHSEED"] = "0"
    proc = subprocess.run([sys.executable, "-c", SCRIPT],
                          input=json.dumps([item["text"] for item in texts["texts"]]),
                          capture_output=True, text=True, env=env, timeout=300)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads(proc.stdout) == COST_PINS
