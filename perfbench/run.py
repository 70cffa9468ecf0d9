#!/usr/bin/env python3
"""The qspin benchmark: one workload, timed end to end or traced by layer.

    python3 perfbench/run.py --workload check-all --seed 1 --seconds 12 --trace 0

Run from the root of a qspin checkout; the program is imported from its
``src``.  Each pass runs in a fresh interpreter (worker.py), so a cache a
later change adds cannot make repetitions free: users of the CLI pay the
cold cost on every call.  After timing, the outputs of every pass are
checked by checks.py.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the
exit code is 0 only when every check holds.

``--trace 0`` reports the end-to-end metrics: ``wall_s``, ``cpu_s`` and
``setup_s``, each the median over the run's passes (or spawns) of the raw
time scaled to nominal speed by the reference loop sampled in the same
process (see refloop.py), and ``peak_rss_mb``.  ``--trace 1`` runs one untraced and one
traced pass and reports the per-layer metrics of tracing.py plus
``trace.overhead_s``.  Results go to ``.perfbench/results`` and spans to
``.perfbench/traces`` in the checkout.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path[:0] = [str(HERE), str(SRC)]  # SRC only for checks.numeric_towers

import checks  # noqa: E402
import inputs  # noqa: E402

WORKLOADS = ("check-all", "fierz-table", "readback", "chromatic")
#: Interpreters started only to time set-up, per run.
SETUP_SPAWNS = 7
#: A run must end within this many seconds.
RUN_LIMIT_S = 170.0

ENV_PINS = {
    "PYTHONHASHSEED": "0",
    "QSPIN_THREADS": "1",
}

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
#: Units of the per-layer metrics, by the last part of their name; "s" otherwise.
LAYER_UNITS = {"calls": "count", "nnz_out": "count", "states": "count",
               "states_per_s": "1/s"}
#: Raw per-pass figures kept in the result file.
RAW_FIELDS = ("setup_s", "setup_scale", "wall_s", "cpu_s", "scale", "samples",
              "peak_rss_mb")


class BenchError(Exception):
    pass


def worker_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env.update(ENV_PINS)
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(args: list[str], deadline: float) -> dict:
    """Run worker.py to its end and return its JSON result."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--spawned"]
    with subprocess.Popen(
        cmd + [repr(time.perf_counter())] + args,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=worker_env(),
        cwd=ROOT,
        text=True,
    ) as proc:
        try:
            out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise BenchError(f"worker {args} ran past the run's time limit")
    if proc.returncode != 0:
        raise BenchError(f"worker {args} exited {proc.returncode}:\n{err[-2000:]}")
    return json.loads(out.strip().splitlines()[-1])


def operations(workload: str, inp: dict) -> int:
    if workload == "check-all":
        return len(checks.CHECK_ROWS)
    if workload == "fierz-table":
        return (checks.FIERZ_MAX + 1) ** 2
    if workload == "readback":
        return len(inp["texts"])
    return len(inp["networks"])


def output_failures(workload: str, inp: dict, passes: list[dict]) -> list[str]:
    outputs = [p["outputs"] for p in passes]
    if workload == "check-all":
        fails = checks.check_all_failures([o[0] for o in outputs])
        return fails + checks.tower_failures(checks.numeric_towers())
    if workload == "fierz-table":
        return checks.fierz_table_failures([o[0] for o in outputs])
    fails = []
    for out in outputs:
        if workload == "readback":
            fails += checks.readback_failures(inp["texts"], out)
        else:
            fails += checks.chromatic_failures(inp["networks"], out)
    return fails


def failed_operations(workload: str, inp: dict, passes: list[dict]) -> int:
    """Operations that ended in an error: a FAIL row, a table or network
    whose command exited nonzero, a text whose readback raised."""
    n = 0
    for p in passes:
        for out in p["outputs"]:
            if workload == "readback":
                n += "error" in out
            elif workload == "check-all" and out["code"] in (0, 1):
                n += out["stdout"].count("FAIL  ")
            elif out["code"] != 0:
                n += operations(workload, inp) if workload != "chromatic" else 1
    return n


def environment() -> dict:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        sha = None
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "sympy": importlib.metadata.version("sympy"),
        "gmpy2": importlib.util.find_spec("gmpy2") is not None,
        "cpus": os.cpu_count(),
        "env": ENV_PINS,
    }


def timed_run(workload, inputs_path, seconds, deadline):
    spawn(["--mode", "setup"], deadline)  # warm the file cache and bytecode
    setups = [spawn(["--mode", "setup"], deadline) for _ in range(SETUP_SPAWNS)]
    passes = []
    t_end = time.monotonic() + seconds
    while not passes or time.monotonic() < t_end:
        passes.append(spawn(["--mode", "pass", "--workload", workload,
                             "--inputs", str(inputs_path)], deadline))
    metrics = {
        "wall_s": statistics.median(p["wall_s"] * p["scale"] for p in passes),
        "cpu_s": statistics.median(p["cpu_s"] * p["scale"] for p in passes),
        "setup_s": statistics.median(
            w["setup_s"] * w["setup_scale"] for w in setups + passes
        ),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    return passes, {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}


def traced_run(workload, seed, inputs_path, deadline):
    plain = spawn(["--mode", "pass", "--workload", workload,
                   "--inputs", str(inputs_path)], deadline)
    spans = ROOT / ".perfbench" / "traces" / f"{workload}-seed{seed}.json"
    spans.parent.mkdir(parents=True, exist_ok=True)
    traced = spawn(["--mode", "trace", "--workload", workload,
                    "--inputs", str(inputs_path), "--trace-out", str(spans)], deadline)
    scale = traced["scale"]  # times in the same nominal seconds as wall_s
    metrics = {}
    for name, value in traced["layers"].items():
        unit = LAYER_UNITS.get(name.rsplit(".", 1)[-1], "s")
        if unit == "s":
            value *= scale
        elif unit == "1/s":
            value /= scale
        metrics[name] = {"value": value, "unit": unit}
    overhead = traced["wall_s"] * scale - plain["wall_s"] * plain["scale"]
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    return [plain, traced], metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "qspin" / "__init__.py").is_file():
        print(f"error: no qspin sources at {SRC}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_LIMIT_S
    work = ROOT / ".perfbench" / f"tmp-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        inp = inputs.make(args.workload, args.seed, work)
        inputs_path = work / "inputs.json"
        inputs_path.write_text(json.dumps(inp))
        if args.trace:
            passes, metrics = traced_run(args.workload, args.seed, inputs_path, deadline)
        else:
            passes, metrics = timed_run(args.workload, inputs_path, args.seconds, deadline)
        fails = output_failures(args.workload, inp, passes)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for msg in fails:
        print(f"check failed: {msg}", file=sys.stderr)
    result = {
        "correct": not fails,
        "attempted": operations(args.workload, inp) * len(passes),
        "failed": failed_operations(args.workload, inp, passes),
        "metrics": metrics,
    }
    record = dict(result, workload=args.workload, seed=args.seed,
                  trace=args.trace, environment=environment(),
                  passes=[{k: p[k] for k in RAW_FIELDS} for p in passes])
    out = ROOT / ".perfbench" / "results" / (
        f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    )
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1))
    print(json.dumps({"environment": record["environment"], "passes": len(passes)}))
    print(json.dumps(result))
    return 0 if not fails else 1


if __name__ == "__main__":
    sys.exit(main())
