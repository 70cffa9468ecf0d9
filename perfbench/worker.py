"""One repetition of a workload in a fresh interpreter.

Started by ``run.py`` with the checkout's ``src`` on ``PYTHONPATH``.  It
prints one JSON line with:

* ``setup_s``: from the parent's spawn until ``qspin`` is imported and
  ready (both ends read the system-wide monotonic clock);
* for a pass: its wall time, CPU time, peak RSS and the outputs to check.

Times exclude the reference sampler's handlers, and ``*_scale`` converts
them to the nominal speed (see refloop.py).  Modes: ``setup`` (import and
exit), ``pass``, and ``trace`` (a pass with every public qspin function
wrapped; see tracing.py).
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time

import refloop


def _rusage():
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime
    return cpu, own.ru_maxrss + kids.ru_maxrss


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--mode", choices=["setup", "pass", "trace"], required=True)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--workload")
    parser.add_argument("--inputs")
    parser.add_argument("--trace-out")
    args = parser.parse_args()

    with refloop.Sampler() as sampler:
        import passes
    ready = time.perf_counter()
    result = {
        "setup_s": ready - args.spawned - sampler.handler_s,
        "setup_scale": sampler.scale(),
    }
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    with open(args.inputs) as fh:
        inputs = json.load(fh)
    run = passes.PASSES[args.workload]
    sampler = refloop.Sampler()
    tracer = None
    if args.mode == "trace":
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
        sampler.on_sample = tracer.exclude
    cpu0, _ = _rusage()
    t0 = time.perf_counter()
    if tracer is not None:
        tracer.t0 = t0
    with sampler:
        outputs = run(inputs)
    t1 = time.perf_counter()
    cpu1, maxrss_kb = _rusage()

    result.update(
        wall_s=t1 - t0 - sampler.handler_s,
        cpu_s=cpu1 - cpu0 - sampler.handler_cpu_s,
        scale=sampler.scale(),
        samples=sampler.samples,
        peak_rss_mb=maxrss_kb / 1024,
        outputs=passes.serialize(args.workload, outputs),
    )
    if tracer is not None:
        result["layers"] = tracer.metrics()
        tracer.write_spans(args.trace_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
