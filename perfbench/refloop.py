"""A fixed pure-Python reference loop, sampled while the program runs.

The host's speed drifts by up to 2x, within a second as well as over
minutes, and CPU time drifts with wall time, so raw times taken minutes
apart do not repeat.  A ``Sampler`` therefore interrupts the measured code
every ``INTERVAL_S`` seconds (SIGALRM) and times one reference ``unit()``
in the handler.  The benchmark subtracts the handlers' time from the
measured time and scales the rest to the nominal speed, at which a unit
takes ``NOMINAL_UNIT_S``:

    reported = (raw - handler time) * NOMINAL_UNIT_S / mean unit time

The unit does the same kind of work as the program's inner loops with
sympy's pure-Python ground types (no gmpy2): a sparse polynomial product
over a dict keyed by exponent tuples, small-integer arithmetic and
short-lived allocations.  It imports nothing from the program, so no
change to the program can move it.
"""

from __future__ import annotations

import signal
import time

#: Seconds of wall time between two samples.
INTERVAL_S = 0.02

#: Seconds one ``unit()`` takes at nominal speed: the median on the
#: reference machine (see README.md).  It fixes the unit of every
#: normalized time and never needs to change.
NOMINAL_UNIT_S = 0.0018

_A = {(i, j): (i * 7 + j * 3) % 11 - 5 for i in range(9) for j in range(9)}
_B = {(i, j): (i * 5 + j * 2) % 13 - 6 for i in range(9) for j in range(9)}


def unit() -> int:
    """One reference unit: a product of two 81-term sparse polynomials."""
    out: dict = {}
    get = out.get
    for (i, j), x in _A.items():
        for (k, l), y in _B.items():
            key = (i + k, j + l)
            out[key] = get(key, 0) + x * y
    return len(out)


class Sampler:
    """Times one ``unit()`` every ``INTERVAL_S`` of wall time while active.

    Each slice of measured work between two samples is scaled by the unit
    time sampled right after it, so a change of speed within a pass is
    followed.  ``handler_s`` and ``handler_cpu_s`` are the wall and CPU time
    spent in the handler, to be subtracted from the measured times;
    ``on_sample``, if set, is called with each handler's duration.
    """

    def __init__(self):
        self.samples = 0
        self.handler_s = 0.0
        self.handler_cpu_s = 0.0
        self.work_s = 0.0
        self.nominal_work_s = 0.0
        self.on_sample = None
        self._last = 0.0
        self._last_unit_s = 0.0
        self._previous = None

    def _handler(self, signum, frame) -> None:
        t0 = time.perf_counter()
        c0 = time.process_time()
        unit()
        unit_s = time.perf_counter() - t0
        self.samples += 1
        self._last_unit_s = unit_s
        self._add_slice(t0)
        dt = time.perf_counter() - t0
        self.handler_s += dt
        self.handler_cpu_s += time.process_time() - c0
        self._last = t0 + dt
        if self.on_sample is not None:
            self.on_sample(dt)

    def _add_slice(self, end: float) -> None:
        """Count the work since the last handler, at the last unit's speed."""
        self.work_s += end - self._last
        self.nominal_work_s += (end - self._last) * NOMINAL_UNIT_S / self._last_unit_s

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        self._last = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        if self.samples:
            self._add_slice(time.perf_counter())
        else:  # a window shorter than one interval: sample once at its end
            self._handler(signal.SIGALRM, None)

    def scale(self) -> float:
        """Nominal over current speed: multiply a raw time by this."""
        return self.nominal_work_s / self.work_s
