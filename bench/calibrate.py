"""Machine-speed calibration.

On a shared VM the speed of the same code drifts with other tenants' load,
in phases from seconds to minutes and by up to 2x, and process CPU time
drifts with it.  A fixed pure-Python kernel measures the machine's speed
at a moment.  While a pass runs, a SIGALRM handler times the kernel every
INTERVAL_S, also in the middle of a long command.  Each stretch of
program time between two samples is scaled by NOMINAL_S over the mean of
the two kernel times, which gives the seconds the program would take on
a machine where the kernel takes NOMINAL_S; the kernel's own time is left
out.  The kernel exercises what the program spends its time on: Python
calls, dict and list building, and float math.
"""

from __future__ import annotations

import bisect
import math
import signal
import time

# about the kernel's median time on a shared 2-vCPU Intel Xeon VM
NOMINAL_S = 0.0100
INTERVAL_S = 0.1

_REPS = 600
_DATA = {
    "a": {f"k{i}": float(i + 1) for i in range(12)},
    "b": {f"k{i}": [i, i + 0.5, str(i)] for i in range(12)},
    "c": {"x": [1.0, 2.0], "y": {"z": [3.0]}},
}


def _copy(x):
    if isinstance(x, dict):
        return {k: _copy(v) for k, v in x.items()}
    if isinstance(x, list):
        return [_copy(v) for v in x]
    return x


def kernel_seconds() -> float:
    """Time one run of the reference kernel."""
    t = time.perf_counter()
    acc = 0.0
    for _ in range(_REPS):
        d = _copy(_DATA)
        for v in d["a"].values():
            acc += math.exp(-v) * math.log1p(v)
    return time.perf_counter() - t


def scale(before: float, after: float) -> float:
    """Factor for program time between kernel samples of these durations."""
    return 2 * NOMINAL_S / (before + after)


class Calibrator:
    """Context manager that samples the kernel on entry, every INTERVAL_S
    from a SIGALRM handler, and on exit."""

    def __init__(self):
        self._starts: list[float] = []
        self._kernels: list[float] = []
        self._busy = False

    def _sample(self, signum=None, frame=None) -> None:
        if self._busy:          # a tick that lands inside a sample
            return
        self._busy = True
        try:
            self._starts.append(time.perf_counter())
            self._kernels.append(kernel_seconds())
        finally:
            self._busy = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def measure(self, t0: float, t1: float) -> tuple[float, float]:
        """(program seconds, scaled seconds) in the window [t0, t1], which
        must lie between the entry and exit samples."""
        lo = bisect.bisect_left(self._starts, t0)
        hi = bisect.bisect_left(self._starts, t1)
        raw = scaled = 0.0
        start = t0
        for i in range(lo - 1, hi):
            end = min(self._starts[i + 1], t1)
            raw += end - start
            scaled += (end - start) * scale(self._kernels[i],
                                            self._kernels[i + 1])
            start = self._starts[i + 1] + self._kernels[i + 1]
        return raw, scaled
