"""Host-speed calibration of the benchmark's call times.

The benchmark shares a few cores of a host whose speed drifts by 20-30 %
in phases of tens of seconds to minutes -- the same fixed CPU loop runs
that much slower for a while and then recovers.  A run of a minute lands
in whatever phase the host is in, so medians of raw wall times differ
between runs by more than a program change worth catching.

Each timed call of the program is therefore bracketed by a short fixed
probe (Python big-int and NumPy int64 modular multiplies, the program's
two kinds of arithmetic).  A call's host-speed estimate is the mean of
the probes just before and just after it, and the call is reported at the
reference speed::

    wall * REFERENCE_S / probe

A program change moves ``wall`` and leaves the probe alone, so it shows in
full; a slow phase of the host moves both.  The probe is the benchmark's
own code and never calls into the program.
"""

from __future__ import annotations

import time

import numpy as np

from repro.obs import trace as obs_trace

#: The probe's wall time, in seconds, on a quiet two-core x86-64 host (its
#: fast phase); reported times are in that host's milliseconds.
REFERENCE_S = 0.040

_P = (1 << 61) - 1
_Q = 1073479681
_INTS = [(i * 0x9E3779B97F4A7C15) % _P for i in range(1, 257)]
_A = np.arange(1, 8 * 4096 + 1, dtype=np.int64).reshape(8, 4096) % _Q
_B = (_A * 7919 + 13) % _Q


def _work() -> int:
    acc = 1
    for _ in range(400):
        for v in _INTS:
            acc = (acc * v + 12345) % _P
    c = _A
    for _ in range(120):
        c = (c * _B) % _Q
    return acc ^ int(c[0, 0])


def run_probe() -> float:
    """Wall seconds of one pass of the fixed probe."""
    with obs_trace.tracer.span("bench.calibrate"):
        t0 = time.perf_counter()
        _work()
        return time.perf_counter() - t0


class Probe:
    """Brackets consecutive timed calls: one probe before the first call,
    then one after each."""

    def __init__(self) -> None:
        self.last = run_probe()

    def bracket(self) -> float:
        """Probe after a timed call; returns that call's speed estimate."""
        before, self.last = self.last, run_probe()
        return 0.5 * (before + self.last)


def at_reference_speed(wall: float, probe_s: float) -> float:
    return wall * REFERENCE_S / probe_s
