"""Calibration probe: how fast this host runs a fixed kernel right now."""

from __future__ import annotations

import time


class SpeedProbe:
    """Times a fixed calibration kernel, to take the host's momentary speed out of latencies.

    On a shared host, load from outside the process slows this process by up
    to 2x, in phases from under a second to tens of seconds; CPU time grows
    with wall time, so it is not time spent descheduled. Such phases slow
    interpreter loops and numpy passes over memory by different factors, so
    the kernel does the kind of work that dominates the workload (see
    PROBE_KIND in run.py). A command's scaled latency is its raw latency times
    REFERENCE_S over the mean kernel time just before and just after it:
    seconds on a host where the kernel takes REFERENCE_S.
    """

    REFERENCE_S = {"interpreter": 0.003, "numpy": 0.004}  # about their times on a quiet 2-core Xeon

    def __init__(self, kind: str):
        self.kind = kind
        if kind == "numpy":
            import numpy

            self._amps = numpy.linspace(0.0, 1.0, 1 << 16) * (1 + 1j)

    def seconds(self) -> float:
        start = time.perf_counter()
        if self.kind == "numpy":
            amps = self._amps
            for _ in range(16):
                amps = (amps * 0.5 + self._amps).conj()
        else:
            table: dict[int, int] = {}
            for i in range(30000):
                table[i & 255] = table.get(i & 255, 0) + i
        return time.perf_counter() - start

    def timed(self, fn):
        """(fn's result, raw seconds, scaled seconds)."""
        before = self.seconds()
        start = time.perf_counter()
        result = fn()
        raw = time.perf_counter() - start
        return result, raw, raw * 2 * self.REFERENCE_S[self.kind] / (before + self.seconds())
