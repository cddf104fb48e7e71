"""Host speed sampled while the program runs, to time it at a fixed speed.

On a shared host the CPU speed a process gets drifts by up to 2x, in phases
of a few seconds to minutes, because other tenants load the same cores.  A
wall-clock time then measures the neighbours as much as the program.  This
module samples the speed it gets while the program runs and rescales the
program's time to a fixed reference speed.

The probe unit is a fixed set of small NumPy calls of the kinds the
package makes most (``eigh``, ``svd``, ``einsum``, ``kron``, ``norm`` on
8x8 complex matrices), about 0.3 ms.  A pure-Python loop was tried first: in
some slow phases it kept its speed while the program slowed by 30%, so it
tracked the program worse than no scaling at all; the NumPy unit tracked it.
During a timed stretch a ``SIGALRM`` every ``PERIOD_S`` runs it once and
records how long it took.  The program's time between two probes, divided by
the probe's time at the end of that gap, is the work done in probe units,
whatever the speed was; times ``REFERENCE_UNIT_S`` it is the seconds the
same work takes at the reference speed.  Probe time itself is not counted.

On a shared 2-core x86-64 host, ten 35 s runs of each workload on ten
seeds gave median wall-clock passes that spread by 0.08-0.34 of their
median (quartile distance over median), and median scaled passes that
spread by 0.024-0.045.  The probe costs about 0.6% of the run.

Python runs a signal handler between bytecodes, so a probe never interrupts
a C call; it waits for it, and the longer gap is weighed as such.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.05
# Nominal probe time; a scaled time reads as wall time on a host where one
# probe unit takes this long.
REFERENCE_UNIT_S = 300e-6

_rng = np.random.default_rng(0)
_M = _rng.standard_normal((8, 8)) + 1j * _rng.standard_normal((8, 8))
_H = _M + _M.conj().T
_S = _M[:4, :4]


def unit() -> float:
    """Run the probe unit once; return its duration in seconds."""
    start = time.perf_counter()
    for _ in range(3):
        np.linalg.eigh(_H)
        np.linalg.svd(_M)
        np.einsum("ij,jk->ik", _M, _M)
        np.kron(_S, _S)
        np.linalg.norm(_M)
    return time.perf_counter() - start


def units(n: int) -> list[float]:
    return [unit() for _ in range(n)]


class SpeedClock:
    """Times a stretch of code in wall seconds and in reference seconds.

    Use as a context manager around the code; afterwards ``wall_s`` holds
    the program's own wall time (probes excluded) and ``scaled_s`` the same
    work timed at the reference speed.
    """

    def __init__(self):
        self.wall_s = 0.0
        self.scaled_s = 0.0
        self.probes = 0
        self._mark = 0.0
        self._busy = False

    def _credit(self, gap: float, probe_s: float) -> None:
        self.wall_s += gap
        self.scaled_s += gap * REFERENCE_UNIT_S / probe_s

    def _tick(self, *_) -> None:
        if self._busy:
            return
        self._busy = True
        try:
            gap = time.perf_counter() - self._mark
            probe_s = unit()
            self._credit(gap, probe_s)
            self.probes += 1
            self._mark = time.perf_counter()
        finally:
            self._busy = False

    def __enter__(self) -> SpeedClock:
        # Warm the probe so its first sample is not a cold one.
        units(3)
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._mark = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        # The tail since the last probe is weighed by a probe run now.
        gap = time.perf_counter() - self._mark
        self._credit(gap, unit())


def scaled(seconds: float, probe_s: list[float]) -> float:
    """``seconds`` of wall time at the speed the probes saw, in reference seconds."""
    return seconds * REFERENCE_UNIT_S / statistics.median(probe_s)
