"""Timing at a reference speed, to see through a shared machine's drift.

On a shared machine the speed of one process drifts with its neighbours'
load, by a factor of up to two within seconds: a fixed ~20-ms loop timed
back to back correlates with itself at 0.87 one sample later, 0.56 after
0.6 s and not at all after 20 s.  So a run's wall time says as much about
the neighbours as about the program.

``reference_work`` is a fixed piece of work of the kind the program spends
its time on, without calling the program: a dense-tableau simplex with
Bland's rule, like the one in ``coopgrid.lp``, on fixed random programs
of 20 and 80 variables, timed on a second, cache-warm pass.  A
:class:`Pacer` interrupts timed work every ``PACE_S`` seconds, runs the
reference work off the clock, and scales each slice of the timed work by
the reference times just before and after it.  References made of
pure-Python loops, or of dictionary and tuple work, followed the
program's speed less well.

A time scaled this way is a time at the reference speed: the speed at
which ``reference_work`` takes ``REFERENCE_S`` seconds, about its median
when run alone on the 2-vCPU Intel Xeon (2.1 GHz) virtual machine on
which the benchmark was defined.  Such times moved with the program and
hardly with the machine's neighbours; they read 10-35% above the plain
wall times measured next to them there, which the summary line reports.
"""

import contextlib
import signal
import time

import numpy as np

REFERENCE_S = 0.008
PACE_S = 0.1
PIVOT_TOL = 1e-10


def _programs():
    """Fixed random programs ``min c@x, A@x <= b, x >= 0`` with ``b > 0``."""
    rng = np.random.default_rng(0)
    shapes = [(30, 20)] * 4 + [(110, 80)]
    return [((rng.random(shape) < 0.3) * rng.random(shape),
             1.0 + rng.random(shape[0]), -rng.random(shape[1])) for shape in shapes]


_PROGRAMS = _programs()
_MAX_PIVOTS = 40


def _simplex(a, b, c) -> float:
    """Bland-rule pivots from the slack basis, at most ``_MAX_PIVOTS``."""
    m, n = a.shape
    t = np.zeros((m + 1, n + m + 1))
    t[:m, :n] = a
    t[:m, n:n + m] = np.eye(m)
    t[:m, -1] = b
    t[m, :n] = c
    basis = np.arange(n, n + m)
    buf = np.empty_like(t)
    for _ in range(_MAX_PIVOTS):
        negative = np.flatnonzero(t[m, :-1] < -PIVOT_TOL)
        if negative.size == 0:
            break
        enter = int(negative[0])
        rows = np.flatnonzero(t[:m, enter] > PIVOT_TOL)
        if rows.size == 0:
            break
        ratios = t[rows, -1] / t[rows, enter]
        tie = rows[ratios <= ratios.min() * (1 + 1e-12)]
        leave = int(tie[np.argmin(basis[tie])])
        t[leave, :] /= t[leave, enter]
        np.multiply(t[:, enter:enter + 1], t[leave:leave + 1, :], out=buf)
        buf[leave, :] = 0.0
        t -= buf
        basis[leave] = enter
    return float(t[m, -1])


def reference_work() -> float:
    """Do the fixed reference work twice; return the seconds the second took.

    The first pass brings the reference work's code and data back into the
    caches after whatever ran before, so the timed pass measures the
    machine's speed, not how much of the cache the program had taken.
    """
    for _ in range(2):
        start = time.perf_counter()
        for a, b, c in _PROGRAMS:
            _simplex(a, b, c)
    return time.perf_counter() - start


def at_reference_speed(wall_s: float, reference_s: float) -> float:
    """``wall_s`` measured while ``reference_work`` took ``reference_s``, at the reference speed."""
    return wall_s / reference_s * REFERENCE_S


class Pacer:
    """Times blocks of work at the reference speed, slice by slice.

    While a block runs under :meth:`timed`, an interval timer interrupts it
    every ``PACE_S`` seconds; the signal handler closes the current slice
    and runs the reference work, off the clock.  The handler stays
    installed and does nothing outside a block, so that an alarm already
    pending when a block ends cannot kill the process.
    """

    def __init__(self):
        self.references = [reference_work()]
        self.samples: list[tuple[float, float]] = []   # (wall, at reference speed)
        self._active = False
        self._wall = self._scaled = self._mark = 0.0
        signal.signal(signal.SIGALRM, self._on_alarm)

    def _close_slice(self) -> None:
        wall = time.perf_counter() - self._mark
        self.references.append(reference_work())
        self._wall += wall
        self._scaled += at_reference_speed(
            wall, (self.references[-2] + self.references[-1]) / 2)
        self._mark = time.perf_counter()

    def _on_alarm(self, signum, frame) -> None:
        if self._active:
            self._close_slice()
            signal.setitimer(signal.ITIMER_REAL, PACE_S)

    @contextlib.contextmanager
    def timed(self):
        """Time the enclosed block; a block that raises leaves no sample."""
        self._wall = self._scaled = 0.0
        self._active = True
        self._mark = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PACE_S)
        try:
            yield
        finally:
            self._active = False
            signal.setitimer(signal.ITIMER_REAL, 0)
        self._close_slice()
        self.samples.append((self._wall, self._scaled))
