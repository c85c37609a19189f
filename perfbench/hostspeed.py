"""Host speed, measured with fixed reference computations.

The shared hosts this benchmark runs on change speed by up to 1.6x for
minutes at a time, and flip between fast and slow within a second
(other tenants compete for cores and caches).  Wall times alone cannot
tell that from a change in the program.  So, while the work runs, the
benchmark also times chunks of a fixed reference computation, and every
reported time is rescaled to the speed at which a chunk takes its
nominal time:

    reported = wall * REF_NOMINAL_S[kind] / harmonic_mean(chunk times)

The harmonic mean of the chunk times is the reciprocal of the mean chunk
speed; since chunks sample the work evenly in time, it follows the share
of time the host spent slow, where a median would jump between states.

Each kind of work has the reference that slowed down most like it in
trials on a shared 2-vCPU Xeon VM:

- "objects" (the sensitivity pipeline): build frozen dataclasses from
  matrix rows and evaluate scalar closed forms;
- "mixed" (the control sweeps): the same, then drive an RK4 over a
  10-vector from Python;
- "spawn" (CLI commands and set-ups, which run in child processes):
  start a fresh interpreter that imports NumPy.

The first two run in the benchmark's process on a SIGALRM timer, one
chunk every INTERVAL_S throughout the work, so that they sample the whole
of a long call such as a sweep; the time they take is taken off the
work's wall time.  A "spawn" chunk runs before each command or set-up
and after the last, outside the timed commands.  No reference calls
`arbo`, so a change to the program moves the reported times by the same
factor as the wall times.
"""

import math
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, fields

import numpy as np

# Typical chunk time of each reference on the host of the reference
# figures (README), rounded.
REF_NOMINAL_S = {"objects": 0.0070, "mixed": 0.0095, "spawn": 0.200}
TIMED = ("objects", "mixed")
INTERVAL_S = 0.2


@dataclass(frozen=True)
class _Draw:
    a0: float
    a1: float
    a2: float
    a3: float
    a4: float
    a5: float
    a6: float
    a7: float
    a8: float
    a9: float
    a10: float
    a11: float
    a12: float
    a13: float

    def __post_init__(self):
        for f in fields(self):
            if not getattr(self, f.name) > 0:
                raise ValueError(f.name)


_MATRIX = np.random.default_rng(0).uniform(0.1, 2.0, (600, 14))


def _rhs(x, par):
    d = np.empty(10)
    s = x[0] + x[1] + x[2] + x[3]
    for i in range(10):
        d[i] = par[i] * s / (1.0 + x[i]) - par[i + 1] * x[i]
    return d


def _objects() -> float:
    acc = 0.0
    for p in [_Draw(*row) for row in _MATRIX]:
        k = (p.a0 + p.a1) * (p.a2 + p.a3)
        acc += (math.sqrt(k * p.a4 / (p.a5 * p.a6 + p.a7))
                + math.sqrt(abs(p.a8 - p.a9) * p.a10))
    if not math.isfinite(acc):
        raise ArithmeticError("reference computation went non-finite")
    return acc


def _mixed() -> None:
    acc = _objects()
    x = np.linspace(1.0, 2.0, 10)
    par, dt = _MATRIX[0], 0.01
    for _ in range(80):
        k1 = _rhs(x, par)
        k2 = _rhs(x + 0.5 * dt * k1, par)
        k3 = _rhs(x + 0.5 * dt * k2, par)
        k4 = _rhs(x + dt * k3, par)
        x = x + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    if not math.isfinite(acc + float(x.sum())):
        raise ArithmeticError("reference computation went non-finite")


def _spawn() -> None:
    subprocess.run([sys.executable, "-c", "import json, numpy"], check=True,
                   capture_output=True, timeout=60)


REFERENCES = {"objects": _objects, "mixed": _mixed, "spawn": _spawn}


class Speed:
    """Reference chunk times of one kind, collected while work runs.

    Use as a context manager around the work.  The kinds in TIMED run
    chunks on a timer; "spawn" runs one at each `gap()`; None runs none.
    `spent` is the wall time taken by chunks so far.
    """

    def __init__(self, kind: str | None):
        self.kind = kind
        self.chunks = []
        self.spent = 0.0
        self._old_handler = None

    def _chunk(self, *_) -> None:
        t0 = time.perf_counter()
        REFERENCES[self.kind]()
        t = time.perf_counter() - t0
        self.chunks.append(t)
        self.spent += t

    def __enter__(self):
        if self.kind in TIMED:
            self._old_handler = signal.signal(signal.SIGALRM, self._chunk)
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        if self.kind in TIMED:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, self._old_handler)
        return False

    def gap(self) -> None:
        if self.kind == "spawn":
            self._chunk()

    def take(self) -> float:
        """Harmonic mean of the chunk times since the last call (nan for
        kind None)."""
        if self.kind is None:
            return math.nan
        if not self.chunks:  # work shorter than one timer interval
            self._chunk()
        chunks, self.chunks = self.chunks, []
        return statistics.harmonic_mean(chunks)


def rescale(seconds: float, ref: float, kind: str) -> float:
    return seconds * REF_NOMINAL_S[kind] / ref
