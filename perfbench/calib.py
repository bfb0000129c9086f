"""Speed of the vCPU, measured by a fixed calibration loop.

The hosts this benchmark runs on may run a vCPU at one of two speeds, a
factor of 1.5 to 2 apart, switching every few milliseconds, and the share
of slow time drifts over tens of seconds (see README.md). A run therefore
interleaves short stretches of a fixed loop with its operations, on the
same vCPU, and divides each operation's time by the loop's slowdown around
it: times are reported as they would read at the loop's reference speed.

One chunk of the loop runs pure-Python integer and `Fraction` arithmetic
and a vectorised numpy exponential, the kinds of work the program does;
it takes CHUNK_REF_S on the reference machine at full speed. The mix was
chosen by how closely its slowdown follows the program's (README.md).
"""

from __future__ import annotations

import bisect
import os
import time
from fractions import Fraction

import numpy as np

CHUNK_REF_S = 5.0e-4
SHARE = 0.2  # calibration time after an operation, as a share of its time
WINDOW_S = 1.0  # an operation is normalised by the loop within this of it

_X = -np.arange(32768, dtype=float) * 1e-4
_THREE_SEVENTHS = Fraction(3, 7)


def chunk() -> None:
    s = 0
    for i in range(4000):
        s += i * i
    f = Fraction(0)
    for i in range(1, 60):
        f += Fraction(i, i + 1) * _THREE_SEVENTHS
    np.exp(_X).sum()


def calibrate(seconds: float) -> tuple[int, float]:
    """Chunks until `seconds` have passed, at least one; returns their
    number and their time."""
    clock = time.perf_counter
    n, start = 0, clock()
    while True:
        chunk()
        n += 1
        elapsed = clock() - start
        if elapsed >= seconds:
            return n, elapsed


def pin() -> None:
    """Keeps this process, and the children it starts, on one vCPU, so
    that the loop measures the vCPU the program runs on."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def slowdowns(stamps: list[float], cal: list[tuple[int, float]]) -> list[float]:
    """Per operation, the loop's time per chunk over every calibration
    within WINDOW_S of the operation's start, relative to CHUNK_REF_S.
    `stamps` are the start times, in order; `cal[i]` is the calibration
    made after operation i."""
    chunks = [0]
    secs = [0.0]
    for n, s in cal:
        chunks.append(chunks[-1] + n)
        secs.append(secs[-1] + s)
    out = []
    for t in stamps:
        lo = bisect.bisect_left(stamps, t - WINDOW_S)
        hi = bisect.bisect_right(stamps, t + WINDOW_S)
        out.append((secs[hi] - secs[lo]) / (chunks[hi] - chunks[lo]) / CHUNK_REF_S)
    return out
