"""Reference kernel: fixed pure-Python work timed next to every job.

On a shared host the speed a process gets drifts by 30-60 % over minutes,
and every job of a pass slows down with it.  The benchmark runs this kernel
before each job or set-up and after the last one; a job's time is divided
by the mean of the two kernel times around it and multiplied by
``NOMINAL_S``.  What is left is the job's time at a fixed CPU speed: it
moves when onecomp does more or less work, and hardly when a neighbour
takes the core.

The kernel does not import onecomp, so a change to the program never
changes it.  It mixes the operations onecomp spends its time in (complex
and float arithmetic, math calls, Fractions, small NumPy arrays) and
allocates no containers.  The collector is paused while it runs, so it
never pays for garbage a job left behind.
"""

from __future__ import annotations

import cmath
import gc
import math
import time
from fractions import Fraction

import numpy as np

# Seconds the kernel takes, uncontended, on the 2-core x86-64 VM the
# benchmark was defined on.  Only a scale: it makes the normalized times
# read as seconds on that machine.
NOMINAL_S = 0.018
ITERATIONS = 16000

_GRID = np.linspace(0.0, 1.0, 64)


def work() -> float:
    acc, z, q = 0.0, 0.5 + 0.25j, Fraction(0)
    for i in range(ITERATIONS):
        z = z * z * 0.5 + 0.1j
        acc += abs(cmath.exp(z)) + math.sin(i * 0.001)
        if i % 16 == 0:
            q += Fraction(i % 7 + 1, 3 ** (i % 11))
            acc += float(np.sum(np.abs(np.exp(_GRID * z.real))))
    return acc + float(q)


def normalize(times: list, kernel_s: list) -> list:
    """Each of ``times`` at the nominal speed.  ``kernel_s`` holds the
    kernel times taken before each of ``times`` and after the last one."""
    return [t * NOMINAL_S / (0.5 * (kernel_s[i] + kernel_s[i + 1]))
            for i, t in enumerate(times)]


def timed() -> float:
    """Seconds one run of ``work`` takes now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        work()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()
