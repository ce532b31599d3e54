"""Machine-speed reference for normalising timings.

On a shared host the same process runs up to twice as slow in some minutes
as in others, and every kind of work slows alike.  The benchmark therefore
times this fixed kernel, which is the benchmark's own code and never calls
lacsim, between operations, and scales each operation's time by NOMINAL_S
over the mean of the kernel times just before and just after it.  A
reported throughput is then the one the machine would show when it runs the
kernel in NOMINAL_S, and a change to lacsim moves it exactly as it moves
the raw time.
"""
from __future__ import annotations

import gc
import time

import numpy as np

NOMINAL_S = 0.0035  # kernel time on an unloaded reference machine (see README.md)


def _step(own, left, right, x, rho):
    return own + rho * (left - right) + x if own < 1e300 else own


def kernel() -> int:
    """Interpreter work like the engine's (calls, tuples, float arithmetic,
    list appends, float formatting) and NumPy work like the Monte Carlo
    functions' (seeded generator construction, small-array transforms)."""
    values = []
    state = (0.5, 0.25, 0.125)
    for i in range(5000):
        state = (_step(state[0], state[1], state[2], i * 1e-3, 0.5), state[0], state[1])
        values.append(state[0])
    text = ",".join(format(v, ".17g") for v in values[:1500])
    for r in range(40):
        gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence(7, spawn_key=(r,))))
        draw = gen.normal(0.0, 1.0, 128)
        values.append(float(np.fft.irfft(np.fft.rfft(draw), n=128).sum()))
    return len(text) + len(values)


def kernel_seconds() -> float:
    """Kernel time with the cyclic garbage collector paused, so that garbage
    left by the previous operation is not charged to the machine's speed."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        kernel()
        return time.perf_counter() - t0
    finally:
        gc.enable()


def normalised(seconds: float, kernel_s: float) -> float:
    """An operation's time as it would read on the nominal machine, given the
    mean of the kernel times measured just before and just after it."""
    return seconds * NOMINAL_S / kernel_s
