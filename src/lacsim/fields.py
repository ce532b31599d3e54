"""Measurement fields: deterministic signals over (sensor, step) plus seeded noise.

A field assigns a finite value x_i(k) to every sensor index i >= 0 and time
step k >= 0.  Noise, when configured, comes from numpy's Philox generator:
step k's noise is the first n draws of `Generator(Philox(key=<the seed's two
64-bit words>, counter=[0, k, 0, 0]))`, and sensor i takes draw i.  So a
row's first values do not depend on the chain length, and the rows of any
block of steps are those of the whole grid.

`evaluate_field` is the point-by-point reference; `evaluate_grid` gives the
same values for a whole (step, sensor) grid at once.  A kind gives `at(i, k)`
and `grid(n, steps)`, its values for sensors 0..n-1 and steps 0..steps-1 in
any shape that broadcasts to (steps, n), and no bound: one is read off a grid.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import OutOfDomainError, ValidationError
from .static_rules import _check_real, generator

_MASK64 = (1 << 64) - 1
_ROOT3 = math.sqrt(3.0)


@dataclass(frozen=True)
class Constant:
    value: float

    def __post_init__(self):
        _check_real("constant value", self.value)

    def at(self, i: int, k: int) -> float:
        return self.value

    def grid(self, n: int, steps: int) -> np.ndarray:
        return np.array(float(self.value))


@dataclass(frozen=True)
class Impulse:
    """Unit spike at one sensor, constant in time."""

    center: int = 0

    def __post_init__(self):
        if isinstance(self.center, bool) or not isinstance(self.center, (int, np.integer)):
            raise ValidationError(f"impulse center must be an integer, got {self.center!r}")

    def at(self, i: int, k: int) -> float:
        return 1.0 if i == self.center else 0.0

    def grid(self, n: int, steps: int) -> np.ndarray:
        return (np.arange(n) == self.center).astype(float)


@dataclass(frozen=True)
class Cosine:
    """A cos(omega_s i + omega_t k + phase): a wave over sensors and steps."""

    amplitude: float
    omega_s: float  # radians per hop
    omega_t: float  # radians per step
    phase: float = 0.0

    def __post_init__(self):
        for name in ("amplitude", "omega_s", "omega_t", "phase"):
            _check_real(f"cosine {name}", getattr(self, name))

    def at(self, i: int, k: int) -> float:
        return self.amplitude * math.cos(self.omega_s * i + self.omega_t * k + self.phase)

    def grid(self, n: int, steps: int) -> np.ndarray:
        # math.cos per point (np.cos need not round as it does), only along an
        # axis that varies: a zero frequency adds +-0.0, which changes no cosine
        sensors = range(n) if self.omega_s else (0,)
        times = range(steps) if self.omega_t else (0,)
        return np.array([[self.at(i, k) for i in sensors] for k in times],
                        dtype=float).reshape(len(times), len(sensors))


def SpatialCosine(amplitude: float, omega: float, phase: float = 0.0) -> Cosine:
    """A cos(omega i + phase), constant in time; omega in radians per hop."""
    return Cosine(amplitude, omega, 0.0, phase)


def TemporalCosine(amplitude: float, omega: float, phase: float = 0.0) -> Cosine:
    """A cos(omega k + phase), uniform in space; omega in radians per step."""
    return Cosine(amplitude, 0.0, omega, phase)


@dataclass(frozen=True, eq=False)
class TableField:
    """Explicit values from sensor 0 on: 1-D (static in time) or 2-D (sensor, step)."""

    values: np.ndarray

    def __post_init__(self):
        # an owned, read-only copy: the table hashes by identity, so a write
        # through the caller's array must not change it under the oracle's memo
        arr = np.array(self.values, dtype=float)
        arr.flags.writeable = False
        if arr.ndim not in (1, 2):
            raise ValidationError("table field expects a 1-D or 2-D array")
        if not np.all(np.isfinite(arr)):
            raise ValidationError("table field contains non-finite values")
        object.__setattr__(self, "values", arr)

    def at(self, i: int, k: int) -> float:
        if not 0 <= i < self.values.shape[0]:
            raise OutOfDomainError(f"sensor {i} outside table rows [0, {self.values.shape[0]})")
        if self.values.ndim == 1:
            return float(self.values[i])
        if not 0 <= k < self.values.shape[1]:
            raise OutOfDomainError(f"step {k} outside table columns [0, {self.values.shape[1]})")
        return float(self.values[i, k])

    def grid(self, n: int, steps: int) -> np.ndarray:
        if n > self.values.shape[0] or (self.values.ndim == 2 and steps > self.values.shape[1]):
            raise OutOfDomainError(f"table does not cover {n} sensors and {steps} steps")
        return self.values[:n] if self.values.ndim == 1 else self.values[:n, :steps].T


@dataclass(frozen=True)
class SumField:
    parts: tuple

    # parts are added left to right in both methods; sum() of floats is
    # compensated from Python 3.12 on, which the array path would not match
    def at(self, i: int, k: int) -> float:
        total = 0.0
        for p in self.parts:
            total += p.at(i, k)
        return total

    def grid(self, n: int, steps: int) -> np.ndarray:
        total = np.array(0.0)
        for p in self.parts:
            total = total + p.grid(n, steps)
        return total


FieldKind = Union[Constant, Impulse, Cosine, TableField, SumField]


@dataclass(frozen=True)
class Noise:
    sigma: float
    distribution: str = "gaussian"  # or "uniform"
    seed: int = 0

    def __post_init__(self):
        _check_real("noise sigma", self.sigma, "finite and >= 0", lambda s: 0.0 <= s < math.inf)
        if self.distribution not in ("gaussian", "uniform"):
            raise ValidationError(f"unknown noise distribution {self.distribution!r}")
        # the seed is the two 64-bit words of the Philox key: any other
        # integer would share its key, and so its noise, with one in range
        if (isinstance(self.seed, bool) or not isinstance(self.seed, numbers.Integral)
                or not 0 <= self.seed < 1 << 128):
            raise ValidationError(
                f"noise seed must be an integer in [0, 2**128), got {self.seed!r}")


@dataclass(frozen=True)
class MeasurementField:
    """A field kind plus optional additive noise."""

    kind: FieldKind
    noise: Noise | None = None


def _philox_key(seed: int) -> np.ndarray:
    # a uint64 array: from a list of Python ints numpy rounds a word >= 2**63
    # through float64, so seeds would collide; and a numpy integer seed is
    # split as a Python int, since its own `& _MASK64` overflows
    seed = int(seed)
    return np.array([seed & _MASK64, seed >> 64], dtype=np.uint64)


def _fill(noise: Noise, gen: np.random.Generator, out: np.ndarray) -> None:
    """The next out.size noise values of `gen`, in order, into `out`."""
    if noise.distribution == "gaussian":
        gen.standard_normal(out=out)
        out *= noise.sigma
    else:
        low, high = -_ROOT3 * noise.sigma, _ROOT3 * noise.sigma
        gen.random(out=out)
        out *= high - low  # Generator.uniform's own arithmetic, low + (high - low) u
        out += low


def _noise_at(noise: Noise, i: int, k: int) -> float:
    """Draw i of step k's generator, built afresh."""
    gen = np.random.Generator(np.random.Philox(
        key=_philox_key(noise.seed), counter=np.array([0, k, 0, 0], dtype=np.uint64)))
    row = np.empty(i + 1)
    _fill(noise, gen, row)
    return float(row[i])


def _noise_grid(noise: Noise, n: int, steps: int) -> np.ndarray:
    """`_noise_at` over the (steps, n) grid, bit for bit, one row per step.
    One Philox serves every row: setting its state to the one a fresh
    generator for step k starts in costs far less than building that
    generator, which seeds a throwaway SeedSequence from OS entropy."""
    key = _philox_key(noise.seed)
    bits = np.random.Philox(key=key)
    gen = np.random.Generator(bits)
    state = {"bit_generator": "Philox", "state": {"counter": [0, 0, 0, 0], "key": key},
             "buffer": [0] * 4, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    out = np.empty((steps, n))
    for k, row in enumerate(out):
        state["state"]["counter"][1] = k
        bits.state = state
        _fill(noise, gen, row)
    return out


def evaluate_field(field: MeasurementField, i: int, k: int) -> float:
    """x_i(k): the deterministic kind plus the seeded noise term, if any."""
    if k < 0:
        raise ValidationError(f"time step must be >= 0, got {k}")
    if i < 0:
        raise ValidationError(f"sensor index must be >= 0, got {i}")
    v = field.kind.at(i, k)
    if field.noise is not None and field.noise.sigma > 0:
        v += _noise_at(field.noise, i, k)
    return v


def evaluate_grid(field: MeasurementField, n: int, steps: int) -> np.ndarray:
    """x_i(k) for sensors 0..n-1 and steps 0..steps-1 as a (steps, n) array,
    bit for bit what `evaluate_field` gives at each point."""
    try:
        x = np.broadcast_to(field.kind.grid(n, steps), (steps, n)).astype(float)
    except OutOfDomainError:
        for i in range(n):  # raise the error a point-by-point scan meets first
            for k in range(steps):
                field.kind.at(i, k)
        raise
    if field.noise is not None and field.noise.sigma > 0:
        x += _noise_grid(field.noise, n, steps)
    return x


def random_spatial_table(n: int, seed: int) -> TableField:
    """Time-invariant values uniform on [-1, 1) on sensors 0..n-1."""
    return TableField(generator(seed).uniform(-1.0, 1.0, n))


def random_space_time_table(n: int, steps: int, seed: int) -> TableField:
    """Values uniform on [-1, 1) on sensors 0..n-1 for steps 0..steps-1."""
    return TableField(generator(seed).uniform(-1.0, 1.0, (n, steps)))
