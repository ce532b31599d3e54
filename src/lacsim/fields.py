"""Measurement fields: deterministic signals over (sensor, step) plus seeded noise.

A field assigns a bounded value x_i(k) to every sensor index i and time step
k >= 0.  Noise, when configured, is drawn from a counter-based stream keyed by
(seed, i, k), so evaluation order never matters and repeated evaluation of the
same point is bit-identical.

`evaluate_field` is the point-by-point reference; `evaluate_grid` gives the
same values for a whole (step, sensor) grid at once.  Each kind's `grid(n,
steps)` returns its values for sensors 0..n-1 and steps 0..steps-1 in any
shape that broadcasts to (steps, n).
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import OutOfDomainError, ValidationError
from .streams import generator

_MASK64 = (1 << 64) - 1
_ROOT3 = math.sqrt(3.0)


def _require_finite(name, *values):
    for v in values:
        if not math.isfinite(v):
            raise ValidationError(f"{name}: non-finite parameter {v!r}")


@dataclass(frozen=True)
class Constant:
    value: float

    def __post_init__(self):
        _require_finite("constant", self.value)

    def at(self, i: int, k: int) -> float:
        return self.value

    def grid(self, n: int, steps: int) -> np.ndarray:
        return np.array(float(self.value))

    def sup(self) -> float:
        return abs(self.value)


@dataclass(frozen=True)
class Impulse:
    """Unit spike at one sensor, constant in time."""

    center: int = 0

    def at(self, i: int, k: int) -> float:
        return 1.0 if i == self.center else 0.0

    def grid(self, n: int, steps: int) -> np.ndarray:
        return (np.arange(n) == self.center).astype(float)

    def sup(self) -> float:
        return 1.0


@dataclass(frozen=True)
class Cosine:
    """A cos(omega_s i + omega_t k + phase): a wave over sensors and steps."""

    amplitude: float
    omega_s: float  # radians per hop
    omega_t: float  # radians per step
    phase: float = 0.0

    def __post_init__(self):
        _require_finite("cosine", self.amplitude, self.omega_s, self.omega_t, self.phase)

    def at(self, i: int, k: int) -> float:
        return self.amplitude * math.cos(self.omega_s * i + self.omega_t * k + self.phase)

    def grid(self, n: int, steps: int) -> np.ndarray:
        # math.cos per point (np.cos need not round as it does), only along an
        # axis that varies: a zero frequency adds +-0.0, which changes no cosine
        sensors = range(n) if self.omega_s else (0,)
        times = range(steps) if self.omega_t else (0,)
        return np.array([[self.at(i, k) for i in sensors] for k in times],
                        dtype=float).reshape(len(times), len(sensors))

    def sup(self) -> float:
        return abs(self.amplitude)


def SpatialCosine(amplitude: float, omega: float, phase: float = 0.0) -> Cosine:
    """A cos(omega i + phase), constant in time; omega in radians per hop."""
    return Cosine(amplitude, omega, 0.0, phase)


def TemporalCosine(amplitude: float, omega: float, phase: float = 0.0) -> Cosine:
    """A cos(omega k + phase), uniform in space; omega in radians per step."""
    return Cosine(amplitude, 0.0, omega, phase)


@dataclass(frozen=True, eq=False)
class TableField:
    """Explicit values: 1-D array (static in time) or 2-D (sensor, step)."""

    values: np.ndarray
    first_sensor: int = 0

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
        row = i - self.first_sensor
        if not 0 <= row < self.values.shape[0]:
            raise OutOfDomainError(f"sensor {i} outside table rows "
                                   f"[{self.first_sensor}, {self.first_sensor + self.values.shape[0]})")
        if self.values.ndim == 1:
            return float(self.values[row])
        if not 0 <= k < self.values.shape[1]:
            raise OutOfDomainError(f"step {k} outside table columns [0, {self.values.shape[1]})")
        return float(self.values[row, k])

    def grid(self, n: int, steps: int) -> np.ndarray:
        lo, values = -self.first_sensor, self.values
        if lo < 0 or lo + n > values.shape[0] or (values.ndim == 2 and steps > values.shape[1]):
            raise OutOfDomainError(f"table does not cover {n} sensors and {steps} steps")
        return values[lo:lo + n] if values.ndim == 1 else values[lo:lo + n, :steps].T

    def sup(self) -> float:
        return float(np.max(np.abs(self.values))) if self.values.size else 0.0


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

    def sup(self) -> float:
        return sum(p.sup() for p in self.parts)


FieldKind = Union[Constant, Impulse, Cosine, TableField, SumField]


@dataclass(frozen=True)
class Noise:
    sigma: float
    distribution: str = "gaussian"  # or "uniform"
    seed: int = 0

    def __post_init__(self):
        _require_finite("noise", self.sigma)
        if self.sigma < 0:
            raise ValidationError("noise sigma must be >= 0")
        if self.distribution not in ("gaussian", "uniform"):
            raise ValidationError(f"unknown noise distribution {self.distribution!r}")
        # the seed is the two 64-bit words of the Philox key: any other
        # integer would share its key, and so its noise, with one in range
        if not isinstance(self.seed, numbers.Integral) or not 0 <= self.seed < 1 << 128:
            raise ValidationError(
                f"noise seed must be an integer in [0, 2**128), got {self.seed!r}")


@dataclass(frozen=True)
class MeasurementField:
    """A field kind plus optional additive noise and a declared bound M."""

    kind: FieldKind
    noise: Noise | None = None
    bound: float | None = None

    def bound_m(self) -> float:
        """Bound used for truncation tails.  Gaussian noise is unbounded, so
        the derived value allows 6 sigma; declare `bound` to override."""
        if self.bound is not None:
            return self.bound
        m = self.kind.sup()
        if self.noise is not None and self.noise.sigma > 0:
            m += (6.0 if self.noise.distribution == "gaussian" else _ROOT3) * self.noise.sigma
        return m


def _noise_at(noise: Noise, i: int, k: int) -> float:
    # Philox counter (k, i) under a fixed key: an order-independent stream
    # that is reproducible per (seed, i, k).  The words go in as uint64
    # arrays: from a list of Python ints numpy rounds a word >= 2**63
    # through float64, so seeds would collide and `_noise_grid` would differ
    gen = np.random.Generator(np.random.Philox(
        counter=np.array([k & _MASK64, i & _MASK64, 0, 0], dtype=np.uint64),
        key=np.array([noise.seed & _MASK64, (noise.seed >> 64) & _MASK64], dtype=np.uint64)))
    if noise.distribution == "gaussian":
        return noise.sigma * float(gen.standard_normal())
    return float(gen.uniform(-_ROOT3 * noise.sigma, _ROOT3 * noise.sigma))


def _noise_grid(noise: Noise, n: int, steps: int) -> np.ndarray:
    """`_noise_at` over the (steps, n) grid from one generator: before each
    draw its Philox counter is reset to the state a point's own generator
    starts in."""
    key = np.array([noise.seed & _MASK64, (noise.seed >> 64) & _MASK64], dtype=np.uint64)
    bits = np.random.Philox(key=key)
    gen = np.random.Generator(bits)
    state = {"bit_generator": "Philox", "state": {"counter": None, "key": key},
             "buffer": [0] * 4, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    gaussian = noise.distribution == "gaussian"
    half = _ROOT3 * noise.sigma
    out = np.empty((steps, n))
    for i in range(n):
        for k in range(steps):
            state["state"]["counter"] = [k, i, 0, 0]
            bits.state = state
            out[k, i] = gen.standard_normal() if gaussian else gen.uniform(-half, half)
    return noise.sigma * out if gaussian else out


def evaluate_field(field: MeasurementField, i: int, k: int) -> float:
    """x_i(k): the deterministic kind plus the seeded noise term, if any."""
    if k < 0:
        raise ValidationError(f"time step must be >= 0, got {k}")
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


def random_spatial_table(n: int, seed: int, low: float = -1.0, high: float = 1.0) -> TableField:
    """Time-invariant uniform random values on sensors 0..n-1."""
    rng = generator(seed)
    return TableField(rng.uniform(low, high, n))


def random_space_time_table(n: int, steps: int, seed: int,
                            low: float = -1.0, high: float = 1.0) -> TableField:
    """Random values on sensors 0..n-1 for steps 0..steps-1."""
    rng = generator(seed)
    return TableField(rng.uniform(low, high, (n, steps)))
