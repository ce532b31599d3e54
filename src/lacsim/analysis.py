"""Frequency responses, noise-variance formulas, and trace-based estimators.

Closed forms cover the spatial gain of the exponential and window rules, the
temporal gain of their time-varying counterparts, half-gain bandwidths with
the usual rules of thumb, and steady-state noise variances.  Estimators
measure the same quantities from simulation traces (least-squares sinusoid
fits) and from seeded Monte Carlo noise runs.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .chain import ConsensusTrace, Ring
from .dynamic_rules import DynamicExponential, DynamicWindow
from .errors import ValidationError
from .fields import Cosine, MeasurementField
from .static_rules import (AsymmetricWeighting, ExponentialWeighting, FiniteWindow,
                           PerSensorWindow)
from .streams import check_seed, replicate_generators

SETTLE_TAIL = 1e-9
BISECTION_TOL = 1e-10


def h_exp(rho: float, omega: float) -> float:
    """Spatial gain of the exponential rule: (1-rho)^2 / (1+rho^2-2 rho cos w).

    Real and positive for every frequency; the phase shift is identically
    zero.  Equals 1 at w = 0 and (1-rho)^2/(1+rho)^2 at w = pi.
    """
    # same denominator, written without the rho -> 1 cancellation
    s = math.sin(0.5 * omega)
    return (1.0 - rho) ** 2 / ((1.0 - rho) ** 2 + 4.0 * rho * s * s)


def h_exp_from_poles(rho: float, omega: float) -> complex:
    """The same transfer function evaluated from its pole form
    (1-rho)^2 / ((1 - rho z^-1)(1 - rho z)) on the unit circle; kept as an
    independent cross-check of h_exp."""
    z = cmath.exp(1j * omega)
    return (1.0 - rho) ** 2 / ((1.0 - rho / z) * (1.0 - rho * z))


def h_window(half_width: int, omega: float) -> float:
    """Signed spatial gain of the uniform window (a Dirichlet kernel):
    sin((L+1/2) w) / ((2L+1) sin(w/2)), with the w -> 0 limit of 1."""
    s = math.sin(0.5 * omega)
    if abs(s) < 1e-9:
        # near the removable singularity the plain cosine sum is exact
        return (1.0 + 2.0 * sum(math.cos(m * omega) for m in range(1, half_width + 1))) \
            / (2.0 * half_width + 1.0)
    return math.sin((half_width + 0.5) * omega) / ((2.0 * half_width + 1.0) * s)


def k_temporal_exp(rho: float, omega: float) -> tuple[float, float]:
    """(gain, phase) of the time-varying exponential rule:
    lam (1 - rho^2 e^{-2jw}) / (1 - rho e^{-jw})^2."""
    lam = (1.0 - rho) / (1.0 + rho)
    e = cmath.exp(-1j * omega)
    val = lam * (1.0 - rho * rho * e * e) / (1.0 - rho * e) ** 2
    return abs(val), cmath.phase(val)


def k_temporal_window(half_width: int, omega: float) -> tuple[float, float]:
    """(gain, phase) of the time-varying window rule:
    (1/(2L+1)) (1 + 2 sum_m e^{-jmw})."""
    e = cmath.exp(-1j * omega)
    total = 1.0 + 0.0j
    term = 1.0 + 0.0j
    for _ in range(half_width):
        term *= e
        total += 2.0 * term
    val = total / (2.0 * half_width + 1.0)
    return abs(val), cmath.phase(val)


@dataclass(frozen=True)
class BandwidthResult:
    omega_half: float | None  # None when the gain never drops to 1/2
    rule_of_thumb: float
    saturated: bool


_SCHEMES = {
    "exp_spatial": (lambda p, w: h_exp(p, w), lambda p: 1.0 - p),
    "window_spatial": (lambda p, w: abs(h_window(p, w)), lambda p: 1.7 / (p + 0.5)),
    "exp_temporal": (lambda p, w: k_temporal_exp(p, w)[0], lambda p: 1.0 - p),
    "window_temporal": (lambda p, w: k_temporal_window(p, w)[0], lambda p: 4.0 / (p + 0.5)),
}


def bandwidth(scheme: str, param) -> BandwidthResult:
    """Half-gain frequency: the first root of gain = 1/2 on (0, pi], found by
    bisection to 1e-10, together with the rule-of-thumb value.  `param` is rho
    for the exponential schemes and the half-width for the window schemes.
    Saturated means the gain stays above 1/2 everywhere."""
    try:
        gain, rule = _SCHEMES[scheme]
    except KeyError:
        raise ValidationError(f"unknown bandwidth scheme {scheme!r}") from None
    grid = np.linspace(1e-9, math.pi, 4097)
    lo = None
    for a, b in zip(grid, grid[1:]):
        if gain(param, b) < 0.5:
            lo, hi = float(a), float(b)
            break
    if lo is None:
        return BandwidthResult(None, rule(param), True)
    f = lambda w: gain(param, w) - 0.5
    fa = f(lo)
    while hi - lo > BISECTION_TOL:
        mid = 0.5 * (lo + hi)
        if fa * f(mid) <= 0:
            hi = mid
        else:
            lo = mid
            fa = f(lo)
    return BandwidthResult(0.5 * (lo + hi), rule(param), False)


def noise_var_exp(rho: float, sigma2: float = 1.0) -> float:
    """Steady-state output variance under iid measurement noise:
    (1-rho)(1+rho^2)/(1+rho)^3 * sigma^2, inside ((1-rho)/4, 1-rho) * sigma^2."""
    return (1.0 - rho) * (1.0 + rho * rho) / (1.0 + rho) ** 3 * sigma2


def noise_var_window(half_width: int, sigma2: float = 1.0) -> float:
    return sigma2 / (2.0 * half_width + 1.0)


def noise_var_global(count: int, sigma2: float = 1.0) -> float:
    return sigma2 / count


@dataclass(frozen=True)
class MatchedRho:
    rho: float
    exp_variance: float     # exact value (4L^2-4L+5)/(2L-1)^3 at the matched rho
    window_variance: float  # 1/(2L+1)


def variance_match_rho(half_width: int) -> MatchedRho:
    """Decay rate (2L-3)/(2L+1) that makes the exponential rule's noise
    variance match the window's.  The match is asymptotic: the exact ratio
    exp/window decreases toward 1 as L grows (it is 935/729 ~ 1.28 at L = 5)."""
    if half_width < 2:
        raise ValidationError(f"matching needs half_width >= 2, got {half_width}")
    L = half_width
    rho = (2.0 * L - 3.0) / (2.0 * L + 1.0)
    exact = (4.0 * L * L - 4.0 * L + 5.0) / (2.0 * L - 1.0) ** 3
    return MatchedRho(rho=rho, exp_variance=exact, window_variance=1.0 / (2.0 * L + 1.0))


@dataclass(frozen=True)
class GainEstimate:
    gain: float
    phase: float
    warning: str | None = None


def settle_rounds(algo) -> int | None:
    """The fewest settle rounds for which `measure_gain` gives no warning:
    the geometric rules' transient has decayed below SETTLE_TAIL, and the
    window rules have finished.  None for banded weights, which have no
    settle condition."""
    if isinstance(algo, (ExponentialWeighting, DynamicExponential, AsymmetricWeighting)):
        rho = (max(algo.rho_back, algo.rho_forward) if isinstance(algo, AsymmetricWeighting)
               else algo.rho)
        settle = max(math.floor(math.log(SETTLE_TAIL) / math.log(rho)) - 1, 0)
        while rho ** settle >= SETTLE_TAIL:  # the logarithm can miss by a round
            settle += 1
        return settle
    if isinstance(algo, FiniteWindow):
        return algo.half_width
    if isinstance(algo, PerSensorWindow):
        return max(algo.half_widths)
    if isinstance(algo, DynamicWindow):
        return algo.half_width + 1
    return None


def _settle_warning(algo, settle: int) -> str | None:
    need = settle_rounds(algo)
    if need is None or settle >= need:
        return None
    return f"{type(algo).__name__} needs settle >= {need}, got {settle}"


def _fit_cosine(values: np.ndarray, arg: np.ndarray, amplitude: float,
                omega: float, phase_in: float) -> tuple[float, float]:
    if omega == 0.0:
        ref = amplitude * math.cos(phase_in)
        if abs(ref) < 1e-300:
            raise ValidationError("DC fit impossible: input cosine is identically zero")
        return float(np.mean(values)) / ref, 0.0
    design = np.column_stack([np.cos(omega * arg + phase_in), np.sin(omega * arg + phase_in)])
    (a, b), *_ = np.linalg.lstsq(design, values, rcond=None)
    return math.hypot(a, b) / amplitude, math.atan2(-b, a)


def measure_gain(trace: ConsensusTrace, field: MeasurementField, omega: float,
                 mode: str, settle: int) -> GainEstimate:
    """Amplitude ratio and phase of the settled response to a pure cosine.

    Spatial mode fits the post-settle sensor profile against {cos, sin} at a
    ring harmonic; temporal mode fits the post-settle time series of a
    spatially uniform input.  A least-squares fit is used rather than
    peak-picking so small amplitudes stay well conditioned.
    """
    rounds = trace.rounds
    # numpy groups the terms of a mean by memory layout, so a reduction over
    # a transposed view can differ in the last bit: reduce over (n, rounds + 1)
    y = np.ascontiguousarray(trace.y)
    if not 0 <= settle <= rounds:
        raise ValidationError(f"settle must lie in [0, {rounds}], got {settle}")
    if mode not in ("spatial", "temporal"):
        raise ValidationError(f"mode must be 'spatial' or 'temporal', got {mode!r}")
    kind = field.kind
    spatial = mode == "spatial"
    if not isinstance(kind, Cosine) or (kind.omega_t if spatial else kind.omega_s) != 0.0:
        raise ValidationError(f"{mode} gain needs a pure {mode} cosine field")
    on_axis = kind.omega_s if spatial else kind.omega_t
    if abs(on_axis - omega) > 1e-12:
        raise ValidationError(f"field frequency {on_axis} does not match {omega}")
    if spatial:
        if not isinstance(trace.config.boundary, Ring):
            raise ValidationError("spatial gain is defined on the ring boundary")
        n = trace.config.n
        cycles = omega * n / (2.0 * math.pi)
        if abs(cycles - round(cycles)) > 1e-9:
            raise ValidationError(
                f"omega = {omega} is not a ring harmonic 2 pi m / {n}")
        profile = y[:, settle:].mean(axis=1)
        gain, phase = _fit_cosine(profile, np.arange(n, dtype=float),
                                  kind.amplitude, omega, kind.phase)
    else:
        series = y[:, settle:].mean(axis=0)
        steps = np.arange(settle, rounds + 1, dtype=float)
        gain, phase = _fit_cosine(series, steps, kind.amplitude, omega, kind.phase)
    return GainEstimate(gain=gain, phase=phase, warning=_settle_warning(trace.algo, settle))


@dataclass(frozen=True)
class GlobalAverage:
    """Plain mean over `count` sensors; the baseline the local rules trade
    noise performance against."""

    count: int

    def __post_init__(self):
        if self.count < 1:
            raise ValidationError("global average needs count >= 1")


@dataclass(frozen=True)
class NoiseReport:
    analytic_variance: float
    sampled_variance: float
    replicates: int
    standard_error: float


def _noise_kernel(target) -> tuple[np.ndarray, float]:
    if isinstance(target, ExponentialWeighting):
        rho = target.rho
        n = max(3, math.ceil(math.log(1e-12) / math.log(rho)))
        lam = (1.0 - rho) / (1.0 + rho)
        d = np.arange(n)
        w = lam * (rho ** d + rho ** (n - d)) / (1.0 - rho ** n)
        w[0] = lam * (1.0 + rho ** n) / (1.0 - rho ** n)
        return w, noise_var_exp(rho)
    if isinstance(target, FiniteWindow):
        n = 2 * target.half_width + 1
        return np.full(n, 1.0 / n), noise_var_window(target.half_width)
    if isinstance(target, GlobalAverage):
        n = target.count
        return np.full(n, 1.0 / n), noise_var_global(n)
    raise ValidationError(f"no noise kernel for {type(target).__name__}")


def monte_carlo_noise(target, sigma: float, replicates: int, master_seed: int) -> NoiseReport:
    """Sample variance of the converged consensus value over seeded replicates
    of pure measurement noise on a constant field, against the closed form.

    Replicate r draws its noise from the stream spawned at (master_seed, r),
    so a parallel split would merge to the identical result.
    """
    if replicates < 100:
        raise ValidationError(f"need at least 100 replicates, got {replicates}")
    if not 0.0 <= sigma < math.inf:
        raise ValidationError(f"sigma must be finite and >= 0, got {sigma!r}")
    check_seed(master_seed)
    kernel, analytic = _noise_kernel(target)
    n = len(kernel)
    kernel_hat = np.fft.rfft(kernel)  # symmetric kernel: transform is real
    sums = np.zeros(n)
    sq_sums = np.zeros(n)
    block = 2048
    done = 0
    while done < replicates:
        count = min(block, replicates - done)
        eps = np.empty((count, n))
        for r, gen in enumerate(replicate_generators(master_seed, done, count)):
            eps[r] = gen.normal(0.0, sigma, n)
        y = np.fft.irfft(np.fft.rfft(eps, axis=1) * kernel_hat, n=n, axis=1)
        sums += y.sum(axis=0)
        sq_sums += (y * y).sum(axis=0)
        done += count
    per_sensor = (sq_sums - sums ** 2 / replicates) / (replicates - 1)
    sampled = float(per_sensor.mean())
    analytic *= sigma * sigma
    se = sampled * math.sqrt(2.0 / (replicates - 1))
    return NoiseReport(analytic_variance=analytic, sampled_variance=sampled,
                       replicates=replicates, standard_error=se)
