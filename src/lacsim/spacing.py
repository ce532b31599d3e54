"""Random inter-sensor spacing: laws, normalization constants, and moments.

Gaps between successive sensors are iid draws; a measurement d units away is
attenuated by rho**d, with exponents telescoping over the gaps in between.
The normalization constant K makes a constant field pass through with unit
mean; the output then remains random, and its variance follows from the
moment chain of xi = rho**gap.

A spaced chain runs through the distributed rules one way: `table_from_draw`
turns the gaps `sample_spacings` draws into banded weights rho**d for
`BandedWeighting`, whose raw weighted sums K then normalizes.

Naming note: the mean-1 density e^{-d} is an exponential law; the analysis
refers to the process it generates, so the class name says what is sampled.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .arbitrary_weights import WeightTable
from .errors import ValidationError
from .static_rules import _check_integer, _check_rho, _overlap, generator

# replicates per block of `monte_carlo_spacing`: a block's gaps hold at most max(_BLOCK_ELEMENTS,
# one replicate's) values, and one above _BLOCK_ELEMENTS is drawn only once the last is freed;
# under uniform gaps such a block holds each side only up to its limit, the rest skipped unread
_BLOCK_REPLICATES = 2048
_BLOCK_ELEMENTS = 1 << 16
# a chunk of `monte_carlo_spacing`'s columns: the limit plus this many spreads of
# the count of gaps that passes it.  An e^{-d} side needs a second chunk with
# odds below 4e-6 (1.6e-6 at rho = 0.5, whose blocks of 528 sides need one
# about once in 1,200)
_CHUNK_SPREADS = 5.0
# a computed rho**c can pass `>= tail_eps` only if c is at most
# log(tail_eps)/log(rho), up to pow's few-ulp error; `monte_carlo_spacing`
# computes no term past that bound, widened by this margin (absolute on
# log(tail_eps), relative on the quotient), which exceeds the error manyfold
_LOG_MARGIN = 1e-12


@dataclass(frozen=True)
class ExpGaps:
    """Gaps with density e^{-d}: the unit-intensity renewal process."""


@dataclass(frozen=True)
class UniformGaps:
    """Gaps uniform on [1 - eta, 1 + eta]."""

    eta: float

    def __post_init__(self):
        _check_rho("eta", self.eta)


SpacingLaw = Union[ExpGaps, UniformGaps]


def _check_law(law) -> None:
    if not isinstance(law, (ExpGaps, UniformGaps)):
        raise ValidationError(f"law must be ExpGaps() or UniformGaps(eta), got {law!r}")


@dataclass(frozen=True)
class SpacingModel:
    law: SpacingLaw
    seed: int = 0

    def __post_init__(self):
        _check_law(self.law)


def _draw_gaps(law: SpacingLaw, count: int, rng: np.random.Generator) -> np.ndarray:
    if isinstance(law, ExpGaps):
        return rng.standard_exponential(count)
    return rng.uniform(1.0 - law.eta, 1.0 + law.eta, count)


def sample_spacings(model: SpacingModel, count: int) -> np.ndarray:
    """Deterministic draw of `count` gaps d_{g,g+1} for sensors 0..count; same
    seed, same gaps."""
    count = _check_integer("gap count", count, 1)
    return _draw_gaps(model.law, count, generator(model.seed))


def k_poisson(rho: float) -> float:
    """Normalization constant under e^{-d} gaps: (-log rho)/(2 - log rho);
    approximately (1-rho)/2 when 1-rho is small."""
    _check_rho("rho", rho)
    s = -math.log(rho)
    return s / (2.0 + s)


def k_uniform(rho: float, eta: float) -> float:
    """Normalization constant under uniform gaps.  Written via sinh for
    stability at small eta; the eta -> 0 limit is (1-rho)/(1+rho), recovering
    the unit-spacing constant."""
    _check_rho("rho", rho)
    _check_rho("eta", eta)
    # E[rho^d] = (rho^{1+eta} - rho^{1-eta}) / (2 eta log rho); K = (1-E)/(1+E)
    t = math.log(rho)
    num = eta * t - rho * math.sinh(eta * t)
    den = eta * t + rho * math.sinh(eta * t)
    return num / den


@dataclass(frozen=True)
class SpacingMoments:
    e_xi: float     # E[rho^gap]
    e_xi2: float    # E[rho^(2 gap)]
    var_xi: float
    var_u: float    # variance of the one-sided attenuation sum
    var_y: float    # variance of the normalized consensus value


def _sinhc_minus_one(x: float) -> float:
    """sinh(x)/x - 1 for x >= 0, by its series below 1, where the plain form
    cancels."""
    if x >= 1.0:
        return math.sinh(x) / x - 1.0
    x2, term, total = x * x, 1.0, 0.0
    for j in range(2, 24, 2):  # x^j / (j + 1)!
        term *= x2 / (j * (j + 1))
        total += term
    return total


def spacing_moments(rho: float, law: SpacingLaw = ExpGaps()) -> SpacingMoments:
    """Moment chain of xi = rho^gap, the same for either law: the one-sided
    sum U = xi (1 + U') has var_u = var_xi / ((1 - e_xi)^2 (1 - e_xi2)),
    K = (1 - e_xi) / (1 + e_xi) and var_y = 2 K^2 var_u.  Only the moments
    of xi depend on the law: with s = -log rho, E[rho^(a gap)] is 1/(1 + a s)
    for e^{-d} gaps and rho^a sinh(a s eta)/(a s eta), that is
    (rho^(a(1-eta)) - rho^(a(1+eta))) / (2 eta a s), for uniform ones.  Each
    difference is taken in a form that keeps its digits as rho -> 1 or
    eta -> 0.  For e^{-d} gaps var_u and var_y also have closed forms, which
    the chain must match and which are returned."""
    _check_rho("rho", rho)
    _check_law(law)
    s = -math.log(rho)
    if isinstance(law, ExpGaps):
        e_xi, e_xi2 = 1.0 / (1.0 + s), 1.0 / (1.0 + 2.0 * s)
        one_minus = (s / (1.0 + s), 2.0 * s / (1.0 + 2.0 * s))
        var_xi = s * s / ((1.0 + 2.0 * s) * (1.0 + s) ** 2)
    else:
        x = s * law.eta
        m1, m2 = _sinhc_minus_one(x), _sinhc_minus_one(2.0 * x)
        e_xi, e_xi2 = rho * (1.0 + m1), rho * rho * (1.0 + m2)
        one_minus = (-math.expm1(-s) - rho * m1, -math.expm1(-2.0 * s) - rho * rho * m2)
        # S(2x) = S(x) cosh x for S(x) = sinh(x)/x, so var_xi = rho^2 (S(2x) - S(x)^2)
        # is rho^2 S(x) ((cosh x - 1) - (S(x) - 1))
        var_xi = rho * rho * (1.0 + m1) * (2.0 * math.sinh(0.5 * x) ** 2 - m1)
    k = one_minus[0] / (1.0 + e_xi)
    var_u = var_xi / one_minus[0] ** 2 / one_minus[1]
    var_y = 2.0 * k * k * var_u
    if isinstance(law, ExpGaps):
        closed_u, closed_y = 1.0 / (2.0 * s), s / (2.0 + s) ** 2
        if not math.isclose(var_u, closed_u, rel_tol=1e-12):
            raise AssertionError(f"moment chain inconsistent: {var_u} vs {closed_u}")
        if not math.isclose(var_y, closed_y, rel_tol=1e-12):
            raise AssertionError(f"var_y identity 2 K^2 var_u violated: {var_y} vs {closed_y}")
        var_u, var_y = closed_u, closed_y
    return SpacingMoments(e_xi=e_xi, e_xi2=e_xi2, var_xi=var_xi, var_u=var_u, var_y=var_y)


def _required_sensors(rho: float, law: SpacingLaw, tail_eps: float) -> int:
    needed = math.log(tail_eps) / math.log(rho)
    if isinstance(law, UniformGaps):
        return math.ceil(needed / (1.0 - law.eta)) + 2
    # mean-1 gaps: the margin makes a short draw astronomically unlikely
    return math.ceil(needed + 10.0 * math.sqrt(needed) + 20.0)


@dataclass(frozen=True)
class SpacingMCReport:
    rho: float
    law: str
    k_analytic: float
    mean: float
    mean_se: float
    var_analytic: float
    var_sampled: float
    var_se: float
    replicates: int

    def to_dict(self) -> dict:
        return {
            "rho": self.rho, "law": self.law, "K_analytic": self.k_analytic,
            "mean": self.mean, "mean_se": self.mean_se,
            "var_analytic": self.var_analytic, "var_sampled": self.var_sampled,
            "var_se": self.var_se, "replicates": self.replicates,
        }


def _side_sums(w: np.ndarray, kept: np.ndarray) -> np.ndarray:
    """Row i's sum of w[i, :kept[i]], added in the pairwise order numpy sums
    a 1-D array of kept[i] terms: the rows are grouped by kept count, and
    each group is one `sum(axis=-1)` over its rows' common prefix."""
    order = np.argsort(kept)
    counts = kept[order]
    grouped = w[order]
    starts = np.flatnonzero(np.diff(counts, prepend=-1)).tolist()
    sums = np.empty(len(kept))
    for a, b in zip(starts, starts[1:] + [len(counts)]):
        sums[order[a:b]] = grouped[a:b, :counts[a]].sum(axis=-1)
    return sums


def monte_carlo_spacing(rho: float, model: SpacingModel, replicates: int,
                        tail_eps: float = 1e-12) -> SpacingMCReport:
    """Sample mean and variance of the normalized consensus value on an
    all-ones field over independent spacing draws.

    All replicates draw from the one stream `np.random.default_rng(model.seed)`,
    one call of `_draw_gaps` per block of replicates; numpy fills a block in
    order and each replicate's value depends on its own draws alone, so the
    report does not depend on the block size.  This thread draws each block's
    gaps and forms their partial sums up to the first column in which every
    side has passed `limit`, past which no side keeps a term, while a worker
    thread evaluates the block before (`_overlap`), unless a block, which
    holds one replicate at least, exceeds _BLOCK_ELEMENTS values: 2 g =
    552,626, g = `_required_sensors`, for uniform gaps at eta = 0.9999.
    Under uniform gaps such a block draws each side in chunks, a `_draw_gaps`
    call each, only until it passes `limit`, and skips the side's other gaps
    with the generator's jump-ahead, a uniform draw taking exactly one 64-bit
    output; it then holds two sides of about `limit` gaps, not 2 g values.
    """
    replicates = _check_integer("replicates", replicates, 1000)
    _check_rho("tail_eps", tail_eps)
    rng = generator(model.seed)
    law = model.law
    if isinstance(law, ExpGaps):
        k_norm = k_poisson(rho)
        law_name = "exp_density"
    else:
        k_norm = k_uniform(rho, law.eta)
        law_name = f"uniform(eta={law.eta})"
    var_analytic = spacing_moments(rho, law).var_y
    gap_count = _required_sensors(rho, law, tail_eps)
    block = max(1, min(_BLOCK_REPLICATES, _BLOCK_ELEMENTS // (2 * gap_count)))
    limit = (math.log(tail_eps) - _LOG_MARGIN) / math.log(rho) * (1.0 + _LOG_MARGIN)
    # both laws have mean 1, so with gap spread s a side passes limit after
    # limit + O(s sqrt(limit)) gaps
    spread = 1.0 if isinstance(law, ExpGaps) else law.eta / math.sqrt(3.0)
    chunk = min(gap_count,
                math.ceil(limit + _CHUNK_SPREADS * spread * math.sqrt(limit + 1.0)) + 1)
    skip = isinstance(law, UniformGaps) and 2 * gap_count > _BLOCK_ELEMENTS
    values = np.empty(replicates)

    def partial_sums(cum) -> int:
        """Sums the rows of `cum` in place, a chunk of columns at a time, up to the
        first column past `limit` in every row, and returns the columns summed;
        each chunk's first gap adds the running sum, as `cumsum` would."""
        end = 0
        while end < gap_count:
            start, end = end, min(end + chunk, gap_count)
            if start:
                cum[:, start] += cum[:, start - 1]
            np.cumsum(cum[:, start:end], axis=-1, out=cum[:, start:end])
            if cum[:, end - 1].min() > limit:
                break
        return end

    def side():
        """One side's partial sums up to the first past `limit`, drawn a chunk at a
        time; its other gaps are skipped, a uniform gap being one 64-bit output."""
        sums, drawn = [], 0
        while drawn < gap_count and (not sums or sums[-1][-1] <= limit):
            gaps = _draw_gaps(law, min(chunk, gap_count - drawn), rng)
            if sums:
                gaps[0] += sums[-1][-1]
            sums.append(np.cumsum(gaps))
            drawn += len(gaps)
            del gaps  # not held while the next chunk is drawn
        rng.bit_generator.advance(gap_count - drawn)
        return np.concatenate(sums)

    def one_replicate():
        """A one-replicate block of two `side`s; the one that stops short reads inf,
        past `limit`, where the other goes on."""
        first, second = side(), side()
        cum = np.full((2, max(len(first), len(second))), np.inf)
        cum[0, :len(first)], cum[1, :len(second)] = first, second
        return cum

    def draws():
        for done in range(0, replicates, block):
            if skip:
                yield done, one_replicate()
                continue
            count = min(block, replicates - done)
            # rows 2r and 2r + 1 are replicate r's two sides, drawn one after the other
            cum = _draw_gaps(law, 2 * count * gap_count, rng).reshape(2 * count, gap_count)
            yield done, cum[:, :partial_sums(cum)]
            del cum  # not held while the next block is drawn

    def evaluate(item):
        done, cum = item
        # c grows along each side, so its column minima do too: the columns in
        # which any side can keep a term are a prefix
        reach = int(np.count_nonzero(cum.min(axis=0) <= limit))
        w = np.power(rho, cum[:, :reach], out=cum[:, :reach])
        # w never increases along a side, so the kept terms are a prefix
        sides = _side_sums(w, (w >= tail_eps).sum(axis=-1)).reshape(-1, 2)
        # a replicate is k (1 + ((0.0 + s0) + s1)); no sum of w is -0.0, so 0.0 + s0 is s0
        values[done:done + len(sides)] = k_norm * (1.0 + (sides[:, 0] + sides[:, 1]))

    _overlap(draws(), evaluate, int(2 * gap_count <= _BLOCK_ELEMENTS))
    mean = float(values.mean())
    var = float(values.var(ddof=1))
    mean_se = math.sqrt(var / replicates)
    m4 = float(((values - mean) ** 4).mean())
    var_se = math.sqrt(max(m4 - var * var, 0.0) / replicates)
    return SpacingMCReport(rho=rho, law=law_name, k_analytic=k_norm, mean=mean,
                           mean_se=mean_se, var_analytic=var_analytic,
                           var_sampled=var, var_se=var_se, replicates=replicates)


def table_from_draw(gaps, rho: float, radius: int):
    """Banded weights rho^{d(i, i+offset)} for the chain of len(gaps) + 1
    sensors with consecutive gaps `gaps`, with unit normalization so the
    distributed rule computes raw weighted sums.  Row totals genuinely differ
    here, so the row check is disabled (row_tol None); normalize afterwards by
    the law's K or by per-row totals."""
    gaps = np.asarray(gaps, dtype=float)
    if gaps.ndim != 1 or gaps.size == 0:
        raise ValidationError("a draw needs a non-empty 1-D gap array")
    if not np.all((gaps > 0) & np.isfinite(gaps)):
        raise ValidationError("gaps must be finite and strictly positive")
    _check_rho("rho", rho)
    radius = _check_integer("radius", radius, 1)
    n = gaps.size + 1
    if n < 2 * radius + 1:
        raise ValidationError(f"draw of {n} sensors cannot host radius {radius}")
    # past the chain ends rho^|offset|: it only ever multiplies a zero
    # measurement, but must stay nonzero for the coefficient ratios.
    # float_power rounds as Python's ** does, which np.power need not
    weights = np.tile(np.float_power(rho, np.abs(np.arange(-radius, radius + 1.0))), (n, 1))
    for j in range(1, radius + 1):
        # d(s, s + j), summed in the order of gaps[s:s + j].sum()
        w = np.float_power(rho, sliding_window_view(gaps, j).sum(axis=1))
        weights[:n - j, radius + j] = w
        weights[j:, radius - j] = w
    return WeightTable(weights, 1.0, radius, row_tol=None)
