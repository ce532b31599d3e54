import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lacsim import (BandedWeighting, ChainConfig, Constant, ExpGaps, Impulse,
                    MeasurementField, Noise, SpacingModel, SpatialCosine, TableField, Truncated,
                    UniformGaps, ValidationError, ZeroHalo, evaluate_grid, k_poisson, k_uniform,
                    monte_carlo_spacing, run, sample_spacings, spacing_moments, table_from_draw)
from lacsim import oracle


def test_sampler_deterministic():
    model = SpacingModel(ExpGaps(), seed=5)
    a = sample_spacings(model, 50)
    b = sample_spacings(model, 50)
    assert np.array_equal(a, b)
    c = sample_spacings(SpacingModel(ExpGaps(), seed=6), 50)
    assert not np.array_equal(a, c)


def test_sampler_law_ranges():
    uni = sample_spacings(SpacingModel(UniformGaps(0.3), seed=1), 2000)
    assert np.all(uni >= 0.7) and np.all(uni <= 1.3)
    assert uni.mean() == pytest.approx(1.0, rel=0.02)
    # eta -> 0 degenerates to unit spacing
    tight = sample_spacings(SpacingModel(UniformGaps(1e-12), seed=1), 100)
    assert np.allclose(tight, 1.0, atol=1e-11)
    exp = sample_spacings(SpacingModel(ExpGaps(), seed=2), 10 ** 5)
    assert np.all(exp > 0)
    assert exp.mean() == pytest.approx(1.0, rel=0.01)


def test_sampler_validation():
    with pytest.raises(ValidationError):
        UniformGaps(0.0)
    with pytest.raises(ValidationError):
        UniformGaps(1.0)
    with pytest.raises(ValidationError):
        sample_spacings(SpacingModel(ExpGaps(), 0), 0)


def _distance(gaps, i, j):
    """Cumulative distance between sensors i and j (gap exponents add): the
    per-pair reference for `table_from_draw`."""
    lo, hi = sorted((i, j))
    assert 0 <= lo and hi <= gaps.size
    return float(gaps[lo:hi].sum())


def _table_per_pair(gaps, rho, radius):
    """`table_from_draw`'s weights one entry at a time, as it once built them."""
    n = gaps.size + 1
    weights = np.empty((n, 2 * radius + 1))
    for s in range(n):
        for off in range(-radius, radius + 1):
            t = s + off
            weights[s, off + radius] = rho ** (_distance(gaps, s, t) if 0 <= t < n
                                               else abs(off))
    return weights


def _weighted_target(gaps, field, i, rho, k_norm, tail_eps=1e-12):
    """K [x_i + sum_j rho^{d(i,i+j)} x_{i+j} + sum_j rho^{d(i,i-j)} x_{i-j}],
    truncated once the attenuation drops below tail_eps on each side: the
    scalar reference for a banded run on `table_from_draw` weights.  The chain
    must reach that attenuation on both sides of sensor i."""
    n = gaps.size + 1
    x = evaluate_grid(field, n, 1)[0].tolist()  # step 0 of every sensor
    total = x[i]
    for step, stop in ((1, n - 1), (-1, 0)):
        cum = 0.0
        j = i
        while True:
            assert j != stop, f"attenuation rho^{cum:.3g} has not reached {tail_eps} at {j}"
            cum += gaps[j] if step == 1 else gaps[j - 1]
            j += step
            w = rho ** cum
            if w < tail_eps:
                break
            total += w * x[j]
    return k_norm * total


def test_draw_distances_telescope():
    gaps = np.array([1.0, 2.0, 0.5])
    assert _distance(gaps, 0, 3) == pytest.approx(3.5)
    assert _distance(gaps, 2, 1) == pytest.approx(2.0)
    for bad in ([], [[1.0]]):
        with pytest.raises(ValidationError, match="^a draw needs a non-empty 1-D gap array$"):
            table_from_draw(np.array(bad), 0.5, 1)
    for bad in ([1.0, -0.5], [1.0, 0.0], [1.0, np.nan, 1.0, 1.0], [1.0, np.inf], [-np.inf, 1.0]):
        with pytest.raises(ValidationError, match="^gaps must be finite and strictly positive$"):
            table_from_draw(np.array(bad), 0.5, 1)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([ExpGaps(), UniformGaps(0.3)]),
       st.sampled_from([0.5, 0.9, math.exp(-1.0)]) | st.floats(0.01, 0.99),
       st.integers(1, 40), st.integers(0, 60), st.integers(0, 2 ** 32 - 1))
def test_table_from_draw_equals_the_per_pair_table_bit_for_bit(law, rho, radius, extra, seed):
    gaps = sample_spacings(SpacingModel(law, seed), 2 * radius + extra)
    table = table_from_draw(gaps, rho, radius)
    expected = _table_per_pair(gaps, rho, radius)
    assert table.weights.tobytes() == expected.tobytes()


@pytest.mark.parametrize("rho, radius, message", [
    (1.5, 2, r"^rho must lie strictly inside \(0, 1\), got 1\.5$"),
    (0.0, 2, r"^rho must lie strictly inside \(0, 1\), got 0\.0$"),
    (0.5, True, r"^radius must be an integer >= 1, got True$"),
    (0.5, 2.5, r"^radius must be an integer >= 1, got 2\.5$"),
    (0.5, 2.0, r"^radius must be an integer >= 1, got 2\.0$"),
    (0.5, 0, r"^radius must be an integer >= 1, got 0$"),
])
def test_table_from_draw_rejects_a_rate_or_radius_out_of_domain(rho, radius, message):
    with pytest.raises(ValidationError, match=message):
        table_from_draw(np.ones(20), rho, radius)


def test_table_from_draw_keeps_a_numpy_radius_as_an_int():
    table = table_from_draw(np.ones(20), 0.5, np.int64(2))
    assert type(table.radius) is int
    assert table.weights.tobytes() == table_from_draw(np.ones(20), 0.5, 2).weights.tobytes()


def test_k_poisson_values():
    assert k_poisson(math.exp(-1.0)) == pytest.approx(1 / 3, abs=1e-15)
    for rho in (0.2, 0.5, 0.9):
        assert 0.0 < k_poisson(rho) < 1.0
    # rho -> 1 collapses the constant
    assert k_poisson(1 - 1e-9) == pytest.approx(0.0, abs=1e-8)
    with pytest.raises(ValidationError):
        k_poisson(1.0)


def test_small_one_minus_rho_approximation():
    for one_minus in (0.01, 0.05):
        rho = 1.0 - one_minus
        target = one_minus / 2
        assert abs(k_poisson(rho) - target) / target <= 0.05
        assert abs(k_uniform(rho, 0.4) - target) / target <= 0.05


def test_k_uniform_limits():
    # eta -> 0 recovers the deterministic unit-spacing constant
    for rho in (0.3, 0.7, 0.95):
        want = (1 - rho) / (1 + rho)
        assert k_uniform(rho, 1e-6) == pytest.approx(want, rel=1e-6)
    with pytest.raises(ValidationError):
        k_uniform(0.5, 1.5)


def test_k_uniform_matches_direct_expectation():
    # K = (1-E)/(1+E) with E = E[rho^d] from quadrature
    rho, eta = 0.9, 0.5
    d = np.linspace(1 - eta, 1 + eta, 200001)
    e_direct = np.trapezoid(rho ** d, d) / (2 * eta)
    want = (1 - e_direct) / (1 + e_direct)
    assert k_uniform(rho, eta) == pytest.approx(want, abs=1e-9)


def test_k_uniform_monte_carlo_agreement():
    rho, eta = 0.9, 0.5
    rng = np.random.default_rng(99)
    xi = rho ** rng.uniform(1 - eta, 1 + eta, 10 ** 6)
    e_mc = xi.mean()
    se = xi.std(ddof=1) / math.sqrt(xi.size)
    e_analytic = 2 * rho * math.sinh(eta * math.log(rho)) / (2 * eta * math.log(rho))
    assert abs(e_mc - e_analytic) <= 3 * se
    k_mc = (1 - e_mc) / (1 + e_mc)
    assert abs(k_mc - k_uniform(rho, eta)) <= 3 * se


def test_moment_chain_at_inverse_e():
    m = spacing_moments(math.exp(-1.0))
    assert m.e_xi == pytest.approx(0.5, abs=1e-15)
    assert m.e_xi2 == pytest.approx(1 / 3, abs=1e-15)
    assert m.var_xi == pytest.approx(1 / 12, abs=1e-15)
    assert m.var_u == pytest.approx(0.5, abs=1e-15)
    assert m.var_y == pytest.approx(1 / 9, abs=1e-15)


@settings(max_examples=60, deadline=None)
@given(st.floats(0.02, 0.98))
def test_variance_identity_everywhere(rho):
    m = spacing_moments(rho)
    k = k_poisson(rho)
    assert abs(m.var_y - 2 * k * k * m.var_u) <= 1e-14


def test_variance_vanishes_as_rho_to_one():
    assert spacing_moments(1 - 1e-9).var_y == pytest.approx(0.0, abs=1e-8)


def test_moment_chain_under_uniform_gaps():
    # the value of the raw moment recursion of perfbench/checks.py's
    # spacing_closed_form, derived apart from this chain
    m = spacing_moments(0.5, UniformGaps(0.3))
    assert m.var_y == pytest.approx(0.004341520801739848, rel=1e-6)
    # K is the same chain's (1 - E xi) / (1 + E xi)
    assert k_uniform(0.5, 0.3) == pytest.approx((1 - m.e_xi) / (1 + m.e_xi), rel=1e-12)
    assert m.var_y == pytest.approx(2 * k_uniform(0.5, 0.3) ** 2 * m.var_u, rel=1e-12)


@pytest.mark.parametrize("rho", [0.1, 0.5, 0.9, 0.999])
def test_uniform_moments_keep_their_digits_as_eta_vanishes(rho):
    # to leading order in x = -eta log(rho), Var xi = rho^2 x^2 / 3, so
    # var_y = 2 rho^2 x^2 / (3 (1 + rho)^2 (1 - rho^2)); the plain
    # E[xi^2] - E[xi]^2 read 164 times too much at eta = 1e-6
    for eta in (1e-6, 1e-9):
        x = -eta * math.log(rho)
        m = spacing_moments(rho, UniformGaps(eta))
        assert m.var_xi == pytest.approx(rho * rho * x * x / 3, rel=1e-9)
        assert m.var_y == pytest.approx(2 * rho * rho * x * x
                                        / (3 * (1 + rho) ** 2 * (1 - rho * rho)), rel=1e-9)


@settings(max_examples=40, deadline=None)
@given(st.floats(0.02, 0.98))
def test_exponential_moments_are_the_default_law(rho):
    assert spacing_moments(rho) == spacing_moments(rho, ExpGaps())


def test_weighted_target_unit_spacing_reduction():
    # degenerate unit gaps with the deterministic constant reproduce the
    # exponential target exactly
    n, rho = 161, 0.6
    field = MeasurementField(TableField(np.sin(np.arange(n))))
    i = n // 2
    got = _weighted_target(np.ones(n - 1), field, i, rho, (1 - rho) / (1 + rho), tail_eps=1e-13)
    want = oracle.exp_target(field, i, rho, n=n, boundary=ZeroHalo(), k=100)
    assert got == pytest.approx(want, abs=1e-10)


def test_weighted_target_single_spike():
    gaps = np.array([45.0, 2.0, 0.25, 45.0, 45.0])
    rho, k_norm = 0.5, 0.37
    field = MeasurementField(Impulse(center=3))
    got = _weighted_target(gaps, field, 1, rho, k_norm)
    assert got == pytest.approx(k_norm * rho ** 2.25, abs=1e-15)


def test_weighted_target_reads_a_noisy_field_from_its_grid_row():
    gaps = sample_spacings(SpacingModel(UniformGaps(0.3), 3), 200)
    rho, k_norm, i = 0.5, 0.4, 100
    field = MeasurementField(SpatialCosine(1.0, 0.3), noise=Noise(0.5, seed=17))
    x = evaluate_grid(field, gaps.size + 1, 1)[0]
    d = np.concatenate(([0.0], np.cumsum(gaps)))  # positions along the chain
    w = rho ** np.abs(d - d[i])
    kept = w >= 1e-12
    assert _weighted_target(gaps, field, i, rho, k_norm) == \
        pytest.approx(k_norm * float((w * x)[kept].sum()), rel=1e-12)


def test_monte_carlo_spacing_exp_gaps():
    rho = math.exp(-1.0)
    rep = monte_carlo_spacing(rho, SpacingModel(ExpGaps(), 3), 2000)
    assert abs(rep.mean - 1.0) <= 4 * rep.mean_se
    assert rep.var_sampled == pytest.approx(1 / 9, rel=0.2)
    assert rep.var_analytic == pytest.approx(1 / 9, abs=1e-15)
    assert rep.k_analytic == pytest.approx(1 / 3, abs=1e-15)


def test_monte_carlo_spacing_uniform_gaps():
    rep = monte_carlo_spacing(0.9, SpacingModel(UniformGaps(0.3), 4), 2000)
    assert abs(rep.mean - 1.0) <= 4 * rep.mean_se
    assert rep.var_analytic == spacing_moments(0.9, UniformGaps(0.3)).var_y
    assert abs(rep.var_sampled - rep.var_analytic) <= 4 * rep.var_se
    assert rep.law == "uniform(eta=0.3)"


def test_monte_carlo_spacing_variance_across_rho():
    for rho in (0.5, math.exp(-1.0), 0.9):
        rep = monte_carlo_spacing(rho, SpacingModel(ExpGaps(), 101), 4000)
        want = spacing_moments(rho).var_y
        assert abs(rep.var_sampled - want) <= 3 * rep.var_se


def test_monte_carlo_spacing_se_shrinks():
    rho = math.exp(-1.0)
    small = monte_carlo_spacing(rho, SpacingModel(ExpGaps(), 5), 1000)
    large = monte_carlo_spacing(rho, SpacingModel(ExpGaps(), 5), 16000)
    ratio = small.mean_se / large.mean_se
    assert ratio == pytest.approx(4.0, rel=0.35)


def test_monte_carlo_spacing_deterministic():
    rho = 0.5
    a = monte_carlo_spacing(rho, SpacingModel(ExpGaps(), 8), 1000)
    b = monte_carlo_spacing(rho, SpacingModel(ExpGaps(), 8), 1000)
    assert a.mean == b.mean and a.var_sampled == b.var_sampled
    with pytest.raises(ValidationError):
        monte_carlo_spacing(rho, SpacingModel(ExpGaps(), 8), 99)


def test_spacing_report_round_trips_to_dict():
    rep = monte_carlo_spacing(0.5, SpacingModel(ExpGaps(), 8), 1000)
    d = rep.to_dict()
    assert set(d) == {"rho", "law", "K_analytic", "mean", "mean_se", "var_analytic",
                      "var_sampled", "var_se", "replicates"}


def test_distributed_run_on_spacing_weights():
    # rho^{d(i,j)} weights with unit normalization run as raw weighted sums;
    # normalizing by the law constant reproduces the direct target, and
    # per-row normalization makes a constant field exactly one
    rho, radius = math.exp(-1.0), 25
    model = SpacingModel(ExpGaps(), seed=21)
    gaps = sample_spacings(model, 140)
    n = gaps.size + 1
    table = table_from_draw(gaps, rho, radius)
    field = MeasurementField(TableField(np.cos(0.3 * np.arange(n))))
    cfg = ChainConfig(n=n, boundary=ZeroHalo(), rounds=radius)
    trace = run(cfg, field, BandedWeighting(table))
    i = n // 2
    raw = trace.y[i, radius]
    # law-constant normalization vs the tail-truncated direct sum
    direct = _weighted_target(gaps, field, i, rho, k_poisson(rho), tail_eps=1e-13)
    assert k_poisson(rho) * raw == pytest.approx(direct, abs=1e-8)
    # per-row normalization: constant field lands exactly on 1
    ones = MeasurementField(Constant(1.0))
    trace_ones = run(cfg, ones, BandedWeighting(table))
    interior_rows = range(radius, n - radius)
    row_sums = table.row_totals()
    for s in (i - 1, i, i + 1):
        assert s in interior_rows
        assert trace_ones.y[s, radius] / row_sums[s] == pytest.approx(1.0, abs=1e-10)



def _batch_means(values, size=256):
    """The mean of `values` and its batch-means standard error over blocks of
    `size` consecutive values; a last, partial block is dropped."""
    blocks = values[:values.size // size * size].reshape(-1, size).mean(axis=1)
    return float(blocks.mean()), float(blocks.std(ddof=1)) / math.sqrt(blocks.size)


@pytest.mark.parametrize("law, seed, k_norm", [(ExpGaps(), 31, k_poisson(0.5)),
                                               (UniformGaps(0.3), 37, k_uniform(0.5, 0.3))],
                         ids=["exp", "uniform"])
def test_banded_run_on_a_drawn_chain_matches_the_moment_chain(law, seed, k_norm):
    # a constant field through the banded rule on a drawn chain: K y has mean 1
    # and variance var_y.  Neighbours share most of their terms, so the errors
    # are batch means over blocks of 256 sensors (Geyer 1992); the seeds were
    # fixed before the first run, and the band's tail past radius 80 is far
    # below them (rho^56.7 for the shortest uniform gaps)
    rho, radius, n = 0.5, 80, 2 ** 14
    table = table_from_draw(sample_spacings(SpacingModel(law, seed), n - 1), rho, radius)
    trace = run(ChainConfig(n=n, boundary=Truncated(), rounds=radius),
                MeasurementField(Constant(1.0)), BandedWeighting(table))
    values = k_norm * trace.y[radius:n - radius, radius]  # sensors with the whole band
    mean, mean_se = _batch_means(values)
    var, var_se = _batch_means((values - mean) ** 2)
    assert abs(mean - 1.0) <= 3 * mean_se
    assert abs(var - spacing_moments(rho, law).var_y) <= 3 * var_se

@pytest.mark.parametrize("rho", [0.0, 1.0, -0.5, 1.5])
def test_spacing_constants_name_the_rate_they_reject(rho):
    message = rf"^rho must lie strictly inside \(0, 1\), got {rho!r}$"
    for call in (lambda: k_poisson(rho), lambda: k_uniform(rho, 0.3),
                 lambda: spacing_moments(rho)):
        with pytest.raises(ValidationError, match=message):
            call()

