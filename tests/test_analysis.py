import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lacsim import (AsymmetricWeighting, ChainConfig, DynamicExponential, DynamicWindow,
                    ExponentialWeighting, FiniteWindow, GlobalAverage, MeasurementField,
                    PerSensorWindow, Ring, SpatialCosine, TemporalCosine, ValidationError,
                    ZeroHalo, bandwidth, h_exp, h_window, k_temporal_exp, k_temporal_window,
                    measure_gain, monte_carlo_noise, noise_var_exp, noise_var_global,
                    noise_var_window, run, settle_rounds, variance_match_rho)
from lacsim.analysis import closed_form_gain, fit_rounds, sweep
from lacsim.arbitrary_weights import BandedWeighting, WeightTable


def test_h_exp_reference_points():
    assert h_exp(0.3, 0.0) == pytest.approx(1.0)
    assert h_exp(0.9, 0.0) == pytest.approx(1.0)
    assert h_exp(0.5, math.pi) == pytest.approx(1 / 9, abs=1e-15)
    assert h_exp(0.9, 0.1) == pytest.approx(0.5265235584533956, abs=1e-12)


def test_h_exp_half_value_near_one_minus_rho():
    for rho in (0.8, 0.9, 0.95, 0.99):
        assert 0.45 <= h_exp(rho, 1 - rho) <= 0.56


def test_h_exp_monotone_decreasing_on_grid():
    for rho in (0.2, 0.5, 0.8, 0.95):
        grid = np.linspace(0.0, math.pi, 2000)
        vals = [h_exp(rho, w) for w in grid]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert vals[-1] == pytest.approx((1 - rho) ** 2 / (1 + rho) ** 2, abs=1e-14)


def h_exp_from_poles(rho: float, omega: float) -> complex:
    """The same transfer function evaluated from its pole form
    (1-rho)^2 / ((1 - rho z^-1)(1 - rho z)) on the unit circle; kept as an
    independent cross-check of h_exp."""
    z = cmath.exp(1j * omega)
    return (1.0 - rho) ** 2 / ((1.0 - rho / z) * (1.0 - rho * z))


def test_h_exp_matches_pole_form_on_unit_circle():
    for rho in (0.1, 0.5, 0.9):
        for w in np.linspace(0.0, math.pi, 50):
            z = h_exp_from_poles(rho, w)
            assert abs(z.imag) <= 1e-14
            assert z.real == pytest.approx(h_exp(rho, w), abs=1e-14)


def test_h_window_reference_points():
    assert h_window(3, 0.0) == 1.0
    for L in (1, 2, 5, 10):
        first_zero = 2 * math.pi / (2 * L + 1)
        assert h_window(L, first_zero) == pytest.approx(0.0, abs=1e-12)
    assert h_window(1, math.pi) == pytest.approx(-1 / 3, abs=1e-14)


def test_k_temporal_exp_reference_points():
    assert k_temporal_exp(0.7, 0.0)[0] == pytest.approx(1.0)
    assert k_temporal_exp(0.5, math.pi)[0] == pytest.approx(1 / 9, abs=1e-14)
    # same magnitude as the spatial response at pi
    assert k_temporal_exp(0.5, math.pi)[0] == pytest.approx(h_exp(0.5, math.pi), abs=1e-14)


def test_k_temporal_window_reference_points():
    assert k_temporal_window(4, 0.0)[0] == pytest.approx(1.0)
    assert k_temporal_window(1, math.pi)[0] == pytest.approx(1 / 3, abs=1e-14)


def test_k_temporal_window_matches_direct_sum():
    for L in (2, 7):
        for w in (0.1, 0.9, 2.5):
            direct = (1 + 2 * sum(cmath.exp(-1j * m * w) for m in range(1, L + 1))) / (2 * L + 1)
            gain, phase = k_temporal_window(L, w)
            assert gain == pytest.approx(abs(direct), abs=1e-14)
            assert phase == pytest.approx(cmath.phase(direct), abs=1e-12)


def test_bandwidth_exponential():
    res = bandwidth(ExponentialWeighting(0.9))
    assert not res.saturated
    assert res.omega_half == pytest.approx(0.10546, abs=1e-3)
    assert res.rule_of_thumb == pytest.approx(0.1)
    assert h_exp(0.9, res.omega_half) == pytest.approx(0.5, abs=1e-9)


def test_bandwidth_saturated_for_small_rho():
    res = bandwidth(ExponentialWeighting(0.1))
    assert res.saturated and res.omega_half is None
    assert h_exp(0.1, math.pi) > 0.5


def test_bandwidth_window_roots():
    # the true half-gain root sits ~11.5-11.8% above the 1.7/(L+1/2) rule
    for L, expected in ((5, 0.345681), (10, 0.1806731), (20, 0.0924833)):
        res = bandwidth(FiniteWindow(L))
        assert res.omega_half == pytest.approx(expected, abs=1e-5)
        assert abs(h_window(L, res.omega_half)) == pytest.approx(0.5, abs=1e-9)
        dev = abs(res.omega_half - res.rule_of_thumb) / res.rule_of_thumb
        assert 0.10 < dev < 0.125


def test_bandwidth_temporal_window_near_rule():
    for L in (5, 10, 20):
        res = bandwidth(DynamicWindow(L))
        dev = abs(res.omega_half - res.rule_of_thumb) / res.rule_of_thumb
        assert dev < 0.15


@pytest.mark.parametrize("algo", [AsymmetricWeighting(0.5, 0.25), PerSensorWindow((2, 2, 3)),
                                  GlobalAverage(10)], ids=lambda a: type(a).__name__)
def test_bandwidth_rejects_a_rule_without_a_rule_of_thumb(algo):
    with pytest.raises(ValidationError,
                       match=f"^no rule-of-thumb bandwidth for {type(algo).__name__}$"):
        bandwidth(algo)


def test_bandwidths_agree_in_the_half_power_sense():
    # at the spatial half-gain frequency the temporal gain is sqrt(2 rho)/(1+rho),
    # i.e. |K|^2 = 2 rho/(1+rho)^2 -> 1/2 as rho -> 1: the two bandwidths agree
    # when the temporal one is read at half power
    for rho in (0.9, 0.95, 0.99):
        ws = bandwidth(ExponentialWeighting(rho)).omega_half
        assert k_temporal_exp(rho, ws)[0] ** 2 == pytest.approx(
            2 * rho / (1 + rho) ** 2, abs=1e-6)  # ws carries the bisection tolerance
        # temporal half-power frequency within 15% of the spatial half-gain one
        lo, hi = 1e-9, math.pi
        f = lambda w: k_temporal_exp(rho, w)[0] ** 2 - 0.5
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if f(lo) * f(mid) <= 0:
                hi = mid
            else:
                lo = mid
        wt = 0.5 * (lo + hi)
        assert abs(wt - ws) / ws < 0.15


def test_noise_variance_values():
    assert noise_var_exp(0.5) == pytest.approx(5 / 27, abs=1e-15)
    assert noise_var_window(2) == pytest.approx(0.2)
    assert noise_var_global(100) == pytest.approx(0.01)
    assert noise_var_exp(1e-9) == pytest.approx(1.0, abs=1e-8)


@settings(max_examples=100, deadline=None)
@given(st.floats(1e-6, 1 - 1e-6))
def test_noise_variance_interval(rho):
    v = noise_var_exp(rho)
    assert (1 - rho) / 4 < v < (1 - rho) + 1e-15


def test_variance_match_values():
    m = variance_match_rho(2)
    assert m.rho == pytest.approx(0.2)
    assert m.exp_variance == pytest.approx(noise_var_exp(0.2), abs=1e-15)
    assert variance_match_rho(10).rho == pytest.approx(17 / 21)
    with pytest.raises(ValidationError):
        variance_match_rho(1)


def test_variance_match_ratio_decreasing_toward_one():
    ratios = [variance_match_rho(L).exp_variance / variance_match_rho(L).window_variance
              for L in (5, 10, 20, 50, 200)]
    assert ratios[0] == pytest.approx(935 / 729, abs=1e-12)
    assert all(a > b for a, b in zip(ratios, ratios[1:]))
    assert all(r > 1 for r in ratios)
    assert ratios[-1] < 1.006


def test_measure_gain_spatial_exponential():
    n, m, rho = 128, 4, 0.8
    omega = 2 * math.pi * m / n
    field = MeasurementField(SpatialCosine(1.0, omega))
    settle = math.ceil(math.log(1e-9) / math.log(rho))
    cfg = ChainConfig(n=n, boundary=Ring(), rounds=settle)
    trace = run(cfg, field, ExponentialWeighting(rho))
    est = measure_gain(trace, field, "spatial", settle)
    assert est.gain == pytest.approx(h_exp(rho, omega), abs=1e-6)
    assert abs(est.phase) < 1e-9
    assert est.warning is None


def test_measure_gain_spatial_window_signed_magnitude():
    # beyond the first kernel zero the signed gain is negative; the fit
    # reports magnitude and a pi phase flip
    n, L = 64, 3
    omega = 2 * math.pi * 10 / n  # inside the first negative lobe of the L=3 kernel
    field = MeasurementField(SpatialCosine(1.0, omega))
    cfg = ChainConfig(n=n, boundary=Ring(), rounds=L)
    trace = run(cfg, field, FiniteWindow(L))
    est = measure_gain(trace, field, "spatial", L)
    signed = h_window(L, omega)
    assert signed < 0
    assert est.gain == pytest.approx(abs(signed), abs=1e-12)
    assert abs(abs(est.phase) - math.pi) < 1e-9


def test_measure_gain_temporal_dyn_exp():
    rho, omega = 0.8, 0.2
    settle = math.ceil(math.log(1e-9) / math.log(rho))
    cfg = ChainConfig(n=5, boundary=Ring(), rounds=settle + 80)
    field = MeasurementField(TemporalCosine(1.0, omega))
    trace = run(cfg, field, DynamicExponential(rho))
    est = measure_gain(trace, field, "temporal", settle)
    gain, phase = k_temporal_exp(rho, omega)
    assert est.gain == pytest.approx(gain, abs=1e-3)
    assert est.phase == pytest.approx(phase, abs=1e-3)


def test_measure_gain_temporal_dyn_window():
    L, omega = 3, 0.4
    cfg = ChainConfig(n=9, boundary=Ring(), rounds=L + 1 + 80)
    field = MeasurementField(TemporalCosine(1.0, omega))
    trace = run(cfg, field, DynamicWindow(L))
    est = measure_gain(trace, field, "temporal", L + 1)
    gain, phase = k_temporal_window(L, omega)
    assert est.gain == pytest.approx(gain, abs=1e-10)
    assert est.phase == pytest.approx(phase, abs=1e-10)


def test_measure_gain_validation():
    n = 16
    omega = 2 * math.pi * 2 / n
    field = MeasurementField(SpatialCosine(1.0, omega))
    cfg = ChainConfig(n=n, boundary=Ring(), rounds=4)
    trace = run(cfg, field, FiniteWindow(2))
    with pytest.raises(ValidationError):
        measure_gain(trace, field, "sideways", 2)
    bad = MeasurementField(SpatialCosine(1.0, 0.1234))
    cfg2 = ChainConfig(n=n, boundary=Ring(), rounds=4)
    trace2 = run(cfg2, bad, FiniteWindow(2))
    with pytest.raises(ValidationError):
        measure_gain(trace2, bad, "spatial", 2)  # not a ring harmonic
    halo_trace = run(ChainConfig(n=n, boundary=ZeroHalo(), rounds=4), field, FiniteWindow(2))
    with pytest.raises(ValidationError):
        measure_gain(halo_trace, field, "spatial", 2)


def _settled_gain(settle):
    omega = 2 * math.pi * 2 / 16
    field = MeasurementField(SpatialCosine(1.0, omega))
    trace = run(ChainConfig(n=16, boundary=Ring(), rounds=4), field, FiniteWindow(2))
    return measure_gain(trace, field, "spatial", settle)


@pytest.mark.parametrize("call, name, least", [
    (_settled_gain, "settle", 0),
    (GlobalAverage, "count", 1),
    (variance_match_rho, "half_width", 2),
])
@pytest.mark.parametrize("bad", [True, False, 2.5, 3.0, np.float64(3.0), "3", -1])
def test_analysis_counts_reject_what_is_not_an_integer_of_their_least(call, name, least, bad):
    with pytest.raises(ValidationError, match=rf"^{name} must be an integer >= {least}, got "):
        call(bad)


def test_analysis_counts_take_numpy_integers():
    assert _settled_gain(np.int64(2)) == _settled_gain(2)
    assert GlobalAverage(np.int64(40)) == GlobalAverage(40)
    assert type(GlobalAverage(np.int64(40)).count) is int
    assert variance_match_rho(np.int64(5)) == variance_match_rho(5)
    with pytest.raises(ValidationError, match=r"^settle must lie in \[0, 4\], got 5$"):
        _settled_gain(5)


def test_measure_gain_settle_warning():
    n = 16
    omega = 2 * math.pi * 2 / n
    field = MeasurementField(SpatialCosine(1.0, omega))
    cfg = ChainConfig(n=n, boundary=Ring(), rounds=5)
    trace = run(cfg, field, ExponentialWeighting(0.9))
    est = measure_gain(trace, field, "spatial", 5)
    assert est.warning is not None


@pytest.mark.parametrize("algo", [
    ExponentialWeighting(0.1), ExponentialWeighting(0.001), ExponentialWeighting(0.5),
    ExponentialWeighting(0.9), AsymmetricWeighting(0.5, 0.25), FiniteWindow(3),
    PerSensorWindow((2, 3, 4, 3, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2)),
    DynamicExponential(0.8), DynamicWindow(3)], ids=repr)
def test_default_settle_is_the_fewest_rounds_without_warning(algo):
    n = 16
    settle = settle_rounds(algo)
    if isinstance(algo, (DynamicExponential, DynamicWindow)):
        mode, omega = "temporal", 0.3
        field = MeasurementField(TemporalCosine(1.0, omega))
    else:
        mode, omega = "spatial", 2 * math.pi / n
        field = MeasurementField(SpatialCosine(1.0, omega))
    trace = run(ChainConfig(n=n, boundary=Ring(), rounds=settle + 8), field, algo)
    assert measure_gain(trace, field, mode, settle).warning is None
    assert measure_gain(trace, field, mode, settle - 1).warning is not None


def test_settle_rounds_of_the_temporal_criterion():
    assert settle_rounds(DynamicExponential(0.8)) == 93
    assert settle_rounds(DynamicExponential(0.9)) == 197


def test_monte_carlo_noise_small_run():
    report = monte_carlo_noise(ExponentialWeighting(0.5), 1.0, 400, 7)
    assert report.replicates == 400
    assert report.analytic_variance == pytest.approx(5 / 27, abs=1e-15)
    assert report.sampled_variance == pytest.approx(5 / 27, rel=0.2)
    assert report.standard_error == pytest.approx(
        report.sampled_variance * math.sqrt(2 / 399), abs=1e-12)


def test_monte_carlo_noise_zero_sigma():
    report = monte_carlo_noise(FiniteWindow(2), 0.0, 200, 3)
    assert report.sampled_variance == 0.0


def test_monte_carlo_noise_deterministic_in_seed():
    a = monte_carlo_noise(GlobalAverage(50), 1.0, 300, 11)
    b = monte_carlo_noise(GlobalAverage(50), 1.0, 300, 11)
    assert a.sampled_variance == b.sampled_variance


def test_monte_carlo_noise_requires_replicates():
    with pytest.raises(ValidationError):
        monte_carlo_noise(GlobalAverage(10), 1.0, 99, 0)


@pytest.mark.parametrize("omega", [0.0, 1e-12, 0.3, 1.0, 2.5, math.pi])
def test_closed_form_gain_is_the_rule_s_own_formula_bit_for_bit(omega):
    cases = [(ExponentialWeighting(0.8), h_exp(0.8, omega)),
             (FiniteWindow(3), abs(h_window(3, omega))),
             (DynamicExponential(0.8), k_temporal_exp(0.8, omega)[0]),
             (DynamicWindow(3), k_temporal_window(3, omega)[0])]
    for algo, want in cases:
        got = closed_form_gain(algo, omega)
        assert type(got) is float and got.hex() == want.hex(), algo


@pytest.mark.parametrize("algo", [AsymmetricWeighting(0.5, 0.25), PerSensorWindow((2, 2, 3)),
                                  BandedWeighting(WeightTable.geometric(0.5, 2, 8))],
                         ids=lambda a: type(a).__name__)
def test_closed_form_gain_rejects_a_rule_without_one(algo):
    with pytest.raises(ValidationError, match=f"no closed-form gain for {type(algo).__name__}"):
        closed_form_gain(algo, 0.5)


def test_fit_rounds_covers_two_periods_and_at_least_64_rounds():
    assert fit_rounds(0.0) == 32
    assert fit_rounds(0.5) == 64
    assert fit_rounds(0.1) == math.ceil(40 * math.pi) == 126
    assert fit_rounds(0.05) == 252


@pytest.mark.parametrize("algo", [DynamicExponential(0.9), DynamicWindow(5)],
                         ids=lambda a: type(a).__name__)
def test_a_negative_temporal_frequency_is_fitted_over_two_periods_too(algo):
    # a fit once ran 64 rounds at -0.02 (a fifth of a period) against 629 at
    # +0.02: the response at -w is the conjugate of the one at +w
    for w in (0.02, 0.05):
        assert fit_rounds(-w) == fit_rounds(w)
        (_, _, neg), (_, _, pos) = sweep(algo, (-w, w), settle_rounds(algo))
        assert neg.gain == pytest.approx(pos.gain, abs=1e-12)
        assert neg.phase + pos.phase == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("rule, param, message", [
    (ExponentialWeighting, 1.5, r"^rho must lie strictly inside \(0, 1\), got 1\.5$"),
    (DynamicExponential, -0.2, r"^rho must lie strictly inside \(0, 1\), got -0\.2$"),
    (FiniteWindow, 0, r"^half_width must be an integer >= 1, got 0$"),
    (DynamicWindow, 2.5, r"^half_width must be an integer >= 1, got 2\.5$"),
])
def test_bandwidth_rejects_a_parameter_outside_the_rule_s_domain(rule, param, message):
    # before, these gave a finite root or "saturated" from a meaningless gain
    with pytest.raises(ValidationError, match=message):
        bandwidth(rule(param))
