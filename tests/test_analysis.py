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
from lacsim.analysis import h_exp_from_poles


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
    res = bandwidth("exp_spatial", 0.9)
    assert not res.saturated
    assert res.omega_half == pytest.approx(0.10546, abs=1e-3)
    assert res.rule_of_thumb == pytest.approx(0.1)
    assert h_exp(0.9, res.omega_half) == pytest.approx(0.5, abs=1e-9)


def test_bandwidth_saturated_for_small_rho():
    res = bandwidth("exp_spatial", 0.1)
    assert res.saturated and res.omega_half is None
    assert h_exp(0.1, math.pi) > 0.5


def test_bandwidth_window_roots():
    # the true half-gain root sits ~11.5-11.8% above the 1.7/(L+1/2) rule
    for L, expected in ((5, 0.345681), (10, 0.1806731), (20, 0.0924833)):
        res = bandwidth("window_spatial", L)
        assert res.omega_half == pytest.approx(expected, abs=1e-5)
        assert abs(h_window(L, res.omega_half)) == pytest.approx(0.5, abs=1e-9)
        dev = abs(res.omega_half - res.rule_of_thumb) / res.rule_of_thumb
        assert 0.10 < dev < 0.125


def test_bandwidth_temporal_window_near_rule():
    for L in (5, 10, 20):
        res = bandwidth("window_temporal", L)
        dev = abs(res.omega_half - res.rule_of_thumb) / res.rule_of_thumb
        assert dev < 0.15


def test_bandwidth_unknown_scheme():
    with pytest.raises(ValidationError):
        bandwidth("nope", 1)


def test_bandwidths_agree_in_the_half_power_sense():
    # at the spatial half-gain frequency the temporal gain is sqrt(2 rho)/(1+rho),
    # i.e. |K|^2 = 2 rho/(1+rho)^2 -> 1/2 as rho -> 1: the two bandwidths agree
    # when the temporal one is read at half power
    for rho in (0.9, 0.95, 0.99):
        ws = bandwidth("exp_spatial", rho).omega_half
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
    assert noise_var_exp(0.5, 1.0) == pytest.approx(5 / 27, abs=1e-15)
    assert noise_var_window(2, 1.0) == pytest.approx(0.2)
    assert noise_var_global(100, 1.0) == pytest.approx(0.01)
    assert noise_var_exp(1e-9, 1.0) == pytest.approx(1.0, abs=1e-8)


@settings(max_examples=100, deadline=None)
@given(st.floats(1e-6, 1 - 1e-6))
def test_noise_variance_interval(rho):
    v = noise_var_exp(rho, 1.0)
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
    est = measure_gain(trace, field, omega, "spatial", settle)
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
    est = measure_gain(trace, field, omega, "spatial", L)
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
    est = measure_gain(trace, field, omega, "temporal", settle)
    gain, phase = k_temporal_exp(rho, omega)
    assert est.gain == pytest.approx(gain, abs=1e-3)
    assert est.phase == pytest.approx(phase, abs=1e-3)


def test_measure_gain_temporal_dyn_window():
    L, omega = 3, 0.4
    cfg = ChainConfig(n=9, boundary=Ring(), rounds=L + 1 + 80)
    field = MeasurementField(TemporalCosine(1.0, omega))
    trace = run(cfg, field, DynamicWindow(L))
    est = measure_gain(trace, field, omega, "temporal", L + 1)
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
        measure_gain(trace, field, 0.123, "spatial", 2)  # frequency mismatch
    with pytest.raises(ValidationError):
        measure_gain(trace, field, omega, "sideways", 2)
    bad = MeasurementField(SpatialCosine(1.0, 0.1234))
    cfg2 = ChainConfig(n=n, boundary=Ring(), rounds=4)
    trace2 = run(cfg2, bad, FiniteWindow(2))
    with pytest.raises(ValidationError):
        measure_gain(trace2, bad, 0.1234, "spatial", 2)  # not a ring harmonic
    halo_trace = run(ChainConfig(n=n, boundary=ZeroHalo(), rounds=4), field, FiniteWindow(2))
    with pytest.raises(ValidationError):
        measure_gain(halo_trace, field, omega, "spatial", 2)


def test_measure_gain_settle_warning():
    n = 16
    omega = 2 * math.pi * 2 / n
    field = MeasurementField(SpatialCosine(1.0, omega))
    cfg = ChainConfig(n=n, boundary=Ring(), rounds=5)
    trace = run(cfg, field, ExponentialWeighting(0.9))
    est = measure_gain(trace, field, omega, "spatial", 5)
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
    assert measure_gain(trace, field, omega, mode, settle).warning is None
    assert measure_gain(trace, field, omega, mode, settle - 1).warning is not None


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
