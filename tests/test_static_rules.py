import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lacsim import (AsymmetricWeighting, ChainConfig, ExponentialWeighting, FiniteWindow,
                    HistoryError, MeasurementField, PerSensorWindow, Ring, TableField,
                    TerminatedError, ValidationError, ZeroHalo, Constant, Impulse,
                    asym_transition, exp_transition, random_spatial_table, run,
                    window_transition)
from lacsim import oracle


def test_exp_init_stage():
    # lam = (1-0.5)/(1+0.5) = 1/3, so x=3 initializes to 1
    assert exp_transition(0, (), (), (), 3.0, 0.5) == pytest.approx(1.0)


def test_exp_insufficient_history():
    with pytest.raises(HistoryError):
        exp_transition(1, (), (), (), 0.0, 0.5)
    with pytest.raises(HistoryError):
        exp_transition(3, (1.0, 1.0), (1.0, 1.0), (1.0, 1.0), 0.0, 0.5)


def test_exp_constant_field_partial_sums():
    # on a ring a constant field c gives y(k) = c*lam*(1 + 2 sum_{j<=k} rho^j)
    c, rho, n, rounds = 2.5, 0.6, 12, 15
    cfg = ChainConfig(n=n, boundary=Ring(), rounds=rounds)
    trace = run(cfg, MeasurementField(Constant(c)), ExponentialWeighting(rho))
    lam = (1 - rho) / (1 + rho)
    for k in range(rounds + 1):
        expected = c * lam * (1 + 2 * sum(rho ** j for j in range(1, k + 1)))
        assert trace.y[:, k] == pytest.approx(expected, abs=1e-12)
    # and the limit is c
    assert trace.y[0, rounds] == pytest.approx(c, abs=c * 2 * lam * rho ** (rounds + 1) / (1 - rho) + 1e-12)


def test_exp_impulse_limits():
    # zero-extended impulse at rho = 1/2: limits 1/3, 1/6, 1/12 at hops 0, 1, 2
    n, rounds = 9, 40
    cfg = ChainConfig(n=n, boundary=ZeroHalo(), rounds=rounds)
    trace = run(cfg, MeasurementField(Impulse(center=4)), ExponentialWeighting(0.5))
    assert trace.y[4, rounds] == pytest.approx(1 / 3, abs=1e-11)
    assert trace.y[5, rounds] == pytest.approx(1 / 6, abs=1e-11)
    assert trace.y[6, rounds] == pytest.approx(1 / 12, abs=1e-11)


def test_recursion_increment_identity():
    # y_i(k) - y_i(k-1) equals rho^k (y_{i-k}(0) + y_{i+k}(0)) on the ring
    n, rounds, rho = 16, 10, 0.7
    field = MeasurementField(random_spatial_table(n, 5))
    cfg = ChainConfig(n=n, boundary=Ring(), rounds=rounds)
    trace = run(cfg, field, ExponentialWeighting(rho))
    y0 = trace.y[:, 0]
    for k in range(1, rounds + 1):
        for i in range(n):
            inc = rho ** k * (y0[(i - k) % n] + y0[(i + k) % n])
            assert trace.y[i, k] - trace.y[i, k - 1] == pytest.approx(inc, abs=1e-12)


def test_geometric_convergence_bound():
    n, rho, rounds = 16, 0.8, 30
    field = MeasurementField(random_spatial_table(n, 6))
    m = field.bound_m()
    lam = (1 - rho) / (1 + rho)
    cfg = ChainConfig(n=n, boundary=Ring(), rounds=rounds)
    trace = run(cfg, field, ExponentialWeighting(rho))
    limit = np.array([oracle.exp_target(field, i, rho, n=n, eps=1e-15) for i in range(n)])
    for k in range(rounds + 1):
        bound = lam * 2 * m * rho ** (k + 1) / (1 - rho)
        assert np.all(np.abs(trace.y[:, k] - limit) <= bound + 1e-12)


def test_asym_reduces_to_symmetric():
    n, rounds, rho = 10, 8, 0.45
    field = MeasurementField(random_spatial_table(n, 8))
    cfg = ChainConfig(n=n, boundary=Ring(), rounds=rounds)
    a = run(cfg, field, AsymmetricWeighting(rho, rho))
    b = run(cfg, field, ExponentialWeighting(rho))
    assert np.allclose(a.y, b.y, atol=1e-14, rtol=0)


def test_asym_impulse_directional_limit():
    # scale = (1-.5)(1-.25)/(1-.125) = 3/7; one hop on the forward side gives 3/7 * 1/4
    n, rounds = 11, 60
    cfg = ChainConfig(n=n, boundary=ZeroHalo(), rounds=rounds)
    trace = run(cfg, MeasurementField(Impulse(center=5)), AsymmetricWeighting(0.5, 0.25))
    assert trace.y[4, rounds] == pytest.approx(3 / 28, abs=1e-12)   # sensor -1 of the spike
    assert trace.y[6, rounds] == pytest.approx((3 / 7) * 0.5, abs=1e-12)  # backward side


def test_asym_constant_passes_through():
    cfg = ChainConfig(n=8, boundary=Ring(), rounds=110)
    trace = run(cfg, MeasurementField(Constant(4.0)), AsymmetricWeighting(0.3, 0.8))
    assert trace.y[3, 110] == pytest.approx(4.0, abs=1e-6)


def test_window_three_point_mean():
    # half_width 1 on ring [0, 3, 6]: middle sensor averages to 3
    cfg = ChainConfig(n=3, boundary=Ring(), rounds=1)
    trace = run(cfg, MeasurementField(TableField(np.array([0.0, 3.0, 6.0]))), FiniteWindow(1))
    assert trace.y[1, 1] == pytest.approx(3.0, abs=1e-15)


def test_window_constant_exact():
    cfg = ChainConfig(n=13, boundary=Ring(), rounds=4)
    trace = run(cfg, MeasurementField(Constant(2.0)), FiniteWindow(4))
    assert trace.y[:, 4] == pytest.approx(2.0, abs=1e-14)


def test_window_wrapped_mean_exact():
    n, L = 32, 5
    field = MeasurementField(random_spatial_table(n, 7))
    cfg = ChainConfig(n=n, boundary=Ring(), rounds=L)
    trace = run(cfg, field, FiniteWindow(L))
    for i in range(n):
        mean = np.mean([field.kind.at((i + d) % n, 0) for d in range(-L, L + 1)])
        assert trace.y[i, L] == pytest.approx(mean, abs=1e-12)


def test_window_termination_error():
    with pytest.raises(TerminatedError):
        window_transition(3, (1.0, 1.0, 1.0), (1.0, 1.0), (1.0, 1.0), 0.0, 2)


def test_window_values_freeze_after_termination():
    cfg = ChainConfig(n=9, boundary=Ring(), rounds=7)
    field = MeasurementField(random_spatial_table(9, 9))
    trace = run(cfg, field, FiniteWindow(2))
    for k in range(2, 8):
        assert np.array_equal(trace.y[:, k], trace.y[:, 2])


def test_variable_window_uniform_reduction():
    n, L = 15, 3
    field = MeasurementField(random_spatial_table(n, 10))
    cfg = ChainConfig(n=n, boundary=Ring(), rounds=6)
    a = run(cfg, field, PerSensorWindow((L,) * n))
    b = run(cfg, field, FiniteWindow(L))
    assert np.array_equal(a.y, b.y)


def test_variable_window_constant_field_weight_sums():
    # the closed form is not a convex combination: constant c maps to c * weight_sum
    widths = (2, 2, 3, 3, 3, 2, 2)
    c = 5.0
    cfg = ChainConfig(n=7, boundary=Ring(), rounds=4)
    trace = run(cfg, MeasurementField(Constant(c)), PerSensorWindow(widths))
    sums = trace.metadata["weight_sums"]
    for i, w in enumerate(widths):
        expected = 1 / (2 * w + 1) + sum(
            1 / (2 * widths[(i + d) % 7] + 1) + 1 / (2 * widths[(i - d) % 7] + 1)
            for d in range(1, w + 1))
        assert sums[i] == pytest.approx(expected, abs=1e-14)
        assert trace.y[i, w] == pytest.approx(c * expected, abs=1e-12)
    assert any(abs(s - 1.0) > 1e-3 for s in sums)


def test_variable_window_adjacency_validation():
    with pytest.raises(ValidationError):
        PerSensorWindow((1, 3, 1))
    # ring wrap pair is checked at run time
    with pytest.raises(ValidationError):
        run(ChainConfig(n=9, boundary=Ring(), rounds=1),
            MeasurementField(Constant(1.0)), PerSensorWindow((1, 2, 3, 3, 3, 3, 3, 3, 3)))


def test_parameter_domains():
    for bad in (0.0, 1.0, -0.1, 1.7):
        with pytest.raises(ValidationError):
            ExponentialWeighting(bad)
    with pytest.raises(ValidationError):
        AsymmetricWeighting(0.5, 1.0)
    with pytest.raises(ValidationError):
        FiniteWindow(0)


@settings(max_examples=25, deadline=None)
@given(st.floats(0.05, 0.95), st.integers(0, 40))
def test_exp_stages_agree_with_asym_diagonal(rho, seed):
    rng = np.random.default_rng(seed)
    own = tuple(rng.uniform(-1, 1, 3))
    left = tuple(rng.uniform(-1, 1, 2))
    right = tuple(rng.uniform(-1, 1, 2))
    for k in (0, 1, 2, 3, 7):
        a = exp_transition(k, own, left, right, 0.3, rho)
        b = asym_transition(k, own, left, right, 0.3, rho, rho)
        assert a == pytest.approx(b, abs=1e-14)
