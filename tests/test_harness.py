import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lacsim import (ChainConfig, Constant, DivergedError, DynamicWindow,
                    ExponentialWeighting, FiniteWindow, MeasurementField,
                    Ring, TableField, Truncated, ValidationError, ZeroHalo,
                    random_spatial_table, run, trace_to_csv)


def _table(values):
    return MeasurementField(TableField(np.asarray(values, dtype=float)))


def test_rounds_zero_gives_initialization_only():
    cfg = ChainConfig(n=8, boundary=Ring(), rounds=0)
    trace = run(cfg, _table(np.arange(8.0)), ExponentialWeighting(0.5))
    assert trace.y.shape == (8, 1)
    assert np.allclose(trace.y[:, 0], np.arange(8.0) / 3.0, atol=1e-15, rtol=0)
    assert len(trace.audit) == 0


def test_zero_halo_interior_window_average_of_ones():
    cfg = ChainConfig(n=12, boundary=ZeroHalo(), rounds=10)
    trace = run(cfg, MeasurementField(Constant(1.0)), FiniteWindow(3))
    interior = trace.y[3:9, 3]
    assert interior == pytest.approx(1.0, abs=1e-15)
    # edge sensors see zero-measuring ghosts
    assert trace.y[0, 3] == pytest.approx(4.0 / 7.0, abs=1e-15)


@pytest.mark.parametrize("boundary, depth", [(ZeroHalo(), 5), (Ring(), 0), (Truncated(), 0)])
def test_halo_depth_is_the_horizon_on_a_zero_halo_only(boundary, depth):
    assert ChainConfig(n=8, boundary=boundary, rounds=5).halo_depth() == depth


def test_ring_capacity_validation():
    with pytest.raises(ValidationError):
        run(ChainConfig(n=8, boundary=Ring(), rounds=1),
            MeasurementField(Constant(1.0)), FiniteWindow(4))


@pytest.mark.parametrize("bad", ["ring", Ring, ZeroHalo, Truncated, None])
def test_chain_config_takes_only_a_boundary_instance(bad):
    # before, "ring" and the class Ring ran silently as a truncated chain:
    # sensor 0 of exp rho=0.5 on a constant 1 read 0.5 at round 3, not 0.917
    with pytest.raises(ValidationError,
                       match=r"^boundary must be Ring\(\), ZeroHalo\(\) or Truncated\(\), got "):
        ChainConfig(8, bad, 3)


def test_config_domain_validation():
    with pytest.raises(ValidationError):
        ChainConfig(n=2)
    with pytest.raises(ValidationError):
        ChainConfig(n=8, rounds=-1)


@pytest.mark.parametrize("build, name, least", [
    (lambda v: ChainConfig(n=v), "n", 3),
    (lambda v: ChainConfig(n=8, rounds=v), "rounds", 0),
])
@pytest.mark.parametrize("bad", [True, False, 2.5, 8.0, np.float64(4.0), "8", -1])
def test_engine_counts_reject_what_is_not_an_integer_of_their_least(build, name, least, bad):
    with pytest.raises(ValidationError, match=rf"^{name} must be an integer >= {least}, got "):
        build(bad)


def test_engine_counts_take_numpy_integers_as_ints():
    cfg = ChainConfig(n=np.int64(8), boundary=ZeroHalo(), rounds=np.int64(3))
    assert all(type(v) is int for v in (cfg.n, cfg.rounds, cfg.halo_depth()))
    assert cfg == ChainConfig(n=8, boundary=ZeroHalo(), rounds=3)


def test_determinism_bit_identical():
    cfg = ChainConfig(n=10, boundary=Ring(), rounds=9)
    field = MeasurementField(random_spatial_table(10, 12))
    a = run(cfg, field, ExponentialWeighting(0.7))
    b = run(cfg, field, ExponentialWeighting(0.7))
    assert np.array_equal(a.y, b.y)
    assert np.array_equal(a.audit, b.audit)


def test_audit_locality_ring_wraps():
    cfg = ChainConfig(n=6, boundary=Ring(), rounds=2)
    trace = run(cfg, MeasurementField(Constant(1.0)), ExponentialWeighting(0.5))
    # wrap pairs (0, 5) appear and are legitimate neighbors
    pairs = zip(trace.audit["receiver"].tolist(), trace.audit["sender"].tolist())
    assert any({r, s} == {0, 5} for r, s in pairs)


def test_audit_records_only_active_receivers():
    # window of half-width 2 exchanges messages for rounds 1..2 only
    cfg = ChainConfig(n=9, boundary=Ring(), rounds=6)
    trace = run(cfg, MeasurementField(Constant(1.0)), FiniteWindow(2))
    assert trace.audit["round"].max() == 2
    assert len(trace.audit) == 9 * 2 * 2


def test_run_steps_states_without_building_the_audit():
    # the audit (16 B per message, 2 messages per sensor-round) is derived on
    # first read; the loop's own peak is y plus a few chain-length arrays
    cfg = ChainConfig(n=16384, boundary=Ring(), rounds=50)
    tracemalloc.start()
    try:
        trace = run(cfg, MeasurementField(Constant(1.0)), ExponentialWeighting(0.5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "audit" not in vars(trace)
    assert peak < 1.3 * trace.y.nbytes
    assert len(trace.audit) == 2 * cfg.n * cfg.rounds


def test_superposition_componentwise():
    n, rounds = 12, 8
    f = random_spatial_table(n, 1)
    g = random_spatial_table(n, 2)
    a, b = 0.6, -2.3
    combined = MeasurementField(TableField(a * f.values + b * g.values))
    cfg = ChainConfig(n=n, boundary=Ring(), rounds=rounds)
    for algo in (ExponentialWeighting(0.8), FiniteWindow(3), DynamicWindow(2)):
        yc = run(cfg, combined, algo).y
        yf = run(cfg, MeasurementField(f), algo).y
        yg = run(cfg, MeasurementField(g), algo).y
        assert np.max(np.abs(yc - (a * yf + b * yg))) <= 1e-12


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(1, 11))
def test_ring_shift_equivariance_exact(seed, shift):
    n, rounds = 12, 6
    base = random_spatial_table(n, seed)
    shifted = MeasurementField(TableField(np.roll(base.values, shift)))
    cfg = ChainConfig(n=n, boundary=Ring(), rounds=rounds)
    y0 = run(cfg, MeasurementField(base), ExponentialWeighting(0.6)).y
    y1 = run(cfg, shifted, ExponentialWeighting(0.6)).y
    assert np.array_equal(np.roll(y0, shift, axis=0), y1)


def test_truncated_end_effect():
    # constant field: interior stays near 1 while the cut edge sags well below
    n, rho, rounds = 32, 0.5, 30
    cfg = ChainConfig(n=n, boundary=Truncated(), rounds=rounds)
    trace = run(cfg, MeasurementField(Constant(1.0)), ExponentialWeighting(rho))
    assert trace.y[n // 2, rounds] == pytest.approx(1.0, abs=1e-3)
    assert trace.y[0, rounds] < 0.6
    assert trace.y[n // 2, rounds] - trace.y[0, rounds] > 0.4


def test_divergence_reported_with_sensor_and_round():
    # a pathological weight band: the neighbor-row denominator underflows the
    # coefficient ratio into overflow at round 1, but y at sensor 0 already
    # leaves float range at round 0: (1e308 + 1e308) - 1e308
    from lacsim import BandedWeighting, WeightTable

    weights = np.array([[1e308] * 3, [1e-308] * 3, [1.0] * 3])
    table = WeightTable(weights, 1.0, 1, row_tol=None)
    with pytest.raises(DivergedError) as err:
        run(ChainConfig(n=3, boundary=Ring(), rounds=2),
            MeasurementField(Constant(1.0)), BandedWeighting(table))
    assert err.value.round == 0
    assert err.value.sensor == 0


def test_divergence_names_first_sensor_in_engine_order():
    from lacsim import BandedWeighting, WeightTable

    # ghost -2 reuses row 0, whose forward ratio overflows: it comes first
    weights = np.ones((4, 3))
    weights[0] = [1.0, 1e-308, 1e308]
    with pytest.raises(DivergedError) as err:
        run(ChainConfig(n=4, boundary=ZeroHalo(), rounds=2), _table([1.0] * 4),
            BandedWeighting(WeightTable(weights, 1.0, 1)))
    assert (err.value.sensor, err.value.round) == (-2, 1)
    # the initialization stage is checked too
    with pytest.raises(DivergedError) as err:
        run(ChainConfig(n=4, boundary=Ring(), rounds=0), _table([1.0, 1e308, 1e308, 1.0]),
            BandedWeighting(WeightTable(np.full((4, 3), 10.0), 1.0, 1)))
    assert (err.value.sensor, err.value.round) == (1, 0)


@pytest.mark.parametrize("boundary, sensor", [(Ring(), 2), (ZeroHalo(), -2), (Truncated(), 2)])
def test_divergence_names_the_first_of_several_sensors(boundary, sensor):
    from lacsim import BandedWeighting, WeightTable

    # a forward ratio of 1e300 / 1e-300 overflows at sensors 2 and 5 and, on
    # the zero halo, at the ghosts left of sensor 0, which reuse its row
    weights = np.ones((8, 3))
    weights[[2, 5, 0], 2] = 1e300
    weights[[3, 6, 0], 1] = 1e-300
    with pytest.raises(DivergedError) as err:
        run(ChainConfig(n=8, boundary=boundary, rounds=2), _table([1.0] * 8),
            BandedWeighting(WeightTable(weights, 1.0, 1)))
    assert (err.value.sensor, err.value.round) == (sensor, 1)


@pytest.mark.parametrize("value, rounds, round_", [(1e308, 0, 0), (6e307, 2, 1)])
def test_divergence_of_y_alone_is_reported(value, rounds, round_):
    # the glue f + b - w x / K overflows while both sums stay finite; before,
    # `run` returned y = inf at every sensor with no error
    from lacsim import BandedWeighting, WeightTable

    with pytest.raises(DivergedError) as err:
        run(ChainConfig(n=5, boundary=Ring(), rounds=rounds), MeasurementField(Constant(value)),
            BandedWeighting(WeightTable(np.ones((5, 3)), 1.0, 1)))
    assert (err.value.sensor, err.value.round) == (0, round_)


def test_trace_csv_round_trips():
    cfg = ChainConfig(n=5, boundary=Ring(), rounds=3)
    field = MeasurementField(random_spatial_table(5, 3))
    trace = run(cfg, field, ExponentialWeighting(0.5))
    text = trace_to_csv(trace)
    lines = text.strip().splitlines()
    assert lines[0] == "round,sensor,y"
    assert len(lines) == 1 + 5 * 4
    k, i, y = lines[7].split(",")
    assert float(y) == trace.y[int(i), int(k)]


def test_trace_csv_has_slot_columns_for_dynamic_window():
    cfg = ChainConfig(n=7, boundary=Ring(), rounds=3)
    trace = run(cfg, MeasurementField(Constant(1.0)), DynamicWindow(2))
    lines = trace_to_csv(trace).strip().splitlines()
    assert lines[0] == "round,sensor,y,z0,z1,z2"
    assert len(lines[1].split(",")) == 6
