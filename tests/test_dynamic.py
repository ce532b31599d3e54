import tracemalloc

import numpy as np
import pytest

from lacsim import (ChainConfig, Constant, DivergedError, DynamicExponential, DynamicWindow,
                    ExponentialWeighting, FiniteWindow, MeasurementField, Ring, TableField,
                    TemporalCosine, Truncated, ZeroHalo, assemble_y, random_space_time_table,
                    random_spatial_table, run, z_slot_transition)
from lacsim import oracle
from lacsim.dynamic_rules import phase_groups, slot_phase


def test_dyn_exp_first_rounds_closed_form():
    n, rho = 10, 0.6
    lam = (1 - rho) / (1 + rho)
    field = MeasurementField(random_space_time_table(n, 4, 2))
    x = field.kind.at
    cfg = ChainConfig(n=n, boundary=Ring(), rounds=1)
    trace = run(cfg, field, DynamicExponential(rho))
    for i in range(n):
        assert trace.y[i, 0] == pytest.approx(lam * x(i, 0), abs=1e-15)
        expected = lam * (x(i, 1) + rho * (x((i - 1) % n, 0) + x((i + 1) % n, 0)))
        assert trace.y[i, 1] == pytest.approx(expected, abs=1e-14)


def test_dyn_exp_static_field_reduces_to_static_rule():
    n, rounds = 12, 10
    static = random_spatial_table(n, 3)
    # identical columns: constant in time
    dyn_values = np.tile(static.values[:, None], (1, rounds + 1))
    cfg = ChainConfig(n=n, boundary=Ring(), rounds=rounds)
    a = run(cfg, MeasurementField(TableField(dyn_values)), DynamicExponential(0.7))
    b = run(cfg, MeasurementField(static), ExponentialWeighting(0.7))
    assert np.max(np.abs(a.y - b.y)) <= 1e-13


def test_dyn_exp_closed_form_every_round():
    n, rounds, rho = 12, 9, 0.8
    field = MeasurementField(random_space_time_table(n, rounds + 1, 5))
    for boundary in (Ring(), ZeroHalo()):
        cfg = ChainConfig(n=n, boundary=boundary, rounds=rounds)
        trace = run(cfg, field, DynamicExponential(rho))
        for k in range(rounds + 1):
            for i in range(n):
                direct = oracle.dyn_exp_target(field, i, k, rho, n=n, boundary=boundary)
                assert trace.y[i, k] == pytest.approx(direct, abs=1e-12)


def test_slot_phase_bookkeeping():
    assert slot_phase(0, 0, 2) == 0
    assert slot_phase(0, 1, 2) is None   # still at zero initialization
    assert slot_phase(3, 0, 2) == 0      # restart: 3 = 0 mod 3
    assert slot_phase(3, 1, 2) == 2
    assert slot_phase(3, 2, 2) == 1


@pytest.mark.parametrize("half_width", [1, 2, 3, 4, 8])
@pytest.mark.parametrize("most", [1, 2, 100])
def test_phase_groups_hold_each_started_slot_once_at_its_stage(half_width, most):
    for k in range(3 * (half_width + 1)):
        stages = {}
        for phase, lo, hi in phase_groups(k, half_width, most):
            assert 0 <= lo < hi <= min(lo + most, half_width + 1)
            for slot in range(lo, hi):
                assert slot not in stages
                stages[slot] = phase
        phases = {j: slot_phase(k, j, half_width) for j in range(half_width + 1)}
        # phases 3..half_width are one stage of the window recursion
        assert stages == {j: min(p, 3) for j, p in phases.items() if p is not None}


def test_slot_worked_sequence_half_width_two():
    # the L = 2 sequence: slot 0 records x(0)/5, fetches 1-hop at k=1,
    # 2-hop at k=2, restarts from x(3) at k=3
    n, L = 12, 2
    field = MeasurementField(random_space_time_table(n, 5, 7))
    x = field.kind.at
    cfg = ChainConfig(n=n, boundary=Ring(), rounds=4)
    trace = run(cfg, field, DynamicWindow(L))
    z = trace.z
    for i in range(n):
        assert z[i, 0, 0] == pytest.approx(x(i, 0) / 5, abs=1e-15)
        assert z[i, 0, 1] == 0.0 and z[i, 0, 2] == 0.0
        assert z[i, 1, 0] == pytest.approx((x(i, 0) + x((i - 1) % n, 0) + x((i + 1) % n, 0)) / 5,
                                           abs=1e-14)
        assert z[i, 2, 0] == pytest.approx(
            z[i, 1, 0] + (x((i - 2) % n, 0) + x((i + 2) % n, 0)) / 5, abs=1e-14)
        assert z[i, 3, 0] == pytest.approx(x(i, 3) / 5, abs=1e-15)  # restart
        assert z[i, 3, 2] == pytest.approx(
            z[i, 2, 2] + (x((i - 1) % n, 2) + x((i + 1) % n, 2)) / 5, abs=1e-14)


def test_assembled_y_round_three_display():
    n, L = 10, 2
    field = MeasurementField(random_space_time_table(n, 4, 11))
    x = field.kind.at
    cfg = ChainConfig(n=n, boundary=Ring(), rounds=3)
    trace = run(cfg, field, DynamicWindow(L))
    for i in range(n):
        expected = (x(i, 3) + x((i - 1) % n, 2) + x((i + 1) % n, 2)
                    + x((i - 2) % n, 1) + x((i + 2) % n, 1)) / 5
        assert trace.y[i, 3] == pytest.approx(expected, abs=1e-13)


def test_dyn_window_constant_field_reaches_constant():
    cfg = ChainConfig(n=9, boundary=Ring(), rounds=8)
    trace = run(cfg, MeasurementField(Constant(2.5)), DynamicWindow(3))
    for k in range(4, 9):
        assert trace.y[:, k] == pytest.approx(2.5, abs=1e-14)


def test_dyn_window_static_field_matches_window_at_full_round():
    n, L = 15, 4
    static = random_spatial_table(n, 13)
    dyn_values = np.tile(static.values[:, None], (1, L + 1))
    cfg = ChainConfig(n=n, boundary=Ring(), rounds=L)
    a = run(cfg, MeasurementField(TableField(dyn_values)), DynamicWindow(L))
    b = run(cfg, MeasurementField(static), FiniteWindow(L))
    assert np.max(np.abs(a.y[:, L] - b.y[:, L])) <= 1e-13


def test_dyn_window_closed_form_every_round():
    n, rounds, L = 12, 10, 3
    field = MeasurementField(random_space_time_table(n, rounds + 1, 17))
    for boundary in (Ring(), ZeroHalo()):
        cfg = ChainConfig(n=n, boundary=boundary, rounds=rounds)
        trace = run(cfg, field, DynamicWindow(L))
        for k in range(rounds + 1):
            for i in range(n):
                direct = oracle.dyn_window_target(field, i, k, L, n=n, boundary=boundary)
                assert trace.y[i, k] == pytest.approx(direct, abs=1e-12)


def test_slot_independence():
    # perturbing x at step t only moves the slot that owns t (t mod L+1)
    n, rounds, L = 10, 7, 2
    base = random_space_time_table(n, rounds + 1, 19)
    t_hit = 4
    bumped = base.values.copy()
    bumped[3, t_hit] += 1.0
    cfg = ChainConfig(n=n, boundary=Ring(), rounds=rounds)
    z0 = run(cfg, MeasurementField(base), DynamicWindow(L)).z
    z1 = run(cfg, MeasurementField(TableField(bumped)), DynamicWindow(L)).z
    owner = t_hit % (L + 1)
    diff = np.abs(z1 - z0)
    for slot in range(L + 1):
        if slot == owner:
            assert np.max(diff[:, :, slot]) > 0.0
        else:
            assert np.max(diff[:, :, slot]) == 0.0


def test_slot_coverage_each_step_owned_once():
    L = 3
    for k in range(20):
        owners = [j for j in range(L + 1)
                  if slot_phase(k, j, L) == 0]
        assert owners == [k % (L + 1)]


def test_lag_structure_one_hop_per_round():
    n, rounds, L = 12, 9, 3
    base = random_space_time_table(n, rounds + 1, 23)
    i0, m, t0 = 4, 2, 3
    bumped = base.values.copy()
    bumped[i0 + m, t0] += 1.0
    cfg = ChainConfig(n=n, boundary=Ring(), rounds=rounds)
    for algo in (DynamicExponential(0.7), DynamicWindow(L)):
        y0 = run(cfg, MeasurementField(base), algo).y
        y1 = run(cfg, MeasurementField(TableField(bumped)), algo).y
        delta = np.abs(y1[i0] - y0[i0])
        assert np.all(delta[:t0 + m] == 0.0)
        assert delta[t0 + m] > 0.0


def test_dyn_window_beyond_window_never_arrives():
    n, rounds, L = 14, 10, 2
    base = random_space_time_table(n, rounds + 1, 27)
    i0, m, t0 = 4, 4, 2  # m > L: outside the window
    bumped = base.values.copy()
    bumped[i0 + m, t0] += 1.0
    cfg = ChainConfig(n=n, boundary=Ring(), rounds=rounds)
    y0 = run(cfg, MeasurementField(base), DynamicWindow(L)).y
    y1 = run(cfg, MeasurementField(TableField(bumped)), DynamicWindow(L)).y
    assert np.array_equal(y0[i0], y1[i0])


def test_dyn_window_payload_is_slot_count():
    L = 3
    cfg = ChainConfig(n=8, boundary=Ring(), rounds=5)
    trace = run(cfg, MeasurementField(Constant(1.0)), DynamicWindow(L))
    assert np.all(trace.audit["size"] == L + 1)


def test_assemble_y_zero_slots_contribute_nothing():
    z_now = (0.4, 0.0, 0.0)
    z_prev = (0.1, 0.0, 0.0)
    # at k=0 the restarted slot is 0; untouched slots hold zeros
    assert assemble_y((0.4, 0.0, 0.0), (0.0, 0.0, 0.0), 0, 2) == 0.4
    # at k=3 slot 0 restarts; others enter by increment
    assert assemble_y(z_now, z_prev, 3, 2) == pytest.approx(0.4)


def test_z_slot_zero_before_birth():
    assert z_slot_transition(1, 2, (0.0,), (0.0,), (0.0,), 9.9, 2) == 0.0


_ALTERNATING = 1.79e308 * (-1.0) ** np.arange(9)  # x(k) of rounds 0..8, near the float limit


@pytest.mark.parametrize("algo, rows, expected", [
    # every sensor measures x(k): the first slot past its restart overflows
    (DynamicWindow(3), slice(None), {Ring: (0, 3), ZeroHalo: (2, 3), Truncated: (2, 3)}),
    (DynamicWindow(2), slice(None), {Ring: (0, 2), ZeroHalo: (1, 2), Truncated: (1, 2)}),
    # sensor 3 alone measures x(k): its temporal difference overflows
    (DynamicExponential(0.9), 3, {Ring: (3, 1), ZeroHalo: (3, 1), Truncated: (3, 1)}),
])
@pytest.mark.parametrize("boundary", [Ring, ZeroHalo, Truncated])
def test_dynamic_rules_name_the_first_diverged_sensor_and_round(algo, rows, expected, boundary):
    values = np.zeros((8, 9))
    values[rows] = _ALTERNATING
    with pytest.raises(DivergedError) as err:
        run(ChainConfig(n=8, boundary=boundary(), rounds=8),
            MeasurementField(TableField(values)), algo)
    assert (err.value.sensor, err.value.round) == expected[boundary]


def test_dyn_window_peak_memory_is_a_few_slot_blocks():
    # beyond the trace, the engine holds three (L+1, n+2) state buffers and
    # the (R+1, n) measurements; stepping the slots may add only temporaries
    # of a few slot blocks at a time, never one per slot per operation
    n, rounds, L = 4096, 30, 20
    config = ChainConfig(n=n, boundary=Ring(), rounds=rounds)
    field = MeasurementField(TemporalCosine(1.0, 0.3))
    tracemalloc.start()
    try:
        trace = run(config, field, DynamicWindow(L))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    block = (L + 1) * (n + 2) * 8
    assert peak <= trace.y.nbytes + trace.z.nbytes + 7 * block
