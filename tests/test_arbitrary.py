import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lacsim import (BandedWeighting, ChainConfig, Constant, ExponentialWeighting, FBState,
                    MeasurementField, Ring, TerminatedError, ValidationError, WeightReport,
                    WeightTable, ZeroHalo, fb_transition, glue, random_spatial_table, run,
                    validate_weights)
from lacsim import oracle


def test_geometric_table_passes_validation_at_tail_tolerance():
    rho, radius = 0.5, 10
    table = WeightTable.geometric(rho, radius, 8)
    tol = 2.0 * rho ** radius / (1.0 - rho)
    report = validate_weights(table, tol)
    assert report.ok
    assert report.zero_entries == ()
    assert report.bad_rows == ()


def test_scaled_row_named_in_report():
    table = WeightTable.geometric(0.5, 6, 8)
    weights = table.weights.copy()
    weights[3] *= 1.5
    bad = WeightTable(weights, table.row_sum, table.radius)
    report = validate_weights(bad, 2.0 * 0.5 ** 6 / 0.5)
    assert not report.ok
    assert [s for s, _ in report.bad_rows] == [3]
    assert report.bad_rows[0][1] == pytest.approx(1.5 * table.row_totals()[0])


def test_zero_entry_reported():
    table = WeightTable.geometric(0.5, 4, 6)
    weights = table.weights.copy()
    weights[2, 4 + 1] = 0.0
    report = validate_weights(WeightTable(weights, table.row_sum, 4), 1.0)
    assert not report.ok
    assert (2, 1) in report.zero_entries


def _validate_weights_by_entry(table, tol):
    """validate_weights as one Python comparison per entry and per row, kept
    as the reference for the array form."""
    zeros = []
    rows, cols = table.weights.shape
    for s in range(rows):
        for c in range(cols):
            if table.weights[s, c] == 0.0:
                zeros.append((s, c - table.radius))
    bad = []
    for s, total in enumerate(table.row_totals()):
        if abs(total - table.row_sum) > tol:
            bad.append((s, float(total)))
    return WeightReport(ok=not zeros and not bad, zero_entries=tuple(zeros),
                        bad_rows=tuple(bad), tol=tol)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 12), st.integers(1, 6),
       st.sampled_from([0.0, 1e-12, 0.05, 0.5, math.inf]))
def test_validate_weights_matches_per_entry_loop(seed, n, radius, tol):
    rng = np.random.default_rng(seed)
    base = WeightTable.geometric(0.5, radius, n)
    weights = base.weights * rng.choice([1.0, 1.0, 1.0, 0.9, 2.5], size=(n, 1))
    weights[rng.random(weights.shape) < 0.15] = 0.0
    table = WeightTable(weights, base.row_sum, radius)
    got, expected = validate_weights(table, tol), _validate_weights_by_entry(table, tol)
    assert got == expected
    for s, total in got.bad_rows:
        assert type(s) is int and type(total) is float
    assert all(type(s) is int and type(c) is int for s, c in got.zero_entries)
    if tol == math.inf:
        assert got.bad_rows == ()


def test_report_serializes():
    report = validate_weights(WeightTable.geometric(0.4, 5, 4), 1e-1)
    d = report.to_dict()
    assert d["ok"] is True and d["tol"] == 1e-1


def test_fb_initialization_identity():
    row = (0.25, 1.0, 0.25)
    state = fb_transition(0, (), None, None, 2.0, row, None, None, 1.5)
    assert state == FBState(2.0 / 1.5, 2.0 / 1.5)
    assert glue(state, 2.0, 1.0, 1.5) == pytest.approx(2.0 / 1.5)


def test_fb_terminates_past_radius():
    row = (0.25, 1.0, 0.25)
    with pytest.raises(TerminatedError):
        fb_transition(2, (FBState(0.0, 0.0),), None, None, 0.0, row, row, row, 1.0)


def test_geometric_band_matches_exponential_rule():
    # rho^|offset| weights with the closed-form total reproduce the symmetric
    # exponential traces at matching truncation
    n, rounds, rho, radius = 20, 9, 0.55, 9
    field = MeasurementField(random_spatial_table(n, 17))
    table = WeightTable.geometric(rho, radius, n)
    for boundary in (Ring(), ZeroHalo()):
        cfg = ChainConfig(n=n, boundary=boundary, rounds=rounds)
        banded = run(cfg, field, BandedWeighting(table))
        exp = run(cfg, field, ExponentialWeighting(rho))
        assert np.max(np.abs(banded.y - exp.y)) <= 1e-12


def test_partial_sum_identity_every_round():
    n, rounds, radius = 16, 7, 7
    field = MeasurementField(random_spatial_table(n, 23))
    table = WeightTable.geometric(0.7, radius, n)
    cfg = ChainConfig(n=n, boundary=Ring(), rounds=rounds)
    trace = run(cfg, field, BandedWeighting(table))
    for k in range(rounds + 1):
        for i in range(n):
            direct = oracle.arbitrary_target(field, i, table, k, n=n)
            assert trace.y[i, k] == pytest.approx(direct, abs=1e-12)


def test_direction_separation():
    # perturbing forward of sensor i never changes its backward sum: the glued
    # values at sensors left of the bump stay identical until the bump's hop
    # distance, because only the forward stream carries it
    n, rounds, radius = 14, 6, 6
    base = random_spatial_table(n, 29)
    bumped = base.values.copy()
    bump_at = 9
    bumped[bump_at] += 1.0
    table = WeightTable.geometric(0.6, radius, n)
    cfg = ChainConfig(n=n, boundary=ZeroHalo(), rounds=rounds)
    y0 = run(cfg, MeasurementField(base), BandedWeighting(table)).y
    from lacsim.fields import TableField
    y1 = run(cfg, MeasurementField(TableField(bumped)), BandedWeighting(table)).y
    probe = 5  # bump sits 4 hops forward of this sensor
    delta = np.abs(y1[probe] - y0[probe])
    assert np.all(delta[:4] == 0.0)
    assert delta[4] > 0.0


def test_constant_field_approaches_one_with_validated_table():
    n, radius = 25, 12
    table = WeightTable.geometric(0.5, radius, n)
    cfg = ChainConfig(n=n, boundary=Ring(), rounds=radius)
    trace = run(cfg, MeasurementField(Constant(1.0)), BandedWeighting(table))
    assert trace.y[:, radius] == pytest.approx(1.0, abs=2 * 0.5 ** radius / 0.5)


def test_zero_field_stays_zero():
    table = WeightTable.geometric(0.6, 5, 12)
    cfg = ChainConfig(n=12, boundary=Ring(), rounds=5)
    trace = run(cfg, MeasurementField(Constant(0.0)), BandedWeighting(table))
    assert np.all(trace.y == 0.0)


def test_run_rejects_zero_entries_and_bad_rows():
    table = WeightTable.geometric(0.5, 4, 10)
    weights = table.weights.copy()
    weights[4, 0] = 0.0
    cfg = ChainConfig(n=10, boundary=Ring(), rounds=3)
    with pytest.raises(ValidationError):
        run(cfg, MeasurementField(Constant(1.0)),
            BandedWeighting(WeightTable(weights, table.row_sum, 4)))
    weights2 = table.weights.copy()
    weights2[4] *= 3.0
    with pytest.raises(ValidationError):
        run(cfg, MeasurementField(Constant(1.0)),
            BandedWeighting(WeightTable(weights2, table.row_sum, 4,
                                        row_tol=table.row_tol)))
    # row_tol=None opts out of the row check (raw weighted sums)
    trace = run(cfg, MeasurementField(Constant(1.0)),
                BandedWeighting(WeightTable(weights2, table.row_sum, 4, row_tol=None)))
    assert trace.y.shape == (10, 4)


def test_csv_round_trip():
    table = WeightTable.geometric(0.45, 3, 5)
    text = table.to_csv()
    parsed = WeightTable.from_csv(text, table.row_sum, row_tol=table.row_tol)
    assert parsed.radius == 3
    assert np.allclose(parsed.weights, table.weights, rtol=0, atol=0)
    with pytest.raises(ValidationError):
        WeightTable.from_csv("bogus,header\n1,2\n", 1.0)


def test_table_shape_validation():
    with pytest.raises(ValidationError):
        WeightTable(np.ones((4, 6)), 1.0, 3)  # needs 2*3+1 columns
    with pytest.raises(ValidationError):
        WeightTable(np.ones((4, 7)), 0.0, 3)


@pytest.mark.parametrize("row_sum", [math.nan, math.inf, -math.inf])
def test_table_rejects_a_row_sum_that_is_not_finite_and_nonzero(row_sum):
    # before, NaN made `run` raise DivergedError at round 0 and inf gave an
    # all-zero trace
    with pytest.raises(ValidationError, match=r"^row_sum must be finite and nonzero, got "):
        WeightTable(np.ones((4, 3)), row_sum, 1)


@pytest.mark.parametrize("rho", [0.0, 1.0, -0.5, 1.5])
def test_geometric_table_names_the_rate_it_rejects(rho):
    with pytest.raises(ValidationError,
                       match=rf"^rho must lie strictly inside \(0, 1\), got {rho!r}$"):
        WeightTable.geometric(rho, 3, 8)
