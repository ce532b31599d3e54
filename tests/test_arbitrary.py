import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lacsim import (BandedWeighting, ChainConfig, Constant, ExponentialWeighting, FBState,
                    MeasurementField, Ring, TerminatedError, ValidationError, WeightTable,
                    ZeroHalo, fb_transition, glue, random_spatial_table, run, validate_weights)
from lacsim import oracle


def test_geometric_table_passes_validation_at_tail_tolerance():
    rho, radius = 0.5, 10
    table = WeightTable.geometric(rho, radius, 8)
    assert table.row_tol == 2.0 * rho ** radius / (1.0 - rho)
    assert validate_weights(table) is None


def test_scaled_row_named_in_the_error():
    table = WeightTable.geometric(0.5, 6, 8)
    weights = table.weights.copy()
    weights[3] *= 1.5
    bad = WeightTable(weights, table.row_sum, table.radius, row_tol=table.row_tol)
    total = float(bad.row_totals()[3])
    assert total == pytest.approx(1.5 * table.row_totals()[0])
    message = f"weight rows deviate from the common total beyond {table.row_tol}: ((3, {total!r}),)"
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        validate_weights(bad)


def test_zero_entry_raises():
    table = WeightTable.geometric(0.5, 4, 6)
    weights = table.weights.copy()
    weights[2, 4 + 1] = 0.0
    for row_tol in (1.0, None):
        with pytest.raises(ValidationError, match="^weight table contains zero entries$"):
            validate_weights(WeightTable(weights, table.row_sum, 4, row_tol=row_tol))


def _validate_weights_by_entry(table):
    """The offenders validate_weights looks for, found by one Python
    comparison per entry and per row, kept as the reference for the array
    form: the zero entries as (sensor, offset) and, with `row_tol` set, the
    rows outside it as (sensor, total)."""
    zeros = []
    rows, cols = table.weights.shape
    for s in range(rows):
        for c in range(cols):
            if table.weights[s, c] == 0.0:
                zeros.append((s, c - table.radius))
    bad = []
    for s, total in enumerate(table.row_totals()):
        if table.row_tol is not None and abs(total - table.row_sum) > table.row_tol:
            bad.append((s, float(total)))
    return zeros, bad


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 12), st.integers(1, 6),
       st.sampled_from([0.0, 1e-12, 0.05, 0.5, None]))
def test_validate_weights_matches_per_entry_loop(seed, n, radius, tol):
    # it raises exactly when the reference finds an offender: a zero entry
    # first, else the first four rows outside `row_tol`
    rng = np.random.default_rng(seed)
    base = WeightTable.geometric(0.5, radius, n)
    weights = base.weights * rng.choice([1.0, 1.0, 1.0, 0.9, 2.5], size=(n, 1))
    if rng.random() < 0.5:
        weights[rng.random(weights.shape) < 0.15] = 0.0
    table = WeightTable(weights, base.row_sum, radius, row_tol=tol)
    zeros, bad = _validate_weights_by_entry(table)
    if not zeros and not bad:
        assert validate_weights(table) is None
        return
    with pytest.raises(ValidationError) as err:
        validate_weights(table)
    assert str(err.value) == ("weight table contains zero entries" if zeros else
                              f"weight rows deviate from the common total beyond {tol}: "
                              f"{tuple(bad[:4])}")


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


def _message(call):
    with pytest.raises(ValidationError) as err:
        call()
    return str(err.value)


def test_oracle_rejects_the_tables_run_rejects_with_its_messages():
    # before, the oracle never checked a table: it summed one with a zero
    # weight that run rejects (0.10722752791522454 at sensor 0, k=3)
    n, radius = 16, 3
    geometric = WeightTable.geometric(0.6, radius, n)
    zero = geometric.weights.copy()
    zero[5, radius + 1] = 0.0
    scaled = geometric.weights.copy()
    scaled[7] *= 2.0  # its total misses row_sum by more than row_tol
    field = MeasurementField(random_spatial_table(n, 11))
    cfg = ChainConfig(n=n, boundary=Ring(), rounds=radius)
    for weights, match in ((zero, "weight table contains zero entries"),
                           (scaled, "weight rows deviate from the common total beyond")):
        table = WeightTable(weights, geometric.row_sum, radius, row_tol=geometric.row_tol)
        messages = {_message(lambda: run(cfg, field, BandedWeighting(table))),
                    _message(lambda: oracle.rows(BandedWeighting(table), field, n, Ring(), 3)),
                    _message(lambda: oracle.arbitrary_target(field, 0, table, 3, n=n))}
        assert len(messages) == 1 and messages.pop().startswith(match)
    # without row_tol, rows may miss row_sum, and all three take the table
    table = WeightTable(scaled, geometric.row_sum, radius, row_tol=None)
    trace = run(cfg, field, BandedWeighting(table))
    row = oracle.rows(BandedWeighting(table), field, n, Ring(), radius)
    assert oracle.arbitrary_target(field, 7, table, radius, n=n) == row[7]
    assert np.allclose(trace.y[:, radius], row, rtol=0, atol=1e-12)


def test_a_banded_rule_checks_its_table_once_when_built(monkeypatch):
    import lacsim.arbitrary_weights
    import lacsim.chain

    calls = []

    def counted(table):
        calls.append(table)
        return validate_weights(table)

    monkeypatch.setattr(lacsim.arbitrary_weights, "validate_weights", counted)
    monkeypatch.setattr(lacsim.chain, "validate_weights", counted)
    table = WeightTable.geometric(0.5, 4, 12)
    algo = BandedWeighting(table)
    assert calls == [table]
    field = MeasurementField(random_spatial_table(12, 5))
    for rounds in (0, 2, 4):
        run(ChainConfig(n=12, boundary=Ring(), rounds=rounds), field, algo)
    # the scalar oracle builds its rule object, and so checks it, once per case
    for i in range(12):
        oracle.arbitrary_target(field, i, table, 3, n=12)
    assert calls == [table, table]


def _weights_csv(table):
    """`sensor,offset,weight` rows of `table`, each weight to 17 digits."""
    return "sensor,offset,weight\n" + "".join(
        f"{s},{j - table.radius},{w:.17g}\n" for (s, j), w in np.ndenumerate(table.weights))


def test_csv_round_trip():
    table = WeightTable.geometric(0.45, 3, 5)
    text = _weights_csv(table)
    parsed = WeightTable.from_csv(text, table.row_sum, 5, row_tol=table.row_tol)
    assert parsed.radius == 3
    assert np.allclose(parsed.weights, table.weights, rtol=0, atol=0)
    with pytest.raises(ValidationError):
        WeightTable.from_csv("bogus,header\n1,2\n", 1.0, 5)


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



@pytest.mark.parametrize("change, message", [
    ({"radius": 2.0}, r"^radius must be an integer >= 0, got 2\.0$"),
    ({"radius": -1}, r"^radius must be an integer >= 0, got -1$"),
    ({"radius": True}, r"^radius must be an integer >= 0, got True$"),
    ({"row_sum": None}, r"^row_sum must be finite and nonzero, got None$"),
    ({"row_sum": "3"}, r"^row_sum must be finite and nonzero, got '3'$"),
    ({"row_sum": True}, r"^row_sum must be finite and nonzero, got True$"),
    ({"row_tol": math.nan}, r"^row_tol must be None or finite and >= 0, got nan$"),
    ({"row_tol": -1.0}, r"^row_tol must be None or finite and >= 0, got -1\.0$"),
    ({"row_tol": math.inf}, r"^row_tol must be None or finite and >= 0, got inf$"),
    ({"row_tol": "0.1"}, r"^row_tol must be None or finite and >= 0, got '0\.1'$"),
], ids=["radius-float", "radius-negative", "radius-bool", "row_sum-None", "row_sum-str",
        "row_sum-bool", "row_tol-nan", "row_tol-negative", "row_tol-inf", "row_tol-str"])
def test_table_rejects_numbers_out_of_domain_up_front(change, message):
    # a float radius built and then failed inside `run` with a bare TypeError,
    # a bool row_sum passed as 1, a NaN row_tol turned the row check off, and
    # a negative one rejected every table
    args = {"weights": np.ones((8, 5)), "row_sum": 5.0, "radius": 2, "row_tol": None} | change
    with pytest.raises(ValidationError, match=message):
        WeightTable(**args)


def test_table_takes_radius_zero_and_numpy_numbers():
    # `from_csv` yields radius 0 for a band of offset 0 alone
    table = WeightTable(np.full((3, 1), 2.0), np.float64(2.0), np.int64(0), row_tol=np.float32(0))
    assert type(table.radius) is int and table.radius == 0
    BandedWeighting(table)

@pytest.mark.parametrize("rho", [0.0, 1.0, -0.5, 1.5])
def test_geometric_table_names_the_rate_it_rejects(rho):
    with pytest.raises(ValidationError,
                       match=rf"^rho must lie strictly inside \(0, 1\), got {rho!r}$"):
        WeightTable.geometric(rho, 3, 8)
