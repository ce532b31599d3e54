import itertools
import math
import sys
import threading
import time
import typing

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import lacsim.oracle
from lacsim import (AlgorithmSpec, AsymmetricWeighting, BandedWeighting, ChainConfig, Constant,
                    DynamicExponential, DynamicWindow, ExponentialWeighting, FiniteWindow,
                    GlobalAverage, Impulse, MeasurementField, Noise, OutOfDomainError,
                    PerSensorWindow, Ring, SpatialCosine, SumField, TableField,
                    TemporalCosine, Truncated, ValidationError, WeightTable, ZeroHalo,
                    evaluate_field, random_space_time_table, random_spatial_table, run)
from lacsim import analysis, oracle, static_rules


def test_exp_target_constant_partial_sums():
    c, rho = 2.0, 0.6
    f = MeasurementField(Constant(c))
    lam = (1 - rho) / (1 + rho)
    for k in (0, 1, 5):
        expected = c * lam * (1 + 2 * sum(rho ** j for j in range(1, k + 1)))
        assert oracle.exp_target(f, 3, rho, n=9, k=k) == pytest.approx(expected, abs=1e-14)
    # a deep truncation approaches the limit c
    assert oracle.exp_target(f, 3, rho, n=9, k=100) == pytest.approx(c, abs=1e-11)


def test_exp_target_impulse_zero_extension():
    f = MeasurementField(Impulse(center=0))
    vals = [oracle.exp_target(f, i, 0.5, n=8, boundary=ZeroHalo(), k=60)
            for i in (0, 1, 2)]
    assert vals == pytest.approx([1 / 3, 1 / 6, 1 / 12], abs=1e-13)


def test_exp_target_harmonic_gain():
    # a ring harmonic passes through with gain h_exp and no phase shift
    n, m, rho = 64, 4, 0.8
    omega = 2 * math.pi * m / n
    f = MeasurementField(SpatialCosine(1.0, omega))
    gain = analysis.h_exp(rho, omega)
    for i in (0, 3, 17):
        direct = oracle.exp_target(f, i, rho, n=n, k=200)
        assert direct == pytest.approx(gain * math.cos(omega * i), abs=1e-11)


def exp_tail_bound(rho: float, k: int, m: float) -> float:
    """Magnitude of everything the k-term partial sum of values |x| <= m discards."""
    lam = (1.0 - rho) / (1.0 + rho)
    return lam * 2.0 * m * rho ** (k + 1) / (1.0 - rho)


def test_exp_tail_bound_is_a_bound():
    rho, n = 0.7, 16
    f = MeasurementField(random_spatial_table(n, 3))
    m = _chain_max(f, n)
    full = oracle.exp_target(f, 5, rho, n=n, k=150)
    for k in (0, 2, 6, 12):
        part = oracle.exp_target(f, 5, rho, n=n, k=k)
        assert abs(full - part) <= exp_tail_bound(rho, k, m) + 1e-12


def test_window_target_three_point():
    f = MeasurementField(TableField(np.array([0.0, 3.0, 6.0])))
    assert oracle.window_target(f, 1, 1, n=3) == pytest.approx(3.0)


def test_window_target_ring_capacity():
    f = MeasurementField(Constant(1.0))
    with pytest.raises(ValidationError):
        oracle.window_target(f, 0, 4, n=8)


def test_variable_window_target_uniform_reduction():
    n = 12
    f = MeasurementField(random_spatial_table(n, 5))
    widths = (3,) * n
    for i in range(n):
        assert oracle.variable_window_target(f, i, widths, n=n) == \
            pytest.approx(oracle.window_target(f, i, 3, n=n), abs=1e-15)


def test_asym_target_forward_weight():
    f = MeasurementField(Impulse(center=1))
    # one hop forward of the spike: scale * rho_f
    val = oracle.asym_target(f, 0, 0.5, 0.25, n=8, boundary=ZeroHalo(), k=60)
    assert val == pytest.approx(3 / 28, abs=1e-13)


def test_arbitrary_target_geometric_equals_exp_target():
    n, rho, radius = 17, 0.6, 8
    f = MeasurementField(random_spatial_table(n, 7))
    table = WeightTable.geometric(rho, radius, n)
    for i in (0, 5, 11):
        a = oracle.arbitrary_target(f, i, table, radius, n=n)
        # the geometric row total differs from (1+rho)/(1-rho) by the tail
        b = oracle.exp_target(f, i, rho, n=n, k=radius)
        assert a == pytest.approx(b, abs=2 * rho ** radius)


def test_dyn_targets_reduce_to_static_for_constant_time():
    n, rounds = 10, 6
    static = random_spatial_table(n, 9)
    dyn = MeasurementField(TableField(np.tile(static.values[:, None], (1, rounds + 1))))
    stat = MeasurementField(static)
    for k in range(rounds + 1):
        for i in (0, 4, 9):
            assert oracle.dyn_exp_target(dyn, i, k, 0.7, n=n) == \
                pytest.approx(oracle.exp_target(stat, i, 0.7, n=n, k=k), abs=1e-14)
            assert oracle.dyn_window_target(dyn, i, k, 3, n=n) == \
                pytest.approx(oracle.window_target(stat, i, 3, n=n, k=k), abs=1e-15)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 12), st.data(), st.floats(0.01, 0.99),
       st.sampled_from([Ring(), ZeroHalo()]))
def test_static_rows_are_the_dynamic_rows_of_a_field_frozen_in_time(n, data, rho, boundary):
    # the static and dynamic targets share one sum; on a field constant in
    # time the dynamic row at k is the static row truncated at k, bit for bit
    cell = st.sampled_from((0.0, -0.0, 1.0, -2.5)) | st.floats(-1e3, 1e3)
    kind = data.draw(st.sampled_from([
        TableField(np.array(data.draw(st.lists(cell, min_size=n, max_size=n)))),
        SpatialCosine(data.draw(st.floats(-2, 2)), data.draw(st.floats(-3, 3)),
                      data.draw(st.floats(-1, 1))),
        Impulse(center=data.draw(st.integers(-1, n)))]))
    field = MeasurementField(kind)
    half_width = data.draw(st.integers(1, max(1, (n - 1) // 2)))
    assume(not isinstance(boundary, Ring) or n >= 2 * half_width + 1)
    ks = range(2 * half_width + 3)
    for static, dynamic in ((ExponentialWeighting(rho), DynamicExponential(rho)),
                            (FiniteWindow(half_width), DynamicWindow(half_width))):
        assert oracle.rows(static, field, n, boundary, ks).tobytes() \
            == oracle.rows(dynamic, field, n, boundary, ks).tobytes()


def test_dyn_exp_target_first_round_display():
    n = 8
    f = MeasurementField(random_spatial_table(n, 11))  # static values, lagged args still exercise indices
    lam = (1 - 0.6) / (1 + 0.6)
    x = f.kind.at
    got = oracle.dyn_exp_target(f, 2, 1, 0.6, n=n)
    assert got == pytest.approx(lam * (x(2, 1) + 0.6 * (x(1, 0) + x(3, 0))), abs=1e-14)


def test_truncated_boundary_has_no_oracle():
    f = MeasurementField(Constant(1.0))
    with pytest.raises(ValidationError):
        oracle.exp_target(f, 0, 0.5, n=8, boundary=Truncated())


def test_rho_domain_checked():
    f = MeasurementField(Constant(1.0))
    with pytest.raises(ValidationError):
        oracle.exp_target(f, 0, 1.0, n=8)


# -- the array targets against the per-sensor loops they replaced -------------
#
# The reference below is the sensor-by-sensor implementation the array forms
# replaced, kept verbatim: every term read through `evaluate_field`.

def _x(field, idx, k, boundary, n):
    if isinstance(boundary, Ring):
        return evaluate_field(field, idx % n, k)
    if 0 <= idx < n:
        return evaluate_field(field, idx, k)
    return 0.0


def _check_boundary(boundary):
    if isinstance(boundary, Truncated):
        raise ValidationError("truncated chains have no closed-form target")


_tail_hops, DEFAULT_TAIL = oracle._tail_hops, oracle.DEFAULT_TAIL


def _chain_max(field, n):
    """M of a k=None tail: the largest |x| at step 0 on sensors 0..n-1, which
    are all the values a static sum adds on a ring or the zero-extended line."""
    return max(abs(evaluate_field(field, i, 0)) for i in range(n))


def ref_exp_target(field, i, rho, *, n, boundary=Ring(), k=None):
    _check_boundary(boundary)
    if not 0.0 < rho < 1.0:
        raise ValidationError("rho must lie strictly inside (0, 1)")
    lam = (1.0 - rho) / (1.0 + rho)
    if k is None:
        m = _chain_max(field, n)
        k = _tail_hops(rho, lam * m, DEFAULT_TAIL * max(m, 1.0))
    total = _x(field, i, 0, boundary, n)
    power = 1.0
    for j in range(1, k + 1):
        power *= rho
        total += power * (_x(field, i - j, 0, boundary, n) + _x(field, i + j, 0, boundary, n))
    return lam * total


def ref_asym_target(field, i, rho_back, rho_forward, *, n, boundary=Ring(), k=None):
    _check_boundary(boundary)
    if not (0.0 < rho_back < 1.0 and 0.0 < rho_forward < 1.0):
        raise ValidationError("rates must lie strictly inside (0, 1)")
    rb, rf = rho_back, rho_forward
    if k is None:
        m = _chain_max(field, n)
        k = _tail_hops(max(rb, rf), m, DEFAULT_TAIL * max(m, 1.0))
    total = _x(field, i, 0, boundary, n)
    pb = pf = 1.0
    for j in range(1, k + 1):
        pb *= rb
        pf *= rf
        total += pb * _x(field, i - j, 0, boundary, n)
        total += pf * _x(field, i + j, 0, boundary, n)
    return (1.0 - rb) * (1.0 - rf) / (1.0 - rb * rf) * total


def ref_window_target(field, i, half_width, *, n, boundary=Ring(), k=None):
    _check_boundary(boundary)
    if isinstance(boundary, Ring) and n < 2 * half_width + 1:
        raise ValidationError(f"ring of {n} sensors cannot host half-width {half_width}")
    reach = half_width if k is None else min(k, half_width)
    total = _x(field, i, 0, boundary, n)
    for j in range(1, reach + 1):
        total += _x(field, i - j, 0, boundary, n) + _x(field, i + j, 0, boundary, n)
    return total / (2.0 * half_width + 1.0)


def ref_variable_window_target(field, i, half_widths, *, n, boundary=Ring(), k=None):
    _check_boundary(boundary)
    widths = list(half_widths)
    if len(widths) != n:
        raise ValidationError(f"need one half-width per sensor: got {len(widths)} for n={n}")
    if isinstance(boundary, Ring) and n < 2 * max(widths) + 1:
        raise ValidationError(f"ring of {n} sensors cannot host half-width {max(widths)}")

    def width_at(idx):
        if isinstance(boundary, Ring):
            return widths[idx % n]
        return widths[min(max(idx, 0), n - 1)]

    li = width_at(i)
    reach = li if k is None else min(k, li)
    total = _x(field, i, 0, boundary, n) / (2.0 * li + 1.0)
    for j in range(1, reach + 1):
        for idx in (i - j, i + j):
            total += _x(field, idx, 0, boundary, n) / (2.0 * width_at(idx) + 1.0)
    return total


def ref_arbitrary_target(field, i, table: WeightTable, k, *, n, boundary=Ring()):
    _check_boundary(boundary)
    if isinstance(boundary, Ring) and n < 2 * table.radius + 1:
        raise ValidationError(f"ring of {n} sensors cannot host radius {table.radius}")
    if np.any(table.weights == 0.0):
        raise ValidationError("weight table contains zero entries")
    if table.row_tol is not None and np.any(
            np.abs(table.row_totals() - table.row_sum) > table.row_tol):
        raise ValidationError("weight rows deviate from the common total")

    def row_at(idx):
        if isinstance(boundary, Ring):
            return table.weights[idx % n]
        return table.weights[min(max(idx, 0), n - 1)]

    radius = table.radius
    row = row_at(i)
    total = row[radius] * _x(field, i, 0, boundary, n)
    for j in range(1, min(k, radius) + 1):
        total += row[radius - j] * _x(field, i - j, 0, boundary, n)
        total += row[radius + j] * _x(field, i + j, 0, boundary, n)
    return total / table.row_sum


def ref_dyn_exp_target(field, i, k, rho, *, n, boundary=Ring()):
    _check_boundary(boundary)
    if not 0.0 < rho < 1.0:
        raise ValidationError("rho must lie strictly inside (0, 1)")
    total = _x(field, i, k, boundary, n)
    power = 1.0
    for j in range(1, k + 1):
        power *= rho
        total += power * (_x(field, i - j, k - j, boundary, n)
                          + _x(field, i + j, k - j, boundary, n))
    return (1.0 - rho) / (1.0 + rho) * total


def ref_dyn_window_target(field, i, k, half_width, *, n, boundary=Ring()):
    _check_boundary(boundary)
    if isinstance(boundary, Ring) and n < 2 * half_width + 1:
        raise ValidationError(f"ring of {n} sensors cannot host half-width {half_width}")
    total = _x(field, i, k, boundary, n)
    for j in range(1, min(k, half_width) + 1):
        total += (_x(field, i - j, k - j, boundary, n)
                  + _x(field, i + j, k - j, boundary, n))
    return total / (2.0 * half_width + 1.0)


TARGETS = ("exp", "asym", "window", "variable_window", "arbitrary", "dyn_exp", "dyn_window")
REFERENCE = {name: globals()[f"ref_{name}_target"] for name in TARGETS}
RULES = dict(zip(TARGETS, (ExponentialWeighting, AsymmetricWeighting, FiniteWindow,
                           PerSensorWindow, BandedWeighting, DynamicExponential, DynamicWindow)))


def _args(name, params, k):
    """(positional parameters after the field and i, keywords) of a target."""
    if name in ("exp", "asym", "window", "variable_window"):
        return params, {"k": k}
    if name == "arbitrary":
        return params + (k,), {}
    return (k,) + params, {}  # the dynamic targets take k first


def _reference(name, field, i, params, k, n, boundary):
    args, kw = _args(name, params, k)
    return REFERENCE[name](field, i, *args, n=n, boundary=boundary, **kw)


def _scalar(name, field, i, params, k, n, boundary):
    args, kw = _args(name, params, k)
    return getattr(oracle, f"{name}_target")(field, i, *args, n=n, boundary=boundary, **kw)


def _array(name, field, params, ks, n, boundary):
    return oracle.rows(RULES[name](*params), field, n, boundary, ks)


def _bits(v):
    return np.asarray(v, dtype=float).view(np.uint64).tolist()


@st.composite
def _kinds(draw, n, steps):
    kind = draw(st.sampled_from(("table", "table2", "cosine", "temporal", "impulse")))
    if kind == "impulse":
        return Impulse(center=draw(st.integers(-2, n + 1)))
    if kind == "cosine":
        return SpatialCosine(draw(st.floats(-2, 2)), draw(st.floats(0, 3)), draw(st.floats(-1, 1)))
    if kind == "temporal":
        return TemporalCosine(draw(st.floats(-2, 2)), draw(st.floats(0, 3)))
    rows = n + draw(st.integers(0, 2))  # a table may cover more than sensors 0..n-1
    shape = (rows,) if kind == "table" else (rows, steps + draw(st.integers(0, 2)))
    cell = st.sampled_from((0.0, -0.0, 1.0, -2.5)) | st.floats(-1e3, 1e3)
    values = draw(st.lists(cell, min_size=math.prod(shape), max_size=math.prod(shape)))
    return TableField(np.reshape(values, shape))


@st.composite
def _fields(draw, n, steps):
    form = draw(st.sampled_from(("plain", "sum", "noisy")))
    if form == "sum":
        return MeasurementField(SumField(tuple(draw(st.lists(_kinds(n, steps), min_size=1,
                                                              max_size=3)))))
    kind = draw(_kinds(n, steps))
    if form == "noisy":
        noise = Noise(draw(st.floats(0.01, 1.0)), draw(st.sampled_from(("gaussian", "uniform"))),
                      draw(st.integers(0, 2 ** 70)))
        return MeasurementField(kind, noise=noise)
    return MeasurementField(kind)


@st.composite
def _params(draw, name, n):
    """Parameters of `name` that fit a ring of n sensors."""
    hw = st.integers(1, (n - 1) // 2)
    if name in ("exp", "dyn_exp"):
        return (draw(st.floats(0.01, 0.9)),)
    if name == "asym":
        return (draw(st.floats(0.0, 0.9)), draw(st.floats(0.0, 0.9)))
    if name in ("window", "dyn_window"):
        return (draw(hw),)
    if name == "variable_window":
        return (tuple(draw(st.lists(hw, min_size=n, max_size=n))),)
    radius = draw(st.integers(0, (n - 1) // 2))
    weights = draw(st.lists(st.floats(-2, 2), min_size=n * (2 * radius + 1),
                            max_size=n * (2 * radius + 1)))
    return (WeightTable(np.reshape(weights, (n, 2 * radius + 1)),
                        draw(st.sampled_from((1.0, 0.7, -3.0))), radius),)


@st.composite
def _sweeps(draw):
    """Two fields, two parameter sets per target and both boundaries, with
    the (case, i) points to call them at, i = 0..n-1, in shuffled order.  A
    case is (target, field, parameters, k, n, boundary)."""
    n, rounds = draw(st.integers(3, 7)), draw(st.integers(0, 4))
    fields = [draw(_fields(n, rounds + 1)) for _ in range(2)]
    points = []
    for name in TARGETS:
        for params in (draw(_params(name, n)), draw(_params(name, n))):
            for field in fields:
                for boundary in (Ring(), ZeroHalo()):
                    if (name in ("exp", "asym", "window", "variable_window")
                            and draw(st.booleans())):
                        k = None
                    else:
                        k = draw(st.integers(0, rounds))
                    case = (name, field, params, k, n, boundary)
                    points += [(case, i) for i in range(n)]
    return n, rounds, draw(st.permutations(points))


def _outcome(call):
    """The bits of a value, or the type of the exception raised instead."""
    try:
        return _bits(call())
    except ValueError as exc:  # a ValidationError, such as an asymmetric rate of 0
        return type(exc)


@settings(max_examples=40, deadline=None)
@given(_sweeps())
def test_array_and_scalar_targets_equal_the_per_sensor_loops(sweep):
    n, rounds, points = sweep
    cases = {id(case): case for case, _ in points}
    # no PerSensorWindow has a profile with a step of more than one, and no
    # ring wraps one whose wrap pair has such a step
    unfit = {key for key, (name, _, params, *_, boundary) in cases.items()
             if name == "variable_window" and (np.abs(np.diff(params[0])).max(initial=0) > 1 or (
                 isinstance(boundary, Ring) and abs(params[0][-1] - params[0][0]) > 1))}
    expected = {(key, i): ValidationError if key in unfit else
                _outcome(lambda: _reference(case[0], case[1], i, *case[2:]))
                for key, case in cases.items() for i in range(n)}
    # the array form: one row per case, and one block of its rows 0..rounds
    for key, case in cases.items():
        name, field, params, _, _, boundary = case
        want = [expected[key, i] for i in range(n)]
        block = [[_outcome(lambda: _reference(name, field, i, params, k, n, boundary))
                  for i in range(n)] for k in range(rounds + 1)]
        want, block = (want[0] if isinstance(want[0], type) else want,
                       block[0][0] if isinstance(block[0][0], type) else block)
        if key in unfit:
            want = block = ValidationError
        assert _outcome(lambda: _array(*case)) == want
        assert _outcome(lambda: _array(name, field, params, range(rounds + 1), n,
                                       boundary)) == block
    # the scalar view, called in shuffled order across fields, parameters and
    # boundaries, so a row served for the wrong key would show
    for case, i in points:
        name, field, *rest = case
        assert _outcome(lambda: _scalar(name, field, i, *rest)) == expected[id(case), i], \
            (name, rest, i)


@settings(max_examples=80, deadline=None)
@given(st.integers(3, 12), st.sampled_from((Ring(), ZeroHalo())), st.floats(0.05, 0.95),
       st.floats(0.05, 0.95), st.data())
def test_limit_rows_stop_within_the_tail_tolerance_on_the_chain_max(n, boundary, rb, rf, data):
    # M = max |x| on the chain bounds every value a static sum adds, noise
    # included, so the k=None row is within 1e-12 * max(M, 1) of a sum of many
    # more hops, up to the rounding of the extra hops' additions
    field = data.draw(_fields(n, 1))
    m = _chain_max(field, n)
    tol = DEFAULT_TAIL * max(m, 1.0)
    for algo, decay, scale in ((ExponentialWeighting(rb), rb, (1.0 - rb) / (1.0 + rb)),
                               (AsymmetricWeighting(rb, rf), max(rb, rf), 1.0)):
        more = 4 * _tail_hops(decay, scale * m, tol) + 64
        limit = oracle.rows(algo, field, n, boundary)
        longer = oracle.rows(algo, field, n, boundary, more)
        rounding = 2.0 * more * 2.0 ** -52 * m * (1.0 + decay) / (1.0 - decay)
        assert np.all(np.abs(limit - longer) <= tol + rounding)


def _cases_64(rounds):
    n = 64
    static = MeasurementField(random_spatial_table(n, 5))
    dynamic = MeasurementField(random_space_time_table(n, rounds + 1, 6))
    widths = ((4, 4, 5, 5, 6, 6, 6, 6, 5, 5, 4, 4, 4, 4, 4, 4) * 4)
    return [("exp", static, (0.8,)), ("asym", static, (0.5, 0.25)), ("window", static, (5,)),
            ("variable_window", static, (widths,)),
            ("arbitrary", static, (WeightTable.geometric(0.6, 20, n),)),
            ("dyn_exp", dynamic, (0.8,)), ("dyn_window", dynamic, (3,))]


@pytest.mark.parametrize("k_outer", [True, False])
def test_a_sweep_reads_the_field_by_grid_not_by_point(monkeypatch, k_outer):
    n, rounds = 64, 40
    calls = {"evaluate_field": 0, "evaluate_grid": 0}

    def counted(name):
        fn = getattr(lacsim.oracle, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(lacsim.oracle, name, counted(name))
    for name, field, params in _cases_64(rounds):
        for boundary in (Ring(), ZeroHalo()):
            calls.update(evaluate_field=0, evaluate_grid=0)
            points = [(i, k) for k in range(rounds + 1) for i in range(n)]
            for i, k in points if k_outer else sorted(points):
                _scalar(name, field, i, params, k, n, boundary)
            assert calls["evaluate_field"] == 0, name
            assert 1 <= calls["evaluate_grid"] <= rounds + 1, name


def test_target_errors_are_kept():
    n = 8
    field = MeasurementField(random_spatial_table(n, 1))
    table = WeightTable.geometric(0.5, 4, n)
    calls = {"exp": (0.5,), "asym": (0.5, 0.25), "window": (4,),
             "variable_window": ((4,) * n,), "arbitrary": (table,), "dyn_exp": (0.5,),
             "dyn_window": (4,)}
    for name, params in calls.items():
        for call in (lambda: _scalar(name, field, 0, params, 2, n, Truncated()),
                     lambda: _array(name, field, params, 2, n, Truncated())):
            with pytest.raises(ValidationError, match="truncated"):
                call()
        if name in ("window", "variable_window", "arbitrary", "dyn_window"):
            with pytest.raises(ValidationError, match="cannot host"):
                _scalar(name, field, 0, params, 2, n, Ring())
            with pytest.raises(ValidationError, match="cannot host"):
                _array(name, field, params, 2, n, Ring())
    for rho in (0.0, 1.0, -0.5, 1.5):
        with pytest.raises(ValidationError, match="rho"):
            oracle.exp_target(field, 0, rho, n=n, k=2)
        with pytest.raises(ValidationError, match="rho"):
            oracle.rows(ExponentialWeighting(rho), field, n, Ring(), 2)
    for name in ("dyn_exp", "dyn_window"):
        with pytest.raises(ValidationError, match="time step"):
            _scalar(name, field, 0, calls[name], -1, n, ZeroHalo())
    with pytest.raises(ValidationError, match="one half-width per sensor"):
        oracle.variable_window_target(field, 0, (1,) * (n - 1), n=n)


@pytest.mark.parametrize("bad", ["ring", Ring, ZeroHalo, Truncated, None])
def test_targets_take_only_a_ring_or_zero_halo_instance(bad):
    # before, "ring" and the class Ring gave the zero-extended line's values
    field = MeasurementField(Constant(1.0))
    for call in (lambda: oracle.rows(ExponentialWeighting(0.5), field, 8, bad, 3),
                 lambda: oracle.exp_target(field, 0, 0.5, n=8, boundary=bad, k=3)):
        with pytest.raises(ValidationError, match=r"^boundary must be Ring\(\) or ZeroHalo\(\)"):
            call()


def _fit_cases(n):
    """All seven rules, in cases at and past the edges of fitting n sensors."""
    fits = (n - 1) // 2  # the widest reach a ring of n sensors hosts
    rising = tuple(min(j + 1, fits) for j in range(n))  # 1, 2, .., fits, fits, ..
    yield from (ExponentialWeighting(0.5), AsymmetricWeighting(0.5, 0.25), DynamicExponential(0.5))
    for reach in (1, fits, fits + 1):
        yield from (FiniteWindow(reach), DynamicWindow(reach), PerSensorWindow((reach,) * n))
        for count in (n - 1, n, n + 1):
            yield BandedWeighting(WeightTable.geometric(0.5, reach, count))
    # the wrong count, and a wrap pair that differs by more than one for n >= 8
    yield from (PerSensorWindow((1,) * (n - 1)), PerSensorWindow((1,) * (n + 1)),
                PerSensorWindow(rising))


@pytest.mark.parametrize("n", [5, 8, 16])
@pytest.mark.parametrize("boundary", [Ring(), ZeroHalo()], ids=["ring", "zero_halo"])
def test_engine_and_oracle_accept_the_same_cases(n, boundary):
    # run also rejects weight tables with a zero entry or a row total off by
    # more than row_tol, because its ratios divide by weights; no table here
    # has either.  Before, the oracle took a table of n + 1 rows and a ring
    # wrap pair that run rejects
    field = MeasurementField(random_spatial_table(n, 3))

    def rejects(call):
        try:
            call()
        except ValidationError:
            return True
        return False

    seen = set()
    for algo in _fit_cases(n):
        engine = rejects(lambda: run(ChainConfig(n, boundary, 2), field, algo))
        assert rejects(lambda: oracle.rows(algo, field, n, boundary, 2)) == engine, algo
        seen.add(engine)
    assert seen == {True, False}


@pytest.mark.parametrize("rho", [0.0, 1.0, -0.5, 1.5])
def test_asym_and_dyn_exp_targets_reject_rates_outside_the_unit_interval(rho):
    # with rate 1.5 these returned -9.0 and -3.05 for a constant field of 1
    field = MeasurementField(Constant(1.0))
    with pytest.raises(ValidationError, match=r"^rho must lie strictly inside \(0, 1\)"):
        oracle.dyn_exp_target(field, 0, 3, rho, n=8)
    with pytest.raises(ValidationError, match="rho"):
        oracle.rows(DynamicExponential(rho), field, 8, Ring(), 3)
    for back, forward, name in ((rho, 0.5, "rho_back"), (0.5, rho, "rho_forward")):
        with pytest.raises(ValidationError, match=f"^{name} must lie strictly inside"):
            oracle.asym_target(field, 0, back, forward, n=8, k=3)
        with pytest.raises(ValidationError, match=name):
            oracle.rows(AsymmetricWeighting(back, forward), field, 8, Ring(), 3)


def test_table_shorter_than_the_chain_raises_at_every_sensor():
    n = 8
    short = MeasurementField(TableField(np.arange(n - 1, dtype=float)))
    few_steps = MeasurementField(TableField(np.ones((n, 3))))
    for name, params in (("exp", (0.5,)), ("asym", (0.5, 0.25)), ("window", (2,)),
                         ("variable_window", ((2,) * n,)),
                         ("arbitrary", (WeightTable.geometric(0.5, 2, n),)),
                         ("dyn_exp", (0.5,)), ("dyn_window", (2,))):
        for boundary in (Ring(), ZeroHalo()):
            for i in range(n):
                with pytest.raises(OutOfDomainError):
                    _scalar(name, short, i, params, 1, n, boundary)
            with pytest.raises(OutOfDomainError):
                _array(name, short, params, 1, n, boundary)
            if name.startswith("dyn"):
                with pytest.raises(OutOfDomainError):
                    _scalar(name, few_steps, 0, params, 3, n, boundary)


def test_table_arrays_are_owned_and_read_only():
    values = np.arange(6, dtype=float)
    weights = np.ones((6, 3))
    kind, table = TableField(values), WeightTable(weights, 3.0, 1)
    for own, caller in ((kind.values, values), (table.weights, weights)):
        with pytest.raises(ValueError):
            own[0] = 7.0
        caller[0] = 7.0  # the caller's array stays writable, and is not the table's
        assert not np.any(own[0] == 7.0)
    field = MeasurementField(kind)
    before = oracle.arbitrary_target(field, 2, table, 1, n=6)
    values[:] = 100.0
    weights[:] = 100.0
    assert oracle.arbitrary_target(field, 2, table, 1, n=6) == before


def test_threads_sharing_a_memo_get_their_own_case(monkeypatch):
    # eight threads sweep eight fields through the one exp_target memo for a
    # second, with frequent switches and one forced inside each grid read; a
    # row stored or served under another thread's key would show
    n, rounds, threads = 8, 3, 8
    fields = [MeasurementField(random_spatial_table(n, seed)) for seed in range(threads)]
    want = [oracle.rows(ExponentialWeighting(0.7), f, n, Ring(), range(rounds + 1)).tolist()
            for f in fields]
    grid = lacsim.oracle.evaluate_grid

    def yielding_grid(*args):
        time.sleep(0)
        return grid(*args)

    monkeypatch.setattr(lacsim.oracle, "evaluate_grid", yielding_grid)
    bad = []
    deadline = time.monotonic() + 1.0

    def sweep(j):
        while time.monotonic() < deadline and not bad:
            for k in range(rounds + 1):
                for i in range(n):
                    if oracle.exp_target(fields[j], i, 0.7, n=n, k=k) != want[j][k][i]:
                        bad.append((j, i, k))

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        workers = [threading.Thread(target=sweep, args=(j,)) for j in range(threads)]
        for t in workers:
            t.start()
        for t in workers:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in workers)
    assert bad == []


@pytest.mark.parametrize("bad", [0, -2, 2.5, True])
def test_window_targets_reject_a_half_width_that_is_not_an_integer_of_at_least_one(bad):
    # before, half-width -2 gave -0.333 and 0 gave 1.0 for a constant field of
    # 1, and -1 or 2.5 failed with a bare IndexError
    field = MeasurementField(Constant(1.0))
    message = r"half_width must be an integer >= 1, got "
    for call in (lambda: oracle.window_target(field, 0, bad, n=8),
                 lambda: oracle.rows(FiniteWindow(bad), field, 8),
                 lambda: oracle.dyn_window_target(field, 0, 3, bad, n=8),
                 lambda: oracle.rows(DynamicWindow(bad), field, 8, Ring(), 3)):
        with pytest.raises(ValidationError, match=message):
            call()
    for call in (lambda: oracle.variable_window_target(field, 0, (2,) * 7 + (bad,), n=8),
                 lambda: oracle.rows(PerSensorWindow((bad,) + (2,) * 7), field, 8)):
        with pytest.raises(ValidationError, match=r"half-widths must be an integer >= 1"):
            call()


def test_window_targets_take_numpy_integer_half_widths():
    field = MeasurementField(random_spatial_table(8, 3))
    assert oracle.rows(FiniteWindow(np.int64(2)), field, 8).tolist() == \
        oracle.rows(FiniteWindow(2), field, 8).tolist()
    assert oracle.rows(PerSensorWindow(np.full(8, 2)), field, 8).tolist() == \
        oracle.rows(PerSensorWindow((2,) * 8), field, 8).tolist()


def test_variable_window_checks_one_case_once_and_never_an_equal_tuple_of_floats(monkeypatch):
    field = MeasurementField(random_spatial_table(8, 3))
    widths = (1, 2, 3, 2, 1, 2, 3, 2)
    calls = []
    check = static_rules._check_half_widths
    monkeypatch.setattr(static_rules, "_check_half_widths",
                        lambda *a, **kw: calls.append(a) or check(*a, **kw))
    want = [[_bits(oracle.variable_window_target(field, i, widths, n=8, k=k)) for i in range(8)]
            for k in range(4)]
    assert len(calls) == 1  # the very same tuple: once for the case, not once per k
    # a fresh equal list is a new case, checked again, with the same bits
    assert [[_bits(oracle.variable_window_target(field, i, list(widths), n=8, k=k))
             for i in range(8)] for k in range(4)] == want
    # an equal tuple of floats is a new case too, and rejected
    with pytest.raises(ValidationError, match=r"half-widths must be an integer >= 1, got 1.0"):
        oracle.variable_window_target(field, 0, tuple(map(float, widths)), n=8, k=3)
    with pytest.raises(ValidationError, match=r"half-widths must be an integer >= 1, got 1.0"):
        oracle.rows(PerSensorWindow([float(w) for w in widths]), field, 8)


def test_variable_window_memo_does_not_serve_an_equal_list_of_floats():
    # the memo once compared the widths by ==, so the second call returned 1.0
    field = MeasurementField(Constant(1.0))
    assert oracle.variable_window_target(field, 0, [1] * 8, n=8, k=2) == 1.0
    with pytest.raises(ValidationError, match=r"half-widths must be an integer >= 1, got 1.0"):
        oracle.variable_window_target(field, 0, [1.0] * 8, n=8, k=2)


@pytest.mark.parametrize("k_outer", [True, False])
def test_one_case_swept_over_its_rounds_is_planned_once(monkeypatch, k_outer):
    n, rounds = 64, 40
    plans = []

    def counted(name):
        make = oracle._PLANS[RULES[name]]
        return lambda *case: plans.append(name) or make(*case)

    for name in TARGETS:
        monkeypatch.setitem(oracle._PLANS, RULES[name], counted(name))
    for name, field, params in _cases_64(rounds):
        for boundary in (Ring(), ZeroHalo()):
            plans.clear()
            points = [(i, k) for k in range(rounds + 1) for i in range(n)]
            for i, k in points if k_outer else sorted(points):
                _scalar(name, field, i, params, k, n, boundary)
            assert plans == [name], (name, len(plans))  # not once per row, 41 times


def _counted_plans(monkeypatch):
    """The names of the targets planned from now on, in order."""
    plans = []

    def counted(name):
        make = oracle._PLANS[RULES[name]]
        return lambda *case: plans.append(name) or make(*case)

    for name in TARGETS:
        monkeypatch.setitem(oracle._PLANS, RULES[name], counted(name))
    return plans


def _profiled(call, *args, **kwargs):
    """The Python functions entered and the builtins called by `call`."""
    seen = []

    def profile(frame, event, arg):
        if event == "call":
            seen.append(frame.f_code.co_name)
        elif event == "c_call":
            seen.append(arg.__qualname__)

    sys.setprofile(profile)
    try:
        call(*args, **kwargs)
    finally:
        sys.setprofile(None)
    assert seen.pop() == "setprofile"
    return seen


def test_a_hit_runs_the_target_and_its_memo_and_calls_only_dict_get():
    # a hit tests its case's objects in line in `_Memo.at`: no tuple of them
    # and no `all(map(...))` over it, nor a copy of the test in each target
    boundary = Ring()
    for name, field, params in _cases_64(3):
        args, kw = _args(name, params, 2)
        target = getattr(oracle, f"{name}_target")
        want = target(field, 5, *args, n=64, boundary=boundary, **kw)
        assert _profiled(target, field, 5, *args, n=64, boundary=boundary, **kw) == [
            f"{name}_target", "at", "dict.get"], name
        assert _bits(target(field, 5, *args, n=64, boundary=boundary, **kw)) == _bits(want)


def test_a_chain_size_is_matched_by_value(monkeypatch):
    # len() gives a new int object above 256 on every call: matched by
    # identity, each call planned the case again and rebuilt its row
    values = list(random_spatial_table(1024, 4).values)
    field = MeasurementField(TableField(values))
    assert len(values) is not len(values)
    plans = _counted_plans(monkeypatch)
    got = {_bits(oracle.exp_target(field, 7, 0.8, n=len(values), k=5)) for _ in range(200)}
    assert plans == ["exp"] and len(got) == 1
    # a float or a bool n is a new case, and rejected; a numpy integer one
    # is a new case with the same bits
    for bad in (1024.0, True):
        with pytest.raises(ValidationError, match="n must be an integer"):
            oracle.exp_target(field, 7, 0.8, n=bad, k=5)
    assert {_bits(oracle.exp_target(field, 7, 0.8, n=np.int64(1024), k=5))} == got
    assert plans == ["exp", "exp"]


@pytest.mark.parametrize("bad", [None, "0.8", [0.5], np.array(0.8), np.array([0.5, 0.6])])
def test_a_rate_that_is_not_a_real_number_is_rejected(bad):
    # before, None, "0.8" and [0.5] raised a bare TypeError, an array of two
    # numpy's ambiguity ValueError, and a 0-d array passed
    field = MeasurementField(Constant(1.0))
    calls = [lambda: ExponentialWeighting(bad), lambda: DynamicExponential(bad),
             lambda: AsymmetricWeighting(bad, 0.5), lambda: AsymmetricWeighting(0.5, bad),
             lambda: WeightTable.geometric(bad, 2, 8),
             lambda: oracle.rows(ExponentialWeighting(bad), field, 8, Ring(), 2),
             lambda: oracle.rows(AsymmetricWeighting(0.5, bad), field, 8, Ring(), 2),
             lambda: oracle.exp_target(field, 0, bad, n=8, k=2),
             lambda: oracle.asym_target(field, 0, bad, 0.5, n=8, k=2),
             lambda: oracle.asym_target(field, 0, 0.5, bad, n=8, k=2),
             lambda: oracle.dyn_exp_target(field, 0, 2, bad, n=8)]
    for call in calls:
        with pytest.raises(ValidationError, match=r"rho\w* must lie strictly inside \(0, 1\)"):
            call()


def test_a_case_is_known_by_its_objects(monkeypatch):
    # each part of a case swapped for an equal but distinct object starts
    # one new case, with the same bits; the same objects start none
    n, rounds = 16, 3
    kind = random_space_time_table(n, rounds + 1, 7)
    field, boundary = MeasurementField(kind), Ring()
    widths = (2, 3, 3, 2) * 4
    table = WeightTable.geometric(0.6, 3, n)
    params = {"exp": (0.8,), "asym": (0.5, 0.25), "window": (2,), "variable_window": (widths,),
              "arbitrary": (table,), "dyn_exp": (0.8,), "dyn_window": (2,)}

    def sweep(name, field, params, boundary):
        return [[_bits(_scalar(name, field, i, params, k, n, boundary)) for i in range(n)]
                for k in range(rounds + 1)]

    plans = _counted_plans(monkeypatch)
    for name in TARGETS:
        base = (field, params[name], boundary)
        variants = [(MeasurementField(kind),) + base[1:], base[:2] + (Ring(),)]
        if name in ("exp", "asym", "dyn_exp"):
            variants.append((field, (np.float64(params[name][0]),) + params[name][1:]) + base[2:])
        if name == "asym":
            variants.append((field, (0.5, np.float64(0.25))) + base[2:])
        if name == "variable_window":
            variants.append((field, (tuple(list(widths)),)) + base[2:])
        if name == "arbitrary":
            other = WeightTable(table.weights, table.row_sum, table.radius, table.row_tol)
            variants.append((field, (other,)) + base[2:])
        plans.clear()
        want = sweep(name, *base)
        assert sweep(name, *base) == want and plans == [name]
        for variant in variants:
            plans.clear()
            assert sweep(name, *variant) == want, (name, variant)
            assert sweep(name, *variant) == want and plans == [name], (name, variant)


def _all_params(n):
    return {**_static_params(n), "dyn_exp": (0.8,), "dyn_window": (2,)}


@pytest.mark.parametrize("bad", [0, -1, 2.5, True, None])
def test_targets_and_rows_reject_a_chain_size_that_is_not_an_integer_of_at_least_1(bad):
    # before, n=0 raised IndexError or returned an empty row (warning "divide
    # by zero" on a ring), n=-1 failed inside numpy and 2.5, True or None
    # with a bare TypeError
    field = MeasurementField(Constant(1.0))
    for name, params in _all_params(8).items():
        for boundary in (Ring(), ZeroHalo()):
            for call in (lambda: _scalar(name, field, 0, params, 2, bad, boundary),
                         lambda: _array(name, field, params, 2, bad, boundary)):
                with pytest.raises(ValidationError, match=r"^n must be an integer >= 1, got "):
                    call()


@pytest.mark.parametrize("bad", [True, False, 2.5, 1.0, "1", None, np.float64(1.0)])
def test_targets_reject_a_sensor_index_that_is_not_an_integer(bad):
    # before, i=True was served sensor 1's value, 2.5 and 1.0 failed with
    # "memoryview: invalid slice key", and "1" and None on a comparison
    n = 8
    field = MeasurementField(random_spatial_table(n, 7))
    for name, params in _all_params(n).items():
        for boundary in (Ring(), ZeroHalo()):
            _scalar(name, field, 1, params, 2, n, boundary)  # row 2 built
            with pytest.raises(ValidationError, match=r"^sensor index must be an integer, got "):
                _scalar(name, field, bad, params, 2, n, boundary)


def test_targets_take_numpy_integer_sensor_indices_and_reject_those_off_the_chain():
    # targets exist for the chain's sensors 0..n-1 only; -1 and n were once
    # served from the ring wrap or the zero-extended line
    n = 8
    field = MeasurementField(random_spatial_table(n, 7))
    for name, params in _all_params(n).items():
        for boundary in (Ring(), ZeroHalo()):
            for i in (0, 5, n - 1):
                want = _bits(_reference(name, field, i, params, 2, n, boundary))
                for index in (i, np.int64(i), np.int32(i)):
                    assert _bits(_scalar(name, field, index, params, 2, n, boundary)) \
                        == want, (name, boundary, i)
            for index in (-1, n, np.int64(-1), np.int32(n)):
                with pytest.raises(ValidationError, match=r"^sensor index must lie in 0\.\.7"):
                    _scalar(name, field, index, params, 2, n, boundary)


STATIC = ("exp", "asym", "window", "variable_window", "arbitrary")


def _static_params(n):
    return {"exp": (0.8,), "asym": (0.5, 0.25), "window": (2,), "variable_window": ((2,) * n,),
            "arbitrary": (WeightTable.geometric(0.5, 2, n),)}


@pytest.mark.parametrize("name", STATIC)
@pytest.mark.parametrize("bad", [-1, 2.5, 2.0, True, np.float64(1.0), "2"])
def test_static_targets_and_rows_reject_a_step_that_is_not_an_integer_of_at_least_0(name, bad):
    # before, k=-1 gave 0.111 (exp), 0.2 (window) and 0.333 (arbitrary) on a
    # constant field of 1, and k=2.5 failed with a bare IndexError
    n = 8
    field = MeasurementField(Constant(1.0))
    params = _static_params(n)[name]
    # a built row for the int equal to `bad` must not serve it
    _scalar(name, field, 0, params, 2, n, Ring())
    _scalar(name, field, 0, params, 1, n, Ring())
    for boundary in (Ring(), ZeroHalo()):
        for call in (lambda: _scalar(name, field, 0, params, bad, n, boundary),
                     lambda: _scalar(name, field, -1, params, bad, n, boundary),
                     lambda: _array(name, field, params, bad, n, boundary)):
            with pytest.raises(ValidationError, match=r"^time step must be an integer >= 0"):
                call()


def test_arbitrary_target_and_row_reject_no_step():
    field = MeasurementField(Constant(1.0))
    table = WeightTable.geometric(0.5, 2, 8)
    with pytest.raises(ValidationError, match="time step"):
        oracle.arbitrary_target(field, 0, table, None, n=8)
    with pytest.raises(ValidationError, match="time step"):
        oracle.rows(BandedWeighting(table), field, 8)


@pytest.mark.parametrize("name", STATIC)
def test_static_targets_take_numpy_integer_steps(name):
    n = 8
    field = MeasurementField(random_spatial_table(n, 4))
    params = _static_params(n)[name]
    for k in (0, 1, 3):
        want = _bits(_array(name, field, params, k, n, ZeroHalo()))
        assert _bits(_array(name, field, params, np.int64(k), n, ZeroHalo())) == want
        assert [_bits(_scalar(name, field, i, params, np.int32(k), n, ZeroHalo()))
                for i in range(n)] == want


def test_every_rule_has_an_oracle_plan():
    assert set(typing.get_args(AlgorithmSpec)) <= set(oracle._PLANS)


def test_rows_reject_a_rule_without_a_plan():
    field = MeasurementField(Constant(1.0))
    with pytest.raises(ValidationError, match="^GlobalAverage has no closed-form target"):
        oracle.rows(GlobalAverage(5), field, 8)


def _k_orders(rounds, with_none):
    """Increasing, decreasing and shuffled k, with None (to the tail) mixed in."""
    ks = list(range(rounds + 1))
    shuffled = ks[:]
    np.random.default_rng(8).shuffle(shuffled)
    orders = [ks, ks[::-1], shuffled]
    if with_none:
        orders = [order[:3] + [None] + order[3:] + [None] for order in orders]
    return orders


@pytest.mark.parametrize("boundary", [Ring(), ZeroHalo()], ids=["ring", "zero_halo"])
def test_static_rows_extended_hop_by_hop_equal_the_row_forms(boundary):
    n, rounds = 64, 40
    for name, field, params in _cases_64(rounds):
        if name not in STATIC:
            continue
        with_none = name in ("exp", "asym", "window")
        want = {k: _bits(_array(name, field, params, k, n, boundary))
                for k in list(range(rounds + 1)) + ([None] if with_none else [])}
        assert _bits(_array(name, field, params, range(rounds + 1), n, boundary)) \
            == [want[k] for k in range(rounds + 1)], name
        for order in _k_orders(rounds, with_none):
            # a fresh field object each time, so every sweep starts a new case
            field = MeasurementField(field.kind)
            for k in order:
                got = [_bits(_scalar(name, field, i, params, k, n, boundary))
                       for i in range(n)]
                assert got == want[k], (name, k)


@pytest.mark.parametrize("k_outer", [True, False])
def test_an_increasing_static_sweep_takes_one_hop_per_round(monkeypatch, k_outer):
    n, rounds = 64, 40
    hops = [0]

    def counted(sums):
        def wrapper(*args):
            for total in sums(*args):
                hops[0] += 1
                yield total
        return wrapper

    for sums in ("_geometric", "_two_sided", "_variable_window"):
        monkeypatch.setattr(lacsim.oracle, sums, counted(getattr(lacsim.oracle, sums)))
    for name, field, params in _cases_64(rounds):
        if name not in STATIC:
            continue
        for boundary in (Ring(), ZeroHalo()):
            hops[0] = 0
            points = [(i, k) for k in range(rounds + 1) for i in range(n)]
            for i, k in points if k_outer else sorted(points):
                _scalar(name, field, i, params, k, n, boundary)
            # rebuilt from hop 0 for every k, the rows would take 861 steps
            assert 1 <= hops[0] <= 2 * rounds + 2, (name, hops[0])


@pytest.mark.parametrize("boundary", [Ring(), ZeroHalo()], ids=["ring", "zero_halo"])
def test_long_dynamic_cones_equal_the_per_sensor_loops(boundary):
    # criterion 1's size, n = 64 and k = 0..40, where the hypothesis sweeps
    # reach four hops: cones of up to 40 hops (31 for the widest ring window),
    # row, block and scalar forms, bit for bit
    n, rounds = 64, 40
    fields = [MeasurementField(random_space_time_table(n, rounds + 1, seed)) for seed in (23, 24)]
    for field, (name, params) in itertools.product(fields, (
            ("dyn_exp", (0.8,)), ("dyn_exp", (0.37,)), ("dyn_window", (3,)), ("dyn_window", (31,)))):
        block = []
        for k in range(rounds + 1):
            want = [_bits(_reference(name, field, i, params, k, n, boundary))
                    for i in range(n)]
            assert _bits(_array(name, field, params, k, n, boundary)) == want, \
                (name, params, k)
            assert [_bits(_scalar(name, field, i, params, k, n, boundary))
                    for i in range(n)] == want, (name, params, k)
            block.append(want)
        assert _bits(_array(name, field, params, range(rounds + 1), n, boundary)) \
            == block, (name, params)
