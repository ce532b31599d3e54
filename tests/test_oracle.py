import math
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import lacsim.oracle
from lacsim import (Constant, Impulse, MeasurementField, Noise, OutOfDomainError, Ring,
                    SpatialCosine, SumField, TableField, TemporalCosine, Truncated,
                    ValidationError, WeightTable, ZeroHalo, evaluate_field,
                    random_space_time_table, random_spatial_table)
from lacsim import analysis, oracle


def test_exp_target_constant_partial_sums():
    c, rho = 2.0, 0.6
    f = MeasurementField(Constant(c))
    lam = (1 - rho) / (1 + rho)
    for k in (0, 1, 5):
        expected = c * lam * (1 + 2 * sum(rho ** j for j in range(1, k + 1)))
        assert oracle.exp_target(f, 3, rho, n=9, k=k) == pytest.approx(expected, abs=1e-14)
    # epsilon truncation approaches the limit c
    assert oracle.exp_target(f, 3, rho, n=9, eps=1e-13) == pytest.approx(c, abs=1e-11)


def test_exp_target_impulse_zero_extension():
    f = MeasurementField(Impulse(center=0))
    vals = [oracle.exp_target(f, i, 0.5, n=1, boundary=ZeroHalo(), eps=1e-15)
            for i in (0, 1, 2)]
    assert vals == pytest.approx([1 / 3, 1 / 6, 1 / 12], abs=1e-13)


def test_exp_target_harmonic_gain():
    # a ring harmonic passes through with gain h_exp and no phase shift
    n, m, rho = 64, 4, 0.8
    omega = 2 * math.pi * m / n
    f = MeasurementField(SpatialCosine(1.0, omega))
    gain = analysis.h_exp(rho, omega)
    for i in (0, 3, 17):
        direct = oracle.exp_target(f, i, rho, n=n, eps=1e-14)
        assert direct == pytest.approx(gain * math.cos(omega * i), abs=1e-11)


def test_exp_tail_bound_is_a_bound():
    rho, n = 0.7, 16
    f = MeasurementField(random_spatial_table(n, 3))
    m = f.bound_m()
    full = oracle.exp_target(f, 5, rho, n=n, eps=1e-16)
    for k in (0, 2, 6, 12):
        part = oracle.exp_target(f, 5, rho, n=n, k=k)
        assert abs(full - part) <= oracle.exp_tail_bound(rho, k, m) + 1e-12


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
    f = MeasurementField(Impulse(center=0))
    # one hop forward of the spike: scale * rho_f
    val = oracle.asym_target(f, -1, 0.5, 0.25, n=1, boundary=ZeroHalo(), eps=1e-15)
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
    for k in range(2 * half_width + 3):
        assert oracle.exp_row(field, rho, n=n, boundary=boundary, k=k).tobytes() \
            == oracle.dyn_exp_row(field, k, rho, n=n, boundary=boundary).tobytes()
        assert oracle.window_row(field, half_width, n=n, boundary=boundary, k=k).tobytes() \
            == oracle.dyn_window_row(field, k, half_width, n=n, boundary=boundary).tobytes()


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


def ref_exp_target(field, i, rho, *, n, boundary=Ring(), k=None, eps=None):
    _check_boundary(boundary)
    if not 0.0 < rho < 1.0:
        raise ValidationError("rho must lie strictly inside (0, 1)")
    lam = (1.0 - rho) / (1.0 + rho)
    if k is None:
        if eps is None:
            eps = DEFAULT_TAIL * max(field.bound_m(), 1.0)
        k = _tail_hops(rho, lam * field.bound_m(), eps)
    total = _x(field, i, 0, boundary, n)
    power = 1.0
    for j in range(1, k + 1):
        power *= rho
        total += power * (_x(field, i - j, 0, boundary, n) + _x(field, i + j, 0, boundary, n))
    return lam * total


def ref_asym_target(field, i, rho_back, rho_forward, *, n, boundary=Ring(), k=None, eps=None):
    _check_boundary(boundary)
    rb, rf = rho_back, rho_forward
    if k is None:
        if eps is None:
            eps = DEFAULT_TAIL * max(field.bound_m(), 1.0)
        k = _tail_hops(max(rb, rf), field.bound_m(), eps)
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

    def row_at(idx):
        if isinstance(boundary, Ring):
            return table.row(idx % n)
        return table.row(min(max(idx, 0), n - 1))

    radius = table.radius
    row = row_at(i)
    total = row[radius] * _x(field, i, 0, boundary, n)
    for j in range(1, min(k, radius) + 1):
        total += row[radius - j] * _x(field, i - j, 0, boundary, n)
        total += row[radius + j] * _x(field, i + j, 0, boundary, n)
    return total / table.row_sum


def ref_dyn_exp_target(field, i, k, rho, *, n, boundary=Ring()):
    _check_boundary(boundary)
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


def _args(name, params, k, eps):
    """(positional parameters after the field and i, keywords) of a target."""
    if name in ("exp", "asym"):
        return params, {"k": k, "eps": eps}
    if name in ("window", "variable_window"):
        return params, {"k": k}
    if name == "arbitrary":
        return params + (k,), {}
    return (k,) + params, {}  # the dynamic targets take k first


def _reference(name, field, i, params, k, eps, n, boundary):
    args, kw = _args(name, params, k, eps)
    return REFERENCE[name](field, i, *args, n=n, boundary=boundary, **kw)


def _scalar(name, field, i, params, k, eps, n, boundary):
    args, kw = _args(name, params, k, eps)
    return getattr(oracle, f"{name}_target")(field, i, *args, n=n, boundary=boundary, **kw)


def _array(name, field, params, k, eps, n, boundary):
    args, kw = _args(name, params, k, eps)
    return getattr(oracle, f"{name}_row")(field, *args, n=n, boundary=boundary, **kw)


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
    first = draw(st.integers(-2, 0))  # a table may cover more than sensors 0..n-1
    shape = (n - first,) if kind == "table" else (n - first, steps + draw(st.integers(0, 2)))
    cell = st.sampled_from((0.0, -0.0, 1.0, -2.5)) | st.floats(-1e3, 1e3)
    values = draw(st.lists(cell, min_size=math.prod(shape), max_size=math.prod(shape)))
    return TableField(np.reshape(values, shape), first_sensor=first)


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
    hw = st.integers(0, (n - 1) // 2)
    if name in ("exp", "dyn_exp"):
        return (draw(st.floats(0.01, 0.9)),)
    if name == "asym":
        return (draw(st.floats(0.0, 0.9)), draw(st.floats(0.0, 0.9)))
    if name in ("window", "dyn_window"):
        return (draw(hw),)
    if name == "variable_window":
        return (tuple(draw(st.lists(hw, min_size=n, max_size=n))),)
    radius = draw(hw)
    weights = draw(st.lists(st.floats(-2, 2), min_size=n * (2 * radius + 1),
                            max_size=n * (2 * radius + 1)))
    return (WeightTable(np.reshape(weights, (n, 2 * radius + 1)),
                        draw(st.sampled_from((1.0, 0.7, -3.0))), radius),)


@st.composite
def _sweeps(draw):
    """Two fields, two parameter sets per target and both boundaries, with
    the (case, i) points to call them at, i = -2..n+1, in shuffled order.  A
    case is (target, field, parameters, k, eps, n, boundary)."""
    n, rounds = draw(st.integers(3, 7)), draw(st.integers(0, 4))
    fields = [draw(_fields(n, rounds + 1)) for _ in range(2)]
    points = []
    for name in TARGETS:
        for params in (draw(_params(name, n)), draw(_params(name, n))):
            for field in fields:
                for boundary in (Ring(), ZeroHalo()):
                    if name in ("exp", "asym") and draw(st.booleans()):
                        k, eps = None, draw(st.sampled_from((None, 1e-3, 0.1)))
                    elif name in ("window", "variable_window") and draw(st.booleans()):
                        k, eps = None, None
                    else:
                        k, eps = draw(st.integers(0, rounds)), None
                    case = (name, field, params, k, eps, n, boundary)
                    points += [(case, i) for i in range(-2, n + 2)]
    return n, draw(st.permutations(points))


def _outcome(call):
    """The bits of a value, or the type of the exception raised instead."""
    try:
        return _bits(call())
    except ValueError as exc:  # log(0) on the asymmetric tail path with both rates 0
        return type(exc)


@settings(max_examples=40, deadline=None)
@given(_sweeps())
def test_array_and_scalar_targets_equal_the_per_sensor_loops(sweep):
    n, points = sweep
    cases = {id(case): case for case, _ in points}
    expected = {(key, i): _outcome(lambda: _reference(case[0], case[1], i, *case[2:]))
                for key, case in cases.items() for i in range(-2, n + 2)}
    # the array form, one row per case
    for key, case in cases.items():
        want = [expected[key, i] for i in range(n)]
        got = _outcome(lambda: _array(*case))
        assert got == (want[0] if isinstance(want[0], type) else want)
    # the scalar view, called in shuffled order across fields, parameters and
    # boundaries, so a row served for the wrong key would show
    for case, i in points:
        name, field, *rest = case
        assert _outcome(lambda: _scalar(name, field, i, *rest)) == expected[id(case), i], \
            (name, rest, i)


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
                _scalar(name, field, i, params, k, None, n, boundary)
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
        for call in (lambda: _scalar(name, field, 0, params, 2, None, n, Truncated()),
                     lambda: _array(name, field, params, 2, None, n, Truncated())):
            with pytest.raises(ValidationError, match="truncated"):
                call()
        if name in ("window", "variable_window", "arbitrary", "dyn_window"):
            with pytest.raises(ValidationError, match="cannot host"):
                _scalar(name, field, 0, params, 2, None, n, Ring())
            with pytest.raises(ValidationError, match="cannot host"):
                _array(name, field, params, 2, None, n, Ring())
    for rho in (0.0, 1.0, -0.5, 1.5):
        with pytest.raises(ValidationError, match="rho"):
            oracle.exp_target(field, 0, rho, n=n, k=2)
        with pytest.raises(ValidationError, match="rho"):
            oracle.exp_row(field, rho, n=n, k=2)
    for name in ("dyn_exp", "dyn_window"):
        with pytest.raises(ValidationError, match="time step"):
            _scalar(name, field, 0, calls[name], -1, None, n, ZeroHalo())
    with pytest.raises(ValidationError, match="one half-width per sensor"):
        oracle.variable_window_target(field, 0, (1,) * (n - 1), n=n)


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
                    _scalar(name, short, i, params, 1, None, n, boundary)
            with pytest.raises(OutOfDomainError):
                _array(name, short, params, 1, None, n, boundary)
            if name.startswith("dyn"):
                with pytest.raises(OutOfDomainError):
                    _scalar(name, few_steps, 0, params, 3, None, n, boundary)


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
    want = [[oracle.exp_row(f, 0.7, n=n, k=k).tolist() for k in range(rounds + 1)]
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
