import itertools
import json

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lacsim import (AsymmetricWeighting, ChainConfig, ExponentialWeighting, FiniteWindow,
                    HistoryError, MeasurementField, PerSensorWindow, Ring, TableField,
                    TerminatedError, Truncated, ValidationError, ZeroHalo, Constant, Impulse,
                    asym_transition, dyn_exp_transition, exp_transition, random_spatial_table,
                    run, variable_window_transition, window_transition)
from lacsim import DynamicWindow, oracle, static_rules
from lacsim.cli import main


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
    m = np.abs(field.kind.values).max()
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


def _simulated_weight_sums(out, widths, boundary):
    """The weight sums `lacsim simulate` writes for a per-sensor window, or
    None when it writes no `trace_metadata`."""
    args = ["simulate", "--out", str(out)]
    for setting in (f"chain.n={len(widths)}", "chain.rounds=1", f"chain.boundary={boundary}",
                    "algorithm.variant=variable_window",
                    "algorithm.lengths=" + ",".join(map(str, widths))):
        args += ["--set", setting]
    assert main(args) == 0
    meta = json.loads((out / "run_metadata.json").read_text())
    return tuple(meta["trace_metadata"]["weight_sums"]) if "trace_metadata" in meta else None


@pytest.mark.parametrize("boundary", ["ring", "zero_halo", "truncated"])
def test_variable_window_constant_field_weight_sums(tmp_path, boundary):
    # the closed form is not a convex combination: constant c maps to c * weight_sum
    widths = (2, 2, 3, 3, 3, 2, 2)
    c, ring = 5.0, boundary == "ring"
    sums = _simulated_weight_sums(tmp_path, widths, boundary)
    if boundary == "truncated":
        # the end sensors fall short of the zero line's totals, so none are
        # written: sensor 0 ends at c * 0.343, not at c * 0.543
        assert sums is None
        line = _weight_sums_per_sensor(widths, 7, False)
        trace = run(ChainConfig(n=7, boundary=Truncated(), rounds=4),
                    MeasurementField(Constant(c)), PerSensorWindow(widths))
        assert trace.y[0, 2] == pytest.approx(c * (line[0] - 0.2), abs=1e-12)
        return
    assert sums == _weight_sums_per_sensor(widths, 7, ring)
    assert any(abs(s - 1.0) > 1e-3 for s in sums)
    if ring:
        for i, w in enumerate(widths):
            expected = 1 / (2 * w + 1) + sum(
                1 / (2 * widths[(i + d) % 7] + 1) + 1 / (2 * widths[(i - d) % 7] + 1)
                for d in range(1, w + 1))
            assert sums[i] == pytest.approx(expected, abs=1e-14)
    cfg = ChainConfig(n=7, boundary=Ring() if ring else ZeroHalo(), rounds=4)
    trace = run(cfg, MeasurementField(Constant(c)), PerSensorWindow(widths))
    for i, w in enumerate(widths):
        assert trace.y[i, w] == pytest.approx(c * sums[i], abs=1e-12)


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


def _weight_sums_per_sensor(widths, n, ring):
    """Coefficient totals one sensor at a time: the loop `run` once used."""
    sums = []
    for i in range(n):
        total = 1.0 / (2 * widths[i] + 1)
        for j in range(1, widths[i] + 1):
            for nb in (i - j, i + j):
                if ring:
                    total += 1.0 / (2 * widths[nb % n] + 1)
                elif 0 <= nb < n:
                    total += 1.0 / (2 * widths[nb] + 1)
        sums.append(total)
    return tuple(sums)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-1, 1), min_size=2, max_size=30), st.integers(1, 5),
       st.sampled_from(["ring", "zero_halo", "truncated"]))
def test_variable_window_weight_sums_equal_the_per_sensor_loop(tmp_path_factory, steps, start,
                                                               boundary):
    widths = [start]
    for d in steps:  # adjacent half-widths differ by at most one
        widths.append(max(1, widths[-1] + d))
    n, ring = len(widths), boundary == "ring"
    assume(not ring or (n >= 2 * max(widths) + 1 and abs(widths[0] - widths[-1]) <= 1))
    sums = _simulated_weight_sums(tmp_path_factory.mktemp("simulate"), widths, boundary)
    assert sums == (None if boundary == "truncated" else _weight_sums_per_sensor(widths, n, ring))


# -- the stages before they shared one stencil: the reference for it -----------

def _need_ref(k, own, left, right, n_own, n_nb):
    if len(own) < n_own or len(left) < n_nb or len(right) < n_nb:
        raise HistoryError(f"round {k}")


def _exp_ref(k, own, left, right, x_i, rho):
    if k == 0:
        return (1.0 - rho) / (1.0 + rho) * x_i
    if k == 1:
        _need_ref(k, own, left, right, 1, 1)
        return own[0] + rho * (left[0] + right[0])
    if k == 2:
        _need_ref(k, own, left, right, 2, 2)
        return (own[0] + rho * (left[0] - left[1]) + rho * (right[0] - right[1])
                - 2.0 * rho * rho * own[1])
    _need_ref(k, own, left, right, 3, 2)
    return (own[0] + rho * (left[0] - left[1]) + rho * (right[0] - right[1])
            - rho * rho * (own[1] - own[2]))


def _asym_ref(k, own, left, right, x_i, rb, rf):
    if k == 0:
        return (1.0 - rb) * (1.0 - rf) / (1.0 - rb * rf) * x_i
    if k == 1:
        _need_ref(k, own, left, right, 1, 1)
        return own[0] + rb * left[0] + rf * right[0]
    if k == 2:
        _need_ref(k, own, left, right, 2, 2)
        return (own[0] + rb * (left[0] - left[1]) + rf * (right[0] - right[1])
                - 2.0 * rb * rf * own[1])
    _need_ref(k, own, left, right, 3, 2)
    return (own[0] + rb * (left[0] - left[1]) + rf * (right[0] - right[1])
            - rb * rf * (own[1] - own[2]))


def _window_ref(k, own, left, right, x_i, half_width):
    if k > np.min(half_width):
        raise TerminatedError(f"round {k}")
    if k == 0:
        return x_i / (2.0 * half_width + 1.0)
    if k == 1:
        _need_ref(k, own, left, right, 1, 1)
        return own[0] + left[0] + right[0]
    if k == 2:
        _need_ref(k, own, left, right, 2, 2)
        return own[0] + (left[0] - left[1]) + (right[0] - right[1]) - 2.0 * own[1]
    _need_ref(k, own, left, right, 3, 2)
    return own[0] + (left[0] - left[1]) + (right[0] - right[1]) - (own[1] - own[2])


# signed zeros, exact small values and wide magnitudes, where a changed
# operation order or a dropped sign of zero would show in the bits
STAGE_VALUES = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5]),
                         st.floats(-1e300, 1e300, allow_nan=False))


@st.composite
def stage_histories(draw):
    """(own, left, right, x) of drawn depths; every entry is a scalar, or an
    array of one common length."""
    m = draw(st.sampled_from([None, 1, 4]))

    def value():
        if m is None:
            return draw(STAGE_VALUES)
        return np.array(draw(st.lists(STAGE_VALUES, min_size=m, max_size=m)))

    depth = lambda top: tuple(value() for _ in range(draw(st.integers(0, top))))
    return depth(3), depth(2), depth(2), value()


def same_outcome(new, ref, *args):
    """Both raise the same error type, or both return the same bits.  (A
    measurement history too short for rounds 1 and 2 is an IndexError.)"""
    outcomes = []
    for fn in (new, ref):
        try:
            outcomes.append(np.asarray(fn(*args)).tobytes())
        except (HistoryError, TerminatedError, IndexError) as exc:
            outcomes.append(type(exc))
    return outcomes[0] == outcomes[1]


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 6), stage_histories(), st.floats(0.01, 0.99), st.floats(0.01, 0.99),
       st.integers(1, 5))
def test_stencil_stages_equal_the_separate_stages_bit_for_bit(k, hist, rb, rf, half_width):
    own, left, right, x = hist
    with np.errstate(all="ignore"):
        assert same_outcome(exp_transition, _exp_ref, k, own, left, right, x, rb)
        assert same_outcome(asym_transition, _asym_ref, k, own, left, right, x, rb, rf)
        assert same_outcome(window_transition, _window_ref, k, own, left, right, x, half_width)
        if isinstance(x, np.ndarray):  # one half-width per sensor
            widths = np.full(len(x), half_width) + np.arange(len(x)) % 2
            assert same_outcome(variable_window_transition, _window_ref,
                                k, own, left, right, x, widths)


def _dyn_exp_ref(k, own, left, right, x_recent, rho):
    """The dynamic exponential stages as written before they were built on
    `exp_transition`: the reference for that form."""
    lam = (1.0 - rho) / (1.0 + rho)
    if k == 0:
        return lam * x_recent[0]
    if k == 1:
        _need_ref(k, own, left, right, 1, 1)
        return own[0] + rho * (left[0] + right[0]) + lam * (x_recent[0] - x_recent[1])
    if k == 2:
        _need_ref(k, own, left, right, 2, 2)
        return (own[0] + rho * (left[0] - left[1]) + rho * (right[0] - right[1])
                - 2.0 * rho * rho * own[1] + lam * (x_recent[0] - x_recent[1]))
    _need_ref(k, own, left, right, 3, 2)
    if len(x_recent) < 4:
        raise HistoryError(f"round {k} needs own measurement depth 4")
    return (own[0] + rho * (left[0] - left[1]) + rho * (right[0] - right[1])
            - rho * rho * (own[1] - own[2])
            + lam * (x_recent[0] - x_recent[1])
            - rho * rho * lam * (x_recent[2] - x_recent[3]))


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 6), stage_histories(), st.data(), st.floats(0.01, 0.99))
def test_dyn_exp_stages_equal_the_separate_stages_bit_for_bit(k, hist, data, rho):
    own, left, right, x = hist
    with np.errstate(all="ignore"):
        # measurements shaped as the histories; 1..4 of them, most recent first
        x_recent = (x,) + tuple(x * data.draw(STAGE_VALUES)
                                for _ in range(data.draw(st.integers(0, 3))))
        assert same_outcome(dyn_exp_transition, _dyn_exp_ref, k, own, left, right, x_recent, rho)


def test_stages_raise_at_the_same_rounds_for_every_history_depth():
    # every depth of each history at every round, which a random draw may miss
    values = (0.25, -0.0, 3.0, 0.5)
    for k, own, nl, nr, nx in itertools.product(range(7), range(4), range(3), range(3),
                                                range(1, 5)):
        hist = (values[:own], values[:nl], values[:nr])
        assert same_outcome(exp_transition, _exp_ref, k, *hist, 1.5, 0.3)
        assert same_outcome(asym_transition, _asym_ref, k, *hist, 1.5, 0.3, 0.6)
        assert same_outcome(dyn_exp_transition, _dyn_exp_ref, k, *hist, values[:nx], 0.3)
        for half_width in (1, 2, 3):
            assert same_outcome(window_transition, _window_ref, k, *hist, 1.5, half_width)


@pytest.mark.parametrize("rule", [FiniteWindow, DynamicWindow])
def test_window_rules_take_a_numpy_integer_half_width_as_an_int(rule):
    algo = rule(np.int64(3))
    assert algo.half_width == 3 and type(algo.half_width) is int
    assert algo == rule(3)


@pytest.mark.parametrize("rule", [FiniteWindow, DynamicWindow])
@pytest.mark.parametrize("bad", [0, -2, 2.5, 3.0, True, np.float64(3.0), "3"])
def test_window_rules_reject_a_half_width_that_is_not_an_integer_of_at_least_one(rule, bad):
    with pytest.raises(ValidationError, match=r"^half_width must be an integer >= 1, got "):
        rule(bad)


def test_per_sensor_window_rejects_fractional_half_widths_instead_of_rounding_down():
    # before, these became (2, 2, 3)
    with pytest.raises(ValidationError, match=r"^half-widths must be an integer >= 1, got 2\.7$"):
        PerSensorWindow((2.7, 2.2, 3.9))
    for bad in ((2, 0, 1), (2, True, 2)):
        with pytest.raises(ValidationError, match="half-widths must be an integer >= 1"):
            PerSensorWindow(bad)
    widths = PerSensorWindow(np.array([2, 3, 3])).half_widths
    assert widths == (2, 3, 3) and all(type(w) is int for w in widths)


def _per_element_half_widths(widths, adjacent):
    """The per-element check that `_check_half_widths` replaced."""
    widths = tuple(static_rules._check_half_width("half-widths", w) for w in widths)
    for a, b in zip(widths, widths[1:]) if adjacent else ():
        if abs(a - b) > 1:
            raise ValidationError(f"adjacent half-widths differ by more than one: {a}, {b}")
    return widths


_WIDTHS = st.lists(st.one_of(st.integers(-1, 5), st.integers(2 ** 62, 2 ** 65),
                             st.sampled_from([True, 2.0, np.int64(3), np.uint64(2 ** 63)])),
                   max_size=12)


@settings(max_examples=300, deadline=None)
@given(st.one_of(_WIDTHS, st.lists(st.integers(1, 4), max_size=12)), st.booleans())
def test_half_widths_checked_as_a_whole_as_one_by_one(widths, adjacent):
    try:
        want = _per_element_half_widths(widths, adjacent)
    except ValidationError as exc:
        with pytest.raises(ValidationError) as got:
            static_rules._check_half_widths(widths, adjacent)
        assert str(got.value) == str(exc)
    else:
        got = static_rules._check_half_widths(widths, adjacent)
        assert got == want and all(type(w) is int for w in got)
