import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from lacsim import (Constant, Cosine, Impulse, MeasurementField, Noise, OutOfDomainError,
                    SpatialCosine, SumField, TableField, TemporalCosine, ValidationError,
                    evaluate_field, evaluate_grid)


def test_constant_field():
    f = MeasurementField(Constant(3.5))
    assert evaluate_field(f, 7, 12) == 3.5
    assert f.bound_m() == 3.5


def test_impulse_field():
    f = MeasurementField(Impulse(center=0))
    assert evaluate_field(f, 0, 0) == 1.0
    assert evaluate_field(f, 1, 0) == 0.0
    assert evaluate_field(f, 0, 9) == 1.0  # constant in time


def test_spatial_cosine_quarter_turn():
    # cos(pi/4 * 4) = cos(pi) = -1 at any step
    f = MeasurementField(SpatialCosine(1.0, math.pi / 4, 0.0))
    assert evaluate_field(f, 4, 0) == pytest.approx(-1.0, abs=1e-15)
    assert evaluate_field(f, 4, 33) == pytest.approx(-1.0, abs=1e-15)


def test_temporal_cosine_uniform_in_space():
    f = MeasurementField(TemporalCosine(2.0, 0.3, 0.1))
    assert evaluate_field(f, 0, 5) == evaluate_field(f, 17, 5)
    assert evaluate_field(f, 0, 5) == pytest.approx(2.0 * math.cos(0.3 * 5 + 0.1))


@settings(max_examples=200, deadline=None)
@given(st.floats(-1e300, 1e300), st.floats(-10.0, 10.0), st.floats(-4.0, 4.0) | st.just(-0.0),
       st.integers(-5, 50), st.integers(0, 50))
def test_axis_cosines_are_the_one_wave_with_a_zero_frequency(amplitude, omega, phase, i, k):
    # x + 0.0 == x unless x is -0.0, whose cosine is that of 0.0: each axis
    # builder gives, bit for bit, the value of its own one-axis formula
    spatial = SpatialCosine(amplitude, omega, phase)
    temporal = TemporalCosine(amplitude, omega, phase)
    assert spatial == Cosine(amplitude, omega, 0.0, phase)
    assert temporal == Cosine(amplitude, 0.0, omega, phase)
    assert _bits(spatial.at(i, k)) == _bits(amplitude * math.cos(omega * i + phase))
    assert _bits(temporal.at(i, k)) == _bits(amplitude * math.cos(omega * k + phase))


def _bits(v):
    return np.float64(v).tobytes()


def test_table_field_out_of_domain():
    f = MeasurementField(TableField(np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])))
    assert evaluate_field(f, 1, 1) == 4.0
    with pytest.raises(OutOfDomainError):
        evaluate_field(f, 3, 0)
    with pytest.raises(OutOfDomainError):
        evaluate_field(f, 0, 2)


def test_static_table_ignores_step():
    f = MeasurementField(TableField(np.array([1.0, 2.0])))
    assert evaluate_field(f, 1, 0) == evaluate_field(f, 1, 99) == 2.0


def test_sum_field_adds_parts():
    f = MeasurementField(SumField((Constant(1.0), Impulse(center=2))))
    assert evaluate_field(f, 2, 0) == 2.0
    assert evaluate_field(f, 3, 0) == 1.0
    assert f.bound_m() == 2.0


def test_non_finite_parameters_rejected():
    with pytest.raises(ValidationError):
        Constant(float("nan"))
    with pytest.raises(ValidationError):
        SpatialCosine(float("inf"), 0.1)
    with pytest.raises(ValidationError):
        TableField(np.array([1.0, float("inf")]))
    with pytest.raises(ValidationError):
        Noise(-1.0)
    with pytest.raises(ValidationError):
        Noise(1.0, distribution="cauchy")


def test_negative_step_rejected():
    with pytest.raises(ValidationError):
        evaluate_field(MeasurementField(Constant(1.0)), 0, -1)


def test_noise_is_reproducible_per_point():
    f = MeasurementField(Constant(0.0), noise=Noise(1.0, seed=9))
    a = evaluate_field(f, 3, 5)
    b = evaluate_field(f, 3, 5)
    assert a == b
    assert evaluate_field(f, 3, 6) != a
    assert evaluate_field(f, 4, 5) != a


@pytest.mark.parametrize("seed", [-1, 2 ** 128, 2 ** 130, 1.0])
def test_noise_seed_outside_the_philox_key_is_rejected(seed):
    # reduced mod 2**128 the key would repeat a seed in range: -1 and
    # 2**128 - 1 drew the same noise, and so did 2**128 and 0
    with pytest.raises(ValidationError, match="noise seed"):
        Noise(1.0, seed=seed)
    Noise(1.0, seed=2 ** 128 - 1)


def test_noise_seed_changes_stream():
    f1 = MeasurementField(Constant(0.0), noise=Noise(1.0, seed=1))
    f2 = MeasurementField(Constant(0.0), noise=Noise(1.0, seed=2))
    assert evaluate_field(f1, 0, 0) != evaluate_field(f2, 0, 0)


def test_uniform_noise_stays_in_range():
    sigma = 0.5
    f = MeasurementField(Constant(0.0), noise=Noise(sigma, distribution="uniform", seed=4))
    half = math.sqrt(3.0) * sigma
    vals = [evaluate_field(f, i, k) for i in range(20) for k in range(20)]
    assert all(-half <= v <= half for v in vals)
    assert np.std(vals) == pytest.approx(sigma, rel=0.15)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(0, 500), st.integers(0, 500))
def test_noise_pure_in_point_and_seed(seed, i, k):
    f = MeasurementField(Constant(0.0), noise=Noise(1.0, seed=seed))
    assert evaluate_field(f, i, k) == evaluate_field(f, i, k)


def test_declared_bound_overrides_derived():
    f = MeasurementField(Constant(1.0), noise=Noise(2.0, seed=0), bound=10.0)
    assert f.bound_m() == 10.0
    g = MeasurementField(Constant(1.0), noise=Noise(2.0, seed=0))
    assert g.bound_m() == 1.0 + 12.0  # 6 sigma allowance


# values whose sums of up to three parts and noise stay finite
_VALUES = st.floats(-1e300, 1e300, allow_nan=False)


def _kind(draw, n, steps, top=True):
    """A field kind over about n sensors and steps; tables may fall short."""
    name = draw(st.sampled_from(["constant", "impulse", "spatial", "temporal", "cosine",
                                 "table1", "table2"] + (["sum"] if top else [])))
    if name == "constant":
        return Constant(draw(_VALUES))
    if name == "impulse":
        return Impulse(draw(st.integers(-2, n + 2)))
    if name in ("spatial", "temporal"):
        cosine = SpatialCosine if name == "spatial" else TemporalCosine
        return cosine(draw(_VALUES), draw(st.floats(-10.0, 10.0)), draw(st.floats(-4.0, 4.0)))
    if name == "cosine":  # a wave along both axes
        return Cosine(draw(_VALUES), draw(st.floats(-10.0, 10.0)), draw(st.floats(-10.0, 10.0)),
                      draw(st.floats(-4.0, 4.0)))
    if name == "sum":
        return SumField(tuple(_kind(draw, n, steps, top=False)
                              for _ in range(draw(st.integers(0, 3)))))
    first = draw(st.integers(-3, 1))
    rows = draw(st.integers(max(1, n - first - 1), n - first + 2))
    shape = rows if name == "table1" else (rows, draw(st.integers(max(1, steps - 1), steps + 2)))
    return TableField(draw(arrays(np.float64, shape, elements=_VALUES)), first_sensor=first)


@st.composite
def _fields(draw):
    n, steps = draw(st.integers(1, 10)), draw(st.integers(1, 6))
    kind = _kind(draw, n, steps)
    noise = draw(st.sampled_from([None, "gaussian", "uniform"]))
    if noise is not None:  # seeds above 2**64 use the key's second word
        noise = Noise(draw(st.floats(0.0, 5.0)), noise, draw(st.integers(0, 2 ** 128 - 1)))
    return MeasurementField(kind, noise=noise), n, steps


def _pointwise(field, n, steps):
    """The (steps, n) grid from evaluate_field, scanned sensor by sensor as
    `run` used to fill it, or the first error's message."""
    try:
        return np.array([[evaluate_field(field, i, k) for k in range(steps)]
                         for i in range(n)], dtype=float).T
    except OutOfDomainError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(_fields())
def test_grid_matches_pointwise_evaluation(case):
    field, n, steps = case
    expected = _pointwise(field, n, steps)
    try:
        got = evaluate_grid(field, n, steps)
    except OutOfDomainError as exc:
        got = str(exc)
    if isinstance(expected, str):
        assert got == expected
    else:
        assert got.shape == (steps, n)
        assert got.tobytes() == np.ascontiguousarray(expected).tobytes()


def test_grid_noise_matches_pointwise_above_two_to_the_64():
    for distribution in ("gaussian", "uniform"):
        field = MeasurementField(Constant(0.5), noise=Noise(0.7, distribution, 2 ** 64 + 12345))
        assert evaluate_grid(field, 9, 4).tobytes() == _pointwise(field, 9, 4).tobytes()


def test_short_table_grid_raises_the_pointwise_scan_error():
    table = TableField(np.ones((3, 2)), first_sensor=1)
    with pytest.raises(OutOfDomainError, match=r"^sensor 0 outside table rows \[1, 4\)$"):
        evaluate_grid(MeasurementField(table), 3, 2)
    table = TableField(np.ones((4, 2)))
    with pytest.raises(OutOfDomainError, match=r"^step 2 outside table columns \[0, 2\)$"):
        evaluate_grid(MeasurementField(SumField((Constant(1.0), table))), 5, 3)


@pytest.mark.parametrize("seed", [2 ** 63 + 1, 2 ** 64 - 1, 2 ** 63 + 2 ** 40 + 1,
                                  2 ** 127 + 2 ** 64 + 2 ** 63 + 7])
def test_noise_words_at_or_above_two_to_the_63_are_kept_exactly(seed):
    # numpy rounds such a word through float64 when it comes in a list of
    # Python ints; the point and grid streams must both use the exact key
    for distribution in ("gaussian", "uniform"):
        field = MeasurementField(Constant(0.0), noise=Noise(1.0, distribution, seed))
        nearby = MeasurementField(Constant(0.0), noise=Noise(1.0, distribution, seed - 1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            grid = evaluate_grid(field, 5, 3)
            assert grid.tobytes() == _pointwise(field, 5, 3).tobytes()
            assert evaluate_field(field, 0, 0) != evaluate_field(nearby, 0, 0)
            # sensor -1 is counter word 2**64 - 1, not sensor 0's stream
            assert evaluate_field(field, -1, 0) != evaluate_field(field, 0, 0)
