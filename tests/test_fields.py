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
from lacsim.fields import _noise_at, _noise_grid


def test_constant_field():
    f = MeasurementField(Constant(3.5))
    assert evaluate_field(f, 7, 12) == 3.5


def test_impulse_field():
    f = MeasurementField(Impulse(center=0))
    assert evaluate_field(f, 0, 0) == 1.0
    assert evaluate_field(f, 1, 0) == 0.0
    assert evaluate_field(f, 0, 9) == 1.0  # constant in time
    # any integer centre, numpy and negative ones too
    assert evaluate_grid(MeasurementField(Impulse(np.int64(3))), 5, 1).tolist() == [[0, 0, 0, 1, 0]]
    assert not evaluate_grid(MeasurementField(Impulse(-2)), 5, 1).any()


@pytest.mark.parametrize("bad", [2.5, 2.0, True, np.float64(2.0), "2", None])
def test_impulse_center_must_be_an_integer(bad):
    # before, center 2.5 gave an all-zero field and True a spike at sensor 1
    with pytest.raises(ValidationError, match=r"^impulse center must be an integer, got "):
        Impulse(center=bad)


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



@pytest.mark.parametrize("make, message", [
    (lambda: Noise(True), r"^noise sigma must be finite and >= 0, got True$"),
    (lambda: Noise("1.0"), r"^noise sigma must be finite and >= 0, got '1\.0'$"),
    (lambda: Noise(-1.0), r"^noise sigma must be finite and >= 0, got -1\.0$"),
    (lambda: Constant(None), r"^constant value must be finite, got None$"),
    (lambda: Constant(False), r"^constant value must be finite, got False$"),
    (lambda: SpatialCosine(1.0, "0.1"), r"^cosine omega_s must be finite, got '0\.1'$"),
    (lambda: TemporalCosine(None, 0.1), r"^cosine amplitude must be finite, got None$"),
], ids=["sigma-bool", "sigma-str", "sigma-negative", "constant-None", "constant-bool",
        "cosine-str", "cosine-None"])
def test_field_parameters_must_be_real_numbers(make, message):
    # Noise(True) built with sigma = 1, and a string or None raised a bare TypeError
    with pytest.raises(ValidationError, match=message):
        make()


def test_field_parameters_may_be_numpy_numbers():
    assert Constant(np.float32(0.5)).at(0, 0) == 0.5
    assert Noise(np.int64(2)).sigma == 2
    assert SpatialCosine(np.float64(1.0), np.int8(0)).at(3, 0) == 1.0

def test_negative_step_rejected():
    with pytest.raises(ValidationError, match="time step"):
        evaluate_field(MeasurementField(Constant(1.0)), 0, -1)


def test_negative_sensor_rejected():
    with pytest.raises(ValidationError, match="sensor index"):
        evaluate_field(MeasurementField(Constant(1.0)), -1, 0)


def test_noise_is_reproducible_per_point():
    f = MeasurementField(Constant(0.0), noise=Noise(1.0, seed=9))
    a = evaluate_field(f, 3, 5)
    b = evaluate_field(f, 3, 5)
    assert a == b
    assert evaluate_field(f, 3, 6) != a
    assert evaluate_field(f, 4, 5) != a


@pytest.mark.parametrize("seed", [-1, 2 ** 128, 2 ** 130, 1.0, True])
def test_noise_seed_outside_the_philox_key_is_rejected(seed):
    # reduced mod 2**128 the key would repeat a seed in range: -1 and
    # 2**128 - 1 drew the same noise, and so did 2**128 and 0
    with pytest.raises(ValidationError, match="noise seed"):
        Noise(1.0, seed=seed)
    Noise(1.0, seed=2 ** 128 - 1)


@pytest.mark.parametrize("seed", [np.uint8(200), np.int32(7), np.int64(2 ** 62 + 3),
                                  np.uint64(2 ** 64 - 1)])
def test_numpy_integer_noise_seeds_draw_the_python_ints_noise(seed):
    def field(s):
        return MeasurementField(Constant(0.0), noise=Noise(1.0, seed=s))
    assert evaluate_grid(field(seed), 6, 3).tobytes() == \
        evaluate_grid(field(int(seed)), 6, 3).tobytes()
    assert evaluate_field(field(seed), 5, 2) == evaluate_field(field(int(seed)), 5, 2)


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
    rows = draw(st.integers(max(1, n - 1), n + 2))  # may stop short of the chain or run past it
    shape = rows if name == "table1" else (rows, draw(st.integers(max(1, steps - 1), steps + 2)))
    return TableField(draw(arrays(np.float64, shape, elements=_VALUES)))


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


# seeds whose key has a zero high word, a low word at or above 2**63, and a
# nonzero high word
_SEEDS = st.one_of(st.integers(0, 2 ** 63 - 1), st.integers(2 ** 63, 2 ** 64 - 1),
                   st.integers(2 ** 64, 2 ** 128 - 1))


def _numpy_rows(noise, n, steps):
    """Row k: the first n draws of numpy's own `Generator(Philox(key=<the
    seed's two words>, counter=[0, k, 0, 0]))`, built afresh for each row."""
    key = np.array([noise.seed % 2 ** 64, noise.seed >> 64], dtype=np.uint64)
    half = math.sqrt(3.0) * noise.sigma
    rows = []
    for k in range(steps):
        gen = np.random.Generator(np.random.Philox(
            key=key, counter=np.array([0, k, 0, 0], dtype=np.uint64)))
        rows.append(noise.sigma * gen.standard_normal(n) if noise.distribution == "gaussian"
                    else gen.uniform(-half, half, n))
    return np.array(rows).reshape(steps, n)


@settings(max_examples=25, deadline=None)
@given(_SEEDS, st.sampled_from(["gaussian", "uniform"]), st.floats(0.01, 10.0),
       st.integers(1, 2200), st.integers(1, 6))
def test_noise_rows_are_numpys_philox_streams(seed, distribution, sigma, n, steps):
    noise = Noise(sigma, distribution, seed)
    assert _noise_grid(noise, n, steps).tobytes() == _numpy_rows(noise, n, steps).tobytes()


def _noise_pointwise(noise, n, steps):
    return np.array([[_noise_at(noise, i, k) for i in range(n)] for k in range(steps)])


@settings(max_examples=25, deadline=None)
@given(_SEEDS, st.sampled_from(["gaussian", "uniform"]), st.floats(0.01, 10.0),
       st.integers(1, 2200))
def test_noise_grid_matches_the_point_spec_on_grids_with_rejections(seed, distribution,
                                                                   sigma, n):
    # 2,000 to 4,000 points: a Gaussian grid has about 1.5 % of its points
    # outside the ziggurat's accept path, each drawing extra words
    steps = -(-2000 // n)
    noise = Noise(sigma, distribution, seed)
    assert _noise_grid(noise, n, steps).tobytes() == _noise_pointwise(noise, n, steps).tobytes()


@pytest.mark.parametrize("distribution", ["gaussian", "uniform"])
def test_noise_grid_matches_the_point_spec_across_blocks(distribution):
    # Philox hands out its words four to a counter block; a 4,099-value row
    # leaves words of its last block unused, and the next row must not start
    # on them
    noise = Noise(0.5, distribution, 2 ** 64 + 3)
    assert _noise_grid(noise, 4099, 3).tobytes() == _noise_pointwise(noise, 4099, 3).tobytes()


def test_noise_grid_matches_the_point_spec_on_layer_zero():
    # seed 1 on 50 x 40: step 36's first word falls in the ziggurat's base
    # layer (low byte 0) and is rejected into the tail beyond r = 3.654..,
    # which draws further words; every later draw of that row is shifted
    n, steps, noise = 50, 40, Noise(1.0, "gaussian", 1)
    bits = np.random.Philox(key=np.array([1, 0], dtype=np.uint64),
                            counter=np.array([0, 36, 0, 0], dtype=np.uint64))
    assert int(bits.random_raw()) & 0xFF == 0
    grid = _noise_grid(noise, n, steps)
    r = 3.6541528853610088  # where numpy's normal ziggurat's tail starts
    assert abs(grid[36, 0]) > r
    assert np.count_nonzero(np.abs(grid) > r) == 1
    assert grid.tobytes() == _noise_pointwise(noise, n, steps).tobytes()


@settings(max_examples=40, deadline=None)
@given(_SEEDS, st.sampled_from(["gaussian", "uniform"]), st.integers(1, 300),
       st.integers(0, 300), st.integers(0, 12), st.integers(1, 12), st.integers(0, 12))
def test_a_block_of_steps_or_sensors_is_a_slice_of_the_whole_grid(seed, distribution, n, more,
                                                                  first, block, later):
    # the rows of steps first..first+block-1 do not depend on the rows after
    # them, and a row's first values do not depend on the chain length
    field = MeasurementField(SpatialCosine(1.0, 0.3), noise=Noise(0.8, distribution, seed))
    whole = evaluate_grid(field, n + more, first + block + later)
    assert evaluate_grid(field, n, first + block)[first:].tobytes() == \
        whole[first:first + block, :n].tobytes()


def test_short_table_grid_raises_the_pointwise_scan_error():
    table = TableField(np.ones((2, 2)))
    with pytest.raises(OutOfDomainError, match=r"^sensor 2 outside table rows \[0, 2\)$"):
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
            assert evaluate_field(field, 0, 1) != evaluate_field(field, 0, 0)
