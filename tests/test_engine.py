"""The round loop in `chain.run` against the per-sensor transition functions.

The scalar transitions are the reference spec: `_reference` steps them one
sensor at a time, and `run()` must agree with it bit for bit on y, z and the
message audit for every rule and boundary.  The golden digests pin the exact
CSV bytes of fixed runs.
"""
import hashlib
import math
import operator
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import lacsim.chain as chain_module
import lacsim.g17 as g17
from lacsim import (AsymmetricWeighting, BandedWeighting, ChainConfig, ConsensusTrace, Constant,
                    DynamicExponential, DynamicWindow, ExponentialWeighting, FBState,
                    FiniteWindow, Impulse, MeasurementField, MessageRecord, Noise,
                    PerSensorWindow, Ring, SpatialCosine, TableField, TemporalCosine, Truncated,
                    WeightTable, ZeroHalo,
                    asym_transition, assemble_y, dyn_exp_transition, evaluate_field,
                    exp_transition, fb_transition, glue, run, trace_to_csv,
                    variable_window_transition, window_transition, z_slot_transition)

_DYNAMIC = (DynamicExponential, DynamicWindow)


def _reference(config, field, algo):
    """(y, z, audit) from the scalar transitions, one sensor at a time."""
    n, rounds = config.n, config.rounds
    ring = isinstance(config.boundary, Ring)
    off = config.halo_depth()
    size = n + 2 * off
    dynamic = isinstance(algo, _DYNAMIC)
    slots = algo.half_width + 1 if isinstance(algo, DynamicWindow) else 0

    def x(e, k):
        label = e - off
        return evaluate_field(field, label, k if dynamic else 0) if 0 <= label < n else 0.0

    def nb(e):
        if ring:
            return (e - 1) % size, (e + 1) % size
        return (e - 1 if e > 0 else None), (e + 1 if e < size - 1 else None)

    def clamp(e):  # ghosts reuse the edge sensor's parameters
        return min(max(e - off, 0), n - 1)

    zero = (0.0, 0.0)
    zeros = (0.0,) * slots
    stop, payload = (lambda e: rounds), 1
    y_of = (lambda s, prev, e, t: s[e])
    if isinstance(algo, ExponentialWeighting):
        def step(t, e, own, lh, rh):
            return exp_transition(t, own, lh or zero, rh or zero, x(e, 0), algo.rho)
    elif isinstance(algo, AsymmetricWeighting):
        def step(t, e, own, lh, rh):
            return asym_transition(t, own, lh or zero, rh or zero, x(e, 0),
                                   algo.rho_back, algo.rho_forward)
    elif isinstance(algo, FiniteWindow):
        stop = lambda e: algo.half_width

        def step(t, e, own, lh, rh):
            return window_transition(t, own, lh or zero, rh or zero, x(e, 0), algo.half_width)
    elif isinstance(algo, PerSensorWindow):
        stop = lambda e: algo.half_widths[clamp(e)]

        def step(t, e, own, lh, rh):
            return variable_window_transition(t, own, lh or zero, rh or zero, x(e, 0), stop(e))
    elif isinstance(algo, BandedWeighting):
        table = algo.table
        stop, payload = (lambda e: table.radius), 2

        def row(e):
            return None if e is None else table.weights[clamp(e)]

        def step(t, e, own, lh, rh):
            le, ri = nb(e)
            return fb_transition(t, own, rh, lh, x(e, 0), row(e), row(ri), row(le),
                                 table.row_sum)

        y_of = lambda s, prev, e, t: glue(s[e], x(e, 0), row(e)[table.radius], table.row_sum)
    elif isinstance(algo, DynamicExponential):
        def step(t, e, own, lh, rh):
            recent = tuple(x(e, k) for k in range(t, max(t - 3, 0) - 1, -1))
            return dyn_exp_transition(t, own, lh or zero, rh or zero, recent, algo.rho)
    else:
        payload = slots

        def step(t, e, own, lh, rh):
            lh, rh = lh or (zeros, zeros), rh or (zeros, zeros)
            return tuple(z_slot_transition(t, j, tuple(v[j] for v in own),
                                           tuple(v[j] for v in lh), tuple(v[j] for v in rh),
                                           x(e, t), algo.half_width)
                         for j in range(slots))

        y_of = lambda s, prev, e, t: assemble_y(s[e], prev[e] if prev else zeros, t,
                                                algo.half_width)

    hist = [[step(0, e, (), (), ()) for e in range(size)]]
    ys = [[y_of(hist[0], None, e + off, 0) for e in range(n)]]
    zs = [hist[0][off:off + n]]
    audit = []
    for t in range(1, rounds + 1):
        new = list(hist[0])
        for e in range(size):
            if t > stop(e):
                continue
            le, ri = nb(e)
            lh = rh = None
            if le is not None:
                lh = tuple(h[le] for h in hist[:2])
                audit.append((t, e - off, le - off, payload))
            if ri is not None:
                rh = tuple(h[ri] for h in hist[:2])
                audit.append((t, e - off, ri - off, payload))
            new[e] = step(t, e, tuple(h[e] for h in hist[:3]), lh, rh)
        hist = [new] + hist[:2]
        ys.append([y_of(new, hist[1], e + off, t) for e in range(n)])
        zs.append(new[off:off + n])
    y = np.array(ys, dtype=float).T
    z = np.array(zs, dtype=float).transpose(1, 0, 2) if slots else None
    return y, z, audit


def _bits(a):
    return None if a is None else np.ascontiguousarray(a).tobytes()


def _widths(steps, first):
    """Half-widths >= 1 whose neighbors differ by at most one."""
    widths = [first]
    for s in steps:
        widths.append(max(1, widths[-1] + s))
    return tuple(widths)


@st.composite
def _cases(draw):
    kind = draw(st.sampled_from(["exp", "asym", "window", "variable_window", "arbitrary",
                                 "dyn_exp", "dyn_window"]))
    boundary = draw(st.sampled_from(["ring", "zero_halo", "truncated"]))
    if kind == "dyn_window":  # enough slots and rounds for groups of several slots to wrap
        reach = draw(st.integers(1, 8))
        rounds = draw(st.integers(0, 3 * (reach + 1)))
    else:
        reach, rounds = draw(st.integers(1, 4)), draw(st.integers(0, 9))
    least = 2 * reach + 1 if boundary == "ring" else 3
    n = draw(st.integers(least, max(least, 16)))
    rho = draw(st.floats(0.05, 0.95))
    if boundary == "ring":
        bnd = Ring()
    elif boundary == "zero_halo":
        bnd = ZeroHalo()
    else:
        bnd = Truncated()
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if kind == "exp":
        algo = ExponentialWeighting(rho)
    elif kind == "asym":
        algo = AsymmetricWeighting(rho, draw(st.floats(0.05, 0.95)))
    elif kind == "window":
        algo = FiniteWindow(reach)
    elif kind == "variable_window":
        steps = draw(st.lists(st.sampled_from([-1, 0, 1]), min_size=n - 1, max_size=n - 1))
        widths = _widths(steps, reach)
        if boundary == "ring":  # wrap pair within one, and room for the widest window
            widths = tuple(min(w, 1 + i, n - i, (n - 1) // 2) for i, w in enumerate(widths))
        algo = PerSensorWindow(widths)
    elif kind == "arbitrary":
        weights = rng.uniform(-1.0, 1.0, (n, 2 * reach + 1))
        weights[weights == 0.0] = 0.5
        algo = BandedWeighting(WeightTable(weights, float(rng.uniform(0.5, 2.0)), reach))
    elif kind == "dyn_exp":
        algo = DynamicExponential(rho)
    else:
        algo = DynamicWindow(reach)
    shape = (n, rounds + 1) if isinstance(algo, _DYNAMIC) else n
    values = rng.uniform(-1.0, 1.0, shape)
    values[rng.random(shape) < 0.25] = 0.0  # exact zeros exercise signed-zero arithmetic
    return ChainConfig(n=n, boundary=bnd, rounds=rounds), MeasurementField(TableField(values)), algo


@settings(max_examples=150, deadline=None)
@given(_cases())
def test_run_matches_per_sensor_transitions(case):
    trace = run(*case)
    y, z, audit = _reference(*case)
    assert _bits(trace.y) == _bits(y)
    assert _bits(trace.z) == _bits(z)
    assert trace.audit.tolist() == audit


@pytest.mark.parametrize("boundary", [Ring(), ZeroHalo(), Truncated()])
def test_run_matches_per_sensor_transitions_while_some_sensors_are_frozen(boundary):
    # rounds 2..4 step only the sensors whose half-width is not yet reached
    widths = (1, 2, 3, 4, 4, 3, 2, 1, 1, 2, 3, 2)
    rng = np.random.default_rng(5)
    case = (ChainConfig(n=len(widths), boundary=boundary, rounds=7),
            MeasurementField(TableField(rng.uniform(-1.0, 1.0, len(widths)))),
            PerSensorWindow(widths))
    trace = run(*case)
    y, z, audit = _reference(*case)
    assert _bits(trace.y) == _bits(y)
    assert trace.audit.tolist() == audit
    # a frozen sensor's value stays put while its neighbors still move
    assert np.array_equal(trace.y[0, 1:], np.repeat(trace.y[0, 1], 7))
    assert trace.y[3, 3] != trace.y[3, 4]


@pytest.mark.parametrize("algo", [ExponentialWeighting(0.5), DynamicWindow(2)])
@pytest.mark.parametrize("boundary", [Ring(), ZeroHalo()])
def test_run_stores_the_trace_round_major(algo, boundary):
    trace = run(ChainConfig(n=9, boundary=boundary, rounds=4),
                MeasurementField(SpatialCosine(1.0, 0.3)), algo)
    assert trace.y.shape == (9, 5)
    assert trace.y.T.flags.c_contiguous
    if trace.z is not None:
        assert trace.z.shape == (9, 5, 3)
        assert trace.z.transpose(1, 0, 2).flags.c_contiguous


def _golden_cases():
    n, rounds = 12, 9
    static = MeasurementField(TableField(np.linspace(-1.0, 1.0, n) ** 3))
    dynamic = MeasurementField(TableField(
        np.sin(np.arange(n)[:, None] * 0.7 + np.arange(rounds + 1)[None, :] * 0.3)))
    weights = np.cos(np.arange(n * 7).reshape(n, 7) * 0.9) + 0.05
    rules = {
        "exp": (ExponentialWeighting(0.6), static),
        "asym": (AsymmetricWeighting(0.5, 0.25), static),
        "window": (FiniteWindow(3), static),
        "variable_window": (PerSensorWindow((2, 2, 3, 3, 4, 5, 5, 4, 3, 3, 2, 2)), static),
        "arbitrary": (BandedWeighting(WeightTable(weights, 1.7, 3)), static),
        "dyn_exp": (DynamicExponential(0.7), dynamic),
        "dyn_window": (DynamicWindow(2), dynamic),
    }
    boundaries = {"ring": Ring(), "zero_halo": ZeroHalo(), "truncated": Truncated()}
    for rule, (algo, field) in rules.items():
        for name, boundary in boundaries.items():
            yield f"{rule}/{name}", ChainConfig(n=n, boundary=boundary, rounds=rounds), field, algo
    noisy = MeasurementField(SpatialCosine(1.0, 0.4), noise=Noise(0.3, seed=11))
    yield "exp/noisy", ChainConfig(n=n, boundary=ZeroHalo(), rounds=rounds), noisy, \
        ExponentialWeighting(0.8)


# generated by the per-sensor engine this round loop replaced
GOLDEN = {
    "exp/ring": "0cd787881eb000a379fd74ff1a21ba2b2ce8aa776eee11a60658e7e0b3dfbd6c",
    "exp/zero_halo": "33620f3b173ae13c3385cdafc8c1b0441f62d26b61344ae8ca67fb734b10af06",
    "exp/truncated": "11090c0d9482195da43f2621fcd68069139c2b197ad05df0977f4f2d9cac9976",
    "asym/ring": "7d37ed654b357411d4473c5d72b89ccd726399ec200a16e0aedbe82c307c82d1",
    "asym/zero_halo": "629aed5c27e72f71d4a28a57ac0d5cca790ca90c16b9b2a914859a63dce9f574",
    "asym/truncated": "3917648a913c109f7a7608608e4cd37010c56e848f9f9197bad3e1eaceea5182",
    "window/ring": "68d1cd953a2eb025a35a6cc6d1a957cb067ec6d4b62ca1a469e5e73756d75419",
    "window/zero_halo": "b0d838536e8ebb7aac2f0a049eae06144b0c72e35a8341ba72498b7a2f0fcce4",
    "window/truncated": "ccb011065e089b4bb2841664a0404ea1e631a4ea8f5534d447fc700747d832af",
    "variable_window/ring": "f0e4b7781b00d5b10448fd124edf13c488697e9ee96eadf02d3517e517a56325",
    "variable_window/zero_halo": "dc7bdc443feea668a60a2e2a946e7e22e396f86047770d3631a1b5ed99a646d3",
    "variable_window/truncated": "3c2aed9dc89a17d24cee894f3a56d681327b921f698439a8887b4fab3f49af0b",
    "arbitrary/ring": "1a8b919b2be45e0c57103ae8ac35ba967626f9baebfba30fe648449f7c2b60a6",
    "arbitrary/zero_halo": "ab8a4bd455e1eb5d5cb7feb66b87580b92c5990e9855d3755bb1bec4598d254c",
    "arbitrary/truncated": "ab8a4bd455e1eb5d5cb7feb66b87580b92c5990e9855d3755bb1bec4598d254c",
    "dyn_exp/ring": "aed0f3ab395c9446c1a66d8118e827599de40108d21145147f97a04ada299c67",
    "dyn_exp/zero_halo": "02ddf4493e92df15fc1d030dc5acbe4e2b1c89b94b930badc6ccd88e8cd75bbc",
    "dyn_exp/truncated": "2e307fd424a0e56185d48d5d3d66b1176c2fdb8fab09b1bb81ff5b180afe1c65",
    "dyn_window/ring": "c531db98a30f6a6647a27f63b3835f07e5a7b652165e323b92ed22d566061bfe",
    "dyn_window/zero_halo": "72fe2def600132fdf49bd3780df33b2e6d3a3f95e7adaaf67650c5800a2131eb",
    "dyn_window/truncated": "c73518a6681f7e9fdc6069b27c0929c50c7f02f0782ce0f9b08d782281d0c9bd",
    "exp/noisy": "ce73320ca1a03485dbe3488fdd0757cfeed8fc9dd6025c9860814ab5ea7a2b63",
}


def test_golden_trace_digests():
    digests = {name: hashlib.sha256(trace_to_csv(run(cfg, field, algo)).encode()).hexdigest()
               for name, cfg, field, algo in _golden_cases()}
    assert digests == GOLDEN


def _csv_rows(trace):
    """trace_to_csv's bytes, written one row at a time."""
    slots = trace.z.shape[2] if trace.z is not None else 0
    lines = ["round,sensor,y" + "".join(f",z{j}" for j in range(slots))]
    n, cols = trace.y.shape
    for t in range(cols):
        for i in range(n):
            row = [format(trace.y[i, t], ".17g")]
            row += [format(trace.z[i, t, j], ".17g") for j in range(slots)]
            lines.append(f"{t},{i}," + ",".join(row))
    return "\n".join(lines) + "\n"


_EDGE_VALUES = st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1e300, -1e300, 3.0, -7.0,
                                2.0 ** 53, 0.1])


@st.composite
def _traces(draw):
    n, cols, slots = draw(st.integers(1, 12)), draw(st.integers(1, 5)), draw(st.integers(0, 3))
    values = st.one_of(_EDGE_VALUES, st.floats(allow_nan=False, allow_infinity=False))
    y = draw(arrays(np.float64, (n, cols), elements=values))
    z = draw(arrays(np.float64, (n, cols, slots), elements=values)) if slots else None
    # the writer reads only y and z
    return ConsensusTrace(y=y, z=z, config=ChainConfig(n=3), algo=ExponentialWeighting(0.5))


@settings(max_examples=200, deadline=None)
@given(_traces())
def test_trace_csv_matches_row_by_row_writer(trace):
    assert trace_to_csv(trace) == _csv_rows(trace)


def _template_csv(trace):
    """The %-template writer that trace_to_csv replaced: the reference for
    its bytes and its peak memory."""
    slots = trace.z.shape[2] if trace.z is not None else 0
    out = ["round,sensor,y" + "".join(f",z{j}" for j in range(slots)) + "\n"]
    n, cols = trace.y.shape
    # one round's rows as one %-format; `@` stands for the round number.
    # '%.17g' % v converts as format(v, '.17g') does
    template = "".join(f"@,{i},%.17g{',%.17g' * slots}\n" for i in range(n))
    for t in range(cols):
        values = trace.y[:, t] if not slots else np.column_stack((trace.y[:, t], trace.z[:, t]))
        out.append(template.replace("@", str(t)) % tuple(values.ravel().tolist()))
    return "".join(out)


def _from_bits(bits):
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


def _ulps_away(v, k):
    """The float k representable steps from v > 0."""
    return _from_bits(struct.unpack("<Q", struct.pack("<d", v))[0] + k)


_POWERS = [1e-4, 1e15] + [10.0 ** d for d in range(-5, 17)]

# each kind of value the block formatter treats apart: the integer-digit
# window 1e-4 <= |v| < 1e15 and its edges, values near powers of ten (where
# the estimate of the decimal exponent can be off by one), rounding carries,
# short decimals, zeros, and everything left to the per-value fallback
_G17_VALUES = st.one_of(
    st.builds(lambda m, e: float(f"{m!r}e{e}"),
              st.floats(1.0, 10.0, exclude_max=True), st.integers(-330, 310)),
    st.integers(0, 2 ** 64 - 1).map(_from_bits),
    st.builds(_ulps_away, st.sampled_from(_POWERS), st.integers(-3, 3)),
    st.sampled_from([0.99999999999999999, 0.9999999999999999, 9.9999999999999995e14,
                     99999999999999.99, 0.00099999999999999999, 0.5, 100.0, 0.1, 2.5,
                     0.0, -0.0, math.inf, -math.inf, math.nan]),
    st.integers(-10 ** 15, 10 ** 15).map(float),
    st.builds(round, st.floats(-1e6, 1e6), st.integers(0, 6)),
    st.floats(-2.0, 2.0),
)


@st.composite
def _block_traces(draw):
    """Traces around the widths of the round and sensor labels, filled from
    a drawn pool of values."""
    n = draw(st.sampled_from([1, 2, 9, 10, 11, 99, 100, 101, 999, 1000]))
    cols, slots = draw(st.integers(1, 14)), draw(st.integers(0, 4))
    signs = st.sampled_from([1.0, -1.0])
    pool = np.array(draw(st.lists(st.builds(operator.mul, signs, _G17_VALUES),
                                  min_size=1, max_size=40)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    values = pool[rng.integers(0, len(pool), (n, cols, 1 + slots))]
    return ConsensusTrace(y=values[:, :, 0], z=values[:, :, 1:] if slots else None,
                          config=ChainConfig(n=3), algo=ExponentialWeighting(0.5))


@settings(max_examples=60, deadline=None)
@given(_block_traces())
def test_trace_csv_matches_template_writer(trace):
    assert trace_to_csv(trace) == _template_csv(trace)


@settings(max_examples=5, deadline=None)
@given(st.lists(_G17_VALUES, min_size=1, max_size=64), st.integers(0, 2 ** 32 - 1))
def test_trace_csv_matches_template_writer_across_blocks(pool, seed):
    # more values than one block holds, and a count that is no multiple of it
    rng = np.random.default_rng(seed)
    for n, cols, slots in ((4099, 5, 0), (1000, 7, 2)):
        assert (n * cols * (1 + slots)) % chain_module._BLOCK_VALUES
        values = np.array(pool)[rng.integers(0, len(pool), (n, cols, 1 + slots))]
        trace = ConsensusTrace(y=values[:, :, 0], z=values[:, :, 1:] if slots else None,
                               config=ChainConfig(n=3), algo=ExponentialWeighting(0.5))
        assert trace_to_csv(trace) == _template_csv(trace)


@settings(max_examples=3, deadline=None)
@given(st.lists(_G17_VALUES, min_size=1, max_size=64), st.integers(0, 2 ** 32 - 1))
def test_trace_csv_matches_template_writer_when_blocks_slice_a_round(pool, seed):
    # a round alone holds more values than one block, and no multiple of it
    rng = np.random.default_rng(seed)
    for n, cols, slots in ((16411, 2, 0), (3299, 3, 4)):
        assert n * (1 + slots) > chain_module._BLOCK_VALUES
        assert (n * (1 + slots)) % chain_module._BLOCK_VALUES
        values = np.array(pool)[rng.integers(0, len(pool), (n, cols, 1 + slots))]
        trace = ConsensusTrace(y=values[:, :, 0], z=values[:, :, 1:] if slots else None,
                               config=ChainConfig(n=3), algo=ExponentialWeighting(0.5))
        assert trace_to_csv(trace) == _template_csv(trace)


def test_trace_csv_matches_template_writer_on_random_values():
    rng = np.random.default_rng(17)
    bits = rng.integers(0, 2 ** 64, 2 ** 15, dtype=np.uint64, endpoint=False).view(np.float64)
    spread = rng.choice([-1.0, 1.0], 2 ** 15) * 10.0 ** rng.uniform(-6.0, 17.0, 2 ** 15)
    values = np.concatenate((bits, spread)).reshape(-1, 8, 2)
    trace = ConsensusTrace(y=values[:, :, 0], z=values[:, :, 1:], config=ChainConfig(n=3),
                           algo=ExponentialWeighting(0.5))
    assert trace_to_csv(trace) == _template_csv(trace)


def test_trace_csv_peak_memory_within_template_writer():
    trace = run(ChainConfig(n=65536, rounds=3), MeasurementField(SpatialCosine(1.0, 0.3)),
                ExponentialWeighting(0.8))

    def peak(writer):
        tracemalloc.start()
        try:
            writer(trace)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(trace_to_csv) <= peak(_template_csv)


def _layout_key(v):
    """(decimal exponent, significant digits, negative) of '%.17g' % v."""
    mantissa, exponent = f"{abs(v):.16e}".split("e")
    return int(exponent), len(mantissa.replace(".", "").rstrip("0")), math.copysign(1.0, v) < 0


def _layout_values():
    """One double for each layout key of `g17.write_g17` (exponent -4..14, 1..17
    significant digits, either sign), then the edges of its fast window and
    values only the per-value fallback writes."""
    rng = np.random.default_rng(23)
    values = []
    for d in range(-4, 15):
        for c in range(1, 18):
            # c-digit decimals, the last digit nonzero; the first whose nearest
            # double keeps exactly those digits at 17 significant digits
            while True:
                digits = rng.integers([1] + [0] * (c - 2) + [1] * (c > 1), 10).astype(str)
                v = float(f"{digits[0]}.{''.join(digits[1:])}e{d}")
                if _layout_key(v) == (d, c, False):
                    values += [v, -v]
                    break
    below = np.nextafter
    values += [0.0, -0.0, 1e-4, below(1e-4, 0.0), 1e15, below(1e15, 0.0), 9.9999999999999995e14,
               math.inf, -math.inf, math.nan, 5e-324, 2.2250738585072014e-308 / 3]
    return np.array(values + [-v for v in values[-12:]])


def test_trace_csv_writes_every_layout_key_and_the_fallback_values():
    values = _layout_values()
    keys = {_layout_key(v) for v in values[:-24]}
    assert keys == {(d, c, s) for d in range(-4, 15) for c in range(1, 18) for s in (False, True)}
    out = np.zeros((len(values), g17.WIDTH), dtype=np.uint8)
    g17.write_g17(values, out)
    assert [row.tobytes().translate(None, b"\0").decode() for row in out] == \
        ["%.17g" % v for v in values]
    for slots in (0, 4):  # a y-only trace and [y | z] rows
        grid = values[:len(values) // (1 + slots) * (1 + slots)].reshape(-1, 1, 1 + slots)
        trace = ConsensusTrace(y=grid[:, :, 0], z=grid[:, :, 1:] if slots else None,
                               config=ChainConfig(n=3), algo=ExponentialWeighting(0.5))
        assert trace_to_csv(trace) == _template_csv(trace)


@pytest.mark.parametrize("n, cols", [(3, 10001), (100003, 1)])
def test_trace_csv_labels_past_four_and_five_digits(n, cols):
    # round labels to 10000 and sensor labels to 100002: two 4-digit groups
    values = np.random.default_rng(n).choice([0.5, -1.25, 3.0, 1e-300], (n, cols))
    trace = ConsensusTrace(y=values, z=None, config=ChainConfig(n=3),
                           algo=ExponentialWeighting(0.5))
    assert trace_to_csv(trace) == _template_csv(trace)


@pytest.mark.parametrize("block", [1, 2, 7])
def test_trace_csv_matches_template_writer_in_tiny_blocks(block, monkeypatch):
    # a block of one row, or of a slice of one round: labels and [y | z]
    # gathered per block
    monkeypatch.setattr(chain_module, "_CSV_BLOCK", block)
    values = np.random.default_rng(block).choice(_layout_values(), (5, 4, 4))
    trace = ConsensusTrace(y=values[:, :, 0], z=values[:, :, 1:], config=ChainConfig(n=3),
                           algo=ExponentialWeighting(0.5))
    assert trace_to_csv(trace) == _template_csv(trace)
    y_only = ConsensusTrace(y=values[:, :, 0], z=None, config=ChainConfig(n=3),
                            algo=ExponentialWeighting(0.5))
    assert trace_to_csv(y_only) == _template_csv(y_only)


def test_block_tests_cross_and_slice_the_writer_blocks():
    # the two hypothesis tests above guard their shapes by _BLOCK_VALUES,
    # which sizes the slot stepping; the writer's blocks are _CSV_BLOCK values
    block = chain_module._CSV_BLOCK
    for n, cols, slots in ((4099, 5, 0), (1000, 7, 2)):  # ..._across_blocks
        assert n * cols * (1 + slots) > block and (n * cols * (1 + slots)) % block
    for n, cols, slots in ((16411, 2, 0), (3299, 3, 4)):  # ..._when_blocks_slice_a_round
        assert n * (1 + slots) > block and (n * (1 + slots)) % block


def _trace_of(values):
    """A trace of (n, rounds + 1, 1 + slots) values: y, then z if slots."""
    return ConsensusTrace(y=values[:, :, 0], z=values[:, :, 1:] if values.shape[2] > 1 else None,
                          config=ChainConfig(n=3), algo=ExponentialWeighting(0.5))


def _repeat_shares(trace):
    """The shares of rows that repeat the row before them (round-major) and
    of rounds that repeat the round before them, bit for bit."""
    rows = np.ascontiguousarray(trace.y.T)[:, :, None]
    if trace.z is not None:
        rows = np.concatenate((rows, trace.z.transpose(1, 0, 2)), axis=2)
    bits = rows.view(np.uint64)
    flat = bits.reshape(-1, bits.shape[2])
    rounds = bits.reshape(len(bits), -1)
    return (flat[1:] == flat[:-1]).all(axis=1).mean(), (rounds[1:] == rounds[:-1]).all(axis=1).mean()


_BOUNDARIES = {"ring": Ring(), "zero_halo": ZeroHalo(), "truncated": Truncated()}
_REPEATING = {"constant": Constant(0.7), "temporal_cosine": TemporalCosine(1.0, 0.3),
              "impulse": Impulse(center=500)}


@pytest.mark.parametrize("algo", [ExponentialWeighting(0.6), FiniteWindow(3), DynamicWindow(2)],
                         ids=["exp", "window", "dyn_window"])
@pytest.mark.parametrize("boundary", sorted(_BOUNDARIES))
@pytest.mark.parametrize("kind", sorted(_REPEATING))
def test_trace_csv_matches_row_by_row_writer_on_repeating_fields(kind, boundary, algo):
    # uniform and impulse inputs give long runs of equal neighbors, the
    # window's rounds past L repeat, and the dynamic window's slots repeat
    # with y: rows and rounds that the writer copies, over several blocks
    trace = run(ChainConfig(n=1000, boundary=_BOUNDARIES[boundary], rounds=12),
                MeasurementField(_REPEATING[kind]), algo)
    assert _repeat_shares(trace)[0] >= 0.5
    assert trace_to_csv(trace) == _csv_rows(trace)


def _frozen_rules(n, rng):
    widths = _widths(rng.choice([-1, 0, 1], n - 1), 2)
    return {"window": FiniteWindow(3), "variable_window": PerSensorWindow(
                tuple(min(w, 3, 1 + i, n - i) for i, w in enumerate(widths))),
            "banded": BandedWeighting(WeightTable(rng.uniform(0.5, 1.5, (n, 5)), 5.0, 2))}


@pytest.mark.parametrize("boundary", sorted(_BOUNDARIES))
@pytest.mark.parametrize("rule", ["window", "variable_window", "banded"])
def test_trace_csv_matches_row_by_row_writer_past_the_last_active_round(rule, boundary):
    # every round past the last active one repeats it; 8 rounds a block, so
    # the frozen stretch starts inside a block and runs on over the next two
    n, rng = 1000, np.random.default_rng(7)
    trace = run(ChainConfig(n=n, boundary=_BOUNDARIES[boundary], rounds=20),
                MeasurementField(TableField(rng.uniform(-1.0, 1.0, n))), _frozen_rules(n, rng)[rule])
    assert _repeat_shares(trace)[1] >= 0.75
    assert trace_to_csv(trace) == _csv_rows(trace)


def test_trace_csv_formats_each_distinct_row_once(monkeypatch):
    written = []

    def counted(values, cells):
        written.append(values.shape[0])
        g17.write_g17(values, cells)

    monkeypatch.setattr(chain_module, "write_g17", counted)
    n = 1000
    field = MeasurementField(TableField(np.random.default_rng(7).uniform(-1.0, 1.0, n)))
    # the window stops at round 3: rounds 4..20 copy round 3's text
    trace = run(ChainConfig(n=n, rounds=20), field, FiniteWindow(3))
    assert trace_to_csv(trace) == _csv_rows(trace)
    assert sum(written) == 4 * n
    # a constant field on a ring: every sensor equal in a round, no round
    # repeating the last
    written.clear()
    trace = run(ChainConfig(n=n, rounds=6), MeasurementField(Constant(0.7)),
                ExponentialWeighting(0.6))
    assert _repeat_shares(trace)[1] == 0.0
    assert trace_to_csv(trace) == _csv_rows(trace)
    assert sum(written) == 7
    # the dynamic window's reference case: runs of rows of y and 4 slots
    written.clear()
    trace = run(ChainConfig(n=512, boundary=ZeroHalo(), rounds=24),
                MeasurementField(TemporalCosine(1.0, 0.3)), DynamicWindow(3))
    assert trace_to_csv(trace) == _csv_rows(trace)
    assert sum(written) < 0.05 * 512 * 25


@pytest.mark.parametrize("slots", [0, 3])
def test_trace_csv_tells_signed_zeros_apart_in_copied_rows_and_rounds(slots):
    # rows of zeros, every 7th ending in -0.0; round 3 repeats round 2 but at
    # sensor 302, whose last zero turns to -0.0; rounds 4 and 5 repeat round 3
    n, cols = 600, 6
    values = np.zeros((n, cols, 1 + slots))
    values[::7, :, -1] = -0.0
    assert not np.signbit(values[302, 2, -1])
    values[302, 3:, -1] = -0.0
    trace = _trace_of(values)
    along, back = _repeat_shares(trace)
    assert along > 0.5 and back == 0.8
    assert trace_to_csv(trace) == _csv_rows(trace)


@pytest.mark.parametrize("sensor", [0, 1, 499, 999])
def test_trace_csv_formats_a_round_that_differs_from_the_last_at_one_sensor(sensor):
    rng = np.random.default_rng(sensor)
    values = np.repeat(rng.uniform(-1.0, 1.0, (1000, 1, 3)), 20, axis=1)
    values[sensor, 9:, 1] = 2.0  # round 9 is round 8 but at one sensor, in one z column
    values[sensor, 14:, 0] = 3.0  # round 14 is round 13 but in y
    trace = _trace_of(values)
    assert _repeat_shares(trace)[1] == 17 / 19
    assert trace_to_csv(trace) == _csv_rows(trace)


_ZERO_POOL = st.sampled_from([0.0, -0.0, 1.5, -2.25, 1e-300, 0.1])


@st.composite
def _repeating_traces(draw):
    """A writer block size and a trace built of runs of equal neighboring
    rows and of rounds that repeat the last, or repeat it but for one value,
    with signed zeros among the values."""
    block = draw(st.sampled_from([1, 2, 3, 5, 8, 16, 33, 100]))
    n, cols, width = draw(st.integers(1, 40)), draw(st.integers(1, 12)), draw(st.integers(1, 3))
    rounds = []
    for t in range(cols):
        how = draw(st.sampled_from(["runs", "repeat", "repeat_but_one"])) if t else "runs"
        if how == "runs":
            row = []
            while len(row) < n:
                row += [[draw(_ZERO_POOL) for _ in range(width)]] * draw(st.integers(1, n))
            rounds.append(np.array(row[:n]))
        else:
            rounds.append(rounds[-1].copy())
            if how == "repeat_but_one":
                rounds[-1][draw(st.integers(0, n - 1)), draw(st.integers(0, width - 1))] = \
                    draw(_ZERO_POOL)
    return block, np.stack(rounds, axis=1)


@settings(max_examples=150, deadline=None)
@given(_repeating_traces())
def test_trace_csv_matches_row_by_row_writer_on_runs_and_repeated_rounds(case):
    # blocks of a few rows cut the runs and the repeated stretches anywhere:
    # a block of whole rounds, or a slice of one round, starts mid-run, and a
    # repeated round's text comes from a round of an earlier block
    block, values = case
    trace = _trace_of(values)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(chain_module, "_CSV_BLOCK", block)
        assert trace_to_csv(trace) == _csv_rows(trace)


def test_trace_csv_copies_runs_and_rounds_across_full_size_blocks():
    rng = np.random.default_rng(11)
    block = chain_module._CSV_BLOCK
    # one round outgrows a block: a run of equal rows and the slices of
    # rounds 2..4, repeats of round 1, cross the slice boundary
    values = np.repeat(rng.uniform(-1.0, 1.0, (block + 100, 1, 2)), 5, axis=1)
    values[block - 50:block + 50] = values[block - 50]
    values[:, 0] = rng.uniform(-1.0, 1.0, (block + 100, 2))
    trace = _trace_of(values)
    assert trace_to_csv(trace) == _csv_rows(trace)
    # 8 rounds a block: rounds 6..19 repeat round 5, across two blocks
    values = rng.uniform(-1.0, 1.0, (1000, 20, 1))
    values[:, 6:] = values[:, 5:6]
    trace = _trace_of(values)
    assert trace_to_csv(trace) == _csv_rows(trace)


def test_transitions_leave_array_inputs_unmodified():
    rng = np.random.default_rng(3)
    m, L = 5, 3

    def arrays(count):
        return [rng.uniform(-1.0, 1.0, m) for _ in range(count)]

    for k in range(4):
        own, left, right, x = arrays(min(k, 3)), arrays(min(k, 2)), arrays(min(k, 2)), arrays(4)
        # round 0 hands out one array as both sums, so aliasing must be harmless
        fb = [FBState(a, a) for a in own]
        fwd, bwd = [FBState(a, a[::-1]) for a in left], [FBState(a[::-1], a) for a in right]
        band = rng.uniform(0.5, 1.5, (2 * L + 1, m))
        z_now, z_prev = rng.uniform(-1.0, 1.0, (2, L + 1, m))
        inputs = [own, left, right, x, band, z_now, z_prev]
        before = [np.array(v, copy=True) for v in inputs]
        exp_transition(k, own, left, right, x[0], 0.5)
        asym_transition(k, own, left, right, x[0], 0.5, 0.3)
        window_transition(k, own, left, right, x[0], L)
        variable_window_transition(k, own, left, right, x[0], np.array([3, 4, 3, 5, 4]))
        dyn_exp_transition(k, own, left, right, x, 0.5)
        for j in range(L + 1):
            z_slot_transition(k, j, own, left, right, x[0], L)
        glue(fb_transition(k, fb, fwd, bwd, x[0], band, band[::-1], band, 1.5), x[0],
             band[L], 1.5)
        assemble_y(z_now, z_prev, k, L)
        for b, v in zip(before, inputs):
            assert _bits(np.asarray(v)) == _bits(b)
    # (slots, size) slices of one padded block, as `run` passes a run of
    # dynamic-window slots: large enough for numpy to reuse temporaries
    block = rng.uniform(-1.0, 1.0, (3, L + 1, 2 ** 14 + 2))
    before = block.copy()
    for k in range(L + 1):
        for lo, hi in (0, 1), (1, 3), (1, L + 1):
            rows = block[:, lo:hi]
            window_transition(k, list(rows[:min(k, 3), :, 1:-1]), list(rows[:min(k, 2), :, :-2]),
                              list(rows[:min(k, 2), :, 2:]), block[0, 0, 1:-1], L)
    assert _bits(block) == _bits(before)


@pytest.mark.parametrize("boundary", [Ring(), ZeroHalo(), Truncated()])
@pytest.mark.parametrize("algo", [DynamicWindow(1), DynamicWindow(2), DynamicWindow(5),
                                  DynamicExponential(0.5), ExponentialWeighting(0.5)])
def test_run_matches_per_sensor_transitions_on_signed_zeros(boundary, algo):
    # measurements of -0.0 and +0.0 make sums whose sign depends on the order
    # of their terms and on how a sum starts
    rng = np.random.default_rng(9)
    shape = (11, 13) if isinstance(algo, _DYNAMIC) else 11
    case = (ChainConfig(n=11, boundary=boundary, rounds=12),
            MeasurementField(TableField(rng.choice([-0.0, -0.0, 0.0, 1.0], shape))), algo)
    trace = run(*case)
    y, z, _ = _reference(*case)
    assert _bits(trace.y) == _bits(y)
    assert _bits(trace.z) == _bits(z)


@pytest.mark.parametrize("boundary", [Ring(), ZeroHalo(), Truncated()])
def test_run_matches_per_sensor_transitions_when_slot_runs_are_split(boundary, monkeypatch):
    # long chains step a run of dynamic-window slots in cache-sized pieces:
    # here one or two slots per call
    monkeypatch.setattr(chain_module, "_BLOCK_VALUES", 40)
    rng = np.random.default_rng(8)
    case = (ChainConfig(n=17, boundary=boundary, rounds=20),
            MeasurementField(TableField(rng.uniform(-1.0, 1.0, (17, 21)))), DynamicWindow(8))
    trace = run(*case)
    y, z, _ = _reference(*case)
    assert _bits(trace.y) == _bits(y)
    assert _bits(trace.z) == _bits(z)
