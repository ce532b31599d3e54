"""Monte Carlo streams: each call draws all its replicates from the one
generator `np.random.default_rng(seed)`, a block at a time, on the calling
thread, while one worker thread turns the block before into sums.  Both
drivers are checked against per-replicate loops over that stream, kept here as
the reference, against themselves at other block sizes and with one thread
slowed, and for how errors and blocks pass between the two threads."""
import json
import math
import os
import subprocess
import sys
import threading
import time
import tracemalloc
import weakref
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lacsim import (ExpGaps, ExponentialWeighting, FiniteWindow, GlobalAverage, SpacingModel,
                    UniformGaps, ValidationError, monte_carlo_noise, monte_carlo_spacing,
                    sample_spacings)
from lacsim import analysis, spacing
from lacsim.analysis import NoiseReport, _noise_kernel
from lacsim.cli import main
from lacsim.fields import random_space_time_table, random_spatial_table
from lacsim.spacing import SpacingMCReport
from lacsim.static_rules import generator


# -- reference: the per-replicate loops over one stream -------------------------

def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))


def reference_noise(target, sigma: float, replicates: int, master_seed: int) -> NoiseReport:
    if replicates < 100:
        raise ValidationError(f"need at least 100 replicates, got {replicates}")
    kernel, analytic = _noise_kernel(target)
    n = len(kernel)
    kernel_hat = np.fft.rfft(kernel)  # symmetric kernel: transform is real
    rng = _rng(master_seed)
    sums = np.zeros(n)
    sq_sums = np.zeros(n)
    for _ in range(replicates):
        y = np.fft.irfft(np.fft.rfft(rng.normal(0.0, sigma, n)) * kernel_hat, n=n)
        sums += y
        sq_sums += y * y
    per_sensor = (sq_sums - sums ** 2 / replicates) / (replicates - 1)
    sampled = float(per_sensor.mean())
    analytic *= sigma * sigma
    se = sampled * math.sqrt(2.0 / (replicates - 1))
    return NoiseReport(analytic_variance=analytic, sampled_variance=sampled,
                       replicates=replicates, standard_error=se)


def reference_spacing(rho: float, model: SpacingModel, replicates: int,
                      tail_eps: float = 1e-12) -> SpacingMCReport:
    _draw_gaps, _required_sensors = spacing._draw_gaps, spacing._required_sensors
    k_poisson, k_uniform, spacing_moments = (spacing.k_poisson, spacing.k_uniform,
                                             spacing.spacing_moments)
    if replicates < 1000:
        raise ValidationError(f"need at least 1000 replicates, got {replicates}")
    law = model.law
    if isinstance(law, ExpGaps):
        k_norm = k_poisson(rho)
        law_name = "exp_density"
    else:
        k_norm = k_uniform(rho, law.eta)
        law_name = f"uniform(eta={law.eta})"
    gap_count = _required_sensors(rho, law, tail_eps)
    # Partial sums only grow, so no term past the first sum beyond the limit
    # log(tail_eps)/log(rho), by a margin no rounding of the power bridges, is
    # kept: every gap is still drawn, but only the sums up to it are powered.
    limit = math.log(tail_eps) / math.log(rho)
    beyond = limit + 1e-9 * (1.0 + limit)
    rng = _rng(model.seed)
    values = np.empty(replicates)
    for r in range(replicates):
        sides = 0.0
        for _ in range(2):
            cum = np.cumsum(_draw_gaps(law, gap_count, rng))
            cut = int(np.searchsorted(cum, beyond, side="right"))
            w = rho ** cum[:cut + 1]
            assert cut == cum.size or w[cut] < tail_eps
            sides += float(w[w >= tail_eps].sum())
        values[r] = k_norm * (1.0 + sides)
    mean = float(values.mean())
    var = float(values.var(ddof=1))
    mean_se = math.sqrt(var / replicates)
    m4 = float(((values - mean) ** 4).mean())
    var_se = math.sqrt(max(m4 - var * var, 0.0) / replicates)
    return SpacingMCReport(rho=rho, law=law_name, k_analytic=k_norm, mean=mean,
                           mean_se=mean_se, var_analytic=spacing_moments(rho, law).var_y,
                           var_sampled=var, var_se=var_se, replicates=replicates)


SEEDS = st.one_of(st.just(0), st.integers(1, 2 ** 32 - 1), st.integers(2 ** 32, 2 ** 64),
                  st.integers(2 ** 128 + 1, 2 ** 200))


def test_importing_lacsim_does_not_load_numpy_random():
    code = "import sys, lacsim; print('numpy.random' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(Path(__file__).resolve().parents[1] / "src"),
                      os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, timeout=60, check=True)
    assert result.stdout.strip() == "False"


@pytest.mark.parametrize("seed", [0, 5, 2 ** 63 + 1, 2 ** 130])
def test_seeded_generator_helpers_keep_their_values(seed):
    assert np.array_equal(generator(seed).random(10), _rng(seed).random(10))
    assert np.array_equal(random_spatial_table(9, seed).values, _rng(seed).uniform(-1.0, 1.0, 9))
    assert np.array_equal(random_space_time_table(4, 3, seed).values,
                          _rng(seed).uniform(-1.0, 1.0, (4, 3)))
    model = SpacingModel(UniformGaps(0.3), seed)
    assert np.array_equal(sample_spacings(model, 30), _rng(seed).uniform(0.7, 1.3, 30))
    assert np.array_equal(sample_spacings(SpacingModel(ExpGaps(), seed), 30),
                          _rng(seed).standard_exponential(30))


@pytest.mark.parametrize("seed", [-1, 1.5, "3", None, True])
def test_seeded_generator_helpers_reject_what_is_not_a_seed(seed):
    # None would draw a fresh seed from the OS, and a float or bool would
    # pass for an integer seed
    for call in (lambda: generator(seed), lambda: random_spatial_table(4, seed),
                 lambda: random_space_time_table(4, 3, seed)):
        with pytest.raises(ValidationError, match="^seed must be a non-negative integer"):
            call()


# -- the drivers against the reference loops ------------------------------------

REPLICATES = st.one_of(st.sampled_from([1024, 1025, 2048, 2049, 4097]), st.integers(1000, 3000))
NOISE_TARGETS = st.one_of(st.floats(0.05, 0.95).map(ExponentialWeighting),
                          st.integers(1, 6).map(FiniteWindow),
                          st.integers(1, 120).map(GlobalAverage))


@settings(max_examples=12, deadline=None)
@given(NOISE_TARGETS, st.one_of(st.just(0.0), st.floats(1e-3, 5.0)),
       st.one_of(st.integers(100, 300), REPLICATES), SEEDS)
def test_monte_carlo_noise_equals_the_per_replicate_loop(target, sigma, replicates, seed):
    assert monte_carlo_noise(target, sigma, replicates, seed) == \
        reference_noise(target, sigma, replicates, seed)


@settings(max_examples=12, deadline=None)
@given(st.floats(0.1, 0.8), st.one_of(st.just(None), st.floats(0.01, 0.99)),
       REPLICATES, SEEDS, st.floats(1e-14, 1e-3))
def test_monte_carlo_spacing_equals_the_per_replicate_loop(rho, eta, replicates, seed,
                                                           tail_eps):
    model = SpacingModel(ExpGaps() if eta is None else UniformGaps(eta), seed)
    assert monte_carlo_spacing(rho, model, replicates, tail_eps=tail_eps) == \
        reference_spacing(rho, model, replicates, tail_eps=tail_eps)


@pytest.mark.parametrize("count", [1, 2])
@pytest.mark.parametrize("replicates", [100, 1025, 4097])
@pytest.mark.parametrize("sigma", [0.0, 1.0])
def test_monte_carlo_noise_of_one_and_two_sensors_equals_the_per_replicate_loop(
        count, replicates, sigma):
    # with n = 1 the replicates are numpy's contiguous axis, which a sum over
    # them would add pairwise; the strategies above rarely draw count 1
    target = GlobalAverage(count)
    assert monte_carlo_noise(target, sigma, replicates, 13) == \
        reference_noise(target, sigma, replicates, 13)


@settings(max_examples=15, deadline=None)
@given(NOISE_TARGETS, st.integers(100, 700), SEEDS, st.data())
def test_monte_carlo_noise_does_not_depend_on_the_chunk_size(target, replicates, seed, data):
    whole = monte_carlo_noise(target, 1.0, replicates, seed)
    n = len(_noise_kernel(target)[0])
    chunk = data.draw(st.integers(1, 8 * n), label="chunk")  # 1 to 8 rows, fewer than replicates
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(analysis, "_NOISE_CHUNK", chunk)
        assert monte_carlo_noise(target, 1.0, replicates, seed) == whole


@settings(max_examples=15, deadline=None)
@given(st.floats(0.1, 0.9), st.one_of(st.just(None), st.floats(0.01, 0.99)),
       st.integers(1, 400), st.integers(1000, 1500), SEEDS)
def test_monte_carlo_spacing_does_not_depend_on_the_block_size(rho, eta, block, replicates,
                                                              seed):
    model = SpacingModel(ExpGaps() if eta is None else UniformGaps(eta), seed)
    whole = monte_carlo_spacing(rho, model, replicates)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(spacing, "_BLOCK_REPLICATES", block)  # shorter than the replicate count
        assert monte_carlo_spacing(rho, model, replicates) == whole


@settings(max_examples=15, deadline=None)
@given(st.floats(0.1, 0.9), st.one_of(st.just(None), st.floats(0.01, 0.99)),
       st.sampled_from([0.0, 1.0]), st.booleans(), st.integers(1000, 1500), SEEDS)
def test_monte_carlo_spacing_does_not_depend_on_the_chunk_size(rho, eta, spreads, over_cap,
                                                              replicates, seed):
    # chunks of about `limit` columns: most blocks, and about half the sides
    # drawn on their own over the cap, sum more than one
    model = SpacingModel(ExpGaps() if eta is None else UniformGaps(eta), seed)
    whole = monte_carlo_spacing(rho, model, replicates)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(spacing, "_CHUNK_SPREADS", spreads)
        if over_cap:
            patch.setattr(spacing, "_BLOCK_ELEMENTS",
                          2 * spacing._required_sensors(rho, model.law, 1e-12) - 1)
        assert monte_carlo_spacing(rho, model, replicates) == whole


def _kept_terms(rho, law, tail_eps, seed, replicates):
    """How many terms each side of the first replicates keeps."""
    gap_count = spacing._required_sensors(rho, law, tail_eps)
    rng = _rng(seed)
    return [int((rho ** np.cumsum(spacing._draw_gaps(law, gap_count, rng)) >= tail_eps).sum())
            for _ in range(2 * replicates)]


# The side sums are grouped by kept count.  numpy's pairwise sum changes shape
# at 8 and at 128 terms, and a side may keep none: among the first 64
# replicates, each case's kept counts cover at least lo..hi.  Blocks hold
# 1260, 780, 555, 128, 36, 34 and 1 replicates; only 1024 is a multiple of its
# block.  The last case's 2 g = 79,732 values pass _BLOCK_ELEMENTS, so each
# side is drawn only to its first partial sum past the limit, the rest skipped.
@pytest.mark.parametrize("rho, law, tail_eps, replicates, lo, hi", [
    (0.1, ExpGaps(), 0.5, 2049, 0, 1),
    (0.5, ExpGaps(), 0.1, 1000, 7, 8),
    (0.5, UniformGaps(0.3), 1e-12, 1500, 37, 42),
    (0.8, ExpGaps(), 1e-12, 1024, 128, 129),
    (0.95, ExpGaps(), 1e-14, 1000, 600, 650),
    (0.97, UniformGaps(0.05), 1e-12, 1001, 905, 905),
    (0.5, UniformGaps(0.999), 1e-12, 1000, 35, 45),
])
def test_grouped_side_sums_equal_the_per_replicate_loop(rho, law, tail_eps, replicates, lo, hi):
    kept = _kept_terms(rho, law, tail_eps, 9, 64)
    assert min(kept) <= lo and max(kept) >= hi
    model = SpacingModel(law, 9)
    assert monte_carlo_spacing(rho, model, replicates, tail_eps=tail_eps) == \
        reference_spacing(rho, model, replicates, tail_eps=tail_eps)


@pytest.mark.parametrize("law", [ExpGaps(), UniformGaps(0.3)], ids=["exp", "uniform"])
def test_spacing_draws_once_per_block(monkeypatch, law):
    calls = []
    draw = spacing._draw_gaps

    def counting(law, count, rng):
        calls.append(count)
        return draw(law, count, rng)

    monkeypatch.setattr(spacing, "_draw_gaps", counting)
    monte_carlo_spacing(0.5, SpacingModel(law, 1), 1000)
    # two sides per replicate, 2048 replicates per block unless 2^16 values cap it
    sides = 2 * spacing._required_sensors(0.5, law, 1e-12)
    block = min(2048, (1 << 16) // sides)
    assert calls == [sides * min(block, 1000 - done) for done in range(0, 1000, block)]


@pytest.mark.parametrize("law", [ExpGaps(), UniformGaps(0.3)], ids=["exp", "uniform"])
@settings(max_examples=10, deadline=None)
@given(st.integers(1, 700), st.integers(1000, 1500))
def test_spacing_draws_count_two_sides_per_replicate(law, block, replicates):
    # whatever the block, each call draws both sides of whole replicates, and
    # the calls together draw two sides for every replicate, once
    calls = []
    draw = spacing._draw_gaps

    def counting(law, count, rng):
        calls.append(count)
        return draw(law, count, rng)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(spacing, "_draw_gaps", counting)
        patch.setattr(spacing, "_BLOCK_REPLICATES", block)
        monte_carlo_spacing(0.5, SpacingModel(law, 1), replicates)
    sides = 2 * spacing._required_sensors(0.5, law, 1e-12)
    assert all(count % sides == 0 and 0 < count <= sides * block for count in calls)
    assert sum(calls) == sides * replicates


# -- golden values ---------------------------------------------------------------
# Sampled on one stream per call; any change to the streams fails here.

def test_golden_criterion_6_reports():
    cases = [(ExponentialWeighting(0.5), 2024), (FiniteWindow(2), 2025),
             (GlobalAverage(100), 2026)]
    got = [repr(monte_carlo_noise(target, 1.0, 10 ** 4, seed)) for target, seed in cases]
    assert got == [
        "NoiseReport(analytic_variance=0.18518518518518517, "
        "sampled_variance=0.18690233037785983, replicates=10000, "
        "standard_error=0.0026433302744131118)",
        "NoiseReport(analytic_variance=0.2, sampled_variance=0.19775069045430957, "
        "replicates=10000, standard_error=0.0027967569254336764)",
        "NoiseReport(analytic_variance=0.01, sampled_variance=0.009706724345331827, "
        "replicates=10000, standard_error=0.00013728067635928112)",
    ]


def test_golden_criterion_8_reports():
    got = [repr(monte_carlo_spacing(math.exp(-1.0), SpacingModel(ExpGaps(), 777), 20000)),
           repr(monte_carlo_spacing(0.9, SpacingModel(UniformGaps(0.3), 778), 20000))]
    assert got == [
        "SpacingMCReport(rho=0.36787944117144233, law='exp_density', "
        "k_analytic=0.3333333333333333, mean=0.9997911416286753, "
        "mean_se=0.0023566740748131227, var_analytic=0.1111111111111111, "
        "var_sampled=0.11107825389792578, var_se=0.0012323974685899697, replicates=20000)",
        "SpacingMCReport(rho=0.9, law='uniform(eta=0.3)', k_analytic=0.05254855568844584, "
        "mean=1.000223592704419, mean_se=0.00020005332128022522, "
        "var_analytic=0.0007888848279848709, var_sampled=0.0008004266271049803, "
        "var_se=7.936254338585896e-06, replicates=20000)",
    ]


def test_golden_cli_reports(tmp_path):
    assert main(["noise", "--out", str(tmp_path), "--seed", "5",
                 "--set", "analysis.replicates=4097"]) == 0
    assert main(["spacing", "--out", str(tmp_path), "--seed", "6",
                 "--set", "analysis.law=uniform", "--set", "analysis.replicates=3001"]) == 0
    noise = json.loads((tmp_path / "run_noise.json").read_text())["report"]
    spaced = json.loads((tmp_path / "run_spacing.json").read_text())["report"]
    assert repr(noise) == (
        "{'analytic_variance': 0.18518518518518517, 'replicates': 4097, "
        "'sampled_variance': 0.1842879537877043, 'standard_error': 0.004072226931696213}")
    assert repr(spaced) == (
        "{'K_analytic': 0.45621611258844885, 'law': 'uniform(eta=0.3)', "
        "'mean': 0.9995035297507805, 'mean_se': 0.001315852716549913, 'replicates': 3001, "
        "'rho': 0.36787944117144233, 'var_analytic': 0.005148460140538431, "
        "'var_sampled': 0.005196136583327009, 'var_se': 0.00012056086354893682}")


# -- the two threads ------------------------------------------------------------
# 1000 replicates: noise on 100 sensors in 7 blocks of 163 rows, spacing at
# rho = 0.5 with e^{-d} gaps in 4 blocks of 264 replicates (2 g = 248 values each)

def _noise_call():
    return monte_carlo_noise(GlobalAverage(100), 1.0, 1000, 5)


def _spacing_call():
    return monte_carlo_spacing(0.5, SpacingModel(ExpGaps(), 5), 1000)


class _Stop(Exception):
    pass


def _second_call_raises(fn, error):
    calls = []

    def wrapped(*args, **kwargs):
        calls.append(None)
        if len(calls) == 2:
            raise error
        return fn(*args, **kwargs)
    return wrapped


def _slowed(fn, seconds, calls=None):
    """`fn`, sleeping `seconds` before each of its first `calls` calls (all when None)."""
    slept = []

    def wrapped(*args, **kwargs):
        if calls is None or len(slept) < calls:
            slept.append(None)
            time.sleep(seconds)
        return fn(*args, **kwargs)
    return wrapped


def _failing_noise_draws(error):
    # the noise driver's draws are `standard_normal` calls on its generator
    return lambda seed: SimpleNamespace(
        standard_normal=_second_call_raises(generator(seed).standard_normal, error))


# (call, module, attribute, replacement for the attribute given the error)
_FAILURES = {
    "noise draw": (_noise_call, analysis, "generator", _failing_noise_draws),
    "noise worker": (_noise_call, np.fft, "irfft",
                     lambda error: _second_call_raises(np.fft.irfft, error)),
    "spacing draw": (_spacing_call, spacing, "_draw_gaps",
                     lambda error: _second_call_raises(spacing._draw_gaps, error)),
    "spacing worker": (_spacing_call, spacing, "_side_sums",
                       lambda error: _second_call_raises(spacing._side_sums, error)),
}


@pytest.mark.parametrize("case", list(_FAILURES))
def test_an_error_on_either_thread_reaches_the_caller(monkeypatch, case):
    call, module, name, failing = _FAILURES[case]
    error = _Stop(case)
    threads = threading.active_count()
    monkeypatch.setattr(module, name, failing(error))
    with pytest.raises(_Stop) as raised:
        call()
    assert raised.value is error
    assert threading.active_count() == threads


@pytest.mark.parametrize("call, module, name", [
    (_noise_call, np.fft, "irfft"), (_spacing_call, spacing, "_side_sums")],
    ids=["noise", "spacing"])
def test_a_slow_worker_gives_the_same_report(monkeypatch, call, module, name):
    # the worker falls behind the draws at every block, and the threads switch
    # as often as the interpreter allows
    whole = call()
    monkeypatch.setattr(module, name, _slowed(getattr(module, name), 0.002))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        assert call() == whole
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("law, cap, over, calls", [
    (ExpGaps(), 1000, False, 250), (ExpGaps(), 100, True, 1000),
    (UniformGaps(0.3), 100, True, 2000)], ids=["normal", "over_cap", "uniform_over_cap"])
def test_spacing_draws_no_block_over_the_cap_beside_another(monkeypatch, law, cap, over, calls):
    # e^{-d} gaps, 2 g = 248 values a replicate: blocks of 4 replicates (992
    # values) under a cap of 1000, of one replicate over a cap of 100.  Uniform
    # gaps at eta = 0.3, 2 g = 118: over a cap of 100 each side is drawn on its
    # own, here 47 gaps in one chunk, and its other 12 skipped.  The worker
    # sleeps in its first blocks, so an overlap that ignored the cap would hold
    # a block then
    alive, refs, counts = [], [], []
    draw = spacing._draw_gaps

    def tracking(law, count, rng):
        alive.append(sum(ref() is not None for ref in refs))
        gaps = draw(law, count, rng)
        refs.append(weakref.ref(gaps))
        counts.append(count)
        return gaps

    monkeypatch.setattr(spacing, "_BLOCK_ELEMENTS", cap)
    monkeypatch.setattr(spacing, "_draw_gaps", tracking)
    monkeypatch.setattr(spacing, "_side_sums", _slowed(spacing._side_sums, 0.005, 4))
    monte_carlo_spacing(0.5, SpacingModel(law, 5), 1000)
    assert len(refs) == calls
    assert max(alive) <= (0 if over else 1)
    if isinstance(law, UniformGaps):
        assert set(counts) == {47}


def test_a_test_that_leaves_a_thread_running_fails(tmp_path):
    # tests/conftest.py's check, run on a test that starts a thread and returns
    (tmp_path / "conftest.py").write_text((Path(__file__).parent / "conftest.py").read_text())
    (tmp_path / "test_leak.py").write_text(
        "import threading\n\n"
        "def test_leaks():\n"
        "    threading.Thread(target=threading.Event().wait, args=(2,), daemon=True).start()\n")
    result = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                             str(tmp_path)], cwd=tmp_path, capture_output=True, text=True,
                            timeout=120)
    assert result.returncode == 1, result.stdout
    assert "still running after the test" in result.stdout


# -- memory and validation ------------------------------------------------------

def _peak_bytes(replicates):
    tracemalloc.start()
    try:
        monte_carlo_spacing(0.9, SpacingModel(UniformGaps(0.3), 778), replicates)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_spacing_memory_is_bounded_by_the_block():
    # criterion 8's longest draws; only the per-replicate values grow with
    # the replicate count (8 bytes each)
    small, large = _peak_bytes(2000), _peak_bytes(20000)
    assert large <= 1.5 * small


def test_spacing_skips_the_gaps_no_side_keeps():
    # uniform gaps at eta = 0.999999 and rho = 1/e: 2 g = 55,262,048 values a
    # replicate (442 MB), of which a side keeps about 28
    monte_carlo_spacing(0.5, SpacingModel(UniformGaps(0.3), 3), 1000)  # warm-up: lazy imports
    tracemalloc.start()
    try:
        start = time.perf_counter()
        monte_carlo_spacing(math.exp(-1.0), SpacingModel(UniformGaps(0.999999), 3), 1000)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 2.0
    assert peak < 1 << 20


@pytest.mark.parametrize("rho, n", [(0.95, 539), (0.8, 124)])
def test_noise_memory_is_bounded_by_the_chunk(rho, n):
    # two slots of half a chunk of draws each, and the worker's spectrum,
    # inverse and buffer for a block's outputs and their squares: about three
    # chunks, whatever n (0.765 MiB at n = 539 and 0.763 MiB at n = 124 with
    # numpy 2.4; one thread with one-chunk blocks held 1.254 and 1.264 MiB, and
    # a (1024, n) block of draws and one of squares 8.94 and 2.45 MiB)
    target = ExponentialWeighting(rho)
    assert len(_noise_kernel(target)[0]) == n
    monte_carlo_noise(target, 1.0, 2049, 7)  # warm-up: numpy's FFT plan caches
    tracemalloc.start()
    try:
        monte_carlo_noise(target, 1.0, 2049, 7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6 * analysis._NOISE_CHUNK * 8


@pytest.mark.parametrize("call", [
    lambda: monte_carlo_noise(GlobalAverage(10), 1.0, 100, -1),
    lambda: monte_carlo_noise(GlobalAverage(10), 1.0, 100, 2.5),
    lambda: monte_carlo_noise(GlobalAverage(10), -0.5, 100, 0),
    lambda: monte_carlo_noise(GlobalAverage(10), math.nan, 100, 0),
    lambda: monte_carlo_noise(GlobalAverage(10), math.inf, 100, 0),
    lambda: monte_carlo_spacing(0.5, SpacingModel(ExpGaps(), -3), 1000),
    lambda: monte_carlo_spacing(0.5, SpacingModel(ExpGaps(), 1.5), 1000),
    lambda: monte_carlo_spacing(0.5, SpacingModel(ExpGaps()), 1000, tail_eps=0.0),
    lambda: monte_carlo_spacing(0.5, SpacingModel(ExpGaps()), 1000, tail_eps=1.0),
    lambda: monte_carlo_spacing(0.5, SpacingModel(ExpGaps()), 1000, tail_eps=2.0),
    lambda: sample_spacings(SpacingModel(ExpGaps(), -1), 10),
    lambda: sample_spacings(SpacingModel(ExpGaps(), 0.5), 10),
    lambda: monte_carlo_spacing(0.5, SpacingModel(ExpGaps(), 1), 1500.0),
    lambda: monte_carlo_noise(GlobalAverage(10), 1.0, 100.5, 0),
    lambda: monte_carlo_noise(GlobalAverage(10), 1.0, "200", 0),
    lambda: sample_spacings(SpacingModel(ExpGaps(), 1), 2.5),
    lambda: monte_carlo_noise(GlobalAverage(10), 1.0, 100, True),
    lambda: monte_carlo_spacing(0.5, SpacingModel(ExpGaps(), True), 1000),
    # a sigma that is not a real number, and a law that is not a law
    lambda: monte_carlo_noise(GlobalAverage(10), None, 100, 0),
    lambda: monte_carlo_noise(GlobalAverage(10), "1.0", 100, 0),
    lambda: monte_carlo_noise(GlobalAverage(10), np.array([1.0, 2.0]), 100, 0),
    lambda: monte_carlo_noise(GlobalAverage(10), True, 100, 0),
    lambda: monte_carlo_spacing(0.5, SpacingModel("uniform", 1), 1000),
    lambda: monte_carlo_spacing(0.5, SpacingModel(None, 1), 1000),
    lambda: sample_spacings(SpacingModel(ExpGaps, 1), 10),
    lambda: spacing.spacing_moments(0.5, "exp"),
])
def test_monte_carlo_inputs_rejected_up_front(call):
    with pytest.raises(ValidationError):
        call()


@pytest.mark.parametrize("args", [
    ["noise", "--set", "chain.master_seed=-3"],
    ["noise", "--seed", "-2"],
    ["noise", "--seed", "1", "--set", "analysis.sigma=-1"],
    ["spacing", "--seed", "1", "--set", "analysis.tail_eps=0"],
    ["spacing", "--seed", "1", "--set", "analysis.tail_eps=2"],
    ["spacing", "--seed", "-4"],
])
def test_cli_monte_carlo_inputs_are_validation_errors(tmp_path, capsys, args):
    assert main(args + ["--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not list(tmp_path.iterdir())
