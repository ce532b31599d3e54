"""Replicate streams: the precomputed seeding words against numpy's own
SeedSequence, and both Monte Carlo drivers against their per-replicate
SeedSequence loops, kept here verbatim as the reference."""
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lacsim import (Constant, ExpGaps, ExponentialWeighting, FiniteWindow, GlobalAverage,
                    MeasurementField, SpacingDraw, SpacingModel, UniformGaps, ValidationError,
                    monte_carlo_noise, monte_carlo_spacing, sample_spacings, weighted_target)
from lacsim import spacing
from lacsim.analysis import NoiseReport, _noise_kernel
from lacsim.cli import main
from lacsim.fields import random_space_time_table, random_spatial_table
from lacsim.spacing import SpacingMCReport
from lacsim.streams import _seed_words, generator, replicate_generators, spawned_words


# -- reference: the per-replicate SeedSequence loops --------------------------

def reference_noise(target, sigma: float, replicates: int, master_seed: int) -> NoiseReport:
    if replicates < 100:
        raise ValidationError(f"need at least 100 replicates, got {replicates}")
    kernel, analytic = _noise_kernel(target)
    n = len(kernel)
    kernel_hat = np.fft.rfft(kernel)  # symmetric kernel: transform is real
    sums = np.zeros(n)
    sq_sums = np.zeros(n)
    block = 2048
    done = 0
    while done < replicates:
        count = min(block, replicates - done)
        eps = np.empty((count, n))
        for r in range(count):
            seq = np.random.SeedSequence(master_seed, spawn_key=(done + r,))
            eps[r] = np.random.Generator(np.random.PCG64(seq)).normal(0.0, sigma, n)
        y = np.fft.irfft(np.fft.rfft(eps, axis=1) * kernel_hat, n=n, axis=1)
        sums += y.sum(axis=0)
        sq_sums += (y * y).sum(axis=0)
        done += count
    per_sensor = (sq_sums - sums ** 2 / replicates) / (replicates - 1)
    sampled = float(per_sensor.mean())
    analytic *= sigma * sigma
    se = sampled * math.sqrt(2.0 / (replicates - 1))
    return NoiseReport(analytic_variance=analytic, sampled_variance=sampled,
                       replicates=replicates, standard_error=se)


def _rng(seed: int, replicate: int | None = None) -> np.random.Generator:
    key = np.random.SeedSequence(seed) if replicate is None else \
        np.random.SeedSequence(seed, spawn_key=(replicate,))
    return np.random.Generator(np.random.PCG64(key))


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
        var_analytic = spacing_moments(rho).var_y
    else:
        k_norm = k_uniform(rho, law.eta)
        law_name = f"uniform(eta={law.eta})"
        var_analytic = None
    gap_count = _required_sensors(rho, law, tail_eps)
    values = np.empty(replicates)
    for r in range(replicates):
        rng = _rng(model.seed, r)
        sides = 0.0
        for _ in range(2):
            cum = np.cumsum(_draw_gaps(law, gap_count, rng))
            w = rho ** cum
            sides += float(w[w >= tail_eps].sum())
        values[r] = k_norm * (1.0 + sides)
    mean = float(values.mean())
    var = float(values.var(ddof=1))
    mean_se = math.sqrt(var / replicates)
    m4 = float(((values - mean) ** 4).mean())
    var_se = math.sqrt(max(m4 - var * var, 0.0) / replicates)
    return SpacingMCReport(rho=rho, law=law_name, k_analytic=k_norm, mean=mean,
                           mean_se=mean_se, var_analytic=var_analytic,
                           var_sampled=var, var_se=var_se, replicates=replicates)


# -- seeding words --------------------------------------------------------------

SEEDS = st.one_of(st.just(0), st.integers(1, 2 ** 32 - 1), st.integers(2 ** 32, 2 ** 64),
                  st.integers(2 ** 128 + 1, 2 ** 200))


def _reference_words(seed, first, count):
    return np.array([np.random.SeedSequence(seed, spawn_key=(first + j,))
                     .generate_state(4, np.uint64) for j in range(count)],
                    dtype=np.uint64).reshape(count, 4)


@settings(max_examples=60, deadline=None)
@given(SEEDS, st.integers(1990, 2060), st.integers(0, 80))
def test_spawned_words_match_seed_sequence(seed, first, count):
    words = spawned_words(seed, first, count)
    assert words.dtype == np.uint64 and words.shape == (count, 4)
    assert np.array_equal(words, _reference_words(seed, first, count))


@pytest.mark.parametrize("seed", [0, 7, 2 ** 32, 2 ** 96 - 1, 2 ** 128 + 3])
def test_spawned_words_up_to_the_last_one_word_index(seed):
    first = 2 ** 32 - 4
    assert np.array_equal(spawned_words(seed, first, 4), _reference_words(seed, first, 4))


@pytest.mark.parametrize("seed, first, count", [
    (-1, 0, 1), (1.5, 0, 1), ("3", 0, 1), (None, 0, 1), (3, -1, 1), (3, 2 ** 32 - 1, 2),
    (3, 2 ** 48, 1)])
def test_spawned_words_rejections(seed, first, count):
    # an index >= 2**32 is two spawn words: rejected, never silently different
    with pytest.raises(ValidationError):
        spawned_words(seed, first, count)


def test_replicate_generators_draw_the_spawned_streams():
    gens = list(replicate_generators(11, 2046, 4))
    for j, gen in enumerate(gens):
        ref = _rng(11, 2046 + j)
        assert np.array_equal(gen.normal(0.0, 1.5, 200), ref.normal(0.0, 1.5, 200))
        assert np.array_equal(gen.standard_exponential(50), ref.standard_exponential(50))


def test_importing_lacsim_does_not_load_numpy_random():
    code = "import sys, lacsim; print('numpy.random' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(Path(__file__).resolve().parents[1] / "src"),
                      os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, timeout=60, check=True)
    assert result.stdout.strip() == "False"


def test_words_serve_pcg64_seeding_only():
    words = _seed_words()(np.zeros(4, dtype=np.uint64))
    with pytest.raises(ValueError):
        words.generate_state(8, np.uint32)


@pytest.mark.parametrize("seed", [0, 5, 2 ** 63 + 1, 2 ** 130])
def test_seeded_generator_helpers_keep_their_values(seed):
    assert np.array_equal(generator(seed).random(10), _rng(seed).random(10))
    assert np.array_equal(random_spatial_table(9, seed).values, _rng(seed).uniform(-1.0, 1.0, 9))
    assert np.array_equal(random_space_time_table(4, 3, seed).values,
                          _rng(seed).uniform(-1.0, 1.0, (4, 3)))
    model = SpacingModel(UniformGaps(0.3), seed)
    assert np.array_equal(sample_spacings(model, 30).gaps, _rng(seed).uniform(0.7, 1.3, 30))
    assert np.array_equal(sample_spacings(SpacingModel(ExpGaps(), seed), 30).gaps,
                          _rng(seed).standard_exponential(30))


# -- the drivers against the reference loops ------------------------------------

REPLICATES = st.one_of(st.sampled_from([2048, 2049, 4097]), st.integers(1000, 3000))


@settings(max_examples=12, deadline=None)
@given(st.one_of(st.floats(0.05, 0.95).map(ExponentialWeighting),
                 st.integers(1, 6).map(FiniteWindow),
                 st.integers(1, 120).map(GlobalAverage)),
       st.one_of(st.just(0.0), st.floats(1e-3, 5.0)),
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


def _kept_terms(rho, law, tail_eps, seed, replicates):
    """How many terms each side of the first replicates keeps."""
    gap_count = spacing._required_sensors(rho, law, tail_eps)
    kept = []
    for r in range(replicates):
        rng = _rng(seed, r)
        kept += [int((rho ** np.cumsum(spacing._draw_gaps(law, gap_count, rng)) >= tail_eps).sum())
                 for _ in range(2)]
    return kept


# The side sums are grouped by kept count.  numpy's pairwise sum changes shape
# at 8 and at 128 terms, and a side may keep none: among the first 64
# replicates, each case's kept counts cover at least lo..hi.  Blocks hold
# 1260, 780, 555, 128, 36 and 34 replicates; only 1024 is a multiple of its block.
@pytest.mark.parametrize("rho, law, tail_eps, replicates, lo, hi", [
    (0.1, ExpGaps(), 0.5, 2049, 0, 1),
    (0.5, ExpGaps(), 0.1, 1000, 7, 8),
    (0.5, UniformGaps(0.3), 1e-12, 1500, 37, 42),
    (0.8, ExpGaps(), 1e-12, 1024, 128, 129),
    (0.95, ExpGaps(), 1e-14, 1000, 600, 650),
    (0.97, UniformGaps(0.05), 1e-12, 1001, 905, 905),
])
def test_grouped_side_sums_equal_the_per_replicate_loop(rho, law, tail_eps, replicates, lo, hi):
    kept = _kept_terms(rho, law, tail_eps, 9, 64)
    assert min(kept) <= lo and max(kept) >= hi
    model = SpacingModel(law, 9)
    assert monte_carlo_spacing(rho, model, replicates, tail_eps=tail_eps) == \
        reference_spacing(rho, model, replicates, tail_eps=tail_eps)


@pytest.mark.parametrize("law", [ExpGaps(), UniformGaps(0.3)], ids=["exp", "uniform"])
def test_spacing_draws_count_two_sides_per_replicate(monkeypatch, law):
    calls = []
    draw = spacing._draw_gaps

    def counting(law, count, rng):
        calls.append(count)
        return draw(law, count, rng)

    monkeypatch.setattr(spacing, "_draw_gaps", counting)
    monte_carlo_spacing(0.5, SpacingModel(law, 1), 1000)
    assert calls == [2 * spacing._required_sensors(0.5, law, 1e-12)] * 1000


# -- golden values ---------------------------------------------------------------
# Sampled on the per-replicate SeedSequence construction; any change to the
# streams fails here.

def test_golden_criterion_6_reports():
    cases = [(ExponentialWeighting(0.5), 2024), (FiniteWindow(2), 2025),
             (GlobalAverage(100), 2026)]
    got = [repr(monte_carlo_noise(target, 1.0, 10 ** 4, seed)) for target, seed in cases]
    assert got == [
        "NoiseReport(analytic_variance=0.18518518518518517, "
        "sampled_variance=0.18502312988729877, replicates=10000, "
        "standard_error=0.0026167530373163374)",
        "NoiseReport(analytic_variance=0.2, sampled_variance=0.20118054758855525, "
        "replicates=10000, standard_error=0.0028452648556533486)",
        "NoiseReport(analytic_variance=0.01, sampled_variance=0.010109954289644502, "
        "replicates=10000, standard_error=0.00014298349406731474)",
    ]


def test_golden_criterion_8_reports():
    got = [repr(monte_carlo_spacing(math.exp(-1.0), SpacingModel(ExpGaps(), 777), 20000)),
           repr(monte_carlo_spacing(0.9, SpacingModel(UniformGaps(0.3), 778), 20000))]
    assert got == [
        "SpacingMCReport(rho=0.36787944117144233, law='exp_density', "
        "k_analytic=0.3333333333333333, mean=0.999513870757887, "
        "mean_se=0.0023455672720539386, var_analytic=0.1111111111111111, "
        "var_sampled=0.11003371655461111, var_se=0.0012256641876812226, replicates=20000)",
        "SpacingMCReport(rho=0.9, law='uniform(eta=0.3)', k_analytic=0.05254855568844584, "
        "mean=0.9996050019869699, mean_se=0.00019876917549564775, var_analytic=None, "
        "var_sampled=0.0007901837025443923, var_se=7.845613833193985e-06, replicates=20000)",
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
        "'sampled_variance': 0.18499257605996364, 'standard_error': 0.004087797031286515}")
    assert repr(spaced) == (
        "{'K_analytic': 0.45621611258844885, 'law': 'uniform(eta=0.3)', "
        "'mean': 1.0006490609659184, 'mean_se': 0.0013103775522283463, 'replicates': 3001, "
        "'rho': 0.36787944117144233, 'var_analytic': None, "
        "'var_sampled': 0.005152985077481242, 'var_se': 0.00011954974178720451}")


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


def test_noise_memory_is_bounded_by_the_block():
    # one (2048, n) block of draws, filtered in place a chunk at a time;
    # transforms of the whole block would hold three blocks at once
    target = ExponentialWeighting(0.95)
    n = len(_noise_kernel(target)[0])
    assert n == 539
    monte_carlo_noise(target, 1.0, 2049, 7)  # warm-up: numpy's FFT plan caches
    tracemalloc.start()
    try:
        monte_carlo_noise(target, 1.0, 2049, 7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * 2048 * n * 8


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
    lambda: weighted_target(SpacingDraw(np.ones(50)), MeasurementField(Constant(1.0)), 25, 0.5,
                            0.3, tail_eps=0.0),
    lambda: weighted_target(SpacingDraw(np.ones(40)), MeasurementField(Constant(1.0)), 20, 0.0,
                            0.3),
    lambda: weighted_target(SpacingDraw(np.ones(40)), MeasurementField(Constant(1.0)), 20, -0.5,
                            0.3),
    lambda: weighted_target(SpacingDraw(np.ones(40)), MeasurementField(Constant(1.0)), 20, 1.5,
                            0.3),
    lambda: monte_carlo_noise(GlobalAverage(10), 1.0, 100, True),
    lambda: monte_carlo_spacing(0.5, SpacingModel(ExpGaps(), True), 1000),
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
