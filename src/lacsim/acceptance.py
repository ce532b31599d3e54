"""Acceptance criteria, runnable standalone (CLI `verify`) or under pytest.

Each criterion runs at its stated tolerance and reports one pass/fail line.
A criterion is a body that returns (passed, detail); `_criterion` times it,
and for the criteria that state a runtime bound, fails it past that bound.
Known-red criteria are implemented exactly as stated rather than loosened:
the spatial-window bandwidth rule 1.7/(L+1/2) sits ~11.5-11.8% from the true
half-gain root (criterion 4 demands 10%), and the variance-match ratio at
L = 5 is exactly 935/729 ~ 1.2826 (criterion 7 demands <= 1.25).
"""
from __future__ import annotations

import functools
import math
import tempfile
import time
from dataclasses import dataclass

import numpy as np

from . import analysis as ana
from . import oracle
from .analysis import GlobalAverage
from .arbitrary_weights import BandedWeighting, WeightTable
from .chain import ChainConfig, Ring, ZeroHalo, run
from .dynamic_rules import DynamicExponential, DynamicWindow
from .fields import (MeasurementField, TableField, random_space_time_table,
                     random_spatial_table)
from .figures import FIGURES, write_figures
from .spacing import ExpGaps, SpacingModel, UniformGaps, k_poisson, monte_carlo_spacing
from .static_rules import (AsymmetricWeighting, ExponentialWeighting, FiniteWindow,
                           PerSensorWindow)


@dataclass
class CriterionResult:
    index: int
    name: str
    passed: bool
    detail: str
    elapsed: float


def _criterion(index: int, name: str, limit: float | None = None):
    """Make a body returning (passed, detail) criterion `index`: timed, and
    failed past `limit` seconds, with its runtime in the detail, given one."""
    def wrap(body):
        @functools.wraps(body)
        def criterion() -> CriterionResult:
            t0 = time.perf_counter()
            passed, detail = body()
            elapsed = time.perf_counter() - t0
            if limit is not None:
                passed = passed and elapsed < limit
                detail += f", runtime {elapsed:.2f}s < {limit:g}s"
            return CriterionResult(index, name, passed, detail, elapsed)
        return criterion
    return wrap


def _profile(n: int) -> tuple:
    block = (4, 4, 5, 5, 6, 6, 6, 6, 5, 5, 4, 4, 4, 4, 4, 4)
    return (block * (n // len(block) + 1))[:n]


def _oracle_cases(n: int, rounds: int, seed: int):
    """(name, algorithm, field) for every rule; the band radius is 20, or the
    largest a ring of n < 41 sensors can host."""
    static = MeasurementField(random_spatial_table(n, seed))
    dynamic = MeasurementField(random_space_time_table(n, rounds + 1, seed + 100))
    table = WeightTable.geometric(0.6, min(20, (n - 1) // 2), n)
    return [
        ("exp", ExponentialWeighting(0.8), static),
        ("asym", AsymmetricWeighting(0.5, 0.25), static),
        ("window", FiniteWindow(5), static),
        ("variable_window", PerSensorWindow(_profile(n)), static),
        ("arbitrary", BandedWeighting(table), static),
        ("dyn_exp", DynamicExponential(0.8), dynamic),
        ("dyn_window", DynamicWindow(3), dynamic),
    ]


@_criterion(1, "trace equals oracle for all seven rules", limit=5.0)
def criterion_1() -> tuple:
    tol = 1e-10
    n, rounds = 64, 40
    worst = 0.0
    worst_case = ""
    for seed in (11, 12, 13):
        cases = _oracle_cases(n, rounds, seed)
        for boundary in (Ring(), ZeroHalo()):
            cfg = ChainConfig(n=n, boundary=boundary, rounds=rounds)
            for name, algo, field in cases:
                err = np.abs(run(cfg, field, algo).y.T
                             - oracle.rows(algo, field, n, boundary, range(rounds + 1)))
                # the first worst point in (k, i) order, as a loop over k, then i, finds it
                k, i = divmod(int(err.argmax()), n)
                if err[k, i] > worst:
                    worst = err[k, i]
                    worst_case = f"{name} seed={seed} {type(boundary).__name__} i={i} k={k}"
    return worst <= tol, f"worst |trace-oracle| = {worst:.3e} at {worst_case or 'n/a'} (tol {tol})"


@_criterion(2, "dynamic window first rounds match their lagged sums at L=2")
def criterion_2() -> tuple:
    tol = 1e-12
    n, L = 16, 2
    worst = 0.0
    for seed in (3, 4, 5):
        field = MeasurementField(random_space_time_table(n, 4, seed))
        cfg = ChainConfig(n=n, boundary=Ring(), rounds=3)
        trace = run(cfg, field, DynamicWindow(L))
        x = lambda i, k: field.kind.at(i % n, k)
        for i in range(n):
            expected = [
                x(i, 0) / 5.0,
                (x(i, 1) + x(i - 1, 0) + x(i + 1, 0)) / 5.0,
                (x(i, 2) + x(i - 1, 1) + x(i + 1, 1) + x(i - 2, 0) + x(i + 2, 0)) / 5.0,
                (x(i, 3) + x(i - 1, 2) + x(i + 1, 2) + x(i - 2, 1) + x(i + 2, 1)) / 5.0,
            ]
            for k in range(4):
                worst = max(worst, abs(trace.y[i, k] - expected[k]))
    return worst <= tol, f"worst deviation {worst:.3e} (tol {tol})"


@_criterion(3, "measured spatial gain matches the closed forms", limit=2.0)
def criterion_3() -> tuple:
    omegas = [2.0 * math.pi * 8 / 256]
    [(_, gain, est)] = ana.sweep(ExponentialWeighting(0.9), omegas, 220, 256)
    gain_err, phase_err = abs(est.gain - gain), abs(est.phase)
    [(_, gain, est)] = ana.sweep(FiniteWindow(5), omegas, 5, 256)
    win_err = abs(est.gain - gain)
    passed = gain_err <= 1e-6 and phase_err < 1e-9 and win_err <= 1e-10
    return passed, (f"exp gain err {gain_err:.2e} (tol 1e-6), phase {phase_err:.2e} "
                    f"(tol 1e-9), window gain err {win_err:.2e} (tol 1e-10)")


@_criterion(4, "half-gain rules of thumb at their stated tolerances")
def criterion_4() -> tuple:
    parts = []
    ok = True
    for rho in (0.9, 0.95, 0.99):
        v = ana.h_exp(rho, 1.0 - rho)
        good = 0.45 <= v <= 0.55
        ok &= good
        parts.append(f"h_exp({rho},1-rho)={v:.4f}{'' if good else '!'}")
    for L in (5, 10, 20):
        bw = ana.bandwidth(FiniteWindow(L))
        dev = abs(bw.omega_half - bw.rule_of_thumb) / bw.rule_of_thumb
        good = dev <= 0.10
        ok &= good
        parts.append(f"spatial L={L} dev={100 * dev:.1f}%{'' if good else '>10%!'}")
    for L in (5, 10, 20):
        bw = ana.bandwidth(DynamicWindow(L))
        dev = abs(bw.omega_half - bw.rule_of_thumb) / bw.rule_of_thumb
        good = dev <= 0.15
        ok &= good
        parts.append(f"temporal L={L} dev={100 * dev:.1f}%{'' if good else '>15%!'}")
    return ok, "; ".join(parts)


@_criterion(5, "measured temporal gain matches the closed form")
def criterion_5() -> tuple:
    worst = 0.0
    dc_worst = 0.0
    for rho in (0.8, 0.9):
        algo = DynamicExponential(rho)
        for omega, gain, est in ana.sweep(algo, (0.05, 0.1, 0.5, 0.0),
                                          ana.settle_rounds(algo)):
            if omega:
                worst = max(worst, abs(est.gain - gain))
            else:
                dc_worst = max(dc_worst, abs(est.gain - 1.0))
    passed = worst <= 1e-3 and dc_worst <= 1e-9
    return passed, f"worst gain err {worst:.2e} (tol 1e-3), DC err {dc_worst:.2e} (tol 1e-9)"


@_criterion(6, "Monte Carlo noise variance matches the closed forms", limit=30.0)
def criterion_6() -> tuple:
    reps = 10 ** 4
    checks = [
        ("exp rho=0.5", ExponentialWeighting(0.5), 5.0 / 27.0, 2024),
        ("window L=2", FiniteWindow(2), 0.2, 2025),
        ("global N=100", GlobalAverage(100), 0.01, 2026),
    ]
    parts = []
    ok = True
    for name, target, expected, seed in checks:
        report = ana.monte_carlo_noise(target, 1.0, reps, seed)
        rel = abs(report.sampled_variance - expected) / expected
        good = rel <= 0.05
        ok &= good
        parts.append(f"{name}: sampled {report.sampled_variance:.5f} vs {expected:.5f} "
                     f"({100 * rel:.2f}%{'' if good else '>5%!'})")
    return ok, "; ".join(parts)


@_criterion(7, "variance-match ratio decreases toward 1 and stays <= 1.25")
def criterion_7() -> tuple:
    ratios = []
    for L in (5, 10, 20, 50, 200):
        matched = ana.variance_match_rho(L)
        ratios.append(matched.exp_variance / matched.window_variance)
    decreasing = all(a > b for a, b in zip(ratios, ratios[1:]))
    toward_one = all(r > 1.0 for r in ratios) and ratios[-1] <= 1.01
    bounded = all(r <= 1.25 for r in ratios)
    passed = decreasing and toward_one and bounded
    txt = ", ".join(f"L={L}: {r:.4f}" for L, r in zip((5, 10, 20, 50, 200), ratios))
    return passed, (f"{txt}; decreasing={decreasing}, toward 1={toward_one}, "
                    f"all <= 1.25: {bounded}")


@_criterion(8, "random-spacing constants, moments, and Monte Carlo", limit=30.0)
def criterion_8() -> tuple:
    parts = []
    rho_e = math.exp(-1.0)
    k_exact = k_poisson(rho_e) == 1.0 / 3.0
    parts.append(f"k_poisson(e^-1) == 1/3: {k_exact}")

    mc = monte_carlo_spacing(rho_e, SpacingModel(ExpGaps(), 777), 20000)
    mean_ok = abs(mc.mean - 1.0) <= 3.0 * mc.mean_se
    var_ok = abs(mc.var_sampled - 1.0 / 9.0) <= 0.1 / 9.0
    parts.append(f"exp-gaps mean {mc.mean:.5f} (3SE {3 * mc.mean_se:.2e}): {mean_ok}")
    parts.append(f"var {mc.var_sampled:.5f} vs 1/9 within 10%: {var_ok}")

    mcu = monte_carlo_spacing(0.9, SpacingModel(UniformGaps(0.3), 778), 20000)
    mean_u_ok = abs(mcu.mean - 1.0) <= 3.0 * mcu.mean_se
    var_u_ok = abs(mcu.var_sampled - mcu.var_analytic) <= 0.1 * mcu.var_analytic
    parts.append(f"uniform mean {mcu.mean:.5f} (3SE {3 * mcu.mean_se:.2e}): {mean_u_ok}")
    parts.append(f"var {mcu.var_sampled:.6f} vs {mcu.var_analytic:.6f} within 10%: {var_u_ok}")

    worst_id = 0.0
    for r in np.linspace(0.02, 0.98, 50):
        s = -math.log(r)
        worst_id = max(worst_id, abs(s / (2.0 + s) ** 2
                                     - 2.0 * k_poisson(r) ** 2 / (2.0 * s)))
    id_ok = worst_id <= 1e-14
    parts.append(f"identity worst {worst_id:.2e} (tol 1e-14): {id_ok}")

    passed = k_exact and mean_ok and var_ok and mean_u_ok and var_u_ok and id_ok
    return passed, "; ".join(parts)


@_criterion(9, "figure CSVs reproduce the analytic curves pointwise")
def criterion_9() -> tuple:
    tol = 1e-12
    # each figure's rule class -> its gain formula of (param, omega)
    formulas = {
        ExponentialWeighting: ana.h_exp,
        DynamicExponential: lambda p, w: ana.k_temporal_exp(p, w)[0],
        DynamicWindow: lambda p, w: ana.k_temporal_window(int(p), w)[0],
    }
    worst = 0.0
    with tempfile.TemporaryDirectory() as tmp:
        for path in write_figures(tmp):
            rule, params, omegas = FIGURES[path.stem]
            fn = formulas[rule]
            rows = path.read_text().strip().splitlines()[1:]
            expected_count = len(params) * len(omegas)
            if len(rows) != expected_count:
                return False, f"{path.name}: {len(rows)} rows, expected {expected_count}"
            for row in rows:
                w_txt, g_txt, p_txt = row.split(",")
                worst = max(worst, abs(float(g_txt) - fn(float(p_txt), float(w_txt))))
    return worst <= tol, f"worst |csv-formula| = {worst:.2e} (tol {tol})"


@_criterion(10, "structural properties (locality, linearity, determinism)")
def criterion_10() -> tuple:
    parts = []
    ok = True
    n, rounds = 24, 12

    # locality: a bump at sensor j, step 0 leaves y_i(k) bit for bit as it
    # was while |i - j| > k; mid-chain, |i - j| is the ring's distance too
    j, leaks = 32, 0
    far = np.abs(np.arange(64) - j)[:, None] > np.arange(rounds + 1)
    for boundary in (Ring(), ZeroHalo()):
        cfg = ChainConfig(n=64, boundary=boundary, rounds=rounds)
        for _, algo, field in _oracle_cases(64, rounds, 21):
            bumped = field.kind.values.copy()
            bumped.reshape(64, -1)[j, 0] += 0.5
            y0 = run(cfg, field, algo).y
            y1 = run(cfg, MeasurementField(TableField(bumped)), algo).y
            leaks += np.count_nonzero((y0.view(np.uint64) != y1.view(np.uint64)) & far)
    good = leaks == 0
    ok &= good
    parts.append(f"values moved beyond the bump's reach {leaks}")

    # superposition to 1e-12
    f = random_spatial_table(n, 31)
    g = random_spatial_table(n, 32)
    combined = MeasurementField(TableField(0.7 * f.values - 1.3 * g.values))
    cfg = ChainConfig(n=n, boundary=Ring(), rounds=rounds)
    sup_worst = 0.0
    for algo in (ExponentialWeighting(0.7), DynamicWindow(2)):
        t_comb = run(cfg, combined, algo)
        t_f = run(cfg, MeasurementField(f), algo)
        t_g = run(cfg, MeasurementField(g), algo)
        sup_worst = max(sup_worst,
                        float(np.max(np.abs(t_comb.y - (0.7 * t_f.y - 1.3 * t_g.y)))))
    good = sup_worst <= 1e-12
    ok &= good
    parts.append(f"superposition worst {sup_worst:.2e}")

    # determinism: bit-identical reruns
    field = MeasurementField(random_space_time_table(n, rounds + 1, 41))
    a = run(cfg, field, DynamicWindow(3))
    b = run(cfg, field, DynamicWindow(3))
    det = (np.array_equal(a.y, b.y) and np.array_equal(a.z, b.z)
           and np.array_equal(a.audit, b.audit))
    ok &= det
    parts.append(f"bit-identical rerun {det}")

    # dynamic-window payload is exactly half_width + 1 values
    payload_ok = bool(np.all(a.audit["size"] == 4))
    ok &= payload_ok
    parts.append(f"payload size L+1 {payload_ok}")

    # lag causality: a perturbation at (i0+m, hit) reaches i0 no sooner than hit+m
    causal = True
    base = random_space_time_table(n, rounds + 1, 51)
    i0, m, hit = 8, 3, 2
    bumped = base.values.copy()
    bumped[i0 + m, hit] += 0.5
    for algo in (DynamicExponential(0.8), DynamicWindow(3)):
        y0 = run(cfg, MeasurementField(base), algo).y
        y1 = run(cfg, MeasurementField(TableField(bumped)), algo).y
        delta = np.abs(y1[i0] - y0[i0])
        causal &= bool(np.all(delta[:hit + m] == 0.0))
        if isinstance(algo, DynamicExponential):
            causal &= delta[hit + m] > 0.0
    ok &= causal
    parts.append(f"lag causality {causal}")

    return ok, "; ".join(parts)


CRITERIA = (criterion_1, criterion_2, criterion_3, criterion_4, criterion_5,
            criterion_6, criterion_7, criterion_8, criterion_9, criterion_10)


def run_all() -> list:
    return [fn() for fn in CRITERIA]
