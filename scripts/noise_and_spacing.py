#!/usr/bin/env python3
"""Noise propagation and random-spacing studies against their closed forms.

Prints Monte Carlo output variances for the exponential and window rules next
to the analytic formulas, the window/exponential variance-match ratios, a
random-spacing run for both gap laws, and the same spacing claim through
message passing: a constant field run by the banded rule on a drawn chain of
`--sensors` sensors (at least 672), whose interior K y should have mean 1 and
variance var_y, with batch-means standard errors over blocks of 256 sensors.
Each Monte Carlo row also shows its wall-clock cost in microseconds per
replicate and the minor page faults of its call, so arrays allocated afresh
for every block show.  With `--repeat N` each row makes N calls and shows the
fastest.
"""
import argparse
import math
import resource
import time

from lacsim import (BandedWeighting, ChainConfig, Constant, ExpGaps, ExponentialWeighting,
                    FiniteWindow, GlobalAverage, MeasurementField, SpacingModel, Truncated,
                    UniformGaps, k_poisson, k_uniform, monte_carlo_noise, monte_carlo_spacing,
                    noise_var_exp, noise_var_window, run, sample_spacings, spacing_moments,
                    table_from_draw, variance_match_rho)


def timed(call, replicates, repeat):
    """The fastest of `repeat` calls: `call()`, its wall-clock microseconds per
    replicate and its minor page faults."""
    runs = []
    for _ in range(repeat):
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        start = time.perf_counter()
        result = call()
        us = (time.perf_counter() - start) * 1e6 / replicates
        runs.append((result, us, resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults))
    return min(runs, key=lambda run: run[1])


def noise_table(replicates, seed, repeat):
    print(f"{'target':>16} {'analytic':>10} {'sampled':>10} {'rel err':>9} {'us/rep':>7} "
          f"{'faults':>7}")
    # exp rho = 0.8, window L = 5 and global N = 100 are the perfbench
    # monte-carlo workload's noise cases
    rows = [(f"exp rho={r}", ExponentialWeighting(r), noise_var_exp(r))
            for r in (0.3, 0.5, 0.7, 0.8, 0.9)]
    rows += [(f"window L={L}", FiniteWindow(L), noise_var_window(L)) for L in (2, 5, 10)]
    rows.append(("global N=100", GlobalAverage(100), 0.01))
    for name, target, analytic in rows:
        rep, us, faults = timed(lambda: monte_carlo_noise(target, 1.0, replicates, seed),
                                replicates, repeat)
        rel = abs(rep.sampled_variance - analytic) / analytic
        print(f"{name:>16} {analytic:10.6f} {rep.sampled_variance:10.6f} {rel:9.2%} {us:7.2f} "
              f"{faults:7d}")


def match_table():
    print(f"{'L':>4} {'matched rho':>12} {'exp var':>10} {'window var':>11} {'ratio':>8}")
    for L in (2, 5, 10, 20, 50, 200):
        m = variance_match_rho(L)
        print(f"{L:4d} {m.rho:12.6f} {m.exp_variance:10.6f} "
              f"{m.window_variance:11.6f} {m.exp_variance / m.window_variance:8.4f}")


def spacing_table(replicates, seed, repeat):
    print(f"{'law':>18} {'rho':>8} {'K':>8} {'mean':>8} {'var':>9} {'var analytic':>13} "
          f"{'us/rep':>7} {'faults':>7}")
    # rho = 0.5 with exponential and eta = 0.3 uniform gaps are the
    # perfbench monte-carlo workload's spacing cases
    for law, rho in ((ExpGaps(), math.exp(-1)), (ExpGaps(), 0.5),
                     (UniformGaps(0.3), 0.5), (UniformGaps(0.3), 0.9)):
        rep, us, faults = timed(
            lambda: monte_carlo_spacing(rho, SpacingModel(law, seed), replicates), replicates,
            repeat)
        print(f"{rep.law:>18} {rho:8.4f} {rep.k_analytic:8.4f} {rep.mean:8.5f} "
              f"{rep.var_sampled:9.6f} {rep.var_analytic:13.6f} {us:7.2f} {faults:7d}")


def batch_means(values, size=256):
    """The mean of `values` and its batch-means standard error over blocks of
    `size` consecutive values; a last, partial block is dropped."""
    blocks = values[:values.size // size * size].reshape(-1, size).mean(axis=1)
    return blocks.mean(), blocks.std(ddof=1) / math.sqrt(blocks.size)


def engine_spacing_table(sensors, seed, repeat):
    print(f"{'law':>18} {'mean':>8} {'mean se':>8} {'var':>9} {'var se':>9} "
          f"{'var analytic':>13} {'run ms':>7}")
    # rho = 0.5 and a band of radius 80, run for 80 rounds: past it the
    # weights are below rho^56 even for the shortest uniform gaps
    rho, radius = 0.5, 80
    config = ChainConfig(n=sensors, boundary=Truncated(), rounds=radius)
    for name, law, k_norm in (("exp_density", ExpGaps(), k_poisson(rho)),
                              ("uniform(eta=0.3)", UniformGaps(0.3), k_uniform(rho, 0.3))):
        table = table_from_draw(sample_spacings(SpacingModel(law, seed), sensors - 1), rho,
                                radius)
        trace, us, _ = timed(
            lambda: run(config, MeasurementField(Constant(1.0)), BandedWeighting(table)), 1,
            repeat)
        values = k_norm * trace.y[radius:sensors - radius, radius]  # the whole band on the chain
        mean, mean_se = batch_means(values)
        var, var_se = batch_means((values - mean) ** 2)
        print(f"{name:>18} {mean:8.5f} {mean_se:8.5f} {var:9.6f} {var_se:9.6f} "
              f"{spacing_moments(rho, law).var_y:13.6f} {us / 1e3:7.1f}")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--replicates", type=int, default=5000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--repeat", type=int, default=1, help="calls per row; the fastest is shown")
    parser.add_argument("--sensors", type=int, default=2 ** 14,
                        help="chain size of the message-passing spacing table")
    args = parser.parse_args()
    noise_table(args.replicates, args.seed, args.repeat)
    print()
    match_table()
    print()
    spacing_table(max(args.replicates, 1000), args.seed, args.repeat)
    print()
    engine_spacing_table(args.sensors, args.seed, args.repeat)


if __name__ == "__main__":
    main()
