#!/usr/bin/env python3
"""Time one engine run on a long chain and report the process's peak memory.

Runs `lacsim.run` for a rule, a boundary, a chain length n and a round
count R (default: the exponential rule on a ring of 10^6 sensors for 200
rounds) and prints the wall time, the time per sensor-round and the peak
resident set size of this process.  The trace alone takes 8 (R + 1) n bytes.
`--noise-sigma` adds seeded Gaussian noise to the field, so the run also
draws the (R + 1) x n noise grid, or an n-point one for a static rule.
`--half-width` sets L of the window and dyn_window rules (defaults 5 and 3),
and `--repeat K` runs K times in one process and reports the fastest run.
"""
import argparse
import resource
import time

from lacsim import (AsymmetricWeighting, BandedWeighting, ChainConfig, DynamicExponential,
                    DynamicWindow, ExponentialWeighting, FiniteWindow, MeasurementField, Noise,
                    PerSensorWindow, Ring, SpatialCosine, SumField, TemporalCosine, Truncated,
                    WeightTable, ZeroHalo, run)

RULES = {
    "exponential": lambda n, L: ExponentialWeighting(0.8),
    "asymmetric": lambda n, L: AsymmetricWeighting(0.5, 0.25),
    "window": lambda n, L: FiniteWindow(5 if L is None else L),
    # half-widths 3..6 by the distance to the nearer end, so neighbors (the
    # ring wrap pair included) differ by at most one
    "variable_window": lambda n, L: PerSensorWindow(
        tuple(3 + abs(min(i, n - 1 - i) % 6 - 3) for i in range(n))),
    "arbitrary": lambda n, L: BandedWeighting(WeightTable.geometric(0.8, 12, n)),
    "dyn_exponential": lambda n, L: DynamicExponential(0.8),
    "dyn_window": lambda n, L: DynamicWindow(3 if L is None else L),
}
BOUNDARIES = {"ring": Ring, "zero_halo": ZeroHalo, "truncated": Truncated}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rule", choices=RULES, default="exponential")
    parser.add_argument("--boundary", choices=BOUNDARIES, default="ring")
    parser.add_argument("--n", type=int, default=10 ** 6)
    parser.add_argument("--rounds", type=int, default=200)
    parser.add_argument("--noise-sigma", type=float, default=0.0,
                        help="standard deviation of Gaussian noise on the field (seed 0)")
    parser.add_argument("--half-width", type=int, default=None,
                        help="L of the window and dyn_window rules (default 5 and 3)")
    parser.add_argument("--repeat", type=int, default=1, help="runs; the fastest is reported")
    args = parser.parse_args()
    config = ChainConfig(n=args.n, boundary=BOUNDARIES[args.boundary](), rounds=args.rounds)
    field = MeasurementField(SumField((SpatialCosine(1.0, 0.3), TemporalCosine(0.5, 0.2))),
                             noise=Noise(args.noise_sigma) if args.noise_sigma else None)
    algo = RULES[args.rule](args.n, args.half_width)
    elapsed = float("inf")
    for _ in range(args.repeat):
        trace = None  # the last run's trace goes before the next run
        start = time.perf_counter()
        trace = run(config, field, algo)
        elapsed = min(elapsed, time.perf_counter() - start)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
    sensor_rounds = args.n * (args.rounds + 1)
    noise = f", noise sigma {args.noise_sigma}" if args.noise_sigma else ""
    width = f" L={algo.half_width}" if args.rule in ("window", "dyn_window") else ""
    best = f", best of {args.repeat}" if args.repeat > 1 else ""
    print(f"{args.rule}{width} on {args.boundary}, n={args.n}, R={args.rounds}{noise}{best}: "
          f"{elapsed:.6f} s, {elapsed / sensor_rounds * 1e9:.1f} ns per sensor-round, "
          f"peak RSS {peak_mb:.0f} MB, trace {trace.y.nbytes / 2 ** 20:.0f} MiB")


if __name__ == "__main__":
    main()
