#!/usr/bin/env python3
"""Time one engine run on a long chain and report the process's peak memory.

Runs `lacsim.run` once for a rule, a boundary, a chain length n and a round
count R (default: the exponential rule on a ring of 10^6 sensors for 200
rounds) and prints the wall time, the time per sensor-round and the peak
resident set size of this process.  The trace alone takes 8 (R + 1) n bytes.
`--noise-sigma` adds seeded Gaussian noise to the field, so the run also
draws the (R + 1) x n noise grid, or an n-point one for a static rule.
"""
import argparse
import resource
import time

from lacsim import (AsymmetricWeighting, BandedWeighting, ChainConfig, DynamicExponential,
                    DynamicWindow, ExponentialWeighting, FiniteWindow, MeasurementField, Noise,
                    PerSensorWindow, Ring, SpatialCosine, SumField, TemporalCosine, Truncated,
                    WeightTable, ZeroHalo, run)

RULES = {
    "exponential": lambda n: ExponentialWeighting(0.8),
    "asymmetric": lambda n: AsymmetricWeighting(0.5, 0.25),
    "window": lambda n: FiniteWindow(5),
    # half-widths 3..6 by the distance to the nearer end, so neighbors (the
    # ring wrap pair included) differ by at most one
    "variable_window": lambda n: PerSensorWindow(
        tuple(3 + abs(min(i, n - 1 - i) % 6 - 3) for i in range(n))),
    "arbitrary": lambda n: BandedWeighting(WeightTable.geometric(0.8, 12, n)),
    "dyn_exponential": lambda n: DynamicExponential(0.8),
    "dyn_window": lambda n: DynamicWindow(3),
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
    args = parser.parse_args()
    config = ChainConfig(n=args.n, boundary=BOUNDARIES[args.boundary](), rounds=args.rounds)
    field = MeasurementField(SumField((SpatialCosine(1.0, 0.3), TemporalCosine(0.5, 0.2))),
                             noise=Noise(args.noise_sigma) if args.noise_sigma else None)
    algo = RULES[args.rule](args.n)
    start = time.perf_counter()
    trace = run(config, field, algo)
    elapsed = time.perf_counter() - start
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
    sensor_rounds = args.n * (args.rounds + 1)
    noise = f", noise sigma {args.noise_sigma}" if args.noise_sigma else ""
    print(f"{args.rule} on {args.boundary}, n={args.n}, R={args.rounds}{noise}: "
          f"{elapsed:.3f} s, {elapsed / sensor_rounds * 1e9:.1f} ns per sensor-round, "
          f"peak RSS {peak_mb:.0f} MB, trace {trace.y.nbytes / 2 ** 20:.0f} MiB")


if __name__ == "__main__":
    main()
