#!/usr/bin/env python3
"""Split the cost of acceptance criterion 1 per point: engine, oracle rows, memo hits.

For each case (a rule, a field seed and a boundary) it runs the engine, then
sweeps every (sensor, round) point through the rule's scalar target twice, in
the same order.  The first sweep builds the case's rows and serves the other
points from them; the second is all memo hits.  Each case is timed three
times, on fresh field objects so that every first sweep builds its rows, and
the best of the three engine runs, first sweeps and second sweeps is kept.
It prints microseconds per point for the engine run, the row builds (best
first sweep less best second) and the hits (best second sweep), per rule and
in total.  The
defaults are criterion 1's cases: all seven rules at n=64 over 40 rounds,
field seeds 11-13, ring and zero halo, each round's sensors in turn
(`--order k-outer`); `--order i-outer` sweeps each sensor's rounds in turn.
"""
import argparse
import time

from lacsim import ChainConfig, Ring, ZeroHalo, run
from lacsim.acceptance import _oracle_cases

RULES = ("exp", "asym", "window", "variable_window", "arbitrary", "dyn_exp", "dyn_window")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rule", choices=RULES + ("all",), default="all")
    parser.add_argument("--n", type=int, default=64, help="sensors (at least 11)")
    parser.add_argument("--rounds", type=int, default=40)
    parser.add_argument("--order", choices=("k-outer", "i-outer"), default="k-outer")
    args = parser.parse_args()
    n, rounds = args.n, args.rounds
    if args.order == "k-outer":
        points = [(i, k) for k in range(rounds + 1) for i in range(n)]
    else:
        points = [(i, k) for i in range(n) for k in range(rounds + 1)]
    seconds = {}  # rule -> [engine, row builds, hits]
    for seed in (11, 12, 13):
        for boundary in (Ring(), ZeroHalo()):
            config = ChainConfig(n=n, boundary=boundary, rounds=rounds)
            best = {}  # rule -> best [engine, first sweep, second sweep]
            for _ in range(3):
                # fresh fields each time: a target's memo keeps only its last case
                for name, algo, field, target in _oracle_cases(n, rounds, seed):
                    if args.rule not in ("all", name):
                        continue
                    clock = [time.perf_counter()]
                    run(config, field, algo)
                    for _ in range(2):
                        clock.append(time.perf_counter())
                        for i, k in points:
                            target(boundary, i, k)
                    clock.append(time.perf_counter())
                    times = [b - a for a, b in zip(clock, clock[1:])]
                    best[name] = list(map(min, best.get(name, times), times))
            for name, (engine, first, second) in best.items():
                acc = seconds.setdefault(name, [0.0, 0.0, 0.0])
                for j, s in enumerate((engine, first - second, second)):
                    acc[j] += s
    per_rule = len(points) * 6
    print(f"n={n}, R={rounds}, {args.order}, {per_rule:,} points per rule; "
          "microseconds per point")
    print(f"{'rule':<16}{'engine':>8}{'rows':>8}{'hits':>8}")
    for name, acc in list(seconds.items()) + [("total", [sum(c) for c in zip(*seconds.values())])]:
        points_here = per_rule * (len(seconds) if name == "total" else 1)
        print(f"{name:<16}" + "".join(f"{s / points_here * 1e6:>8.2f}" for s in acc))
    total = sum(sum(acc) for acc in seconds.values())
    print(f"total {total:.3f} s over {per_rule * len(seconds):,} points (best of 3 per case)")


if __name__ == "__main__":
    main()
