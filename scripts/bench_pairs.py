#!/usr/bin/env python3
"""Run the benchmark in two checkouts in alternating pairs and compare them.

    python3 scripts/bench_pairs.py PARENT CHANGE --workload simulate --seeds 7-18

For each seed it runs `perfbench/run.py --trace 0` once in each checkout, for
BENCHMARK.json's `run_seconds` (PARENT's file).  The side that runs first
alternates: PARENT for the first seed, CHANGE for the second, and so on, so a
drift of the host's speed falls on both sides alike.  For each end-to-end
metric it prints each side's median and quartiles, the change of the median
in percent, and the pairs in which CHANGE was better, in the direction that
BENCHMARK.json gives; a tie counts for neither side, and a pair counts only
when both sides give a value.  Runs that exit non-zero, print no result or
report incorrect outputs are listed by seed and left out of the statistics.

The worker normalises each throughput by the time of a reference kernel, so a
run in which the kernel itself ran faster reads lower.  To tell such a move
apart from one in lacsim, each run's stderr (passed through) is searched for
the worker's `raw {...} kernel_s X` line, and each side's median raw
throughputs and median kernel time are printed as well.
"""
from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
RAW_LINE = re.compile(r"^raw (\{.*\}) kernel_s (\S+)$", re.MULTILINE)


def one_run(checkout: Path, workload: str, seed: int, seconds: float) -> dict | None:
    """The result line of one benchmark run, or None when it failed."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=checkout, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          timeout=600, check=False)
    sys.stderr.write(proc.stderr.decode())
    lines = proc.stdout.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None
    return {**json.loads(lines[-1]), **raw_figures(proc.stderr.decode())}


def raw_figures(stderr: str) -> dict:
    """{"raw": {metric: throughput before normalisation, "kernel_s": the
    reference kernel's median time}} from a run's stderr, {} without them."""
    match = RAW_LINE.search(stderr)
    return {"raw": {**json.loads(match[1]), "kernel_s": float(match[2])}} if match else {}


def run_pairs(checkouts: dict, workload: str, seeds: list, seconds: float,
              run=one_run) -> list:
    """[(seed, {side: result or None})], the first side alternating by seed."""
    pairs = []
    for j, seed in enumerate(seeds):
        results = {}
        for side in SIDES[::-1] if j % 2 else SIDES:
            results[side] = run(checkouts[side], workload, seed, seconds)
            print(f"{workload} seed {seed} {side}: {json.dumps(results[side])}",
                  file=sys.stderr)  # the raw result line, null for a failed run
        pairs.append((seed, results))
    return pairs


def _quartiles(values: list) -> tuple:
    """(first quartile, median, third quartile)."""
    if len(values) < 2:
        return (values[0],) * 3
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def _value(result: dict | None, name: str) -> float | None:
    """A metric of a correct run's result, or None."""
    if result is None or not result.get("correct") or name not in result["metrics"]:
        return None
    return result["metrics"][name]["value"]


def _raw(result: dict | None, name: str) -> float | None:
    """A raw figure of a correct run's result, or None."""
    if result is None or not result.get("correct"):
        return None
    return result.get("raw", {}).get(name)


def summarize(spec: dict, workload: str, pairs: list) -> list:
    """Report lines for `pairs` as `run_pairs` returns them."""
    lines = [f"{workload}: {len(pairs)} pairs, seeds {', '.join(str(s) for s, _ in pairs)}"]
    for metric in spec["end_to_end"]:
        name, higher = metric["name"], metric["better"] == "higher"
        values = [[_value(r[side], name) for side in SIDES] for _, r in pairs]
        per_side = [[v[j] for v in values if v[j] is not None] for j in range(2)]
        if not all(per_side):
            continue
        both = [(a, b) for a, b in values if a is not None and b is not None]
        won = sum((b > a if higher else b < a) for a, b in both)
        stats = [_quartiles(v) for v in per_side]
        lines.append(f"  {name} ({metric['better']} is better, {metric['unit']})")
        for side, (q1, median, q3) in zip(SIDES, stats):
            lines.append(f"    {side:6s} {median:.6g} [{q1:.6g}, {q3:.6g}]")
        base, new = stats[0][1], stats[1][1]
        change = 100.0 * (new - base) / base if base else float("nan")
        lines.append(f"    change {change:+.1f} %, better in {won} of {len(both)} pairs")
    # the raw figures: a move of kernel_s moves every normalised throughput
    raw = []
    names = [m["name"] for m in spec["end_to_end"] if m["name"].endswith("_per_s")]
    for name in names + ["kernel_s"]:
        values = [[v for _, r in pairs if (v := _raw(r[side], name)) is not None]
                  for side in SIDES]
        if all(values):
            base, new = (statistics.median(v) for v in values)
            change = 100.0 * (new - base) / base if base else float("nan")
            raw.append(f"    {name}: parent {base:.6g}, change {new:.6g}, change {change:+.1f} %")
    if raw:
        lines += ["  raw medians, before normalisation by the reference kernel"] + raw
    for side in SIDES:
        results = [(seed, r[side]) for seed, r in pairs]
        for what, seeds in (
                ("failed runs", [s for s, r in results if r is None]),
                ("incorrect runs", [s for s, r in results if r is not None
                                    and not r.get("correct")]),
                ("runs with failed operations", [s for s, r in results if r is not None
                                                 and r.get("failed")])):
            if seeds:
                lines.append(f"  {side} {what}: seeds {', '.join(map(str, seeds))}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True, help="a name from BENCHMARK.json")
    parser.add_argument("--seeds", required=True, metavar="A-B", help="seeds A..B inclusive")
    args = parser.parse_args(argv)
    first, _, last = args.seeds.partition("-")
    seeds = list(range(int(first), int(last or first) + 1))
    spec = json.loads((args.parent / "BENCHMARK.json").read_text())
    pairs = run_pairs(dict(zip(SIDES, (args.parent, args.change))), args.workload, seeds,
                      spec["run_seconds"])
    print("\n".join(summarize(spec, args.workload, pairs)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
