"""Run two sets of benchmark runs of the same code and compare them.

    python3 perfbench/compare.py --runs 10            # every workload
    python3 perfbench/compare.py --runs 5 --workload simulate

Set A uses seeds 1..runs and set B seeds 101..100+runs; their runs alternate,
and each runs for BENCHMARK.json's `run_seconds`.  For every end-to-end
metric and workload it prints each set's median and its spread
(interquartile distance over the median), and checks, against the bounds in
BENCHMARK.json:
  - each spread is within the metric's bound;
  - the two sets' medians differ by no more than the bound, in either
    direction: |A - B| over the smaller of the two;
  - the share of failed operations is exactly the same in every run;
  - every run exits 0 and reports correct outputs.
Raw results go to perfbench/results/.  Exit code 0 when every check holds.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETS = "AB"


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def one_run(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=ROOT, stdout=subprocess.PIPE, timeout=300, check=False)
    lines = proc.stdout.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"exit": proc.returncode}
    return dict(json.loads(lines[-1]), exit=0)


def check_sets(spec: dict, workload: str, sets: list[list[dict]]) -> tuple[list[str], list[str]]:
    """Compare the two sets of one workload's runs; return (report lines,
    problems)."""
    report, problems = [], []
    for name, runs in zip(SETS, sets):
        bad = [r.get("seed") for r in runs if r["exit"] != 0 or not r.get("correct")]
        if bad:
            problems.append(f"{workload} set {name}: runs failed or incorrect: seeds {bad}")
    if any(r["exit"] != 0 for runs in sets for r in runs):
        return report, problems
    shares = [{Fraction(r["failed"], r["attempted"]) for r in runs} for runs in sets]
    report.append("  failed share: " + " | ".join(", ".join(map(str, sorted(s))) for s in shares))
    if len(set().union(*shares)) != 1:
        problems.append(f"{workload}: failed share differs between runs")
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        values = [[r["metrics"][name]["value"] for r in runs] for runs in sets]
        medians = [statistics.median(v) for v in values]
        spreads = [spread(v) for v in values]
        row = "  ".join(f"median {m:.6g} spread {sp:.3f}" for m, sp in zip(medians, spreads))
        report.append(f"  {name:30s} bound {bound:.2f}  {row}")
        problems += [f"{workload} {name}: set {s} spread {sp:.3f} exceeds bound {bound}"
                     for s, sp in zip(SETS, spreads) if sp > bound]
        a, b = medians
        apart = abs(b - a) / min(a, b)
        if apart > bound:
            problems.append(f"{workload} {name}: set medians {a:.6g} and {b:.6g} "
                            f"differ by {apart:.3f} > {bound}")
    return report, problems


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10, help="runs per set, at least 2")
    parser.add_argument("--workload", action="append", choices=names)
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2")
    workloads = args.workload or names

    results = {w: [[] for _ in SETS] for w in workloads}
    for i in range(args.runs):
        for w in workloads:
            for s, name in enumerate(SETS):
                seed = 100 * s + i + 1
                t0 = time.monotonic()
                res = one_run(w, seed, spec["run_seconds"])
                res["seed"], res["wall_s"] = seed, time.monotonic() - t0
                results[w][s].append(res)
                print(f"{w} set {name} seed {seed}: exit {res['exit']} "
                      f"{res['wall_s']:.0f}s", file=sys.stderr, flush=True)

    problems = []
    for w in workloads:
        report, found = check_sets(spec, w, results[w])
        print(f"\n{w}")
        print("\n".join(report))
        problems += found

    out = HERE / "results" / time.strftime("compare-%Y%m%d-%H%M%S.json")
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(results, indent=1) + "\n")
    print(f"\nraw results: {out.relative_to(ROOT)}")
    for p in problems:
        print(f"FAIL {p}")
    print("all checks hold" if not problems else f"{len(problems)} checks failed")
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
