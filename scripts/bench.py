#!/usr/bin/env python3
"""Time the trace writer and the Monte Carlo drivers, count their page faults: BENCH_<label>.json.

    python3 scripts/bench.py --label mine

Two layers are measured.  The writer: for each of six traces it reports the
nanoseconds per written value.  Three hold no repeated rows: exponential
rings (rho = 0.8) on a random table at n = 64, 1024 and 65536 with R = 12, 12
and 3 rounds.  Three repeat rows, which the writer copies rather than
formats: the dynamic window L = 3 on a temporal cosine, a zero-halo chain of
n = 512 for R = 24 rounds (the benchmark's reference case), whose interior
sensors repeat their neighbours; the window L = 5 on a random table, a ring of
n = 1024 for R = 40 rounds, whose rounds past 5 repeat round 5; and the
exponential rule on a constant field, a ring of n = 1024 for R = 12 rounds,
every sensor of a round equal.  The Monte Carlo drivers: for the
five cases of the benchmark's `monte-carlo` workload (`monte_carlo_noise` on
the exponential rule at rho = 0.8, the window L = 5 and the global average of
100 sensors; `monte_carlo_spacing` at rho = 0.5 with e^{-d} gaps and with
uniform gaps at eta = 0.3), 10,000 replicates a call, and for uniform gaps at
eta = 0.999, whose 2 g = 79,732 gaps a replicate exceed a block, 1,000, it
reports the microseconds per replicate and the peak of one more call traced by
`tracemalloc`.  Beside each time it gives the minor page faults (`ru_minflt`)
per call, three ways:

  cold          the first call in a fresh process: the median over
                PROCESSES (9) processes;
  warm          the calls after a first, untimed one: the best of REPEAT (10)
                calls in each of PROCESSES fresh processes, the best of those
                and their median, and the median faults per call;
  warm_4mib     the same, with 4 MiB allocated and freed before each call,
                which raises glibc's mmap threshold past every block
                temporary, so the pages it would map afresh come from the
                heap instead.

Each measurement runs in its own process, which imports `lacsim` from this
checkout's `src`, builds its input (the writer's trace with `lacsim.run`) and
then calls the layer; the processes go round the cases and modes in turn.  The
file also holds the Python and numpy versions, the commit and the CPU count.
Every file is measured the same way, so that files of different trees compare.
`--toy` shrinks every trace, runs 1,000 replicates a Monte Carlo call and one
process of one call, for a quick check of the file.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# case -> (rule, field, boundary, n, rounds), full size; --toy: n below, at
# most 4 rounds
CASES = {
    "exponential_ring_n64_r12": ("exponential", "table", "ring", 64, 12),
    "exponential_ring_n1024_r12": ("exponential", "table", "ring", 1024, 12),
    "exponential_ring_n65536_r3": ("exponential", "table", "ring", 65536, 3),
    "dyn_window3_zero_halo_n512_r24": ("dyn_window", "temporal_cosine", "zero_halo", 512, 24),
    "window5_ring_n1024_r40": ("window", "table", "ring", 1024, 40),
    "constant_exponential_ring_n1024_r12": ("exponential", "constant", "ring", 1024, 12),
}
TOY = {"exponential_ring_n64_r12": 8, "exponential_ring_n1024_r12": 16,
       "exponential_ring_n65536_r3": 32, "dyn_window3_zero_halo_n512_r24": 12,
       "window5_ring_n1024_r40": 16, "constant_exponential_ring_n1024_r12": 16}
# Monte Carlo case -> (driver, target or gap law, its parameter, replicates),
# at the seed below (--toy: 1,000 replicates)
MC_CASES = {
    "noise_exponential_0.8": ("noise", "exponential", 0.8, 10_000),
    "noise_window_5": ("noise", "window", 5, 10_000),
    "noise_global_100": ("noise", "global", 100, 10_000),
    "spacing_exp_rho0.5": ("spacing", "exp", None, 10_000),
    "spacing_uniform0.3_rho0.5": ("spacing", "uniform", 0.3, 10_000),
    "spacing_uniform0.999_rho0.5": ("spacing", "uniform", 0.999, 1000),
}
MC_SEED = 1
MODES = ("cold", "warm", "warm_4mib")
# layer -> (its cases, what a case counts, the key of its time per unit)
LAYERS = {"trace_to_csv": (CASES, "values", "ns_per_value"),
          "monte_carlo": (MC_CASES, "replicates", "us_per_replicate")}
PRIMER_BYTES = 4 << 20
REPEAT = 10  # warm calls per process
PROCESSES = 9  # fresh processes per case and mode


def _trace(case: str, toy: bool):
    import numpy as np

    from lacsim import (ChainConfig, Constant, DynamicWindow, ExponentialWeighting, FiniteWindow,
                        MeasurementField, Ring, TableField, TemporalCosine, ZeroHalo, run)

    rule, kind, boundary, n, rounds = CASES[case]
    if toy:
        n, rounds = TOY[case], min(rounds, 4)
    config = ChainConfig(n=n, boundary=Ring() if boundary == "ring" else ZeroHalo(),
                         rounds=rounds)
    if kind == "table":
        field = TableField(np.random.default_rng(n).uniform(-1.0, 1.0, n))
    else:
        field = Constant(0.7) if kind == "constant" else TemporalCosine(1.0, 0.3)
    algo = {"exponential": ExponentialWeighting(0.8), "window": FiniteWindow(5),
            "dyn_window": DynamicWindow(3)}[rule]
    return run(config, MeasurementField(field), algo)


def _prime():
    """Allocate and free 4 MiB: glibc then serves blocks below it from the heap."""
    import numpy as np

    np.ones(PRIMER_BYTES // 8).sum()


def _monte_carlo(case: str, toy: bool):
    """The call of Monte Carlo `case` and its replicate count."""
    from lacsim import (ExpGaps, ExponentialWeighting, FiniteWindow, GlobalAverage,
                        SpacingModel, UniformGaps, monte_carlo_noise, monte_carlo_spacing)

    driver, kind, param, replicates = MC_CASES[case]
    replicates = 1000 if toy else replicates
    if driver == "noise":
        target = {"exponential": ExponentialWeighting, "window": FiniteWindow,
                  "global": GlobalAverage}[kind](param)
        return (lambda: monte_carlo_noise(target, 1.0, replicates, MC_SEED)), replicates
    model = SpacingModel(ExpGaps() if kind == "exp" else UniformGaps(param), MC_SEED)
    return (lambda: monte_carlo_spacing(0.5, model, replicates)), replicates


def _timed_calls(call, mode: str, toy: bool, summary):
    """summary(the last result) and [(ns, faults)] of each timed call of
    `call` in this process, as `mode` says."""
    calls = []
    for _ in range(1 if mode == "cold" else (1 if toy else REPEAT) + 1):
        if mode == "warm_4mib":
            _prime()
        gc.collect()
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        start = time.perf_counter_ns()
        result = call()
        elapsed = time.perf_counter_ns() - start
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
        calls.append((elapsed, faults))
        info, result = summary(result), None
    # after a cold call, the first call only warms up
    return info, calls if mode == "cold" else calls[1:]


def _traced_peak(call) -> int:
    """The peak bytes `tracemalloc` sees during `call()`."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def child(layer: str, case: str, mode: str, toy: bool) -> dict:
    """Time `layer` in this process, as `mode` says: [(ns per value or us per
    replicate, faults)] of each timed call; for a Monte Carlo case also the
    traced peak of one call after them."""
    if layer == "monte_carlo":
        call, replicates = _monte_carlo(case, toy)
        _, calls = _timed_calls(call, mode, toy, lambda report: None)
        return {"replicates": replicates, "traced_peak_bytes": _traced_peak(call),
                "calls": [(ns / 1000 / replicates, faults) for ns, faults in calls]}
    from lacsim import trace_to_csv

    trace = _trace(case, toy)
    values = trace.y.size + (trace.z.size if trace.z is not None else 0)
    size, calls = _timed_calls(lambda: trace_to_csv(trace), mode, toy, len)
    return {"values": values, "bytes": size,
            "calls": [(ns / values, faults) for ns, faults in calls]}


def _run_child(layer: str, case: str, mode: str, toy: bool) -> dict:
    args = [sys.executable, str(Path(__file__).resolve()), "--child", layer, case, mode] + (
        ["--toy"] if toy else [])
    proc = subprocess.run(args, stdout=subprocess.PIPE, check=True, timeout=600)
    return json.loads(proc.stdout)


def _commit() -> dict:
    def git(*args):
        proc = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                              check=False)
        return proc.stdout.strip() if proc.returncode == 0 else None

    head = git("rev-parse", "HEAD")
    status = git("status", "--porcelain", "--untracked-files=no", "--", "src")
    return {"commit": head, "src_modified": None if status is None else bool(status)}


def measure(toy: bool) -> dict:
    import numpy as np

    # round-robin over cases and modes, so that a slow spell of the host
    # falls on one process of each rather than on every process of one
    runs = {(layer, case, mode): [] for layer, (cases, _, _) in LAYERS.items()
            for case in cases for mode in MODES}
    for _ in range(1 if toy else PROCESSES):
        for key, results in runs.items():
            results.append(_run_child(*key, toy))
    report = {layer: {} for layer in LAYERS}
    for (layer, case, mode), results in runs.items():
        _, units, time_key = LAYERS[layer]
        entry = report[layer].setdefault(case, {
            key: results[0][key] for key in (units, "bytes") if key in results[0]})
        calls = [call for result in results for call in result["calls"]]
        best = [min(t for t, _ in result["calls"]) for result in results]
        entry[mode] = {
            time_key: statistics.median(best) if mode == "cold" else min(best),
            "minflt": statistics.median(faults for _, faults in calls),
            "runs": best,
        }
        if mode != "cold":
            entry[mode][f"{time_key}_median"] = statistics.median(best)
        if "traced_peak_bytes" in results[0]:
            entry[mode]["traced_peak_bytes"] = statistics.median(
                result["traced_peak_bytes"] for result in results)
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        **_commit(),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "repeat": 1 if toy else REPEAT,
        "processes": 1 if toy else PROCESSES,
        **report,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", help="writes BENCH_<label>.json")
    parser.add_argument("--out", type=Path, default=ROOT,
                        help="directory of the file (default: the repository root)")
    parser.add_argument("--toy", action="store_true",
                        help="tiny inputs, one process of one call, for a quick check")
    parser.add_argument("--child", nargs=3, metavar=("LAYER", "CASE", "MODE"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    if args.child:
        print(json.dumps(child(*args.child, args.toy)))
        return 0
    if not args.label:
        parser.error("--label is required")
    report = {"label": args.label, **measure(args.toy)}
    path = args.out / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(report, indent=2) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
