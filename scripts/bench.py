#!/usr/bin/env python3
"""Time `lacsim.trace_to_csv` and count its page faults; write BENCH_<label>.json.

    python3 scripts/bench.py --label mine

For each of four traces (y-only exponential rings at n = 64, 1024 and 65536
with R = 12, 12 and 3 rounds, and the dynamic window L = 3 on a zero-halo
chain of n = 512 for R = 24 rounds) it reports the nanoseconds per written
value and the minor page faults (`ru_minflt`) per call, three ways:

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
checkout's `src`, builds the trace with `lacsim.run` and then calls the
writer; the processes go round the cases and modes in turn.  The file also
holds the Python and numpy versions, the commit and the CPU count.  Every
file is measured the same way, so that files of different trees compare.
`--toy` shrinks every trace and runs one process of one call, for a quick
check of the file.
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
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# case -> (rule, boundary, n, rounds), full size and --toy
CASES = {
    "exponential_ring_n64_r12": ("exponential", "ring", 64, 12),
    "exponential_ring_n1024_r12": ("exponential", "ring", 1024, 12),
    "exponential_ring_n65536_r3": ("exponential", "ring", 65536, 3),
    "dyn_window3_zero_halo_n512_r24": ("dyn_window", "zero_halo", 512, 24),
}
TOY = {"exponential_ring_n64_r12": 8, "exponential_ring_n1024_r12": 16,
       "exponential_ring_n65536_r3": 32, "dyn_window3_zero_halo_n512_r24": 12}
MODES = ("cold", "warm", "warm_4mib")
PRIMER_BYTES = 4 << 20
REPEAT = 10  # warm calls per process
PROCESSES = 9  # fresh processes per case and mode


def _trace(case: str, toy: bool):
    import numpy as np

    from lacsim import (ChainConfig, DynamicWindow, ExponentialWeighting, MeasurementField,
                        Ring, TableField, TemporalCosine, ZeroHalo, run)

    rule, boundary, n, rounds = CASES[case]
    if toy:
        n, rounds = TOY[case], min(rounds, 4)
    config = ChainConfig(n=n, boundary=Ring() if boundary == "ring" else ZeroHalo(),
                         rounds=rounds)
    if rule == "exponential":
        values = np.random.default_rng(n).uniform(-1.0, 1.0, n)
        return run(config, MeasurementField(TableField(values)), ExponentialWeighting(0.8))
    return run(config, MeasurementField(TemporalCosine(1.0, 0.3)), DynamicWindow(3))


def _prime():
    """Allocate and free 4 MiB: glibc then serves blocks below it from the heap."""
    import numpy as np

    np.ones(PRIMER_BYTES // 8).sum()


def child(case: str, mode: str, toy: bool) -> dict:
    """Time the writer in this process, as `mode` says: [(ns per value,
    faults)] of each timed call."""
    from lacsim import trace_to_csv

    trace = _trace(case, toy)
    values = trace.y.size + (trace.z.size if trace.z is not None else 0)
    calls = []
    for _ in range(1 if mode == "cold" else (1 if toy else REPEAT) + 1):
        if mode == "warm_4mib":
            _prime()
        gc.collect()
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        start = time.perf_counter_ns()
        text = trace_to_csv(trace)
        elapsed = time.perf_counter_ns() - start
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
        calls.append((elapsed / values, faults))
        size, text = len(text), None
    # after a cold call, the first call only warms up
    return {"values": values, "bytes": size, "calls": calls if mode == "cold" else calls[1:]}


def _run_child(case: str, mode: str, toy: bool) -> dict:
    args = [sys.executable, str(Path(__file__).resolve()), "--child", case, mode] + (
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
    runs = {(case, mode): [] for case in CASES for mode in MODES}
    for _ in range(1 if toy else PROCESSES):
        for (case, mode), results in runs.items():
            results.append(_run_child(case, mode, toy))
    cases = {}
    for (case, mode), results in runs.items():
        entry = cases.setdefault(case, {"values": results[0]["values"],
                                        "bytes": results[0]["bytes"]})
        calls = [call for result in results for call in result["calls"]]
        best = [min(ns for ns, _ in result["calls"]) for result in results]
        entry[mode] = {
            "ns_per_value": statistics.median(best) if mode == "cold" else min(best),
            "minflt": statistics.median(faults for _, faults in calls),
            "runs": best,
        }
        if mode != "cold":
            entry[mode]["ns_per_value_median"] = statistics.median(best)
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        **_commit(),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "repeat": 1 if toy else REPEAT,
        "processes": 1 if toy else PROCESSES,
        "trace_to_csv": cases,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", help="writes BENCH_<label>.json")
    parser.add_argument("--out", type=Path, default=ROOT,
                        help="directory of the file (default: the repository root)")
    parser.add_argument("--toy", action="store_true",
                        help="tiny traces, one process of one call, for a quick check")
    parser.add_argument("--child", nargs=2, metavar=("CASE", "MODE"), help=argparse.SUPPRESS)
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
