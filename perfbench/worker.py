"""One benchmark run in a fresh process; started by run.py.

Set-up (interpreter start, imports, input generation) ends where the first
round begins.  Round 0 runs every operation once and checks its outputs in
full; the measured rounds then repeat the same operations until `--seconds`
have passed, each output checked against round 0's.  With `--trace 1` one
more untraced round gives the reference for the tracing overhead, and the
measured rounds run traced.  The last line on stdout is the result as JSON.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import speed
import tracer as tracing
import workloads

HERE = Path(__file__).resolve().parent
SETUP_KERNELS = 9  # reference-kernel timings taken right after set-up

# throughput kinds of operations and the end-to-end metric each feeds
RATES = {
    "sim": "sim.sensor_rounds_per_s",
    "check": "check.points_per_s",
    "mc_noise": "mc.noise_replicates_per_s",
    "mc_spacing": "mc.spacing_replicates_per_s",
}


class Run:
    def __init__(self, ops):
        self.ops = ops
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.failures: dict[str, str] = {}
        self.cli_bytes = 0
        self.kernels: list[float] = []

    def round(self, first: bool = False, tracer=None) -> list[tuple]:
        """Run every operation once; return (operation index, seconds,
        normalised seconds) per completed operation."""
        samples = []
        before = speed.kernel_seconds()
        for request, op in enumerate(self.ops):
            if tracer is not None:
                tracer.request = request
            self.attempted += 1
            gc.collect()  # each operation starts without garbage left by the one before
            t0 = time.perf_counter()
            try:
                result = op.run()
            except Exception as exc:  # a failed operation is counted and the run goes on
                self.failed += 1
                self.failures.setdefault(op.name, f"{type(exc).__name__}: {exc}")
                before = speed.kernel_seconds()
                continue
            dt = time.perf_counter() - t0
            after = speed.kernel_seconds()
            samples.append((request, dt, speed.normalised(dt, 0.5 * (before + after))))
            self.kernels.append(after)
            before = after
            if tracer is not None:
                self.cli_bytes += op.bytes_written(result)
            self.problems += op.check(result, first)
        return samples


def measure(workload, seconds: float, trace: bool) -> dict:
    run = Run(workload.ops)
    workload.capture.install()
    try:
        checked = run.round(first=True)
    finally:
        workload.capture.uninstall()
    reference = run.round() if trace else None
    tracer = tracing.Tracer() if trace else None
    if tracer is not None:
        tracer.install()
    rounds = []
    start = time.perf_counter()
    try:
        while not rounds or time.perf_counter() - start < seconds:
            rounds.append(run.round(tracer=tracer))
    finally:
        if tracer is not None:
            tracer.uninstall()

    if trace:
        metrics = tracer.layer_metrics(len(rounds), run.cli_bytes)
        traced = statistics.median(sum(s[2] for s in r) for r in rounds)
        untraced = sum(s[2] for s in reference)
        metrics["trace.overhead_s"] = traced - untraced
        metrics["trace.overhead_pct"] = 100.0 * (traced - untraced) / untraced
        (HERE / "results").mkdir(exist_ok=True)
        tracer.write_spans(HERE / "results" / f"spans_{workload.name}.csv")
    else:
        # each operation's median normalised time over round 0 and the
        # measured rounds; a throughput is its kind's work over their sum
        times = {}
        for index, dt, norm in (s for r in [checked] + rounds for s in r):
            times.setdefault(index, ([], []))
            times[index][0].append(dt)
            times[index][1].append(norm)
        metrics, raw = {}, {}
        for kind, name in RATES.items():
            mine = [(run.ops[i].units, t) for i, t in times.items() if run.ops[i].kind == kind]
            if mine:
                units = sum(u for u, _ in mine)
                metrics[name] = units / sum(statistics.median(norm) for _, (_, norm) in mine)
                raw[name] = units / sum(statistics.median(dt) for _, (dt, _) in mine)
        print(f"raw {json.dumps(raw)} kernel_s {statistics.median(run.kernels)}", file=sys.stderr)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    for name, problem in sorted(run.failures.items()):
        print(f"failed: {name}: {problem}", file=sys.stderr)
    for problem in run.problems[:20]:
        print(f"check: {problem}", file=sys.stderr)
    return {
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
        "rounds": len(rounds),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--launched", type=float, required=True,
                        help="time.monotonic() when the launcher started this process")
    parser.add_argument("--setup-only", action="store_true",
                        help="stop once the inputs are generated (a set-up sample)")
    args = parser.parse_args(argv)

    work = HERE / ".work" / f"{args.workload}-{os.getpid()}"
    try:
        workload = workloads.Workload(args.workload, args.seed, work)
        setup_s = time.monotonic() - args.launched
        # the machine's speed just after set-up, for normalising setup_s
        kernels = [speed.kernel_seconds() for _ in range(SETUP_KERNELS)]
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s, "kernels": kernels}))
            return 0
        result = measure(workload, args.seconds, bool(args.trace))
        result["setup_s"], result["kernels"] = setup_s, kernels
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
