#!/usr/bin/env python3
"""Time the engine, the trace writer, the Monte Carlo drivers and the oracle: BENCH_<label>.json.

    python3 scripts/bench.py --label mine

Seven layers are measured, the engine on SpatialCosine(1.0, 0.3) +
TemporalCosine(0.5, 0.2), its evaluation included:

  long_chain    one `lacsim.run` a process: the wall time, ns per
                sensor-round, the process's peak RSS and the trace's MiB of
                the exponential rule (rho = 0.8) on a ring at n = 250,000,
                R = 200 and at n = 2^20, R = 100, of the dynamic exponential
                (rho = 0.8) on the first ring, with and without seeded
                Gaussian noise (sigma 1.0), and of banded weights on a drawn
                chain of 2^14 sensors (truncated, R = 80);
  run_per_rule  ns per sensor-round of a whole `run` of each of the seven
                rules on ring, zero_halo and truncated at n = 64, 1024 and
                65536, R = 40 (25 at 65536);
  trace_to_csv  ns per written value of six traces, three of which repeat
                rows that the writer copies rather than formats;
  monte_carlo   us per replicate of the benchmark's five `monte-carlo` cases,
                10,000 replicates a call, and of uniform gaps at eta = 0.999
                (2 g = 79,732 gaps, over a block), 1,000, the peak of one more
                call traced by `tracemalloc` and a noise case's relative
                distance from its closed form;
  oracle_rows   us per `oracle.rows(algo, field, 64, boundary, range(41))`
                of each of criterion 1's seven rules (its parameters, its
                seed-11 fields) on ring and zero_halo;
  oracle_sweep  ns per point of criterion 1's scalar check of the same
                cases: every k = 0..40 of sensor 0, then of sensor 1, ...,
                through the rule's target (`exp_target`, ...), each call on
                a fresh field object and so a new case of the target's memo;
  oracle_long_row  the wall time and the peak that `tracemalloc` sees of
                one `oracle.rows(DynamicExponential(0.8), ...)` row on a ring
                of 64 sensors at k = 1,000 and 3,000, the field's grid read
                inside the call.

Beside each time are the minor page faults (`ru_minflt`) per call, in each of
a layer's modes:

  cold          the first call in a fresh process: the median over
                PROCESSES (9) processes (trace_to_csv, monte_carlo,
                long_chain and oracle_long_row);
  warm          the calls after a first, untimed one: the best of REPEAT (10)
                calls in each of PROCESSES fresh processes, the best of those
                and their median (all but long_chain and oracle_long_row);
  warm_4mib     the same, after 4 MiB allocated and freed before each call,
                which raises glibc's mmap threshold past every block
                temporary (trace_to_csv and monte_carlo).

Each case and mode has processes of its own, which import `lacsim` from this
checkout's `src`, build their input and then call the layer; the processes go
round the layers, cases and modes in turn.  The file also holds the Python and
numpy versions, the commit, the CPU count and the SHA-256 of this script:
figures compare only between files with the same hash.  `--toy` shrinks every
input (the oracle's to k = 0..4 and a long row at k = 50), runs 1,000
replicates a Monte Carlo call and one call a mode, and takes all of a layer's
cases for one mode in one process: it only checks the file.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
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

# engine case -> (rule, boundary, n, rounds, noise sigma); every --toy case
# has n = 64 and at most 4 rounds
LONG_CASES = {
    "exponential_ring_n250000_r200": ("exponential", "ring", 250_000, 200, 0.0),
    "dyn_exponential_ring_n250000_r200": ("dyn_exponential", "ring", 250_000, 200, 0.0),
    "dyn_exponential_ring_n250000_r200_noise1": ("dyn_exponential", "ring", 250_000, 200, 1.0),
    "exponential_ring_n1048576_r100": ("exponential", "ring", 1 << 20, 100, 0.0),
    "banded_drawn_truncated_n16384_r80": ("banded_drawn", "truncated", 1 << 14, 80, 0.0),
}
RULES = ("exponential", "asymmetric", "window", "variable_window", "arbitrary",
         "dyn_exponential", "dyn_window")
RULE_CASES = {f"{rule}_{boundary}_n{n}": (rule, boundary, n, 25 if n == 65536 else 40, 0.0)
              for rule in RULES for boundary in ("ring", "zero_halo", "truncated")
              for n in (64, 1024, 65536)}
# writer case -> (rule, field, boundary, n, rounds)
CASES = {
    "exponential_ring_n64_r12": ("exponential", "table", "ring", 64, 12),
    "exponential_ring_n1024_r12": ("exponential", "table", "ring", 1024, 12),
    "exponential_ring_n65536_r3": ("exponential", "table", "ring", 65536, 3),
    "dyn_window3_zero_halo_n512_r24": ("dyn_window", "temporal_cosine", "zero_halo", 512, 24),
    "window5_ring_n1024_r40": ("window", "table", "ring", 1024, 40),
    "constant_exponential_ring_n1024_r12": ("exponential", "constant", "ring", 1024, 12),
}
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
# oracle case -> (rule, boundary): criterion 1's rules at n = 64, k = 0..40
ORACLE_CASES = {f"{rule}_{boundary}_n64": (rule, boundary) for rule in RULES
                for boundary in ("ring", "zero_halo")}
# long oracle row -> k of one dynamic exponential row on a ring of 64 (--toy: 50)
LONG_ROW_CASES = {"dyn_exponential_ring_n64_k1000": 1000, "dyn_exponential_ring_n64_k3000": 3000}
MODES = ("cold", "warm", "warm_4mib")
# layer -> (its cases, the key of its time per unit, its modes); one long chain
# a process, so that the process's peak RSS is the run's
LAYERS = {"trace_to_csv": (CASES, "ns_per_value", MODES),
          "monte_carlo": (MC_CASES, "us_per_replicate", MODES),
          "long_chain": (LONG_CASES, "ns_per_sensor_round", ("cold",)),
          "run_per_rule": (RULE_CASES, "ns_per_sensor_round", ("warm",)),
          "oracle_rows": (ORACLE_CASES, "us_per_call", ("warm",)),
          "oracle_sweep": (ORACLE_CASES, "ns_per_point", ("warm",)),
          "oracle_long_row": (LONG_ROW_CASES, "wall_s", ("cold",))}
PRIMER_BYTES = 4 << 20
REPEAT = 10  # warm calls per process
PROCESSES = 9  # fresh processes per case and mode


def _engine(rule: str, boundary: str, n: int, rounds: int, sigma: float):
    """A call of one `run` of `rule` on the cosine field."""
    from lacsim import (AsymmetricWeighting, BandedWeighting, ChainConfig, DynamicExponential,
                        DynamicWindow, ExpGaps, ExponentialWeighting, FiniteWindow,
                        MeasurementField, Noise, PerSensorWindow, Ring, SpacingModel,
                        SpatialCosine, SumField, TemporalCosine, Truncated, WeightTable, ZeroHalo,
                        run, sample_spacings, table_from_draw)

    algo = {
        "exponential": lambda: ExponentialWeighting(0.8),
        "asymmetric": lambda: AsymmetricWeighting(0.5, 0.25),
        "window": lambda: FiniteWindow(5),
        # half-widths 3..6 by the distance to the nearer end, so neighbours
        # (the ring's wrap pair included) differ by at most one
        "variable_window": lambda: PerSensorWindow(
            tuple(3 + abs(min(i, n - 1 - i) % 6 - 3) for i in range(n))),
        "arbitrary": lambda: BandedWeighting(WeightTable.geometric(0.8, 12, n)),
        "dyn_exponential": lambda: DynamicExponential(0.8),
        "dyn_window": lambda: DynamicWindow(3),
        # a spaced chain: e^{-d} gaps (seed 0) give the weights 0.5^d to R hops
        "banded_drawn": lambda: BandedWeighting(table_from_draw(
            sample_spacings(SpacingModel(ExpGaps(), 0), n - 1), 0.5, rounds)),
    }[rule]()
    config = ChainConfig(n=n, rounds=rounds, boundary={
        "ring": Ring, "zero_halo": ZeroHalo, "truncated": Truncated}[boundary]())
    field = MeasurementField(SumField((SpatialCosine(1.0, 0.3), TemporalCosine(0.5, 0.2))),
                             noise=Noise(sigma) if sigma else None)
    return lambda: run(config, field, algo)


def _trace(case: str, toy: bool):
    import numpy as np

    from lacsim import (ChainConfig, Constant, DynamicWindow, ExponentialWeighting, FiniteWindow,
                        MeasurementField, Ring, TableField, TemporalCosine, ZeroHalo, run)

    rule, kind, boundary, n, rounds = CASES[case]
    if toy:
        n, rounds = 64, min(rounds, 4)
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
    """The call of Monte Carlo `case`, its replicate count and, for noise, the
    closed form of the variance it samples."""
    from lacsim import (ExpGaps, ExponentialWeighting, FiniteWindow, GlobalAverage,
                        SpacingModel, UniformGaps, monte_carlo_noise, monte_carlo_spacing,
                        noise_var_exp, noise_var_global, noise_var_window)

    driver, kind, param, replicates = MC_CASES[case]
    replicates = 1000 if toy else replicates
    if driver == "noise":
        target, closed = {"exponential": (ExponentialWeighting, noise_var_exp),
                          "window": (FiniteWindow, noise_var_window),
                          "global": (GlobalAverage, noise_var_global)}[kind]
        return (lambda: monte_carlo_noise(target(param), 1.0, replicates, MC_SEED),
                replicates, closed(param))
    model = SpacingModel(ExpGaps() if kind == "exp" else UniformGaps(param), MC_SEED)
    return (lambda: monte_carlo_spacing(0.5, model, replicates)), replicates, None


def _oracle(case: str, toy: bool):
    """The `rows` call and the scalar sweep of oracle case `case`, and its points."""
    from lacsim import (AsymmetricWeighting, BandedWeighting, DynamicExponential, DynamicWindow,
                        ExponentialWeighting, FiniteWindow, MeasurementField, PerSensorWindow,
                        Ring, WeightTable, ZeroHalo, oracle, random_space_time_table,
                        random_spatial_table)

    rule, boundary = ORACLE_CASES[case]
    n, rounds = 64, 4 if toy else 40
    b = Ring() if boundary == "ring" else ZeroHalo()
    widths = (4, 4, 5, 5, 6, 6, 6, 6, 5, 5, 4, 4, 4, 4, 4, 4) * 4
    table = WeightTable.geometric(0.6, 20, n)
    algo, target = {
        "exponential": (ExponentialWeighting(0.8), lambda f, i, k: oracle.exp_target(
            f, i, 0.8, n=n, boundary=b, k=k)),
        "asymmetric": (AsymmetricWeighting(0.5, 0.25), lambda f, i, k: oracle.asym_target(
            f, i, 0.5, 0.25, n=n, boundary=b, k=k)),
        "window": (FiniteWindow(5), lambda f, i, k: oracle.window_target(
            f, i, 5, n=n, boundary=b, k=k)),
        "variable_window": (PerSensorWindow(widths), lambda f, i, k: oracle.variable_window_target(
            f, i, widths, n=n, boundary=b, k=k)),
        "arbitrary": (BandedWeighting(table), lambda f, i, k: oracle.arbitrary_target(
            f, i, table, k, n=n, boundary=b)),
        "dyn_exponential": (DynamicExponential(0.8), lambda f, i, k: oracle.dyn_exp_target(
            f, i, k, 0.8, n=n, boundary=b)),
        "dyn_window": (DynamicWindow(3), lambda f, i, k: oracle.dyn_window_target(
            f, i, k, 3, n=n, boundary=b)),
    }[rule]
    kind = (random_space_time_table(n, rounds + 1, 111) if rule.startswith("dyn")
            else random_spatial_table(n, 11))

    def sweep():
        field = MeasurementField(kind)
        return [[target(field, i, k) for k in range(rounds + 1)] for i in range(n)]
    return (lambda: oracle.rows(algo, MeasurementField(kind), n, b, range(rounds + 1)), sweep,
            n * (rounds + 1))


def _long_row(case: str, toy: bool):
    """The call of one long dynamic exponential row, its field built beforehand."""
    from lacsim import DynamicExponential, MeasurementField, Ring, oracle, random_space_time_table

    k = 50 if toy else LONG_ROW_CASES[case]
    field = MeasurementField(random_space_time_table(64, k + 1, 5))
    return lambda: oracle.rows(DynamicExponential(0.8), field, 64, Ring(), k)


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
    """Time `case` of `layer` in this process, as `mode` says: its sizes, [(time per unit,
    faults)] of each timed call and, under "process", the process's figures (a traced
    peak of one more call; a long chain's wall time and peak RSS)."""
    if layer == "monte_carlo":
        call, replicates, closed = _monte_carlo(case, toy)
        report, calls = _timed_calls(call, mode, toy, lambda report: report)
        result = {"replicates": replicates, "process": {"traced_peak_bytes": _traced_peak(call)},
                  "calls": [(ns / 1000 / replicates, faults) for ns, faults in calls]}
        if closed:  # so that a timed call that samples the wrong variance shows
            result["rel_err"] = abs(report.sampled_variance - closed) / closed
        return result
    if layer == "trace_to_csv":
        from lacsim import trace_to_csv

        trace = _trace(case, toy)
        values = trace.y.size + (trace.z.size if trace.z is not None else 0)
        size, calls = _timed_calls(lambda: trace_to_csv(trace), mode, toy, len)
        return {"values": values, "bytes": size,
                "calls": [(ns / values, faults) for ns, faults in calls]}
    if layer == "oracle_long_row":
        call = _long_row(case, toy)
        _, calls = _timed_calls(call, mode, toy, len)
        return {"calls": [(ns / 1e9, faults) for ns, faults in calls],
                "process": {"traced_peak_bytes": _traced_peak(call)}}
    if layer in ("oracle_rows", "oracle_sweep"):
        rows, sweep, points = _oracle(case, toy)
        if layer == "oracle_rows":
            _, calls = _timed_calls(rows, mode, toy, len)
            return {"calls": [(ns / 1000, faults) for ns, faults in calls]}
        _, calls = _timed_calls(sweep, mode, toy, len)
        return {"points": points, "calls": [(ns / points, faults) for ns, faults in calls]}
    rule, boundary, n, rounds, sigma = LAYERS[layer][0][case]
    if toy:
        n, rounds = 64, min(rounds, 4)
    sensor_rounds = n * (rounds + 1)
    mib, calls = _timed_calls(_engine(rule, boundary, n, rounds, sigma), mode, toy,
                              lambda trace: trace.y.nbytes / 2 ** 20)
    result = {"sensor_rounds": sensor_rounds,
              "calls": [(ns / sensor_rounds, faults) for ns, faults in calls]}
    if layer == "long_chain":
        result["trace_mib"] = mib
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
        result["process"] = {"wall_s": calls[0][0] / 1e9, "peak_rss_mib": peak_kib / 1024}
    return result


def _run_child(layer: str, mode: str, cases, toy: bool) -> dict:
    args = [sys.executable, str(Path(__file__).resolve()), "--child", layer, mode, *cases] + (
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

    # round-robin over layers, cases and modes, so that a slow spell of the
    # host falls on one process of each rather than on every process of one;
    # under --toy one process takes all of a layer's cases for one mode
    runs = {(layer, mode, group): [] for layer, (cases, _, modes) in LAYERS.items()
            for group in ([tuple(cases)] if toy else [(case,) for case in cases])
            for mode in modes}
    for _ in range(1 if toy else PROCESSES):
        for key, results in runs.items():
            results.append(_run_child(*key, toy))
    report = {layer: {} for layer in LAYERS}
    for (layer, mode, cases), children in runs.items():
        _, time_key, _ = LAYERS[layer]
        for case in cases:
            results = [result[case] for result in children]
            entry = report[layer].setdefault(case, {
                key: value for key, value in results[0].items()
                if key not in ("calls", "process")})
            calls = [call for result in results for call in result["calls"]]
            best = [min(t for t, _ in result["calls"]) for result in results]
            entry[mode] = {
                time_key: statistics.median(best) if mode == "cold" else min(best),
                "minflt": statistics.median(faults for _, faults in calls),
                "runs": best,
            }
            if mode != "cold":
                entry[mode][f"{time_key}_median"] = statistics.median(best)
            for key in results[0].get("process", ()):
                entry[mode][key] = statistics.median(result["process"][key]
                                                     for result in results)
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        **_commit(),
        "script_sha256": hashlib.sha256(Path(__file__).read_bytes()).hexdigest(),
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
                        help="tiny inputs, one call a mode, one process a layer and mode")
    parser.add_argument("--child", nargs="+", help=argparse.SUPPRESS)  # LAYER MODE CASE...
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    if args.child:
        layer, mode, *cases = args.child
        print(json.dumps({case: child(layer, case, mode, args.toy) for case in cases}))
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
