"""lacsim benchmark launcher.

    python3 perfbench/run.py --workload simulate --seed 1 --seconds 12 --trace 0

Runs from the root of a source checkout (it needs `src/lacsim`).  Each run
starts a fresh worker process with BLAS/OpenMP thread counts set to 1.  With
`--trace 0` it starts SETUP_SAMPLES set-up-only workers before the measuring
worker and as many after it, and reports the median set-up time over all of
them, normalised by the machine speed they measured, plus every end-to-end
metric; with `--trace 1` it reports the per-layer metrics.  The last line
on stdout is one JSON object: correct, attempted, failed, metrics.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 8  # set-up-only workers before the measuring worker, and again after it
DEADLINE_S = 170.0  # the whole run, set-up samples included
SINGLE_THREAD = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")


def _env() -> dict:
    env = dict(os.environ)
    env.update({name: "1" for name in SINGLE_THREAD})
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def _worker(args, extra: list[str], deadline: float) -> dict:
    """Start one worker and return its result line; raise on failure."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--launched", repr(time.monotonic())] + extra
    proc = subprocess.run(cmd, env=_env(), cwd=ROOT, stdout=subprocess.PIPE,
                          timeout=max(deadline - time.monotonic(), 1.0), check=False)
    lines = proc.stdout.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited {proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="lacsim benchmark")
    parser.add_argument("--workload", required=True, help="a name from BENCHMARK.json")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "lacsim" / "__init__.py").is_file():
        print(f"error: no lacsim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    try:
        samples = 0 if args.trace else SETUP_SAMPLES
        setups = [_worker(args, ["--setup-only"], deadline) for _ in range(samples)]
        result = _worker(args, [], deadline)
        setups.append(result)
        setups += [_worker(args, ["--setup-only"], deadline) for _ in range(samples)]
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {args.workload} seed {args.seed}: {exc}", file=sys.stderr)
        return 1
    metrics = result["metrics"]
    if not args.trace:
        # the median set-up time, normalised by the median of every worker's
        # kernel timings: a single 0.2-0.6 s set-up is too short to pair with
        # its own few kernel timings, but over a run the two medians track
        # the same machine speed (see README.md)
        kernel_s = statistics.median(k for s in setups for k in s["kernels"])
        setup_s = statistics.median(s["setup_s"] for s in setups)
        metrics["setup_s"] = {"value": speed.normalised(setup_s, kernel_s), "unit": "s"}
    print(f"{args.workload} seed {args.seed}: {result['rounds']} measured rounds",
          file=sys.stderr)
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
