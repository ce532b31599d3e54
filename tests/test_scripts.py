"""The example scripts run end to end on small inputs."""
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script, args", [
    ("noise_and_spacing.py", ["--replicates", "1000"]),
    ("scale_run.py", ["--n", "1024", "--rounds", "5"]),
    ("scale_run.py", ["--rule", "dyn_exponential", "--n", "1024", "--rounds", "5",
                      "--noise-sigma", "0.3"]),
    ("scale_run.py", ["--rule", "dyn_window", "--half-width", "20", "--n", "256", "--rounds", "30",
                      "--repeat", "2"]),
])
def test_script_exits_zero(script, args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, str(ROOT / "scripts" / script)] + args,
                            env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout


def _bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs",
                                                  ROOT / "scripts" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _result(rate, setup, correct=True, failed=0):
    return {"correct": correct, "attempted": 10, "failed": failed, "metrics": {
        "rate": {"value": rate, "unit": "1/s"}, "setup_s": {"value": setup, "unit": "s"}}}


_SPEC = {"end_to_end": [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "absent", "unit": "s", "better": "lower", "bound": 0.25}]}


def test_bench_pairs_summary_of_fixed_results():
    pairs = [
        (7, {"parent": _result(100.0, 0.5), "change": _result(110.0, 0.5)}),  # a setup tie
        (8, {"parent": _result(104.0, 0.6), "change": _result(102.0, 0.4)}),
        (9, {"parent": _result(96.0, 0.4), "change": _result(120.0, 0.3)}),
        (10, {"parent": _result(98.0, 0.5), "change": None}),
        (11, {"parent": _result(1.0, 9.0, correct=False), "change": _result(130.0, 0.2)}),
        (12, {"parent": _result(102.0, 0.5, failed=1), "change": _result(100.0, 0.6)}),
    ]
    assert _bench_pairs().summarize(_SPEC, "simulate", pairs) == [
        "simulate: 6 pairs, seeds 7, 8, 9, 10, 11, 12",
        "  setup_s (lower is better, s)",
        "    parent 0.5 [0.5, 0.5]",
        "    change 0.4 [0.3, 0.5]",
        "    change -20.0 %, better in 2 of 6 pairs",
        "  rate (higher is better, 1/s)",
        "    parent 100 [98, 102]",
        "    change 110 [102, 120]",
        "    change +10.0 %, better in 2 of 6 pairs",
        "  parent incorrect runs: seeds 11",
        "  parent runs with failed operations: seeds 12",
        "  change failed runs: seeds 10",
    ]


def test_bench_pairs_alternates_the_side_that_runs_first():
    calls = []

    def run(checkout, workload, seed, seconds):
        calls.append((checkout, seed))
        return _result(float(seed), seconds)

    module = _bench_pairs()
    pairs = module.run_pairs({"parent": "P", "change": "C"}, "simulate", [3, 4, 5], 12, run)
    assert calls == [("P", 3), ("C", 3), ("C", 4), ("P", 4), ("P", 5), ("C", 5)]
    assert [seed for seed, _ in pairs] == [3, 4, 5]
    assert pairs[1][1]["parent"]["metrics"]["setup_s"]["value"] == 12
