"""The example scripts run end to end on small inputs."""
import hashlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]


def _script(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bench_pairs():
    return _script("bench_pairs")


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
        "    change -20.0 %, better in 2 of 4 pairs",
        "  rate (higher is better, 1/s)",
        "    parent 100 [98, 102]",
        "    change 110 [102, 120]",
        "    change +10.0 %, better in 2 of 4 pairs",
        "  parent incorrect runs: seeds 11",
        "  parent runs with failed operations: seeds 12",
        "  change failed runs: seeds 10",
    ]


_STDERR = """\
simulate seed 7: 12 measured rounds
raw {"x_per_s": %s, "y_per_s": 3.0} kernel_s %s
check: a problem
"""


def test_bench_pairs_reports_raw_throughputs_and_kernel_times_from_stderr():
    module = _bench_pairs()
    assert module.raw_figures(_STDERR % (120.0, 0.004)) == {
        "raw": {"x_per_s": 120.0, "y_per_s": 3.0, "kernel_s": 0.004}}
    assert module.raw_figures("simulate seed 7: 12 measured rounds\n") == {}
    spec = {"end_to_end": [
        {"name": "x_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}]}

    def result(rate, raw, kernel, correct=True):
        return {"correct": correct, "attempted": 10, "failed": 0,
                "metrics": {"x_per_s": {"value": rate, "unit": "1/s"}},
                **module.raw_figures(_STDERR % (raw, kernel))}

    pairs = [
        (7, {"parent": result(100.0, 90.0, 0.005), "change": result(95.0, 99.0, 0.004)}),
        (8, {"parent": result(104.0, 80.0, 0.006), "change": result(98.0, 88.0, 0.005)}),
        (9, {"parent": result(1.0, 1.0, 1.0, correct=False), "change": result(97.0, 95.0, 0.004)}),
    ]
    # normalised, the change reads lower; raw, it reads higher, and the
    # reference kernel ran faster beside it
    assert module.summarize(spec, "simulate", pairs) == [
        "simulate: 3 pairs, seeds 7, 8, 9",
        "  x_per_s (higher is better, 1/s)",
        "    parent 102 [101, 103]",
        "    change 97 [96, 97.5]",
        "    change -4.9 %, better in 0 of 2 pairs",
        "  raw medians, before normalisation by the reference kernel",
        "    x_per_s: parent 85, change 95, change +11.8 %",
        "    kernel_s: parent 0.0055, change 0.004, change -27.3 %",
        "  parent incorrect runs: seeds 9",
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


def test_bench_writes_its_file_with_every_case_and_mode(tmp_path):
    result = subprocess.run([sys.executable, str(ROOT / "scripts" / "bench.py"), "--label", "toy",
                             "--out", str(tmp_path), "--toy"],
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    report = json.loads((tmp_path / "BENCH_toy.json").read_text())
    assert {"label", "python", "numpy", "commit", "cpu_count", "trace_to_csv",
            "monte_carlo", "long_chain", "run_per_rule", "oracle_rows", "oracle_sweep",
            "oracle_long_row"} <= set(report)
    assert report["script_sha256"] == hashlib.sha256(
        (ROOT / "scripts" / "bench.py").read_bytes()).hexdigest()
    cases = report["trace_to_csv"]
    assert set(cases) == {"exponential_ring_n64_r12", "exponential_ring_n1024_r12",
                          "exponential_ring_n65536_r3", "dyn_window3_zero_halo_n512_r24",
                          "window5_ring_n1024_r40", "constant_exponential_ring_n1024_r12"}
    for case in cases.values():
        assert case["values"] > 0 and case["bytes"] > 0
        for mode in ("cold", "warm", "warm_4mib"):
            assert case[mode]["ns_per_value"] > 0 and case[mode]["minflt"] >= 0
        for mode in ("warm", "warm_4mib"):
            assert case[mode]["ns_per_value_median"] >= case[mode]["ns_per_value"]
    cases = report["monte_carlo"]
    assert set(cases) == {"noise_exponential_0.8", "noise_window_5", "noise_global_100",
                          "spacing_exp_rho0.5", "spacing_uniform0.3_rho0.5",
                          "spacing_uniform0.999_rho0.5"}
    for name, case in cases.items():
        assert case["replicates"] == 1000
        assert (case["rel_err"] >= 0) if name.startswith("noise") else "rel_err" not in case
        for mode in ("cold", "warm", "warm_4mib"):
            assert case[mode]["us_per_replicate"] > 0 and case[mode]["minflt"] >= 0
            assert case[mode]["traced_peak_bytes"] > 0
        for mode in ("warm", "warm_4mib"):
            assert case[mode]["us_per_replicate_median"] >= case[mode]["us_per_replicate"]
    cases = report["long_chain"]
    assert set(cases) == {"exponential_ring_n250000_r200", "dyn_exponential_ring_n250000_r200",
                          "dyn_exponential_ring_n250000_r200_noise1",
                          "exponential_ring_n1048576_r100", "banded_drawn_truncated_n16384_r80"}
    for case in cases.values():
        assert case["sensor_rounds"] > 0 and case["trace_mib"] > 0
        assert set(case) == {"sensor_rounds", "trace_mib", "cold"}
        assert case["cold"]["ns_per_sensor_round"] > 0 and case["cold"]["minflt"] >= 0
        assert case["cold"]["wall_s"] > 0 and case["cold"]["peak_rss_mib"] > 0
    cases = report["run_per_rule"]
    assert set(cases) == {f"{rule}_{boundary}_n{n}" for rule in (
        "exponential", "asymmetric", "window", "variable_window", "arbitrary", "dyn_exponential",
        "dyn_window") for boundary in ("ring", "zero_halo", "truncated") for n in (64, 1024, 65536)}
    for case in cases.values():
        assert case["sensor_rounds"] > 0 and set(case) == {"sensor_rounds", "warm"}
        assert case["warm"]["ns_per_sensor_round"] > 0 and case["warm"]["minflt"] >= 0
        assert case["warm"]["ns_per_sensor_round_median"] >= case["warm"]["ns_per_sensor_round"]
    for layer, key, extra in (("oracle_rows", "us_per_call", set()),
                              ("oracle_sweep", "ns_per_point", {"points"})):
        cases = report[layer]
        assert set(cases) == {f"{rule}_{boundary}_n64" for rule in (
            "exponential", "asymmetric", "window", "variable_window", "arbitrary",
            "dyn_exponential", "dyn_window") for boundary in ("ring", "zero_halo")}
        for case in cases.values():
            assert set(case) == {"warm"} | extra and case.get("points", 64 * 5) == 64 * 5
            assert case["warm"][key] > 0 and case["warm"]["minflt"] >= 0
            assert case["warm"][f"{key}_median"] >= case["warm"][key]
    cases = report["oracle_long_row"]
    assert set(cases) == {"dyn_exponential_ring_n64_k1000", "dyn_exponential_ring_n64_k3000"}
    for case in cases.values():
        assert set(case) == {"cold"} and case["cold"]["wall_s"] > 0
        assert case["cold"]["minflt"] >= 0 and case["cold"]["traced_peak_bytes"] > 0


@pytest.mark.parametrize("case", ["exponential_ring_n250000_r200",
                                  "dyn_exponential_ring_n250000_r200",
                                  "dyn_exponential_ring_n250000_r200_noise1",
                                  "exponential_ring_n1048576_r100",
                                  "banded_drawn_truncated_n16384_r80"])
def test_bench_long_chain_child_reports_the_run_it_times(case):
    """A long chain's figures are those of its one run: n (R + 1) sensor-rounds,
    a trace of 8 bytes each and a time per sensor-round that is its wall time
    spread over them."""
    bench = _script("bench")
    _, _, _, rounds, _ = bench.LONG_CASES[case]
    sensor_rounds = 64 * (min(rounds, 4) + 1)  # the --toy chain
    result = bench.child("long_chain", case, "cold", True)
    assert result["sensor_rounds"] == sensor_rounds
    assert result["trace_mib"] == 8 * sensor_rounds / 2 ** 20
    [(ns, faults)] = result["calls"]
    assert ns * sensor_rounds == pytest.approx(result["process"]["wall_s"] * 1e9)
    assert faults >= 0 and result["process"]["peak_rss_mib"] > 0


def test_bench_noise_case_runs_the_seeded_noise_it_names():
    """The noisy long chain times a run whose field carries seeded noise: the
    same trace on every call, and not the noiseless one."""
    bench = _script("bench")
    noisy = bench._engine("dyn_exponential", "ring", 64, 4, 1.0)
    first, again = noisy().y, noisy().y
    clean = bench._engine("dyn_exponential", "ring", 64, 4, 0.0)().y
    assert np.array_equal(first, again)
    assert not np.allclose(first, clean)
