"""The benchmark's checkers must report a failure when an output is wrong.

Run with:  PYTHONPATH=src python -m pytest -q perfbench/test_checks.py
"""
import dataclasses
import math

import numpy as np
import pytest

import checks
import workloads
from lacsim import (ChainConfig, DynamicWindow, ExpGaps, ExponentialWeighting, FiniteWindow,
                    MeasurementField, Ring, SpacingModel, Truncated, UniformGaps, ZeroHalo,
                    k_uniform, monte_carlo_noise, monte_carlo_spacing, oracle,
                    random_space_time_table, random_spatial_table, run, spacing_moments,
                    trace_to_csv)


def _flip_digit(text: str, at: int) -> str:
    """Change the first digit at or after `at` (one byte of the CSV)."""
    while not text[at].isdigit():
        at += 1
    return text[:at] + ("1" if text[at] != "1" else "2") + text[at + 1:]


@pytest.fixture(scope="module")
def window_trace():
    field = MeasurementField(random_space_time_table(12, 6, 3))
    return run(ChainConfig(n=12, boundary=Ring(), rounds=5), field, DynamicWindow(2))


def test_roundtrip_accepts_the_written_csv_and_rejects_one_changed_byte(window_trace):
    text = trace_to_csv(window_trace)
    assert checks.roundtrip_problems(text, window_trace.y, window_trace.z) == []
    for at in (len(text) // 3, len(text) - 5):
        bad = _flip_digit(text, at)
        assert checks.roundtrip_problems(bad, window_trace.y, window_trace.z)


def test_roundtrip_rejects_a_changed_trace_value(window_trace):
    text = trace_to_csv(window_trace)
    y = window_trace.y.copy()
    y[3, 2] = np.nextafter(y[3, 2], np.inf)
    assert checks.roundtrip_problems(text, y, window_trace.z)


def test_parse_rejects_rows_out_of_order(window_trace):
    lines = trace_to_csv(window_trace).split("\n")
    lines[2], lines[3] = lines[3], lines[2]
    with pytest.raises(ValueError):
        checks.parse_trace_csv("\n".join(lines))


def _exp_case(boundary, n=24, rounds=6):
    field = MeasurementField(random_spatial_table(n, 5))
    trace = run(ChainConfig(n=n, boundary=boundary, rounds=rounds), field,
                ExponentialWeighting(0.8))
    return field, trace


def test_oracle_agreement_rejects_one_perturbed_trace_value():
    field, trace = _exp_case(ZeroHalo())
    points = [(i, k) for i in range(24) for k in range(7)]
    expected = [oracle.exp_target(field, i, 0.8, n=24, boundary=ZeroHalo(), k=k)
                for i, k in points]
    values = [trace.y[i, k] for i, k in points]
    assert checks.agreement_problems(values, expected, points.__getitem__) == []
    values[40] += 1e-9
    assert checks.agreement_problems(values, expected, points.__getitem__)


def test_truncated_interior_matches_the_zero_extended_line_and_rejects_a_perturbation():
    field, trace = _exp_case(Truncated())
    rng = np.random.default_rng(0)
    points = checks.interior_points(24, 6, 30, rng)
    assert all(k < i < 23 - k for i, k in points)
    expected = [oracle.exp_target(field, i, 0.8, n=24, boundary=ZeroHalo(), k=k)
                for i, k in points]
    values = [trace.y[i, k] for i, k in points]
    assert checks.agreement_problems(values, expected, points.__getitem__) == []
    values[0] -= 1e-9
    assert checks.agreement_problems(values, expected, points.__getitem__)


def test_oracle_case_check_rejects_one_perturbed_trace_value():
    rules = workloads.standard_rules(workloads.criterion_widths(64),
                                     workloads.WeightTable.geometric(0.6, 20, 64))
    case = workloads.OracleCase("exponential ring", rules[0],
                                MeasurementField(random_spatial_table(64, 1)), 64, 10, "ring")
    y, expected = case.run()
    assert case.check((y, expected), first=True) == []
    y = y.copy()
    y[7, 9] *= 1.0 + 1e-8
    assert case.check((y, expected), first=True)


def test_simulate_case_check_rejects_one_changed_csv_byte(tmp_path):
    n, rounds = 16, 4
    rng = np.random.default_rng(2)
    field = workloads.write_static_table(tmp_path / "static.csv", rng.uniform(-1, 1, n))
    rule = workloads.standard_rules(workloads.criterion_widths(n),
                                    workloads.WeightTable.geometric(0.6, 3, n))[2]  # window
    ini = tmp_path / "case.ini"
    workloads.write_ini(ini, {"chain": {"n": n, "boundary": "zero_halo", "rounds": rounds},
                              "field": {"kind": "table", "csv": "static.csv"},
                              "algorithm": {"variant": "window"}, "output": {"prefix": "case"}})
    capture = workloads.Capture()
    case = workloads.SimCase("case", ini, tmp_path / "out", rule, field, n, rounds,
                             "zero_halo", capture, rng)
    capture.install()
    try:
        result = case.run()
    finally:
        capture.uninstall()
    assert case.check(result, first=True) == []
    assert case.check((result[0], None), first=False) == []
    csv_path = case.csv_path(result[0])
    csv_path.write_text(_flip_digit(csv_path.read_text(), 200))
    assert case.check((result[0], None), first=False)
    assert case.check(result, first=True)


def test_bytes_check_rejects_one_changed_byte():
    data = b"round,sensor,y\n0,0,0.25\n"
    assert checks.bytes_problems(data, data, "rerun") == []
    assert checks.bytes_problems(data, data.replace(b"25", b"26"), "rerun")
    assert checks.bytes_problems(data, data[:-1], "rerun")


@pytest.mark.parametrize("target,param,spec", [
    ("exponential", 0.8, ExponentialWeighting(0.8)),
    ("window", 5, FiniteWindow(5)),
])
def test_noise_check_accepts_the_program_and_rejects_a_wrong_variance(target, param, spec):
    report = monte_carlo_noise(spec, 1.0, 2000, 9)
    assert checks.noise_problems(report, target, param, 1.0) == []
    wrong = dataclasses.replace(report, sampled_variance=report.sampled_variance * 1.3)
    assert checks.noise_problems(wrong, target, param, 1.0)


def test_spacing_closed_forms_agree_with_the_program_where_it_has_them():
    k, var, mu4 = checks.spacing_closed_form("exp_density", 0.5)
    assert math.isclose(var, spacing_moments(0.5).var_y, rel_tol=1e-12)
    assert mu4 > var * var
    k, var, _ = checks.spacing_closed_form("uniform", 0.5, 0.3)
    assert math.isclose(k, k_uniform(0.5, 0.3), rel_tol=1e-12)


@pytest.mark.parametrize("law,eta,model", [
    ("exp_density", None, ExpGaps()),
    ("uniform", 0.3, UniformGaps(0.3)),
])
def test_spacing_check_accepts_the_program_and_rejects_a_wrong_variance(law, eta, model):
    report = monte_carlo_spacing(0.5, SpacingModel(model, 4), 2000)
    assert checks.spacing_problems(report, law, 0.5, eta) == []
    wrong = dataclasses.replace(report, var_sampled=report.var_sampled * 1.5)
    assert checks.spacing_problems(wrong, law, 0.5, eta)
    shifted = dataclasses.replace(report, mean=report.mean + 10 * report.mean_se)
    assert checks.spacing_problems(shifted, law, 0.5, eta)
