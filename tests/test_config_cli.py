import json
import math
from pathlib import Path

import numpy as np
import pytest

from lacsim import ValidationError, WeightTable, h_exp, k_temporal_exp, k_temporal_window
from lacsim.cli import main
from lacsim.config import config_to_ini, merge_settings, read_ini, resolve
from lacsim.figures import OMEGA_FULL, OMEGA_ORIGIN, RHO_GRID, WINDOW_GRID


def _resolve(text, command="simulate", overrides=(), **kwargs):
    raw = merge_settings(read_ini(text), list(overrides))
    return resolve(raw, command, Path.cwd(), **kwargs)


def test_defaults_round_trip():
    exp = _resolve("")
    assert exp.chain.n == 64 and exp.chain.rounds == 40
    assert exp.resolved["algorithm"]["variant"] == "exponential"
    assert exp.resolved["algorithm"]["rho"] == "0.8"
    ini = config_to_ini(exp.resolved)
    again = _resolve(ini)
    assert again.resolved == exp.resolved


def test_unknown_section_and_key_rejected():
    with pytest.raises(ValidationError):
        _resolve("[nonsense]\na = 1\n")
    with pytest.raises(ValidationError):
        _resolve("[chain]\nn = 8\nbogus = 1\n")


def test_inapplicable_key_rejected():
    with pytest.raises(ValidationError):
        _resolve("[algorithm]\nvariant = window\nL = 3\nrho = 0.5\n")
    with pytest.raises(ValidationError):
        _resolve("[field]\nkind = constant\namplitude = 2\n")
    with pytest.raises(ValidationError):
        _resolve("[chain]\nboundary = ring\nhalo_depth = 5\n")


def test_spec_style_overrides():
    exp = _resolve("", overrides=["algorithm.variant=window", "algorithm.L=5",
                                  "chain.n=64"])
    from lacsim import FiniteWindow
    assert isinstance(exp.algorithm, FiniteWindow)
    assert exp.algorithm.half_width == 5


def test_variant_parameter_requirements():
    with pytest.raises(ValidationError):
        _resolve("[algorithm]\nvariant = asymmetric\nrho_b = 0.5\n")
    with pytest.raises(ValidationError):
        _resolve("[algorithm]\nvariant = dyn_window\n")
    exp = _resolve("[algorithm]\nvariant = variable_window\nlengths = 2,2,3\n"
                   "[chain]\nn = 3\nboundary = zero_halo\nrounds = 2\n")
    assert exp.algorithm.half_widths == (2, 2, 3)


def test_sum_field_sections():
    text = """
[field]
kind = sum
components = base, ripple

[field.base]
kind = constant
value = 2.0

[field.ripple]
kind = spatial_cosine
amplitude = 0.5
omega = 0.3
"""
    exp = _resolve(text)
    assert exp.field.kind.at(0, 0) == pytest.approx(2.5)
    assert "field.base" in exp.resolved


def test_stochastic_runs_require_seed():
    with pytest.raises(ValidationError):
        _resolve("[field]\nnoise_sigma = 1.0\n")
    ok = _resolve("[field]\nnoise_sigma = 1.0\n[chain]\nmaster_seed = 7\n")
    assert ok.field.noise.seed == 7
    viaflag = _resolve("[field]\nnoise_sigma = 1.0\n", seed_override=9)
    assert viaflag.field.noise.seed == 9
    with pytest.raises(ValidationError):
        _resolve("", command="noise")


def test_table_field_csv(tmp_path):
    csv = tmp_path / "vals.csv"
    csv.write_text("sensor,step,value\n0,0,1.5\n1,0,2.5\n0,1,3.5\n1,1,4.5\n")
    raw = read_ini(f"[chain]\nn = 3\n[field]\nkind = table\ncsv = {csv}\n")
    exp = resolve(raw, "simulate", tmp_path)
    assert exp.field.kind.at(1, 1) == 4.5


def test_cli_simulate_writes_trace_and_metadata(tmp_path):
    code = main(["simulate", "--out", str(tmp_path),
                 "--set", "chain.n=8", "--set", "chain.rounds=3",
                 "--set", "algorithm.rho=0.5"])
    assert code == 0
    trace = (tmp_path / "run_trace.csv").read_text().strip().splitlines()
    assert trace[0] == "round,sensor,y"
    assert len(trace) == 1 + 8 * 4
    meta = json.loads((tmp_path / "run_metadata.json").read_text())
    assert meta["schema_version"] == 1
    assert meta["config"]["chain"]["n"] == "8"
    # constant field through the exponential rule: round-0 value is x/3
    first = float(trace[1].split(",")[2])
    assert first == pytest.approx(1.0 / 3.0, abs=1e-15)


def test_cli_rerun_is_byte_identical(tmp_path):
    args = ["simulate", "--out", str(tmp_path), "--set", "chain.n=6",
            "--set", "chain.rounds=4"]
    assert main(args) == 0
    first = (tmp_path / "run_trace.csv").read_bytes()
    meta1 = json.loads((tmp_path / "run_metadata.json").read_text())
    assert main(args) == 0
    assert (tmp_path / "run_trace.csv").read_bytes() == first
    meta2 = json.loads((tmp_path / "run_metadata.json").read_text())
    meta1.pop("timestamp")
    meta2.pop("timestamp")
    assert meta1 == meta2


def test_cli_rerun_from_embedded_config(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert main(["simulate", "--out", str(out1), "--set", "chain.n=7",
                 "--set", "chain.rounds=5", "--set", "algorithm.rho=0.6"]) == 0
    meta = json.loads((out1 / "run_metadata.json").read_text())
    cfg_path = tmp_path / "replay.ini"
    cfg_path.write_text(meta["config_ini"])
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out2)]) == 0
    assert (out1 / "run_trace.csv").read_bytes() == (out2 / "run_trace.csv").read_bytes()


@pytest.mark.parametrize("variant", ["window", "dyn_window", "arbitrary"])
def test_cli_rerun_from_embedded_config_with_case_sensitive_keys(tmp_path, variant):
    csv = tmp_path / "w.csv"
    csv.write_text(WeightTable.geometric(0.5, 3, 9).to_csv())
    params = {"window": ["algorithm.L=3"], "dyn_window": ["algorithm.L=2"],
              "arbitrary": [f"algorithm.weights_csv={csv}", "algorithm.K=3.0"]}[variant]
    args = ["--set", "chain.n=9", "--set", "chain.rounds=4",
            "--set", f"algorithm.variant={variant}"]
    for p in params:
        args += ["--set", p]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--out", str(out1)] + args) == 0
    meta = json.loads((out1 / "run_metadata.json").read_text())
    cfg_path = tmp_path / "replay.ini"
    cfg_path.write_text(meta["config_ini"])
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out2)]) == 0
    assert (out1 / "run_trace.csv").read_bytes() == (out2 / "run_trace.csv").read_bytes()


@pytest.mark.parametrize("text", ["sensor,value\n0,1.0\n1,np.float64(0.1)\n",
                                  "sensor,step,value\n0,0,1.0\n1,0\n",
                                  "sensor,value\n", ""])
def test_cli_malformed_table_csv_is_a_validation_error(tmp_path, capsys, text):
    csv = tmp_path / "vals.csv"
    csv.write_text(text)
    code = main(["simulate", "--out", str(tmp_path), "--set", "chain.n=3",
                 "--set", "field.kind=table", "--set", f"field.csv={csv}"])
    assert code == 1
    assert "[field] csv" in capsys.readouterr().err


def test_cli_validation_exit_code(tmp_path):
    code = main(["simulate", "--out", str(tmp_path), "--set", "chain.n=2"])
    assert code == 1
    code = main(["simulate", "--out", str(tmp_path), "--set", "algorithm.bogus=1"])
    assert code == 1


def test_cli_divergence_exit_code(tmp_path):
    weights = np.array([[1e308] * 3, [1e-308] * 3, [1.0] * 3])
    csv = tmp_path / "w.csv"
    csv.write_text(WeightTable(weights, 1.0, 1, row_tol=None).to_csv())
    code = main(["simulate", "--out", str(tmp_path),
                 "--set", "chain.n=3", "--set", "chain.rounds=2",
                 "--set", "algorithm.variant=arbitrary",
                 "--set", f"algorithm.weights_csv={csv}",
                 "--set", "algorithm.K=1.0"])
    assert code == 2


def test_cli_simulate_dynamic_window_slots(tmp_path):
    code = main(["simulate", "--out", str(tmp_path),
                 "--set", "chain.n=7", "--set", "chain.rounds=3",
                 "--set", "algorithm.variant=dyn_window", "--set", "algorithm.L=2"])
    assert code == 0
    header = (tmp_path / "run_trace.csv").read_text().splitlines()[0]
    assert header == "round,sensor,y,z0,z1,z2"


def test_cli_freq_spatial(tmp_path):
    code = main(["freq-spatial", "--out", str(tmp_path),
                 "--set", "chain.n=64", "--set", "algorithm.rho=0.8",
                 "--set", "analysis.harmonic=2,4"])
    assert code == 0
    lines = (tmp_path / "run_freq_spatial.csv").read_text().strip().splitlines()
    assert lines[0] == "omega,gain_analytic,gain_measured,phase_measured"
    assert len(lines) == 3
    for row in lines[1:]:
        omega, analytic, measured, phase = map(float, row.split(","))
        assert analytic == pytest.approx(h_exp(0.8, omega), abs=1e-14)
        assert measured == pytest.approx(analytic, abs=1e-6)
        assert abs(phase) < 1e-9


def test_cli_freq_temporal(tmp_path):
    code = main(["freq-temporal", "--out", str(tmp_path),
                 "--set", "chain.n=5", "--set", "algorithm.variant=dyn_exponential",
                 "--set", "algorithm.rho=0.8", "--set", "analysis.omegas=0.1,0.5"])
    assert code == 0
    lines = (tmp_path / "run_freq_temporal.csv").read_text().strip().splitlines()
    assert len(lines) == 3
    for row in lines[1:]:
        omega, analytic, measured, _ = map(float, row.split(","))
        assert analytic == pytest.approx(k_temporal_exp(0.8, omega)[0], abs=1e-14)
        assert measured == pytest.approx(analytic, abs=1e-3)


def test_cli_noise_report(tmp_path):
    code = main(["noise", "--out", str(tmp_path), "--seed", "5",
                 "--set", "analysis.noise_target=window", "--set", "analysis.L=2",
                 "--set", "analysis.replicates=500"])
    assert code == 0
    payload = json.loads((tmp_path / "run_noise.json").read_text())
    report = payload["report"]
    assert report["analytic_variance"] == pytest.approx(0.2)
    assert report["sampled_variance"] == pytest.approx(0.2, rel=0.25)
    assert report["replicates"] == 500
    assert payload["config"]["analysis"]["noise_target"] == "window"


def test_cli_spacing_report(tmp_path):
    code = main(["spacing", "--out", str(tmp_path), "--seed", "6",
                 "--set", "analysis.replicates=1500"])
    assert code == 0
    payload = json.loads((tmp_path / "run_spacing.json").read_text())
    report = payload["report"]
    assert set(report) >= {"rho", "law", "K_analytic", "mean", "mean_se",
                           "var_analytic", "var_sampled", "var_se", "replicates"}
    assert report["K_analytic"] == pytest.approx(1 / 3, abs=1e-12)
    assert abs(report["mean"] - 1.0) <= 5 * report["mean_se"]


def test_cli_figures_match_formulas(tmp_path):
    code = main(["figures", "--out", str(tmp_path)])
    assert code == 0
    fig1 = (tmp_path / "fig1_spatial_exp_origin.csv").read_text().strip().splitlines()
    assert fig1[0] == "omega,gain,param"
    assert len(fig1) == 1 + len(RHO_GRID) * len(OMEGA_ORIGIN)
    # DC rows carry unit gain for every decay rate
    for row in fig1[1:]:
        omega, gain, param = row.split(",")
        if float(omega) == 0.0:
            assert float(gain) == pytest.approx(1.0, abs=1e-15)
        assert float(gain) == pytest.approx(h_exp(float(param), float(omega)), abs=1e-14)
    fig5 = (tmp_path / "fig5_temporal_window_full.csv").read_text().strip().splitlines()
    assert len(fig5) == 1 + len(WINDOW_GRID) * len(OMEGA_FULL)
    for row in fig5[1:101]:
        omega, gain, param = row.split(",")
        assert float(gain) == pytest.approx(
            k_temporal_window(int(param), float(omega))[0], abs=1e-14)


def test_cli_error_messages_name_the_key(tmp_path, capsys):
    main(["simulate", "--out", str(tmp_path), "--set", "algorithm.rho=2.0"])
    err = capsys.readouterr().err
    assert "rho" in err


def test_cli_window_round_five_equals_wrapped_means(tmp_path):
    # `simulate` with the window rule on a ring of 64: the round-5 rows hold
    # the 11-point wrapped means, checked against the direct target
    from lacsim import MeasurementField, SpatialCosine, oracle

    omega = 2 * math.pi * 3 / 64
    code = main(["simulate", "--out", str(tmp_path),
                 "--set", "chain.n=64", "--set", "chain.rounds=5",
                 "--set", "algorithm.variant=window", "--set", "algorithm.L=5",
                 "--set", "field.kind=spatial_cosine", "--set", "field.amplitude=1.0",
                 "--set", f"field.omega={omega!r}"])
    assert code == 0
    field = MeasurementField(SpatialCosine(1.0, omega))
    rows = (tmp_path / "run_trace.csv").read_text().strip().splitlines()[1:]
    checked = 0
    for row in rows:
        k, i, y = row.split(",")
        if int(k) == 5:
            want = oracle.window_target(field, int(i), 5, n=64)
            assert float(y) == pytest.approx(want, abs=1e-12)
            checked += 1
    assert checked == 64


def test_cli_arbitrary_emits_weight_report(tmp_path):
    table = WeightTable.geometric(0.5, 4, 10)
    csv = tmp_path / "w.csv"
    csv.write_text(table.to_csv())
    code = main(["simulate", "--out", str(tmp_path),
                 "--set", "chain.n=10", "--set", "chain.rounds=4",
                 "--set", "algorithm.variant=arbitrary",
                 "--set", f"algorithm.weights_csv={csv}",
                 "--set", "algorithm.K=3.0",
                 "--set", f"algorithm.row_tol={2 * 0.5 ** 4 / 0.5!r}"])
    assert code == 0
    report = json.loads((tmp_path / "run_weight_report.json").read_text())
    assert report["ok"] is True
    assert report["zero_entries"] == [] and report["bad_rows"] == []
