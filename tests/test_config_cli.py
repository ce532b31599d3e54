import hashlib
import json
import math
import pickle
from pathlib import Path

import numpy as np
import pytest

import lacsim.cli as cli
import lacsim.config as config
from lacsim import (DynamicExponential, ExponentialWeighting, ValidationError, WeightTable,
                    h_exp, k_temporal_exp, k_temporal_window, settle_rounds)
from lacsim.cli import main
from lacsim.config import config_to_ini, merge_settings, read_ini, resolve
from lacsim.figures import OMEGA_FULL, OMEGA_ORIGIN, RHO_GRID, WINDOW_GRID


def _resolve(text, command="simulate", overrides=()):
    raw = merge_settings(read_ini(text), list(overrides))
    return resolve(raw, command, Path.cwd())


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
    viaset = _resolve("[field]\nnoise_sigma = 1.0\n", overrides=["chain.master_seed=9"])
    assert viaset.field.noise.seed == 9
    with pytest.raises(ValidationError):
        _resolve("", command="noise")


@pytest.mark.parametrize("argv, ini, code, seed, out", [
    (["--seed", "2"], "[chain]\nmaster_seed = 1\n", 0, 2, "out"),
    (["--set", "chain.master_seed=1", "--seed", "2"], "", 0, 2, "out"),
    (["--seed", "2", "--set", "chain.master_seed=1"], "[chain]\nmaster_seed = 3\n", 0, 2, "out"),
    (["--out", "b"], "[output]\ndir = a\n", 0, 0, "b"),
    (["--set", "output.dir=a", "--out", "b"], "", 0, 0, "b"),
    (["--out", "b", "--set", "output.dir=a"], "[output]\ndir = c\n", 0, 0, "b"),
    (["--set", "chain.master_seed=1", "--set", "output.dir=a"],
     "[chain]\nmaster_seed = 3\n[output]\ndir = c\n", 0, 1, "a"),
    (["--seed", "-2"], "", 1, None, None),
])
def test_seed_and_out_flags_win_over_the_file_and_set(tmp_path, monkeypatch, capsys, argv, ini,
                                                      code, seed, out):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "exp.ini").write_text(ini)
    command = "simulate" if code == 0 else "noise"
    assert main([command, "--config", "exp.ini", "--set", "chain.n=4", *argv]) == code
    if code == 0:
        meta = json.loads((tmp_path / out / "run_metadata.json").read_text())
        assert (meta["seed"], meta["config"]["output"]["dir"]) == (seed, out)
    else:
        assert "seed" in capsys.readouterr().err


_FIELD_TEXT = {
    "constant": "kind = constant\nvalue = 2.5\n",
    "impulse": "kind = impulse\ncenter = 3\n",
    "spatial_cosine": "kind = spatial_cosine\namplitude = 1.0\nomega = 0.25\n",
    "temporal_cosine": "kind = temporal_cosine\namplitude = 2\nomega = 0.1\nphase = 0.5\n",
    "table": "kind = table\ncsv = vals.csv\nnoise_sigma = 0.5\n",
    "sum": ("kind = sum\ncomponents = a, b\nnoise_sigma = 0.25\nnoise_distribution = uniform\n"
            "[field.a]\nkind = impulse\n[field.b]\nkind = table\ncsv = vals.csv\n"),
}
_VARIANT_TEXT = {
    "exponential": "rho = 0.7", "asymmetric": "rho_b = 0.5\nrho_f = 0.25", "window": "L = 2",
    "variable_window": "lengths = 2,2,3,3,3,2,2,2", "arbitrary": "weights_csv = w.csv\nK = 3.0",
    "dyn_exponential": "rho = 0.6", "dyn_window": "L = 2",
}
_ANALYSIS_TEXT = {
    "simulate": "", "freq-spatial": "harmonic = 1, 2\nsettle = 5\n",
    "freq-temporal": "omegas = 0.1\n", "noise": "noise_target = window\nL = 3\n",
    "spacing": "law = uniform\n", "figures": "",
}


@pytest.mark.parametrize("case", range(7))
def test_resolved_echo_round_trips(tmp_path, case):
    # seven configs that between them use every field kind, variant and command
    kind, variant = list(_FIELD_TEXT)[case % 6], list(_VARIANT_TEXT)[case]
    command = list(_ANALYSIS_TEXT)[case % 6]
    (tmp_path / "vals.csv").write_text("sensor,value\n" + "".join(
        f"{i},{i * 0.5 - 1}\n" for i in range(8)))
    (tmp_path / "w.csv").write_text(WeightTable.geometric(0.5, 2, 8).to_csv())
    boundary = "boundary = zero_halo\n" if case % 2 else ""
    text = (f"[chain]\nn = 8\nrounds = 4\nmaster_seed = 3\n{boundary}"
            f"[field]\n{_FIELD_TEXT[kind]}"
            f"[algorithm]\nvariant = {variant}\n{_VARIANT_TEXT[variant]}\n"
            f"[analysis]\n{_ANALYSIS_TEXT[command]}")
    exp = resolve(read_ini(text), command, tmp_path)
    elsewhere = tmp_path / "elsewhere"
    elsewhere.mkdir()
    again = resolve(read_ini(config_to_ini(exp.resolved)), command, elsewhere)
    assert again.resolved == exp.resolved
    for name in ("chain", "field", "algorithm", "analysis"):
        assert pickle.dumps(getattr(again, name)) == pickle.dumps(getattr(exp, name))


@pytest.mark.parametrize("command, choice, echo", [
    ("noise", "exponential", {"noise_target": "exponential", "rho": "0.5", "sigma": "1.0",
                              "replicates": "10000"}),
    ("noise", "window", {"noise_target": "window", "L": "2", "sigma": "1.0",
                         "replicates": "10000"}),
    ("noise", "global", {"noise_target": "global", "count": "100", "sigma": "1.0",
                         "replicates": "10000"}),
    ("spacing", "exp_density", {"law": "exp_density", "rho": repr(math.exp(-1.0)),
                                "replicates": "20000", "tail_eps": "1e-12"}),
    ("spacing", "uniform", {"law": "uniform", "rho": repr(math.exp(-1.0)), "eta": "0.3",
                            "replicates": "20000", "tail_eps": "1e-12"})])
def test_analysis_echo_holds_every_default(command, choice, echo):
    # in key-table order, so `config_ini` keeps its layout; no key the choice cannot read
    selector = next(iter(echo))
    overrides = ["chain.master_seed=1", f"analysis.{selector}={choice}"]
    resolved = _resolve("", command=command, overrides=overrides).resolved
    assert list(resolved["analysis"].items()) == list(echo.items())
    if choice in ("exponential", "exp_density"):  # the defaults
        assert _resolve("", command=command, overrides=overrides[:1]).resolved == resolved


# every settable key: each command reads the shared sections' keys and its own [analysis] keys
_SHARED_KEYS = {
    "chain": "boundary n rounds master_seed",
    "field": "kind noise_sigma noise_distribution value center amplitude omega phase csv "
             "components",
    "field.<name>": "kind value center amplitude omega phase csv components",
    "algorithm": "variant rho rho_b rho_f L lengths weights_csv K row_tol",
    "output": "dir prefix",
}
_ANALYSIS_KEYS = {
    "simulate": "",
    "freq-spatial": "harmonic settle",
    "freq-temporal": "omegas settle",
    "noise": "noise_target rho L count sigma replicates",
    "spacing": "law rho eta replicates tail_eps",
    "figures": "",
}


def test_the_settable_keys_are_pinned():
    def union(common, kinds):  # the keys of every choice's table, selector included
        return {key for table, _ in kinds.values() for key in {**common, **table}}

    found = set()
    for command, analysis in config._ANALYSIS.items():
        sections = {
            "chain": union({"boundary": None, **config._CHAIN}, config._BOUNDARIES),
            "field": union({"kind": None, **config._FIELD}, config._FIELD_KINDS),
            "field.<name>": union({"kind": None}, config._FIELD_KINDS),
            "algorithm": union({"variant": None}, config._VARIANTS),
            "analysis": (union({analysis[0]: None}, analysis[2]) if isinstance(analysis, tuple)
                         else set(analysis)),
            "output": set(config._OUTPUT),
        }
        found |= {(command, section, key) for section, keys in sections.items() for key in keys}
    expected = {(command, section, key) for command in _ANALYSIS_KEYS
                for section, keys in _SHARED_KEYS.items() for key in keys.split()}
    expected |= {(command, "analysis", key) for command, keys in _ANALYSIS_KEYS.items()
                 for key in keys.split()}
    assert found == expected


@pytest.mark.parametrize("command, text", [
    ("simulate", "[analysis]\nsigma = 2\n"),
    ("freq-spatial", "[analysis]\nomegas = 0.1\n"),
    ("simulate", "[field.junk]\nbogus = 1\n"),
    ("simulate", "[field]\nnoise_distribution = cauchy\nnoise_sigma = 0\n"),
    ("simulate", "[field]\nnoise_sigma = -1\n")])
def test_keys_outside_the_tables_rejected(command, text):
    with pytest.raises(ValidationError):
        _resolve(text, command=command)


def test_cli_rejects_another_commands_analysis_key(tmp_path, capsys):
    assert main(["simulate", "--out", str(tmp_path), "--set", "analysis.sigma=2"]) == 1
    assert "[analysis] sigma" in capsys.readouterr().err


def test_cli_rerun_from_config_ini_saved_beside_outputs(tmp_path):
    # relative input paths are echoed absolute, so the embedded config runs
    # from any directory
    (tmp_path / "vals.csv").write_text("sensor,value\n0,1.5\n1,2.5\n2,-0.5\n3,4.0\n")
    (tmp_path / "w.csv").write_text(WeightTable.geometric(0.5, 1, 4).to_csv())
    cfg = tmp_path / "exp.ini"
    cfg.write_text("[chain]\nn = 4\nrounds = 3\n[field]\nkind = table\ncsv = vals.csv\n"
                   "[algorithm]\nvariant = arbitrary\nweights_csv = w.csv\nK = 3.0\n")
    out1, out2 = tmp_path / "out", tmp_path / "again"
    assert main(["simulate", "--config", str(cfg), "--out", str(out1)]) == 0
    replay = out1 / "replay.ini"
    replay.write_text(json.loads((out1 / "run_metadata.json").read_text())["config_ini"])
    assert main(["simulate", "--config", str(replay), "--out", str(out2)]) == 0
    assert (out1 / "run_trace.csv").read_bytes() == (out2 / "run_trace.csv").read_bytes()


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


def test_cli_rewrites_outputs_in_place_to_the_bytes_of_a_fresh_run(tmp_path, monkeypatch):
    # a shorter rewrite must not keep the tail of the longer output before it
    def simulate(base, rounds):
        base.mkdir(exist_ok=True)
        monkeypatch.chdir(base)  # the same relative --out, echoed in the metadata
        assert main(["simulate", "--out", "out", "--set", "chain.n=16",
                     "--set", f"chain.rounds={rounds}"]) == 0
        trace = (base / "out" / "run_trace.csv").read_bytes()
        meta = (base / "out" / "run_metadata.json").read_text().splitlines()
        return trace, [line for line in meta if '"timestamp"' not in line]

    for j, rounds in enumerate((12, 3, 12)):
        rewritten = simulate(tmp_path / "shared", rounds)
        assert rewritten == simulate(tmp_path / f"fresh{j}", rounds)


def test_cli_blank_set_values_take_the_defaults(tmp_path, monkeypatch):
    # a blank --set value removes the key, as a blank INI value does: the
    # outputs go to out/run_*, not to ./_*, and the echoed config reruns them
    monkeypatch.chdir(tmp_path)
    assert main(["simulate", "--set", "output.dir=", "--set", "output.prefix= ",
                 "--set", "chain.n=6", "--set", "chain.rounds=4",
                 "--set", "field.noise_sigma=0.5", "--seed", "3"]) == 0
    out = tmp_path / "out"
    assert [p.name for p in tmp_path.iterdir()] == ["out"]
    meta = json.loads((out / "run_metadata.json").read_text())
    assert (meta["config"]["output"]["dir"], meta["config"]["output"]["prefix"]) == ("out", "run")
    (tmp_path / "replay.ini").write_text(meta["config_ini"])
    assert main(["simulate", "--config", "replay.ini", "--out", "again"]) == 0
    assert (tmp_path / "again" / "run_trace.csv").read_bytes() == \
        (out / "run_trace.csv").read_bytes()


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


@pytest.mark.parametrize("variant", sorted(_VARIANT_TEXT))
@pytest.mark.parametrize("boundary", ["ring", "zero_halo", "truncated"])
def test_cli_writes_trace_metadata_for_the_per_sensor_window_only(tmp_path, variant, boundary):
    (tmp_path / "w.csv").write_text(WeightTable.geometric(0.5, 2, 8).to_csv())
    cfg = tmp_path / "exp.ini"
    cfg.write_text(f"[chain]\nn = 8\nrounds = 3\nboundary = {boundary}\n"
                   f"[algorithm]\nvariant = {variant}\n{_VARIANT_TEXT[variant]}\n")
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    meta = json.loads((tmp_path / "out" / "run_metadata.json").read_text())
    if variant == "variable_window" and boundary != "truncated":
        assert set(meta["trace_metadata"]) == {"weight_sums"}
        assert len(meta["trace_metadata"]["weight_sums"]) == 8
    else:
        assert "trace_metadata" not in meta


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


@pytest.mark.parametrize("kind", ["field", "weights"])
def test_cli_table_sensor_past_the_chain_is_a_validation_error(tmp_path, capsys, kind):
    # a sensor index past the chain is rejected before a dense array sized by it
    # (80 MB here) is allocated
    csv = tmp_path / "table.csv"
    if kind == "field":
        csv.write_text("sensor,step,value\n0,0,1.0\n10000000,0,2.0\n")
        args = ["--set", "field.kind=table", "--set", f"field.csv={csv}"]
    else:
        csv.write_text("sensor,offset,weight\n0,0,1.0\n10000000,0,2.0\n")
        args = ["--set", "algorithm.variant=arbitrary", "--set", "algorithm.K=1.0",
                "--set", f"algorithm.weights_csv={csv}"]
    code = main(["simulate", "--out", str(tmp_path), "--set", "chain.n=3"] + args)
    assert code == 1
    err = capsys.readouterr().err
    assert "row 3 '10000000,0,2.0'" in err and "sensor outside 0..2" in err
    assert not (tmp_path / "run_trace.csv").exists()


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


# generated by the engine that kept y sensor-major: the measured gains are
# means over y, so their last bits depend on the order numpy sums them in
FREQ_GOLDEN = {
    ("freq-spatial", "exponential"): (
        ["--set", "chain.n=64", "--set", "algorithm.rho=0.8",
         "--set", "analysis.harmonic=1,3,8,13"],
        "7cc81b2e5156fcb089d7b25d5366ca4f07ad85f294dcc28ace7e32d28f40a2e6"),
    ("freq-spatial", "window"): (
        ["--set", "chain.n=48", "--set", "algorithm.variant=window", "--set", "algorithm.L=4",
         "--set", "analysis.harmonic=2,5,7"],
        "f453a6c6d49695b351c2f2a8bd203cdae07f93fd5e493dbdb160934afd0acb49"),
    ("freq-temporal", "dyn_exponential"): (
        ["--set", "chain.n=7", "--set", "algorithm.variant=dyn_exponential",
         "--set", "algorithm.rho=0.8", "--set", "analysis.omegas=0.05,0.1,0.5,2"],
        "2f83ceab938018ff15c71556fb1f643c9636f25f0bfc71a3c7edfaf032bc9314"),
    ("freq-temporal", "dyn_window"): (
        ["--set", "chain.n=9", "--set", "algorithm.variant=dyn_window", "--set", "algorithm.L=3",
         "--set", "analysis.omegas=0.1,0.7,1.5"],
        "2a5fde6abf3e36fc178aeab0f0f57482181dc8ff86f796a84eaeb4f01470b71d"),
}


@pytest.mark.parametrize("command, variant", list(FREQ_GOLDEN))
def test_cli_freq_csv_digests(tmp_path, command, variant):
    args, digest = FREQ_GOLDEN[command, variant]
    assert main([command, "--out", str(tmp_path)] + args) == 0
    csv = tmp_path / f"run_{command.replace('-', '_')}.csv"
    assert hashlib.sha256(csv.read_bytes()).hexdigest() == digest


def test_cli_parser_reuse_keeps_no_overrides(tmp_path):
    # the parser is built once per process; a second call must not see the
    # --set values of the first
    first, second = tmp_path / "first", tmp_path / "second"
    assert main(["simulate", "--out", str(first), "--set", "chain.n=5",
                 "--set", "chain.rounds=2"]) == 0
    assert main(["simulate", "--out", str(second)]) == 0
    assert cli.build_parser() is cli.build_parser()
    for out, n, rounds in ((first, 5, 2), (second, 64, 40)):
        config = json.loads((out / "run_metadata.json").read_text())["config"]
        assert (config["chain"]["n"], config["chain"]["rounds"]) == (str(n), str(rounds))
        assert len((out / "run_trace.csv").read_text().splitlines()) == 1 + n * (rounds + 1)


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


def test_cli_arbitrary_writes_the_trace_and_metadata_only(tmp_path):
    # the table is checked when the rule is built, so a run that succeeds has
    # nothing to report on it; the metadata's config echo holds row_tol
    table = WeightTable.geometric(0.5, 4, 10)
    csv = tmp_path / "w.csv"
    csv.write_text(table.to_csv())
    out = tmp_path / "out"
    code = main(["simulate", "--out", str(out),
                 "--set", "chain.n=10", "--set", "chain.rounds=4",
                 "--set", "algorithm.variant=arbitrary",
                 "--set", f"algorithm.weights_csv={csv}",
                 "--set", "algorithm.K=3.0",
                 "--set", f"algorithm.row_tol={2 * 0.5 ** 4 / 0.5!r}"])
    assert code == 0
    assert sorted(p.name for p in out.iterdir()) == ["run_metadata.json", "run_trace.csv"]
    meta = json.loads((out / "run_metadata.json").read_text())
    assert meta["outputs"] == ["run_trace.csv"]
    assert float(meta["config"]["algorithm"]["row_tol"]) == 2 * 0.5 ** 4 / 0.5


@pytest.mark.parametrize("command", ["simulate", "freq-spatial"])
def test_cli_rejects_an_output_path_under_a_file_before_running(command, tmp_path, capsys,
                                                                 monkeypatch):
    def no_run(*args, **kwargs):
        raise AssertionError("the engine ran before the output path was checked")

    monkeypatch.setattr(cli, "run", no_run)
    blocker = tmp_path / "taken"
    blocker.write_text("")
    for out in (blocker, blocker / "sub"):
        assert main([command, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "not a directory" in err
        assert "Traceback" not in err
    assert blocker.read_text() == ""


@pytest.mark.parametrize("boundary", ["zero_halo", "truncated"])
def test_cli_freq_temporal_rejects_a_line_boundary(tmp_path, capsys, boundary):
    # the sweep runs on a ring, so the metadata would echo a boundary it never used
    code = main(["freq-temporal", "--out", str(tmp_path), "--set", f"chain.boundary={boundary}",
                 "--set", "algorithm.variant=dyn_exponential", "--set", "algorithm.rho=0.8"])
    assert code == 1
    assert "chain.boundary = ring" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("seed", ["-1", str(2 ** 128)])
def test_cli_rejects_a_seed_outside_the_philox_key(tmp_path, capsys, seed):
    # without noise too: the config checks the noise keys of every run
    assert main(["simulate", "--out", str(tmp_path), "--seed", seed]) == 1
    assert "noise seed" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


# -- every setting acts -----------------------------------------------------------

_CHOICES = {"noise": ("noise_target", ("exponential", "window", "global"), "200"),
            "spacing": ("law", ("exp_density", "uniform"), "1000")}
# another valid value for each [analysis] key of `noise` and `spacing`
_OTHER = {"rho": "0.7", "L": "3", "count": "50", "sigma": "2.0", "replicates": "1100",
          "eta": "0.1", "tail_eps": "1e-6"}


def _mc_payload(out, command, settings):
    args = [command, "--seed", "3", "--out", str(out)]
    for setting in settings:
        args += ["--set", setting]
    assert main(args) == 0
    return json.loads((out / f"run_{command}.json").read_text())


@pytest.mark.parametrize("command, choice", [(c, choice) for c, (_, choices, _) in
                                             _CHOICES.items() for choice in choices])
def test_every_echoed_analysis_key_changes_the_report(tmp_path, command, choice):
    selector, choices, replicates = _CHOICES[command]
    base = [f"analysis.{selector}={choice}", f"analysis.replicates={replicates}"]
    payload = _mc_payload(tmp_path / "base", command, base)
    other = {**_OTHER, selector: next(c for c in choices if c != choice)}
    for key in payload["config"]["analysis"]:
        changed = _mc_payload(tmp_path / key, command, base + [f"analysis.{key}={other[key]}"])
        assert changed["report"] != payload["report"], key


@pytest.mark.parametrize("args, key", [
    (["simulate", "--set", "chain.boundary=zero_halo", "--set", "chain.halo_depth=40"],
     "[chain] halo_depth"),
    (["simulate", "--set", "field.bound=4.0"], "[field] bound"),
    (["noise", "--set", "analysis.L=3"], "[analysis] L"),
    (["noise", "--set", "analysis.count=50"], "[analysis] count"),
    (["noise", "--set", "analysis.noise_target=window", "--set", "analysis.rho=0.5"],
     "[analysis] rho"),
    (["noise", "--set", "analysis.noise_target=window", "--set", "analysis.count=50"],
     "[analysis] count"),
    (["noise", "--set", "analysis.noise_target=global", "--set", "analysis.rho=0.5"],
     "[analysis] rho"),
    (["noise", "--set", "analysis.noise_target=global", "--set", "analysis.L=3"],
     "[analysis] L"),
    (["spacing", "--set", "analysis.eta=0.3"], "[analysis] eta"),
    (["spacing", "--set", "analysis.law=exp_density", "--set", "analysis.eta=0.1"],
     "[analysis] eta"),
])
def test_a_key_that_cannot_act_is_an_unknown_key(tmp_path, capsys, args, key):
    assert main(args + ["--seed", "1", "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == f"error: {key}: unknown key\n"
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("mode, args", [
    ("spatial", ["--set", "algorithm.rho=0.8"]),
    ("temporal", ["--set", "chain.n=5", "--set", "algorithm.variant=dyn_exponential",
                  "--set", "algorithm.rho=0.8", "--set", "analysis.omegas=0.1,0.5"]),
])
def test_cli_freq_reports_a_short_settle(tmp_path, capsys, mode, args):
    command = f"freq-{mode}"
    meta_path = tmp_path / f"run_freq_{mode}_metadata.json"
    assert main([command, "--out", str(tmp_path)] + args) == 0
    assert capsys.readouterr().err == ""
    assert "warnings" not in json.loads(meta_path.read_text())
    # a settle of 2 leaves the transient in every row: one warning for the sweep
    assert main([command, "--out", str(tmp_path), "--set", "analysis.settle=2"] + args) == 0
    rule = ExponentialWeighting(0.8) if mode == "spatial" else DynamicExponential(0.8)
    warning = f"{type(rule).__name__} needs settle >= {settle_rounds(rule)}, got 2"
    assert json.loads(meta_path.read_text())["warnings"] == [warning]
    assert capsys.readouterr().err == f"warning: {warning}\n"
