import hashlib
import json
import math
import os
import pickle
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

import lacsim.cli as cli
import lacsim.config as config
from lacsim import (DynamicExponential, ExponentialWeighting, ValidationError, WeightTable,
                    h_exp, k_temporal_exp, k_temporal_window, settle_rounds)
from lacsim.chain import TIME_VARYING
from lacsim.cli import main
from lacsim.config import config_to_ini, merge_settings, read_ini, resolve
from lacsim.figures import OMEGA_FULL, OMEGA_ORIGIN, RHO_GRID, WINDOW_GRID


def _weights_csv(table):
    """`sensor,offset,weight` rows of `table`, each weight to 17 digits."""
    return "sensor,offset,weight\n" + "".join(
        f"{s},{j - table.radius},{w:.17g}\n" for (s, j), w in np.ndenumerate(table.weights))


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


@pytest.mark.parametrize("text", ["[DEFAULT]\nrounds = 3\n",
                                  "[DEFAULT]\nrounds = 3\n[chain]\nn = 8\n"],
                         ids=["alone", "beside-chain"])
def test_cli_rejects_a_default_section(tmp_path, capsys, text):
    # configparser read [DEFAULT] as its defaults: alone it was dropped, and
    # beside [chain] its keys were copied into every section
    ini = tmp_path / "run.ini"
    ini.write_text(text)
    assert main(["simulate", "--config", str(ini), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == "error: unknown config section [DEFAULT]\n"
    assert not (tmp_path / "out").exists()


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
    (["--out", "b"], "[output]\ndir = a\n", 0, None, "b"),
    (["--set", "output.dir=a", "--out", "b"], "", 0, None, "b"),
    (["--out", "b", "--set", "output.dir=a"], "[output]\ndir = c\n", 0, None, "b"),
    (["--set", "chain.master_seed=1", "--set", "output.dir=a"],
     "[chain]\nmaster_seed = 3\n[output]\ndir = c\n", 0, 1, "a"),
    (["--seed", "-2"], "", 1, None, None),
])
def test_seed_and_out_flags_win_over_the_file_and_set(tmp_path, monkeypatch, capsys, argv, ini,
                                                      code, seed, out):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "exp.ini").write_text(ini)
    # the seed acts on a noisy field alone: without noise `simulate` reads no
    # seed, and `seed` is null; `noise` reads no chain length
    command, settings = ("simulate", ["chain.n=4"]) if code == 0 else ("noise", [])
    settings += ["field.noise_sigma=0.5"] if code == 0 and seed is not None else []
    assert main([command, "--config", "exp.ini", *(a for kv in settings for a in ("--set", kv)),
                 *argv]) == code
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
# each command but simulate with what it reads, and the sections of its echo
_COMMAND_TEXT = {
    "freq-spatial": ("[chain]\nn = 8\n[algorithm]\nvariant = window\nL = 2\n"
                     "[analysis]\nharmonic = 1, 2\nsettle = 5\n",
                     ["chain", "algorithm", "analysis"]),
    "freq-temporal": ("[algorithm]\nvariant = dyn_exponential\nrho = 0.6\n"
                      "[analysis]\nomegas = 0.1\n", ["algorithm", "analysis"]),
    "noise": ("[chain]\nmaster_seed = 3\n[analysis]\nnoise_target = window\nL = 3\n",
              ["chain", "analysis"]),
    "spacing": ("[chain]\nmaster_seed = 3\n[analysis]\nlaw = uniform\n", ["chain", "analysis"]),
    "figures": ("[output]\nprefix = f\n", []),
}


@pytest.mark.parametrize("case", range(12))
def test_resolved_echo_round_trips(tmp_path, case):
    # seven simulate configs that between them use every field kind and
    # variant (the temporal cosine under a time-varying rule), then each other
    # command; each echo holds only the sections its command reads
    (tmp_path / "vals.csv").write_text("sensor,value\n" + "".join(
        f"{i},{i * 0.5 - 1}\n" for i in range(8)))
    (tmp_path / "w.csv").write_text(_weights_csv(WeightTable.geometric(0.5, 2, 8)))
    if case < 7:
        command, kind = "simulate", list(_FIELD_TEXT)[(case + 4) % 6]
        variant = list(_VARIANT_TEXT)[case]
        boundary = "boundary = zero_halo\n" if case % 2 else ""
        seed = "master_seed = 3\n" if "noise_sigma" in _FIELD_TEXT[kind] else ""
        text = (f"[chain]\nn = 8\nrounds = 4\n{seed}{boundary}"
                f"[field]\n{_FIELD_TEXT[kind]}"
                f"[algorithm]\nvariant = {variant}\n{_VARIANT_TEXT[variant]}\n")
        sections = ["chain", "field", *(["field.a", "field.b"] if kind == "sum" else []),
                    "algorithm", "analysis"]
    else:
        command = list(_COMMAND_TEXT)[case - 7]
        text, sections = _COMMAND_TEXT[command]
    exp = resolve(read_ini(text), command, tmp_path)
    assert list(exp.resolved) == sections + ["output"]
    assert (exp.seed is None) == ("master_seed" not in text)
    elsewhere = tmp_path / "elsewhere"
    elsewhere.mkdir()
    again = resolve(read_ini(config_to_ini(exp.resolved)), command, elsewhere)
    assert again.resolved == exp.resolved
    for name in ("chain", "seed", "field", "algorithm", "analysis", "sampled"):
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


# every settable key: each command reads only the keys that can change its output
_OUTPUT_KEYS = {"output": "dir prefix"}
_SETTABLE = {
    "simulate": {"chain": "boundary n rounds master_seed",
                 "field": "kind noise_sigma noise_distribution value center amplitude omega phase "
                          "csv components",
                 "field.<name>": "kind value center amplitude omega phase csv",
                 "algorithm": "variant rho rho_b rho_f L lengths weights_csv K row_tol",
                 **_OUTPUT_KEYS},
    "freq-spatial": {"chain": "n", "algorithm": "variant rho L", "analysis": "harmonic settle",
                     **_OUTPUT_KEYS},
    "freq-temporal": {"algorithm": "variant rho L", "analysis": "omegas settle", **_OUTPUT_KEYS},
    "noise": {"chain": "master_seed", "analysis": "noise_target rho L count sigma replicates",
              **_OUTPUT_KEYS},
    "spacing": {"chain": "master_seed", "analysis": "law rho eta replicates tail_eps",
                **_OUTPUT_KEYS},
    "figures": _OUTPUT_KEYS,
}
_SETTABLE_TRIPLES = {(command, section, key) for command, sections in _SETTABLE.items()
                     for section, keys in sections.items() for key in keys.split()}


def _keys(table, selector=None):
    """The keys of a key table, or of every choice's table and the selector."""
    if selector is None:
        return set(table)
    return {selector} | {key for choice, _ in table.values() for key in choice}


def test_the_settable_keys_are_pinned():
    found = {(command, section, key) for command, reads in config._READS.items()
             for section, spec in {**reads, "output": config._OUTPUT}.items()
             for key in (_keys(spec[2], spec[0]) if isinstance(spec, tuple) else _keys(spec))}
    # simulate's [chain] and [field] read, besides their choices' keys, the seed
    # and the noise distribution when the field is noisy; a time-varying rule
    # reads every field kind
    kinds = config._field_kinds({"n": 8, "rounds": 3}, True)
    found |= {("simulate", section, key) for section, keys in {
        "chain": _keys(config._BOUNDARIES, "boundary") | _keys({**config._CHAIN, **config._SEED}),
        "field": (_keys(kinds, "kind") | _keys(config._SUM)
                  | {"noise_sigma"} | _keys(config._NOISE_LAW)),
        "field.<name>": _keys(kinds, "kind"),
        "algorithm": _keys(config._VARIANTS, "variant")}.items() for key in keys}
    assert found == _SETTABLE_TRIPLES
    # 213 when every command read every shared section, 67 when freq-temporal read [chain] n
    assert len(found) == 66


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


@pytest.mark.parametrize("command", ["freq-spatial", "freq-temporal"])
def test_cli_rejects_a_negative_settle_before_any_sweep(tmp_path, capsys, monkeypatch, command):
    # a negative settle once ran the engine, then failed naming no section
    def never(*args):
        raise AssertionError("analysis.sweep called")

    monkeypatch.setattr(cli.ana, "sweep", never)
    assert main([command, "--out", str(tmp_path), "--set", "algorithm.rho=0.8",
                 "--set", "analysis.settle=-1"]) == 1
    assert capsys.readouterr().err == "error: [analysis] settle: must be >= 0, got '-1'\n"


def test_cli_rerun_from_config_ini_saved_beside_outputs(tmp_path):
    # relative input paths are echoed absolute, so the embedded config runs
    # from any directory
    (tmp_path / "vals.csv").write_text("sensor,value\n0,1.5\n1,2.5\n2,-0.5\n3,4.0\n")
    (tmp_path / "w.csv").write_text(_weights_csv(WeightTable.geometric(0.5, 1, 4)))
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
    raw = read_ini(f"[chain]\nn = 3\n[field]\nkind = table\ncsv = {csv}\n"
                   "[algorithm]\nvariant = dyn_exponential\nrho = 0.5\n")
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


def test_cli_figures_rewrites_its_csvs_in_place(tmp_path, monkeypatch):
    names = [f"{name}.csv" for name in cli.FIGURES]
    assert main(["figures", "--out", str(tmp_path / "fresh")]) == 0
    assert main(["figures", "--out", str(tmp_path / "out")]) == 0
    for name in names:  # a longer old file: the rewrite must cut its tail
        with open(tmp_path / "out" / name, "a") as old:
            old.write("0,0,0\n" * 100)
    flags, real_open = {}, os.open

    def spy(path, mode, *args, **kwargs):
        flags[Path(path).name] = mode
        return real_open(path, mode, *args, **kwargs)

    monkeypatch.setattr(os, "open", spy)
    assert main(["figures", "--out", str(tmp_path / "out")]) == 0
    # every figure CSV is opened through os.open, none of them truncating
    assert {name: flags.get(name, -1) & os.O_TRUNC for name in names} == dict.fromkeys(names, 0)
    for name in names:
        assert (tmp_path / "out" / name).read_bytes() == (tmp_path / "fresh" / name).read_bytes()


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
    csv.write_text(_weights_csv(WeightTable.geometric(0.5, 3, 9)))
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
    (tmp_path / "w.csv").write_text(_weights_csv(WeightTable.geometric(0.5, 2, 8)))
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
        args = ["--set", "field.kind=table", "--set", f"field.csv={csv}",
                "--set", "algorithm.variant=dyn_exponential", "--set", "algorithm.rho=0.5"]
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
    csv.write_text(_weights_csv(WeightTable(weights, 1.0, 1, row_tol=None)))
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
                 "--set", "algorithm.variant=dyn_exponential", "--set", "algorithm.rho=0.8",
                 "--set", "analysis.omegas=0.1,0.5"])
    assert code == 0
    lines = (tmp_path / "run_freq_temporal.csv").read_text().strip().splitlines()
    assert len(lines) == 3
    for row in lines[1:]:
        omega, analytic, measured, _ = map(float, row.split(","))
        assert analytic == pytest.approx(k_temporal_exp(0.8, omega)[0], abs=1e-14)
        assert measured == pytest.approx(analytic, abs=1e-3)


# generated by the engine that kept y sensor-major: the measured gains are
# means over y, so their last bits depend on the order numpy sums them in.  A
# temporal sweep runs on the smallest ring its rule fits: dyn_exponential's
# digest is that of 3 sensors, and dyn_window's (L = 3) that of 7, 8 or 9
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
        ["--set", "algorithm.variant=dyn_exponential", "--set", "algorithm.rho=0.8",
         "--set", "analysis.omegas=0.05,0.1,0.5,2"],
        "a4b06439fba07feeb8a15becfcfb01ab072fb013dc1361b6bd3944c964db79de"),
    ("freq-temporal", "dyn_window"): (
        ["--set", "algorithm.variant=dyn_window", "--set", "algorithm.L=3",
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


@pytest.mark.parametrize("flag", [["--config", "/nonexistent"], ["--seed", "5"],
                                  ["--set", "chain.n=3"], ["--out", "zz"]])
def test_cli_verify_takes_no_config_flags(tmp_path, monkeypatch, capsys, flag):
    # argparse rejects the flag as a usage error, exit 2, before any criterion runs
    import lacsim.acceptance

    def no_run():
        raise AssertionError("verify ran with a config flag")

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(lacsim.acceptance, "run_all", no_run)
    with pytest.raises(SystemExit) as exit_:
        main(["verify", *flag])
    assert exit_.value.code == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())
    # every handled command, and verify, is a subcommand
    for command in [*cli._HANDLERS, "verify"]:
        assert cli.build_parser().parse_args([command]).command == command


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
    csv.write_text(_weights_csv(table))
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
    monkeypatch.setattr(cli.ana, "run", no_run)  # the freq-* sweep's engine
    blocker = tmp_path / "taken"
    blocker.write_text("")
    for out in (blocker, blocker / "sub"):
        assert main([command, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "not a directory" in err
        assert "Traceback" not in err
    assert blocker.read_text() == ""


@pytest.mark.parametrize("command, name, make", [
    ("simulate", "run_trace.csv", os.mkdir), ("simulate", "run_metadata.json", os.mkdir),
    ("freq-spatial", "run_freq_spatial_metadata.json", os.mkdir),
    ("freq-temporal", "run_freq_temporal.csv", os.mkdir),
    ("noise", "run_noise.json", os.mkdir), ("noise", "run_noise.json", os.mkfifo),
    ("spacing", "run_spacing.json", os.mkdir),
    ("figures", "fig3_temporal_exp_origin.csv", os.mkdir),
    ("figures", "run_figures_metadata.json", os.mkdir),
])
def test_cli_rejects_an_output_file_that_is_not_a_file_before_running(command, name, make,
                                                                      tmp_path, capsys,
                                                                      monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("the command worked before its output files were checked")

    for module, attr in ((cli, "run"), (cli.ana, "run"), (cli.ana, "monte_carlo_noise"),
                         (cli, "monte_carlo_spacing"), (cli, "write_figures")):
        monkeypatch.setattr(module, attr, no_work)
    make(tmp_path / name)
    kind = "Is a directory" if make is os.mkdir else "not a regular file"
    # what the command requires: no other run reads a seed, and freq-temporal's
    # default variant has no default rho
    required = {"noise": ["--seed", "1"], "spacing": ["--seed", "1"],
                "freq-temporal": ["--set", "algorithm.rho=0.8"]}.get(command, [])
    assert main([command, "--out", str(tmp_path), *required]) == 1
    assert capsys.readouterr().err == f"error: output file {tmp_path / name}: {kind}\n"


def test_cli_input_and_output_errors_exit_1_with_a_message(tmp_path, capsys):
    # a config path that is a directory, and a trace path taken by one, ended
    # in an IsADirectoryError traceback
    (tmp_path / "run_trace.csv").mkdir()
    for args in (["--config", str(tmp_path)], ["--out", str(tmp_path)]):
        assert main(["simulate", "--set", "chain.n=8", "--set", "chain.rounds=2"] + args) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Is a directory" in err
        assert "Traceback" not in err
    assert (tmp_path / "run_trace.csv").is_dir()


@pytest.mark.parametrize("boundary", ["zero_halo", "truncated"])
def test_cli_freq_temporal_rejects_a_line_boundary(tmp_path, capsys, boundary):
    # the sweep runs on the smallest ring its rule fits, so freq-temporal reads no [chain]
    code = main(["freq-temporal", "--out", str(tmp_path), "--set", f"chain.boundary={boundary}",
                 "--set", "algorithm.variant=dyn_exponential", "--set", "algorithm.rho=0.8"])
    assert code == 1
    assert capsys.readouterr().err == "error: unknown config section [chain]\n"
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("seed, error", [
    ("-1", "[chain] master_seed: must be >= 0, got '-1'"),
    (str(2 ** 128), f"noise seed must be an integer in [0, 2**128), got {2 ** 128}")],
    ids=["-1", str(2 ** 128)])
def test_cli_rejects_a_seed_outside_the_philox_key(tmp_path, capsys, seed, error):
    # a noisy run: only there does simulate read the seed
    assert main(["simulate", "--out", str(tmp_path), "--set", "field.noise_sigma=0.5",
                 "--seed", seed]) == 1
    assert capsys.readouterr().err == f"error: {error}\n"
    assert not list(tmp_path.iterdir())


# -- every setting acts -----------------------------------------------------------

_SELECTORS = {"boundary", "kind", "variant", "noise_target", "law"}
# two valid values of each other key (`csv` and `weights_csv` take a second
# file): a changed run takes the first that differs from the echoed value
_OTHER = {
    "n": ("11", "12"), "rounds": ("5", "6"), "master_seed": ("4", "5"),
    "noise_sigma": ("0.75", "1.0"), "noise_distribution": ("uniform", "gaussian"),
    "value": ("0.5", "1.5"), "center": ("1", "5"), "amplitude": ("0.5", "1.5"),
    "omega": ("0.5", "0.7"), "phase": ("1.0", "1.5"), "components": ("a,b,a", "a,b"),
    "rho": ("0.7", "0.6"), "rho_b": ("0.7", "0.6"), "rho_f": ("0.7", "0.6"), "L": ("3", "2"),
    "lengths": ("1,1,2,2,2,1,1,1", "2,2,2,2,2,2,2,2"), "K": ("2.0", "3.0"),
    # row_tol acts by accepting or rejecting a table: this one rejects the base's rows
    "row_tol": ("1e-09", "1e-10"),
    "harmonic": ("2", "3"), "omegas": ("0.7", "0.9"), "settle": ("1", "2"),
    "count": ("50", "60"), "sigma": ("2.0", "3.0"), "replicates": ("1100", "1200"),
    "eta": ("0.1", "0.2"), "tail_eps": ("1e-06", "1e-05"),
    "dir": ("elsewhere", "out"), "prefix": ("other", "run"),
}


def _bases(inputs):
    """command -> the settings of runs that between them take every choice of
    every selector: `simulate` runs each rule with each field kind it reads,
    on each boundary."""
    vals, steps = inputs / "vals.csv", inputs / "steps.csv"
    # an impulse at an end sensor, which every boundary and window length acts on
    fields = [["field.kind=constant", "field.value=2.5"],
              ["field.kind=impulse", "field.center=0"],
              ["field.kind=spatial_cosine", "field.amplitude=1.0", "field.omega=0.25"],
              ["field.kind=table", f"field.csv={vals}", "field.noise_sigma=0.5",
               "chain.master_seed=3"],
              ["field.kind=sum", "field.components=a, b", "field.noise_sigma=0.25",
               "field.noise_distribution=uniform", "chain.master_seed=3", "field.a.kind=impulse",
               "field.b.kind=table", f"field.b.csv={vals}"],
              ["field.kind=sum", "field.components=a, b", "field.a.kind=constant",
               "field.a.value=2.0", "field.b.kind=spatial_cosine", "field.b.amplitude=0.5",
               "field.b.omega=0.3"]]
    # a time-varying rule reads every step of its field, a static rule step 0 alone
    in_time = [["field.kind=temporal_cosine", "field.amplitude=2", "field.omega=0.1",
                "field.phase=0.5"],
               ["field.kind=table", f"field.csv={steps}"],
               ["field.kind=sum", "field.components=a, b", "field.a.kind=temporal_cosine",
                "field.a.amplitude=0.5", "field.a.omega=0.3", "field.b.kind=table",
                f"field.b.csv={steps}"]]
    rules = {"exponential": [], "asymmetric": ["algorithm.rho_b=0.5", "algorithm.rho_f=0.25"],
             "window": ["algorithm.L=2"], "variable_window": ["algorithm.lengths=2,2,3,3,3,2,2,2"],
             "arbitrary": [f"algorithm.weights_csv={inputs / 'w.csv'}", "algorithm.K=5.0",
                           "algorithm.row_tol=10.0"],
             "dyn_exponential": ["algorithm.rho=0.6"], "dyn_window": ["algorithm.L=2"]}
    simulate = [["chain.n=8", "chain.rounds=3", f"chain.boundary={boundary}",
                 f"algorithm.variant={name}", *keys, *field]
                for boundary in ("ring", "zero_halo", "truncated") for name, keys in rules.items()
                for field in fields + (in_time if name.startswith("dyn_") else [])]
    return {"simulate": simulate,
            "freq-spatial": [["chain.n=8", "analysis.harmonic=1", "analysis.settle=60"],
                             ["chain.n=8", "algorithm.variant=window", "algorithm.L=2",
                              "analysis.harmonic=1", "analysis.settle=3"]],
            "freq-temporal": [["algorithm.rho=0.6", "analysis.omegas=0.5", "analysis.settle=40"],
                              ["algorithm.variant=dyn_window", "algorithm.L=2",
                               "analysis.omegas=0.5", "analysis.settle=8"]],
            "noise": [[f"analysis.noise_target={t}", "analysis.replicates=200",
                       "chain.master_seed=3"] for t in ("exponential", "window", "global")],
            "spacing": [[f"analysis.law={law}", "analysis.replicates=1000",
                         "chain.master_seed=3"] for law in ("exp_density", "uniform")],
            "figures": [[]]}


def _outcome(monkeypatch, where, command, settings):
    """Run `command` with `settings` in the fresh directory `where`: its exit
    code, its echo and {output path: data}, where a JSON file's data leaves
    out the echo (config, config_ini, seed) and the timestamp."""
    where.mkdir()
    monkeypatch.chdir(where)
    code = main([command, *(a for kv in settings for a in ("--set", kv))])
    data, echo = {}, None
    for path in sorted(p for p in where.rglob("*") if p.is_file()):
        if path.suffix == ".json":
            payload = json.loads(path.read_text())
            echo = payload.pop("config")
            for key in ("config_ini", "seed", "timestamp"):
                del payload[key]
            data[str(path.relative_to(where))] = payload
        else:
            data[str(path.relative_to(where))] = path.read_bytes()
    return code, echo, data


@pytest.mark.parametrize("command", list(_SETTABLE))
def test_every_echoed_key_changes_the_output(tmp_path, monkeypatch, command):
    # each echoed key, set to another valid value, changes an output byte, a
    # report value or an output path; each selector's choices give different
    # outputs; between them the runs set every settable key of the command
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    for name, shift in (("vals", 1.0), ("vals2", 0.25)):
        (inputs / f"{name}.csv").write_text("sensor,value\n" + "".join(
            f"{i},{i * 0.5 - shift}\n" for i in range(8)))
    (inputs / "steps.csv").write_text("sensor,step,value\n" + "".join(
        f"{i},{k},{(i - 2 * k) * 0.5}\n" for i in range(8) for k in range(4)))
    rows = np.random.default_rng(5).uniform(0.5, 1.5, (8, 5))
    for name, scale in (("w", 1.0), ("w2", 2.0)):
        (inputs / f"{name}.csv").write_text(_weights_csv(WeightTable(rows ** scale, 1.0, 2,
                                                                     row_tol=None)))
    files = {"csv": (str(inputs / "vals2.csv"), str(inputs / "vals.csv")),
             "weights_csv": (str(inputs / "w2.csv"), str(inputs / "w.csv"))}
    other, seen, outcomes, bases = {**_OTHER, **files}, set(), [], _bases(inputs)[command]
    for b, settings in enumerate(bases):
        # a table file or a per-sensor list fixes the chain length, and a step
        # table the rounds
        fixed = {"n"} if any(k in kv for kv in settings for k in ("csv=", "lengths=")) else set()
        fixed |= {"rounds"} if any("steps.csv" in kv for kv in settings) else set()
        code, echo, data = _outcome(monkeypatch, tmp_path / f"{b}", command, settings)
        assert code == 0, settings
        outcomes.append(data)
        for section, keys in echo.items():
            generic = "field.<name>" if section.startswith("field.") else section
            seen |= {(command, generic, key) for key in keys}
            for key in (k for k in keys if k not in _SELECTORS and k not in fixed):
                value = next(v for v in other[key] if v != keys[key])
                change = [f"{section}.{key}={value}"]
                if key == "noise_sigma" and "master_seed" not in echo["chain"]:
                    change.append("chain.master_seed=3")  # a noisy field reads a seed
                changed = _outcome(monkeypatch, tmp_path / f"{b}-{section}-{key}", command,
                                   settings + change)
                assert changed[0] == (1 if key == "row_tol" else 0), (settings, section, key)
                assert changed[2] != data, (settings, section, key)
    # each selector's choices give different outputs, but for banded weights,
    # which run the zero-extended sums on either line boundary
    def alike(settings):
        banded = "algorithm.variant=arbitrary" in settings
        return [kv.replace("truncated", "zero_halo") if banded else kv for kv in settings]

    for i, a in enumerate(outcomes):
        for j in range(i + 1, len(outcomes)):
            assert (a == outcomes[j]) == (alike(bases[i]) == alike(bases[j])), (bases[i], bases[j])
    assert seen == {t for t in _SETTABLE_TRIPLES if t[0] == command}


# the kinds of a field component under a static rule, which reads its field at
# step 0 alone; [field] adds sum
_KINDS = "constant, impulse, spatial_cosine, table"
_STATIC_RULES = {
    "exponential": ["algorithm.variant=exponential"],
    "asymmetric": ["algorithm.variant=asymmetric", "algorithm.rho_b=0.5", "algorithm.rho_f=0.25"],
    "window": ["algorithm.variant=window", "algorithm.L=2"],
    "variable_window": ["algorithm.variant=variable_window", "algorithm.lengths=2,2,3,3,3,2,2,2"],
    "arbitrary": ["algorithm.variant=arbitrary", "algorithm.weights_csv={inputs}/w.csv",
                  "algorithm.K=3.0"],
}
_STEPS = "header must be sensor,value"


def _sets(*settings):
    return [a for kv in settings for a in ("--set", kv)]


@pytest.mark.parametrize("args, error", [
    (["simulate", "--set", "chain.boundary=zero_halo", "--set", "chain.halo_depth=40"],
     "[chain] halo_depth: unknown key"),
    (["simulate", "--set", "field.bound=4.0"], "[field] bound: unknown key"),
    # without noise, simulate reads neither the seed nor the noise distribution
    (["simulate", "--seed", "1"], "[chain] master_seed: unknown key"),
    (["simulate", "--set", "field.noise_distribution=uniform"],
     "[field] noise_distribution: unknown key"),
    (["simulate", "--set", "field.noise_sigma=0", "--set", "field.noise_distribution=uniform"],
     "[field] noise_distribution: unknown key"),
    # a component is no sum, so it has no components
    (["simulate", "--set", "field.kind=sum", "--set", "field.components=a",
      "--set", "field.a.kind=sum"], f"[field.a] kind: must be one of {_KINDS}; got 'sum'"),
    (["simulate", "--set", "field.kind=sum", "--set", "field.components=a",
      "--set", "field.a.components=a"], "[field.a] components: unknown key"),
    # a sweep reads its ring's length and its rule, no field, rounds or boundary
    (["freq-spatial", "--set", "field.noise_sigma=0.5"], "unknown config section [field]"),
    (["freq-temporal", "--set", "algorithm.rho=0.8", "--set", "chain.rounds=3"],
     "unknown config section [chain]"),
    # nor its ring's length: every sensor sees the same input, on the smallest ring
    (["freq-temporal", "--set", "algorithm.rho=0.8", "--set", "chain.n=9"],
     "unknown config section [chain]"),
    (["freq-spatial", "--set", "chain.boundary=ring"], "[chain] boundary: unknown key"),
    (["freq-spatial", "--seed", "1"], "[chain] master_seed: unknown key"),
    (["freq-spatial", "--set", "algorithm.variant=dyn_window", "--set", "algorithm.L=2"],
     "[algorithm] variant: must be one of exponential, window; got 'dyn_window'"),
    (["freq-temporal", "--set", "algorithm.variant=asymmetric"],
     "[algorithm] variant: must be one of dyn_exponential, dyn_window; got 'asymmetric'"),
    # noise and spacing read a seed and their own [analysis] keys
    (["noise", "--seed", "1", "--set", "algorithm.variant=window"],
     "unknown config section [algorithm]"),
    (["spacing", "--seed", "1", "--set", "chain.n=8"], "[chain] n: unknown key"),
    (["noise", "--seed", "1", "--set", "analysis.L=3"], "[analysis] L: unknown key"),
    (["noise", "--seed", "1", "--set", "analysis.count=50"], "[analysis] count: unknown key"),
    (["noise", "--seed", "1", "--set", "analysis.noise_target=window",
      "--set", "analysis.rho=0.5"], "[analysis] rho: unknown key"),
    (["noise", "--seed", "1", "--set", "analysis.noise_target=window",
      "--set", "analysis.count=50"], "[analysis] count: unknown key"),
    (["noise", "--seed", "1", "--set", "analysis.noise_target=global",
      "--set", "analysis.rho=0.5"], "[analysis] rho: unknown key"),
    (["noise", "--seed", "1", "--set", "analysis.noise_target=global",
      "--set", "analysis.L=3"], "[analysis] L: unknown key"),
    (["spacing", "--seed", "1", "--set", "analysis.eta=0.3"], "[analysis] eta: unknown key"),
    (["spacing", "--seed", "1", "--set", "analysis.law=exp_density",
      "--set", "analysis.eta=0.1"], "[analysis] eta: unknown key"),
    (["noise"], "[chain] master_seed: required"),
    (["spacing", "--seed", "-1"], "[chain] master_seed: must be >= 0, got '-1'"),
    # figures reads [output] alone
    (["figures", "--seed", "1"], "unknown config section [chain]"),
    (["figures", "--set", "analysis.settle=3"], "unknown config section [analysis]"),
    # a static rule reads its field at step 0 alone: no temporal cosine, in
    # [field] or in a component, and no step table
    *((["simulate", *_sets("chain.n=8", *rule, "field.kind=temporal_cosine",
                           "field.amplitude=1.0", "field.omega=0.1")],
       f"[field] kind: must be one of {_KINDS}, sum; got 'temporal_cosine'")
      for rule in _STATIC_RULES.values()),
    (["simulate", *_sets("chain.n=8", "field.kind=sum", "field.components=a",
                         "field.a.kind=temporal_cosine", "field.a.amplitude=1.0",
                         "field.a.omega=0.1")],
     f"[field.a] kind: must be one of {_KINDS}; got 'temporal_cosine'"),
    (["simulate", *_sets("chain.n=8", *_STATIC_RULES["window"], "field.kind=table",
                         "field.csv={inputs}/steps.csv")],
     f"[field] csv: table file {{inputs}}/steps.csv: {_STEPS}"),
    (["simulate", *_sets("chain.n=8", *_STATIC_RULES["arbitrary"], "field.kind=sum",
                         "field.components=a, b", "field.a.kind=constant", "field.b.kind=table",
                         "field.b.csv={inputs}/steps.csv")],
     f"[field.b] csv: table file {{inputs}}/steps.csv: {_STEPS}"),
    # an impulse centre lies on the chain, in [field] and in each component
    *((["simulate", *_sets("chain.n=8", "field.kind=impulse", f"field.center={c}")],
       f"[field] center: must lie in 0..7, got '{c}'") for c in (500, -3, 63, 8)),
    (["simulate", *_sets("chain.n=8", "field.kind=sum", "field.components=a, b",
                         "field.a.kind=impulse", "field.b.kind=impulse", "field.b.center=8")],
     "[field.b] center: must lie in 0..7, got '8'"),
    # the rule is read before the field, whose kinds depend on the rule's family
    (["simulate", *_sets("field.kind=temporal_cosine", "field.amplitude=1.0", "field.omega=0.1",
                         "algorithm.variant=window")], "[algorithm] L: required"),
])
def test_a_key_that_cannot_act_is_an_unknown_key(tmp_path, capsys, args, error):
    inputs, out = tmp_path / "inputs", tmp_path / "out"
    inputs.mkdir()
    (inputs / "steps.csv").write_text("sensor,step,value\n" + "".join(
        f"{i},{k},{i - k}\n" for i in range(8) for k in range(4)))
    (inputs / "w.csv").write_text(_weights_csv(WeightTable.geometric(0.5, 2, 8)))
    args = [a.replace("{inputs}", str(inputs)) for a in args]
    assert main(args + ["--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {error.replace('{inputs}', str(inputs))}\n"
    assert not out.exists()


@pytest.mark.parametrize("mode", ["spatial", "temporal"])
def test_freq_reads_the_variants_whose_gain_lies_on_its_axis(tmp_path, mode):
    (tmp_path / "w.csv").write_text(_weights_csv(WeightTable.geometric(0.5, 2, 8)))
    for variant, text in _VARIANT_TEXT.items():
        raw = read_ini(f"[chain]\nn = 8\n[algorithm]\nvariant = {variant}\n{text}\n")
        algo = resolve(raw, "simulate", tmp_path).algorithm
        if mode == "temporal":  # a temporal sweep reads no [chain]
            del raw["chain"]
        if (type(algo) in cli.ana.GAINS
                and isinstance(algo, TIME_VARYING) == (mode == "temporal")):
            assert resolve(raw, f"freq-{mode}", tmp_path).algorithm == algo
        else:
            with pytest.raises(ValidationError, match="variant: must be one of"):
                resolve(raw, f"freq-{mode}", tmp_path)


@pytest.mark.parametrize("mode, args", [
    ("spatial", ["--set", "algorithm.rho=0.8"]),
    ("temporal", ["--set", "algorithm.variant=dyn_exponential", "--set", "algorithm.rho=0.8",
                  "--set", "analysis.omegas=0.1,0.5"]),
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


def test_the_readme_examples_run(tmp_path, monkeypatch):
    # README's INI example through `simulate`, and each concrete `lacsim` line of
    # its code blocks but `verify` and the bracketed synopsis, each in a fresh
    # directory; between them they run every command
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```(\w*)\n(.*?)^```", readme, re.M | re.S)
    [ini] = [body for lang, body in blocks if lang == "ini"]
    (tmp_path / "example.ini").write_text(ini)
    runs = [["simulate", "--config", str(tmp_path / "example.ini")]]
    runs += [shlex.split(line)[1:] for _, body in blocks for line in body.splitlines()
             if line.startswith("lacsim ") and "[" not in line and line != "lacsim verify"]
    assert {argv[0] for argv in runs} == set(cli._HANDLERS)
    for j, argv in enumerate(runs):
        (tmp_path / f"{j}").mkdir()
        monkeypatch.chdir(tmp_path / f"{j}")
        assert main(argv) == 0, argv
