"""Experiment configuration: INI sections, strict validation, full echo.

Sections are [chain], [field], [algorithm], [analysis], [output]; summed
fields add [field.<name>] subsections.  Unknown keys are rejected, as are
keys that do not apply to the selected kind/variant, and the fully resolved
key set (defaults included) is echoed into every output's metadata so each
artifact is self-describing and reproducible.  A master seed must be given
explicitly for any stochastic run.
"""
from __future__ import annotations

import configparser
import io
import math
from dataclasses import dataclass, field as dc_field
from pathlib import Path

import numpy as np

from .analysis import GlobalAverage
from .arbitrary_weights import BandedWeighting, WeightTable
from .chain import ChainConfig, Ring, Truncated, ZeroHalo
from .dynamic_rules import DynamicExponential, DynamicWindow
from .errors import ValidationError
from .fields import (Constant, Impulse, MeasurementField, Noise, SpatialCosine, SumField,
                     TableField, TemporalCosine)
from .spacing import ExpGaps, SpacingModel, UniformGaps
from .static_rules import (AsymmetricWeighting, ExponentialWeighting, FiniteWindow,
                           PerSensorWindow)

_SECTION_KEYS = {
    "chain": {"n", "boundary", "halo_depth", "rounds", "master_seed"},
    "field": {"kind", "value", "center", "amplitude", "omega", "phase", "csv",
              "components", "noise_sigma", "noise_distribution", "noise_seed", "bound"},
    "algorithm": {"variant", "rho", "rho_b", "rho_f", "L", "lengths",
                  "weights_csv", "K", "row_tol"},
    "analysis": {"mode", "harmonic", "omegas", "settle", "replicates", "sigma",
                 "noise_target", "rho", "L", "count", "law", "eta", "tail_eps"},
    "output": {"dir", "prefix"},
}

_FIELD_KIND_KEYS = {
    "constant": {"value"},
    "impulse": {"center"},
    "spatial_cosine": {"amplitude", "omega", "phase"},
    "temporal_cosine": {"amplitude", "omega", "phase"},
    "table": {"csv"},
    "sum": {"components"},
}
_FIELD_COMMON_KEYS = {"kind", "noise_sigma", "noise_distribution", "noise_seed", "bound"}

_VARIANT_KEYS = {
    "exponential": {"rho"},
    "asymmetric": {"rho_b", "rho_f"},
    "window": {"L"},
    "variable_window": {"lengths"},
    "arbitrary": {"weights_csv", "K", "row_tol"},
    "dyn_exponential": {"rho"},
    "dyn_window": {"L"},
}

DEFAULTS = {
    "chain": {"n": "64", "boundary": "ring", "rounds": "40"},
    "field": {"kind": "constant", "noise_sigma": "0", "noise_distribution": "gaussian"},
    "algorithm": {"variant": "exponential"},
    "analysis": {},
    "output": {"dir": "out", "prefix": "run"},
}


def _err(section: str, key: str, message: str) -> ValidationError:
    return ValidationError(f"[{section}] {key}: {message}")


def _parse_int(section, key, raw):
    try:
        return int(raw)
    except ValueError:
        raise _err(section, key, f"expected an integer, got {raw!r}") from None


def _parse_float(section, key, raw):
    try:
        v = float(raw)
    except ValueError:
        raise _err(section, key, f"expected a number, got {raw!r}") from None
    if not math.isfinite(v):
        raise _err(section, key, f"must be finite, got {raw!r}")
    return v


def read_ini(text: str) -> dict:
    """Parse INI text into {section: {key: raw string}}, dropping blank values."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str  # keys such as L and K are case-sensitive
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ValidationError(f"config does not parse: {exc}") from None
    out = {}
    for section in parser.sections():
        base = section.split(".", 1)[0]
        if base not in _SECTION_KEYS:
            raise ValidationError(f"unknown config section [{section}]")
        entries = {}
        for key, value in parser.items(section):
            value = value.strip()
            if value:
                entries[key] = value
        out[section] = entries
    return out


def merge_settings(base: dict, overrides: list) -> dict:
    """Apply `section.key=value` override strings over a parsed config."""
    merged = {s: dict(kv) for s, kv in base.items()}
    for item in overrides:
        if "=" not in item:
            raise ValidationError(f"override {item!r} is not of the form section.key=value")
        path, value = item.split("=", 1)
        if "." not in path:
            raise ValidationError(f"override {item!r} is not of the form section.key=value")
        section, key = path.rsplit(".", 1)
        merged.setdefault(section, {})[key] = value.strip()
    return merged


@dataclass
class Experiment:
    chain: ChainConfig
    field: MeasurementField
    algorithm: object
    analysis: dict
    out_dir: Path
    prefix: str
    resolved: dict = dc_field(default_factory=dict)
    seed_required: bool = False


def _check_keys(section_name: str, entries: dict, allowed: set) -> None:
    for key in entries:
        if key not in allowed:
            raise _err(section_name, key, "unknown key")


def _resolve_section(raw: dict, name: str) -> dict:
    entries = dict(DEFAULTS.get(name, {}))
    entries.update(raw.get(name, {}))
    _check_keys(name, entries, _SECTION_KEYS[name])
    return entries


def _build_chain(entries: dict, seed_override: int | None, stochastic: bool) -> ChainConfig:
    n = _parse_int("chain", "n", entries.get("n", "64"))
    rounds = _parse_int("chain", "rounds", entries.get("rounds", "40"))
    bname = entries.get("boundary", "ring")
    if bname == "ring":
        if "halo_depth" in entries:
            raise _err("chain", "halo_depth", "only applies to the zero_halo boundary")
        boundary = Ring()
    elif bname == "zero_halo":
        depth = entries.get("halo_depth")
        boundary = ZeroHalo(None if depth is None else _parse_int("chain", "halo_depth", depth))
    elif bname == "truncated":
        if "halo_depth" in entries:
            raise _err("chain", "halo_depth", "only applies to the zero_halo boundary")
        boundary = Truncated()
    else:
        raise _err("chain", "boundary", f"must be ring, zero_halo, or truncated; got {bname!r}")
    if seed_override is not None:
        seed = seed_override
    elif "master_seed" in entries:
        seed = _parse_int("chain", "master_seed", entries["master_seed"])
    elif stochastic:
        raise _err("chain", "master_seed", "required for stochastic runs (or pass --seed)")
    else:
        seed = 0
    return ChainConfig(n=n, boundary=boundary, rounds=rounds, master_seed=seed)


def _table_from_csv(section: str, path_text: str, base_dir: Path) -> TableField:
    path = (base_dir / path_text).resolve() if not Path(path_text).is_absolute() \
        else Path(path_text)
    if not path.exists():
        raise _err(section, "csv", f"table file {path} does not exist")
    lines = path.read_text().strip().splitlines()
    header = [h.strip() for h in lines[0].split(",")] if lines else []
    if header not in (["sensor", "value"], ["sensor", "step", "value"]):
        raise _err(section, "csv", "header must be sensor,value or sensor,step,value")
    pts = []
    for line in lines[1:]:
        parts = line.split(",")
        try:
            if len(parts) != len(header):
                raise ValueError
            pts.append((tuple(int(c) for c in parts[:-1]), float(parts[-1])))
        except ValueError:
            raise _err(section, "csv", f"bad row {line!r} in table file {path}") from None
    if not pts:
        raise _err(section, "csv", f"table file {path} has no data rows")
    arr = np.zeros(tuple(max(p[0][d] for p in pts) + 1 for d in range(len(header) - 1)))
    for index, v in pts:
        arr[index] = v
    return TableField(arr)


def _build_field_kind(raw: dict, section: str, base_dir: Path, depth: int = 0):
    entries = dict(raw.get(section, {}))
    if section == "field":
        merged = dict(DEFAULTS["field"])
        merged.update(entries)
        entries = merged
    kind = entries.get("kind", "constant")
    if kind not in _FIELD_KIND_KEYS:
        raise _err(section, "kind", f"unknown field kind {kind!r}")
    if section == "field":
        allowed = _FIELD_KIND_KEYS[kind] | _FIELD_COMMON_KEYS
    else:
        allowed = _FIELD_KIND_KEYS[kind] | {"kind"}
    _check_keys(section, entries, allowed)
    if kind == "constant":
        entries.setdefault("value", "1.0")
        return Constant(_parse_float(section, "value", entries["value"])), entries
    if kind == "impulse":
        entries.setdefault("center", "0")
        return Impulse(_parse_int(section, "center", entries["center"])), entries
    if kind in ("spatial_cosine", "temporal_cosine"):
        if "amplitude" not in entries or "omega" not in entries:
            raise _err(section, "amplitude/omega", f"required for {kind}")
        entries.setdefault("phase", "0")
        amp = _parse_float(section, "amplitude", entries["amplitude"])
        omega = _parse_float(section, "omega", entries["omega"])
        phase = _parse_float(section, "phase", entries["phase"])
        cls = SpatialCosine if kind == "spatial_cosine" else TemporalCosine
        return cls(amp, omega, phase), entries
    if kind == "table":
        if "csv" not in entries:
            raise _err(section, "csv", "required for table fields")
        return _table_from_csv(section, entries["csv"], base_dir), entries
    if depth > 0:
        raise _err(section, "kind", "summed fields cannot nest")
    names = [p.strip() for p in entries.get("components", "").split(",") if p.strip()]
    if not names:
        raise _err(section, "components", "sum needs a comma-separated component list")
    parts = []
    for name in names:
        sub = f"field.{name}"
        if sub not in raw:
            raise _err(section, "components", f"missing section [{sub}]")
        part, _ = _build_field_kind(raw, sub, base_dir, depth=1)
        parts.append(part)
    return SumField(tuple(parts)), entries


def _build_field(raw: dict, base_dir: Path, master_seed: int | None) -> tuple:
    kind, entries = _build_field_kind(raw, "field", base_dir)
    sigma = _parse_float("field", "noise_sigma", entries.get("noise_sigma", "0"))
    noise = None
    if sigma > 0:
        seed_text = entries.get("noise_seed")
        if seed_text is not None:
            noise_seed = _parse_int("field", "noise_seed", seed_text)
        elif master_seed is not None:
            noise_seed = master_seed
        else:
            raise _err("field", "noise_seed", "noisy fields need a seed (or chain.master_seed)")
        noise = Noise(sigma, entries.get("noise_distribution", "gaussian"), noise_seed)
    bound = None
    if "bound" in entries:
        bound = _parse_float("field", "bound", entries["bound"])
    return MeasurementField(kind, noise=noise, bound=bound), entries, sigma > 0


def _build_algorithm(entries: dict, base_dir: Path):
    variant = entries.get("variant", "exponential")
    if variant not in _VARIANT_KEYS:
        raise _err("algorithm", "variant", f"unknown variant {variant!r}")
    _check_keys("algorithm", entries, _VARIANT_KEYS[variant] | {"variant"})
    if variant == "exponential":
        entries.setdefault("rho", "0.8")
        return ExponentialWeighting(_parse_float("algorithm", "rho", entries["rho"]))
    if variant == "asymmetric":
        for key in ("rho_b", "rho_f"):
            if key not in entries:
                raise _err("algorithm", key, "required for the asymmetric variant")
        return AsymmetricWeighting(_parse_float("algorithm", "rho_b", entries["rho_b"]),
                                   _parse_float("algorithm", "rho_f", entries["rho_f"]))
    if variant == "window":
        if "L" not in entries:
            raise _err("algorithm", "L", "required for the window variant")
        return FiniteWindow(_parse_int("algorithm", "L", entries["L"]))
    if variant == "variable_window":
        if "lengths" not in entries:
            raise _err("algorithm", "lengths", "required for the variable_window variant")
        widths = tuple(_parse_int("algorithm", "lengths", p.strip())
                       for p in entries["lengths"].split(",") if p.strip())
        return PerSensorWindow(widths)
    if variant == "arbitrary":
        for key in ("weights_csv", "K"):
            if key not in entries:
                raise _err("algorithm", key, "required for the arbitrary variant")
        path_text = entries["weights_csv"]
        path = Path(path_text) if Path(path_text).is_absolute() else base_dir / path_text
        if not path.exists():
            raise _err("algorithm", "weights_csv", f"weight file {path} does not exist")
        row_tol = None
        if "row_tol" in entries:
            row_tol = _parse_float("algorithm", "row_tol", entries["row_tol"])
        table = WeightTable.from_csv(path.read_text(),
                                     _parse_float("algorithm", "K", entries["K"]),
                                     row_tol=row_tol)
        return BandedWeighting(table)
    if variant == "dyn_exponential":
        if "rho" not in entries:
            raise _err("algorithm", "rho", "required for the dyn_exponential variant")
        return DynamicExponential(_parse_float("algorithm", "rho", entries["rho"]))
    if "L" not in entries:
        raise _err("algorithm", "L", "required for the dyn_window variant")
    return DynamicWindow(_parse_int("algorithm", "L", entries["L"]))


def _analysis_value(entries, key, default, parse):
    raw = entries.get(key)
    return default if raw is None else parse("analysis", key, raw)


def resolve(raw: dict, command: str, base_dir: Path,
            seed_override: int | None = None, out_override: str | None = None) -> Experiment:
    """Validate and build the typed experiment for one command.

    `raw` is the merged {section: {key: value}} mapping.  The echo in
    `resolved` contains exactly the keys the command will act on, defaults
    included, in canonical string form.
    """
    for section in raw:
        base = section.split(".", 1)[0]
        if base not in _SECTION_KEYS:
            raise ValidationError(f"unknown config section [{section}]")

    analysis_entries = _resolve_section(raw, "analysis")
    try:
        field_sigma = float(raw.get("field", {}).get("noise_sigma", "0") or 0)
    except ValueError:
        field_sigma = 0.0  # the field builder reports the real error
    stochastic = command in ("noise", "spacing") or field_sigma > 0

    chain_entries = _resolve_section(raw, "chain")
    chain = _build_chain(chain_entries, seed_override, stochastic)
    field_obj, field_entries, noisy = _build_field(raw, base_dir, chain.master_seed)

    algo_entries = _resolve_section(raw, "algorithm")
    algorithm = _build_algorithm(algo_entries, base_dir)

    output_entries = _resolve_section(raw, "output")
    out_dir = Path(out_override) if out_override else Path(output_entries["dir"])
    prefix = output_entries["prefix"]

    analysis = _resolve_analysis(analysis_entries, command, chain, algorithm)

    resolved = {"chain": _echo_chain(chain), "field": dict(field_entries),
                "algorithm": dict(algo_entries), "analysis": dict(analysis_entries),
                "output": {"dir": str(out_dir), "prefix": prefix}}
    for section, entries in raw.items():
        if section.startswith("field."):
            resolved[section] = dict(entries)
    return Experiment(chain=chain, field=field_obj, algorithm=algorithm, analysis=analysis,
                      out_dir=out_dir, prefix=prefix, resolved=resolved,
                      seed_required=stochastic)


def _echo_chain(chain: ChainConfig) -> dict:
    out = {"n": str(chain.n), "rounds": str(chain.rounds),
           "master_seed": str(chain.master_seed)}
    if isinstance(chain.boundary, Ring):
        out["boundary"] = "ring"
    elif isinstance(chain.boundary, ZeroHalo):
        out["boundary"] = "zero_halo"
        out["halo_depth"] = str(chain.halo_depth())
    else:
        out["boundary"] = "truncated"
    return out


def _resolve_analysis(entries: dict, command: str, chain: ChainConfig, algorithm) -> dict:
    out = {}
    if command == "freq-spatial":
        raw = entries.get("harmonic", "8")
        out["harmonic"] = tuple(_parse_int("analysis", "harmonic", p.strip())
                                for p in raw.split(",") if p.strip())
        out["settle"] = _analysis_value(entries, "settle", None, _parse_int)
    elif command == "freq-temporal":
        raw = entries.get("omegas", "0.05,0.1,0.5")
        out["omegas"] = tuple(_parse_float("analysis", "omegas", p.strip())
                              for p in raw.split(",") if p.strip())
        out["settle"] = _analysis_value(entries, "settle", None, _parse_int)
    elif command == "noise":
        out["noise_target"] = entries.get("noise_target", "exponential")
        if out["noise_target"] not in ("exponential", "window", "global"):
            raise _err("analysis", "noise_target", "must be exponential, window, or global")
        out["rho"] = _analysis_value(entries, "rho", 0.5, _parse_float)
        out["L"] = _analysis_value(entries, "L", 2, _parse_int)
        out["count"] = _analysis_value(entries, "count", 100, _parse_int)
        out["sigma"] = _analysis_value(entries, "sigma", 1.0, _parse_float)
        out["replicates"] = _analysis_value(entries, "replicates", 10000, _parse_int)
    elif command == "spacing":
        out["law"] = entries.get("law", "exp_density")
        if out["law"] not in ("exp_density", "uniform"):
            raise _err("analysis", "law", "must be exp_density or uniform")
        out["rho"] = _analysis_value(entries, "rho", math.exp(-1.0), _parse_float)
        out["eta"] = _analysis_value(entries, "eta", 0.3, _parse_float)
        out["replicates"] = _analysis_value(entries, "replicates", 20000, _parse_int)
        out["tail_eps"] = _analysis_value(entries, "tail_eps", 1e-12, _parse_float)
    return out


def spacing_model(analysis: dict, seed: int) -> SpacingModel:
    law = ExpGaps() if analysis["law"] == "exp_density" else UniformGaps(analysis["eta"])
    return SpacingModel(law=law, seed=seed)


def noise_target(analysis: dict):
    name = analysis["noise_target"]
    if name == "exponential":
        return ExponentialWeighting(analysis["rho"])
    if name == "window":
        return FiniteWindow(analysis["L"])
    return GlobalAverage(analysis["count"])


def config_to_ini(resolved: dict) -> str:
    """Render a resolved echo back to INI text that reproduces the run."""
    out = io.StringIO()
    for section in resolved:
        out.write(f"[{section}]\n")
        for key, value in resolved[section].items():
            out.write(f"{key} = {value}\n")
        out.write("\n")
    return out.getvalue()
