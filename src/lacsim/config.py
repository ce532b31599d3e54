"""Experiment configuration: INI sections, strict validation, full echo.

Sections are [chain], [field], [algorithm], [analysis], [output]; summed
fields add [field.<name>] subsections.  One key table per section, boundary,
field kind, variant and command names every accepted key with its parser and
default.  Keys outside the table are rejected, and the fully resolved key set
(defaults included) is echoed into every output's metadata so each artifact
is self-describing and reproducible.  A master seed must be given explicitly
for any stochastic run.
"""
from __future__ import annotations

import configparser
import io
import math
from dataclasses import dataclass, field as dc_field
from pathlib import Path

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
from .tables import read_index_csv

REQUIRED = object()  # default of a key that must be given; a default of None marks an optional key


def _err(section: str, key: str, message: str) -> ValidationError:
    return ValidationError(f"[{section}] {key}: {message}")


# parsers: raw text -> value, raising ValueError with what was expected
def _int(text):
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"expected an integer, got {text!r}") from None


def _float(text):
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"expected a number, got {text!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"must be finite, got {text!r}")
    return value


def _list(item):
    def parse(text):
        values = tuple(item(p.strip()) for p in text.split(",") if p.strip())
        if not values:
            raise ValueError("expected a comma-separated list")
        return values
    return parse


def _choice(*names):
    def parse(text):
        if text not in names:
            raise ValueError(f"must be one of {', '.join(names)}; got {text!r}")
        return text
    return parse


def _table_from_csv(path: Path) -> TableField:
    return TableField(read_index_csv(path.read_text(), ("sensor,value", "sensor,step,value"),
                                     f"csv: table file {path}"))


def _banded(path: Path, row_sum: float, row_tol: float | None) -> BandedWeighting:
    return BandedWeighting(WeightTable.from_csv(path.read_text(), row_sum, row_tol=row_tol))


# Key tables: key -> (parser, default).  A parser of `Path` names an input
# file, resolved against the config's directory and echoed absolute.  A
# section with a selector key (boundary, kind, variant) maps each choice to
# its own key table and a builder of the object the choice stands for.
_CHAIN = {"n": (_int, 64), "rounds": (_int, 40), "master_seed": (_int, 0)}
_BOUNDARIES = {
    "ring": ({}, lambda v: Ring()),
    "zero_halo": ({"halo_depth": (_int, None)}, lambda v: ZeroHalo(v.get("halo_depth"))),
    "truncated": ({}, lambda v: Truncated()),
}

_FIELD = {"noise_sigma": (_float, 0.0), "noise_distribution": (str, "gaussian"),
          "noise_seed": (_int, None), "bound": (_float, None)}
_COSINE = {"amplitude": (_float, REQUIRED), "omega": (_float, REQUIRED), "phase": (_float, 0.0)}
_FIELD_KINDS = {
    "constant": ({"value": (_float, 1.0)}, lambda v: Constant(v["value"])),
    "impulse": ({"center": (_int, 0)}, lambda v: Impulse(v["center"])),
    "spatial_cosine": (_COSINE, lambda v: SpatialCosine(v["amplitude"], v["omega"], v["phase"])),
    "temporal_cosine": (_COSINE,
                        lambda v: TemporalCosine(v["amplitude"], v["omega"], v["phase"])),
    "table": ({"csv": (Path, REQUIRED)}, lambda v: _table_from_csv(v["csv"])),
    "sum": ({"components": (_list(str), REQUIRED)}, None),  # built from [field.<name>]
}

_VARIANTS = {
    "exponential": ({"rho": (_float, 0.8)}, lambda v: ExponentialWeighting(v["rho"])),
    "asymmetric": ({"rho_b": (_float, REQUIRED), "rho_f": (_float, REQUIRED)},
                   lambda v: AsymmetricWeighting(v["rho_b"], v["rho_f"])),
    "window": ({"L": (_int, REQUIRED)}, lambda v: FiniteWindow(v["L"])),
    "variable_window": ({"lengths": (_list(_int), REQUIRED)},
                        lambda v: PerSensorWindow(v["lengths"])),
    "arbitrary": ({"weights_csv": (Path, REQUIRED), "K": (_float, REQUIRED),
                   "row_tol": (_float, None)},
                  lambda v: _banded(v["weights_csv"], v["K"], v.get("row_tol"))),
    "dyn_exponential": ({"rho": (_float, REQUIRED)}, lambda v: DynamicExponential(v["rho"])),
    "dyn_window": ({"L": (_int, REQUIRED)}, lambda v: DynamicWindow(v["L"])),
}

_SETTLE = (_int, None)  # None: the rule's own settle_rounds
_ANALYSIS = {
    "simulate": {},
    "freq-spatial": {"harmonic": (_list(_int), (8,)), "settle": _SETTLE},
    "freq-temporal": {"omegas": (_list(_float), (0.05, 0.1, 0.5)), "settle": _SETTLE},
    "noise": {"noise_target": (_choice("exponential", "window", "global"), "exponential"),
              "rho": (_float, 0.5), "L": (_int, 2), "count": (_int, 100),
              "sigma": (_float, 1.0), "replicates": (_int, 10000)},
    "spacing": {"law": (_choice("exp_density", "uniform"), "exp_density"),
                "rho": (_float, math.exp(-1.0)), "eta": (_float, 0.3),
                "replicates": (_int, 20000), "tail_eps": (_float, 1e-12)},
    "figures": {},
}
_OUTPUT = {"dir": (str, "out"), "prefix": (str, "run")}


def _show(value) -> str:
    """Canonical echo text; it parses back to the same value."""
    if isinstance(value, tuple):
        return ",".join(map(_show, value))
    return repr(value) if isinstance(value, float) else str(value)


def _parse(section: str, key: str, parse, text: str, base_dir: Path):
    try:
        value = parse(text)
        if parse is Path:
            value = (base_dir / value).resolve()
            if not value.is_file():
                raise ValueError(f"input file {value} does not exist")
        return value
    except ValueError as exc:
        raise _err(section, key, str(exc)) from None


def _read(section: str, entries: dict, table: dict, base_dir: Path) -> tuple:
    """Check one section against its key table: reject keys outside it, parse
    the given values and fill the defaults.  Returns the values and their
    echo."""
    for key in entries:
        if key not in table:
            raise _err(section, key, "unknown key")
    values = {}
    for key, (parse, default) in table.items():
        if key in entries:
            values[key] = _parse(section, key, parse, entries[key], base_dir)
        elif default is REQUIRED:
            raise _err(section, key, "required")
        elif default is not None:
            values[key] = default
    return values, {key: _show(v) for key, v in values.items()}


def _read_kind(section: str, entries: dict, selector: str, default: str, kinds: dict,
               common: dict, base_dir: Path) -> tuple:
    """Read a section whose `selector` key picks one of `kinds`, and build
    that choice's object (None when it has no builder)."""
    name = _parse(section, selector, _choice(*kinds), entries.get(selector, default), base_dir)
    table, build = kinds[name]
    values, echo = _read(section, entries, {selector: (str, default), **common, **table},
                         base_dir)
    try:
        return (build(values) if build else None), values, echo
    except ValueError as exc:
        raise ValidationError(f"[{section}] {exc}") from None


def _field_kind(raw: dict, section: str, base_dir: Path, echo: dict) -> tuple:
    """The field kind of [field] or of one [field.<name>] component; writes
    each section's echo into `echo`."""
    top = section == "field"
    kind, values, echo[section] = _read_kind(section, raw.get(section, {}), "kind", "constant",
                                             _FIELD_KINDS, _FIELD if top else {}, base_dir)
    if values["kind"] != "sum":
        return kind, values
    if not top:
        raise _err(section, "kind", "summed fields cannot nest")
    parts = []
    for name in values["components"]:
        if f"field.{name}" not in raw:
            raise _err(section, "components", f"missing section [field.{name}]")
        parts.append(_field_kind(raw, f"field.{name}", base_dir, echo)[0])
    return SumField(tuple(parts)), values


def read_ini(text: str) -> dict:
    """Parse INI text into {section: {key: raw string}}, dropping blank values."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str  # keys such as L and K are case-sensitive
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ValidationError(f"config does not parse: {exc}") from None
    return {section: {key: value.strip() for key, value in parser.items(section)
                      if value.strip()}
            for section in parser.sections()}


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


def resolve(raw: dict, command: str, base_dir: Path,
            seed_override: int | None = None, out_override: str | None = None) -> Experiment:
    """Validate and build the typed experiment for one command.

    `raw` is the merged {section: {key: value}} mapping.  The echo in
    `resolved` contains exactly the keys the command will act on, defaults
    included, in canonical string form.
    """
    resolved = {}
    chain_entries = dict(raw.get("chain", {}))
    if seed_override is not None:
        chain_entries["master_seed"] = str(seed_override)
    boundary, chain, resolved["chain"] = _read_kind("chain", chain_entries, "boundary", "ring",
                                                    _BOUNDARIES, _CHAIN, base_dir)
    kind, field = _field_kind(raw, "field", base_dir, resolved)
    stochastic = command in ("noise", "spacing") or field["noise_sigma"] > 0
    if stochastic and "master_seed" not in chain_entries:
        raise _err("chain", "master_seed", "required for stochastic runs (or pass --seed)")
    # built even when noise_sigma is 0, so that its keys are checked
    noise = Noise(field["noise_sigma"], field["noise_distribution"],
                  field.get("noise_seed", chain["master_seed"]))
    algorithm, _, resolved["algorithm"] = _read_kind(
        "algorithm", raw.get("algorithm", {}), "variant", "exponential", _VARIANTS, {}, base_dir)
    analysis, resolved["analysis"] = _read("analysis", raw.get("analysis", {}),
                                           _ANALYSIS[command], base_dir)
    output = dict(raw.get("output", {}))
    if out_override:
        output["dir"] = out_override
    output, resolved["output"] = _read("output", output, _OUTPUT, base_dir)
    for section in raw:
        if section not in resolved:
            hint = " (no [field] components list names it)" if section.startswith("field.") \
                else ""
            raise ValidationError(f"unknown config section [{section}]{hint}")
    return Experiment(
        chain=ChainConfig(n=chain["n"], boundary=boundary, rounds=chain["rounds"],
                          master_seed=chain["master_seed"]),
        field=MeasurementField(kind, noise=noise if noise.sigma > 0 else None,
                               bound=field.get("bound")),
        algorithm=algorithm, analysis=analysis, out_dir=Path(output["dir"]),
        prefix=output["prefix"], resolved=resolved)


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
