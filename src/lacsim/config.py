"""Experiment configuration: INI sections, strict validation, full echo.

Each command reads only the sections and keys that can change its output
(`_READS`; summed fields add [field.<name>] subsections, and a static rule
takes no field kind that varies in time).  One key table per section,
boundary, field kind, variant, command, noise target and spacing law names
every accepted key with its parser and default.  Any other key or
section is rejected, and the fully resolved key set (defaults included) is
echoed into every output's metadata so each artifact is self-describing and
reproducible.  A master seed is read, and must be given, by a stochastic run
alone: `noise`, `spacing`, or `simulate` on a field with noise_sigma > 0.
"""
from __future__ import annotations

import configparser
import io
import math
from dataclasses import dataclass, field as dc_field
from pathlib import Path

from .analysis import GlobalAverage
from .arbitrary_weights import BandedWeighting, WeightTable
from .chain import TIME_VARYING, ChainConfig, Ring, Truncated, ZeroHalo
from .dynamic_rules import DynamicExponential, DynamicWindow
from .errors import ValidationError
from .fields import (Constant, Impulse, MeasurementField, Noise, SpatialCosine, SumField,
                     TableField, TemporalCosine)
from .spacing import ExpGaps, UniformGaps
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


def _natural(parse, bound=math.inf):
    def checked(text):
        if not 0 <= (value := parse(text)) < bound:
            raise ValueError(f"must be >= 0, got {text!r}" if bound == math.inf else
                             f"must lie in 0..{bound - 1}, got {text!r}")
        return value
    return checked


def _choice(*names):
    def parse(text):
        if text not in names:
            raise ValueError(f"must be one of {', '.join(names)}; got {text!r}")
        return text
    return parse


def _banded(path: Path, row_sum: float, row_tol: float | None, n: int) -> BandedWeighting:
    return BandedWeighting(WeightTable.from_csv(path.read_text(), row_sum, n, row_tol=row_tol))


# Key tables: key -> (parser, default).  A parser of `Path` names an input
# file, resolved against the config's directory and echoed absolute.  A
# section with a selector key (boundary, kind, variant, noise_target, law)
# maps each choice to its own key table and a builder of the object the
# choice stands for (the weight table's builder also takes the [chain]
# values, bound by `_sized`; the field kinds are bound by `_field_kinds`).
_N = {"n": (_int, 64)}
_CHAIN = {**_N, "rounds": (_int, 40)}
_SEED = {"master_seed": (_natural(_int), REQUIRED)}  # read by a stochastic run alone
_BOUNDARIES = {
    "ring": ({}, lambda v: Ring()),
    "zero_halo": ({}, lambda v: ZeroHalo()),
    "truncated": ({}, lambda v: Truncated()),
}

_SIGMA = (_natural(_float), 0.0)
_NOISE_LAW = {"noise_distribution": (_choice("gaussian", "uniform"), "gaussian")}
_COSINE = {"amplitude": (_float, REQUIRED), "omega": (_float, REQUIRED), "phase": (_float, 0.0)}
_SUM = {"components": (_list(str), REQUIRED)}


def _field_kinds(chain: dict, time_varying: bool) -> dict:
    """The kinds of a [field.<name>] component ([field] adds `sum`): an impulse
    or a table indexes only sensors of the chain, and a table no step past its
    last round.  A static rule reads its field at step 0 alone, so it takes no
    temporal cosine, and a table of one value a sensor."""
    return {
        "constant": ({"value": (_float, 1.0)}, lambda v: Constant(v["value"])),
        "impulse": ({"center": (_natural(_int, chain["n"]), 0)}, lambda v: Impulse(v["center"])),
        "spatial_cosine": (_COSINE,
                           lambda v: SpatialCosine(v["amplitude"], v["omega"], v["phase"])),
        **({"temporal_cosine": (_COSINE, lambda v: TemporalCosine(
            v["amplitude"], v["omega"], v["phase"]))} if time_varying else {}),
        "table": ({"csv": (Path, REQUIRED)}, lambda v: TableField(read_index_csv(
            v["csv"].read_text(), ("sensor,value", "sensor,step,value")[:1 + time_varying],
            f"csv: table file {v['csv']}", {"sensor": chain["n"], "step": chain["rounds"] + 1}))),
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
                  lambda v, c: _banded(v["weights_csv"], v["K"], v.get("row_tol"), c["n"])),
    "dyn_exponential": ({"rho": (_float, REQUIRED)}, lambda v: DynamicExponential(v["rho"])),
    "dyn_window": ({"L": (_int, REQUIRED)}, lambda v: DynamicWindow(v["L"])),
}

_SETTLE = (_natural(_int), None)  # None: the rule's own settle_rounds
_NOISE = {"sigma": (_float, 1.0), "replicates": (_int, 10000)}
_SPACING = {"replicates": (_int, 20000), "tail_eps": (_float, 1e-12)}
_E_INV = (_float, math.exp(-1.0))
# command -> the sections it reads before [output], besides the [chain],
# [field] and [algorithm] of `_simulate`: each a key table, or (selector,
# default, choices) when a selector key picks one choice: the rule whose gains
# `freq-*` measure (a variant with a closed form in `analysis.GAINS`, static for
# `freq-spatial`, time varying for `freq-temporal`), the noise target's rule or
# the spacing law's gaps.  The shared keys sit inside each choice's table,
# which keeps the echo's key order
_READS = {
    "simulate": {"analysis": {}},
    "freq-spatial": {"chain": _N, "algorithm": ("variant", "exponential", {
        k: _VARIANTS[k] for k in ("exponential", "window")}),
        "analysis": {"harmonic": (_list(_int), (8,)), "settle": _SETTLE}},
    "freq-temporal": {"algorithm": ("variant", "dyn_exponential", {
        k: _VARIANTS[k] for k in ("dyn_exponential", "dyn_window")}),
        "analysis": {"omegas": (_list(_float), (0.05, 0.1, 0.5)), "settle": _SETTLE}},
    "noise": {"chain": _SEED, "analysis": ("noise_target", "exponential", {
        "exponential": ({"rho": (_float, 0.5), **_NOISE},
                        lambda v: ExponentialWeighting(v["rho"])),
        "window": ({"L": (_int, 2), **_NOISE}, lambda v: FiniteWindow(v["L"])),
        "global": ({"count": (_int, 100), **_NOISE}, lambda v: GlobalAverage(v["count"])),
    })},
    "spacing": {"chain": _SEED, "analysis": ("law", "exp_density", {
        "exp_density": ({"rho": _E_INV, **_SPACING}, lambda v: ExpGaps()),
        "uniform": ({"rho": _E_INV, "eta": (_float, 0.3), **_SPACING},
                    lambda v: UniformGaps(v["eta"])),
    })},
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


def _sized(kinds: dict, name: str, chain: dict) -> dict:
    """`kinds` with the (values, chain) builder of choice `name` bound to `chain`."""
    table, build = kinds[name]
    return {**kinds, name: (table, lambda v: build(v, chain))}


def _read_kind(section: str, entries: dict, selector: str, default: str, kinds: dict,
               base_dir: Path, common: dict | None = None) -> tuple:
    """Read a section whose `selector` key picks one of `kinds`, and build
    that choice's object (None when it has no builder)."""
    name = _parse(section, selector, _choice(*kinds), entries.get(selector, default), base_dir)
    table, build = kinds[name]
    values, echo = _read(section, entries, {selector: (str, default), **(common or {}), **table},
                         base_dir)
    try:
        return (build(values) if build else None), values, echo
    except ValueError as exc:
        raise ValidationError(f"[{section}] {exc}") from None


def read_ini(text: str) -> dict:
    """Parse INI text into {section: {key: raw string}}, dropping blank values."""
    # no header names the empty section, so [DEFAULT] is read as a section of
    # its own, which `resolve` rejects like any unknown one
    parser = configparser.ConfigParser(interpolation=None, default_section="")
    parser.optionxform = str  # keys such as L and K are case-sensitive
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ValidationError(f"config does not parse: {exc}") from None
    return {section: {key: value.strip() for key, value in parser.items(section)
                      if value.strip()}
            for section in parser.sections()}


def merge_settings(base: dict, overrides: list) -> dict:
    """Apply `section.key=value` override strings over a parsed config.  A
    blank value removes the key, as a blank INI value does, so its default
    applies."""
    merged = {s: dict(kv) for s, kv in base.items()}
    for item in overrides:
        if "=" not in item:
            raise ValidationError(f"override {item!r} is not of the form section.key=value")
        path, value = item.split("=", 1)
        if "." not in path:
            raise ValidationError(f"override {item!r} is not of the form section.key=value")
        section, key = path.rsplit(".", 1)
        entries = merged.setdefault(section, {})
        if value.strip():
            entries[key] = value.strip()
        else:
            entries.pop(key, None)
    return merged


@dataclass
class Experiment:
    """A command's typed settings; None for what the command does not read."""

    chain: ChainConfig | None  # `freq-*`: a ring of [chain] n sensors
    seed: int | None  # [chain] master_seed
    field: MeasurementField | None
    algorithm: object
    analysis: dict | None
    sampled: object  # what `noise` or `spacing` samples (a rule, a gap law)
    out_dir: Path
    prefix: str
    resolved: dict = dc_field(default_factory=dict)


def _simulate(raw: dict, base_dir: Path, resolved: dict) -> tuple:
    """`simulate`'s chain, seed, field and rule, each section's echo written
    into `resolved`.  A table file is sized by the [chain] values; only a
    noisy field reads the master seed and the noise distribution."""
    entries = raw.get("field", {})
    noisy = _parse("field", "noise_sigma", _SIGMA[0], entries.get("noise_sigma", "0"),
                   base_dir) > 0
    boundary, chain, resolved["chain"] = _read_kind(
        "chain", raw.get("chain", {}), "boundary", "ring", _BOUNDARIES, base_dir,
        {**_CHAIN, **(_SEED if noisy else {})})
    # the rule comes before the field, whose kinds depend on its family
    algorithm, _, echo = _read_kind("algorithm", raw.get("algorithm", {}), "variant",
                                    "exponential", _sized(_VARIANTS, "arbitrary", chain), base_dir)
    parts = _field_kinds(chain, isinstance(algorithm, TIME_VARYING))
    kind, field, resolved["field"] = _read_kind(
        "field", entries, "kind", "constant", {**parts, "sum": (_SUM, None)}, base_dir,
        {"noise_sigma": _SIGMA, **(_NOISE_LAW if noisy else {})})
    if field["kind"] == "sum":
        components = []
        for section in (f"field.{name}" for name in field["components"]):
            if section not in raw:
                raise _err("field", "components", f"missing section [{section}]")
            part, _, resolved[section] = _read_kind(section, raw[section], "kind", "constant",
                                                    parts, base_dir)
            components.append(part)
        kind = SumField(tuple(components))
    noise = Noise(field["noise_sigma"], field["noise_distribution"], chain["master_seed"]) \
        if noisy else None
    resolved["algorithm"] = echo  # the echo lists the rule after the field
    return (ChainConfig(n=chain["n"], boundary=boundary, rounds=chain["rounds"]),
            chain.get("master_seed"), MeasurementField(kind, noise), algorithm)


def resolve(raw: dict, command: str, base_dir: Path) -> Experiment:
    """Validate and build the typed experiment for one command.

    `raw` is the merged {section: {key: value}} mapping.  The echo in
    `resolved` holds exactly the keys the command reads, defaults included,
    in canonical string form: each of them can change the command's output.
    """
    resolved, values, built = {}, {}, {}
    chain = seed = field = None
    if command == "simulate":
        chain, seed, field, built["algorithm"] = _simulate(raw, base_dir, resolved)
    for section, table in {**_READS[command], "output": _OUTPUT}.items():
        entries = raw.get(section, {})
        if isinstance(table, tuple):
            built[section], values[section], resolved[section] = _read_kind(
                section, entries, *table, base_dir)
        else:
            values[section], resolved[section] = _read(section, entries, table, base_dir)
    for section in raw:
        if section not in resolved:
            hint = " (no [field] components list names it)" if section.startswith("field.") \
                else ""
            raise ValidationError(f"unknown config section [{section}]{hint}")
    read = values.get("chain", {})
    return Experiment(
        chain=ChainConfig(read["n"]) if "n" in read else chain, seed=read.get("master_seed", seed),
        field=field, algorithm=built.get("algorithm"), analysis=values.get("analysis"),
        sampled=built.get("analysis"), out_dir=Path(values["output"]["dir"]),
        prefix=values["output"]["prefix"], resolved=resolved)


def config_to_ini(resolved: dict) -> str:
    """Render a resolved echo back to INI text that reproduces the run."""
    out = io.StringIO()
    for section in resolved:
        out.write(f"[{section}]\n")
        for key, value in resolved[section].items():
            out.write(f"{key} = {value}\n")
        out.write("\n")
    return out.getvalue()
