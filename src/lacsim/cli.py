"""Command-line entry point.

Subcommands: simulate, freq-spatial, freq-temporal, noise, spacing, figures,
verify.  Every run resolves its configuration (file, then --set overrides,
then --seed), writes its data files with full float precision, and embeds the
resolved configuration in a metadata JSON so outputs are reproducible
byte-for-byte; timestamps live only in metadata.

Exit codes: 0 success, 1 validation failure, 2 runtime divergence,
3 acceptance failure (verify only).
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
from pathlib import Path

from . import analysis as ana
from .arbitrary_weights import BandedWeighting, validate_weights
from .chain import ChainConfig, Ring, run, trace_to_csv
from .config import (Experiment, config_to_ini, merge_settings, noise_target, read_ini,
                     resolve, spacing_model)
from .dynamic_rules import DynamicExponential, DynamicWindow
from .errors import DivergedError, OutOfDomainError, ValidationError
from .fields import MeasurementField, SpatialCosine, TemporalCosine
from .figures import write_figures
from .spacing import monte_carlo_spacing
from .static_rules import ExponentialWeighting, FiniteWindow

SCHEMA_VERSION = 1


def _metadata(command: str, exp: Experiment | None, outputs: list) -> dict:
    meta = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "outputs": sorted(str(o) for o in outputs),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }
    if exp is not None:
        meta["config"] = exp.resolved
        meta["config_ini"] = config_to_ini(exp.resolved)
        meta["seed"] = exp.chain.master_seed
    return meta


def _write_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def _check_out_dir(out_dir: Path) -> None:
    """Reject an output directory that cannot be created because its
    nearest existing path is not a directory, before any work is done."""
    for path in (out_dir, *out_dir.parents):
        if path.exists():
            if not path.is_dir():
                raise ValidationError(f"output directory {out_dir}: {path} is not a directory")
            return


def _cmd_simulate(exp: Experiment) -> list:
    trace = run(exp.chain, exp.field, exp.algorithm)
    csv_path = exp.out_dir / f"{exp.prefix}_trace.csv"
    _write_text(csv_path, trace_to_csv(trace))
    written = [csv_path]
    if isinstance(exp.algorithm, BandedWeighting):
        table = exp.algorithm.table
        report = validate_weights(table, table.row_tol if table.row_tol is not None
                                  else math.inf)
        payload = report.to_dict()
        if not math.isfinite(payload["tol"]):
            payload["tol"] = None  # null: row totals intentionally differ
        report_path = exp.out_dir / f"{exp.prefix}_weight_report.json"
        _write_json(report_path, payload)
        written.append(report_path)
    meta_path = exp.out_dir / f"{exp.prefix}_metadata.json"
    meta = _metadata("simulate", exp, [p.name for p in written])
    if trace.metadata:
        meta["trace_metadata"] = {k: list(v) if isinstance(v, tuple) else v
                                  for k, v in trace.metadata.items()}
    _write_json(meta_path, meta)
    return written + [meta_path]


def _cmd_freq_spatial(exp: Experiment) -> list:
    algo = exp.algorithm
    if not isinstance(algo, (ExponentialWeighting, FiniteWindow)):
        raise ValidationError("freq-spatial needs algorithm.variant exponential or window")
    if not isinstance(exp.chain.boundary, Ring):
        raise ValidationError("freq-spatial needs chain.boundary = ring")
    n = exp.chain.n
    settle = exp.analysis.get("settle", ana.settle_rounds(algo))
    harmonics = exp.analysis["harmonic"]
    lines = ["omega,gain_analytic,gain_measured,phase_measured"]
    for m in harmonics:
        omega = 2.0 * math.pi * m / n
        field = MeasurementField(SpatialCosine(1.0, omega))
        cfg = ChainConfig(n=n, boundary=Ring(), rounds=max(settle, 1),
                          master_seed=exp.chain.master_seed)
        trace = run(cfg, field, algo)
        est = ana.measure_gain(trace, field, omega, "spatial", settle)
        if isinstance(algo, ExponentialWeighting):
            gain = ana.h_exp(algo.rho, omega)
        else:
            gain = abs(ana.h_window(algo.half_width, omega))
        lines.append(",".join(format(v, ".17g") for v in (omega, gain, est.gain, est.phase)))
    csv_path = exp.out_dir / f"{exp.prefix}_freq_spatial.csv"
    _write_text(csv_path, "\n".join(lines) + "\n")
    meta_path = exp.out_dir / f"{exp.prefix}_freq_spatial_metadata.json"
    _write_json(meta_path, _metadata("freq-spatial", exp, [csv_path.name]))
    return [csv_path, meta_path]


def _cmd_freq_temporal(exp: Experiment) -> list:
    algo = exp.algorithm
    if not isinstance(algo, (DynamicExponential, DynamicWindow)):
        raise ValidationError(
            "freq-temporal needs algorithm.variant dyn_exponential or dyn_window")
    if not isinstance(exp.chain.boundary, Ring):
        raise ValidationError("freq-temporal needs chain.boundary = ring")
    settle = exp.analysis.get("settle", ana.settle_rounds(algo))
    lines = ["omega,gain_analytic,gain_measured,phase_measured"]
    for omega in exp.analysis["omegas"]:
        span = 32 if omega == 0 else max(math.ceil(4.0 * math.pi / omega), 64)
        cfg = ChainConfig(n=exp.chain.n, boundary=Ring(), rounds=settle + span,
                          master_seed=exp.chain.master_seed)
        field = MeasurementField(TemporalCosine(1.0, omega))
        trace = run(cfg, field, algo)
        est = ana.measure_gain(trace, field, omega, "temporal", settle)
        if isinstance(algo, DynamicExponential):
            gain, _ = ana.k_temporal_exp(algo.rho, omega)
        else:
            gain, _ = ana.k_temporal_window(algo.half_width, omega)
        lines.append(",".join(format(v, ".17g") for v in (omega, gain, est.gain, est.phase)))
    csv_path = exp.out_dir / f"{exp.prefix}_freq_temporal.csv"
    _write_text(csv_path, "\n".join(lines) + "\n")
    meta_path = exp.out_dir / f"{exp.prefix}_freq_temporal_metadata.json"
    _write_json(meta_path, _metadata("freq-temporal", exp, [csv_path.name]))
    return [csv_path, meta_path]


def _cmd_noise(exp: Experiment) -> list:
    target = noise_target(exp.analysis)
    report = ana.monte_carlo_noise(target, exp.analysis["sigma"],
                                   exp.analysis["replicates"], exp.chain.master_seed)
    payload = _metadata("noise", exp, [])
    payload["report"] = {
        "analytic_variance": report.analytic_variance,
        "sampled_variance": report.sampled_variance,
        "replicates": report.replicates,
        "standard_error": report.standard_error,
    }
    path = exp.out_dir / f"{exp.prefix}_noise.json"
    _write_json(path, payload)
    return [path]


def _cmd_spacing(exp: Experiment) -> list:
    model = spacing_model(exp.analysis, exp.chain.master_seed)
    report = monte_carlo_spacing(exp.analysis["rho"], model, exp.analysis["replicates"],
                                 tail_eps=exp.analysis["tail_eps"])
    payload = _metadata("spacing", exp, [])
    payload["report"] = report.to_dict()
    path = exp.out_dir / f"{exp.prefix}_spacing.json"
    _write_json(path, payload)
    return [path]


def _cmd_figures(exp: Experiment) -> list:
    written = write_figures(exp.out_dir)
    meta_path = exp.out_dir / f"{exp.prefix}_figures_metadata.json"
    _write_json(meta_path, _metadata("figures", exp, [p.name for p in written]))
    return written + [meta_path]


def _cmd_verify() -> int:
    from .acceptance import run_all

    results = run_all()
    failed = 0
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"{status} criterion {res.index}: {res.name} ({res.elapsed:.2f}s) - {res.detail}")
        if not res.passed:
            failed += 1
    print(f"{len(results) - failed}/{len(results)} criteria passed")
    return 0 if failed == 0 else 3


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and then shared: parsing
    leaves it unchanged (argparse copies the `--set` list default)."""
    parser = argparse.ArgumentParser(prog="lacsim",
                                     description="local average consensus simulator")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("simulate", "freq-spatial", "freq-temporal", "noise", "spacing",
                 "figures", "verify"):
        p = sub.add_parser(name)
        p.add_argument("--config", type=Path, default=None, help="INI experiment file")
        p.add_argument("--out", type=str, default=None, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override chain.master_seed")
        p.add_argument("--set", dest="overrides", action="append", default=[],
                       metavar="SECTION.KEY=VALUE", help="override one config key")
    return parser


_HANDLERS = {
    "simulate": _cmd_simulate,
    "freq-spatial": _cmd_freq_spatial,
    "freq-temporal": _cmd_freq_temporal,
    "noise": _cmd_noise,
    "spacing": _cmd_spacing,
    "figures": _cmd_figures,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "verify":
        return _cmd_verify()
    try:
        if args.config is not None:
            raw = read_ini(Path(args.config).read_text())
            base_dir = Path(args.config).resolve().parent
        else:
            raw = {}
            base_dir = Path.cwd()
        raw = merge_settings(raw, args.overrides)
        exp = resolve(raw, args.command, base_dir,
                      seed_override=args.seed, out_override=args.out)
        _check_out_dir(exp.out_dir)
        written = _HANDLERS[args.command](exp)
    except (ValidationError, OutOfDomainError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except DivergedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for path in written:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
