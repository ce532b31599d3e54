"""Command-line entry point.

Subcommands: simulate, freq-spatial, freq-temporal, noise, spacing, figures,
verify.  Every run but `verify`, which takes no flags, resolves its
configuration (file, then --set overrides, then --seed and --out), writes its
data files with full float precision, and embeds the resolved configuration,
each key of which can change the output, in a metadata JSON so outputs are
reproducible byte-for-byte; timestamps live only in metadata.

Exit codes: 0 success, 1 validation failure or a file that cannot be read
or written, 2 runtime divergence or a usage error, 3 acceptance failure
(verify only).  Output files are checked before a command does any work.
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys
import time
from pathlib import Path

from . import analysis as ana
from . import oracle
# not called here, but kept: perfbench/tracer.py wraps lacsim.cli.validate_weights
from .arbitrary_weights import validate_weights  # noqa: F401
from .chain import Truncated, run, trace_to_csv
from .config import Experiment, config_to_ini, merge_settings, read_ini, resolve
from .errors import DivergedError, OutOfDomainError, ValidationError
from .fields import Constant, MeasurementField
from .figures import FIGURES, write_figures, write_text
from .spacing import SpacingModel, monte_carlo_spacing
from .static_rules import PerSensorWindow

SCHEMA_VERSION = 1


def _metadata(command: str, exp: Experiment, outputs: list) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "outputs": sorted(str(o) for o in outputs),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "config": exp.resolved,
        "config_ini": config_to_ini(exp.resolved),
        "seed": exp.seed,
    }


def _write_json(path: Path, payload: dict) -> None:
    write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


# command -> the files it writes under the output directory, "{}" standing
# for the output prefix
_OUTPUTS = {
    "simulate": ("{}_trace.csv", "{}_metadata.json"),
    "freq-spatial": ("{}_freq_spatial.csv", "{}_freq_spatial_metadata.json"),
    "freq-temporal": ("{}_freq_temporal.csv", "{}_freq_temporal_metadata.json"),
    "noise": ("{}_noise.json",),
    "spacing": ("{}_spacing.json",),
    "figures": (*(f"{name}.csv" for name in FIGURES), "{}_figures_metadata.json"),
}


def _output_paths(exp: Experiment, command: str) -> list:
    """The files `command` writes, checked before any work is done: each one
    that exists must be a file, and the nearest existing path above each a
    directory, so that it can be created."""
    paths = [exp.out_dir / name.format(exp.prefix) for name in _OUTPUTS[command]]
    for path in paths:
        if path.exists() and not path.is_file():
            kind = "Is a directory" if path.is_dir() else "not a regular file"
            raise ValidationError(f"output file {path}: {kind}")
        above = next(p for p in path.parents if p.exists())
        if not above.is_dir():
            raise ValidationError(f"output file {path}: {above} is not a directory")
    return paths


def _cmd_simulate(exp: Experiment, paths: list) -> None:
    csv_path, meta_path = paths
    trace = run(exp.chain, exp.field, exp.algorithm)
    write_text(csv_path, trace_to_csv(trace))
    meta = _metadata("simulate", exp, [csv_path.name])
    if isinstance(exp.algorithm, PerSensorWindow) and \
            not isinstance(exp.chain.boundary, Truncated):
        # final-value coefficient totals, which need not equal one for a
        # per-sensor window; a truncated chain's end sensors fall short of them
        sums = oracle.rows(exp.algorithm, MeasurementField(Constant(1.0)), exp.chain.n,
                           exp.chain.boundary)
        meta["trace_metadata"] = {"weight_sums": sums.tolist()}
    _write_json(meta_path, meta)


def _cmd_freq(exp: Experiment, paths: list, mode: str) -> None:
    """Closed-form against measured gain at each frequency of `analysis.sweep`: ring
    harmonics 2 pi m / n in spatial mode, `analysis.omegas` (no [chain]) in temporal
    mode.  The config offers only the variants whose closed-form gain lies on `mode`'s axis."""
    command = f"freq-{mode}"
    algo = exp.algorithm
    n = exp.chain.n if exp.chain else None
    settle = exp.analysis.get("settle", ana.settle_rounds(algo))
    omegas = ([2.0 * math.pi * m / n for m in exp.analysis["harmonic"]] if mode == "spatial"
              else exp.analysis["omegas"])
    rows = ana.sweep(algo, omegas, settle, n)
    lines = ["omega,gain_analytic,gain_measured,phase_measured"]
    lines += [",".join(format(v, ".17g") for v in (omega, gain, est.gain, est.phase))
              for omega, gain, est in rows]
    # measure_gain's warnings, each once: a short settle taints every row
    warnings = list(dict.fromkeys(est.warning for _, _, est in rows if est.warning is not None))
    csv_path, meta_path = paths
    write_text(csv_path, "\n".join(lines) + "\n")
    meta = _metadata(command, exp, [csv_path.name])
    if warnings:
        meta["warnings"] = warnings
    _write_json(meta_path, meta)
    for warning in warnings:
        print(f"warning: {warning}", file=sys.stderr)


def _cmd_noise(exp: Experiment, paths: list) -> None:
    report = ana.monte_carlo_noise(exp.sampled, exp.analysis["sigma"],
                                   exp.analysis["replicates"], exp.seed)
    payload = _metadata("noise", exp, [])
    payload["report"] = dataclasses.asdict(report)
    _write_json(paths[0], payload)


def _cmd_spacing(exp: Experiment, paths: list) -> None:
    model = SpacingModel(exp.sampled, exp.seed)
    report = monte_carlo_spacing(exp.analysis["rho"], model, exp.analysis["replicates"],
                                 tail_eps=exp.analysis["tail_eps"])
    payload = _metadata("spacing", exp, [])
    payload["report"] = report.to_dict()
    _write_json(paths[0], payload)


def _cmd_figures(exp: Experiment, paths: list) -> None:
    written = write_figures(exp.out_dir)
    _write_json(paths[-1], _metadata("figures", exp, [p.name for p in written]))


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
    leaves it unchanged (argparse copies the `--set` list default).  `verify`
    takes no flags."""
    parser = argparse.ArgumentParser(prog="lacsim",
                                     description="local average consensus simulator")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _HANDLERS:
        p = sub.add_parser(name)
        p.add_argument("--config", type=Path, default=None, help="INI experiment file")
        p.add_argument("--out", type=str, default=None, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override chain.master_seed")
        p.add_argument("--set", dest="overrides", action="append", default=[],
                       metavar="SECTION.KEY=VALUE", help="override one config key")
    sub.add_parser("verify")
    return parser


_HANDLERS = {
    "simulate": _cmd_simulate,
    "freq-spatial": functools.partial(_cmd_freq, mode="spatial"),
    "freq-temporal": functools.partial(_cmd_freq, mode="temporal"),
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
        # --seed and --out go after the --set overrides, so they win
        flags = [f"chain.master_seed={args.seed}"] if args.seed is not None else []
        flags += [f"output.dir={args.out}"] if args.out else []
        exp = resolve(merge_settings(raw, args.overrides + flags), args.command, base_dir)
        paths = _output_paths(exp, args.command)
        _HANDLERS[args.command](exp, paths)
    except (ValidationError, OutOfDomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except DivergedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for path in paths:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
