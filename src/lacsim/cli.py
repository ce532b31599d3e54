"""Command-line entry point.

Subcommands: simulate, freq-spatial, freq-temporal, noise, spacing, figures,
verify.  Every run resolves its configuration (file, then --set overrides,
then --seed and --out), writes its data files with full float precision, and embeds the
resolved configuration in a metadata JSON so outputs are reproducible
byte-for-byte; timestamps live only in metadata.

Exit codes: 0 success, 1 validation failure or a file that cannot be read
or written, 2 runtime divergence, 3 acceptance failure (verify only).
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time
from pathlib import Path

from . import analysis as ana
from . import oracle
# not called here, but kept: perfbench/tracer.py wraps lacsim.cli.validate_weights
from .arbitrary_weights import validate_weights  # noqa: F401
from .chain import ChainConfig, Ring, Truncated, run, trace_to_csv
from .config import Experiment, config_to_ini, merge_settings, read_ini, resolve
from .dynamic_rules import DynamicExponential, DynamicWindow
from .errors import DivergedError, OutOfDomainError, ValidationError
from .fields import Constant, MeasurementField, SpatialCosine, TemporalCosine
from .figures import write_figures
from .spacing import SpacingModel, monte_carlo_spacing
from .static_rules import ExponentialWeighting, FiniteWindow, PerSensorWindow

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
        meta["seed"] = exp.seed
    return meta


def _write_json(path: Path, payload: dict) -> None:
    _write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_text(path: Path, text: str) -> None:
    """Write `text` to `path` in place, then cut it to length: truncating first
    would free the blocks of an existing file only to fill new ones."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", opener=lambda p, flags: os.open(p, flags & ~os.O_TRUNC, 0o666)) as out:
        out.write(text)
        out.truncate()


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
    meta_path = exp.out_dir / f"{exp.prefix}_metadata.json"
    meta = _metadata("simulate", exp, [csv_path.name])
    if isinstance(exp.algorithm, PerSensorWindow) and \
            not isinstance(exp.chain.boundary, Truncated):
        # final-value coefficient totals, which need not equal one for a
        # per-sensor window; a truncated chain's end sensors fall short of them
        sums = oracle.rows(exp.algorithm, MeasurementField(Constant(1.0)), exp.chain.n,
                           exp.chain.boundary)
        meta["trace_metadata"] = {"weight_sums": sums.tolist()}
    _write_json(meta_path, meta)
    return [csv_path, meta_path]


# mode -> (the rules whose closed-form gain lies on that axis, their variants)
_FREQ_RULES = {
    "spatial": ((ExponentialWeighting, FiniteWindow), "exponential or window"),
    "temporal": ((DynamicExponential, DynamicWindow), "dyn_exponential or dyn_window"),
}


def _cmd_freq(exp: Experiment, mode: str) -> list:
    """Measured against closed-form gain at each frequency of the sweep: ring
    harmonics 2 pi m / n in spatial mode, `analysis.omegas` in temporal mode."""
    command = f"freq-{mode}"
    algo = exp.algorithm
    rules, variants = _FREQ_RULES[mode]
    if not isinstance(algo, rules):
        raise ValidationError(f"{command} needs algorithm.variant {variants}")
    if not isinstance(exp.chain.boundary, Ring):
        raise ValidationError(f"{command} needs chain.boundary = ring")
    n = exp.chain.n
    settle = exp.analysis.get("settle", ana.settle_rounds(algo))
    spatial = mode == "spatial"
    cosine = SpatialCosine if spatial else TemporalCosine
    omegas = ([2.0 * math.pi * m / n for m in exp.analysis["harmonic"]] if spatial
              else exp.analysis["omegas"])
    lines = ["omega,gain_analytic,gain_measured,phase_measured"]
    warnings = []  # measure_gain's, each once: a short settle taints every row
    for omega in omegas:
        field = MeasurementField(cosine(1.0, omega))
        rounds = max(settle, 1) if spatial else settle + ana.fit_rounds(omega)
        cfg = ChainConfig(n=n, boundary=Ring(), rounds=rounds)
        est = ana.measure_gain(run(cfg, field, algo), field, mode, settle)
        gain = ana.closed_form_gain(algo, omega)
        lines.append(",".join(format(v, ".17g") for v in (omega, gain, est.gain, est.phase)))
        if est.warning is not None and est.warning not in warnings:
            warnings.append(est.warning)
    csv_path = exp.out_dir / f"{exp.prefix}_freq_{mode}.csv"
    _write_text(csv_path, "\n".join(lines) + "\n")
    meta_path = exp.out_dir / f"{exp.prefix}_freq_{mode}_metadata.json"
    meta = _metadata(command, exp, [csv_path.name])
    if warnings:
        meta["warnings"] = warnings
    _write_json(meta_path, meta)
    for warning in warnings:
        print(f"warning: {warning}", file=sys.stderr)
    return [csv_path, meta_path]


def _cmd_noise(exp: Experiment) -> list:
    report = ana.monte_carlo_noise(exp.sampled, exp.analysis["sigma"],
                                   exp.analysis["replicates"], exp.seed)
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
    model = SpacingModel(exp.sampled, exp.seed)
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
        _check_out_dir(exp.out_dir)
        written = _HANDLERS[args.command](exp)
    except (ValidationError, OutOfDomainError, OSError) as exc:
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
