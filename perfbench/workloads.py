"""Workload inputs, generated from the seed, and the operations one round runs.

A workload is a fixed list of operations.  Each round runs the whole list,
so the attempted and failed counts of a run are whole multiples of one
round's.  Every operation reaches lacsim through module attributes
(`lacsim.cli.main`, `lacsim.chain.run`, `lacsim.oracle.*`, ...) so the
tracer's wrappers, installed at those names, see every call.

Besides its own operations, each workload runs a small fixed set of
reference operations of the kinds it lacks (see README.md), so every
end-to-end metric and every layer is measured in every workload.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from pathlib import Path

import numpy as np

import lacsim.analysis
import lacsim.chain
import lacsim.cli
import lacsim.oracle
import lacsim.spacing
from lacsim.analysis import GlobalAverage
from lacsim.arbitrary_weights import BandedWeighting, WeightTable
from lacsim.chain import ChainConfig, Ring, Truncated, ZeroHalo
from lacsim.dynamic_rules import DynamicExponential, DynamicWindow
from lacsim.fields import (MeasurementField, Noise, SpatialCosine, TableField,
                           TemporalCosine, random_space_time_table, random_spatial_table)
from lacsim.spacing import ExpGaps, SpacingModel, UniformGaps
from lacsim.static_rules import (AsymmetricWeighting, ExponentialWeighting, FiniteWindow,
                                 PerSensorWindow)

import checks

SAMPLED_POINTS = 48       # oracle-checked (sensor, round) points per simulate case
NOISE_SIGMA = 0.1         # measurement noise of the noisy simulate cases


class OpFailed(Exception):
    """The program did not complete the operation (e.g. a non-zero exit code)."""


class Op:
    """One operation of a round.  `kind` names the throughput it feeds
    (sim, check, mc_noise, mc_spacing) or is None for a verification-only
    operation; `units` is the work it does in that throughput's unit."""

    kind: str | None = None
    units: int = 0
    name: str = ""

    def run(self):
        raise NotImplementedError

    def check(self, result, first: bool) -> list[str]:
        return []

    def bytes_written(self, result) -> int:
        return 0


# -- rules --------------------------------------------------------------------

class Rule:
    """An update rule as the CLI sees it (INI keys plus `--set` overrides) and
    as the oracle sees it (an algorithm object and a closed-form target)."""

    def __init__(self, variant, algo, ini, overrides, target):
        self.variant = variant
        self.algo = algo
        self.ini = ini
        # configparser lowercases INI keys, so L and K only reach the
        # configuration through --set
        self.overrides = overrides
        self.target = target  # (field, i, k, n, boundary) -> float
        self.dynamic = isinstance(algo, (DynamicExponential, DynamicWindow))


def standard_rules(widths, table: WeightTable, weights_csv: str | None = None) -> list[Rule]:
    """The seven rules with the parameters of acceptance criterion 1."""
    o = lacsim.oracle
    return [
        Rule("exponential", ExponentialWeighting(0.8), {"rho": "0.8"}, [],
             lambda f, i, k, n, b: o.exp_target(f, i, 0.8, n=n, boundary=b, k=k)),
        Rule("asymmetric", AsymmetricWeighting(0.5, 0.25), {"rho_b": "0.5", "rho_f": "0.25"}, [],
             lambda f, i, k, n, b: o.asym_target(f, i, 0.5, 0.25, n=n, boundary=b, k=k)),
        Rule("window", FiniteWindow(5), {}, ["algorithm.L=5"],
             lambda f, i, k, n, b: o.window_target(f, i, 5, n=n, boundary=b, k=k)),
        Rule("variable_window", PerSensorWindow(tuple(widths)),
             {"lengths": ",".join(map(str, widths))}, [],
             lambda f, i, k, n, b: o.variable_window_target(f, i, widths, n=n, boundary=b, k=k)),
        Rule("arbitrary", BandedWeighting(table), {"weights_csv": weights_csv},
             [f"algorithm.K={table.row_sum!r}"],
             lambda f, i, k, n, b: o.arbitrary_target(f, i, table, k, n=n, boundary=b)),
        Rule("dyn_exponential", DynamicExponential(0.8), {"rho": "0.8"}, [],
             lambda f, i, k, n, b: o.dyn_exp_target(f, i, k, 0.8, n=n, boundary=b)),
        Rule("dyn_window", DynamicWindow(3), {}, ["algorithm.L=3"],
             lambda f, i, k, n, b: o.dyn_window_target(f, i, k, 3, n=n, boundary=b)),
    ]


def criterion_widths(n: int) -> tuple:
    """The per-sensor half-width profile of acceptance criterion 1."""
    block = (4, 4, 5, 5, 6, 6, 6, 6, 5, 5, 4, 4, 4, 4, 4, 4)
    return (block * (n // len(block) + 1))[:n]


def random_widths(n: int, rng: np.random.Generator) -> list[int]:
    """Half-widths in [3, 6] whose neighbours, ring wrap included, differ by
    at most one: a random walk mirrored onto itself."""
    half = [int(rng.integers(3, 7))]
    for _ in range(n // 2 - 1):
        half.append(int(np.clip(half[-1] + rng.integers(-1, 2), 3, 6)))
    return half + half[::-1]


def _boundary(name: str):
    return {"ring": Ring(), "zero_halo": ZeroHalo(), "truncated": Truncated()}[name]


def _oracle_boundary(name: str):
    # truncated chains are checked in their interior against the zero-extended line
    return Ring() if name == "ring" else ZeroHalo()


# -- input files --------------------------------------------------------------

def _csv(header: str, rows) -> str:
    return header + "\n" + "".join(",".join(map(str, r)) + "\n" for r in rows)


def write_static_table(path: Path, values: np.ndarray) -> MeasurementField:
    path.write_text(_csv("sensor,value", ((i, repr(float(v))) for i, v in enumerate(values))))
    return MeasurementField(TableField(values))


def write_space_time_table(path: Path, values: np.ndarray) -> MeasurementField:
    n, steps = values.shape
    path.write_text(_csv("sensor,step,value",
                         ((i, k, repr(float(values[i, k])))
                          for i in range(n) for k in range(steps))))
    return MeasurementField(TableField(values))


def write_weights(path: Path, weights: np.ndarray, row_sum: float) -> WeightTable:
    radius = weights.shape[1] // 2
    path.write_text(_csv("sensor,offset,weight",
                         ((s, j - radius, repr(float(weights[s, j])))
                          for s in range(weights.shape[0]) for j in range(weights.shape[1]))))
    return WeightTable(weights, row_sum, radius)


def write_ini(path: Path, sections: dict) -> None:
    path.write_text("".join(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items()) + "\n"
                            for name, keys in sections.items()))


# -- simulate operations ------------------------------------------------------

class Capture:
    """Keeps the trace `lacsim.cli` hands to `trace_to_csv`, so the written
    CSV can be compared with the in-memory trace (check round only)."""

    def __init__(self):
        self.trace = None
        self._original = None

    def install(self):
        self._original = original = lacsim.cli.trace_to_csv

        def capture(trace):
            self.trace = trace
            return original(trace)

        lacsim.cli.trace_to_csv = capture

    def uninstall(self):
        lacsim.cli.trace_to_csv = self._original
        self._original = None

    def take(self):
        trace, self.trace = self.trace, None
        return trace


def _cli(args: list[str]) -> list[Path]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = lacsim.cli.main(args)
    if code != 0:
        raise OpFailed(f"lacsim {args[0]} exited {code}: {err.getvalue().strip()}")
    return [Path(p) for p in out.getvalue().split()]


def _find(paths, suffix: str) -> Path:
    return next(p for p in paths if p.name.endswith(suffix))


class SimCase(Op):
    """`lacsim simulate` on one INI file through `lacsim.cli.main`."""

    kind = "sim"

    def __init__(self, name, ini: Path, out_dir: Path, rule: Rule, field: MeasurementField,
                 n: int, rounds: int, boundary: str, capture: Capture, rng):
        self.name, self.ini, self.out_dir, self.rule, self.field = name, ini, out_dir, rule, field
        self.n, self.rounds, self.boundary = n, rounds, boundary
        self.capture = capture
        self.units = n * rounds
        self.args = ["simulate", "--config", str(ini), "--out", str(out_dir)]
        for item in rule.overrides:
            self.args += ["--set", item]
        if boundary == "truncated":
            self.points = checks.interior_points(n, rounds, SAMPLED_POINTS, rng)
        else:
            self.points = [(int(rng.integers(n)), int(rng.integers(rounds + 1)))
                           for _ in range(SAMPLED_POINTS)] + [(0, rounds), (n - 1, rounds)]
        self.digest = None

    def run(self):
        self.last_paths = _cli(self.args)
        return self.last_paths, self.capture.take()

    def bytes_written(self, result) -> int:
        return sum(p.stat().st_size for p in result[0])

    def csv_path(self, paths) -> Path:
        return _find(paths, "_trace.csv")

    def check(self, result, first: bool) -> list[str]:
        paths, trace = result
        data = self.csv_path(paths).read_bytes()
        digest = hashlib.sha256(data).hexdigest()
        if not first:
            return [] if digest == self.digest else [f"{self.name}: CSV changed between rounds"]
        self.digest = digest
        if trace is None:
            return [f"{self.name}: no trace reached trace_to_csv"]
        text = data.decode()
        problems = checks.roundtrip_problems(text, trace.y, trace.z)
        meta = json.loads(_find(paths, "_metadata.json").read_text())
        if "config_ini" not in meta:
            problems.append(f"{self.name}: metadata embeds no config_ini")
        y, _ = checks.parse_trace_csv(text)
        b = _oracle_boundary(self.boundary)
        expected = [self.rule.target(self.field, i, k, self.n, b) for i, k in self.points]
        problems += checks.agreement_problems([y[i, k] for i, k in self.points], expected,
                                              lambda j: "i={} k={}".format(*self.points[j]))
        return [f"{self.name}: {p}" for p in problems]


class RerunCase(Op):
    """Rerun a simulate case from the `config_ini` its metadata embeds; the
    CSV must come out byte for byte the same."""

    def __init__(self, source: SimCase, inputs: Path, out_dir: Path):
        self.source = source
        self.name = f"rerun {source.name}"
        # relative input paths in the embedded INI resolve against its directory
        self.ini = inputs / f"rerun_{source.name}.ini"
        self.args = ["simulate", "--config", str(self.ini), "--out", str(out_dir)]

    def run(self):
        meta = json.loads(_find(self.source.last_paths, "_metadata.json").read_text())
        self.ini.write_text(meta["config_ini"])
        return _cli(self.args)

    def bytes_written(self, result) -> int:
        return sum(p.stat().st_size for p in result)

    def check(self, result, first: bool) -> list[str]:
        original = self.source.csv_path(self.source.last_paths).read_bytes()
        return checks.bytes_problems(_find(result, "_trace.csv").read_bytes(), original,
                                     self.name)


# -- oracle-agreement operations ---------------------------------------------

class OracleCase(Op):
    """Run the engine directly, then evaluate the closed form at every
    (sensor, round): the work of acceptance criterion 1."""

    kind = "check"

    def __init__(self, name, rule: Rule, field, n: int, rounds: int, boundary: str):
        self.name, self.rule, self.field = name, rule, field
        self.n, self.rounds = n, rounds
        self.config = ChainConfig(n=n, boundary=_boundary(boundary), rounds=rounds)
        self.oracle_boundary = _oracle_boundary(boundary)
        self.units = n * (rounds + 1)

    def run(self):
        trace = lacsim.chain.run(self.config, self.field, self.rule.algo)
        n, b, target, f = self.n, self.oracle_boundary, self.rule.target, self.field
        expected = [[target(f, i, k, n, b) for k in range(self.rounds + 1)] for i in range(n)]
        return trace.y, expected

    def check(self, result, first: bool) -> list[str]:
        y, expected = result
        return checks.agreement_problems(
            y.ravel(), np.asarray(expected).ravel(),
            lambda j: "{} i={} k={}".format(self.name, *divmod(j, self.rounds + 1)))


# -- Monte Carlo operations ---------------------------------------------------

class NoiseCase(Op):
    kind = "mc_noise"

    def __init__(self, target: str, param, sigma: float, replicates: int, seed: int):
        self.target, self.param, self.sigma, self.seed = target, param, sigma, seed
        self.units = replicates
        self.name = f"noise {target}={param} seed={seed}"
        self.spec = {"exponential": ExponentialWeighting, "window": FiniteWindow,
                     "global": GlobalAverage}[target](param)
        self.first = None

    def run(self):
        return lacsim.analysis.monte_carlo_noise(self.spec, self.sigma, self.units, self.seed)

    def check(self, report, first: bool) -> list[str]:
        if first:
            self.first = report
            return checks.noise_problems(report, self.target, self.param, self.sigma)
        return [] if report == self.first else [f"{self.name}: result changed between rounds"]


class SpacingCase(Op):
    kind = "mc_spacing"

    def __init__(self, law: str, rho: float, eta, replicates: int, seed: int):
        self.law, self.rho, self.eta, self.seed = law, rho, eta, seed
        self.units = replicates
        self.name = f"spacing {law} seed={seed}"
        self.model = SpacingModel(ExpGaps() if law == "exp_density" else UniformGaps(eta), seed)
        self.first = None

    def run(self):
        return lacsim.spacing.monte_carlo_spacing(self.rho, self.model, self.units)

    def check(self, report, first: bool) -> list[str]:
        if first:
            self.first = report
            return checks.spacing_problems(report, self.law, self.rho, self.eta)
        return [] if report == self.first else [f"{self.name}: result changed between rounds"]


# -- workloads ----------------------------------------------------------------

def interleave(main: list, groups: list) -> list:
    """Spread each group of reference operations evenly through the
    workload's own, so each kind is timed across the whole round."""
    slots = sorted(((j + 0.5) / len(group), k, j) for k, group in enumerate(groups)
                   for j in range(len(group)))
    ops = list(main)
    for position, k, j in reversed(slots):  # back to front keeps earlier indices valid
        ops.insert(round(position * len(main)), groups[k][j])
    return ops


class Workload:
    """Inputs written under `work`, and the operations of one round."""

    def __init__(self, name: str, seed: int, work: Path):
        self.name = name
        self.seed = seed
        self.inputs = work / "inputs"
        self.out = work / "out"
        self.rerun_out = work / "rerun"
        for d in (self.inputs, self.out, self.rerun_out):
            d.mkdir(parents=True, exist_ok=True)
        self.capture = Capture()
        main = {"simulate": self._simulate, "oracle-agreement": self._oracle_agreement,
                "monte-carlo": self._monte_carlo}[name]()
        kinds = {op.kind for op in main}
        references = {"sim": self._reference_sim, "check": self._reference_check,
                      "mc_noise": self._reference_noise, "mc_spacing": self._reference_spacing}
        self.ops: list[Op] = interleave(main, [make() for kind, make in references.items()
                                               if kind not in kinds])

    def _rng(self, salt: str) -> np.random.Generator:
        return np.random.default_rng([self.seed, int.from_bytes(salt.encode(), "little")])

    def _int(self, salt: str) -> int:
        return int(self._rng(salt).integers(1, 2 ** 31))

    def _sim_case(self, name, rule, field_keys, field, n, rounds, boundary, rng, seed=None):
        chain = {"n": n, "boundary": boundary, "rounds": rounds}
        if seed is not None:
            chain["master_seed"] = seed
        algorithm = {"variant": rule.variant}
        algorithm.update({k: v for k, v in rule.ini.items() if v is not None})
        ini = self.inputs / f"{name}.ini"
        write_ini(ini, {"chain": chain, "field": field_keys, "algorithm": algorithm,
                        "output": {"prefix": name}})
        return SimCase(name, ini, self.out, rule, field, n, rounds, boundary, self.capture, rng)

    def _noisy_case(self, name, rule, n, rounds, rng) -> SimCase:
        seed = self._int(f"{name}-noise")
        omega = 2.0 * math.pi * int(rng.integers(1, 64)) / n
        field = MeasurementField(SpatialCosine(1.0, omega), noise=Noise(NOISE_SIGMA, seed=seed))
        keys = {"kind": "spatial_cosine", "amplitude": "1.0", "omega": repr(omega),
                "noise_sigma": repr(NOISE_SIGMA)}
        return self._sim_case(name, rule, keys, field, n, rounds, "ring", rng, seed=seed)

    def _simulate(self) -> list[Op]:
        """All seven rules on three boundaries at n=1024, one noisy case and
        one long chain, each through the whole `lacsim simulate` path."""
        n, rounds = 1024, 12
        rng = self._rng("simulate")
        static = write_static_table(self.inputs / "static.csv", rng.uniform(-1, 1, n))
        dynamic = write_space_time_table(self.inputs / "dynamic.csv",
                                         rng.uniform(-1, 1, (n, rounds + 1)))
        table = write_weights(self.inputs / "weights.csv", rng.uniform(0.5, 1.5, (n, 9)), 9.0)
        rules = standard_rules(random_widths(n, rng), table, "weights.csv")
        ops = []
        for boundary in ("ring", "zero_halo", "truncated"):
            for rule in rules:
                keys = {"kind": "table", "csv": "dynamic.csv" if rule.dynamic else "static.csv"}
                ops.append(self._sim_case(f"{rule.variant}_{boundary}", rule, keys,
                                          dynamic if rule.dynamic else static,
                                          n, rounds, boundary, rng))
        noisy = self._noisy_case("noisy_dyn_exponential_ring", rules[5], n, rounds, rng)
        long_n, long_rounds = 65536, 3
        long_field = write_static_table(self.inputs / "long.csv", rng.uniform(-1, 1, long_n))
        ops += [noisy, self._sim_case("long_exponential_ring", rules[0],
                                      {"kind": "table", "csv": "long.csv"},
                                      long_field, long_n, long_rounds, "ring", rng)]
        # the window rerun fails on this program: config_to_ini writes `L`,
        # which configparser reads back as `l` (see README.md)
        window_ring = next(op for op in ops if op.name == "window_ring")
        return ops + [RerunCase(case, self.inputs, self.rerun_out) for case in (noisy, window_ring)]

    def _reference_sim(self) -> list[Op]:
        """Six smaller simulate cases, two seeds of each of: a static rule on
        a noisy field, a dynamic rule and banded weights, one per boundary."""
        n, rounds = 512, 24
        rng = self._rng("ref-sim")
        table = write_weights(self.inputs / "ref_weights.csv", rng.uniform(0.5, 1.5, (n, 7)), 7.0)
        rules = {r.variant: r for r in standard_rules(random_widths(n, rng), table,
                                                      "ref_weights.csv")}
        static = write_static_table(self.inputs / "ref_static.csv", rng.uniform(-1, 1, n))
        ops = []
        for j in range(2):
            t_omega = float(rng.uniform(0.05, 0.5))
            ops += [
                self._noisy_case(f"ref_exponential_ring_{j}", rules["exponential"], n, rounds,
                                 rng),
                self._sim_case(f"ref_dyn_window_zero_halo_{j}", rules["dyn_window"],
                               {"kind": "temporal_cosine", "amplitude": "1.0",
                                "omega": repr(t_omega)},
                               MeasurementField(TemporalCosine(1.0, t_omega)), n, rounds,
                               "zero_halo", rng),
                self._sim_case(f"ref_arbitrary_truncated_{j}", rules["arbitrary"],
                               {"kind": "table", "csv": "ref_static.csv"}, static, n, rounds,
                               "truncated", rng),
            ]
        return ops

    def _oracle_cases(self, n, rounds, seeds, boundaries) -> list[Op]:
        ops = []
        for s in seeds:
            static = MeasurementField(random_spatial_table(n, s))
            dynamic = MeasurementField(random_space_time_table(n, rounds + 1, s + 100))
            rules = standard_rules(criterion_widths(n), WeightTable.geometric(0.6, 20, n))
            for boundary in boundaries:
                ops += [OracleCase(f"{rule.variant} {boundary} seed={s}", rule,
                                   dynamic if rule.dynamic else static, n, rounds, boundary)
                        for rule in rules]
        return ops

    def _oracle_agreement(self) -> list[Op]:
        """Criterion 1's cases: every rule, n=64, 40 rounds, three field seeds."""
        seeds = [self._int(f"oracle-{j}") for j in range(3)]
        return self._oracle_cases(64, 40, seeds, ("ring", "zero_halo"))

    def _reference_check(self) -> list[Op]:
        return self._oracle_cases(64, 40, [self._int("ref-oracle")], ("ring", "zero_halo"))

    @staticmethod
    def _noise_cases(replicates: int, seed: int) -> list[Op]:
        return [NoiseCase(target, param, 1.0, replicates, seed)
                for target, param in (("exponential", 0.8), ("window", 5), ("global", 100))]

    @staticmethod
    def _spacing_cases(replicates: int, seed: int) -> list[Op]:
        return [SpacingCase("exp_density", 0.5, None, replicates, seed),
                SpacingCase("uniform", 0.5, 0.3, replicates, seed)]

    def _monte_carlo(self) -> list[Op]:
        """Noise variance for three targets and spacing statistics for two
        gap laws, each over two seeds."""
        ops = []
        for j in range(2):
            seed = self._int(f"mc-{j}")
            ops += self._noise_cases(10000, seed) + self._spacing_cases(10000, seed)
        return ops

    def _reference_noise(self) -> list[Op]:
        return [op for j in range(2) for op in self._noise_cases(8000, self._int(f"ref-noise-{j}"))]

    def _reference_spacing(self) -> list[Op]:
        return [op for j in range(2)
                for op in self._spacing_cases(12000, self._int(f"ref-spacing-{j}"))]


WORKLOADS = ("simulate", "oracle-agreement", "monte-carlo")
