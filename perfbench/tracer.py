"""Per-layer tracing from outside the program.

`Tracer.install()` replaces lacsim's public functions at the module
attributes their callers look up (for example `lacsim.chain.evaluate_field`,
which the engine calls, and `lacsim.oracle.evaluate_field`, which the
oracles call).  Outer calls (an engine run, CSV serialisation, an oracle
target, a Monte Carlo function, a CLI invocation, configuration) record a span
each; per-sensor calls (field evaluation, rule transitions) record only a
count and summed time.  A layer's self time is its time minus the time of
the traced calls made inside it.  `uninstall()` restores every attribute.
"""
from __future__ import annotations

import time
from collections import defaultdict

import lacsim.analysis
import lacsim.chain
import lacsim.cli
import lacsim.oracle
import lacsim.spacing
from lacsim.chain import ZeroHalo

# (module, attribute, layer key) of functions called once per sensor-round
# or per field point: counted, not spanned
LEAVES = [
    (lacsim.chain, "exp_transition", "static_rules"),
    (lacsim.chain, "asym_transition", "static_rules"),
    (lacsim.chain, "window_transition", "static_rules"),
    (lacsim.chain, "variable_window_transition", "static_rules"),
    (lacsim.chain, "dyn_exp_transition", "dynamic_rules"),
    (lacsim.chain, "z_slot_transition", "dynamic_rules"),
    (lacsim.chain, "assemble_y", "dynamic_rules"),
    (lacsim.chain, "fb_transition", "arbitrary_weights"),
    (lacsim.chain, "glue", "arbitrary_weights"),
    (lacsim.chain, "validate_weights", "arbitrary_weights"),
    (lacsim.cli, "validate_weights", "arbitrary_weights"),
]
FIELD_SITES = [(lacsim.chain, "chain"), (lacsim.oracle, "oracle")]
ORACLE_TARGETS = ["exp_target", "asym_target", "window_target", "variable_window_target",
                  "arbitrary_target", "dyn_exp_target", "dyn_window_target"]
# (module, attribute, layer key) of outer calls: one span each
SPANS = [
    (lacsim.chain, "run", "chain"),
    (lacsim.cli, "run", "chain"),
    (lacsim.cli, "trace_to_csv", "chain.csv"),
    (lacsim.cli, "main", "cli"),
    (lacsim.cli, "read_ini", "config"),
    (lacsim.cli, "merge_settings", "config"),
    (lacsim.cli, "resolve", "config"),
    (lacsim.cli, "config_to_ini", "config"),
    (lacsim.analysis, "monte_carlo_noise", "analysis.mc_noise"),
    (lacsim.spacing, "monte_carlo_spacing", "spacing.mc"),
] + [(lacsim.oracle, name, "oracle") for name in ORACLE_TARGETS]


class Stat:
    __slots__ = ("calls", "self_ns", "total_ns")

    def __init__(self):
        self.calls = 0
        self.self_ns = 0
        self.total_ns = 0


class Tracer:
    def __init__(self):
        self.stats: dict[str, Stat] = defaultdict(Stat)
        self.spans: list[tuple] = []    # (id, parent id, request, name, start ns, end ns)
        self.request = 0                # set by the caller before each operation
        self.engine_sensor_rounds = 0   # sensor positions the engine loop visits, ghosts included
        self.useful_sensor_rounds = 0   # real sensors only
        self.audit_records = 0
        self.csv_bytes = 0
        self.gaps = 0
        self._children: list[int] = []  # traced time spent inside each open span
        self._span_ids: list[int] = []
        self._saved: list[tuple] = []

    # -- wrappers --------------------------------------------------------

    def _leaf(self, fn, stat: Stat):
        clock, children = time.perf_counter_ns, self._children

        def leaf(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stat.calls += 1
                stat.self_ns += dt
                if children:
                    children[-1] += dt

        return leaf

    def _field(self, fn, site: str):
        clock, children = time.perf_counter_ns, self._children
        plain, noisy = self.stats[f"fields.{site}"], self.stats[f"fields.{site}.noisy"]

        def evaluate_field(field, *args, **kwargs):
            t0 = clock()
            try:
                return fn(field, *args, **kwargs)
            finally:
                dt = clock() - t0
                stat = noisy if field.noise is not None and field.noise.sigma > 0 else plain
                stat.calls += 1
                stat.self_ns += dt
                if children:
                    children[-1] += dt

        return evaluate_field

    def _span(self, fn, name: str, stat: Stat, after=None):
        clock, children = time.perf_counter_ns, self._children
        ids, spans = self._span_ids, self.spans

        def span(*args, **kwargs):
            sid = len(spans)
            parent = ids[-1] if ids else -1
            spans.append(None)  # reserve the id; filled on exit
            ids.append(sid)
            children.append(0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                ids.pop()
                inner = children.pop()
                dt = t1 - t0
                stat.calls += 1
                stat.total_ns += dt
                stat.self_ns += dt - inner
                if children:
                    children[-1] += dt
                spans[sid] = (sid, parent, self.request, name, t0, t1)
            if after is not None:
                after(args, result)
            return result

        return span

    def _after_run(self, args, trace):
        config = args[0]
        size = config.n + (2 * config.halo_depth() if isinstance(config.boundary, ZeroHalo) else 0)
        self.engine_sensor_rounds += size * config.rounds
        self.useful_sensor_rounds += config.n * config.rounds
        self.audit_records += len(trace.audit)

    def _after_csv(self, args, text):
        self.csv_bytes += len(text.encode())

    # -- install / uninstall ---------------------------------------------

    def _patch(self, module, name, wrapper):
        self._saved.append((module, name, getattr(module, name)))
        setattr(module, name, wrapper)

    def install(self):
        for module, name, key in LEAVES:
            self._patch(module, name, self._leaf(getattr(module, name), self.stats[key]))
        for module, site in FIELD_SITES:
            self._patch(module, "evaluate_field", self._field(module.evaluate_field, site))
        draw = lacsim.spacing._draw_gaps

        def draw_gaps(law, count, rng):  # counted for spacing.ns_per_gap; its time stays in spacing
            self.gaps += count
            return draw(law, count, rng)

        self._patch(lacsim.spacing, "_draw_gaps", draw_gaps)
        hooks = {"run": self._after_run, "trace_to_csv": self._after_csv}
        for module, name, key in SPANS:
            self._patch(module, name, self._span(getattr(module, name), name, self.stats[key],
                                                 hooks.get(name)))

    def uninstall(self):
        while self._saved:
            module, name, fn = self._saved.pop()
            setattr(module, name, fn)

    # -- results ---------------------------------------------------------

    def layer_metrics(self, rounds: int, cli_bytes: int) -> dict:
        """Per-layer figures per round of the workload."""
        s = self.stats

        def per_round(value):
            return value / rounds

        field_calls = sum(v.calls for k, v in s.items() if k.startswith("fields."))
        field_ns = sum(v.self_ns for k, v in s.items() if k.startswith("fields."))
        noisy = [v for k, v in s.items() if k.startswith("fields.") and k.endswith(".noisy")]
        noisy_calls = sum(v.calls for v in noisy)
        noisy_ns = sum(v.self_ns for v in noisy)
        run, csv, oracle = s["chain"], s["chain.csv"], s["oracle"]
        oracle_evals = s["fields.oracle"].calls + s["fields.oracle.noisy"].calls
        spacing = s["spacing.mc"]

        def ratio(num, den):
            return num / den if den else 0.0

        return {
            "fields.evals": per_round(field_calls),
            "fields.self_s": per_round(field_ns / 1e9),
            "fields.noisy_ns_per_eval": ratio(noisy_ns, noisy_calls),
            "chain.run_calls": per_round(run.calls),
            "chain.self_s": per_round(run.self_ns / 1e9),
            "chain.ns_per_sensor_round": ratio(run.self_ns, self.engine_sensor_rounds),
            "chain.engine_sensor_rounds": per_round(self.engine_sensor_rounds),
            "chain.useful_sensor_round_ratio": ratio(self.useful_sensor_rounds,
                                                     self.engine_sensor_rounds),
            "chain.audit_records": per_round(self.audit_records),
            "chain.csv_s": per_round(csv.self_ns / 1e9),
            "chain.csv_mb_per_s": ratio(self.csv_bytes / 1e6, csv.self_ns / 1e9),
            "cli.bytes_written": per_round(cli_bytes),
            "cli.other_s": per_round(s["cli"].self_ns / 1e9),
            "static_rules.calls": per_round(s["static_rules"].calls),
            "static_rules.self_s": per_round(s["static_rules"].self_ns / 1e9),
            "dynamic_rules.calls": per_round(s["dynamic_rules"].calls),
            "dynamic_rules.self_s": per_round(s["dynamic_rules"].self_ns / 1e9),
            "arbitrary_weights.calls": per_round(s["arbitrary_weights"].calls),
            "arbitrary_weights.self_s": per_round(s["arbitrary_weights"].self_ns / 1e9),
            "oracle.targets": per_round(oracle.calls),
            "oracle.self_s": per_round(oracle.self_ns / 1e9),
            "oracle.us_per_target": ratio(oracle.self_ns / 1e3, oracle.calls),
            "oracle.field_evals_per_target": ratio(oracle_evals, oracle.calls),
            "analysis.mc_noise_s": per_round(s["analysis.mc_noise"].total_ns / 1e9),
            "spacing.mc_s": per_round(spacing.total_ns / 1e9),
            "spacing.ns_per_gap": ratio(spacing.total_ns, self.gaps),
            "config.resolve_s": per_round(s["config"].self_ns / 1e9),
        }

    def write_spans(self, path) -> None:
        with open(path, "w") as out:
            out.write("id,parent,request,name,start_ns,end_ns\n")
            for span in self.spans:
                out.write(",".join(map(str, span)) + "\n")
