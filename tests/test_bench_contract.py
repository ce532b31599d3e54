"""The benchmark's tracer (perfbench/tracer.py) wraps lacsim functions at
module attributes named in its tables.  Every attribute it names must exist,
be replaced while the tracer is installed and be the original again after
`uninstall()`, and what its hooks read of a run (the trace's audit, the
chain's halo depth, the CSV text) must still be there, or traced benchmark
runs break."""
import importlib.util
from pathlib import Path

import pytest

import lacsim.cli
import lacsim.spacing


def _load_tracer():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _targets(tracer):
    """(module, attribute) pairs that `Tracer.install()` replaces."""
    return ([(module, name) for module, name, _ in tracer.LEAVES]
            + [(module, "evaluate_field") for module, _ in tracer.FIELD_SITES]
            + [(module, name) for module, name, _ in tracer.SPANS]
            + [(lacsim.spacing, "_draw_gaps")])


def test_tracer_patches_existing_attributes_and_restores_them():
    tracer = _load_tracer()
    targets = _targets(tracer)
    missing = [f"{m.__name__}.{name}" for m, name in targets if not hasattr(m, name)]
    assert not missing, f"the tracer patches attributes that do not exist: {missing}"
    originals = [getattr(m, name) for m, name in targets]
    t = tracer.Tracer()
    t.install()
    try:
        replaced = [getattr(m, name) is not fn for (m, name), fn in zip(targets, originals)]
    finally:
        t.uninstall()
    assert all(replaced)
    assert all(getattr(m, name) is fn for (m, name), fn in zip(targets, originals))


def test_simulate_writes_what_cli_trace_to_csv_returns(tmp_path, monkeypatch):
    # perfbench's Capture and the tracer's csv hook replace
    # lacsim.cli.trace_to_csv: it takes the trace as its one positional
    # argument and returns the str that becomes <prefix>_trace.csv
    original, calls, returned = lacsim.cli.trace_to_csv, [], []

    def wrapper(*args, **kwargs):
        calls.append((args, kwargs))
        returned.append(original(*args, **kwargs))
        return returned[-1]

    monkeypatch.setattr(lacsim.cli, "trace_to_csv", wrapper)
    assert lacsim.cli.main(["simulate", "--out", str(tmp_path), "--set", "chain.n=9",
                            "--set", "chain.rounds=11", "--set", "algorithm.variant=dyn_window",
                            "--set", "algorithm.L=2"]) == 0
    assert len(calls) == 1
    (args, kwargs), = calls
    assert len(args) == 1 and not kwargs
    assert isinstance(returned[0], str)
    assert (tmp_path / "run_trace.csv").read_bytes() == returned[0].encode()


def test_a_traced_simulate_counts_its_runs_audit_sensor_rounds_and_csv(tmp_path, monkeypatch):
    # one `lacsim simulate` per case under the tracer, as `perfbench/run.py
    # --trace 1` runs them: the run and CSV hooks read the trace's audit, the
    # chain's halo depth and the str that becomes <prefix>_trace.csv
    weights = tmp_path / "w.csv"
    weights.write_text("sensor,offset,weight\n"
                       + "".join(f"{s},{o},1\n" for s in range(6) for o in (-1, 0, 1)))
    cases = [(["chain.n=9", "chain.rounds=4", "chain.boundary=zero_halo",
               "algorithm.variant=dyn_window", "algorithm.L=2"], (9 + 2 * 4) * 4),
             (["chain.n=6", "chain.rounds=2", "algorithm.variant=arbitrary",
               f"algorithm.weights_csv={weights}", "algorithm.K=3.0"], 6 * 2)]
    tracer, original, traces = _load_tracer(), lacsim.cli.run, []

    def keep(*args):
        traces.append(original(*args))
        return traces[-1]

    monkeypatch.setattr(lacsim.cli, "run", keep)
    for i, (settings, engine_sensor_rounds) in enumerate(cases):
        out = tmp_path / f"out{i}"
        t = tracer.Tracer()
        t.install()
        try:
            code = lacsim.cli.main(["simulate", "--out", str(out)]
                                   + [a for kv in settings for a in ("--set", kv)])
        finally:
            t.uninstall()
        assert code == 0
        metrics = t.layer_metrics(1, 0)
        assert metrics["chain.run_calls"] == 1
        assert metrics["chain.engine_sensor_rounds"] == engine_sensor_rounds
        assert metrics["chain.audit_records"] == len(traces[-1].audit) > 0
        assert t.csv_bytes == len((out / "run_trace.csv").read_bytes())


# each variant's settings on a chain of 8 sensors, and the tracer layer its
# round transitions are counted under: the dynamic window steps its slots
# through the static window transition
_FAMILIES = {
    "exponential": (["algorithm.rho=0.7"], "static_rules"),
    "asymmetric": (["algorithm.rho_b=0.5", "algorithm.rho_f=0.25"], "static_rules"),
    "window": (["algorithm.L=2"], "static_rules"),
    "variable_window": (["algorithm.lengths=2,2,3,3,3,2,2,2"], "static_rules"),
    "dyn_window": (["algorithm.L=2"], "static_rules"),
    "dyn_exponential": (["algorithm.rho=0.6"], "dynamic_rules"),
    "arbitrary": (["algorithm.weights_csv={w}", "algorithm.K=3.0"], "arbitrary_weights"),
}


@pytest.mark.parametrize("variant", _FAMILIES)
def test_a_traced_simulate_counts_transitions_under_its_rule_family_alone(tmp_path, variant):
    # a transition bound once into a table would bypass the module attributes
    # the tracer patches, and its family's count would drop to 0
    weights = tmp_path / "w.csv"
    weights.write_text("sensor,offset,weight\n"
                       + "".join(f"{s},{o},1\n" for s in range(8) for o in (-1, 0, 1)))
    rule, family = _FAMILIES[variant]
    settings = ["chain.n=8", "chain.rounds=4", f"algorithm.variant={variant}",
                *(kv.format(w=weights) for kv in rule)]
    t = _load_tracer().Tracer()
    t.install()
    try:
        code = lacsim.cli.main(["simulate", "--out", str(tmp_path / "out")]
                               + [a for kv in settings for a in ("--set", kv)])
    finally:
        t.uninstall()
    assert code == 0
    metrics = t.layer_metrics(1, 0)
    counts = {layer: metrics[f"{layer}.calls"]
              for layer in ("static_rules", "dynamic_rules", "arbitrary_weights")}
    assert counts.pop(family) > 0
    assert counts == {layer: 0 for layer in counts}
