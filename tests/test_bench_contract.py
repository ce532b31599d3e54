"""The benchmark's tracer (perfbench/tracer.py) wraps lacsim functions at
module attributes named in its tables.  Every attribute it names must exist,
be replaced while the tracer is installed and be the original again after
`uninstall()`, or traced benchmark runs break."""
import importlib.util
from pathlib import Path

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
