"""The engine layer stands alone: it imports nothing from the modules built
on top of it, so the recursions and the closed-form oracles they are checked
against stay two independent implementations.  Imports a module keeps only
for the benchmark's tracer must still be ones it patches."""
import ast
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lacsim

PACKAGE = Path(lacsim.__file__).parent
ENGINE = ("chain", "static_rules", "dynamic_rules", "arbitrary_weights", "fields", "g17",
          "tables", "errors")
ABOVE = {"oracle", "analysis", "spacing", "config", "cli", "acceptance", "figures"}


def _imported_modules(path: Path) -> set:
    """Every lacsim module `path` imports, at module level or inside a function."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names.update(a.name.split(".")[1] for a in node.names
                         if a.name.startswith("lacsim."))
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0 and node.module and node.module.startswith("lacsim"):
                parts = node.module.split(".")
            elif node.level == 1:
                parts = ["lacsim"] + (node.module.split(".") if node.module else [])
            else:
                continue
            if len(parts) > 1:
                names.add(parts[1])
            else:  # from lacsim import x / from . import x
                names.update(a.name for a in node.names)
    return names


def test_every_engine_module_exists():
    assert {p.stem for p in PACKAGE.glob("*.py")} >= set(ENGINE) | ABOVE


@pytest.mark.parametrize("module", ENGINE)
def test_engine_module_imports_nothing_above_the_engine(module):
    assert _imported_modules(PACKAGE / f"{module}.py") & ABOVE == set()


def test_import_scan_sees_function_level_and_package_imports(tmp_path):
    source = tmp_path / "probe.py"
    source.write_text("from . import oracle\nimport lacsim.cli\n"
                      "def f():\n    from .analysis import bandwidth\n"
                      "    from lacsim.figures import write_figures\n")
    assert _imported_modules(source) == {"oracle", "cli", "analysis", "figures"}


@pytest.mark.parametrize("module", sorted(p.stem for p in PACKAGE.glob("*.py")))
def test_no_module_keeps_state_in_a_global_statement(module):
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    assert not any(isinstance(node, ast.Global) for node in ast.walk(tree))


def _tracer_patches() -> set:
    """(module name, attribute) pairs of lacsim modules that installing
    perfbench/tracer.py's tracer replaces."""
    path = PACKAGE.parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    modules = [importlib.import_module(f"lacsim.{p.stem}") for p in PACKAGE.glob("*.py")]
    before = {(m.__name__, name): value for m in modules for name, value in vars(m).items()}
    t = tracer.Tracer()
    t.install()
    try:
        return {key for key, value in before.items()
                if vars(sys.modules[key[0]]).get(key[1]) is not value}
    finally:
        t.uninstall()


def test_unused_imports_are_kept_only_for_the_tracer():
    # a name imported under `# noqa: F401` must be used in its module or be
    # one the tracer patches, so imports kept for it go when it stops needing them
    patched, stale = _tracer_patches(), []
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text()
        lines, tree = text.splitlines(), ast.parse(text)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if (isinstance(node, (ast.Import, ast.ImportFrom))
                    and "noqa: F401" in "".join(lines[node.lineno - 1:node.end_lineno])):
                stale += [f"{path.stem}.{name}" for name in
                          ((a.asname or a.name).split(".")[0] for a in node.names)
                          if name not in used and (f"lacsim.{path.stem}", name) not in patched]
    assert not stale, f"imported under noqa but neither used nor traced: {stale}"


def test_the_oracle_keeps_no_copy_of_the_rule_and_chain_checks():
    # a rule's numbers are checked by its class and its fit to a chain by
    # chain.check_fit, for the engine and the oracle alike; the oracle's own
    # copies of these checks once drifted from the engine's
    tree = ast.parse((PACKAGE / "oracle.py").read_text())
    imported = {a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                for a in node.names}
    defined = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    assert imported & {"_check_rho", "_check_half_width", "_check_half_widths"} == set()
    assert "_check_ring" not in defined


def test_per_sensor_window_run_leaves_the_oracle_unloaded():
    script = (
        "import sys\n"
        "from lacsim.chain import ChainConfig, ZeroHalo, run\n"
        "from lacsim.fields import Constant, MeasurementField\n"
        "from lacsim.static_rules import PerSensorWindow\n"
        "run(ChainConfig(n=8, boundary=ZeroHalo(), rounds=3),\n"
        "    MeasurementField(Constant(1.0)), PerSensorWindow((1, 2, 2, 3, 3, 2, 1, 1)))\n"
        "print(sorted(m for m in sys.modules if m.startswith('lacsim')))\n")
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)}, check=True)
    loaded = ast.literal_eval(done.stdout)
    assert "lacsim.chain" in loaded
    assert "lacsim.oracle" not in loaded
