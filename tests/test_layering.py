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
from lacsim.static_rules import _check_integer

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


def test_the_oracle_borrows_no_code_of_the_rule_modules():
    # the oracle is the implementation the engine is checked against: of the
    # rule modules it takes only the rule classes and the integer check, so a
    # transition never enters it, directly or through a module re-exporting it
    rules = ("static_rules", "dynamic_rules", "arbitrary_weights")
    borrowed = []
    for node in ast.walk(ast.parse((PACKAGE / "oracle.py").read_text())):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            module = importlib.import_module(f"lacsim.{node.module}")
            for a in node.names:
                obj = getattr(module, a.name)
                if not (isinstance(obj, type) or obj is _check_integer
                        or node.module not in rules
                        and getattr(obj, "__module__", "").split(".")[-1] not in rules):
                    borrowed.append(f"{node.module}.{a.name}")
    assert not borrowed, f"the oracle imports code of the rule modules: {borrowed}"


def _callers() -> dict:
    """{path: syntax tree} of the code that may call the package: its modules
    but `__init__.py`, the scripts and the benchmark's non-test files."""
    root = PACKAGE.parents[1]
    paths = ([p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
             + sorted(root.glob("scripts/*.py"))
             + [p for p in sorted(root.glob("perfbench/*.py")) if not p.name.startswith("test_")])
    return {path: ast.parse(path.read_text(), str(path)) for path in paths}


def _public_classes(callers):
    return [node for path, tree in callers.items() if path.parent == PACKAGE
            for node in tree.body if isinstance(node, ast.ClassDef) and node.name[0] != "_"]


def _public_methods(cls):
    return [node for node in cls.body
            if isinstance(node, ast.FunctionDef) and node.name[0] != "_"]


def test_every_exported_name_has_a_caller_outside_the_tests():
    # a name the package exports earns its place by a use in the package
    # itself, a script or the benchmark: a load, an attribute or an import,
    # not its own definition and not `__init__.py`'s re-export
    exports = {a.asname or a.name for node in ast.parse((PACKAGE / "__init__.py").read_text()).body
               if isinstance(node, ast.ImportFrom) for a in node.names}
    used = set()
    for tree in _callers().values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    assert sorted(exports - used) == []


def test_every_public_method_has_a_caller_outside_its_class():
    # a method or property of a public class earns its place by an attribute
    # of its name outside the class: one reached only from its own class
    # (`WeightTable.weight`, once used only by `to_csv`) is not public surface
    callers = _callers()
    unreached = []
    for cls in _public_classes(callers):
        inside = set(map(id, ast.walk(cls)))
        reached = {node.attr for tree in callers.values() for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute) and id(node) not in inside}
        unreached += [f"{cls.name}.{m.name}" for m in _public_methods(cls) if m.name not in reached]
    assert unreached == []


def _defaulted(args: ast.arguments, bound: bool) -> list:
    """(name, position in a call or None for keyword-only) of each parameter
    with a default, the position counted after `self` or `cls` if `bound`."""
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    return ([(a.arg, j - bound) for j, a in enumerate(positional) if j >= first]
            + [(a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None])


def test_every_public_option_is_passed_by_a_caller():
    # a defaulted parameter of a public function or method, or a defaulted
    # field of a public dataclass, earns its place when some call of that
    # name outside its own definition passes it: by keyword, by position or
    # through * or **.  `cls(...)` in a class calls that class
    callers = _callers()
    calls = []  # (called name, call)
    for tree in callers.values():
        of_cls = {id(node): cls.name for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                  for node in ast.walk(cls) if isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Name) and node.func.id == "cls"}
        calls += [(of_cls.get(id(node)) or getattr(node.func, "id", None)
                   or getattr(node.func, "attr", None), node)
                  for node in ast.walk(tree) if isinstance(node, ast.Call)]

    def passed(name, param, position, inside):
        return any(called == name and id(call) not in inside and (
            any(isinstance(a, ast.Starred) for a in call.args)
            or any(k.arg in (None, param) for k in call.keywords)
            or position is not None and len(call.args) > position) for called, call in calls)

    options = []  # (name, parameter, position, ids of the nodes of its own definition)
    for path, tree in callers.items():
        if path.parent == PACKAGE:
            options += [(f.name, *p, set(map(id, ast.walk(f)))) for f in tree.body
                        if isinstance(f, ast.FunctionDef) and f.name[0] != "_"
                        for p in _defaulted(f.args, False)]
    for cls in _public_classes(callers):
        for m in _public_methods(cls):
            bound = not any(getattr(d, "id", None) == "staticmethod" for d in m.decorator_list)
            options += [(m.name, *p, set(map(id, ast.walk(m)))) for p in _defaulted(m.args, bound)]
        if any(getattr(getattr(d, "func", d), "id", None) == "dataclass"
               for d in cls.decorator_list):
            fields = [node for node in cls.body if isinstance(node, ast.AnnAssign)]
            options += [(cls.name, f.target.id, j, set())
                        for j, f in enumerate(fields) if f.value is not None]
    unpassed = [f"{name}({param})" for name, param, position, inside in options
                if not passed(name, param, position, inside)]
    assert unpassed == []


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
