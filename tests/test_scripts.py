"""The example scripts run end to end on small inputs."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script, args", [
    ("noise_and_spacing.py", ["--replicates", "1000"]),
    ("scale_run.py", ["--n", "1024", "--rounds", "5"]),
    ("scale_run.py", ["--rule", "dyn_exponential", "--n", "1024", "--rounds", "5",
                      "--noise-sigma", "0.3"]),
    ("oracle_sweep.py", ["--n", "16", "--rounds", "4"]),
    # the order perfbench's oracle-agreement cases sweep in
    ("oracle_sweep.py", ["--n", "16", "--rounds", "4", "--order", "i-outer"]),
])
def test_script_exits_zero(script, args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, str(ROOT / "scripts" / script)] + args,
                            env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout
