import os
import subprocess
import sys
from pathlib import Path

import pytest

from torusnodal.harness import BUMP_LIPSCHITZ

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, env=env, timeout=120)


@pytest.mark.parametrize("name", ["calibrate_doubling.py", "stage_memory.py", "yau_baseline.py"])
def test_script_imports_and_prints_help(name):
    # --help exits only after the script's package imports have resolved.
    done = run_script(name, "--help")
    assert done.returncode == 0, done.stderr
    assert "usage:" in done.stdout


def test_bump_constants_bound_the_frozen_lipschitz_constant():
    done = run_script("bump_constants.py")
    assert done.returncode == 0, done.stderr
    # Each line ends in "= value", a plain float repr (float() rejects "np.float64(...)").
    values = {}
    for line in done.stdout.splitlines():
        head, _, value = line.split("  (frozen")[0].rpartition("= ")
        values[head.removeprefix("[bump] ").split("=")[0].strip()] = float(value)
    assert 0.0 < values["Lipschitz"] <= BUMP_LIPSCHITZ
    assert 0.75 < values["argmax t*"] < 0.77
    assert 0.0 < values["area integral"] < 0.1
