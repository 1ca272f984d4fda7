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
    # |g'| peaks where g'' = 0, that is 1 - 3 t^4 = 0.
    assert abs(values["argmax t*"] - 3.0 ** -0.25) <= 1e-15
    assert 8.68 < values["Lipschitz"] <= BUMP_LIPSCHITZ
    assert 0.0 < values["area integral"] < 0.1


def test_calibrate_doubling_prints_its_table():
    # One E=25 field, about 0.8 s: the sign-change counts of each a1 over the lattice
    # of default_centers(2 a1 / lam) and its 100 random centers.
    done = run_script("calibrate_doubling.py", "--energy", "25", "--seeds", "1")
    assert done.returncode == 0, done.stderr
    assert done.stdout == (
        "[calibrate] E=25 seeds=1 grid=256\n"
        "[calibrate] a1= 0.5  sign_change=1450/4069  (35.635%)\n"
        "[calibrate] a1= 1.0  sign_change=753/1124  (66.993%)\n"
        "[calibrate] a1= 1.5  sign_change=484/541  (89.464%)\n"
        "[calibrate] a1= 2.0  sign_change=356/356  (100.000%)\n"
        "[calibrate] a1= 2.5  sign_change=269/269  (100.000%)\n"
        "[calibrate] a1= 3.0  sign_change=221/221  (100.000%)\n"
        "[calibrate] smallest exact a1 = 2.0  (Bessel bound j01 = 2.4048)\n")
