import json
import subprocess
import sys

import numpy as np
import pytest

from torusnodal.cli import main
from torusnodal.eigenbasis import sine_mode_spec, spec_to_json
from torusnodal.harness import ExperimentPlan


def write_plan(tmp_path, **kwargs) -> str:
    defaults = dict(
        energies=(65,), seeds_per_energy=1, include_low_energy_control=False
    )
    defaults.update(kwargs)
    plan = ExperimentPlan(**defaults)
    path = tmp_path / "plan.json"
    path.write_text(plan.to_json())
    return str(path)


# ---------------------------------------------------------------- parsing


def test_help_exits_zero():
    for argv in (["--help"], ["modes", "--help"], ["verify", "--help"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0


def test_unknown_command_is_a_usage_error():
    proc = subprocess.run(
        [sys.executable, "-m", "torusnodal.cli", "frobnicate"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 1
    assert "invalid choice" in proc.stderr


def test_missing_required_argument_exits_one():
    proc = subprocess.run(
        [sys.executable, "-m", "torusnodal.cli", "cover"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 1


# ---------------------------------------------------------------- modes


def test_modes_lists_lattice_points(capsys):
    assert main(["modes", "--energy", "65"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert "[modes] E=65 count=16" in lines[-1]
    assert len(lines) == 17
    assert lines[0] == "-8,-1"


def test_modes_empty_spectrum_is_a_notice_not_an_error(capsys):
    assert main(["modes", "--energy", "3"]) == 0
    assert "empty spectrum at E=3" in capsys.readouterr().out


def test_modes_invalid_energy_exits_one(capsys):
    assert main(["modes", "--energy", "-5"]) == 1
    assert "[error]" in capsys.readouterr().err


# ---------------------------------------------------------------- gen/nodal


def test_gen_writes_deterministic_spec(tmp_path, capsys):
    assert main(["gen", "--energy", "65", "--seed", "7", "--out", str(tmp_path)]) == 0
    path = tmp_path / "spec_E65_seed7.json"
    first = path.read_bytes()
    assert main(["gen", "--energy", "65", "--seed", "7", "--out", str(tmp_path)]) == 0
    assert path.read_bytes() == first
    blob = json.loads(first)
    assert blob["energy"] == 65


def test_nodal_from_spec_file(tmp_path, capsys):
    spec_path = tmp_path / "spec_sine.json"
    spec_path.write_text(spec_to_json(sine_mode_spec(1)))
    assert main(["nodal", "--spec", str(spec_path), "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "total_length=2.0" in out
    csv_path = tmp_path / "nodal_spec_sine_N256.csv"
    rows = np.loadtxt(csv_path, delimiter=",", skiprows=1)
    assert rows.shape[1] == 5
    assert abs(rows[:, 4].sum() - 2.0) < 1e-9


def test_nodal_from_energy_seed(tmp_path, capsys):
    assert main(
        ["nodal", "--energy", "65", "--seed", "7", "--out", str(tmp_path)]
    ) == 0
    produced = list(tmp_path.glob("nodal_*_N256.csv"))
    assert len(produced) == 1


# ---------------------------------------------------------------- ballstats


def test_ballstats_scale_rule(tmp_path, capsys):
    assert main(
        ["ballstats", "--energy", "65", "--seed", "7", "--out", str(tmp_path)]
    ) == 0
    files = list(tmp_path.glob("ballstats_*.csv"))
    assert len(files) == 1
    rows = np.loadtxt(files[0], delimiter=",", skiprows=1)
    assert rows.shape[1] == 5
    out = capsys.readouterr().out
    assert '"d1"' in out and '"d2"' in out


def test_ballstats_fixed_radius(tmp_path):
    assert main(
        ["ballstats", "--energy", "65", "--seed", "7", "--radius", "0.12",
         "--out", str(tmp_path)]
    ) == 0
    rows = np.loadtxt(next(tmp_path.glob("ballstats_*.csv")), delimiter=",",
                      skiprows=1)
    assert np.all(rows[:, 2] == 0.12)


# ---------------------------------------------------------------- cover


def test_cover_outputs_and_validation(tmp_path, capsys):
    assert main(
        ["cover", "--radius", "0.15", "--seed", "3", "--out", str(tmp_path)]
    ) == 0
    csv_path = next(tmp_path.glob("cover_*.csv"))
    json_path = next(tmp_path.glob("cover_*.json"))
    blob = json.loads(json_path.read_text())
    rows = np.loadtxt(csv_path, delimiter=",", skiprows=1)
    assert blob["count"] == rows.shape[0]
    assert blob["covers"] is True
    capsys.readouterr()
    assert main(["cover", "--radius", "0.3", "--seed", "0",
                 "--out", str(tmp_path)]) == 1
    assert "[error]" in capsys.readouterr().err


# ---------------------------------------------------------------- doubling


def test_doubling_command(tmp_path, capsys):
    assert main(
        ["doubling", "--energy", "65", "--seed", "7", "--a1", "0.5",
         "--out", str(tmp_path)]
    ) == 0
    out = capsys.readouterr().out
    assert "good_fraction=" in out
    blob = json.loads(next(tmp_path.glob("doubling_*.json")).read_text())
    assert blob["a1"] == 0.5


def test_doubling_rejects_low_energy_default_scale(tmp_path, capsys):
    assert main(
        ["doubling", "--energy", "65", "--seed", "7", "--out", str(tmp_path)]
    ) == 1
    assert "[error]" in capsys.readouterr().err


# ---------------------------------------------------------------- growth


def test_growth_command(tmp_path, capsys):
    assert main(
        ["growth", "--energy", "65", "--seed", "7", "--out", str(tmp_path)]
    ) == 0
    out = capsys.readouterr().out
    assert "c7_max=" in out and "c9_hat=" in out
    blob = json.loads(next(tmp_path.glob("growth_*.json")).read_text())
    assert blob["c9_hat"] > 0.0


# ---------------------------------------------------------------- verify


def test_verify_tiny_plan(tmp_path, capsys):
    plan_path = write_plan(tmp_path)
    out_dir = tmp_path / "out"
    assert main(["verify", "--plan", plan_path, "--out", str(out_dir)]) == 0
    out = capsys.readouterr().out
    assert "[verify] sse_band: pass" in out
    assert "[verify] yau_scaling: skip" in out
    report = json.loads((out_dir / "report.json").read_text())
    assert report["plan"]["energies"] == [65]
    assert (out_dir / "runs.csv").read_text().startswith("energy,seed,")


def test_verify_svg_plan_writes_run_images(tmp_path):
    plan_path = write_plan(tmp_path, svg=True)
    out_dir = tmp_path / "out"
    assert main(["verify", "--plan", plan_path, "--out", str(out_dir)]) == 0
    svg = out_dir / "run_E65_seed0.svg"
    assert svg.exists()
    assert svg.read_text().lstrip().startswith("<svg")


def test_verify_gate_failure_exits_two(tmp_path, capsys):
    # An impossible spread tolerance forces a verdict failure.
    plan_path = write_plan(tmp_path, tolerances={"theorem2_window": 1.0000001})
    out_dir = tmp_path / "out"
    assert main(["verify", "--plan", plan_path, "--out", str(out_dir)]) == 2
    out = capsys.readouterr().out
    assert "theorem2_comparability: FAIL" in out
    # Artifacts are still written for post-mortem inspection.
    assert (out_dir / "report.json").exists()


def test_verify_invalid_plans_exit_one(tmp_path, capsys):
    bad_rho = tmp_path / "bad_rho.json"
    bad_rho.write_text('{"energies": [65], "rho": 1.5}')
    assert main(["verify", "--plan", str(bad_rho), "--out", str(tmp_path)]) == 1
    assert "open interval (0, 1)" in capsys.readouterr().err

    empty_spec = tmp_path / "empty.json"
    empty_spec.write_text('{"energies": [3]}')
    assert main(["verify", "--plan", str(empty_spec), "--out", str(tmp_path)]) == 1
    assert "empty spectrum at E=3" in capsys.readouterr().err

    malformed = tmp_path / "broken.json"
    malformed.write_text('{"energies": [65],,}')
    assert main(["verify", "--plan", str(malformed), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "malformed JSON" in err and "line 1" in err

    assert main(["verify", "--plan", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path)]) == 1


def test_verify_rejects_threads_below_one(tmp_path, capsys):
    plan_path = write_plan(tmp_path)
    out_dir = tmp_path / "out"
    for threads in ("0", "-2"):
        assert main(["verify", "--plan", plan_path, "--out", str(out_dir),
                     "--threads", threads]) == 1
        assert "threads must be at least 1" in capsys.readouterr().err
    assert not (out_dir / "report.json").exists()


# ---------------------------------------------------------------- plot


def test_plot_round_trip(tmp_path, capsys):
    spec_path = tmp_path / "spec_sine.json"
    spec_path.write_text(spec_to_json(sine_mode_spec(1)))
    main(["nodal", "--spec", str(spec_path), "--out", str(tmp_path)])
    main(["cover", "--radius", "0.15", "--seed", "3", "--out", str(tmp_path)])
    nodal_csv = str(next(tmp_path.glob("nodal_*.csv")))
    cover_csv = str(next(tmp_path.glob("cover_*.csv")))

    svg_path = tmp_path / "picture.svg"
    assert main(["plot", "--nodal", nodal_csv, "--balls", cover_csv,
                 "--out", str(svg_path)]) == 0
    body = svg_path.read_text()
    assert body.lstrip().startswith("<svg")
    assert "<circle" in body and "<path" in body

    # Re-render is byte-identical.
    first = svg_path.read_bytes()
    main(["plot", "--nodal", nodal_csv, "--balls", cover_csv,
          "--out", str(svg_path)])
    assert svg_path.read_bytes() == first

    # Default output name replaces the extension.
    assert main(["plot", "--nodal", nodal_csv]) == 0
    assert (tmp_path / (nodal_csv.rsplit("/", 1)[1][:-4] + ".svg")).exists()


def test_plot_missing_input_exits_one(tmp_path, capsys):
    assert main(["plot", "--nodal", str(tmp_path / "missing.csv")]) == 1
    assert "[error]" in capsys.readouterr().err
