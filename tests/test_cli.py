import hashlib
import json
import subprocess
import sys

import numpy as np
import pytest

from torusnodal import ballstats, cli, doubling, harness
from torusnodal.ballstats import scale_radius
from torusnodal.cli import main
from torusnodal.covering import build_cover
from torusnodal.eigenbasis import random_eigenfunction, sample_grid, sine_mode_spec, spec_to_json
from torusnodal.harness import ExperimentPlan, _stage_seed, plan_from_json
from torusnodal.nodal import extract_nodal
from torusnodal.svgplot import render_svg

from conftest import constant_spec


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


@pytest.mark.parametrize("argv", [
    ["gen", "--energy", "65"],
    ["nodal", "--energy", "65"],
    ["ballstats", "--energy", "65"],
    ["cover", "--radius", "0.15"],
    ["doubling", "--energy", "1105"],
    ["growth", "--energy", "65"],
])
def test_negative_seed_is_a_named_usage_error(tmp_path, capsys, monkeypatch, argv):
    def no_work(*args, **kwargs):
        raise AssertionError("work started for a negative seed")

    for module, name in ((cli, "sample_grid"), (cli, "build_cover"),
                         (cli, "random_eigenfunction"), (doubling, "build_cover")):
        monkeypatch.setattr(module, name, no_work)
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--seed", "-1", "--out", str(tmp_path)])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert "argument --seed: must be a non-negative integer, got -1" in err
    assert "Traceback" not in err


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


def _spec_blob(**changes) -> str:
    """The E=5 seed-0 spec file with some of its JSON values replaced."""
    obj = json.loads(spec_to_json(random_eigenfunction(5, 0)))
    obj.update(changes)
    return json.dumps(obj)


@pytest.mark.parametrize("text, message", [
    ("{}", "spec must be a JSON object with energy, modes and coeffs"),
    ("[1, 2]", "spec must be a JSON object with energy, modes and coeffs"),
    (_spec_blob(energy=5.7), "spec energy must be an integer; got 5.7"),
    (_spec_blob(modes=[[-2, -1], [-2, 1], [-1, -2], [-1, 2], [1, -2], [1, 2], [2, -1],
                       [2.9, 1]]), "spec modes must be a list of integer pairs"),
    (_spec_blob(coeffs=[[float("nan"), 0.0]] * 8), "spec coeffs must be a list of [re, im] finite"),
])
def test_nodal_rejects_a_malformed_spec_file(tmp_path, capsys, monkeypatch, text, message):
    # None may end in a traceback, run 5.7 or 2.9 truncated as E=5 or mode
    # (2, 1), or extract an empty nodal set from a NaN coefficient.
    spec_path = tmp_path / "bad.json"
    spec_path.write_text(text)
    monkeypatch.setattr(cli, "sample_grid", no_sampling)
    assert main(["nodal", "--spec", str(spec_path), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"[error] {message}") and "Traceback" not in err


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


@pytest.mark.parametrize("radius, message", [
    ("0", "not an embedded ball"),
    ("nan", "not an embedded ball"),
    ("-0.1", "not an embedded ball"),
    ("1e-300", "cells at resolution 256"),
])
def test_ballstats_rejects_a_bad_radius_before_placing_centers(tmp_path, capsys, radius, message):
    # The radius is checked before default_centers builds its (2 / r)^2 lattice.
    argv = ["ballstats", "--energy", "65", "--seed", "7", f"--radius={radius}",
            "--out", str(tmp_path)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("[error] radius") and message in err
    assert not list(tmp_path.glob("ballstats_*.csv"))


@pytest.mark.parametrize("args, csv_sha, summary_sha", [
    (["--energy", "65", "--seed", "7", "--radius", "0.12"],
     "d7095428c2e540d3a75de63e0fadbab6408e60747acb90d05aa87d3c652f557f",
     "86184b0bb66b549ba922d3ea2275a58e62cecde38072da6ee0ce4a1dcb876180"),
    (["--energy", "325", "--seed", "2", "--rho", "0.4"],
     "d0abd3dec852747137ff3c24d8f56eaf5fa9f36c8200e440c2453ec1a3911690",
     "252acf06851381262a5dd5e21a5dc87448821686be3d16ad3901ddeecf498db9"),
])
def test_ballstats_bytes_are_frozen(tmp_path, capsys, monkeypatch, args, csv_sha, summary_sha):
    # Both paths read every mass, so neither builds a mass bracket.
    brackets = []
    monkeypatch.setattr(ballstats, "_mass_bounds", lambda *a: brackets.append(a))
    assert main(["ballstats", *args, "--out", str(tmp_path)]) == 0
    csv = next(tmp_path.glob("ballstats_*.csv")).read_bytes()
    summary = capsys.readouterr().out.splitlines()[-1].removeprefix("[ballstats] ")
    assert hashlib.sha256(csv).hexdigest() == csv_sha
    assert hashlib.sha256(summary.encode()).hexdigest() == summary_sha
    assert brackets == []


# Hashes of the JSON file and of stdout (output directory written as "out") of
# doubling and growth on the E=65 field of seed 7.  Every doubling ratio is
# measured; at a2 = 16 all 69 balls are good, at a2 = 4 32 of them.
@pytest.mark.parametrize("args, json_sha, stdout_sha", [
    (["doubling", "--energy", "65", "--seed", "7", "--a1", "0.5"],
     "86d16fb8983a8afce11c5ba0c47165fcda196370558516af22931f0f4838b717",
     "0a366f4411a2f65f4c1f4a2c6a6023248ff83f3d5236150ac239f663e107b157"),
    (["doubling", "--energy", "65", "--seed", "7", "--a1", "0.5", "--a2", "4"],
     "ec50050412b015cd25c0aa9e768f14c05fd0e77111d36e2467fe13a7e092b6e7",
     "aa9a55424c5e530840a125dc13d0b3bf0e39cb62dd6e35c4ad9b376428dafad2"),
    (["growth", "--energy", "65", "--seed", "7"],
     "bcb2b483a5d9417e7c00982fc0ddae98fa04509a24e8dc80fdca8dfebea509ad",
     "4dd52dd2e8e7be8d20a18537d74a2dbeb81b1f72781f0dd79304c0f9c2dbf262"),
])
def test_doubling_and_growth_bytes_are_frozen(tmp_path, capsys, args, json_sha, stdout_sha):
    assert main([*args, "--out", str(tmp_path)]) == 0
    (path,) = tmp_path.glob("*.json")
    stdout = capsys.readouterr().out.replace(str(tmp_path), "out")
    assert hashlib.sha256(path.read_bytes()).hexdigest() == json_sha
    assert hashlib.sha256(stdout.encode()).hexdigest() == stdout_sha


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


def test_cover_rejects_empty_probe_lattice(tmp_path, capsys):
    assert main(["cover", "--radius", "0.15", "--probe", "0",
                 "--out", str(tmp_path)]) == 1
    assert "probe resolution must be at least 1" in capsys.readouterr().err


# ---------------------------------------------------------------- doubling


def test_doubling_command(tmp_path, capsys, monkeypatch):
    measured = {}
    real = ballstats.ball_masses

    def counting(field, centers, r):
        measured[r] = measured.get(r, 0) + len(centers)
        return real(field, centers, r)

    monkeypatch.setattr(ballstats, "ball_masses", counting)
    assert main(
        ["doubling", "--energy", "65", "--seed", "7", "--a1", "0.5",
         "--out", str(tmp_path)]
    ) == 0
    out = capsys.readouterr().out
    assert "good_fraction=" in out
    blob = json.loads(next(tmp_path.glob("doubling_*.json")).read_text())
    assert blob["a1"] == 0.5
    # The JSON's ratios are exact: every ball is measured at both radii, once.
    assert measured == {blob["inner_radius"]: blob["count"], blob["outer_radius"]: blob["count"]}


def no_sampling(*args, **kwargs):
    raise AssertionError("sample_grid called for a rejected input")


def test_doubling_rejects_low_energy_default_scale(tmp_path, capsys, monkeypatch):
    # At E=65 the outer radius 50 / lam is 0.987: rejected before the field is sampled.
    monkeypatch.setattr(cli, "sample_grid", no_sampling)
    assert main(
        ["doubling", "--energy", "65", "--seed", "7", "--out", str(tmp_path)]
    ) == 1
    err = capsys.readouterr().err
    assert err.startswith("[error] outer doubling radius 0.98") and "Traceback" not in err


@pytest.mark.parametrize("command, message", [
    ("doubling", "doubling classification needs a positive frequency"),
    ("growth", "scale function needs a positive frequency"),
    ("ballstats", "scale function needs a positive frequency"),
])
def test_spec_commands_reject_the_constant_spec(tmp_path, capsys, monkeypatch, command, message):
    # E=0 has lam = 0: no doubling radius, scale radius or default tau exists.
    spec_path = tmp_path / "c.json"
    spec_path.write_text(spec_to_json(constant_spec()))
    monkeypatch.setattr(cli, "sample_grid", no_sampling)
    assert main([command, "--spec", str(spec_path), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err == f"[error] {message}\n"


@pytest.mark.parametrize("flag, value", [("--a1", "-1"), ("--a2", "0"), ("--a2", "nan"),
                                         ("--a2", "inf"), ("--a1", "inf")])
def test_doubling_rejects_non_positive_constants(tmp_path, capsys, monkeypatch, flag, value):
    # The plan's rule, checked before the field is sampled: an infinite
    # constant would reach doubling JSON as Infinity, which is not JSON.
    monkeypatch.setattr(cli, "sample_grid", no_sampling)
    out = tmp_path / "out"
    assert main(["doubling", "--energy", "1105", "--seed", "0", flag, value,
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("[error] doubling constants must be positive and finite")
    assert "Traceback" not in err and not out.exists()


def test_doubling_rejects_under_resolved_inner_radius(tmp_path, capsys, monkeypatch):
    # At a1 = 0.01 the inner radius spans 0.3 cells; the cover at half the
    # outer radius would need a 16,710^2 candidate lattice, so it must
    # never be built.
    def no_cover(*args, **kwargs):
        raise AssertionError("build_cover called for an under-resolved radius")

    monkeypatch.setattr(doubling, "build_cover", no_cover)
    assert main(["doubling", "--energy", "1105", "--seed", "0", "--a1", "0.01",
                 "--out", str(tmp_path)]) == 1
    assert "inner doubling radius" in capsys.readouterr().err


# ---------------------------------------------------------------- growth


def test_growth_command(tmp_path, capsys):
    assert main(
        ["growth", "--energy", "65", "--seed", "7", "--out", str(tmp_path)]
    ) == 0
    out = capsys.readouterr().out
    assert "c7_max=" in out and "c9_hat=" in out
    blob = json.loads(next(tmp_path.glob("growth_*.json")).read_text())
    assert blob["c9_hat"] > 0.0


def test_growth_rejects_nonpositive_tau(capsys):
    assert main(["growth", "--energy", "25", "--seed", "0", "--tau", "0"]) == 1
    assert "tau must be positive" in capsys.readouterr().err


def test_growth_rejects_a_strip_whose_certificate_overflows(capsys, recwarn):
    assert main(["growth", "--energy", "65", "--seed", "1", "--tau", "10.3"]) == 1
    err = capsys.readouterr().err
    assert "tau=10.3" in err and "RuntimeWarning" not in err
    assert not recwarn.list


def test_grid_that_cannot_be_allocated_exits_one(tmp_path, capsys):
    # 10^14 complex cells take 1.6e15 bytes, beyond a 47-bit address space, so
    # the allocation fails at once instead of reserving memory.
    assert main(["nodal", "--energy", "65", "--grid", "10000000", "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("[error]") and "allocate" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command, grid", [("nodal", "0"), ("growth", "-3")])
def test_spec_commands_reject_grid_below_sampling_bound(tmp_path, capsys, command, grid):
    # 0 is a grid, not "use the default"; both are below ceil(10 sqrt(25)).
    assert main([command, "--energy", "25", "--seed", "0", "--grid", grid,
                 "--out", str(tmp_path)]) == 1
    assert "too coarse for energy 25" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


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


def test_verify_leaves_numpy_ma_unimported(tmp_path):
    # np.median and np.unique import numpy.ma on first use, about 13 ms in a
    # fresh process; verify uses neither.
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps({"energies": [1105], "seeds_per_energy": 1}))
    code = ("import sys; from torusnodal.cli import main; "
            f"code = main(['verify', '--plan', {str(plan_path)!r}, "
            f"'--out', {str(tmp_path / 'out')!r}]); "
            "print(code, 'numpy.ma' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.stdout.splitlines()[-1] == "0 False", proc.stderr


def test_serial_commands_never_load_the_process_pool(tmp_path):
    # The pool loads when a plan first runs workers: a serial verify and the
    # quick-tour commands (at E=65) leave multiprocessing unimported.
    plan_path = write_plan(tmp_path)
    out = str(tmp_path / "out")
    argvs = [["verify", "--plan", plan_path, "--out", out, "--threads", "1"],
             ["gen", "--energy", "65", "--out", out],
             ["nodal", "--spec", f"{out}/spec_E65_seed0.json", "--out", out],
             ["cover", "--radius", "0.15", "--out", out],
             ["plot", "--nodal", f"{out}/nodal_spec_E65_seed0_N256.csv",
              "--balls", f"{out}/cover_r0.15_seed0.csv", "--out", f"{out}/picture.svg"],
             ["ballstats", "--energy", "65", "--out", out]]
    code = ("import sys; from torusnodal.cli import main; "
            f"codes = [main(argv) for argv in {argvs!r}]; "
            "print(codes, [m for m in ('multiprocessing', 'concurrent.futures.process') "
            "if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.stdout.splitlines()[-1] == f"{[0] * len(argvs)} []", proc.stderr


def test_verify_progress_with_workers_reports_every_run(tmp_path, capsys):
    # Each line prints as its run finishes; the files keep the serial bytes.
    plan_path = write_plan(tmp_path, energies=(25, 65), seeds_per_energy=2)
    assert main(["verify", "--plan", plan_path, "--out", str(tmp_path / "serial")]) == 0
    capsys.readouterr()
    assert main(["verify", "--plan", plan_path, "--out", str(tmp_path / "pool"),
                 "--threads", "2", "--progress"]) == 0
    lines = [line for line in capsys.readouterr().out.splitlines() if line.endswith(" done")]
    assert sorted(lines) == [f"[verify] E={e} seed={s} done" for e in (25, 65) for s in (0, 1)]
    for name in ("report.json", "runs.csv"):
        assert (tmp_path / "pool" / name).read_bytes() == (tmp_path / "serial" / name).read_bytes()


def test_verify_svg_plan_writes_run_images(tmp_path, monkeypatch):
    plan_path = write_plan(tmp_path, svg=True, seeds_per_energy=2)
    grids = []

    def counted_sample_grid(spec, n):
        grids.append(n)
        return sample_grid(spec, n)

    monkeypatch.setattr(harness, "sample_grid", counted_sample_grid)
    monkeypatch.setattr(cli, "sample_grid", counted_sample_grid)
    out_dir = tmp_path / "out"
    assert main(["verify", "--plan", plan_path, "--out", str(out_dir)]) == 0
    assert len(grids) == 2  # each run samples its field once, pictures included

    # Each picture is the run's nodal set under its scale cover, as drawn
    # from the pipeline stages re-run on their own.
    with open(plan_path) as fh:
        plan = plan_from_json(fh.read())
    for seed in (0, 1):
        spec = random_eigenfunction(65, _stage_seed(plan, 65, seed, 0))
        nodal = extract_nodal(sample_grid(spec, plan.grid_for(65)))
        fam = build_cover(scale_radius(spec.lam, plan.rho), _stage_seed(plan, 65, seed, 2))
        svg = (out_dir / f"run_E65_seed{seed}.svg").read_text()
        assert svg.lstrip().startswith("<svg")
        assert svg == render_svg(nodal, fam.centers, fam.radius)


def test_verify_gate_failure_exits_two(tmp_path, capsys):
    # An impossible spread tolerance forces a verdict failure.
    plan_path = write_plan(tmp_path, tolerances={"theorem2_window": 1.0000001})
    out_dir = tmp_path / "out"
    assert main(["verify", "--plan", plan_path, "--out", str(out_dir)]) == 2
    out = capsys.readouterr().out
    # Artifacts are still written for post-mortem inspection.
    verdicts = json.loads((out_dir / "report.json").read_text())["verdicts"]
    # A FAIL line carries the verdict's own fields; pass lines stay bare.
    fields = {k: v for k, v in verdicts["theorem2_comparability"].items() if k != "pass"}
    assert fields["max_spread"] > 1.0000001
    assert (f"[verify] theorem2_comparability: FAIL {json.dumps(fields, sort_keys=True)}\n"
            in out)
    assert "[verify] sse_band: pass\n" in out


def test_verify_with_no_gate_judged_exits_two(tmp_path, capsys):
    # Every run at E = 1, 2 and 4 is degenerate and no control runs, so all
    # gates are skipped: that is not a pass.
    plan_path = tmp_path / "plan.json"
    plan_path.write_text('{"energies": [1, 2, 4], "seeds_per_energy": 2, '
                         '"include_low_energy_control": false}')
    out_dir = tmp_path / "out"
    assert main(["verify", "--plan", str(plan_path), "--out", str(out_dir)]) == 2
    out = capsys.readouterr().out
    report = json.loads((out_dir / "report.json").read_text())
    assert all(v["pass"] is None for v in report["verdicts"].values())
    assert report["all_pass"] is False
    assert out.endswith("[verify] no gate ran\n") and "all gates pass" not in out


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

    # E=25 seed 10 draws its field from the seed E=26 seed 0 uses for its centers.
    colliding = tmp_path / "colliding.json"
    colliding.write_text('{"energies": [25, 26], "seeds_per_energy": 11}')
    assert main(["verify", "--plan", str(colliding), "--out", str(tmp_path)]) == 1
    assert ("stage seeds collide: E=25 seed 10 stage 0 and E=26 seed 0 stage 1"
            in capsys.readouterr().err)

    # A repeated test function used to run, its chain counted twice.
    repeated = tmp_path / "repeated.json"
    repeated.write_text('{"energies": [1105], "seeds_per_energy": 1, '
                        '"include_low_energy_control": false, '
                        '"test_functions": ["one", "one", "bump", "bump"]}')
    assert main(["verify", "--plan", str(repeated), "--out", str(tmp_path / "repeated")]) == 1
    err = capsys.readouterr().err
    assert "test function 'one' is listed more than once" in err and "Traceback" not in err
    assert not (tmp_path / "repeated").exists()

    # A field of the wrong JSON type is named before any run starts.
    for body, field in [
        ('{"energies": 5}', "energies"),
        ('{"energies": [65, true]}', "energies"),
        ('{"energies": [65], "rho": "x"}', "rho"),
        ('{"energies": [65], "seeds_per_energy": "3"}', "seeds_per_energy"),
        ('{"energies": [65], "seeds_per_energy": 1.0}', "seeds_per_energy"),
        ('{"energies": [65], "grid_min": 300.5}', "grid_min"),
        ('{"energies": [65], "base_seed": 1.5}', "base_seed"),
        ('{"energies": [65], "tolerances": 5}', "tolerances"),
        ('{"energies": [65], "tolerances": {"sse_band": 0.5}}', "sse_band"),
        ('{"energies": [65], "tolerances": {"c9_window": [1, 2]}}', "c9_window"),
        ('{"energies": [65], "tolerances": {"sse_band": [0.3, "x"]}}', "sse_band"),
        # An inverted band used to run and report sse_band: FAIL (exit 2).
        ('{"energies": [65], "seeds_per_energy": 1, "tolerances": {"sse_band": [3.0, 0.3]}}',
         "sse_band"),
        ('{"energies": [65], "tolerances": {"theorem1_inclusion_band": [10, 0.1]}}',
         "theorem1_inclusion_band"),
        ('{"energies": [65], "test_functions": ["one", ["x"]]}', "test_functions"),
        ('{"energies": [65], "include_low_energy_control": "no"}',
         "include_low_energy_control"),
        ('{"energies": [65], "svg": 1}', "svg"),
        # report.json cannot hold nan or inf, so they used to fail after every run.
        ('{"energies": [65], "doubling_a2": NaN}', "doubling_a2"),
        ('{"energies": [65], "doubling_a1": Infinity}', "doubling_a1"),
        ('{"energies": [65], "tolerances": {"c9_window": NaN}}', "c9_window"),
    ]:
        mistyped = tmp_path / "mistyped.json"
        mistyped.write_text(body)
        out = tmp_path / "mistyped_out"
        assert main(["verify", "--plan", str(mistyped), "--out", str(out)]) == 1, body
        err = capsys.readouterr().err
        assert err.startswith("[error]") and repr(field) in err and "Traceback" not in err, body
        assert not out.exists()

    # Ints in float fields are kept as given, so the plan keeps its bytes.
    assert '"growth_delta": 1,' in plan_from_json('{"energies": [65], "growth_delta": 1}').to_json()


# A JSON integer beyond float range, in a float plan field and in a float tolerance.
_HUGE_INT = "1" + "0" * 400


@pytest.mark.parametrize("body, field", [
    ('{"energies": [65], "doubling_a1": %s}' % _HUGE_INT, "doubling_a1"),
    ('{"energies": [65], "tolerances": {"c9_window": %s}}' % _HUGE_INT, "c9_window"),
    ('{"energies": [65], "tolerances": {"sse_band": [0.3, %s]}}' % _HUGE_INT, "sse_band"),
])
def test_verify_rejects_ints_beyond_float_range(tmp_path, capsys, body, field):
    plan = tmp_path / "huge.json"
    plan.write_text(body)
    with pytest.raises(ValueError, match=repr(field)):
        plan_from_json(body)
    out = tmp_path / "out"
    assert main(["verify", "--plan", str(plan), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("[error]") and repr(field) in err and "Traceback" not in err
    assert not out.exists()


def test_verify_rejects_under_resolved_doubling_plan(tmp_path, capsys, monkeypatch):
    def no_cover(*args, **kwargs):
        raise AssertionError("build_cover called for an invalid plan")

    monkeypatch.setattr(harness, "build_cover", no_cover)
    monkeypatch.setattr(doubling, "build_cover", no_cover)
    plan = tmp_path / "tiny_a1.json"
    plan.write_text('{"energies": [1105], "seeds_per_energy": 1, "doubling_a1": 0.01}')
    assert main(["verify", "--plan", str(plan), "--out", str(tmp_path / "out")]) == 1
    assert "inner doubling radius" in capsys.readouterr().err
    assert not (tmp_path / "out" / "report.json").exists()


def test_verify_rejects_a_negative_stage_seed_before_any_run(tmp_path, capsys, monkeypatch):
    def no_run(*args, **kwargs):
        raise AssertionError("run_single called for an invalid plan")

    monkeypatch.setattr(harness, "run_single", no_run)
    plan = tmp_path / "negative.json"
    plan.write_text('{"energies": [65], "seeds_per_energy": 1, "base_seed": -5}')
    assert main(["verify", "--plan", str(plan), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("[error] base_seed -5 gives E=65 seed 0 stage 0") and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_verify_rejects_threads_below_one(tmp_path, capsys):
    plan_path = write_plan(tmp_path)
    out_dir = tmp_path / "out"
    for threads in ("0", "-2"):
        assert main(["verify", "--plan", plan_path, "--out", str(out_dir),
                     "--threads", threads]) == 1
        assert "threads must be at least 1" in capsys.readouterr().err
    assert not out_dir.exists()


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


@pytest.mark.parametrize("body,why", [
    ("0.1,0.2,0.3,0.4\n", "5 finite numbers"),
    ("0.1,0.2,0.3,0.4,0.5,0.6\n", "5 finite numbers"),
    ("0.1,0.2,0.3,0.4,0.1\n0.1,0.2,0.3\n", "columns"),
    ("0.1,nan,0.3,0.4,0.1\n", "5 finite numbers"),
    ("0.1,0.2,inf,0.4,0.1\n", "5 finite numbers"),
    ("0.1,0.2,x,0.4,0.1\n", "could not convert"),
])
def test_plot_rejects_a_malformed_nodal_csv(tmp_path, capsys, body, why):
    path = tmp_path / "bad.csv"
    path.write_text("ax,ay,bx,by,length\n" + body)
    assert main(["plot", "--nodal", str(path), "--out", str(tmp_path / "bad.svg")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("[error] nodal file") and str(path) in err and why in err
    assert "Traceback" not in err and not (tmp_path / "bad.svg").exists()


@pytest.mark.parametrize("body,why", [
    ("0.1,nan,0.1\n", "3 finite numbers"),
    ("0.1,0.2\n", "3 finite numbers"),
    ("0.1,0.2,0.1\n0.1,0.2\n", "columns"),
    ("0.1,x,0.1\n", "could not convert"),
    ("0.1,0.2,-0.1\n", ": radius -0.1 is not positive\n"),
    ("0.1,0.2,0.0\n0.5,0.5,0.0\n", ": radius 0.0 is not positive\n"),
])
def test_plot_rejects_a_malformed_ball_csv(tmp_path, capsys, body, why):
    nodal = tmp_path / "nodal.csv"
    nodal.write_text("ax,ay,bx,by,length\n")
    path = tmp_path / "bad_balls.csv"
    path.write_text("center_x,center_y,radius\n" + body)
    svg = tmp_path / "bad.svg"
    assert main(["plot", "--nodal", str(nodal), "--balls", str(path), "--out", str(svg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("[error] ball file") and str(path) in err and why in err
    assert "Traceback" not in err and not svg.exists()


def test_plot_rejects_a_ball_csv_with_mixed_radii(tmp_path, capsys):
    # The SVG draws every ball at one radius, so a second radius is an error.
    nodal = tmp_path / "nodal.csv"
    nodal.write_text("ax,ay,bx,by,length\n")
    path = tmp_path / "mixed.csv"
    path.write_text("center_x,center_y,radius\n0.1,0.2,0.1\n0.5,0.5,0.2\n")
    svg = tmp_path / "mixed.svg"
    assert main(["plot", "--nodal", str(nodal), "--balls", str(path), "--out", str(svg)]) == 1
    err = capsys.readouterr().err
    assert err == f"[error] ball file {path}: rows carry more than one radius\n"
    assert not svg.exists()


def test_plot_with_balls_leaves_numpy_ma_unimported(tmp_path):
    # np.unique imports numpy.ma on first use, about 14 ms in a fresh process.
    nodal = tmp_path / "nodal.csv"
    nodal.write_text("ax,ay,bx,by,length\n0.1,0.1,0.2,0.2,0.1414\n")
    balls = tmp_path / "balls.csv"
    balls.write_text("center_x,center_y,radius\n0.1,0.2,0.1\n0.5,0.5,0.1\n")
    code = ("import sys; from torusnodal.cli import main; "
            f"code = main(['plot', '--nodal', {str(nodal)!r}, '--balls', {str(balls)!r}]); "
            "print(code, 'numpy.ma' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.stdout.splitlines()[-1] == "0 False", proc.stderr


def test_plot_of_a_header_only_ball_csv_draws_no_balls(tmp_path, capsys, recwarn):
    nodal = tmp_path / "nodal.csv"
    nodal.write_text("ax,ay,bx,by,length\n")
    balls = tmp_path / "balls.csv"
    balls.write_text("center_x,center_y,radius\n")
    svg = tmp_path / "empty.svg"
    assert main(["plot", "--nodal", str(nodal), "--balls", str(balls), "--out", str(svg)]) == 0
    assert not recwarn.list
    assert "<circle" not in svg.read_text()


def test_plot_of_a_header_only_nodal_csv_is_the_empty_set(tmp_path, capsys, recwarn):
    path = tmp_path / "empty.csv"
    path.write_text("ax,ay,bx,by,length\n")
    assert main(["plot", "--nodal", str(path)]) == 0
    assert "segments=0" in capsys.readouterr().out
    assert not recwarn.list
    assert "<path" not in (tmp_path / "empty.svg").read_text()
