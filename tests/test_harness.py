import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from torusnodal.ballstats import ScaleFunction
from torusnodal.covering import BallFamily, build_cover
from torusnodal.errors import (
    ChainStepViolated,
    EmptySpectrum,
    NegativeTestFunction,
)
from torusnodal.eigenbasis import sample_grid, sine_mode_spec
from torusnodal.nodal import length_in_ball
from torusnodal import harness
from torusnodal.harness import (
    TEST_FUNCTIONS,
    ExperimentPlan,
    TestFunction,
    _verdicts,
    ball_table,
    check_theorem_1,
    check_theorem_2,
    check_yau_scaling,
    control_run,
    plan_from_json,
    replicate_bound_chain,
    report_to_json,
    resolve_test_functions,
    run_plan,
    run_single,
    runs_to_csv,
    torus_integral,
    trace_to_json,
)

BASELINE = json.loads(
    open(__file__.rsplit("/", 1)[0] + "/baselines/fixture_e65_seed7.json").read()
)

# Desk-survey row for (E, seed) = (65, 7), frozen from a full verification
# run; run_single must keep reproducing it bit-for-bit on this platform.
DESK_RUN_65_7 = {
    "grid": 256,
    "radius": 0.14050174776480118,
    "total_length": 17.86998057884876,
    "yau_ratio": 0.35276666051518446,
    "segment_count": 5844,
    "e1_hat": 0.33375562604871684,
    "e2_hat": 0.3876973610392431,
    "c1_hat": 0.35276666051518446,
    "c2_hat": 0.3587695685034332,
    "cover_count": 37,
    "overlap_max": 4,
    "c7_max": 0.06427924786927408,
    "c9_hat": 1.1288958659882313,
    "strip_sup": 3264.4319277458544,
}


def cover_table(field, nodal, scale, seed=0):
    """Ball table over the seeded cover at the scale radius."""
    return ball_table(field, nodal, scale, build_cover(scale(field.spec_lambda), seed))


def single_ball_table(field, nodal, scale, center):
    """Ball table of one ball at the scale radius."""
    fam = BallFamily(
        centers=np.array([center]),
        radius=scale(field.spec_lambda),
        overlap_max=1,
        covers=False,
        probe_resolution=512,
    )
    return ball_table(field, nodal, scale, fam)


# ---------------------------------------------------------------- registry


def test_registry_membership():
    assert set(TEST_FUNCTIONS) == {"one", "cos_x", "cos_y", "bump"}
    fns = resolve_test_functions(("one", "bump"))
    assert [tf.name for tf in fns] == ["one", "bump"]
    with pytest.raises(ValueError):
        resolve_test_functions(("one", "sawtooth"))


def test_registry_values_are_nonnegative():
    pts = np.random.default_rng(0).random((4096, 2))
    for tf in TEST_FUNCTIONS.values():
        vals = tf(pts)
        assert np.all(vals >= 0.0), tf.name
        # spread bounds the oscillation, not the absolute size
        assert np.max(vals) - np.min(vals) <= tf.spread + 1e-12, tf.name


def test_bump_support_is_local():
    tf = TEST_FUNCTIONS["bump"]
    far = np.array([[0.95, 0.95], [0.1, 0.5], [0.5, 0.06]])
    assert np.all(tf(far) == 0.0)
    assert tf(np.array([[0.5, 0.5]]))[0] > 0.5


@given(
    ax=st.floats(0, 1, exclude_max=True),
    ay=st.floats(0, 1, exclude_max=True),
    bx=st.floats(0, 1, exclude_max=True),
    by=st.floats(0, 1, exclude_max=True),
)
def test_registry_lipschitz_bounds_hold(ax, ay, bx, by):
    from torusnodal.torus import periodic_distance

    p = np.array([[ax, ay]])
    q = np.array([[bx, by]])
    d = float(periodic_distance(p[0], q[0]))
    for tf in TEST_FUNCTIONS.values():
        gap = abs(float(tf(p)[0]) - float(tf(q)[0]))
        assert gap <= tf.lipschitz * d + 1e-9, tf.name


def test_modulus_clips_at_spread():
    tf = TEST_FUNCTIONS["cos_x"]
    assert tf.modulus(1e-3) == pytest.approx(tf.lipschitz * 1e-3)
    assert tf.modulus(10.0) == tf.spread


def test_torus_integrals():
    assert torus_integral(TEST_FUNCTIONS["one"]) == 1.0
    assert torus_integral(TEST_FUNCTIONS["cos_x"]) == pytest.approx(1.0, abs=1e-12)
    assert torus_integral(TEST_FUNCTIONS["cos_y"]) == pytest.approx(1.0, abs=1e-12)
    # Area of the radial profile, cross-checked by refinement.
    assert torus_integral(TEST_FUNCTIONS["bump"]) == pytest.approx(
        torus_integral(TEST_FUNCTIONS["bump"], 1024), rel=1e-4
    )


# ---------------------------------------------------------------- plans


def test_plan_defaults_and_grid_rule():
    plan = ExperimentPlan(energies=(65, 325, 1105))
    assert plan.grid_for(65) == 256
    assert plan.grid_for(325) == 304
    assert plan.grid_for(1105) == 544
    assert plan.seeds_per_energy == 20
    assert plan.tolerances["sse_band"] == (0.3, 3.0)


def test_plan_validation_messages():
    with pytest.raises(ValueError, match=r"open interval \(0, 1\)"):
        ExperimentPlan(energies=(65,), rho=1.5)
    with pytest.raises(EmptySpectrum, match="empty spectrum at E=3"):
        ExperimentPlan(energies=(65, 3))
    with pytest.raises(ValueError, match="unknown test function"):
        ExperimentPlan(energies=(65,), test_functions=("one", "nope"))
    with pytest.raises(ValueError, match="unknown tolerance"):
        ExperimentPlan(energies=(65,), tolerances={"nope": 1.0})
    with pytest.raises(ValueError):
        ExperimentPlan(energies=())
    with pytest.raises(ValueError):
        ExperimentPlan(energies=(65,), seeds_per_energy=0)


def test_plan_tolerance_merge_keeps_defaults():
    plan = ExperimentPlan(energies=(65,), tolerances={"theorem2_window": 5.0})
    assert plan.tolerances["theorem2_window"] == 5.0
    assert plan.tolerances["yau_window"] == 3.0


def test_plan_json_round_trip():
    plan = ExperimentPlan(
        energies=(65, 325), seeds_per_energy=3, rho=0.4, svg=True, base_seed=9
    )
    text = plan.to_json()
    back = plan_from_json(text)
    assert back.energies == plan.energies
    assert back.rho == plan.rho
    assert back.svg is True
    assert back.to_json() == text
    with pytest.raises(ValueError, match="unknown plan field"):
        plan_from_json('{"energies": [65], "bogus": 1}')


# ---------------------------------------------------------------- theorem 1


def test_theorem1_single_mode_closed_form():
    # At E=1 the scale radius is (2 pi)^(-1/2), the ball at (0.5, 0.3) sees a
    # full diameter of the line x = 1/2 and the normalized density is
    # 4 (2 pi)^(-3/2) exactly.
    field = sample_grid(sine_mode_spec(1), 512)
    from torusnodal.nodal import extract_nodal

    nodal = extract_nodal(field)
    t1 = check_theorem_1(single_ball_table(field, nodal, ScaleFunction(0.5), (0.5, 0.3)))
    expect = 4.0 * (2 * math.pi) ** -1.5
    assert t1.e1_hat == pytest.approx(expect, rel=1e-9)
    assert t1.e2_hat == pytest.approx(expect, rel=1e-9)
    assert t1.included == 1 and t1.excluded == 0
    # Mass ratio of this ball against the Bessel closed form.
    import mpmath

    r = ScaleFunction(0.5)(field.spec_lambda)
    arg = 4 * math.pi * r
    want_mass = float(1 - 2 * mpmath.besselj(1, arg) / arg)
    assert t1.mass_ratios[0] == pytest.approx(want_mass, rel=1e-3)


def test_theorem1_exclusion_band():
    field = sample_grid(sine_mode_spec(1), 512)
    from torusnodal.nodal import extract_nodal

    nodal = extract_nodal(field)
    t1 = check_theorem_1(
        single_ball_table(field, nodal, ScaleFunction(0.5), (0.5, 0.3)),
        inclusion_band=(0.99, 1.01),
    )
    assert t1.included == 0 and t1.excluded == 1
    assert math.isnan(t1.e1_hat) and math.isnan(t1.e2_hat)


# ---------------------------------------------------------------- theorem 2


def test_theorem2_unit_weight_reproduces_length_ratio(e65_field, e65_nodal):
    frozen = BASELINE["theorem2"]
    t2 = check_theorem_2(e65_field, e65_nodal, resolve_test_functions(
        ("one", "cos_x", "cos_y", "bump")))
    yau = e65_nodal.total_length / e65_field.spec_lambda
    assert t2.rho_by_name["one"] == yau  # bit-exact by construction
    assert t2.c1_hat == pytest.approx(frozen["c1_hat"], rel=1e-9)
    assert t2.c2_hat == pytest.approx(frozen["c2_hat"], rel=1e-9)
    for name, val in frozen["rho"].items():
        assert t2.rho_by_name[name] == pytest.approx(val, rel=1e-9)
    assert t2.trivial_names == ()


def test_theorem2_flags_trivial_weights(e65_field, e65_nodal):
    zero = TestFunction("zero", lambda pts: np.zeros(len(pts)), 0.0, 0.0)
    t2 = check_theorem_2(e65_field, e65_nodal, (TEST_FUNCTIONS["one"], zero))
    assert "zero" in t2.trivial_names
    assert "zero" not in t2.rho_by_name


def test_theorem2_rejects_negative_weights(e65_field, e65_nodal):
    signed = TestFunction(
        "signed", lambda pts: np.cos(2 * np.pi * pts[:, 0]), 2 * np.pi, 1.0
    )
    with pytest.raises(NegativeTestFunction):
        check_theorem_2(e65_field, e65_nodal, (signed,))


# ---------------------------------------------------------------- yau gate


def test_yau_scaling_gate_logic():
    good = {
        65: [0.35] * 10,
        325: [0.352] * 10,
        1105: [0.348] * 10,
    }
    verdict = check_yau_scaling(good)
    assert verdict["pass"] is True
    assert verdict["overall_ratio"] < 1.1

    drifting = {65: [0.2] * 10, 325: [0.3] * 10, 1105: [0.6] * 10}
    assert check_yau_scaling(drifting)["pass"] is False

    with pytest.raises(ValueError):
        check_yau_scaling({65: [0.35] * 10, 325: [0.35] * 10})
    with pytest.raises(ValueError):
        check_yau_scaling({65: [0.35] * 3, 325: [0.35] * 3, 1105: [0.35] * 3})


# ---------------------------------------------------------------- chain


def test_chain_regression_against_baseline(e65_field, e65_nodal, half_scale):
    frozen = BASELINE["chain_cos_x"]
    table = cover_table(e65_field, e65_nodal, half_scale)
    trace = replicate_bound_chain(e65_field, e65_nodal, table, "cos_x")
    assert trace.ok is True
    assert trace.hypothesis_met is False
    assert trace.n_balls == frozen["n_balls"]
    assert trace.overlap == frozen["overlap"]
    assert trace.empty_balls == frozen["empty_balls"]
    assert trace.e1_chain == pytest.approx(frozen["e1_chain"], rel=1e-9)
    assert trace.e2_chain == pytest.approx(frozen["e2_chain"], rel=1e-9)
    assert trace.integral_f == pytest.approx(frozen["integral_f"], rel=1e-9)
    assert trace.corr_lower == pytest.approx(frozen["corr_lower"], rel=1e-9)
    assert trace.corr_upper == pytest.approx(frozen["corr_upper"], rel=1e-9)
    assert [s.name for s in trace.steps] == [s["name"] for s in frozen["steps"]]
    for got, want in zip(trace.steps, frozen["steps"]):
        assert got.holds is bool(want["holds"])
        assert got.lhs == pytest.approx(want["lhs"], rel=1e-9)
        assert got.rhs == pytest.approx(want["rhs"], rel=1e-9)
        assert got.slack == pytest.approx(want["slack"], rel=1e-9)
    assert "asymptotic hypothesis unmet" in trace.message


def test_chain_unit_weight_meets_hypothesis(e65_field, e65_nodal, half_scale):
    table = cover_table(e65_field, e65_nodal, half_scale)
    trace = replicate_bound_chain(e65_field, e65_nodal, table, "one")
    assert trace.ok is True
    assert trace.hypothesis_met is True
    assert trace.message == ""
    # With the hypothesis met the lower conclusion is informative: a strictly
    # positive bound below the measured integral.
    lower = [s for s in trace.steps if s.name == "lower_conclusion"][0]
    assert 0.0 < lower.lhs <= trace.integral_f


def test_chain_rough_weight_reports_unmet_hypothesis(e65_field, e65_nodal):
    # A deliberately rough weight at a coarse scale: every step still holds,
    # but the modulus correction swamps the area integral, so the trace
    # reports the asymptotic hypothesis as unmet rather than failing.
    rough = TestFunction(
        "rough",
        lambda pts: 1.0 + np.cos(2 * np.pi * 16 * pts[:, 0]),
        lipschitz=32 * np.pi,
        spread=2.0,
    )
    lam = e65_field.spec_lambda
    rho = math.log(5.0) / math.log(lam)  # scale radius approximately 0.2
    table = cover_table(e65_field, e65_nodal, ScaleFunction(rho), seed=1)
    trace = replicate_bound_chain(e65_field, e65_nodal, table, rough)
    assert trace.ok is True
    assert trace.hypothesis_met is False
    assert "asymptotic hypothesis unmet" in trace.message


def test_chain_detects_tampered_cover(e65_field, e65_nodal, half_scale):
    fam = build_cover(half_scale(e65_field.spec_lambda), seed=0)
    starved = dataclasses.replace(fam, centers=fam.centers[:3])
    table = ball_table(e65_field, e65_nodal, half_scale, starved)
    with pytest.raises(ChainStepViolated, match="nodal_coverage_superadditivity"):
        replicate_bound_chain(e65_field, e65_nodal, table, "cos_x")
    trace = replicate_bound_chain(
        e65_field, e65_nodal, table, "cos_x", raise_on_violation=False
    )
    assert trace.ok is False
    failing = {s.name for s in trace.steps if not s.holds}
    assert "nodal_coverage_superadditivity" in failing


def test_chain_validates_family_geometry(e65_field, e65_nodal, half_scale):
    fam = build_cover(0.2, seed=0)  # wrong radius for this scale
    with pytest.raises(ValueError, match="does not match scale radius"):
        ball_table(e65_field, e65_nodal, half_scale, fam)
    good = build_cover(half_scale(e65_field.spec_lambda), seed=0)
    broken = dataclasses.replace(good, overlap_max=0)
    with pytest.raises(ValueError, match="overlap"):
        ball_table(e65_field, e65_nodal, half_scale, broken)


def test_ball_table_lengths_match_length_in_ball(e65_field, e65_nodal, half_scale):
    table = cover_table(e65_field, e65_nodal, half_scale)
    r = half_scale(e65_field.spec_lambda)
    assert len(table.pieces) == table.family.count
    for c, got in zip(table.family.centers, table.lengths):
        assert got == length_in_ball(e65_nodal, c, r)
    assert np.array_equal(table.nonempty, table.lengths > 0.0)


def test_run_single_clips_each_cover_ball_once(monkeypatch):
    calls = []
    real_clip = harness.clip_to_ball

    def counting_clip(*args, **kwargs):
        calls.append(args[1])
        return real_clip(*args, **kwargs)

    monkeypatch.setattr(harness, "clip_to_ball", counting_clip)
    run = run_single(ExperimentPlan(energies=(65,)), 65, 7)
    assert run.cover_count == 37
    assert len(calls) == run.cover_count


def test_trace_serializes(e65_field, e65_nodal, half_scale):
    table = cover_table(e65_field, e65_nodal, half_scale)
    trace = replicate_bound_chain(e65_field, e65_nodal, table, "one")
    blob = json.loads(trace_to_json(trace))
    assert blob["f_name"] == "one"
    assert len(blob["steps"]) == 12
    assert blob["ok"] is True


# ---------------------------------------------------------------- runs


def test_run_single_regression():
    plan = ExperimentPlan(energies=(65, 325, 1105))
    run = run_single(plan, 65, 7)
    assert run.degenerate is False
    assert run.flags == ("doubling_radius_too_large_at_this_energy",)
    assert run.grid == DESK_RUN_65_7["grid"]
    assert run.segment_count == DESK_RUN_65_7["segment_count"]
    assert run.cover_count == DESK_RUN_65_7["cover_count"]
    assert run.overlap_max == DESK_RUN_65_7["overlap_max"]
    for key in ("radius", "total_length", "yau_ratio", "e1_hat", "e2_hat",
                "c1_hat", "c2_hat", "c7_max", "c9_hat", "strip_sup"):
        assert getattr(run, key) == pytest.approx(DESK_RUN_65_7[key], rel=1e-9), key
    assert run.good_fraction is None  # doubling inadmissible at this energy
    assert run.sse_fraction == 1.0


def test_run_single_degenerate_low_energy():
    plan = ExperimentPlan(energies=(65,))
    run = run_single(plan, 1, 0)
    assert run.degenerate is True
    assert "scale_radius_exceeds_quarter" in run.flags
    assert "too_few_modes_for_ensemble_statistics" in run.flags
    assert run.e1_hat is None and run.c1_hat is None and run.good_fraction is None


def test_refinement_moves_ratios_by_under_two_percent():
    coarse = run_single(ExperimentPlan(energies=(65,)), 65, 7)
    fine = run_single(ExperimentPlan(energies=(65,), grid_min=512), 65, 7)
    for key in ("total_length", "yau_ratio", "e1_hat", "e2_hat", "c1_hat",
                "c2_hat", "d1", "d2"):
        a, b = getattr(coarse, key), getattr(fine, key)
        assert b == pytest.approx(a, rel=2e-2), key


def test_run_plan_small_survey_structure():
    plan = ExperimentPlan(
        energies=(65,), seeds_per_energy=2, include_low_energy_control=False
    )
    report = run_plan(plan)
    assert len(report.runs) == 2
    assert report.all_pass is True
    verdicts = report.verdicts
    assert verdicts["yau_scaling"]["pass"] is None
    assert verdicts["sse_band"]["pass"] is True
    assert verdicts["theorem1_comparability"]["pass"] is True
    assert verdicts["theorem2_one_equals_yau"]["pass"] is True
    assert verdicts["chain_steps"]["pass"] is True
    assert verdicts["doubling_good_fraction"]["pass"] is None
    assert verdicts["control_fails_band"]["pass"] is None
    assert "65" in report.aggregates


def test_run_plan_threads_match_serial():
    plan = ExperimentPlan(
        energies=(65,), seeds_per_energy=2, include_low_energy_control=False
    )
    expected = ["E=65 seed=0 done", "E=65 seed=1 done"]
    serial_messages, threaded_messages = [], []
    serial = report_to_json(run_plan(plan, progress=serial_messages.append))
    threaded = report_to_json(
        run_plan(plan, threads=2, progress=threaded_messages.append))
    assert serial == threaded
    assert serial_messages == expected
    assert threaded_messages == expected
    with pytest.raises(ValueError, match="threads must be at least 1"):
        run_plan(plan, threads=0)


def test_theorem1_verdict_fails_without_window_on_empty_ball():
    # An in-band ball that holds no nodal length makes e1 zero; the verdict
    # must fail with no observed window instead of dividing by zero.
    plan = ExperimentPlan(energies=(65,), include_low_energy_control=False)
    run = dataclasses.replace(run_single(plan, 65, 7), e1_hat=0.0)
    verdict = _verdicts(plan, [run], None)["theorem1_comparability"]
    assert verdict["pass"] is False
    assert verdict["window_observed"] is None
    assert verdict["e1_pooled"] == 0.0


def test_report_json_is_deterministic_and_time_free():
    plan = ExperimentPlan(
        energies=(65,), seeds_per_energy=1, include_low_energy_control=False
    )
    a = report_to_json(run_plan(plan))
    b = report_to_json(run_plan(plan))
    assert a == b
    blob = json.loads(a)
    assert "timestamp" not in a and "date" not in a.lower()
    assert blob["plan"]["energies"] == [65]


def test_runs_to_csv_layout():
    plan = ExperimentPlan(
        energies=(65,), seeds_per_energy=2, include_low_energy_control=False
    )
    report = run_plan(plan)
    text = runs_to_csv(report)
    lines = text.strip().splitlines()
    assert lines[0].startswith("energy,seed,grid,lam,radius,total_length")
    assert len(lines) == 3
    assert lines[1].split(",")[0] == "65"


def test_control_run_shape():
    plan = ExperimentPlan(energies=(65,))
    ctrl = control_run(plan)
    assert ctrl["energy"] == 1
    assert set(ctrl) >= {
        "in_band_fraction", "passes_band_gate", "d1", "d2", "ball_count",
        "radius_ref", "grid",
    }
    assert ctrl["d1"] <= ctrl["d2"]
    assert 0.0 <= ctrl["in_band_fraction"] <= 1.0
