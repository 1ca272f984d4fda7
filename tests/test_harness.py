import dataclasses
import functools
import json
import math
import os
import re
import time
from concurrent.futures import Future

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from torusnodal.ballstats import ball_masses, require_resolved_radius, scale_radius
from torusnodal.covering import PROBE, BallFamily, build_cover
from torusnodal.doubling import INNER_FACTOR, OUTER_FACTOR
from torusnodal.errors import (
    BallTooLarge,
    EmptySpectrum,
    NegativeTestFunction,
    RadiusUnderResolved,
    ResolutionTooCoarse,
)
from torusnodal.eigenbasis import (random_eigenfunction, require_sampling_grid, sample_grid,
                                   sine_mode_spec)
from torusnodal.nodal import clip_to_ball, extract_nodal
from torusnodal.torus import wrap_point
from torusnodal import ballstats, harness
from torusnodal.harness import (
    BUMP_CENTER,
    BUMP_WIDTH,
    TEST_FUNCTIONS,
    ExperimentPlan,
    FunctionIntegrals,
    RunResult,
    TestFunction,
    VerificationReport,
    _aggregate,
    _step,
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
)

from conftest import integrals_for
from test_nodal import full_scan_clip

DESK_PLAN = __file__.rsplit("/", 1)[0] + "/../plans/desk.json"

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


def cover_table(field, nodal, rho=0.5, seed=0, fs=tuple(TEST_FUNCTIONS.values())):
    """Ball table, for the test functions fs, over the seeded cover at the scale radius of exponent rho."""
    return ball_table(field, nodal, build_cover(scale_radius(field.spec_lambda, rho), seed), fs)


def integrals_of(field, nodal, f):
    """Both integrals of one test function (or registry name)."""
    return integrals_for(field, nodal, (TEST_FUNCTIONS.get(f, f),))[0]


def bounds(low: float, high: float):
    """TestFunction.extremes of any f with values in [low, high]: high and low at every disk."""
    return lambda centers, radius: (np.full(len(centers), high), np.full(len(centers), low))


def single_ball_table(field, nodal, center):
    """Ball table of one ball at the scale radius of exponent 1/2."""
    fam = BallFamily(
        centers=np.array([center]),
        radius=scale_radius(field.spec_lambda, 0.5),
        overlap_max=1,
        covers=False,
    )
    return ball_table(field, nodal, fam, ())


# ---------------------------------------------------------------- registry


def test_registry_membership():
    assert set(TEST_FUNCTIONS) == {"one", "cos_x", "cos_y", "bump"}
    fns = resolve_test_functions(("one", "bump"))
    assert [tf.name for tf in fns] == ["one", "bump"]
    with pytest.raises(ValueError):
        resolve_test_functions(("one", "sawtooth"))
    # Plans hold registry names only; an instance would not survive to_json.
    with pytest.raises(ValueError, match="unknown test function"):
        ExperimentPlan(energies=(65,), test_functions=(TEST_FUNCTIONS["one"],))


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
    # The periodic grid rule is exact for 1 and 1 + cos(2 pi t): each lands
    # within 2 ulps of 1 (1 - 1 ulp for cos_y at n = 512).
    low, high = (np.nextafter(np.nextafter(1.0, to), to) for to in (0.0, 2.0))
    for n in (256, 304, 512, 544):
        for name in ("one", "cos_x", "cos_y"):
            assert low <= torus_integral(TEST_FUNCTIONS[name], n) <= high, (name, n)
    # The bump's area is 2 pi w^2 times the integral of t g(t) over [0, 1].
    with mpmath.workdps(30):
        profile = mpmath.quad(lambda t: t * mpmath.exp(1 - 1 / (1 - t * t)), [0, 1])
        bump_area = float(2 * mpmath.pi * mpmath.mpf(BUMP_WIDTH) ** 2 * profile)
    assert bump_area == pytest.approx(0.07925701007047475506, rel=1e-15)
    for n in (256, 304, 544):  # the desk plan's grids; 256 is 5.5e-11 off
        assert torus_integral(TEST_FUNCTIONS["bump"], n) == pytest.approx(bump_area, rel=1e-10), n


def test_torus_integral_rejects_values_that_do_not_broadcast_to_the_block():
    message = "test function must map (k, 1) and (1, n) axes to values that broadcast to (k, n)"
    for fn in (lambda x, y: np.ones(x.size * y.size),  # the old point form's flat values
               lambda x, y: np.ones((1,) + np.broadcast(x, y).shape),
               lambda x, y: np.ones(3)):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            torus_integral(TestFunction("flat", fn, 0.0, 0.0, bounds(1.0, 1.0)), 64)
    # Values that read one axis, or none, are broadcast over the block.
    for fn in (lambda x, y: np.ones_like(x), lambda x, y: np.ones_like(y),
               lambda x, y: np.float64(1.0)):
        assert torus_integral(TestFunction("constant", fn, 0.0, 0.0, bounds(1.0, 1.0)), 64) == 1.0


@pytest.mark.parametrize("n", [256, 512, 544])
def test_torus_integral_blocks_equal_one_mean_over_the_grid(n):
    t = np.arange(n) / n
    pts = np.stack(np.meshgrid(t, t, indexing="ij"), axis=-1).reshape(-1, 2)
    for tf in TEST_FUNCTIONS.values():
        assert torus_integral(tf, n) == float(np.mean(tf(pts))), tf.name


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
    # A repeated name used to run, count its chain twice in chain_hypothesis_met
    # and keep one rho_by_f key.
    with pytest.raises(ValueError, match="^test function 'one' is listed more than once$"):
        ExperimentPlan(energies=(1105,), test_functions=("one", "one", "bump", "bump"))
    with pytest.raises(ValueError, match="^test function 'bump' is listed more than once$"):
        ExperimentPlan(energies=(65,), test_functions=("bump", "one", "bump"))
    with pytest.raises(ValueError, match="unknown tolerance"):
        ExperimentPlan(energies=(65,), tolerances={"nope": 1.0})
    with pytest.raises(ValueError):
        ExperimentPlan(energies=())
    with pytest.raises(ValueError):
        ExperimentPlan(energies=(65,), seeds_per_energy=0)


def test_plan_rejects_negative_stage_seeds():
    # numpy's generators take no negative seed; the plan names the stage instead.
    with pytest.raises(ValueError, match=r"base_seed -5 gives E=65 seed 0 stage 0 the negative"):
        ExperimentPlan(energies=(65,), seeds_per_energy=1, base_seed=-5)
    # Every survey seed is positive here; only the control's is not.
    with pytest.raises(ValueError, match=r"base_seed -1 gives the control \(stage 4\) the "
                                         r"negative seed -998990$"):
        ExperimentPlan(energies=(1105,), seeds_per_energy=1, base_seed=-1)
    ExperimentPlan(energies=(1105,), seeds_per_energy=1, base_seed=-1,
                   include_low_energy_control=False)


def test_plan_rejects_a_control_radius_not_below_a_quarter():
    # The control covers at the scale radius of the top energy, 0.335 at E=2.
    for kwargs in (dict(energies=(2,), seeds_per_energy=2), dict(energies=(65,), rho=0.2)):
        with pytest.raises(ValueError, match=r"control's radius.*include_low_energy_control"):
            ExperimentPlan(**kwargs)
        ExperimentPlan(**kwargs, include_low_energy_control=False)


def test_plan_rejects_under_resolved_doubling_radius(monkeypatch):
    monkeypatch.setattr(harness, "build_cover", None)  # validation builds nothing
    with pytest.raises(ValueError, match=r"inner doubling radius .* at E=1105"):
        ExperimentPlan(energies=(1105,), doubling_a1=0.01)
    # 10 * a1 / lam spans 20.06 cells of the 544-point grid at a1 = 0.77.
    ExperimentPlan(energies=(1105,), doubling_a1=0.77)
    with pytest.raises(ValueError, match="inner doubling radius"):
        ExperimentPlan(energies=(1105,), doubling_a1=0.76)
    # Where the outer radius reaches 1/4 the run skips doubling: no check.
    ExperimentPlan(energies=(65,), doubling_a1=2.5)


def test_plan_rejects_under_resolved_scale_radius(monkeypatch):
    monkeypatch.setattr(harness, "build_cover", None)  # validation builds nothing
    # At rho 0.9 the E=1105 scale radius spans 4.4 cells of the 544-point grid.
    r = scale_radius(2.0 * math.pi * math.sqrt(1105), 0.9)
    with pytest.raises(RadiusUnderResolved) as kernel:
        require_resolved_radius(r, 544)
    with pytest.raises(ValueError) as plan:
        ExperimentPlan(energies=(1105,), rho=0.9)
    assert str(plan.value) == f"{kernel.value} at E=1105"
    assert "spans 4.4 cells at resolution 544" in str(plan.value)


def test_plan_and_sample_grid_share_the_sampling_bound(monkeypatch):
    monkeypatch.setattr(harness, "build_cover", None)  # validation builds nothing
    # One point per ceil(sqrt(E)) gives 64 points at E=1105, below ceil(10 sqrt(1105)) = 333.
    with pytest.raises(ResolutionTooCoarse) as kernel:
        sample_grid(random_eigenfunction(1105, 0), 64)
    with pytest.raises(ValueError) as plan:
        ExperimentPlan(energies=(1105,), grid_min=64, grid_per_sqrt_energy=1)
    assert str(plan.value) == f"{kernel.value} at E=1105"
    assert "grid 64 too coarse for energy 1105; need n >= 333" in str(plan.value)
    require_sampling_grid(1105, 333)


def test_require_resolved_radius_matches_ball_masses():
    # The plan applies the guard where the scale radius is below 1/4, and the
    # smallest plan grid (64) keeps 0.5 - 3/n above that, so no plan reaches
    # it: the plan and ball_masses share require_resolved_radius instead.
    field = sample_grid(random_eigenfunction(65, 0), 256)
    for r in (0.5 - 3.0 / 256, 0.0, 0.01):
        with pytest.raises((BallTooLarge, RadiusUnderResolved)) as kernel:
            ball_masses(field, [[0.5, 0.5]], r)
        with pytest.raises(type(kernel.value), match=f"^{re.escape(str(kernel.value))}$"):
            require_resolved_radius(r, 256)


@pytest.mark.parametrize("key", ["sse_band", "theorem1_inclusion_band"])
def test_plan_rejects_an_inverted_tolerance_pair(key):
    with pytest.raises(ValueError, match=f"tolerance '{key}' must be a \\(low, high\\) pair"):
        ExperimentPlan(energies=(65,), tolerances={key: [3.0, 0.3]})
    # Equal ends are a band of one value, not a typo.
    plan = ExperimentPlan(energies=(65,), tolerances={key: [1.0, 1.0]})
    assert plan.tolerances[key] == (1.0, 1.0)


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
    table = single_ball_table(field, nodal, (0.5, 0.3))
    t1 = check_theorem_1(table)
    expect = 4.0 * (2 * math.pi) ** -1.5
    assert t1.e1_hat == pytest.approx(expect, rel=1e-9)
    assert t1.e2_hat == pytest.approx(expect, rel=1e-9)
    assert t1.included == 1 and t1.excluded == 0
    # A run's chain_e1 and chain_e2 are the least and greatest of these densities.
    assert table.density.tolist() == [pytest.approx(expect, rel=1e-9)]
    # Mass ratio of this ball against the Bessel closed form.
    import mpmath

    r = scale_radius(field.spec_lambda, 0.5)
    arg = 4 * math.pi * r
    want_mass = float(1 - 2 * mpmath.besselj(1, arg) / arg)
    assert table.mass.masses([0])[0] / table.mass.volume == pytest.approx(want_mass, rel=1e-3)


def test_theorem1_exclusion_band():
    field = sample_grid(sine_mode_spec(1), 512)
    from torusnodal.nodal import extract_nodal

    nodal = extract_nodal(field)
    t1 = check_theorem_1(
        single_ball_table(field, nodal, (0.5, 0.3)),
        inclusion_band=(0.99, 1.01),
    )
    assert t1.included == 0 and t1.excluded == 1
    assert math.isnan(t1.e1_hat) and math.isnan(t1.e2_hat)


# ---------------------------------------------------------------- theorem 2


def test_theorem2_unit_weight_reproduces_length_ratio(e65_field, e65_nodal):
    frozen = BASELINE["theorem2"]
    t2 = check_theorem_2(e65_field, integrals_for(
        e65_field, e65_nodal, resolve_test_functions(("one", "cos_x", "cos_y", "bump"))))
    yau = e65_nodal.total_length / e65_field.spec_lambda
    assert t2.rho_by_name["one"] == yau  # bit-exact by construction
    assert t2.c1_hat == pytest.approx(frozen["c1_hat"], rel=1e-9)
    assert t2.c2_hat == pytest.approx(frozen["c2_hat"], rel=1e-9)
    for name, val in frozen["rho"].items():
        assert t2.rho_by_name[name] == pytest.approx(val, rel=1e-9)
    assert t2.trivial_names == ()


def test_theorem2_flags_trivial_weights(e65_field, e65_nodal):
    zero = TestFunction("zero", lambda x, y: np.zeros(np.broadcast(x, y).shape), 0.0, 0.0,
                        bounds(0.0, 0.0))
    t2 = check_theorem_2(e65_field, integrals_for(
        e65_field, e65_nodal, (TEST_FUNCTIONS["one"], zero)))
    assert "zero" in t2.trivial_names
    assert "zero" not in t2.rho_by_name


def test_theorem2_rejects_negative_weights(e65_field, e65_nodal):
    signed = TestFunction(
        "signed", lambda x, y: np.cos(2 * np.pi * x), 2 * np.pi, 1.0, bounds(-1.0, 1.0)
    )
    with pytest.raises(NegativeTestFunction):
        check_theorem_2(e65_field, integrals_for(e65_field, e65_nodal, (signed,)))


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


# The chain links that hold by construction, a per-ball min or max against the
# values it was taken over; chain_identities restates each as (lhs, rhs).
IDENTITY_STEPS = ("ball_min_value", "ball_max_value", "per_ball_nodal_floor",
                  "per_ball_nodal_ceiling", "weighted_floor_sum", "weighted_ceiling_sum")


def chain_identities(field, table, ref):
    """(lhs, rhs) of each IDENTITY_STEPS link, from the per-ball reference terms."""
    lam = field.spec_lambda
    e1, e2 = float(np.min(table.density)), float(np.max(table.density))
    vol = math.pi * table.family.radius ** 2
    ne = table.nonempty
    sum_min = float(np.sum(ref["f_min"] * ref["length"]))
    sum_max = float(np.sum(ref["f_max"] * ref["length"]))
    sum_integral = float(np.sum(ref["integral"]))
    return {
        "ball_min_value": (sum_min, sum_integral),
        "ball_max_value": (sum_integral, sum_max),
        "per_ball_nodal_floor": (e1 * lam * vol, float(np.min(ref["length"]))),
        "per_ball_nodal_ceiling": (float(np.max(ref["length"])), e2 * lam * vol),
        "weighted_floor_sum": (e1 * vol * float(np.sum(ref["f_min"][ne])), sum_min / lam),
        "weighted_ceiling_sum": (sum_max / lam, e2 * vol * float(np.sum(ref["f_max"][ne]))),
    }


def test_chain_regression_against_baseline(e65_field, e65_nodal):
    frozen = BASELINE["chain_cos_x"]
    table = cover_table(e65_field, e65_nodal)
    fi = integrals_of(e65_field, e65_nodal, "cos_x")
    trace = replicate_bound_chain(e65_field, e65_nodal, table, fi)
    assert trace.ok is bool(frozen["ok"]) is True
    assert trace.hypothesis_met is bool(frozen["hypothesis_met"]) is False
    assert table.family.count == frozen["n_balls"]
    assert table.family.overlap_max == frozen["overlap"]
    assert int(np.sum(~table.nonempty)) == frozen["empty_balls"]
    assert float(np.min(table.density)) == pytest.approx(frozen["e1_chain"], rel=1e-9)
    assert float(np.max(table.density)) == pytest.approx(frozen["e2_chain"], rel=1e-9)
    assert fi.area == pytest.approx(frozen["integral_f"], rel=1e-9)
    assert trace.corr_lower == pytest.approx(frozen["corr_lower"], rel=1e-9)
    assert trace.corr_upper == pytest.approx(frozen["corr_upper"], rel=1e-9)
    by_name = {want["name"]: want for want in frozen["steps"]}
    assert set(IDENTITY_STEPS) <= set(by_name)
    assert [s.name for s in trace.steps] == [name for name in by_name
                                             if name not in IDENTITY_STEPS]
    for got in trace.steps:
        want = by_name[got.name]
        assert got.holds is bool(want["holds"])
        assert got.lhs == pytest.approx(want["lhs"], rel=1e-9)
        assert got.rhs == pytest.approx(want["rhs"], rel=1e-9)
        assert got.slack == pytest.approx(want["slack"], rel=1e-9)
    ref = reference_ball_terms(e65_nodal, table, fi.tf)
    for name, (lhs, rhs) in chain_identities(e65_field, table, ref).items():
        want = by_name[name]
        assert want["holds"] is True and want["slack"] == 0.0, name
        assert lhs == pytest.approx(want["lhs"], rel=1e-9), name
        assert rhs == pytest.approx(want["rhs"], rel=1e-9), name
    assert "asymptotic hypothesis unmet" in trace.message
    # The 9x9 lattice estimator the chain read before its exact disk extremes.
    lattice = lattice_chain(e65_field, e65_nodal, table, fi)
    assert lattice.corr_lower == pytest.approx(2.467800109398639, rel=1e-9)
    assert lattice.corr_upper == pytest.approx(0.4321684642943974, rel=1e-9)


def test_chain_unit_weight_meets_hypothesis(e65_field, e65_nodal):
    table = cover_table(e65_field, e65_nodal)
    trace = replicate_bound_chain(e65_field, e65_nodal, table,
                                  integrals_of(e65_field, e65_nodal, "one"))
    assert trace.ok is True
    assert trace.hypothesis_met is True
    assert trace.message == ""
    # With the hypothesis met the lower conclusion is informative: a strictly
    # positive bound below the measured integral.
    lower = [s for s in trace.steps if s.name == "lower_conclusion"][0]
    assert 0.0 < lower.lhs <= integrals_of(e65_field, e65_nodal, "one").area


def test_chain_rough_weight_reports_unmet_hypothesis(e65_field, e65_nodal):
    # A deliberately rough weight at a coarse scale: every step still holds,
    # but the modulus correction swamps the area integral, so the trace
    # reports the asymptotic hypothesis as unmet rather than failing.
    rough = TestFunction(
        "rough",
        lambda x, y: 1.0 + np.cos(2 * np.pi * 16 * x),
        lipschitz=32 * np.pi,
        spread=2.0,
        extremes=bounds(0.0, 2.0),
    )
    lam = e65_field.spec_lambda
    rho = math.log(5.0) / math.log(lam)  # scale radius approximately 0.2
    table = cover_table(e65_field, e65_nodal, rho, seed=1, fs=(rough,))
    trace = replicate_bound_chain(e65_field, e65_nodal, table,
                                  integrals_of(e65_field, e65_nodal, rough))
    assert trace.ok is True
    assert trace.hypothesis_met is False
    assert "asymptotic hypothesis unmet" in trace.message


def test_chain_detects_tampered_cover(e65_field, e65_nodal):
    fam = build_cover(scale_radius(e65_field.spec_lambda, 0.5), seed=0)
    starved = dataclasses.replace(fam, centers=fam.centers[:3])
    table = ball_table(e65_field, e65_nodal, starved, (TEST_FUNCTIONS["cos_x"],))
    trace = replicate_bound_chain(e65_field, e65_nodal, table,
                                  integrals_of(e65_field, e65_nodal, "cos_x"))
    assert trace.ok is False
    failing = {s.name for s in trace.steps if not s.holds}
    assert "nodal_coverage_superadditivity" in failing


# ---------------------------------------------------------------- disk extremes


def polar_disk(center: np.ndarray, radius: float, rings: int = 64, rays: int = 256):
    """Points of the closed disk B(center, radius) on rings and rays, and their covering radius.

    A disk point (rho, theta) lies within radius / (2 rings) of a ring, and
    along that ring within radius * pi / rays of a ray.
    """
    rho = radius * np.arange(rings + 1) / rings
    theta = 2.0 * np.pi * np.arange(rays) / rays
    rim = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    points = center + rho[:, None, None] * rim
    return points.reshape(-1, 2), radius * (0.5 / rings + np.pi / rays)


# Within rounding: 1 + cos of a coordinate and of its reduced distance to 0 differ in last bits.
_ROUNDING = 1e-12
_NEAR_SEAMS = st.tuples(st.sampled_from([0.0, 0.5, 1.0]), st.floats(-0.01, 0.01)).map(
    lambda t: (t[0] + t[1]) % 1.0)
_COORDINATES = st.one_of(st.floats(0.0, 1.0, exclude_max=True), _NEAR_SEAMS)


@st.composite
def disks(draw):
    """(center, radius < 1/4): centers anywhere, on and near the seams, and near the bump's edge."""
    radius = draw(st.floats(0.0, 0.25, exclude_min=True, exclude_max=True))
    if draw(st.booleans()):
        return np.array([draw(_COORDINATES), draw(_COORDINATES)]), radius
    # d = w - R or w + R: the disk's far or near side on the support edge.
    d = BUMP_WIDTH + draw(st.sampled_from([-1.0, 1.0])) * radius + draw(st.floats(-1e-3, 1e-3))
    phi = draw(st.floats(0.0, 2.0 * np.pi))
    return wrap_point(np.array(BUMP_CENTER) + abs(d) * np.array([np.cos(phi), np.sin(phi)])), radius


@settings(max_examples=300, deadline=None)
@given(disk=disks())
def test_extremes_bound_every_function_over_a_dense_polar_sample(disk):
    center, radius = disk
    points, h = polar_disk(center, radius)
    for tf in TEST_FUNCTIONS.values():
        sup, inf = (float(v[0]) for v in tf.extremes(center[None], radius))
        vals = tf(points)
        lo, hi = float(np.min(vals)), float(np.max(vals))
        assert hi - _ROUNDING <= sup <= hi + tf.lipschitz * h + _ROUNDING, tf.name
        assert lo - tf.lipschitz * h - _ROUNDING <= inf <= lo + _ROUNDING, tf.name


def lattice_points(centers: np.ndarray, half_side: float) -> np.ndarray:
    """The 9x9 square lattice of half side half_side around each center, (B, 81, 2)."""
    t = np.linspace(-half_side, half_side, 9)
    gx, gy = np.meshgrid(t, t, indexing="ij")
    return centers[:, None, :] + np.stack([gx.ravel(), gy.ravel()], axis=-1)


def lattice_estimator(tf: TestFunction) -> TestFunction:
    """tf with the chain's former extremes: the max and min over the 9x9 lattice on each disk's
    bounding square, widened by lipschitz times the lattice's covering radius."""
    def extremes(centers, radius):
        vals = tf(lattice_points(centers, radius))
        gap = tf.lipschitz * ((2.0 * radius / 8) * math.sqrt(2.0) / 2.0)
        return np.max(vals, axis=1) + gap, np.min(vals, axis=1) - gap
    return dataclasses.replace(tf, extremes=extremes)


def lattice_chain(field, nodal, table, fi):
    """The bound chain of fi on the lattice estimator: the chain as it was before exact extremes."""
    lattice_tf = lattice_estimator(fi.tf)
    table = table._replace(terms={lattice_tf: table.terms[fi.tf]})
    return replicate_bound_chain(field, nodal, table, fi._replace(tf=lattice_tf))


@pytest.mark.parametrize("energy", [65, 325, 1105])
def test_exact_extremes_sharpen_the_lattice_chain_on_the_desk_runs(energy, monkeypatch):
    plan = plan_from_json(open(DESK_PLAN).read())
    assert energy in plan.energies
    chains = []

    def both(field, nodal, table, fi):
        exact = replicate_bound_chain(field, nodal, table, fi)
        chains.append((table.family, fi.tf, exact, lattice_chain(field, nodal, table, fi)))
        return exact

    monkeypatch.setattr(harness, "replicate_bound_chain", both)
    for seed in range(plan.seeds_per_energy):
        chains.clear()
        run = run_single(plan, energy, seed)
        assert run.chain_ok is all(lattice.ok for *_, lattice in chains) is True
        assert run.chain_hypothesis_met == sum(lattice.hypothesis_met for *_, lattice in chains)
        for fam, tf, exact, lattice in chains:
            reference = lattice_estimator(tf)
            sup, lattice_sup = (f.extremes(fam.centers, fam.reach)[0] for f in (tf, reference))
            inf, lattice_inf = (f.extremes(fam.centers, fam.radius / 2)[1] for f in (tf, reference))
            assert np.all(sup <= lattice_sup) and np.all(inf >= lattice_inf), tf.name
            assert exact.corr_lower <= lattice.corr_lower, tf.name
            assert exact.corr_upper <= lattice.corr_upper, tf.name
            assert (exact.ok, exact.hypothesis_met) == (lattice.ok, lattice.hypothesis_met)


def reference_ball_terms(nodal, table, tf):
    """Per-ball lengths, f-minima, f-maxima, integrals and disk sup/inf, one ball at a time."""
    fam = table.family
    r = table.mass.radius
    probe_eps = math.sqrt(2.0) / (2.0 * PROBE)
    terms = {name: np.zeros(fam.count)
             for name in ("length", "f_min", "f_max", "integral", "sup", "inf")}

    for k, c in enumerate(fam.centers):
        piece_len, piece_mid = clip_to_ball(nodal, c, r)[:2]
        terms["length"][k] = float(np.sum(piece_len))
        if piece_len.size:
            vals = tf(piece_mid)
            if np.min(vals) < -1e-9:
                raise NegativeTestFunction(
                    f"test function {tf.name!r} dips to {float(np.min(vals))!r}")
            terms["integral"][k] = float(np.sum(vals * piece_len))
            terms["f_min"][k] = float(np.min(vals))
            terms["f_max"][k] = float(np.max(vals))
        terms["sup"][k] = tf.extremes(c[None], r + probe_eps)[0][0]
        terms["inf"][k] = tf.extremes(c[None], r / 2.0)[1][0]
    return terms


@pytest.fixture(scope="module")
def sine_pair():
    """sqrt(2) sin(2 pi x): nodal lines x = 0 and x = 1/2 only."""
    field = sample_grid(sine_mode_spec(1), 256)
    return field, extract_nodal(field)


@pytest.mark.parametrize("name", sorted(TEST_FUNCTIONS))
@pytest.mark.parametrize("case", ["e65", "sine", "e1105"])
def test_chain_matches_per_ball_reference(request, case, name):
    if case == "sine":
        # Radius 1/(2 pi): cover balls between the two nodal lines clip nothing.
        field, nodal = request.getfixturevalue("sine_pair")
        rho = 1.0
    else:
        field, nodal = (request.getfixturevalue(f"{case}_{part}") for part in ("field", "nodal"))
        rho = 0.5
    table = cover_table(field, nodal, rho)
    fi = integrals_of(field, nodal, name)
    trace = replicate_bound_chain(field, nodal, table, fi)
    ref = reference_ball_terms(nodal, table, fi.tf)

    r = table.mass.radius
    vol = math.pi * r * r
    enlarged = math.pi * (r + math.sqrt(2.0) / (2.0 * PROBE)) ** 2
    ne = table.nonempty
    quad = 1e-6 * (fi.tf.spread + 1.0)
    assert trace.corr_lower == (float(np.sum((ref["sup"] - ref["f_min"])[ne])) * vol
                                + float(np.sum(ref["sup"][~ne])) * vol
                                + float(np.sum(ref["sup"])) * (enlarged - vol) + quad)
    assert trace.corr_upper == (float(np.sum((ref["f_max"] - ref["inf"])[ne])) * (vol / 4.0)
                                + quad)
    steps = {s.name: s for s in trace.steps}
    assert steps["nodal_coverage_superadditivity"].rhs == float(np.sum(ref["integral"]))
    assert steps["cover_captures_integral"].rhs == vol * float(np.sum(ref["f_min"][ne]))
    assert steps["disjoint_cores_bound_integral"].lhs == vol * float(np.sum(ref["f_max"][ne]))
    assert bool(np.any(~ne)) is (case == "sine")

    # The links that hold by construction, under the chain's own 1e-9 rule;
    # the per-ball floor and ceiling hold both ways.
    identities = chain_identities(field, table, ref)
    for step_name, (lhs, rhs) in identities.items():
        assert _step(step_name, lhs, rhs, 0.0).holds, (step_name, lhs, rhs)
    for step_name in ("per_ball_nodal_floor", "per_ball_nodal_ceiling"):
        rhs, lhs = identities[step_name]
        assert _step(step_name, lhs, rhs, 0.0).holds, (step_name, lhs, rhs)


def test_chain_names_first_negative_ball_like_per_ball_reference(e65_field, e65_nodal):
    # Negative only on a band of x, so some balls pass before one fails.
    signed = TestFunction("signed", lambda x, y: np.cos(2 * np.pi * (x + 0.1)),
                          2 * np.pi, 2.0, bounds(-1.0, 1.0))
    table = cover_table(e65_field, e65_nodal, fs=(signed,))
    with pytest.raises(NegativeTestFunction) as want:
        reference_ball_terms(e65_nodal, table, signed)
    with pytest.raises(NegativeTestFunction) as got:
        replicate_bound_chain(e65_field, e65_nodal, table, FunctionIntegrals(signed, 1.0, 1.0))
    assert str(got.value) == str(want.value)


def test_chain_validates_family_geometry(e65_field, e65_nodal):
    # A table always has a ball, so the chain's min and max of its densities are defined.
    good = build_cover(scale_radius(e65_field.spec_lambda, 0.5), seed=0)
    for broken in (dataclasses.replace(good, overlap_max=0),
                   dataclasses.replace(good, centers=np.empty((0, 2)))):
        with pytest.raises(ValueError) as err:
            ball_table(e65_field, e65_nodal, broken, ())
        assert str(err.value) == ("cover family must have at least one ball and overlap >= 1; "
                                  f"got count={broken.count} overlap_max={broken.overlap_max}")
    assert good.count > 0 and good.overlap_max > 0


def test_ball_table_matches_per_ball_full_scan(e65_field, e65_nodal):
    table = cover_table(e65_field, e65_nodal)
    r = scale_radius(e65_field.spec_lambda, 0.5)
    assert table.lengths.shape == table.nonempty.shape == (table.family.count,)
    piece_max = 0.0
    for k, c in enumerate(table.family.centers):
        piece_len, piece_mid, _ = full_scan_clip(e65_nodal, c, r)
        assert table.lengths[k] == float(np.sum(piece_len))
        assert table.nonempty[k] == (piece_len.size > 0)
        for tf, terms in table.terms.items():
            vals = tf(piece_mid)
            assert terms.integral[k] == float(np.sum(vals * piece_len)), tf.name
            if piece_len.size:
                assert terms.f_min[k] == np.min(vals) and terms.f_max[k] == np.max(vals), tf.name
        piece_max = max(piece_max, float(np.max(piece_len, initial=0.0)))
    assert table.piece_max == piece_max
    assert np.array_equal(table.nonempty, table.lengths > 0.0)


def test_run_single_clips_the_cover_in_one_family_call(monkeypatch):
    calls = []
    real_clip = harness.clip_batches

    def counting_clip(*args, **kwargs):
        calls.append(len(args[1]))
        return real_clip(*args, **kwargs)

    monkeypatch.setattr(harness, "clip_batches", counting_clip)
    run = run_single(ExperimentPlan(energies=(65,)), 65, 7)
    assert run.cover_count == 37
    assert calls == [run.cover_count]


def test_run_single_decides_desk_doubling_and_bands_without_quadrature(monkeypatch):
    # Only the SSE family, whose extremes are reported as floats, measures
    # balls by quadrature on the desk plan's E=1105 fields.
    plan = plan_from_json(open(DESK_PLAN).read())
    measured = {"sse": 0, "other": []}
    sse_families, in_sse = [], []
    real_ball_masses, real_masses = ballstats.ball_masses, ballstats.CertifiedMasses.masses
    real_scan = harness.sse_scan

    def counting(field, centers, r):
        if in_sse and in_sse[-1]:
            measured["sse"] += len(centers)
        else:
            measured["other"].append((r, len(centers)))
        return real_ball_masses(field, centers, r)

    def flagged(self, which=slice(None)):
        in_sse.append(any(self is family for family in sse_families))
        try:
            return real_masses(self, which)
        finally:
            in_sse.pop()

    def scan(*args):
        sse_families.append(real_scan(*args))
        return sse_families[-1]

    monkeypatch.setattr(ballstats, "ball_masses", counting)
    monkeypatch.setattr(ballstats.CertifiedMasses, "masses", flagged)
    monkeypatch.setattr(harness, "sse_scan", scan)
    for seed in range(plan.seeds_per_energy):
        run = run_single(plan, 1105, seed)
        assert run.good_count is not None and run.t1_included == run.cover_count
    assert len(sse_families) == plan.seeds_per_energy
    assert measured["sse"] > 0
    assert measured["other"] == []


def test_run_single_brackets_each_family_once(monkeypatch):
    # The SSE family, the cover and the inner and outer doubling families.
    plan = plan_from_json(open(DESK_PLAN).read())
    radii = []
    real = ballstats._mass_bounds

    def counting(field, centers, r):
        radii.append(r)
        return real(field, centers, r)

    monkeypatch.setattr(ballstats, "_mass_bounds", counting)
    run = run_single(plan, 1105, 0)
    lam = run.lam
    assert radii == [run.radius, run.radius, INNER_FACTOR * plan.doubling_a1 / lam,
                     OUTER_FACTOR * plan.doubling_a1 / lam]


def test_run_single_reads_the_chain_constants_from_its_table(monkeypatch):
    tables = []
    real = harness.ball_table

    def keeping(*args):
        tables.append(real(*args))
        return tables[-1]

    monkeypatch.setattr(harness, "ball_table", keeping)
    run = run_single(plan_from_json(open(DESK_PLAN).read()), 1105, 0)
    (table,) = tables
    assert run.chain_e1 == float(np.min(table.density))
    assert run.chain_e2 == float(np.max(table.density))
    assert run.chain_e1 < run.chain_e2


def test_run_single_integrates_each_function_once(monkeypatch):
    calls = []
    for name in ("torus_integral", "integrate_over_nodal"):
        real = getattr(harness, name)

        def counting(*args, name=name, real=real):
            calls.append(name)
            return real(*args)

        monkeypatch.setattr(harness, name, counting)
    plan = ExperimentPlan(energies=(65,))
    run_single(plan, 65, 7)
    n = len(plan.test_functions)
    assert sorted(calls) == ["integrate_over_nodal"] * n + ["torus_integral"] * n


def test_run_single_takes_every_area_integral_before_sampling(monkeypatch):
    # The area integrals read only the grid, so their n^2 values are built
    # before the field and nodal set exist; a degenerate run takes none.
    calls = []
    for name in ("torus_integral", "sample_grid"):
        real = getattr(harness, name)

        def logging(*args, name=name, real=real):
            calls.append(name)
            return real(*args)

        monkeypatch.setattr(harness, name, logging)
    plan = ExperimentPlan(energies=(65,))
    run_single(plan, 65, 7)
    assert calls == ["torus_integral"] * len(plan.test_functions) + ["sample_grid"]
    calls.clear()
    assert run_single(plan, 1, 0).degenerate is True
    assert calls == ["sample_grid"]


def test_function_integrals_reuse_the_grid_integral(e65_field, e65_nodal):
    sizes = []

    def counting(x, y):
        shape = np.broadcast(x, y).shape
        sizes.append(math.prod(shape))
        return np.ones(shape)

    tf = TestFunction("counting", counting, 0.0, 0.0, bounds(1.0, 1.0))
    first = integrals_for(e65_field, e65_nodal, (tf,))
    assert integrals_for(e65_field, e65_nodal, (tf,)) == first
    # The grid's points are evaluated once in all (in blocks of rows, passed as
    # the rows' and columns' axes), the nodal midpoints once per call.
    assert sizes.count(e65_nodal.count) == 2
    assert sum(sizes) == e65_field.resolution ** 2 + 2 * e65_nodal.count


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


def test_run_columns_follow_their_closed_forms():
    # A desk run's identity and scale columns against their formulas in (E, seed) and
    # the plan: n = max(256, 16 ceil(sqrt E)), lam = 2 pi sqrt E, r = lam^-rho and L / lam.
    plan = plan_from_json(open(DESK_PLAN).read())
    run = run_single(plan, 1105, 3)
    assert (run.energy, run.seed, run.grid) == (1105, 3, max(256, 16 * math.ceil(math.sqrt(1105))))
    assert run.lam == 2.0 * math.pi * math.sqrt(1105)
    assert run.radius == run.lam ** -plan.rho
    assert run.yau_ratio == run.total_length / run.lam
    # 1105 has 32 modes and admits the doubling radius, so no flag is raised.
    assert run.degenerate is False and run.flags == ()


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
    # Workers report each run as it finishes, in whichever order they finish.
    assert sorted(threaded_messages) == expected
    with pytest.raises(ValueError, match="threads must be at least 1"):
        run_plan(plan, threads=0)


def test_run_plan_threads_match_serial_with_control():
    # With workers the control runs in the pool; the report keeps its bytes.
    plan = ExperimentPlan(energies=(65,), seeds_per_energy=2)
    serial = run_plan(plan)
    assert serial.control is not None
    assert report_to_json(run_plan(plan, threads=2)) == report_to_json(serial)


def _logged_run(log_dir, plan, energy, seed):
    """run_single's stand-in: logs that the run started, then fails E=65 seed 0 and idles elsewhere."""
    open(os.path.join(log_dir, f"E{energy}_seed{seed}"), "w").close()
    if seed == 0:
        raise ValueError("run E=65 seed 0 failed")
    time.sleep(0.05)


def test_run_plan_with_workers_cancels_queued_runs_after_a_failure(monkeypatch, tmp_path):
    # Fork workers inherit the patch; the first run submitted fails at once.
    monkeypatch.setattr(harness, "run_single", functools.partial(_logged_run, str(tmp_path)))
    plan = ExperimentPlan(energies=(65,), seeds_per_energy=20, include_low_energy_control=False)
    with pytest.raises(ValueError, match="run E=65 seed 0 failed"):
        run_plan(plan, threads=2)
    assert "E65_seed0" in os.listdir(tmp_path)
    assert len(os.listdir(tmp_path)) < plan.seeds_per_energy


@pytest.fixture
def inline_pool(monkeypatch):
    """Replaces the process pool with one that runs each job at submit time; returns its log."""
    log = {"max_workers": [], "submitted": []}

    class InlinePool:
        def __init__(self, max_workers):
            log["max_workers"].append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            log["submitted"].append("control" if fn is harness.control_run
                                    else f"E={args[1]} seed={args[2]}")
            future = Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(harness, "ProcessPoolExecutor", InlinePool)
    return log


def test_run_plan_submits_highest_energies_first(inline_pool):
    # Degenerate energies (scale radius above 1/4) keep each run short.
    plan = ExperimentPlan(energies=(2, 8, 5), seeds_per_energy=2)
    messages = []
    report = run_plan(plan, threads=2, progress=messages.append)
    # The control goes last, into the worker that would idle behind the longest run.
    assert inline_pool["submitted"] == ["E=8 seed=0", "E=8 seed=1", "E=5 seed=0", "E=5 seed=1",
                                        "E=2 seed=0", "E=2 seed=1", "control"]
    assert report.control is not None
    # Every run reports once, as its future completes; the fold keeps plan order.
    assert sorted(messages) == ["E=2 seed=0 done", "E=2 seed=1 done", "E=5 seed=0 done",
                                "E=5 seed=1 done", "E=8 seed=0 done", "E=8 seed=1 done"]
    assert [(r.energy, r.seed) for r in report.runs] == [(2, 0), (2, 1), (8, 0), (8, 1),
                                                          (5, 0), (5, 1)]
    assert report_to_json(report) == report_to_json(run_plan(plan))


def test_run_plan_caps_workers_at_task_count(inline_pool):
    # Two degenerate runs and the control are three tasks, whatever threads asks for.
    plan = ExperimentPlan(energies=(8,), seeds_per_energy=2)
    report = run_plan(plan, threads=64)
    assert inline_pool["max_workers"] == [3]
    assert report_to_json(report) == report_to_json(run_plan(plan))
    # A lone task needs no pool at all.
    run_plan(ExperimentPlan(energies=(2,), seeds_per_energy=1, include_low_energy_control=False),
             threads=64)
    assert inline_pool["max_workers"] == [3]


def test_theorem1_verdict_fails_without_window_on_empty_ball():
    # An in-band ball that holds no nodal length makes e1 zero; the verdict
    # must fail with no observed window instead of dividing by zero.
    plan = ExperimentPlan(energies=(65,), include_low_energy_control=False)
    run = dataclasses.replace(run_single(plan, 65, 7), e1_hat=0.0)
    verdict = _verdicts(plan, [run], None)["theorem1_comparability"]
    assert verdict["pass"] is False
    assert verdict["window_observed"] is None
    assert verdict["e1_pooled"] == 0.0


def test_theorem2_verdict_fails_without_spread_on_zero_c1():
    # A test function with area mass but no nodal mass makes c1 zero; the
    # verdict must fail with no observed spread instead of dividing by zero.
    plan = ExperimentPlan(energies=(65,), include_low_energy_control=False)
    run = dataclasses.replace(run_single(plan, 65, 7), c1_hat=0.0)
    verdict = _verdicts(plan, [run], None)["theorem2_comparability"]
    assert verdict == {"pass": False, "max_spread": None}


def test_yau_scaling_fails_without_ratios_on_zero_length():
    verdict = check_yau_scaling({25: [0.0] * 10, 50: [0.3] * 10, 65: [0.3] * 10})
    assert verdict["pass"] is False
    assert verdict["overall_ratio"] is None
    assert verdict["median_drift"] is None
    json.dumps(verdict, allow_nan=False)


def test_growth_c9_verdict_fails_without_ratio_on_zero_median():
    plan = ExperimentPlan(energies=(65, 325), include_low_energy_control=False)
    run = run_single(plan, 65, 7)
    runs = [run, dataclasses.replace(run, energy=325, c9_hat=0.0)]
    verdict = _verdicts(plan, runs, None)["growth_c9_uniform"]
    assert verdict["pass"] is False
    assert verdict["ratio"] is None
    assert verdict["median_by_energy"] == {"65": run.c9_hat, "325": 0.0}


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


# The run schema as written by every earlier version: a change to any of
# these lists changes the report.json or runs.csv bytes.
RUNS_CSV_HEADER = [
    "energy", "seed", "grid", "lam", "radius", "total_length", "yau_ratio", "segment_count",
    "degenerate", "d1", "d2", "sse_fraction", "cover_count", "overlap_max", "e1_hat",
    "e2_hat", "t1_included", "t1_excluded", "c1_hat", "c2_hat", "chain_ok",
    "chain_hypothesis_met", "good_fraction", "good_count", "sign_change_fraction",
    "assembled_lower_bound", "a3_hat", "c7_max", "c9_hat", "strip_sup", "real_sup", "flags",
]
REPORT_RUN_KEYS = sorted(RUNS_CSV_HEADER + ["rho_by_f", "chain_e1", "chain_e2",
                                            "strip_certificate"])
AGGREGATED_NAMES = ["yau_ratio", "d1", "d2", "sse_fraction", "e1_hat", "e2_hat",
                    "c1_hat", "c2_hat", "good_fraction", "c7_max", "c9_hat"]


def test_run_schema_is_frozen():
    plan = ExperimentPlan(energies=(65,), seeds_per_energy=1, include_low_energy_control=False)
    run = RunResult(**{f.name: 1.0 for f in dataclasses.fields(RunResult)
                       if f.name not in ("energy", "flags", "rho_by_f", "svg")},
                    energy=65, rho_by_f={"one": 1.0}, svg="<svg/>")
    report = VerificationReport(plan, (run,), None, {}, {})
    assert runs_to_csv(report).splitlines()[0].split(",") == RUNS_CSV_HEADER
    [row] = json.loads(report_to_json(report))["runs"]
    assert list(row) == REPORT_RUN_KEYS
    assert list(_aggregate(plan, [run])["65"]) == AGGREGATED_NAMES
    # Each field owns its own dataclasses.Field.
    assert len({id(f) for f in dataclasses.fields(RunResult)}) == len(dataclasses.fields(RunResult))


# The verdict records as written by every earlier version.
SKIPPED_VERDICTS = {
    "yau_scaling": "needs >= 3 energies with >= 10 non-degenerate runs each",
    "sse_band": "no non-degenerate runs at top energy",
    "control_fails_band": "control disabled",
    "theorem1_comparability": "no non-degenerate runs at top energy",
    "theorem2_comparability": "no non-degenerate runs at top energy",
    "chain_steps": "no non-degenerate runs at top energy",
    "theorem2_one_equals_yau": "f = one not in suite",
    "doubling_good_fraction": "no energy admits the doubling radius",
    "doubling_sign_change": "no energy admits the doubling radius",
    "assembly_consistent": "no energy admits the doubling radius",
    "growth_c9_uniform": "needs >= 2 energies with growth runs",
}
VERDICT_KEYS = {
    "yau_scaling": ["median_by_energy", "median_drift", "median_drift_limit", "overall_ratio",
                    "pass", "window"],
    "sse_band": ["band", "energy", "min_run_fraction", "pass", "pooled_fraction"],
    "control_fails_band": ["d1", "in_band_fraction", "pass"],
    "theorem1_comparability": ["e1_pooled", "e2_pooled", "excluded_balls", "included_balls",
                               "pass", "window_observed"],
    "theorem2_comparability": ["max_spread", "pass"],
    "chain_steps": ["hypothesis_met_counts", "pass", "runs_checked"],
    "theorem2_one_equals_yau": ["pass", "runs_checked"],
    "doubling_good_fraction": ["min_good_fraction", "pass", "runs_checked"],
    "doubling_sign_change": ["min_fraction", "pass"],
    "assembly_consistent": ["pass"],
    "growth_c9_uniform": ["median_by_energy", "pass", "ratio"],
}


def test_verdict_records_are_frozen():
    plan = ExperimentPlan(energies=(65, 325, 1105), seeds_per_energy=10)
    assert _verdicts(plan, [], None) == {
        name: {"pass": None, "note": note} for name, note in SKIPPED_VERDICTS.items()}
    # Ten runs per energy that meet every gate, and a control that fails the band.
    ones = {f.name: 1.0 for f in dataclasses.fields(RunResult)
            if f.name not in ("energy", "seed", "degenerate", "flags", "rho_by_f", "svg")}
    runs = [RunResult(**ones, energy=e, seed=s, degenerate=False, rho_by_f={"one": 1.0})
            for e in plan.energies for s in range(10)]
    control = {"passes_band_gate": False, "in_band_fraction": 0.5, "d1": 0.0}
    verdicts = _verdicts(plan, runs, control)
    assert {name: v["pass"] for name, v in verdicts.items()} == dict.fromkeys(VERDICT_KEYS, True)
    assert {name: sorted(v) for name, v in verdicts.items()} == VERDICT_KEYS


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
