import dataclasses
import json
from operator import attrgetter

import numpy as np
import pytest

from torusnodal import ballstats, doubling, harness
from torusnodal.covering import build_cover
from torusnodal.doubling import (
    DEFAULT_A1,
    DEFAULT_A2,
    OUTER_FACTOR,
    classify_doubling,
    doubling_stage,
    lower_bound_assembly,
    report_to_json,
    sign_changes,
)
from torusnodal.eigenbasis import (
    SampledField,
    random_eigenfunction,
    sample_grid,
    sine_mode_spec,
)
from torusnodal.errors import DivisionByNegligibleMass, RadiusTooLarge, RadiusUnderResolved
from torusnodal.harness import ExperimentPlan, _stage_seed, run_single
from torusnodal.nodal import ball_sums, extract_nodal
from torusnodal.torus import BUDGET_16K

from conftest import clip_family
from test_eigenbasis import traced_peak
from test_nodal import full_scan_clip

BASELINE = json.loads(
    open(__file__.rsplit("/", 1)[0] + "/baselines/fixture_e65_seed7.json").read()
)


def constant_one_field(lam: float, n: int = 256) -> SampledField:
    """A flat positive field with a hand-set frequency for radius bookkeeping."""
    return SampledField(
        resolution=n, values=np.ones((n, n)), spec_lambda=lam
    )


def test_constant_field_doubles_like_area():
    lam = 2 * np.pi * np.sqrt(65.0)
    field = constant_one_field(lam)
    centers = np.array([[0.2, 0.2], [0.7, 0.5], [0.0, 0.9]])
    report = classify_doubling(field, centers, a1=0.5)
    # For a flat profile the two-ball mass ratio is exactly the area factor 4,
    # up to grid quadrature noise.
    assert np.max(np.abs(report.ratios - 4.0)) < 0.08
    assert report.good_fraction == 1.0
    assert report.inner.radius == pytest.approx(10 * 0.5 / lam)
    assert report.outer.radius == pytest.approx(20 * 0.5 / lam)


def test_doubling_rejects_low_energy_at_default_scale():
    field = sample_grid(random_eigenfunction(65, 7), 256)
    with pytest.raises(RadiusTooLarge):
        classify_doubling(field, np.array([[0.5, 0.5]]), a1=2.5)


def test_doubling_rejects_vanishing_inner_mass():
    n = 256
    dead = SampledField(
        resolution=n, values=np.zeros((n, n)), spec_lambda=50.0
    )
    with pytest.raises(DivisionByNegligibleMass):
        classify_doubling(dead, np.array([[0.5, 0.5]]), a1=0.5)


def test_doubling_names_first_center_with_vanishing_inner_mass():
    n = 256
    values = np.ones((n, n))
    values[: n // 2] = 0.0  # dead for x < 1/2
    field = SampledField(resolution=n, values=values, spec_lambda=50.0)
    centers = np.array([[0.75, 0.5], [0.25, 0.5], [0.2, 0.1]])
    with pytest.raises(DivisionByNegligibleMass) as err:
        classify_doubling(field, centers, a1=0.5)
    assert str(err.value) == (f"inner mass 0.0 at center {tuple(centers[1])} "
                              f"below working precision")


def test_doubling_decisions_equal_the_exact_ones_at_observed_ratios(monkeypatch, e65_field):
    r_out = 20 * 0.5 / e65_field.spec_lambda
    centers = build_cover(r_out / 2.0, seed=11).centers
    ratios = classify_doubling(e65_field, centers, a1=0.5).ratios
    measured = []
    real = ballstats.ball_masses

    def counting(field, centers, r):
        measured.append(len(centers))
        return real(field, centers, r)

    monkeypatch.setattr(ballstats, "ball_masses", counting)
    for x in (ratios.min(), ratios.max(), np.median(ratios)):
        for a2 in (x, np.nextafter(x, -np.inf)):
            measured.clear()
            report = classify_doubling(e65_field, centers, a1=0.5, a2=a2)
            assert np.array_equal(report.good, ratios <= a2), a2
            # The ball whose ratio is a2 forces the quadrature at both radii; most need none.
            assert 0 < sum(measured) < len(centers), a2


def test_a_bracket_reaching_zero_decides_no_doubling_ratio():
    # Around x = 0.35 the inner ball (radius 0.1) sees only the faint half, whose
    # mass lies below the bracket's slack, while the outer ball (radius 0.2)
    # reaches the bright half.  The quotient of brackets, taken over a lower
    # end <= 0, would call the ball good.
    n = 256
    values = np.ones((n, n))
    values[: n // 2] = 1e-6
    field = SampledField(resolution=n, values=values, spec_lambda=50.0)
    report = classify_doubling(field, np.array([[0.35, 0.5], [0.75, 0.5]]), a1=0.5)
    assert report.inner.lo[0] <= 0.0 < report.inner.masses([0])[0]
    assert report.good.tolist() == (report.ratios <= DEFAULT_A2).tolist() == [False, True]


def test_sign_change_detection_tracks_distance_to_zero_line():
    # Hand-set frequency shrinks the probe so the ball at x = 1/4 misses the
    # zero lines of sin(2*pi*x) while the ball on x = 0 straddles one.
    values = sample_grid(sine_mode_spec(1), 512).values
    field = SampledField(resolution=512, values=values, spec_lambda=100.0)
    centers = np.array([[0.25, 0.5], [0.0, 0.5]])
    report = classify_doubling(field, centers, a1=0.5)
    assert bool(report.has_nodal_point[0]) is False
    assert bool(report.has_nodal_point[1]) is True


def test_good_flags_follow_the_threshold():
    field = sample_grid(random_eigenfunction(65, 7), 256)
    centers = np.array([[0.1, 0.2], [0.5, 0.5], [0.8, 0.9], [0.33, 0.71]])
    report = classify_doubling(field, centers, a1=0.5, a2=16.0)
    assert np.array_equal(report.good, report.ratios <= 16.0)
    assert 0.0 <= report.good_fraction <= 1.0
    assert len(report.centers) == 4


def test_assembly_regression_and_consistency(e65_field, e65_nodal):
    frozen = BASELINE["doubling_a1_0p5"]
    from torusnodal.covering import build_cover

    r_out = 20 * 0.5 / e65_field.spec_lambda
    fam = build_cover(r_out / 2.0, seed=11)
    report = classify_doubling(e65_field, fam.centers, a1=0.5)
    assert len(report.centers) == frozen["count"]
    assert report.good_fraction == pytest.approx(frozen["good_fraction"], rel=1e-12)
    assert report.nodal_fraction_among_good == pytest.approx(
        frozen["sign_change_fraction"], rel=1e-12
    )

    assembly = lower_bound_assembly(report, e65_nodal)
    assert assembly["good_count"] == frozen["good_count"]
    assert assembly["a3_hat"] == pytest.approx(frozen["a3_hat"], rel=1e-9)
    assert assembly["assembled_lower_bound"] == pytest.approx(
        frozen["assembled_lower_bound"], rel=1e-9
    )
    # The assembled bound is a genuine lower bound for the measured length.
    assert assembly["assembled_lower_bound"] <= e65_nodal.total_length


def test_assembly_lengths_match_per_ball_full_scan(e65_field, e65_nodal):
    from torusnodal.covering import build_cover

    r_out = 20 * 0.5 / e65_field.spec_lambda
    # a2 = 4 splits this family's doubling ratios (2.6 to 9.7) into good and bad balls.
    report = classify_doubling(e65_field, build_cover(r_out / 2.0, seed=11).centers,
                               a1=0.5, a2=4.0)
    assert 0 < np.sum(report.good) < len(report.centers)
    lengths = lower_bound_assembly(report, e65_nodal)["lengths"]
    want = [float(np.sum(full_scan_clip(e65_nodal, c, report.inner.radius)[0])) if good else 0.0
            for c, good in zip(report.centers, report.good)]
    assert lengths.tolist() == want


def parent_lower_bound_assembly(report, nodal):
    """The lower_bound_assembly that the sliced clip replaced: every good ball in one clip_family."""
    piece_len, _, offsets = clip_family(nodal, report.centers[report.good], report.inner.radius)
    lengths = np.zeros(len(report.centers))
    lengths[report.good] = ball_sums(piece_len, offsets)
    good_lengths = lengths[report.good]
    bound = float(np.sum(good_lengths)) / doubling.OVERLAP_VOLUME_BOUND
    a3 = float(np.min(good_lengths) * report.lam) if good_lengths.size else float("nan")
    return {
        "assembled_lower_bound": bound,
        "a3_hat": a3,
        "good_count": int(np.sum(report.good)),
        "lengths": lengths,
    }


@pytest.fixture(scope="module")
def e1105_report(e1105_field, e1105_nodal):
    return doubling_stage(e1105_field, e1105_nodal, DEFAULT_A1, DEFAULT_A2, 3)[0]


def test_assembly_matches_the_parent_kernel(e65_field, e65_nodal, e1105_nodal, e1105_report):
    mixed = classify_doubling(e65_field, build_cover(10 * 0.5 / e65_field.spec_lambda,
                                                     seed=11).centers, a1=0.5, a2=4.0)
    assert 0 < np.sum(mixed.good) < len(mixed.centers)
    cases = [(mixed, e65_nodal, "mixed")]
    for report, nodal in ((mixed, e65_nodal), (e1105_report, e1105_nodal)):
        for good in (False, True):
            flags = np.full(len(report.centers), good)
            cases.append((dataclasses.replace(report, good=flags), nodal, f"all good={good}"))
    for report, nodal, label in cases:
        got, want = lower_bound_assembly(report, nodal), parent_lower_bound_assembly(report, nodal)
        assert got.keys() == want.keys(), label
        for key in got:
            assert np.asarray(got[key]).tobytes() == np.asarray(want[key]).tobytes(), (label, key)


def test_assembly_memory_is_bounded(e1105_nodal, e1105_report):
    # tracemalloc peak over the 50 good balls at E=1105, seed 0, N=544: 1.74 MB
    # with clip_lengths (2.50 MB clipping six balls per clip_family call), against
    # 9.39 MB for parent_lower_bound_assembly's pieces of all of them.
    assert np.all(e1105_report.good)
    peak = traced_peak(lambda: lower_bound_assembly(e1105_report, e1105_nodal))
    assert peak < 5_000_000 <= traced_peak(
        lambda: parent_lower_bound_assembly(e1105_report, e1105_nodal)), peak


def test_report_json_round_trip(e65_field):
    from torusnodal.covering import build_cover

    r_out = 20 * 0.5 / e65_field.spec_lambda
    fam = build_cover(r_out / 2.0, seed=11)
    report = classify_doubling(e65_field, fam.centers, a1=0.5)
    blob = json.loads(report_to_json(report))
    assert blob["a1"] == 0.5
    assert blob["count"] == len(report.centers)
    assert blob["good_fraction"] == report.good_fraction
    assert len(blob["ratios"]) == len(report.centers)


def test_sign_probe_matches_the_per_ball_probe(e65_field):
    from torusnodal.covering import build_cover
    from torusnodal.doubling import SIGN_PROBE_SIDE
    from torusnodal.torus import wrap_point

    # a1 = 0.5 shrinks the core balls until some miss the nodal set.
    report = classify_doubling(e65_field, build_cover(10 * 0.5 / e65_field.spec_lambda,
                                                      seed=11).centers, a1=0.5)
    r = 0.5 / e65_field.spec_lambda
    t = np.linspace(-r, r, SIGN_PROBE_SIDE)
    gx, gy = np.meshgrid(t, t, indexing="ij")
    mask = gx * gx + gy * gy <= r * r
    want = []
    for c in report.centers:
        vals = e65_field.interp(wrap_point(c + np.stack([gx[mask], gy[mask]], axis=-1)))
        want.append(bool(np.min(vals) < 0.0 < np.max(vals)))
    assert report.has_nodal_point.tolist() == want
    assert 0 < sum(want) < len(want)
    # The probe runs over more than one batch of centers.
    assert len(want) * np.sum(mask) > BUDGET_16K


def test_sign_probe_memory_is_bounded(e1105_field, e1105_report):
    # tracemalloc peak over the 50 centers at E=1105, seed 0, N=544 (about
    # 800 probe points each): 2.51 MB, against 5.06 MB for one batch of all.
    centers, r = e1105_report.centers, DEFAULT_A1 / e1105_report.lam
    peak = traced_peak(lambda: sign_changes(e1105_field, centers, r))
    assert peak < 3_000_000, peak


def inline_doubling_stage(field, nodal, a1, a2, seed):
    """The stage wired inline from its three calls; doubling_stage must match it bit for bit."""
    r_out = OUTER_FACTOR * a1 / field.spec_lambda
    family = build_cover(r_out / 2.0, seed)
    report = classify_doubling(field, family.centers, a1=a1, a2=a2)
    return report, lower_bound_assembly(report, nodal)


# Every value of a DoublingReport that the doubling command's JSON or verify reads.
REPORT_VALUES = ("a1", "a2", "lam", "inner.radius", "outer.radius", "centers", "ratios", "good",
                 "has_nodal_point")


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_doubling_stage_matches_the_inline_wiring(seed):
    plan = ExperimentPlan(energies=(1105,), seeds_per_energy=3)
    field = sample_grid(random_eigenfunction(1105, _stage_seed(plan, 1105, seed, 0)),
                        plan.grid_for(1105))
    nodal = extract_nodal(field)
    stage_seed = _stage_seed(plan, 1105, seed, 3)
    # Every ball is good at a2 = 16 here; a2 = 4 also leaves zero-length bad balls.
    good_counts = []
    for a2 in (DEFAULT_A2, 4.0):
        report, assembly = doubling_stage(field, nodal, DEFAULT_A1, a2, stage_seed)
        want_report, want = inline_doubling_stage(field, nodal, DEFAULT_A1, a2, stage_seed)
        for name in REPORT_VALUES:
            got_value, want_value = attrgetter(name)(report), attrgetter(name)(want_report)
            assert np.asarray(got_value).tobytes() == np.asarray(want_value).tobytes(), name
        assert assembly.keys() == want.keys()
        for key in assembly:
            assert np.asarray(assembly[key]).tobytes() == np.asarray(want[key]).tobytes(), key
        good_counts.append(assembly["good_count"])
    assert 0 < good_counts[1] < good_counts[0]


def quarter_a1(lam):
    """The largest a1 whose outer radius 20 a1 / lam lies below 1/4, and the float after it."""
    a1 = lam / 80.0
    while 20.0 * a1 / lam >= 0.25:
        a1 = np.nextafter(a1, 0.0)
    while 20.0 * a1 / lam < 0.25:
        a1 = np.nextafter(a1, np.inf)
    return float(np.nextafter(a1, 0.0)), float(a1)


def test_plan_validation_checks_doubling_up_to_the_quarter(monkeypatch):
    lam = 2.0 * np.pi * np.sqrt(65.0)
    below, at = quarter_a1(lam)
    assert 20.0 * below / lam < 0.25 <= 20.0 * at / lam
    checked = []
    monkeypatch.setattr(harness, "require_resolved_doubling",
                        lambda lam, a1, n: checked.append(a1))
    ExperimentPlan(energies=(65,), doubling_a1=below)
    ExperimentPlan(energies=(65,), doubling_a1=at)
    assert checked == [below]  # the run skips doubling at 1/4, so the plan checks nothing


def test_run_single_runs_doubling_only_below_the_quarter():
    below, at = quarter_a1(2.0 * np.pi * np.sqrt(65.0))
    runs = {a1: run_single(ExperimentPlan(energies=(65,), seeds_per_energy=1, doubling_a1=a1,
                                          include_low_energy_control=False), 65, 0)
            for a1 in (below, at)}
    assert runs[below].good_count > 0
    assert "doubling_radius_too_large_at_this_energy" not in runs[below].flags
    assert runs[at].good_count is None
    assert "doubling_radius_too_large_at_this_energy" in runs[at].flags
    field = sample_grid(random_eigenfunction(65, 7), 256)
    with pytest.raises(RadiusTooLarge):
        doubling_stage(field, extract_nodal(field), at, DEFAULT_A2, 0)


def test_doubling_stage_checks_its_inputs_before_building_a_cover(monkeypatch, e65_field):
    # A tiny a1 would size the cover's candidate lattice as ceil(8 / r)^2 with
    # r = 10 a1 / lam, and a negative a1 would reach build_cover's radius check.
    def no_cover(*args, **kwargs):
        raise AssertionError("build_cover called for a rejected input")

    monkeypatch.setattr(doubling, "build_cover", no_cover)
    nodal = extract_nodal(e65_field)
    with pytest.raises(RadiusUnderResolved, match="inner doubling radius"):
        doubling_stage(e65_field, nodal, 1e-300, DEFAULT_A2, 0)
    with pytest.raises(ValueError, match="doubling constants must be positive"):
        doubling_stage(e65_field, nodal, -1.0, DEFAULT_A2, 0)
