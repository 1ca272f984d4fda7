import json

import numpy as np
import pytest

from torusnodal.doubling import (
    classify_doubling,
    dilate,
    lower_bound_assembly,
    report_to_json,
)
from torusnodal.eigenbasis import (
    SampledField,
    evaluate,
    random_eigenfunction,
    sample_grid,
    sine_mode_spec,
)
from torusnodal.errors import ChartExceeded, DivisionByNegligibleMass, RadiusTooLarge
from torusnodal.nodal import extract_nodal

from test_nodal import full_scan_clip

BASELINE = json.loads(
    open(__file__.rsplit("/", 1)[0] + "/baselines/fixture_e65_seed7.json").read()
)


def constant_one_field(lam: float, n: int = 256) -> SampledField:
    """A flat positive field with a hand-set frequency for radius bookkeeping."""
    return SampledField(
        resolution=n, values=np.ones((n, n)), spec_lambda=lam, spec=None
    )


def test_dilated_view_matches_spec_evaluation():
    spec = random_eigenfunction(65, 7)
    field = sample_grid(spec, 256)
    center = np.array([0.3, 0.6])
    r = 0.02
    view = dilate(field, center, r)
    assert view.mu == pytest.approx(r * field.spec_lambda)
    ys = np.array([[0.0, 0.0], [1.0, 0.0], [-2.0, 3.0], [8.0, -5.0]])
    got = view.evaluate(ys)
    want = evaluate(spec, (center + r * ys) % 1.0)
    assert np.max(np.abs(got - want)) < 1e-12


def test_dilation_radius_cap():
    field = sample_grid(random_eigenfunction(65, 0), 256)
    with pytest.raises(RadiusTooLarge):
        dilate(field, (0.5, 0.5), 1.0 / 40.0)
    dilate(field, (0.5, 0.5), 1.0 / 41.0)  # just inside the chart cap


def test_dilated_view_chart_bound():
    field = sample_grid(random_eigenfunction(65, 0), 256)
    view = dilate(field, (0.5, 0.5), 0.02)
    with pytest.raises(ChartExceeded):
        view.evaluate(np.array([[10.5, 0.0]]))


def test_constant_field_doubles_like_area():
    lam = 2 * np.pi * np.sqrt(65.0)
    field = constant_one_field(lam)
    centers = np.array([[0.2, 0.2], [0.7, 0.5], [0.0, 0.9]])
    report = classify_doubling(field, centers, a1=0.5)
    # For a flat profile the two-ball mass ratio is exactly the area factor 4,
    # up to grid quadrature noise.
    assert np.max(np.abs(report.ratios - 4.0)) < 0.08
    assert report.good_fraction == 1.0
    assert report.inner_radius == pytest.approx(10 * 0.5 / lam)
    assert report.outer_radius == pytest.approx(20 * 0.5 / lam)


def test_doubling_rejects_low_energy_at_default_scale():
    field = sample_grid(random_eigenfunction(65, 7), 256)
    with pytest.raises(RadiusTooLarge):
        classify_doubling(field, np.array([[0.5, 0.5]]), a1=2.5)


def test_doubling_rejects_vanishing_inner_mass():
    n = 256
    dead = SampledField(
        resolution=n, values=np.zeros((n, n)), spec_lambda=50.0, spec=None
    )
    with pytest.raises(DivisionByNegligibleMass):
        classify_doubling(dead, np.array([[0.5, 0.5]]), a1=0.5)


def test_doubling_names_first_center_with_vanishing_inner_mass():
    n = 256
    values = np.ones((n, n))
    values[: n // 2] = 0.0  # dead for x < 1/2
    field = SampledField(resolution=n, values=values, spec_lambda=50.0, spec=None)
    centers = np.array([[0.75, 0.5], [0.25, 0.5], [0.2, 0.1]])
    with pytest.raises(DivisionByNegligibleMass) as err:
        classify_doubling(field, centers, a1=0.5)
    assert str(err.value) == (f"inner mass 0.0 at center {tuple(centers[1])} "
                              f"below working precision")


def test_sign_change_detection_tracks_distance_to_zero_line():
    # Hand-set frequency shrinks the probe so the ball at x = 1/4 misses the
    # zero lines of sin(2*pi*x) while the ball on x = 0 straddles one.
    values = sample_grid(sine_mode_spec(1), 512).values
    field = SampledField(resolution=512, values=values, spec_lambda=100.0, spec=None)
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
    assert report.count == 4


def test_assembly_regression_and_consistency(e65_field, e65_nodal):
    frozen = BASELINE["doubling_a1_0p5"]
    from torusnodal.covering import build_cover

    r_out = 20 * 0.5 / e65_field.spec_lambda
    fam = build_cover(r_out / 2.0, seed=11)
    report = classify_doubling(e65_field, fam.centers, a1=0.5)
    assert report.count == frozen["count"]
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
    assert assembly["total_length"] == pytest.approx(e65_nodal.total_length)


def test_assembly_lengths_match_per_ball_full_scan(e65_field, e65_nodal):
    from torusnodal.covering import build_cover

    r_out = 20 * 0.5 / e65_field.spec_lambda
    # a2 = 4 splits this family's doubling ratios (2.6 to 9.7) into good and bad balls.
    report = classify_doubling(e65_field, build_cover(r_out / 2.0, seed=11).centers,
                               a1=0.5, a2=4.0)
    assert 0 < np.sum(report.good) < report.count
    lengths = lower_bound_assembly(report, e65_nodal)["lengths"]
    want = [float(np.sum(full_scan_clip(e65_nodal, c, report.inner_radius)[0])) if good else 0.0
            for c, good in zip(report.centers, report.good)]
    assert lengths.tolist() == want


def test_report_json_round_trip(e65_field):
    from torusnodal.covering import build_cover

    r_out = 20 * 0.5 / e65_field.spec_lambda
    fam = build_cover(r_out / 2.0, seed=11)
    report = classify_doubling(e65_field, fam.centers, a1=0.5)
    blob = json.loads(report_to_json(report))
    assert blob["a1"] == 0.5
    assert blob["count"] == report.count
    assert blob["good_fraction"] == report.good_fraction
    assert len(blob["ratios"]) == report.count
