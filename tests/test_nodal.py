import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st

from torusnodal.eigenbasis import (
    constant_spec,
    random_eigenfunction,
    sample_grid,
    separable_sine_spec,
    sine_mode_spec,
)
from torusnodal.covering import build_cover
from torusnodal.doubling import DEFAULT_A1, OUTER_FACTOR
from torusnodal.errors import BallTooLarge
from torusnodal.harness import ExperimentPlan
from torusnodal.nodal import (
    NodalSet,
    ball_sums,
    clip_family,
    clip_to_ball,
    extract_nodal,
    integrate_over_nodal,
    nodal_from_csv,
    nodal_to_csv,
)
from torusnodal.torus import wrap_delta, wrap_point


def test_sine_line_length_and_count():
    # u = sqrt(2) sin(2*pi*x) vanishes on the two vertical lines x in {0, 1/2},
    # total length exactly 2 on the torus.
    nodal = extract_nodal(sample_grid(sine_mode_spec(1), 256))
    assert nodal.total_length == pytest.approx(2.0, rel=1e-12)
    assert nodal.count == 512  # two lines, 256 cells each


def test_sine_k2_doubles_the_length():
    nodal = extract_nodal(sample_grid(sine_mode_spec(2), 256))
    assert nodal.total_length == pytest.approx(4.0, rel=1e-12)


def test_separable_fixture_length_with_saddles():
    # Four unit lines crossing at four saddle points; corner cutting at the
    # saddles may shave a little length but stays within half a percent.
    nodal = extract_nodal(sample_grid(separable_sine_spec(), 512))
    assert nodal.total_length == pytest.approx(4.0, rel=5e-3)


def test_constant_field_has_empty_nodal_set():
    nodal = extract_nodal(sample_grid(constant_spec(), 256))
    assert nodal.count == 0
    assert nodal.total_length == 0.0


def test_extraction_is_deterministic(e65_field):
    one = extract_nodal(e65_field)
    two = extract_nodal(e65_field)
    assert np.array_equal(one.a, two.a)
    assert np.array_equal(one.b, two.b)
    assert np.array_equal(one.lengths, two.lengths)


def test_segment_geometry_invariants(e65_nodal):
    n = e65_nodal.source_resolution
    # Marching squares on an n-grid cannot produce segments longer than a
    # cell diagonal.
    assert np.max(e65_nodal.lengths) <= math.sqrt(2.0) / n + 1e-12
    assert np.all(e65_nodal.lengths > 0.0)
    # Endpoints live in the fundamental domain.
    for pts in (e65_nodal.a, e65_nodal.b):
        assert np.all(pts >= 0.0) and np.all(pts < 1.0)
    # Lengths and midpoints are consistent with the wrapped endpoints.
    delta = wrap_delta(e65_nodal.b - e65_nodal.a)
    assert np.max(np.abs(np.linalg.norm(delta, axis=1) - e65_nodal.lengths)) < 1e-12
    mid = (e65_nodal.a + delta / 2.0) % 1.0
    assert np.max(np.abs(wrap_delta(mid - e65_nodal.midpoints))) < 1e-12


def length_in(nodal, center, r):
    """Nodal length inside one ball, through the family kernel."""
    piece_len, _, offsets = clip_family(nodal, [center], r)
    return float(ball_sums(piece_len, offsets)[0])


def test_chord_clip_against_closed_form():
    # Ball B((0.45, 0.5), 0.1) meets only the line x = 1/2; the chord length
    # is 2*sqrt(r^2 - d^2) with d = 0.05.  Computed in extended precision.
    nodal = extract_nodal(sample_grid(sine_mode_spec(1), 256))
    with mpmath.workdps(50):
        expect = float(2 * mpmath.sqrt(mpmath.mpf("0.1") ** 2 - mpmath.mpf("0.05") ** 2))
    assert length_in(nodal, (0.45, 0.5), 0.1) == pytest.approx(expect, abs=1e-12)


def test_chord_clip_across_the_seam():
    # A ball centered on the x = 0 line, wrapped across the torus seam,
    # captures a full diameter of that line.
    nodal = extract_nodal(sample_grid(sine_mode_spec(1), 256))
    assert length_in(nodal, (0.0, 0.2), 0.08) == pytest.approx(0.16, abs=1e-12)


def test_chord_weighted_integral_against_closed_form():
    # Integrate f(y) = 1 + cos(2*pi*y) along the chord x = 1/2,
    # y in [1/2 - h, 1/2 + h]: the exact value is 2h - sin(2*pi*h)/pi.
    nodal = extract_nodal(sample_grid(sine_mode_spec(1), 256))
    piece_len, piece_mid = clip_to_ball(nodal, (0.45, 0.5), 0.1)
    got = float(np.sum((1.0 + np.cos(2 * np.pi * piece_mid[:, 1])) * piece_len))
    h = math.sqrt(0.1**2 - 0.05**2)
    expect = 2 * h - math.sin(2 * math.pi * h) / math.pi
    assert got == pytest.approx(expect, abs=2e-5)


def full_scan_clip(nodal, center, r):
    """Reference clip: the near test and chord arithmetic on every segment."""
    c = np.asarray(center, dtype=float)
    near = np.linalg.norm(wrap_delta(nodal.midpoints - c), axis=1) <= r + nodal.lengths / 2.0
    idx = np.nonzero(near)[0]
    a = wrap_delta(nodal.a[idx] - c)
    d = wrap_delta(wrap_delta(nodal.b[idx] - c) - a)
    qa = np.sum(d * d, axis=1)
    qb = 2.0 * np.sum(a * d, axis=1)
    qc = np.sum(a * a, axis=1) - r * r
    disc = qb * qb - 4.0 * qa * qc
    ok = (disc > 0.0) & (qa > 1e-300)
    lo = np.zeros(idx.size)
    hi = np.zeros(idx.size)
    root = np.sqrt(np.where(ok, disc, 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        lo[ok] = np.clip(((-qb - root) / (2.0 * qa))[ok], 0.0, 1.0)
        hi[ok] = np.clip(((-qb + root) / (2.0 * qa))[ok], 0.0, 1.0)
    keep = hi - lo > 0.0
    tmid = (lo[keep] + hi[keep]) / 2.0
    piece_mid = wrap_point(c + a[keep] + d[keep] * tmid[:, None])
    return (hi - lo)[keep] * nodal.lengths[idx[keep]], piece_mid, idx[keep]


def oracle_sets(e65_nodal, tmp_path):
    path = tmp_path / "nodal.csv"
    nodal_to_csv(e65_nodal, str(path))
    empty = np.empty((0, 2))
    # Segments far longer than a bucket is wide, so a ball can reach
    # segments whose midpoints lie several buckets away.
    rng = np.random.default_rng(5)
    a = rng.random((400, 2))
    angle = 2 * np.pi * rng.random(400)
    delta = 0.2 * rng.random(400)[:, None] * np.column_stack([np.cos(angle), np.sin(angle)])
    long = NodalSet(a, wrap_point(a + delta), np.linalg.norm(delta, axis=1),
                    wrap_point(a + delta / 2.0), 0, float("nan"))
    return {
        "e65": e65_nodal,
        "csv": nodal_from_csv(str(path)),
        "empty": NodalSet(empty, empty, np.empty(0), empty.copy(), 256, 1.0),
        "long": long,
    }


SEAM_CENTERS = [(0.0, 0.0), (1.0 - 1e-12, 1.0 - 1e-12), (0.0, 0.37), (0.37, 0.0),
                (1.0 - 1e-12, 0.61), (0.61, 1.0 - 1e-12), (0.5, 0.5), (-0.02, 1.3)]


def assert_family_matches_full_scan(nodal, centers, r, label):
    piece_len, piece_mid, offsets = clip_family(nodal, centers, r)
    assert offsets.shape == (len(centers) + 1,) and offsets[0] == 0, label
    assert offsets[-1] == piece_len.size == piece_mid.shape[0], label
    for k, c in enumerate(centers):
        want_len, want_mid, _ = full_scan_clip(nodal, c, r)
        got_len = piece_len[offsets[k]:offsets[k + 1]]
        got_mid = piece_mid[offsets[k]:offsets[k + 1]]
        for g, w in ((got_len, want_len), (got_mid, want_mid)):
            assert np.array_equal(g, w) and g.shape == w.shape, (label, k, tuple(c))


def test_bucket_index_clip_matches_full_scan(e65_nodal, tmp_path):
    centers = SEAM_CENTERS + [tuple(c) for c in np.random.default_rng(3).random((12, 2))]
    for name, nodal in oracle_sets(e65_nodal, tmp_path).items():
        limit = 0.5 - (float(np.max(nodal.lengths)) if nodal.count else 0.0)
        # Radii end just below 0.5 - max_len; on the marching-squares sets
        # that window covers the whole torus and the index skips nothing.
        radii = [r for r in (0.01, 0.037, 0.14, 0.3, 0.45) if r < limit] + [limit - 1e-12]
        for r in radii:
            assert_family_matches_full_scan(nodal, centers, r, (name, r))


@pytest.mark.parametrize("energy", [65, 325, 1105])
def test_family_clip_matches_full_scan_on_run_families(energy):
    # The families a run clips: the cover at the scale radius, and the
    # doubling cover clipped at the inner doubling radius.
    plan = ExperimentPlan(energies=(energy,))
    field = sample_grid(random_eigenfunction(energy, 4), plan.grid_for(energy))
    nodal = extract_nodal(field)
    lam = field.spec_lambda
    r = plan.scale()(lam)
    assert_family_matches_full_scan(nodal, build_cover(r, 4).centers, r, "cover")
    a1 = DEFAULT_A1 if OUTER_FACTOR * DEFAULT_A1 / lam < 0.25 else 0.5
    doubling = build_cover(OUTER_FACTOR * a1 / lam / 2.0, 5).centers
    assert_family_matches_full_scan(nodal, doubling, 10.0 * a1 / lam, "doubling")
    limit = 0.5 - float(np.max(nodal.lengths)) - 1e-12
    assert_family_matches_full_scan(nodal, SEAM_CENTERS, limit, "limit")


def test_family_clip_of_no_balls_and_of_the_empty_set(e65_nodal, tmp_path):
    for name, nodal in oracle_sets(e65_nodal, tmp_path).items():
        piece_len, piece_mid, offsets = clip_family(nodal, [], 0.1)
        assert piece_len.shape == (0,) and piece_mid.shape == (0, 2), name
        assert np.array_equal(offsets, [0]), name
        assert ball_sums(piece_len, offsets).shape == (0,), name
    empty = oracle_sets(e65_nodal, tmp_path)["empty"]
    piece_len, piece_mid, offsets = clip_family(empty, SEAM_CENTERS, 0.2)
    assert piece_len.shape == (0,) and piece_mid.shape == (0, 2)
    assert np.array_equal(offsets, np.zeros(len(SEAM_CENTERS) + 1))
    assert np.array_equal(ball_sums(piece_len, offsets), np.zeros(len(SEAM_CENTERS)))


def test_ball_sums_round_like_a_sum_over_each_ball_alone(e65_nodal):
    centers = np.random.default_rng(8).random((20, 2))
    piece_len, _, offsets = clip_family(e65_nodal, centers, 0.2)
    got = ball_sums(piece_len, offsets)
    want = [float(np.sum(full_scan_clip(e65_nodal, c, 0.2)[0])) for c in centers]
    assert got.tolist() == want


def test_clip_misses_cleanly():
    nodal = extract_nodal(sample_grid(sine_mode_spec(1), 256))
    piece_len, piece_mid = clip_to_ball(nodal, (0.25, 0.5), 0.05)
    assert piece_len.size == 0 and piece_mid.shape == (0, 2)
    assert length_in(nodal, (0.25, 0.5), 0.05) == 0.0


def test_clip_rejects_oversized_ball(e65_nodal):
    limit = 0.5 - float(np.max(e65_nodal.lengths))
    for bad in (0.0, 0.5, 0.7, limit + 1e-9):
        with pytest.raises(BallTooLarge):
            clip_family(e65_nodal, [(0.5, 0.5)], bad)
        with pytest.raises(BallTooLarge):
            clip_to_ball(e65_nodal, (0.5, 0.5), bad)


def test_clip_length_is_monotone_in_radius(e65_nodal):
    radii = [0.03, 0.06, 0.1, 0.15]
    lengths = [length_in(e65_nodal, (0.3, 0.7), r) for r in radii]
    assert all(b >= a - 1e-12 for a, b in zip(lengths, lengths[1:]))
    assert lengths[-1] <= e65_nodal.total_length


def test_integrate_over_nodal_with_unit_weight(e65_nodal):
    got = integrate_over_nodal(e65_nodal, lambda pts: np.ones(len(pts)))
    assert got == pytest.approx(e65_nodal.total_length, rel=1e-12)


def test_sine_fixture_line_integral_is_two():
    # f = 1 + cos(2*pi*x) equals 2 on the line x = 0 and 0 on x = 1/2.
    nodal = extract_nodal(sample_grid(sine_mode_spec(1), 256))
    got = integrate_over_nodal(nodal, lambda p: 1.0 + np.cos(2 * np.pi * p[:, 0]))
    assert got == pytest.approx(2.0, rel=1e-2)


def test_csv_round_trip(tmp_path, e65_nodal):
    path = tmp_path / "nodal.csv"
    nodal_to_csv(e65_nodal, str(path))
    back = nodal_from_csv(str(path))
    assert back.count == e65_nodal.count
    assert np.max(np.abs(back.a - e65_nodal.a)) == 0.0
    assert np.max(np.abs(back.b - e65_nodal.b)) == 0.0
    assert np.max(np.abs(back.lengths - e65_nodal.lengths)) == 0.0
    assert back.total_length == pytest.approx(e65_nodal.total_length, rel=1e-15)


def test_refinement_stability(e65_field):
    # Doubling the sampling grid moves the measured length by well under 1%.
    coarse = extract_nodal(e65_field)
    fine = extract_nodal(sample_grid(e65_field.spec, 512))
    assert fine.total_length == pytest.approx(coarse.total_length, rel=1e-2)


@given(seed=st.integers(min_value=0, max_value=200))
def test_extraction_invariants_random_fields(seed):
    field = sample_grid(random_eigenfunction(5, seed), 128)
    nodal = extract_nodal(field)
    assert nodal.count > 0  # eigenfunctions always vanish somewhere
    assert np.all(np.isfinite(nodal.lengths))
    assert np.max(nodal.lengths) <= math.sqrt(2.0) / 128 + 1e-12
    # Total length stays within the coarse two-sided window that holds for
    # every frequency-sqrt(5) eigenfunction sampled this finely.
    assert 0.5 < nodal.total_length < 40.0
