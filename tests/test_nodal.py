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
from torusnodal.errors import BallTooLarge
from torusnodal.nodal import (
    clip_to_ball,
    extract_nodal,
    integrate_over_nodal,
    length_in_ball,
    nodal_from_csv,
    nodal_to_csv,
)
from torusnodal.torus import wrap_delta


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


def test_chord_clip_against_closed_form():
    # Ball B((0.45, 0.5), 0.1) meets only the line x = 1/2; the chord length
    # is 2*sqrt(r^2 - d^2) with d = 0.05.  Computed in extended precision.
    nodal = extract_nodal(sample_grid(sine_mode_spec(1), 256))
    with mpmath.workdps(50):
        expect = float(2 * mpmath.sqrt(mpmath.mpf("0.1") ** 2 - mpmath.mpf("0.05") ** 2))
    assert length_in_ball(nodal, (0.45, 0.5), 0.1) == pytest.approx(expect, abs=1e-12)


def test_chord_clip_across_the_seam():
    # A ball centered on the x = 0 line, wrapped across the torus seam,
    # captures a full diameter of that line.
    nodal = extract_nodal(sample_grid(sine_mode_spec(1), 256))
    assert length_in_ball(nodal, (0.0, 0.2), 0.08) == pytest.approx(0.16, abs=1e-12)


def test_chord_weighted_integral_against_closed_form():
    # Integrate f(y) = 1 + cos(2*pi*y) along the chord x = 1/2,
    # y in [1/2 - h, 1/2 + h]: the exact value is 2h - sin(2*pi*h)/pi.
    nodal = extract_nodal(sample_grid(sine_mode_spec(1), 256))
    piece_len, piece_mid, _ = clip_to_ball(nodal, (0.45, 0.5), 0.1)
    got = float(np.sum((1.0 + np.cos(2 * np.pi * piece_mid[:, 1])) * piece_len))
    h = math.sqrt(0.1**2 - 0.05**2)
    expect = 2 * h - math.sin(2 * math.pi * h) / math.pi
    assert got == pytest.approx(expect, abs=2e-5)


def test_clip_misses_cleanly():
    nodal = extract_nodal(sample_grid(sine_mode_spec(1), 256))
    piece_len, piece_mid, idx = clip_to_ball(nodal, (0.25, 0.5), 0.05)
    assert piece_len.size == 0 and piece_mid.shape == (0, 2) and idx.size == 0
    assert length_in_ball(nodal, (0.25, 0.5), 0.05) == 0.0


def test_clip_rejects_oversized_ball(e65_nodal):
    for bad in (0.0, 0.5, 0.7):
        with pytest.raises(BallTooLarge):
            clip_to_ball(e65_nodal, (0.5, 0.5), bad)


def test_clip_length_is_monotone_in_radius(e65_nodal):
    radii = [0.03, 0.06, 0.1, 0.15]
    lengths = [length_in_ball(e65_nodal, (0.3, 0.7), r) for r in radii]
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
