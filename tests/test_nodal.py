import dataclasses
import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from torusnodal.ballstats import scale_radius
from torusnodal.eigenbasis import (
    SampledField,
    random_eigenfunction,
    sample_grid,
    sine_mode_spec,
)
from torusnodal.covering import build_cover
from torusnodal.doubling import DEFAULT_A1, OUTER_FACTOR
from torusnodal.errors import BallTooLarge
from torusnodal.harness import ExperimentPlan, ball_table
from torusnodal.nodal import (
    _CERTIFIED_LENGTH,
    _CORNERS,
    _EDGES,
    _SEGMENTS,
    ZERO_NUDGE,
    NodalSet,
    _chart,
    _chord,
    ball_sums,
    clip_lengths,
    clip_to_ball,
    extract_nodal,
    integrate_over_nodal,
    nodal_from_csv,
    nodal_to_csv,
    read_float_csv,
    write_float_csv,
)
from torusnodal.torus import periodic_distance, wrap_delta, wrap_point

from conftest import clip_family, constant_spec, separable_sine_spec
from test_eigenbasis import oracle_specs, traced_peak

_B, _R, _T, _L = 0, 1, 2, 3
_PLAIN_CASES = {1: (_B, _L), 2: (_B, _R), 3: (_L, _R), 4: (_R, _T), 6: (_B, _T), 7: (_T, _L),
                8: (_T, _L), 9: (_B, _T), 11: (_R, _T), 12: (_L, _R), 13: (_B, _R), 14: (_B, _L)}
_SADDLE_CASES = {
    (5, True): ((_B, _R), (_T, _L)),
    (5, False): ((_B, _L), (_R, _T)),
    (10, True): ((_B, _L), (_R, _T)),
    (10, False): ((_B, _R), (_T, _L)),
}


def per_case_extract(field):
    """Reference extractor: every edge point of every active cell, one mask per case, a lexsort."""
    n = field.resolution
    g = np.array(field.values, dtype=float)
    g[g == 0.0] = ZERO_NUDGE
    s = (g > 0.0).astype(np.int8)
    s10 = np.roll(s, -1, axis=0)
    s01 = np.roll(s, -1, axis=1)
    s11 = np.roll(s10, -1, axis=1)
    case = s + 2 * s10 + 4 * s11 + 8 * s01
    ii, jj = np.nonzero((case != 0) & (case != 15))
    if ii.size == 0:
        empty = np.empty((0, 2))
        return NodalSet(empty, empty, np.empty(0), empty.copy())
    cval = case[ii, jj]
    ip, jp = (ii + 1) % n, (jj + 1) % n
    v00, v10, v11, v01 = g[ii, jj], g[ip, jj], g[ip, jp], g[ii, jp]
    i, j = ii.astype(float), jj.astype(float)
    with np.errstate(divide="ignore", invalid="ignore"):
        tb, tr = v00 / (v00 - v10), v10 / (v10 - v11)
        tt, tl = v01 / (v01 - v11), v00 / (v00 - v01)
    pts = np.empty((4, ii.size, 2))
    pts[_B] = np.column_stack([(i + np.clip(tb, 0.0, 1.0)) / n, j / n])
    pts[_R] = np.column_stack([(i + 1.0) / n, (j + np.clip(tr, 0.0, 1.0)) / n])
    pts[_T] = np.column_stack([(i + np.clip(tt, 0.0, 1.0)) / n, (j + 1.0) / n])
    pts[_L] = np.column_stack([i / n, (j + np.clip(tl, 0.0, 1.0)) / n])
    center_pos = (v00 + v10 + v11 + v01) > 0.0

    cells, subs, ends = [], [], []
    segments = [(cval == c, 0, pair) for c, pair in _PLAIN_CASES.items()]
    for (c, pos), pairs in _SADDLE_CASES.items():
        mask = (cval == c) & (center_pos == pos)
        segments += [(mask, sub, pair) for sub, pair in enumerate(pairs)]
    for mask, sub, (ea, eb) in segments:
        idx = np.nonzero(mask)[0]
        cells.append(idx)
        subs.append(np.full(idx.size, sub))
        ends.append((pts[ea, idx], pts[eb, idx]))
    order = np.lexsort((np.concatenate(subs), np.concatenate(cells)))
    ai = np.concatenate([a for a, _ in ends])[order]
    bi = np.concatenate([b for _, b in ends])[order]
    lengths = np.linalg.norm(bi - ai, axis=1)
    return NodalSet(wrap_point(ai), wrap_point(bi), lengths, wrap_point((ai + bi) / 2.0))


def parent_extract_nodal(field):
    """The extract_nodal that the row-block kernel replaced: one (n + 1)^2 wrapped copy."""
    n = field.resolution
    g = np.pad(np.asarray(field.values, dtype=float), ((0, 1), (0, 1)), mode="wrap")
    g[g == 0.0] = ZERO_NUDGE
    s = (g > 0.0).astype(np.int8)
    case = s[:-1, :-1] + 2 * s[1:, :-1] + 4 * s[1:, 1:] + 8 * s[:-1, 1:]
    ii, jj = np.nonzero((case != 0) & (case != 15))
    v = g.ravel()[(ii * (n + 1) + jj)[:, None] + _CORNERS @ (n + 1, 1)]
    center_pos = (v[:, 0] + v[:, 1] + v[:, 2] + v[:, 3]) > 0.0
    edges = _SEGMENTS[case[ii, jj], center_pos.astype(np.intp)].reshape(-1, 2)
    slot = np.flatnonzero(edges[:, 0] >= 0)
    cell, edges = slot // 2, edges[slot]
    p, q = _EDGES[:, 0][edges], _EDGES[:, 1][edges]
    vp = v.ravel()[4 * cell[:, None] + p]
    t = np.clip(vp / (vp - v.ravel()[4 * cell[:, None] + q]), 0.0, 1.0)
    ends = np.empty(p.shape + (2,))
    for axis, base in enumerate((ii[cell], jj[cell])):
        off = _CORNERS[:, axis]
        ends[..., axis] = (base[:, None] + off[p] + t * (off[q] - off[p])) / n
    ai, bi = ends[:, 0], ends[:, 1]
    lengths = np.linalg.norm(bi - ai, axis=1)
    mids = (ai + bi) / 2.0
    return NodalSet(wrap_point(ai), wrap_point(bi), lengths, wrap_point(mids))


def assert_same_bytes(got, want, label):
    for name in ("a", "b", "lengths", "midpoints"):
        x, y = getattr(got, name), getattr(want, name)
        assert x.shape == y.shape and x.tobytes() == y.tobytes(), (label, name)


def test_table_extractor_matches_the_per_case_reference(e65_field):
    # The plan fields, the control and grids that are no multiple of the
    # row-block height, against both references.
    fields = {"e65": e65_field}
    for label, spec, n in oracle_specs():
        fields[label] = sample_grid(spec, n)
    for name, spec in (("sine", sine_mode_spec(1)), ("separable", separable_sine_spec()),
                       ("constant", constant_spec())):
        for n in (16, 64, 256):
            fields[(name, n)] = sample_grid(spec, n)
    for label, field in fields.items():
        got = extract_nodal(field)
        assert_same_bytes(got, per_case_extract(field), label)
        assert_same_bytes(got, parent_extract_nodal(field), label)
        assert got.count > 0 or field.spec_lambda == 0.0, label  # only the constant's set is empty


@settings(max_examples=300)
@given(st.integers(min_value=2, max_value=8).flatmap(
    lambda n: st.lists(st.integers(-3, 3), min_size=n * n, max_size=n * n)))
def test_table_extractor_matches_the_reference_on_small_integer_grids(values):
    # Exact zeros (nudged positive), both saddle center signs and cells
    # that wrap across the seam, on grids as small as 2 x 2.
    n = math.isqrt(len(values))
    field = SampledField(n, np.reshape(values, (n, n)), 1.0)
    assert_same_bytes(extract_nodal(field), per_case_extract(field), values)


def test_extract_nodal_leaves_exact_zeros_in_the_field():
    # Exact zeros on every fourth row and seventh column, the seam's row and
    # column and the first block's wrapped row 188 included, are nudged in
    # the blocks' copies only.
    values = sample_grid(random_eigenfunction(65, 4), 347).values.copy()
    values[::4, :] = 0.0
    values[:, ::7] = -0.0
    field = SampledField(347, values, 1.0)
    before = field.values.tobytes()
    assert_same_bytes(extract_nodal(field), parent_extract_nodal(field), "zeros")
    assert field.values.tobytes() == before


def test_extract_nodal_memory_is_bounded(e1105_field):
    # tracemalloc peak at E=1105, seed 0, N=544 (51,228 segments, a 2.87 MB
    # set): 5.64 MB, against 16.96 MB for parent_extract_nodal.  The outputs
    # and the block parts never make two copies of the set; the peak is the
    # last block's marching over the parts of the others.
    peak = traced_peak(lambda: extract_nodal(e1105_field))
    assert peak < 6_000_000 <= traced_peak(lambda: parent_extract_nodal(e1105_field)), peak


def test_segment_table_joins_corners_of_opposite_sign():
    for case in range(16):
        signs = [(case >> k) & 1 for k in range(4)]
        for center in (0, 1):
            slots = [tuple(pair) for pair in _SEGMENTS[case, center] if pair[0] >= 0]
            want = 0 if case in (0, 15) else 2 if case in (5, 10) else 1
            assert len(slots) == want, (case, center)
            for edge in (e for pair in slots for e in pair):
                p, q = _EDGES[edge]
                assert signs[p] != signs[q], (case, center, edge)
                assert np.sum(np.abs(_CORNERS[q] - _CORNERS[p])) == 1
        # Outside the saddles the center sign changes nothing.
        if case not in (5, 10):
            assert np.array_equal(_SEGMENTS[case, 0], _SEGMENTS[case, 1]), case


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


def test_segment_geometry_invariants(e65_field, e65_nodal):
    n = e65_field.resolution
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


@settings(max_examples=300)
@given(st.floats(0.0, 1.0, exclude_max=True), st.floats(0.0, 1.0, exclude_max=True),
       st.one_of(st.floats(1e-9, 1.001e-9), st.floats(1e-9, 1e-2)),
       st.one_of(st.floats(1e-3, 0.5), st.just(0.5)),
       st.floats(0.0, 2.0 * math.pi),
       st.one_of(st.sampled_from([0.0, math.pi / 2.0, math.pi]), st.floats(0.0, 2.0 * math.pi)),
       st.one_of(st.just(1.0), st.floats(1.0 - 1e-6, 1.0), st.floats(0.0, 1.0)))
@example(0.999, 0.5, 1e-9, 0.5, 0.0, 0.0, 1.0)  # radial, tangent, at the BallTooLarge edge
@example(0.0, 0.0, 1e-9, 1e-3, 1.0, math.pi / 2.0, 1.0)  # across the seam, tangent to the circle
def test_chord_of_a_certified_whole_segment_is_the_unit_interval(cx, cy, length, r, phi, turn,
                                                                 margin):
    # The kernel's whole-segment shortcut: a segment of length >= _CERTIFIED_LENGTH
    # whose stored midpoint lies within r - 1.5 length of the center clips to exactly
    # (0.0, 1.0).  The midpoint sits at margin * (r - 1.5 length) from the center in
    # direction phi (margin 1 is the tangent case), the segment turned from phi by
    # turn (0 and pi radial, pi/2 tangential).
    r = min(r, 0.5 - length)  # the BallTooLarge edge for a longest segment of this length
    assume(r > 1.5 * length)
    theta = phi + turn
    center = np.array([cx, cy])
    mid = center + margin * (r - 1.5 * length) * np.array([math.cos(phi), math.sin(phi)])
    half = 0.5 * length * np.array([math.cos(theta), math.sin(theta)])
    a, b = wrap_point(mid - half), wrap_point(mid + half)
    # The stored length and midpoint, as nodal_from_csv forms them, and the kernel's test.
    d = wrap_delta(b - a)
    seg_len, seg_mid = float(np.linalg.norm(d)), wrap_point(a + d / 2.0)
    assume(float(periodic_distance(seg_mid, center)) + 1.5 * seg_len <= r)
    assume(seg_len >= _CERTIFIED_LENGTH)
    nodal = NodalSet(a[None], b[None], np.array([seg_len]), seg_mid[None])
    seg = np.array([0])
    t_lo, t_hi = _chord(*_chart(nodal, seg, center[:1], 0), *_chart(nodal, seg, center[1:], 1), r)
    assert (t_lo.tolist(), t_hi.tolist()) == ([0.0], [1.0])


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
                    wrap_point(a + delta / 2.0))
    # Ten segments make 3 x 3 buckets, so every window spans the torus
    # (w == B) and clip_family reads every bucket, unpruned.
    coarse = NodalSet(*(x[:10] for x in (long.a, long.b, long.lengths, long.midpoints)))
    return {
        "e65": e65_nodal,
        "csv": nodal_from_csv(str(path)),
        "empty": NodalSet(empty, empty, np.empty(0), empty.copy()),
        "long": long,
        "coarse": coarse,
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
    # The lengths-only clip sums the same pieces without forming their midpoints.
    lengths = clip_lengths(nodal, centers, r)
    assert lengths.tobytes() == ball_sums(piece_len, offsets).tobytes(), label


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
    r = scale_radius(lam, plan.rho)
    assert_family_matches_full_scan(nodal, build_cover(r, 4).centers, r, "cover")
    a1 = DEFAULT_A1 if OUTER_FACTOR * DEFAULT_A1 / lam < 0.25 else 0.5
    doubling = build_cover(OUTER_FACTOR * a1 / lam / 2.0, 5).centers
    assert_family_matches_full_scan(nodal, doubling, 10.0 * a1 / lam, "doubling")
    limit = 0.5 - float(np.max(nodal.lengths)) - 1e-12
    assert_family_matches_full_scan(nodal, SEAM_CENTERS, limit, "limit")


@pytest.mark.parametrize("energy", [65, 325, 1105])
def test_clip_is_equivariant_under_grid_rolls_and_quarter_turns(energy):
    # Rolling the samples by (i, j) cells moves the nodal set by (i, j)/N, and
    # np.rot90 maps (u, v) to (-v - 1/N, u); marching squares and the clip commute
    # with both, so each ball's length at its moved center is the original's up to
    # rounding.  Across 12 seeds per energy the ball lengths (at most about 1.2,
    # a sum of a few hundred pieces) moved by at most 9.8e-15 and the total
    # length by 3.5e-16 relative.  About 0.2 s for the three desk energies.
    plan = ExperimentPlan(energies=(energy,))
    n = plan.grid_for(energy)
    field = sample_grid(random_eigenfunction(energy, 0), n)
    nodal = extract_nodal(field)
    r = scale_radius(field.spec_lambda, plan.rho)
    family = build_cover(r, 5)
    lengths = clip_lengths(nodal, family.centers, r)
    assert np.array_equal(ball_table(field, nodal, family, ()).lengths, lengths)
    u, v = family.centers[:, 0], family.centers[:, 1]
    moves = {"roll": (np.roll(field.values, (7, n // 3), axis=(0, 1)),
                      family.centers + np.array([7, n // 3]) / n),
             "rot90": (np.rot90(field.values), np.column_stack([-v - 1.0 / n, u]))}
    for name, (values, centers) in moves.items():
        moved = SampledField(n, np.ascontiguousarray(values), field.spec_lambda)
        moved_nodal = extract_nodal(moved)
        moved_family = dataclasses.replace(family, centers=wrap_point(centers))
        assert moved_nodal.count == nodal.count, name
        assert moved_nodal.total_length == pytest.approx(nodal.total_length, rel=1e-14), name
        moved_lengths = clip_lengths(moved_nodal, moved_family.centers, r)
        assert np.max(np.abs(moved_lengths - lengths)) <= 1e-13, name
        table = ball_table(moved, moved_nodal, moved_family, ())
        assert np.max(np.abs(table.lengths - lengths)) <= 1e-13, name


def test_family_clip_of_no_balls_and_of_the_empty_set(e65_nodal, tmp_path):
    for name, nodal in oracle_sets(e65_nodal, tmp_path).items():
        piece_len, piece_mid, offsets = clip_family(nodal, [], 0.1)
        assert piece_len.shape == (0,) and piece_mid.shape == (0, 2), name
        assert np.array_equal(offsets, [0]), name
        assert ball_sums(piece_len, offsets).shape == (0,), name
        assert clip_lengths(nodal, [], 0.1).shape == (0,), name
    empty = oracle_sets(e65_nodal, tmp_path)["empty"]
    piece_len, piece_mid, offsets = clip_family(empty, SEAM_CENTERS, 0.2)
    assert piece_len.shape == (0,) and piece_mid.shape == (0, 2)
    assert np.array_equal(offsets, np.zeros(len(SEAM_CENTERS) + 1))
    assert np.array_equal(ball_sums(piece_len, offsets), np.zeros(len(SEAM_CENTERS)))
    assert np.array_equal(clip_lengths(empty, SEAM_CENTERS, 0.2), np.zeros(len(SEAM_CENTERS)))


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
        with pytest.raises(BallTooLarge):
            clip_lengths(e65_nodal, [(0.5, 0.5)], bad)


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
    # Every array owns its data: a view would keep the whole parsed table alive.
    assert all(x.base is None for x in (back.a, back.b, back.lengths, back.midpoints))


def per_row_csv(nodal):
    """Reference writer: one f-string of float reprs per segment."""
    rows = ["ax,ay,bx,by,length\n"]
    for k in range(nodal.count):
        rows.append(f"{float(nodal.a[k, 0])!r},{float(nodal.a[k, 1])!r},"
                    f"{float(nodal.b[k, 0])!r},{float(nodal.b[k, 1])!r},"
                    f"{float(nodal.lengths[k])!r}\n")
    return "".join(rows)


def test_csv_writer_matches_the_per_row_reference(tmp_path, e65_nodal, awkward_nodal):
    empty = np.empty((0, 2))
    for nodal in (e65_nodal, awkward_nodal, NodalSet(empty, empty, np.empty(0), empty)):
        path = tmp_path / "nodal.csv"
        nodal_to_csv(nodal, str(path))
        assert path.read_bytes() == per_row_csv(nodal).encode()
    back = nodal_from_csv(str(tmp_path / "nodal.csv"))
    assert back.count == 0


def per_row_float_csv(header, columns):
    """Reference writer for write_float_csv: one repr per value, row by row."""
    lines = [header + "\n"]
    for k in range(len(columns[0])):
        cells = [v for x in columns for v in np.atleast_1d(x[k])]
        lines.append(",".join(repr(float(v)) for v in cells) + "\n")
    return "".join(lines)


def assert_float_csv_round_trip(tmp_path, columns):
    """write_float_csv writes the reference's bytes, and read_float_csv gives every bit back."""
    width = sum(1 if np.ndim(x) == 1 else np.shape(x)[1] for x in columns)
    header = ",".join(f"c{j}" for j in range(width))
    path = str(tmp_path / "floats.csv")
    write_float_csv(path, header, columns)
    with open(path, "rb") as fh:
        assert fh.read() == per_row_float_csv(header, columns).encode()
    want = np.column_stack(columns).reshape(-1, width)
    assert read_float_csv(path, header, "test file").view(np.int64).tolist() \
        == want.view(np.int64).tolist()


# Signed zeros, which a dedup on float values rather than bit patterns
# would merge, subnormals, and neighbors one ulp apart.
AWKWARD_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1e-310, 0.1,
                  0.1 + 2**-56, 1 / 3, -1 / 3, 1.0 - 2**-53, 0.5, 544.0, 1e300]


@pytest.mark.parametrize("rows", [0, 1, 4095, 4096, 4097, 8193])
def test_float_csv_matches_the_per_row_reference_across_chunks(tmp_path, rows):
    # Few distinct values, so each chunk and each column repeats them, on
    # both sides of every 4096-row boundary.
    rng = np.random.default_rng(rows)
    pool = np.array(AWKWARD_FLOATS)
    pairs = pool[rng.integers(len(pool), size=(rows, 2))]
    single = pool[rng.integers(len(pool), size=rows)]
    assert_float_csv_round_trip(tmp_path, (pairs, single))
    assert_float_csv_round_trip(tmp_path, (single,))


def test_float_csv_keeps_signed_zeros_apart_in_one_row(tmp_path):
    zeros = np.array([[0.0, -0.0], [-0.0, 0.0], [-0.0, -0.0]])
    assert_float_csv_round_trip(tmp_path, (zeros, np.array([0.0, -0.0, 0.0])))
    text = (tmp_path / "floats.csv").read_text()
    assert text.splitlines()[1:] == ["0.0,-0.0,0.0", "-0.0,0.0,-0.0", "-0.0,-0.0,0.0"]


finite_floats = st.one_of(st.sampled_from(AWKWARD_FLOATS),
                          st.floats(allow_nan=False, allow_infinity=False))


@given(st.lists(st.tuples(finite_floats, finite_floats, finite_floats), max_size=30))
def test_float_csv_matches_the_per_row_reference_on_mixed_columns(tmp_path_factory, rows):
    # (M, 2) centers and a 1-D column, as family_to_csv passes them.
    values = np.array(rows, dtype=float).reshape(-1, 3)
    assert_float_csv_round_trip(tmp_path_factory.mktemp("csv"),
                                (values[:, :2], np.ascontiguousarray(values[:, 2])))


def test_nodal_csv_writer_peak_memory_is_bounded(tmp_path, e1105_nodal):
    # The writer formats 4096 rows at a time: at E=1105 (51,228 segments)
    # its peak stays near 2.4 MB, where a one-shot dedup of all rows
    # needs several times that.
    path = str(tmp_path / "nodal.csv")
    peak = traced_peak(lambda: nodal_to_csv(e1105_nodal, path))
    assert e1105_nodal.count > 40_000
    assert peak < 3_000_000, f"writer peak {peak} bytes"


def test_refinement_stability(e65_field):
    # Doubling the sampling grid moves the measured length by well under 1%.
    coarse = extract_nodal(e65_field)
    fine = extract_nodal(sample_grid(random_eigenfunction(65, 7), 512))
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
