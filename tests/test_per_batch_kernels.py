"""The banded and per-batch kernels against the whole-field and whole-family bodies they replaced.

ball_masses squares one band of rows at a time and drops each batch's
arrays before the next, _mass_bounds builds its prefix sums one block of
rows and its bracket rows one chunk of balls at a time, ball_table
reduces each clip batch to per-ball numbers, and NodalSet._index keys one
axis at a time.
complex_strip_sup searches each corner sheet one column block at a time,
integrate_over_nodal evaluates its weight on blocks of midpoints, and
clip_batches drops each batch's arrays once they are dead and, like
clip_lengths, takes a segment certified inside its ball whole.  The test
functions take (x, y) axes, so torus_integral and the ball table's 9x9
lattices evaluate them on a product grid's axes, and lower_bound_assembly
sums each good ball's pieces with clip_lengths, which forms no midpoints.
The reference bodies below are the kernels as they stood before: a
padded, squared copy of the field, one prefix array of all rows, a table
holding every clipped piece with the chain reducing them, whole |v|
sheets (with test_growth's dense zoom), one weight call over every
midpoint, one clip body (in conftest) holding all of a batch's
temporaries and clipping every near pair's chord, test functions of an
(M, 2) point array evaluated on every grid and lattice point, and the
assembly's sums over that clip's pieces.
Every output must equal theirs byte for byte.
"""

import functools
import math
import re
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from torusnodal import growth as growth_module, harness
from torusnodal.ballstats import (_SUB, _mass_bounds, ball_masses, default_centers,
                                  require_resolved_radius, sse_scan)
from torusnodal.covering import BallFamily, build_cover
from torusnodal.doubling import INNER_FACTOR, OUTER_FACTOR, lower_bound_assembly
from torusnodal.eigenbasis import TWO_PI, random_eigenfunction, sample_grid
from torusnodal.errors import NegativeTestFunction
from torusnodal.growth import _sheet_argmax, complex_strip_sup
from torusnodal.harness import (_LATTICE_SIDE, _QUADRATURE_SLACK, BUMP_CENTER, BUMP_LIPSCHITZ,
                                BUMP_WIDTH, TEST_FUNCTIONS, ChainTrace, ExperimentPlan,
                                TestFunction, _lattice_gap, _lattice_values, _step,
                                _sup_half_side, ball_table, plan_grid, replicate_bound_chain,
                                run_single, torus_integral)
from torusnodal.nodal import (NodalSet, ball_sums, clip_batches, clip_lengths, extract_nodal,
                              integrate_over_nodal)
from torusnodal.torus import periodic_distance, wrap_delta, wrap_point

from conftest import clip_family, constant_spec, integrals_for, reference_clip_batches
from test_doubling import parent_lower_bound_assembly
from test_eigenbasis import grid_sum, traced_peak
from test_growth import dense_strip_sup

ENERGIES = (25, 50, 65, 325, 1105, 5525)
SEAM_CENTERS = [[0.0, 0.0], [1.0 - 1e-12, 1.0 - 1e-12], [0.0, 0.5], [0.5, 0.0],
                [1.0 - 1e-12, 0.3], [0.3, 1.0 - 1e-12]]
_BATCH_CELLS = 1 << 16


# ---------------------------------------------------------------- reference bodies


def reference_ball_masses(field, centers, r: float) -> np.ndarray:
    """ball_masses over one periodically padded, squared copy of the whole field."""
    n = field.resolution
    require_resolved_radius(r, n)
    centers = np.asarray(centers, dtype=float).reshape(-1, 2)
    count = centers.shape[0]
    if count == 0:
        return np.zeros(0)
    h = 0.5 / n
    half_diag = h * math.sqrt(2.0)
    i0 = np.floor((centers - r - h) * n).astype(np.int64) - 1
    i1 = np.ceil((centers + r + h) * n).astype(np.int64) + 1
    w = int(np.max(i1 - i0)) + 1
    idx = i0[:, :, None] + np.arange(w)
    delta = wrap_delta((idx % n) / n - centers[:, :, None])
    dx, dy = delta[:, 0], delta[:, 1]
    sqx, sqy = np.square(dx), np.square(dy)
    start = i0 % n
    u2 = np.pad(field.values, ((0, w), (0, w)), mode="wrap")
    np.square(u2, out=u2)
    windows = sliding_window_view(u2, (w, w))
    r2 = r * r
    masses = np.empty(count)
    step = max(1, _BATCH_CELLS // (w * w))
    for b0 in range(0, count, step):
        b = slice(b0, b0 + step)
        dist = np.sqrt(sqx[b, :, None] + sqy[b, None, :])
        full = dist <= r - half_diag
        cut = np.flatnonzero((dist < r + half_diag) & ~full)
        win = windows[start[b, 0], start[b, 1]]
        inner = win[full]
        k, ij = np.divmod(cut, w * w)
        at_x, at_y = k * w + ij // w, k * w + ij % w
        sx = [np.square(dx[b] + o / n).ravel()[at_x] for o in _SUB]
        sy = [np.square(dy[b] + o / n).ravel()[at_y] for o in _SUB]
        inside = np.zeros(cut.size, dtype=np.int64)
        for sub_x in sx:
            for sub_y in sy:
                inside += sub_x + sub_y <= r2
        edge = win.ravel()[cut] * (inside / 16.0)
        f_off = np.concatenate([[0], np.cumsum(np.count_nonzero(full, axis=(1, 2)))])
        c_off = np.searchsorted(cut, np.arange(full.shape[0] + 1) * (w * w))
        masses[b] = (ball_sums(inner, f_off) + ball_sums(edge, c_off)) / (n * n)
    return masses


def reference_mass_bounds(field, centers, r: float) -> tuple[np.ndarray, np.ndarray]:
    """_mass_bounds over one n x (n + span) prefix array of every row."""
    n = field.resolution
    centers = np.asarray(centers, dtype=float).reshape(-1, 2) % 1.0
    half_diag = 0.5 / n * math.sqrt(2.0)
    slop = 1e-9
    reach = r + half_diag + slop
    k = math.ceil(reach * n) + 1
    rows = np.floor(centers[:, :1] * n).astype(np.int64) + np.arange(-k, k + 1)
    dx2 = np.square(rows / n - centers[:, :1])
    cy = centers[:, 1:] * n
    span = 2 * k + 1
    pre = np.pad(field.values, ((0, 0), (k + 1, k)), mode="wrap")
    np.square(pre, out=pre)
    np.cumsum(pre, axis=1, out=pre)
    base = rows % n * (n + span) + k

    def disk_sum(rad: float, round_lo, round_hi) -> np.ndarray:
        t2 = rad * rad - dx2
        t = np.sqrt(np.maximum(t2, 0.0)) * n
        j0, j1 = round_lo(cy - t), round_hi(cy + t)
        start = base + j0.astype(np.int64)
        stop = start + ((j1 - j0 + 1) * (t2 >= 0.0)).astype(np.int64)
        return np.sum(np.take(pre, stop) - np.take(pre, start), axis=1)

    slack = 4.0 * (n + span + span * span) * span * np.finfo(float).eps * pre[:, -1].max()
    lo = disk_sum(r - half_diag - slop, np.ceil, np.floor) - slack
    hi = disk_sum(reach, np.floor, np.ceil) + slack
    return lo / (n * n), hi / (n * n)


def reference_one(pts: np.ndarray) -> np.ndarray:
    return np.ones(pts.shape[:-1])


def reference_cos_x(pts: np.ndarray) -> np.ndarray:
    return 1.0 + np.cos(2.0 * np.pi * pts[..., 0])


def reference_cos_y(pts: np.ndarray) -> np.ndarray:
    return 1.0 + np.cos(2.0 * np.pi * pts[..., 1])


def reference_bump(pts: np.ndarray) -> np.ndarray:
    d = periodic_distance(pts, np.asarray(BUMP_CENTER))
    t = d / BUMP_WIDTH
    out = np.zeros(pts.shape[:-1])
    inside = t < 1.0
    ti = t[inside]
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - ti * ti))
    return out


# The registered test functions as they mapped an (M, 2) array of points to (M,) values.
REFERENCE_FUNCTIONS = {"one": reference_one, "cos_x": reference_cos_x,
                       "cos_y": reference_cos_y, "bump": reference_bump}


def reference_torus_integral(f, n: int) -> float:
    """torus_integral evaluating the point form f on the (rows * n, 2) points of each block."""
    t = np.arange(n) / n
    vals = np.empty(n * n)
    rows = max(1, (1 << 15) // n)
    for i in range(0, n, rows):
        ti = t[i:i + rows]
        pts = np.column_stack([np.repeat(ti, n), np.tile(t, ti.size)])
        vals[i * n:(i + ti.size) * n] = f(pts)
    return float(np.mean(vals))


def reference_lattice_points(centers: np.ndarray, half_side: float) -> np.ndarray:
    """The 9x9 square lattice of half side half_side around each center, 81 rows per center."""
    t = np.linspace(-half_side, half_side, _LATTICE_SIDE)
    gx, gy = np.meshgrid(t, t, indexing="ij")
    pts = centers[:, None, :] + np.stack([gx.ravel(), gy.ravel()], axis=-1)
    return pts.reshape(-1, 2)


class WholeFamilyTable(NamedTuple):
    """The ball table as it held every clipped piece and both lattices of the family."""

    family: BallFamily
    piece_len: np.ndarray
    piece_mid: np.ndarray
    offsets: np.ndarray
    lengths: np.ndarray
    density: np.ndarray
    nonempty: np.ndarray
    piece_max: float
    sup_lattice: np.ndarray
    inf_lattice: np.ndarray


def reference_ball_table(field, nodal, family) -> WholeFamilyTable:
    """The whole family clipped in one clip_family call, its pieces kept."""
    r = family.radius
    piece_len, piece_mid, offsets = clip_family(nodal, family.centers, r)
    lengths = ball_sums(piece_len, offsets)
    density = (lengths / field.spec_lambda) / (math.pi * r * r)
    nonempty = np.diff(offsets) > 0
    piece_max = float(np.max(piece_len)) if piece_len.size else 0.0
    return WholeFamilyTable(family, piece_len, piece_mid, offsets, lengths, density, nonempty,
                            piece_max,
                            reference_lattice_points(family.centers, _sup_half_side(family)),
                            reference_lattice_points(family.centers, r / 2.0))


def reference_terms(table: WholeFamilyTable, tf) -> dict:
    """f's per-ball min, max, integral and lattice extremes, as the chain took them from the pieces.

    A registered f is evaluated by its point-form reference body.
    """
    n_balls = table.family.count
    f = REFERENCE_FUNCTIONS[tf.name]
    vals = f(table.piece_mid)
    starts = table.offsets[:-1][table.nonempty]
    f_min = np.zeros(n_balls)
    f_max = np.zeros(n_balls)
    if starts.size:
        f_min[table.nonempty] = np.minimum.reduceat(vals, starts)
        f_max[table.nonempty] = np.maximum.reduceat(vals, starts)
    return {"f_min": f_min, "f_max": f_max,
            "integral": ball_sums(vals * table.piece_len, table.offsets),
            "sup_lattice": np.max(f(table.sup_lattice).reshape(n_balls, -1), axis=1),
            "inf_lattice": np.min(f(table.inf_lattice).reshape(n_balls, -1), axis=1)}


def reference_bound_chain(field, nodal, table: WholeFamilyTable, integrals) -> ChainTrace:
    """replicate_bound_chain reducing the whole family's pieces itself."""
    tf, integral_f, total_integral = integrals
    lam = field.spec_lambda
    fam = table.family
    r = fam.radius
    vol = math.pi * r * r
    overlap = fam.overlap_max
    total_length = nodal.total_length
    seg_max = float(np.max(nodal.lengths)) if nodal.count else 0.0
    nonempty = table.nonempty
    terms = reference_terms(table, tf)
    f_min, f_max = terms["f_min"], terms["f_max"]
    negative = np.flatnonzero(f_min < -1e-9)
    if negative.size:
        raise NegativeTestFunction(
            f"test function {tf.name!r} dips to {float(f_min[negative[0]])!r}")
    piece_slack = tf.modulus(table.piece_max / 2.0) * float(np.sum(table.lengths))
    slack_cover = piece_slack + tf.modulus(seg_max / 2.0) * total_length
    slack_overlap = piece_slack + overlap * tf.modulus(seg_max / 2.0) * total_length
    e1_chain = float(np.min(table.density))
    e2_chain = float(np.max(table.density))
    sup_half_side = _sup_half_side(fam)
    sup_est = terms["sup_lattice"] + tf.lipschitz * _lattice_gap(sup_half_side)
    inf_est = terms["inf_lattice"] - tf.lipschitz * _lattice_gap(r / 2.0)
    enlarged_vol = math.pi * sup_half_side ** 2
    corr_lower = (float(np.sum((sup_est - f_min)[nonempty])) * vol
                  + float(np.sum(sup_est[~nonempty])) * vol
                  + float(np.sum(sup_est)) * (enlarged_vol - vol)
                  + _QUADRATURE_SLACK * (tf.spread + 1.0))
    corr_upper = (float(np.sum((f_max - inf_est)[nonempty])) * (vol / 4.0)
                  + _QUADRATURE_SLACK * (tf.spread + 1.0))
    sum_ball_integral = float(np.sum(terms["integral"]))
    sum_f_min = float(np.sum(f_min[nonempty]))
    sum_f_max = float(np.sum(f_max[nonempty]))
    hypothesis_met = corr_lower < integral_f
    message = "" if hypothesis_met else (
        f"asymptotic hypothesis unmet at this scale: modulus correction "
        f"{corr_lower:.6g} >= area integral {integral_f:.6g}; the lower "
        f"conclusion is vacuous here and only binds as the frequency grows")
    lower_conclusion = (e1_chain * max(integral_f - corr_lower, 0.0)
                        - slack_overlap / lam) / overlap
    upper_conclusion = 4.0 * e2_chain * (integral_f + corr_upper) + slack_cover / lam
    steps = (
        _step("nodal_coverage_superadditivity", total_integral, sum_ball_integral, slack_cover,
              "every nodal point lies in some cover ball, so ball integrals "
              "jointly capture the full curve integral"),
        _step("nodal_overlap_subadditivity", sum_ball_integral, overlap * total_integral,
              slack_overlap, "each nodal point is counted at most overlap_max times"),
        _step("cover_captures_integral", integral_f - corr_lower, vol * sum_f_min, 0.0,
              "enlarged cover balls capture the area integral up to the "
              "modulus correction and the probe-lattice margin"),
        _step("disjoint_cores_bound_integral", vol * sum_f_max,
              4.0 * (integral_f + corr_upper), 0.0,
              "half-radius cores are disjoint, so core sums cannot exceed "
              "the area integral; full balls cost the area factor 4"),
        _step("lower_conclusion", lower_conclusion, total_integral / lam, 0.0,
              "composite lower bound for the curve integral of f"),
        _step("upper_conclusion", total_integral / lam, upper_conclusion, 0.0,
              "composite upper bound for the curve integral of f"),
    )
    return ChainTrace(corr_lower, corr_upper, hypothesis_met, message, steps)


def reference_bucket_index(nodal):
    """(order, starts) of NodalSet._index from (count, 2) cell arrays and a searchsorted."""
    nb = max(math.isqrt(nodal.count), 1)
    cell = np.minimum((nodal.midpoints * nb).astype(np.int64), nb - 1)
    key = cell[:, 0] * nb + cell[:, 1]
    order = np.argsort(key)
    return order, np.searchsorted(key[order], np.arange(nb * nb + 1))


def reference_integrate_over_nodal(nodal, f) -> float:
    """integrate_over_nodal with f evaluated on every midpoint in one call."""
    if nodal.count == 0:
        return 0.0
    vals = np.asarray(f(nodal.midpoints), dtype=float)
    if vals.shape != (nodal.count,):
        raise ValueError("weight function must map (M, 2) points to (M,) values")
    if np.min(vals) < -1e-9:
        raise NegativeTestFunction(f"weight reached {float(np.min(vals))!r} < 0")
    return float(np.sum(vals * nodal.lengths))


def reference_sheet_argmax(modes, coeffs, n: int) -> tuple[float, int, int]:
    """np.argmax over one whole n x n |v| sheet."""
    sheet = np.abs(grid_sum(modes, coeffs, n))
    i, j = divmod(int(np.argmax(sheet)), n)
    return float(sheet[i, j]), i, j


def reference_strip_sup(spec, tau: float) -> tuple[float, float]:
    """complex_strip_sup from each corner's whole |v| sheet and the dense zoom (dense_strip_sup)."""
    xi = np.asarray(spec.modes, dtype=float)
    one_norms = np.sum(np.abs(xi), axis=1)
    with np.errstate(over="ignore", invalid="ignore"):
        certificate = float(np.sum(np.abs(spec.coeffs) * np.exp(TWO_PI * one_norms * tau)))
    return dense_strip_sup(spec, tau), certificate


# ---------------------------------------------------------------- families


@functools.cache
def survey_case(energy: int):
    """(field, nodal, [(label, centers, r)]) at the plan grid: the run's families and edge cases.

    The SSE family at E=5525 is every tenth of its 2,036 centers, which keeps
    the reference quadrature near a second.  "edge" is the largest radius
    require_resolved_radius admits.
    """
    n = plan_grid(energy)
    field = sample_grid(random_eigenfunction(energy, 0), n)
    lam = field.spec_lambda
    r = lam ** -0.5
    seams = np.vstack([SEAM_CENTERS, [[0.5 / n, 0.25]]])
    sse = default_centers(r, 1)
    families = [("cover", build_cover(r, 2).centers, r),
                ("sse", sse[::10] if energy > 1105 else sse, r),
                ("seam", seams, r)]
    if energy <= 1105:  # above, a window of the largest radius is a 1200^2 array per ball
        families.append(("edge", seams, float(np.nextafter(0.5 - 3.0 / n, 0.0))))
    a1 = next((a for a in (2.5, 1.0, 0.5)
               if OUTER_FACTOR * a / lam < 0.25 and INNER_FACTOR * a / lam * n >= 20.0), None)
    if a1 is not None:
        centers = build_cover(OUTER_FACTOR * a1 / lam / 2.0, 3).centers
        families += [("inner", centers, INNER_FACTOR * a1 / lam),
                     ("outer", centers, OUTER_FACTOR * a1 / lam)]
    return field, extract_nodal(field), families


def as_family(label, centers, r) -> BallFamily:
    if label == "cover":
        return build_cover(r, 2)
    return BallFamily(centers=np.asarray(centers), radius=r, overlap_max=1, covers=False,
                      probe_resolution=512)


def test_every_survey_case_has_both_doubling_radii_from_e50():
    labels = {e: [label for label, _, _ in survey_case(e)[2]] for e in (25, 50)}
    assert "outer" not in labels[25] and labels[50][-2:] == ["inner", "outer"]


# ---------------------------------------------------------------- byte identity


@pytest.mark.parametrize("energy", ENERGIES)
def test_bucket_index_equals_the_reference(energy, awkward_nodal):
    for nodal in (survey_case(energy)[1], awkward_nodal):
        index = NodalSet(nodal.a, nodal.b, nodal.lengths, nodal.midpoints)._index
        for got, want in zip((index.order, index.starts), reference_bucket_index(nodal)):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), energy


@pytest.mark.parametrize("energy", ENERGIES)
def test_ball_masses_equal_the_padded_field_reference(energy):
    field, _, families = survey_case(energy)
    for label, centers, r in families:
        got = ball_masses(field, centers, r)
        assert got.tobytes() == reference_ball_masses(field, centers, r).tobytes(), label


@pytest.mark.parametrize("energy", ENERGIES)
def test_mass_bounds_equal_the_whole_prefix_reference(energy):
    field, _, families = survey_case(energy)
    for label, centers, r in families:
        for got, want in zip(_mass_bounds(field, centers, r),
                             reference_mass_bounds(field, centers, r)):
            assert got.tobytes() == want.tobytes(), label


@pytest.mark.parametrize("energy", ENERGIES)
def test_ball_table_and_chains_equal_the_whole_family_reference(energy):
    field, nodal, families = survey_case(energy)
    fs = tuple(TEST_FUNCTIONS.values())
    integrals = integrals_for(field, nodal, fs)
    for label, centers, r in families:
        if label == "edge" and energy > 325:
            continue  # a ball of radius near 1/2 reads every segment of the set
        family = as_family(label, centers, r)
        table = ball_table(field, nodal, family, fs)
        want = reference_ball_table(field, nodal, family)
        for name in ("lengths", "density", "nonempty"):
            assert getattr(table, name).tobytes() == getattr(want, name).tobytes(), (label, name)
        assert table.piece_max == want.piece_max, label
        for fi in integrals:
            for name, values in reference_terms(want, fi.tf).items():
                got = getattr(table.terms[fi.tf], name)
                assert got.tobytes() == values.tobytes(), (label, fi.tf.name, name)
            trace = replicate_bound_chain(field, nodal, table, fi)
            assert repr(trace) == repr(reference_bound_chain(field, nodal, want, fi)), label


def test_run_single_at_e5525_keeps_the_whole_family_table(monkeypatch):
    # The survey's next energy: its cover table and chain numbers against the
    # reference bodies, about 0.5 s for the run.
    seen = []

    def keeping(field, nodal, family, test_functions):
        seen.append((field, nodal, family, test_functions))
        return ball_table(field, nodal, family, test_functions)

    monkeypatch.setattr(harness, "ball_table", keeping)
    plan = ExperimentPlan(energies=(5525,), seeds_per_energy=1, include_low_energy_control=False)
    run = run_single(plan, 5525, 0)
    ((field, nodal, family, fs),) = seen
    table = ball_table(field, nodal, family, fs)
    want = reference_ball_table(field, nodal, family)
    assert table.lengths.tobytes() == want.lengths.tobytes()
    assert (run.chain_e1, run.chain_e2) == (float(np.min(want.density)),
                                            float(np.max(want.density)))
    traces = [reference_bound_chain(field, nodal, want, fi)
              for fi in integrals_for(field, nodal, fs)]
    assert run.chain_ok is all(t.ok for t in traces) is True
    assert run.chain_hypothesis_met == sum(t.hypothesis_met for t in traces)
    assert run.cover_count == family.count == 328


@pytest.mark.parametrize("energy", ENERGIES)
def test_clip_batches_equal_the_one_body_reference(energy, awkward_nodal):
    _, nodal, families = survey_case(energy)
    cases = [(nodal, label, centers, r) for label, centers, r in families
             if label != "edge" or energy <= 325]  # a radius near 1/2 reads the whole set
    cases.append((awkward_nodal, "awkward", SEAM_CENTERS, 0.01))
    for soup, label, centers, r in cases:
        assert_clips_match_the_all_chord_reference(soup, centers, r, label)


def assert_clips_match_the_all_chord_reference(nodal, centers, r, label):
    """clip_batches' batches and clip_lengths' sums equal the all-chord reference's bytes."""
    got = list(clip_batches(nodal, centers, r))
    want = list(reference_clip_batches(nodal, centers, r))
    assert len(got) == len(want), label
    for g, w in zip(got, want):
        assert g[:2] == w[:2], label
        for x, y in zip(g[2:], w[2:]):  # piece_len, piece_mid, owners
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), label
    # The lengths-only clip sums the same pieces without forming their midpoints.
    want_lengths = ball_sums(*clip_family(nodal, centers, r, reference_clip_batches)[::2])
    assert clip_lengths(nodal, centers, r).tobytes() == want_lengths.tobytes(), label


@pytest.mark.parametrize("energy", ENERGIES)
def test_integrate_over_nodal_equals_the_one_call_reference(energy):
    nodal = survey_case(energy)[1]
    for name, tf in TEST_FUNCTIONS.items():
        got = np.float64(integrate_over_nodal(nodal, tf))
        want = np.float64(reference_integrate_over_nodal(nodal, REFERENCE_FUNCTIONS[name]))
        assert got.tobytes() == want.tobytes(), name

    def wrong_shape(pts):
        return np.ones((len(pts), 2))

    def signed(pts):
        return np.cos(2.0 * np.pi * pts[:, 0])

    for f, error in ((wrong_shape, ValueError), (signed, NegativeTestFunction)):
        with pytest.raises(error) as ref:
            reference_integrate_over_nodal(nodal, f)
        with pytest.raises(error, match=f"^{re.escape(str(ref.value))}$"):
            integrate_over_nodal(nodal, f)


def test_test_functions_equal_their_point_form_bodies():
    rng = np.random.default_rng(5)
    pts = [rng.random((4096, 2)), 3.0 * rng.random((4096, 2)) - 1.0,  # on and off [0, 1)^2
           rng.random((7, 9, 2)), np.array([0.5, 0.5]), np.array([[0.75, 0.5], [0.5, 0.25]])]
    for energy in ENERGIES:
        for label, centers, r in survey_case(energy)[2]:
            family = as_family(label, centers, r)
            for half in (_sup_half_side(family), r / 2.0):
                pts.append(reference_lattice_points(family.centers, half))
    for name, tf in TEST_FUNCTIONS.items():
        for p in pts:
            got, want = tf(p), REFERENCE_FUNCTIONS[name](p)
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), (name, p.shape)


@pytest.mark.parametrize("energy", ENERGIES)
def test_lattice_values_equal_the_lattice_point_reference(energy):
    for label, centers, r in survey_case(energy)[2]:
        family = as_family(label, centers, r)
        for half in (_sup_half_side(family), r / 2.0):
            pts = reference_lattice_points(family.centers, half)
            for name, tf in TEST_FUNCTIONS.items():
                got = np.ascontiguousarray(_lattice_values(tf, family.centers, half))
                want = REFERENCE_FUNCTIONS[name](pts).reshape(family.count, 9, 9)
                assert got.tobytes() == want.tobytes(), (label, name)


@pytest.mark.parametrize("n", [256, 304, 347, 544, 800])
def test_torus_integral_equals_the_point_grid_reference(n):
    for name, tf in TEST_FUNCTIONS.items():
        got = np.float64(torus_integral(tf, n))
        want = np.float64(reference_torus_integral(REFERENCE_FUNCTIONS[name], n))
        assert got.tobytes() == want.tobytes(), (name, n)


def assembly_report(centers, r: float):
    """The fields lower_bound_assembly reads of a DoublingReport, every ball good."""
    centers = np.asarray(centers, dtype=float).reshape(-1, 2)
    return SimpleNamespace(centers=centers, good=np.ones(len(centers), dtype=bool),
                           inner=SimpleNamespace(radius=r), lam=2.0 * math.pi * 33.0)


def assert_assembly_matches_the_parent(report, nodal):
    got, want = lower_bound_assembly(report, nodal), parent_lower_bound_assembly(report, nodal)
    assert got.keys() == want.keys()
    for key in got:
        assert np.asarray(got[key]).tobytes() == np.asarray(want[key]).tobytes(), key


def test_assembly_of_tiny_segments_equals_the_parent():
    # The chord drops a segment whose float endpoints coincide in the ball's chart
    # (|d|^2 <= 1e-300); a segment with distinct endpoints only 1e-12 apart is kept.
    # Inside a ball, none of them may count as a whole piece.
    a = np.array([[0.3, 0.4], [0.3, 0.41], [0.3, 0.42], [0.0, 0.43], [0.3, 0.44],
                  [0.0, 0.45], [0.3, 0.35], [0.25, 0.4]])
    b = a + np.array([[0.0, 0.0], [0.0, 1e-160], [0.0, 1e-20], [1e-160, 0.0], [0.0, 1e-12],
                      [1e-12, 0.0], [0.01, 0.0], [0.0, 0.03]])
    lengths = np.array([0.0, 1e-160, 1e-20, 1e-160, 1e-12, 1e-12, 0.01, 0.03])
    nodal = NodalSet(wrap_point(a), wrap_point(b), lengths, wrap_point(a + (b - a) / 2.0))
    centers = [[0.3, 0.42], [0.02, 0.44], [0.3, 0.36], [0.2, 0.4], [0.3, 0.2]]
    for r in (0.05, 0.1, 0.12):
        assert_clips_match_the_all_chord_reference(nodal, centers, r, r)
        assert_assembly_matches_the_parent(assembly_report(centers, r), nodal)
    # Balls that hold only the tiny segments: the parent finds no piece of the
    # collapsed ones, and the 1e-12 ones whole.
    only_tiny = clip_lengths(nodal, [[0.3, 0.43], [0.0, 0.44]], 0.015)
    assert only_tiny.tolist() == [1e-12, 1e-12]


def test_assembly_with_the_circle_through_segment_endpoints_equals_the_parent(e1105_nodal):
    # Centers placed so the circle passes within 1e-12 (and 1e-13, 1e-16 and 0) of a
    # segment endpoint, inside and outside: in random directions, and along the
    # segment, where the midpoint's distance plus half the length meets the radius
    # and a chord root lands on 1 up to rounding.  The inner doubling radius, and a
    # radius of a few segment lengths, whose few pieces per ball show a last-bit error
    # in one piece in the ball's sum.
    rng = np.random.default_rng(11)
    for r in (INNER_FACTOR * 2.5 / (2.0 * math.pi * math.sqrt(1105)), 0.004):
        assert_circle_through_endpoints_matches_the_parent(e1105_nodal, r, rng)


def assert_circle_through_endpoints_matches_the_parent(e1105_nodal, r, rng):
    segs = rng.choice(e1105_nodal.count, 400, replace=False)
    a, b = e1105_nodal.a[segs], e1105_nodal.b[segs]
    along = wrap_delta(b - a) / e1105_nodal.lengths[segs, None]
    angle = rng.random(len(segs)) * 2.0 * math.pi
    direction = np.where(np.arange(len(segs))[:, None] < 300, along,
                         np.column_stack([np.cos(angle), np.sin(angle)]))
    gap = rng.choice([-1e-12, -1e-13, -1e-16, 0.0, 1e-16, 1e-13, 1e-12], len(segs))
    at_b = rng.random(len(segs))[:, None] < 0.5
    # From a, the circle meets a; from b, stepping back along the segment, it meets b.
    centers = wrap_point(np.where(at_b, b - (r + gap)[:, None] * direction,
                                  a + (r + gap)[:, None] * direction))
    assert_clips_match_the_all_chord_reference(e1105_nodal, centers, r, r)
    assert_assembly_matches_the_parent(assembly_report(centers, r), e1105_nodal)


@pytest.mark.parametrize("energy", ENERGIES)
def test_strip_sups_equal_the_whole_sheet_search(energy):
    for seed in range(2):
        spec = random_eigenfunction(energy, 900 + seed)
        for tau in (energy ** -0.5, 0.0, 0.01):  # tau = 0 searches one sheet
            got, want = complex_strip_sup(spec, tau), reference_strip_sup(spec, tau)
            assert np.array(got).tobytes() == np.array(want).tobytes(), (seed, tau)


def test_sheet_argmax_takes_the_first_tied_maximum_in_row_major_order(monkeypatch):
    # A lone (0, 0) mode has the same |v| at every grid point: the maximizer is (0, 0).
    spec = constant_spec()
    for n in (16, 100, 340):
        assert np.ptp(np.abs(grid_sum(spec.modes, spec.coeffs, n))) == 0.0
        got = _sheet_argmax(spec.modes, spec.coeffs, n)
        assert got == reference_sheet_argmax(spec.modes, spec.coeffs, n) and got[1:] == (0, 0)
    # Ties across blocks, where a later block holds an earlier row: |v| drawn from four
    # values, the sheet handed out in blocks of 3 columns.
    rng = np.random.default_rng(0)
    for trial in range(200):
        n = int(rng.integers(1, 12))
        sheet = rng.integers(0, 4, (n, n)) * (0.6 - 0.8j)

        def blocks(modes, coeffs, n, sheet=sheet):
            for j0 in range(0, n, 3):
                yield j0, min(j0 + 3, n), sheet[:, j0:j0 + 3].copy()

        monkeypatch.setattr(growth_module, "_column_blocks", blocks)
        i, j = divmod(int(np.argmax(np.abs(sheet))), n)
        assert _sheet_argmax((), None, n) == (float(np.abs(sheet)[i, j]), i, j), trial


# ---------------------------------------------------------------- memory


@functools.cache
def e25_sse():
    """The E=25 field, seed 0, at its plan grid 256, and its SSE radius."""
    field = sample_grid(random_eigenfunction(25, 0), 256)
    return field, field.spec_lambda ** -0.5


def test_ball_masses_memory_on_the_all_ball_outer_doubling_family(e1105_field):
    # The doubling command's JSON measures every ball of the outer family.
    # tracemalloc peak at E=1105, seed 0, N=544 (48 balls, r = 0.239): 3.55 MB
    # (bound: 0.45 MB above), against 8.79 MB for the padded (n + w)^2
    # reference.
    lam = e1105_field.spec_lambda
    r_out = OUTER_FACTOR * 2.5 / lam
    centers = build_cover(r_out / 2.0, 0).centers
    peak = traced_peak(lambda: ball_masses(e1105_field, centers, r_out))
    assert peak < 4_000_000 <= traced_peak(
        lambda: reference_ball_masses(e1105_field, centers, r_out)), peak


def test_mass_bounds_memory_on_the_sse_family(e1105_field):
    # tracemalloc peak at E=1105, seed 0, N=544 over the 941 SSE balls (the
    # blocked path): 2.83 MB (bound: 0.47 MB above), against 9.46 MB for the
    # n x (n + span) prefix reference.
    r = e1105_field.spec_lambda ** -0.5
    centers = default_centers(r, 1)
    peak = traced_peak(lambda: _mass_bounds(e1105_field, centers, r))
    assert peak < 3_300_000 <= traced_peak(
        lambda: reference_mass_bounds(e1105_field, centers, r)), peak


def test_mass_bounds_memory_on_the_e25_sse_family():
    # tracemalloc peak of the whole-prefix path over the 244 SSE balls at
    # E=25, seed 0, N=256: 1.97 MB (bound: 0.43 MB above), the 0.72 MB
    # prefix array and the two balls x rows matrices plus one chunk.
    field, r = e25_sse()
    centers = default_centers(r, 1)
    peak = traced_peak(lambda: _mass_bounds(field, centers, r))
    assert peak < 2_400_000, peak


def test_sse_extremes_memory_at_e25():
    # A fresh family each call, so both the brackets and the quadrature of the
    # balls they leave open run: 2.01 MB (bound: 0.39 MB above).
    field, r = e25_sse()
    peak = traced_peak(lambda: sse_scan(field, r, 1).extreme_ratios())
    assert peak < 2_400_000, peak


def test_strip_sup_memory_at_e1105():
    # tracemalloc peak at E=1105, seed 0, tau = E^-1/2, four 340 x 340 corner
    # sheets: 1.06 MB, against 2.78 MB for the whole-sheet search.
    spec = random_eigenfunction(1105, 0)
    tau = 1105 ** -0.5
    peak = traced_peak(lambda: complex_strip_sup(spec, tau))
    assert peak < 1_500_000 <= traced_peak(lambda: reference_strip_sup(spec, tau)), peak


def test_run_single_memory_at_e1105():
    # tracemalloc peak of one E=1105 run, seed 0, after a warm-up run:
    # 9.02 MB (bound: 0.48 MB above).
    plan = ExperimentPlan(energies=(1105,), seeds_per_energy=1, include_low_energy_control=False)
    peak = traced_peak(lambda: run_single(plan, 1105, 0))
    assert peak < 9_500_000, peak


def test_run_single_memory_at_e25():
    # tracemalloc peak of one E=25 run, seed 0, after a warm-up run: 2.83 MB
    # (bound: 0.47 MB above).
    plan = ExperimentPlan(energies=(25,), seeds_per_energy=1, include_low_energy_control=False)
    peak = traced_peak(lambda: run_single(plan, 25, 0))
    assert peak < 3_300_000, peak
