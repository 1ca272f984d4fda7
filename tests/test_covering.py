import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from torusnodal.ballstats import scale_radius
from torusnodal.covering import (
    CANDIDATE_SPACING_FACTOR,
    PROBE,
    _paint_onto,
    build_cover,
    family_to_csv,
    family_to_json,
)
from torusnodal.doubling import DEFAULT_A1, doubling_admissible, doubling_radii
from torusnodal.eigenbasis import frequency
from torusnodal.errors import RadiusTooLarge
from torusnodal.harness import _stage_seed, plan_from_json
from torusnodal.torus import blocks, periodic_distance, wrap_delta

BASELINE = json.loads(
    open(__file__.rsplit("/", 1)[0] + "/baselines/fixture_e65_seed7.json").read()
)


def pairwise_min_distance(centers: np.ndarray) -> float:
    best = np.inf
    for i in range(len(centers) - 1):
        d = np.linalg.norm(wrap_delta(centers[i + 1 :] - centers[i]), axis=1)
        best = min(best, float(np.min(d)))
    return best


def probe_cover_distance(centers: np.ndarray, probe: int) -> float:
    xs = (np.arange(probe) + 0.5) / probe
    gx, gy = np.meshgrid(xs, xs, indexing="ij")
    pts = np.column_stack([gx.ravel(), gy.ravel()])
    worst = 0.0
    for block in np.array_split(pts, 16):
        d = np.full(len(block), np.inf)
        for c in centers:
            d = np.minimum(d, np.linalg.norm(wrap_delta(block - c), axis=1))
        worst = max(worst, float(np.max(d)))
    return worst


def paint_counts(centers: np.ndarray, r: float) -> np.ndarray:
    """Per-probe-point count of the full-radius balls of centers, as build_cover paints it."""
    counts = np.zeros((PROBE, PROBE), dtype=np.int32)
    _paint_onto(counts, centers, r)
    return counts


def reference_greedy(r: float, seed: int):
    """Brute-force greedy: every candidate against every accepted center.

    Returns (centers, overlap_max, covers, promoted holes).
    """
    m = math.ceil(CANDIDATE_SPACING_FACTOR / r)
    k = np.arange(m) / m
    candidates = np.stack(np.meshgrid(k, k, indexing="ij"), axis=-1).reshape(-1, 2)
    accepted = np.empty((m * m + PROBE * PROBE, 2))
    n = 0
    for cand in candidates[np.random.default_rng(seed).permutation(m * m)]:
        if n == 0 or np.min(periodic_distance(accepted[:n], cand)) > r:
            accepted[n] = cand
            n += 1
    greedy = n
    for i, j in np.argwhere(paint_counts(accepted[:n], r) == 0):
        p = np.array([i / PROBE, j / PROBE])
        if np.min(periodic_distance(accepted[:n], p)) > r:
            accepted[n] = p
            n += 1
    counts = paint_counts(accepted[:n], r)
    return accepted[:n], int(counts.max()), bool(np.all(counts >= 1)), n - greedy


E25_SCALE_RADIUS = scale_radius(2.0 * math.pi * 5.0, 0.5)


@pytest.mark.parametrize("r", [E25_SCALE_RADIUS, 0.07, 0.13, 0.22])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_cover_matches_brute_force_greedy(r, seed):
    centers, overlap_max, covers, promoted = reference_greedy(r, seed)
    fam = build_cover(r, seed)
    assert np.array_equal(fam.centers, centers)
    assert fam.overlap_max == overlap_max
    assert fam.covers == covers
    # build_cover paints only the promoted balls a second time; a full
    # repaint of the family must give the same overlap and coverage.
    full = paint_counts(fam.centers, r)
    assert fam.overlap_max == int(full.max())
    assert fam.covers == bool(np.all(full >= 1))
    if (r, seed) == (E25_SCALE_RADIUS, 0):
        # The greedy pass leaves five probe points uncovered; promoting the
        # first of them covers the other four.
        assert promoted == 1


def parent_build_cover(r: float, seed: int):
    """The boolean-array greedy build_cover replaced: the oracle for its bytes.

    Returns (centers, overlap_max, covers).
    """
    m = math.ceil(CANDIDATE_SPACING_FACTOR / r)
    k = np.arange(m) / m
    order = np.random.default_rng(seed).permutation(m * m)
    free = np.ones((m, m), dtype=bool)
    reach = np.arange(-(math.ceil(r * m) + 1), math.ceil(r * m) + 2)
    accepted = []
    for idx in order.tolist():
        i, j = divmod(idx, m)
        if not free[i, j]:
            continue
        c = np.array([k[i], k[j]])
        accepted.append(c)
        wi, wj = (i + reach) % m, (j + reach) % m
        dx, dy = wrap_delta(k[i] - k[wi]), wrap_delta(k[j] - k[wj])
        free[np.ix_(wi, wj)] &= np.sqrt(dx[:, None] * dx[:, None] + dy * dy) > r
    centers = np.array(accepted)
    counts = paint_counts(centers, r)
    for i, j in np.argwhere(counts == 0):
        p = np.array([i / PROBE, j / PROBE])
        if np.min(periodic_distance(centers, p)) > r:
            centers = np.vstack([centers, p])
    if len(centers) > len(accepted):
        counts += paint_counts(centers[len(accepted):], r)
    return centers, int(counts.max()), bool(np.all(counts >= 1))


def half_scale_radius(energy: int) -> float:
    return scale_radius(2.0 * math.pi * math.sqrt(energy), 0.5)


# The E=1105 doubling cover's radius (half the outer radius at the default
# a1) and the desk plan's control cover (the E=1105 scale radius, stage seed
# 1013).
DOUBLING_1105_RADIUS = doubling_radii(2.0 * math.pi * math.sqrt(1105), DEFAULT_A1)[2] / 2.0
ORACLE_RADII = [half_scale_radius(e) for e in (25, 50, 65, 325, 1105)] + [
    DOUBLING_1105_RADIUS, 0.03, 0.22]


def assert_same_cover(r, seed):
    centers, overlap_max, covers = parent_build_cover(r, seed)
    fam = build_cover(r, seed)
    assert fam.centers.tobytes() == centers.tobytes()
    assert fam.overlap_max == overlap_max
    assert fam.covers == covers


@pytest.mark.parametrize("r", ORACLE_RADII)
@pytest.mark.parametrize("seed", range(5))
def test_cover_is_byte_identical_to_parent_kernel(r, seed):
    assert_same_cover(r, seed)


def test_control_cover_is_byte_identical_to_parent_kernel():
    assert_same_cover(half_scale_radius(1105), 1013)


def test_cover_memory_is_bounded():
    # tracemalloc peak at the control radius: 3.05 MB for the kernel kept in
    # parent_build_cover with its int32-canvas painter, 2.11 MB for build_cover.
    r = half_scale_radius(1105)
    build_cover(r, 0)
    tracemalloc.start()
    try:
        build_cover(r, 1013)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3_000_000, f"build_cover peak {peak} bytes"


def loop_paint_counts(centers: np.ndarray, r: float, probe: int) -> np.ndarray:
    """The per-ball painter _paint_onto replaced: one fancy-index add per ball.

    A window longer than the lattice names some probe points twice; the
    buffered += keeps the last write, so each point counts once.
    """
    counts = np.zeros((probe, probe), dtype=np.int32)
    for c in centers:
        i0 = math.floor((c[0] - r) * probe) - 1
        i1 = math.ceil((c[0] + r) * probe) + 1
        j0 = math.floor((c[1] - r) * probe) - 1
        j1 = math.ceil((c[1] + r) * probe) + 1
        ix = np.arange(i0, i1 + 1)
        jy = np.arange(j0, j1 + 1)
        dx = wrap_delta(ix / probe - c[0])
        dy = wrap_delta(jy / probe - c[1])
        inside = dx[:, None] ** 2 + dy[None, :] ** 2 <= r * r
        counts[np.ix_(ix % probe, jy % probe)] += inside
    return counts


def brute_force_counts(centers: np.ndarray, r: float, probe: int) -> np.ndarray:
    t = np.arange(probe) / probe
    counts = np.zeros((probe, probe), dtype=np.int32)
    for c in centers:
        dx = wrap_delta(t - c[0])
        dy = wrap_delta(t - c[1])
        counts += dx[:, None] ** 2 + dy[None, :] ** 2 <= r * r
    return counts


def test_paint_counts_match_loop_painter_and_brute_force():
    rng = np.random.default_rng(PROBE)
    seams = np.array([[0.0, 0.0], [1.0 - 1e-12, 1.0 - 1e-12], [0.0, 0.5], [0.5, 0.0],
                      [1.0 - 1e-12, 0.3], [0.3, 1.0 - 1e-12], [0.5 / PROBE, 0.25]])
    centers = np.vstack([seams, rng.uniform(0.0, 1.0, (12, 2))])
    for r in (0.004, 0.03, E25_SCALE_RADIUS, 0.24):
        got = paint_counts(centers, r)
        assert np.array_equal(got, loop_paint_counts(centers, r, PROBE)), r
        assert np.array_equal(got, brute_force_counts(centers, r, PROBE)), r
        assert np.array_equal(paint_counts(centers[:1], r),
                              loop_paint_counts(centers[:1], r, PROBE)), r


@pytest.mark.parametrize("folds", [1, 2])
def test_paint_counts_past_one_byte(folds):
    # 255 * folds + 5 balls hold the lattice point (1/2, 1/2), and 200 more,
    # across the seams, the origin: the byte canvas cell at (1/2, 1/2)
    # overflows `folds` times unless it is folded away after every 255 balls.
    rng = np.random.default_rng(7)
    deep = 255 * folds + 5
    centers = np.vstack([0.5 + rng.uniform(-0.05, 0.05, (deep, 2)),
                         rng.uniform(-0.03, 0.03, (200, 2)) % 1.0])
    got = paint_counts(centers, 0.2)
    want = brute_force_counts(centers, 0.2, PROBE)
    assert want[PROBE // 2, PROBE // 2] == deep and want[0, 0] == 200
    assert np.array_equal(got, want)


def test_cover_half_radius_balls_are_disjoint():
    fam = build_cover(0.15, seed=3)
    # B(c_i, r/2) disjoint means pairwise center distance strictly above r.
    assert pairwise_min_distance(fam.centers) > fam.radius


def test_cover_covers_the_torus():
    fam = build_cover(0.15, seed=3)
    assert fam.covers
    assert probe_cover_distance(fam.centers, 256) <= fam.radius


def nearest_center_distance(centers: np.ndarray, points: np.ndarray) -> np.ndarray:
    d = np.empty(len(points))
    for b0, b1 in blocks(len(points), len(centers), 1 << 16):
        d[b0:b1] = np.min(periodic_distance(centers, points[b0:b1, None]), axis=1)
    return d


_QUARTERS = np.array([[-1.0, -1.0], [-1.0, 1.0], [1.0, -1.0], [1.0, 1.0]])


def deepest_hole(centers: np.ndarray, tol: float = 1e-6) -> float:
    """The largest distance from a torus point to its nearest center, to within tol above.

    The nearest-center distance d is 1-Lipschitz, so on a cell of half
    diagonal g about c it is at most d(c) + g.  Branch and bound from 16^2
    cells: lo is the largest d seen at a cell center, a real point's
    distance, and a cell is split in four while d(c) + g > lo + tol.  Every
    cell left unsplit is bounded by lo + tol, so the true largest distance
    lies in [lo, lo + tol].  Returns lo.
    """
    h = 1.0 / 16
    t = (np.arange(16) + 0.5) * h
    points = np.stack(np.meshgrid(t, t, indexing="ij"), axis=-1).reshape(-1, 2)
    lo = 0.0
    while len(points):
        d = nearest_center_distance(centers, points)
        lo = max(lo, float(np.max(d)))
        points = points[d + h / math.sqrt(2.0) > lo + tol]
        h /= 2.0
        points = (points[:, None] + h / 2.0 * _QUARTERS).reshape(-1, 2)
    return lo


DESK = plan_from_json(open(__file__.rsplit("/", 1)[0] + "/../plans/desk.json").read())


# (energy, seed, stage) of every cover a desk run builds: stage 2 the scale
# cover, stage 3 the doubling cover (E=1105 only), stage 4 the control's.
DESK_COVERS = ([(e, s, 2) for e in DESK.energies for s in range(DESK.seeds_per_energy)]
               + [(e, s, 3) for e in DESK.energies
                  if doubling_admissible(frequency(e), DESK.doubling_a1)
                  for s in range(DESK.seeds_per_energy)]
               + [(1, 0, 4)])


def desk_cover(energy: int, seed: int, stage: int):
    """The cover the desk run (energy, seed) builds at stage, as run_single and control_run do."""
    if stage == 3:
        r = doubling_radii(frequency(energy), DESK.doubling_a1)[2] / 2.0
    else:
        r = scale_radius(frequency(max(DESK.energies) if stage == 4 else energy), DESK.rho)
    return build_cover(r, _stage_seed(DESK, energy, seed, stage))


@pytest.mark.parametrize("energy, seed, stage", DESK_COVERS)
def test_every_torus_point_lies_within_reach_of_a_center(energy, seed, stage):
    # The bound chain's sup balls have radius family.reach.
    fam = desk_cover(energy, seed, stage)
    assert fam.covers
    assert deepest_hole(fam.centers) + 1e-6 <= fam.reach


def test_probe_coverage_leaves_holes_beyond_the_radius():
    # covers=True holds on the probe lattice only: the E=325 seed-8 desk
    # cover leaves a point 7.7e-4 beyond r, more than half of the 1.38e-3
    # margin reach adds.
    assert len(DESK_COVERS) == 60 + 20 + 1
    r = scale_radius(frequency(325), DESK.rho)
    fam = desk_cover(325, 8, 2)
    assert fam.covers
    depth = deepest_hole(fam.centers) - r
    assert 6.4e-4 < depth < fam.reach - r
    assert fam.reach == r + math.sqrt(2.0) / 1024


# A vertex is computed within about 1e-15 of the true circle intersection
# unless the two circles are within ~1e-18 of tangency; a disk whose
# boundary passes within the margin of a vertex would make its count
# ambiguous, and the test asserts no such disk exists.
_VERTEX_MARGIN = 1e-9


def overlap_depths(centers: np.ndarray, r: float) -> tuple[np.ndarray, np.ndarray]:
    """Counts of the closed disks B(c, r) at every pairwise circle intersection point and center.

    The deepest point of a disk arrangement is a vertex, or a center when
    a circle meets no other.  Returns (low, high): at each point, the disks
    within r - _VERTEX_MARGIN and within r + _VERTEX_MARGIN of it, a vertex
    counting its own two circles in both.
    """
    n = len(centers)
    delta = wrap_delta(centers[None, :] - centers[:, None])  # delta[i, j] = c_j - c_i
    dist = np.hypot(delta[..., 0], delta[..., 1])
    i, j = np.nonzero(np.triu(dist < 2.0 * r, k=1))
    step, gap = delta[i, j], dist[i, j]
    height = np.sqrt(r * r - gap * gap / 4.0)  # from the chord's midpoint to each vertex
    normal = (height / gap)[:, None] * np.column_stack([-step[:, 1], step[:, 0]])
    mid = centers[i] + step / 2.0
    points = np.concatenate([mid + normal, mid - normal, centers])
    own = np.concatenate([np.column_stack([i, j])] * 2 + [np.column_stack([np.arange(n)] * 2)])
    low, high = np.empty(len(points), dtype=int), np.empty(len(points), dtype=int)
    for b0, b1 in blocks(len(points), n, 1 << 16):
        d = periodic_distance(centers, points[b0:b1, None])
        mine = np.zeros(d.shape, dtype=bool)
        rows = np.arange(b1 - b0)
        mine[rows, own[b0:b1, 0]] = mine[rows, own[b0:b1, 1]] = True
        low[b0:b1] = np.count_nonzero(mine | (d <= r - _VERTEX_MARGIN), axis=1)
        high[b0:b1] = np.count_nonzero(mine | (d <= r + _VERTEX_MARGIN), axis=1)
    return low, high


# The desk covers where the probe lattice misses the deepest point: a depth-5
# vertex where overlap_max says 4.  The exact overlap of item 22(b) flips this pin.
PROBE_OVERLAP_GAPS = {(325, 11, 2), (1105, 1, 2), (1105, 6, 2)}


@pytest.mark.parametrize("energy, seed, stage", [c for c in DESK_COVERS if c[2] != 3])
def test_overlap_max_is_at_most_the_exact_depth(energy, seed, stage):
    fam = desk_cover(energy, seed, stage)
    low, high = overlap_depths(fam.centers, fam.radius)
    assert np.array_equal(low, high)  # the margin decides every count
    depth = int(np.max(high))
    assert fam.overlap_max <= depth
    assert (fam.overlap_max < depth) is ((energy, seed, stage) in PROBE_OVERLAP_GAPS)
    if (energy, seed, stage) in PROBE_OVERLAP_GAPS or stage == 4:
        assert (fam.overlap_max, depth) == (4 if stage == 2 else 5, 5)


def test_cover_overlap_profile_accounts_for_every_probe_point():
    fam = build_cover(0.12, seed=0)
    # A lattice other than the one build_cover painted.
    values, freq = np.unique(brute_force_counts(fam.centers, fam.radius, 256), return_counts=True)
    assert int(np.sum(freq)) == 256 * 256
    assert values.min() >= 1  # covered everywhere
    assert values.max() <= 16
    assert fam.overlap_max <= 16


def test_cover_determinism_and_seed_sensitivity():
    one = build_cover(0.15, seed=5)
    two = build_cover(0.15, seed=5)
    other = build_cover(0.15, seed=6)
    assert np.array_equal(one.centers, two.centers)
    assert not np.array_equal(one.centers, other.centers)


def test_cover_radius_validation():
    for bad in (0.0, -0.1, 0.25, 0.4):
        with pytest.raises(RadiusTooLarge):
            build_cover(bad, seed=0)


def test_cover_regression_against_baseline():
    frozen = BASELINE["cover_r015_seed3"]
    fam = build_cover(0.15, seed=3)
    assert fam.centers.shape[0] == frozen["count"]
    assert fam.covers == frozen["covers"]
    assert fam.overlap_max == frozen["overlap_max"]
    values, freq = np.unique(paint_counts(fam.centers, fam.radius), return_counts=True)
    profile = {str(int(k)): int(v) for k, v in zip(values, freq)}
    assert profile == frozen["profile"]


def test_family_csv_is_loadable(tmp_path):
    fam = build_cover(0.15, seed=3)
    path = tmp_path / "cover.csv"
    family_to_csv(fam, str(path))
    header = path.read_text().splitlines()[0]
    assert header == "center_x,center_y,radius"
    rows = np.loadtxt(path, delimiter=",", skiprows=1)
    assert rows.shape == (fam.centers.shape[0], 3)
    assert np.array_equal(rows[:, :2], fam.centers)
    assert np.all(rows[:, 2] == fam.radius)


def test_family_json_fields():
    fam = build_cover(0.2, seed=1)
    blob = json.loads(family_to_json(fam))
    assert blob["r"] == 0.2
    assert blob["count"] == fam.centers.shape[0]
    assert blob["overlap_max"] == fam.overlap_max
    assert blob["covers"] is True
    assert blob["probe_resolution"] == PROBE == 512
    assert len(blob["centers"]) == fam.centers.shape[0]


@settings(max_examples=8)
@given(
    r=st.sampled_from([0.07, 0.1, 0.13, 0.18, 0.22]),
    seed=st.integers(min_value=0, max_value=50),
)
def test_cover_invariants_random(r, seed):
    fam = build_cover(r, seed=seed)
    assert fam.covers
    assert fam.overlap_max <= 16
    assert pairwise_min_distance(fam.centers) > r - 1e-12
    # Area bound: disjoint half-radius balls fit inside the unit square.
    assert fam.centers.shape[0] * np.pi * (r / 2) ** 2 <= 1.0 + 1e-9
