import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from torusnodal.ballstats import scale_radius
from torusnodal.covering import (
    CANDIDATE_SPACING_FACTOR,
    DEFAULT_PROBE,
    _paint_counts,
    build_cover,
    family_to_csv,
    family_to_json,
)
from torusnodal.doubling import DEFAULT_A1, _outer_radius
from torusnodal.errors import RadiusTooLarge
from torusnodal.torus import periodic_distance, wrap_delta

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


def reference_greedy(r: float, seed: int, probe: int = DEFAULT_PROBE):
    """Brute-force greedy: every candidate against every accepted center.

    Returns (centers, overlap_max, covers, promoted holes).
    """
    m = math.ceil(CANDIDATE_SPACING_FACTOR / r)
    k = np.arange(m) / m
    candidates = np.stack(np.meshgrid(k, k, indexing="ij"), axis=-1).reshape(-1, 2)
    accepted = np.empty((m * m + probe * probe, 2))
    n = 0
    for cand in candidates[np.random.default_rng(seed).permutation(m * m)]:
        if n == 0 or np.min(periodic_distance(accepted[:n], cand)) > r:
            accepted[n] = cand
            n += 1
    greedy = n
    for i, j in np.argwhere(_paint_counts(accepted[:n], r, probe) == 0):
        p = np.array([i / probe, j / probe])
        if np.min(periodic_distance(accepted[:n], p)) > r:
            accepted[n] = p
            n += 1
    counts = _paint_counts(accepted[:n], r, probe)
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
    full = _paint_counts(fam.centers, r, DEFAULT_PROBE)
    assert fam.overlap_max == int(full.max())
    assert fam.covers == bool(np.all(full >= 1))
    if (r, seed) == (E25_SCALE_RADIUS, 0):
        # The greedy pass leaves five probe points uncovered; promoting the
        # first of them covers the other four.
        assert promoted == 1


def parent_build_cover(r: float, seed: int, probe: int = DEFAULT_PROBE):
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
    counts = _paint_counts(centers, r, probe)
    for i, j in np.argwhere(counts == 0):
        p = np.array([i / probe, j / probe])
        if np.min(periodic_distance(centers, p)) > r:
            centers = np.vstack([centers, p])
    if len(centers) > len(accepted):
        counts += _paint_counts(centers[len(accepted):], r, probe)
    return centers, int(counts.max()), bool(np.all(counts >= 1))


def half_scale_radius(energy: int) -> float:
    return scale_radius(2.0 * math.pi * math.sqrt(energy), 0.5)


# The E=1105 doubling cover's radius (half the outer radius at the default
# a1) and the desk plan's control cover (the E=1105 scale radius, stage seed
# 1013).
DOUBLING_1105_RADIUS = _outer_radius(2.0 * math.pi * math.sqrt(1105), DEFAULT_A1) / 2.0
ORACLE_RADII = [half_scale_radius(e) for e in (25, 50, 65, 325, 1105)] + [
    DOUBLING_1105_RADIUS, 0.03, 0.22]


def assert_same_cover(r, seed, probe=DEFAULT_PROBE):
    centers, overlap_max, covers = parent_build_cover(r, seed, probe)
    fam = build_cover(r, seed, probe)
    assert fam.centers.tobytes() == centers.tobytes()
    assert fam.overlap_max == overlap_max
    assert fam.covers == covers


@pytest.mark.parametrize("r", ORACLE_RADII)
@pytest.mark.parametrize("seed", range(5))
def test_cover_is_byte_identical_to_parent_kernel(r, seed):
    assert_same_cover(r, seed)


def test_control_cover_is_byte_identical_to_parent_kernel():
    assert_same_cover(half_scale_radius(1105), 1013)


@pytest.mark.parametrize("r", [half_scale_radius(65), DOUBLING_1105_RADIUS])
@pytest.mark.parametrize("probe", [1, 2, 3, 7, 64])
def test_cover_is_byte_identical_to_parent_kernel_on_coarse_probes(r, probe):
    for seed in range(3):
        assert_same_cover(r, seed, probe)


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
    """The per-ball painter _paint_counts replaced: one fancy-index add per ball.

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


@pytest.mark.parametrize("probe", [1, 2, 3, 7, 16, 64, 512])
def test_paint_counts_match_loop_painter_and_brute_force(probe):
    rng = np.random.default_rng(probe)
    seams = np.array([[0.0, 0.0], [1.0 - 1e-12, 1.0 - 1e-12], [0.0, 0.5], [0.5, 0.0],
                      [1.0 - 1e-12, 0.3], [0.3, 1.0 - 1e-12], [0.5 / probe, 0.25]])
    centers = np.vstack([seams, rng.uniform(0.0, 1.0, (12, 2))])
    for r in (0.004, 0.03, E25_SCALE_RADIUS, 0.24):
        got = _paint_counts(centers, r, probe)
        assert np.array_equal(got, loop_paint_counts(centers, r, probe)), r
        assert np.array_equal(got, brute_force_counts(centers, r, probe)), r
        assert np.array_equal(_paint_counts(centers[:1], r, probe),
                              loop_paint_counts(centers[:1], r, probe)), r


@pytest.mark.parametrize("probe", [1, 2])
def test_paint_counts_past_one_byte(probe):
    # 320 balls hold (1/2, 1/2) and 300 hold the origin, across the seams:
    # more than a byte canvas cell counts before it is folded away.
    rng = np.random.default_rng(7)
    centers = np.vstack([0.5 + rng.uniform(-0.05, 0.05, (320, 2)),
                         rng.uniform(-0.05, 0.05, (300, 2)) % 1.0])
    got = _paint_counts(centers, 0.2, probe)
    want = brute_force_counts(centers, 0.2, probe)
    assert want.max() == (320 if probe == 2 else 300)
    assert np.array_equal(got, want)


def test_cover_half_radius_balls_are_disjoint():
    fam = build_cover(0.15, seed=3)
    # B(c_i, r/2) disjoint means pairwise center distance strictly above r.
    assert pairwise_min_distance(fam.centers) > fam.radius


def test_cover_covers_the_torus():
    fam = build_cover(0.15, seed=3)
    assert fam.covers
    assert probe_cover_distance(fam.centers, 256) <= fam.radius


def test_cover_overlap_profile_accounts_for_every_probe_point():
    fam = build_cover(0.12, seed=0)
    values, freq = np.unique(_paint_counts(fam.centers, fam.radius, 256), return_counts=True)
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
    values, freq = np.unique(_paint_counts(fam.centers, fam.radius, fam.probe_resolution),
                             return_counts=True)
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
