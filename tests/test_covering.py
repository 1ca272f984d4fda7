import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from torusnodal.ballstats import ScaleFunction
from torusnodal.covering import (
    CANDIDATE_SPACING_FACTOR,
    DEFAULT_PROBE,
    _paint_counts,
    build_cover,
    family_to_csv,
    family_to_json,
)
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


E25_SCALE_RADIUS = ScaleFunction(0.5)(2.0 * math.pi * 5.0)


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
