"""Maximal disjoint ball families and their doubled covers.

A family is built greedily over a shuffled candidate lattice of spacing
r/8: a candidate is accepted exactly when its distance to every accepted
center exceeds r, which keeps the open half-radius balls pairwise disjoint.
The family is maximal on the candidate lattice only, so probe points
between candidates can be left uncovered by the full-radius balls, and
most families leave a few.  A deterministic sweep over the probe lattice
promotes each such point (it is itself a legal center), so coverage holds
on the probe lattice by construction.  The
doubled balls overlap at most 16 deep: at any point the half-radius balls
of the covering centers are disjoint subsets of a ball of twice the full
radius, and 16 is the flat volume ratio.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import RadiusTooLarge
from .torus import periodic_distance, wrap_delta

CANDIDATE_SPACING_FACTOR = 8
DEFAULT_PROBE = 512
OVERLAP_VOLUME_BOUND = 16


@dataclass(frozen=True)
class BallFamily:
    """Centers with pairwise distance > radius; doubled balls cover the torus."""

    centers: np.ndarray
    radius: float
    overlap_max: int
    covers: bool
    probe_resolution: int

    @property
    def count(self) -> int:
        return int(self.centers.shape[0])


def _paint_counts(centers: np.ndarray, r: float, probe: int) -> np.ndarray:
    """Per-probe-point count of containing full-radius balls."""
    i0 = np.floor((centers - r) * probe).astype(np.int64) - 1
    i1 = np.ceil((centers + r) * probe).astype(np.int64) + 1
    # Windows end at i1, at most probe wide (none painted twice); points before i0 lie outside.
    w = min(probe, int(np.max(i1 - i0, initial=0)) + 1)
    ix = i1[:, :, None] + np.arange(1 - w, 1)
    sq = np.square(wrap_delta(ix / probe - centers[:, :, None]))
    canvas = np.zeros((probe + w, probe + w), dtype=np.int32)
    for (x0, y0), sx, sy in zip((ix[:, :, 0] % probe).tolist(), sq[:, 0], sq[:, 1]):
        canvas[x0:x0 + w, y0:y0 + w] += sx[:, None] + sy[None, :] <= r * r
    canvas[:w] += canvas[probe:]
    canvas[:, :w] += canvas[:, probe:]
    return canvas[:probe, :probe]


def build_cover(r: float, seed: int, probe: int = DEFAULT_PROBE) -> BallFamily:
    """Greedy maximal disjoint family at half radius r/2, doubled to cover.

    Deterministic in (r, seed, probe).  Raises RadiusTooLarge for r >= 1/4,
    where the doubling volume argument would no longer embed.
    """
    if not 0.0 < r < 0.25:
        raise RadiusTooLarge(f"cover radius must lie in (0, 1/4), got {r!r}")
    if probe < 1:
        raise ValueError(f"probe resolution must be at least 1, got {probe!r}")
    m = math.ceil(CANDIDATE_SPACING_FACTOR / r)
    k = np.arange(m) / m
    order = np.random.default_rng(seed).permutation(m * m)

    # free[i, j]: candidate (k[i], k[j]) is still more than r from every
    # accepted center.  Distances run from the accepted center to the
    # candidate and compare the square root against r: wrap_delta is not
    # odd in the last bit, so either change can flip a near-tie.
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
        window = np.stack(np.meshgrid(k[wi], k[wj], indexing="ij"), axis=-1)
        free[np.ix_(wi, wj)] &= periodic_distance(c, window) > r

    # Promote uncovered probe points (each is > r from every center, hence a
    # legal addition) in row-major order, then paint only the promoted balls
    # onto the greedy family's counts.
    centers = np.array(accepted)
    counts = _paint_counts(centers, r, probe)
    for i, j in np.argwhere(counts == 0):
        p = np.array([i / probe, j / probe])
        if np.min(periodic_distance(centers, p)) > r:
            centers = np.vstack([centers, p])
    if len(centers) > len(accepted):
        counts += _paint_counts(centers[len(accepted):], r, probe)

    return BallFamily(
        centers=centers,
        radius=r,
        overlap_max=int(counts.max()),
        covers=bool(np.all(counts >= 1)),
        probe_resolution=probe,
    )


def family_to_csv(family: BallFamily, path: str) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("center_x,center_y,radius\n")
        for c in family.centers:
            fh.write(f"{float(c[0])!r},{float(c[1])!r},{float(family.radius)!r}\n")


def family_to_json(family: BallFamily) -> str:
    obj = {
        "r": family.radius,
        "count": family.count,
        "overlap_max": family.overlap_max,
        "covers": family.covers,
        "probe_resolution": family.probe_resolution,
        "centers": [[float(c[0]), float(c[1])] for c in family.centers],
    }
    return json.dumps(obj, sort_keys=True)
