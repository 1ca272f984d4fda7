"""Maximal disjoint ball families and their doubled covers.

A family is built greedily over a shuffled candidate lattice of spacing
r/8: a candidate is accepted exactly when its distance to every accepted
center exceeds r, which keeps the open half-radius balls pairwise disjoint.
The family is maximal on the candidate lattice only, so probe points
between candidates can be left uncovered by the full-radius balls, and
most families leave a few.  A deterministic sweep over the PROBE x PROBE
probe lattice promotes each such point (it is itself a legal center), so
coverage holds on the probe lattice by construction; every torus point then
lies within r plus half a probe cell's diagonal, the family's reach, of a
center.  The doubled balls overlap at most 16 deep: at any point
the half-radius balls of the covering centers are disjoint subsets of a
ball of twice the full radius, and 16 is the flat volume ratio.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import RadiusTooLarge
from .nodal import read_float_csv, write_float_csv
from .torus import BUDGET_16K, blocks, periodic_distance, wrap_delta

CANDIDATE_SPACING_FACTOR = 8
PROBE = 512  # the probe lattice is PROBE x PROBE points, spacing 1 / PROBE
OVERLAP_VOLUME_BOUND = 16
_CANVAS_DEPTH = 255  # balls one uint8 canvas cell can count


@dataclass(frozen=True)
class BallFamily:
    """Centers with pairwise distance > radius; doubled balls cover the torus."""

    centers: np.ndarray
    radius: float
    overlap_max: int
    covers: bool

    @property
    def count(self) -> int:
        return int(self.centers.shape[0])

    @property
    def reach(self) -> float:
        """Distance within which every torus point has a center when covers holds."""
        return self.radius + math.sqrt(2.0) / (2.0 * PROBE)


def _paint_onto(counts: np.ndarray, centers: np.ndarray, r: float) -> None:
    """Add each ball's full-radius disk to counts, the int32 probe-lattice counts."""
    i0 = np.floor((centers - r) * PROBE).astype(np.int64) - 1
    i1 = np.ceil((centers + r) * PROBE).astype(np.int64) + 1
    # Windows end at i1; with r < 1/4 each is under PROBE wide, so none is
    # painted twice, and points before i0 lie outside.
    w = int(np.max(i1 - i0, initial=0)) + 1
    ix = i1[:, :, None] + np.arange(1 - w, 1)
    sq = np.square(wrap_delta(ix / PROBE - centers[:, :, None]))
    corners = (ix[:, :, 0] % PROBE).tolist()
    # A byte canvas cell counts at most 255 balls, so the canvas is folded
    # into counts after every 255 balls.
    dist2 = np.empty((w, w))
    inside = np.empty((w, w), dtype=bool)
    for b0, b1 in blocks(len(corners), 1, _CANVAS_DEPTH):
        canvas = np.zeros((PROBE + w, PROBE + w), dtype=np.uint8)
        for (x0, y0), sx, sy in zip(corners[b0:b1], sq[b0:b1, 0], sq[b0:b1, 1]):
            np.copyto(dist2, sy)
            np.add(dist2, sx[:, None], out=dist2)
            np.less_equal(dist2, r * r, out=inside)
            canvas[x0:x0 + w, y0:y0 + w] += inside.view(np.uint8)
        canvas[:w] += canvas[PROBE:]
        canvas[:PROBE, :w] += canvas[:PROBE, PROBE:]
        counts += canvas[:PROBE, :PROBE]


def cover_admissible(r: float) -> bool:
    """Whether build_cover takes radius r: 0 < r < 1/4, where the doubling volume argument embeds."""
    return 0.0 < r < 0.25


def build_cover(r: float, seed: int) -> BallFamily:
    """Greedy maximal disjoint family at half radius r/2, doubled to cover.

    Deterministic in (r, seed).  Raises RadiusTooLarge unless
    cover_admissible(r).
    """
    if not cover_admissible(r):
        raise RadiusTooLarge(f"cover radius must lie in (0, 1/4), got {r!r}")
    m = math.ceil(CANDIDATE_SPACING_FACTOR / r)
    k = np.arange(m) / m
    order = np.random.default_rng(seed).permutation(m * m)

    # free[i * m + j]: candidate (k[i], k[j]) is still more than r from
    # every accepted center.  Distances run from the accepted center to the
    # candidate and compare the square root against r: wrap_delta is not
    # odd in the last bit, so either change can flip a near-tie.  win[i] is
    # the window of lattice indices around i (at most 21 of the m >= 33)
    # and sq[i] the squared offsets wrap_delta(k[i] - k[win[i]]).
    reach = np.arange(-(math.ceil(r * m) + 1), math.ceil(r * m) + 2)
    win = (np.arange(m)[:, None] + reach) % m
    sq = np.square(wrap_delta(k[:, None] - k[win]))
    win_rows = win * m
    free = bytearray(b"\x01") * (m * m)
    free_view = np.frombuffer(free, dtype=np.uint8)
    accepted = []
    for idx in order.tolist():
        if free[idx]:
            accepted.append(idx)
            i, j = divmod(idx, m)
            near = np.sqrt(sq[i][:, None] + sq[j]) <= r
            free_view[(win_rows[i][:, None] + win[j])[near]] = 0
    acc = np.array(accepted)
    centers = np.column_stack([k[acc // m], k[acc % m]])

    # Promote uncovered probe points (each is > r from every center, hence a
    # legal addition) in row-major order: drop the holes within r of a
    # greedy center, then walk the rest, each promoted point striking the
    # later ones within r of it.  Only the promoted balls are painted again.
    counts = np.zeros((PROBE, PROBE), dtype=np.int32)
    _paint_onto(counts, centers, r)
    holes = np.flatnonzero(counts == 0)
    points = np.column_stack([holes // PROBE, holes % PROBE]) / PROBE
    far = np.empty(len(points), dtype=bool)
    for b0, b1 in blocks(len(points), len(centers), BUDGET_16K):
        far[b0:b1] = np.min(periodic_distance(centers, points[b0:b1, None]), axis=1) > r
    points = points[far]
    promoted = []
    while len(points):
        promoted.append(points[0])
        points = points[1:][periodic_distance(points[0], points[1:]) > r]
    if promoted:
        centers = np.vstack([centers, *promoted])
        _paint_onto(counts, centers[-len(promoted):], r)

    return BallFamily(
        centers=centers,
        radius=r,
        overlap_max=int(counts.max()),
        covers=bool(counts.min() >= 1),
    )


_COVER_HEADER = "center_x,center_y,radius"


def family_to_csv(family: BallFamily, path: str) -> None:
    write_float_csv(path, _COVER_HEADER,
                    (family.centers, np.full(family.count, float(family.radius))))


def balls_from_csv(path: str) -> tuple[np.ndarray, float]:
    """Centers in [0, 1) and the common positive radius of a cover CSV; header only is no balls."""
    rows = read_float_csv(path, _COVER_HEADER, "ball file")
    if not np.all((rows[:, :2] >= 0.0) & (rows[:, :2] < 1.0)):
        raise ValueError(f"ball file {path}: centers must lie in [0, 1)")
    # Not np.unique, which imports numpy.ma.
    if np.any(rows[:, 2] != rows[:1, 2]):
        raise ValueError(f"ball file {path}: rows carry more than one radius")
    if np.any(rows[:, 2] <= 0.0):
        raise ValueError(f"ball file {path}: radius {float(rows[0, 2])!r} is not positive")
    return rows[:, :2], float(rows[0, 2]) if len(rows) else 0.0


def family_to_json(family: BallFamily) -> str:
    obj = {
        "r": family.radius,
        "count": family.count,
        "overlap_max": family.overlap_max,
        "covers": family.covers,
        "probe_resolution": PROBE,
        "centers": [[float(c[0]), float(c[1])] for c in family.centers],
    }
    return json.dumps(obj, sort_keys=True)
