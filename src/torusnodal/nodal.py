"""Nodal set extraction and measurement on the periodic grid.

The zero set of a sampled field is approximated by marching squares over
all N^2 periodic cells with linear interpolation along cell edges.  The
result is a segment soup: short straight segments, one or two per active
cell, whose endpoints lie on cell edges and are shared exactly between
neighboring cells.  Length in a metric ball is computed by exact
segment-circle clipping in a local chart, and line integrals use the
midpoint rule per (clipped) segment.

Balls are clipped a family at a time (clip_family): every ball of a
family has the same radius, so each reads the same w x w window of a
bucket index built lazily once per set, the segments sorted by which of
B x B midpoint buckets (B = isqrt(count)) they fall in.  The (ball,
segment) pairs of a batch of balls are tested and clipped in one array
pass, and the pieces come back as one flat array plus per-ball offsets,
summed per ball by ball_sums.  Keying on midpoints, not marching-squares
cells, lets sets loaded from CSV use the same index.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import BallTooLarge, NegativeTestFunction
from .torus import wrap_delta, wrap_point

# Additive nudge applied to exact grid zeros so every corner has a strict sign.
ZERO_NUDGE = 1e-30

# About this many (ball, candidate segment) pairs are clipped per batch.
_BATCH_PAIRS = 1 << 15

_B, _R, _T, _L = 0, 1, 2, 3

# case index = s00 + 2*s10 + 4*s11 + 8*s01 over the corner signs (positive = 1).
# Cases 5 and 10 are saddles, resolved by the bilinear cell-center sign.
_PLAIN_CASES: dict[int, tuple[int, int]] = {
    1: (_B, _L),
    2: (_B, _R),
    3: (_L, _R),
    4: (_R, _T),
    6: (_B, _T),
    7: (_T, _L),
    8: (_T, _L),
    9: (_B, _T),
    11: (_R, _T),
    12: (_L, _R),
    13: (_B, _R),
    14: (_B, _L),
}
_SADDLE_CASES: dict[tuple[int, bool], tuple[tuple[int, int], tuple[int, int]]] = {
    # (case, center positive) -> two segments, each hugging one corner
    (5, True): ((_B, _R), (_T, _L)),
    (5, False): ((_B, _L), (_R, _T)),
    (10, True): ((_B, _L), (_R, _T)),
    (10, False): ((_B, _R), (_T, _L)),
}


class _BucketIndex(NamedTuple):
    """Segments grouped by midpoint bucket, CSR style.

    Bucket (i, j) holds the midpoints in [i/B, (i+1)/B) x [j/B, (j+1)/B);
    its segments are order[starts[i*B + j]:starts[i*B + j + 1]].
    """

    buckets: int
    order: np.ndarray
    starts: np.ndarray
    max_len: float


@dataclass(frozen=True)
class NodalSet:
    """Segment soup approximating the zero set of a sampled field.

    Endpoints are stored wrapped into [0,1)^2; lengths and midpoints were
    computed in the originating cell's chart, so segments that touch the
    torus seam keep their true geometry.
    """

    a: np.ndarray
    b: np.ndarray
    lengths: np.ndarray
    midpoints: np.ndarray
    source_resolution: int
    source_lambda: float

    @property
    def count(self) -> int:
        return int(self.lengths.size)

    @property
    def total_length(self) -> float:
        return float(np.sum(self.lengths))

    @functools.cached_property
    def _index(self) -> _BucketIndex:
        """Bucket index over the midpoints, about one segment per bucket."""
        nb = max(math.isqrt(self.count), 1)
        cell = np.minimum((self.midpoints * nb).astype(np.int64), nb - 1)
        key = cell[:, 0] * nb + cell[:, 1]
        order = np.argsort(key)
        starts = np.searchsorted(key[order], np.arange(nb * nb + 1))
        max_len = float(np.max(self.lengths)) if self.count else 0.0
        return _BucketIndex(nb, order, starts, max_len)


def _edge_points(i, j, n, v00, v10, v11, v01):
    """Crossing coordinates on the four cell edges (valid only where signs differ)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        tb = v00 / (v00 - v10)
        tr = v10 / (v10 - v11)
        tt = v01 / (v01 - v11)
        tl = v00 / (v00 - v01)
    pts = np.empty((4, i.size, 2))
    pts[_B, :, 0] = (i + np.clip(tb, 0.0, 1.0)) / n
    pts[_B, :, 1] = j / n
    pts[_R, :, 0] = (i + 1.0) / n
    pts[_R, :, 1] = (j + np.clip(tr, 0.0, 1.0)) / n
    pts[_T, :, 0] = (i + np.clip(tt, 0.0, 1.0)) / n
    pts[_T, :, 1] = (j + 1.0) / n
    pts[_L, :, 0] = i / n
    pts[_L, :, 1] = (j + np.clip(tl, 0.0, 1.0)) / n
    return pts


def extract_nodal(field) -> NodalSet:
    """Run periodic marching squares over every cell of the sampled field.

    Exact grid zeros are nudged to +ZERO_NUDGE so each corner carries a
    strict sign; saddle cells are split according to the sign of the
    bilinear interpolant at the cell center.  Segments are emitted in
    row-major cell order, at most two per cell, none longer than sqrt(2)/N.
    """
    n = field.resolution
    g = np.array(field.values, dtype=float)
    g[g == 0.0] = ZERO_NUDGE

    s = (g > 0.0).astype(np.int8)
    s10 = np.roll(s, -1, axis=0)
    s01 = np.roll(s, -1, axis=1)
    s11 = np.roll(s10, -1, axis=1)
    case = s + 2 * s10 + 4 * s11 + 8 * s01

    active = (case != 0) & (case != 15)
    ii, jj = np.nonzero(active)
    if ii.size == 0:
        empty = np.empty((0, 2))
        return NodalSet(empty, empty, np.empty(0), empty.copy(), n, field.spec_lambda)
    cval = case[ii, jj]

    ip = (ii + 1) % n
    jp = (jj + 1) % n
    v00 = g[ii, jj]
    v10 = g[ip, jj]
    v11 = g[ip, jp]
    v01 = g[ii, jp]
    pts = _edge_points(ii.astype(float), jj.astype(float), float(n), v00, v10, v11, v01)
    center_pos = (v00 + v10 + v11 + v01) > 0.0

    seg_i, seg_j, seg_sub = [], [], []
    seg_a, seg_b = [], []

    def emit(mask, ea, eb, sub):
        idx = np.nonzero(mask)[0]
        if idx.size == 0:
            return
        seg_i.append(ii[idx])
        seg_j.append(jj[idx])
        seg_sub.append(np.full(idx.size, sub, dtype=np.int8))
        seg_a.append(pts[ea, idx])
        seg_b.append(pts[eb, idx])

    for c, (ea, eb) in _PLAIN_CASES.items():
        emit(cval == c, ea, eb, 0)
    for (c, pos), pairs in _SADDLE_CASES.items():
        mask = (cval == c) & (center_pos == pos)
        for sub, (ea, eb) in enumerate(pairs):
            emit(mask, ea, eb, sub)

    ai = np.concatenate(seg_a)
    bi = np.concatenate(seg_b)
    order = np.lexsort((
        np.concatenate(seg_sub),
        np.concatenate(seg_j),
        np.concatenate(seg_i),
    ))
    ai = ai[order]
    bi = bi[order]

    lengths = np.linalg.norm(bi - ai, axis=1)
    mids = (ai + bi) / 2.0
    return NodalSet(wrap_point(ai), wrap_point(bi), lengths, wrap_point(mids),
                    n, field.spec_lambda)


def clip_family(nodal: NodalSet, centers, r: float):
    """Exact intersection of the nodal set with every metric ball B(c, r), c in centers.

    Each ball is tested against the segments of a w x w bucket window
    around it, w the widest window any ball needs to reach r + max_len/2
    plus one bucket of margin (all B buckets once it would span the
    torus).  A segment is kept when its midpoint is within r + length/2
    of the center and clipped exactly, so each ball's pieces are those of
    testing every segment.  Returns (piece_len, piece_mid, offsets): ball
    k's pieces are rows offsets[k]:offsets[k + 1], in ascending segment
    order, for the pieces with positive length.  Midpoints are global
    torus coordinates.
    """
    if not 0.0 < r < 0.5:
        raise BallTooLarge(f"ball radius must lie in (0, 1/2), got {r!r}")
    index = nodal._index
    if r > 0.5 - index.max_len:
        raise BallTooLarge(
            f"radius {r!r} leaves no chart margin for segments of length {index.max_len!r}")
    centers = np.asarray(centers, dtype=float).reshape(-1, 2)
    nb, count = index.buckets, nodal.count
    reach = r + index.max_len / 2.0
    lo = np.floor((centers - reach) * nb).astype(np.int64) - 1
    hi = np.floor((centers + reach) * nb).astype(np.int64) + 1
    w = min(nb, int(np.max(hi - lo, initial=0)) + 1)

    lens, mids, owners = [np.empty(0)], [np.empty((0, 2))], [np.empty(0, dtype=np.int64)]
    step = max(1, _BATCH_PAIRS // (w * w))
    for b0 in range(0, len(centers), step):
        cells = (lo[b0:b0 + step, :, None] + np.arange(w)) % nb
        keys = (cells[:, 0, :, None] * nb + cells[:, 1, None, :]).ravel()
        first = index.starts[keys]
        sizes = index.starts[keys + 1] - first
        ball = np.repeat(np.arange(b0, b0 + len(cells)).repeat(w * w), sizes)
        pos = np.repeat(first - (np.cumsum(sizes) - sizes), sizes) + np.arange(ball.size)
        # Ball-major, then ascending segment index, as the pieces are returned.
        ball, seg = np.divmod(np.sort(ball * count + index.order[pos]), count)

        c = centers[ball]
        near = (np.linalg.norm(wrap_delta(nodal.midpoints[seg] - c), axis=1)
                <= r + nodal.lengths[seg] / 2.0)
        ball, seg, c = ball[near], seg[near], c[near]
        a = wrap_delta(nodal.a[seg] - c)
        d = wrap_delta(wrap_delta(nodal.b[seg] - c) - a)
        qa = np.sum(d * d, axis=1)
        qb = 2.0 * np.sum(a * d, axis=1)
        qc = np.sum(a * a, axis=1) - r * r
        disc = qb * qb - 4.0 * qa * qc

        ok = (disc > 0.0) & (qa > 1e-300)
        root = np.sqrt(np.where(ok, disc, 0.0))
        with np.errstate(divide="ignore", invalid="ignore"):
            t_lo = np.where(ok, np.clip((-qb - root) / (2.0 * qa), 0.0, 1.0), 0.0)
            t_hi = np.where(ok, np.clip((-qb + root) / (2.0 * qa), 0.0, 1.0), 0.0)
        frac = t_hi - t_lo
        keep = frac > 0.0
        tmid = (t_lo[keep] + t_hi[keep]) / 2.0
        lens.append(frac[keep] * nodal.lengths[seg[keep]])
        mids.append(wrap_point(c[keep] + a[keep] + d[keep] * tmid[:, None]))
        owners.append(ball[keep])
    offsets = np.searchsorted(np.concatenate(owners), np.arange(len(centers) + 1))
    return np.concatenate(lens), np.concatenate(mids), offsets


def ball_sums(values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Sum of values[offsets[k]:offsets[k + 1]] for every ball k of a clip_family layout.

    Each slice is summed by np.sum on its own, so a ball's sum rounds as
    the sum over that ball's pieces alone would (np.add.reduceat sums
    sequentially and rounds differently).
    """
    return np.array([float(values[a:b].sum()) for a, b in zip(offsets, offsets[1:])])


def clip_to_ball(nodal: NodalSet, center, r: float):
    """(piece_len, piece_mid) of the nodal set inside B(center, r)."""
    # Unused in the package; kept because perfbench/spans.py traces it by name.
    return clip_family(nodal, [center], r)[:2]


def integrate_over_nodal(nodal: NodalSet, f: Callable[[np.ndarray], np.ndarray]) -> float:
    """Midpoint-rule line integral of a nonnegative weight over the nodal set.

    f must accept an (M, 2) array of torus points and return (M,) values.
    """
    if nodal.count == 0:
        return 0.0
    vals = np.asarray(f(nodal.midpoints), dtype=float)
    if vals.shape != (nodal.count,):
        raise ValueError("weight function must map (M, 2) points to (M,) values")
    if np.min(vals) < -1e-9:
        raise NegativeTestFunction(f"weight reached {float(np.min(vals))!r} < 0")
    return float(np.sum(vals * nodal.lengths))


def nodal_to_csv(nodal: NodalSet, path: str) -> None:
    """Write the segment soup as CSV with columns ax,ay,bx,by,length."""
    with open(path, "w", newline="") as fh:
        fh.write("ax,ay,bx,by,length\n")
        for k in range(nodal.count):
            fh.write(f"{float(nodal.a[k, 0])!r},{float(nodal.a[k, 1])!r},"
                     f"{float(nodal.b[k, 0])!r},{float(nodal.b[k, 1])!r},"
                     f"{float(nodal.lengths[k])!r}\n")


def nodal_from_csv(path: str) -> NodalSet:
    """Load a segment soup written by nodal_to_csv.

    Source resolution and frequency are not part of the wire format; they
    come back as 0 and nan and the set is suitable for geometry only.
    """
    rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if rows.size == 0:
        empty = np.empty((0, 2))
        return NodalSet(empty, empty, np.empty(0), empty.copy(), 0, float("nan"))
    a = rows[:, 0:2]
    b = rows[:, 2:4]
    lengths = rows[:, 4]
    mids = wrap_point(a + wrap_delta(b - a) / 2.0)
    return NodalSet(wrap_point(a), wrap_point(b), lengths, mids, 0, float("nan"))
