"""Nodal set extraction and measurement on the periodic grid.

The zero set of a sampled field is approximated by marching squares over
all N^2 periodic cells with linear interpolation along cell edges.  Two
lookup tables drive it: _SEGMENTS maps a cell's corner-sign case (and, for
the saddle cases 5 and 10, its center sign) to up to two (edge, edge)
pairs, and _EDGES maps an edge to the two corners it joins.  The result is
a segment soup: short straight segments, one or two per active cell, whose
endpoints lie on cell edges and are shared exactly between neighboring
cells.  Length in a metric ball is computed by exact segment-circle
clipping in a local chart, and line integrals use the midpoint rule per
(clipped) segment.

Balls are clipped a family at a time (clip_family) against a bucket index
built lazily once per set, the segments sorted by which of B x B midpoint
buckets (B = isqrt(count)) they fall in.  Each ball reads the disk of
buckets within reach of it, one or two runs of keys per bucket row.  The
(ball, segment) pairs of a batch of balls are tested and clipped in one
pass over 1-D x and y columns gathered by ball and segment index; the
pieces come back as one flat array plus per-ball offsets.  Keying on
midpoints, not marching-squares cells, lets CSV sets use the same index.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import BallTooLarge, NegativeTestFunction
from .torus import wrap_delta, wrap_point

# Additive nudge applied to exact grid zeros so every corner has a strict sign.
ZERO_NUDGE = 1e-30

# About this many (ball, candidate segment) pairs are clipped per batch.
_BATCH_PAIRS = 1 << 15

# About this many grid cells are marched per block of rows.
_BLOCK_CELLS = 1 << 16

# clip_lengths takes a segment inside a ball as a whole piece only from this length up.
# Its one-length margin puts the chord's roots at least 1 beyond [0, 1]; their rounding
# grows like eps * (r / length)^1.5 and reaches that near length 1e-11, and _chord drops
# a segment whose endpoints coincide in the ball's chart.
_CERTIFIED_LENGTH = 1e-9

# integrate_over_nodal evaluates its weight on blocks of this many midpoints.
_WEIGHT_POINTS = 1 << 15

# Corners in case-bit order, as (i, j) offsets from the cell's lower-left
# grid point; case = s0 + 2*s1 + 4*s2 + 8*s3 over their signs (positive = 1).
_CORNERS = np.array([(0, 0), (1, 0), (1, 1), (0, 1)])

# Edge e joins corners _EDGES[e] = (p, q), running along +x or +y from p.
_B, _R, _T, _L = 0, 1, 2, 3
_EDGES = np.array([(0, 1), (1, 2), (3, 2), (0, 3)])

# _SEGMENTS[case, center positive] holds two (edge, edge) slots; (-1, -1) is
# no segment.  Saddles 5 and 10 use both slots, split by the bilinear
# center sign so each segment hugs one corner.  Negating every corner maps
# case c to 15 - c and flips the center sign, but keeps the segments.
_X = (-1, -1)
_SEGMENTS = np.array([
    [[_X, _X]] * 2,
    [[(_B, _L), _X]] * 2,
    [[(_B, _R), _X]] * 2,
    [[(_L, _R), _X]] * 2,
    [[(_R, _T), _X]] * 2,
    [[(_B, _L), (_R, _T)], [(_B, _R), (_T, _L)]],
    [[(_B, _T), _X]] * 2,
    [[(_T, _L), _X]] * 2,
])
_SEGMENTS = np.concatenate([_SEGMENTS, _SEGMENTS[::-1, ::-1]])


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
        # One axis at a time, so no (count, 2) temporary is made.
        key = np.minimum((self.midpoints[:, 0] * nb).astype(np.int64), nb - 1) * nb
        key += np.minimum((self.midpoints[:, 1] * nb).astype(np.int64), nb - 1)
        order = np.argsort(key)
        starts = np.zeros(nb * nb + 1, dtype=np.int64)
        np.cumsum(np.bincount(key, minlength=nb * nb), out=starts[1:])
        max_len = float(np.max(self.lengths)) if self.count else 0.0
        return _BucketIndex(nb, order, starts, max_len)


def extract_nodal(field) -> NodalSet:
    """Run periodic marching squares over every cell of the sampled field.

    Exact grid zeros are nudged to +ZERO_NUDGE so each corner carries a
    strict sign; saddle cells are split according to the sign of the
    bilinear interpolant at the cell center.  Each endpoint lies on the edge
    from corner p to corner q at t = v_p / (v_p - v_q).  Segments are
    emitted in row-major cell order, then by slot, at most two per cell,
    none longer than sqrt(2)/N.  Cells are marched a block of about
    _BLOCK_CELLS at a time, each block reading its own wrapped copy of its
    rows, so no field-sized temporary is made and field.values is not
    written.  The outputs are joined one at a time, each block's part of
    an output dropped as it is joined, so the outputs and the parts never
    make more than one copy of the set plus one output.
    """
    n = field.resolution
    values = np.asarray(field.values, dtype=float)
    step = max(1, _BLOCK_CELLS // n)
    parts = [list(_march_rows(values, i0, min(i0 + step, n), n)) for i0 in range(0, n, step)]
    outputs = []
    for k in range(4):
        outputs.append(np.concatenate([part[k] for part in parts]))
        for part in parts:
            part[k] = None
    return NodalSet(*outputs)


def _march_rows(values: np.ndarray, i0: int, i1: int, n: int):
    """(a, b, lengths, midpoints) of the segments in the cells of rows i0:i1, row-major."""
    # One wrapped row and column appended: local cell (i, j) has corners g[i:i+2, j:j+2].
    g = np.empty((i1 - i0 + 1, n + 1))
    g[:-1, :-1] = values[i0:i1]
    g[-1, :-1] = values[i1 % n]
    g[:, -1] = g[:, 0]
    g[g == 0.0] = ZERO_NUDGE
    s = (g > 0.0).astype(np.int8)
    case = s[:-1, :-1] + 2 * s[1:, :-1] + 4 * s[1:, 1:] + 8 * s[:-1, 1:]
    ii, jj = np.nonzero((case != 0) & (case != 15))

    # (M, 4) corner values of the active cells, in case-bit order.
    v = g.ravel()[(ii * (n + 1) + jj)[:, None] + _CORNERS @ (n + 1, 1)]
    center_pos = (v[:, 0] + v[:, 1] + v[:, 2] + v[:, 3]) > 0.0
    # Both slots of every cell, row-major, then the empty ones dropped.
    edges = _SEGMENTS[case[ii, jj], center_pos.astype(np.intp)].reshape(-1, 2)
    slot = np.flatnonzero(edges[:, 0] >= 0)
    cell, edges = slot // 2, edges[slot]

    # (K, 2) corners p and q of the edges holding each segment's two ends.
    p, q = _EDGES[:, 0][edges], _EDGES[:, 1][edges]
    vp = v.ravel()[4 * cell[:, None] + p]
    t = np.clip(vp / (vp - v.ravel()[4 * cell[:, None] + q]), 0.0, 1.0)
    ends = np.empty(p.shape + (2,))
    for axis, base in enumerate((ii[cell] + i0, jj[cell])):
        # (i + t) / n along the edge, (i + 0 or 1) / n across it.
        off = _CORNERS[:, axis]
        ends[..., axis] = (base[:, None] + off[p] + t * (off[q] - off[p])) / n
    ai, bi = ends[:, 0], ends[:, 1]

    lengths = np.linalg.norm(bi - ai, axis=1)
    mids = (ai + bi) / 2.0
    return wrap_point(ai), wrap_point(bi), lengths, wrap_point(mids)


def clip_family(nodal: NodalSet, centers, r: float):
    """Exact intersection of the nodal set with every metric ball B(c, r), c in centers.

    Returns (piece_len, piece_mid, offsets): ball k's pieces are rows
    offsets[k]:offsets[k + 1], the pieces of clip_batches joined in ball order.
    """
    centers = np.asarray(centers, dtype=float).reshape(-1, 2)
    parts = [(np.empty(0), np.empty((0, 2)), np.empty(0, dtype=np.int64))]
    parts += [batch[2:] for batch in clip_batches(nodal, centers, r)]
    piece_len, piece_mid, owners = (np.concatenate(x) for x in zip(*parts))
    return piece_len, piece_mid, np.searchsorted(owners, np.arange(len(centers) + 1))


def clip_batches(nodal: NodalSet, centers, r: float):
    """Yield (b0, b1, piece_len, piece_mid, owners), the pieces of balls b0:b1 of centers.

    A segment is kept when its midpoint is within r + length/2 of the
    center and clipped exactly, so each ball's pieces are those of testing
    every segment.  Each batch's pieces come ball by ball (owners[i] is
    piece i's ball, ascending), in ascending segment order, for the pieces
    with positive length.  Midpoints are global torus coordinates.  Each
    step of a batch (window pairs, near test, clip, chord) drops its
    temporaries on return, so only the batch's pieces are alive at a
    yield, and they are dropped before the next batch is built.
    """
    centers = np.asarray(centers, dtype=float).reshape(-1, 2)
    for b0, b1, ball, seg in _window_batches(nodal, centers, r):
        ball, seg = _near_pairs(nodal, centers, ball, seg, r)
        pieces = _clip_pairs(nodal, centers, ball, seg, r)
        del ball, seg
        yield (b0, b1, *pieces)
        del pieces  # the consumer is done with this batch before asking for the next


def clip_lengths(nodal: NodalSet, centers, r: float) -> np.ndarray:
    """Nodal length inside every ball B(c, r), c in centers, without forming piece midpoints.

    Equals ball_sums over clip_family's piece lengths bit for bit.  A near
    segment certified inside the ball, its midpoint within r - 3 length/2
    of the center and its length at least _CERTIFIED_LENGTH, is a whole
    piece: its chord roots clip to exactly 0.0 and 1.0, so clip_batches'
    piece is 1.0 * length.  Every other near segment is clipped by _chord
    as clip_batches clips it.  The interior flag rides in the low bit of the
    (ball, seg) sort key, so each ball's pieces are summed in the same order.
    """
    centers = np.asarray(centers, dtype=float).reshape(-1, 2)
    out = np.zeros(len(centers))
    count = nodal.count
    for b0, b1, ball, seg in _window_batches(nodal, centers, r):
        dist = _midpoint_distance(nodal, centers, ball, seg)
        length = nodal.lengths[seg]
        near = dist <= r + length / 2.0
        inside = (dist + 1.5 * length <= r) & (length >= _CERTIFIED_LENGTH)
        key = np.sort((ball[near] * count + seg[near]) * 2 + inside[near])
        del ball, seg, dist, length, near, inside
        ball, seg = np.divmod(key >> 1, count)
        piece = nodal.lengths[seg]
        keep = (key & 1).astype(bool)  # interior pieces, then every piece of positive length
        edge = np.flatnonzero(~keep)
        t_lo, t_hi = _chord(*_chart(nodal, centers, ball[edge], seg[edge]), r)
        frac = t_hi - t_lo
        piece[edge] *= frac
        keep[edge] = frac > 0.0
        offsets = np.searchsorted(ball[keep], np.arange(b0, b1 + 1))
        out[b0:b1] = ball_sums(piece[keep], offsets)
    return out


def _window_batches(nodal: NodalSet, centers: np.ndarray, r: float):
    """Yield (b0, b1, ball, seg): the window pairs of balls b0:b1 of centers, batch by batch.

    Each ball reads the buckets within reach + 1 bucket of its center,
    reach = r + max_len/2, of a w x w window, w the widest any ball needs
    plus one bucket of margin (all B x B buckets, unpruned, once it would
    span the torus).  A batch holds about _BATCH_PAIRS window buckets, so
    about as many candidate segments whatever the radius.
    """
    if not 0.0 < r < 0.5:
        raise BallTooLarge(f"ball radius must lie in (0, 1/2), got {r!r}")
    index = nodal._index
    if r > 0.5 - index.max_len:
        raise BallTooLarge(
            f"radius {r!r} leaves no chart margin for segments of length {index.max_len!r}")
    nb = index.buckets
    reach = r + index.max_len / 2.0
    lo = np.floor((centers - reach) * nb).astype(np.int64) - 1
    hi = np.floor((centers + reach) * nb).astype(np.int64) + 1
    w = min(nb, int(np.max(hi - lo, initial=0)) + 1)

    # A window narrower than the torus holds each bucket once, at the image
    # nearest the center, so only the disk of buckets within reach (plus one
    # for rounding) can hold a near segment; one that spans the torus is read
    # whole, its bound lying beyond the window's corners.
    bound = reach * nb + 1.0 if w < nb else 2.0 * nb + 2.0
    step = max(1, _BATCH_PAIRS // (w * w))
    for b0 in range(0, len(centers), step):
        b1 = min(b0 + step, len(centers))
        yield (b0, b1, *_window_pairs(index, centers, lo, b0, b1, w, bound))


def _window_pairs(index: _BucketIndex, centers: np.ndarray, lo: np.ndarray, b0: int, b1: int,
                  w: int, bound: float):
    """(ball, seg) of the segments in the window buckets within bound of centers b0:b1."""
    nb = index.buckets
    # Window rows (unwrapped x buckets) in the disk, and each one's y range.
    rows = lo[b0:b1, :1] + np.arange(w)
    u = centers[b0:b1] * nb
    gap = np.maximum(np.maximum(rows - u[:, :1], u[:, :1] - rows - 1.0), 0.0)
    k, i = np.nonzero(gap <= bound)
    h = np.sqrt(bound * bound - gap[k, i] ** 2)
    j0 = np.maximum(lo[b0 + k, 1], np.ceil(u[k, 1] - 1.0 - h).astype(np.int64))
    j1 = np.minimum(lo[b0 + k, 1] + w - 1, np.floor(u[k, 1] + h).astype(np.int64))
    # Each row range is one run of bucket keys, or two where it crosses the seam.
    base = rows[k, i] % nb * nb
    jl = j0 % nb
    end = jl + np.maximum(j1 - j0 + 1, 0)
    first = index.starts[np.concatenate([base + jl, base])]
    sizes = index.starts[np.concatenate([base + np.minimum(end, nb),
                                         base + np.maximum(end - nb, 0)])] - first
    ball = np.repeat(np.concatenate([k, k]) + b0, sizes)
    pos = np.repeat(first - (np.cumsum(sizes) - sizes), sizes) + np.arange(ball.size)
    return ball, index.order[pos]


def _midpoint_distance(nodal: NodalSet, centers: np.ndarray, ball: np.ndarray,
                       seg: np.ndarray) -> np.ndarray:
    """Periodic distance from each pair's segment midpoint to its ball's center."""
    dx = wrap_delta(nodal.midpoints[seg, 0] - centers[ball, 0])
    dy = wrap_delta(nodal.midpoints[seg, 1] - centers[ball, 1])
    return np.sqrt(dx * dx + dy * dy)


def _near_pairs(nodal: NodalSet, centers: np.ndarray, ball: np.ndarray, seg: np.ndarray,
                r: float):
    """The pairs whose midpoint is within r + length/2 of the center, ball-major, then by seg."""
    near = _midpoint_distance(nodal, centers, ball, seg) <= r + nodal.lengths[seg] / 2.0
    count = nodal.count
    return np.divmod(np.sort(ball[near] * count + seg[near]), count)


def _chart(nodal: NodalSet, centers: np.ndarray, ball: np.ndarray, seg: np.ndarray):
    """(ax, ay, dx, dy): each pair's segment a + t d in the chart centered on its ball."""
    cx, cy = centers[ball, 0], centers[ball, 1]
    ax = wrap_delta(nodal.a[seg, 0] - cx)
    ay = wrap_delta(nodal.a[seg, 1] - cy)
    dx = wrap_delta(wrap_delta(nodal.b[seg, 0] - cx) - ax)
    dy = wrap_delta(wrap_delta(nodal.b[seg, 1] - cy) - ay)
    return ax, ay, dx, dy


def _chord(ax: np.ndarray, ay: np.ndarray, dx: np.ndarray, dy: np.ndarray, r: float):
    """(t_lo, t_hi): the part t_lo <= t <= t_hi of each segment a + t d in |x| <= r, t in [0, 1]."""
    qa = dx * dx + dy * dy
    qb = 2.0 * (ax * dx + ay * dy)
    qc = (ax * ax + ay * ay) - r * r
    disc = qb * qb - 4.0 * qa * qc

    ok = (disc > 0.0) & (qa > 1e-300)
    root = np.sqrt(np.where(ok, disc, 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        t_lo = np.where(ok, np.clip((-qb - root) / (2.0 * qa), 0.0, 1.0), 0.0)
        t_hi = np.where(ok, np.clip((-qb + root) / (2.0 * qa), 0.0, 1.0), 0.0)
    return t_lo, t_hi


def _clip_pairs(nodal: NodalSet, centers: np.ndarray, ball: np.ndarray, seg: np.ndarray,
                r: float):
    """(piece_len, piece_mid, owners) of the pairs whose segment meets its ball, in pair order."""
    ax, ay, dx, dy = _chart(nodal, centers, ball, seg)
    t_lo, t_hi = _chord(ax, ay, dx, dy, r)
    frac = t_hi - t_lo
    keep = frac > 0.0
    tmid = (t_lo[keep] + t_hi[keep]) / 2.0
    mid = np.column_stack([centers[ball[keep], 0] + ax[keep] + dx[keep] * tmid,
                           centers[ball[keep], 1] + ay[keep] + dy[keep] * tmid])
    return frac[keep] * nodal.lengths[seg[keep]], wrap_point(mid), ball[keep]


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

    f must accept an (M, 2) array of torus points and return (M,) values,
    each point's value whatever the batch.  It sees the midpoints
    _WEIGHT_POINTS at a time, written into one array of values, so its
    temporaries stay a block in size; that array, weighted by the lengths
    in place, is summed by one np.sum, as if f had seen every midpoint at
    once.
    """
    if nodal.count == 0:
        return 0.0
    vals = np.empty(nodal.count)
    for k in range(0, nodal.count, _WEIGHT_POINTS):
        pts = nodal.midpoints[k:k + _WEIGHT_POINTS]
        block = np.asarray(f(pts), dtype=float)
        if block.shape != (len(pts),):
            raise ValueError("weight function must map (M, 2) points to (M,) values")
        vals[k:k + len(pts)] = block
    if np.min(vals) < -1e-9:
        raise NegativeTestFunction(f"weight reached {float(np.min(vals))!r} < 0")
    vals *= nodal.lengths
    return float(np.sum(vals))


def write_float_csv(path: str, header: str, columns) -> None:
    """Write float columns (1-D or (M, k) arrays of M rows) under header, each value its repr.

    Rows go out 4096 at a time.  In a chunk each distinct float is formatted
    once: values are deduplicated on their bit patterns, since 0.0 and -0.0
    are equal floats with different reprs.  A marching-squares endpoint is
    shared by two segments and one of its coordinates is a grid line, so a
    segment soup has few distinct values.
    """
    with open(path, "w", newline="") as fh:
        fh.write(header + "\n")
        for k in range(0, len(columns[0]), 4096):
            rows = np.column_stack([x[k:k + 4096] for x in columns]).astype(np.float64, copy=False)
            bits, inverse = np.unique(rows.view(np.int64).ravel(), return_inverse=True)
            inverse = inverse.reshape(rows.shape)
            text = np.array([repr(v) for v in bits.view(np.float64).tolist()], dtype=object)
            cells = np.full((rows.shape[0], 2 * rows.shape[1]), ",", dtype=object)
            cells[:, 0::2] = text[inverse]
            cells[:, -1] = "\n"
            fh.write("".join(cells.ravel().tolist()))


def read_float_csv(path: str, header: str, label: str) -> np.ndarray:
    """The (M, k) rows of a CSV of k = len(header.split(",")) finite floats after one header line.

    A header-only file gives M = 0.  A row that is not k finite numbers
    raises ValueError naming the file as label and path.
    """
    k = len(header.split(","))
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # loadtxt's "no data" warning
            rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except ValueError as exc:
        raise ValueError(f"{label} {path}: {exc}") from None
    if rows.size == 0:
        rows = np.empty((0, k))
    if rows.shape[1] != k or not np.all(np.isfinite(rows)):
        raise ValueError(f"{label} {path}: each row needs {k} finite numbers {header}")
    return rows


_NODAL_HEADER = "ax,ay,bx,by,length"


def nodal_to_csv(nodal: NodalSet, path: str) -> None:
    """Write the segment soup as CSV with columns ax,ay,bx,by,length."""
    write_float_csv(path, _NODAL_HEADER, (nodal.a, nodal.b, nodal.lengths))


def nodal_from_csv(path: str) -> NodalSet:
    """Load a segment soup written by nodal_to_csv; a header-only file is the empty set."""
    rows = read_float_csv(path, _NODAL_HEADER, "nodal file")
    a = rows[:, 0:2]
    b = rows[:, 2:4]
    lengths = rows[:, 4].copy()  # a view would keep all of rows alive
    mids = wrap_point(a + wrap_delta(b - a) / 2.0)
    return NodalSet(wrap_point(a), wrap_point(b), lengths, mids)
