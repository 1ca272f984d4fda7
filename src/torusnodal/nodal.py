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

Balls are clipped a batch at a time by one kernel, _clip, against a
bucket index built once per set: the segments sorted by which of B x B
midpoint buckets (B = isqrt(count)) they fall in, so CSV sets use it too.
Each ball reads the disk of buckets within its reach, one or two runs of
keys per bucket row.  Each (ball, segment) pair is tested once, and only
a segment not certified whole inside its ball is clipped.  clip_batches
adds the pieces' midpoints; clip_lengths sums each ball's pieces.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import BallTooLarge, NegativeTestFunction
from .torus import BUDGET_32K, BUDGET_4K, BUDGET_64K, blocks, wrap_delta, wrap_point

# Additive nudge applied to exact grid zeros so every corner has a strict sign.
ZERO_NUDGE = 1e-30

# _clip_batch takes a segment inside a ball as a whole piece only from this length up.
# Its one-length margin puts the chord's roots at least 1 beyond [0, 1]; their rounding
# grows like eps * (r / length)^1.5 and reaches that near length 1e-11, and _chord drops
# a segment whose endpoints coincide in the ball's chart.
_CERTIFIED_LENGTH = 1e-9

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
    BUDGET_64K at a time, each block reading its own wrapped copy of its
    rows, so no field-sized temporary is made and field.values is not
    written.  The outputs are joined one at a time, each block's part of
    an output dropped as it is joined, so the outputs and the parts never
    make more than one copy of the set plus one output.
    """
    n = field.resolution
    values = np.asarray(field.values, dtype=float)
    parts = [list(_march_rows(values, i0, i1, n)) for i0, i1 in blocks(n, n, BUDGET_64K)]
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


def clip_batches(nodal: NodalSet, centers, r: float):
    """Yield (b0, b1, piece_len, piece_mid, owners), the pieces of balls b0:b1 of centers.

    The pieces are _clip's kept pairs, ball by ball (owners[i] is piece i's
    ball, ascending), then by segment.  A piece's midpoint is its segment's
    point at the middle of its chord, in torus coordinates, filled one axis
    at a time; only the batch's pieces are alive at a yield.
    """
    centers = np.asarray(centers, dtype=float).reshape(-1, 2)
    for b0, b1, ball, seg, piece, keep, edge, t_edge in _clip(nodal, centers, r):
        t_mid = np.full(ball.size, 0.5)  # the middle of a whole segment
        t_mid[edge] = t_edge
        ball, seg, piece, t_mid = ball[keep], seg[keep], piece[keep], t_mid[keep]
        del keep, edge, t_edge
        mid = np.empty((ball.size, 2))
        for axis in (0, 1):
            c = centers[ball, axis]
            a, d = _chart(nodal, seg, c, axis)
            c += a
            d *= t_mid
            c += d  # (c + a) + d t_mid in place: the all-chord clip's rounding
            mid[:, axis] = wrap_point(c)
        del seg, t_mid, c, a, d
        yield b0, b1, piece, mid, ball
        del piece, mid, ball  # the consumer is done with this batch before asking for the next


def clip_lengths(nodal: NodalSet, centers, r: float) -> np.ndarray:
    """Nodal length inside every ball B(c, r), c in centers, without forming piece midpoints.

    Bit for bit ball_sums over clip_batches' piece lengths: both take _clip's kept pieces.
    """
    centers = np.asarray(centers, dtype=float).reshape(-1, 2)
    out = np.zeros(len(centers))
    for b0, b1, ball, _, piece, keep, _, _ in _clip(nodal, centers, r):
        offsets = np.searchsorted(ball[keep], np.arange(b0, b1 + 1))
        out[b0:b1] = ball_sums(piece[keep], offsets)
    return out


def _clip(nodal: NodalSet, centers: np.ndarray, r: float):
    """Yield (b0, b1, ball, seg, piece, keep, edge, t_edge), _clip_batch's pairs of balls b0:b1.

    Each ball reads the buckets within reach + 1 bucket of its center,
    reach = r + max_len/2, of a w x w window, w the widest any ball needs
    plus one bucket of margin (all B x B buckets, unpruned, once it would
    span the torus).  A batch holds about BUDGET_32K window buckets, so
    about as many candidate segments whatever the radius.  No array of a
    batch is bound here, so the consumer drops each one as it is done.
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
    for b0, b1 in blocks(len(centers), w * w, BUDGET_32K):
        yield (b0, b1, *_clip_batch(nodal, centers, r, lo, b0, b1, w, bound))


def _clip_batch(nodal: NodalSet, centers: np.ndarray, r: float, lo: np.ndarray, b0: int,
                b1: int, w: int, bound: float):
    """(ball, seg, piece, keep, edge, t_edge): the near pairs of balls b0:b1, clipped.

    A pair is near when its segment's midpoint lies within r + length/2 of
    its ball's center; the near pairs come ball-major, then by seg.  A near
    segment is whole when its midpoint lies within r - 3 length/2 of the
    center and its length is at least _CERTIFIED_LENGTH: _chord's roots
    would clip to exactly 0.0 and 1.0, so its piece is its length.  _chord
    clips the other near pairs, indexed by edge: piece = (t_hi - t_lo)
    length, and t_edge = (t_lo + t_hi)/2 is the middle of the chord.  keep
    flags the whole pairs and the chords of positive length.
    """
    count = nodal.count
    ball, seg = _window_pairs(nodal._index, centers, lo, b0, b1, w, bound)
    dx = wrap_delta(nodal.midpoints[seg, 0] - centers[ball, 0])
    dy = wrap_delta(nodal.midpoints[seg, 1] - centers[ball, 1])
    dist = np.sqrt(dx * dx + dy * dy)
    del dx, dy
    length = nodal.lengths[seg]
    near = dist <= r + length / 2.0
    whole = (dist + 1.5 * length <= r) & (length >= _CERTIFIED_LENGTH)
    # The whole flag rides in the low bit, so the pairs sort by (ball, seg) alone.
    key = np.sort((ball[near] * count + seg[near]) * 2 + whole[near])
    del ball, seg, dist, length, near, whole
    ball, seg = np.divmod(key >> 1, count)
    keep = (key & 1).astype(bool)
    del key
    edge = np.flatnonzero(~keep)
    t_lo, t_hi = _chord(*_chart(nodal, seg[edge], centers[ball[edge], 0], 0),
                        *_chart(nodal, seg[edge], centers[ball[edge], 1], 1), r)
    frac = t_hi - t_lo
    piece = nodal.lengths[seg]
    piece[edge] *= frac
    keep[edge] = frac > 0.0
    return ball, seg, piece, keep, edge, (t_lo + t_hi) / 2.0


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


def _chart(nodal: NodalSet, seg: np.ndarray, c: np.ndarray, axis: int):
    """(a, d): along axis, each pair's segment a + t d in the chart centered on its ball's c."""
    a = wrap_delta(nodal.a[seg, axis] - c)
    return a, wrap_delta(wrap_delta(nodal.b[seg, axis] - c) - a)


def _chord(ax: np.ndarray, dx: np.ndarray, ay: np.ndarray, dy: np.ndarray, r: float):
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


def ball_sums(values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Sum of values[offsets[k]:offsets[k + 1]] for every ball k: pieces laid out ball by ball.

    Each slice is summed by np.sum on its own, so a ball's sum rounds as
    the sum over that ball's pieces alone would (np.add.reduceat sums
    sequentially and rounds differently).
    """
    return np.array([float(values[a:b].sum()) for a, b in zip(offsets, offsets[1:])])


def clip_to_ball(nodal: NodalSet, center, r: float):
    """(piece_len, piece_mid) of the nodal set inside B(center, r)."""
    # Unused in the package; kept because perfbench/spans.py traces it by name.
    return next(clip_batches(nodal, [center], r))[2:4]


def integrate_over_nodal(nodal: NodalSet, f: Callable[[np.ndarray], np.ndarray]) -> float:
    """Midpoint-rule line integral of a nonnegative weight over the nodal set.

    f must accept an (M, 2) array of torus points and return (M,) values,
    each point's value whatever the batch.  It sees the midpoints
    BUDGET_32K at a time, written into one array of values, so its
    temporaries stay a block in size; that array, weighted by the lengths
    in place, is summed by one np.sum, as if f had seen every midpoint at
    once.
    """
    if nodal.count == 0:
        return 0.0
    vals = np.empty(nodal.count)
    for k0, k1 in blocks(nodal.count, 1, BUDGET_32K):
        pts = nodal.midpoints[k0:k1]
        block = np.asarray(f(pts), dtype=float)
        if block.shape != (len(pts),):
            raise ValueError("weight function must map (M, 2) points to (M,) values")
        vals[k0:k1] = block
    if np.min(vals) < -1e-9:
        raise NegativeTestFunction(f"weight reached {float(np.min(vals))!r} < 0")
    vals *= nodal.lengths
    return float(np.sum(vals))


def write_float_csv(path: str, header: str, columns) -> None:
    """Write float columns (1-D or (M, k) arrays of M rows) under header, each value its repr.

    Rows go out BUDGET_4K at a time.  In a chunk each distinct float is formatted
    once: values are deduplicated on their bit patterns, since 0.0 and -0.0
    are equal floats with different reprs.  A marching-squares endpoint is
    shared by two segments and one of its coordinates is a grid line, so a
    segment soup has few distinct values.
    """
    with open(path, "w", newline="") as fh:
        fh.write(header + "\n")
        for k0, k1 in blocks(len(columns[0]), 1, BUDGET_4K):
            rows = np.column_stack([x[k0:k1] for x in columns]).astype(np.float64, copy=False)
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
    """Load a nodal_to_csv segment soup: endpoints in [0, 1), lengths >= 0; header only is empty."""
    rows = read_float_csv(path, _NODAL_HEADER, "nodal file")
    if not (np.all((rows[:, :4] >= 0.0) & (rows[:, :4] < 1.0)) and np.all(rows[:, 4] >= 0.0)):
        raise ValueError(f"nodal file {path}: endpoints must lie in [0, 1) "
                         f"and lengths must not be negative")
    a = rows[:, 0:2]
    b = rows[:, 2:4]
    lengths = rows[:, 4].copy()  # a view would keep all of rows alive
    mids = wrap_point(a + wrap_delta(b - a) / 2.0)
    return NodalSet(wrap_point(a), wrap_point(b), lengths, mids)
