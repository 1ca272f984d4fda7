"""Small-ball L^2 mass statistics for sampled torus fields.

The quadrature assigns each grid point the unit cell centered on it.  Cells
entirely inside (outside) the ball count fully (not at all); cells cut by
the boundary are subsampled on a 4x4 lattice and weighted by the inside
fraction.  Ratios are taken against the flat ball volume pi r^2, so a
perfectly equidistributed field scores 1 at every center.

ball_masses evaluates the rule for a whole family of equal-radius balls in
batched array passes: each ball reads a square window of u^2 from a band of
squared rows with periodic margins, one band per run of window start rows,
and the per-center offsets along each axis are computed once per band.
Each ball's two sums (full cells, then cut cells) are np.sum's pairwise
reduction over that ball's own cells in row-major window order
(nodal.ball_sums), so every mass is the same float whatever family or band
the ball is measured in.

CertifiedMasses holds the masses of a family of balls and measures each one
at most once, where a decision's certified bracket cannot decide or a
caller reads it.  sse_scan(field, r, seed) is the one scan: the balls
B(c, r) over default_centers(r, seed).
"""

from __future__ import annotations

import functools
import json
import math
from typing import Callable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import BallTooLarge, RadiusUnderResolved
from .nodal import ball_sums, write_float_csv
from .torus import wrap_delta

MIN_CELLS_PER_RADIUS = 20.0


def scale_radius(lam: float, rho: float) -> float:
    """The power-law small scale r = lam^(-rho), for rho in (0, 1] and lam > 0.

    Exponents in (0, 1] are admissible in general; the planar torus
    experiments restrict to (0, 1) at plan validation.
    """
    if not 0.0 < rho <= 1.0:
        raise ValueError(f"rho must lie in (0, 1], got {rho!r}")
    if lam <= 0.0:
        raise ValueError("scale function needs a positive frequency")
    return float(lam ** (-rho))


def median(values) -> float:
    """np.median of a sequence of floats, bit for bit, without np.median's import of numpy.ma.

    NaN if any value is NaN, else np.mean of the middle one or two sorted
    values (np.mean, unlike (a + b) / 2, turns -0.0 into 0.0).
    """
    s = np.sort(np.asarray(values, dtype=float).ravel())
    if s.size == 0 or np.isnan(s[-1]):
        return float("nan")
    return float(np.mean(s[(s.size - 1) // 2:s.size // 2 + 1]))


# 4x4 subcell center offsets in units of one grid cell.
_SUB = (np.arange(4) - 1.5) / 4.0

# Balls per batch are capped so that a batch's window-sized work arrays
# hold about this many cells, however many balls the family has.
_BATCH_CELLS = 1 << 16


def require_resolved_radius(r: float, n: int) -> None:
    """Raise unless B(., r) is embedded with quadrature margin and spans enough cells of grid n."""
    if not 0.0 < r < 0.5 - 3.0 / n:
        raise BallTooLarge(f"radius {r!r} not an embedded ball with quadrature margin")
    if r * n < MIN_CELLS_PER_RADIUS:
        raise RadiusUnderResolved(
            f"radius {r!r} spans {r * n:.1f} cells at resolution {n}; need >= {MIN_CELLS_PER_RADIUS}")


def _square_rows(values: np.ndarray, row0: int, rows: int, left: int, right: int) -> np.ndarray:
    """u^2 on grid rows row0 .. row0 + rows - 1 and columns -left .. n + right - 1, both mod n.

    left and right are at most n.  Every cell is the square of its grid
    value, as in a squared periodic pad of the whole field.
    """
    n = values.shape[1]
    band = np.empty((rows, left + n + right))
    done = 0
    while done < rows:
        i = (row0 + done) % n
        m = min(n - i, rows - done)
        band[done:done + m, left:left + n] = values[i:i + m]
        done += m
    band[:, :left] = band[:, n:n + left]
    band[:, left + n:] = band[:, left:left + right]
    return np.square(band, out=band)


def ball_masses(field, centers, r: float) -> np.ndarray:
    """Quadrature of u^2 over every ball B(c, r), c a row of centers.

    Ball k reads the cells i0..i1 along each axis, i0 = floor((c - r - h) n)
    - 1 and i1 = ceil((c + r + h) n) + 1 with h the half cell, reduced mod n;
    the radius guard keeps that window narrower than the torus.  Every
    window is read at the family's widest size w; the extra cells lie past
    i1, more than r + 2/n from the center, so they are neither full nor
    cut.  The balls are taken in order of their window's first row; the
    balls whose first rows lie within _BATCH_CELLS / (n + w) rows of each
    other share a band, their rows of u^2 squared once with w rows and
    columns of periodic margin, so every window is a slice of a sliding view
    of the band.  The masses go back in family order.
    """
    n = field.resolution
    require_resolved_radius(r, n)
    centers = np.asarray(centers, dtype=float).reshape(-1, 2)
    count = centers.shape[0]
    if count == 0:
        return np.zeros(0)
    h = 0.5 / n
    half_diag = h * math.sqrt(2.0)
    r2 = r * r

    # Per center and axis: window start; per band, the (B, W) offsets to the center.
    i0 = np.floor((centers - r - h) * n).astype(np.int64) - 1
    i1 = np.ceil((centers + r + h) * n).astype(np.int64) + 1
    w = int(np.max(i1 - i0)) + 1
    start = i0 % n
    order = np.argsort(start[:, 0], kind="stable")
    first_row = start[order, 0]
    band_rows = max(1, _BATCH_CELLS // (n + w))

    masses = np.empty(count)
    step = max(1, _BATCH_CELLS // (w * w))
    k0 = 0
    while k0 < count:
        k1 = int(np.searchsorted(first_row, first_row[k0] + band_rows))
        row0 = int(first_row[k0])
        u2 = _square_rows(field.values, row0, int(first_row[k1 - 1]) - row0 + w, 0, w)
        windows = sliding_window_view(u2, (w, w))
        band = order[k0:k1]
        idx = i0[band, :, None] + np.arange(w)
        delta = wrap_delta((idx % n) / n - centers[band, :, None])
        dx, dy = delta[:, 0], delta[:, 1]
        sqx, sqy = np.square(dx), np.square(dy)
        at_row, at_col = start[band, 0] - row0, start[band, 1]
        for b0 in range(0, band.size, step):
            b = slice(b0, b0 + step)
            dist = np.sqrt(sqx[b, :, None] + sqy[b, None, :])
            full = dist <= r - half_diag
            cut = np.flatnonzero((dist < r + half_diag) & ~full)
            win = windows[at_row[b], at_col[b]]
            inner = win[full]
            # Cut cell (k, i, j) of the batch: count its subcell centers in the ball.
            k, ij = np.divmod(cut, w * w)
            at_x, at_y = k * w + ij // w, k * w + ij % w
            sx = [np.square(dx[b] + o / n).ravel()[at_x] for o in _SUB]
            sy = [np.square(dy[b] + o / n).ravel()[at_y] for o in _SUB]
            inside = np.zeros(cut.size, dtype=np.int64)
            for sub_x in sx:
                for sub_y in sy:
                    inside += sub_x + sub_y <= r2
            # inside / 16 is exactly the mean over the 16 subcells.
            edge = win.ravel()[cut] * (inside / 16.0)
            f_off = np.concatenate([[0], np.cumsum(np.count_nonzero(full, axis=(1, 2)))])
            c_off = np.searchsorted(cut, np.arange(full.shape[0] + 1) * (w * w))
            masses[band[b]] = (ball_sums(inner, f_off) + ball_sums(edge, c_off)) / (n * n)
        del u2, windows  # before the next band is squared
        k0 = k1
    return masses


def mass_in_ball(field, center, r: float) -> float:
    """Quadrature of u^2 over the metric ball B(center, r)."""
    return float(ball_masses(field, [center], r)[0])


def default_centers(r: float, seed: int = 0) -> np.ndarray:
    """Uniform lattice at spacing <= r/2 joined with 100 seeded random centers."""
    m = math.ceil(2.0 / r)
    k = np.arange(m) / m
    lattice = np.stack(np.meshgrid(k, k, indexing="ij"), axis=-1).reshape(-1, 2)
    rng = np.random.default_rng(seed)
    extra = rng.uniform(0.0, 1.0, size=(100, 2))
    return np.vstack([lattice, extra])


def sse_scan(field, r: float, seed: int = 0) -> CertifiedMasses:
    """The small-scale equidistribution family: B(c, r) for c in default_centers(r, seed)."""
    # Before default_centers, whose lattice has (2 / r)^2 points.
    require_resolved_radius(r, field.resolution)
    return CertifiedMasses(field, default_centers(r, seed=seed), r)


def _mass_bounds(field, centers, r: float) -> tuple[np.ndarray, np.ndarray]:
    """Certified [lo, hi] around ball_masses(field, centers, r), per center.

    lo sums u^2 over the cells within r - h sqrt2 - slop (h the half cell),
    which ball_masses counts in full, hi over those within r + h sqrt2 + slop,
    the only ones it weights above 0, row by row from row-wise prefix sums.
    Each disk's row sums fill a centers x rows matrix, summed along its rows.
    When the prefix sums of all rows take more than about 4 * _BATCH_CELLS
    cells, they are built one block of about _BATCH_CELLS cells at a time,
    and each block fills the matrix entries of the rows it holds.
    """
    n = field.resolution
    centers = np.asarray(centers, dtype=float).reshape(-1, 2) % 1.0
    count = len(centers)
    half_diag = 0.5 / n * math.sqrt(2.0)
    slop = 1e-9  # adds 2 r slop to squared distances, whose float error is below 1e-15
    reach = r + half_diag + slop
    k = math.ceil(reach * n) + 1
    span = 2 * k + 1
    disks = ((r - half_diag - slop, np.ceil, np.floor), (reach, np.floor, np.ceil))
    # Entry (b, j) of the matrices is row row0[b] + j, unwrapped: row (phase[b] + j) mod n.
    row0 = np.floor(centers[:, 0] * n).astype(np.int64) - k
    phase = row0 % n
    block = n if n * (n + span) <= 4 * _BATCH_CELLS else max(1, _BATCH_CELLS // (n + span))
    sums = np.empty((len(disks), count, span))
    top = 0.0
    for i0 in range(0, n, block):
        i1 = min(i0 + block, n)
        # pre[i, k + 1 + j]: row i0 + i of u^2 summed periodically over columns -k - 1 .. j.
        pre = _square_rows(field.values, i0, i1 - i0, k + 1, k)
        np.cumsum(pre, axis=1, out=pre)
        top = max(top, float(pre[:, -1].max()))
        if block == n:  # every entry, as a centers x rows matrix
            rows = row0[:, None] + np.arange(span)
            diffs = _row_sums(pre, n, rows, centers[:, :1], centers[:, 1:] * n,
                              rows % n * (n + span) + k, disks)
            sums[:] = list(diffs)
            continue
        # Ball b's entries in rows i0 .. i1 - 1 are j in [i0, i1) - phase[b] (run b) and
        # that plus n (run count + b); values per run are repeated over its entries.
        ja = np.clip(np.concatenate([i0 - phase, i0 + n - phase]), 0, span)
        sizes = np.clip(np.concatenate([i1 - phase, i1 + n - phase]), 0, span) - ja
        j = np.repeat(ja - (np.cumsum(sizes) - sizes), sizes) + np.arange(int(np.sum(sizes)))
        entry = np.repeat(np.tile(np.arange(count) * span, 2), sizes) + j
        base = (np.repeat(np.concatenate([phase, phase - n]), sizes) + j - i0) * (n + span) + k
        diffs = _row_sums(pre, n, np.repeat(np.tile(row0, 2), sizes) + j,
                          np.repeat(np.tile(centers[:, 0], 2), sizes),
                          np.repeat(np.tile(centers[:, 1] * n, 2), sizes), base, disks)
        for out, diff in zip(sums, diffs):
            out.ravel()[entry] = diff

    # Per row the cumsums err by (n + span) eps of the row's total; ball_masses'
    # sums over < span^2 cells err by span^2 eps of the span rows' totals.
    slack = 4.0 * (n + span + span * span) * span * np.finfo(float).eps * top
    lo = np.sum(sums[0], axis=1) - slack
    hi = np.sum(sums[1], axis=1) + slack
    return lo / (n * n), hi / (n * n)


def _row_sums(pre, n: int, rows, cx, cy, base, disks):
    """Per disk of disks, its sum of u^2 over each unwrapped grid row of rows, from prefix sums pre.

    cx and cy are the center's coordinates (cy in cells); pre.flat[base + 1 + j]
    is the row's prefix sum through column j.
    """
    dx2 = np.square(rows / n - cx)
    for rad, round_lo, round_hi in disks:
        t2 = rad * rad - dx2
        t = np.sqrt(np.maximum(t2, 0.0)) * n
        j0, j1 = round_lo(cy - t), round_hi(cy + t)
        start = base + j0.astype(np.int64)
        stop = start + ((j1 - j0 + 1) * (t2 >= 0.0)).astype(np.int64)
        yield np.take(pre, stop) - np.take(pre, start)


class CertifiedMasses:
    """The masses of one family of balls B(c, r), measured only where a decision needs them.

    lo and hi are the _mass_bounds bracket of every ball, built when a
    decision first reads them; masses() runs ball_masses on a ball the first
    time a caller asks for it, and never again.  Correctly rounded division
    by a positive float is monotone, so fl(lo / v) <= fl(mass / v) <=
    fl(hi / v), and every decision below is the one the exact floats give.
    A bracket whose lower end is <= 0 decides nothing.
    """

    def __init__(self, field, centers, r: float):
        require_resolved_radius(r, field.resolution)
        self.field = field
        self.centers = np.asarray(centers, dtype=float).reshape(-1, 2)
        self.radius = r
        self.volume = math.pi * r * r
        self._mass = np.zeros(len(self.centers))
        self._measured = np.zeros(len(self.centers), dtype=bool)

    @functools.cached_property
    def _bounds(self) -> tuple[np.ndarray, np.ndarray]:
        return _mass_bounds(self.field, self.centers, self.radius)

    lo = property(lambda self: self._bounds[0])
    hi = property(lambda self: self._bounds[1])

    def masses(self, which=slice(None)) -> np.ndarray:
        """ball_masses of the balls which selects (all by default), each measured only once."""
        idx = np.arange(len(self.centers))[which]
        todo = np.zeros_like(self._measured)
        todo[idx] = True
        todo &= ~self._measured
        if todo.any():
            self._mass[todo] = ball_masses(self.field, self.centers[todo], self.radius)
            self._measured |= todo
        return self._mass[idx]

    def bracket(self) -> tuple[np.ndarray, np.ndarray]:
        """(lo, hi) per ball, both NaN where lo <= 0, so that band_mask cannot decide there."""
        unsure = ~(self.lo > 0.0)
        return np.where(unsure, np.nan, self.lo), np.where(unsure, np.nan, self.hi)

    def ratios_in_band(self, band: tuple[float, float]) -> np.ndarray:
        """Per ball, whether its mass ratio mass / (pi r^2) lies in band, ends included."""
        lo, hi = self.bracket()
        return band_mask(lo / self.volume, hi / self.volume, band,
                         lambda k: self.masses(k) / self.volume)

    def extreme_ratios(self) -> tuple[float, float]:
        """(least, greatest) mass ratio of the family: the min and max of masses() / volume.

        Measures the balls of lowest lo and highest hi, then every ball whose
        bracket admits a mass as small or as large; masses are >= 0, so that
        includes every ball with lo <= 0.
        """
        ends = self.masses([np.argmin(self.lo), np.argmax(self.hi)])
        rest = ((self.lo <= min(ends.min(), self.hi.min()))
                | (self.hi >= max(ends.max(), self.lo.max())))
        ratios = np.concatenate([ends, self.masses(rest)]) / self.volume
        return float(np.min(ratios)), float(np.max(ratios))


def band_mask(lo: np.ndarray, hi: np.ndarray, band: tuple[float, float],
              exact: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """Per ball, whether its float x lies in band (ends included), given lo <= x <= hi.

    The bracket decides where it lies wholly inside or wholly outside the
    band; exact(indices) gives x for the other balls.  A NaN bracket
    decides nothing.
    """
    a, b = band
    inside = (lo >= a) & (hi <= b)
    open_ = np.flatnonzero(~inside & ~((hi < a) | (lo > b)))
    if open_.size:
        x = exact(open_)
        inside[open_] = (x >= a) & (x <= b)
    return inside


def report_to_csv(family: CertifiedMasses, path: str) -> None:
    masses = family.masses()
    write_float_csv(path, "center_x,center_y,radius,mass,ratio",
                    (family.centers, np.full(masses.size, float(family.radius)), masses,
                     masses / family.volume))


def report_summary_json(family: CertifiedMasses, rho: float | None) -> str:
    """The ballstats summary over every ball; rho is None for a fixed radius."""
    ratios = family.masses() / family.volume
    obj = {"lambda": family.field.spec_lambda, "rho": rho, "radius": family.radius,
           "d1": float(np.min(ratios)), "d2": float(np.max(ratios)), "median": median(ratios),
           "count": int(ratios.size)}
    return json.dumps(obj, sort_keys=True)
