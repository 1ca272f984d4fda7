"""Small-ball L^2 mass statistics for sampled torus fields.

The quadrature assigns each grid point the unit cell centered on it.  Cells
entirely inside (outside) the ball count fully (not at all); cells cut by
the boundary are subsampled on a 4x4 lattice and weighted by the inside
fraction.  Ratios are taken against the flat ball volume pi r^2, so a
perfectly equidistributed field scores 1 at every center.

ball_masses evaluates the rule for a whole family of equal-radius balls in
batched array passes: each ball reads a square window of a periodically
padded copy of u^2, and the per-center offsets along each axis are computed
once per family.  Each ball's two sums (full cells, then cut cells) are
np.sum's pairwise reduction over that ball's own cells in row-major window
order (nodal.ball_sums), so every mass is the same float whatever family
the ball is measured in.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import BallTooLarge, RadiusUnderResolved
from .nodal import ball_sums, write_float_csv
from .torus import wrap_delta

MIN_CELLS_PER_RADIUS = 20.0


@dataclass(frozen=True)
class ScaleFunction:
    """Power-law small scale r(lam) = lam^(-rho).

    Exponents in (0, 1] are admissible in general; the planar torus
    experiments restrict to (0, 1) at plan validation.
    """

    rho: float

    def __post_init__(self):
        if not 0.0 < self.rho <= 1.0:
            raise ValueError(f"rho must lie in (0, 1], got {self.rho!r}")

    def __call__(self, lam: float) -> float:
        if lam <= 0.0:
            raise ValueError("scale function needs a positive frequency")
        return float(lam ** (-self.rho))


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


def ball_masses(field, centers, r: float) -> np.ndarray:
    """Quadrature of u^2 over every ball B(c, r), c a row of centers.

    Ball k reads the cells i0..i1 along each axis, i0 = floor((c - r - h) n)
    - 1 and i1 = ceil((c + r + h) n) + 1 with h the half cell, reduced mod n;
    the radius guard keeps that window narrower than the torus.  Every
    window is read at the family's widest size; the extra cells lie past
    i1, more than r + 2/n from the center, so they are neither full nor
    cut.
    """
    n = field.resolution
    require_resolved_radius(r, n)
    centers = np.asarray(centers, dtype=float).reshape(-1, 2)
    count = centers.shape[0]
    if count == 0:
        return np.zeros(0)
    h = 0.5 / n
    half_diag = h * math.sqrt(2.0)

    # Per center and axis: window start and the (B, W) offsets to the center.
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
        masses[b] = (ball_sums(inner, f_off) + ball_sums(edge, c_off)) / (n * n)
    return masses


def mass_in_ball(field, center, r: float) -> float:
    """Quadrature of u^2 over the metric ball B(center, r)."""
    return float(ball_masses(field, [center], r)[0])


@dataclass(frozen=True)
class BallMassReport:
    """Mass ratios of one field over a family of equal-radius balls."""

    lam: float
    rho: float
    radius: float
    centers: np.ndarray
    masses: np.ndarray
    ratios: np.ndarray

    @property
    def d1(self) -> float:
        return float(np.min(self.ratios))

    @property
    def d2(self) -> float:
        return float(np.max(self.ratios))

    @property
    def median(self) -> float:
        return float(np.median(self.ratios))

    @property
    def count(self) -> int:
        return int(self.ratios.size)

    def in_band_fraction(self, lo: float, hi: float) -> float:
        return float(np.mean((self.ratios >= lo) & (self.ratios <= hi)))


def default_centers(r: float, seed: int = 0) -> np.ndarray:
    """Uniform lattice at spacing <= r/2 joined with 100 seeded random centers."""
    m = math.ceil(2.0 / r)
    k = np.arange(m) / m
    lattice = np.stack(np.meshgrid(k, k, indexing="ij"), axis=-1).reshape(-1, 2)
    rng = np.random.default_rng(seed)
    extra = rng.uniform(0.0, 1.0, size=(100, 2))
    return np.vstack([lattice, extra])


def ball_mass_scan(field, radius: float, centers: np.ndarray | None = None,
                   rho: float = float("nan"), seed: int = 0) -> BallMassReport:
    """Measure ball masses at a fixed radius over a center family."""
    # Before default_centers, whose lattice has (2 / radius)^2 points.
    require_resolved_radius(radius, field.resolution)
    if centers is None:
        centers = default_centers(radius, seed=seed)
    centers = np.asarray(centers, dtype=float)
    masses = ball_masses(field, centers, radius)
    vol = math.pi * radius * radius
    return BallMassReport(field.spec_lambda, rho, radius, centers, masses, masses / vol)


def sse_scan(field, scale: ScaleFunction, seed: int = 0) -> BallMassReport:
    """Small-scale equidistribution scan at the field's own scale r(lam)."""
    return ball_mass_scan(field, scale(field.spec_lambda), rho=scale.rho, seed=seed)


def _mass_bounds(field, centers, r: float) -> tuple[np.ndarray, np.ndarray]:
    """Certified [lo, hi] around ball_masses(field, centers, r), per center.

    lo sums u^2 over the cells within r - h sqrt2 - slop (h the half cell),
    which ball_masses counts in full, hi over those within r + h sqrt2 + slop,
    the only ones it weights above 0, row by row from row-wise prefix sums.
    """
    n = field.resolution
    centers = np.asarray(centers, dtype=float).reshape(-1, 2) % 1.0
    half_diag = 0.5 / n * math.sqrt(2.0)
    slop = 1e-9  # adds 2 r slop to squared distances, whose float error is below 1e-15
    reach = r + half_diag + slop
    k = math.ceil(reach * n) + 1
    rows = np.floor(centers[:, :1] * n).astype(np.int64) + np.arange(-k, k + 1)
    dx2 = np.square(rows / n - centers[:, :1])
    cy = centers[:, 1:] * n
    # pre[i, k + 1 + j]: row i of u^2 summed periodically over columns -k - 1 .. j.
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

    # Per row the cumsums err by (n + span) eps of the row's total; ball_masses'
    # sums over < span^2 cells err by span^2 eps of the span rows' totals.
    slack = 4.0 * (n + span + span * span) * span * np.finfo(float).eps * pre[:, -1].max()
    lo = disk_sum(r - half_diag - slop, np.ceil, np.floor) - slack
    hi = disk_sum(reach, np.floor, np.ceil) + slack
    return lo / (n * n), hi / (n * n)


def sse_extremes(field, r: float, seed: int) -> tuple[float, float]:
    """(d1, d2) of ball_mass_scan(field, r, seed=seed), same floats.

    Measures the balls of lowest lo and highest hi, then every ball whose
    bounds admit a mass as small or as large: a mass does not depend on its
    family, and x -> x / (pi r^2) is monotone.
    """
    require_resolved_radius(r, field.resolution)
    centers = default_centers(r, seed=seed)
    lo, hi = _mass_bounds(field, centers, r)
    first = [np.argmin(lo), np.argmax(hi)]
    masses = ball_masses(field, centers[first], r)
    rest = (lo <= min(masses.min(), hi.min())) | (hi >= max(masses.max(), lo.max()))
    masses = np.concatenate([masses, ball_masses(field, centers[rest], r)])
    ratios = masses / (math.pi * r * r)
    return float(np.min(ratios)), float(np.max(ratios))


def report_to_csv(report: BallMassReport, path: str) -> None:
    write_float_csv(path, "center_x,center_y,radius,mass,ratio",
                    (report.centers, np.full(report.count, float(report.radius)),
                     report.masses, report.ratios))


def report_summary_json(report: BallMassReport) -> str:
    obj = {
        "lambda": report.lam,
        "rho": None if math.isnan(report.rho) else report.rho,
        "radius": report.radius,
        "d1": report.d1,
        "d2": report.d2,
        "median": report.median,
        "count": report.count,
    }
    return json.dumps(obj, sort_keys=True)
