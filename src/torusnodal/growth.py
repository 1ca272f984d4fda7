"""Growth exponents: real doubling in dilated charts and complex strip sups.

Real part: the chart of radius r around a center c reads the exact
trigonometric sum in local coordinates, v(y) = u(c + r y) with c + r y
reduced periodically, on |y| <= 10, with natural frequency mu = r lam.
Over it, the ratio of sup norms on concentric balls B(p, 2 delta) and
B(p, delta) is summarized by the exponent c7 = log(sup ratio) / mu.
Complex part: the trigonometric sum extends entirely to
v(x + iy) = sum c_xi exp(2 pi i xi.x) exp(-2 pi xi.y); its modulus over the
strip |y|_inf <= tau attains its maximum on the corner sheets
y in {-tau, +tau}^2, which are sampled densely and refined around the
maximizer.  The elementary coefficient bound sum |c_xi| exp(2 pi |xi|_1 tau)
is returned alongside as a certificate.

Sup norms are lower bounds by sampling: a disk grid with step a tenth of
the finest oscillation period, then three 21 x 21 zoom passes, each a tenth
the width of the last, for all disks of a chart (or all strip sheets) at
once.  Every pass is one _sup_search over tensor grids of torus
coordinates: it locates the points within TENSOR_TOL sum |c_xi| of the
maximum of the tensor form (E_x c) @ E_y^T, and only they go through the
exact mode sum, so each sup is the float of a dense exact search (tested
bit for bit against it, and against closed forms for single modes: 1e-9
relative on the real ball, 1e-6 on the strip, 1e-3 for c7).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .eigenbasis import TWO_PI, EigenfunctionSpec, _column_blocks, _mode_sum, real_part
from .errors import ChartExceeded
from .torus import wrap_point

REFINE_POINTS = 21
REFINE_PASSES = 3
REFINE_SHRINK = 10.0
CHART_RADIUS = 10.0
# Centers, in chart coordinates, of the disks over which growth_report takes c7.
VIEW_OFFSETS = np.array([[0.0, 0.0], [0.5, 0.5], [-0.5, 0.5], [0.5, -0.5], [-0.5, -0.5]])
# Tensor values within this share of sum |c_xi| of a grid's tensor maximum are confirmed exactly.
TENSOR_TOL = 1e-9


def _sup_search(xi: np.ndarray, coeffs: np.ndarray, xs: np.ndarray, ys: np.ndarray,
                mask: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per grid d, the sup of the exact |v| over the masked (xs[d, i], ys[d, j]), and its (i, j).

    coeffs is one vector shared by every grid, whose sum must be real
    (real_part checks the residue at every masked point and candidate), or
    one complex row per grid, a strip sheet.  The tensor form
    v = (E_x c) @ E_y^T takes one complex exp per axis point and mode (2 k K
    per k x k grid, where the exact sum takes k^2 K) and locates: only the
    points within TENSOR_TOL sum |c_xi| of their grid's tensor maximum go
    through _mode_sum, one call per sheet, whose rows do not depend on the
    batch.  Of equal exact values, the first in row-major order wins.
    """
    real = coeffs.ndim == 1
    sheets = coeffs if real else coeffs[:, None, :]
    ex = np.exp((TWO_PI * 1j) * (xs[..., None] * xi[:, 0])) * sheets
    ey = np.exp((TWO_PI * 1j) * (ys[..., None] * xi[:, 1]))
    v = ex @ np.swapaxes(ey, 1, 2)
    vals = np.abs(real_part(v, coeffs, mask) if real else v)
    tol = TENSOR_TOL * np.sum(np.abs(sheets), axis=-1, keepdims=True)
    top = np.max(vals, axis=(1, 2), where=mask, initial=-math.inf)
    d, i, j = np.nonzero(mask & (vals >= top[:, None, None] - tol))
    pts = np.column_stack([xs[d, i], ys[d, j]])
    if real:
        exact = np.abs(real_part(_mode_sum(pts, xi, coeffs), coeffs))
    else:
        exact = np.empty(len(d))
        for k, c in enumerate(coeffs):
            exact[d == k] = np.abs(_mode_sum(pts[d == k], xi, c))
    order = np.lexsort((-exact, d))  # by grid, then by falling value; stable, so first index first
    picks = order[np.unique(d[order], return_index=True)[1]]
    return exact[picks], i[picks], j[picks]


def _zoom(search, p, w, centers, radii) -> np.ndarray:
    """Zoom passes around each disk's maximizer p, half-widths w shrinking tenfold, in the disk."""
    best = np.full(len(p), -math.inf)
    p, rows = np.array(p, dtype=float), np.arange(len(p))
    for _ in range(REFINE_PASSES):
        t = np.linspace(-w, w, REFINE_POINTS).T  # each row's own linspace, as all w > 0
        xs, ys = p[:, :1] + t, p[:, 1:] + t
        dx, dy = xs - centers[:, :1], ys - centers[:, 1:]
        mask = np.sqrt((dx * dx)[:, :, None] + (dy * dy)[:, None, :]) <= radii[:, None, None]
        vals, i, j = search(xs, ys, mask)
        up = vals > best
        best[up], p[up] = vals[up], np.column_stack([xs[rows, i], ys[rows, j]])[up]
        w = w / REFINE_SHRINK
    return best


def _disk_sups(search, centers, radii, step: float) -> np.ndarray:
    """Sampled sups of |v| over the disks B(centers[d], radii[d]): dense grids, then the zoom.

    centers is a (D, 2) array and radii a (D,) array; all D disks run each
    pass together, through search(xs, ys, mask), a _sup_search of v.
    """
    ks = np.array([max(8, int(math.ceil(2.0 * r / step)) + 1) for r in radii])
    t = np.full((len(ks), ks.max()), np.nan)  # no mask admits the nan padding of short rows
    for row, k, r in zip(t, ks, radii):
        row[:k] = np.linspace(-r, r, k)
    tt = t * t
    mask = tt[:, :, None] + tt[:, None, :] <= (radii * radii)[:, None, None]
    xs, ys, rows = centers[:, :1] + t, centers[:, 1:] + t, np.arange(len(ks))
    coarse, i, j = search(xs, ys, mask)
    p = np.column_stack([xs[rows, i], ys[rows, j]])
    return np.maximum(coarse, _zoom(search, p, 2.0 * radii / (ks - 1), centers, radii))


def real_doubling_exponent(spec: EigenfunctionSpec, center, r: float, delta: float,
                           offsets) -> np.ndarray:
    """Per-offset c7 in the chart v(y) = u(c + r y) around center, with mu = r lam.

    c7 is the log of the sup ratio on B(p, 2 delta) vs B(p, delta), p an
    offset, over mu; every doubled ball must lie in the chart |y| <= 10.
    Exact ratios of 1 map to exactly 0 (covers the degenerate constant field).
    """
    if not 0.0 < delta <= 1.0:
        raise ValueError(f"delta must lie in (0, 1], got {delta!r}")
    offsets = np.atleast_2d(np.asarray(offsets, dtype=float))
    reach = np.linalg.norm(offsets, axis=1) + 2.0 * delta
    if np.max(reach) > CHART_RADIUS:
        raise ChartExceeded(f"a doubled ball leaves the chart |y| <= {CHART_RADIUS}")
    mu = r * spec.lam
    step = (TWO_PI / mu) / 10.0 if mu > 0.0 else delta / 16.0
    xi, (cx, cy) = np.asarray(spec.modes, dtype=float), np.asarray(center, dtype=float)

    def search(xs, ys, mask):  # chart axes to torus axes
        return _sup_search(xi, spec.coeffs, wrap_point(cx + r * xs), wrap_point(cy + r * ys), mask)

    sups = _disk_sups(search, np.repeat(offsets, 2, axis=0),
                      np.tile([delta, 2.0 * delta], len(offsets)), step)
    out = np.empty(offsets.shape[0])
    for k, (s1, s2) in enumerate(sups.reshape(-1, 2)):
        logr = math.log(max(s2, s1) / s1)
        out[k] = 0.0 if logr == 0.0 else logr / mu
    return out


def _sheet_argmax(modes, coeffs: np.ndarray, n: int) -> tuple[float, int, int]:
    """(max |v|, i, j) over the n x n grid sheet of coeffs, one _column_blocks block at a time.

    On a tie the smallest row-major index i * n + j wins, np.argmax's rule
    on the whole sheet, which is never held.
    """
    top, i, j = -math.inf, 0, 0
    for j0, j1, block in _column_blocks(modes, coeffs, n):
        mag = np.abs(block)
        bi, bj = divmod(int(np.argmax(mag)), j1 - j0)
        value = float(mag[bi, bj])
        if value > top or (value == top and bi * n + j0 + bj < i * n + j):
            top, i, j = value, bi, j0 + bj
    return top, i, j


def complex_strip_sup(spec: EigenfunctionSpec, tau: float) -> tuple[float, float]:
    """(sampled sup, certificate) of the complexified eigenfunction on the strip |y|_inf <= tau.

    Each corner sheet's grid maximizer is found one column block of the
    inverse FFT at a time (_sheet_argmax), so no n x n sheet is held; the
    zoom passes then refine around it, every sheet in one _sup_search.
    """
    if not (tau >= 0.0 and math.isfinite(tau)):
        raise ValueError(f"tau must be finite and nonnegative, got {tau!r}")
    xi = np.asarray(spec.modes, dtype=float)
    one_norms = np.sum(np.abs(xi), axis=1)
    with np.errstate(over="ignore", invalid="ignore"):
        certificate = float(np.sum(np.abs(spec.coeffs) * np.exp(TWO_PI * one_norms * tau)))
    # The certificate bounds every sheet's sum, so a finite one keeps each sheet finite.
    if not math.isfinite(certificate):
        raise ValueError(f"strip certificate overflows a float at tau={tau!r}, E={spec.energy}; "
                         f"use a narrower strip")

    n = max(64, 10 * math.ceil(math.sqrt(max(spec.energy, 1))))
    corners = [np.array([sy * tau, sx * tau]) for sy in (-1.0, 1.0) for sx in (-1.0, 1.0)]
    if tau == 0.0:
        corners = corners[:1]
    coeffs = np.array([spec.coeffs * np.exp(-TWO_PI * (xi @ y)) for y in corners])
    best, p0 = -math.inf, []
    for c in coeffs:
        top, i, j = _sheet_argmax(spec.modes, c, n)
        best = max(best, top)
        p0.append([i / n, j / n])
    p0, ones = np.array(p0), np.ones(len(coeffs))
    refined = _zoom(functools.partial(_sup_search, xi, coeffs), p0, ones / n, p0, 10.0 * ones)
    return max(best, *map(float, refined)), certificate


def torus_sup(spec: EigenfunctionSpec, center=(0.0, 0.0), radius: float = 0.25) -> float:
    """Sampled sup of |u| over the real ball B(center, radius)."""
    search = functools.partial(_sup_search, np.asarray(spec.modes, dtype=float), spec.coeffs)
    step = 1.0 / (10.0 * math.sqrt(max(spec.energy, 1)))
    return float(_disk_sups(search, np.array([center], dtype=float),
                            np.array([radius], dtype=float), step)[0])


@dataclass(frozen=True)
class GrowthReport:
    """Growth summary for one field: real doubling and strip exponents."""

    mu: float
    delta: float
    c7_values: np.ndarray
    c7_max: float
    tau: float
    mu_eff: float
    strip_sup: float
    strip_certificate: float
    real_sup: float
    c9_hat: float


def growth_report(spec: EigenfunctionSpec, scale_r: float, delta: float,
                  tau: float | None = None) -> GrowthReport:
    """Assemble both growth estimates of an eigenfunction from its exact mode sum.

    c7 is taken at VIEW_OFFSETS in the chart of radius scale_r around
    (1/2, 1/2); c9 is the log of the strip sup against the real sup on
    B(0, 1/4), over mu_eff = lam tau; tau defaults to E^(-1/2).
    """
    c7 = real_doubling_exponent(spec, (0.5, 0.5), scale_r, delta, VIEW_OFFSETS)
    if tau is None:
        tau = spec.energy ** -0.5 if spec.energy else 0.0  # E = 0 has no default
    if not tau > 0.0:
        raise ValueError(f"tau must be positive to normalize the growth exponent, got {tau!r}")
    strip_sup, certificate = complex_strip_sup(spec, tau)
    real_sup = torus_sup(spec)
    mu_eff = spec.lam * tau
    logr = math.log(strip_sup / real_sup)
    return GrowthReport(mu=scale_r * spec.lam, delta=delta, c7_values=c7, c7_max=float(np.max(c7)),
                        tau=tau, mu_eff=mu_eff, strip_sup=strip_sup, strip_certificate=certificate,
                        real_sup=real_sup, c9_hat=0.0 if logr == 0.0 else logr / mu_eff)
