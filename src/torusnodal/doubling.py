"""Wavelength-scale doubling classification of ball families.

Around a center p the field is compared on the concentric balls of radius
10*a1/lam and 20*a1/lam: the ball is good when the outer-to-inner mass
ratio stays below a2.  Good balls are where nodal geometry is controlled;
each is probed for a sign change of the field on the core ball of radius
a1/lam, and their nodal lengths assemble into a global lower bound after
dividing by the covering overlap factor.

Defaults: a1 = 2.5 was calibrated as the smallest half-integer for which
every core ball contained a sign change across a 50-seed ensemble at
energy 65 (see scripts/calibrate_doubling.py); a2 = 16 is the flat volume
ratio of the doubled ball.  Both are recorded in every report.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .ballstats import MIN_CELLS_PER_RADIUS, ball_masses
from .covering import OVERLAP_VOLUME_BOUND
from .errors import ChartExceeded, DivisionByNegligibleMass, RadiusTooLarge, RadiusUnderResolved
from .nodal import NodalSet, ball_sums, clip_family
from .torus import wrap_point

DEFAULT_A1 = 2.5
DEFAULT_A2 = 16.0
OUTER_FACTOR = 20.0
INNER_FACTOR = 10.0
SIGN_PROBE_SIDE = 32
NEGLIGIBLE_MASS = 1e-30
MAX_DILATION = 1.0 / 40.0
CHART_RADIUS = 10.0


@dataclass(frozen=True)
class DilatedView:
    """The field read in local coordinates y around a center: v(y) = u(c + r y).

    The natural frequency of the view is mu = r * lam.  Coordinates are
    reduced periodically, and the chart is restricted to |y| <= 10.
    """

    base: object
    center: tuple[float, float]
    r: float

    @property
    def mu(self) -> float:
        return self.r * self.base.spec_lambda

    def evaluate(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        if np.max(np.linalg.norm(pts, axis=1)) > CHART_RADIUS:
            raise ChartExceeded(f"local coordinates beyond |y| <= {CHART_RADIUS}")
        c = np.asarray(self.center, dtype=float)
        return self.base.at(wrap_point(c + self.r * pts))


def dilate(field, center, r: float) -> DilatedView:
    """Dilated view with the full |y| <= 10 chart embedded (needs r < 1/40)."""
    if not 0.0 < r < MAX_DILATION:
        raise RadiusTooLarge(
            f"dilation scale must lie in (0, {MAX_DILATION}) for an embedded chart, got {r!r}")
    return DilatedView(field, (float(center[0]), float(center[1])), r)


@dataclass(frozen=True)
class DoublingReport:
    """Per-center doubling ratios and sign-change flags for one field."""

    a1: float
    a2: float
    lam: float
    inner_radius: float
    outer_radius: float
    centers: np.ndarray
    ratios: np.ndarray
    good: np.ndarray
    has_nodal_point: np.ndarray

    @property
    def count(self) -> int:
        return int(self.centers.shape[0])

    @property
    def good_fraction(self) -> float:
        return float(np.mean(self.good)) if self.count else 0.0

    @property
    def nodal_fraction_among_good(self) -> float:
        if not np.any(self.good):
            return float("nan")
        return float(np.mean(self.has_nodal_point[self.good]))


def _sign_change_in_ball(field, center, radius: float) -> bool:
    t = np.linspace(-radius, radius, SIGN_PROBE_SIDE)
    gx, gy = np.meshgrid(t, t, indexing="ij")
    mask = gx * gx + gy * gy <= radius * radius
    pts = wrap_point(np.asarray(center, dtype=float)
                     + np.stack([gx[mask], gy[mask]], axis=-1))
    vals = field.interp(pts)
    return bool(np.min(vals) < 0.0 < np.max(vals))


def require_resolved_doubling(lam: float, a1: float, n: int) -> None:
    """Raise RadiusUnderResolved unless the inner doubling radius is resolved.

    The inner radius 10*a1/lam must span MIN_CELLS_PER_RADIUS cells of the
    n-point grid.  classify_doubling rejects it too, but only after the
    caller has built the doubling cover at half the outer radius, and for
    a tiny a1 that cover's candidate lattice does not fit in memory, so
    callers check here first.
    """
    r_in = INNER_FACTOR * a1 / lam
    if r_in * n < MIN_CELLS_PER_RADIUS:
        raise RadiusUnderResolved(
            f"inner doubling radius {r_in!r} spans {r_in * n:.1f} cells at resolution {n}; "
            f"need >= {MIN_CELLS_PER_RADIUS}")


def classify_doubling(field, centers, a1: float = DEFAULT_A1,
                      a2: float = DEFAULT_A2) -> DoublingReport:
    """Doubling ratios over the given centers at the wavelength scale a1/lam."""
    lam = field.spec_lambda
    if lam <= 0.0:
        raise ValueError("doubling classification needs a positive frequency")
    r_out = OUTER_FACTOR * a1 / lam
    r_in = INNER_FACTOR * a1 / lam
    r_core = a1 / lam
    if r_out >= 0.25:
        raise RadiusTooLarge(
            f"outer doubling radius {r_out!r} >= 1/4; energy too low for a1 = {a1!r}")
    centers = np.atleast_2d(np.asarray(centers, dtype=float))
    inner = ball_masses(field, centers, r_in)
    negligible = np.flatnonzero(inner < NEGLIGIBLE_MASS)
    if negligible.size:
        k = negligible[0]
        raise DivisionByNegligibleMass(f"inner mass {float(inner[k])!r} at center "
                                       f"{tuple(centers[k])} below working precision")
    ratios = ball_masses(field, centers, r_out) / inner
    nodal = np.array([_sign_change_in_ball(field, p, r_core) for p in centers], dtype=bool)
    good = ratios <= a2
    return DoublingReport(a1, a2, lam, r_in, r_out, centers, ratios, good, nodal)


def lower_bound_assembly(report: DoublingReport, nodal: NodalSet) -> dict:
    """Assemble the good balls' nodal lengths into a total-length lower bound.

    Each good ball contributes its nodal length inside the inner radius;
    the sum divided by the overlap bound 16 can never exceed the true total
    length.  Also reports the implied per-ball constant
    a3 = min over good balls of (length * lam).
    """
    piece_len, _, offsets = clip_family(nodal, report.centers[report.good], report.inner_radius)
    lengths = np.zeros(report.count)
    lengths[report.good] = ball_sums(piece_len, offsets)
    good_lengths = lengths[report.good]
    bound = float(np.sum(good_lengths)) / OVERLAP_VOLUME_BOUND
    a3 = float(np.min(good_lengths) * report.lam) if good_lengths.size else float("nan")
    return {
        "assembled_lower_bound": bound,
        "total_length": nodal.total_length,
        "a3_hat": a3,
        "good_count": int(np.sum(report.good)),
        "lengths": lengths,
    }


def report_to_json(report: DoublingReport) -> str:
    obj = {
        "a1": report.a1,
        "a2": report.a2,
        "lambda": report.lam,
        "inner_radius": report.inner_radius,
        "outer_radius": report.outer_radius,
        "count": report.count,
        "good_fraction": report.good_fraction,
        "ratios": [float(x) for x in report.ratios],
        "good": [bool(x) for x in report.good],
        "has_nodal_point": [bool(x) for x in report.has_nodal_point],
        "centers": [[float(p[0]), float(p[1])] for p in report.centers],
    }
    return json.dumps(obj, sort_keys=True)
