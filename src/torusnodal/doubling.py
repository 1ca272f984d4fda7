"""Wavelength-scale doubling classification of ball families.

Around a center p the field is compared on the concentric balls of radius
10*a1/lam and 20*a1/lam: the ball is good when the outer-to-inner mass
ratio stays at most a2.  Good balls are where nodal geometry is controlled;
each is probed for a sign change of the field on the core ball of radius
a1/lam, and their nodal lengths assemble into a global lower bound after
dividing by the covering overlap factor.

Defaults: a1 = 2.5 was calibrated as the smallest half-integer for which
every core ball contained a sign change across a 50-seed ensemble at
energy 65 (see scripts/calibrate_doubling.py); a2 = 16 is the flat volume
ratio of the doubled ball.  Both are recorded in every report.  The
dilated chart v(y) = u(c + r y) of the growth exponents lives in growth.

classify_doubling decides ratio <= a2 from certified mass brackets
(ballstats.CertifiedMasses), fl(hi_out / lo_in) <= a2 or fl(lo_out / hi_in)
> a2, and measures by quadrature only the balls in between.  A report's
ratios are measured when first read, as the doubling command's JSON does.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .ballstats import MIN_CELLS_PER_RADIUS, CertifiedMasses, band_mask
from .covering import OVERLAP_VOLUME_BOUND, build_cover
from .errors import DivisionByNegligibleMass, RadiusTooLarge, RadiusUnderResolved
from .nodal import NodalSet, clip_lengths
from .torus import BUDGET_16K, blocks, wrap_point

DEFAULT_A1 = 2.5
DEFAULT_A2 = 16.0
OUTER_FACTOR = 20.0
INNER_FACTOR = 10.0
SIGN_PROBE_SIDE = 32
NEGLIGIBLE_MASS = 1e-30


@dataclass(frozen=True)
class DoublingReport:
    """Per-center doubling classes and sign-change flags for one field.

    inner and outer hold the masses of the balls of radius 10*a1/lam and
    20*a1/lam around the centers, measured only where a decision needed them.
    """

    a1: float
    a2: float
    lam: float
    centers: np.ndarray
    good: np.ndarray
    has_nodal_point: np.ndarray
    inner: CertifiedMasses = dataclass_field(repr=False)
    outer: CertifiedMasses = dataclass_field(repr=False)

    @property
    def ratios(self) -> np.ndarray:
        """Outer over inner mass of every ball, measured by quadrature when first read."""
        return self.outer.masses() / self.inner.masses()

    @property
    def good_fraction(self) -> float:
        return float(np.mean(self.good)) if self.good.size else 0.0

    @property
    def nodal_fraction_among_good(self) -> float:
        if not np.any(self.good):
            return float("nan")
        return float(np.mean(self.has_nodal_point[self.good]))


def sign_changes(field, centers: np.ndarray, radius: float) -> np.ndarray:
    """Per center, whether the field takes both signs on the masked probe grid of the ball."""
    t = np.linspace(-radius, radius, SIGN_PROBE_SIDE)
    gx, gy = np.meshgrid(t, t, indexing="ij")
    mask = gx * gx + gy * gy <= radius * radius
    offsets = np.stack([gx[mask], gy[mask]], axis=-1)
    centers = np.asarray(centers, dtype=float).reshape(-1, 2)
    out = np.empty(len(centers), dtype=bool)
    for b0, b1 in blocks(len(centers), len(offsets), BUDGET_16K):
        pts = wrap_point(centers[b0:b1, None, :] + offsets)
        vals = field.interp(pts.reshape(-1, 2)).reshape(pts.shape[:2])
        out[b0:b1] = (np.min(vals, axis=1) < 0.0) & (0.0 < np.max(vals, axis=1))
    return out


def require_doubling_constants(a1: float, a2: float) -> None:
    """Raise unless the doubling scale a1 and the ratio bound a2 are both positive and finite."""
    if not (0.0 < a1 < math.inf and 0.0 < a2 < math.inf):
        raise ValueError(f"doubling constants must be positive and finite; "
                         f"got a1={a1!r}, a2={a2!r}")


def doubling_admissible(lam: float, a1: float) -> bool:
    """Whether the outer doubling radius 20*a1/lam lies below 1/4, for lam > 0."""
    return OUTER_FACTOR * a1 / lam < 0.25


def _outer_radius(lam: float, a1: float) -> float:
    """The outer doubling radius 20*a1/lam; raises unless lam > 0 and it is admissible."""
    if lam <= 0.0:
        raise ValueError("doubling classification needs a positive frequency")
    r_out = OUTER_FACTOR * a1 / lam
    if not doubling_admissible(lam, a1):
        raise RadiusTooLarge(
            f"outer doubling radius {r_out!r} >= 1/4; energy too low for a1 = {a1!r}")
    return r_out


def require_resolved_doubling(lam: float, a1: float, n: int) -> None:
    """Raise unless lam > 0, the outer radius lies below 1/4 and the inner one is resolved.

    The inner radius 10*a1/lam must span MIN_CELLS_PER_RADIUS cells of the
    n-point grid.  doubling_stage checks this before it builds its cover,
    whose candidate lattice does not fit in memory for a tiny a1; the
    doubling command and plan validation check it before sampling a field.
    """
    _outer_radius(lam, a1)
    r_in = INNER_FACTOR * a1 / lam
    if r_in * n < MIN_CELLS_PER_RADIUS:
        raise RadiusUnderResolved(
            f"inner doubling radius {r_in!r} spans {r_in * n:.1f} cells at resolution {n}; "
            f"need >= {MIN_CELLS_PER_RADIUS}")


def classify_doubling(field, centers, a1: float = DEFAULT_A1,
                      a2: float = DEFAULT_A2) -> DoublingReport:
    """Doubling ratios over the given centers at the wavelength scale a1/lam."""
    require_doubling_constants(a1, a2)
    lam = field.spec_lambda
    r_out = _outer_radius(lam, a1)
    r_in = INNER_FACTOR * a1 / lam
    r_core = a1 / lam
    centers = np.atleast_2d(np.asarray(centers, dtype=float))
    inner = CertifiedMasses(field, centers, r_in)
    outer = CertifiedMasses(field, centers, r_out)
    # A mass is at least its lower bound, so only balls with lo below the floor can fail.
    low = np.flatnonzero(inner.lo < NEGLIGIBLE_MASS)
    negligible = low[inner.masses(low) < NEGLIGIBLE_MASS]
    if negligible.size:
        k = negligible[0]
        raise DivisionByNegligibleMass(f"inner mass {float(inner.masses([k])[0])!r} at center "
                                       f"{tuple(centers[k])} below working precision")
    (in_lo, in_hi), (out_lo, out_hi) = inner.bracket(), outer.bracket()
    good = band_mask(out_lo / in_hi, out_hi / in_lo, (-math.inf, a2),
                     lambda k: outer.masses(k) / inner.masses(k))
    nodal = sign_changes(field, centers, r_core)
    return DoublingReport(a1, a2, lam, centers, good, nodal, inner, outer)


def lower_bound_assembly(report: DoublingReport, nodal: NodalSet) -> dict:
    """Assemble the good balls' nodal lengths into a total-length lower bound.

    Each good ball contributes its nodal length inside the inner radius;
    the sum divided by the overlap bound 16 can never exceed the true total
    length.  Also reports the implied per-ball constant
    a3 = min over good balls of (length * lam).
    """
    good_lengths = clip_lengths(nodal, report.centers[report.good], report.inner.radius)
    bound = float(np.sum(good_lengths)) / OVERLAP_VOLUME_BOUND
    a3 = float(np.min(good_lengths) * report.lam) if good_lengths.size else float("nan")
    return {
        "assembled_lower_bound": bound,
        "a3_hat": a3,
        "good_count": int(np.sum(report.good)),
    }


def doubling_stage(field, nodal: NodalSet, a1: float, a2: float,
                   seed: int) -> tuple[DoublingReport, dict]:
    """Classify the cover at half the outer radius, drawn from seed, and assemble its bound."""
    require_doubling_constants(a1, a2)
    require_resolved_doubling(field.spec_lambda, a1, field.resolution)
    family = build_cover(_outer_radius(field.spec_lambda, a1) / 2.0, seed)
    report = classify_doubling(field, family.centers, a1=a1, a2=a2)
    return report, lower_bound_assembly(report, nodal)


def report_to_json(report: DoublingReport) -> str:
    obj = {
        "a1": report.a1,
        "a2": report.a2,
        "lambda": report.lam,
        "inner_radius": report.inner.radius,
        "outer_radius": report.outer.radius,
        "count": len(report.centers),
        "good_fraction": report.good_fraction,
        "ratios": [float(x) for x in report.ratios],
        "good": [bool(x) for x in report.good],
        "has_nodal_point": [bool(x) for x in report.has_nodal_point],
        "centers": [[float(p[0]), float(p[1])] for p in report.centers],
    }
    return json.dumps(obj, sort_keys=True)
