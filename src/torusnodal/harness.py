"""End-to-end experiment driver.

Runs the full pipeline over an ensemble of random eigenfunctions
(sample, extract, ball statistics, covering, doubling, growth),
evaluates the comparability checks behind the headline claims, and
folds everything into a deterministic VerificationReport:

* ball_table             L2 mass ratio and clipped nodal pieces of every
                         cover ball of one run
* function_integrals     area and nodal line integral of every test
                         function of one run
* check_yau_scaling      total nodal length vs frequency across energies
* check_theorem_1        per-ball nodal length vs ball volume, conditional
                         on the ball passing a mass-equidistribution band
* check_theorem_2        nodal line integrals of nonnegative test
                         functions vs their area integrals
* replicate_bound_chain  every intermediate inequality linking the
                         per-ball constants to the global bounds, with
                         explicit modulus-of-continuity corrections

Theorem 1, the band fraction and every test function's chain read the
same BallTable; none of them clips or integrates over a ball itself.
Theorem 2 and the chains read the same FunctionIntegrals; neither
integrates f over the torus or the nodal set itself.

Reports are bit-identical across reruns of the same plan: all seeds are
derived arithmetically from the plan, all reductions run in plan order,
and serialization goes through json.dumps with sorted keys.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field as dataclass_field
from typing import Callable, NamedTuple

import numpy as np

from .ballstats import (BallMassReport, ScaleFunction, ball_mass_scan, require_resolved_radius,
                        sse_extremes)
from .covering import BallFamily, build_cover
from .doubling import (DEFAULT_A1, DEFAULT_A2, OUTER_FACTOR, classify_doubling, lower_bound_assembly,
                       require_resolved_doubling)
from .eigenbasis import (SampledField, enumerate_modes, random_eigenfunction, sample_grid,
                         sine_mode_spec)
from .errors import (BallTooLarge, ChainStepViolated, DivisionByNegligibleMass, EmptySpectrum,
                     NegativeTestFunction, RadiusUnderResolved)
from .growth import growth_report
from .nodal import NodalSet, ball_sums, clip_family, extract_nodal, integrate_over_nodal
from .svgplot import render_svg
from .torus import periodic_distance


# ---------------------------------------------------------------------------
# test functions


@dataclass(frozen=True)
class TestFunction:
    """Nonnegative function on the torus with a known continuity budget.

    fn maps an (M, 2) array of points to an (M,) array of values.
    lipschitz is any valid upper bound for the Lipschitz constant with
    respect to periodic distance; spread bounds max f - min f.  Both feed
    the modulus-of-continuity corrections in the bound chain, so they
    must be true upper bounds, not estimates.
    """

    __test__ = False  # bare data holder; keep pytest collection away

    name: str
    fn: Callable[[np.ndarray], np.ndarray]
    lipschitz: float
    spread: float

    def __call__(self, points: np.ndarray) -> np.ndarray:
        return self.fn(np.asarray(points, dtype=float))

    def modulus(self, h: float) -> float:
        """Upper bound for max |f(x) - f(y)| over d(x, y) <= h."""
        return min(self.lipschitz * max(h, 0.0), self.spread)


def _f_one(pts: np.ndarray) -> np.ndarray:
    return np.ones(pts.shape[:-1])


def _f_cos_x(pts: np.ndarray) -> np.ndarray:
    return 1.0 + np.cos(2.0 * np.pi * pts[..., 0])


def _f_cos_y(pts: np.ndarray) -> np.ndarray:
    return 1.0 + np.cos(2.0 * np.pi * pts[..., 1])


BUMP_CENTER = (0.5, 0.5)
BUMP_WIDTH = 0.25
# max |d/dt exp(1 - 1/(1 - t^2))| = 2.17036 (at t = 0.75984), divided by
# the width 1/4 and rounded up; see scripts/bump_constants.py.
BUMP_LIPSCHITZ = 8.69


def _f_bump(pts: np.ndarray) -> np.ndarray:
    d = periodic_distance(pts, np.asarray(BUMP_CENTER))
    t = d / BUMP_WIDTH
    out = np.zeros(pts.shape[:-1])
    inside = t < 1.0
    ti = t[inside]
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - ti * ti))
    return out


TEST_FUNCTIONS: dict[str, TestFunction] = {
    "one": TestFunction("one", _f_one, 0.0, 0.0),
    "cos_x": TestFunction("cos_x", _f_cos_x, 2.0 * np.pi, 2.0),
    "cos_y": TestFunction("cos_y", _f_cos_y, 2.0 * np.pi, 2.0),
    "bump": TestFunction("bump", _f_bump, BUMP_LIPSCHITZ, 1.0),
}


def resolve_test_functions(names) -> tuple[TestFunction, ...]:
    out = []
    for item in names:
        if isinstance(item, TestFunction):
            out.append(item)
        elif item in TEST_FUNCTIONS:
            out.append(TEST_FUNCTIONS[item])
        else:
            raise ValueError(f"unknown test function {item!r}; "
                             f"known: {sorted(TEST_FUNCTIONS)}")
    return tuple(out)


@functools.cache
def torus_integral(tf: TestFunction, n: int = 512) -> float:
    """Area integral of f over the unit torus by the periodic grid rule, once per process."""
    t = np.arange(n) / n
    pts = np.stack(np.meshgrid(t, t, indexing="ij"), axis=-1).reshape(-1, 2)
    return float(np.mean(tf(pts)))


class FunctionIntegrals(NamedTuple):
    """Area integral (on the field's grid) and nodal line integral of one f."""

    tf: TestFunction
    area: float
    nodal: float


def function_integrals(field: SampledField, nodal: NodalSet,
                       test_functions) -> tuple[FunctionIntegrals, ...]:
    """Both integrals of every test function, computed once per run."""
    return tuple(FunctionIntegrals(tf, torus_integral(tf, field.resolution),
                                   integrate_over_nodal(nodal, tf.fn))
                 for tf in resolve_test_functions(test_functions))


# ---------------------------------------------------------------------------
# plans


DEFAULT_TOLERANCES: dict[str, float | tuple[float, float]] = {
    "yau_window": 3.0,
    "yau_median_drift": 0.15,
    "sse_band": (0.3, 3.0),
    "sse_min_fraction": 0.9,
    "theorem1_inclusion_band": (0.1, 10.0),
    "theorem1_floor": 0.02,
    "theorem1_ceiling": 50.0,
    "theorem1_window": 100.0,
    "theorem2_window": 10.0,
    "good_fraction_min": 0.5,
    "c9_window": 2.0,
}

_QUADRATURE_SLACK = 1e-6
# Points per side of the square lattice behind the chain's sup and inf estimates.
_LATTICE_SIDE = 9


@dataclass(frozen=True)
class ExperimentPlan:
    """Declarative description of one verification ensemble.

    Grids follow N(E) = max(grid_min, grid_per_sqrt_energy * ceil(sqrt(E)));
    every derived radius and resolution is validated against the module
    preconditions up front, so a plan that constructs at all can run, and
    no two stages of the plan may draw from the same seed.
    """

    energies: tuple[int, ...]
    seeds_per_energy: int = 20
    rho: float = 0.5
    grid_min: int = 256
    grid_per_sqrt_energy: int = 16
    test_functions: tuple[str, ...] = ("one", "cos_x", "cos_y", "bump")
    include_low_energy_control: bool = True
    doubling_a1: float = DEFAULT_A1
    doubling_a2: float = DEFAULT_A2
    growth_delta: float = 0.25
    svg: bool = False
    base_seed: int = 0
    tolerances: dict = dataclass_field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "energies", tuple(int(e) for e in self.energies))
        if not self.energies:
            raise ValueError("plan needs at least one energy")
        for e in self.energies:
            try:
                enumerate_modes(e)
            except EmptySpectrum:
                raise EmptySpectrum(f"empty spectrum at E={e}") from None
        if not 0.0 < self.rho < 1.0:
            raise ValueError(
                f"rho must lie in the open interval (0, 1) for torus plans; got {self.rho!r}")
        if self.seeds_per_energy < 1:
            raise ValueError("seeds_per_energy must be at least 1")
        if self.grid_min < 64:
            raise ValueError("grid_min below 64 leaves no room for ball quadrature")
        if self.grid_per_sqrt_energy < 1:
            raise ValueError("grid_per_sqrt_energy must be at least 1")
        object.__setattr__(self, "test_functions", tuple(self.test_functions))
        resolve_test_functions(self.test_functions)
        if not self.test_functions:
            raise ValueError("plan needs at least one test function")
        if self.doubling_a1 <= 0.0 or self.doubling_a2 <= 0.0:
            raise ValueError("doubling constants must be positive")
        if not 0.0 < self.growth_delta <= 1.0:
            raise ValueError("growth_delta must lie in (0, 1]")
        merged = dict(DEFAULT_TOLERANCES)
        for key, value in dict(self.tolerances).items():
            if key not in DEFAULT_TOLERANCES:
                raise ValueError(f"unknown tolerance {key!r}")
            merged[key] = tuple(value) if isinstance(value, (list, tuple)) else float(value)
        object.__setattr__(self, "tolerances", merged)
        scale = ScaleFunction(self.rho)
        for e in self.energies:
            n = self.grid_for(e)
            if n < math.ceil(10.0 * math.sqrt(e)):
                raise ValueError(f"grid {n} too coarse for exact sampling at E={e}")
            lam = 2.0 * math.pi * math.sqrt(e)
            r = scale(lam)
            try:
                if r < 0.25:
                    require_resolved_radius(r, n)
                if OUTER_FACTOR * self.doubling_a1 / lam < 0.25:
                    require_resolved_doubling(lam, self.doubling_a1, n)
            except (BallTooLarge, RadiusUnderResolved) as exc:
                raise ValueError(f"{exc} at E={e}") from None
        owners: dict[int, str] = {}
        stages = [(e, s, t, f"E={e} seed {s} stage {t}") for e in self.energies
                  for s in range(self.seeds_per_energy) for t in range(4)]
        if self.include_low_energy_control:
            stages.append((1, 0, 4, "the control (stage 4)"))
        for e, s, t, name in stages:
            value = _stage_seed(self, e, s, t)
            if value in owners:
                raise ValueError(f"stage seeds collide: {owners[value]} and {name} "
                                 f"both derive seed {value}")
            owners[value] = name

    def grid_for(self, energy: int) -> int:
        return max(self.grid_min, self.grid_per_sqrt_energy * math.ceil(math.sqrt(energy)))

    def scale(self) -> ScaleFunction:
        return ScaleFunction(self.rho)

    def to_json(self) -> str:
        return json.dumps({f: getattr(self, f) for f in self.__dataclass_fields__},
                          sort_keys=True, indent=1)


def plan_from_json(text: str) -> ExperimentPlan:
    obj = json.loads(text)
    if not isinstance(obj, dict):
        raise ValueError("plan file must hold a JSON object")
    known = {f for f in ExperimentPlan.__dataclass_fields__}
    for key in obj:
        if key not in known:
            raise ValueError(f"unknown plan field {key!r}")
    if "energies" not in obj:
        raise ValueError("plan is missing the energies list")
    kwargs = dict(obj)
    kwargs["energies"] = tuple(kwargs["energies"])
    if "test_functions" in kwargs:
        kwargs["test_functions"] = tuple(kwargs["test_functions"])
    return ExperimentPlan(**kwargs)


def _stage_seed(plan: ExperimentPlan, energy: int, seed: int, stage: int) -> int:
    """Deterministic per-stage seed: all randomness derives from the plan."""
    return plan.base_seed * 1_000_003 + energy * 1_009 + seed * 101 + stage


# ---------------------------------------------------------------------------
# per-ball table


class BallTable(NamedTuple):
    """Per-ball quantities of one field and nodal set over one cover family.

    ball_table clips the whole cover in one clip_family call; theorem 1, the
    band fraction and the bound chain of each test function all read from here.
    The radius and frequency are those of the mass scan, r = scale(lam).
    Ball k's clipped pieces are rows offsets[k]:offsets[k + 1] of piece_len
    and piece_mid.
    """

    family: BallFamily
    mass: BallMassReport
    piece_len: np.ndarray
    piece_mid: np.ndarray
    offsets: np.ndarray
    lengths: np.ndarray
    nonempty: np.ndarray
    piece_max: float


def ball_table(field: SampledField, nodal: NodalSet, scale: ScaleFunction,
               family: BallFamily) -> BallTable:
    """Masses and clipped nodal pieces of every ball B(x, scale(lam)) of family."""
    r = scale(field.spec_lambda)
    if abs(family.radius - r) > 1e-12:
        raise ValueError(f"cover radius {family.radius!r} does not match scale radius {r!r}")
    if family.count < 1 or family.overlap_max < 1:
        raise ValueError(
            f"cover family must have at least one ball and overlap >= 1; "
            f"got count={family.count} overlap_max={family.overlap_max}")
    mass = ball_mass_scan(field, r, centers=family.centers)
    piece_len, piece_mid, offsets = clip_family(nodal, family.centers, r)
    lengths = ball_sums(piece_len, offsets)
    nonempty = np.diff(offsets) > 0
    piece_max = float(np.max(piece_len)) if piece_len.size else 0.0
    return BallTable(family, mass, piece_len, piece_mid, offsets, lengths, nonempty, piece_max)


# ---------------------------------------------------------------------------
# theorem checks


class Theorem1Result(NamedTuple):
    """Per-ball nodal/volume comparability over mass-equidistributed balls."""

    e1_hat: float
    e2_hat: float
    ratios: np.ndarray
    mass_ratios: np.ndarray
    included: int
    excluded: int


def check_theorem_1(table: BallTable,
                    inclusion_band: tuple[float, float] = (0.1, 10.0)) -> Theorem1Result:
    """Ratio (1/lam) * nodal length in B(x, r) / Vol(B) over cover centers.

    Balls whose L2 mass ratio falls outside inclusion_band are excluded
    from the min/max but counted: the comparability claim is conditional
    on mass equidistribution at the ball, so off-band balls carry no
    information either way and silently mixing them in would be wrong.
    """
    r = table.mass.radius
    vol = math.pi * r * r
    mass_ratios = table.mass.ratios
    ratios = (table.lengths / table.mass.lam) / vol
    lo, hi = inclusion_band
    keep = (mass_ratios >= lo) & (mass_ratios <= hi)
    included = int(np.sum(keep))
    if included:
        e1, e2 = float(np.min(ratios[keep])), float(np.max(ratios[keep]))
    else:
        e1, e2 = float("nan"), float("nan")
    return Theorem1Result(e1, e2, ratios[keep], mass_ratios,
                          included, int(mass_ratios.size - included))


class Theorem2Result(NamedTuple):
    """Spread of (1/lam) * nodal integral of f over area integral of f."""

    c1_hat: float
    c2_hat: float
    rho_by_name: dict
    integral_by_name: dict
    trivial_names: tuple


def check_theorem_2(field: SampledField,
                    integrals: tuple[FunctionIntegrals, ...]) -> Theorem2Result:
    """Weak-limit comparability against a suite of nonnegative functions.

    For f identically zero both sides vanish and the claim is vacuous, so
    such entries are recorded as trivial and excluded from the spread.
    """
    lam = field.spec_lambda
    rho_by_name: dict[str, float] = {}
    integral_by_name: dict[str, float] = {}
    trivial: list[str] = []
    for tf, denom, numer in integrals:
        integral_by_name[tf.name] = denom
        if denom < 1e-30:
            if numer < 1e-30:
                trivial.append(tf.name)
                continue
            raise DivisionByNegligibleMass(
                f"test function {tf.name!r} has negligible area integral "
                f"but nodal integral {numer!r}")
        rho_by_name[tf.name] = (numer / lam) / denom
    if rho_by_name:
        values = list(rho_by_name.values())
        c1, c2 = min(values), max(values)
    else:
        c1, c2 = float("nan"), float("nan")
    return Theorem2Result(c1, c2, rho_by_name, integral_by_name, tuple(trivial))


def check_yau_scaling(yau_by_energy: dict, window: float = 3.0,
                      median_drift: float = 0.15) -> dict:
    """Linear-in-frequency scaling of total nodal length across an ensemble.

    Expects a mapping energy -> list of yau ratios (total length / lam)
    from at least 3 energies with at least 10 runs each.  Passes when the
    overall max/min ratio stays within `window` and per-energy medians
    stay within `median_drift` of each other.  A zero ratio (a run, or an
    energy's median, with no nodal length) leaves that ratio without a
    finite value: it is reported as None and the check fails.
    """
    if len(yau_by_energy) < 3:
        raise ValueError("yau scaling check needs at least 3 energies")
    for e, vals in yau_by_energy.items():
        if len(vals) < 10:
            raise ValueError(f"yau scaling check needs >= 10 runs per energy; "
                             f"E={e} has {len(vals)}")
    all_vals = np.concatenate([np.asarray(v, dtype=float)
                               for v in yau_by_energy.values()])
    medians = {int(e): float(np.median(np.asarray(v, dtype=float)))
               for e, v in yau_by_energy.items()}
    lowest = float(np.min(all_vals))
    overall = float(np.max(all_vals)) / lowest if lowest > 0.0 else None
    med_vals = list(medians.values())
    drift = max(med_vals) / min(med_vals) - 1.0 if min(med_vals) > 0.0 else None
    return {
        "pass": bool(overall is not None and drift is not None
                     and overall <= window and drift <= median_drift),
        "overall_ratio": overall,
        "median_by_energy": medians,
        "median_drift": drift,
        "window": window,
        "median_drift_limit": median_drift,
    }


# ---------------------------------------------------------------------------
# bound chain


class ChainStep(NamedTuple):
    """One inequality of the chain: holds iff lhs <= rhs + slack (+eps)."""

    name: str
    lhs: float
    rhs: float
    slack: float
    holds: bool
    note: str


@dataclass(frozen=True)
class ChainTrace:
    """Full numeric trace of the lower and upper bound chains for one f."""

    f_name: str
    radius: float
    n_balls: int
    overlap: int
    empty_balls: int
    e1_chain: float
    e2_chain: float
    integral_f: float
    corr_lower: float
    corr_upper: float
    hypothesis_met: bool
    message: str
    steps: tuple[ChainStep, ...]

    @property
    def ok(self) -> bool:
        return all(s.holds for s in self.steps)


def _step(name: str, lhs: float, rhs: float, slack: float, note: str = "") -> ChainStep:
    eps = 1e-9 * (1.0 + abs(lhs) + abs(rhs))
    return ChainStep(name, lhs, rhs, slack, bool(lhs <= rhs + slack + eps), note)


def _lattice_values(tf: TestFunction, centers: np.ndarray, half_side: float) -> np.ndarray:
    """f on the square lattice of half side half_side around each center, one row each."""
    t = np.linspace(-half_side, half_side, _LATTICE_SIDE)
    gx, gy = np.meshgrid(t, t, indexing="ij")
    pts = centers[:, None, :] + np.stack([gx.ravel(), gy.ravel()], axis=-1)
    return tf(pts.reshape(-1, 2)).reshape(len(centers), -1)


def _lattice_gap(half_side: float) -> float:
    return (2.0 * half_side / (_LATTICE_SIDE - 1)) * math.sqrt(2.0) / 2.0


def replicate_bound_chain(field: SampledField, nodal: NodalSet, table: BallTable,
                          integrals: FunctionIntegrals,
                          raise_on_violation: bool = True) -> ChainTrace:
    """Replicate both inequality chains tying per-ball constants to global bounds.

    Lower chain: the nodal integral of f is bounded below through cover
    sums weighted by per-ball minima, the smallest per-ball nodal density
    e1_chain, and the cover's capture of the area integral up to explicit
    modulus-of-continuity corrections.  Upper chain: bounded above through
    per-ball maxima, the largest per-ball density e2_chain, and the
    disjointness of the half-radius cores.  Every intermediate inequality
    is asserted numerically with computable slack; a failure names its
    step.  When the modulus correction swamps the area integral of f the
    lower conclusion is vacuous at this scale; the trace reports that
    instead of failing, since the comparability claims are asymptotic.
    """
    tf, integral_f, total_integral = integrals
    lam = field.spec_lambda
    r = table.mass.radius
    fam = table.family
    vol = math.pi * r * r
    n_balls = fam.count
    overlap = fam.overlap_max

    total_length = nodal.total_length
    seg_max = float(np.max(nodal.lengths)) if nodal.count else 0.0

    # f once over every clipped piece; ball k's values are one slice of it.
    ball_length = table.lengths
    nonempty = table.nonempty
    piece_max = table.piece_max
    vals = tf(table.piece_mid)
    starts = table.offsets[:-1][nonempty]
    f_min = np.zeros(n_balls)
    f_max = np.zeros(n_balls)
    if starts.size:
        f_min[nonempty] = np.minimum.reduceat(vals, starts)
        f_max[nonempty] = np.maximum.reduceat(vals, starts)
    negative = np.flatnonzero(f_min < -1e-9)
    if negative.size:
        raise NegativeTestFunction(
            f"test function {tf.name!r} dips to {float(f_min[negative[0]])!r}")
    ball_integral = ball_sums(vals * table.piece_len, table.offsets)

    # Midpoint-rule error budget for curve integrals: each quadrature node
    # sits within half a piece of every point of its piece.
    slack_cover = (tf.modulus(piece_max / 2.0) * float(np.sum(ball_length))
                   + tf.modulus(seg_max / 2.0) * total_length)
    slack_overlap = (tf.modulus(piece_max / 2.0) * float(np.sum(ball_length))
                     + overlap * tf.modulus(seg_max / 2.0) * total_length)

    density = (ball_length / lam) / vol
    e1_chain = float(np.min(density)) if n_balls else float("nan")
    e2_chain = float(np.max(density)) if n_balls else float("nan")
    empty_balls = int(n_balls - np.sum(nonempty))

    # Cover-side corrections to the area integral.  sup estimates use
    # a 9x9 lattice on the bounding square plus the Lipschitz gap, so they
    # upper-bound the true sup over the ball; inf estimates subtract the
    # gap, so they lower-bound the true inf over the half-radius core.
    probe_eps = math.sqrt(2.0) / (2.0 * fam.probe_resolution)
    sup_half_side = r + probe_eps
    sup_est = (np.max(_lattice_values(tf, fam.centers, sup_half_side), axis=1)
               + tf.lipschitz * _lattice_gap(sup_half_side))
    inf_est = (np.min(_lattice_values(tf, fam.centers, r / 2.0), axis=1)
               - tf.lipschitz * _lattice_gap(r / 2.0))
    enlarged_vol = math.pi * (r + probe_eps) ** 2
    corr_lower = (float(np.sum((sup_est - f_min)[nonempty])) * vol
                  + float(np.sum(sup_est[~nonempty])) * vol
                  + float(np.sum(sup_est)) * (enlarged_vol - vol)
                  + _QUADRATURE_SLACK * (tf.spread + 1.0))
    corr_upper = (float(np.sum((f_max - inf_est)[nonempty])) * (vol / 4.0)
                  + _QUADRATURE_SLACK * (tf.spread + 1.0))

    sum_ball_integral = float(np.sum(ball_integral))
    sum_min_weighted = float(np.sum(f_min * ball_length))
    sum_max_weighted = float(np.sum(f_max * ball_length))
    sum_f_min = float(np.sum(f_min[nonempty]))
    sum_f_max = float(np.sum(f_max[nonempty]))

    hypothesis_met = corr_lower < integral_f
    message = "" if hypothesis_met else (
        f"asymptotic hypothesis unmet at this scale: modulus correction "
        f"{corr_lower:.6g} >= area integral {integral_f:.6g}; the lower "
        f"conclusion is vacuous here and only binds as the frequency grows")

    lower_conclusion = (e1_chain * max(integral_f - corr_lower, 0.0)
                        - slack_overlap / lam) / overlap
    upper_conclusion = (4.0 * e2_chain * (integral_f + corr_upper)
                        + slack_cover / lam)

    steps = (
        _step("nodal_coverage_superadditivity", total_integral, sum_ball_integral,
              slack_cover,
              "every nodal point lies in some cover ball, so ball integrals "
              "jointly capture the full curve integral"),
        _step("nodal_overlap_subadditivity", sum_ball_integral,
              overlap * total_integral, slack_overlap,
              "each nodal point is counted at most overlap_max times"),
        _step("ball_min_value", sum_min_weighted, sum_ball_integral, 0.0,
              "per ball, the integral dominates min f times captured length"),
        _step("ball_max_value", sum_ball_integral, sum_max_weighted, 0.0,
              "per ball, max f times captured length dominates the integral"),
        _step("per_ball_nodal_floor", e1_chain * lam * vol,
              float(np.min(ball_length)) if n_balls else 0.0, 0.0,
              f"e1_chain = {e1_chain!r} realizes the smallest per-ball density"),
        _step("per_ball_nodal_ceiling",
              float(np.max(ball_length)) if n_balls else 0.0,
              e2_chain * lam * vol, 0.0,
              f"e2_chain = {e2_chain!r} realizes the largest per-ball density"),
        _step("weighted_floor_sum", e1_chain * vol * sum_f_min,
              sum_min_weighted / lam, 0.0,
              "weighting the per-ball floor by min f and summing"),
        _step("weighted_ceiling_sum", sum_max_weighted / lam,
              e2_chain * vol * sum_f_max, 0.0,
              "weighting the per-ball ceiling by max f and summing"),
        _step("cover_captures_integral", integral_f - corr_lower,
              vol * sum_f_min, 0.0,
              "enlarged cover balls capture the area integral up to the "
              "modulus correction and the probe-lattice margin"),
        _step("disjoint_cores_bound_integral", vol * sum_f_max,
              4.0 * (integral_f + corr_upper), 0.0,
              "half-radius cores are disjoint, so core sums cannot exceed "
              "the area integral; full balls cost the area factor 4"),
        _step("lower_conclusion", lower_conclusion, total_integral / lam, 0.0,
              "composite lower bound for the curve integral of f"),
        _step("upper_conclusion", total_integral / lam, upper_conclusion, 0.0,
              "composite upper bound for the curve integral of f"),
    )
    trace = ChainTrace(
        f_name=tf.name, radius=r, n_balls=n_balls, overlap=overlap,
        empty_balls=empty_balls, e1_chain=e1_chain, e2_chain=e2_chain,
        integral_f=integral_f, corr_lower=corr_lower, corr_upper=corr_upper,
        hypothesis_met=hypothesis_met, message=message, steps=steps,
    )
    if raise_on_violation:
        for s in steps:
            if not s.holds:
                raise ChainStepViolated(s.name, s.lhs, s.rhs + s.slack)
    return trace


# ---------------------------------------------------------------------------
# single runs


@dataclass(frozen=True)
class RunResult:
    """Everything one (energy, seed) pipeline run contributes to the report.

    Fields that a run cannot compute (degenerate scale radius, doubling
    radius too large for the energy) hold None and the reason appears in
    flags; gates never silently treat missing values as passing.  svg holds
    the run's picture when the plan asks for one; it is written to its own
    file and stays out of the report and the CSV.
    """

    energy: int
    seed: int
    grid: int
    lam: float
    radius: float
    total_length: float
    yau_ratio: float
    segment_count: int
    degenerate: bool
    flags: tuple[str, ...]
    d1: float | None = None
    d2: float | None = None
    sse_fraction: float | None = None
    cover_count: int | None = None
    overlap_max: int | None = None
    e1_hat: float | None = None
    e2_hat: float | None = None
    t1_included: int | None = None
    t1_excluded: int | None = None
    c1_hat: float | None = None
    c2_hat: float | None = None
    rho_by_f: dict | None = None
    chain_ok: bool | None = None
    chain_hypothesis_met: int | None = None
    chain_e1: float | None = None
    chain_e2: float | None = None
    good_fraction: float | None = None
    good_count: int | None = None
    sign_change_fraction: float | None = None
    assembled_lower_bound: float | None = None
    a3_hat: float | None = None
    c7_max: float | None = None
    c9_hat: float | None = None
    strip_sup: float | None = None
    strip_certificate: float | None = None
    real_sup: float | None = None
    svg: str | None = dataclass_field(default=None, repr=False, compare=False)


def run_single(plan: ExperimentPlan, energy: int, seed: int) -> RunResult:
    """One full pipeline pass for a single random eigenfunction."""
    spec = random_eigenfunction(energy, _stage_seed(plan, energy, seed, 0))
    n = plan.grid_for(energy)
    field = sample_grid(spec, n)
    nodal = extract_nodal(field)
    lam = spec.lam
    scale = plan.scale()
    r = scale(lam)
    flags: list[str] = []

    degenerate = r >= 0.25 or len(spec.modes) < 8
    if r >= 0.25:
        flags.append("scale_radius_exceeds_quarter")
    if len(spec.modes) < 8:
        flags.append("too_few_modes_for_ensemble_statistics")

    base = dict(
        energy=energy, seed=seed, grid=n, lam=lam, radius=r,
        total_length=nodal.total_length, yau_ratio=nodal.total_length / lam,
        segment_count=nodal.count, degenerate=degenerate,
    )
    if degenerate:
        flags.append("degenerate_run_excluded_from_gates")
        return RunResult(**base, flags=tuple(flags),
                         svg=render_svg(nodal) if plan.svg else None)

    d1, d2 = sse_extremes(field, scale, n_random=100, seed=_stage_seed(plan, energy, seed, 1))
    fam = build_cover(r, _stage_seed(plan, energy, seed, 2))
    table = ball_table(field, nodal, scale, fam)
    tol = plan.tolerances
    t1 = check_theorem_1(table, inclusion_band=tuple(tol["theorem1_inclusion_band"]))
    sse_fraction = table.mass.in_band_fraction(*tol["sse_band"])
    integrals = function_integrals(field, nodal, plan.test_functions)
    t2 = check_theorem_2(field, integrals)

    chain_ok = True
    chain_met = 0
    chain_e1 = None
    chain_e2 = None
    for fi in integrals:
        trace = replicate_bound_chain(field, nodal, table, fi, raise_on_violation=False)
        chain_ok = chain_ok and trace.ok
        chain_met += int(trace.hypothesis_met)
        chain_e1, chain_e2 = trace.e1_chain, trace.e2_chain

    doubling_kwargs: dict = {}
    r_out = OUTER_FACTOR * plan.doubling_a1 / lam
    if r_out < 0.25:
        fam_d = build_cover(r_out / 2.0, _stage_seed(plan, energy, seed, 3))
        rep = classify_doubling(field, fam_d.centers,
                                a1=plan.doubling_a1, a2=plan.doubling_a2)
        assembly = lower_bound_assembly(rep, nodal)
        doubling_kwargs = dict(
            good_fraction=rep.good_fraction,
            good_count=assembly["good_count"],
            sign_change_fraction=rep.nodal_fraction_among_good,
            assembled_lower_bound=assembly["assembled_lower_bound"],
            a3_hat=assembly["a3_hat"],
        )
    else:
        flags.append("doubling_radius_too_large_at_this_energy")

    growth = growth_report(field, r, plan.growth_delta, energy ** -0.5)

    return RunResult(
        **base, flags=tuple(flags),
        d1=d1, d2=d2, sse_fraction=sse_fraction,
        cover_count=fam.count, overlap_max=fam.overlap_max,
        e1_hat=t1.e1_hat, e2_hat=t1.e2_hat,
        t1_included=t1.included, t1_excluded=t1.excluded,
        c1_hat=t2.c1_hat, c2_hat=t2.c2_hat, rho_by_f=dict(t2.rho_by_name),
        chain_ok=chain_ok, chain_hypothesis_met=chain_met,
        chain_e1=chain_e1, chain_e2=chain_e2,
        **doubling_kwargs,
        c7_max=growth.c7_max, c9_hat=growth.c9_hat,
        strip_sup=growth.strip_sup, strip_certificate=growth.strip_certificate,
        real_sup=growth.real_sup,
        svg=render_svg(nodal, fam.centers, fam.radius) if plan.svg else None,
    )


def control_run(plan: ExperimentPlan) -> dict:
    """Single-mode low-energy control at the reference radius of the top tier.

    A lone mode concentrates no mass near its nodal lines, so balls
    centered there carry ratios near zero and the equidistribution band
    must fail; the control documents that the band is a real condition,
    not an artifact of the pipeline.
    """
    scale = plan.scale()
    lam_top = 2.0 * math.pi * math.sqrt(max(plan.energies))
    r_ref = scale(lam_top)
    spec = sine_mode_spec(1)
    n = max(plan.grid_for(1), math.ceil(24.0 / r_ref))
    field = sample_grid(spec, n)
    fam = build_cover(r_ref, _stage_seed(plan, 1, 0, 4))
    scan = ball_mass_scan(field, r_ref, centers=fam.centers)
    fraction = scan.in_band_fraction(*plan.tolerances["sse_band"])
    return {
        "energy": 1,
        "grid": n,
        "radius_ref": r_ref,
        "ball_count": scan.count,
        "d1": scan.d1,
        "d2": scan.d2,
        "in_band_fraction": fraction,
        "passes_band_gate": bool(fraction >= float(plan.tolerances["sse_min_fraction"])),
    }


# ---------------------------------------------------------------------------
# plan execution and reporting


@dataclass(frozen=True)
class VerificationReport:
    plan: ExperimentPlan
    runs: tuple[RunResult, ...]
    control: dict | None
    aggregates: dict
    verdicts: dict

    @property
    def all_pass(self) -> bool:
        return all(v["pass"] for v in self.verdicts.values() if v["pass"] is not None)


_AGGREGATE_FIELDS = ("yau_ratio", "d1", "d2", "sse_fraction", "e1_hat", "e2_hat",
                     "c1_hat", "c2_hat", "good_fraction", "c7_max", "c9_hat")


def run_plan(plan: ExperimentPlan, threads: int = 1,
             progress: Callable[[str], None] | None = None) -> VerificationReport:
    """Execute every (energy, seed) run of the plan and fold the report.

    Runs are independent; with threads > 1 they execute in a process pool
    while the fold stays in plan order, so the report is identical either
    way.  The pool takes the highest energies (the longest runs) first and
    the control last, so a late heavy run does not leave the other workers
    idle.
    """
    if threads < 1:
        raise ValueError(f"threads must be at least 1; got {threads!r}")
    jobs = [(plan, e, s) for e in plan.energies
            for s in range(plan.seeds_per_energy)]
    runs = []
    control = None
    with (ProcessPoolExecutor(max_workers=threads) if threads > 1
          else contextlib.nullcontext()) as pool:
        if pool:
            futures = [None] * len(jobs)
            for k in sorted(range(len(jobs)), key=lambda k: -jobs[k][1]):
                futures[k] = pool.submit(run_single, *jobs[k])
            if plan.include_low_energy_control:
                control = pool.submit(control_run, plan)
            results = (f.result() for f in futures)
        else:
            results = (run_single(*job) for job in jobs)
        for run in results:
            runs.append(run)
            if progress is not None:
                progress(f"E={run.energy} seed={run.seed} done")
    if plan.include_low_energy_control:
        control = control.result() if pool else control_run(plan)
    aggregates = _aggregate(plan, runs)
    verdicts = _verdicts(plan, runs, control)
    return VerificationReport(plan, tuple(runs), control, aggregates, verdicts)


def _aggregate(plan: ExperimentPlan, runs: list[RunResult]) -> dict:
    out: dict[str, dict] = {}
    for e in plan.energies:
        stats: dict[str, dict] = {}
        per_energy = [r for r in runs if r.energy == e]
        for name in _AGGREGATE_FIELDS:
            vals = [getattr(r, name) for r in per_energy]
            vals = [v for v in vals if v is not None and not math.isnan(v)]
            if vals:
                arr = np.asarray(vals, dtype=float)
                stats[name] = {"min": float(np.min(arr)),
                               "median": float(np.median(arr)),
                               "max": float(np.max(arr)),
                               "count": int(arr.size)}
        out[str(e)] = stats
    return out


def _verdicts(plan: ExperimentPlan, runs: list[RunResult],
              control: dict | None) -> dict:
    tol = plan.tolerances
    verdicts: dict[str, dict] = {}
    live = [r for r in runs if not r.degenerate]
    top = max(plan.energies)
    top_runs = [r for r in live if r.energy == top]

    yau_by_energy = {}
    for e in plan.energies:
        vals = [r.yau_ratio for r in live if r.energy == e]
        if vals:
            yau_by_energy[e] = vals
    if len(yau_by_energy) >= 3 and all(len(v) >= 10 for v in yau_by_energy.values()):
        verdicts["yau_scaling"] = check_yau_scaling(
            yau_by_energy, window=float(tol["yau_window"]),
            median_drift=float(tol["yau_median_drift"]))
    else:
        verdicts["yau_scaling"] = {
            "pass": None,
            "note": "needs >= 3 energies with >= 10 non-degenerate runs each"}

    band = tuple(tol["sse_band"])
    min_fraction = float(tol["sse_min_fraction"])
    if top_runs:
        fractions = [r.sse_fraction for r in top_runs]
        counts = [r.cover_count for r in top_runs]
        pooled = (sum(f * c for f, c in zip(fractions, counts))
                  / max(sum(counts), 1))
        verdicts["sse_band"] = {
            "pass": bool(pooled >= min_fraction),
            "pooled_fraction": float(pooled),
            "min_run_fraction": float(min(fractions)),
            "band": list(band),
            "energy": top,
        }
    else:
        verdicts["sse_band"] = {"pass": None, "note": "no non-degenerate runs at top energy"}

    if control is not None:
        verdicts["control_fails_band"] = {
            "pass": bool(not control["passes_band_gate"]),
            "in_band_fraction": control["in_band_fraction"],
            "d1": control["d1"],
        }
    else:
        verdicts["control_fails_band"] = {"pass": None, "note": "control disabled"}

    if top_runs:
        e1s = [r.e1_hat for r in top_runs]
        e2s = [r.e2_hat for r in top_runs]
        floor = float(tol["theorem1_floor"])
        ceiling = float(tol["theorem1_ceiling"])
        window = float(tol["theorem1_window"])
        pooled_e1, pooled_e2 = min(e1s), max(e2s)
        # An in-band ball with no nodal length gives e1 = 0: no finite window.
        observed = pooled_e2 / pooled_e1 if pooled_e1 > 0.0 else None
        verdicts["theorem1_comparability"] = {
            "pass": bool(all(e > floor for e in e1s)
                         and all(e < ceiling for e in e2s)
                         and observed is not None and observed <= window),
            "e1_pooled": pooled_e1,
            "e2_pooled": pooled_e2,
            "window_observed": observed,
            "excluded_balls": int(sum(r.t1_excluded for r in top_runs)),
            "included_balls": int(sum(r.t1_included for r in top_runs)),
        }
        # A test function with area mass but no nodal mass gives c1 = 0.
        spread = (max(r.c2_hat / r.c1_hat for r in top_runs)
                  if all(r.c1_hat > 0.0 for r in top_runs) else None)
        verdicts["theorem2_comparability"] = {
            "pass": bool(spread is not None and spread <= float(tol["theorem2_window"])),
            "max_spread": spread,
        }
        verdicts["chain_steps"] = {
            "pass": bool(all(r.chain_ok for r in top_runs)),
            "runs_checked": len(top_runs),
            "hypothesis_met_counts": [r.chain_hypothesis_met for r in top_runs],
        }
    else:
        for name in ("theorem1_comparability", "theorem2_comparability", "chain_steps"):
            verdicts[name] = {"pass": None, "note": "no non-degenerate runs at top energy"}

    exact = [r for r in live if r.rho_by_f is not None and "one" in r.rho_by_f]
    if exact:
        verdicts["theorem2_one_equals_yau"] = {
            "pass": bool(all(r.rho_by_f["one"] == r.yau_ratio for r in exact)),
            "runs_checked": len(exact),
        }
    else:
        verdicts["theorem2_one_equals_yau"] = {"pass": None, "note": "f = one not in suite"}

    admissible = [r for r in live if r.good_fraction is not None]
    if admissible:
        verdicts["doubling_good_fraction"] = {
            "pass": bool(all(r.good_fraction >= float(tol["good_fraction_min"])
                             for r in admissible)),
            "min_good_fraction": float(min(r.good_fraction for r in admissible)),
            "runs_checked": len(admissible),
        }
        verdicts["doubling_sign_change"] = {
            "pass": bool(all(r.sign_change_fraction == 1.0 for r in admissible)),
            "min_fraction": float(min(r.sign_change_fraction for r in admissible)),
        }
        verdicts["assembly_consistent"] = {
            "pass": bool(all(r.assembled_lower_bound <= r.total_length
                             for r in admissible)),
        }
    else:
        for name in ("doubling_good_fraction", "doubling_sign_change", "assembly_consistent"):
            verdicts[name] = {"pass": None,
                              "note": "no energy admits the doubling radius"}

    c9_medians = {}
    for e in plan.energies:
        vals = [r.c9_hat for r in live if r.energy == e and r.c9_hat is not None]
        if vals:
            c9_medians[str(e)] = float(np.median(np.asarray(vals)))
    if len(c9_medians) >= 2:
        values = list(c9_medians.values())
        ratio = max(values) / min(values) if min(values) > 0.0 else None
        verdicts["growth_c9_uniform"] = {
            "pass": bool(ratio is not None and ratio <= float(tol["c9_window"])),
            "median_by_energy": c9_medians,
            "ratio": ratio,
        }
    else:
        verdicts["growth_c9_uniform"] = {"pass": None,
                                         "note": "needs >= 2 energies with growth runs"}
    return verdicts


def _jsonify(value):
    if isinstance(value, float) and math.isnan(value):
        return None
    if isinstance(value, (np.floating, np.integer)):
        return _jsonify(value.item())
    if isinstance(value, dict):
        return {str(k): _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    return value


def report_to_json(report: VerificationReport) -> str:
    runs = []
    for r in report.runs:
        row = {name: _jsonify(getattr(r, name))
               for name in RunResult.__dataclass_fields__ if name != "svg"}
        runs.append(row)
    obj = {
        "plan": json.loads(report.plan.to_json()),
        "runs": runs,
        "control": _jsonify(report.control),
        "aggregates": _jsonify(report.aggregates),
        "verdicts": _jsonify(report.verdicts),
        "all_pass": report.all_pass,
    }
    return json.dumps(obj, sort_keys=True, indent=1, allow_nan=False)


_CSV_FIELDS = ("energy", "seed", "grid", "lam", "radius", "total_length",
               "yau_ratio", "segment_count", "degenerate", "d1", "d2",
               "sse_fraction", "cover_count", "overlap_max", "e1_hat", "e2_hat",
               "t1_included", "t1_excluded", "c1_hat", "c2_hat", "chain_ok",
               "chain_hypothesis_met", "good_fraction", "good_count",
               "sign_change_fraction", "assembled_lower_bound", "a3_hat",
               "c7_max", "c9_hat", "strip_sup", "real_sup", "flags")


def runs_to_csv(report: VerificationReport) -> str:
    """Per-run table; floats keep full precision via repr."""
    lines = [",".join(_CSV_FIELDS)]
    for r in report.runs:
        cells = []
        for name in _CSV_FIELDS:
            v = getattr(r, name)
            if name == "flags":
                cells.append(";".join(v))
            elif v is None or (isinstance(v, float) and math.isnan(v)):
                cells.append("")
            elif isinstance(v, bool):
                cells.append(str(v).lower())
            elif isinstance(v, float):
                cells.append(repr(v))
            else:
                cells.append(str(v))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"
