"""End-to-end experiment driver.

Runs the full pipeline over an ensemble of random eigenfunctions
(sample, extract, ball statistics, covering, doubling, growth),
evaluates the comparability checks behind the headline claims, and
folds everything into a deterministic VerificationReport:

* ball_table             certified L2 masses, nodal lengths and each test
                         function's terms of every cover ball of one run,
                         reduced from one clip batch of pieces at a time
* function_integrals     area and nodal line integral of every test
                         function of one run
* check_yau_scaling      total nodal length vs frequency across energies
* check_theorem_1        per-ball nodal length vs ball volume, conditional
                         on the ball passing a mass-equidistribution band
* check_theorem_2        nodal line integrals of nonnegative test
                         functions vs their area integrals
* replicate_bound_chain  the six inequalities with content linking the
                         per-ball constants to the global bounds, with
                         explicit modulus-of-continuity corrections
* _verdicts              the gate table behind report.json's verdicts: one
                         row per gate (its runs, skip note and verdict) and
                         one skip rule for a gate without runs

Theorem 1, the band fraction and every test function's chain read the
same BallTable; none of them clips or integrates over a ball itself, and
no array of the family's clipped pieces is held.
Every mass comparison (the SSE extremes and band, the theorem-1 inclusion
band, the control's band and extremes) goes through ballstats.CertifiedMasses,
which runs the ball quadrature only where a mass bracket cannot decide.
Theorem 2 and the chains read the same FunctionIntegrals; neither
integrates f over the torus or the nodal set itself.

Reports are bit-identical across reruns of the same plan: all seeds are
derived arithmetically from the plan, all reductions run in plan order,
and serialization goes through json.dumps with sorted keys.

The process pool loads when a plan first runs workers: the first read of
harness.ProcessPoolExecutor imports the class (module __getattr__) and
keeps it here, where it can be wrapped or replaced.  A serial run, and
every command but a pooled verify, so never imports multiprocessing and
concurrent.futures.process, about 1.4 MB of RSS and 9-17 ms of import.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import sys
from dataclasses import MISSING, dataclass, field as dataclass_field, fields
from typing import Callable, NamedTuple

import numpy as np

from .ballstats import CertifiedMasses, median, require_resolved_radius, scale_radius, sse_scan
from .covering import BallFamily, build_cover, cover_admissible
from .doubling import (DEFAULT_A1, DEFAULT_A2, doubling_admissible, doubling_stage,
                       require_doubling_constants, require_resolved_doubling)
from .eigenbasis import (SampledField, _pin_blas_thread, enumerate_modes, is_int, is_number,
                         random_eigenfunction, require_sampling_grid, sample_grid, sine_mode_spec)
from .errors import (BallTooLarge, DivisionByNegligibleMass, EmptySpectrum, NegativeTestFunction,
                     RadiusUnderResolved, ResolutionTooCoarse)
from .growth import growth_report
from .nodal import NodalSet, ball_sums, clip_batches, extract_nodal, integrate_over_nodal
from .svgplot import render_svg
from .torus import BUDGET_32K, blocks, wrap_delta


# ---------------------------------------------------------------------------
# test functions


@dataclass(frozen=True)
class TestFunction:
    """Nonnegative function on the torus with a known continuity budget.

    fn(x, y) takes two coordinate arrays that broadcast against each other
    and returns, at every position of their broadcast shape, f at the point
    (x, y); its result must broadcast to that shape.  A product grid can so
    be passed as its two axes, (k, 1) and (1, n), and a function that reads
    one coordinate is computed once per value of it.  Calling the function
    on an (..., 2) array of points passes points[..., 0] and points[..., 1].
    lipschitz is any valid upper bound for the Lipschitz constant with
    respect to periodic distance; spread bounds max f - min f.  Both feed
    the modulus-of-continuity corrections in the bound chain, so they
    must be true upper bounds, not estimates.
    """

    __test__ = False  # bare data holder; keep pytest collection away

    name: str
    fn: Callable[[np.ndarray, np.ndarray], np.ndarray]
    lipschitz: float
    spread: float

    def __call__(self, points: np.ndarray) -> np.ndarray:
        points = np.asarray(points, dtype=float)
        return self.fn(points[..., 0], points[..., 1])

    def modulus(self, h: float) -> float:
        """Upper bound for max |f(x) - f(y)| over d(x, y) <= h."""
        return min(self.lipschitz * max(h, 0.0), self.spread)


def _f_one(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return np.ones(np.broadcast_shapes(np.shape(x), np.shape(y)))


def _f_cos_x(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return 1.0 + np.cos(2.0 * np.pi * x)


def _f_cos_y(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return 1.0 + np.cos(2.0 * np.pi * y)


BUMP_CENTER = (0.5, 0.5)
BUMP_WIDTH = 0.25
# max |d/dt exp(1 - 1/(1 - t^2))| = 2.17036 (at t = 0.75984), divided by
# the width 1/4 and rounded up; see scripts/bump_constants.py.
BUMP_LIPSCHITZ = 8.69


def _f_bump(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    # The per-point float operations of periodic_distance to the center, one axis at a time.
    dx = wrap_delta(x - BUMP_CENTER[0])
    dy = wrap_delta(y - BUMP_CENTER[1])
    t = np.sqrt(dx * dx + dy * dy) / BUMP_WIDTH
    out = np.zeros(t.shape)
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
    for name in names:
        if name not in TEST_FUNCTIONS:
            raise ValueError(f"unknown test function {name!r}; known: {sorted(TEST_FUNCTIONS)}")
    return tuple(TEST_FUNCTIONS[name] for name in names)


@functools.cache
def torus_integral(tf: TestFunction, n: int = 512) -> float:
    """Area integral of f over the unit torus by the periodic grid rule, once per process.

    f sees blocks of rows of about BUDGET_32K cells as the grid's axes,
    (rows, 1) and (1, n); the values fill one C-contiguous n x n array,
    whose one np.mean is the rule.
    """
    t = np.arange(n) / n
    vals = np.empty((n, n))
    for i0, i1 in blocks(n, n, BUDGET_32K):
        block = tf.fn(t[i0:i1, None], t[None, :])
        try:
            vals[i0:i1] = np.broadcast_to(block, (i1 - i0, n))
        except ValueError:
            raise ValueError("test function must map (k, 1) and (1, n) axes to values "
                             "that broadcast to (k, n)") from None
    return float(np.mean(vals))


class FunctionIntegrals(NamedTuple):
    """Area integral (on the field's grid) and nodal line integral of one f."""

    tf: TestFunction
    area: float
    nodal: float


def function_integrals(nodal: NodalSet, test_functions: tuple[TestFunction, ...],
                       areas: list[float]) -> tuple[FunctionIntegrals, ...]:
    """Both integrals of every test function: areas[k] is test_functions[k]'s torus_integral.

    run_single takes the areas, which read only the grid, before it samples
    the field, and the nodal line integrals here, each once per run.
    """
    return tuple(FunctionIntegrals(tf, area, integrate_over_nodal(nodal, tf))
                 for tf, area in zip(test_functions, areas, strict=True))


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
_YAU_MIN_ENERGIES, _YAU_MIN_RUNS = 3, 10  # the fewest check_yau_scaling takes
# Points per side of the square lattice behind the chain's sup and inf estimates.
_LATTICE_SIDE = 9


@dataclass(frozen=True)
class ExperimentPlan:
    """Declarative description of one verification ensemble.

    Grids follow N(E) = max(grid_min, grid_per_sqrt_energy * ceil(sqrt(E)));
    every derived radius and resolution is validated against the module
    preconditions up front, so a plan that constructs at all can run, and
    no two stages of the plan may draw from the same seed or a negative one.
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
        for k, name in enumerate(self.test_functions):
            if name in self.test_functions[:k]:
                raise ValueError(f"test function {name!r} is listed more than once")
        require_doubling_constants(self.doubling_a1, self.doubling_a2)
        if not 0.0 < self.growth_delta <= 1.0:
            raise ValueError("growth_delta must lie in (0, 1]")
        merged = dict(DEFAULT_TOLERANCES)
        for key, value in dict(self.tolerances).items():
            if key not in DEFAULT_TOLERANCES:
                raise ValueError(f"unknown tolerance {key!r}")
            if isinstance(DEFAULT_TOLERANCES[key], tuple):
                if not (isinstance(value, (list, tuple)) and len(value) == 2
                        and all(map(is_number, value))):
                    raise ValueError(f"tolerance {key!r} must be a pair of finite numbers; got {value!r}")
                if value[0] > value[1]:
                    raise ValueError(f"tolerance {key!r} must be a (low, high) pair with "
                                     f"low <= high; got {value!r}")
                merged[key] = tuple(value)
            elif is_number(value):
                merged[key] = float(value)
            else:
                raise ValueError(f"tolerance {key!r} must be a finite number; got {value!r}")
        object.__setattr__(self, "tolerances", merged)
        for e in self.energies:
            n = self.grid_for(e)
            lam = 2.0 * math.pi * math.sqrt(e)
            r = scale_radius(lam, self.rho)
            try:
                require_sampling_grid(e, n)
                if cover_admissible(r):
                    require_resolved_radius(r, n)
                if doubling_admissible(lam, self.doubling_a1):
                    require_resolved_doubling(lam, self.doubling_a1, n)
            except (BallTooLarge, RadiusUnderResolved, ResolutionTooCoarse) as exc:
                raise ValueError(f"{exc} at E={e}") from None
        r_ref = scale_radius(2.0 * math.pi * math.sqrt(max(self.energies)), self.rho)
        if self.include_low_energy_control and not cover_admissible(r_ref):
            raise ValueError(f"the control's radius, the scale radius {r_ref!r} at "
                             f"E={max(self.energies)}, is not below 1/4; "
                             f"set include_low_energy_control to false")
        owners: dict[int, str] = {}
        stages = [(e, s, t, f"E={e} seed {s} stage {t}") for e in self.energies
                  for s in range(self.seeds_per_energy) for t in range(4)]
        if self.include_low_energy_control:
            stages.append((1, 0, 4, "the control (stage 4)"))
        for e, s, t, name in stages:
            value = _stage_seed(self, e, s, t)
            if value < 0:
                raise ValueError(f"base_seed {self.base_seed} gives {name} the negative "
                                 f"seed {value}")
            if value in owners:
                raise ValueError(f"stage seeds collide: {owners[value]} and {name} "
                                 f"both derive seed {value}")
            owners[value] = name

    def grid_for(self, energy: int) -> int:
        return max(self.grid_min, self.grid_per_sqrt_energy * math.ceil(math.sqrt(energy)))

    def to_json(self) -> str:
        return json.dumps({f: getattr(self, f) for f in self.__dataclass_fields__},
                          sort_keys=True, indent=1)


# Plan field annotation (a string: annotations are postponed) -> (its JSON type, a test of it)
_PLAN_JSON_TYPES: dict[str, tuple[str, Callable[[object], bool]]] = {
    "int": ("an integer", is_int),
    "float": ("a finite number", is_number),
    "bool": ("true or false", lambda v: isinstance(v, bool)),
    "tuple[int, ...]": ("a list of integers",
                        lambda v: isinstance(v, list) and all(map(is_int, v))),
    "tuple[str, ...]": ("a list of strings",
                        lambda v: isinstance(v, list) and all(isinstance(x, str) for x in v)),
    "dict": ("an object", lambda v: isinstance(v, dict)),
}


def plan_from_json(text: str) -> ExperimentPlan:
    """Parse a plan file; each field must have the JSON type of its annotation."""
    obj = json.loads(text)
    if not isinstance(obj, dict):
        raise ValueError("plan file must hold a JSON object")
    plan_fields = ExperimentPlan.__dataclass_fields__
    for key, value in obj.items():
        if key not in plan_fields:
            raise ValueError(f"unknown plan field {key!r}")
        kind, matches = _PLAN_JSON_TYPES[plan_fields[key].type]
        if not matches(value):
            raise ValueError(f"plan field {key!r} must be {kind}; got {value!r}")
    if "energies" not in obj:
        raise ValueError("plan is missing the energies list")
    return ExperimentPlan(**obj)


def _stage_seed(plan: ExperimentPlan, energy: int, seed: int, stage: int) -> int:
    """Deterministic per-stage seed: all randomness derives from the plan."""
    return plan.base_seed * 1_000_003 + energy * 1_009 + seed * 101 + stage


# ---------------------------------------------------------------------------
# per-ball table


class BallTerms(NamedTuple):
    """Per-ball reductions of one test function f over a BallTable's balls.

    f_min, f_max and integral are the min, max and sum of f(mid) * len over
    each ball's clipped pieces (0 for a ball without pieces); sup_lattice and
    inf_lattice are the max and min of f over the ball's 9x9 square lattices
    of half sides _sup_half_side(family) and r / 2.
    """

    f_min: np.ndarray
    f_max: np.ndarray
    integral: np.ndarray
    sup_lattice: np.ndarray
    inf_lattice: np.ndarray


class BallTable(NamedTuple):
    """Per-ball quantities of one field and nodal set over one cover family.

    ball_table reduces the clipped pieces to these numbers one clip batch at
    a time, so no array of the family's pieces is ever held; theorem 1, the
    band fraction and the bound chain of each test function all read from
    here.  The radius is the cover's, r = family.radius.  mass holds each
    ball's certified mass bracket and measures a ball only when a band needs
    it.  density[k] is ball k's nodal density (lengths[k] / lam) / (pi r^2),
    piece_max the longest clipped piece, and terms[f] the BallTerms of each
    test function f the table was built for.
    """

    family: BallFamily
    mass: CertifiedMasses
    lengths: np.ndarray
    density: np.ndarray
    nonempty: np.ndarray
    piece_max: float
    terms: dict


def _sup_half_side(family: BallFamily) -> float:
    """Half side of the sup lattice: the radius plus half a probe cell's diagonal."""
    return family.radius + math.sqrt(2.0) / (2.0 * family.probe_resolution)


def _lattice_values(tf: TestFunction, centers: np.ndarray, half_side: float) -> np.ndarray:
    """f on the 9x9 square lattice of half side half_side around each center, (B, 9, 9).

    Entry [b, i, j] is f at centers[b] + (t_i, t_j); f sees the lattice as
    its (B, 9, 1) x and (B, 1, 9) y axes.
    """
    t = np.linspace(-half_side, half_side, _LATTICE_SIDE)
    x = centers[:, 0, None, None] + t[:, None]
    y = centers[:, 1, None, None] + t
    return np.broadcast_to(tf.fn(x, y), (len(centers), t.size, t.size))


def ball_table(field: SampledField, nodal: NodalSet, family: BallFamily,
               test_functions: tuple[TestFunction, ...]) -> BallTable:
    """Mass brackets, nodal lengths and test-function terms of every ball B(x, r) of family.

    Each clip batch's pieces are reduced ball by ball and dropped before
    the next batch is clipped: each
    ball's length and f-integral are np.sum over that ball's pieces alone
    (nodal.ball_sums), and its f-min and f-max and lattice extremes are
    exact, so every number is the one a whole-family clip gives.
    """
    r = family.radius
    if family.count < 1 or family.overlap_max < 1:
        raise ValueError(
            f"cover family must have at least one ball and overlap >= 1; "
            f"got count={family.count} overlap_max={family.overlap_max}")
    mass = CertifiedMasses(field, family.centers, r)
    count = family.count
    lengths = np.empty(count)
    nonempty = np.empty(count, dtype=bool)
    piece_max = 0.0
    terms = {tf: BallTerms(*(np.zeros(count) for _ in BallTerms._fields))
             for tf in test_functions}
    sup_half, inf_half = _sup_half_side(family), r / 2.0
    for b0, b1, piece_len, piece_mid, owners in clip_batches(nodal, family.centers, r):
        offsets = np.searchsorted(owners, np.arange(b0, b1 + 1))
        lengths[b0:b1] = ball_sums(piece_len, offsets)
        filled = np.diff(offsets) > 0
        nonempty[b0:b1] = filled
        piece_max = max(piece_max, float(np.max(piece_len, initial=0.0)))
        starts = offsets[:-1][filled]
        batch = family.centers[b0:b1]
        for tf, t in terms.items():
            vals = tf(piece_mid)
            if starts.size:
                t.f_min[b0:b1][filled] = np.minimum.reduceat(vals, starts)
                t.f_max[b0:b1][filled] = np.maximum.reduceat(vals, starts)
            t.integral[b0:b1] = ball_sums(vals * piece_len, offsets)
            t.sup_lattice[b0:b1] = np.max(_lattice_values(tf, batch, sup_half), axis=(1, 2))
            t.inf_lattice[b0:b1] = np.min(_lattice_values(tf, batch, inf_half), axis=(1, 2))
        # Dropped before clip_batches builds the next batch, so one batch is held at a time.
        del piece_len, piece_mid, owners
    density = (lengths / field.spec_lambda) / (math.pi * r * r)
    return BallTable(family, mass, lengths, density, nonempty, piece_max, terms)


# ---------------------------------------------------------------------------
# theorem checks


class Theorem1Result(NamedTuple):
    """Per-ball nodal/volume comparability over mass-equidistributed balls."""

    e1_hat: float
    e2_hat: float
    included: int
    excluded: int


def check_theorem_1(table: BallTable, inclusion_band: tuple[float, float] =
                    DEFAULT_TOLERANCES["theorem1_inclusion_band"]) -> Theorem1Result:
    """Ratio (1/lam) * nodal length in B(x, r) / Vol(B) over cover centers.

    Balls whose L2 mass ratio falls outside inclusion_band are excluded
    from the min/max but counted: the comparability claim is conditional
    on mass equidistribution at the ball, so off-band balls carry no
    information either way and silently mixing them in would be wrong.
    """
    keep = table.mass.ratios_in_band(inclusion_band)
    included = int(np.sum(keep))
    if included:
        e1, e2 = float(np.min(table.density[keep])), float(np.max(table.density[keep]))
    else:
        e1, e2 = float("nan"), float("nan")
    return Theorem1Result(e1, e2, included, int(keep.size - included))


class Theorem2Result(NamedTuple):
    """Spread of (1/lam) * nodal integral of f over area integral of f."""

    c1_hat: float
    c2_hat: float
    rho_by_name: dict
    trivial_names: tuple


def check_theorem_2(field: SampledField,
                    integrals: tuple[FunctionIntegrals, ...]) -> Theorem2Result:
    """Weak-limit comparability against a suite of nonnegative functions.

    For f identically zero both sides vanish and the claim is vacuous, so
    such entries are recorded as trivial and excluded from the spread.
    """
    lam = field.spec_lambda
    rho_by_name: dict[str, float] = {}
    trivial: list[str] = []
    for tf, denom, numer in integrals:
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
    return Theorem2Result(c1, c2, rho_by_name, tuple(trivial))


def check_yau_scaling(yau_by_energy: dict, window: float = DEFAULT_TOLERANCES["yau_window"],
                      median_drift: float = DEFAULT_TOLERANCES["yau_median_drift"]) -> dict:
    """Linear-in-frequency scaling of total nodal length across an ensemble.

    Expects a mapping energy -> list of yau ratios (total length / lam)
    from at least _YAU_MIN_ENERGIES energies with _YAU_MIN_RUNS runs each.
    Passes when the overall max/min ratio stays within `window` and
    per-energy medians stay within `median_drift` of each other.  A zero
    ratio (a run, or an energy's median, with no nodal length) leaves that
    ratio without a finite value: it is reported as None and the check fails.
    """
    if len(yau_by_energy) < _YAU_MIN_ENERGIES:
        raise ValueError(f"yau scaling check needs at least {_YAU_MIN_ENERGIES} energies")
    for e, vals in yau_by_energy.items():
        if len(vals) < _YAU_MIN_RUNS:
            raise ValueError(f"yau scaling check needs >= {_YAU_MIN_RUNS} runs per energy; "
                             f"E={e} has {len(vals)}")
    all_vals = np.concatenate([np.asarray(v, dtype=float)
                               for v in yau_by_energy.values()])
    medians = {int(e): median(v) for e, v in yau_by_energy.items()}
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


def _lattice_gap(half_side: float) -> float:
    return (2.0 * half_side / (_LATTICE_SIDE - 1)) * math.sqrt(2.0) / 2.0


def replicate_bound_chain(field: SampledField, nodal: NodalSet, table: BallTable,
                          integrals: FunctionIntegrals) -> ChainTrace:
    """Replicate both inequality chains tying per-ball constants to global bounds.

    Lower chain: the nodal integral of f is bounded below through cover
    sums weighted by per-ball minima, the smallest per-ball nodal density
    e1_chain, and the cover's capture of the area integral up to explicit
    modulus-of-continuity corrections.  Upper chain: bounded above through
    per-ball maxima, the largest per-ball density e2_chain, and the
    disjointness of the half-radius cores.  The six steps with content are
    checked numerically with computable slack; trace.ok is False when any
    fails.  The six links that hold by construction (a min or max against
    the values it was taken over) are asserted as identities in the test
    test_chain_matches_per_ball_reference.  When the modulus correction
    swamps the area integral of f the lower conclusion is vacuous at this
    scale; the trace reports that instead of failing, since the
    comparability claims are asymptotic.
    """
    tf, integral_f, total_integral = integrals
    lam = field.spec_lambda
    fam = table.family
    r = fam.radius
    vol = math.pi * r * r
    overlap = fam.overlap_max

    total_length = nodal.total_length
    seg_max = float(np.max(nodal.lengths)) if nodal.count else 0.0

    # f's per-ball terms, reduced from the clipped pieces by ball_table.
    nonempty = table.nonempty
    terms = table.terms[tf]
    f_min, f_max = terms.f_min, terms.f_max
    negative = np.flatnonzero(f_min < -1e-9)
    if negative.size:
        raise NegativeTestFunction(
            f"test function {tf.name!r} dips to {float(f_min[negative[0]])!r}")

    # Midpoint-rule error budget for curve integrals: each quadrature node
    # sits within half a piece of every point of its piece.
    piece_slack = tf.modulus(table.piece_max / 2.0) * float(np.sum(table.lengths))
    slack_cover = piece_slack + tf.modulus(seg_max / 2.0) * total_length
    slack_overlap = piece_slack + overlap * tf.modulus(seg_max / 2.0) * total_length

    e1_chain = float(np.min(table.density))
    e2_chain = float(np.max(table.density))

    # Cover-side corrections to the area integral.  sup estimates use
    # a 9x9 lattice on the bounding square plus the Lipschitz gap, so they
    # upper-bound the true sup over the ball; inf estimates subtract the
    # gap, so they lower-bound the true inf over the half-radius core.
    sup_half_side = _sup_half_side(fam)
    sup_est = terms.sup_lattice + tf.lipschitz * _lattice_gap(sup_half_side)
    inf_est = terms.inf_lattice - tf.lipschitz * _lattice_gap(r / 2.0)
    enlarged_vol = math.pi * sup_half_side ** 2
    corr_lower = (float(np.sum((sup_est - f_min)[nonempty])) * vol
                  + float(np.sum(sup_est[~nonempty])) * vol
                  + float(np.sum(sup_est)) * (enlarged_vol - vol)
                  + _QUADRATURE_SLACK * (tf.spread + 1.0))
    corr_upper = (float(np.sum((f_max - inf_est)[nonempty])) * (vol / 4.0)
                  + _QUADRATURE_SLACK * (tf.spread + 1.0))

    sum_ball_integral = float(np.sum(terms.integral))
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
    return ChainTrace(corr_lower, corr_upper, hypothesis_met, message, steps)


# ---------------------------------------------------------------------------
# single runs


def _column(*roles: str, default=None):
    """A RunResult field of report.json, also written to each of roles ("csv", "aggregate")."""
    return dataclass_field(default=default, metadata={"roles": ("report",) + roles})


@dataclass(frozen=True)
class RunResult:
    """Everything one (energy, seed) pipeline run contributes to the report.

    Fields that a run cannot compute (degenerate scale radius, doubling
    radius too large for the energy) hold None and the reason appears in
    flags; gates never silently treat missing values as passing.  svg holds
    the run's picture when the plan asks for one; it is written to its own
    file and has no roles.
    """

    energy: int = _column("csv", default=MISSING)
    seed: int = _column("csv", default=MISSING)
    grid: int = _column("csv", default=MISSING)
    lam: float = _column("csv", default=MISSING)
    radius: float = _column("csv", default=MISSING)
    total_length: float = _column("csv", default=MISSING)
    yau_ratio: float = _column("csv", "aggregate", default=MISSING)
    segment_count: int = _column("csv", default=MISSING)
    degenerate: bool = _column("csv", default=MISSING)
    d1: float | None = _column("csv", "aggregate")
    d2: float | None = _column("csv", "aggregate")
    sse_fraction: float | None = _column("csv", "aggregate")
    cover_count: int | None = _column("csv")
    overlap_max: int | None = _column("csv")
    e1_hat: float | None = _column("csv", "aggregate")
    e2_hat: float | None = _column("csv", "aggregate")
    t1_included: int | None = _column("csv")
    t1_excluded: int | None = _column("csv")
    c1_hat: float | None = _column("csv", "aggregate")
    c2_hat: float | None = _column("csv", "aggregate")
    rho_by_f: dict | None = _column()
    chain_ok: bool | None = _column("csv")
    chain_hypothesis_met: int | None = _column("csv")
    chain_e1: float | None = _column()
    chain_e2: float | None = _column()
    good_fraction: float | None = _column("csv", "aggregate")
    good_count: int | None = _column("csv")
    sign_change_fraction: float | None = _column("csv")
    assembled_lower_bound: float | None = _column("csv")
    a3_hat: float | None = _column("csv")
    c7_max: float | None = _column("csv", "aggregate")
    c9_hat: float | None = _column("csv", "aggregate")
    strip_sup: float | None = _column("csv")
    strip_certificate: float | None = _column()
    real_sup: float | None = _column("csv")
    flags: tuple[str, ...] = _column("csv", default=())
    svg: str | None = dataclass_field(default=None, repr=False, compare=False,
                                      metadata={"roles": ()})


def _columns(role: str) -> tuple[str, ...]:
    """Names of the RunResult fields with role ("report", "csv" or "aggregate"), in field order."""
    return tuple(f.name for f in fields(RunResult) if role in f.metadata["roles"])


def run_single(plan: ExperimentPlan, energy: int, seed: int) -> RunResult:
    """One full pipeline pass for a single random eigenfunction.

    A run that is not degenerate takes each test function's area integral
    first: it reads only the grid, so its n^2 values are built while no
    field or nodal set is held.  After extract_nodal, whose join holds one
    extra copy of the set, each stage holds at most one batch or block of
    temporaries above the arrays the run keeps.
    """
    spec = random_eigenfunction(energy, _stage_seed(plan, energy, seed, 0))
    n = plan.grid_for(energy)
    lam = spec.lam
    r = scale_radius(lam, plan.rho)
    flags: list[str] = []

    too_large = not cover_admissible(r)
    degenerate = too_large or len(spec.modes) < 8
    if too_large:
        flags.append("scale_radius_exceeds_quarter")
    if len(spec.modes) < 8:
        flags.append("too_few_modes_for_ensemble_statistics")
    test_functions = resolve_test_functions(plan.test_functions)
    areas = [] if degenerate else [torus_integral(tf, n) for tf in test_functions]

    field = sample_grid(spec, n)
    nodal = extract_nodal(field)
    base = dict(
        energy=energy, seed=seed, grid=n, lam=lam, radius=r,
        total_length=nodal.total_length, yau_ratio=nodal.total_length / lam,
        segment_count=nodal.count, degenerate=degenerate,
    )
    if degenerate:
        flags.append("degenerate_run_excluded_from_gates")
        return RunResult(**base, flags=tuple(flags),
                         svg=render_svg(nodal) if plan.svg else None)

    d1, d2 = sse_scan(field, r, _stage_seed(plan, energy, seed, 1)).extreme_ratios()
    fam = build_cover(r, _stage_seed(plan, energy, seed, 2))
    table = ball_table(field, nodal, fam, test_functions)
    tol = plan.tolerances
    t1 = check_theorem_1(table, inclusion_band=tol["theorem1_inclusion_band"])
    sse_fraction = float(np.mean(table.mass.ratios_in_band(tol["sse_band"])))
    integrals = function_integrals(nodal, test_functions, areas)
    t2 = check_theorem_2(field, integrals)

    traces = [replicate_bound_chain(field, nodal, table, fi) for fi in integrals]

    doubling_kwargs: dict = {}
    if doubling_admissible(lam, plan.doubling_a1):
        rep, assembly = doubling_stage(field, nodal, plan.doubling_a1, plan.doubling_a2,
                                       _stage_seed(plan, energy, seed, 3))
        doubling_kwargs = dict(
            good_fraction=rep.good_fraction, sign_change_fraction=rep.nodal_fraction_among_good,
            **{key: assembly[key] for key in ("good_count", "assembled_lower_bound", "a3_hat")})
    else:
        flags.append("doubling_radius_too_large_at_this_energy")

    growth = growth_report(spec, r, plan.growth_delta, energy ** -0.5)

    return RunResult(
        **base, flags=tuple(flags),
        d1=d1, d2=d2, sse_fraction=sse_fraction,
        cover_count=fam.count, overlap_max=fam.overlap_max,
        e1_hat=t1.e1_hat, e2_hat=t1.e2_hat,
        t1_included=t1.included, t1_excluded=t1.excluded,
        c1_hat=t2.c1_hat, c2_hat=t2.c2_hat, rho_by_f=dict(t2.rho_by_name),
        chain_ok=all(t.ok for t in traces),
        chain_hypothesis_met=sum(t.hypothesis_met for t in traces),
        chain_e1=float(np.min(table.density)), chain_e2=float(np.max(table.density)),
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
    r_ref = scale_radius(2.0 * math.pi * math.sqrt(max(plan.energies)), plan.rho)
    spec = sine_mode_spec(1)
    n = max(plan.grid_for(1), math.ceil(24.0 / r_ref))
    field = sample_grid(spec, n)
    fam = build_cover(r_ref, _stage_seed(plan, 1, 0, 4))
    masses = CertifiedMasses(field, fam.centers, r_ref)
    fraction = float(np.mean(masses.ratios_in_band(plan.tolerances["sse_band"])))
    d1, d2 = masses.extreme_ratios()
    return {
        "energy": 1,
        "grid": n,
        "radius_ref": r_ref,
        "ball_count": fam.count,
        "d1": d1,
        "d2": d2,
        "in_band_fraction": fraction,
        "passes_band_gate": fraction >= plan.tolerances["sse_min_fraction"],
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
        """At least one gate was judged (a skipped gate is not), and every judged gate passed."""
        judged = [v["pass"] for v in self.verdicts.values() if v["pass"] is not None]
        return bool(judged) and all(judged)


def __getattr__(name: str):
    """Import ProcessPoolExecutor on its first read and keep it as a module attribute."""
    if name != "ProcessPoolExecutor":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from concurrent.futures import ProcessPoolExecutor
    globals()[name] = ProcessPoolExecutor
    return ProcessPoolExecutor


def require_threads(threads: int) -> None:
    """Raise ValueError unless threads, a verify run's worker count, is at least 1."""
    if threads < 1:
        raise ValueError(f"threads must be at least 1; got {threads!r}")


def run_plan(plan: ExperimentPlan, threads: int = 1,
             progress: Callable[[str], None] | None = None) -> VerificationReport:
    """Execute every (energy, seed) run of the plan and fold the report.

    Runs are independent; with threads > 1 they execute in a process pool
    while the fold stays in plan order, so the report is identical either
    way; progress hears of each run as it finishes, in plan order serially
    and in completion order from the pool.  The pool takes the highest
    energies (the longest runs) first and the control last, so a late heavy
    run does not leave the other workers idle.  It has no more workers than
    tasks: a fork pool starts every worker on the first submit.  The pool
    is whatever harness.ProcessPoolExecutor holds when the plan runs, read
    only when it runs workers, so a serial plan never loads it.  A run that
    raises cancels the runs still queued, as a serial plan stops at it.

    A process pins OpenBLAS to one thread on its first BLAS use; a plan
    with workers pins this process before the pool forks, so fork workers
    inherit the pin instead of setting it, which in a forked child restarts
    the helper thread OpenBLAS stopped at the fork.  Spawned workers pin on
    their first use.
    """
    require_threads(threads)
    jobs = [(plan, e, s) for e in plan.energies
            for s in range(plan.seeds_per_energy)]
    workers = min(threads, len(jobs) + plan.include_low_energy_control)
    if workers > 1:
        _pin_blas_thread()
    runs = []
    control = None
    with (sys.modules[__name__].ProcessPoolExecutor(max_workers=workers) if workers > 1
          else contextlib.nullcontext()) as pool:
        if pool:
            from concurrent.futures import as_completed
            futures = [None] * len(jobs)
            for k in sorted(range(len(jobs)), key=lambda k: -jobs[k][1]):
                futures[k] = pool.submit(run_single, *jobs[k])
            if plan.include_low_energy_control:
                control = pool.submit(control_run, plan)
            finished = (f.result() for f in as_completed(futures))
        else:
            finished = (run_single(*job) for job in jobs)
        try:
            for run in finished:
                runs.append(run)
                if progress is not None:
                    progress(f"E={run.energy} seed={run.seed} done")
        except BaseException:
            if pool:
                pool.shutdown(cancel_futures=True)
            raise
        if pool:
            runs = [f.result() for f in futures]  # the fold's plan order
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
        for name in _columns("aggregate"):
            vals = [getattr(r, name) for r in per_energy]
            vals = [v for v in vals if v is not None and not math.isnan(v)]
            if vals:
                arr = np.asarray(vals, dtype=float)
                stats[name] = {"min": float(np.min(arr)),
                               "median": median(arr),
                               "max": float(np.max(arr)),
                               "count": int(arr.size)}
        out[str(e)] = stats
    return out


def _sse_band(runs: list[RunResult], energy: int, tol: dict) -> dict:
    fractions = [r.sse_fraction for r in runs]
    counts = [r.cover_count for r in runs]
    pooled = sum(f * c for f, c in zip(fractions, counts)) / max(sum(counts), 1)
    return {"pass": pooled >= tol["sse_min_fraction"], "pooled_fraction": pooled,
            "min_run_fraction": min(fractions), "band": tol["sse_band"], "energy": energy}


def _theorem1_comparability(runs: list[RunResult], tol: dict) -> dict:
    e1, e2 = min(r.e1_hat for r in runs), max(r.e2_hat for r in runs)
    # An in-band ball with no nodal length gives e1 = 0: no finite window.
    window = e2 / e1 if e1 > 0.0 else None
    return {"pass": (all(r.e1_hat > tol["theorem1_floor"] for r in runs)
                     and all(r.e2_hat < tol["theorem1_ceiling"] for r in runs)
                     and window is not None and window <= tol["theorem1_window"]),
            "e1_pooled": e1, "e2_pooled": e2, "window_observed": window,
            "excluded_balls": sum(r.t1_excluded for r in runs),
            "included_balls": sum(r.t1_included for r in runs)}


def _verdicts(plan: ExperimentPlan, runs: list[RunResult],
              control: dict | None) -> dict:
    """Every gate, from one table of (name, its runs or whether they exist, skip note, verdict).

    A gate without runs is skipped with its note and a pass of None; only
    gates with runs call their verdict.
    """
    tol = plan.tolerances
    live = [r for r in runs if not r.degenerate]
    top = max(plan.energies)
    top_runs = [r for r in live if r.energy == top]
    yau = {e: vals for e in plan.energies
           if (vals := [r.yau_ratio for r in live if r.energy == e])}
    c9 = {str(e): median(vals) for e in plan.energies
          if (vals := [r.c9_hat for r in live if r.energy == e and r.c9_hat is not None])}
    c9_ratio = max(c9.values()) / min(c9.values()) if c9 and min(c9.values()) > 0.0 else None
    # A test function with area mass but no nodal mass gives c1 = 0: no finite spread.
    spread = (max(r.c2_hat / r.c1_hat for r in top_runs)
              if top_runs and all(r.c1_hat > 0.0 for r in top_runs) else None)
    exact = [r for r in live if r.rho_by_f is not None and "one" in r.rho_by_f]
    admissible = [r for r in live if r.good_fraction is not None]
    no_top = "no non-degenerate runs at top energy"
    no_doubling = "no energy admits the doubling radius"
    gates = [
        ("yau_scaling",
         len(yau) >= _YAU_MIN_ENERGIES and all(len(v) >= _YAU_MIN_RUNS for v in yau.values()),
         f"needs >= {_YAU_MIN_ENERGIES} energies with >= {_YAU_MIN_RUNS} non-degenerate runs each",
         lambda: check_yau_scaling(yau, tol["yau_window"], tol["yau_median_drift"])),
        ("sse_band", top_runs, no_top, lambda: _sse_band(top_runs, top, tol)),
        ("control_fails_band", control is not None, "control disabled",
         lambda: {"pass": not control["passes_band_gate"],
                  "in_band_fraction": control["in_band_fraction"], "d1": control["d1"]}),
        ("theorem1_comparability", top_runs, no_top,
         lambda: _theorem1_comparability(top_runs, tol)),
        ("theorem2_comparability", top_runs, no_top,
         lambda: {"pass": spread is not None and spread <= tol["theorem2_window"],
                  "max_spread": spread}),
        ("chain_steps", top_runs, no_top,
         lambda: {"pass": all(r.chain_ok for r in top_runs), "runs_checked": len(top_runs),
                  "hypothesis_met_counts": [r.chain_hypothesis_met for r in top_runs]}),
        ("theorem2_one_equals_yau", exact, "f = one not in suite",
         lambda: {"pass": all(r.rho_by_f["one"] == r.yau_ratio for r in exact),
                  "runs_checked": len(exact)}),
        ("doubling_good_fraction", admissible, no_doubling,
         lambda: {"pass": all(r.good_fraction >= tol["good_fraction_min"] for r in admissible),
                  "min_good_fraction": min(r.good_fraction for r in admissible),
                  "runs_checked": len(admissible)}),
        ("doubling_sign_change", admissible, no_doubling,
         lambda: {"pass": all(r.sign_change_fraction == 1.0 for r in admissible),
                  "min_fraction": min(r.sign_change_fraction for r in admissible)}),
        ("assembly_consistent", admissible, no_doubling,
         lambda: {"pass": all(r.assembled_lower_bound <= r.total_length for r in admissible)}),
        ("growth_c9_uniform", len(c9) >= 2, "needs >= 2 energies with growth runs",
         lambda: {"pass": c9_ratio is not None and c9_ratio <= tol["c9_window"],
                  "median_by_energy": c9, "ratio": c9_ratio}),
    ]
    return {name: verdict() if ready else {"pass": None, "note": note}
            for name, ready, note, verdict in gates}


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
    runs = [{name: _jsonify(getattr(r, name)) for name in _columns("report")}
            for r in report.runs]
    obj = {
        "plan": json.loads(report.plan.to_json()),
        "runs": runs,
        "control": _jsonify(report.control),
        "aggregates": _jsonify(report.aggregates),
        "verdicts": _jsonify(report.verdicts),
        "all_pass": report.all_pass,
    }
    return json.dumps(obj, sort_keys=True, indent=1, allow_nan=False)


def runs_to_csv(report: VerificationReport) -> str:
    """Per-run table; floats keep full precision via repr."""
    columns = _columns("csv")
    lines = [",".join(columns)]
    for r in report.runs:
        cells = []
        for name in columns:
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
