import dataclasses
import json
import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from torusnodal import ballstats
from torusnodal.ballstats import (
    CertifiedMasses,
    _mass_bounds,
    ball_masses,
    default_centers,
    mass_in_ball,
    median,
    report_summary_json,
    report_to_csv,
    scale_radius,
    sse_scan,
)
from torusnodal.covering import build_cover
from torusnodal.doubling import INNER_FACTOR, OUTER_FACTOR
from torusnodal.eigenbasis import (EigenfunctionSpec, SampledField, enumerate_modes,
                                   random_eigenfunction, sample_grid, sine_mode_spec)
from torusnodal.errors import BallTooLarge, RadiusUnderResolved
from torusnodal.harness import ExperimentPlan
from torusnodal.torus import wrap_delta

from conftest import constant_spec

BASELINE = json.loads(
    open(__file__.rsplit("/", 1)[0] + "/baselines/fixture_e65_seed7.json").read()
)


@pytest.fixture(scope="module")
def sine_field():
    return sample_grid(sine_mode_spec(1), 512)


def bessel_mass_oracle(cx: float, r: float) -> float:
    """Exact squared mass of sqrt(2) sin(2*pi*x) over B((cx, *), r).

    Integrating 1 - cos(4*pi*x) over a disk gives pi r^2 minus the disk
    Fourier transform of the plane wave, which reduces to a J1 factor.
    """
    with mpmath.workdps(40):
        arg = 4 * mpmath.pi * r
        val = mpmath.pi * r**2 * (
            1 - mpmath.cos(4 * mpmath.pi * cx) * 2 * mpmath.besselj(1, arg) / arg
        )
        return float(val)


@pytest.mark.parametrize(
    "cx,cy,r",
    [(0.25, 0.4, 0.1), (0.0, 0.7, 0.08), (0.37, 0.2, 0.15), (0.5, 0.5, 0.05)],
)
def test_mass_against_bessel_closed_form(sine_field, cx, cy, r):
    got = mass_in_ball(sine_field, (cx, cy), r)
    assert got == pytest.approx(bessel_mass_oracle(cx, r), rel=1e-3, abs=1e-5)


def eigenspace_ratio_forms(energy: int, r: float):
    """(half, J- + J+, J- - J+): the mass ratio at B(0, r) as two quadratic forms on the eigenspace.

    A real eigenfunction is u = sum over the modes xi of one half plane of
    a_xi cos(2 pi xi.x) + b_xi sin(2 pi xi.x), with ||u||^2 = (|a|^2 + |b|^2)/2.
    The ball is symmetric about its center, so the two parts do not mix, and
    the integral over it of cos(2 pi xi.x) cos(2 pi eta.x) is pi r^2 (J(xi - eta)
    + J(xi + eta))/2, of the sines pi r^2 (J(xi - eta) - J(xi + eta))/2, with
    J(z) = 2 J1(s)/s at s = 2 pi |z| r (mpmath's J1).  So the mass ratio
    mass / (pi r^2 ||u||^2) is (a.(J- + J+)a + b.(J- - J+)b) / (|a|^2 + |b|^2),
    and every eigenfunction's ratio at every center (its translates stay in
    the eigenspace) lies between the least and greatest eigenvalue of the two.
    """
    half = [m for m in enumerate_modes(energy) if m > (-m[0], -m[1])]

    def jinc(x, y):
        s = 2.0 * mpmath.pi * r * mpmath.sqrt(x * x + y * y)
        return 1.0 if s == 0 else float(2.0 * mpmath.besselj(1, s) / s)

    j_minus = np.array([[jinc(a - c, b - d) for c, d in half] for a, b in half])
    j_plus = np.array([[jinc(a + c, b + d) for c, d in half] for a, b in half])
    return half, j_minus + j_plus, j_minus - j_plus


def cos_or_sin_field(energy: int, half, vector: np.ndarray, cosine: bool, n: int):
    """The field sum of vector_xi cos(2 pi xi.x) (or sin), normalized to unit L^2 mass, on grid n."""
    c = vector / math.sqrt(2.0) if cosine else vector / (math.sqrt(2.0) * 1j)
    modes = half + [(-a, -b) for a, b in half]
    coeffs = np.concatenate([c, np.conj(c)]) / float(np.linalg.norm(vector))
    return sample_grid(EigenfunctionSpec(energy, modes, coeffs), n)


@pytest.mark.parametrize("energy", [65, 325, 1105])
def test_sse_ratios_lie_in_the_eigenspace_interval(energy):
    # tol is the quadrature's accuracy as test_mass_against_bessel_closed_form asks
    # it, 1e-3 of the ball's volume.  The bottom eigenvector's field came within
    # 1.8e-4, 1.4e-4 and 1.1e-4 of its eigenvalue at E = 65, 325 and 1105.  (The top
    # one's came within 2.1e-3 at E = 325, 1.0e-3 of its ratio, so it is not
    # checked at this tolerance.)  The forms take 4-17 ms per energy to build, the
    # whole test about 0.1 s per energy.
    tol = 1e-3
    plan = ExperimentPlan(energies=(energy,))
    n = plan.grid_for(energy)
    r = scale_radius(random_eigenfunction(energy, 0).lam, plan.rho)
    half, g_cos, g_sin = eigenspace_ratio_forms(energy, r)
    (w_cos, v_cos), (w_sin, v_sin) = np.linalg.eigh(g_cos), np.linalg.eigh(g_sin)
    lo, hi = min(w_cos[0], w_sin[0]), max(w_cos[-1], w_sin[-1])
    assert 0.0 < lo < 1.0 < hi
    for seed in range(5):
        field = sample_grid(random_eigenfunction(energy, seed), n)
        d1, d2 = sse_scan(field, r, seed).extreme_ratios()
        assert lo - tol <= d1 and d2 <= hi + tol, (seed, d1, d2, lo, hi)
    # The bottom eigenvector's field, measured at the origin, reaches the low end.
    cosine = w_cos[0] <= w_sin[0]
    field = cos_or_sin_field(energy, half, (v_cos if cosine else v_sin)[:, 0], cosine, n)
    got = ball_masses(field, [[0.0, 0.0]], r)[0] / (math.pi * r * r)
    assert abs(got - lo) <= tol, (cosine, got, lo)


def test_mass_is_independent_of_y_for_vertical_stripes(sine_field):
    # The integrand has no y dependence; only grid-alignment quadrature noise
    # distinguishes translates of the ball.
    values = [mass_in_ball(sine_field, (0.3, cy), 0.1) for cy in (0.1, 0.55, 0.9)]
    assert max(values) - min(values) < 1e-3 * min(values)


def test_mass_refines_consistently(e65_field):
    fine = sample_grid(random_eigenfunction(65, 7), 512)
    for center in [(0.2, 0.3), (0.7, 0.9), (0.0, 0.5)]:
        coarse_mass = mass_in_ball(e65_field, center, 0.1)
        fine_mass = mass_in_ball(fine, center, 0.1)
        assert fine_mass == pytest.approx(coarse_mass, rel=1e-2)


def reference_mass(field, center, r: float) -> float:
    """The quadrature of one ball on its own window, one array pass per ball."""
    n = field.resolution
    cx, cy = float(center[0]), float(center[1])
    h = 0.5 / n
    half_diag = h * math.sqrt(2.0)

    def window(c):
        return np.arange(math.floor((c - r - h) * n) - 1, math.ceil((c + r + h) * n) + 2) % n

    ix, iy = window(cx), window(cy)
    dx = wrap_delta(ix / n - cx)
    dy = wrap_delta(iy / n - cy)
    dist = np.sqrt(dx[:, None] ** 2 + dy[None, :] ** 2)
    u2 = field.values[np.ix_(ix, iy)] ** 2
    full = dist <= r - half_diag
    boundary = (dist < r + half_diag) & ~full
    mass = float(np.sum(u2[full]))
    bx, by = np.nonzero(boundary)
    sub = (np.arange(4) - 1.5) / 4.0 / n
    sx = dx[bx][:, None, None] + sub[None, :, None]
    sy = dy[by][:, None, None] + sub[None, None, :]
    frac = np.mean(sx * sx + sy * sy <= r * r, axis=(1, 2))
    mass += float(np.sum(u2[bx, by] * frac))
    return mass / (n * n)


@pytest.mark.parametrize("energy,seed", [(65, 7), (1105, 0)])
def test_ball_masses_match_per_ball_reference(energy, seed):
    n = max(256, 16 * math.ceil(math.sqrt(energy)))
    field = sample_grid(random_eigenfunction(energy, seed), n)
    lam = field.spec_lambda
    seams = np.array([[0.0, 0.0], [1.0 - 1e-12, 1.0 - 1e-12], [0.0, 0.5], [0.5, 0.0],
                      [1.0 - 1e-12, 0.3], [0.3, 1.0 - 1e-12], [0.5 / n, 0.25]])
    rng = np.random.default_rng(seed)
    centers = np.vstack([seams, rng.uniform(0.0, 1.0, (8, 2))])
    cases = [(centers, r) for r in (20.0 / n, lam ** -0.5, 0.3, 0.5 - 3.0 / n - 1e-9)]
    cases.append((build_cover(lam ** -0.5, seed).centers, lam ** -0.5))
    r_out = OUTER_FACTOR * 2.5 / lam
    if r_out < 0.25:
        doubling_centers = build_cover(r_out / 2.0, seed).centers
        cases += [(doubling_centers, INNER_FACTOR * 2.5 / lam), (doubling_centers, r_out)]
    for family, r in cases:
        want = np.array([reference_mass(field, c, r) for c in family])
        assert np.array_equal(ball_masses(field, family, r), want), r
        assert mass_in_ball(field, family[-1], r) == want[-1]


SEAM_CENTERS = [[0.0, 0.0], [1.0 - 1e-12, 1.0 - 1e-12], [0.0, 0.5], [0.5, 0.0],
                [1.0 - 1e-12, 0.3], [0.3, 1.0 - 1e-12]]


def full_scan_ratios(field, r: float, seed: int) -> np.ndarray:
    """The reference scan: every ball over default_centers(r, seed) measured, over pi r^2."""
    return ball_masses(field, default_centers(r, seed), r) / (math.pi * r * r)


def full_scan_extremes(field, r: float, seed: int) -> tuple[float, float]:
    ratios = full_scan_ratios(field, r, seed)
    return float(np.min(ratios)), float(np.max(ratios))


@pytest.mark.parametrize("energy", [25, 65, 325, 1105])
def test_sse_extremes_match_sse_scan_within_certified_bounds(energy):
    n = max(256, 16 * math.ceil(math.sqrt(energy)))
    for seed in (0, 1, 2):
        field = sample_grid(random_eigenfunction(energy, seed), n)
        r_min, r_max = 20.0 / n, field.spec_lambda ** -0.5
        for r in (r_min * (1.0 + 1e-9), math.sqrt(r_min * r_max), r_max):
            centers = np.vstack([default_centers(r, seed + 10), SEAM_CENTERS, [[0.5 / n, 0.25]]])
            masses = ball_masses(field, centers, r)
            lo, hi = _mass_bounds(field, centers, r)
            assert np.all(lo <= masses) and np.all(masses <= hi), r
            got = sse_scan(field, r, seed + 10).extreme_ratios()
            assert got == full_scan_extremes(field, r, seed + 10), r


def test_mass_bounds_on_a_single_cell_field():
    # One cell carries all the mass, so each bound must follow the kernel's
    # own weight for that cell: lo counts it only where the quadrature
    # counts it in full, hi wherever the quadrature counts it at all.
    n, r = 256, 0.1
    values = np.zeros((n, n))
    values[37, 200] = 1.0
    field = SampledField(n, values, 1.0)
    rng = np.random.default_rng(0)
    dist = np.repeat(np.linspace(r - 2.0 / n, r + 2.0 / n, 81), 20)
    angle = rng.uniform(0.0, 2.0 * math.pi, dist.size)
    centers = (np.array([37.0, 200.0]) / n
               + dist[:, None] * np.column_stack([np.cos(angle), np.sin(angle)])) % 1.0
    masses = ball_masses(field, centers, r)
    lo, hi = _mass_bounds(field, centers, r)
    assert np.all(lo <= masses) and np.all(masses <= hi)
    full, empty = masses == 1.0 / (n * n), masses == 0.0
    assert np.any(full) and np.any(empty) and np.any(~full & ~empty)


@pytest.mark.parametrize("energy", [65, 325, 1105])
def test_mass_bounds_bracket_the_doubling_and_quarter_radii(energy):
    # The doubling radii 10 a1 / lam and 20 a1 / lam wherever they are admissible
    # and resolved, and a radius just below the cover's limit 1/4.
    n = max(256, 16 * math.ceil(math.sqrt(energy)))
    field = sample_grid(random_eigenfunction(energy, 0), n)
    lam = field.spec_lambda
    radii = [np.nextafter(0.25, 0.0)]
    for a1 in (0.5, 1.0, 2.5):
        r_in, r_out = INNER_FACTOR * a1 / lam, OUTER_FACTOR * a1 / lam
        if r_out < 0.25 and r_in * n >= 20.0:
            radii += [r_in, r_out]
    assert len(radii) > 1
    for r in radii:
        centers = np.vstack([build_cover(r / 2.0, 1).centers, SEAM_CENTERS])
        masses = ball_masses(field, centers, r)
        lo, hi = _mass_bounds(field, centers, r)
        assert np.all(lo <= masses) and np.all(masses <= hi), r


def test_band_decisions_equal_the_exact_ones_at_observed_edges(monkeypatch, e65_field):
    r = scale_radius(e65_field.spec_lambda, 0.5)
    centers = build_cover(r, 0).centers
    exact = ball_masses(e65_field, centers, r) / (math.pi * r * r)
    measured = []
    real = ballstats.ball_masses

    def counting(field, centers, r):
        measured.append(len(centers))
        return real(field, centers, r)

    monkeypatch.setattr(ballstats, "ball_masses", counting)
    for x in (exact.min(), exact.max(), exact[len(exact) // 2]):
        below, above = np.nextafter(x, -np.inf), np.nextafter(x, np.inf)
        for band in ((x, 10.0), (0.1, x), (above, 10.0), (0.1, below)):
            measured.clear()
            got = CertifiedMasses(e65_field, centers, r).ratios_in_band(band)
            assert np.array_equal(got, (exact >= band[0]) & (exact <= band[1])), band
            # The ball on the edge forces the quadrature; most balls need none.
            assert 0 < sum(measured) < len(centers) / 2, band


@settings(max_examples=150)
@example([-0.0])
@example([-0.0, -0.0])
@example([0.0, -0.0, -0.0])
@example([-0.0, 0.0])
@example([5e-324, -5e-324])
@example([1.0, math.nan, 2.0])
@example([3.0, 1.0, 2.0, 2.0])
@given(st.lists(st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                                           1.0, -1.0, math.nan]),
                          st.floats(allow_nan=False, allow_infinity=False, min_value=-1e300,
                                    max_value=1e300)),
                min_size=1, max_size=12))
def test_median_is_np_median_bit_for_bit(values):
    want, got = np.median(np.array(values)), median(values)
    assert math.isnan(want) == math.isnan(got)
    assert math.isnan(got) or np.float64(got).tobytes() == np.float64(want).tobytes()


def test_sse_extremes_on_tied_masses():
    n = 256
    flat = dataclasses.replace(sample_grid(constant_spec(), n), spec_lambda=2.0 * math.pi * 5.0)
    for field in (flat, sample_grid(sine_mode_spec(1), n)):
        r = scale_radius(field.spec_lambda, 0.5)
        for seed in (0, 3):
            assert sse_scan(field, r, seed).extreme_ratios() == full_scan_extremes(field, r, seed)


def test_sse_extremes_measures_few_balls(monkeypatch, e65_field):
    r = scale_radius(e65_field.spec_lambda, 0.5)
    want = full_scan_extremes(e65_field, r, 0)
    measured = []
    real = ballstats.ball_masses

    def counting(field, centers, r):
        measured.append(len(centers))
        return real(field, centers, r)

    monkeypatch.setattr(ballstats, "ball_masses", counting)
    family = sse_scan(e65_field, r, 0)
    assert len(family.centers) == 325
    assert family.extreme_ratios() == want
    assert sum(measured) < len(family.centers) / 3


def test_mass_rejects_bad_radii(e65_field):
    with pytest.raises(BallTooLarge):
        mass_in_ball(e65_field, (0.5, 0.5), 0.6)
    with pytest.raises(RadiusUnderResolved):
        mass_in_ball(e65_field, (0.5, 0.5), 0.01)  # 2.56 cells at N=256


def test_scale_function_contract():
    lam = 2 * np.pi * np.sqrt(65.0)
    assert scale_radius(lam, 0.5) == lam**-0.5
    # rho is checked before lam, so a bad pair names rho.
    for bad in (0.0, -0.2, 1.5):
        with pytest.raises(ValueError, match=rf"^rho must lie in \(0, 1\], got {bad!r}$"):
            scale_radius(0.0, bad)
    with pytest.raises(ValueError, match="^scale function needs a positive frequency$"):
        scale_radius(0.0, 0.5)
    # rho = 1 is a legal scale function even though survey plans stay below it.
    assert scale_radius(lam, 1.0) == pytest.approx(1.0 / lam)


def test_default_centers_layout():
    centers = default_centers(0.1, seed=1)
    assert centers.shape == (500, 2)  # 20x20 lattice + 100 random draws
    assert np.all(centers >= 0.0) and np.all(centers < 1.0)
    assert np.array_equal(centers, default_centers(0.1, seed=1))
    assert not np.array_equal(centers, default_centers(0.1, seed=2))


def test_report_order_statistics(e65_field):
    r = scale_radius(e65_field.spec_lambda, 0.5)
    family = sse_scan(e65_field, r, 0)
    masses = family.masses()
    ratios = masses / family.volume
    assert np.array_equal(ratios, full_scan_ratios(e65_field, r, 0))
    d1, d2 = float(np.min(ratios)), float(np.max(ratios))
    assert d1 <= median(ratios) <= d2
    assert family.extreme_ratios() == (d1, d2)
    assert np.all(masses >= 0.0)
    # A band whose ends are the exact extremes holds every ball, and the
    # bracket cannot decide the two balls on its ends.
    assert sse_scan(e65_field, r, 0).ratios_in_band((d1, d2)).all()


def test_sse_scan_regression(e65_field):
    frozen = BASELINE["sse"]
    family = sse_scan(e65_field, scale_radius(e65_field.spec_lambda, 0.5), 0)
    ratios = family.masses() / family.volume
    assert ratios.size == frozen["count"]
    assert family.radius == pytest.approx(frozen["radius"], rel=1e-12)
    assert float(np.min(ratios)) == pytest.approx(frozen["d1"], rel=1e-9)
    assert float(np.max(ratios)) == pytest.approx(frozen["d2"], rel=1e-9)
    assert median(ratios) == pytest.approx(frozen["median"], rel=1e-9)


def test_report_csv_and_json(tmp_path, e65_field):
    family = sse_scan(e65_field, scale_radius(e65_field.spec_lambda, 0.5), 0)
    csv_path = tmp_path / "ballstats.csv"
    report_to_csv(family, str(csv_path))
    rows = np.loadtxt(csv_path, delimiter=",", skiprows=1)
    masses = family.masses()
    assert rows.shape == (masses.size, 5)
    assert np.allclose(rows[:, 3], masses, rtol=0, atol=0)

    summary = json.loads(report_summary_json(family, 0.5))
    for key in ("lambda", "rho", "radius", "count", "d1", "d2", "median"):
        assert key in summary
    assert summary["count"] == masses.size and summary["rho"] == 0.5
    assert summary["d1"] == pytest.approx(float(np.min(masses / family.volume)))



@given(
    cx=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
    cy=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
)
def test_mass_monotone_in_radius(sine_field, cx, cy):
    masses = [mass_in_ball(sine_field, (cx, cy), r) for r in (0.05, 0.1, 0.2)]
    assert masses[0] >= 0.0
    assert masses[0] <= masses[1] + 1e-9 <= masses[2] + 2e-9
