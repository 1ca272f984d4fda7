import json
import math

import mpmath
import numpy as np
import pytest

from torusnodal import growth
from torusnodal.eigenbasis import TWO_PI, _mode_sum, random_eigenfunction, sine_mode_spec
from torusnodal.errors import ChartExceeded, NonRealValue
from torusnodal.growth import (
    REFINE_PASSES,
    REFINE_POINTS,
    REFINE_SHRINK,
    TENSOR_TOL,
    VIEW_OFFSETS,
    complex_strip_sup,
    growth_report,
    real_doubling_exponent,
    torus_sup,
)
from torusnodal.torus import wrap_point

from conftest import constant_spec, evaluate, separable_sine_spec
from test_eigenbasis import grid_sum

BASELINE = json.loads(
    open(__file__.rsplit("/", 1)[0] + "/baselines/fixture_e65_seed7.json").read()
)


def test_torus_sup_of_single_mode():
    spec = sine_mode_spec(1)
    # Center the search ball on the crest so the maximizer is interior.
    assert torus_sup(spec, center=(0.25, 0.0)) == pytest.approx(
        math.sqrt(2.0), rel=1e-9
    )
    assert torus_sup(constant_spec()) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("tau", [0.05, 0.1, 0.5])
def test_strip_sup_single_mode_closed_form(tau):
    # sqrt(2) sin(2 pi z) on the strip |Im z| <= tau peaks at
    # sqrt(2) cosh(2 pi tau); extended-precision hyperbolic oracle.
    with mpmath.workdps(40):
        expect = float(mpmath.sqrt(2) * mpmath.cosh(2 * mpmath.pi * tau))
    sampled, certificate = complex_strip_sup(sine_mode_spec(1), tau)
    assert sampled == pytest.approx(expect, rel=1e-6)
    assert certificate >= sampled


def test_strip_certificate_dominates_sampled_sup():
    for seed in (0, 1, 2):
        spec = random_eigenfunction(65, seed)
        sampled, certificate = complex_strip_sup(spec, 65**-0.5)
        assert certificate >= sampled > 0.0


def test_strip_tau_validation():
    with pytest.raises(ValueError):
        complex_strip_sup(sine_mode_spec(1), -0.1)
    with pytest.raises(ValueError):
        complex_strip_sup(sine_mode_spec(1), float("nan"))


def test_strip_rejects_an_overflowing_certificate(recwarn):
    # At E=65, |xi|_1 reaches 11, so exp(2 pi |xi|_1 tau) overflows a float from tau ~ 10.27.
    spec = random_eigenfunction(65, 1)
    assert math.isfinite(complex_strip_sup(spec, 10.2)[1])
    with pytest.raises(ValueError, match=r"tau=10\.3, E=65"):
        complex_strip_sup(spec, 10.3)
    assert not recwarn.list


def test_real_doubling_exponent_single_mode_closed_form():
    # In the dilated chart v(y) = -sqrt(2) sin(2 pi r y1); the one-ball to
    # two-ball sup ratio at the origin is sin(4 pi r d)/sin(2 pi r d).
    r, d = 0.02, 0.25
    spec = sine_mode_spec(1)
    got = real_doubling_exponent(spec, (0.5, 0.25), r, d, np.array([[0.0, 0.0]]))[0]
    expect = math.log(math.sin(4 * math.pi * r * d) / math.sin(2 * math.pi * r * d))
    expect /= r * spec.lam
    assert got == pytest.approx(expect, rel=1e-3)


def test_real_doubling_exponent_respects_chart():
    with pytest.raises(ChartExceeded):
        real_doubling_exponent(sine_mode_spec(1), (0.5, 0.25), 0.02, 0.25, np.array([[10.2, 0.0]]))


def test_dilated_view_matches_spec_evaluation():
    # The chart around (0.3, 0.6) at r = 0.02 reads u at wrap_point(c + r y), bit for bit.
    spec, center, r = random_eigenfunction(65, 7), (0.3, 0.6), 0.02
    offsets = np.array([[0.0, 0.0], [1.0, 0.0], [-2.0, 3.0], [6.0, -5.0]])
    got = real_doubling_exponent(spec, center, r, 0.5, offsets)
    assert got.tobytes() == dense_c7(spec, center, r, 0.5, offsets).tobytes()


def test_dilated_view_chart_bound():
    # A doubled ball may reach |y| = 10 exactly, and not beyond.
    spec = random_eigenfunction(65, 0)
    assert np.all(np.isfinite(real_doubling_exponent(spec, (0.5, 0.5), 0.02, 0.25, [[9.5, 0.0]])))
    with pytest.raises(ChartExceeded):
        real_doubling_exponent(spec, (0.5, 0.5), 0.02, 0.25, [[9.5, 1e-6]])


def test_flat_profile_has_zero_growth():
    report = growth_report(constant_spec(), 0.1, 0.25, 0.1)
    assert report.c9_hat == 0.0
    assert report.c7_max == 0.0
    assert report.strip_sup == 1.0
    assert report.real_sup == 1.0
    assert report.mu_eff == 0.0


def test_growth_in_C_exponent_positive_for_oscillation():
    report = growth_report(random_eigenfunction(65, 7), 0.1, 0.25, 65**-0.5)
    assert report.c9_hat > 0.0
    assert report.strip_sup >= report.real_sup > 0.0
    assert report.strip_certificate >= report.strip_sup * (1 - 1e-12)


def test_growth_report_regression():
    frozen = BASELINE["growth"]
    report = growth_report(random_eigenfunction(65, 7), 0.14050174776480118, 0.25, 65**-0.5)
    assert report.mu == pytest.approx(frozen["mu"], rel=1e-12)
    assert report.c7_max == pytest.approx(frozen["c7_max"], rel=1e-9)
    assert report.c9_hat == pytest.approx(frozen["c9_hat"], rel=1e-9)
    assert report.strip_sup == pytest.approx(frozen["strip_sup"], rel=1e-9)
    assert report.strip_certificate == pytest.approx(
        frozen["strip_certificate"], rel=1e-9
    )
    assert report.real_sup == pytest.approx(frozen["real_sup"], rel=1e-9)
    assert len(report.c7_values) >= 1
    assert report.c7_max == pytest.approx(max(report.c7_values))


def test_growth_exponent_scale_is_stable_across_seeds():
    # The normalized growth exponent concentrates near a common value; a
    # loose factor-two check on a few draws guards the normalization.
    values = []
    for energy in (65, 325):
        spec_seeds = [growth_report(random_eigenfunction(energy, s), energy**-0.5, 0.25,
                                    energy**-0.5).c9_hat for s in range(3)]
        values.append(np.median(spec_seeds))
    assert max(values) <= 2.0 * min(values)
    assert all(v > 0.2 for v in values)


# Bit-for-bit oracle of the sup searches: the dense search, where every
# masked grid point goes through the exact sum.

def dense_zoom(eval_abs, p, w, center, radius):
    best = -math.inf
    for _ in range(REFINE_PASSES):
        t = np.linspace(-w, w, REFINE_POINTS)
        pts = p + np.column_stack([np.repeat(t, t.size), np.tile(t, t.size)])
        dx, dy = pts[:, 0] - center[0], pts[:, 1] - center[1]
        pts = pts[np.sqrt(dx * dx + dy * dy) <= radius]
        vals = eval_abs(pts)
        k = int(np.argmax(vals))
        if vals[k] > best:
            best, p = float(vals[k]), pts[k]
        w /= REFINE_SHRINK
    return best


def dense_disk_sup(eval_abs, center, radius, step):
    c = np.asarray(center, dtype=float)
    k = max(8, int(math.ceil(2.0 * radius / step)) + 1)
    t = np.linspace(-radius, radius, k)
    gx, gy = np.meshgrid(t, t, indexing="ij")
    mask = gx * gx + gy * gy <= radius * radius
    pts = c + np.stack([gx[mask], gy[mask]], axis=-1)
    vals = eval_abs(pts)
    top = int(np.argmax(vals))
    return max(float(vals[top]), dense_zoom(eval_abs, pts[top], 2.0 * radius / (k - 1), c, radius))


def dense_c7(spec, center, r, delta, offsets):
    c = np.asarray(center, dtype=float)

    def eval_abs(ys):
        return np.abs(evaluate(spec, wrap_point(c + r * ys)))

    mu = r * spec.lam
    step = (TWO_PI / mu) / 10.0 if mu > 0.0 else delta / 16.0
    out = []
    for p in offsets:
        s1 = dense_disk_sup(eval_abs, p, delta, step)
        logr = math.log(max(dense_disk_sup(eval_abs, p, 2.0 * delta, step), s1) / s1)
        out.append(0.0 if logr == 0.0 else logr / mu)
    return np.array(out)


def dense_strip_sup(spec, tau):
    """The strip sup from each corner's whole |v| sheet and the dense zoom around its argmax."""
    xi = np.asarray(spec.modes, dtype=float)
    n = max(64, 10 * math.ceil(math.sqrt(max(spec.energy, 1))))
    corners = [np.array([sy * tau, sx * tau]) for sy in (-1.0, 1.0) for sx in (-1.0, 1.0)]
    best = -math.inf
    for y in corners[:1] if tau == 0.0 else corners:
        coeffs = spec.coeffs * np.exp(-TWO_PI * (xi @ y))
        sheet = np.abs(grid_sum(spec.modes, coeffs, n))
        i, j = divmod(int(np.argmax(sheet)), n)
        p0 = np.array([i / n, j / n])
        refined = dense_zoom(lambda pts: np.abs(_mode_sum(pts, xi, coeffs)), p0, 1.0 / n, p0, 10.0)
        best = max(best, float(sheet[i, j]), refined)
    return best


ORACLE_SPECS = {f"E{e}-seed{s}": random_eigenfunction(e, 900 + s)
                for e in (25, 50, 65, 325, 1105) for s in range(4)}
# A whole ridge of maxima, all points tied, and a separable product.
ORACLE_SPECS.update(sine=sine_mode_spec(1), constant=constant_spec(),
                    separable=separable_sine_spec())
# Chart centers: the middle, and next to the seam, where wrap_point(c + r y)
# carries the chart's points across both edges of [0, 1)^2 at every oracle radius.
ORACLE_CHARTS = ((0.5, 0.5), (0.98, 0.02))


def assert_sups_equal_the_dense_search(spec, charts, centers, taus):
    r = spec.lam ** -0.5 if spec.lam > 0.0 else 0.1
    for chart in charts:
        got = real_doubling_exponent(spec, chart, r, 0.25, VIEW_OFFSETS)
        assert got.tobytes() == dense_c7(spec, chart, r, 0.25, VIEW_OFFSETS).tobytes(), chart
    for center in centers:
        assert torus_sup(spec, center) == dense_disk_sup(
            lambda pts: np.abs(evaluate(spec, pts)), center, 0.25,
            1.0 / (10.0 * math.sqrt(max(spec.energy, 1)))), center
    for tau in taus:
        assert complex_strip_sup(spec, tau)[0] == dense_strip_sup(spec, tau), tau


@pytest.mark.parametrize("name", sorted(ORACLE_SPECS))
def test_sups_equal_the_dense_search_bit_for_bit(name):
    spec = ORACLE_SPECS[name]
    assert_sups_equal_the_dense_search(spec, ORACLE_CHARTS, ((0.0, 0.0), (0.25, 0.0), (0.3, 0.7)),
                                       (0.0, 0.1, max(spec.energy, 1) ** -0.5))


# The properties the confirm step relies on.

@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 17, 441])
def test_exact_rows_do_not_depend_on_the_batch(m):
    spec = random_eigenfunction(1105, 3)
    xi = np.asarray(spec.modes, dtype=float)
    pts = np.random.default_rng(m).random((600, 2))
    full = _mode_sum(pts, xi, spec.coeffs)
    for s in range(len(pts) - m + 1):
        assert _mode_sum(pts[s:s + m], xi, spec.coeffs).tobytes() == full[s:s + m].tobytes()


@pytest.mark.parametrize("name", sorted(ORACLE_SPECS))
def test_tensor_error_is_far_below_the_candidate_tolerance(name, monkeypatch):
    # The tensor form is within a thousandth of the tolerance of the exact sum,
    # so at a thousandth of it every grid's exact maximizer is still a candidate.
    monkeypatch.setattr(growth, "TENSOR_TOL", TENSOR_TOL / 1e3)
    assert_sups_equal_the_dense_search(ORACLE_SPECS[name], ORACLE_CHARTS[1:], ((0.3, 0.7),), (0.1,))


def test_tied_maxima_all_go_through_the_exact_sum(monkeypatch):
    # u == 1 ties at every point, so the exact path sees the whole masked grid.
    rows = []

    def counting(pts, xi, coeffs):
        rows.append(len(pts))
        return _mode_sum(pts, xi, coeffs)

    monkeypatch.setattr(growth, "_mode_sum", counting)
    assert torus_sup(constant_spec()) == 1.0
    t = np.linspace(-0.25, 0.25, 8)
    assert rows[0] == np.count_nonzero(t[:, None] ** 2 + t[None, :] ** 2 <= 0.0625)


def test_nonreal_check_covers_every_grid_point():
    # Break conjugate symmetry after validation: the residue 2 eps cos(2 pi x)
    # stays below IMAG_TOL on the candidate rows next to the crest x = 1/4
    # and exceeds it away from the crest.
    spec = sine_mode_spec(1)
    eps = 2.5e-10
    object.__setattr__(spec, "coeffs", spec.coeffs + 1j * eps)
    t = np.linspace(-0.25, 0.25, 8)
    evaluate(spec, np.array([[0.25 + t[3], 0.0], [0.25 + t[4], 0.0]]))
    with pytest.raises(NonRealValue):
        evaluate(spec, np.array([[0.25 + t[0], 0.0], [0.25 + t[4], 0.0]]))
    with pytest.raises(NonRealValue):
        torus_sup(spec, center=(0.25, 0.0))
