import json
import math

import mpmath
import numpy as np
import pytest

from torusnodal.eigenbasis import (
    constant_spec,
    evaluate,
    random_eigenfunction,
    sine_mode_spec,
)
from torusnodal.errors import ChartExceeded
from torusnodal.growth import (
    DilatedView,
    complex_strip_sup,
    growth_in_C_exponent,
    growth_report,
    real_doubling_exponent,
    torus_sup,
)

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
    got = complex_strip_sup(sine_mode_spec(1), tau)
    assert got.sampled == pytest.approx(expect, rel=1e-6)
    assert got.certificate >= got.sampled
    assert got.tau == tau


def test_strip_certificate_dominates_sampled_sup():
    for seed in (0, 1, 2):
        spec = random_eigenfunction(65, seed)
        ss = complex_strip_sup(spec, 65**-0.5)
        assert ss.certificate >= ss.sampled > 0.0


def test_strip_tau_validation():
    with pytest.raises(ValueError):
        complex_strip_sup(sine_mode_spec(1), -0.1)
    with pytest.raises(ValueError):
        complex_strip_sup(sine_mode_spec(1), float("nan"))


def test_real_doubling_exponent_single_mode_closed_form():
    # In the dilated chart v(y) = -sqrt(2) sin(2 pi r y1); the one-ball to
    # two-ball sup ratio at the origin is sin(4 pi r d)/sin(2 pi r d).
    r, d = 0.02, 0.25
    view = DilatedView(sine_mode_spec(1), (0.5, 0.25), r)
    got = real_doubling_exponent(view, d, np.array([[0.0, 0.0]]))[0]
    expect = math.log(math.sin(4 * math.pi * r * d) / math.sin(2 * math.pi * r * d))
    expect /= view.mu
    assert got == pytest.approx(expect, rel=1e-3)


def test_real_doubling_exponent_respects_chart():
    view = DilatedView(sine_mode_spec(1), (0.5, 0.25), 0.02)
    with pytest.raises(ChartExceeded):
        real_doubling_exponent(view, 0.25, np.array([[10.2, 0.0]]))


def test_dilated_view_matches_spec_evaluation():
    spec = random_eigenfunction(65, 7)
    center = np.array([0.3, 0.6])
    r = 0.02
    view = DilatedView(spec, tuple(center), r)
    assert view.mu == pytest.approx(r * spec.lam)
    ys = np.array([[0.0, 0.0], [1.0, 0.0], [-2.0, 3.0], [8.0, -5.0]])
    got = view.evaluate(ys)
    want = evaluate(spec, (center + r * ys) % 1.0)
    assert np.max(np.abs(got - want)) < 1e-12


def test_dilated_view_chart_bound():
    view = DilatedView(random_eigenfunction(65, 0), (0.5, 0.5), 0.02)
    with pytest.raises(ChartExceeded):
        view.evaluate(np.array([[10.5, 0.0]]))


def test_flat_profile_has_zero_growth():
    blob = growth_in_C_exponent(constant_spec(), 0.1)
    assert blob["c9_hat"] == 0.0
    assert blob["strip_sup"] == 1.0
    assert blob["real_sup"] == 1.0
    assert blob["mu_eff"] == 0.0


def test_growth_in_C_exponent_positive_for_oscillation():
    blob = growth_in_C_exponent(random_eigenfunction(65, 7), 65**-0.5)
    assert blob["c9_hat"] > 0.0
    assert blob["strip_sup"] >= blob["real_sup"] > 0.0
    assert blob["strip_certificate"] >= blob["strip_sup"] * (1 - 1e-12)


def test_growth_report_regression(e65_field):
    frozen = BASELINE["growth"]
    report = growth_report(e65_field, 0.14050174776480118, 0.25, 65**-0.5)
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
        spec_seeds = [growth_in_C_exponent(random_eigenfunction(energy, s),
                                           energy**-0.5)["c9_hat"] for s in range(3)]
        values.append(np.median(spec_seeds))
    assert max(values) <= 2.0 * min(values)
    assert all(v > 0.2 for v in values)
