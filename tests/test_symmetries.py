"""Oracles from the torus's exact symmetries, applied on the coefficient side.

Each test builds a second eigenfunction from the seed-0 desk field's
coefficients whose values are the first one's at moved points, so every
quantity must agree at the moved centers up to rounding:

- a quarter turn: mode (a, b) goes to (-b, a) with the same coefficient, so
  v(x, y) = u(y, -x) and the samples are g[i, j] = f[j, -i mod n];
- a translation by s: c_xi goes to c_xi e(xi . s), so v(x) = u(x + s), and at
  s = (3/n, 5/n) the samples are f rolled by (-3, -5);
- the half shift: for odd E every mode has a + b odd, so u(x + (1/2, 1/2)) =
  -u(x) and the nodal set is invariant under it.

Tolerances are about ten times the largest difference observed over the three
desk energies, which is quoted next to each.
"""

import math

import numpy as np
import pytest

from torusnodal.ballstats import CertifiedMasses, ball_masses, scale_radius
from torusnodal.covering import build_cover
from torusnodal.eigenbasis import TWO_PI, EigenfunctionSpec, random_eigenfunction, sample_grid
from torusnodal.growth import torus_sup
from torusnodal.harness import (_stage_seed, check_theorem_2, plan_from_json,
                                resolve_test_functions)
from torusnodal.nodal import clip_lengths, extract_nodal
from torusnodal.torus import wrap_point

from conftest import integrals_for

DESK = plan_from_json(open(__file__.rsplit("/", 1)[0] + "/../plans/desk.json").read())


class Desk:
    """The seed-0 desk run's field, nodal set and cover at energy E."""

    def __init__(self, energy: int):
        self.spec = random_eigenfunction(energy, _stage_seed(DESK, energy, 0, 0))
        self.n = DESK.grid_for(energy)
        self.field = sample_grid(self.spec, self.n)
        self.nodal = extract_nodal(self.field)
        self.r = scale_radius(self.spec.lam, DESK.rho)
        self.centers = build_cover(self.r, _stage_seed(DESK, energy, 0, 2)).centers

    def moved(self, modes, coeffs):
        """The eigenfunction with these modes and coefficients, and its field on the same grid."""
        spec = EigenfunctionSpec(self.spec.energy, modes, coeffs)
        return spec, sample_grid(spec, self.n)


@pytest.fixture(scope="module", params=[65, 325, 1105])
def desk(request):
    return Desk(request.param)


def assert_same_field(got, want, desk):
    # Observed at most 6.5e-16 max|u|.
    assert np.max(np.abs(got - want)) <= 7e-15 * np.max(np.abs(desk.field.values))


def test_quarter_turn(desk):
    turned, field = desk.moved([(-b, a) for a, b in desk.spec.modes], desk.spec.coeffs)
    i = np.arange(desk.n)
    assert_same_field(field.values, desk.field.values.T[-i % desk.n], desk)
    # Observed 2.2e-16 relative.
    assert extract_nodal(field).total_length == pytest.approx(desk.nodal.total_length, rel=3e-15)
    c = desk.centers
    centers = wrap_point(np.column_stack([-c[:, 1], c[:, 0]]))
    masses = ball_masses(desk.field, c, desk.r)
    # Observed 4.6e-16 relative.
    assert np.allclose(ball_masses(field, centers, desk.r), masses, rtol=5e-15, atol=0.0)
    band = DESK.tolerances["sse_band"]
    mine = CertifiedMasses(desk.field, c, desk.r)
    theirs = CertifiedMasses(field, centers, desk.r)
    ratios = masses / mine.volume
    clear = np.min(np.abs(ratios[:, None] - np.array(band)), axis=1) > 1e-12
    assert np.array_equal(mine.ratios_in_band(band)[clear], theirs.ratios_in_band(band)[clear])
    # The middle of the torus and a chart across both seams; observed 3.3e-15 relative.
    for x, y in ((0.3, 0.7), (0.98, 0.02)):
        want = torus_sup(desk.spec, (x, y), desk.r)
        assert torus_sup(turned, wrap_point([-y, x]), desk.r) == pytest.approx(want, rel=4e-14)


def test_translation(desk):
    s = np.array([3, 5]) / desk.n
    xi = np.asarray(desk.spec.modes, dtype=float)
    _, field = desk.moved(desk.spec.modes, desk.spec.coeffs * np.exp(1j * TWO_PI * (xi @ s)))
    assert_same_field(field.values, np.roll(desk.field.values, (-3, -5), (0, 1)), desk)
    # Observed 2.2e-16 and 4.6e-16 relative.
    assert extract_nodal(field).total_length == pytest.approx(desk.nodal.total_length, rel=3e-15)
    assert np.allclose(ball_masses(field, wrap_point(desk.centers - s), desk.r),
                       ball_masses(desk.field, desk.centers, desk.r), rtol=5e-15, atol=0.0)


def test_half_shift_of_an_odd_energy(desk):
    assert desk.spec.energy % 2 == 1
    assert all((a + b) % 2 == 1 for a, b in desk.spec.modes)
    half = desk.n // 2
    assert_same_field(np.roll(desk.field.values, (half, half), (0, 1)), -desk.field.values, desk)
    # Ball lengths are about 1.2; observed 7.7e-15 apart.
    lengths = clip_lengths(desk.nodal, desk.centers, desk.r)
    shifted = clip_lengths(desk.nodal, wrap_point(desk.centers + 0.5), desk.r)
    assert np.max(np.abs(shifted - lengths)) <= 8e-14
    # The shift flips cos 2 pi x and cos 2 pi y, so their nodal integrals are the
    # unit weight's and rho(cos_x) = rho(cos_y) = rho(one); observed 2.2e-16 relative.
    tfs = resolve_test_functions(("one", "cos_x", "cos_y"))
    rho = check_theorem_2(desk.field, integrals_for(desk.field, desk.nodal, tfs)).rho_by_name
    assert rho["cos_x"] == pytest.approx(rho["one"], rel=2.5e-15)
    assert rho["cos_y"] == pytest.approx(rho["one"], rel=2.5e-15)
    assert math.isfinite(rho["one"]) and rho["one"] > 0.0
