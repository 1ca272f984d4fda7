import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from torusnodal.eigenbasis import (
    EigenfunctionSpec,
    constant_spec,
    enumerate_modes,
    evaluate,
    random_eigenfunction,
    sample_grid,
    separable_sine_spec,
    sine_mode_spec,
    spec_from_json,
    spec_to_json,
)
from torusnodal.errors import EmptySpectrum, NonRealValue, ResolutionTooCoarse

# Energies with spectra of known size, validated against the brute-force
# oracle below before being frozen here.
KNOWN_COUNTS = {1: 4, 2: 4, 4: 4, 5: 8, 25: 12, 65: 16, 325: 24, 1105: 32}
EMPTY_ENERGIES = [3, 6, 7, 15, 30]


def brute_force_modes(energy: int) -> list[tuple[int, int]]:
    bound = int(math.isqrt(energy))
    out = [
        (a, b)
        for a in range(-bound, bound + 1)
        for b in range(-bound, bound + 1)
        if a * a + b * b == energy
    ]
    return sorted(out)


@pytest.mark.parametrize("energy,count", sorted(KNOWN_COUNTS.items()))
def test_enumerate_modes_matches_brute_force(energy, count):
    modes = enumerate_modes(energy)
    assert modes == brute_force_modes(energy)
    assert len(modes) == count


def test_enumerate_modes_sorted_and_closed_under_negation():
    modes = enumerate_modes(325)
    assert modes == sorted(modes)
    mode_set = set(modes)
    assert all((-a, -b) in mode_set for a, b in modes)


@pytest.mark.parametrize("energy", EMPTY_ENERGIES)
def test_empty_spectrum_raises(energy):
    with pytest.raises(EmptySpectrum):
        enumerate_modes(energy)


def test_enumerate_modes_rejects_nonpositive():
    for bad in (0, -4):
        with pytest.raises(ValueError):
            enumerate_modes(bad)


def test_random_eigenfunction_unit_norm_and_conjugacy():
    spec = random_eigenfunction(65, 7)
    coeffs = np.asarray(spec.coeffs)
    assert abs(np.sum(np.abs(coeffs) ** 2) - 1.0) < 1e-12
    index = {m: i for i, m in enumerate(spec.modes)}
    for (a, b), i in index.items():
        j = index[(-a, -b)]
        assert coeffs[j] == pytest.approx(np.conj(coeffs[i]), abs=1e-15)


def test_random_eigenfunction_seed_determinism():
    one = random_eigenfunction(65, 3)
    two = random_eigenfunction(65, 3)
    other = random_eigenfunction(65, 4)
    assert np.array_equal(np.asarray(one.coeffs), np.asarray(two.coeffs))
    assert not np.array_equal(np.asarray(one.coeffs), np.asarray(other.coeffs))


def test_spec_validation_rejects_bad_inputs():
    spec = random_eigenfunction(5, 0)
    modes = list(spec.modes)
    coeffs = np.asarray(spec.coeffs)

    with pytest.raises(ValueError):
        EigenfunctionSpec(energy=5, modes=[(9, 9)] + modes[1:], coeffs=coeffs)

    broken = coeffs.copy()
    broken[0] = broken[0] + 0.3j  # breaks conjugate pairing
    with pytest.raises(NonRealValue):
        EigenfunctionSpec(energy=5, modes=modes, coeffs=broken)

    with pytest.raises(ValueError):
        EigenfunctionSpec(energy=5, modes=modes, coeffs=coeffs * 2.0)


def test_evaluate_matches_direct_mode_sum():
    spec = random_eigenfunction(65, 11)
    rng = np.random.default_rng(0)
    pts = rng.random((40, 2))
    got = evaluate(spec, pts)
    modes = np.asarray(spec.modes, dtype=float)
    phases = np.exp(2j * np.pi * pts @ modes.T)
    want = (phases @ np.asarray(spec.coeffs)).real
    assert np.max(np.abs(got - want)) < 1e-12


def test_sine_fixture_closed_form():
    for k in (1, 3):
        spec = sine_mode_spec(k)
        xs = np.linspace(0.0, 1.0, 41, endpoint=False)
        pts = np.column_stack([xs, np.full_like(xs, 0.37)])
        want = math.sqrt(2.0) * np.sin(2 * np.pi * k * xs)
        assert np.max(np.abs(evaluate(spec, pts) - want)) < 1e-12


def test_separable_fixture_closed_form():
    spec = separable_sine_spec()
    rng = np.random.default_rng(1)
    pts = rng.random((50, 2))
    want = 2.0 * np.sin(2 * np.pi * pts[:, 0]) * np.sin(2 * np.pi * pts[:, 1])
    assert np.max(np.abs(evaluate(spec, pts) - want)) < 1e-12


def test_constant_fixture_is_one():
    spec = constant_spec()
    pts = np.random.default_rng(2).random((20, 2))
    assert np.max(np.abs(evaluate(spec, pts) - 1.0)) < 1e-15


def test_sample_grid_matches_pointwise_evaluation():
    spec = random_eigenfunction(65, 5)
    field = sample_grid(spec, 128)
    n = field.resolution
    xs = np.arange(n) / n
    gx, gy = np.meshgrid(xs, xs, indexing="ij")
    pts = np.column_stack([gx.ravel(), gy.ravel()])
    direct = evaluate(spec, pts).reshape(n, n)
    assert np.max(np.abs(field.values - direct)) < 1e-12


def test_sample_grid_parseval_identity():
    # The grid quadrature is exact for trigonometric polynomials below the
    # Nyquist limit, so the discrete mean square equals the coefficient norm.
    for seed in (0, 1, 2):
        field = sample_grid(random_eigenfunction(65, seed), 256)
        assert abs(np.mean(field.values**2) - 1.0) < 1e-10


def test_sample_grid_rejects_coarse_resolution():
    with pytest.raises(ResolutionTooCoarse):
        sample_grid(random_eigenfunction(65, 0), 64)


def test_field_at_and_interp():
    spec = random_eigenfunction(65, 9)
    field = sample_grid(spec, 512)
    rng = np.random.default_rng(3)
    pts = rng.random((64, 2))
    exact = field.at(pts)
    assert np.max(np.abs(exact - evaluate(spec, pts))) < 1e-12
    # Bilinear interpolation is only approximate but should be close on a
    # 512-point grid at this frequency.
    assert np.max(np.abs(field.interp(pts) - exact)) < 5e-3
    # At grid nodes interpolation reproduces the stored samples.
    k = np.arange(16)
    nodes = np.column_stack([k / 512.0, (3 * k % 512) / 512.0])
    assert np.max(np.abs(field.interp(nodes) - field.values[k, 3 * k % 512])) < 1e-12


def test_spec_json_round_trip(tmp_path):
    spec = random_eigenfunction(325, 13)
    path = tmp_path / "spec.json"
    path.write_text(spec_to_json(spec))
    back = spec_from_json(path.read_text())
    assert back.energy == spec.energy
    assert list(back.modes) == list(spec.modes)
    assert np.array_equal(np.asarray(back.coeffs), np.asarray(spec.coeffs))


def test_spec_json_is_deterministic():
    spec = random_eigenfunction(65, 2)
    assert spec_to_json(spec) == spec_to_json(random_eigenfunction(65, 2))


def test_json_rejects_garbage():
    with pytest.raises((ValueError, KeyError, json.JSONDecodeError)):
        spec_from_json('{"energy": 65}')


@given(
    energy=st.sampled_from([1, 2, 4, 5, 8, 10, 13, 25, 50, 65]),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_random_spec_invariants(energy, seed):
    spec = random_eigenfunction(energy, seed)
    coeffs = np.asarray(spec.coeffs)
    assert abs(np.sum(np.abs(coeffs) ** 2) - 1.0) < 1e-12
    index = {m: i for i, m in enumerate(spec.modes)}
    assert all((-a, -b) in index for a, b in spec.modes)
    pts = np.random.default_rng(0).random((8, 2))
    values = evaluate(spec, pts)
    assert np.all(np.isfinite(values))
