import numpy as np
import pytest
from hypothesis import settings

from torusnodal.eigenbasis import EigenfunctionSpec, random_eigenfunction, sample_grid
from torusnodal.harness import function_integrals, torus_integral
from torusnodal.nodal import NodalSet, extract_nodal
from torusnodal.torus import wrap_delta, wrap_point

settings.register_profile("suite", deadline=None, max_examples=25)
settings.load_profile("suite")


def separable_sine_spec() -> EigenfunctionSpec:
    """The fixture 2 sin(2 pi x) sin(2 pi y): energy 2, nodal set 4 circles."""
    modes = ((-1, -1), (-1, 1), (1, -1), (1, 1))
    coeffs = np.array([-0.5, 0.5, 0.5, -0.5], dtype=complex)
    return EigenfunctionSpec(2, modes, coeffs)


def integrals_for(field, nodal, test_functions):
    """function_integrals of test_functions, with areas on field's grid as run_single takes them."""
    return function_integrals(nodal, test_functions,
                              [torus_integral(tf, field.resolution) for tf in test_functions])


def constant_spec() -> EigenfunctionSpec:
    """The degenerate fixture u == 1 (not an eigenfunction; lam = 0)."""
    return EigenfunctionSpec(0, ((0, 0),), np.array([1.0 + 0j]))


@pytest.fixture(scope="session")
def e65_field():
    """Shared random eigenfunction fixture at E=65, seed 7, grid 256."""
    return sample_grid(random_eigenfunction(65, 7), 256)


@pytest.fixture(scope="session")
def e65_nodal(e65_field):
    return extract_nodal(e65_field)


@pytest.fixture(scope="session")
def e1105_field():
    """The tour's field: E=1105, seed 0, at its plan grid 544."""
    return sample_grid(random_eigenfunction(1105, 0), 544)


@pytest.fixture(scope="session")
def e1105_nodal(e1105_field):
    return extract_nodal(e1105_field)


@pytest.fixture(scope="session")
def awkward_nodal():
    """Segments across the seam, with -0.0, subnormal and tiny coordinates."""
    a = np.array([[1.0 - 2.0**-53, 0.5], [-0.0, 1e-300], [5e-324, 0.25],
                  [0.3, 0.9999], [0.1, 0.2], [0.5, -0.0]])
    b = np.array([[0.001, 0.5001], [0.002, 1.0 - 1e-6], [0.01, 1e-17],
                  [0.2999, 0.0001], [0.101, 0.2], [0.5, 1e-310]])
    d = wrap_delta(b - a)
    return NodalSet(a, b, np.linalg.norm(d, axis=1), wrap_point(a + d / 2.0))
