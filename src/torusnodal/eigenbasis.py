"""Exact Laplacian eigenfunctions on the flat torus [0,1)^2.

An eigenfunction at energy level E (a positive integer expressible as a sum
of two squares) is a finite trigonometric sum

    u(x) = sum_xi c_xi exp(2 pi i xi . x)

over the lattice modes xi in Z^2 with |xi|^2 = E.  The eigenvalue of the
(positive) Laplacian is 4 pi^2 E; throughout we work with its square root
lam = 2 pi sqrt(E), the natural frequency scale.  Conjugate symmetry
c(-xi) = conj(c(xi)) keeps u real-valued, and coefficients are normalized
so that sum |c_xi|^2 = 1, i.e. the L^2 norm over the unit torus is 1.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptySpectrum, NonRealValue, ResolutionTooCoarse

TWO_PI = 2.0 * math.pi

# Relative headroom for the imaginary residue of a nominally real sum.
IMAG_TOL = 1e-10


def enumerate_modes(energy: int) -> list[tuple[int, int]]:
    """Return all (a, b) in Z^2 with a^2 + b^2 == energy, lexicographically.

    Raises EmptySpectrum when the energy has no representation as a sum of
    two squares (e.g. 3, 6, 7, ...).
    """
    if energy < 1 or energy != int(energy):
        raise ValueError(f"energy must be a positive integer, got {energy!r}")
    energy = int(energy)
    modes = []
    for a in range(-math.isqrt(energy), math.isqrt(energy) + 1):
        rest = energy - a * a
        b = math.isqrt(rest)
        if b * b == rest:
            modes.append((a, b))
            if b > 0:
                modes.append((a, -b))
    if not modes:
        raise EmptySpectrum(f"no lattice modes at energy {energy}")
    modes.sort()
    return modes


@dataclass(frozen=True)
class EigenfunctionSpec:
    """A torus eigenfunction given by its lattice modes and coefficients.

    energy 0 with the single mode (0, 0) is admitted as the degenerate
    constant fixture (lam = 0); every genuine eigenfunction has energy >= 1.
    """

    energy: int
    modes: tuple[tuple[int, int], ...]
    coeffs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "modes", tuple((int(a), int(b)) for a, b in self.modes))
        object.__setattr__(self, "coeffs", np.asarray(self.coeffs, dtype=np.complex128))
        if len(self.modes) == 0:
            raise EmptySpectrum("eigenfunction needs at least one mode")
        if len(self.modes) != len(self.coeffs):
            raise ValueError("modes and coeffs length mismatch")
        if len(set(self.modes)) != len(self.modes):
            raise ValueError("duplicate modes")
        for a, b in self.modes:
            if a * a + b * b != self.energy:
                raise ValueError(f"mode ({a},{b}) not on the energy-{self.energy} circle")
        index = {m: k for k, m in enumerate(self.modes)}
        for k, (a, b) in enumerate(self.modes):
            j = index.get((-a, -b))
            if j is None:
                raise NonRealValue(f"mode set not closed under negation: missing {(-a, -b)}")
            if abs(self.coeffs[j] - np.conj(self.coeffs[k])) > 1e-12:
                raise NonRealValue(f"conjugate symmetry broken at mode ({a},{b})")
        norm = float(np.sum(np.abs(self.coeffs) ** 2))
        if abs(norm - 1.0) > 1e-9:
            raise ValueError(f"coefficients must have unit square sum, got {norm!r}")

    @property
    def lam(self) -> float:
        """Square root of the Laplace eigenvalue, 2 pi sqrt(energy)."""
        return TWO_PI * math.sqrt(self.energy)


def random_eigenfunction(energy: int, seed: int) -> EigenfunctionSpec:
    """Draw a random real eigenfunction at the given energy level.

    One standard complex Gaussian per conjugate mode pair, mirrored by
    conjugation and normalized to unit L^2 mass.  Deterministic in seed.
    """
    modes = enumerate_modes(energy)
    reps = [m for m in modes if m > (-m[0], -m[1])]
    rng = np.random.default_rng(seed)
    draws = rng.standard_normal((len(reps), 2))
    z = (draws[:, 0] + 1j * draws[:, 1]) / math.sqrt(2.0)
    by_mode = {}
    for m, c in zip(reps, z):
        by_mode[m] = c
        by_mode[(-m[0], -m[1])] = np.conj(c)
    coeffs = np.array([by_mode[m] for m in modes])
    coeffs /= np.sqrt(np.sum(np.abs(coeffs) ** 2))
    return EigenfunctionSpec(energy, tuple(modes), coeffs)


def sine_mode_spec(k: int = 1) -> EigenfunctionSpec:
    """The fixture sqrt(2) sin(2 pi k x): energy k^2, nodal set 2k vertical circles."""
    if k < 1:
        raise ValueError("k must be >= 1")
    c = 1.0 / math.sqrt(2.0)
    return EigenfunctionSpec(k * k, ((-k, 0), (k, 0)), np.array([1j * c, -1j * c]))


def separable_sine_spec() -> EigenfunctionSpec:
    """The fixture 2 sin(2 pi x) sin(2 pi y): energy 2, nodal set 4 circles."""
    modes = ((-1, -1), (-1, 1), (1, -1), (1, 1))
    coeffs = np.array([-0.5, 0.5, 0.5, -0.5], dtype=complex)
    return EigenfunctionSpec(2, modes, coeffs)


def constant_spec() -> EigenfunctionSpec:
    """The degenerate fixture u == 1 (not an eigenfunction; lam = 0)."""
    return EigenfunctionSpec(0, ((0, 0),), np.array([1.0 + 0j]))


def evaluate(spec: EigenfunctionSpec, point) -> float | np.ndarray:
    """Evaluate the trigonometric sum exactly at one point or an (M, 2) batch.

    Raises NonRealValue if the imaginary residue exceeds IMAG_TOL relative
    to the coefficient mass.
    """
    pts = np.atleast_2d(np.asarray(point, dtype=float))
    if pts.ndim != 2 or pts.shape[1] != 2 or not np.all(np.isfinite(pts)):
        raise ValueError("point must be a finite 2-vector or (M, 2) array")
    xi = np.asarray(spec.modes, dtype=float)
    phases = pts @ xi.T
    vals = np.exp((TWO_PI * 1j) * phases) @ spec.coeffs
    scale = float(np.sum(np.abs(spec.coeffs)))
    if np.max(np.abs(vals.imag)) > IMAG_TOL * scale:
        raise NonRealValue("evaluation produced a non-negligible imaginary part")
    out = vals.real
    if np.asarray(point).ndim == 1:
        return float(out[0])
    return out


@dataclass(frozen=True)
class SampledField:
    """Grid samples of a field on the torus: values[i, j] = u(i/N, j/N).

    spec is retained when the field came from sample_grid, so downstream
    consumers that need off-grid values at full accuracy (sup norms) can
    evaluate the trigonometric sum instead of interpolating.
    """

    resolution: int
    values: np.ndarray
    spec_lambda: float
    spec: EigenfunctionSpec | None = None

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        n = self.resolution
        if v.shape != (n, n):
            raise ValueError(f"values must be ({n}, {n}), got {v.shape}")
        object.__setattr__(self, "values", v)

    def interp(self, points: np.ndarray) -> np.ndarray:
        """Periodic bilinear interpolation at an (M, 2) batch of points."""
        pts = np.asarray(points, dtype=float)
        n = self.resolution
        g = pts * n
        i0 = np.floor(g).astype(np.int64)
        f = g - i0
        i0 %= n
        i1 = (i0 + 1) % n
        v = self.values
        v00 = v[i0[:, 0], i0[:, 1]]
        v10 = v[i1[:, 0], i0[:, 1]]
        v01 = v[i0[:, 0], i1[:, 1]]
        v11 = v[i1[:, 0], i1[:, 1]]
        fx = f[:, 0]
        fy = f[:, 1]
        return (v00 * (1 - fx) * (1 - fy) + v10 * fx * (1 - fy)
                + v01 * (1 - fx) * fy + v11 * fx * fy)

    def at(self, points: np.ndarray) -> np.ndarray:
        """Exact values when the generating spec is known, else bilinear."""
        if self.spec is not None:
            return np.atleast_1d(evaluate(self.spec, np.atleast_2d(points)))
        return self.interp(np.atleast_2d(points))


def sample_grid(spec: EigenfunctionSpec, n: int) -> SampledField:
    """Sample the eigenfunction on the uniform N x N torus grid.

    Placing the coefficients on the discrete spectral grid and inverting
    with an FFT reproduces the exact trigonometric sum at every grid point
    (no aliasing once n exceeds twice the largest mode component, which the
    precondition n >= ceil(10 sqrt(E)) guarantees with margin).
    """
    need = math.ceil(10.0 * math.sqrt(spec.energy))
    if n < max(need, 1):
        raise ResolutionTooCoarse(
            f"grid {n} too coarse for energy {spec.energy}; need n >= {max(need, 1)}")
    c = np.zeros((n, n), dtype=np.complex128)
    for (a, b), coeff in zip(spec.modes, spec.coeffs):
        c[a % n, b % n] += coeff
    vals = np.fft.ifft2(c) * (n * n)
    scale = float(np.sum(np.abs(spec.coeffs)))
    if np.max(np.abs(vals.imag)) > IMAG_TOL * scale:
        raise NonRealValue("sampled grid has a non-negligible imaginary part")
    return SampledField(n, np.ascontiguousarray(vals.real), spec.lam, spec)


def spec_to_json(spec: EigenfunctionSpec) -> str:
    """Serialize to the interchange JSON object (modes and re/im coefficient pairs)."""
    obj = {
        "energy": spec.energy,
        "modes": [[a, b] for a, b in spec.modes],
        "coeffs": [[float(c.real), float(c.imag)] for c in spec.coeffs],
        "lambda": spec.lam,
    }
    return json.dumps(obj, sort_keys=True)


def spec_from_json(text: str) -> EigenfunctionSpec:
    """Parse and re-validate a serialized eigenfunction."""
    obj = json.loads(text)
    modes = tuple((int(a), int(b)) for a, b in obj["modes"])
    coeffs = np.array([complex(re, im) for re, im in obj["coeffs"]])
    spec = EigenfunctionSpec(int(obj["energy"]), modes, coeffs)
    lam = obj.get("lambda")
    if lam is not None and abs(float(lam) - spec.lam) > 1e-9 * max(1.0, spec.lam):
        raise ValueError("serialized lambda inconsistent with energy")
    return spec
