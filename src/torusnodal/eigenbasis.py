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

import ctypes
import functools
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptySpectrum, NonRealValue, ResolutionTooCoarse
from .torus import blocks

TWO_PI = 2.0 * math.pi

# Relative headroom for the imaginary residue of a nominally real sum.
IMAG_TOL = 1e-10


def is_int(value) -> bool:
    """Whether a parsed JSON value is an integer (bool is not)."""
    return isinstance(value, int) and not isinstance(value, bool)


def is_number(value) -> bool:
    """An int that a float can hold, or a finite float: JSON output holds no nan or inf."""
    if is_int(value):
        try:
            float(value)
        except OverflowError:
            return False
        return True
    return isinstance(value, float) and math.isfinite(value)


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
        if not np.all(np.isfinite(self.coeffs)):
            raise ValueError("coefficients must be finite")
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


def _openblas_function(verb: str):
    """OpenBLAS's `verb` (e.g. set_num_threads) in the copy mapped into this process, or None."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split(maxsplit=5)[-1].strip() for line in fh if "openblas" in line.lower()}
        libs = [ctypes.CDLL(path) for path in sorted(paths)]
    except OSError:
        return None
    names = (f"scipy_openblas_{verb}64_", f"openblas_{verb}64_", f"openblas_{verb}")
    return next((getattr(lib, n) for lib in libs for n in names if hasattr(lib, n)), None)


@functools.cache
def _pin_blas_thread() -> None:
    if (setter := _openblas_function("set_num_threads")) is not None:
        setter.argtypes, setter.restype = (ctypes.c_int,), None
        setter(1)


def _mode_sum(pts: np.ndarray, xi: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """Complex sum_xi c_xi exp(2 pi i xi . x) at every row x of pts.

    Each row's sum is the same float in a batch of any size: BLAS sums two
    rows or more row by row alike, but one row along another path, so a lone
    row is summed as two equal rows.  A process pins OpenBLAS to one thread
    on its first BLAS use (this call or growth's tensor sums) and keeps it
    there: on these small products a helper thread only burns a second
    core.  harness.run_plan pins before its pool forks, so fork workers
    inherit the pin; spawned workers pin on their first use.  The sums are
    the same floats either way.
    """
    _pin_blas_thread()
    rows = pts if len(pts) != 1 else np.repeat(pts, 2, axis=0)
    return (np.exp((TWO_PI * 1j) * (rows @ xi.T)) @ coeffs)[:len(pts)]


def real_part(vals: np.ndarray, coeffs: np.ndarray, where=True) -> np.ndarray:
    """vals.real, once the imaginary residue of every value at where is checked.

    Raises NonRealValue if it exceeds IMAG_TOL sum |c_xi|, the coefficient mass.
    """
    if np.max(np.abs(vals.imag), where=where, initial=0.0) > IMAG_TOL * np.sum(np.abs(coeffs)):
        raise NonRealValue("evaluation produced a non-negligible imaginary part")
    return vals.real


def evaluate(spec: EigenfunctionSpec, pts) -> np.ndarray:
    """Evaluate the trigonometric sum exactly at an (M, 2) batch of points (see real_part)."""
    pts = np.asarray(pts, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or not np.all(np.isfinite(pts)):
        raise ValueError("points must be a finite (M, 2) array")
    return real_part(_mode_sum(pts, np.asarray(spec.modes, dtype=float), spec.coeffs), spec.coeffs)


@dataclass(frozen=True)
class SampledField:
    """Grid samples of a field on the torus: values[i, j] = u(i/N, j/N)."""

    resolution: int
    values: np.ndarray
    spec_lambda: float

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


# Columns per block of the axis-0 inverse FFT.
_FFT_COLUMNS = 64


def _column_blocks(modes, coeffs: np.ndarray, n: int):
    """Yield (j0, j1, block): columns j0:j1 of sum_xi c_xi exp(2 pi i xi . x) at x = (i/n, j/n).

    The inverse FFT is pruned to the spectrum: along axis 1 only the rows
    holding a nonzero coefficient are transformed (at most one per mode, so
    32 of 544 at E=1105), then each block of _FFT_COLUMNS columns along
    axis 0, scaled by n^2 as a complex product, as in ifft2(c) * n^2.
    np.fft.ifft2 also does axis 1 first, one row at a time, and then each
    column on its own, so each value is its float bit for bit.  The other
    rows all take the transform of a zero row, which is not all +0.0 at
    sizes such as 89 or 202, so axis 0 sees ifft2's very columns.  Only the
    occupied rows and one (n, _FFT_COLUMNS) block are held, never an n x n
    spectrum.
    """
    rows, slot = np.unique([a % n for a, _ in modes], return_inverse=True)
    c = np.zeros((len(rows), n), dtype=np.complex128)
    for k, (_, b), coeff in zip(slot, modes, coeffs):
        c[k, b % n] += coeff
    occupied = np.any(c, axis=1)
    rows = rows[occupied]
    transformed = np.fft.ifft(c[occupied], axis=1)
    zero_row = np.fft.ifft(np.zeros(n, dtype=np.complex128))
    for j0, j1 in blocks(n, 1, _FFT_COLUMNS):
        block = np.empty((n, j1 - j0), dtype=np.complex128)
        block[:] = zero_row[j0:j1]
        block[rows] = transformed[:, j0:j1]
        np.fft.ifft(block, axis=0, out=block)
        block *= n * n
        yield j0, j1, block


def require_sampling_grid(energy: int, n: int) -> None:
    """Raise ResolutionTooCoarse unless n >= ceil(10 sqrt(E)) (and n >= 1) for energy E."""
    need = max(math.ceil(10.0 * math.sqrt(energy)), 1)
    if n < need:
        raise ResolutionTooCoarse(f"grid {n} too coarse for energy {energy}; need n >= {need}")


def sample_grid(spec: EigenfunctionSpec, n: int) -> SampledField:
    """Sample the eigenfunction on the uniform N x N torus grid.

    Placing the coefficients on the discrete spectral grid and inverting
    with an FFT reproduces the exact trigonometric sum at every grid point
    (no aliasing once n exceeds twice the largest mode component, which
    require_sampling_grid guarantees with margin).  Each column block is
    checked by real_part and written into the field as it comes.
    """
    require_sampling_grid(spec.energy, n)
    vals = np.empty((n, n))
    for j0, j1, block in _column_blocks(spec.modes, spec.coeffs, n):
        vals[:, j0:j1] = real_part(block, spec.coeffs)
    return SampledField(n, vals, spec.lam)


def spec_to_json(spec: EigenfunctionSpec) -> str:
    """Serialize to the interchange JSON object (modes and re/im coefficient pairs)."""
    obj = {
        "energy": spec.energy,
        "modes": [[a, b] for a, b in spec.modes],
        "coeffs": [[float(c.real), float(c.imag)] for c in spec.coeffs],
        "lambda": spec.lam,
    }
    return json.dumps(obj, sort_keys=True)


def _pair_list(value, ok) -> bool:
    """Whether value is a list of two-element lists whose entries all pass ok."""
    return isinstance(value, list) and all(
        isinstance(p, list) and len(p) == 2 and all(map(ok, p)) for p in value)


def spec_from_json(text: str) -> EigenfunctionSpec:
    """Parse and re-validate a serialized eigenfunction; integers must be JSON integers."""
    obj = json.loads(text)
    if not (isinstance(obj, dict) and {"energy", "modes", "coeffs"} <= obj.keys()):
        raise ValueError("spec must be a JSON object with energy, modes and coeffs")
    if not is_int(obj["energy"]):
        raise ValueError(f"spec energy must be an integer; got {obj['energy']!r}")
    if not _pair_list(obj["modes"], is_int):
        raise ValueError(f"spec modes must be a list of integer pairs; got {obj['modes']!r}")
    if not _pair_list(obj["coeffs"], is_number):
        raise ValueError("spec coeffs must be a list of [re, im] finite number pairs")
    coeffs = np.array([complex(re, im) for re, im in obj["coeffs"]])
    spec = EigenfunctionSpec(obj["energy"], obj["modes"], coeffs)
    lam = obj.get("lambda", spec.lam)
    if not (is_number(lam) and abs(lam - spec.lam) <= 1e-9 * max(1.0, spec.lam)):
        raise ValueError("serialized lambda inconsistent with energy")
    return spec
