import numpy as np
import pytest
from hypothesis import settings

from torusnodal.eigenbasis import (EigenfunctionSpec, _mode_sum, random_eigenfunction, real_part,
                                   sample_grid)
from torusnodal.errors import BallTooLarge
from torusnodal.harness import function_integrals, torus_integral
from torusnodal.nodal import NodalSet, clip_batches, extract_nodal
from torusnodal.torus import BUDGET_32K, wrap_delta, wrap_point

settings.register_profile("suite", deadline=None, max_examples=25)
settings.load_profile("suite")


def separable_sine_spec() -> EigenfunctionSpec:
    """The fixture 2 sin(2 pi x) sin(2 pi y): energy 2, nodal set 4 circles."""
    modes = ((-1, -1), (-1, 1), (1, -1), (1, 1))
    coeffs = np.array([-0.5, 0.5, 0.5, -0.5], dtype=complex)
    return EigenfunctionSpec(2, modes, coeffs)


def evaluate(spec: EigenfunctionSpec, pts) -> np.ndarray:
    """The point-evaluation oracle: the exact trigonometric sum at an (M, 2) batch of points.

    One _mode_sum over every row, its imaginary residue checked by real_part.
    """
    pts = np.asarray(pts, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or not np.all(np.isfinite(pts)):
        raise ValueError("points must be a finite (M, 2) array")
    return real_part(_mode_sum(pts, np.asarray(spec.modes, dtype=float), spec.coeffs), spec.coeffs)


def integrals_for(field, nodal, test_functions):
    """function_integrals of test_functions, with areas on field's grid as run_single takes them."""
    return function_integrals(nodal, test_functions,
                              [torus_integral(tf, field.resolution) for tf in test_functions])


def clip_family(nodal: NodalSet, centers, r: float, batches=clip_batches):
    """Exact intersection of the nodal set with every metric ball B(c, r), c in centers.

    Returns (piece_len, piece_mid, offsets): ball k's pieces are rows
    offsets[k]:offsets[k + 1], the pieces of batches (clip_batches, or the
    all-chord reference_clip_batches) joined in ball order.
    The whole family's pieces at once, as a reference for the batched kernels.
    """
    centers = np.asarray(centers, dtype=float).reshape(-1, 2)
    parts = [(np.empty(0), np.empty((0, 2)), np.empty(0, dtype=np.int64))]
    parts += [batch[2:] for batch in batches(nodal, centers, r)]
    piece_len, piece_mid, owners = (np.concatenate(x) for x in zip(*parts))
    return piece_len, piece_mid, np.searchsorted(owners, np.arange(len(centers) + 1))


def reference_clip_batches(nodal, centers, r: float):
    """The all-chord clip_batches: one loop body that clips every near pair's chord.

    Every temporary of a batch is alive at its yield.  No segment is taken
    whole, so this is the oracle for the kernel's whole-segment shortcut.
    """
    if not 0.0 < r < 0.5:
        raise BallTooLarge(f"ball radius must lie in (0, 1/2), got {r!r}")
    index = nodal._index
    if r > 0.5 - index.max_len:
        raise BallTooLarge(
            f"radius {r!r} leaves no chart margin for segments of length {index.max_len!r}")
    centers = np.asarray(centers, dtype=float).reshape(-1, 2)
    nb, count = index.buckets, nodal.count
    reach = r + index.max_len / 2.0
    lo = np.floor((centers - reach) * nb).astype(np.int64) - 1
    hi = np.floor((centers + reach) * nb).astype(np.int64) + 1
    w = min(nb, int(np.max(hi - lo, initial=0)) + 1)
    bound = reach * nb + 1.0 if w < nb else 2.0 * nb + 2.0
    step = max(1, BUDGET_32K // (w * w))
    for b0 in range(0, len(centers), step):
        rows = lo[b0:b0 + step, :1] + np.arange(w)
        u = centers[b0:b0 + step] * nb
        gap = np.maximum(np.maximum(rows - u[:, :1], u[:, :1] - rows - 1.0), 0.0)
        k, i = np.nonzero(gap <= bound)
        h = np.sqrt(bound * bound - gap[k, i] ** 2)
        j0 = np.maximum(lo[b0 + k, 1], np.ceil(u[k, 1] - 1.0 - h).astype(np.int64))
        j1 = np.minimum(lo[b0 + k, 1] + w - 1, np.floor(u[k, 1] + h).astype(np.int64))
        base = rows[k, i] % nb * nb
        jl = j0 % nb
        end = jl + np.maximum(j1 - j0 + 1, 0)
        first = index.starts[np.concatenate([base + jl, base])]
        sizes = index.starts[np.concatenate([base + np.minimum(end, nb),
                                             base + np.maximum(end - nb, 0)])] - first
        ball = np.repeat(np.concatenate([k, k]) + b0, sizes)
        pos = np.repeat(first - (np.cumsum(sizes) - sizes), sizes) + np.arange(ball.size)
        seg = index.order[pos]

        dx = wrap_delta(nodal.midpoints[seg, 0] - centers[ball, 0])
        dy = wrap_delta(nodal.midpoints[seg, 1] - centers[ball, 1])
        near = np.sqrt(dx * dx + dy * dy) <= r + nodal.lengths[seg] / 2.0
        ball, seg = np.divmod(np.sort(ball[near] * count + seg[near]), count)
        cx, cy = centers[ball, 0], centers[ball, 1]
        ax = wrap_delta(nodal.a[seg, 0] - cx)
        ay = wrap_delta(nodal.a[seg, 1] - cy)
        dx = wrap_delta(wrap_delta(nodal.b[seg, 0] - cx) - ax)
        dy = wrap_delta(wrap_delta(nodal.b[seg, 1] - cy) - ay)
        qa = dx * dx + dy * dy
        qb = 2.0 * (ax * dx + ay * dy)
        qc = (ax * ax + ay * ay) - r * r
        disc = qb * qb - 4.0 * qa * qc

        ok = (disc > 0.0) & (qa > 1e-300)
        root = np.sqrt(np.where(ok, disc, 0.0))
        with np.errstate(divide="ignore", invalid="ignore"):
            t_lo = np.where(ok, np.clip((-qb - root) / (2.0 * qa), 0.0, 1.0), 0.0)
            t_hi = np.where(ok, np.clip((-qb + root) / (2.0 * qa), 0.0, 1.0), 0.0)
        frac = t_hi - t_lo
        keep = frac > 0.0
        tmid = (t_lo[keep] + t_hi[keep]) / 2.0
        mid = np.column_stack([cx[keep] + ax[keep] + dx[keep] * tmid,
                               cy[keep] + ay[keep] + dy[keep] * tmid])
        yield (b0, min(b0 + step, len(centers)), frac[keep] * nodal.lengths[seg[keep]],
               wrap_point(mid), ball[keep])


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
