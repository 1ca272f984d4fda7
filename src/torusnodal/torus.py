"""Small periodic-geometry helpers shared across modules.

All coordinates live on the unit torus [0,1)^2; displacement vectors are
reduced to the fundamental chart [-1/2, 1/2)^2 componentwise, which realizes
the minimum-image convention for distances below 1/2.

Reduction is y - floor(y), which equals numpy's float y % 1.0 bit for bit
at a fraction of its cost: % takes fmod(y, 1), which is exact, and adds 1
when that is negative, so both round the same real number y + k once.
"""

from __future__ import annotations

import numpy as np

# Budgets of blocks(), the one rule for bounded temporaries, in elements per block.
BUDGET_64K = 1 << 16  # squared or marched grid cells: ball masses and brackets, extract_nodal
BUDGET_32K = 1 << 15  # clip window buckets, weighted midpoints, torus_integral's cells
BUDGET_16K = 1 << 14  # build_cover's center-hole distances, sign_changes' probe points
BUDGET_4K = 4096  # CSV rows and SVG path segments formatted at a time


def blocks(total: int, per_item: int, budget: int):
    """Yield (b0, b1) over range(total) in order, max(1, budget // per_item) items a block."""
    step = max(1, budget // per_item)
    for b0 in range(0, total, step):
        yield b0, min(b0 + step, total)


def _reduce(r: np.ndarray) -> np.ndarray:
    """Reduce a float array into [0, 1) in place."""
    r -= np.floor(r)
    # Tiny negative values round up to exactly 1.0; keep the interval half-open.
    r[r >= 1.0] = 0.0
    return r


def wrap_point(p: np.ndarray) -> np.ndarray:
    """Reduce coordinates into [0, 1)."""
    return _reduce(np.array(p, dtype=float))


def wrap_delta(d: np.ndarray) -> np.ndarray:
    """Reduce a displacement componentwise into [-1/2, 1/2)."""
    # d + 1/2 is the only copy; a 0-d d gives a 0-d array.
    r = _reduce(np.add(d, 0.5, dtype=float, out=np.empty(np.shape(d))))
    r -= 0.5
    return r


def periodic_distance(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Geodesic distance on the flat torus (scalar or batched along axis -1)."""
    d = wrap_delta(np.asarray(p, dtype=float) - q)
    return np.sqrt(d[..., 0] * d[..., 0] + d[..., 1] * d[..., 1])
