"""Deterministic SVG rendering of nodal sets with optional ball overlays.

The drawing lives in a unit-square viewBox with the y axis flipped to the
usual mathematical orientation.  All coordinates are printed with six
decimals, so identical inputs yield byte-identical files.
"""

from __future__ import annotations

import numpy as np

from .nodal import NodalSet, read_float_csv
from .torus import BUDGET_4K, blocks, wrap_delta

CANVAS = 640
SEGMENT_STROKE = "#1a466b"
BALL_STROKE = "#c2452d"
FRAME_STROKE = "#777777"


def render_svg(nodal: NodalSet | None = None,
               centers: np.ndarray | None = None,
               radius: float | None = None) -> str:
    """Render segments and circles to an SVG string.

    Segments crossing the torus seam are drawn in the chart of their first
    endpoint, so nothing smears across the square.  The path is formatted
    BUDGET_4K segments at a time and the document joined once.
    """
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{CANVAS}" '
        f'height="{CANVAS}" viewBox="-0.01 -0.01 1.02 1.02">\n',
        '<rect x="0" y="0" width="1" height="1" fill="white" '
        f'stroke="{FRAME_STROKE}" stroke-width="0.002"/>\n',
    ]
    if nodal is not None and nodal.count:
        parts.append('<path d="')
        for k0, k1 in blocks(nodal.count, 1, BUDGET_4K):
            a = nodal.a[k0:k1]
            b = a + wrap_delta(nodal.b[k0:k1] - a)
            xy = np.column_stack([a[:, 0], 1.0 - a[:, 1], b[:, 0], 1.0 - b[:, 1]])
            parts.append(("M%.6f %.6fL%.6f %.6f" * len(a)) % tuple(xy.ravel().tolist()))
        parts.append(f'" fill="none" stroke="{SEGMENT_STROKE}" stroke-width="0.0025" '
                     'stroke-linecap="round"/>\n')
    if centers is not None and radius is not None:
        centers = np.atleast_2d(np.asarray(centers, dtype=float))
        for c in centers:
            parts.append(f'<circle cx="{c[0]:.6f}" cy="{1.0 - c[1]:.6f}" '
                         f'r="{radius:.6f}" fill="none" '
                         f'stroke="{BALL_STROKE}" stroke-width="0.0012"/>\n')
    parts.append("</svg>\n")
    return "".join(parts)


def balls_from_csv(path: str) -> tuple[np.ndarray, float]:
    """Centers and the common positive radius of a cover CSV; a header-only file has no balls."""
    rows = read_float_csv(path, "center_x,center_y,radius", "ball file")
    # Not np.unique, which imports numpy.ma.
    if np.any(rows[:, 2] != rows[:1, 2]):
        raise ValueError(f"ball file {path}: rows carry more than one radius")
    if np.any(rows[:, 2] <= 0.0):
        raise ValueError(f"ball file {path}: radius {float(rows[0, 2])!r} is not positive")
    return rows[:, :2], float(rows[0, 2]) if len(rows) else 0.0
