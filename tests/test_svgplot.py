import re

import numpy as np
import pytest

from torusnodal.covering import balls_from_csv, build_cover, family_to_csv
from torusnodal.eigenbasis import random_eigenfunction, sample_grid, sine_mode_spec
from torusnodal.nodal import NodalSet, extract_nodal
from torusnodal.svgplot import BALL_STROKE, CANVAS, FRAME_STROKE, SEGMENT_STROKE, render_svg
from torusnodal.torus import wrap_delta

from test_eigenbasis import traced_peak


def parent_render_svg(nodal=None, centers=None, radius=None):
    """The render_svg that the chunked kernel replaced: one format of 4 * count floats."""
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{CANVAS}" '
        f'height="{CANVAS}" viewBox="-0.01 -0.01 1.02 1.02">',
        '<rect x="0" y="0" width="1" height="1" fill="white" '
        f'stroke="{FRAME_STROKE}" stroke-width="0.002"/>',
    ]
    if nodal is not None and nodal.count:
        a = nodal.a
        b = a + wrap_delta(nodal.b - nodal.a)
        xy = np.column_stack([a[:, 0], 1.0 - a[:, 1], b[:, 0], 1.0 - b[:, 1]])
        moves = ("M%.6f %.6fL%.6f %.6f" * nodal.count) % tuple(xy.ravel().tolist())
        parts.append(f'<path d="{moves}" fill="none" '
                     f'stroke="{SEGMENT_STROKE}" stroke-width="0.0025" '
                     'stroke-linecap="round"/>')
    if centers is not None and radius is not None:
        centers = np.atleast_2d(np.asarray(centers, dtype=float))
        for c in centers:
            parts.append(f'<circle cx="{c[0]:.6f}" cy="{1.0 - c[1]:.6f}" '
                         f'r="{radius:.6f}" fill="none" '
                         f'stroke="{BALL_STROKE}" stroke-width="0.0012"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def test_svg_skeleton():
    nodal = extract_nodal(sample_grid(sine_mode_spec(1), 64))
    svg = render_svg(nodal)
    assert svg.startswith("<svg ")
    assert 'viewBox="-0.01 -0.01 1.02 1.02"' in svg
    assert svg.rstrip().endswith("</svg>")
    assert svg.count("<path") == 1  # one segment soup path
    assert "<circle" not in svg


def test_svg_balls_render_as_circles():
    nodal = extract_nodal(sample_grid(sine_mode_spec(1), 64))
    centers = np.array([[0.2, 0.2], [0.8, 0.5]])
    svg = render_svg(nodal, centers=centers, radius=0.1)
    assert svg.count("<circle") == 2
    assert 'fill="none"' in svg


def test_svg_segments_do_not_streak_across_the_seam():
    # Segments with endpoints on either side of the seam must be drawn with
    # the wrapped (short) representative, never as near-unit-length strokes.
    nodal = extract_nodal(sample_grid(random_eigenfunction(65, 7), 256))
    svg = render_svg(nodal)
    path = re.search(r'<path d="([^"]+)"', svg).group(1)
    for piece in path.split("M")[1:]:
        a, b = piece.split("L")
        ax, ay = map(float, a.split())
        bx, by = map(float, b.split())
        assert abs(bx - ax) < 0.05 and abs(by - ay) < 0.05


def test_svg_path_matches_the_per_segment_reference(e65_nodal, awkward_nodal):
    for nodal in (e65_nodal, awkward_nodal):
        a = nodal.a
        b = a + wrap_delta(nodal.b - nodal.a)
        want = "".join(f"M{a[k, 0]:.6f} {1.0 - a[k, 1]:.6f}L{b[k, 0]:.6f} {1.0 - b[k, 1]:.6f}"
                       for k in range(nodal.count))
        assert re.search(r'<path d="([^"]*)"', render_svg(nodal)).group(1) == want
    assert "M-0.000000 " in render_svg(awkward_nodal)


def test_svg_is_deterministic():
    nodal = extract_nodal(sample_grid(random_eigenfunction(65, 3), 256))
    fam = build_cover(0.15, seed=0)
    one = render_svg(nodal, centers=fam.centers, radius=fam.radius)
    two = render_svg(nodal, centers=fam.centers, radius=fam.radius)
    assert one == two


def test_balls_csv_round_trip(tmp_path):
    fam = build_cover(0.15, seed=3)
    path = tmp_path / "cover.csv"
    family_to_csv(fam, str(path))
    centers, radius = balls_from_csv(str(path))
    assert radius == fam.radius
    assert np.array_equal(centers, fam.centers)


@pytest.mark.parametrize("radius", ["-0.1", "0.0", "-0.0"])
def test_balls_csv_rejects_a_non_positive_radius(tmp_path, radius):
    # SVG forbids a negative r, and a zero r draws nothing.
    path = tmp_path / "balls.csv"
    path.write_text(f"center_x,center_y,radius\n0.1,0.2,{radius}\n0.5,0.5,{radius}\n")
    with pytest.raises(ValueError) as err:
        balls_from_csv(str(path))
    assert str(err.value) == f"ball file {path}: radius {float(radius)!r} is not positive"


def test_svg_matches_the_parent_kernel(e65_nodal, awkward_nodal, e1105_nodal):
    # 51,228 segments at E=1105 span 13 chunks, the last one partial.
    fam = build_cover(0.15, seed=0)
    empty = np.empty((0, 2))
    for nodal in (e65_nodal, awkward_nodal, e1105_nodal, NodalSet(empty, empty, np.empty(0), empty),
                  None):
        for overlay in ((), (fam.centers, fam.radius), (fam.centers, None), (np.empty((0, 2)), 0.1)):
            assert render_svg(nodal, *overlay) == parent_render_svg(nodal, *overlay)


def test_svg_memory_is_bounded(e1105_nodal):
    # tracemalloc peak at E=1105, seed 0, N=544 (a 1.9 MB path): 3.80 MB, the
    # path's chunks and the joined document, against 12.04 MB for
    # parent_render_svg's tuple of 4 * count floats and its copies of the path.
    fam = build_cover(0.15, seed=0)
    peak = traced_peak(lambda: render_svg(e1105_nodal, fam.centers, fam.radius))
    assert peak < 4_000_000 <= traced_peak(
        lambda: parent_render_svg(e1105_nodal, fam.centers, fam.radius)), peak
