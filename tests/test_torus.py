import numpy as np
import pytest
from hypothesis import given, strategies as st

from torusnodal.torus import blocks, periodic_distance, wrap_delta, wrap_point

coords = st.floats(
    min_value=-3.0, max_value=3.0, allow_nan=False, allow_infinity=False
)


@given(total=st.integers(0, 500), per_item=st.integers(1, 5000), budget=st.integers(0, 1 << 16))
def test_blocks_cover_range_in_order_at_the_budget_step(total, per_item, budget):
    got = list(blocks(total, per_item, budget))
    step = max(1, budget // per_item)
    assert [b0 for b0, _ in got] == list(range(0, total, step))  # empty for total 0
    assert all(b1 == b0 for (_, b1), (b0, _) in zip(got, got[1:]))  # contiguous
    assert (got[-1][1] == total) if total else (got == [])
    assert all(b1 - b0 == step for b0, b1 in got[:-1])
    assert all(0 < b1 - b0 <= step for b0, b1 in got)


@given(x=coords, y=coords)
def test_wrap_point_lands_in_unit_square(x, y):
    p = wrap_point(np.array([x, y]))
    assert np.all(p >= 0.0) and np.all(p < 1.0)


@given(x=coords, y=coords)
def test_wrap_delta_is_minimal_representative(x, y):
    d = wrap_delta(np.array([x, y]))
    assert np.all(d >= -0.5) and np.all(d < 0.5)
    # The wrapped delta differs from the input by an integer vector.
    k = np.array([x, y]) - d
    assert np.max(np.abs(k - np.round(k))) < 1e-9


@given(ax=coords, ay=coords, bx=coords, by=coords)
def test_periodic_distance_symmetry_and_bound(ax, ay, bx, by):
    a = np.array([ax, ay])
    b = np.array([bx, by])
    d = periodic_distance(a, b)
    # Symmetric up to floating-point reduction noise.
    assert d == pytest.approx(periodic_distance(b, a), abs=1e-12)
    assert 0.0 <= d <= np.sqrt(0.5) + 1e-12


def test_periodic_distance_known_values():
    assert periodic_distance(np.array([0.1, 0.0]), np.array([0.9, 0.0])) == pytest.approx(
        0.2, abs=1e-15
    )
    assert periodic_distance(np.array([0.0, 0.0]), np.array([0.5, 0.5])) == np.sqrt(0.5)
    assert periodic_distance(np.array([0.25, 0.75]), np.array([0.25, 0.75])) == 0.0


@given(ax=coords, ay=coords, bx=coords, by=coords, cx=coords, cy=coords)
def test_periodic_distance_triangle_inequality(ax, ay, bx, by, cx, cy):
    a, b, c = np.array([ax, ay]), np.array([bx, by]), np.array([cx, cy])
    assert periodic_distance(a, c) <= (
        periodic_distance(a, b) + periodic_distance(b, c) + 1e-12
    )


def test_wrap_delta_batched_shape():
    deltas = wrap_delta(np.array([[0.9, -0.9], [0.2, 0.6], [-0.5, 0.5]]))
    assert deltas.shape == (3, 2)
    assert np.allclose(deltas, [[-0.1, 0.1], [0.2, -0.4], [-0.5, -0.5]])


def mod_wrap_point(p):
    """Reference reduction by float %, as the package computed it before the floor form."""
    r = np.asarray(p, dtype=float) % 1.0
    return np.where(r >= 1.0, 0.0, r)


def mod_wrap_delta(d):
    r = (np.asarray(d, dtype=float) + 0.5) % 1.0
    return np.where(r >= 1.0, 0.0, r) - 0.5


def _adversarial():
    edges = np.array([5e-324, 1e-300, 1e-17, 2.0**-54, 2.0**-53, 0.25, 0.5, 1.0, 1.5,
                      2.0, 1e15, 2.0**52 + 0.5, 1e16, 1e300])
    near = np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges, 3.0)])
    rng = np.random.default_rng(11)
    return np.concatenate([near, -near, [0.0, -0.0], rng.random(1000),
                           rng.uniform(-1e6, 1e6, 1000), np.logspace(-300, 3, 500),
                           -np.logspace(-300, 3, 500)])


def assert_same_bits(got, want):
    assert np.shape(got) == np.shape(want)
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


@given(x=st.floats(allow_nan=False, allow_infinity=False))
def test_floor_wraps_equal_the_mod_reference_bit_for_bit(x):
    assert_same_bits(wrap_point(x), mod_wrap_point(x))
    assert_same_bits(wrap_delta(x), mod_wrap_delta(x))


def test_floor_wraps_equal_the_mod_reference_on_adversarial_values():
    values = _adversarial()
    assert_same_bits(wrap_point(values), mod_wrap_point(values))
    assert_same_bits(wrap_delta(values), mod_wrap_delta(values))
    grid = values[:2000].reshape(-1, 2)
    assert_same_bits(wrap_delta(grid), mod_wrap_delta(grid))
    # A tiny negative rounds to 1.0 before the fold; signed zeros come back as +0.0.
    assert wrap_point(-1e-300) == 0.0
    assert np.signbit(wrap_point(np.array([-0.0, 0.0]))).tolist() == [False, False]
    # The input is not modified.
    before = grid.copy()
    wrap_point(grid)
    wrap_delta(grid)
    assert_same_bits(grid, before)


def test_periodic_distance_equals_the_norm_form_bit_for_bit():
    rng = np.random.default_rng(12)
    p = rng.uniform(-3.0, 3.0, (5000, 2))
    for q in (rng.uniform(-3.0, 3.0, 2), np.array([0.5, 0.5]), np.zeros(2)):
        want = np.linalg.norm(mod_wrap_delta(p - q), axis=-1)
        assert_same_bits(periodic_distance(p, q), want)
    assert_same_bits(periodic_distance(p[0], p[1]),
                     np.linalg.norm(mod_wrap_delta(p[0] - p[1]), axis=-1))
