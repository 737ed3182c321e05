import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from targetmd import (DomainError, MirrorGeometry, box, bregman,
                      entropy_geometry, euclidean_geometry, make_members,
                      simplex, synthesized_geometry,
                      weighted_quadratic_geometry, whole_space)
from targetmd.errors import ConfigurationError
from targetmd.geometry import INTERIOR_FLOOR, softmax

from reference_impls import brute_force_simplex_projection_2d

SEED = 20240811


def all_geometries():
    return [
        euclidean_geometry(whole_space(2)),
        euclidean_geometry(simplex(2)),
        entropy_geometry(2),
        entropy_geometry(3),
        weighted_quadratic_geometry([2.0, 4.0]),
    ]


# --- constructor examples -------------------------------------------------

def test_euclidean_whole_space_identity():
    # the mirror map returns its input and scans nothing: a NaN dual point
    # passes through, to be caught by the stepping loop; the set's
    # projection still rejects it
    s = whole_space(2)
    g = euclidean_geometry(s)
    z = np.array([3.0, -1.0])
    assert g.grad_h_conj(z) is z
    nan = np.array([np.nan, 1.0])
    assert g.grad_h_conj(nan) is nan
    with pytest.raises(DomainError, match="NaN"):
        s.project(nan)


def test_euclidean_simplex_symmetry():
    g = euclidean_geometry(simplex(2))
    assert np.allclose(g.grad_h_conj(np.array([0.6, 0.6])), [0.5, 0.5])


def test_euclidean_simplex_threshold_case():
    # brute-force grid oracle pins the expected projection
    v = np.array([1.2, -0.2])
    g = euclidean_geometry(simplex(2))
    expected = brute_force_simplex_projection_2d(v)
    assert np.allclose(expected, [1.0, 0.0], atol=1e-3)
    assert np.allclose(g.grad_h_conj(v), [1.0, 0.0], atol=1e-12)


def test_entropy_softmax_examples():
    g = entropy_geometry(2)
    assert np.allclose(g.grad_h_conj(np.zeros(2)), [0.5, 0.5])
    assert np.allclose(g.grad_h_conj(np.array([math.log(2.0), 0.0])),
                       [2.0 / 3.0, 1.0 / 3.0])
    assert np.allclose(g.grad_h(np.array([0.5, 0.5])),
                       [1.0 - math.log(2.0)] * 2)


def test_entropy_rejects_boundary_and_small_dim():
    g = entropy_geometry(2)
    with pytest.raises(DomainError):
        g.grad_h(np.array([1.0 - 1e-14, 1e-14]))
    with pytest.raises(ConfigurationError):
        entropy_geometry(1)


def test_entropy_floor_is_documented_value():
    assert INTERIOR_FLOOR == 1e-12


@pytest.mark.parametrize("shape", [(3,), (4, 3)])
def test_entropy_gradient_rejects_a_coordinate_just_below_the_floor(shape):
    g = entropy_geometry(3)
    x = np.full(shape, 1.0 / 3.0)
    below = np.nextafter(INTERIOR_FLOOR, 0.0)
    x.flat[-1] = below
    message = (f"entropy gradient needs every coordinate >= {INTERIOR_FLOOR:g}; "
               f"got min {below:.3e}")
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        g.grad_h(x)
    x.flat[-1] = INTERIOR_FLOOR
    assert np.all(np.isfinite(g.grad_h(x)))


def _jacobian_cases():
    """(geometry, point x, the Jacobian H of its mirror map at x written
    out densely): box coordinates on a bound, simplex points with zero
    coordinates, an entropy point whose first coordinate underflows."""
    box_x = np.array([0.0, 0.3, 1.0, 0.7])
    simplex_x = np.array([0.0, 0.6, 0.0, 0.4])
    support = np.array([0.0, 1.0, 0.0, 1.0])
    entropy_x = softmax(np.array([-800.0, 0.3, 1.2, -0.5]))
    assert entropy_x[0] == 0.0
    w1, w2 = np.array([0.5, 2.0, 3.0, 4.0]), np.array([1.0, 1.0, 2.0, 8.0])
    members = make_members([weighted_quadratic_geometry(w1), weighted_quadratic_geometry(w2)],
                           [np.zeros(4), np.ones(4)])
    return [
        pytest.param(euclidean_geometry(whole_space(4)), box_x, np.eye(4), id="whole_space"),
        pytest.param(euclidean_geometry(box(np.zeros(4), np.ones(4))), box_x,
                     np.diag([0.0, 1.0, 0.0, 1.0]), id="box"),
        pytest.param(euclidean_geometry(simplex(4)), simplex_x,
                     np.diag(support) - np.outer(support, support) / 2.0, id="simplex"),
        pytest.param(entropy_geometry(4), entropy_x,
                     np.diag(entropy_x) - np.outer(entropy_x, entropy_x), id="entropy"),
        pytest.param(weighted_quadratic_geometry(w1), box_x, np.diag(1.0 / w1), id="weighted"),
        pytest.param(synthesized_geometry(members), box_x,
                     np.diag(0.5 * (1.0 / w1 + 1.0 / w2)), id="synthesized"),
    ]


@pytest.mark.parametrize("geometry, x, h", _jacobian_cases())
def test_conj_jacobian_times_is_the_product_with_the_dense_jacobian(geometry, x, h):
    # a of shape (d,), a C-ordered (k, d) stack and a transposed (F-ordered)
    # one, as the Newton matrix's forward differences are; a is not written
    assert np.array_equal(h, h.T)   # so a 1-D product is also H @ a
    rng = np.random.default_rng(31)
    for a in (rng.normal(size=4), rng.normal(size=(3, 4)), rng.normal(size=(4, 4)).T):
        before = a.copy()
        ours = geometry.conj_jacobian_times(x, a)
        assert ours.shape == a.shape
        np.testing.assert_allclose(ours, a @ h, rtol=1e-14, atol=1e-15)
        assert np.array_equal(a, before)


def test_a_dense_jacobian_fails_where_the_geometry_is_built():
    g = euclidean_geometry(whole_space(2))
    with pytest.raises(TypeError, match="conj_jacobian"):
        MirrorGeometry(eval_h=g.eval_h, grad_h=g.grad_h, grad_h_conj=g.grad_h_conj,
                       strong_convexity_modulus=1.0, domain=g.domain,
                       conj_jacobian=lambda x: np.eye(2))


def test_weighted_quadratic_examples():
    g = weighted_quadratic_geometry([1.0, 1.0])
    assert np.allclose(g.grad_h_conj(np.array([2.0, 3.0])), [2.0, 3.0])
    g = weighted_quadratic_geometry([2.0, 4.0])
    assert np.allclose(g.grad_h_conj(np.array([2.0, 4.0])), [1.0, 1.0])
    x = np.array([1.0, 1.0])
    assert np.allclose(g.grad_h_conj(g.grad_h(x)), x)
    assert g.strong_convexity_modulus == 2.0
    with pytest.raises(ConfigurationError):
        weighted_quadratic_geometry([1.0, 0.0])


# --- Bregman divergence ---------------------------------------------------

def test_bregman_euclidean_half_square():
    g = euclidean_geometry(whole_space(2))
    assert bregman(g, np.array([1.0, 0.0]), np.array([0.0, 0.0])) == pytest.approx(0.5)


def test_bregman_zero_at_equal_points():
    g = entropy_geometry(2)
    x = np.array([0.5, 0.5])
    assert abs(bregman(g, x, x)) <= 1e-12


def test_bregman_entropy_matches_high_precision_value():
    # oracle: evaluate the defining sum with mpmath at 50 digits
    import mpmath
    mpmath.mp.dps = 50
    x_hp = [mpmath.mpf("0.75"), mpmath.mpf("0.25")]
    y_hp = [mpmath.mpf("0.5"), mpmath.mpf("0.5")]
    hx = sum(v * mpmath.log(v) for v in x_hp)
    hy = sum(v * mpmath.log(v) for v in y_hp)
    inner = sum((mpmath.log(v) + 1) * (a - v) for v, a in zip(y_hp, x_hp))
    oracle = float(hx - hy - inner)
    assert oracle == pytest.approx(0.130812, abs=1e-6)
    g = entropy_geometry(2)
    value = bregman(g, np.array([0.75, 0.25]), np.array([0.5, 0.5]))
    assert value == pytest.approx(oracle, abs=1e-12)


def test_bregman_rejects_interior_violations():
    g = entropy_geometry(2)
    with pytest.raises(DomainError):
        bregman(g, np.array([0.5, 0.5]), np.array([1.0, 0.0]))


# --- sampled invariants ---------------------------------------------------

def _interior_samples(geometry, rng, n):
    return geometry.domain.sample_interior(rng, n)


@pytest.mark.parametrize("geometry", all_geometries(),
                         ids=lambda g: f"{g.name}-{g.domain.kind}-{g.dim}")
def test_round_trip_identity(geometry):
    rng = np.random.default_rng(SEED)
    for x in _interior_samples(geometry, rng, 1000):
        back = geometry.grad_h_conj(geometry.grad_h(x))
        assert np.linalg.norm(back - x) <= 1e-10


@pytest.mark.parametrize("geometry", all_geometries(),
                         ids=lambda g: f"{g.name}-{g.domain.kind}-{g.dim}")
def test_bregman_nonnegative_and_diagonal_zero(geometry):
    rng = np.random.default_rng(SEED + 1)
    xs = _interior_samples(geometry, rng, 300)
    ys = _interior_samples(geometry, rng, 300)
    for x, y in zip(xs, ys):
        assert bregman(geometry, x, y) >= -1e-12
    for x in xs[:100]:
        assert bregman(geometry, x, x) <= 1e-12


def test_softmax_normalization_and_positivity():
    g = entropy_geometry(3)
    rng = np.random.default_rng(SEED + 2)
    for z in rng.normal(scale=20.0, size=(1000, 3)):
        x = g.grad_h_conj(z)
        assert abs(x.sum() - 1.0) <= 1e-12
        assert np.all(x > 0.0)


def _rows_as_own_calls(stack):
    rows = softmax(stack)
    return rows.shape == stack.shape and all(
        rows[k].tobytes() == softmax(stack[k]).tobytes() for k in range(len(stack)))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 9), st.integers(1, 300), st.integers(0, 2**32 - 1))
def test_softmax_maps_each_row_of_a_stack_as_its_own_call(n, dim, seed):
    # rows far apart in scale, so that one normalizer for the whole stack
    # would show; dims past 8 and 128 reach numpy's pairwise summation
    rng = np.random.default_rng(seed)
    stack = rng.standard_normal((n, dim)) * 10.0 ** rng.integers(-3, 3, (n, 1))
    assert _rows_as_own_calls(stack)
    assert np.all(np.abs(softmax(stack).sum(axis=-1) - 1.0) <= 1e-12)


@pytest.mark.parametrize("shape", [(8, 100_001), (3, 1000)])
def test_softmax_rows_keep_their_bits_at_large_dims(shape):
    stack = np.random.default_rng(SEED + 7).standard_normal(shape) * 5.0
    assert _rows_as_own_calls(stack)


def test_conjugate_matches_grid_argmax_entropy():
    # grad_h_conj(z) should maximize <z, x> - h(x); check on a simplex grid
    g = entropy_geometry(2)
    grid = np.arange(1e-3, 1.0, 1e-3)
    pts = np.stack([grid, 1.0 - grid], axis=1)
    h_vals = np.array([g.eval_h(p) for p in pts])
    rng = np.random.default_rng(SEED + 3)
    for z in rng.normal(size=(25, 2)):
        best = pts[np.argmax(pts @ z - h_vals)]
        assert np.linalg.norm(g.grad_h_conj(z) - best) <= 1.5e-3


def test_conjugate_matches_grid_argmax_euclidean_box():
    from targetmd import box
    g = euclidean_geometry(box([0.0, 0.0], [1.0, 1.0]))
    grid = np.arange(0.0, 1.0 + 5e-4, 1e-3)
    xs, ys = np.meshgrid(grid, grid)
    pts = np.stack([xs.ravel(), ys.ravel()], axis=1)
    h_vals = 0.5 * np.sum(pts ** 2, axis=1)
    rng = np.random.default_rng(SEED + 4)
    for z in rng.normal(scale=1.5, size=(10, 2)):
        best = pts[np.argmax(pts @ z - h_vals)]
        assert np.linalg.norm(g.grad_h_conj(z) - best) <= 1.5e-3


def test_mirror_map_image_is_feasible():
    rng = np.random.default_rng(SEED + 5)
    for geometry in all_geometries():
        for z in rng.normal(scale=5.0, size=(200, geometry.dim)):
            assert geometry.domain.contains(geometry.grad_h_conj(z), tol=1e-9)


# --- mirror-map round trips -------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(arrays(float, st.integers(1, 8), elements=st.floats(-1e300, 1e300)))
def test_euclidean_round_trip(x):
    g = euclidean_geometry(whole_space(x.size))
    assert np.array_equal(g.grad_h_conj(g.grad_h(x)), x)


@settings(max_examples=200, deadline=None)
@given(arrays(float, st.integers(2, 8), elements=st.floats(1e-6, 1.0)))
def test_entropy_round_trip(w):
    x = w / w.sum()  # every entry >= 1e-6 / 8, far above INTERIOR_FLOOR
    g = entropy_geometry(x.size)
    assert np.allclose(g.grad_h_conj(g.grad_h(x)), x, rtol=1e-12, atol=0.0)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 8).flatmap(lambda d: st.tuples(
    arrays(float, d, elements=st.floats(1e-3, 1e3)),
    arrays(float, d, elements=st.floats(-1e6, 1e6)))))
def test_weighted_quadratic_round_trip(case):
    w, x = case
    g = weighted_quadratic_geometry(w)
    assert np.allclose(g.grad_h_conj(g.grad_h(x)), x, rtol=1e-15, atol=1e-300)
