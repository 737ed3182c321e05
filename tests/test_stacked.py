"""A stack of points (the rows of an array) evaluates exactly as its rows
one at a time: F, the shadow, project, contains, natural_residual, eval_h,
grad_h and bregman.  The recorder relies on this to evaluate a run's
diagnostics once, on its stacked samples, with each sample's own bits."""

import numpy as np
import pytest

from targetmd import (MirrorGeometry, VIProblem, affine_box_split, bregman, box,
                      entropy_geometry, euclidean_geometry, library_problem,
                      make_members, natural_residual, preset_dr, simplex,
                      synthesized_geometry, weighted_quadratic_geometry,
                      whole_space)
from targetmd.errors import ConfigurationError
from targetmd.problems import LIBRARY

SEED = 2024
N = 60


def _rows(fn, stack):
    return np.array([fn(row) for row in stack])


def _assert_rowwise(fn, stack):
    got = fn(stack)
    assert got.shape[0] == stack.shape[0]
    assert np.array_equal(got, _rows(fn, stack))


def _problems():
    for name in sorted(LIBRARY):
        yield library_problem(name)
    for dim in (3, 7):
        yield library_problem("skew_bilinear", dim=dim)
        yield library_problem("linear_monotone", dim=dim)
    yield library_problem("constrained_quadratic", dim=4)
    yield library_problem("vertex_cost_simplex", costs=(3.0, 1.0, 2.0, 5.0))
    yield affine_box_split()[1]


def _points(dim, rng, far=False):
    """Points on and off a set, at scales from 1e-3 to 1e3 (and, when far,
    up to 1e200, where the simplex projection takes its shift fallback)."""
    scales = [1e-3, 1.0, 1e3] + ([1e15, 1e100, 1e200] if far else [])
    stack = np.concatenate([s * rng.standard_normal((N // 3, dim)) for s in scales])
    if far:
        spike = np.full(dim, 3.0)
        spike[:2] = 1e200, -1e200
        stack = np.concatenate([stack, np.full((1, dim), 1e15), [spike, spike[::-1]]])
    return stack


@pytest.mark.parametrize("problem", list(_problems()), ids=lambda p: f"{p.name}-{p.feasible_set.dim}")
def test_problem_operator_and_natural_residual_act_row_by_row(problem):
    rng = np.random.default_rng(SEED)
    stack = _points(problem.feasible_set.dim, rng)
    _assert_rowwise(problem.F, stack)
    _assert_rowwise(lambda x: natural_residual(problem, x), stack)


@pytest.mark.parametrize("feasible_set", [
    whole_space(3), simplex(2), simplex(3), simplex(9),
    box([-1.0, 0.0, 2.0], [1.0, 0.5, 3.0])], ids=lambda s: f"{s.kind}-{s.dim}")
def test_projection_and_membership_act_row_by_row(feasible_set):
    rng = np.random.default_rng(SEED)
    far = _points(feasible_set.dim, rng, far=True)
    with np.errstate(over="ignore", invalid="ignore"):
        _assert_rowwise(feasible_set.project, far)
    on_set = feasible_set.sample(rng, N)
    with np.errstate(over="ignore", invalid="ignore"):
        stack = np.concatenate([on_set, far, feasible_set.project(far[:N])])
    _assert_rowwise(feasible_set.contains, stack)
    assert feasible_set.contains(on_set).all()


def test_the_far_rows_take_the_simplex_shift_fallback():
    # the support of these rows comes out empty before the shift
    far = np.array([[1e200, -1e200, 3.0], [2.0, 1e200, -1e200]])
    assert np.array_equal(simplex(3).project(far), [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])


def test_douglas_rachford_shadow_acts_row_by_row():
    pair, problem = affine_box_split(shift=2.0)
    spec = preset_dr(pair, whole_space(1), 1.0)
    stack = _points(1, np.random.default_rng(SEED))
    _assert_rowwise(spec.shadow, stack)
    _assert_rowwise(lambda x: natural_residual(problem, spec.shadow(x)), stack)


def _geometries():
    members = make_members(
        [weighted_quadratic_geometry([1.0, 2.0, 0.5]), euclidean_geometry(whole_space(3))],
        [np.array([2.0, 0.0, -1.0]), np.array([0.0, 1.0, 1.0])])
    return [euclidean_geometry(whole_space(3)), euclidean_geometry(simplex(3)),
            euclidean_geometry(box([0.0, -1.0, 0.0], [1.0, 1.0, 2.0])),
            entropy_geometry(3), entropy_geometry(8),
            weighted_quadratic_geometry([1.0, 2.0, 0.5]),
            synthesized_geometry(members)]


@pytest.mark.parametrize("geometry", _geometries(),
                         ids=lambda g: f"{g.name}-{g.domain.kind}-{g.dim}")
def test_potential_gradient_and_bregman_act_row_by_row(geometry):
    rng = np.random.default_rng(SEED)
    stack = geometry.domain.sample_interior(rng, N)
    _assert_rowwise(geometry.eval_h, stack)
    _assert_rowwise(geometry.grad_h, stack)
    for reference in (stack[0], geometry.domain.center()):
        _assert_rowwise(lambda y: bregman(geometry, reference, y), stack)


def test_a_problem_whose_operator_ignores_the_stack_is_rejected():
    # the contract is checked where the problem is built, not where F is used
    costs = np.array([1.0, 2.0])
    with pytest.raises(ConfigurationError, match="each row of a stack"):
        VIProblem(feasible_set=simplex(2), F=lambda x: costs.copy())


def test_a_geometry_whose_potential_ignores_the_stack_is_rejected():
    plain = euclidean_geometry(whole_space(2))
    scalar_h = MirrorGeometry(eval_h=lambda x: 0.5 * float(np.sum(x * x)),
                              grad_h=plain.grad_h, grad_h_conj=plain.grad_h_conj,
                              strong_convexity_modulus=1.0, domain=plain.domain)
    assert bregman(scalar_h, np.zeros(2), np.ones(2)) == pytest.approx(1.0)
    with pytest.raises(ConfigurationError, match="each row of a stack"):
        bregman(scalar_h, np.zeros(2), np.ones((3, 2)))
