import contextlib
import dataclasses
import math
import re
import tracemalloc
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from targetmd import (ClosedForm, VIProblem, affine_box_split, box, check_monotonicity,
                      entropy_geometry, estimate_lipschitz, euclidean_geometry,
                      library_problem, natural_residual, preset_eg, preset_ppa,
                      project_simplex, resolve_target, simplex, whole_space)
from targetmd.errors import ConfigurationError, DomainError
from targetmd.problems import (LIBRARY, MONOTONICITY_BLOCK, SIMPLEX_MASS_TOL, FeasibleSet,
                               Tridiagonal, _linear, _scaled_norm, sampled_monotonicity)

SEED = 77


# --- simplex projection ---------------------------------------------------

def test_project_simplex_examples():
    assert np.allclose(project_simplex(np.array([1.0, 0.0])), [1.0, 0.0])
    assert np.allclose(project_simplex(np.array([0.6, 0.6])), [0.5, 0.5])
    assert np.allclose(project_simplex(np.array([1.2, -0.2])), [1.0, 0.0])


def test_project_simplex_rejects_nan():
    with pytest.raises(DomainError):
        project_simplex(np.array([np.nan, 0.0]))
    with np.errstate(invalid="ignore"), pytest.raises(DomainError, match="infinite"):
        project_simplex(np.array([np.inf, 0.0, -np.inf]))


def test_project_simplex_far_from_the_origin():
    # u_1 - (u_1 - 1) rounds to 0 here, which emptied the support
    assert np.array_equal(project_simplex(np.array([1e200, -1e200, 3.0])),
                          [1.0, 0.0, 0.0])
    x = project_simplex(np.full(3, 1e15))
    assert np.allclose(x, 1.0 / 3.0, rtol=0.0, atol=1e-15)


@settings(max_examples=300, deadline=None)
@given(arrays(float, st.integers(1, 12),
              elements=st.floats(-1e300, 1e300, allow_nan=False)))
def test_project_simplex_lands_on_the_simplex_for_any_finite_input(v):
    x = project_simplex(v)
    assert np.all(np.isfinite(x)) and np.all(x >= 0.0)
    assert abs(float(x.sum()) - 1.0) <= SIMPLEX_MASS_TOL
    assert x[np.argmax(v)] > 0.0  # the largest entry is always in the support


FINITE = st.floats(-1e300, 1e300, allow_nan=False)


@settings(max_examples=300, deadline=None)
@given(arrays(float, st.integers(1, 12), elements=FINITE))
def test_project_simplex_is_idempotent(v):
    x = project_simplex(v)
    assert np.allclose(project_simplex(x), x, rtol=0.0, atol=SIMPLEX_MASS_TOL)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 8).flatmap(lambda d: st.tuples(
    arrays(float, d, elements=FINITE),
    arrays(float, d, elements=st.floats(-1e6, 1e6)),
    arrays(float, d, elements=st.floats(1e-6, 1e6)))))
def test_project_box_is_idempotent(case):
    v, lower, width = case
    s = box(lower, lower + width)
    x = s.project(v)
    assert s.contains(x, tol=0.0)
    assert np.array_equal(s.project(x), x)


SPECIAL = st.sampled_from([np.nan, np.inf, -np.inf, 0.0, -0.0, 1e308, -1e308,
                           5e-324])


@settings(max_examples=400, deadline=None)
@given(arrays(float, array_shapes(min_dims=1, max_dims=2, max_side=6),
              elements=st.one_of(SPECIAL, st.floats())))
@example(np.array([np.inf, -np.inf]))
@example(np.array([[1e308, 1e308], [-1e308, -np.inf]]))
@example(np.array([-np.inf, np.nan, np.inf]))
def test_projection_raises_exactly_on_nan(v):
    # [inf, -inf] sums to NaN but holds no NaN: it must project
    dim = v.shape[-1]
    for s in (whole_space(dim), box(np.full(dim, -1.0), np.full(dim, 1.0))):
        if np.isnan(v).any():
            with pytest.raises(DomainError, match="NaN"):
                s.project(v)
        else:
            x = s.project(v)
            assert x.shape == v.shape
            # the whole space's projection is the identity: no copy
            assert (x is v) == (s.kind == "whole_space")
            assert np.array_equal(x, v if s.kind == "whole_space"
                                  else np.clip(v, -1.0, 1.0))


def test_project_simplex_feasible_idempotent_nonexpansive():
    rng = np.random.default_rng(SEED)
    vs = rng.normal(scale=2.0, size=(1000, 4))
    ws = rng.normal(scale=2.0, size=(1000, 4))
    for v, w in zip(vs, ws):
        p = project_simplex(v)
        assert abs(p.sum() - 1.0) <= 1e-9 and np.all(p >= 0.0)
        assert np.linalg.norm(project_simplex(p) - p) <= 1e-12
        assert (np.linalg.norm(project_simplex(v) - project_simplex(w))
                <= np.linalg.norm(v - w) + 1e-12)


def test_project_preserves_feasible_points():
    rng = np.random.default_rng(SEED + 1)
    for problem_name in ("rps_game", "constrained_quadratic"):
        s = library_problem(problem_name).feasible_set
        for x in s.sample(rng, 50):
            assert np.linalg.norm(s.project(x) - x) <= 1e-12


def test_projection_idempotent_on_every_set_kind():
    rng = np.random.default_rng(SEED + 4)
    sets = [whole_space(3), library_problem("rps_game").feasible_set,
            box([-1.0, 0.0], [1.0, 2.0])]
    for s in sets:
        for v in rng.normal(scale=3.0, size=(1000, s.dim)):
            p = s.project(v)
            assert s.contains(p)
            assert np.linalg.norm(s.project(p) - p) <= 1e-12


# --- natural residual -----------------------------------------------------

def test_natural_residual_examples():
    skew = library_problem("skew_bilinear")
    assert natural_residual(skew, np.zeros(2)) == 0.0
    # vertex solution: constant costs on the simplex
    vertex = library_problem("vertex_cost_simplex", costs=(1.0, 2.0))
    assert natural_residual(vertex, np.array([1.0, 0.0])) <= 1e-12
    # whole-space evaluation away from the solution: F(1,0) = (0,-1)
    assert natural_residual(skew, np.array([1.0, 0.0])) == pytest.approx(1.0)


def test_natural_residual_stays_finite_past_the_overflow_of_its_square():
    # |r|^2 overflows past about 1.3e154; at (9e307, -9e307) on the whole
    # space x - F(x) overflows too.  Each row reads its own call's value,
    # and rows that do not overflow keep the bits of the plain sum.
    skew = library_problem("skew_bilinear")
    quad = library_problem("constrained_quadratic")
    for problem, points, norms in (
            (skew, [[1.0, 2.0], [1e200, -1e200], [9e307, -9e307]],
             [5.0 ** 0.5, 2.0 ** 0.5 * 1e200, 2.0 ** 0.5 * 9e307]),
            (quad, [[0.5, 0.5], [1e200, 0.5]], [None, 1e200])):
        points = np.array(points)
        with np.errstate(over="ignore", invalid="ignore"):
            stacked = natural_residual(problem, points)
            alone = [natural_residual(problem, x) for x in points]
        assert stacked.tolist() == alone
        for value, expected in zip(stacked, norms):
            assert np.isfinite(value)
            if expected is not None:
                assert value == pytest.approx(expected, rel=1e-15)


def _residual_through_the_projection(problem, x):
    """The natural residual of x as r = x - P(x - F(x)) through the whole
    space's project, its norm taken as natural_residual takes it."""
    f = problem.F(x)
    r = x - problem.feasible_set.project(x - f)
    norms = [math.sqrt(np.vecdot(ri, ri)) for ri in np.atleast_2d(r)]
    norms = [_scaled_norm(fi) if norm == math.inf else norm
             for norm, fi in zip(norms, np.atleast_2d(f))]
    return norms[0] if x.ndim == 1 else np.array(norms)


LIMIT = 1.7976931348623157e308


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(["skew_bilinear", "linear_monotone"]), st.integers(2, 5),
       st.integers(1, 4),
       st.lists(st.one_of(st.floats(-LIMIT, LIMIT), st.sampled_from(
           [LIMIT, -LIMIT, 1e308, -1e308, 1.3e154, 0.0, -0.0])), min_size=20, max_size=20))
def test_whole_space_natural_residual_has_the_bits_of_the_projection(name, dim, rows, coords):
    # r = x - (x - F(x)) skips the whole space's identity projection (and its
    # NaN scan) with the same bits, at random points and near the float limit
    problem = library_problem(name, dim=dim)
    with np.errstate(over="ignore", invalid="ignore"):
        for x in (np.array(coords[:dim]), np.array(coords[:rows * dim]).reshape(rows, dim)):
            ours = natural_residual(problem, x)
            through = _residual_through_the_projection(problem, x)
            assert np.array_equal(ours, through)


def test_whole_space_natural_residual_reads_nan_at_a_nan_point(monkeypatch):
    # no projection runs on the whole space, so a NaN point reads a NaN
    # residual where the projection raised DomainError; the stepping loop
    # ends a run at a non-finite dual point before any residual reads it
    def projection(self, v):
        raise AssertionError("the whole space projected")

    monkeypatch.setattr(FeasibleSet, "project", projection)
    skew = library_problem("skew_bilinear")
    assert math.isnan(natural_residual(skew, np.array([np.nan, 0.0])))
    values = natural_residual(skew, np.array([[np.nan, 0.0], [1.0, 0.0]]))
    assert math.isnan(values[0]) and values[1] == 1.0


# --- library problems -----------------------------------------------------

def test_library_examples():
    rps = library_problem("rps_game")
    assert np.allclose(rps.F(np.full(3, 1.0 / 3.0)), 0.0)
    skew = library_problem("skew_bilinear")
    assert np.allclose(skew.F(np.array([1.0, 0.0])), [0.0, -1.0])
    vertex = library_problem("vertex_cost_simplex", costs=(1.0, 2.0))
    assert np.allclose(vertex.known_solution, [1.0, 0.0])


@pytest.mark.parametrize("dim", [2, 3, 10, 200, 2000])
def test_linear_monotone_solution_matches_a_dense_solve(dim):
    p = library_problem("linear_monotone", dim=dim)
    m, q = p.linear_terms
    dense = np.linalg.solve(m.to_dense(), -q)
    assert np.max(np.abs(p.known_solution - dense)) <= 1e-14
    assert np.max(np.abs(m @ p.known_solution + q)) <= 1e-14


# --- the banded operator of skew_bilinear and linear_monotone --------------

BANDED_DIMS = [2, 3, 10, 200, 1999, 2000]


@pytest.mark.parametrize("dim", BANDED_DIMS)
def test_skew_bilinear_operator_is_bit_identical_to_its_dense_matrix(dim):
    # two nonzeros per row: no summation order to differ in
    m, _ = library_problem("skew_bilinear", dim=dim).linear_terms
    dense = m.to_dense()
    for x in np.random.default_rng(SEED + dim).standard_normal((20, dim)):
        assert np.array_equal((m @ x).view(np.int64), (dense @ x).view(np.int64))


@pytest.mark.parametrize("dim", BANDED_DIMS)
def test_linear_monotone_operator_matches_its_dense_matrix_within_2_ulp(dim):
    # a dense product may sum a row's three terms in another order; the
    # bound is 2 ulp of the row's sum of absolute terms
    m, _ = library_problem("linear_monotone", dim=dim).linear_terms
    dense = m.to_dense()
    for x in np.random.default_rng(SEED + dim).standard_normal((20, dim)):
        ulp = np.spacing(np.abs(dense) @ np.abs(x))
        assert np.all(np.abs(m @ x - dense @ x) <= 2.0 * ulp)


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 40),
       st.floats(0.1, 4.0) | st.floats(-4.0, -0.1),
       st.floats(-4.0, 4.0))
def test_tridiagonal_matches_dense_numpy(dim, diag, off):
    m = Tridiagonal(dim, diag, off)
    dense = m.to_dense()
    x = np.random.default_rng(SEED + dim).standard_normal(dim)
    assert np.allclose(m @ x, dense @ x, rtol=1e-14, atol=1e-14)
    assert np.array_equal(m.T.to_dense(), dense.T)
    assert m.norm() == pytest.approx(np.linalg.norm(dense, 2), rel=1e-12)
    assert m.diag == pytest.approx(
        np.linalg.eigvalsh(0.5 * (dense + dense.T)).min(), rel=1e-14)
    # cond(m) <= norm/|diag| <= 81
    assert np.allclose(m.solve(x), np.linalg.solve(dense, x), rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("dim", list(range(2, 41)) + [199, 200, 1023, 1999, 2000])
def test_spectral_solve_has_a_residual_at_rounding_level(dim):
    # normwise backward error ||A x - b|| / (||A|| ||x||), negative diag too
    b = np.random.default_rng(SEED + dim).standard_normal(dim)
    for diag in (1.0, -1.0, 0.1, -0.1, 4.0):
        for off in (1.0, -4.0, 0.5, 0.0):
            m = Tridiagonal(dim, diag, off)
            x = m.solve(b)
            assert np.linalg.norm(m @ x - b) <= 1e-15 * m.norm() * np.linalg.norm(x)


def test_spectral_solve_takes_a_stack_row_by_row():
    m = Tridiagonal(7, 1.5, -2.0)
    stack = np.random.default_rng(SEED).standard_normal((4, 7))
    assert np.array_equal(m.solve(stack), np.array([m.solve(row) for row in stack]))


@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_solve_rejects_a_zero_diagonal_with_one_line(dim):
    # K alone is singular at odd dim
    with pytest.raises(DomainError, match="needs diag != 0") as err:
        Tridiagonal(dim, 0.0, 1.0).solve(np.ones(dim))
    assert "\n" not in str(err.value)


@pytest.mark.parametrize("name", ["skew_bilinear", "linear_monotone"])
@pytest.mark.parametrize("dim", [2, 3, 200])
@pytest.mark.parametrize("eta", [0.1, 0.5, 1.0])
def test_ppa_closed_form_target_matches_a_dense_solve(name, dim, eta):
    problem = library_problem(name, dim=dim)
    spec = preset_ppa(euclidean_geometry(problem.feasible_set), problem, eta)
    assert isinstance(spec.target, ClosedForm)
    m, q = problem.linear_terms
    a = np.eye(dim) + eta * m.to_dense()
    for x in np.random.default_rng(SEED + dim).standard_normal((5, dim)):
        exact = np.linalg.solve(a, x - eta * q)
        assert (np.linalg.norm(resolve_target(spec, x)[0] - exact)
                <= 1e-13 * np.linalg.norm(exact))


@pytest.mark.parametrize("name", ["skew_bilinear", "linear_monotone"])
def test_banded_problems_run_at_a_dimension_no_dense_matrix_fits(name):
    # a dense 100,000 x 100,000 matrix would take 80 GB
    dim = 100_000
    problem = library_problem(name, dim=dim)
    g = euclidean_geometry(problem.feasible_set)
    assert np.max(np.abs(problem.F(problem.known_solution))) <= 1e-14
    x = np.random.default_rng(SEED).standard_normal(dim)
    assert problem.F(x).shape == (dim,)
    # neither build holds an n x n array: the strong-monotonicity check of
    # a linear design reads the banded operator's diag, and draws no pair
    tracemalloc.start()
    try:
        preset_eg(g, problem, 0.1)
        spec = preset_ppa(g, problem, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6
    # the proximal target y solves y + eta*F(y) = x
    y = resolve_target(spec, x)[0]
    assert np.max(np.abs(y + 0.5 * problem.F(y) - x)) <= 1e-12


@pytest.mark.parametrize("name", ["skew_bilinear", "linear_monotone",
                                  "constrained_quadratic"])
@pytest.mark.parametrize("dim", [2.5, 0, -3, "4", float("nan")])
def test_library_rejects_a_dimension_that_is_no_integer(name, dim):
    with pytest.raises(ConfigurationError, match="integer dim"):
        library_problem(name, dim=dim)


@pytest.mark.parametrize("name,param,value", [
    ("scalar_shift", "a", np.nan), ("scalar_shift", "a", -np.inf),
    ("scalar_shift", "a", "abc"), ("scalar_shift", "a", [1.0, 2.0]),
    ("scalar_shift", "a", True), ("vertex_cost_simplex", "costs", [1.0, np.inf]),
    ("vertex_cost_simplex", "costs", "abc"), ("box_affine_split", "shift", np.nan),
    ("box_affine_split", "lower", [-1.0, 0.0]),
])
def test_library_parameters_must_be_finite_numbers(name, param, value):
    build = (partial(affine_box_split, upper=[1.0, 2.0]) if name == "box_affine_split"
             else partial(library_problem, name))
    with pytest.raises(ConfigurationError, match=f"^{name} needs .*{param}, got "):
        build(**{param: value})


def test_library_rejects_unknown():
    with pytest.raises(ConfigurationError):
        library_problem("nope")
    with pytest.raises(ConfigurationError):
        library_problem("rps_game", dim=4)
    with pytest.raises(ConfigurationError):
        library_problem("vertex_cost_simplex", costs=(1.0, 1.0))


@pytest.mark.parametrize("name,params", [
    ("skew_bilinear", {}),
    ("skew_bilinear", {"dim": 4}),
    ("linear_monotone", {}),
    ("rps_game", {}),
    ("constrained_quadratic", {}),
    ("vertex_cost_simplex", {"costs": (1.0, 2.0)}),
    ("scalar_shift", {"a": 2.0}),
])
def test_known_solutions_satisfy_the_inequality(name, params):
    problem = library_problem(name, **params)
    star = problem.known_solution
    assert natural_residual(problem, star) <= 1e-8
    rng = np.random.default_rng(SEED + 2)
    f_star = problem.F(star)
    for u in problem.feasible_set.sample(rng, 1000):
        assert float(np.dot(f_star, u - star)) >= -1e-9


def _plain_dot(a, b):
    # sequential IEEE products/sums; BLAS FMA kernels would leave an exact
    # fused-multiply residual and spoil the cancellation being tested
    return sum(float(ai) * float(bi) for ai, bi in zip(a, b))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(["skew_bilinear", "rps_game"]), st.integers(1, 4),
       st.lists(st.one_of(st.floats(-1e6, 1e6), st.just(0.0), st.just(-0.0)),
                min_size=12, max_size=12))
def test_linear_operator_with_zero_q_equals_the_product_plus_q(name, rows, coords):
    # with q all zero F is the product itself: equal (==) to M x + q row by
    # row, on a point and on a stack; only the sign of a zero may differ
    problem = library_problem(name, **({} if name == "rps_game" else {"dim": 3}))
    m, q = problem.linear_terms
    assert not np.any(q)
    for x in (np.array(coords[:3]), np.array(coords[:rows * 3]).reshape(rows, 3)):
        literal = np.array([m @ row + q for row in np.atleast_2d(x)]).reshape(x.shape)
        assert np.array_equal(problem.F(x), literal)


def test_skew_operators_annihilate_differences():
    # structural property of skew-symmetric linear maps
    skew = library_problem("skew_bilinear")
    rng = np.random.default_rng(SEED + 3)
    for x, y in zip(rng.normal(size=(100, 2)), rng.normal(size=(100, 2))):
        inner = _plain_dot(skew.F(x) - skew.F(y), x - y)
        assert inner == 0.0
    big = library_problem("skew_bilinear", dim=5)
    for x, y in zip(rng.normal(size=(100, 5)), rng.normal(size=(100, 5))):
        inner = _plain_dot(big.F(x) - big.F(y), x - y)
        assert abs(inner) <= 1e-12  # summation-order residue only


# --- the operator contract, checked where a problem is built --------------

CONTRACT = "^problem 'custom' breaks the operator contract at two sampled points: "


def _contract_cases():
    for name, (_, allowed, _) in LIBRARY.items():
        yield pytest.param(lambda name=name: library_problem(name), id=name)
        if "dim" in allowed:
            yield pytest.param(lambda name=name: library_problem(name, dim=200),
                               id=f"{name}-200")
    yield pytest.param(lambda: affine_box_split()[1], id="box_affine_split")


@pytest.mark.parametrize("build", list(_contract_cases()))
def test_every_library_problem_keeps_the_operator_contract(build):
    problem = build()
    # rebuilt from its parts, the problem passes the same check again
    assert dataclasses.replace(problem).F is problem.F


def test_the_contract_is_checked_with_three_operator_calls_at_build():
    # one 2-point stack and each of its rows; none after the build
    seen = []

    def F(x):
        seen.append(np.shape(x))
        return 2.0 * np.asarray(x, dtype=float)

    problem = VIProblem(feasible_set=whole_space(3), F=F)
    assert seen == [(2, 3), (3,), (3,)]
    natural_residual(problem, np.ones(3))
    assert len(seen) == 4


@pytest.mark.parametrize("dim,rule", [
    (2, re.escape("F of a stack must have, in each row, F of that row alone")),
    (3, "F must not raise, and raised ValueError: matmul: .*"),
])
def test_a_matrix_product_over_the_stack_is_rejected_where_the_problem_is_built(dim, rule):
    # m @ X mixes the rows of a stack, or does not conform to it; unchecked,
    # the problem built, and preset_eg ended in numpy's matmul ValueError
    m = np.eye(dim) + np.eye(dim, k=1) - np.eye(dim, k=-1)
    with pytest.raises(ConfigurationError, match=CONTRACT + rule + "$"):
        problem = VIProblem(feasible_set=whole_space(dim), F=lambda x: m @ x,
                            linear_terms=(m, np.zeros(dim)))
        preset_eg(euclidean_geometry(problem.feasible_set), problem, 0.1)


def test_linear_terms_that_are_not_those_of_F_are_rejected_where_the_problem_is_built():
    # F = 2 M x beside linear_terms (M, 0): unchecked, ppa's closed form
    # returned the target of M without a word
    m = np.array([[1.0, 1.0], [-1.0, 1.0]])
    with pytest.raises(ConfigurationError, match=CONTRACT + re.escape(
            "F must equal M x + q of its linear_terms") + "$"):
        problem = VIProblem(feasible_set=whole_space(2), F=lambda x: 2.0 * np.matvec(m, x),
                            linear_terms=(m, np.zeros(2)))
        resolve_target(preset_ppa(euclidean_geometry(problem.feasible_set), problem, 1.0),
                       np.array([1.0, 0.0]))


def test_an_operator_is_compared_within_its_tolerance_and_nan_equals_nan():
    # rows off by 1e-13 of the largest entry pass; a NaN entry is equal to NaN
    def F(x):
        x = np.asarray(x, dtype=float)
        return x * (1.0 + 1e-13 * (x.ndim > 1)) + np.where(x > 0.5, np.nan, 0.0)

    VIProblem(feasible_set=simplex(2), F=F)
    with pytest.raises(ConfigurationError, match="F of that row alone"):
        VIProblem(feasible_set=simplex(2),
                  F=lambda x: np.asarray(x, dtype=float) * (1.0 + 1e-11 * (np.ndim(x) > 1)))


@pytest.mark.parametrize("name,params", [
    ("skew_bilinear", {}), ("skew_bilinear", {"dim": 200}),
    ("linear_monotone", {}), ("linear_monotone", {"dim": 200}),
    ("rps_game", {}), ("constrained_quadratic", {}), ("constrained_quadratic", {"dim": 200}),
])
def test_an_omitted_operator_is_the_linear_map_bit_for_bit(name, params):
    problem = library_problem(name, **params)
    m, q = problem.linear_terms
    rebuilt = VIProblem(feasible_set=problem.feasible_set, linear_terms=(m, q))
    stack = 1e3 * np.random.default_rng(SEED).standard_normal((9, problem.feasible_set.dim))
    for x in (stack, stack[0]):
        literal = _linear(m, q)(x)
        assert np.array_equal(problem.F(x).view(np.int64), literal.view(np.int64))
        assert np.array_equal(rebuilt.F(x).view(np.int64), literal.view(np.int64))


def test_a_problem_needs_an_operator_or_linear_terms():
    with pytest.raises(ConfigurationError,
                       match="^problem 'bare' needs F or linear_terms$"):
        VIProblem(feasible_set=whole_space(2), name="bare")


def _with_entry(value, where):
    """Finite (M, q) with value in place of M[1, 0] or of q[1]."""
    m, q = np.array([[1.0, 1.0], [-1.0, 1.0]]), np.array([0.5, -0.5])
    if where == "M":
        m[1, 0] = value
    else:
        q[1] = value
    return m, q


@pytest.mark.parametrize("with_f", [False, True])
@pytest.mark.parametrize("terms", [
    pytest.param(lambda: _with_entry(np.nan, "M"), id="nan_in_M"),
    pytest.param(lambda: _with_entry(np.inf, "M"), id="inf_in_M"),
    pytest.param(lambda: _with_entry(-np.inf, "q"), id="inf_in_q"),
    pytest.param(lambda: _with_entry(np.nan, "q"), id="nan_in_q"),
    pytest.param(lambda: (Tridiagonal(2, np.nan, 1.0), np.zeros(2)), id="nan_diag"),
    pytest.param(lambda: (Tridiagonal(2, 1.0, np.inf), np.zeros(2)), id="inf_off"),
])
def test_linear_terms_that_are_not_finite_are_rejected_where_the_problem_is_built(terms,
                                                                                   with_f):
    # unchecked, the problem built: preset_eg then ended in numpy's
    # LinAlgError (NaN) or in a RuntimeWarning (inf)
    m, q = terms()
    message = ("problem 'custom' breaks the operator contract: linear_terms must hold "
               "finite numbers M and q")
    with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
        problem = VIProblem(feasible_set=whole_space(2), linear_terms=(m, q),
                            F=_linear(m, q) if with_f else None)
        preset_eg(euclidean_geometry(problem.feasible_set), problem, 0.1)


def test_an_operator_that_returns_inf_is_refuted_without_a_warning():
    # inf - inf is NaN, a refutation; the RuntimeWarning it raised in numpy
    # escaped from preset_eg's build check and from check_monotonicity
    problem = VIProblem(feasible_set=whole_space(2), lipschitz_hint=1.0,
                        F=lambda x: np.full(np.shape(x), np.inf))
    with pytest.raises(ConfigurationError, match="min ratio -inf"):
        preset_eg(euclidean_geometry(problem.feasible_set), problem, 0.1)
    report = check_monotonicity(problem, 200, 0)
    assert report.classification == "not monotone (witness ratio -inf)"
    assert report.min_ratio == report.min_inner == -np.inf


@pytest.mark.parametrize("lower,upper", [
    ([np.nan], [1.0]), ([0.0], [np.nan]), ([0.0], [np.inf]), ([-np.inf], [0.0]),
    ([0.0, -np.inf], [1.0, np.inf]), ([-1e308], [1e308]), ([1.0], [1.0]),
    ("abc", [1.0]), ([0.0], [[1.0], [2.0, 3.0]]),
])
def test_box_rejects_bounds_that_are_not_finite_and_ordered(lower, upper):
    with pytest.raises(ConfigurationError, match="finite with lower < upper"):
        box(lower, upper)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.floats(allow_nan=False), st.floats(allow_nan=False)),
                min_size=1, max_size=4))
@example([(1e308, 1.7e308)])
@example([(-1.7e308, -1e308), (0.0, 1.0)])
def test_every_box_that_box_accepts_has_a_finite_center_inside_it(bounds):
    lower, upper = np.array(bounds).T
    try:
        feasible_set = box(lower, upper)
    except ConfigurationError:
        return
    center = feasible_set.center()  # an overflow warning fails here
    assert np.all(np.isfinite(center)) and feasible_set.contains(center, tol=0.0)


@pytest.mark.parametrize("lower,upper", [(np.nan, 1.0), (0.0, np.inf), (-np.inf, 1.0),
                                         (1.0, 0.0)])
def test_the_split_problem_rejects_bounds_that_are_not_finite_and_ordered(lower, upper):
    with pytest.raises(ConfigurationError, match="finite with lower < upper"):
        affine_box_split(2.0, lower, upper)


# --- monotonicity checks --------------------------------------------------

def _pair_scan(op, pairs):
    """The sampled monotonicity minimum as a scan over single pairs, one op
    call per point: the oracle of the stacked evaluation."""
    min_ratio = min_inner = math.inf
    witness = None
    for x, y in pairs:
        d = x - y
        nn = float(np.dot(d, d))
        if nn < 1e-16:
            continue
        inner = float(np.dot(op(x) - op(y), d))
        if not math.isfinite(inner):
            inner = -math.inf
        min_inner = min(min_inner, inner)
        if inner / nn < min_ratio:
            min_ratio, witness = inner / nn, (x, y)
    return min_ratio, witness, min_inner


def _scan_case(name):
    if name == "entropy":
        return simplex(3), entropy_geometry(3).grad_h
    if name == "nan_rows":  # NaN wherever |x_0| > 1
        return whole_space(2), lambda x: np.where(np.abs(x[..., :1]) > 1.0, np.nan, x)
    if name == "overflow":  # <1e307 * (x - y), x - y> overflows
        return whole_space(2), lambda x: 1e307 * np.asarray(x, dtype=float)
    problem = library_problem(name)
    return problem.feasible_set, problem.F


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(["skew_bilinear", "linear_monotone", "rps_game",
                        "constrained_quadratic", "vertex_cost_simplex", "entropy",
                        "nan_rows", "overflow"]),
       st.integers(1, 70), st.integers(0, 2**32 - 1))
def test_stacked_monotonicity_is_the_pair_scan(name, n, seed):
    # the same minimum ratio, witness and minimum inner product (sign of a
    # zero too), with every third pair a repeated point that is skipped,
    # and no warning where the scan gives none
    feasible_set, op = _scan_case(name)
    rng = np.random.default_rng(seed)
    xs = feasible_set.sample_interior(rng, n)
    ys = feasible_set.sample_interior(rng, n)
    ys[::3] = xs[::3]
    # np.dot and np.vecdot both warn where the inner product overflows
    with np.errstate(over="ignore") if name == "overflow" else contextlib.nullcontext():
        ratio, witness, inner = sampled_monotonicity(op, xs, ys)
        scan_ratio, scan_witness, scan_inner = _pair_scan(op, zip(xs, ys))
    assert ratio == scan_ratio
    assert (witness is None) == (scan_witness is None)
    if witness is not None:
        assert all(np.array_equal(a, b) for a, b in zip(witness, scan_witness))
    assert inner == scan_inner and math.copysign(1.0, inner) == math.copysign(1.0, scan_inner)


@pytest.mark.parametrize("feasible_set", [whole_space(3), simplex(3),
                                          box([0.0, -1.0], [1.0, 2.0]), whole_space(300),
                                          simplex(300), box(np.zeros(300), np.ones(300))])
def test_one_interior_draw_of_128_points_is_64_draws_of_2(feasible_set):
    one = feasible_set.sample_interior(np.random.default_rng(5), 128)
    rng = np.random.default_rng(5)
    many = np.concatenate([feasible_set.sample_interior(rng, 2) for _ in range(64)])
    assert np.array_equal(one, many)


def test_stacked_monotonicity_needs_an_operator_that_maps_rows():
    message = ("the operator returned shapes (2,) and (2,) for points of shape "
               "(4, 2); it must map each row of a stack")
    with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
        sampled_monotonicity(lambda x: np.ones(2), np.ones((4, 2)), np.zeros((4, 2)))


def test_stacked_monotonicity_evaluates_blocks_of_at_most_the_block_entries():
    # 64 pairs at dim 3,000: blocks of as many whole rows as fit, a side
    seen = []

    def op(x):
        seen.append(x.shape)
        return 2.0 * x

    dim = 3000
    rows = MONOTONICITY_BLOCK // dim
    ratio, _, _ = sampled_monotonicity(op, np.ones((64, dim)), np.zeros((64, dim)))
    assert ratio == 2.0
    assert 1 < rows < 64
    tail = [(64 % rows, dim)] * 2 if 64 % rows else []
    assert seen == [(rows, dim)] * (2 * (64 // rows)) + tail



def test_check_monotonicity_skew_is_monotone_not_strong():
    report = check_monotonicity(library_problem("skew_bilinear"), 200, 0)
    assert abs(report.min_ratio) <= 1e-9
    assert "consistent with monotone" in report.classification


def test_check_monotonicity_strong_case():
    report = check_monotonicity(library_problem("scalar_shift"), 200, 0)
    assert report.min_ratio >= 1.0 - 1e-9
    assert "strongly" in report.classification


def test_check_monotonicity_refutes_anti_monotone():
    problem = VIProblem(feasible_set=box([-1.0], [1.0]),
                        F=lambda x: -np.asarray(x, dtype=float))
    report = check_monotonicity(problem, 200, 0)
    assert "not monotone" in report.classification
    assert report.witness is not None
    assert report.min_ratio < -1e-9


def test_check_monotonicity_refutes_an_all_nan_operator():
    problem = VIProblem(feasible_set=whole_space(2),
                        F=lambda x: np.full(np.shape(x), np.nan))
    report = check_monotonicity(problem, 200, 0)
    assert report.classification == "not monotone (witness ratio -inf)"
    assert report.witness is not None
    assert report.min_ratio == report.min_inner == -np.inf


def test_check_monotonicity_needs_samples():
    with pytest.raises(ConfigurationError):
        check_monotonicity(library_problem("scalar_shift"), 1, 0)


# --- Lipschitz estimation -------------------------------------------------

def test_lipschitz_hint_passthrough():
    problem = library_problem("skew_bilinear")
    assert estimate_lipschitz(problem) == pytest.approx(1.0)


def test_lipschitz_of_a_linear_operator_is_its_spectral_norm():
    problem = library_problem("linear_monotone", dim=4)
    problem.lipschitz_hint = None
    m, _ = problem.linear_terms
    assert estimate_lipschitz(problem) == pytest.approx(np.linalg.norm(m.to_dense(), 2),
                                                        rel=1e-12)


def test_lipschitz_of_a_matrix_whose_null_space_holds_the_ones_vector():
    # M = [[1, -1], [-1, 1]] annihilates (1, 1) and has norm 2; EG's margin
    # is then 1 - 2*eta
    m = np.array([[1.0, -1.0], [-1.0, 1.0]])
    problem = VIProblem(feasible_set=whole_space(2), F=lambda x: np.matvec(m, x),
                        linear_terms=(m, np.zeros(2)))
    assert estimate_lipschitz(problem) == pytest.approx(2.0, rel=1e-14)
    g = euclidean_geometry(problem.feasible_set)
    assert preset_eg(g, problem, 0.4).sigma == pytest.approx(1.0 - 2 * 0.4, rel=1e-14)


@pytest.mark.parametrize("hint", [math.nan, -5.0, math.inf, "abc", True, [1.0, 2.0]])
def test_a_lipschitz_hint_must_be_a_finite_number_at_least_0(hint):
    # unchecked, NaN built preset_eg with sigma = nan, -5 with sigma = 3.5
    # (above the geometry's modulus 1), and 'abc' ended in estimate_lipschitz's
    # ValueError
    message = ("problem 'custom' breaks the operator contract: lipschitz_hint must be a "
               f"finite number >= 0, got {hint!r}")
    with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
        problem = VIProblem(whole_space(2), F=lambda x: 0.5 * np.asarray(x, dtype=float),
                            lipschitz_hint=hint)
        preset_eg(euclidean_geometry(problem.feasible_set), problem, 0.5)


@pytest.mark.parametrize("hint", [0, 2, 0.5, np.float64(3.0), np.array([1.5])])
def test_a_finite_lipschitz_hint_at_least_0_is_the_lipschitz_constant(hint):
    problem = VIProblem(whole_space(2), F=lambda x: 0.0 * np.asarray(x, dtype=float),
                        lipschitz_hint=hint)
    assert estimate_lipschitz(problem) == float(np.ravel(hint)[0])


def test_lipschitz_needs_a_hint_where_sampling_gives_no_upper_bound():
    # tanh(1000x) has L = 1000, but sampled difference quotients read about
    # 8: preset_eg would accept eta = 0.05, where modulus - eta*L = -49
    problem = VIProblem(feasible_set=whole_space(1),
                        F=lambda x: np.tanh(1000.0 * np.asarray(x, dtype=float)))
    with pytest.raises(ConfigurationError, match="lipschitz_hint"):
        estimate_lipschitz(problem)
    with pytest.raises(ConfigurationError, match="lipschitz_hint"):
        preset_eg(euclidean_geometry(problem.feasible_set), problem, 0.05)
