import dataclasses
import functools
import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import reference_impls as ri
from test_acceptance import _stepwise_deviation
from targetmd import (ClosedForm, ClosedFormGap, MirrorOfS, ResolventSolve, SplitPair,
                      TargetSpec, VIProblem,
                      affine_box_split, box,
                      dual_rate, entropy_geometry, estimate_lipschitz,
                      euclidean_geometry,
                      library_problem, natural_residual, preset_bnn,
                      preset_dmd_calibrated, preset_dr, preset_eg, preset_fb,
                      preset_fbf, preset_ppa, preset_vanilla_md,
                      resolve_target, simplex, weighted_quadratic_geometry,
                      whole_space)
from targetmd.errors import (ConfigurationError, DomainError,
                             TargetResolutionError)
from targetmd import harness, targets
from targetmd.config import ExperimentConfig
from targetmd.harness import DISCRETE_COMPARE_TOL, FIELD_COMPARE_TOL, build_spec
from targetmd.problems import LIBRARY, Tridiagonal
from targetmd.targets import _norm

SEED = 4242


def identity(x):
    return np.asarray(x, dtype=float).copy()


# --- resolve_target -------------------------------------------------------

def test_resolve_identity_subproblem():
    s = whole_space(2)
    spec = TargetSpec(alpha=1.0, beta=0.0, S=identity, sigma=1.0,
                      Phi=lambda x: np.zeros_like(x),
                      target=ResolventSolve(),
                      feasible_set=s)
    assert np.allclose(resolve_target(spec, np.array([2.0, 2.0]))[0], [2.0, 2.0])


def test_resolve_scalar_proximal_equation():
    # S = I, Phi = 0.5 * (x - 2): solve y + 0.5(y - 2) = 0  =>  y = 2/3
    problem = library_problem("scalar_shift", a=2.0)
    s = problem.feasible_set
    spec = TargetSpec(alpha=1.0, beta=0.0, S=identity, sigma=1.0,
                      Phi=lambda x: 0.5 * problem.F(x),
                      target=ResolventSolve(tol=1e-12),
                      feasible_set=s)
    y = resolve_target(spec, np.array([0.0]))[0]
    assert y[0] == pytest.approx(2.0 / 3.0, abs=1e-10)


def test_resolve_eg_closed_form():
    problem = library_problem("skew_bilinear")
    g = euclidean_geometry(problem.feasible_set)
    spec = preset_eg(g, problem, 0.1)
    y = resolve_target(spec, np.array([1.0, 0.0]))[0]
    assert np.allclose(y, [1.0, 0.1])


def test_resolve_reports_nonconvergence(monkeypatch):
    monkeypatch.setattr(targets, "MAX_NEWTON_STEPS", 50)
    s = whole_space(1)
    # S + Phi vanishes identically: the subproblem y - y = x has no root
    spec = TargetSpec(alpha=1.0, beta=0.0, S=identity, sigma=1.0,
                      Phi=lambda x: -np.asarray(x, dtype=float),
                      target=ResolventSolve(tol=1e-12),
                      feasible_set=s)
    with pytest.raises(TargetResolutionError) as err:
        resolve_target(spec, np.array([1.0]))
    assert err.value.last_residual is not None


def test_spec_validation():
    s = whole_space(1)
    with pytest.raises(ConfigurationError):
        TargetSpec(alpha=0.0, beta=0.0, S=identity, sigma=1.0, Phi=identity,
                   target=ClosedForm(identity), feasible_set=s)
    with pytest.raises(ConfigurationError):
        TargetSpec(alpha=1.0, beta=1.0, S=identity, sigma=1.0, Phi=None,
                   target=ClosedForm(identity), feasible_set=s)


# --- proximal preset ------------------------------------------------------

def test_ppa_scalar_example():
    problem = library_problem("scalar_shift", a=2.0)
    g = euclidean_geometry(problem.feasible_set)
    spec = preset_ppa(g, problem, 1.0)
    y = resolve_target(spec, np.array([0.0]))[0]
    assert y[0] == pytest.approx(1.0, abs=1e-9)  # solves 2y = 2


def test_ppa_fixed_point_at_solution():
    for name, geometry_of in (("scalar_shift", euclidean_geometry),
                              ("linear_monotone", euclidean_geometry)):
        problem = library_problem(name)
        g = geometry_of(problem.feasible_set)
        spec = preset_ppa(g, problem, 0.5)
        star = problem.known_solution
        y = resolve_target(spec, star)[0]
        assert np.linalg.norm(y - star) <= 1e-9


def test_ppa_entropy_prox_matches_multiplicative_closed_form():
    # constant costs: the subproblem optimality gives y proportional to
    # x * exp(-eta*c); the inner solver must reproduce that
    problem = library_problem("vertex_cost_simplex", costs=(1.0, 2.0))
    g = entropy_geometry(2)
    spec = preset_ppa(g, problem, 1.0, inner_tol=1e-12)
    x = np.array([0.5, 0.5])
    oracle = x * np.exp(-1.0 * np.array([1.0, 2.0]))
    oracle = oracle / oracle.sum()
    y = resolve_target(spec, x)[0]
    assert np.linalg.norm(y - oracle) <= 1e-9


def test_ppa_rejects_bad_step():
    problem = library_problem("skew_bilinear")
    g = euclidean_geometry(problem.feasible_set)
    from targetmd import VIProblem
    anti = VIProblem(feasible_set=whole_space(1),
                     F=lambda x: -3.0 * np.asarray(x, dtype=float))
    with pytest.raises(ConfigurationError):
        preset_ppa(euclidean_geometry(anti.feasible_set), anti, 1.0)
    with pytest.raises(ConfigurationError):
        preset_ppa(g, problem, -0.1)


@pytest.mark.parametrize("kwargs", [
    {"inner_tol": float("nan")}, {"inner_tol": -1.0}, {"inner_tol": "abc"},
    {"inner_max_iter": 0}, {"inner_max_iter": 2.5}, {"inner_max_iter": "abc"},
    {"inner_max_iter": True},
])
def test_ppa_rejects_bad_inner_solver_limits(kwargs):
    # a Newton solve ends at its certificate or at a stall: inner_tol is
    # the one limit, and the preset table rejects inner_max_iter
    problem = library_problem("skew_bilinear")
    cfg = ExperimentConfig(preset="ppa", preset_params={"eta": 0.5, **kwargs})
    message = ("does not accept parameter(s) ['inner_max_iter']"
               if "inner_max_iter" in kwargs else "inner_tol")
    with pytest.raises(ConfigurationError, match=re.escape(message)):
        build_spec(cfg, euclidean_geometry(problem.feasible_set), problem, None)


@pytest.mark.parametrize("case", [0, 3, 2.7, "abc", True])
def test_dmd_calibrated_case_is_one_or_two(case):
    problem = library_problem("scalar_shift", a=2.0)
    with pytest.raises(ConfigurationError, match="case must be 1 or 2"):
        preset_dmd_calibrated(euclidean_geometry(problem.feasible_set), problem, 1.0,
                              case=case)


# --- extragradient preset -------------------------------------------------

def test_eg_correction_example():
    problem = library_problem("skew_bilinear")
    g = euclidean_geometry(problem.feasible_set)
    spec = preset_eg(g, problem, 0.1)
    x = np.array([1.0, 0.0])
    tx = resolve_target(spec, x)[0]
    correction = spec.alpha * (spec.S(tx) - spec.S(x))
    assert np.allclose(correction, [-0.01, 0.1], atol=1e-15)
    x_next = x + correction
    assert np.allclose(x_next, [0.99, 0.1])
    assert float(np.dot(x_next, x_next)) == pytest.approx(0.9901)


def test_eg_stationary_at_solution():
    problem = library_problem("skew_bilinear")
    g = euclidean_geometry(problem.feasible_set)
    spec = preset_eg(g, problem, 0.1)
    star = np.zeros(2)
    tx = resolve_target(spec, star)[0]
    assert np.linalg.norm(tx - star) == 0.0


def test_eg_rejects_large_step():
    problem = library_problem("skew_bilinear")
    g = euclidean_geometry(problem.feasible_set)
    with pytest.raises(ConfigurationError):
        preset_eg(g, problem, 1.5)  # modulus 1, L = 1


def test_eg_inner_solver_agrees_with_closed_form():
    problem = library_problem("skew_bilinear")
    g = euclidean_geometry(problem.feasible_set)
    closed = preset_eg(g, problem, 0.1)
    # same design pair, solved implicitly: S + Phi = grad_h, so the
    # Newton matrix is I up to rounding
    solver = TargetSpec(alpha=closed.alpha, beta=0.0, S=closed.S,
                        sigma=closed.sigma, Phi=closed.Phi,
                        target=ResolventSolve(tol=1e-12),
                        feasible_set=closed.feasible_set)
    rng = np.random.default_rng(SEED)
    for x in problem.feasible_set.sample(rng, 50):
        a = resolve_target(closed, x)[0]
        b = resolve_target(solver, x)[0]
        assert np.linalg.norm(a - b) <= 1e-12


def test_ppa_inner_solver_agrees_with_linear_solve():
    problem = library_problem("linear_monotone")
    g = euclidean_geometry(problem.feasible_set)
    spec = preset_ppa(g, problem, 0.5, inner_tol=1e-13)
    m, q = problem.linear_terms
    a = np.eye(2) + 0.5 * m.to_dense()
    rng = np.random.default_rng(SEED + 1)
    for x in problem.feasible_set.sample(rng, 50):
        direct = np.linalg.solve(a, x - 0.5 * q)
        y = resolve_target(spec, x)[0]
        assert np.linalg.norm(y - direct) <= 1e-10


# --- splitting presets ----------------------------------------------------

def test_dr_scalar_examples():
    pair, problem = affine_box_split(2.0, 0.0, 1.0)
    spec = preset_dr(pair, whole_space(1), 1.0)
    t = lambda v: resolve_target(spec, np.array([v]))[0][0]
    assert t(0.0) == pytest.approx(0.0)
    assert t(2.0) == pytest.approx(1.0)
    assert t(1.0) == pytest.approx(0.5)
    # shadow point of the fixed point solves the boxed inequality
    shadow = spec.shadow(np.array([0.0]))
    assert natural_residual(problem, shadow) <= 1e-12


def test_dr_needs_whole_space():
    pair, problem = affine_box_split()
    with pytest.raises(ConfigurationError):
        preset_dr(pair, problem.feasible_set, 1.0)


def test_fb_scalar_examples():
    pair, _ = affine_box_split(2.0, 0.0, 1.0)
    spec = preset_fb(pair, whole_space(1), 0.5)
    t = lambda v: resolve_target(spec, np.array([v]))[0][0]
    assert t(0.0) == pytest.approx(1.0)
    assert t(1.0) == pytest.approx(1.0)
    assert t(-2.0) == pytest.approx(0.0)


def test_fb_step_bound():
    pair, _ = affine_box_split()
    with pytest.raises(ConfigurationError):
        preset_fb(pair, whole_space(1), 4.0)  # bound is 4*sigma/L^2 = 4


def test_fb_admits_every_step_for_a_constant_b():
    # lipschitz_B = 0: eta * L^2 = 0 < 4*sigma for every eta, where the
    # bound 4*sigma/L^2 divided by zero
    clip = lambda eta, v: np.clip(np.asarray(v, dtype=float), 0.0, 1.0)
    pair = SplitPair(resolvent_A=clip, resolvent_B=lambda eta, v: v + 2.0 * eta,
                     B_forward=lambda x: np.full(np.shape(x), -2.0), strong_modulus=1.0,
                     lipschitz_B=0.0)
    spec = preset_fb(pair, whole_space(1), 100.0)
    assert resolve_target(spec, np.array([-5.0]))[0][0] == 1.0


@pytest.mark.parametrize("field,value", [
    ("strong_modulus", math.nan), ("lipschitz_B", math.nan), ("strong_modulus", "abc"),
    ("lipschitz_B", math.inf), ("strong_modulus", 0.0), ("lipschitz_B", -1.0),
    ("strong_modulus", None),
])
def test_fb_needs_finite_constants(field, value):
    # NaN built, 'abc' ended in a TypeError
    pair = dataclasses.replace(affine_box_split()[0], **{field: value})
    constants = (value, 1.0) if field == "strong_modulus" else (1.0, value)
    message = ("FB needs the strong modulus of A+B, a finite number > 0, and the Lipschitz "
               "constant of B, a finite number >= 0; got {!r} and {!r}".format(*constants))
    with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
        preset_fb(pair, whole_space(1), 0.5)


def test_fb_step_bound_holds_where_the_square_of_lipschitz_b_overflows():
    # L_B**2 raised OverflowError; eta * L * L is inf, and the bound reads 0
    pair = dataclasses.replace(affine_box_split()[0], lipschitz_B=1e200)
    message = "eta = 0.5 violates the step bound eta < 4*sigma/L^2 = 0"
    with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
        preset_fb(pair, whole_space(1), 0.5)


def test_eg_refuses_a_geometry_whose_declared_modulus_is_nan():
    # sigma = nan - eta*L is NaN, which sigma <= 0 let through
    problem = library_problem("skew_bilinear")
    g = dataclasses.replace(euclidean_geometry(problem.feasible_set),
                            strong_convexity_modulus=math.nan)
    with pytest.raises(ConfigurationError, match="is not positive$"):
        preset_eg(g, problem, 0.1)


def test_resolvents_firmly_nonexpansive_sampled():
    pair, _ = affine_box_split(2.0, 0.0, 1.0)
    rng = np.random.default_rng(SEED + 2)
    for eta in (0.5, 1.0, 2.0):
        for u, v in zip(rng.normal(scale=3.0, size=(100, 1)),
                        rng.normal(scale=3.0, size=(100, 1))):
            for res in (pair.resolvent_A, pair.resolvent_B):
                ju, jv = res(eta, u), res(eta, v)
                gap = float(np.dot(ju - jv, ju - jv))
                assert gap <= float(np.dot(ju - jv, u - v)) + 1e-9


def test_subproblem_optimality_of_solver_output():
    rng = np.random.default_rng(SEED + 3)
    cases = []
    quad = library_problem("constrained_quadratic")
    rps = library_problem("rps_game")
    # the Newton route through the box projection, from a corner of the
    # box, and through the simplex projection, from a vertex (at eta = 0.5
    # the target lies on an edge of the simplex)
    for eta in (0.5, 5.0):
        cases.append((preset_ppa(euclidean_geometry(quad.feasible_set), quad, eta),
                      quad, np.array([1.0, 0.0])))
        cases.append((preset_ppa(euclidean_geometry(rps.feasible_set), rps, eta),
                      rps, np.array([1.0, 0.0, 0.0])))
    # a box target with one coordinate at its bound: (0, 0.4)
    m, q = np.array([[0.0, 1.0], [-1.0, 0.0]]), np.array([1.0, -0.2])
    edge = VIProblem(feasible_set=box([0.0, 0.0], [1.0, 1.0]),
                     F=lambda x: np.matvec(m, x) + q, linear_terms=(m, q))
    cases.append((preset_ppa(euclidean_geometry(edge.feasible_set), edge, 0.5),
                  edge, np.array([0.5, 0.3])))
    entropy_ppa = preset_ppa(entropy_geometry(3), rps, 0.2, inner_tol=1e-12)
    # the Newton route through softmax
    cases.append((entropy_ppa, rps, np.array([0.5, 0.25, 0.25])))
    # the same pair without a geometry: Newton through the simplex projection
    entropy_ppa = TargetSpec(
        alpha=1.0, beta=0.0, S=entropy_ppa.S, sigma=entropy_ppa.sigma,
        Phi=entropy_ppa.Phi, target=ResolventSolve(tol=1e-12),
        feasible_set=entropy_ppa.feasible_set)
    cases.append((entropy_ppa, rps, np.array([0.5, 0.25, 0.25])))
    for spec, problem, x in cases:
        y = resolve_target(spec, x)[0]
        g = spec.S(y) + spec.Phi(y) - spec.S(x)
        for u in problem.feasible_set.sample_interior(rng, 100):
            assert float(np.dot(g, u - y)) >= -10.0 * spec.target.tol


def test_resolver_matches_linear_solve_on_random_strongly_monotone_pairs():
    # random well-conditioned linear pairs on the whole space: the implicit
    # target solves (I + eta*M) y = x - eta*q, checkable exactly
    rng = np.random.default_rng(SEED + 10)
    for _ in range(25):
        dim = int(rng.integers(2, 5))
        raw = rng.normal(size=(dim, dim))
        m = raw @ raw.T / dim + np.eye(dim) + (raw - raw.T) / 2.0
        q = rng.normal(size=dim)
        eta = float(rng.uniform(0.05, 0.5))
        s = whole_space(dim)
        a = np.eye(dim) + eta * m
        spec = TargetSpec(
            alpha=1.0, beta=0.0, S=identity, sigma=1.0,
            Phi=lambda x, m=m, q=q, eta=eta: eta * (np.matvec(m, x) + q),
            target=ResolventSolve(tol=1e-13),
            feasible_set=s)
        x = rng.normal(size=dim)
        y = resolve_target(spec, x)[0]
        assert np.linalg.norm(y - np.linalg.solve(a, x - eta * q)) <= 1e-9


# --- simplex game machinery ------------------------------------------------

def test_excess_payoff_examples():
    rps = library_problem("rps_game")
    uniform = np.full(3, 1.0 / 3.0)
    excess, nep = ri.excess_payoff(rps, uniform)
    assert np.allclose(excess, 0.0) and np.allclose(nep, 0.0)
    excess, nep = ri.excess_payoff(rps, np.array([0.5, 0.25, 0.25]))
    assert np.allclose(excess, [0.0, 0.25, 0.0])
    assert np.allclose(nep, [0.0, 1.0, 0.0])


def test_excess_payoff_shift_invariance():
    rps = library_problem("rps_game")
    from targetmd import VIProblem
    shifted = VIProblem(feasible_set=simplex(3),
                        F=lambda x: rps.F(x) + 7.5)
    rng = np.random.default_rng(SEED + 4)
    for x in rps.feasible_set.sample_interior(rng, 100):
        e1, n1 = ri.excess_payoff(rps, x)
        e2, n2 = ri.excess_payoff(shifted, x)
        assert np.allclose(e1, e2, atol=1e-12)
        assert np.allclose(n1, n2, atol=1e-11)


def test_excess_payoff_rejects_boundary():
    rps = library_problem("rps_game")
    with pytest.raises(DomainError):
        ri.excess_payoff(rps, np.array([1.0, 0.0, 0.0]))


def test_aitchison_examples():
    uniform = np.full(2, 0.5)
    assert np.allclose(ri.aitchison_add(uniform, uniform), uniform)
    assert np.allclose(ri.aitchison_add(np.array([0.25, 0.75]), np.array([3.0, 1.0])),
                       [0.5, 0.5])
    a = np.array([0.2, 0.3])
    assert np.allclose(ri.aitchison_add(a, np.ones(2)), a / a.sum())
    with pytest.raises(DomainError):
        ri.aitchison_add(np.array([0.5, 0.0]), np.array([1.0, 1.0]))


# --- excess-payoff preset ---------------------------------------------------

def test_bnn_uniform_is_fixed():
    rps = library_problem("rps_game")
    spec = preset_bnn(rps, eta=1.0)
    uniform = np.full(3, 1.0 / 3.0)
    assert np.allclose(resolve_target(spec, uniform)[0], uniform)


def test_bnn_target_value_and_cross_check():
    rps = library_problem("rps_game")
    spec = preset_bnn(rps, eta=1.0)
    x = np.array([0.5, 0.25, 0.25])
    # oracle: products (0.5, 0.25*e, 0.25) renormalized
    products = x * np.exp(np.array([0.0, 1.0, 0.0]))
    oracle = products / products.sum()
    tx = resolve_target(spec, x)[0]
    assert np.allclose(tx, oracle, atol=1e-14)
    assert np.allclose(tx, [0.349755, 0.475367, 0.174877], atol=1e-5)
    dual_route = ri.bnn_dual_shift_target(rps, 1.0)
    assert np.linalg.norm(dual_route(x) - tx) <= 1e-10


def test_bnn_correction_is_excess_payoff_up_to_uniform_shift():
    # the dual gap equals the normalized excess payoff plus a multiple of
    # the all-ones vector (the Aitchison renormalizer), which the mirror
    # map annihilates; assert the spread of the difference vanishes
    rps = library_problem("rps_game")
    spec = preset_bnn(rps, eta=1.0)
    rng = np.random.default_rng(SEED + 6)
    # the target amplifies payoff ratios exponentially, so keep samples far
    # enough inside that S remains evaluable at the target as well
    for x in rps.feasible_set.sample_interior(rng, 200, margin=0.1):
        tx, gap = resolve_target(spec, x)
        literal = spec.alpha * (spec.S(tx) - spec.S(x))
        stable = spec.alpha * gap
        assert np.linalg.norm(literal - stable) <= 1e-10
        _, nep = ri.excess_payoff(rps, x)
        diff = literal - nep
        assert diff.max() - diff.min() <= 1e-10


def test_bnn_requires_simplex():
    with pytest.raises(ConfigurationError):
        preset_bnn(library_problem("skew_bilinear"), 1.0)


# The closed form computes T(x) = e / sum(e) from the exponentials of its
# log-space gap.  The gap keeps the bits of the written-out formula
# (reference_impls.bnn_log_gap), so runs keep their trajectories; T(x)
# agrees with the dual-shift route to a few units in the last place of 1,
# the largest entry of a simplex point.

BNN_PROBLEM = st.sampled_from(["rps_game", "vertex_cost_simplex"])
BNN_ETA = st.sampled_from([1.0, 0.5, 2.0, 10.0, 1e3, 1e10])
TARGET_ULPS = 4 * np.spacing(1.0)


@settings(max_examples=40, deadline=None)
@given(BNN_PROBLEM, BNN_ETA, st.integers(0, 2**32 - 1))
def test_bnn_gap_keeps_the_bits_of_the_written_out_formula(name, eta, seed):
    problem = library_problem(name)
    spec = preset_bnn(problem, eta)
    rng = np.random.default_rng(seed)
    for x in problem.feasible_set.sample_interior(rng, 50, margin=1e-9):
        gap = spec.target.fn(x)[1]
        oracle = ri.bnn_log_gap(problem.F, eta, x)
        assert gap.tobytes() == oracle.tobytes(), (x, gap, oracle)


@settings(max_examples=40, deadline=None)
@given(BNN_PROBLEM, st.sampled_from([1.0, 0.5, 2.0, 10.0]), st.integers(0, 2**32 - 1))
def test_bnn_two_routes_agree_on_samples(name, eta, seed):
    problem = library_problem(name)
    spec = preset_bnn(problem, eta)
    dual_route = ri.bnn_dual_shift_target(problem, eta)
    rng = np.random.default_rng(seed)
    for x in problem.feasible_set.sample_interior(rng, 50, margin=1e-9):
        tx = resolve_target(spec, x)[0]
        assert np.abs(tx - dual_route(x)).max() <= TARGET_ULPS
        assert abs(tx.sum() - 1.0) <= TARGET_ULPS


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("eta", [1.0, 1e5, 1e10])
@pytest.mark.parametrize("x", [[1e-12, 0.5, 0.5 - 1e-12], [0.5 - 1e-12, 1e-12, 0.5],
                               [0.6, 0.4 - 1e-12, 1e-12]])
def test_bnn_target_stays_finite_at_the_floor_and_large_steps(x, eta):
    # x * exp(eta * excess / x) overflows here; the log-space target does not
    spec = preset_bnn(library_problem("rps_game"), eta)
    tx, gap = spec.target.fn(np.array(x))
    assert np.all(np.isfinite(tx)) and np.all(np.isfinite(gap))
    assert np.all(tx >= 0.0) and abs(tx.sum() - 1.0) <= TARGET_ULPS


# --- forward-backward-forward preset ----------------------------------------

def test_fbf_rate_example():
    problem = library_problem("skew_bilinear")
    spec = preset_fbf(problem, 0.1)
    x = np.array([1.0, 0.0])
    tx = resolve_target(spec, x)[0]
    rate = spec.S(tx) - spec.S(x)
    assert np.allclose(rate, [-0.01, 0.1], atol=1e-15)
    star = np.zeros(2)
    tstar = resolve_target(spec, star)[0]
    assert np.allclose(spec.S(tstar) - spec.S(star), 0.0)


def test_fbf_interior_solution_is_fixed_point():
    problem = library_problem("constrained_quadratic")
    spec = preset_fbf(problem, 0.2)
    star = problem.known_solution
    assert np.linalg.norm(resolve_target(spec, star)[0] - star) <= 1e-12


def test_fbf_rejects_large_step():
    # fbf takes eta, not eta1: the error built by preset_eg names neither
    with pytest.raises(ConfigurationError, match="step 1.5 too large") as err:
        preset_fbf(library_problem("skew_bilinear"), 1.5)
    assert "eta1" not in str(err.value)


# --- cross-preset invariants -------------------------------------------------

def _matrix():
    rows = []
    skew = library_problem("skew_bilinear")
    rows.append((preset_eg(euclidean_geometry(skew.feasible_set), skew, 0.1), skew))
    rows.append((preset_fbf(skew, 0.1), skew))
    rows.append((preset_ppa(euclidean_geometry(skew.feasible_set), skew, 0.5), skew))
    lin = library_problem("linear_monotone")
    rows.append((preset_eg(euclidean_geometry(lin.feasible_set), lin, 0.1), lin))
    rows.append((preset_ppa(euclidean_geometry(lin.feasible_set), lin, 0.5), lin))
    rps = library_problem("rps_game")
    rows.append((preset_eg(entropy_geometry(3), rps, 0.1), rps))
    rows.append((preset_ppa(entropy_geometry(3), rps, 0.2, inner_tol=1e-12), rps))
    rows.append((preset_bnn(rps, 1.0), rps))
    quad = library_problem("constrained_quadratic")
    rows.append((preset_eg(euclidean_geometry(quad.feasible_set), quad, 0.1), quad))
    vertex = library_problem("vertex_cost_simplex", costs=(1.0, 2.0))
    rows.append((preset_eg(euclidean_geometry(vertex.feasible_set), vertex, 0.1), vertex))
    scalar = library_problem("scalar_shift")
    rows.append((preset_eg(euclidean_geometry(scalar.feasible_set), scalar, 0.5), scalar))
    return rows


def test_solutions_are_target_fixed_points():
    # entropy-geometry designs need interior evaluation, so boundary
    # solutions pair with the Euclidean geometry in the matrix above
    for spec, problem in _matrix():
        star = problem.known_solution
        if spec.name in ("bnn",) or "entropy" in getattr(spec, "name", ""):
            pass
        try:
            tx = resolve_target(spec, star)[0]
        except DomainError:
            continue  # boundary solution under an interior-only map
        tol = spec.target.tol if isinstance(spec.target, ResolventSolve) else 1e-10
        assert np.linalg.norm(tx - star) <= 10 * tol


def test_target_image_stays_feasible():
    rng = np.random.default_rng(SEED + 7)
    for spec, problem in _matrix():
        for x in problem.feasible_set.sample_interior(rng, 25, margin=0.05):
            tx = resolve_target(spec, x)[0]
            assert problem.feasible_set.contains(tx, tol=1e-8)


def test_vanilla_md_spec_shape():
    problem = library_problem("skew_bilinear")
    g = euclidean_geometry(problem.feasible_set)
    spec = preset_vanilla_md(g, problem, 0.1)
    assert spec.alpha == 0.0 and spec.beta == 1.0
    x = np.array([1.0, 0.0])
    assert np.allclose(resolve_target(spec, x)[0], x)


# --- Newton route of implicit targets -----------------------------------------

@functools.lru_cache(maxsize=None)
def _rps_oracle(eta, x, digits=50):
    """PPA target on rps_game under entropy at the point x (a tuple): the
    root of r(y) = y - softmax(log x - eta * M y), in mpmath at `digits`
    digits, by Newton's method with its step halved until ||r|| shrinks,
    continued from y = x through doubling eta (the plain fixed-point
    iteration does not contract at eta = 10).  Cached: the tests at two
    tolerances share their oracle points."""
    import mpmath

    m, _ = library_problem("rps_game").linear_terms
    n = len(x)
    with mpmath.workdps(digits):
        mm = mpmath.matrix([[float(v) for v in row] for row in m])
        log_x = mpmath.matrix([mpmath.log(mpmath.mpf(float(v))) for v in x])

        def softmax(y, step):
            z = log_x - step * (mm * y)
            e = [mpmath.exp(v - max(z)) for v in z]
            return mpmath.matrix(e) / mpmath.fsum(e)

        y = mpmath.matrix([mpmath.mpf(float(v)) for v in x])
        stages = [mpmath.mpf(eta)]
        while stages[0] > 0.5:
            stages.insert(0, stages[0] / 2)
        for step in stages:
            s = softmax(y, step)
            for _ in range(100):
                size = mpmath.norm(y - s)
                if size < mpmath.mpf(10) ** (5 - digits):
                    break
                jacobian = mpmath.eye(n) + step * ((mpmath.diag(s) - s * s.T) * mm)
                d = mpmath.lu_solve(jacobian, y - s)
                t = mpmath.mpf(1)
                while t > 1e-30 and mpmath.norm(y - t * d - softmax(y - t * d, step)) >= size:
                    t /= 2
                y = y - t * d
                s = softmax(y, step)
            else:
                raise AssertionError("oracle Newton iteration did not converge")
        return np.array([float(v) for v in y])


@pytest.mark.parametrize("eta", [0.2, 1.0, 10.0, 50.0, 100.0])
@pytest.mark.parametrize("tol", [1e-10, 1e-12])
def test_mirror_route_target_within_tol_of_oracle(eta, tol):
    rps = library_problem("rps_game")
    spec = preset_ppa(entropy_geometry(3), rps, eta, inner_tol=tol)
    assert spec.target.geometry is not None
    rng = np.random.default_rng(SEED + 20)
    for x in rps.feasible_set.sample_interior(rng, 10, margin=0.02):
        y = resolve_target(spec, x)[0]
        assert np.linalg.norm(y - _rps_oracle(eta, tuple(x))) <= tol


def test_dmd_calibrated_case_one_mirror_route_within_tol_of_oracle():
    # case 1 resolves the PPA target, so the same oracle applies
    rps = library_problem("rps_game")
    spec = preset_dmd_calibrated(entropy_geometry(3), rps, 1.0, case=1)
    assert spec.target.geometry is not None
    rng = np.random.default_rng(SEED + 24)
    for x in rps.feasible_set.sample_interior(rng, 10, margin=0.02):
        y = resolve_target(spec, x)[0]
        assert np.linalg.norm(y - _rps_oracle(1.0, tuple(x))) <= 1e-10


def test_mirror_route_f_calls_per_target():
    # eta = 1 from points 0.2 from uniform; a projected forward iteration spent
    # about 300 F calls on each of these targets, the plain fixed-point
    # iteration 37, Newton 5 or 6
    rps = library_problem("rps_game")
    plain_f = rps.F
    calls = [0]

    def counted(x):
        calls[0] += 1
        return plain_f(x)

    rps.F = counted
    spec = preset_ppa(entropy_geometry(3), rps, 1.0)
    rng = np.random.default_rng(SEED + 21)
    uniform = np.full(3, 1.0 / 3.0)
    for _ in range(20):
        d = rng.standard_normal(3)
        d -= d.mean()
        calls[0] = 0
        resolve_target(spec, uniform + 0.2 * d / np.linalg.norm(d))
        assert calls[0] <= 8


@pytest.mark.parametrize("dim", [200, 1000])
def test_box_targets_take_one_newton_step_at_any_dimension(dim):
    # ppa on the box constrained_quadratic at eta = 1: F is diagonal, so the
    # target is clip((x - eta*q) / (1 + eta*m_ii), 0, 1).  From y = x one
    # Newton step lands on it, with 2 Phi calls, at any dimension
    problem = library_problem("constrained_quadratic", dim=dim)
    plain_f = problem.F
    calls = [0]

    def counted(x):
        calls[0] += 1
        return plain_f(x)

    spec = preset_ppa(euclidean_geometry(problem.feasible_set), problem, 1.0)
    problem.F = counted
    m, q = problem.linear_terms
    rng = np.random.default_rng(1)
    for x in problem.feasible_set.sample_interior(rng, 2):
        calls[0] = 0
        y = resolve_target(spec, x)[0]
        assert calls[0] <= 3
        closed = np.clip((x - q) / (1.0 + np.diag(m)), 0.0, 1.0)
        assert np.linalg.norm(y - closed) <= spec.target.tol


def test_a_saturated_entropy_start_resolves_in_few_f_calls():
    # eta = 1e4 from a point near a vertex, where softmax saturates if the
    # solve strays: from y = x it takes a few more F calls than at eta = 1
    rps = library_problem("rps_game")
    plain_f = rps.F
    calls = [0]

    def counted(x):
        calls[0] += 1
        return plain_f(x)

    spec = preset_ppa(entropy_geometry(3), rps, 1e4)
    rps.F = counted
    x = (0.018, 0.955, 0.027)
    y = resolve_target(spec, np.array(x))[0]
    assert calls[0] <= 20
    assert np.linalg.norm(y - _rps_oracle(1e4, x)) <= spec.target.tol


def test_newton_route_resolves_at_eta_3_without_a_fallback():
    # at eta = 3 the plain mirror fixed-point iteration of rps_game does
    # not contract near uniform; Newton certifies the target by itself
    rps = library_problem("rps_game")
    spec = preset_ppa(entropy_geometry(3), rps, 3.0)
    rng = np.random.default_rng(SEED + 22)
    for x in rps.feasible_set.sample_interior(rng, 3, margin=0.05):
        y = resolve_target(spec, x)[0]
        assert np.linalg.norm(y - _rps_oracle(3.0, tuple(x))) <= spec.target.tol


def test_newton_route_takes_differences_of_a_nonlinear_phi():
    # F = M x + 0.5 x^3 (monotone: skew plus the gradient of a convex
    # quartic) has no linear_terms, so J_Phi comes from forward differences;
    # the certificate reads the exact residual, so the target still solves
    # its subproblem: grad_h(y) + eta*F(y) - grad_h(x) lies in the normal
    # cone of the simplex at the interior point y, the multiples of ones
    m = library_problem("rps_game").linear_terms[0]
    cubic = VIProblem(feasible_set=simplex(3),
                      F=lambda x: np.matvec(m, x) + 0.5 * np.asarray(x, dtype=float) ** 3)
    g = entropy_geometry(3)
    rng = np.random.default_rng(SEED + 25)
    for eta in (1.0, 20.0):
        spec = preset_ppa(g, cubic, eta, inner_tol=1e-12)
        assert spec.target.geometry is g and spec.target.phi_jacobian is None
        for x in cubic.feasible_set.sample_interior(rng, 10, margin=0.02):
            y, sx = resolve_target(spec, x)
            residual = spec.S(y) + spec.Phi(y) - sx
            assert np.ptp(residual) <= 1e-9


@pytest.mark.parametrize("eta", [0.5, 2.0])
def test_box_pair_without_a_geometry_matches_its_clipped_closed_form(eta):
    # S = I, Phi(y) = eta*(y - c) on [0, 1]^2: Newton through the box
    # projection lands on T(x) = clip((x + eta*c) / (1 + eta), 0, 1)
    c = np.array([0.3, 1.7])
    spec = TargetSpec(alpha=1.0, beta=0.0, S=identity, sigma=1.0,
                      Phi=lambda y: eta * (np.asarray(y, dtype=float) - c),
                      target=ResolventSolve(tol=1e-12),
                      feasible_set=box([0.0, 0.0], [1.0, 1.0]))
    rng = np.random.default_rng(SEED + 26)
    for x in rng.uniform(-1.0, 2.0, size=(20, 2)):
        exact = np.clip((x + eta * c) / (1.0 + eta), 0.0, 1.0)
        assert np.linalg.norm(resolve_target(spec, x)[0] - exact) <= spec.target.tol


@pytest.mark.parametrize("eta", [0.2, 1.0, 5.0, 20.0])
@pytest.mark.parametrize("x", [(0.5, 0.25, 0.25), (0.9, 0.05, 0.05)])
def test_entropy_pair_without_a_geometry_is_certified(eta, x):
    # the hand-built pair (entropy grad_h, eta*F) on the simplex solves
    # through the Euclidean projection, and its stop certifies the target:
    # within tol of the geometry route
    rps = library_problem("rps_game")
    g = entropy_geometry(3)
    routed = preset_ppa(g, rps, eta)
    pair = TargetSpec(alpha=1.0, beta=0.0, S=g.grad_h, sigma=routed.sigma,
                      Phi=routed.Phi, target=ResolventSolve(tol=routed.target.tol),
                      feasible_set=rps.feasible_set)
    x = np.array(x)
    gap = resolve_target(pair, x)[0] - resolve_target(routed, x)[0]
    assert np.linalg.norm(gap) <= pair.target.tol


def test_entropy_pair_without_a_geometry_resolves_near_the_boundary():
    # costs (0, 10) at eta = 1 put the target's second coordinate at 4.5e-5:
    # forward differences of the entropy S along the projector's columns
    # (curvature 1/y^2) would break the Newton matrix's null space and
    # stall the solve; along the unit vectors it stays certified
    problem = library_problem("vertex_cost_simplex", costs=(0.0, 10.0))
    g = entropy_geometry(2)
    routed = preset_ppa(g, problem, 1.0)
    pair = TargetSpec(alpha=1.0, beta=0.0, S=g.grad_h, sigma=routed.sigma,
                      Phi=routed.Phi, target=ResolventSolve(tol=routed.target.tol),
                      feasible_set=problem.feasible_set)
    x = np.array([0.5, 0.5])
    y = resolve_target(pair, x)[0]
    assert y[1] == pytest.approx(4.54e-5, rel=1e-3)
    assert np.linalg.norm(y - resolve_target(routed, x)[0]) <= pair.target.tol


@pytest.mark.parametrize("with_geometry", [True, False])
def test_a_singular_newton_matrix_ends_as_a_target_resolution_error(with_geometry):
    # S + Phi vanishes on the whole space: the Newton matrix I + J_Phi is 0
    # with the given J_Phi = -I, and rounding-level from forward differences
    ws = whole_space(2)
    g = euclidean_geometry(ws)
    target = (ResolventSolve(geometry=g, phi_jacobian=-np.eye(2)) if with_geometry
              else ResolventSolve())
    spec = TargetSpec(alpha=1.0, beta=0.0, S=g.grad_h, sigma=1.0,
                      Phi=lambda y: -np.asarray(y, dtype=float), target=target,
                      feasible_set=ws)
    with pytest.raises(TargetResolutionError) as err:
        resolve_target(spec, np.array([1.0, 2.0]))
    assert err.value.last_residual == pytest.approx(np.sqrt(5.0))


def test_a_nan_phi_on_a_whole_space_pair_is_not_certified():
    # the residual is NaN from the start: no Newton step shrinks it, and a
    # NaN residual is no certificate, so x itself is not returned
    ws = whole_space(2)
    spec = TargetSpec(alpha=1.0, beta=0.0, S=identity, sigma=1.0,
                      Phi=lambda y: np.full(np.shape(y), np.nan),
                      target=ResolventSolve(), feasible_set=ws)
    with np.errstate(invalid="ignore"), pytest.raises(
            TargetResolutionError, match="residual nan"):
        resolve_target(spec, np.array([1.0, 2.0]))


def test_an_entropy_solve_that_meets_a_nan_phi_is_not_certified():
    # Phi is NaN wherever a coordinate exceeds 0.5, which the subproblem at
    # x = (0.6, 0.3, 0.1) starts from; (0.4, 0.35, 0.25) stays clear of it
    g = entropy_geometry(3)
    rps = library_problem("rps_game")

    def phi(y):
        y = np.asarray(y, dtype=float)
        return np.where(y > 0.5, np.nan, rps.F(y))

    spec = TargetSpec(alpha=1.0, beta=0.0, S=g.grad_h, sigma=1.0, Phi=phi,
                      target=ResolventSolve(geometry=g), feasible_set=g.domain)
    y = resolve_target(spec, np.array([0.4, 0.35, 0.25]))[0]
    assert np.all(np.isfinite(y)) and y.max() < 0.5
    with np.errstate(invalid="ignore"), pytest.raises(
            TargetResolutionError, match="residual nan"):
        resolve_target(spec, np.array([0.6, 0.3, 0.1]))


def test_the_gap_norm_is_rescaled_only_where_its_square_overflows():
    v = np.array([0.1, 0.7, -0.3])
    assert _norm(v) == np.sqrt(np.dot(v, v))
    with np.errstate(over="ignore", invalid="ignore"):  # as in the stepping loop
        assert _norm(np.array([1e307, -1e307])) == pytest.approx(
            np.sqrt(2.0) * 1e307, rel=1e-15)
        assert _norm(np.array([np.inf, 1.0])) == np.inf
        assert np.isnan(_norm(np.array([np.nan, 1e307])))


def test_eg_refuses_an_all_nan_operator():
    # every sampled inner product is NaN, and a NaN inner product refutes
    problem = VIProblem(feasible_set=whole_space(2), lipschitz_hint=1.0,
                        F=lambda x: np.full(np.shape(x), np.nan))
    g = euclidean_geometry(problem.feasible_set)
    with np.errstate(invalid="ignore"), pytest.raises(
            ConfigurationError, match="not strongly monotone"):
        preset_eg(g, problem, 0.1)


# --- the build check of strong monotonicity ----------------------------------

def _dense_problem():
    m = np.array([[1.0, 2.0, 0.0], [-2.0, 0.5, 1.0], [0.0, -1.0, 0.0]])
    return VIProblem(whole_space(3), name="dense", linear_terms=(m, np.array([1.0, -1.0, 0.5])))


LINEAR_BUILDS = {
    "eg": lambda g, problem: preset_eg(g, problem, 0.1),
    "eg_plus": lambda g, problem: preset_eg(g, problem, 0.1, 0.05),
    "ppa": lambda g, problem: preset_ppa(g, problem, 0.5),
    "fbf": lambda g, problem: preset_fbf(problem, 0.1),
    "dmd_calibrated_1": lambda g, problem: preset_dmd_calibrated(g, problem, 0.5, case=1),
    "dmd_calibrated_2": lambda g, problem: preset_dmd_calibrated(g, problem, 0.1, case=2),
}


def _linear_case(name, dim, geometry):
    """(geometry, problem) of a build case: a library problem, the box
    split's, or a dense whole-space one, under a geometry the harness
    builds for it (the Euclidean one on the problem's set, the weighted
    quadratic on the whole space, the entropy on the simplex)."""
    if name == "dense":
        problem = _dense_problem()
    elif name == "box_affine_split":
        problem = affine_box_split()[1]
    else:
        problem = library_problem(name, **({"dim": dim} if "dim" in LIBRARY[name][1] else {}))
    if geometry == "weighted":
        return weighted_quadratic_geometry(np.linspace(1.0, 2.0, dim)), problem
    if geometry == "entropy":
        return entropy_geometry(dim), problem
    return euclidean_geometry(problem.feasible_set), problem


@pytest.mark.parametrize("preset", sorted(LINEAR_BUILDS))
@pytest.mark.parametrize("name,dim,geometry", [
    ("skew_bilinear", 2, "euclidean"), ("skew_bilinear", 2000, "euclidean"),
    ("skew_bilinear", 3, "weighted"),
    ("linear_monotone", 2, "euclidean"), ("linear_monotone", 2000, "euclidean"),
    ("linear_monotone", 3, "weighted"), ("dense", 3, "euclidean"), ("dense", 3, "weighted"),
    ("rps_game", 3, "euclidean"), ("rps_game", 3, "entropy"),
    ("constrained_quadratic", 2, "euclidean"),
    ("vertex_cost_simplex", 2, "euclidean"), ("vertex_cost_simplex", 2, "entropy"),
    ("scalar_shift", 1, "euclidean"), ("scalar_shift", 1, "weighted"),
    ("box_affine_split", 1, "euclidean"),
])
def test_a_linear_build_draws_no_point_and_evaluates_no_operator(monkeypatch, preset, name,
                                                                 dim, geometry):
    # linear F, on every set and under every geometry: the least eigenvalue
    # of the design map's symmetric part on the set's tangent space
    # decides, without a sampled pair
    g, problem = _linear_case(name, dim, geometry)
    calls, operator = [], problem.F
    problem.F = lambda x: calls.append(np.shape(x)) or operator(x)

    def draw(*args, **kwargs):
        raise AssertionError("the build drew a point")

    monkeypatch.setattr(targets.FeasibleSet, "sample_interior", draw)
    LINEAR_BUILDS[preset](g, problem)
    assert calls == []


def _counted_draws(monkeypatch):
    draws, sample = [], targets.FeasibleSet.sample_interior

    def counted(self, rng, n, *args, **kwargs):
        draws.append(n)
        return sample(self, rng, n, *args, **kwargs)

    monkeypatch.setattr(targets.FeasibleSet, "sample_interior", counted)
    return draws


@pytest.mark.parametrize("case", ["eg_hint_only", "ppa_no_terms"])
def test_every_other_build_still_refutes_on_sampled_pairs(monkeypatch, case):
    # an F without linear_terms, known by its lipschitz_hint (eg) or not at
    # all (ppa on rps_game's operator under entropy): one draw of 128
    # points, the 64 pairs
    hint_only = VIProblem(whole_space(2), F=lambda x: 2.0 * np.asarray(x, dtype=float),
                          lipschitz_hint=2.0)
    no_terms = VIProblem(simplex(3), F=library_problem("rps_game").F)
    build = {
        "eg_hint_only": lambda: preset_eg(euclidean_geometry(hint_only.feasible_set),
                                          hint_only, 0.1),
        "ppa_no_terms": lambda: preset_ppa(entropy_geometry(3), no_terms, 1.0),
    }[case]
    draws = _counted_draws(monkeypatch)
    build()
    assert draws == [128]


@pytest.mark.parametrize("m,eta,least", [
    (Tridiagonal(3, -1.0, 1.0), 2.0, "-1.000e+00"),  # min(w) + eta*diag
    (np.array([[-1.0, 4.0], [-4.0, 1.0]]), 1.0, "0.000e+00"),
    (np.array([[1e300, 0.0], [0.0, 1.0]]), 1e10, "nan"),  # eta*M overflows
])
def test_a_linear_build_that_is_not_strongly_monotone_names_its_least_eigenvalue(m, eta,
                                                                                 least):
    problem = VIProblem(whole_space(m.shape[0]), linear_terms=(m, np.zeros(m.shape[0])))
    message = (f"grad_h + eta*F is not strongly monotone (least eigenvalue of its "
               f"symmetric part {least}); reduce the step")
    with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
        preset_ppa(euclidean_geometry(problem.feasible_set), problem, eta)


@pytest.mark.parametrize("feasible_set,m,q,eta,least", [
    # modulus exactly 0: the sampled pairs accepted it, and the run ended
    # in a singular target subproblem
    (box([0.0, 0.0], [1.0, 1.0]), np.diag([-2.0, 1.0]), np.array([0.5, -0.5]), 0.5,
     "0.000e+00"),
    # eta*(M + M^T)/2 overflows on the sum-zero vectors: NaN, without a
    # warning, where the sampled pairs warned
    (simplex(3), np.array([[3.0, 1.0, 0.0], [0.0, 2.0, 1.0], [1.0, 0.0, 1.0]]), np.zeros(3),
     1e308, "nan"),
])
def test_a_constrained_linear_build_that_is_not_strongly_monotone_names_its_bound(
        feasible_set, m, q, eta, least):
    problem = VIProblem(feasible_set, linear_terms=(m, q))
    message = (f"grad_h + eta*F is not strongly monotone (least eigenvalue of its "
               f"symmetric part {least}); reduce the step")
    with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
        preset_ppa(euclidean_geometry(feasible_set), problem, eta)


def test_ppa_on_rps_under_entropy_builds_at_any_step():
    # grad_h + eta*F is 1-strongly monotone for every eta (M is skew); at
    # eta = 1e16 the sampled pairs read a min ratio of -2.896e-01, rounding
    spec = preset_ppa(entropy_geometry(3), library_problem("rps_game"), 1e16)
    assert spec.sigma == 1.0


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("geometry,m,q", [
    # the closed form's dense inverse
    (euclidean_geometry(whole_space(2)), np.array([[1.0, 2.0], [-2.0, 1.0]]), np.zeros(2)),
    # the closed form through to_dense
    (weighted_quadratic_geometry([1.0, 2.0, 3.0]), Tridiagonal(3, 1.0, 2.0), np.zeros(3)),
    # the Newton Jacobian; (M + M^T)/2 stays finite, so the certificate accepts
    (euclidean_geometry(simplex(3)),
     np.array([[1.0, 2.0, 0.0], [-2.0, 0.5, 1.0], [0.0, -1.0, 0.0]]), np.zeros(3)),
    # the shifted Tridiagonal's spectral solve: every entry of eta*M is
    # finite, but not its row sums, and the solve's spectrum overflows
    (euclidean_geometry(whole_space(3)), Tridiagonal(3, 1.0, 1.0), np.zeros(3)),
    # the closed form's shift eta*q
    (euclidean_geometry(whole_space(1)), np.eye(1), np.array([2.0])),
], ids=["dense", "to_dense", "newton", "spectral", "shift"])
def test_ppa_refuses_a_step_at_which_eta_times_the_linear_terms_overflows(geometry, m, q):
    # the build leaked numpy's overflow warning, or the run diverged at step 1
    problem = VIProblem(geometry.domain, linear_terms=(m, q))
    message = "eta*F's linear terms leave the float range at eta = 1e+308; reduce the step"
    with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
        preset_ppa(geometry, problem, 1e308)
    assert preset_ppa(geometry, problem, 1e300).name == "ppa"


@pytest.mark.parametrize("build", [
    lambda g, problem: preset_ppa(g, problem, 0.5),
    lambda g, problem: preset_eg(g, problem, 0.1),
])
def test_a_one_point_simplex_builds(build):
    # no tangent direction, so no modulus to bound: inf, as for the sampled
    # pairs, which all repeat the one point
    problem = VIProblem(simplex(1), linear_terms=(np.array([[-5.0]]), np.ones(1)))
    build(euclidean_geometry(problem.feasible_set), problem)


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(["whole_space", "box", "simplex", "entropy"]),
       st.integers(1, 4).flatmap(lambda d: st.tuples(
           st.lists(st.integers(-8, 8), min_size=d * d, max_size=d * d),
           st.lists(st.integers(1, 8), min_size=d, max_size=d))),
       st.integers(1, 16), st.sampled_from([1.0, -1.0]))
def test_a_linear_build_refuses_exactly_where_the_dense_symmetric_part_is_not_positive(
        where, entries, eta8, sign):
    # D + sign*eta*M on the set's tangent space, which is ppa's design map
    # on M and extragradient's on -M.  D is diag(w) under the weighted
    # quadratic potential, else the geometry's modulus 1 times I.  Quarters
    # and eighths keep every sum exact, so on R^d the test's symmetric part
    # has the bits of the build's; on the simplex's sum-zero vectors the
    # test takes another orthonormal basis, which rounds apart by far less
    # than the band of 1e-9 around the threshold that the test leaves out
    m_entries, w_entries = entries
    dim = len(w_entries)
    assume(where != "entropy" or dim > 1)
    m = sign * np.array(m_entries, dtype=float).reshape(dim, dim) / 4.0
    eta = eta8 / 8.0
    if where == "whole_space":
        w = np.array(w_entries, dtype=float) / 4.0
        feasible_set, g = whole_space(dim), weighted_quadratic_geometry(w)
    else:
        w = np.ones(dim)
        feasible_set = box(np.zeros(dim), np.ones(dim)) if where == "box" else simplex(dim)
        g = entropy_geometry(dim) if where == "entropy" else euclidean_geometry(feasible_set)
    problem = VIProblem(feasible_set, linear_terms=(m, np.zeros(dim)))
    a = np.diag(w) + eta * m
    sym = (a + a.T) / 2.0
    if feasible_set.kind == "simplex":
        basis = np.linalg.svd(np.ones((1, dim)))[2][1:].T  # V^T's rows past the first
        sym = basis.T @ sym @ basis
    least = min(np.linalg.eigvalsh(sym), default=np.inf)  # none on simplex(1)
    try:
        preset_ppa(g, problem, eta)
        refused = False
    except ConfigurationError:
        refused = True
    if feasible_set.kind != "simplex" or abs(least - 1e-12) > 1e-9:
        assert refused == (least <= 1e-12)
    # never weaker than the 64 sampled pairs
    try:
        targets._refute_on_samples(lambda x: g.grad_h(x) + eta * problem.F(x),
                                   problem.feasible_set, "grad_h + eta*F")
    except ConfigurationError:
        assert refused


def test_a_solve_certified_by_its_last_allowed_step_returns(monkeypatch):
    # one Newton step with the exact J_Phi solves a linear subproblem; with
    # one step allowed, that step's residual is read before the solve gives up
    monkeypatch.setattr(targets, "MAX_NEWTON_STEPS", 1)
    ws = whole_space(2)
    g = euclidean_geometry(ws)
    m = np.array([[1.0, 1.0], [-1.0, 1.0]])
    spec = TargetSpec(alpha=1.0, beta=0.0, S=g.grad_h, sigma=1.0,
                      Phi=lambda y: 0.5 * np.matvec(m, y), feasible_set=ws,
                      target=ResolventSolve(geometry=g, phi_jacobian=0.5 * m))
    x = np.array([1.0, 2.0])
    y = resolve_target(spec, x)[0]
    assert np.linalg.norm(y - np.linalg.solve(np.eye(2) + 0.5 * m, x)) <= spec.target.tol


def test_a_phi_jacobian_needs_a_geometry():
    with pytest.raises(ConfigurationError, match="phi_jacobian needs a geometry"):
        ResolventSolve(phi_jacobian=np.eye(2))


def test_mirror_route_weighted_quadratic_matches_linear_solve():
    # h = 0.5 * sum w x^2: the target solves (W + eta*M) y = W x - eta*q
    problem = library_problem("skew_bilinear")
    g = weighted_quadratic_geometry([1.0, 2.0])
    spec = preset_ppa(g, problem, 0.5, inner_tol=1e-12)
    assert isinstance(spec.target, ClosedForm)
    m, q = problem.linear_terms
    w = np.diag([1.0, 2.0])
    rng = np.random.default_rng(SEED + 23)
    for x in rng.normal(size=(10, 2)):
        y = resolve_target(spec, x)[0]
        exact = np.linalg.solve(w + 0.5 * m.to_dense(), w @ x - 0.5 * q)
        assert np.linalg.norm(y - exact) <= 1e-12


def test_ppa_route_selection():
    # linear F under a whole-space quadratic potential: a closed-form linear
    # solve; on a box, the simplex or under entropy: Newton through the
    # geometry's conj_jacobian_times, with J_Phi = eta*M made dense once
    for name in ("skew_bilinear", "linear_monotone", "scalar_shift",
                 "constrained_quadratic"):
        problem = library_problem(name)
        g = euclidean_geometry(problem.feasible_set)
        for spec in (preset_ppa(g, problem, 0.5),
                     preset_dmd_calibrated(g, problem, 0.5, case=1)):
            if name == "constrained_quadratic":
                assert spec.target.geometry is g
                assert np.array_equal(spec.target.phi_jacobian,
                                      0.5 * problem.linear_terms[0])
            else:
                assert isinstance(spec.target, ClosedForm)
    weighted = library_problem("skew_bilinear")
    assert isinstance(preset_ppa(weighted_quadratic_geometry([1.0, 2.0]), weighted,
                                 0.5).target, ClosedForm)
    rps = library_problem("rps_game")
    for g in (entropy_geometry(3), euclidean_geometry(rps.feasible_set)):
        for spec in (preset_ppa(g, rps, 1.0),
                     preset_dmd_calibrated(g, rps, 1.0, case=1)):
            assert spec.target.geometry is g
            assert np.array_equal(spec.target.phi_jacobian, rps.linear_terms[0])
    # a geometry without conj_jacobian_times: the same certified solve,
    # through the Euclidean projection onto the simplex with S = its grad_h
    bare = dataclasses.replace(entropy_geometry(3), conj_jacobian_times=None)
    spec = preset_ppa(bare, rps, 1.0)
    assert spec.target == ResolventSolve(tol=1e-10)
    x = (0.6, 0.3, 0.1)
    assert np.linalg.norm(resolve_target(spec, np.array(x))[0]
                          - _rps_oracle(1.0, x)) <= spec.target.tol


# --- preset_ppa's shortcuts, bit for bit -----------------------------------

@settings(max_examples=100, deadline=None)
@given(st.sampled_from(["rps_game", "linear_monotone", "skew_bilinear"]),
       st.lists(st.floats(-1e3, 1e3), min_size=9, max_size=9), st.integers(1, 3))
def test_ppa_phi_at_unit_step_has_the_bits_of_the_general_expression(name, coords, rows):
    # at eta = 1 Phi is F(x) itself, which 1.0 * F(x) equals bit for bit,
    # on a point and on a stack, signs of zeros too
    problem = library_problem(name)
    geometry = (entropy_geometry(3) if name == "rps_game"
                else euclidean_geometry(problem.feasible_set))
    spec = preset_ppa(geometry, problem, 1.0)
    dim = problem.feasible_set.dim
    for point in (np.array(coords[:dim]), np.array(coords[:rows * dim]).reshape(rows, dim)):
        ours, general = spec.Phi(point), 1.0 * problem.F(point)
        assert np.array_equal(ours, general)
        assert np.array_equal(np.signbit(ours), np.signbit(general))


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(["linear_monotone", "skew_bilinear", "scalar_shift", "weighted"]),
       st.floats(0.01, 100.0), st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=2))
def test_ppa_closed_form_has_the_bits_of_its_general_expression(case, eta, coords):
    # (W + eta*M)^-1 (W x - eta*q) with eta*q formed once, and W x skipped
    # where every weight is 1
    problem = library_problem("linear_monotone" if case == "weighted" else case)
    geometry = (weighted_quadratic_geometry([0.5, 3.0]) if case == "weighted"
                else euclidean_geometry(problem.feasible_set))
    m, q = problem.linear_terms
    w = geometry.quadratic_weights
    x = np.array(coords[:problem.feasible_set.dim])
    if isinstance(m, Tridiagonal) and geometry.name == "euclidean":
        general = m.shifted(eta).solve(w * x - eta * q)
    else:
        dense = m.to_dense() if isinstance(m, Tridiagonal) else m
        general = np.matvec(np.linalg.inv(np.diag(w) + eta * dense), w * x - eta * q)
    tx = resolve_target(preset_ppa(geometry, problem, eta), x)[0]
    assert np.array_equal(tx, general)
    assert np.array_equal(np.signbit(tx), np.signbit(general))


@pytest.mark.parametrize("eta", [1.0, 0.5])
def test_ppa_phi_reaches_a_problem_F_rebound_after_the_build(eta):
    problem = library_problem("rps_game")
    spec = preset_ppa(entropy_geometry(3), problem, eta)
    problem.F = lambda x: np.full(np.shape(x), 2.0)
    assert np.array_equal(spec.Phi(np.full(3, 1.0 / 3.0)), np.full(3, eta * 2.0))


# --- properties: presets against the coded references ----------------------
# Step sizes are drawn inside each preset's admissible range, points in its
# set; agreement is asserted at compare's tolerances, over STEPS steps.

FRACTION = st.floats(0.01, 0.95)
COORDINATE = st.floats(-3.0, 3.0)
LINEAR = st.sampled_from(["skew_bilinear", "linear_monotone"])
PROPERTY = settings(max_examples=20, deadline=None)
STEPS = 20


def _simplex_point(weights):
    w = np.asarray(weights, dtype=float)
    return w / w.sum()


@PROPERTY
@given(LINEAR, st.integers(2, 6), FRACTION, st.one_of(st.none(), FRACTION),
       st.lists(COORDINATE, min_size=6, max_size=6))
def test_eg_matches_coded_euclidean_extragradient(name, dim, frac1, frac2, coords):
    # sigma = 1 - eta1 * L > 0 bounds eta1; eg_plus moves with eta2 <= eta1
    problem = library_problem(name, dim=dim)
    eta1 = frac1 / estimate_lipschitz(problem)
    eta2 = None if frac2 is None else frac2 * eta1
    g = euclidean_geometry(problem.feasible_set)
    spec = preset_eg(g, problem, eta1, eta2)
    coded = lambda x: ri.eg_step_euclidean(problem.F, problem.feasible_set.project,
                                           eta1, eta1 if eta2 is None else eta2, x)
    deviation = _stepwise_deviation(g, spec, coded, coords[:dim], STEPS)
    assert deviation <= DISCRETE_COMPARE_TOL


@PROPERTY
@given(FRACTION, st.one_of(st.none(), FRACTION),
       st.lists(st.floats(0.05, 1.0), min_size=3, max_size=3))
def test_eg_matches_coded_entropy_extragradient(frac1, frac2, weights):
    rps = library_problem("rps_game")
    eta1 = frac1 / estimate_lipschitz(rps)
    eta2 = None if frac2 is None else frac2 * eta1
    g = entropy_geometry(3)
    spec = preset_eg(g, rps, eta1, eta2)
    coded = lambda x: ri.eg_step_entropy(rps.F, eta1, eta1 if eta2 is None else eta2, x)
    x0 = _simplex_point(weights)
    assert _stepwise_deviation(g, spec, coded, x0, STEPS) <= DISCRETE_COMPARE_TOL


@PROPERTY
@given(st.sampled_from(["skew_bilinear", "constrained_quadratic"]), FRACTION,
       st.lists(COORDINATE, min_size=2, max_size=2))
def test_fbf_field_matches_coded_field(name, frac, coords):
    problem = library_problem(name)
    eta = frac / estimate_lipschitz(problem)
    spec = preset_fbf(problem, eta)
    x = problem.feasible_set.project(np.array(coords))
    field = dual_rate(spec, x, *resolve_target(spec, x))
    coded = ri.fbf_field(problem.F, problem.feasible_set.project, eta, x)
    assert np.linalg.norm(field - coded) <= FIELD_COMPARE_TOL


@PROPERTY
@given(st.floats(-3.0, 3.0), st.floats(0.05, 5.0), st.floats(-5.0, 5.0))
def test_dr_matches_coded_douglas_rachford(shift, eta, x0):
    # DR takes every positive eta
    pair, _ = affine_box_split(shift, 0.0, 1.0)
    g = euclidean_geometry(whole_space(1))
    ja = lambda v: np.clip(v, 0.0, 1.0)
    jb = lambda v: (v + eta * shift) / (1.0 + eta)
    deviation = _stepwise_deviation(g, preset_dr(pair, g.domain, eta),
                                    lambda x: ri.dr_step(ja, jb, x), [x0], STEPS)
    assert deviation <= DISCRETE_COMPARE_TOL


@PROPERTY
@given(st.floats(-3.0, 3.0), FRACTION, st.floats(-5.0, 5.0))
def test_fb_matches_coded_forward_backward(shift, frac, x0):
    # eta < 4 * modulus(A + B) / lipschitz(B)^2 = 4 on the affine box split
    pair, _ = affine_box_split(shift, 0.0, 1.0)
    eta = 4.0 * frac
    g = euclidean_geometry(whole_space(1))
    ja = lambda v: np.clip(v, 0.0, 1.0)
    b = lambda x: x - shift
    deviation = _stepwise_deviation(g, preset_fb(pair, g.domain, eta),
                                    lambda x: ri.fb_step(ja, b, eta, x), [x0], STEPS)
    assert deviation <= DISCRETE_COMPARE_TOL


@PROPERTY
@given(LINEAR, st.integers(2, 5), st.floats(0.05, 2.0),
       st.lists(COORDINATE, min_size=5, max_size=5))
def test_euclidean_linear_ppa_matches_coded_linear_solve(name, dim, eta, coords):
    # I + eta*M is strongly monotone for every eta > 0 when M is monotone
    problem = library_problem(name, dim=dim)
    m, q = problem.linear_terms
    g = euclidean_geometry(problem.feasible_set)
    spec = preset_ppa(g, problem, eta)
    coded = lambda x: ri.ppa_step_linear(m.to_dense(), q, eta, x)
    deviation = _stepwise_deviation(g, spec, coded, coords[:dim], STEPS)
    assert deviation <= DISCRETE_COMPARE_TOL


@PROPERTY
@given(st.sampled_from(["skew_bilinear", "constrained_quadratic", "rps_game"]),
       FRACTION,
       st.lists(COORDINATE, min_size=3, max_size=3))
def test_fbf_is_extragradient_under_the_euclidean_potential(name, frac, coords):
    problem = library_problem(name)
    eta = frac / estimate_lipschitz(problem)
    fbf = preset_fbf(problem, eta)
    eg = preset_eg(euclidean_geometry(problem.feasible_set), problem, eta)
    assert (fbf.alpha, fbf.beta, fbf.sigma) == (eg.alpha, eg.beta, eg.sigma)
    x = problem.feasible_set.project(np.array(coords[:problem.feasible_set.dim]))
    tx, sx = resolve_target(fbf, x)
    assert np.array_equal(fbf.S(x), eg.S(x))
    assert np.array_equal(fbf.Phi(x), eg.Phi(x))
    assert np.array_equal(tx, resolve_target(eg, x)[0])
    assert np.array_equal(dual_rate(fbf, x, tx, sx), dual_rate(eg, x, tx, sx))


# --- explicit targets on stacks ---------------------------------------------

def _explicit_specs():
    """(label, spec, stack) for every design with an explicit target that a
    preset builds on a library problem or box_affine_split, under each
    geometry its row admits, at the preset's default parameters and at
    eta = 3; the stack holds 50 interior points of the problem's set."""
    for name in sorted(LIBRARY) + ["box_affine_split"]:
        for preset, row in harness.PRESETS.items():
            variants = [{}] + ([{"eta": 3.0}] if "eta" in row.params else [])
            for geometry, params in itertools.product(
                    ("euclidean", "entropy", "weighted_quadratic"), variants):
                cfg = ExperimentConfig(problem=name, preset=preset, geometry=geometry,
                                       preset_params=params)
                try:
                    problem, pair = harness.build_problem(cfg)
                    dim = problem.feasible_set.dim
                    if geometry == "weighted_quadratic":
                        cfg.geometry_weights = tuple(np.linspace(1.0, 2.0, dim))
                    spec = build_spec(cfg, harness.build_geometry(cfg, problem),
                                      problem, pair)
                except ConfigurationError:
                    continue
                if isinstance(spec, TargetSpec) and isinstance(
                        spec.target, (ClosedForm, ClosedFormGap, MirrorOfS)):
                    stack = problem.feasible_set.sample_interior(
                        np.random.default_rng(SEED), 50)
                    yield f"{preset}/{name}/{geometry}/{params}", spec, stack


def test_explicit_targets_resolve_a_stack_row_by_row_bit_for_bit():
    strategies = set()
    for label, spec, stack in _explicit_specs():
        strategies.add(type(spec.target))
        stacked = resolve_target(spec, stack)
        for i, x in enumerate(stack):
            for got, want in zip(stacked, resolve_target(spec, x)):
                if want is None:
                    assert got is None, label
                else:
                    assert got[i].tobytes() == want.tobytes(), (label, i)
                    assert want.shape == x.shape, label
    assert strategies == {ClosedForm, ClosedFormGap, MirrorOfS}


def test_bnn_target_refuses_a_stack_with_one_entry_below_the_floor():
    spec = preset_bnn(library_problem("rps_game"), 1.0)
    stack = np.full((5, 3), 1.0 / 3.0)
    stack[3] = (0.5, 0.5, 0.0)
    with pytest.raises(DomainError):
        resolve_target(spec, stack)


@pytest.mark.filterwarnings("error")
def test_a_newton_residual_past_the_float_range_is_a_stall_not_a_warning():
    # eta*M reaches 2e300 on this dense simplex design: the Newton residual
    # overflows, and the solve stalls without a numpy warning
    m = np.array([[1.0, 2.0, 0.0], [-2.0, 0.5, 1.0], [0.0, -1.0, 0.0]])
    problem = VIProblem(simplex(3), name="dense", linear_terms=(m, np.zeros(3)))
    spec = preset_ppa(euclidean_geometry(simplex(3)), problem, 1e300)
    with pytest.raises(TargetResolutionError,
                       match=r"^target subproblem stalled: residual 1\.067e\+300 > 1e-10$"):
        resolve_target(spec, [1.0 / 3.0] * 3)
