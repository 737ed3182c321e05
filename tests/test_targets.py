import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference_impls as ri
from test_acceptance import _stepwise_deviation
from targetmd import (ClosedForm, ResolventSolve, TargetSpec,
                      affine_box_split, aitchison_add, bnn_dual_shift_target,
                      dual_rate, entropy_geometry, estimate_lipschitz,
                      euclidean_geometry, excess_payoff,
                      library_problem, natural_residual, preset_bnn,
                      preset_dmd_calibrated, preset_dr, preset_eg, preset_fb,
                      preset_fbf, preset_ppa, preset_vanilla_md,
                      resolve_target, simplex, weighted_quadratic_geometry,
                      whole_space)
from targetmd.errors import (ConfigurationError, DomainError,
                             TargetResolutionError)
from targetmd.harness import DISCRETE_COMPARE_TOL, FIELD_COMPARE_TOL

SEED = 4242


def identity(x):
    return np.asarray(x, dtype=float).copy()


# --- resolve_target -------------------------------------------------------

def test_resolve_identity_subproblem():
    s = whole_space(2)
    spec = TargetSpec(alpha=1.0, beta=0.0, S=identity, sigma=1.0,
                      Phi=lambda x: np.zeros_like(x),
                      target=ResolventSolve(step=1.0),
                      feasible_set=s)
    assert np.allclose(resolve_target(spec, np.array([2.0, 2.0])), [2.0, 2.0])


def test_resolve_scalar_proximal_equation():
    # S = I, Phi = 0.5 * (x - 2): solve y + 0.5(y - 2) = 0  =>  y = 2/3
    problem = library_problem("scalar_shift", a=2.0)
    s = problem.feasible_set
    spec = TargetSpec(alpha=1.0, beta=0.0, S=identity, sigma=1.0,
                      Phi=lambda x: 0.5 * problem.F(x),
                      target=ResolventSolve(tol=1e-12, step=1.5 / 1.5 ** 2),
                      feasible_set=s)
    y = resolve_target(spec, np.array([0.0]))
    assert y[0] == pytest.approx(2.0 / 3.0, abs=1e-10)


def test_resolve_eg_closed_form():
    problem = library_problem("skew_bilinear")
    g = euclidean_geometry(problem.feasible_set)
    spec = preset_eg(g, problem, 0.1)
    y = resolve_target(spec, np.array([1.0, 0.0]))
    assert np.allclose(y, [1.0, 0.1])


def test_resolve_reports_nonconvergence():
    s = whole_space(1)
    # anti-monotone pair: the iteration cannot contract
    spec = TargetSpec(alpha=1.0, beta=0.0, S=identity, sigma=1.0,
                      Phi=lambda x: -2.0 * np.asarray(x, dtype=float),
                      target=ResolventSolve(tol=1e-12, max_iter=50, step=0.5),
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
    y = resolve_target(spec, np.array([0.0]))
    assert y[0] == pytest.approx(1.0, abs=1e-9)  # solves 2y = 2


def test_ppa_fixed_point_at_solution():
    for name, geometry_of in (("scalar_shift", euclidean_geometry),
                              ("linear_monotone", euclidean_geometry)):
        problem = library_problem(name)
        g = geometry_of(problem.feasible_set)
        spec = preset_ppa(g, problem, 0.5)
        star = problem.known_solution
        y = resolve_target(spec, star)
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
    y = resolve_target(spec, x)
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
    problem = library_problem("skew_bilinear")
    with pytest.raises(ConfigurationError, match=next(iter(kwargs))):
        preset_ppa(euclidean_geometry(problem.feasible_set), problem, 0.5, **kwargs)


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
    tx = resolve_target(spec, x)
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
    tx = resolve_target(spec, star)
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
    # same design pair, solved implicitly: S + Phi = grad_h, so with unit
    # constants the inner iteration lands exactly in one step
    solver = TargetSpec(alpha=closed.alpha, beta=0.0, S=closed.S,
                        sigma=closed.sigma, Phi=closed.Phi,
                        target=ResolventSolve(tol=1e-12, step=1.0),
                        feasible_set=closed.feasible_set)
    rng = np.random.default_rng(SEED)
    for x in problem.feasible_set.sample(rng, 50):
        a = resolve_target(closed, x)
        b = resolve_target(solver, x)
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
        y = resolve_target(spec, x)
        assert np.linalg.norm(y - direct) <= 1e-10


# --- splitting presets ----------------------------------------------------

def test_dr_scalar_examples():
    pair, problem = affine_box_split(2.0, 0.0, 1.0)
    spec = preset_dr(pair, whole_space(1), 1.0)
    t = lambda v: resolve_target(spec, np.array([v]))[0]
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
    t = lambda v: resolve_target(spec, np.array([v]))[0]
    assert t(0.0) == pytest.approx(1.0)
    assert t(1.0) == pytest.approx(1.0)
    assert t(-2.0) == pytest.approx(0.0)


def test_fb_step_bound():
    pair, _ = affine_box_split()
    with pytest.raises(ConfigurationError):
        preset_fb(pair, whole_space(1), 4.0)  # bound is 4*sigma/L^2 = 4


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
    # the projected route with exact constants, from a corner of the box
    cases.append((preset_ppa(euclidean_geometry(quad.feasible_set), quad, 0.5),
                  quad, np.array([1.0, 0.0])))
    rps = library_problem("rps_game")
    entropy_ppa = preset_ppa(entropy_geometry(3), rps, 0.2, inner_tol=1e-12)
    # the certified mirror-map route
    cases.append((entropy_ppa, rps, np.array([0.5, 0.25, 0.25])))
    # near-balanced inner step (about 2/(sigma+L) for the interior
    # subproblem) keeps the returned point within a few tol of exact
    entropy_ppa = TargetSpec(
        alpha=1.0, beta=0.0, S=entropy_ppa.S, sigma=entropy_ppa.sigma,
        Phi=entropy_ppa.Phi, target=ResolventSolve(tol=1e-12, step=0.4),
        feasible_set=entropy_ppa.feasible_set)
    cases.append((entropy_ppa, rps, np.array([0.5, 0.25, 0.25])))
    for spec, problem, x in cases:
        y = resolve_target(spec, x)
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
        sym = 0.5 * (a + a.T)
        spec = TargetSpec(
            alpha=1.0, beta=0.0, S=identity, sigma=1.0,
            Phi=lambda x, m=m, q=q, eta=eta: eta * (m @ x + q),
            target=ResolventSolve(tol=1e-13, step=float(np.linalg.eigvalsh(sym).min())
                                  / float(np.linalg.norm(a, 2)) ** 2),
            feasible_set=s)
        x = rng.normal(size=dim)
        y = resolve_target(spec, x)
        assert np.linalg.norm(y - np.linalg.solve(a, x - eta * q)) <= 1e-9


# --- simplex game machinery ------------------------------------------------

def test_excess_payoff_examples():
    rps = library_problem("rps_game")
    uniform = np.full(3, 1.0 / 3.0)
    excess, nep = excess_payoff(rps, uniform)
    assert np.allclose(excess, 0.0) and np.allclose(nep, 0.0)
    excess, nep = excess_payoff(rps, np.array([0.5, 0.25, 0.25]))
    assert np.allclose(excess, [0.0, 0.25, 0.0])
    assert np.allclose(nep, [0.0, 1.0, 0.0])


def test_excess_payoff_shift_invariance():
    rps = library_problem("rps_game")
    from targetmd import VIProblem
    shifted = VIProblem(feasible_set=simplex(3),
                        F=lambda x: rps.F(x) + 7.5)
    rng = np.random.default_rng(SEED + 4)
    for x in rps.feasible_set.sample_interior(rng, 100):
        e1, n1 = excess_payoff(rps, x)
        e2, n2 = excess_payoff(shifted, x)
        assert np.allclose(e1, e2, atol=1e-12)
        assert np.allclose(n1, n2, atol=1e-11)


def test_excess_payoff_rejects_boundary():
    rps = library_problem("rps_game")
    with pytest.raises(DomainError):
        excess_payoff(rps, np.array([1.0, 0.0, 0.0]))


def test_aitchison_examples():
    uniform = np.full(2, 0.5)
    assert np.allclose(aitchison_add(uniform, uniform), uniform)
    assert np.allclose(aitchison_add(np.array([0.25, 0.75]), np.array([3.0, 1.0])),
                       [0.5, 0.5])
    a = np.array([0.2, 0.3])
    assert np.allclose(aitchison_add(a, np.ones(2)), a / a.sum())
    with pytest.raises(DomainError):
        aitchison_add(np.array([0.5, 0.0]), np.array([1.0, 1.0]))


# --- excess-payoff preset ---------------------------------------------------

def test_bnn_uniform_is_fixed():
    rps = library_problem("rps_game")
    spec = preset_bnn(rps, eta=1.0)
    uniform = np.full(3, 1.0 / 3.0)
    assert np.allclose(resolve_target(spec, uniform), uniform)


def test_bnn_target_value_and_cross_check():
    rps = library_problem("rps_game")
    spec = preset_bnn(rps, eta=1.0)
    x = np.array([0.5, 0.25, 0.25])
    # oracle: products (0.5, 0.25*e, 0.25) renormalized
    products = x * np.exp(np.array([0.0, 1.0, 0.0]))
    oracle = products / products.sum()
    tx = resolve_target(spec, x)
    assert np.allclose(tx, oracle, atol=1e-14)
    assert np.allclose(tx, [0.349755, 0.475367, 0.174877], atol=1e-5)
    dual_route = bnn_dual_shift_target(rps, 1.0)
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
        tx, gap = resolve_target(spec, x, with_anchor=True)
        literal = spec.alpha * (spec.S(tx) - spec.S(x))
        stable = spec.alpha * gap
        assert np.linalg.norm(literal - stable) <= 1e-10
        _, nep = excess_payoff(rps, x)
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
    dual_route = bnn_dual_shift_target(problem, eta)
    rng = np.random.default_rng(seed)
    for x in problem.feasible_set.sample_interior(rng, 50, margin=1e-9):
        tx = resolve_target(spec, x)
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
    tx = resolve_target(spec, x)
    rate = spec.S(tx) - spec.S(x)
    assert np.allclose(rate, [-0.01, 0.1], atol=1e-15)
    star = np.zeros(2)
    tstar = resolve_target(spec, star)
    assert np.allclose(spec.S(tstar) - spec.S(star), 0.0)


def test_fbf_interior_solution_is_fixed_point():
    problem = library_problem("constrained_quadratic")
    spec = preset_fbf(problem, 0.2)
    star = problem.known_solution
    assert np.linalg.norm(resolve_target(spec, star) - star) <= 1e-12


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
            tx = resolve_target(spec, star)
        except DomainError:
            continue  # boundary solution under an interior-only map
        tol = spec.target.tol if isinstance(spec.target, ResolventSolve) else 1e-10
        assert np.linalg.norm(tx - star) <= 10 * tol


def test_target_image_stays_feasible():
    rng = np.random.default_rng(SEED + 7)
    for spec, problem in _matrix():
        for x in problem.feasible_set.sample_interior(rng, 25, margin=0.05):
            tx = resolve_target(spec, x)
            assert problem.feasible_set.contains(tx, tol=1e-8)


def test_vanilla_md_spec_shape():
    problem = library_problem("skew_bilinear")
    g = euclidean_geometry(problem.feasible_set)
    spec = preset_vanilla_md(g, problem, 0.1)
    assert spec.alpha == 0.0 and spec.beta == 1.0
    x = np.array([1.0, 0.0])
    assert np.allclose(resolve_target(spec, x), x)


# --- mirror-map route of implicit targets ------------------------------------

def _rps_oracle(problem, eta, x, digits=50):
    """PPA target on rps_game under entropy: the fixed point of
    y <- softmax(log x - eta * M y), iterated in mpmath at `digits` digits."""
    import mpmath

    m, _ = problem.linear_terms
    n = len(x)
    with mpmath.workdps(digits):
        eta = mpmath.mpf(eta)
        mm = [[mpmath.mpf(float(v)) for v in row] for row in m]
        log_x = [mpmath.log(mpmath.mpf(float(v))) for v in x]
        y = [mpmath.mpf(float(v)) for v in x]
        for _ in range(5000):
            z = [log_x[i] - eta * mpmath.fsum(mm[i][j] * y[j] for j in range(n))
                 for i in range(n)]
            peak = max(z)
            e = [mpmath.exp(v - peak) for v in z]
            total = mpmath.fsum(e)
            y_next = [v / total for v in e]
            if max(abs(a - b) for a, b in zip(y_next, y)) < mpmath.mpf(10) ** (5 - digits):
                return np.array([float(v) for v in y_next])
            y = y_next
    raise AssertionError("oracle iteration did not converge")


@pytest.mark.parametrize("eta", [0.2, 1.0])
@pytest.mark.parametrize("tol", [1e-10, 1e-12])
def test_mirror_route_target_within_tol_of_oracle(eta, tol):
    rps = library_problem("rps_game")
    spec = preset_ppa(entropy_geometry(3), rps, eta, inner_tol=tol)
    assert spec.target.grad_h_conj is not None
    rng = np.random.default_rng(SEED + 20)
    for x in rps.feasible_set.sample_interior(rng, 10, margin=0.02):
        y = resolve_target(spec, x)
        assert np.linalg.norm(y - _rps_oracle(rps, eta, x)) <= tol


def test_dmd_calibrated_case_one_mirror_route_within_tol_of_oracle():
    # case 1 resolves the PPA target, so the same oracle applies
    rps = library_problem("rps_game")
    spec = preset_dmd_calibrated(entropy_geometry(3), rps, 1.0, case=1)
    assert spec.target.grad_h_conj is not None
    rng = np.random.default_rng(SEED + 24)
    for x in rps.feasible_set.sample_interior(rng, 10, margin=0.02):
        y = resolve_target(spec, x)
        assert np.linalg.norm(y - _rps_oracle(rps, 1.0, x)) <= 1e-10


def test_mirror_route_f_calls_per_target():
    # eta = 1 from points 0.2 from uniform; the projected route spends
    # about 300 F calls on each of these targets, the plain fixed-point
    # iteration 37, the Anderson iteration 8
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
        assert calls[0] <= 12


def test_mirror_route_falls_back_to_projected_solve():
    # at eta = 3 the mirror map of rps_game does not contract near uniform
    rps = library_problem("rps_game")
    spec = preset_ppa(entropy_geometry(3), rps, 3.0)
    conj = spec.target.grad_h_conj
    tried = [0]

    def spy(z):
        tried[0] += 1
        return conj(z)

    mirror = dataclasses.replace(
        spec, target=dataclasses.replace(spec.target, grad_h_conj=spy))
    projected = dataclasses.replace(
        spec, target=dataclasses.replace(spec.target, grad_h_conj=None))
    rng = np.random.default_rng(SEED + 22)
    for x in rps.feasible_set.sample_interior(rng, 3, margin=0.05):
        tried[0] = 0
        y = resolve_target(mirror, x)
        assert 0 < tried[0] < 20
        assert np.array_equal(y, resolve_target(projected, x))


def test_mirror_route_weighted_quadratic_matches_linear_solve():
    # h = 0.5 * sum w x^2: the target solves (W + eta*M) y = W x - eta*q
    problem = library_problem("skew_bilinear")
    g = weighted_quadratic_geometry([1.0, 2.0])
    spec = preset_ppa(g, problem, 0.5, inner_tol=1e-12)
    assert spec.target.grad_h_conj is not None
    m, q = problem.linear_terms
    w = np.diag([1.0, 2.0])
    rng = np.random.default_rng(SEED + 23)
    for x in rng.normal(size=(10, 2)):
        y = resolve_target(spec, x)
        exact = np.linalg.solve(w + 0.5 * m.to_dense(), w @ x - 0.5 * q)
        assert np.linalg.norm(y - exact) <= 1e-12


def test_ppa_route_selection():
    # linear F under the Euclidean potential: a closed-form linear solve on
    # the whole space, the projected route with exact constants on a box
    for name in ("skew_bilinear", "linear_monotone", "scalar_shift",
                 "constrained_quadratic"):
        problem = library_problem(name)
        g = euclidean_geometry(problem.feasible_set)
        for spec in (preset_ppa(g, problem, 0.5),
                     preset_dmd_calibrated(g, problem, 0.5, case=1)):
            if name == "constrained_quadratic":
                assert spec.target.grad_h_conj is None
                assert spec.target.step > 0.0
            else:
                assert isinstance(spec.target, ClosedForm)
    rps = library_problem("rps_game")
    g3 = entropy_geometry(3)
    for spec in (preset_ppa(g3, rps, 1.0),
                 preset_dmd_calibrated(g3, rps, 1.0, case=1)):
        assert spec.target.grad_h_conj is g3.grad_h_conj
        assert spec.target.step is None


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
    field = dual_rate(spec, x, resolve_target(spec, x))
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
    tx = resolve_target(fbf, x)
    assert np.array_equal(fbf.S(x), eg.S(x))
    assert np.array_equal(fbf.Phi(x), eg.Phi(x))
    assert np.array_equal(tx, resolve_target(eg, x))
    assert np.array_equal(dual_rate(fbf, x, tx), dual_rate(eg, x, tx))
