"""Design tuples for target-corrected dual updates and their presets.

A design tuple fixes scalars alpha >= 0 and beta >= 0, a strongly monotone
dual map S, a surrogate operator Phi, and the target map

    T = (S + Phi + normal cone of X)^(-1) o S.

Steppers consume the dual gap S(T(x)) - S(x); with alpha = 0 and Phi tied
to F everything degenerates to plain mirror descent.  Embedding the normal
cone in T makes Im(T) a subset of X, so target points are always feasible.

The presets below reproduce, through this single mechanism, the proximal
point iteration, extragradient / mirror-prox (including the two-step-size
variant), Douglas-Rachford and forward-backward splitting, excess-payoff
game dynamics on the simplex, forward-backward-forward dynamics, and the
calibrated discounted update.  Each preset is checked against an
independently coded version of the named method in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional, Union

import numpy as np

from .errors import ConfigurationError, DomainError, TargetResolutionError
from .geometry import INTERIOR_FLOOR, MirrorGeometry, entropy_geometry
from .problems import (SIMPLEX, WHOLE_SPACE, FeasibleSet, Tridiagonal, VIProblem,
                       box, estimate_lipschitz, sampled_monotonicity)

Vector = np.ndarray


@dataclass(frozen=True)
class ClosedForm:
    """Evaluate the target by direct formula."""

    fn: Callable[[Vector], Vector]


@dataclass(frozen=True)
class ClosedFormGap:
    """Evaluate the target and the dual gap S(T(x)) - S(x) together by
    direct formula: fn(x) returns both, and resolving the target hands the
    gap on to the dual rate.  For gaps that stay evaluable where the
    literal difference would not (targets exponentially close to a
    boundary)."""

    fn: Callable[[Vector], tuple]


@dataclass(frozen=True)
class MirrorOfS:
    """Evaluate the target as T(x) = mirror(S(x)).

    This is the closed form of designs with S + Phi = grad_h, whose mirror
    map grad_h_conj (a projection for FBF) absorbs the normal cone.  The
    target then needs S(x) and nothing else, so resolving it yields the
    anchor S(x) that the dual rate subtracts.
    """

    mirror: Callable[[Vector], Vector]


@dataclass(frozen=True)
class ResolventSolve:
    """Evaluate the target by solving its strongly monotone subproblem.

    grad_h_conj, when set, is the mirror map of a design with S = grad_h
    and monotone Phi: the solver then runs the mirror-map fixed point first
    and stops once the target error is certified below tol.  Otherwise, or
    when that iteration does not contract, it runs projected forward
    iterations, which stop on step length.  modulus / lipschitz, when
    known, fix their step at modulus / L^2; otherwise it starts at 1e-2
    and halves on divergence.
    """

    tol: float = 1e-10
    max_iter: int = 10_000
    step: Optional[float] = None
    modulus: Optional[float] = None
    lipschitz: Optional[float] = None
    grad_h_conj: Optional[Callable[[Vector], Vector]] = None


TargetStrategy = Union[ClosedForm, ClosedFormGap, MirrorOfS, ResolventSolve]


@dataclass(eq=False)
class TargetSpec:
    """The (alpha, beta, S, Phi, T) design tuple plus evaluation strategy.

    sigma is the strong-monotonicity modulus of S (analytic bound where
    available).  phi_implicit marks resolvent-style designs (S = identity,
    T the resolvent of Phi): Phi cannot be evaluated pointwise there, but
    Phi(T(x)) = x - T(x) holds exactly and is substituted wherever needed.
    shadow, when set, maps a governing iterate to the point at which
    solution residuals are meaningful (Douglas-Rachford).  It takes one
    point or a stack of points (rows of an array), returning an array of
    the input's shape whose row i is the shadow of row i.
    """

    alpha: float
    beta: float
    S: Callable[[Vector], Vector]
    sigma: float
    Phi: Optional[Callable[[Vector], Vector]]
    target: TargetStrategy
    feasible_set: FeasibleSet
    name: str = "custom"
    phi_implicit: bool = False
    shadow: Optional[Callable[[Vector], Vector]] = None

    def __post_init__(self):
        if self.alpha < 0.0 or self.beta < 0.0:
            raise ConfigurationError("alpha and beta must be nonnegative")
        if self.alpha == 0.0 and self.beta == 0.0:
            raise ConfigurationError("at least one of alpha, beta must be positive")
        if self.phi_implicit and self.beta != 0.0:
            raise ConfigurationError(
                "implicit Phi cannot be evaluated at the current state; beta must be 0")
        if self.beta > 0.0 and self.Phi is None:
            raise ConfigurationError("beta > 0 requires an explicit Phi")

    def phi_at_target(self, x: Vector, tx: Vector) -> Vector:
        """Phi evaluated at the target point; uses the resolvent identity
        Phi(T(x)) = x - T(x) for implicit designs."""
        if self.phi_implicit:
            return np.asarray(x, dtype=float) - np.asarray(tx, dtype=float)
        return self.Phi(tx)


@dataclass(eq=False)
class SplitPair:
    """A monotone decomposition F = A + B exposed through resolvents.

    resolvent_A / resolvent_B take (eta, v) and return the resolvent of
    eta*A (resp. eta*B) at v; B_forward evaluates B directly.  The
    optional constants describe A + B and B for forward-backward step
    bounds.
    """

    resolvent_A: Callable[[float, Vector], Vector]
    resolvent_B: Callable[[float, Vector], Vector]
    B_forward: Callable[[Vector], Vector]
    strong_modulus: Optional[float] = None
    lipschitz_B: Optional[float] = None


def resolve_target(spec: TargetSpec, x: Vector, *, with_anchor: bool = False):
    """Evaluate the target point T(x).

    Closed-form strategies apply their stored formula; MirrorOfS maps S(x)
    through its mirror.  Solver strategies with a mirror map run
    y <- grad_h_conj(S(x) - Phi(y)) from y0 = x (see _mirror_fixed_point),
    falling back to the projected iteration when it does not contract.
    The projected iteration runs y <- P(y - tau * (S(y) + Phi(y) - S(x))),
    with P the projection onto spec.feasible_set, from y0 = x until the
    step shrinks below tol; strong monotonicity of S + Phi makes this a
    contraction for small enough tau, and divergence (including domain
    violations of S or Phi) triggers geometric backoff of tau, at most 6
    halvings.

    with_anchor=True returns (T(x), a) instead, with a what the dual rate
    reuses rather than evaluate again: the anchor S(x) the resolution
    evaluated (None for ClosedForm), or ClosedFormGap's gap S(T(x)) - S(x).
    """
    x = np.asarray(x, dtype=float)
    strategy = spec.target
    anchor = None
    if isinstance(strategy, ClosedForm):
        tx = np.asarray(strategy.fn(x), dtype=float)
    elif isinstance(strategy, ClosedFormGap):
        tx, anchor = strategy.fn(x)
    elif isinstance(strategy, MirrorOfS):
        anchor = spec.S(x)
        tx = np.asarray(strategy.mirror(anchor), dtype=float)
    else:
        if spec.Phi is None:
            raise ConfigurationError("solver strategy needs an explicit Phi")
        anchor = spec.S(x)
        tx = None
        if strategy.grad_h_conj is not None:
            tx = _mirror_fixed_point(spec, strategy, x, anchor)
        if tx is None:
            tx = _projected_iteration(spec, strategy, x, anchor)
    return (tx, anchor) if with_anchor else tx


def _norm(v: Vector) -> float:
    """The Euclidean norm of a real 1-D array: what np.linalg.norm computes
    for one, without its dispatch."""
    return math.sqrt(float(np.dot(v, v)))


def _projected_iteration(spec: TargetSpec, strategy: ResolventSolve, x: Vector,
                         anchor: Vector) -> Vector:
    tau = strategy.step
    if tau is None:
        if strategy.modulus and strategy.lipschitz:
            tau = strategy.modulus / strategy.lipschitz ** 2
        else:
            tau = 1e-2
    scale = 1.0 + _norm(x)
    last = np.inf
    for _ in range(7):
        y = x.copy()
        diverged = False
        for _ in range(strategy.max_iter):
            try:
                g = spec.S(y) + spec.Phi(y) - anchor
            except DomainError:
                diverged = True
                break
            y_next = spec.feasible_set.project(y - tau * g)
            diff = _norm(y_next - y)
            if not np.isfinite(diff) or diff > 1e6 * scale:
                diverged = True
                break
            y = y_next
            if diff <= strategy.tol:
                return y
            last = diff
        if diverged:
            tau *= 0.5
            continue
        raise TargetResolutionError(
            f"target subproblem stalled: step {last:.3e} > tol {strategy.tol:g} "
            f"after {strategy.max_iter} iterations (inner step {tau:g}); the "
            "design pair may not be strongly monotone", last_residual=last)
    raise TargetResolutionError(
        "target subproblem diverged despite 6 step halvings", last_residual=last)


def _mirror_fixed_point(spec: TargetSpec, strategy: ResolventSolve, x: Vector,
                        anchor: Vector) -> Optional[Vector]:
    """Run y_{k+1} = grad_h_conj(S(x) - Phi(y_k)) from y_0 = x.

    y_{k+1} solves the target subproblem exactly up to the residual
    r = Phi(y_{k+1}) - Phi(y_k), because the mirror map absorbs the normal
    cone; S + Phi is sigma-strongly monotone, so ||y_{k+1} - T(x)|| <=
    ||r|| / sigma and stopping at ||r|| <= sigma * tol bounds the target
    error by tol.  Each step costs one Phi call, which the stop reuses.
    Returns None when a step fails to shrink ||y_{k+1} - y_k|| (the map
    does not contract here), on a domain violation, or after max_iter.
    """
    bound = spec.sigma * strategy.tol
    y = x
    last = np.inf
    try:
        phi = spec.Phi(y)
        for _ in range(strategy.max_iter):
            y_next = strategy.grad_h_conj(anchor - phi)
            phi_next = spec.Phi(y_next)
            if _norm(phi_next - phi) <= bound:
                return y_next
            step = _norm(y_next - y)
            if not step < last:
                return None
            y, phi, last = y_next, phi_next, step
    except DomainError:
        return None
    return None


def _require_strongly_monotone(op, feasible_set, label, seed=0):
    """Refute, on 64 sampled interior pairs, that op is strongly monotone."""
    rng = np.random.default_rng(seed)
    pairs = (feasible_set.sample_interior(rng, 2) for _ in range(64))
    ratio = sampled_monotonicity(op, pairs)[0]
    if ratio <= 1e-12:
        raise ConfigurationError(
            f"{label} is not strongly monotone on sampled pairs "
            f"(min ratio {ratio:.3e}); reduce the step")
    return ratio


def _step_size(value, name: str) -> float:
    """value as a float, or ConfigurationError unless it is a finite
    positive number."""
    try:
        step = float(value)
    except (TypeError, ValueError):
        step = np.nan
    if not (np.isfinite(step) and step > 0.0):
        raise ConfigurationError(
            f"{name} must be a finite positive number, got {value!r}")
    return step


# ---------------------------------------------------------------------------
# Presets
# ---------------------------------------------------------------------------

def preset_ppa(geometry: MirrorGeometry, problem: VIProblem, eta: float,
               inner_tol: float = 1e-10, inner_max_iter: int = 10_000) -> TargetSpec:
    """Proximal-point design: alpha = 1, beta = 0, S = grad_h, Phi = eta*F.

    The target solves the proximal subproblem implicitly.  For linear F
    under the Euclidean potential the inner contraction constants are
    computed exactly and the projected solver uses them; otherwise the
    solver runs the certified mirror-map fixed point of grad_h.
    inner_tol must be finite and positive, inner_max_iter an integer >= 1.
    """
    eta = _step_size(eta, "eta")
    inner_tol = _step_size(inner_tol, "inner_tol")
    if (isinstance(inner_max_iter, bool)
            or not isinstance(inner_max_iter, (int, np.integer)) or inner_max_iter < 1):
        raise ConfigurationError(
            f"inner_max_iter must be an integer >= 1, got {inner_max_iter!r}")

    def combined(x):
        return geometry.grad_h(x) + eta * problem.F(x)

    _require_strongly_monotone(combined, problem.feasible_set,
                               "grad_h + eta*F")

    modulus = lipschitz = None
    if problem.linear_terms is not None and geometry.name == "euclidean":
        m, _ = problem.linear_terms
        if isinstance(m, Tridiagonal):
            a = m.shifted(eta)
            modulus, lipschitz = a.diag, a.norm()
        else:
            a = np.eye(m.shape[0]) + eta * m
            modulus = float(np.linalg.eigvalsh(0.5 * (a + a.T)).min())
            lipschitz = float(np.linalg.norm(a, 2))
        if modulus <= 0.0:
            modulus = lipschitz = None

    return TargetSpec(
        alpha=1.0,
        beta=0.0,
        S=geometry.grad_h,
        sigma=geometry.strong_convexity_modulus,
        Phi=lambda x: eta * problem.F(x),
        target=ResolventSolve(tol=inner_tol, max_iter=inner_max_iter,
                              modulus=modulus, lipschitz=lipschitz,
                              grad_h_conj=(geometry.grad_h_conj
                                           if modulus is None else None)),
        feasible_set=problem.feasible_set,
        name="ppa",
    )


def preset_eg(geometry: MirrorGeometry, problem: VIProblem, eta1: float,
              eta2: Optional[float] = None) -> TargetSpec:
    """Extragradient / mirror-prox design: S = grad_h - eta1*F, Phi = eta1*F,
    alpha = eta2/eta1, with the closed-form target
    T(x) = grad_h_conj(grad_h(x) - eta1 * F(x)) = grad_h_conj(S(x)).

    eta2 = eta1 gives the classical method; distinct step sizes give the
    two-step-size variant.  sigma is the conservative analytic bound
    modulus(h) - eta1 * L, backed by a sampled refutation check.
    """
    eta1 = _step_size(eta1, "eta1")
    eta2 = eta1 if eta2 is None else _step_size(eta2, "eta2")

    lip = estimate_lipschitz(problem)
    sigma = geometry.strong_convexity_modulus - eta1 * lip
    if sigma <= 0.0:
        raise ConfigurationError(
            f"eta1 = {eta1:g} too large: modulus {geometry.strong_convexity_modulus:g} "
            f"- eta1 * L ({lip:g}) is not positive")

    def S(x):
        return geometry.grad_h(x) - eta1 * problem.F(x)

    _require_strongly_monotone(S, problem.feasible_set, "grad_h - eta1*F")

    return TargetSpec(
        alpha=eta2 / eta1,
        beta=0.0,
        S=S,
        sigma=float(sigma),
        Phi=lambda x: eta1 * problem.F(x),
        target=MirrorOfS(geometry.grad_h_conj),
        feasible_set=problem.feasible_set,
        name="eg" if eta2 == eta1 else "eg_plus",
    )


def preset_dr(pair: SplitPair, feasible_set: FeasibleSet, eta: float) -> TargetSpec:
    """Douglas-Rachford design on the whole space: S = identity and the
    target IS the DR operator, so T serves as the resolvent of Phi and Phi
    is never evaluated directly.

    Solution residuals are meaningful at the shadow point (the B-resolvent
    of the governing iterate), which is exposed via `shadow`.
    """
    eta = _step_size(eta, "eta")
    if feasible_set.kind != WHOLE_SPACE:
        raise ConfigurationError(
            "DR absorbs constraints into the split operators; use a whole-space set")

    def jb(x):
        return pair.resolvent_B(eta, x)

    def t_dr(x):
        rb = jb(x)
        return pair.resolvent_A(eta, 2.0 * rb - x) + x - rb

    return TargetSpec(
        alpha=1.0,
        beta=0.0,
        S=lambda x: np.asarray(x, dtype=float).copy(),
        sigma=1.0,
        Phi=None,
        target=ClosedForm(t_dr),
        feasible_set=feasible_set,
        name="dr",
        phi_implicit=True,
        shadow=jb,
    )


def preset_fb(pair: SplitPair, feasible_set: FeasibleSet, eta: float,
              strong_modulus: Optional[float] = None,
              lipschitz: Optional[float] = None) -> TargetSpec:
    """Forward-backward design: S = identity, target
    T(x) = J_{eta A}(x - eta B(x)), Phi implicit as with DR.

    Requires eta < 4 * modulus(A + B) / lipschitz(B)^2; the constants come
    from the split pair unless overridden.
    """
    eta = _step_size(eta, "eta")
    if feasible_set.kind != WHOLE_SPACE:
        raise ConfigurationError(
            "FB absorbs constraints into the split operators; use a whole-space set")
    strong_modulus = pair.strong_modulus if strong_modulus is None else strong_modulus
    lipschitz = pair.lipschitz_B if lipschitz is None else lipschitz
    if strong_modulus is None or lipschitz is None:
        raise ConfigurationError(
            "FB needs the strong modulus of A+B and the Lipschitz constant of B")
    bound = 4.0 * strong_modulus / lipschitz ** 2
    if eta >= bound:
        raise ConfigurationError(
            f"eta = {eta:g} violates the step bound eta < 4*sigma/L^2 = {bound:g}")

    def t_fb(x):
        x = np.asarray(x, dtype=float)
        return pair.resolvent_A(eta, x - eta * pair.B_forward(x))

    return TargetSpec(
        alpha=1.0,
        beta=0.0,
        S=lambda x: np.asarray(x, dtype=float).copy(),
        sigma=1.0,
        Phi=None,
        target=ClosedForm(t_fb),
        feasible_set=feasible_set,
        name="fb",
        phi_implicit=True,
    )


def affine_box_split(shift: float = 2.0, lower: float = 0.0,
                     upper: float = 1.0):
    """Scalar split pair: A = normal cone of [lower, upper], B(x) = x - shift.

    Returns (pair, problem) where the problem is the equivalent inequality
    on the box with F(x) = x - shift and solution clamp(shift).  Both
    resolvents are closed form: J_{eta A} clamps, J_{eta B} solves the
    linear equation y + eta*(y - shift) = v.
    """
    shift = float(shift)
    lo, up = float(lower), float(upper)
    if lo >= up:
        raise ConfigurationError("need lower < upper")

    def resolvent_a(eta, v):
        return np.clip(np.asarray(v, dtype=float), lo, up)

    def resolvent_b(eta, v):
        return (np.asarray(v, dtype=float) + eta * shift) / (1.0 + eta)

    def b_forward(x):
        return np.asarray(x, dtype=float) - shift

    pair = SplitPair(resolvent_A=resolvent_a, resolvent_B=resolvent_b,
                     B_forward=b_forward, strong_modulus=1.0, lipschitz_B=1.0)
    problem = VIProblem(
        feasible_set=box(np.array([lo]), np.array([up])),
        F=lambda x: np.asarray(x, dtype=float) - shift,
        name="box_affine_split",
        lipschitz_hint=1.0,
        strong_modulus=1.0,
        known_solution=np.array([min(max(shift, lo), up)]),
        linear_terms=(np.eye(1), np.array([-shift])),
    )
    return pair, problem


# ---------------------------------------------------------------------------
# Simplex game machinery
# ---------------------------------------------------------------------------

def excess_payoff(problem: VIProblem, x: Vector):
    """Excess payoff of -F at an interior simplex point.

    Returns (excess, normalized): the entrywise positive part of
    -(F(x) - <x, F(x)> * ones), and the same divided entrywise by x.
    Shift-invariant in F because the population average is subtracted.
    """
    x = np.asarray(x, dtype=float)
    if np.min(x) < INTERIOR_FLOOR:
        raise DomainError(
            "excess payoff needs an interior simplex point (entrywise division by x)")
    f = np.asarray(problem.F(x), dtype=float)
    centered = f - float(np.dot(x, f))
    excess = np.maximum(-centered, 0.0)
    return excess, excess / x


def aitchison_add(a: Vector, b: Vector) -> Vector:
    """Entrywise product renormalized to the simplex; the vector addition
    of the simplex's log-ratio geometry."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise DomainError("operands must share a shape")
    if np.any(a <= 0.0) or np.any(b <= 0.0):
        raise DomainError("operands must be strictly positive")
    p = a * b
    return p / p.sum()


def bnn_dual_shift_target(problem: VIProblem, eta: float) -> Callable[[Vector], Vector]:
    """The excess-payoff target computed the long way around: through the
    entropy dual space (shift by eta * normalized excess payoff, map back
    by softmax).  Agrees with the multiplicative closed form to float
    precision; kept as an independent route for cross-checking."""
    geometry = entropy_geometry(problem.feasible_set.dim)

    def target(x):
        _, nep = excess_payoff(problem, x)
        return geometry.grad_h_conj(geometry.grad_h(x) + eta * nep)

    return target


def preset_bnn(problem: VIProblem, eta: float = 1.0) -> TargetSpec:
    """Excess-payoff design on the simplex: alpha = 1/eta, beta = 0,
    S = entropy grad_h, and the multiplicative closed-form target
    T(x) = x (+) exp(eta * normalized excess payoff), where (+) is
    Aitchison addition.  Runs must use the entropy geometry."""
    eta = _step_size(eta, "eta")
    if problem.feasible_set.kind != SIMPLEX:
        raise ConfigurationError("this design lives on the simplex")
    geometry = entropy_geometry(problem.feasible_set.dim)

    def target(x):
        # excess_payoff and aitchison_add inlined: x >= INTERIOR_FLOOR is
        # checked here, and exp(shift) >= 1 since the excess payoff is >= 0
        x = np.asarray(x, dtype=float)
        if x.min() < INTERIOR_FLOOR:
            raise DomainError(
                "excess payoff needs an interior simplex point (entrywise division by x)")
        f = np.asarray(problem.F(x), dtype=float)
        shift = eta * (np.maximum(-(f - float(np.dot(x, f))), 0.0) / x)
        # the gap is the log of the Aitchison translation: the dual shift
        # minus its log-normalizer times the all-ones vector, computed in
        # log space so targets hugging the boundary stay evaluable
        shifted = np.log(x) + shift
        peak = shifted.max()
        log_z = peak + np.log(np.exp(shifted - peak).sum())
        p = x * np.exp(shift)
        return p / p.sum(), shift - log_z

    return TargetSpec(
        alpha=1.0 / eta,
        beta=0.0,
        S=geometry.grad_h,
        sigma=geometry.strong_convexity_modulus,
        Phi=lambda x: eta * problem.F(x),
        target=ClosedFormGap(target),
        feasible_set=problem.feasible_set,
        name="bnn",
    )


def preset_fbf(problem: VIProblem, eta: float) -> TargetSpec:
    """Forward-backward-forward design: S = I - eta*F, Phi = eta*F,
    closed-form target T(x) = P(x - eta * F(x)) = P(S(x)).

    The primal rate S(T(x)) - S(x) expands to
    T(x) - x + eta * (F(x) - F(T(x))).  Pair with the whole-space
    Euclidean geometry: the trajectory itself need not stay in X, only
    the target points do.
    """
    eta = _step_size(eta, "eta")
    lip = estimate_lipschitz(problem)
    sigma = 1.0 - eta * lip
    if sigma <= 0.0:
        raise ConfigurationError(
            f"eta = {eta:g} too large: 1 - eta * L ({lip:g}) is not positive")

    def S(x):
        x = np.asarray(x, dtype=float)
        return x - eta * problem.F(x)

    _require_strongly_monotone(S, problem.feasible_set, "I - eta*F")

    return TargetSpec(
        alpha=1.0,
        beta=0.0,
        S=S,
        sigma=float(sigma),
        Phi=lambda x: eta * problem.F(x),
        target=MirrorOfS(problem.feasible_set.project),
        feasible_set=problem.feasible_set,
        name="fbf",
    )


def preset_vanilla_md(geometry: MirrorGeometry, problem: VIProblem,
                      eta: float) -> TargetSpec:
    """Plain mirror descent baseline: alpha = 0, beta = 1, Phi = eta*F.

    No target correction; ships so that cycling/divergence on merely
    monotone problems is a testable artifact rather than folklore.
    """
    eta = _step_size(eta, "eta")
    return TargetSpec(
        alpha=0.0,
        beta=1.0,
        S=geometry.grad_h,
        sigma=geometry.strong_convexity_modulus,
        Phi=lambda x: eta * problem.F(x),
        target=ClosedForm(lambda x: np.asarray(x, dtype=float).copy()),
        feasible_set=problem.feasible_set,
        name="vanilla_md",
    )


def preset_dmd_calibrated(geometry: MirrorGeometry, problem: VIProblem,
                          eta: float, case: int = 1,
                          inner_tol: float = 1e-10,
                          inner_max_iter: int = 10_000) -> TargetSpec:
    """Design tuples whose discounted update equilibrates on true solutions.

    Case 1 uses S = grad_h with the proximal-style implicit target; case 2
    uses S = grad_h - eta*F with the extragradient closed-form target.  In
    both, alpha*S + beta*Phi collapses to grad_h, so the discounted stepper
    can drive the dual state toward S(T(x)) and its equilibria satisfy
    T(x) = x.  The discount rate gamma is supplied at stepping time.
    """
    if isinstance(case, bool) or case not in (1, 2):
        raise ConfigurationError(f"case must be 1 or 2, got {case!r}")
    if case == 1:
        return replace(preset_ppa(geometry, problem, eta, inner_tol=inner_tol,
                                  inner_max_iter=inner_max_iter),
                       name="dmd_calibrated")
    return replace(preset_eg(geometry, problem, eta), alpha=1.0, beta=1.0,
                   name="dmd_calibrated")
