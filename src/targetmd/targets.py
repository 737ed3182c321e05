"""Design tuples for target-corrected dual updates and their presets.

A design tuple fixes scalars alpha >= 0 and beta >= 0, a strongly monotone
dual map S, a surrogate operator Phi, and the target map

    T = (S + Phi + normal cone of X)^(-1) o S.

Steppers consume the dual gap S(T(x)) - S(x); with alpha = 0 and Phi tied
to F everything degenerates to plain mirror descent.  Embedding the normal
cone in T makes Im(T) a subset of X, so target points are always feasible.

The presets below reproduce, through this single mechanism, the proximal
point iteration, extragradient / mirror-prox (including the two-step-size
variant; forward-backward-forward is its tuple under the Euclidean
potential on X), Douglas-Rachford and forward-backward splitting (one
tuple, with Phi = None), excess-payoff game dynamics on the simplex, and
the calibrated discounted update.  Each preset is checked against an
independently coded version of the named method in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Optional, Union

import numpy as np

from .errors import ConfigurationError, DomainError, TargetResolutionError
from .geometry import (INTERIOR_FLOOR, MirrorGeometry, entropy_geometry,
                       euclidean_geometry)
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
    and monotone Phi: the solver then runs the Anderson-accelerated
    mirror-map fixed point first and stops once the target error is
    certified below tol.  Otherwise, or when that iteration does not
    contract, it runs projected forward iterations, which stop on step
    length.  Their step starts at `step` when set (preset_ppa sets
    modulus / L^2 from exact constants on a constrained X), otherwise at
    1e-2, and halves on divergence.
    """

    tol: float = 1e-10
    max_iter: int = 10_000
    step: Optional[float] = None
    grad_h_conj: Optional[Callable[[Vector], Vector]] = None


TargetStrategy = Union[ClosedForm, ClosedFormGap, MirrorOfS, ResolventSolve]


@dataclass(eq=False)
class TargetSpec:
    """The (alpha, beta, S, Phi, T) design tuple plus evaluation strategy.

    sigma is the strong-monotonicity modulus of S (analytic bound where
    available).  Phi = None marks the splitting designs (S = identity, T
    the resolvent of Phi): Phi cannot be evaluated pointwise there, so beta
    must be 0, but Phi(T(x)) = x - T(x) holds exactly and is substituted
    wherever needed.
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
    shadow: Optional[Callable[[Vector], Vector]] = None

    def __post_init__(self):
        if self.alpha < 0.0 or self.beta < 0.0:
            raise ConfigurationError("alpha and beta must be nonnegative")
        if self.alpha == 0.0 and self.beta == 0.0:
            raise ConfigurationError("at least one of alpha, beta must be positive")
        if self.beta > 0.0 and self.Phi is None:
            raise ConfigurationError("beta > 0 requires an explicit Phi")

    def phi_at_target(self, x: Vector, tx: Vector) -> Vector:
        """Phi evaluated at the target point; uses the resolvent identity
        Phi(T(x)) = x - T(x) for splitting designs (Phi = None)."""
        if self.Phi is None:
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
    through its mirror.  Solver strategies with a mirror map solve
    w = S(x) - Phi(grad_h_conj(w)) by depth-2 Anderson acceleration and
    return grad_h_conj(w) once the dual residual certifies the target
    error below tol (see _mirror_fixed_point), falling back to the
    projected iteration when that residual fails to shrink or Phi leaves
    its domain.  The projected iteration runs
    y <- P(y - tau * (S(y) + Phi(y) - S(x))),
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
    tau = 1e-2 if strategy.step is None else strategy.step
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
    """Solve w = S(x) - Phi(grad_h_conj(w)) for the dual point w by
    depth-2 Anderson acceleration, from w_0 = S(x) - Phi(x).

    Each iterate w has y = grad_h_conj(w) and the residual
    f = S(x) - Phi(y) - w.  The mirror map absorbs the normal cone
    (w - grad_h(y) lies in N_X(y)), so -f lies in (S + Phi + N_X)(y) - S(x);
    S + Phi is sigma-strongly monotone, so ||y - T(x)|| <= ||f|| / sigma
    for every w, extrapolated or not, and stopping at ||f|| <= sigma * tol
    bounds the target error by tol.  The next iterate is w + f (the plain
    fixed-point step) minus the combination of the last two steps' changes
    in w + f whose changes in f best cancel f, a 2x2 least-squares problem
    solved from its Gram entries (Walker and Ni, SIAM J. Numer. Anal.
    49(4), 2011).  Each iteration costs one Phi call.  Returns None when
    ||f|| fails to shrink (the iteration does not contract here), on a
    domain violation, or after max_iter.
    """
    bound = spec.sigma * strategy.tol
    last = np.inf
    history = []                    # (change in w + f, change in f), newest last
    w_prev = f_prev = None
    try:
        w = anchor - spec.Phi(x)
        for _ in range(strategy.max_iter):
            y = strategy.grad_h_conj(w)
            f = anchor - spec.Phi(y) - w
            size = _norm(f)
            if size <= bound:
                return y
            if not size < last:
                return None
            if w_prev is not None:
                df = f - f_prev
                history = history[-1:] + [(w - w_prev + df, df)]
            w_prev, f_prev, last = w, f, size
            w = w + f - _anderson_correction(history, f)
    except DomainError:
        return None
    return None


def _anderson_correction(history, f: Vector):
    """sum_i gamma_i * g_i over history = [(g_i, d_i)], with gamma the
    least-squares minimizer of ||f - sum_i gamma_i * d_i||.  When the two
    d_i are nearly parallel only the newest is kept; with no usable d_i
    the correction is 0.0, which leaves the plain step."""
    if not history:
        return 0.0
    g2, d2 = history[-1]
    a22, b2 = float(np.dot(d2, d2)), float(np.dot(d2, f))
    if len(history) == 2:
        g1, d1 = history[0]
        a11, a12, b1 = float(np.dot(d1, d1)), float(np.dot(d1, d2)), float(np.dot(d1, f))
        det = a11 * a22 - a12 * a12
        if det > 1e-12 * a11 * a22:
            return ((a22 * b1 - a12 * b2) / det) * g1 + ((a11 * b2 - a12 * b1) / det) * g2
    if a22 > 0.0:
        return (b2 / a22) * g2
    return 0.0


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

    The target solves the proximal subproblem.  For linear F = M x + q
    under the Euclidean potential on the whole space it is the closed form
    T(x) = (I + eta*M)^-1 (x - eta*q): a spectral solve of the shifted
    Tridiagonal, or a product with the dense inverse, formed once; inner_tol
    and inner_max_iter go unused there.  On a constrained X the projected
    solver steps at modulus / L^2 from the exact constants of I + eta*M.
    Otherwise the solver runs the certified, Anderson-accelerated
    mirror-map fixed point of grad_h (about 6 F calls per target on
    rps_game under entropy at eta = 1), with the projected solver as its
    fallback.  inner_tol must be finite and positive, inner_max_iter an
    integer >= 1.
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

    target = ResolventSolve(tol=inner_tol, max_iter=inner_max_iter,
                            grad_h_conj=geometry.grad_h_conj)
    if problem.linear_terms is not None and geometry.name == "euclidean":
        m, q = problem.linear_terms
        banded = isinstance(m, Tridiagonal)
        a = m.shifted(eta) if banded else np.eye(m.shape[0]) + eta * m
        if problem.feasible_set.kind == WHOLE_SPACE:
            solve = a.solve if banded else partial(np.matvec, np.linalg.inv(a))
            target = ClosedForm(lambda x: solve(np.asarray(x, dtype=float) - eta * q))
        else:
            if banded:
                modulus, lipschitz = a.diag, a.norm()
            else:
                modulus = float(np.linalg.eigvalsh(0.5 * (a + a.T)).min())
                lipschitz = float(np.linalg.norm(a, 2))
            if modulus > 0.0:
                target = replace(target, step=modulus / lipschitz ** 2, grad_h_conj=None)

    return TargetSpec(
        alpha=1.0,
        beta=0.0,
        S=geometry.grad_h,
        sigma=geometry.strong_convexity_modulus,
        Phi=lambda x: eta * problem.F(x),
        target=target,
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
            f"step {eta1:g} too large: modulus {geometry.strong_convexity_modulus:g} "
            f"- step * L ({lip:g}) is not positive")

    def S(x):
        return geometry.grad_h(x) - eta1 * problem.F(x)

    _require_strongly_monotone(S, problem.feasible_set, "grad_h - step*F")

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


def _splitting(name: str, feasible_set: FeasibleSet, target: Callable[[Vector], Vector],
               shadow: Optional[Callable[[Vector], Vector]] = None) -> TargetSpec:
    """The splitting designs' tuple on the whole space: alpha = 1, beta = 0,
    S = identity (sigma = 1) and the closed-form target T, which serves as
    the resolvent of Phi, so Phi = None: it is never evaluated directly."""
    if feasible_set.kind != WHOLE_SPACE:
        raise ConfigurationError(f"{name.upper()} absorbs constraints into the split "
                                 "operators; use a whole-space set")
    return TargetSpec(alpha=1.0, beta=0.0, S=lambda x: np.asarray(x, dtype=float),
                      sigma=1.0, Phi=None, target=ClosedForm(target),
                      feasible_set=feasible_set, name=name, shadow=shadow)


def preset_dr(pair: SplitPair, feasible_set: FeasibleSet, eta: float) -> TargetSpec:
    """Douglas-Rachford design: the splitting tuple whose target IS the DR
    operator.

    Solution residuals are meaningful at the shadow point (the B-resolvent
    of the governing iterate), which is exposed via `shadow`.
    """
    eta = _step_size(eta, "eta")

    def jb(x):
        return pair.resolvent_B(eta, x)

    def t_dr(x):
        rb = jb(x)
        return pair.resolvent_A(eta, 2.0 * rb - x) + x - rb

    return _splitting("dr", feasible_set, t_dr, shadow=jb)


def preset_fb(pair: SplitPair, feasible_set: FeasibleSet, eta: float) -> TargetSpec:
    """Forward-backward design: the splitting tuple with target
    T(x) = J_{eta A}(x - eta B(x)).

    Requires eta < 4 * modulus(A + B) / lipschitz(B)^2, with the constants
    of the split pair.
    """
    eta = _step_size(eta, "eta")
    if pair.strong_modulus is None or pair.lipschitz_B is None:
        raise ConfigurationError(
            "FB needs the strong modulus of A+B and the Lipschitz constant of B")
    bound = 4.0 * pair.strong_modulus / pair.lipschitz_B ** 2
    if eta >= bound:
        raise ConfigurationError(
            f"eta = {eta:g} violates the step bound eta < 4*sigma/L^2 = {bound:g}")

    def t_fb(x):
        x = np.asarray(x, dtype=float)
        return pair.resolvent_A(eta, x - eta * pair.B_forward(x))

    return _splitting("fb", feasible_set, t_fb)


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
    Aitchison addition.  Runs must use the entropy geometry.

    The target is computed in log space, from one set of exponentials:
    with shift = eta * normalized excess payoff, peak the largest entry of
    log x + shift and e = exp(log x + shift - peak), T(x) = e / sum(e) and
    the dual gap S(T(x)) - S(x) is shift - (peak + log sum(e)).  Every
    exponent is at most 0, so T(x) stays finite however large eta * shift
    grows, and at points hugging the boundary."""
    eta = _step_size(eta, "eta")
    if problem.feasible_set.kind != SIMPLEX:
        raise ConfigurationError("this design lives on the simplex")
    geometry = entropy_geometry(problem.feasible_set.dim)

    def target(x):
        # excess_payoff inlined: x >= INTERIOR_FLOOR is checked here.  The
        # reductions are the ufuncs' own, without ndarray's method layer.
        x = np.asarray(x, dtype=float)
        if np.minimum.reduce(x) < INTERIOR_FLOOR:
            raise DomainError(
                "excess payoff needs an interior simplex point (entrywise division by x)")
        f = np.asarray(problem.F(x), dtype=float)
        shift = np.maximum(float(np.dot(x, f)) - f, 0.0) / x
        if eta != 1.0:
            shift = eta * shift
        shifted = np.log(x) + shift
        peak = np.maximum.reduce(shifted)
        e = np.exp(shifted - peak)
        total = np.add.reduce(e)
        return e / total, shift - (peak + np.log(total))

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
    """Forward-backward-forward design (Tseng, SIAM J. Control Optim. 38(2),
    2000): extragradient's tuple under the Euclidean potential on X,
    S = I - eta*F, Phi = eta*F and T(x) = P(S(x)).

    The primal rate S(T(x)) - S(x) expands to
    T(x) - x + eta * (F(x) - F(T(x))).  Pair with the whole-space
    Euclidean geometry: the trajectory itself need not stay in X, only
    the target points do.
    """
    eta = _step_size(eta, "eta")
    return replace(preset_eg(euclidean_geometry(problem.feasible_set), problem, eta),
                   name="fbf")


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
        target=ClosedForm(lambda x: np.asarray(x, dtype=float)),
        feasible_set=problem.feasible_set,
        name="vanilla_md",
    )


def preset_dmd_calibrated(geometry: MirrorGeometry, problem: VIProblem,
                          eta: float, case: int = 1) -> TargetSpec:
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
        return replace(preset_ppa(geometry, problem, eta), name="dmd_calibrated")
    return replace(preset_eg(geometry, problem, eta), alpha=1.0, beta=1.0,
                   name="dmd_calibrated")
