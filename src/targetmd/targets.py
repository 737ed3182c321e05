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
                       _parameter, _real, _scaled_norm, box, estimate_lipschitz,
                       sampled_monotonicity)

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


MAX_NEWTON_STEPS = 10_000  # per implicit target, short of its certified stop
MONOTONICITY_SEED = 0  # of the pairs _refute_on_samples draws


@dataclass(frozen=True)
class ResolventSolve:
    """Evaluate the target by solving its strongly monotone subproblem:
    _newton_target's certified Newton solve, in at most MAX_NEWTON_STEPS steps.

    geometry, when set, must have a conj_jacobian_times and S must be its
    grad_h (Phi monotone); phi_jacobian is then J_Phi as an array, or None
    for forward differences.  Without one (custom (S, Phi) pairs, a
    geometry without conj_jacobian_times) the solve runs through the
    Euclidean projection onto the feasible set, with forward differences
    of S + Phi.  There a hand-built entropy pair may miss tol = 1e-10 where
    a target coordinate y_min is below about 1e-6: log y, and the residual,
    have a rounding floor near eps / y_min.  Pass the geometry, as
    preset_ppa does, to solve through its softmax."""

    tol: float = 1e-10
    geometry: Optional[MirrorGeometry] = None
    phi_jacobian: Optional[Vector] = None

    def __post_init__(self):
        if self.phi_jacobian is not None and self.geometry is None:
            raise ConfigurationError("phi_jacobian needs a geometry")


TargetStrategy = Union[ClosedForm, ClosedFormGap, MirrorOfS, ResolventSolve]


@dataclass(eq=False)
class TargetSpec:
    """The (alpha, beta, S, Phi, T) design tuple plus evaluation strategy.

    sigma is the strong-monotonicity modulus of S (analytic bound where
    available).  Phi = None marks the splitting designs (S = identity, T
    the resolvent of Phi): Phi cannot be evaluated pointwise there, so beta
    must be 0, but Phi(T(x)) = x - T(x) holds exactly and is substituted
    wherever needed.  Phi, like S, takes one point or a stack of points
    (rows of an array) and acts row by row: check evaluates both on its
    stacked samples, so a hand-built Phi must map stacks.
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
        """Phi evaluated at the target point, or row by row at a stack of
        them; uses the resolvent identity Phi(T(x)) = x - T(x) for
        splitting designs (Phi = None)."""
        if self.Phi is None:
            return np.asarray(x, dtype=float) - np.asarray(tx, dtype=float)
        return self.Phi(tx)


def reference_point(spec: Optional[TargetSpec], problem: VIProblem, given=None):
    """x_bar of solve's Lyapunov values and of check's stability and descent
    sections: `given`, else the known solution, unless the design has a
    shadow (its iterates are governing points, the solutions their shadows)."""
    if given is None and (spec is None or spec.shadow is None):
        return problem.known_solution
    return given


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


def resolve_target(spec: TargetSpec, x: Vector):
    """Evaluate the target point T(x), and return (T(x), a), with a what
    the dual rate reuses rather than evaluate again: the anchor S(x) the
    resolution evaluated (None for ClosedForm), or ClosedFormGap's gap
    S(T(x)) - S(x).

    MirrorOfS maps S(x) through its mirror (it is tested first, being the
    per-point path of every extragradient step); closed-form strategies
    apply their stored formula.  A ResolventSolve returns the certified
    Newton solve (_newton_target), within tol of T(x), or raises
    TargetResolutionError: nothing falls back.
    """
    x = np.asarray(x, dtype=float)
    strategy = spec.target
    anchor = None
    if isinstance(strategy, MirrorOfS):
        anchor = spec.S(x)
        tx = np.asarray(strategy.mirror(anchor), dtype=float)
    elif isinstance(strategy, ClosedForm):
        tx = np.asarray(strategy.fn(x), dtype=float)
    elif isinstance(strategy, ClosedFormGap):
        tx, anchor = strategy.fn(x)
    else:
        if spec.Phi is None:
            raise ConfigurationError("solver strategy needs an explicit Phi")
        anchor = spec.S(x)
        tx = _newton_target(spec, strategy, x, anchor)
    return tx, anchor


def _norm(v: Vector) -> float:
    """The Euclidean norm of a real 1-D array: sqrt(v.v), without
    np.linalg.norm's dispatch, rescaled only where v.v overflows, so the
    bits are sqrt(v.v)'s wherever that is finite."""
    size = math.sqrt(np.dot(v, v))
    return _scaled_norm(v) if size == math.inf else size


def _newton_target(spec: TargetSpec, strategy: ResolventSolve, x: Vector,
                   anchor: Vector) -> Vector:
    """Solve f(w) = S(x) - Psi(grad_h_conj(w)) - w = 0 by damped Newton from
    y = x and return y = grad_h_conj(w).  With a geometry (S its grad_h),
    Psi = Phi and w_0 = S(x); without one, grad_h_conj is the Euclidean
    projection onto spec.feasible_set, Psi(y) = Phi(y) + (S(y) - y) and
    w_0 = x.  w - grad_h(y) lies in N_X(y), so -f lies in
    (S + Phi + N_X)(y) - S(x) and ||y - T(x)|| <= ||f|| / sigma: the stop
    ||f|| <= sigma * tol certifies the target, from any start.

    The Newton matrix I + J_Psi H, H the Jacobian of grad_h_conj at w, is
    nonsingular for J_Phi monotone and H positive semidefinite, or S + Phi
    strongly monotone and H an orthogonal projector
    ((I + (J_S + J_Phi - I)H)v = 0 gives H(J_S + J_Phi)Hv = 0, so v = 0); a
    singular one raises.  J_Psi H is conj_jacobian_times of J_Psi, which
    is phi_jacobian, or forward differences of Psi along the unit vectors
    in one stacked call: each raises one coordinate, so an entropy S stays
    defined, and J_Psi H keeps H's null space exactly, which differences
    along H's columns break by the curvature of S.  The step halves from 1
    until ||f|| shrinks by 1 - 1e-4 * t, rejecting trials where S or Phi
    raises DomainError; 30 halvings, or MAX_NEWTON_STEPS steps short of
    the stop, are a stall, and so is a NaN residual (S or Phi NaN)."""
    geometry, jacobian, psi = strategy.geometry, strategy.phi_jacobian, spec.Phi
    if geometry is None:
        geometry = euclidean_geometry(spec.feasible_set)
        w = x

        def psi(y):
            return spec.Phi(y) + (spec.S(y) - y)
    else:
        w = anchor
    bound = spec.sigma * strategy.tol
    conj, times = geometry.grad_h_conj, geometry.conj_jacobian_times

    def at(w):
        y = conj(w)
        value = psi(y)
        f = anchor - value
        f -= w
        return w, y, value, f, _norm(f)

    w, y, value, f, size = at(w)
    eye = np.eye(len(y))
    for _ in range(MAX_NEWTON_STEPS):
        if size <= bound:
            break
        j = jacobian
        if j is None:
            shift = 1.5e-8 * (1.0 + float(np.max(np.abs(y))))
            j = ((psi(y + shift * eye) - value) / shift).T
        try:
            d = np.linalg.solve(times(y, j) + eye, f)
        except np.linalg.LinAlgError:
            raise TargetResolutionError(
                f"target subproblem singular: the Newton matrix has no inverse at "
                f"residual {size:.3e}; the design pair may not be strongly monotone",
                last_residual=size) from None
        for k in range(31):
            try:
                # the full step first: w + d is w + 1.0 * d, bit for bit
                trial = at(w + d if k == 0 else w + 0.5 ** k * d)
            except DomainError:
                continue
            if trial[-1] <= (1.0 - 1e-4 * 0.5 ** k) * size:
                break
        else:
            break
        w, y, value, f, size = trial
    if not size <= bound:
        raise TargetResolutionError(
            f"target subproblem stalled: residual {size:.3e} > {bound:g}",
            last_residual=size)
    return y


def _require_strongly_monotone(geometry, problem, step, label):
    """Refuse a design whose map grad_h + step*F is not strongly monotone.

    Given linear_terms (M, q), its modulus is at least the least eigenvalue
    of D + step*(M + M^T)/2 on the feasible set's tangent space, R^d or the
    simplex's sum-zero vectors (none at dim 1: inf), with D the geometry's
    diag(quadratic_weights), else its declared strong_convexity_modulus * I
    (Facchinei and Pang, 2003): exact for a quadratic potential or a
    Euclidean projection, sufficient under entropy.  min(D) + step*diag for
    a Tridiagonal, one eigvalsh otherwise: no F call, no draw.  A modulus
    <= 1e-12, or NaN (step*M overflowing), raises ConfigurationError.  An
    F without linear_terms is refuted on samples."""
    feasible_set, weights = problem.feasible_set, geometry.quadratic_weights
    if problem.linear_terms is None:
        return _refute_on_samples(lambda x: geometry.grad_h(x) + step * problem.F(x),
                                  feasible_set, label)
    if weights is None:
        weights = np.full(feasible_set.dim, geometry.strong_convexity_modulus, dtype=float)
    m = problem.linear_terms[0]
    if isinstance(m, Tridiagonal):
        modulus = float(np.min(weights)) + step * m.diag
    else:
        m = np.asarray(m, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):
            sym = np.diag(weights) + (0.5 * step) * (m + m.T)
            if feasible_set.kind == SIMPLEX:  # Helmert's basis: column k - 1 holds
                k = np.arange(1.0, feasible_set.dim)  # k ones, then -k, over its norm
                basis = np.triu(np.ones((k.size + 1, k.size))) - np.diag(k, -1)[:, :-1]
                basis /= np.sqrt(k * (k + 1.0))
                sym = basis.T @ sym @ basis
        # M is finite (VIProblem checks it); step*M may still overflow
        modulus = (float(np.linalg.eigvalsh(sym).min(initial=math.inf))
                   if np.isfinite(sym).all() else math.nan)
    if not modulus > 1e-12:
        raise ConfigurationError(
            f"{label} is not strongly monotone (least eigenvalue of its symmetric "
            f"part {modulus:.3e}); reduce the step")
    return modulus


def _refute_on_samples(op, feasible_set, label):
    """Refute, on 64 sampled interior pairs, that op is strongly monotone:
    rows 2i and 2i + 1 of one draw of 128 points, the numbers that 64 draws
    of 2 points give.  A minimum ratio <= 1e-12 raises ConfigurationError."""
    points = feasible_set.sample_interior(np.random.default_rng(MONOTONICITY_SEED), 128)
    ratio = sampled_monotonicity(op, points[0::2], points[1::2], label)[0]
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
               inner_tol: float = 1e-10) -> TargetSpec:
    """Proximal-point design: alpha = 1, beta = 0, S = grad_h, Phi = eta*F.

    The target solves the proximal subproblem.  For linear F = M x + q
    under a whole-space quadratic potential h = 0.5 * sum w_i x_i^2 it is
    the closed form T(x) = (W + eta*M)^-1 (W x - eta*q), formed once: a
    spectral solve of the shifted Tridiagonal under the Euclidean one, a
    product with a dense inverse otherwise; inner_tol goes unused there.
    Otherwise a geometry with a conj_jacobian_times takes the certified
    Newton solve (see _newton_target), with J_Phi = eta*M made dense here
    for linear F and forward differences of Phi otherwise: 3.06 F calls per
    rps_game target under entropy at eta = 1 (traced benchmark, seed 1).
    A geometry without one takes the same certified solve through the
    Euclidean projection onto the feasible set, with S = its grad_h.
    inner_tol must be finite and positive.  grad_h + eta*F must be
    strongly monotone (_require_strongly_monotone: an eigenvalue bound
    given linear_terms, a sampled refutation otherwise).
    """
    eta = _step_size(eta, "eta")
    inner_tol = _step_size(inner_tol, "inner_tol")
    _require_strongly_monotone(geometry, problem, eta, "grad_h + eta*F")

    weights = geometry.quadratic_weights
    m, q = problem.linear_terms or (None, None)
    banded = isinstance(m, Tridiagonal)
    if m is not None and weights is not None:
        # Euclidean weights are 1, and 1.0 * x is x bit for bit
        if banded and geometry.name == "euclidean":
            solve = m.shifted(eta).solve
        else:
            dense = m.to_dense() if banded else m
            solve = partial(np.matvec, np.linalg.inv(np.diag(weights) + eta * dense))
        shift = eta * q
        if np.all(weights == 1.0):
            target = ClosedForm(lambda x: solve(np.asarray(x, dtype=float) - shift))
        else:
            target = ClosedForm(lambda x: solve(weights * np.asarray(x, dtype=float) - shift))
    elif geometry.conj_jacobian_times is not None:
        target = ResolventSolve(tol=inner_tol, geometry=geometry, phi_jacobian=(
            None if m is None else eta * (m.to_dense() if banded else m)))
    else:
        target = ResolventSolve(tol=inner_tol)

    # Phi looks problem.F up when called, so rebinding F reaches it; at
    # eta = 1 it skips the product 1.0 * F(x), which is F(x) bit for bit
    return TargetSpec(
        alpha=1.0,
        beta=0.0,
        S=geometry.grad_h,
        sigma=geometry.strong_convexity_modulus,
        Phi=(lambda x: problem.F(x)) if eta == 1.0 else (lambda x: eta * problem.F(x)),
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
    two-step-size variant.  sigma = modulus(h) - eta1 * L must be positive
    (NaN refuses); given linear_terms, _require_strongly_monotone's bound is
    then at least sigma (|eig(sym M)| <= ||M|| <= L); without, it samples.
    """
    eta1 = _step_size(eta1, "eta")
    eta2 = eta1 if eta2 is None else _step_size(eta2, "eta2")

    lip = estimate_lipschitz(problem)
    sigma = geometry.strong_convexity_modulus - eta1 * lip
    if not sigma > 0.0:
        raise ConfigurationError(
            f"step {eta1:g} too large: modulus {geometry.strong_convexity_modulus:g} "
            f"- step * L ({lip:g}) is not positive")

    _require_strongly_monotone(geometry, problem, -eta1, "grad_h - step*F")

    def S(x):
        return geometry.grad_h(x) - eta1 * problem.F(x)

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

    Requires the split pair's constants, finite with modulus(A + B) > 0 and
    lipschitz(B) >= 0, and eta * lipschitz(B)^2 < 4 * modulus(A + B).
    """
    eta = _step_size(eta, "eta")
    sigma, lip = _real(pair.strong_modulus), _real(pair.lipschitz_B)
    if not (0.0 < sigma < math.inf and 0.0 <= lip < math.inf):
        raise ConfigurationError(
            "FB needs the strong modulus of A+B, a finite number > 0, and the Lipschitz "
            f"constant of B, a finite number >= 0; got {pair.strong_modulus!r} and "
            f"{pair.lipschitz_B!r}")
    if eta * lip * lip >= 4.0 * sigma:
        raise ConfigurationError(f"eta = {eta:g} violates the step bound eta < 4*sigma/L^2 "
                                 f"= {4.0 * sigma / (lip * lip):g}")

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
    shift = _parameter(shift, "box_affine_split", "shift")
    feasible = box(lower, upper)  # one error for bounds that are not finite numbers
    lo, up = (_parameter(v, "box_affine_split", name)
              for v, name in ((lower, "lower"), (upper, "upper")))

    def resolvent_a(eta, v):
        return np.clip(np.asarray(v, dtype=float), lo, up)

    def resolvent_b(eta, v):
        return (np.asarray(v, dtype=float) + eta * shift) / (1.0 + eta)

    def b_forward(x):
        return np.asarray(x, dtype=float) - shift

    pair = SplitPair(resolvent_A=resolvent_a, resolvent_B=resolvent_b,
                     B_forward=b_forward, strong_modulus=1.0, lipschitz_B=1.0)
    problem = VIProblem(feasible, F=b_forward, name="box_affine_split",
                        known_solution=np.array([min(max(shift, lo), up)]),
                        linear_terms=(np.eye(1), np.array([-shift])))
    return pair, problem


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
        # the normalized excess payoff divides by x, so x >= INTERIOR_FLOOR
        # is checked first.  The reductions are the ufuncs' own, without
        # ndarray's method layer.
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
