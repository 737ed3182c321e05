"""The stepping loop, its runners, and run diagnostics.

Every runner steps one dual update through `integrate`: a rate
z' = rate(x, T(x), S(x), z), a pull-back x = pullback(z) (the mirror map),
and a scheme.  Each point resolves its target once, and the S(x) that the
resolution evaluated travels with T(x) to the rate.  "discrete" is Euler
with dt = 1, and "rk4" recomputes x at every stage.  The higher-order
variant integrates the stacked state (z, xi).
Trajectories are recorded as RunRecords with per-sample diagnostics:
target residual ||T(x) - x||, natural residual, and the Bregman value
against a reference point when one is known.  The loop records only the
target residual; the other two are evaluated once per run, on the
stacked samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Optional

import numpy as np

from .errors import ConfigurationError
from .geometry import MirrorGeometry, bregman
from .problems import VIProblem, natural_residual
from .targets import ClosedFormGap, TargetSpec, _norm, _step_size, resolve_target

Vector = np.ndarray

DEFAULT_STOP_RESIDUAL = 1e-8
# Diagnostics are evaluated on blocks of at most this many sample entries,
# which bounds their temporaries whatever the run's length and dimension.
DIAGNOSTIC_BLOCK = 1 << 16
CONVERGED = "converged"
BUDGET = "budget_exhausted"
DIVERGED = "diverged"


@dataclass(eq=False)
class SolverState:
    """Dual state z, its primal image x = grad_h_conj(z), counters, and
    the optional auxiliary state of the higher-order variant."""

    step_index: int
    time: float
    z: Vector
    x: Vector
    xi: Optional[Vector] = None


def _finite_point(name: str, value, dim: int) -> Vector:
    """value as a float array of dim finite entries, or ConfigurationError."""
    point = np.asarray(value, dtype=float)
    if point.size != dim:
        raise ConfigurationError(
            f"{name} has {point.size} entries; the problem has dimension {dim}")
    if not np.all(np.isfinite(point)):
        raise ConfigurationError(f"{name} must be finite, got {point.tolist()}")
    return point


def initial_state(geometry: MirrorGeometry, x0=None) -> SolverState:
    """State at z0 = grad_h(x0); default x0 is the domain's analytic
    center (uniform on the simplex, box midpoint, origin on the whole
    space).  A given x0 is copied: the run's points are passed on
    uncopied, and under the Euclidean whole-space geometry z0 and x0 are
    this copy."""
    x0 = (geometry.domain.center() if x0 is None
          else _finite_point("x0", x0, geometry.dim).copy())
    z0 = geometry.grad_h(x0)
    return SolverState(0, 0.0, z0, geometry.grad_h_conj(z0))


def state_from_dual(geometry: MirrorGeometry, z0) -> SolverState:
    """State at an explicitly chosen dual point (needed when grad_h has no
    closed form, e.g. synthesized ensemble geometries)."""
    z0 = np.asarray(z0, dtype=float).copy()
    return SolverState(0, 0.0, z0, geometry.grad_h_conj(z0))


def dual_rate(spec: TargetSpec, x: Vector, tx: Vector,
              sx: Optional[Vector], z: Optional[Vector] = None) -> Vector:
    """alpha * (S(T(x)) - S(x)) - beta * Phi(x), with (tx, sx) what
    resolve_target(spec, x) returned: sx is the S(x) used in place of S(x)
    (None: evaluate S(x) here), or under ClosedFormGap the gap (not None).
    The dual point z goes unread; taking it makes partial(dual_rate, spec)
    a rate of integrate.
    With alpha = 0 the rate is 0.0 - beta * Phi(x), which keeps the sign of
    zeros; alpha = 1 and beta = 1 multiply nothing (1.0 * v is v, bit for
    bit).  The result may be sx itself (alpha = 1, beta = 0 under
    ClosedFormGap): callers must not write into it."""
    alpha, beta = spec.alpha, spec.beta
    if alpha == 0.0:
        rate = 0.0
    elif isinstance(spec.target, ClosedFormGap):
        rate = sx
    else:
        rate = spec.S(tx) - (spec.S(x) if sx is None else sx)
    if alpha not in (0.0, 1.0):
        rate = alpha * rate
    if beta == 0.0:
        return rate
    return rate - (spec.Phi(x) if beta == 1.0 else beta * spec.Phi(x))


# A scheme maps (rate, pullback, target, z, k1, h) to the next dual point;
# k1 is the rate at z and h = dt * gain is the step of the rate.

def _discrete(rate, pullback, target, z, k1, h):
    return z + k1


def _euler(rate, pullback, target, z, k1, h):
    return z + h * k1


def _rk4(rate, pullback, target, z, k1, h):
    def rate_at(zs):
        xs = pullback(zs)
        return rate(xs, *target(xs), zs)

    k2 = rate_at(z + 0.5 * h * k1)
    k3 = rate_at(z + 0.5 * h * k2)
    k4 = rate_at(z + h * k3)
    return z + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


SCHEMES = {"discrete": _discrete, "euler": _euler, "rk4": _rk4}


def _target_gap(tx, x) -> float:
    """||T(x) - x||, or NaN where no target map applies (tx is None)."""
    return math.nan if tx is None else _norm(tx - x)


def integrate(rate, pullback, state: SolverState, scheme: str, t_end: float, *,
              target, recorder, dt: float = 1.0, gain=1.0, residual=None,
              stop_on_gap: bool = False,
              stop_residual: float = DEFAULT_STOP_RESIDUAL, stride: int = 1):
    """The one stepping loop of the package.

    Step z' = gain * rate(x, T(x), S(x), z), x = pullback(z), from `state`
    for round(t_end / dt) steps of `scheme` (discrete: dt = gain = 1), and
    return recorder().finish(...) over the samples pushed at the start,
    every stride-th step and the end; push(k, t, x, tx, g) takes a
    sample's step index, time, point, target and g = ||T(x) - x||.
    target(x) returns (T(x), S(x)) once per point, or (None, None) where no
    target map applies (the recorder then keeps g = NaN); rate takes both.
    g is computed where something reads it: once per loop point when
    stop_on_gap is set (the stop rule reads it, so it needs a target map),
    otherwise g = None and the recorder computes the gaps it keeps; never at RK4
    stage points.  The rate k1 at the current point is computed once per step,
    and the run stops once residual(z, x, g, k1) < stop_residual.  Every
    residual is a norm, so a stop_residual that is not > 0 (0, negative or
    NaN) can never stop the run: it runs every step, also past an exact
    fixed point, and neither the residual nor g is evaluated in the loop.
    Nothing here copies or writes into the arrays it passes on: rate,
    pullback and target may return their input (an identity map does), so
    the final state's x may be its z.  The run makes one attempt, whatever
    the scheme: a non-finite dual point ends it as DIVERGED, with the
    samples up to the last finite point recorded and that point as its
    final state.  That is the loop's one finiteness test, exact and in one
    numpy call: the dot product of the flattened dual point with zeros is
    0 at a finite point (also at entries near the float limit, whose sum
    overflows) and NaN at one with an inf or a NaN entry, since 0 * inf is
    NaN.  numpy's overflow and invalid-value warnings are silenced
    from the start point's target and gap through the loop and the
    recorder's diagnostics, since that check reports them.  A t_end / dt
    that is not finite is a ConfigurationError.
    """
    dt = _step_size(dt, "dt")
    if not (math.isfinite(t_end) and t_end >= 0.0):
        raise ConfigurationError(f"t_end must be a finite number >= 0, got {t_end!r}")
    n_steps = t_end / dt
    if not math.isfinite(n_steps):
        raise ConfigurationError(
            f"t_end / dt = {t_end!r} / {dt!r} is not a finite number of steps")
    if not stop_residual > 0.0:
        residual, stop_on_gap = None, False
    advance = SCHEMES[scheme]
    h = dt * gain
    rec = recorder()
    k0 = state.step_index
    k, t, z, x = k0, state.time, state.z, state.x
    zeros = np.zeros(np.size(z))
    termination = BUDGET
    with np.errstate(over="ignore", invalid="ignore"):
        tx, sx = target(x)
        g = _norm(tx - x) if stop_on_gap else None
        rec.push(k, t, x, tx, g)
        for _ in range(max(0, int(round(n_steps)))):
            k1 = rate(x, tx, sx, z)
            if residual is not None and residual(z, x, g, k1) < stop_residual:
                termination = CONVERGED
                break
            z1 = advance(rate, pullback, target, z, k1, h)
            if np.vdot(z1, zeros) != 0.0:
                termination = DIVERGED
                break
            k, t, z, x = k + 1, t + dt, z1, pullback(z1)
            tx, sx = target(x)
            g = _norm(tx - x) if stop_on_gap else None
            if k % stride == 0:
                rec.push(k, t, x, tx, g)
        if k != k0 and k % stride:
            rec.push(k, t, x, tx, g)
        return rec.finish(termination, scheme, dt, SolverState(k, t, z, x, state.xi))


# ---------------------------------------------------------------------------
# Run records
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class RunRecord:
    """Sampled trajectory plus aligned per-sample diagnostics."""

    steps: Vector
    times: Vector
    states: Vector                  # (n_samples, dim)
    target_residuals: Vector        # NaN where no target map applies
    natural_residuals: Vector       # NaN when no problem was supplied
    lyapunov: Optional[Vector]      # None when no reference point is known
    termination: str
    mode: str                       # "discrete" | "euler" | "rk4"
    dt: float
    final_state: SolverState


class _Recorder:
    """The samples of one run.  push keeps a sample's step, time, a copy
    of x and ||T(x) - x|| (computed here when g is None; NaN without a
    spec); finish evaluates the natural residuals (at the shadow points,
    when the spec has a shadow) and the Bregman values against the
    reference on the stacked samples, in row blocks of DIAGNOSTIC_BLOCK
    entries.  Row by row evaluation gives each sample the bits of its own
    call."""

    def __init__(self, geometry, spec, problem, reference):
        self.geometry = geometry
        self.spec = spec
        self.problem = problem
        self.reference = reference
        self.steps = []
        self.times = []
        self.states = []
        self.target_res = []

    def push(self, k: int, t: float, x: Vector, tx, g: Optional[float]):
        self.steps.append(k)
        self.times.append(t)
        self.states.append(x.copy())
        if g is None:
            g = math.nan if self.spec is None else _target_gap(tx, x)
        self.target_res.append(g)

    def finish(self, termination, mode, dt, final_state) -> RunRecord:
        states = np.asarray(self.states, dtype=float)
        natural = np.full(len(states), math.nan)
        lyapunov = None if self.reference is None else np.empty(len(states))
        shadow = None if self.spec is None else self.spec.shadow
        rows = max(1, DIAGNOSTIC_BLOCK // states.shape[1])
        for start in range(0, len(states), rows):
            block = states[start:start + rows]
            if self.problem is not None:
                points = block if shadow is None else shadow(block)
                if np.shape(points) != block.shape:
                    raise ConfigurationError(
                        f"the shadow of {self.spec.name!r} returned shape "
                        f"{np.shape(points)} for points of shape {block.shape}; "
                        "it must map each row of a stack")
                natural[start:start + rows] = natural_residual(self.problem, points)
            if lyapunov is not None:
                lyapunov[start:start + rows] = bregman(self.geometry, self.reference, block)
        return RunRecord(
            steps=np.asarray(self.steps, dtype=int),
            times=np.asarray(self.times, dtype=float),
            states=states,
            target_residuals=np.asarray(self.target_res, dtype=float),
            natural_residuals=natural,
            lyapunov=lyapunov,
            termination=termination,
            mode=mode,
            dt=dt,
            final_state=final_state,
        )


def _stationarity(spec, problem):
    """Residual driving the stopping rule: the target residual g when the
    target mechanism is active; the natural residual for the alpha = 0
    baseline (whose target residual is vacuously zero); none without a
    problem."""
    if spec.alpha > 0.0:
        return lambda z, x, g, k1: g
    if problem is not None:
        return lambda z, x, g, k1: natural_residual(problem, x)
    return None


def _run(geometry, spec, problem, rate, residual, scheme, t_end, *, dt=None,
         gain=1.0, x0=None, state=None, reference=None, stacked=False,
         stop_residual=DEFAULT_STOP_RESIDUAL, stride=1, stop_on_gap=False):
    """What every runner shares around its rate, stop residual and gain: the
    start state, the target map (none without a spec), the recorder and the
    integrate call.  A flow (dt given) integrates with euler or rk4.  stacked
    runs on (z, xi) from xi = x0, pulled back through z alone.  stop_on_gap
    tells integrate that the residual reads g."""
    if dt is not None and scheme not in ("euler", "rk4"):
        raise ConfigurationError("integrator must be 'euler' or 'rk4'")
    if state is None:
        state = initial_state(geometry, x0)
    if reference is not None:
        reference = _finite_point("reference", reference, geometry.dim)
    pullback, dim = geometry.grad_h_conj, geometry.dim
    if stacked:
        state = SolverState(0, 0.0, np.concatenate((state.z, state.x)), state.x)
        pullback = lambda y: geometry.grad_h_conj(y[:dim])
    record = integrate(rate, pullback, state, scheme, t_end,
                       dt=1.0 if scheme == "discrete" else dt, gain=gain,
                       target=((lambda x: (None, None)) if spec is None
                               else partial(resolve_target, spec)),
                       residual=residual, stop_on_gap=stop_on_gap,
                       stop_residual=stop_residual, stride=stride,
                       recorder=partial(_Recorder, geometry, spec, problem, reference))
    if stacked:
        end = record.final_state
        record.final_state = SolverState(end.step_index, end.time, end.z[:dim],
                                         end.x, end.z[dim:])
    return record


def run_discrete(geometry: MirrorGeometry, spec: TargetSpec,
                 problem: Optional[VIProblem] = None, x0=None,
                 n_steps: int = 1000,
                 stop_residual: float = DEFAULT_STOP_RESIDUAL,
                 stride: int = 1, reference=None,
                 state: Optional[SolverState] = None) -> RunRecord:
    """Up to n_steps discrete steps, stopping early once the stationarity
    residual falls below stop_residual."""
    return _run(geometry, spec, problem, partial(dual_rate, spec),
                _stationarity(spec, problem), "discrete", n_steps, x0=x0, state=state,
                reference=reference, stop_residual=stop_residual, stride=stride,
                stop_on_gap=spec.alpha > 0.0)


def flow(geometry: MirrorGeometry, spec: TargetSpec,
         state: Optional[SolverState] = None, integrator: str = "euler",
         dt: float = 1e-2, t_end: float = 10.0,
         problem: Optional[VIProblem] = None, x0=None, reference=None,
         stop_residual: float = DEFAULT_STOP_RESIDUAL, stride: int = 10) -> RunRecord:
    """Integrate z' = alpha*(S o T - S)(x) - beta*Phi(x), x = grad_h_conj(z),
    with steps of dt; a non-finite dual point ends the run as diverged
    (see integrate)."""
    return _run(geometry, spec, problem, partial(dual_rate, spec),
                _stationarity(spec, problem), integrator, t_end, dt=dt, x0=x0,
                state=state, reference=reference, stop_residual=stop_residual,
                stride=stride, stop_on_gap=spec.alpha > 0.0)


def _mismatch_norm(z, x, g, k1):
    """The discounted flows' stop residual: the norm of their rate."""
    return _norm(k1)


def run_dmd(geometry: MirrorGeometry, spec: TargetSpec, gamma: float = 1.0,
            dt: float = 1e-2, t_end: float = 50.0,
            problem: Optional[VIProblem] = None, x0=None, reference=None,
            stop_residual: float = DEFAULT_STOP_RESIDUAL,
            stride: int = 10, integrator: str = "euler") -> RunRecord:
    """Calibrated discounted flow z' = gamma*(S(T(x)) - z), for design
    tuples where alpha*S + beta*Phi collapses to grad_h.  It stops on the
    dual mismatch ||S(T(x)) - z||, which vanishes exactly at equilibrium;
    under case 1 that forces T(x) = x, a true solution."""
    return _run(geometry, spec, problem, lambda x, tx, sx, z: spec.S(tx) - z,
                _mismatch_norm, integrator, t_end, dt=dt,
                gain=_step_size(gamma, "gamma"), x0=x0, reference=reference,
                stop_residual=stop_residual, stride=stride)


def run_vanilla_dmd(geometry: MirrorGeometry, problem: VIProblem,
                    gamma: float = 1.0, dt: float = 1e-2, t_end: float = 50.0,
                    x0=None, reference=None,
                    stop_residual: float = DEFAULT_STOP_RESIDUAL,
                    stride: int = 10, integrator: str = "euler") -> RunRecord:
    """Uncalibrated discounted baseline z' = gamma*(-F(x) - z); stops on
    ||-F(x) - z||.  Its equilibria z = -F(grad_h_conj(z)) generally do NOT
    solve the inequality."""
    return _run(geometry, None, problem, lambda x, tx, sx, z: -problem.F(x) - z,
                _mismatch_norm, integrator, t_end, dt=dt,
                gain=_step_size(gamma, "gamma"), x0=x0, reference=reference,
                stop_residual=stop_residual, stride=stride)


def run_higher_order(geometry: MirrorGeometry, spec: TargetSpec,
                     gamma1: float = 1.0, gamma2: float = 1.0,
                     dt: float = 1e-2, t_end: float = 100.0,
                     problem: Optional[VIProblem] = None, x0=None,
                     reference=None,
                     stop_residual: float = DEFAULT_STOP_RESIDUAL,
                     stride: int = 10, integrator: str = "euler") -> RunRecord:
    """The second-order variant on the stacked state (z, xi), from xi = x0:

        z'  = alpha*(S(T(x)) - S(x)) - beta*Phi(x) - gamma1*(x - xi)
        xi' = gamma2*(x - xi)

    At equilibrium x = xi and the first-order stationarity conditions hold
    simultaneously.  Setting alpha = 0 recovers the second-order mirror
    descent baseline, which needs interior solutions; with the target
    correction the restriction disappears.  Stationarity combines the
    first-order stop residual with the auxiliary gap ||x - xi||, both of
    which vanish at equilibrium; without a first-order residual (alpha = 0
    and no problem) the run has no stop rule, as in run_discrete."""
    dim = geometry.dim
    gamma1 = _step_size(gamma1, "gamma1")
    gain = np.concatenate((np.ones(dim), np.full(dim, _step_size(gamma2, "gamma2"))))
    first_order = _stationarity(spec, problem)

    def rate(x, tx, sx, y):
        gap = x - y[dim:]
        return np.concatenate((dual_rate(spec, x, tx, sx) - gamma1 * gap, gap))

    def stationarity(y, x, g, k1):
        return max(first_order(y, x, g, k1), _norm(x - y[dim:]))

    return _run(geometry, spec, problem, rate,
                None if first_order is None else stationarity, integrator, t_end,
                dt=dt, gain=gain, x0=x0, reference=reference, stacked=True,
                stop_residual=stop_residual, stride=stride, stop_on_gap=spec.alpha > 0.0)


# ---------------------------------------------------------------------------
# Diagnostics
# ---------------------------------------------------------------------------

@dataclass
class LyapunovReport:
    """Bregman values along a run, indices of band-exceeding increases,
    the band itself, and the running integral of the dissipation bound
    alpha * sigma * ||T(x) - x||^2 for comparison with the total decrease."""

    values: Vector
    violations: list
    band: float
    dissipation_running: Vector
    dissipation_integral: float
    total_decrease: float


def violation_band(record: RunRecord) -> float:
    """Tolerated per-sample increase: discretization admits bounded
    overshoot, so the band scales with the integrator's local error.  A dt
    so large that the band leaves the float range gives inf: no increase
    is flagged."""
    if record.mode == "discrete":
        return 1e-9
    order = 2 if record.mode == "euler" else 4
    try:
        return max(1e-9, 10.0 * record.dt ** order)
    except OverflowError:
        return math.inf


def lyapunov_series(record: RunRecord,
                    spec: Optional[TargetSpec] = None) -> LyapunovReport:
    """The run's Bregman distance from its reference along the samples, with
    every index where it increases beyond the integrator band flagged."""
    if record.lyapunov is None:
        raise ConfigurationError("the run has no reference point, so no Lyapunov values")
    values = record.lyapunov
    band = violation_band(record)
    # inf - inf past an overflow is NaN; a finite gap past 1.3e154 squares to inf
    with np.errstate(over="ignore", invalid="ignore"):
        diffs = np.diff(values)
        decrease = float(values[0] - values[-1])
        rates = (None if spec is None
                 else spec.alpha * spec.sigma * record.target_residuals ** 2)
    violations = [int(i) for i in np.nonzero(diffs > band)[0]]
    running = np.zeros_like(values)
    if rates is not None and len(rates) > 1 and np.all(np.isfinite(rates)):
        widths = np.diff(record.times)
        running[1:] = np.cumsum(0.5 * (rates[1:] + rates[:-1]) * widths)
    return LyapunovReport(values=values, violations=violations, band=band,
                          dissipation_running=running,
                          dissipation_integral=float(running[-1]),
                          total_decrease=decrease)


def relaxed_condition_value(spec: TargetSpec, x, x_bar, tx=None) -> float:
    """Descent margin at x against the reference x_bar:

        alpha * (sigma * ||T(x)-x||^2 + <Phi(T(x)), T(x) - x_bar>)
          + beta * <Phi(x), x - x_bar>.

    Positive values certify the relaxed descent condition at x even when
    no point is perfectly stable for Phi.  Norms are Euclidean.  tx, when
    given, is T(x), already resolved.
    """
    x = np.asarray(x, dtype=float)
    x_bar = np.asarray(x_bar, dtype=float)
    if tx is None:
        tx = resolve_target(spec, x)[0]
    gap = tx - x
    value = spec.alpha * (spec.sigma * float(np.dot(gap, gap))
                          + float(np.dot(spec.phi_at_target(x, tx), tx - x_bar)))
    if spec.beta != 0.0:
        value += spec.beta * float(np.dot(spec.Phi(x), x - x_bar))
    return value


def primal_vector_field(geometry: MirrorGeometry, spec: TargetSpec, x) -> Vector:
    """dx/dt at x: the dual rate pushed through the mirror map's Jacobian.

    Needs a conj_jacobian_times, which every built-in geometry has (its
    symmetric H makes rate @ H the field); for a projection onto a box or
    the simplex H is an element of the generalized Jacobian (see
    MirrorGeometry).  For the entropy geometry the Jacobian annihilates
    constant dual shifts, which is what makes simplex flows insensitive to
    normalization constants in the dual update.
    """
    if geometry.conj_jacobian_times is None:
        raise ConfigurationError(
            f"geometry {geometry.name!r} has no closed-form mirror-map Jacobian")
    x = np.asarray(x, dtype=float)
    return geometry.conj_jacobian_times(x, dual_rate(spec, x, *resolve_target(spec, x)))
