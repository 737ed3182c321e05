"""The stepping loop, its runners, and run diagnostics.

Every runner steps one dual update through `integrate`: a rate
z' = rate(z, x, T(x), S(x)), a pull-back x = pullback(z) (the mirror map),
and a scheme.  Each point resolves its target once, and the S(x) that the
resolution evaluated travels with T(x) to the rate.  "discrete" is Euler
with dt = 1, and "rk4" recomputes x at every stage.  The higher-order
variant integrates the stacked state (z, xi).
Trajectories are recorded as RunRecords with per-sample diagnostics:
target residual ||T(x) - x||, natural residual, and the Bregman value
against a reference point when one is known.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Optional

import numpy as np

from .errors import ConfigurationError, FlowDivergenceError
from .geometry import MirrorGeometry, bregman
from .problems import VIProblem, natural_residual
from .targets import TargetSpec, _step_size, resolve_target

Vector = np.ndarray

DEFAULT_STOP_RESIDUAL = 1e-8
CONVERGED = "converged"
BUDGET = "budget_exhausted"


@dataclass(eq=False)
class SolverState:
    """Dual state z, its primal image x = grad_h_conj(z), counters, and
    the optional auxiliary state of the higher-order variant."""

    step_index: int
    time: float
    z: Vector
    x: Vector
    xi: Optional[Vector] = None


def initial_state(geometry: MirrorGeometry, x0=None) -> SolverState:
    """State at z0 = grad_h(x0); default x0 is the domain's analytic
    center (uniform on the simplex, box midpoint, origin on the whole
    space)."""
    x0 = geometry.domain.center() if x0 is None else np.asarray(x0, dtype=float)
    if x0.size != geometry.dim:
        raise ConfigurationError(
            f"x0 has {x0.size} entries; the problem has dimension {geometry.dim}")
    if not np.all(np.isfinite(x0)):
        raise ConfigurationError(f"x0 must be finite, got {x0.tolist()}")
    z0 = geometry.grad_h(x0)
    return SolverState(0, 0.0, z0, geometry.grad_h_conj(z0))


def state_from_dual(geometry: MirrorGeometry, z0) -> SolverState:
    """State at an explicitly chosen dual point (needed when grad_h has no
    closed form, e.g. synthesized ensemble geometries)."""
    z0 = np.asarray(z0, dtype=float)
    return SolverState(0, 0.0, z0.copy(), geometry.grad_h_conj(z0))


def dual_rate(spec: TargetSpec, x: Vector, tx: Vector,
              sx: Optional[Vector] = None) -> Vector:
    """alpha * (S(T(x)) - S(x)) - beta * Phi(x); sx, when given, is the
    S(x) that resolving T(x) evaluated, and is used in place of S(x)."""
    x = np.asarray(x, dtype=float)
    rate = np.zeros_like(x)
    if spec.alpha != 0.0:
        if spec.dual_gap is not None:
            rate = spec.alpha * spec.dual_gap(x, tx)
        else:
            rate = spec.alpha * (spec.S(tx) - (spec.S(x) if sx is None else sx))
    if spec.beta != 0.0:
        rate = rate - spec.beta * spec.Phi(x)
    return rate


def _tmd_rate(spec):
    return lambda z, x, tx, sx: dual_rate(spec, x, tx, sx)


def _target_map(spec):
    """x -> (T(x), S(x) or None), from one resolve_target call."""
    return lambda x: resolve_target(spec, x, with_anchor=True)


# A scheme maps (rate, pullback, target, z, k1, h) to the next dual point;
# k1 is the rate at z and h = dt * gain is the step of the rate.

def _discrete(rate, pullback, target, z, k1, h):
    return z + k1


def _euler(rate, pullback, target, z, k1, h):
    return z + h * k1


def _rk4(rate, pullback, target, z, k1, h):
    def rate_at(zs):
        xs = pullback(zs)
        return rate(zs, xs, *target(xs))

    k2 = rate_at(z + 0.5 * h * k1)
    k3 = rate_at(z + 0.5 * h * k2)
    k4 = rate_at(z + h * k3)
    return z + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


SCHEMES = {"discrete": _discrete, "euler": _euler, "rk4": _rk4}


def integrate(rate, pullback, state: SolverState, scheme: str, t_end: float, *,
              target, recorder, dt: float = 1.0, gain=1.0, residual=None,
              stop_residual: float = DEFAULT_STOP_RESIDUAL, stride: int = 1,
              max_halvings: int = 8):
    """The one stepping loop of the package.

    Step z' = gain * rate(z, x, T(x), S(x)), x = pullback(z), from `state`
    for round(t_end / dt) steps of `scheme` (discrete: dt = gain = 1), and
    return recorder().finish(...) over the samples pushed at the start,
    every stride-th step and the end.  target(x) returns the pair
    (T(x), S(x)) once per point; rate takes both, and residual and recorder
    share T(x).  The rate k1 at the current point is computed once per step,
    and the run stops once residual(state, T(x), k1) <= stop_residual.  A
    non-finite dual point ends a discrete run with FlowDivergenceError;
    Euler and RK4 runs restart with dt halved, up to max_halvings times,
    before raising it.  numpy's overflow and invalid-value warnings are
    silenced in the loop, since that check reports them.
    """
    dt = _step_size(dt, "dt")
    if not (math.isfinite(t_end) and t_end >= 0.0):
        raise ConfigurationError(f"t_end must be a finite number >= 0, got {t_end!r}")
    advance = SCHEMES[scheme]
    start = state
    for attempt in range(1 if scheme == "discrete" else max_halvings + 1):
        step = dt * 0.5 ** attempt
        h = step * gain
        rec = recorder()
        state = start
        tx, sx = target(state.x)
        rec.push(state, tx)
        termination = BUDGET
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(max(0, int(round(t_end / step)))):
                k1 = rate(state.z, state.x, tx, sx)
                if residual is not None and residual(state, tx, k1) <= stop_residual:
                    termination = CONVERGED
                    break
                z1 = advance(rate, pullback, target, state.z, k1, h)
                if not math.isfinite(z1.sum()):
                    termination = None
                    break
                state = SolverState(state.step_index + 1, state.time + step,
                                    z1, pullback(z1), state.xi)
                tx, sx = target(state.x)
                if state.step_index % stride == 0:
                    rec.push(state, tx)
        if termination is not None:
            if state is not start and state.step_index % stride:
                rec.push(state, tx)
            return rec.finish(termination, scheme, step, state)
        if scheme == "discrete":
            raise FlowDivergenceError(
                f"the dual point turned non-finite at step {state.step_index + 1}; "
                "the iteration diverges")
    raise FlowDivergenceError(
        f"trajectory stayed non-finite down to dt = {step:g}; "
        "the dynamics appear to diverge")


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
    def __init__(self, geometry, spec, problem, reference):
        self.geometry = geometry
        self.spec = spec
        self.problem = problem
        self.reference = None if reference is None else np.asarray(reference, dtype=float)
        self.steps = []
        self.times = []
        self.states = []
        self.target_res = []
        self.natural_res = []
        self.lyapunov = [] if self.reference is not None else None

    def push(self, state: SolverState, tx: Optional[Vector]):
        self.steps.append(state.step_index)
        self.times.append(state.time)
        self.states.append(state.x.copy())
        self.target_res.append(
            float(np.linalg.norm(tx - state.x)) if self.spec is not None else math.nan)
        if self.problem is not None:
            point = state.x
            if self.spec is not None and self.spec.shadow is not None:
                point = self.spec.shadow(state.x)
            self.natural_res.append(natural_residual(self.problem, point))
        else:
            self.natural_res.append(math.nan)
        if self.lyapunov is not None:
            self.lyapunov.append(bregman(self.geometry, self.reference, state.x))

    def finish(self, termination, mode, dt, final_state) -> RunRecord:
        return RunRecord(
            steps=np.asarray(self.steps, dtype=int),
            times=np.asarray(self.times, dtype=float),
            states=np.asarray(self.states, dtype=float),
            target_residuals=np.asarray(self.target_res, dtype=float),
            natural_residuals=np.asarray(self.natural_res, dtype=float),
            lyapunov=None if self.lyapunov is None else np.asarray(self.lyapunov, dtype=float),
            termination=termination,
            mode=mode,
            dt=dt,
            final_state=final_state,
        )


def _stationarity(spec, problem):
    """Residual driving the stopping rule: ||T(x) - x|| when the target
    mechanism is active; the natural residual for the alpha = 0 baseline
    (whose target residual is vacuously zero); none without a problem."""
    if spec.alpha > 0.0:
        return lambda state, tx, k1: float(np.linalg.norm(tx - state.x))
    if problem is not None:
        return lambda state, tx, k1: natural_residual(problem, state.x)
    return None


def run_discrete(geometry: MirrorGeometry, spec: TargetSpec,
                 problem: Optional[VIProblem] = None, x0=None,
                 n_steps: int = 1000,
                 stop_residual: float = DEFAULT_STOP_RESIDUAL,
                 stride: int = 1, reference=None,
                 state: Optional[SolverState] = None) -> RunRecord:
    """Up to n_steps discrete steps, stopping early once the stationarity
    residual falls below stop_residual."""
    if state is None:
        state = initial_state(geometry, x0)
    return integrate(_tmd_rate(spec), geometry.grad_h_conj, state, "discrete",
                     n_steps, target=_target_map(spec),
                     residual=_stationarity(spec, problem),
                     stop_residual=stop_residual, stride=stride,
                     recorder=partial(_Recorder, geometry, spec, problem, reference))


def flow(geometry: MirrorGeometry, spec: TargetSpec,
         state: Optional[SolverState] = None, integrator: str = "euler",
         dt: float = 1e-2, t_end: float = 10.0,
         problem: Optional[VIProblem] = None, x0=None, reference=None,
         stop_residual: float = DEFAULT_STOP_RESIDUAL, stride: int = 10,
         max_halvings: int = 8) -> RunRecord:
    """Integrate z' = alpha*(S o T - S)(x) - beta*Phi(x), x = grad_h_conj(z).

    Non-finite states trigger automatic halving of dt (up to max_halvings)
    before giving up with a diagnostic.
    """
    if integrator not in ("euler", "rk4"):
        raise ConfigurationError("integrator must be 'euler' or 'rk4'")
    if state is None:
        state = initial_state(geometry, x0)
    return integrate(_tmd_rate(spec), geometry.grad_h_conj, state, integrator,
                     t_end, dt=dt, target=_target_map(spec),
                     residual=_stationarity(spec, problem),
                     stop_residual=stop_residual, stride=stride,
                     recorder=partial(_Recorder, geometry, spec, problem, reference),
                     max_halvings=max_halvings)


def _mismatch_norm(state, tx, k1):
    """Stop residual of the discounted flows: the norm of their rate, the
    dual mismatch."""
    return float(np.linalg.norm(k1))


def run_dmd(geometry: MirrorGeometry, spec: TargetSpec, gamma: float = 1.0,
            dt: float = 1e-2, t_end: float = 50.0,
            problem: Optional[VIProblem] = None, x0=None, reference=None,
            stop_residual: float = DEFAULT_STOP_RESIDUAL,
            stride: int = 10) -> RunRecord:
    """Calibrated discounted flow z' = gamma*(S(T(x)) - z), for design
    tuples where alpha*S + beta*Phi collapses to grad_h.  It stops on the
    dual mismatch ||S(T(x)) - z||, which vanishes exactly at equilibrium;
    under case 1 that forces T(x) = x, a true solution."""
    return integrate(lambda z, x, tx, sx: spec.S(tx) - z, geometry.grad_h_conj,
                     initial_state(geometry, x0), "euler", t_end, dt=dt,
                     gain=_step_size(gamma, "gamma"), target=_target_map(spec),
                     residual=_mismatch_norm,
                     stop_residual=stop_residual, stride=stride,
                     recorder=partial(_Recorder, geometry, spec, problem, reference))


def run_vanilla_dmd(geometry: MirrorGeometry, problem: VIProblem,
                    gamma: float = 1.0, dt: float = 1e-2, t_end: float = 50.0,
                    x0=None, reference=None,
                    stop_residual: float = DEFAULT_STOP_RESIDUAL,
                    stride: int = 10) -> RunRecord:
    """Uncalibrated discounted baseline z' = gamma*(-F(x) - z); stops on
    ||-F(x) - z||.  Its equilibria z = -F(grad_h_conj(z)) generally do NOT
    solve the inequality."""
    return integrate(lambda z, x, tx, sx: -problem.F(x) - z, geometry.grad_h_conj,
                     initial_state(geometry, x0), "euler", t_end, dt=dt,
                     gain=_step_size(gamma, "gamma"), target=lambda x: (None, None),
                     residual=_mismatch_norm,
                     stop_residual=stop_residual, stride=stride,
                     recorder=partial(_Recorder, geometry, None, problem, reference))


def run_higher_order(geometry: MirrorGeometry, spec: TargetSpec,
                     gamma1: float = 1.0, gamma2: float = 1.0,
                     dt: float = 1e-2, t_end: float = 100.0,
                     problem: Optional[VIProblem] = None, x0=None,
                     reference=None,
                     stop_residual: float = DEFAULT_STOP_RESIDUAL,
                     stride: int = 10) -> RunRecord:
    """Euler integration of the second-order variant on the stacked state
    (z, xi), from xi = x0:

        z'  = alpha*(S(T(x)) - S(x)) - beta*Phi(x) - gamma1*(x - xi)
        xi' = gamma2*(x - xi)

    At equilibrium x = xi and the first-order stationarity conditions hold
    simultaneously.  Setting alpha = 0 recovers the second-order mirror
    descent baseline, which needs interior solutions; with the target
    correction the restriction disappears.  Stationarity combines the
    first-order stop residual with the auxiliary gap ||x - xi||, both of
    which vanish at equilibrium; without a first-order residual (alpha = 0
    and no problem) the run has no stop rule, as in run_discrete."""
    start = initial_state(geometry, x0)
    dim = start.x.size
    gamma1 = _step_size(gamma1, "gamma1")
    gain = np.concatenate((np.ones(dim), np.full(dim, _step_size(gamma2, "gamma2"))))
    first_order = _stationarity(spec, problem)

    def rate(y, x, tx, sx):
        gap = x - y[dim:]
        return np.concatenate((dual_rate(spec, x, tx, sx) - gamma1 * gap, gap))

    def stationarity(st, tx, k1):
        return max(first_order(st, tx, k1), float(np.linalg.norm(st.x - st.z[dim:])))

    y0 = np.concatenate((start.z, start.x))
    record = integrate(rate, lambda y: geometry.grad_h_conj(y[:dim]),
                       SolverState(0, 0.0, y0, start.x), "euler",
                       t_end, dt=dt, gain=gain, target=_target_map(spec),
                       residual=None if first_order is None else stationarity,
                       stop_residual=stop_residual, stride=stride,
                       recorder=partial(_Recorder, geometry, spec, problem, reference))
    end = record.final_state
    record.final_state = SolverState(end.step_index, end.time, end.z[:dim],
                                     end.x, end.z[dim:])
    return record


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
    diffs = np.diff(values)
    violations = [int(i) for i in np.nonzero(diffs > band)[0]]
    running = np.zeros_like(values)
    if spec is not None and record.states.shape[0] > 1:
        rates = spec.alpha * spec.sigma * record.target_residuals ** 2
        if np.all(np.isfinite(rates)):
            widths = np.diff(record.times)
            running[1:] = np.cumsum(0.5 * (rates[1:] + rates[:-1]) * widths)
    return LyapunovReport(values=values, violations=violations, band=band,
                          dissipation_running=running,
                          dissipation_integral=float(running[-1]),
                          total_decrease=float(values[0] - values[-1]))


def relaxed_condition_value(spec: TargetSpec, x, x_bar) -> float:
    """Descent margin at x against the reference x_bar:

        alpha * (sigma * ||T(x)-x||^2 + <Phi(T(x)), T(x) - x_bar>)
          + beta * <Phi(x), x - x_bar>.

    Positive values certify the relaxed descent condition at x even when
    no point is perfectly stable for Phi.  Norms are Euclidean.
    """
    x = np.asarray(x, dtype=float)
    x_bar = np.asarray(x_bar, dtype=float)
    tx = resolve_target(spec, x)
    gap = tx - x
    value = spec.alpha * (spec.sigma * float(np.dot(gap, gap))
                          + float(np.dot(spec.phi_at_target(x, tx), tx - x_bar)))
    if spec.beta != 0.0:
        value += spec.beta * float(np.dot(spec.Phi(x), x - x_bar))
    return value


def primal_vector_field(geometry: MirrorGeometry, spec: TargetSpec, x) -> Vector:
    """dx/dt at x: the dual rate pushed through the mirror map's Jacobian.

    Only available for geometries with a smooth conjugate (whole-space
    quadratics, entropy).  For the entropy geometry the Jacobian
    annihilates constant dual shifts, which is what makes simplex flows
    insensitive to normalization constants in the dual update.
    """
    if geometry.conj_jacobian is None:
        raise ConfigurationError(
            f"geometry {geometry.name!r} has no closed-form mirror-map Jacobian")
    x = np.asarray(x, dtype=float)
    tx = resolve_target(spec, x)
    return geometry.conj_jacobian(x) @ dual_rate(spec, x, tx)
