"""Geometric ensembles: several mirror geometries advancing in parallel
under one shared dual update, and their reduction to a single run with a
synthesized mirror map.

Every member receives the identical dual increment, computed from the
design tuple evaluated at the averaged primal state.  Member duals
therefore keep their initial offsets forever; the state stores one shared
accumulated dual and the per-member offsets, which makes that rigidity
exact by construction rather than a float coincidence.

The reduction: the averaged state follows a single dual update pulled back
through the map z -> mean_k grad_h_conj_k(z + z_k(0)), started at z = 0.
That map is the conjugate gradient of a scaled-and-tilted infimal
convolution of the member potentials, so the ensemble inherits every
convergence property of the single run.  Synthesis is implemented for the
two families with closed-form conjugates (whole-space quadratics and
entropy); a general pointwise infimal convolution is deliberately not
attempted.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import List, Optional

import numpy as np

from .errors import ConfigurationError
from .geometry import MirrorGeometry, softmax
from .problems import VIProblem, simplex, whole_space
from .targets import TargetSpec
from .dynamics import (SCHEMES, RunRecord, SolverState, _Recorder, _target_map,
                       _tmd_rate, dual_rate, integrate, state_from_dual,
                       DEFAULT_STOP_RESIDUAL)

Vector = np.ndarray


@dataclass(eq=False)
class EnsembleMember:
    geometry: MirrorGeometry
    z0: Vector


@dataclass(eq=False)
class EnsembleState:
    """members, the shared accumulated dual, per-member primal points, and
    their arithmetic mean.

    Member i's dual state is z_shared + members[i].z0; storing the shared
    part once keeps the pairwise dual offsets exactly constant.
    """

    members: List[EnsembleMember]
    z_shared: Vector
    xs: List[Vector]
    x_en: Vector
    step_index: int = 0
    time: float = 0.0

    def member_dual(self, i: int) -> Vector:
        return self.z_shared + self.members[i].z0


def make_members(geometries, z0s) -> List[EnsembleMember]:
    return [EnsembleMember(g, np.asarray(z, dtype=float))
            for g, z in zip(geometries, z0s)]


def init_ensemble(members: List[EnsembleMember]) -> EnsembleState:
    if not members:
        raise ConfigurationError("ensemble needs at least one member")
    dim = members[0].geometry.dim
    kind = members[0].geometry.domain.kind
    for m in members:
        if m.geometry.dim != dim or m.z0.size != dim:
            raise ConfigurationError("all members must share one dimension")
        if m.geometry.domain.kind != kind:
            raise ConfigurationError("all members must share one domain")
    z_shared = np.zeros(dim)
    xs = [m.geometry.grad_h_conj(z_shared + m.z0) for m in members]
    return EnsembleState(members=members, z_shared=z_shared, xs=xs,
                         x_en=np.mean(xs, axis=0))


def _mean_pullback(members):
    """z -> mean_k grad_h_conj_k(z + z_k(0)): the averaged state at the
    shared dual z."""
    return lambda z: np.mean([m.geometry.grad_h_conj(z + m.z0) for m in members],
                             axis=0)


def ensemble_step(state: EnsembleState, spec: TargetSpec,
                  dt: Optional[float] = None) -> EnsembleState:
    """Advance every member by the one shared increment computed at the
    averaged state; dt = None means a discrete step."""
    scheme, step = ("discrete", 1.0) if dt is None else ("euler", dt)
    k1 = dual_rate(spec, state.x_en, *_target_map(spec)(state.x_en))
    z = SCHEMES[scheme](None, None, None, state.z_shared, k1, step)
    xs = [m.geometry.grad_h_conj(z + m.z0) for m in state.members]
    return EnsembleState(members=state.members, z_shared=z, xs=xs,
                         x_en=np.mean(xs, axis=0),
                         step_index=state.step_index + 1,
                         time=state.time + step)


def synthesized_geometry(members: List[EnsembleMember]) -> MirrorGeometry:
    """The single mirror geometry whose map reproduces the averaged state:

        conj(z) = (1/N) * sum_k grad_h_conj_k(z + z_k(0)).

    Closed forms exist for two member families.  Whole-space quadratics
    (weights w_k): the map is affine, and the full potential (gradient,
    values, modulus) is recovered exactly.  Entropy members with distinct
    initial duals: the map is a mean of shifted softmaxes; its potential
    has no elementary form, so eval_h/grad_h raise and runs must start
    from an explicit dual point.  Distinct initial duals make the result
    genuinely different from any single member's map even when the member
    potentials coincide.
    """
    if not members:
        raise ConfigurationError("ensemble needs at least one member")
    dim = members[0].geometry.dim
    n = len(members)
    names = {m.geometry.name for m in members}

    quadratic = all(m.geometry.quadratic_weights is not None for m in members)
    if quadratic:
        inv_weights = [1.0 / m.geometry.quadratic_weights for m in members]
        offsets = [m.z0 for m in members]

        def grad_h_conj(z):
            z = np.asarray(z, dtype=float)
            return np.mean([iw * (z + z0) for iw, z0 in zip(inv_weights, offsets)],
                           axis=0)

        # conj(z) = a*z + b entrywise; invert for the potential itself.
        a = np.mean(inv_weights, axis=0)
        b = np.mean([iw * z0 for iw, z0 in zip(inv_weights, offsets)], axis=0)

        def grad_h(x):
            return (np.asarray(x, dtype=float) - b) / a

        def eval_h(x):
            d = np.asarray(x, dtype=float) - b
            return 0.5 * float(np.sum(d * d / a))

        def jacobian(x):
            return np.diag(a)

        return MirrorGeometry(
            dim=dim, domain_tag="whole_space", eval_h=eval_h, grad_h=grad_h,
            grad_h_conj=grad_h_conj,
            strong_convexity_modulus=float(1.0 / a.max()),
            domain=whole_space(dim), name="synthesized_quadratic",
            conj_jacobian=jacobian)

    if names == {"entropy"}:
        offsets = [m.z0 for m in members]

        def grad_h_conj(z):
            z = np.asarray(z, dtype=float)
            return np.mean([softmax(z + z0) for z0 in offsets], axis=0)

        def unsupported(_x):
            raise ConfigurationError(
                "the synthesized entropy-family potential has no closed form; "
                "start runs from an explicit dual point")

        return MirrorGeometry(
            dim=dim, domain_tag="custom", eval_h=unsupported, grad_h=unsupported,
            grad_h_conj=grad_h_conj,
            strong_convexity_modulus=min(m.geometry.strong_convexity_modulus
                                         for m in members),
            domain=simplex(dim), name="synthesized_entropy")

    raise ConfigurationError(
        "synthesis supports all-quadratic (whole space) or all-entropy member "
        f"families; got {sorted(names)}")


@dataclass(eq=False)
class ReductionReport:
    """Per-sample distance between the averaged ensemble state and the
    synthesized single run, plus the worst case over the horizon."""

    max_deviation: float
    deviations: Vector
    ensemble_states: Vector
    single_states: Vector


def verify_ensemble_reduction(members: List[EnsembleMember], spec: TargetSpec,
                              n_steps: int = 1000,
                              dt: Optional[float] = None) -> ReductionReport:
    """Run the ensemble and the synthesized single instance (dual start 0,
    at the ensemble's final dt) through `integrate` and report the
    per-sample deviation of the averaged state.  Report-only: tolerances
    are the caller's business."""
    geometry = synthesized_geometry(members)
    ens = init_ensemble(members)
    scheme, step = ("discrete", 1.0) if dt is None else ("euler", dt)
    t_end = n_steps * step

    def run(pullback, state, step, max_halvings=8):
        return integrate(_tmd_rate(spec), pullback, state, scheme, t_end, dt=step,
                         target=_target_map(spec), max_halvings=max_halvings,
                         recorder=partial(_Recorder, geometry, None, None, None))

    together = run(_mean_pullback(members),
                   SolverState(0, 0.0, ens.z_shared, ens.x_en), step)
    single = run(geometry.grad_h_conj,
                 state_from_dual(geometry, np.zeros(geometry.dim)), together.dt,
                 max_halvings=0)
    deviations = np.array([float(np.linalg.norm(a - b))
                           for a, b in zip(together.states, single.states)])
    return ReductionReport(max_deviation=float(deviations.max()),
                           deviations=deviations,
                           ensemble_states=together.states,
                           single_states=single.states)


def run_ensemble(members: List[EnsembleMember], spec: TargetSpec,
                 problem: Optional[VIProblem] = None, n_steps: int = 1000,
                 dt: Optional[float] = None,
                 stop_residual: float = DEFAULT_STOP_RESIDUAL,
                 stride: int = 1) -> RunRecord:
    """Drive the shared dual through the mean-of-members pull-back and
    record the averaged state as a trajectory, stopping early on the
    target residual at the averaged state."""
    ens = init_ensemble(members)
    scheme, step = ("discrete", 1.0) if dt is None else ("euler", dt)
    return integrate(_tmd_rate(spec), _mean_pullback(members),
                     SolverState(0, 0.0, ens.z_shared, ens.x_en), scheme,
                     n_steps * step, dt=step, target=_target_map(spec),
                     residual=lambda st, tx, k1: float(np.linalg.norm(tx - st.x)),
                     stop_residual=stop_residual, stride=stride,
                     recorder=partial(_Recorder, members[0].geometry, spec, problem,
                                      None))
