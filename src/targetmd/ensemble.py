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
convergence property of the single run.  `synthesized_geometry` builds it
for any members that share a domain, `run_ensemble` runs it, and
`verify_ensemble_reduction` checks it against the members run in
parallel on their own duals.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import List, Optional

import numpy as np

from .errors import ConfigurationError
from .geometry import MirrorGeometry
from .problems import VIProblem
from .targets import TargetSpec
from .dynamics import (SCHEMES, RunRecord, SolverState, _Recorder, _target_map,
                       _tmd_rate, dual_rate, flow, integrate, run_discrete,
                       state_from_dual, DEFAULT_STOP_RESIDUAL)

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


def _shared_dim(members: List[EnsembleMember]) -> int:
    """The members' common dimension; they must also share one domain."""
    if not members:
        raise ConfigurationError("ensemble needs at least one member")
    dim = members[0].geometry.dim
    kind = members[0].geometry.domain.kind
    for m in members:
        if m.geometry.dim != dim or m.z0.size != dim:
            raise ConfigurationError("all members must share one dimension")
        if m.geometry.domain.kind != kind:
            raise ConfigurationError("all members must share one domain")
    return dim


def init_ensemble(members: List[EnsembleMember]) -> EnsembleState:
    z_shared = np.zeros(_shared_dim(members))
    xs = [m.geometry.grad_h_conj(z_shared + m.z0) for m in members]
    return EnsembleState(members=members, z_shared=z_shared, xs=xs,
                         x_en=np.mean(xs, axis=0))


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
    """The single mirror geometry whose map is the averaged state at the
    shared dual z:

        conj(z) = (1/N) * sum_k grad_h_conj_k(z + z_k(0)).

    Any members that share a domain qualify.  Each grad_h_conj_k is
    1/mu_k-Lipschitz, so the modulus is 1 / mean_k(1/mu_k).  When every
    member is a whole-space quadratic (weights w_k) the map is affine and
    the full potential (values, gradient, Jacobian, modulus) is recovered
    exactly.  Otherwise the potential has no elementary form: eval_h and
    grad_h raise, and runs start from an explicit dual point.  Distinct
    initial duals make the map differ from any single member's map even
    when the member potentials coincide.
    """
    dim = _shared_dim(members)

    def grad_h_conj(z):
        return np.mean([m.geometry.grad_h_conj(z + m.z0) for m in members], axis=0)

    if all(m.geometry.quadratic_weights is not None for m in members):
        # conj(z) = a*z + b entrywise; invert for the potential itself.
        inv_weights = [1.0 / m.geometry.quadratic_weights for m in members]
        a = np.mean(inv_weights, axis=0)
        b = np.mean([iw * m.z0 for iw, m in zip(inv_weights, members)], axis=0)

        def grad_h(x):
            return (np.asarray(x, dtype=float) - b) / a

        def eval_h(x):
            d = np.asarray(x, dtype=float) - b
            return 0.5 * float(np.sum(d * d / a))

        return MirrorGeometry(
            dim=dim, eval_h=eval_h, grad_h=grad_h, grad_h_conj=grad_h_conj,
            strong_convexity_modulus=float(1.0 / a.max()),
            domain=members[0].geometry.domain, name="synthesized_quadratic",
            conj_jacobian=lambda x: np.diag(a))

    name = ("synthesized_entropy" if all(m.geometry.name == "entropy" for m in members)
            else "synthesized")

    def unsupported(_x):
        raise ConfigurationError(
            f"the {name} potential has no closed form; "
            "start runs from an explicit dual point")

    return MirrorGeometry(
        dim=dim, eval_h=unsupported, grad_h=unsupported, grad_h_conj=grad_h_conj,
        strong_convexity_modulus=float(1.0 / np.mean(
            [1.0 / m.geometry.strong_convexity_modulus for m in members])),
        domain=members[0].geometry.domain, name=name)


@dataclass(eq=False)
class ReductionReport:
    """Per-sample distance between the averaged ensemble state and the
    synthesized single run, plus the worst case over the horizon."""

    max_deviation: float
    deviations: Vector


def verify_ensemble_reduction(members: List[EnsembleMember], spec: TargetSpec,
                              n_steps: int = 1000,
                              dt: Optional[float] = None) -> ReductionReport:
    """Run the members in parallel on their own duals, each moved by the
    rate at their averaged state, and the synthesized single run (dual 0,
    at the parallel run's final dt, no halving) through `integrate`; report
    the per-sample deviation.  Tolerances are the caller's business."""
    geometry = synthesized_geometry(members)
    n, dim = len(members), geometry.dim
    scheme, step = ("discrete", 1.0) if dt is None else ("euler", dt)
    t_end = n_steps * step

    def run(rate, pullback, state, step, max_halvings=8):
        return integrate(rate, pullback, state, scheme, t_end, dt=step,
                         target=_target_map(spec), max_halvings=max_halvings,
                         recorder=partial(_Recorder, geometry, None, None, None))

    def mean_of_members(duals):
        return np.mean([m.geometry.grad_h_conj(z)
                        for m, z in zip(members, duals.reshape(n, dim))], axis=0)

    duals = np.concatenate([m.z0 for m in members])
    together = run(lambda zs, x, tx, sx: np.tile(dual_rate(spec, x, tx, sx), n),
                   mean_of_members,
                   SolverState(0, 0.0, duals, mean_of_members(duals)), step)
    single = run(_tmd_rate(spec), geometry.grad_h_conj,
                 state_from_dual(geometry, np.zeros(dim)), together.dt,
                 max_halvings=0)
    deviations = np.linalg.norm(together.states - single.states, axis=1)
    return ReductionReport(max_deviation=float(deviations.max()),
                           deviations=deviations)


def run_ensemble(members: List[EnsembleMember], spec: TargetSpec,
                 problem: Optional[VIProblem] = None, n_steps: int = 1000,
                 dt: Optional[float] = None,
                 stop_residual: float = DEFAULT_STOP_RESIDUAL,
                 stride: int = 1) -> RunRecord:
    """The averaged state as one single run through the synthesized map from
    dual 0: n_steps discrete steps, or with dt an Euler flow to n_steps*dt."""
    geometry = synthesized_geometry(members)
    state = state_from_dual(geometry, np.zeros(geometry.dim))
    if dt is None:
        return run_discrete(geometry, spec, problem=problem, n_steps=n_steps,
                            stop_residual=stop_residual, stride=stride, state=state)
    return flow(geometry, spec, state=state, dt=dt, t_end=n_steps * dt,
                problem=problem, stop_residual=stop_residual, stride=stride)
