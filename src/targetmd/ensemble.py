"""Geometric ensembles: several mirror geometries advancing in parallel,
each on its own dual, and their reduction to a single run with a
synthesized mirror map.

Member k starts at the dual point z_k(0), and every member receives the
identical dual increment, computed from the design tuple evaluated at the
averaged primal state.  Member duals therefore keep their initial offsets:
member k sits at z + z_k(0), where z is one shared dual started at 0.

The reduction: the averaged state follows a single dual update pulled back
through the map z -> mean_k grad_h_conj_k(z + z_k(0)), started at z = 0.
That map is the conjugate gradient of a scaled-and-tilted infimal
convolution of the member potentials, so the ensemble inherits every
convergence property of the single run.  `synthesized_geometry` builds it
for any members that share a domain, and `run_ensemble` is that one run
(member k's dual is its final_state.z + z_k(0)).  `verify_ensemble_reduction`
checks the reported run itself: it steps the members in parallel on their
own duals for the run's steps at its dt and compares each recorded sample.

Both see the member duals as the rows of one (N, d) stack: the check steps
that stack, and the rate at the averaged state broadcasts into every row.
`_member_maps` carries the stack to the stack of member points with one
call per family: whole-space quadratics multiply by their stacked inverse
weights, entropy members take one row-wise softmax, and other members are
mapped one by one.  Each row has the bits of its member's own grad_h_conj
call, and the averaged state is the mean over the rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import List, Optional

import numpy as np

from .errors import ConfigurationError
from .geometry import MirrorGeometry, softmax
from .targets import TargetSpec, resolve_target
from .dynamics import (RunRecord, SolverState, _Recorder, dual_rate, flow,
                       integrate, run_discrete, state_from_dual)

Vector = np.ndarray


@dataclass(eq=False)
class EnsembleMember:
    geometry: MirrorGeometry
    z0: Vector


def make_members(geometries, z0s) -> List[EnsembleMember]:
    return [EnsembleMember(g, np.asarray(z, dtype=float))
            for g, z in zip(geometries, z0s)]


# The synthesized map's name per family.
_SYNTHESIZED_NAMES = {"quadratic": "synthesized_quadratic",
                      "entropy": "synthesized_entropy", None: "synthesized"}


def _family(members: List[EnsembleMember]) -> Optional[str]:
    """"quadratic" when every member is a whole-space quadratic, "entropy"
    when every member is the entropy geometry, None otherwise.  Read from
    each geometry's quadratic_weights and name, not from its grad_h_conj,
    which a wrapper may replace member by member."""
    if all(m.geometry.quadratic_weights is not None for m in members):
        return "quadratic"
    if all(m.geometry.name == "entropy" for m in members):
        return "entropy"
    return None


def _member_maps(members: List[EnsembleMember]):
    """The map from the (n, d) stack of member duals to the stack of member
    points, row k through member k's grad_h_conj and with its bits: one
    product with the stacked inverse weights for whole-space quadratics
    (a Euclidean member's weights are 1, and z * 1.0 is z), one row-wise
    softmax for entropy members, and a loop over the members otherwise."""
    family = _family(members)
    if family == "quadratic":
        inv_weights = 1.0 / np.array([m.geometry.quadratic_weights for m in members])
        return lambda duals: duals * inv_weights
    if family == "entropy":
        return softmax
    return lambda duals: np.array([m.geometry.grad_h_conj(z)
                                   for m, z in zip(members, duals)])


def _mean_of_members(members: List[EnsembleMember]):
    """duals -> the members' averaged point at the (n, d) stack of their
    duals.  The mean is np.mean(points, axis=0) bit for bit (the same sum,
    divided by the same count), without np.mean's dispatch: the ensemble
    maps take one such mean per step."""
    maps, n = _member_maps(members), len(members)
    return lambda duals: np.add.reduce(maps(duals), axis=0) / n


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
    when the member potentials coincide.  The map takes one dual point z.
    """
    _shared_dim(members)
    mean_of_members = _mean_of_members(members)
    offsets = np.array([m.z0 for m in members])
    family = _family(members)
    name = _SYNTHESIZED_NAMES[family]

    def grad_h_conj(z):
        return mean_of_members(z + offsets)

    if family == "quadratic":
        # conj(z) = a*z + b entrywise, with a the mean inverse weight (the
        # mean of the members' maps at duals of 1) and b = conj(0); invert
        # for the potential itself.
        a = mean_of_members(np.ones_like(offsets))
        b = mean_of_members(offsets)

        def grad_h(x):
            return (np.asarray(x, dtype=float) - b) / a

        def eval_h(x):
            d = np.asarray(x, dtype=float) - b
            return 0.5 * np.sum(d * d / a, axis=-1)

        return MirrorGeometry(
            eval_h=eval_h, grad_h=grad_h, grad_h_conj=grad_h_conj,
            strong_convexity_modulus=float(1.0 / a.max()),
            domain=members[0].geometry.domain, name=name,
            conj_jacobian_times=lambda x, v: v * a)

    def unsupported(_x):
        raise ConfigurationError(
            f"the {name} potential has no closed form; "
            "start runs from an explicit dual point")

    return MirrorGeometry(
        eval_h=unsupported, grad_h=unsupported, grad_h_conj=grad_h_conj,
        strong_convexity_modulus=float(1.0 / np.mean(
            [1.0 / m.geometry.strong_convexity_modulus for m in members])),
        domain=members[0].geometry.domain, name=name)


@dataclass(eq=False)
class ReductionReport:
    """Per-sample distance between the averaged ensemble state and the
    synthesized run's samples, the worst case over the run, the tolerance
    it is held to and the name of the synthesized map."""

    max_deviation: float
    deviations: Vector
    tolerance: float
    geometry_name: str


def verify_ensemble_reduction(members: List[EnsembleMember], spec: TargetSpec,
                              record: RunRecord) -> ReductionReport:
    """Check `record`, a run_ensemble run of these members, against the
    members run in parallel on their own duals, each moved by the rate at
    their averaged state: the same steps and scheme (discrete, euler or
    rk4) at the record's dt, every step kept and no target residual
    computed.  Report the deviation at each of the record's samples (inf
    at a sample the check's run did not reach because it diverged first),
    and the tolerance: 1e-9 for the quadratic family, 1e-8 otherwise,
    relative to the states' scale (a diverging run's rounding grows with
    it), that is times max(1, largest |entry| of record.states)."""
    _shared_dim(members)
    family = _family(members)
    mean_of_members = _mean_of_members(members)
    # the rate at the averaged state broadcasts into every row of the stack
    duals = np.array([m.z0 for m in members])
    together = integrate(
        partial(dual_rate, spec), mean_of_members,
        SolverState(0, 0.0, duals, mean_of_members(duals)),
        record.mode, record.final_state.step_index * record.dt, dt=record.dt,
        target=partial(resolve_target, spec),
        recorder=partial(_Recorder, None, None, None, None))
    reached = record.steps <= together.final_state.step_index
    deviations = np.full(len(record.steps), np.inf)
    with np.errstate(over="ignore"):  # a deviation past the float range reads inf
        deviations[reached] = np.linalg.norm(
            together.states[record.steps[reached]] - record.states[reached], axis=1)
    tolerance = ((1e-9 if family == "quadratic" else 1e-8)
                 * max(1.0, float(np.abs(record.states).max())))
    return ReductionReport(max_deviation=float(deviations.max()),
                           deviations=deviations, tolerance=tolerance,
                           geometry_name=_SYNTHESIZED_NAMES[family])


def run_ensemble(members: List[EnsembleMember], spec: TargetSpec,
                 dt: Optional[float] = None, **run) -> RunRecord:
    """The averaged state as one single run through the synthesized map from
    dual 0: run_discrete(..., **run), or with dt flow(..., dt=dt, **run).
    `run` holds that runner's own keywords (problem, n_steps, or integrator
    and t_end; stop_residual, stride, ...), and its defaults apply."""
    geometry = synthesized_geometry(members)
    state = state_from_dual(geometry, np.zeros(geometry.dim))
    if dt is None:
        return run_discrete(geometry, spec, state=state, **run)
    return flow(geometry, spec, state=state, dt=dt, **run)
