"""Sampled spot-checks of the design-tuple obligations.

Certifying monotonicity or stability of black-box operators is impossible,
so these checks refute when a counterexample shows up and stay silent
otherwise; a clean report means "consistent with", never "certified".
"""

from __future__ import annotations

import numpy as np

from .dynamics import _finite_point, relaxed_condition_value, run_discrete
from .errors import ConfigurationError, TargetMDError
from .geometry import MirrorGeometry
from .problems import VIProblem, sampled_monotonicity
from .targets import ResolventSolve, TargetSpec, reference_point, resolve_target

REFUTE_TOL = 1e-9
FIXED_POINT_BUDGET = 5000  # steps of the run that locates a fixed point
NEAR_SOLUTION_GAP = 1e-8  # a sample this close to its target is a (near-)solution


def _dual_map_check(spec, samples):
    worst = sampled_monotonicity(spec.S, samples[:-1], samples[1:])[0]
    return {
        "min_ratio": worst,
        "claimed_modulus": spec.sigma,
        "strong_margin_observed": bool(worst > REFUTE_TOL),
        "refuted": bool(worst < -REFUTE_TOL),
    }


def _surrogate_stability_check(spec, samples, targets, x_bar):
    on_image = spec.Phi is None  # no pointwise Phi: evaluate it on the target image
    worst, witness = np.inf, None
    for s, tx in zip(samples, targets):
        if on_image and tx is None:
            continue  # no target; counted by the resolution check
        inner = float(np.dot(spec.phi_at_target(s, tx), tx - x_bar) if on_image
                      else np.dot(spec.Phi(s), s - x_bar))
        if inner < worst:
            worst, witness = inner, s
    refuted = worst < -REFUTE_TOL
    return {
        "skipped": False,
        "reference": [float(v) for v in np.atleast_1d(x_bar)],
        "min_inner": worst,
        "sampled_on_target_image": on_image,
        "witness": [float(v) for v in witness] if refuted else None,
        "refuted": bool(refuted),
    }


def _fixed_point_check(geometry, spec, problem):
    if spec.alpha == 0.0:
        return {"skipped": True, "reason": "no target mechanism (alpha = 0)",
                "refuted": False}
    try:
        record = run_discrete(geometry, spec, problem=problem,
                              n_steps=FIXED_POINT_BUDGET, stop_residual=1e-9)
    except TargetMDError as exc:
        return {"skipped": False, "converged": False, "refuted": False,
                "note": f"solver run failed: {exc}"}
    if record.termination != "converged":
        return {"skipped": False, "converged": False, "refuted": False,
                "note": f"no fixed point located: the run ended {record.termination}"}
    res = float(record.natural_residuals[-1])  # the final point's, at its shadow if any
    return {
        "skipped": False,
        "converged": True,
        "fixed_point": [float(v) for v in record.final_state.x],
        "natural_residual": res,
        "at_shadow_point": spec.shadow is not None,
        "refuted": bool(res > 1e-6),
    }


def _resolve_samples(spec, samples):
    """T(s) for each sample, resolved once; None where it raised."""
    targets = []
    for s in samples:
        try:
            targets.append(resolve_target(spec, s)[0])
        except TargetMDError:
            targets.append(None)
    return targets


def _target_resolution_check(spec, targets):
    failures = sum(tx is None for tx in targets)
    return {"closed_form": not isinstance(spec.target, ResolventSolve),
            "failures": failures, "refuted": bool(failures > 0)}


def _descent_margin_check(spec, samples, targets, x_bar):
    worst, nonpositive, evaluated = np.inf, 0, 0
    for s, tx in zip(samples, targets):
        if tx is None or float(np.linalg.norm(tx - s)) <= NEAR_SOLUTION_GAP:
            continue  # at (near-)solutions the margin legitimately vanishes
        value = relaxed_condition_value(spec, s, x_bar, tx)
        evaluated += 1
        worst = min(worst, value)
        if value <= 0.0:
            nonpositive += 1
    return {
        "skipped": False,
        "evaluated": evaluated,
        "norm": "euclidean",  # the margin is evaluated in the 2-norm
        "min_value": None if evaluated == 0 else worst,
        "nonpositive_at_nonsolutions": nonpositive,
        "refuted": bool(nonpositive > 0),
    }


def run_condition_checks(geometry: MirrorGeometry, spec: TargetSpec,
                         problem: VIProblem, n_samples: int = 200,
                         seed: int = 0, x_bar=None) -> dict:
    """Spot-check every obligation of a design tuple on sampled states.

    Covers: strong monotonicity of the dual map S, variational stability
    of the surrogate Phi against a reference point, consistency of located
    fixed points with the original problem, solvability of the target at
    sampled states, and the relaxed descent margin.  Each sample's target
    is resolved once and serves every check; a sample whose resolution
    raises counts as a resolution failure and is left out of the others.
    x_bar defaults as for solve (targets.reference_point): to the known
    solution, unless the design has a shadow (dr).  Without a reference
    point the stability and descent sections are skipped.
    """
    if n_samples < 2:
        raise ConfigurationError("need at least 2 samples")
    rng = np.random.default_rng(seed)
    # a solid interior margin keeps entropy-based designs (log, entrywise
    # division, exp of normalized payoffs) numerically evaluable
    samples = problem.feasible_set.sample_interior(rng, n_samples, margin=0.02)
    x_bar = reference_point(spec, problem, x_bar)
    if x_bar is not None:
        x_bar = _finite_point("reference", x_bar, geometry.dim)
    targets = _resolve_samples(spec, samples)

    def against_reference(check):
        if x_bar is None:
            return {"skipped": True, "reason": "no reference point available",
                    "refuted": False}
        return check(spec, samples, targets, x_bar)

    report = {
        "seed": seed,
        "n_samples": n_samples,
        "dual_map_strong_monotonicity": _dual_map_check(spec, samples),
        "surrogate_stability": against_reference(_surrogate_stability_check),
        "fixed_point_consistency": _fixed_point_check(geometry, spec, problem),
        "target_resolution": _target_resolution_check(spec, targets),
        "descent_margin": against_reference(_descent_margin_check),
    }
    report["refuted"] = bool(any(section.get("refuted") for section in report.values()
                                 if isinstance(section, dict)))
    return report
