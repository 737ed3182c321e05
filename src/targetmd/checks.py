"""Sampled spot-checks of the design-tuple obligations.

Certifying monotonicity or stability of black-box operators is impossible,
so these checks refute when a counterexample shows up and stay silent
otherwise; a clean report means "consistent with", never "certified".
"""

from __future__ import annotations

import numpy as np

from .dynamics import relaxed_condition_value, run_discrete
from .errors import ConfigurationError, TargetMDError
from .geometry import MirrorGeometry
from .problems import VIProblem, natural_residual, sampled_monotonicity
from .targets import ResolventSolve, TargetSpec, resolve_target

REFUTE_TOL = 1e-9


def _dual_map_check(spec, samples):
    worst = sampled_monotonicity(spec.S, zip(samples[:-1], samples[1:]))[0]
    return {
        "min_ratio": worst,
        "claimed_modulus": spec.sigma,
        "strong_margin_observed": bool(worst > REFUTE_TOL),
        "refuted": bool(worst < -REFUTE_TOL),
    }


def _surrogate_stability_check(spec, samples, x_bar):
    if x_bar is None:
        return {"skipped": True, "reason": "no reference point available",
                "refuted": False}
    on_image = spec.phi_implicit
    worst = np.inf
    witness = None
    for s in samples:
        if on_image:
            # Phi has no pointwise form; evaluate on the target image where
            # the resolvent identity gives Phi(T(s)) = s - T(s).
            tx = resolve_target(spec, s)
            inner = float(np.dot(s - tx, tx - x_bar))
        else:
            inner = float(np.dot(spec.Phi(s), s - x_bar))
        if inner < worst:
            worst = inner
            witness = s
    refuted = worst < -REFUTE_TOL
    return {
        "skipped": False,
        "reference": [float(v) for v in np.atleast_1d(x_bar)],
        "min_inner": worst,
        "sampled_on_target_image": on_image,
        "witness": [float(v) for v in witness] if refuted else None,
        "refuted": bool(refuted),
    }


def _fixed_point_check(geometry, spec, problem, budget=5000):
    if spec.alpha == 0.0:
        return {"skipped": True, "reason": "no target mechanism (alpha = 0)",
                "refuted": False}
    try:
        record = run_discrete(geometry, spec, problem=problem,
                              n_steps=budget, stop_residual=1e-9)
    except TargetMDError as exc:
        return {"skipped": False, "converged": False, "refuted": False,
                "note": f"solver run failed: {exc}"}
    if record.termination != "converged":
        return {"skipped": False, "converged": False, "refuted": False,
                "note": "no fixed point located within the budget"}
    point = record.final_state.x
    residual_point = spec.shadow(point) if spec.shadow is not None else point
    res = natural_residual(problem, residual_point)
    return {
        "skipped": False,
        "converged": True,
        "fixed_point": [float(v) for v in point],
        "natural_residual": res,
        "at_shadow_point": spec.shadow is not None,
        "refuted": bool(res > 1e-6),
    }


def _target_resolution_check(spec, samples):
    if not isinstance(spec.target, ResolventSolve):
        return {"closed_form": True, "failures": 0, "refuted": False}
    failures = 0
    for s in samples:
        try:
            resolve_target(spec, s)
        except TargetMDError:
            failures += 1
    return {"closed_form": False, "failures": failures,
            "refuted": bool(failures > 0)}


def _descent_margin_check(spec, samples, x_bar, residual_tol=1e-8):
    if x_bar is None:
        return {"skipped": True, "reason": "no reference point available",
                "refuted": False}
    worst = np.inf
    nonpositive = 0
    evaluated = 0
    for s in samples:
        tx = resolve_target(spec, s)
        if float(np.linalg.norm(tx - s)) <= residual_tol:
            continue  # at (near-)solutions the margin legitimately vanishes
        value = relaxed_condition_value(spec, s, x_bar)
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
    fixed points with the original problem, solvability of the implicit
    target at sampled states, and the relaxed descent margin.
    """
    if n_samples < 2:
        raise ConfigurationError("need at least 2 samples")
    rng = np.random.default_rng(seed)
    # a solid interior margin keeps entropy-based designs (log, entrywise
    # division, exp of normalized payoffs) numerically evaluable
    samples = problem.feasible_set.sample_interior(rng, n_samples, margin=0.02)
    if x_bar is None and problem.known_solution is not None:
        x_bar = problem.known_solution
    report = {
        "seed": seed,
        "n_samples": n_samples,
        "dual_map_strong_monotonicity": _dual_map_check(spec, samples),
        "surrogate_stability": _surrogate_stability_check(spec, samples, x_bar),
        "fixed_point_consistency": _fixed_point_check(geometry, spec, problem),
        "target_resolution": _target_resolution_check(spec, samples),
        "descent_margin": _descent_margin_check(spec, samples, x_bar),
    }
    report["refuted"] = bool(any(section.get("refuted") for section in report.values()
                                 if isinstance(section, dict)))
    return report
