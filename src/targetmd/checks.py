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
        "strong_margin_observed": bool(REFUTE_TOL < worst < np.inf),
        "refuted": bool(worst < -REFUTE_TOL),
    }


def _surrogate_stability_check(spec, samples, targets, x_bar):
    on_image = spec.Phi is None  # no pointwise Phi: evaluate it on the target image
    inner = (np.vecdot(spec.phi_at_target(samples, targets), targets - x_bar) if on_image
             else np.vecdot(spec.Phi(samples), samples - x_bar))
    worst = float(np.fmin.reduce(inner, initial=np.inf))  # NaN: an unresolved target
    refuted = worst < -REFUTE_TOL
    return {
        "skipped": False,
        "reference": [float(v) for v in np.atleast_1d(x_bar)],
        "min_inner": worst,
        "sampled_on_target_image": on_image,
        "witness": samples[np.argmax(inner == worst)].tolist() if refuted else None,
        "refuted": bool(refuted),
    }


def _fixed_point_check(geometry, spec, problem):
    if spec.alpha == 0.0:
        return {"skipped": True, "reason": "no target mechanism (alpha = 0)",
                "refuted": False}
    try:
        record = run_discrete(geometry, spec, problem=problem,
                              n_steps=FIXED_POINT_BUDGET, stop_residual=1e-9,
                              stride=FIXED_POINT_BUDGET)  # keep the start and the end
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
    """T(s) for each sample, resolved once, as the rows of one array: a row
    of NaN where the resolution raised or returned a non-finite point."""
    targets = np.full(samples.shape, np.nan)
    for i, s in enumerate(samples):
        try:
            targets[i] = resolve_target(spec, s)[0]
        except TargetMDError:
            pass
    targets[~np.isfinite(targets).all(axis=1)] = np.nan
    return targets


def _target_resolution_check(spec, targets):
    failures = int(np.isnan(targets[:, 0]).sum())
    return {"closed_form": not isinstance(spec.target, ResolventSolve),
            "failures": failures, "refuted": bool(failures > 0)}


def _descent_margin_check(spec, samples, targets, x_bar):
    gap = targets - samples  # at (near-)solutions the margin legitimately vanishes
    kept = np.sqrt(np.vecdot(gap, gap)) > NEAR_SOLUTION_GAP  # False on NaN rows
    values = (relaxed_condition_value(spec, samples[kept], x_bar, targets[kept])
              if kept.any() else np.empty(0))
    nonpositive = int((values <= 0.0).sum())
    return {
        "skipped": False,
        "evaluated": values.size,
        "norm": "euclidean",  # the margin is evaluated in the 2-norm
        "min_value": float(np.fmin.reduce(values, initial=np.inf)) if values.size else None,
        "nonpositive_at_nonsolutions": nonpositive,
        "refuted": nonpositive > 0,
    }


def run_condition_checks(geometry: MirrorGeometry, spec: TargetSpec,
                         problem: VIProblem, n_samples: int = 200,
                         seed: int = 0, x_bar=None) -> dict:
    """Spot-check every obligation of a design tuple on sampled states.

    Covers: strong monotonicity of the dual map S, variational stability
    of the surrogate Phi against a reference point, consistency of located
    fixed points with the original problem, solvability of the target at
    sampled states, and the relaxed descent margin.  Each sample's target
    is resolved once, into a row of one (n, d) stack; a row of NaN, where
    the resolution raised or returned a non-finite point, counts as a
    resolution failure, and its NaN leaves it out of the other checks.
    S, Phi and the margins are evaluated on the stacks, as in the stepping
    loop with numpy's overflow and invalid-value warnings silenced.
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

    def against_reference(check):
        if x_bar is None:
            return {"skipped": True, "reason": "no reference point available",
                    "refuted": False}
        return check(spec, samples, targets, x_bar)

    with np.errstate(over="ignore", invalid="ignore"):
        targets = _resolve_samples(spec, samples)
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
