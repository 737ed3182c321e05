"""Experiment orchestration: build runs from configurations, execute them,
and serialize trajectories, summaries, and reports.

File contract: trajectories are CSV with header
step,time,x_0..x_{n-1},residual_target,residual_natural,lyapunov, floats
serialized with 17 significant digits, missing diagnostics left empty;
summaries and check reports are JSON.  Exit codes: 0 converged / within
tolerance, 2 budget exhausted, 1 error or refutation.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from . import reference
from .checks import run_condition_checks
from .config import ExperimentConfig, echo_config
from .dynamics import (CONVERGED, RunRecord, dual_rate, flow, initial_state,
                       lyapunov_series, primal_vector_field, run_discrete,
                       run_dmd, run_higher_order, run_vanilla_dmd)
from .ensemble import (EnsembleMember, run_ensemble, synthesized_geometry,
                       verify_ensemble_reduction)
from .errors import ConfigurationError
from .geometry import (MirrorGeometry, entropy_geometry, euclidean_geometry,
                       weighted_quadratic_geometry)
from .problems import LIBRARY, VIProblem, library_problem, whole_space
from .targets import (SplitPair, affine_box_split, preset_bnn,
                      preset_dmd_calibrated, preset_dr, preset_eg, preset_fb,
                      preset_fbf, preset_ppa, preset_vanilla_md,
                      resolve_target)

OUTPUT_DIR_ENV = "TARGETMD_OUT_DIR"

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_BUDGET = 2

PRESET_NAMES = ("ppa", "eg", "eg_plus", "dr", "fb", "bnn", "fbf",
                "vanilla_md", "dmd_vanilla", "dmd_calibrated", "higher_order")

GEOMETRY_NAMES = ("euclidean", "entropy", "weighted_quadratic")

# Presets whose comparison baseline is a per-step iteration vs. a sampled
# vector field, with the respective acceptance tolerances.
DISCRETE_COMPARE_TOL = 1e-9
FIELD_COMPARE_TOL = 1e-8
_FIELD_PRESETS = ("bnn", "fbf")


@dataclass
class CliResult:
    exit_code: int
    summary: dict
    output_dir: Path


def resolve_output_dir(cfg: ExperimentConfig) -> Path:
    out = os.environ.get(OUTPUT_DIR_ENV) or cfg.output_dir
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def build_problem(cfg: ExperimentConfig):
    """Returns (problem, split_pair); the split pair is only present for
    the box_affine_split pseudo-problem used by DR/FB designs."""
    if cfg.problem == "box_affine_split":
        allowed = {"shift", "lower", "upper"}
        unknown = set(cfg.problem_params) - allowed
        if unknown:
            raise ConfigurationError(
                f"box_affine_split does not accept {sorted(unknown)}")
        pair, problem = affine_box_split(**cfg.problem_params)
        return problem, pair
    return library_problem(cfg.problem, **cfg.problem_params), None


def build_geometry(cfg: ExperimentConfig, problem: VIProblem) -> MirrorGeometry:
    params = dict(cfg.geometry_params)
    if cfg.geometry == "euclidean":
        if params:
            raise ConfigurationError("euclidean geometry takes no parameters")
        if cfg.preset in ("fbf", "dr", "fb"):
            # These designs keep the state in the ambient space; the
            # constraint (if any) lives inside the target.
            return euclidean_geometry(whole_space(problem.feasible_set.dim))
        return euclidean_geometry(problem.feasible_set)
    if cfg.geometry == "entropy":
        if params:
            raise ConfigurationError("entropy geometry takes no parameters")
        return entropy_geometry(problem.feasible_set.dim)
    if cfg.geometry == "weighted_quadratic":
        weights = params.pop("weights", None)
        if params or weights is None:
            raise ConfigurationError(
                "weighted_quadratic geometry needs exactly geometry.weights")
        if problem.feasible_set.kind != "whole_space":
            raise ConfigurationError(
                "weighted_quadratic geometry lives on the whole space")
        return weighted_quadratic_geometry(weights)
    raise ConfigurationError(
        f"unknown geometry {cfg.geometry!r}; available: {', '.join(GEOMETRY_NAMES)}")


def build_spec(cfg: ExperimentConfig, geometry: MirrorGeometry,
               problem: VIProblem, pair: Optional[SplitPair]):
    """Instantiate the design tuple named by the preset section."""
    params = dict(cfg.preset_params)
    name = cfg.preset

    def take(key, default=None):
        return params.pop(key, default)

    def done():
        if params:
            raise ConfigurationError(
                f"preset {name!r} does not accept parameter(s) {sorted(params)}")

    if name == "ppa":
        spec = preset_ppa(geometry, problem, take("eta", 0.1),
                          inner_tol=take("inner_tol", 1e-10),
                          inner_max_iter=int(take("inner_max_iter", 10_000)))
        done()
        return spec
    if name in ("eg", "eg_plus"):
        eta1 = take("eta1", take("eta", 0.1))
        eta2 = take("eta2", None)
        if name == "eg_plus" and eta2 is None:
            raise ConfigurationError("eg_plus needs preset.eta2")
        spec = preset_eg(geometry, problem, eta1, eta2)
        done()
        return spec
    if name in ("dr", "fb"):
        if pair is None:
            raise ConfigurationError(
                f"preset {name!r} needs the box_affine_split problem")
        eta = take("eta", 1.0 if name == "dr" else 0.5)
        if name == "dr":
            spec = preset_dr(pair, geometry.domain, eta)
        else:
            spec = preset_fb(pair, geometry.domain, eta)
        done()
        return spec
    if name == "bnn":
        if geometry.name != "entropy":
            raise ConfigurationError("the bnn preset requires the entropy geometry")
        spec = preset_bnn(problem, take("eta", 1.0))
        done()
        return spec
    if name == "fbf":
        spec = preset_fbf(problem, take("eta", 0.1))
        done()
        return spec
    if name == "vanilla_md":
        spec = preset_vanilla_md(geometry, problem, take("eta", 0.1))
        done()
        return spec
    if name == "dmd_calibrated":
        spec = preset_dmd_calibrated(geometry, problem, take("eta", 1.0),
                                     case=int(take("case", 1)))
        params.pop("gamma", None)  # consumed by the stepper
        done()
        return spec
    if name == "dmd_vanilla":
        for key in ("gamma",):
            params.pop(key, None)
        done()
        return None  # no design tuple; the baseline works straight off F
    if name == "higher_order":
        base = take("base", "eg")
        for key in ("gamma1", "gamma2"):
            params.pop(key, None)
        sub = ExperimentConfig(**{**cfg.__dict__, "preset": base,
                                  "preset_params": params})
        spec = build_spec(sub, geometry, problem, pair)
        return spec
    raise ConfigurationError(
        f"unknown preset {name!r}; available: {', '.join(PRESET_NAMES)}")


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def _fmt(value: float) -> str:
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return ""
    return f"{value:.17g}"


def write_trajectory_csv(path: Path, record: RunRecord) -> None:
    dim = record.states.shape[1]
    columns = (["step", "time"] + [f"x_{i}" for i in range(dim)]
               + ["residual_target", "residual_natural", "lyapunov"])
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(",".join(columns) + "\n")
        for i in range(record.states.shape[0]):
            row = [str(int(record.steps[i])), _fmt(float(record.times[i]))]
            row += [_fmt(float(v)) for v in record.states[i]]
            row.append(_fmt(float(record.target_residuals[i])))
            row.append(_fmt(float(record.natural_residuals[i])))
            row.append("" if record.lyapunov is None
                       else _fmt(float(record.lyapunov[i])))
            handle.write(",".join(row) + "\n")


def _finite_or_null(value):
    """value with every non-finite float, at any depth, replaced by None, so
    that the JSON written is strict (no bare NaN or Infinity)."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: _finite_or_null(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(item) for item in value]
    return value


def write_json(path: Path, payload: dict) -> None:
    """Write payload as strict JSON; non-finite numbers become null."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(_finite_or_null(payload), handle, indent=2, sort_keys=True,
                  allow_nan=False)
        handle.write("\n")


def _final(record: RunRecord, attr: str):
    values = getattr(record, attr)
    if values is None or len(values) == 0:
        return None
    v = float(values[-1])
    return None if math.isnan(v) else v


def _base_summary(cfg, record, started) -> dict:
    return {
        "config": echo_config(cfg),
        "termination": record.termination,
        "mode": record.mode,
        "dt": record.dt,
        "samples": int(record.states.shape[0]),
        "final_step": int(record.steps[-1]),
        "final_time": float(record.times[-1]),
        "final_target_residual": _final(record, "target_residuals"),
        "final_natural_residual": _final(record, "natural_residuals"),
        "wallclock_seconds": time.monotonic() - started,
    }


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def run_solve(cfg: ExperimentConfig) -> CliResult:
    started = time.monotonic()
    problem, pair = build_problem(cfg)
    geometry = build_geometry(cfg, problem)
    spec = build_spec(cfg, geometry, problem, pair)
    stride = cfg.effective_stride()

    reference_point = cfg.lyapunov_reference
    if reference_point is None and (spec is None or spec.shadow is None):
        # For shadow-style designs the known solution is NOT a reference
        # for the governing sequence, so it must be given explicitly.
        reference_point = problem.known_solution
    if reference_point is not None:
        reference_point = np.asarray(reference_point, dtype=float)

    gamma = cfg.preset_params.get("gamma", 1.0)
    if cfg.preset == "dmd_vanilla":
        if cfg.mode != "flow":
            raise ConfigurationError("dmd_vanilla runs in flow mode")
        record = run_vanilla_dmd(geometry, problem, gamma=gamma, dt=cfg.dt,
                                 t_end=cfg.t_end, x0=cfg.x0,
                                 reference=reference_point,
                                 stop_residual=cfg.stop_residual, stride=stride)
    elif cfg.preset == "dmd_calibrated":
        if cfg.mode != "flow":
            raise ConfigurationError("dmd_calibrated runs in flow mode")
        record = run_dmd(geometry, spec, gamma=gamma, dt=cfg.dt,
                         t_end=cfg.t_end, problem=problem, x0=cfg.x0,
                         reference=reference_point,
                         stop_residual=cfg.stop_residual, stride=stride)
    elif cfg.preset == "higher_order":
        if cfg.mode != "flow":
            raise ConfigurationError("higher_order runs in flow mode")
        record = run_higher_order(
            geometry, spec,
            gamma1=cfg.preset_params.get("gamma1", 1.0),
            gamma2=cfg.preset_params.get("gamma2", 1.0),
            dt=cfg.dt, t_end=cfg.t_end, problem=problem, x0=cfg.x0,
            reference=reference_point, stop_residual=cfg.stop_residual,
            stride=stride)
    elif cfg.mode == "discrete":
        record = run_discrete(geometry, spec, problem=problem, x0=cfg.x0,
                              n_steps=cfg.steps,
                              stop_residual=cfg.stop_residual, stride=stride,
                              reference=reference_point)
    else:
        record = flow(geometry, spec, integrator=cfg.integrator, dt=cfg.dt,
                      t_end=cfg.t_end, problem=problem, x0=cfg.x0,
                      reference=reference_point,
                      stop_residual=cfg.stop_residual, stride=stride)

    out = resolve_output_dir(cfg)
    trajectory = out / "trajectory.csv"
    write_trajectory_csv(trajectory, record)
    summary = _base_summary(cfg, record, started)
    # KL to the solution rises along the exact excess-payoff trajectory, so
    # the Bregman distance is no Lyapunov function of bnn runs
    if record.lyapunov is not None and spec is not None and spec.name != "bnn":
        report = lyapunov_series(record, geometry, reference_point, spec=spec)
        summary["lyapunov_violations"] = len(report.violations)
        summary["lyapunov_band"] = report.band
        summary["lyapunov_total_decrease"] = report.total_decrease
        summary["dissipation_integral"] = report.dissipation_integral
    else:
        summary["lyapunov_violations"] = None
    if spec is not None and spec.shadow is not None:
        # the trajectory is the governing sequence; solutions live at its
        # shadow image, so report both final points explicitly
        final_x = record.final_state.x
        summary["final_point"] = [float(v) for v in final_x]
        summary["final_shadow_point"] = [float(v) for v in spec.shadow(final_x)]
    exit_code = EXIT_OK if record.termination == CONVERGED else EXIT_BUDGET
    summary["exit_code"] = exit_code
    summary["outputs"] = {"trajectory_csv": trajectory.name,
                          "summary_json": "summary.json"}
    write_json(out / "summary.json", summary)
    return CliResult(exit_code, summary, out)


def _compare_discrete(cfg, geometry, problem, pair, spec):
    """Preset-driven stepping vs the directly coded iteration, from one
    shared initial point."""
    from .dynamics import step_discrete  # local import to avoid cycles

    state = initial_state(geometry, cfg.x0)
    x_ref = state.x.copy()
    eta = float(cfg.preset_params.get("eta", 0.1))
    eta1 = float(cfg.preset_params.get("eta1", eta))
    eta2 = float(cfg.preset_params.get("eta2", eta1))

    def reference_step(x):
        if cfg.preset == "ppa":
            return reference.ppa_step(problem, eta, x)
        if cfg.preset in ("eg", "eg_plus"):
            if geometry.name == "entropy":
                return reference.eg_step_entropy(problem, eta1, eta2, x)
            return reference.eg_step_euclidean(problem, eta1, eta2, x)
        if cfg.preset == "dr":
            return reference.dr_step(pair, float(cfg.preset_params.get("eta", 1.0)), x)
        if cfg.preset == "fb":
            return reference.fb_step(pair, float(cfg.preset_params.get("eta", 0.5)), x)
        raise ConfigurationError(f"no coded reference for preset {cfg.preset!r}")

    deviations = []
    for _ in range(cfg.compare_steps):
        state = step_discrete(geometry, spec, state)
        x_ref = reference_step(x_ref)
        deviations.append(float(np.linalg.norm(state.x - x_ref)))
    return np.asarray(deviations), DISCRETE_COMPARE_TOL


def _compare_fields(cfg, geometry, problem, spec):
    """Preset-driven vector field vs the directly coded one at sampled
    states; for simplex dynamics the comparison happens in the primal
    space, where normalization shifts in the dual cancel exactly."""
    rng = np.random.default_rng(cfg.seed)
    # margin keeps exponential payoff reweighting inside float range
    samples = problem.feasible_set.sample_interior(rng, cfg.compare_samples,
                                                   margin=0.02)
    eta = float(cfg.preset_params.get("eta", 1.0 if cfg.preset == "bnn" else 0.1))
    deviations = []
    for x in samples:
        if cfg.preset == "bnn":
            ours = primal_vector_field(geometry, spec, x)
            theirs = reference.bnn_field(problem, x)
        else:
            tx = resolve_target(spec, spec.feasible_set, x)
            ours = dual_rate(spec, x, tx)
            theirs = reference.fbf_field(problem, eta, x)
        deviations.append(float(np.linalg.norm(ours - theirs)))
    return np.asarray(deviations), FIELD_COMPARE_TOL


def run_compare(cfg: ExperimentConfig) -> CliResult:
    started = time.monotonic()
    if cfg.preset not in ("ppa", "eg", "eg_plus", "dr", "fb", "bnn", "fbf"):
        raise ConfigurationError(
            f"preset {cfg.preset!r} has no coded reference iteration")
    problem, pair = build_problem(cfg)
    geometry = build_geometry(cfg, problem)
    spec = build_spec(cfg, geometry, problem, pair)
    if cfg.preset in _FIELD_PRESETS:
        deviations, tol = _compare_fields(cfg, geometry, problem, spec)
        kind = "vector_field"
    else:
        deviations, tol = _compare_discrete(cfg, geometry, problem, pair, spec)
        kind = "per_step"
    out = resolve_output_dir(cfg)
    with open(out / "deviations.csv", "w", encoding="utf-8", newline="\n") as handle:
        handle.write("index,deviation\n")
        for i, d in enumerate(deviations):
            handle.write(f"{i},{_fmt(float(d))}\n")
    max_dev = float(deviations.max()) if deviations.size else 0.0
    exit_code = EXIT_OK if max_dev <= tol else EXIT_ERROR
    summary = {
        "config": echo_config(cfg),
        "comparison": kind,
        "preset": cfg.preset,
        "max_deviation": max_dev,
        "tolerance": tol,
        "count": int(deviations.size),
        "exit_code": exit_code,
        "wallclock_seconds": time.monotonic() - started,
        "outputs": {"deviations_csv": "deviations.csv",
                    "summary_json": "summary.json"},
    }
    write_json(out / "summary.json", summary)
    return CliResult(exit_code, summary, out)


def run_check(cfg: ExperimentConfig) -> CliResult:
    started = time.monotonic()
    problem, pair = build_problem(cfg)
    geometry = build_geometry(cfg, problem)
    spec = build_spec(cfg, geometry, problem, pair)
    if spec is None:
        raise ConfigurationError("dmd_vanilla has no design tuple to check")
    report = run_condition_checks(geometry, spec, problem,
                                  n_samples=cfg.check_samples, seed=cfg.seed,
                                  x_bar=cfg.check_x_bar)
    report["config"] = echo_config(cfg)
    report["wallclock_seconds"] = time.monotonic() - started
    exit_code = EXIT_OK if not report["refuted"] else EXIT_ERROR
    report["exit_code"] = exit_code
    out = resolve_output_dir(cfg)
    write_json(out / "check_report.json", report)
    return CliResult(exit_code, report, out)


def _build_members(cfg: ExperimentConfig, problem: VIProblem):
    members = []
    dim = problem.feasible_set.dim
    for i, mc in enumerate(cfg.ensemble_members, start=1):
        if mc.geometry == "euclidean":
            geometry = euclidean_geometry(whole_space(dim))
        elif mc.geometry == "weighted_quadratic":
            if mc.weights is None:
                raise ConfigurationError(f"member {i} needs weights")
            geometry = weighted_quadratic_geometry(mc.weights)
        elif mc.geometry == "entropy":
            geometry = entropy_geometry(dim)
        else:
            raise ConfigurationError(
                f"member {i}: unknown geometry {mc.geometry!r}")
        z0 = np.asarray(mc.z0 if mc.z0 else np.zeros(dim), dtype=float)
        if z0.size != dim:
            raise ConfigurationError(
                f"member {i}: z0 has size {z0.size}, expected {dim}")
        members.append(EnsembleMember(geometry, z0))
    return members


def run_ensemble_cmd(cfg: ExperimentConfig) -> CliResult:
    started = time.monotonic()
    if not cfg.ensemble_members:
        raise ConfigurationError("ensemble runs need an ensemble member list")
    problem, pair = build_problem(cfg)
    # The design tuple is evaluated at the averaged state; ensembles carry
    # per-member run geometries, so the tuple is built against a design
    # geometry matching the member family's domain.
    members_probe = cfg.ensemble_members[0].geometry
    if members_probe == "entropy":
        design_geometry = entropy_geometry(problem.feasible_set.dim)
    else:
        design_geometry = euclidean_geometry(whole_space(problem.feasible_set.dim))
    spec = build_spec(cfg, design_geometry, problem, pair)
    members = _build_members(cfg, problem)
    dt = cfg.dt if cfg.mode == "flow" else None

    record = run_ensemble(members, spec, problem=problem,
                          n_steps=cfg.ensemble_steps, dt=dt,
                          stop_residual=cfg.stop_residual,
                          stride=cfg.effective_stride())
    out = resolve_output_dir(cfg)
    write_trajectory_csv(out / "ensemble_trajectory.csv", record)
    summary = _base_summary(cfg, record, started)
    summary["members"] = len(members)
    exit_code = EXIT_OK
    if cfg.ensemble_verify:
        report = verify_ensemble_reduction(members, spec,
                                           n_steps=cfg.ensemble_steps, dt=dt)
        tol = 1e-9 if members[0].geometry.quadratic_weights is not None else 1e-8
        summary["reduction_max_deviation"] = report.max_deviation
        summary["reduction_tolerance"] = tol
        with open(out / "reduction_deviations.csv", "w", encoding="utf-8",
                  newline="\n") as handle:
            handle.write("index,deviation\n")
            for i, d in enumerate(report.deviations):
                handle.write(f"{i},{_fmt(float(d))}\n")
        single = synthesized_geometry(members)
        summary["synthesized_geometry"] = single.name
        if report.max_deviation > tol:
            exit_code = EXIT_ERROR
    summary["exit_code"] = exit_code
    summary["outputs"] = {"ensemble_trajectory_csv": "ensemble_trajectory.csv",
                          "summary_json": "summary.json"}
    write_json(out / "summary.json", summary)
    return CliResult(exit_code, summary, out)


def catalog() -> dict:
    """Names and one-line descriptions for the list subcommand."""
    problems = {name: entry[2] for name, entry in sorted(LIBRARY.items())}
    problems["box_affine_split"] = ("scalar split pair: box normal cone + "
                                    "affine map; for DR/FB designs")
    geometries = {
        "euclidean": "half squared norm on the problem's set; mirror map = projection",
        "entropy": "negative entropy on the simplex; mirror map = softmax",
        "weighted_quadratic": "0.5 * sum w_i x_i^2 on the whole space",
    }
    presets = {
        "ppa": "proximal point: implicit target through grad_h + eta*F",
        "eg": "extragradient / mirror-prox (eta1 = eta2)",
        "eg_plus": "extragradient with distinct probe/move step sizes",
        "dr": "Douglas-Rachford splitting (needs box_affine_split)",
        "fb": "forward-backward splitting (needs box_affine_split)",
        "bnn": "excess-payoff game dynamics on the simplex (entropy geometry)",
        "fbf": "forward-backward-forward dynamics",
        "vanilla_md": "plain mirror descent baseline (no correction)",
        "dmd_vanilla": "uncalibrated discounted baseline (misaligned equilibria)",
        "dmd_calibrated": "discounted update recalibrated onto true solutions",
        "higher_order": "second-order variant over a base preset",
    }
    return {"problems": problems, "geometries": geometries, "presets": presets}
