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
from functools import partial
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from . import reference
from .checks import run_condition_checks
from .config import ExperimentConfig, echo_config
from .dynamics import (CONVERGED, RunRecord, _Recorder, _target_map, _tmd_rate,
                       dual_rate, flow, initial_state, integrate,
                       lyapunov_series, primal_vector_field, run_discrete,
                       run_dmd, run_higher_order, run_vanilla_dmd)
from .ensemble import (EnsembleMember, run_ensemble, synthesized_geometry,
                       verify_ensemble_reduction)
from .errors import ConfigurationError
from .geometry import (MirrorGeometry, entropy_geometry, euclidean_geometry,
                       weighted_quadratic_geometry)
from .problems import LIBRARY, WHOLE_SPACE, VIProblem, library_problem, whole_space
from .targets import (SplitPair, affine_box_split, preset_bnn,
                      preset_dmd_calibrated, preset_dr, preset_eg, preset_fb,
                      preset_fbf, preset_ppa, preset_vanilla_md,
                      resolve_target)

OUTPUT_DIR_ENV = "TARGETMD_OUT_DIR"

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_BUDGET = 2

# Acceptance tolerances of compare: per-step iterations, sampled vector fields.
DISCRETE_COMPARE_TOL = 1e-9
FIELD_COMPARE_TOL = 1e-8

GEOMETRIES = {
    "euclidean": "half squared norm on the problem's set; mirror map = projection",
    "entropy": "negative entropy on the simplex; mirror map = softmax",
    "weighted_quadratic": "0.5 * sum w_i x_i^2 on the whole space",
}


@dataclass
class CliResult:
    exit_code: int
    summary: dict
    output_dir: Path


# ---------------------------------------------------------------------------
# The preset table
# ---------------------------------------------------------------------------

REQUIRED = object()  # parameter default: the preset cannot run without it


@dataclass(frozen=True)
class Preset:
    """Everything the harness knows about one preset.

    params maps each preset.<key> to its default; aliases holds (alias,
    key) pairs, of which a config gives at most one.  build(geometry,
    problem, pair, p) returns the design tuple for the resolved parameters
    p.  A runner replaces run_discrete / flow; its presets run in flow mode
    only and neither drive an ensemble nor serve as a base.  ambient: the
    Euclidean state lives on the whole space.  compare checks against
    coded_step(geometry, problem, pair, spec, p, x), the next iterate, or
    coded_field(...), the vector field minus the coded one.  Callables look
    up what they call by name when they run, so rebinding a module
    attribute reaches them.
    """

    blurb: str
    params: dict
    build: Optional[Callable] = None
    runner: Optional[Callable] = None
    ambient: bool = False
    coded_step: Optional[Callable] = None
    coded_field: Optional[Callable] = None
    aliases: tuple = ()   # (alias, key) pairs


def _split(pair: Optional[SplitPair], name: str) -> SplitPair:
    if pair is None:
        raise ConfigurationError(f"preset {name!r} needs the box_affine_split problem")
    return pair


def _bnn(geometry, problem, pair, p):
    if geometry.name != "entropy":
        raise ConfigurationError("the bnn preset requires the entropy geometry")
    return preset_bnn(problem, **p)


def _on_base(geometry, problem, pair, p):
    """The base preset's design tuple, built from the parameters that
    higher_order does not take itself."""
    base = PRESETS.get(p["base"])
    if base is None or base.runner is not None:
        bases = ", ".join(name for name, row in PRESETS.items() if row.runner is None)
        raise ConfigurationError(f"preset.base must be one of {bases}; got {p['base']!r}")
    own = PRESETS["higher_order"].params
    sub = ExperimentConfig(preset=p["base"], preset_params={
        key: value for key, value in p.items() if key not in own})
    return build_spec(sub, geometry, problem, pair)


def _eg_step(geometry, problem, pair, spec, p, x):
    coded = (reference.eg_step_entropy if geometry.name == "entropy"
             else reference.eg_step_euclidean)
    eta2 = p["eta1"] if p["eta2"] is None else p["eta2"]
    return coded(problem, p["eta1"], eta2, x)


PRESETS = {
    "ppa": Preset(
        "proximal point: implicit target through grad_h + eta*F",
        {"eta": 0.1, "inner_tol": 1e-10, "inner_max_iter": 10_000},
        build=lambda g, pb, pair, p: preset_ppa(g, pb, **p),
        coded_step=lambda g, pb, pair, spec, p, x: reference.ppa_step(pb, p["eta"], x)),
    "eg": Preset(
        "extragradient / mirror-prox (eta1 = eta2)", {"eta1": 0.1, "eta2": None},
        build=lambda g, pb, pair, p: preset_eg(g, pb, **p), coded_step=_eg_step,
        aliases=(("eta", "eta1"),)),
    "eg_plus": Preset(
        "extragradient with distinct probe/move step sizes",
        {"eta1": 0.1, "eta2": REQUIRED},
        build=lambda g, pb, pair, p: preset_eg(g, pb, **p), coded_step=_eg_step,
        aliases=(("eta", "eta1"),)),
    "dr": Preset(
        "Douglas-Rachford splitting (needs box_affine_split)", {"eta": 1.0},
        build=lambda g, pb, pair, p: preset_dr(_split(pair, "dr"), g.domain, **p),
        ambient=True,
        coded_step=lambda g, pb, pair, spec, p, x: reference.dr_step(pair, p["eta"], x)),
    "fb": Preset(
        "forward-backward splitting (needs box_affine_split)", {"eta": 0.5},
        build=lambda g, pb, pair, p: preset_fb(_split(pair, "fb"), g.domain, **p),
        ambient=True,
        coded_step=lambda g, pb, pair, spec, p, x: reference.fb_step(pair, p["eta"], x)),
    "bnn": Preset(
        "excess-payoff game dynamics on the simplex (entropy geometry)",
        {"eta": 1.0}, build=_bnn,
        coded_field=lambda g, pb, pair, spec, p, x: (
            primal_vector_field(g, spec, x) - reference.bnn_field(pb, x))),
    "fbf": Preset(
        "forward-backward-forward dynamics", {"eta": 0.1},
        build=lambda g, pb, pair, p: preset_fbf(pb, **p), ambient=True,
        coded_field=lambda g, pb, pair, spec, p, x: (
            dual_rate(spec, x, resolve_target(spec, x))
            - reference.fbf_field(pb, p["eta"], x))),
    "vanilla_md": Preset(
        "plain mirror descent baseline (no correction)", {"eta": 0.1},
        build=lambda g, pb, pair, p: preset_vanilla_md(g, pb, **p)),
    "dmd_vanilla": Preset(
        "uncalibrated discounted baseline (misaligned equilibria)", {"gamma": 1.0},
        runner=lambda g, pb, spec, p, **run: run_vanilla_dmd(g, pb, **p, **run)),
    "dmd_calibrated": Preset(
        "discounted update recalibrated onto true solutions",
        {"eta": 1.0, "case": 1, "gamma": 1.0},
        build=lambda g, pb, pair, p: preset_dmd_calibrated(g, pb, p["eta"], p["case"]),
        runner=lambda g, pb, spec, p, **run: run_dmd(
            g, spec, p["gamma"], problem=pb, **run)),
    "higher_order": Preset(
        "second-order variant over a base preset",
        {"base": "eg", "gamma1": 1.0, "gamma2": 1.0}, build=_on_base,
        runner=lambda g, pb, spec, p, **run: run_higher_order(
            g, spec, gamma1=p["gamma1"], gamma2=p["gamma2"], problem=pb, **run)),
}


def _resolve(cfg: ExperimentConfig):
    """(row, parameters) of cfg's preset: its preset.<key> values over the
    row's defaults.  A row with a `base` parameter hands the keys it does
    not know on to its base preset."""
    row = PRESETS.get(cfg.preset)
    if row is None:
        raise ConfigurationError(
            f"unknown preset {cfg.preset!r}; available: {', '.join(PRESETS)}")
    given = dict(cfg.preset_params)
    for alias, key in row.aliases:
        if alias in given:
            if key in given:
                raise ConfigurationError(f"preset {cfg.preset!r} takes "
                                         f"preset.{alias} or preset.{key}, not both")
            given[key] = given.pop(alias)
    unknown = sorted(set(given) - set(row.params))
    if unknown and "base" not in row.params:
        raise ConfigurationError(
            f"preset {cfg.preset!r} does not accept parameter(s) {unknown}")
    p = {**row.params, **given}
    missing = [key for key, value in p.items() if value is REQUIRED]
    if missing:
        raise ConfigurationError(f"{cfg.preset} needs preset.{missing[0]}")
    return row, p


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


def _geometry(name: str, weights, domain) -> MirrorGeometry:
    """The named mirror geometry on domain; only weighted_quadratic takes
    weights, one per dimension."""
    if name not in GEOMETRIES:
        raise ConfigurationError(
            f"unknown geometry {name!r}; available: {', '.join(GEOMETRIES)}")
    if (weights is None) == (name == "weighted_quadratic"):
        raise ConfigurationError(f"{name} geometry needs weights" if weights is None
                                 else f"{name} geometry takes no weights")
    if name == "euclidean":
        return euclidean_geometry(domain)
    if name == "entropy":
        return entropy_geometry(domain.dim)
    if domain.kind != WHOLE_SPACE:
        raise ConfigurationError("weighted_quadratic geometry lives on the whole space")
    if np.size(weights) != domain.dim:
        raise ConfigurationError(
            f"weights have {np.size(weights)} entries; the problem has "
            f"dimension {domain.dim}")
    return weighted_quadratic_geometry(weights)


def build_geometry(cfg: ExperimentConfig, problem: VIProblem) -> MirrorGeometry:
    params = dict(cfg.geometry_params)
    weights = params.pop("weights", None)
    if params:
        raise ConfigurationError(
            f"geometry {cfg.geometry!r} does not accept parameter(s) {sorted(params)}")
    domain = problem.feasible_set
    if _resolve(cfg)[0].ambient:
        domain = whole_space(domain.dim)  # the constraint lives inside the target
    return _geometry(cfg.geometry, weights, domain)


def build_spec(cfg: ExperimentConfig, geometry: MirrorGeometry,
               problem: VIProblem, pair: Optional[SplitPair]):
    """Instantiate the design tuple named by the preset section; None for
    a preset that has none."""
    row, p = _resolve(cfg)
    return None if row.build is None else row.build(geometry, problem, pair, p)


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


def _write_deviations(path: Path, deviations) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("index,deviation\n")
        for i, d in enumerate(deviations):
            handle.write(f"{i},{_fmt(float(d))}\n")


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
    row, p = _resolve(cfg)
    problem, pair = build_problem(cfg)
    geometry = build_geometry(cfg, problem)
    spec = build_spec(cfg, geometry, problem, pair)
    if row.runner is not None and cfg.mode != "flow":
        raise ConfigurationError(f"{cfg.preset} runs in flow mode")
    stride = cfg.effective_stride()

    reference_point = cfg.lyapunov_reference
    if reference_point is None and (spec is None or spec.shadow is None):
        # For shadow-style designs the known solution is NOT a reference
        # for the governing sequence, so it must be given explicitly.
        reference_point = problem.known_solution
    if reference_point is not None:
        reference_point = np.asarray(reference_point, dtype=float)

    run = dict(x0=cfg.x0, reference=reference_point,
               stop_residual=cfg.stop_residual, stride=stride)
    if cfg.mode == "discrete":
        record = run_discrete(geometry, spec, problem=problem, n_steps=cfg.steps, **run)
    elif row.runner is not None:
        record = row.runner(geometry, problem, spec, p, dt=cfg.dt, t_end=cfg.t_end, **run)
    else:
        record = flow(geometry, spec, integrator=cfg.integrator, dt=cfg.dt,
                      t_end=cfg.t_end, problem=problem, **run)

    out = resolve_output_dir(cfg)
    trajectory = out / "trajectory.csv"
    write_trajectory_csv(trajectory, record)
    summary = _base_summary(cfg, record, started)
    # KL to the solution rises along the exact excess-payoff trajectory, so
    # the Bregman distance is no Lyapunov function of bnn runs
    if record.lyapunov is not None and spec is not None and spec.name != "bnn":
        report = lyapunov_series(record, spec=spec)
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


def run_compare(cfg: ExperimentConfig) -> CliResult:
    """The preset against its coded reference: per-step iterates from one
    shared initial point, or vector fields at sampled states (for simplex
    dynamics in the primal space, where normalization shifts in the dual
    cancel exactly)."""
    started = time.monotonic()
    row, p = _resolve(cfg)
    if row.coded_step is None and row.coded_field is None:
        raise ConfigurationError(
            f"preset {cfg.preset!r} has no coded reference iteration")
    problem, pair = build_problem(cfg)
    geometry = build_geometry(cfg, problem)
    spec = build_spec(cfg, geometry, problem, pair)
    if row.coded_field is not None:
        kind, tol = "vector_field", FIELD_COMPARE_TOL
        # margin keeps exponential payoff reweighting inside float range
        samples = problem.feasible_set.sample_interior(
            np.random.default_rng(cfg.seed), cfg.compare_samples, margin=0.02)
        deviations = [np.linalg.norm(row.coded_field(geometry, problem, pair, spec, p, x))
                      for x in samples]
    else:
        kind, tol = "per_step", DISCRETE_COMPARE_TOL
        # every step is compared, so the driver run has no stop residual
        record = integrate(_tmd_rate(spec), geometry.grad_h_conj,
                           initial_state(geometry, cfg.x0), "discrete",
                           cfg.compare_steps, target=_target_map(spec),
                           recorder=partial(_Recorder, geometry, None, None, None))
        x_ref, deviations = record.states[0], []
        for x in record.states[1:]:
            x_ref = row.coded_step(geometry, problem, pair, spec, p, x_ref)
            deviations.append(np.linalg.norm(x - x_ref))
    deviations = np.asarray(deviations, dtype=float)
    out = resolve_output_dir(cfg)
    _write_deviations(out / "deviations.csv", deviations)
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
        raise ConfigurationError(f"preset {cfg.preset!r} has no design tuple to check")
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
        try:
            geometry = _geometry(mc.geometry, mc.weights, whole_space(dim))
        except ConfigurationError as exc:
            raise ConfigurationError(f"member {i}: {exc}") from None
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
    if _resolve(cfg)[0].runner is not None:
        raise ConfigurationError(f"preset {cfg.preset!r} cannot drive an ensemble")
    if cfg.mode == "flow" and cfg.integrator != "euler":
        raise ConfigurationError(f"flow.integrator = {cfg.integrator}: ensemble "
                                 "flows integrate with euler only")
    problem, pair = build_problem(cfg)
    # The design tuple is evaluated at the averaged state; ensembles carry
    # per-member run geometries, so the tuple is built against a design
    # geometry matching the member family's domain.
    design = "entropy" if cfg.ensemble_members[0].geometry == "entropy" else "euclidean"
    spec = build_spec(cfg, _geometry(design, None, whole_space(problem.feasible_set.dim)),
                      problem, pair)
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
        _write_deviations(out / "reduction_deviations.csv", report.deviations)
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
    presets = {name: row.blurb for name, row in PRESETS.items()}
    return {"problems": problems, "geometries": dict(GEOMETRIES), "presets": presets}
