"""Experiment orchestration: build runs from configurations, execute them,
and serialize trajectories, summaries, and reports.  Each subcommand is one
row of COMMANDS; run_command does their shared bookkeeping once.

File contract: trajectories are CSV with header
step,time,x_0..x_{n-1},residual_target,residual_natural,lyapunov, floats
serialized with 17 significant digits, missing diagnostics left empty;
summaries and check reports are JSON.  Exit codes: 0 converged / within
tolerance, 2 budget exhausted, 1 error, refutation or a diverged run (a
non-finite dual point).
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from . import reference
from .checks import run_condition_checks
from .config import ExperimentConfig, echo_config, load_config
from .dynamics import (CONVERGED, DIVERGED, RunRecord, _finite_point, flow,
                       lyapunov_series, primal_vector_field, run_discrete,
                       run_dmd, run_higher_order, run_vanilla_dmd)
from .ensemble import EnsembleMember, run_ensemble, verify_ensemble_reduction
from .errors import ConfigurationError
from .geometry import (MirrorGeometry, entropy_geometry, euclidean_geometry,
                       weighted_quadratic_geometry)
from .problems import LIBRARY, SIMPLEX, WHOLE_SPACE, VIProblem, library_problem, whole_space
from .targets import (SplitPair, affine_box_split, preset_bnn,
                      preset_dmd_calibrated, preset_dr, preset_eg, preset_fb,
                      preset_fbf, preset_ppa, preset_vanilla_md, reference_point)

OUTPUT_DIR_ENV = "TARGETMD_OUT_DIR"

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_BUDGET = 2
# solve's exit code by termination; any other termination exits EXIT_BUDGET
EXIT_CODES = {CONVERGED: EXIT_OK, DIVERGED: EXIT_ERROR}

# Acceptance tolerances of compare: per-step iterations, sampled vector fields.
DISCRETE_COMPARE_TOL = 1e-9
FIELD_COMPARE_TOL = 1e-8

# CSV rows are formatted in blocks of about this many entries, which bounds
# the Python objects alive at once whatever the run's length.
CSV_BLOCK = 1 << 12

GEOMETRIES = {
    "euclidean": "half squared norm on the problem's set; mirror map = projection",
    "entropy": "negative entropy on the simplex; mirror map = softmax",
    "weighted_quadratic": "0.5 * sum w_i x_i^2 on the whole space",
}


# ---------------------------------------------------------------------------
# The preset table
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Preset:
    """Everything the harness knows about one preset.

    params maps each preset.<key> to its default.  build(geometry,
    problem, pair, p) returns the design tuple for the resolved parameters
    p.  Discrete mode runs run_discrete; flow mode runs the dynamics' flow,
    or flow(geometry, problem, spec, p, integrator=..., **run) when the row
    brings its own.  Such a row is flow_only: it runs in flow mode only,
    and neither drives an ensemble nor serves as a base.  ambient: the
    Euclidean state lives on the whole space.  compare checks the iterates
    against coded_step(geometry, problem, pair, p, x), the coded next one,
    or primal_vector_field against coded_field(...), the coded field.
    Callables look up what they call by name when they run, so rebinding a
    module attribute reaches them.
    """

    blurb: str
    params: dict
    build: Optional[Callable] = None
    flow: Optional[Callable] = None
    ambient: bool = False
    coded_step: Optional[Callable] = None
    coded_field: Optional[Callable] = None
    flow_only = property(lambda self: self.flow is not None)


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
    if base is None or base.flow_only:
        bases = ", ".join(name for name, row in PRESETS.items() if not row.flow_only)
        raise ConfigurationError(f"preset.base must be one of {bases}; got {p['base']!r}")
    own = PRESETS["higher_order"].params
    sub = ExperimentConfig(preset=p["base"], preset_params={
        key: value for key, value in p.items() if key not in own})
    return build_spec(sub, geometry, problem, pair)


def _eg_step(geometry, problem, pair, p, x):
    coded = (reference.eg_step_entropy if geometry.name == "entropy"
             else reference.eg_step_euclidean)
    eta2 = p["eta"] if p["eta2"] is None else p["eta2"]
    return coded(problem, p["eta"], eta2, x)


PRESETS = {
    "ppa": Preset(
        "proximal point: implicit target through grad_h + eta*F",
        {"eta": 0.1, "inner_tol": 1e-10},
        build=lambda g, pb, pair, p: preset_ppa(g, pb, **p),
        coded_step=lambda g, pb, pair, p, x: reference.ppa_step(pb, p["eta"], x)),
    "eg": Preset(
        "extragradient / mirror-prox (eta2 defaults to eta)",
        {"eta": 0.1, "eta2": None},
        build=lambda g, pb, pair, p: preset_eg(g, pb, p["eta"], p["eta2"]),
        coded_step=_eg_step),
    "dr": Preset(
        "Douglas-Rachford splitting (needs box_affine_split)", {"eta": 1.0},
        build=lambda g, pb, pair, p: preset_dr(_split(pair, "dr"), g.domain, **p),
        ambient=True,
        coded_step=lambda g, pb, pair, p, x: reference.dr_step(pair, p["eta"], x)),
    "fb": Preset(
        "forward-backward splitting (needs box_affine_split)", {"eta": 0.5},
        build=lambda g, pb, pair, p: preset_fb(_split(pair, "fb"), g.domain, **p),
        ambient=True,
        coded_step=lambda g, pb, pair, p, x: reference.fb_step(pair, p["eta"], x)),
    "bnn": Preset(
        "excess-payoff game dynamics on the simplex (entropy geometry)",
        {"eta": 1.0}, build=_bnn,
        coded_field=lambda g, pb, pair, p, x: reference.bnn_field(pb, x)),
    "fbf": Preset(
        "forward-backward-forward dynamics", {"eta": 0.1},
        build=lambda g, pb, pair, p: preset_fbf(pb, **p), ambient=True,
        coded_field=lambda g, pb, pair, p, x: reference.fbf_field(pb, p["eta"], x)),
    "vanilla_md": Preset(
        "plain mirror descent baseline (no correction)", {"eta": 0.1},
        build=lambda g, pb, pair, p: preset_vanilla_md(g, pb, **p)),
    "dmd_vanilla": Preset(
        "uncalibrated discounted baseline (misaligned equilibria)", {"gamma": 1.0},
        flow=lambda g, pb, spec, p, **run: run_vanilla_dmd(g, pb, **p, **run)),
    "dmd_calibrated": Preset(
        "discounted update recalibrated onto true solutions",
        {"eta": 1.0, "case": 1, "gamma": 1.0},
        build=lambda g, pb, pair, p: preset_dmd_calibrated(g, pb, p["eta"], p["case"]),
        flow=lambda g, pb, spec, p, **run: run_dmd(g, spec, p["gamma"], problem=pb, **run)),
    "higher_order": Preset(
        "second-order variant over a base preset",
        {"base": "eg", "gamma1": 1.0, "gamma2": 1.0}, build=_on_base,
        flow=lambda g, pb, spec, p, **run: run_higher_order(
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
    unknown = sorted(set(cfg.preset_params) - set(row.params))
    if unknown and "base" not in row.params:
        raise ConfigurationError(
            f"preset {cfg.preset!r} does not accept parameter(s) {unknown}")
    return row, {**row.params, **cfg.preset_params}


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
    domain = problem.feasible_set
    if cfg.geometry == "entropy" and domain.kind != SIMPLEX:
        raise ConfigurationError("entropy geometry lives on the simplex")
    if _resolve(cfg)[0].ambient:
        domain = whole_space(domain.dim)  # the constraint lives inside the target
    return _geometry(cfg.geometry, cfg.geometry_weights, domain)


def build_spec(cfg: ExperimentConfig, geometry: MirrorGeometry,
               problem: VIProblem, pair: Optional[SplitPair]):
    """Instantiate the design tuple named by the preset section; None for
    a preset that has none."""
    row, p = _resolve(cfg)
    return None if row.build is None else row.build(geometry, problem, pair, p)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def _write_rows(handle, labels, columns, tail: str = "") -> None:
    """One CSV line per label: the label, then every entry of the columns
    (arrays of one or more columns each) in that row at 17 significant
    digits, a NaN entry left empty, then tail.  Rows are formatted in
    blocks of about CSV_BLOCK entries, one str.format call per row."""
    width = sum(1 if np.ndim(c) == 1 else np.shape(c)[1] for c in columns)
    line = "{}" + ",{:.17g}" * width + tail + "\n"
    rows = max(1, CSV_BLOCK // width)
    for start in range(0, len(labels), rows):
        block = np.column_stack([c[start:start + rows] for c in columns]).tolist()
        text = "".join(line.format(label, *row)
                       for label, row in zip(labels[start:start + rows], block))
        handle.write(text.replace("nan", ""))  # no number's 17 digits hold "nan"


def write_trajectory_csv(path: Path, record: RunRecord) -> None:
    dim = record.states.shape[1]
    columns = (["step", "time"] + [f"x_{i}" for i in range(dim)]
               + ["residual_target", "residual_natural", "lyapunov"])
    values = [record.times, record.states, record.target_residuals,
              record.natural_residuals]
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(",".join(columns) + "\n")
        if record.lyapunov is None:
            _write_rows(handle, record.steps.tolist(), values, tail=",")
        else:
            _write_rows(handle, record.steps.tolist(), values + [record.lyapunov])


def _write_deviations(path: Path, deviations) -> None:
    deviations = np.asarray(deviations, dtype=float)
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("index,deviation\n")
        _write_rows(handle, range(len(deviations)), [deviations])


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


def _base_summary(record) -> dict:
    return {
        "termination": record.termination,
        "mode": record.mode,
        "dt": record.dt,
        "samples": int(record.states.shape[0]),
        "final_step": int(record.steps[-1]),
        "final_time": float(record.times[-1]),
        "final_target_residual": _final(record, "target_residuals"),
        "final_natural_residual": _final(record, "natural_residuals"),
    }


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _budget(cfg: ExperimentConfig) -> dict:
    """The runner keywords of the budget: budget.steps, or in flow mode the
    integrator, flow.dt and budget.t_end."""
    if cfg.mode == "discrete":
        return {"n_steps": cfg.steps}
    return {"integrator": cfg.integrator, "dt": cfg.dt, "t_end": cfg.t_end}


def _solve(cfg: ExperimentConfig):
    row, p = _resolve(cfg)
    problem, pair = build_problem(cfg)
    geometry = build_geometry(cfg, problem)
    spec = build_spec(cfg, geometry, problem, pair)
    if row.flow_only and cfg.mode != "flow":
        raise ConfigurationError(f"{cfg.preset} runs in flow mode")

    run = dict(x0=cfg.x0, reference=reference_point(spec, problem, cfg.lyapunov_reference),
               stop_residual=cfg.stop_residual, stride=cfg.effective_stride(),
               **_budget(cfg))
    if cfg.mode == "discrete":
        record = run_discrete(geometry, spec, problem=problem, **run)
    else:
        record = (row.flow(geometry, problem, spec, p, **run) if row.flow_only
                  else flow(geometry, spec, problem=problem, **run))

    summary = _base_summary(record)
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
        summary["final_point"] = [float(v) for v in record.final_state.x]
        summary["final_shadow_point"] = [float(v) for v in spec.shadow(record.final_state.x)]
    exit_code = EXIT_CODES.get(record.termination, EXIT_BUDGET)
    return exit_code, summary, {"trajectory.csv": (write_trajectory_csv, record)}


def _compare(cfg: ExperimentConfig):
    """The preset against its coded reference: per-step iterates from one
    shared initial point, or vector fields at sampled states (for simplex
    dynamics in the primal space, where normalization shifts in the dual
    cancel exactly)."""
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
        deviations = [np.linalg.norm(primal_vector_field(geometry, spec, x)
                                     - row.coded_field(geometry, problem, pair, p, x))
                      for x in samples]
    else:
        kind, tol = "per_step", DISCRETE_COMPARE_TOL
        if cfg.steps < 1:
            raise ConfigurationError("a per-step compare needs budget.steps >= 1")
        # stop_residual = 0 runs every step, also past an exact fixed point
        record = run_discrete(geometry, spec, x0=cfg.x0, n_steps=cfg.steps,
                              stop_residual=0.0)
        if record.termination == DIVERGED:
            return EXIT_ERROR, _base_summary(record), {}
        x_ref, deviations = record.states[0], []
        for x in record.states[1:]:
            x_ref = row.coded_step(geometry, problem, pair, p, x_ref)
            deviations.append(np.linalg.norm(x - x_ref))
    deviations = np.asarray(deviations, dtype=float)
    max_dev = float(deviations.max()) if deviations.size else 0.0
    summary = {"comparison": kind, "preset": cfg.preset, "max_deviation": max_dev,
               "tolerance": tol, "count": int(deviations.size)}
    return (EXIT_OK if max_dev <= tol else EXIT_ERROR, summary,
            {"deviations.csv": (_write_deviations, deviations)})


def _check(cfg: ExperimentConfig):
    problem, pair = build_problem(cfg)
    geometry = build_geometry(cfg, problem)
    spec = build_spec(cfg, geometry, problem, pair)
    if spec is None:
        raise ConfigurationError(f"preset {cfg.preset!r} has no design tuple to check")
    report = run_condition_checks(geometry, spec, problem,
                                  n_samples=cfg.check_samples, seed=cfg.seed,
                                  x_bar=cfg.lyapunov_reference)
    return EXIT_ERROR if report["refuted"] else EXIT_OK, report, {}


def _build_members(cfg: ExperimentConfig, problem: VIProblem):
    members = []
    dim = problem.feasible_set.dim
    for i, mc in enumerate(cfg.ensemble_members, start=1):
        try:
            geometry = _geometry(mc.geometry, mc.weights, whole_space(dim))
            z0 = _finite_point("z0", mc.z0 if mc.z0 else np.zeros(dim), dim)
        except ConfigurationError as exc:
            raise ConfigurationError(f"member {i}: {exc}") from None
        members.append(EnsembleMember(geometry, z0))
    return members


def _ensemble(cfg: ExperimentConfig):
    if not cfg.ensemble_members:
        raise ConfigurationError("ensemble runs need an ensemble member list")
    if _resolve(cfg)[0].flow_only:
        raise ConfigurationError(f"preset {cfg.preset!r} cannot drive an ensemble")
    problem, pair = build_problem(cfg)
    # The design tuple is evaluated at the averaged state, on the config's
    # geometry; the members bring their own run geometries.
    spec = build_spec(cfg, build_geometry(cfg, problem), problem, pair)
    members = _build_members(cfg, problem)
    record = run_ensemble(members, spec, problem=problem,
                          stop_residual=cfg.stop_residual,
                          stride=cfg.effective_stride(), **_budget(cfg))
    summary = _base_summary(record)
    summary["members"] = len(members)
    files = {"ensemble_trajectory.csv": (write_trajectory_csv, record)}
    exit_code = EXIT_ERROR if record.termination == DIVERGED else EXIT_OK
    if cfg.ensemble_verify:
        report = verify_ensemble_reduction(members, spec, record)
        summary["reduction_max_deviation"] = report.max_deviation
        summary["reduction_tolerance"] = report.tolerance
        summary["synthesized_geometry"] = report.geometry_name
        files["reduction_deviations.csv"] = (_write_deviations, report.deviations)
        if report.max_deviation > report.tolerance:
            exit_code = EXIT_ERROR
    return exit_code, summary, files


@dataclass(frozen=True)
class Command:
    """One subcommand: its help text, the files it may write (its JSON
    report last), its body run(cfg) -> (exit code, report, {csv file:
    (writer, data)}) and line(report), its stdout text before "  -> <dir>".
    Bodies look up what they call by name when they run."""

    help: str
    files: tuple
    run: Callable
    line: Callable


COMMANDS = {
    "solve": Command(
        "run one experiment", ("trajectory.csv", "summary.json"), _solve,
        lambda s: (f"{s['termination']}  target_residual={s['final_target_residual']}"
                   f"  natural_residual={s['final_natural_residual']}")),
    "compare": Command(
        "run a preset against its directly coded reference",
        ("deviations.csv", "summary.json"), _compare,
        lambda s: (f"max_deviation={s['max_deviation']:.3e} "
                   f"(tolerance {s['tolerance']:.1e})")),
    "check": Command(
        "sampled spot-checks of the design obligations", ("check_report.json",), _check,
        lambda r: "refuted" if r["refuted"] else "no refutation"),
    "ensemble": Command(
        "run a geometric ensemble, optionally verifying its single-run reduction",
        ("ensemble_trajectory.csv", "reduction_deviations.csv", "summary.json"),
        _ensemble,
        lambda s: s["termination"] + (
            f"  reduction_deviation={s['reduction_max_deviation']:.3e}"
            if "reduction_max_deviation" in s else "")),
}


def _loaded(cfg) -> ExperimentConfig:
    return cfg if isinstance(cfg, ExperimentConfig) else load_config(cfg)


def run_command(name: str, cfg):
    """Run COMMANDS[name] on cfg, an ExperimentConfig or a config file, and
    return (exit code, report, output directory).

    First delete the command's files, and no other, from its output
    directory (TARGETMD_OUT_DIR, else output.dir, also when the config
    fails to load after that line validated), so that a failed command
    leaves none of an earlier run's outputs.  Once
    the body has run, create the directory and write the CSVs, then the
    report with the config echo, the exit code, the wall-clock seconds of
    the whole command and, when a CSV was written, the files as `outputs`."""
    started = time.monotonic()
    command = COMMANDS[name]
    out = os.environ.get(OUTPUT_DIR_ENV)
    try:
        cfg = _loaded(cfg)
    except ConfigurationError as exc:
        out = out or getattr(exc, "output_dir", None)
        raise
    else:
        out = out or cfg.output_dir
    finally:
        for file in command.files if out else ():
            (Path(out) / file).unlink(missing_ok=True)
    out = Path(out)
    exit_code, report, written = command.run(cfg)
    out.mkdir(parents=True, exist_ok=True)
    for file, (writer, data) in written.items():
        writer(out / file, data)
    report.update(config=echo_config(cfg), exit_code=exit_code)
    if written:
        report["outputs"] = {file.replace(".", "_"): file
                             for file in (*written, command.files[-1])}
    report["wallclock_seconds"] = time.monotonic() - started
    write_json(out / command.files[-1], report)
    return exit_code, report, out


def catalog() -> dict:
    """Names and one-line descriptions for the list subcommand."""
    problems = {name: entry[2] for name, entry in sorted(LIBRARY.items())}
    problems["box_affine_split"] = ("scalar split pair: box normal cone + "
                                    "affine map; for DR/FB designs")
    presets = {name: row.blurb for name, row in PRESETS.items()}
    return {"problems": problems, "geometries": dict(GEOMETRIES), "presets": presets}
