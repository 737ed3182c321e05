import dataclasses
import itertools
import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from targetmd import (config, echo_config, library_problem, load_config,
                      parse_config, preset_dr, preset_eg, preset_fb, preset_fbf,
                      run_condition_checks, run_higher_order,
                      euclidean_geometry, whole_space, TargetSpec, ClosedForm,
                      affine_box_split)
from targetmd import harness
from targetmd.targets import reference_point
from targetmd.cli import main
from targetmd.dynamics import BUDGET, CONVERGED, DIVERGED
from targetmd.errors import ConfigurationError, TargetResolutionError
from targetmd.harness import OUTPUT_DIR_ENV, run_command
from targetmd.problems import LIBRARY

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def run_cli(command, text, tmp_path, name="exp.cfg", env_dir=None):
    cfg_path = tmp_path / name
    cfg_path.write_text(text)
    old = os.environ.pop(OUTPUT_DIR_ENV, None)
    if env_dir is not None:
        os.environ[OUTPUT_DIR_ENV] = str(env_dir)
    try:
        code = main([command, str(cfg_path)])
    finally:
        os.environ.pop(OUTPUT_DIR_ENV, None)
        if old is not None:
            os.environ[OUTPUT_DIR_ENV] = old
    return code


BASE_SOLVE = """
seed = 0
problem.name = skew_bilinear
geometry.name = euclidean
preset.name = eg
preset.eta = 0.1
mode = discrete
budget.steps = {steps}
x0 = 1, 0
output.dir = {out}
"""


# --- config parsing ------------------------------------------------------------

def test_parse_rejects_unknown_key_with_line():
    with pytest.raises(ConfigurationError) as err:
        parse_config("seed = 1\nbudge.steps = 3\n", source="exp.cfg")
    assert "exp.cfg:2" in str(err.value)
    assert "budge.steps" in str(err.value)


def test_parse_rejects_duplicates_and_bad_lines():
    with pytest.raises(ConfigurationError):
        parse_config("seed = 1\nseed = 2\n")
    with pytest.raises(ConfigurationError):
        parse_config("just some words\n")
    with pytest.raises(ConfigurationError):
        parse_config("mode = sideways\n")


def test_parse_types_and_defaults():
    cfg = parse_config("problem.name = rps_game\nx0 = 0.5, 0.25, 0.25\n")
    assert cfg.problem == "rps_game"
    assert cfg.x0 == (0.5, 0.25, 0.25)
    assert cfg.steps == 1000 and cfg.mode == "discrete"
    assert cfg.effective_stride() == 1
    cfg2 = parse_config("mode = flow\n")
    assert cfg2.effective_stride() == 10


def test_parse_ensemble_members():
    text = (CONFIG_DIR / "ensemble_quadratic.cfg").read_text()
    cfg = parse_config(text)
    assert len(cfg.ensemble_members) == 3
    assert cfg.ensemble_members[0].weights == (1.0, 2.0)
    assert cfg.ensemble_members[2].geometry == "euclidean"
    with pytest.raises(ConfigurationError, match="numbered 1..N"):
        parse_config("ensemble.member2.z0 = 0, 0\n")


def test_parser_junk_raises_only_config_errors():
    rng = np.random.default_rng(13)
    alphabet = list("abcdefgh.=,0123456789 \t#-+e_")
    for _ in range(300):
        n = int(rng.integers(1, 60))
        text = "".join(rng.choice(alphabet) for _ in range(n))
        try:
            parse_config(text, source="fuzz")
        except ConfigurationError:
            pass  # rejecting junk is the contract; crashing is not


EVERY_KEY = """
seed = 3
problem.name = rps_game
geometry.name = entropy
geometry.weights = 1, 2, 3
preset.name = eg
preset.eta = 0.2
mode = flow
x0 = 0.5, 0.25, 0.25
flow.integrator = rk4
flow.dt = 0.05
budget.steps = 0
budget.t_end = 2.5
stop.residual = 0
output.dir = runs/every_key
output.stride = 3
lyapunov.reference = 0.3, 0.3, 0.4
compare.samples = 1
check.samples = 2
ensemble.member1.geometry = weighted_quadratic
ensemble.member1.weights = 1, 2, 3
ensemble.member1.z0 = 0, 1, 0
ensemble.member2.geometry = entropy
"""


def test_echo_round_trip_is_a_fixed_point():
    texts = [path.read_text() for path in sorted(CONFIG_DIR.glob("*.cfg"))]
    assert len(texts) == 13
    for text in texts + [EVERY_KEY]:
        cfg = parse_config(text)
        echoed = echo_config(cfg)
        reparsed = parse_config("\n".join(echoed))
        assert echo_config(reparsed) == echoed
    assert reparsed == cfg  # EVERY_KEY sets the stride, so nothing is derived
    assert set(config._KEYS) <= {line.split(" = ")[0] for line in echoed}


def test_readme_key_table_lists_exactly_the_fixed_keys():
    # the first cell of each row of README's key table names its keys;
    # problem/preset parameters and member keys are not fixed keys
    readme = (CONFIG_DIR.parent / "README.md").read_text(encoding="utf-8")
    table = readme.split("| key | meaning (default) |\n", 1)[1].split("\n\n", 1)[0]
    named = set()
    for row in table.splitlines()[1:]:
        named.update(re.findall(r"`([^`]+)`", row.split("|")[1]))
    fixed = {key for key in named if not key.startswith("ensemble.member")
             and (key.split(".")[0] not in config._PARAM_SECTIONS
                  or key.endswith(".name"))}
    assert fixed == set(config._KEYS)


@pytest.mark.parametrize("command,key,value", [
    ("ensemble", "ensemble.count", "1"),
    ("ensemble", "ensemble.steps", "10"),
    ("compare", "compare.steps", "10"),
    ("check", "check.x_bar", "0, 0"),
    ("solve", "geometry.scale", "2"),
])
def test_removed_keys_are_unknown_keys(tmp_path, capsys, command, key, value):
    # each setting has one key: budget.steps / budget.t_end, lyapunov.reference,
    # and the member list's length; geometry.weights is the one geometry key
    out = tmp_path / "o"
    text = (f"preset.name = eg\noutput.dir = {out}\n{key} = {value}\n"
            "ensemble.member1.z0 = 0, 1\n")
    assert run_cli(command, text, tmp_path) == 1
    err = capsys.readouterr().err
    assert err == f"error: {tmp_path / 'exp.cfg'}:3: {key} is not a known key\n"
    assert not out.exists()


# a value of the wrong type for each key that has a rule
WRONG_TYPE = {
    "seed": "abc", "problem.name": "1.5", "geometry.name": "2", "preset.name": "1, 2",
    "mode": "3", "x0": "abc", "flow.integrator": "true", "flow.dt": "abc",
    "budget.steps": "2.5", "budget.t_end": "abc", "stop.residual": "fast",
    "output.stride": "1.5", "lyapunov.reference": "abc",
    "compare.samples": "1, 2", "check.samples": "2.0",
    "ensemble.member1.weights": "abc", "ensemble.member1.z0": "1, x",
}
ROWS = sorted(config._KEYS) + [f"ensemble.member1.{key}" for key in config._MEMBER_KEYS]


@pytest.mark.parametrize("key", ROWS)
def test_every_key_rejects_a_wrong_type_with_file_and_line(key):
    if key not in WRONG_TYPE:  # output.dir and a member's geometry are text
        assert f"{key} = 2.5" in echo_config(parse_config(f"{key} = 2.5\n"))
        return
    with pytest.raises(ConfigurationError) as err:
        parse_config(f"# header\n\n{key} = {WRONG_TYPE[key]}\n", source="exp.cfg")
    assert str(err.value).startswith(f"exp.cfg:3: {key} ")


@pytest.mark.parametrize("command,key,value,rule", [
    ("compare", "compare.samples", "0", "must be at least 1"),
    ("check", "check.samples", "1", "must be at least 2"),
    ("solve", "budget.steps", "-1", "must be at least 0"),
    ("compare", "budget.steps", "-1", "must be at least 0"),
    ("ensemble", "budget.steps", "-1", "must be at least 0"),
    ("compare", "seed", "-1", "must be at least 0"),
    ("check", "seed", "-1", "must be at least 0"),
    ("solve", "stop.residual", "nan", "must be a finite number >= 0"),
    ("solve", "stop.residual", "inf", "must be a finite number >= 0"),
    ("solve", "stop.residual", "-1e-9", "must be a finite number >= 0"),
])
def test_config_rules_reject_with_file_and_line(tmp_path, capsys, command, key,
                                                value, rule):
    out = tmp_path / "o"
    text = f"preset.name = eg\noutput.dir = {out}\n{key} = {value}\n"
    assert run_cli(command, text, tmp_path) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {tmp_path / 'exp.cfg'}:3: {key} {rule}, got ")
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("stride", [0, -3])
def test_stride_below_one_is_rejected(tmp_path, capsys, stride):
    out = tmp_path / "o"
    text = BASE_SOLVE.format(steps=10, out=out) + f"output.stride = {stride}\n"
    path = tmp_path / "exp.cfg"
    path.write_text(text)
    with pytest.raises(ConfigurationError, match="output.stride must be at least 1"):
        load_config(path)
    assert run_cli("solve", text, tmp_path) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


# --- solve ------------------------------------------------------------------------

def test_solve_eg_converges_exit_zero(tmp_path):
    out = tmp_path / "out"
    code = run_cli("solve", BASE_SOLVE.format(steps=10_000, out=out), tmp_path)
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["termination"] == "converged"
    assert summary["final_natural_residual"] <= 1e-6
    assert summary["lyapunov_violations"] == 0

    rows = (out / "trajectory.csv").read_text().strip().splitlines()
    header = rows[0].split(",")
    assert header == ["step", "time", "x_0", "x_1",
                      "residual_target", "residual_natural", "lyapunov"]
    for row in rows[1:]:
        assert len(row.split(",")) == len(header)
    first = rows[1].split(",")
    assert float(first[2]) == 1.0 and float(first[3]) == 0.0


def test_solve_vanilla_md_diverges_exit_two(tmp_path):
    out = tmp_path / "out"
    text = BASE_SOLVE.format(steps=5000, out=out).replace(
        "preset.name = eg", "preset.name = vanilla_md")
    code = run_cli("solve", text, tmp_path)
    assert code == 2
    rows = (out / "trajectory.csv").read_text().strip().splitlines()
    first = rows[1].split(",")
    last = rows[-1].split(",")
    natural = rows[0].split(",").index("residual_natural")
    assert float(last[natural]) >= float(first[natural])


def test_solve_budget_zero_exits_two_with_initial_sample(tmp_path):
    out = tmp_path / "out"
    code = run_cli("solve", BASE_SOLVE.format(steps=0, out=out), tmp_path)
    assert code == 2
    rows = (out / "trajectory.csv").read_text().strip().splitlines()
    assert len(rows) == 2  # header + the initial sample


def test_solve_is_bit_deterministic(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    run_cli("solve", BASE_SOLVE.format(steps=2000, out=out1), tmp_path, "a.cfg")
    run_cli("solve", BASE_SOLVE.format(steps=2000, out=out2), tmp_path, "b.cfg")
    assert (out1 / "trajectory.csv").read_bytes() == (out2 / "trajectory.csv").read_bytes()


def test_solve_seventeen_digit_serialization(tmp_path):
    out = tmp_path / "out"
    run_cli("solve", BASE_SOLVE.format(steps=50, out=out), tmp_path)
    rows = (out / "trajectory.csv").read_text().strip().splitlines()
    value = rows[2].split(",")[2]
    assert float(value) == np.float64(value)  # round-trips exactly
    assert len(value.replace("-", "").replace(".", "").split("e")[0]) >= 15


def test_env_var_overrides_output_dir(tmp_path):
    configured = tmp_path / "configured"
    forced = tmp_path / "forced"
    code = run_cli("solve", BASE_SOLVE.format(steps=10, out=configured),
                   tmp_path, env_dir=forced)
    assert code == 2
    assert (forced / "trajectory.csv").exists()
    assert not configured.exists()


def test_solve_flow_mode_runs(tmp_path):
    out = tmp_path / "out"
    text = (CONFIG_DIR / "dmd_calibrated_scalar.cfg").read_text().replace(
        "runs/dmd_calibrated", str(out))
    code = run_cli("solve", text, tmp_path)
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert abs(summary["final_natural_residual"]) <= 1e-6


def test_solve_dmd_vanilla_leaves_diagnostic_cells_empty(tmp_path):
    out = tmp_path / "out"
    text = (CONFIG_DIR / "dmd_vanilla_scalar.cfg").read_text().replace(
        "runs/dmd_vanilla", str(out))
    code = run_cli("solve", text, tmp_path)
    assert code == 0
    rows = (out / "trajectory.csv").read_text().strip().splitlines()
    header = rows[0].split(",")
    target_col = header.index("residual_target")
    for row in rows[1:]:
        cells = row.split(",")
        assert len(cells) == len(header)  # empty cells keep the column count
        assert cells[target_col] == ""   # no target map for this baseline


@pytest.mark.parametrize("name,exit_code", [
    ("bnn_rps_flow", 2), ("dmd_calibrated_scalar", 0), ("dmd_vanilla_scalar", 0),
    ("higher_order_vertex", 0)])
def test_solve_rk4_flow(name, exit_code, tmp_path):
    # every flow preset integrates with the echoed flow.integrator
    out = tmp_path / "out"
    lines = [line for line in (CONFIG_DIR / f"{name}.cfg").read_text().splitlines()
             if not line.startswith(("output.dir", "flow.integrator"))]
    text = "\n".join(lines + [f"output.dir = {out}", "flow.integrator = rk4"]).replace(
        "budget.t_end = 200.0", "budget.t_end = 2.0")
    code = run_cli("solve", text, tmp_path)
    assert code == exit_code
    summary = json.loads((out / "summary.json").read_text())
    assert "flow.integrator = rk4" in summary["config"]
    assert summary["mode"] == "rk4"


@pytest.mark.parametrize("command,bounds", [
    ("check", "problem.lower = nan"), ("check", "problem.upper = inf"),
    ("solve", "problem.upper = inf"), ("compare", "problem.lower = -inf"),
])
def test_non_finite_box_bounds_are_one_configuration_error(tmp_path, capsys, command, bounds):
    # unchecked, check ended in numpy's OverflowError traceback from the
    # box's sampling, and a half-infinite dr solve ran
    out = tmp_path / "out"
    text = (CONFIG_DIR / "compare_dr.cfg").read_text().replace(
        "output.dir = runs/compare_dr", f"{bounds}\noutput.dir = {out}")
    assert run_cli(command, text, tmp_path) == 1
    assert capsys.readouterr().err == (
        "error: box bounds must be finite with lower < upper entrywise\n")
    assert not out.exists()


PARAMETER_CASES = [
    ("eg", "scalar_shift", "problem.a = abc", "scalar_shift needs a finite number a, got 'abc'"),
    ("eg", "scalar_shift", "problem.a = nan", "scalar_shift needs a finite number a, got nan"),
    ("ppa", "scalar_shift", "problem.a = inf", "scalar_shift needs a finite number a, got inf"),
    ("eg", "scalar_shift", "problem.a = true", "scalar_shift needs a finite number a, got True"),
    ("eg", "vertex_cost_simplex", "problem.costs = abc",
     "vertex_cost_simplex needs finite costs, got 'abc'"),
    ("eg", "vertex_cost_simplex", "problem.costs = 1, nan",
     "vertex_cost_simplex needs finite costs, got (1.0, nan)"),
    ("eg", "vertex_cost_simplex", "problem.costs = 1, inf",
     "vertex_cost_simplex needs finite costs, got (1.0, inf)"),
    ("dr", "box_affine_split", "problem.shift = abc",
     "box_affine_split needs a finite number shift, got 'abc'"),
    ("dr", "box_affine_split", "problem.shift = nan",
     "box_affine_split needs a finite number shift, got nan"),
    ("dr", "box_affine_split", "problem.shift = inf",
     "box_affine_split needs a finite number shift, got inf"),
    ("dr", "box_affine_split", "problem.lower = abc",
     "box bounds must be finite with lower < upper entrywise"),
    ("dr", "box_affine_split", "problem.lower = -1, 0\nproblem.upper = 1, 2",
     "box_affine_split needs a finite number lower, got (-1.0, 0.0)"),
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("preset,problem,line,message", PARAMETER_CASES,
                         ids=[case[2].split("\n")[0] for case in PARAMETER_CASES])
def test_library_problem_parameters_must_be_finite_numbers(tmp_path, capsys, preset,
                                                           problem, line, message):
    # unchecked, a word ended in float()'s traceback, and a NaN or an
    # infinity failed later with another error or leaked a RuntimeWarning
    out = tmp_path / "out"
    text = f"problem.name = {problem}\npreset.name = {preset}\n{line}\noutput.dir = {out}\n"
    assert run_cli("solve", text, tmp_path) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("preset", ["ppa", "eg", "vanilla_md"])
@pytest.mark.parametrize("problem", ["skew_bilinear", "constrained_quadratic"])
def test_the_entropy_geometry_needs_a_problem_on_the_simplex(tmp_path, capsys, preset,
                                                             problem):
    # its grad_h is defined on the simplex alone: a ppa or eg build on
    # another set refused only where its sampled pairs met a negative
    # coordinate, and vanilla_md ran on the simplex
    out = tmp_path / "out"
    text = (f"problem.name = {problem}\ngeometry.name = entropy\npreset.name = {preset}\n"
            f"output.dir = {out}\n")
    assert run_cli("solve", text, tmp_path) == 1
    assert capsys.readouterr().err == "error: entropy geometry lives on the simplex\n"
    assert not out.exists()


FIXED_GEOMETRY = [
    # (command, preset, preset.base, problem, geometry.name): every design
    # whose row fixes a geometry, with each other name and each command
    # that builds it (higher_order has no coded reference and drives no
    # ensemble); fbf, and dr and fb under weights, ran in a geometry their
    # designs do not use
    (command, preset, base, problem, other)
    for preset, base, problem, fixed in [
        ("bnn", None, "rps_game", "entropy"),
        ("dr", None, "box_affine_split", "euclidean"),
        ("fb", None, "box_affine_split", "euclidean"),
        ("fbf", None, "rps_game", "euclidean"),
        ("higher_order", "fbf", "rps_game", "euclidean"),
        ("higher_order", "dr", "box_affine_split", "euclidean")]
    for other in harness.GEOMETRIES if other != fixed
    for command in (["solve", "check"] if base else harness.COMMANDS)]


@pytest.mark.parametrize("command,preset,base,problem,geometry", FIXED_GEOMETRY)
def test_a_design_with_a_fixed_geometry_refuses_every_other_name(
        tmp_path, capsys, command, preset, base, problem, geometry):
    design = base or preset
    fixed = harness.PRESETS[design].geometry
    weights = "1, 1, 1" if problem == "rps_game" else "3"
    out = tmp_path / "o"
    text = (f"problem.name = {problem}\ngeometry.name = {geometry}\n"
            f"preset.name = {preset}\nmode = flow\nbudget.t_end = 0.1\n"
            + (f"geometry.weights = {weights}\n" if geometry == "weighted_quadratic" else "")
            + (f"preset.base = {base}\n" if base else "")
            + f"ensemble.member1.geometry = euclidean\noutput.dir = {out}\n")
    assert run_cli(command, text, tmp_path) == 1
    assert capsys.readouterr() == ("", f"error: preset {design!r} runs under the {fixed} "
                                       f"geometry; got geometry.name = {geometry}\n")
    assert not out.exists()


@pytest.mark.parametrize("base,problem,design", [
    ("dr", "box_affine_split", lambda pb, pair, ws: preset_dr(pair, ws, 1.0)),
    ("fb", "box_affine_split", lambda pb, pair, ws: preset_fb(pair, ws, 0.5)),
    ("fbf", "rps_game", lambda pb, pair, ws: preset_fbf(pb, 0.1))])
def test_higher_order_over_a_euclidean_design_runs_on_the_whole_space(tmp_path, base,
                                                                      problem, design):
    # over dr or fb it refused every config (its base got the split's box),
    # and over fbf it ran on the simplex's projection
    out = tmp_path / "o"
    text = (f"problem.name = {problem}\ngeometry.name = euclidean\n"
            f"preset.name = higher_order\npreset.base = {base}\nmode = flow\n"
            f"budget.t_end = 0.5\n")
    assert run_cli("solve", text, tmp_path, env_dir=out) in (0, 2)
    problem, pair = harness.build_problem(parse_config(text))
    ws = whole_space(problem.feasible_set.dim)
    spec = design(problem, pair, ws)
    record = run_higher_order(euclidean_geometry(ws), spec, t_end=0.5, problem=problem,
                              reference=reference_point(spec, problem))
    harness.write_trajectory_csv(tmp_path / "library.csv", record)
    assert (out / "trajectory.csv").read_bytes() == (tmp_path / "library.csv").read_bytes()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("eta,code,line", [
    # |eta*M|'s row sums overflow: the shifted Tridiagonal's spectral solve
    # overflowed, and the run diverged at step 1
    ("1e308", 1, "error: eta*F's linear terms leave the float range at eta = 1e+308; "
              "reduce the step\n"),
    ("1e300", 0, None)])
def test_ppa_refuses_a_step_at_which_eta_times_m_overflows(tmp_path, capsys, eta, code,
                                                           line):
    out = tmp_path / "o"
    text = (f"problem.name = linear_monotone\nproblem.dim = 3\ngeometry.name = euclidean\n"
            f"preset.name = ppa\npreset.eta = {eta}\noutput.dir = {out}\n")
    assert run_cli("solve", text, tmp_path) == code
    stdout, stderr = capsys.readouterr()
    if line is None:
        assert stdout.startswith("converged") and stderr == ""
        assert json.loads((out / "summary.json").read_text())["final_step"] == 1
    else:
        assert (stdout, stderr) == ("", line) and not out.exists()


@pytest.mark.filterwarnings("error")
def test_a_split_box_near_the_float_limit_builds_without_a_warning(tmp_path, capsys):
    # the box's center overflowed in its build-time samples; the dr run
    # itself (2 J_B(x) - x) still leaves the float range at its second step
    out = tmp_path / "out"
    text = (CONFIG_DIR / "compare_dr.cfg").read_text().replace(
        "output.dir = runs/compare_dr",
        f"problem.lower = 1e308\nproblem.upper = 1.7e308\noutput.dir = {out}")
    assert run_cli("solve", text, tmp_path) == 1
    assert capsys.readouterr().err == (
        "error: the dual point turned non-finite at step 2; the run diverges\n")
    assert json.loads((out / "summary.json").read_text())["termination"] == "diverged"


def test_solve_dr_with_explicit_reference(tmp_path):
    out = tmp_path / "out"
    text = f"""
seed = 0
problem.name = box_affine_split
problem.shift = 2.0
geometry.name = euclidean
preset.name = dr
preset.eta = 1.0
mode = discrete
budget.steps = 200
x0 = 3.0
lyapunov.reference = 0.0
output.dir = {out}
"""
    code = run_cli("solve", text, tmp_path)
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["lyapunov_violations"] == 0
    # the natural residual column tracks the shadow point, which solves
    # the boxed inequality even though the governing iterate goes to 0
    assert summary["final_natural_residual"] <= 1e-6
    assert abs(summary["final_point"][0]) <= 1e-6
    assert abs(summary["final_shadow_point"][0] - 1.0) <= 1e-6


STEP_CASES = [
    # (preset, problem, geometry, step key, extra lines)
    ("ppa", "skew_bilinear", "euclidean", "eta", ""),
    ("eg", "skew_bilinear", "euclidean", "eta", ""),
    ("eg", "skew_bilinear", "euclidean", "eta2", ""),
    ("dr", "box_affine_split", "euclidean", "eta", ""),
    ("fb", "box_affine_split", "euclidean", "eta", ""),
    ("bnn", "rps_game", "entropy", "eta", ""),
    ("fbf", "skew_bilinear", "euclidean", "eta", ""),
    ("vanilla_md", "skew_bilinear", "euclidean", "eta", ""),
    ("dmd_calibrated", "scalar_shift", "euclidean", "eta", ""),
    ("higher_order", "skew_bilinear", "euclidean", "eta", ""),
]


@pytest.mark.parametrize("value", ["nan", "inf", "-1", "fast"])
@pytest.mark.parametrize("preset,problem,geometry,key,extra", STEP_CASES)
def test_preset_rejects_step_that_is_not_a_finite_positive_number(
        tmp_path, capsys, preset, problem, geometry, key, extra, value):
    out = tmp_path / "o"
    text = (f"problem.name = {problem}\ngeometry.name = {geometry}\n"
            f"preset.name = {preset}\npreset.{key} = {value}\n{extra}"
            f"output.dir = {out}\n")
    assert run_cli("solve", text, tmp_path) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "must be a finite positive number" in err and key in err
    with pytest.raises(ConfigurationError):
        run_command("solve", parse_config(text))
    assert not out.exists()


ENSEMBLE_MEMBERS = """
ensemble.member1.geometry = weighted_quadratic
ensemble.member1.weights = 1, 2
ensemble.member2.geometry = euclidean
ensemble.member2.z0 = 1, 1
"""

REJECTED = [
    # (command, preset, problem, geometry, extra lines, expected in message)
    ("solve", "higher_order", "scalar_shift", "euclidean",
     "preset.base = dmd_vanilla\nmode = flow\n", "preset.base"),
    ("solve", "higher_order", "scalar_shift", "euclidean",
     "preset.base = higher_order\nmode = flow\n", "preset.base"),
    ("solve", "higher_order", "scalar_shift", "euclidean",
     "preset.base = dmd_calibrated\npreset.gamma = 2\nmode = flow\n", "preset.base"),
    ("ensemble", "dmd_vanilla", "skew_bilinear", "euclidean", ENSEMBLE_MEMBERS,
     "ensemble"),
    ("ensemble", "dmd_calibrated", "skew_bilinear", "euclidean",
     "preset.gamma = 7\n" + ENSEMBLE_MEMBERS, "ensemble"),
    ("ensemble", "higher_order", "skew_bilinear", "euclidean",
     "preset.gamma1 = 3\n" + ENSEMBLE_MEMBERS, "ensemble"),
    # eg takes preset.eta and preset.eta2 only, and eg_plus is no preset row
    ("solve", "eg", "skew_bilinear", "euclidean", "preset.eta1 = 0.1\n",
     "does not accept parameter(s) ['eta1']"),
    ("compare", "eg", "skew_bilinear", "euclidean",
     "preset.eta = 0.1\npreset.eta1 = 0.1\n", "does not accept parameter(s) ['eta1']"),
    ("solve", "eg_plus", "skew_bilinear", "euclidean",
     "preset.eta = 0.1\npreset.eta2 = 0.05\n", "unknown preset 'eg_plus'"),
    ("solve", "ppa", "skew_bilinear", "euclidean",
     "preset.inner_max_iter = abc\n", "does not accept parameter(s) ['inner_max_iter']"),
    ("solve", "ppa", "skew_bilinear", "euclidean",
     "preset.inner_max_iter = 0\n", "does not accept parameter(s) ['inner_max_iter']"),
    ("solve", "ppa", "skew_bilinear", "euclidean", "preset.inner_tol = nan\n",
     "inner_tol"),
    ("solve", "ppa", "skew_bilinear", "euclidean", "preset.inner_tol = -1\n",
     "inner_tol"),
    ("solve", "dmd_calibrated", "scalar_shift", "euclidean",
     "preset.case = abc\nmode = flow\n", "case"),
    ("solve", "dmd_calibrated", "scalar_shift", "euclidean",
     "preset.case = 2.7\nmode = flow\n", "case"),
    ("solve", "eg", "skew_bilinear", "weighted_quadratic",
     "geometry.weights = 1, 2, 3\n", "weights"),
    ("solve", "eg", "scalar_shift", "weighted_quadratic", "geometry.weights = abc\n",
     "weights"),
    ("ensemble", "eg", "skew_bilinear", "euclidean",
     ENSEMBLE_MEMBERS.replace("weights = 1, 2", "weights = 1, 2, 3"), "member 1"),
    # an entropy member lives on the problem's set: on R^3 it ran, and its
    # average stayed on the simplex
    ("ensemble", "eg", "skew_bilinear", "euclidean",
     "problem.dim = 3\nensemble.member1.geometry = entropy\n"
     "ensemble.member2.geometry = entropy\nensemble.member2.z0 = 1, 0, 0\n",
     "error: member 1: entropy geometry lives on the simplex\n"),
]


@pytest.mark.parametrize("command,preset,problem,geometry,extra,message", REJECTED,
                         ids=[f"{case[0]}-{case[1]}-{i}" for i, case in enumerate(REJECTED)])
def test_preset_table_rejects_with_one_line(tmp_path, capsys, command, preset,
                                            problem, geometry, extra, message):
    out = tmp_path / "o"
    text = (f"problem.name = {problem}\ngeometry.name = {geometry}\n"
            f"preset.name = {preset}\n{extra}output.dir = {out}\n")
    assert run_cli(command, text, tmp_path) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err
    assert not out.exists()


def _failed_verdict(report):
    """A report that ran and failed its command's own test."""
    return (report.get("refuted") or report.get("termination") == DIVERGED
            or report.get("max_deviation", 0.0) > report.get("tolerance", math.inf)
            or report.get("reduction_max_deviation", 0.0)
            > report.get("reduction_tolerance", math.inf))


def test_every_preset_problem_geometry_and_command_keeps_the_exit_contract(tmp_path,
                                                                           capsys):
    # Every preset x library problem and box_affine_split x geometry name x
    # command, at defaults with a budget of 5 steps (flow: t_end = 0.05) and
    # 4 check and compare samples; a weighted geometry takes weight 1 per
    # dimension, and an ensemble one member of geometry.name.  Trimmed to
    # one mode per preset, flow for a row with its own flow and discrete
    # otherwise, to stay under about 2 s (840 runs).  A run exits 0 or 2
    # with a named termination (solve, ensemble) or a passing verdict
    # (check, compare); or 1 with one stderr line and no output, or with a
    # failing verdict.  pytest turns a RuntimeWarning into a failure, and a
    # traceback fails the test.
    dims = {problem: harness.build_problem(parse_config(f"problem.name = {problem}\n"))[0]
            .feasible_set.dim for problem in [*LIBRARY, "box_affine_split"]}
    out = tmp_path / "o"
    for (preset, row), problem, geometry, command in itertools.product(
            harness.PRESETS.items(), dims, harness.GEOMETRIES, harness.COMMANDS):
        text = (f"problem.name = {problem}\ngeometry.name = {geometry}\n"
                f"preset.name = {preset}\nmode = {'flow' if row.flow_only else 'discrete'}\n"
                f"budget.steps = 5\nbudget.t_end = 0.05\ncheck.samples = 4\n"
                f"compare.samples = 4\noutput.dir = {out}\n"
                f"ensemble.member1.geometry = {geometry}\n")
        if geometry == "weighted_quadratic":
            weights = ", ".join(["1"] * dims[problem])
            text += f"geometry.weights = {weights}\nensemble.member1.weights = {weights}\n"
        code = run_cli(command, text, tmp_path)
        stdout, stderr = capsys.readouterr()
        path = out / harness.COMMANDS[command].files[-1]
        report = json.loads(path.read_text()) if path.exists() else None
        case = f"{command} {text}"
        if report is None:
            assert (code, stdout) == (1, "") and stderr.startswith("error: "), case
            assert stderr.count("\n") == 1, case
            continue
        assert report["exit_code"] == code and stdout.count("\n") + stderr.count("\n") == 1
        if "max_deviation" in report:
            # a design agrees with its coded reference wherever it runs, but
            # for eg's lazy projection on the split's active box constraint
            agrees = report["max_deviation"] <= report["tolerance"]
            assert agrees != ((preset, problem) == ("eg", "box_affine_split")), case
        assert code in (0, 2) or (code == 1 and _failed_verdict(report)), case
        if command in ("solve", "ensemble"):
            assert report["termination"] in (CONVERGED, BUDGET, DIVERGED), case
        shutil.rmtree(out)


@pytest.mark.parametrize("name,exit_code,violations", [
    # KL to the solution rises along the exact excess-payoff trajectory,
    # so bnn reports no violation count; its CSV column stays
    ("bnn_rps_flow", 2, None),
    ("eg_skew_solve", 0, 0),
])
def test_solve_lyapunov_violation_count(tmp_path, name, exit_code, violations):
    text = (CONFIG_DIR / f"{name}.cfg").read_text().replace(
        "budget.t_end = 200.0", "budget.t_end = 5.0")
    out = tmp_path / "out"
    assert run_cli("solve", text, tmp_path, env_dir=out) == exit_code
    summary = json.loads((out / "summary.json").read_text())
    assert summary["lyapunov_violations"] == violations
    rows = (out / "trajectory.csv").read_text().strip().splitlines()
    lyapunov = rows[0].split(",").index("lyapunov")
    assert all(row.split(",")[lyapunov] != "" for row in rows[1:])


def test_solve_unknown_problem_exits_one(tmp_path):
    text = BASE_SOLVE.format(steps=10, out=tmp_path / "o").replace(
        "skew_bilinear", "mystery")
    assert run_cli("solve", text, tmp_path) == 1


def test_solve_missing_config_exits_one(capsys):
    assert main(["solve", "/nonexistent/exp.cfg"]) == 1
    assert capsys.readouterr().err == "error: /nonexistent/exp.cfg: No such file or directory\n"


def test_config_that_is_a_directory_ends_in_one_error_line(tmp_path, capsys):
    assert main(["solve", str(tmp_path)]) == 1
    assert capsys.readouterr().err == f"error: {tmp_path}: Is a directory\n"


@pytest.mark.parametrize("value", ["", "   "])
def test_empty_output_dir_is_rejected(tmp_path, capsys, monkeypatch, value):
    monkeypatch.chdir(tmp_path)
    text = BASE_SOLVE.format(steps=10, out=value)
    line = text.splitlines().index(f"output.dir = {value}") + 1
    assert run_cli("solve", text, tmp_path) == 1
    err = capsys.readouterr().err
    assert err == (f"error: {tmp_path / 'exp.cfg'}:{line}: output.dir must name a "
                   "directory, got an empty value\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.cfg"]


def test_non_utf8_config_ends_in_one_error_line(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_bytes(b"\xff\xfe")
    assert main(["solve", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and err.count("\n") == 1


@pytest.mark.parametrize("key", ["output.dir", "ensemble.member1.geometry"])
@pytest.mark.parametrize("text", ["007", "1e3", "true", "runs/a,b"])
def test_text_keys_keep_the_value_as_written(key, text):
    cfg = parse_config(f"{key} =  {text} \n")
    value = cfg.output_dir if key == "output.dir" else cfg.ensemble_members[0].geometry
    assert value == text
    assert f"{key} = {text}" in echo_config(cfg)


def test_solve_writes_to_the_output_dir_as_written(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run_cli("solve", BASE_SOLVE.format(steps=10, out="007"), tmp_path) == 2
    assert (tmp_path / "007" / "summary.json").is_file()
    assert not (tmp_path / "7").exists()


@pytest.mark.parametrize("command", ["solve", "check"])
@pytest.mark.parametrize("value,message", [
    ("1, 2, 3", "has 3 entries; the problem has dimension 2"),
    ("nan, 0", "must be finite"),
])
def test_reference_points_are_checked_like_x0(tmp_path, capsys, command, value,
                                               message):
    out = tmp_path / "o"
    text = BASE_SOLVE.format(steps=10, out=out) + f"lyapunov.reference = {value}\n"
    assert run_cli(command, text, tmp_path) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: reference {message}") and err.count("\n") == 1
    assert not out.exists()


# --- compare -----------------------------------------------------------------------

@pytest.mark.parametrize("name,expected_kind", [
    ("compare_eg.cfg", "per_step"),
    ("compare_dr.cfg", "per_step"),
    ("compare_bnn.cfg", "vector_field"),
])
def test_compare_subcommand(tmp_path, name, expected_kind):
    out = tmp_path / "out"
    text = (CONFIG_DIR / name).read_text()
    text = "\n".join(line for line in text.splitlines()
                     if not line.startswith("output.dir"))
    text += f"\noutput.dir = {out}\n"
    code = run_cli("compare", text, tmp_path, name)
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["comparison"] == expected_kind
    assert summary["max_deviation"] <= summary["tolerance"]
    assert (out / "deviations.csv").exists()
    # every step (or sample) is compared; none is cut by a stop rule
    cfg = load_config(CONFIG_DIR / name)
    expected = cfg.steps if expected_kind == "per_step" else cfg.compare_samples
    assert summary["count"] == expected
    assert len((out / "deviations.csv").read_text().splitlines()) == expected + 1


@pytest.mark.filterwarnings("error")
def test_compare_diverging_driver_exits_before_its_reference(tmp_path, capsys):
    # a move step of 1e300 overflows the second iterate; the driver's run
    # ends diverged and the coded reference never runs
    out = tmp_path / "o"
    text = ("problem.name = skew_bilinear\npreset.name = eg\n"
            f"preset.eta2 = 1e300\nx0 = 1, 0\noutput.dir = {out}\n")
    assert run_cli("compare", text, tmp_path) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "dual point turned non-finite at step 2;" in err
    assert sorted(os.listdir(out)) == ["summary.json"]
    summary = json.loads((out / "summary.json").read_text())
    assert (summary["termination"], summary["final_step"]) == ("diverged", 1)


def test_compare_every_referenced_preset(tmp_path):
    cases = {
        "ppa": """
problem.name = skew_bilinear
geometry.name = euclidean
preset.name = ppa
preset.eta = 0.5
preset.inner_tol = 1e-13
budget.steps = 100
x0 = 1, 0
""",
        "eg-entropy": """
problem.name = rps_game
geometry.name = entropy
preset.name = eg
preset.eta = 0.1
budget.steps = 100
x0 = 0.5, 0.25, 0.25
""",
        "fb": """
problem.name = box_affine_split
geometry.name = euclidean
preset.name = fb
preset.eta = 0.5
budget.steps = 100
x0 = -2.0
""",
        "fbf": """
problem.name = skew_bilinear
geometry.name = euclidean
preset.name = fbf
preset.eta = 0.1
compare.samples = 300
""",
    }
    for tag, body in cases.items():
        out = tmp_path / tag
        text = f"seed = 0\n{body}\noutput.dir = {out}\n"
        code = run_cli("compare", text, tmp_path, f"{tag}.cfg")
        assert code == 0, tag
        summary = json.loads((out / "summary.json").read_text())
        assert summary["max_deviation"] <= summary["tolerance"], tag


def test_compare_ppa_at_a_large_step_holds_the_default_inner_tol(tmp_path):
    # the whole-space linear target is a closed-form solve: at eta = 2 it
    # stays within rounding of the coded elimination over 100 steps, where
    # a projected inner iteration stopping on step length drifted 1.6e-9
    out = tmp_path / "out"
    text = ("seed = 0\nproblem.name = skew_bilinear\nproblem.dim = 4\n"
            "geometry.name = euclidean\npreset.name = ppa\npreset.eta = 2.0\n"
            f"x0 = 0, 0, 0, 1\nbudget.steps = 100\noutput.dir = {out}\n")
    assert run_cli("compare", text, tmp_path) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["count"] == 100
    assert summary["max_deviation"] <= 1e-14


def test_solve_dmd_calibrated_case_two(tmp_path):
    out = tmp_path / "out"
    text = f"""
seed = 0
problem.name = scalar_shift
problem.a = 2.0
geometry.name = euclidean
preset.name = dmd_calibrated
preset.eta = 0.5
preset.case = 2
mode = flow
flow.dt = 0.01
budget.t_end = 60.0
stop.residual = 1e-10
output.dir = {out}
"""
    code = run_cli("solve", text, tmp_path)
    assert code == 0
    rows = (out / "trajectory.csv").read_text().strip().splitlines()
    final_x = float(rows[-1].split(",")[2])
    assert abs(final_x - 2.0) <= 1e-6


@pytest.mark.parametrize("budget,count", [(None, 1000), (37, 37), (0, None)])
def test_per_step_compare_runs_budget_steps(tmp_path, capsys, budget, count):
    out = tmp_path / "out"
    text = ("problem.name = skew_bilinear\npreset.name = eg\nx0 = 1, 0\n"
            f"output.dir = {out}\n")
    if budget is not None:
        text += f"budget.steps = {budget}\n"
    if count is None:
        assert run_cli("compare", text, tmp_path) == 1
        err = capsys.readouterr().err
        assert err == "error: a per-step compare needs budget.steps >= 1\n"
        return
    assert run_cli("compare", text, tmp_path) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["comparison"] == "per_step" and summary["count"] == count


@pytest.mark.parametrize("eta2,name", [(None, "eg"), (0.1, "eg"), (0.05, "eg_plus")])
def test_eg_with_a_distinct_eta2_is_eg_plus(tmp_path, eta2, name):
    out = tmp_path / "out"
    text = ("problem.name = skew_bilinear\npreset.name = eg\npreset.eta = 0.1\n"
            f"x0 = 1, 0\nbudget.steps = 100\noutput.dir = {out}\n")
    if eta2 is not None:
        text += f"preset.eta2 = {eta2}\n"
    cfg = parse_config(text)
    problem, pair = harness.build_problem(cfg)
    spec = harness.build_spec(cfg, harness.build_geometry(cfg, problem), problem, pair)
    assert spec.name == name
    assert spec.alpha == (1.0 if eta2 is None else eta2 / 0.1)
    assert run_cli("compare", text, tmp_path) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["max_deviation"] <= summary["tolerance"]


def test_compare_rejects_presets_without_reference(tmp_path):
    text = BASE_SOLVE.format(steps=10, out=tmp_path / "o").replace(
        "preset.name = eg", "preset.name = vanilla_md")
    assert run_cli("compare", text, tmp_path) == 1


# --- check -------------------------------------------------------------------------

def test_check_eg_passes(tmp_path):
    out = tmp_path / "out"
    text = (CONFIG_DIR / "check_eg.cfg").read_text().replace(
        "runs/check_eg", str(out))
    code = run_cli("check", text, tmp_path)
    assert code == 0
    report = json.loads((out / "check_report.json").read_text())
    assert report["refuted"] is False
    assert report["dual_map_strong_monotonicity"]["strong_margin_observed"]
    assert report["descent_margin"]["min_value"] > 0.0


def test_check_refutes_bad_reference(tmp_path):
    out = tmp_path / "out"
    text = """
seed = 0
problem.name = scalar_shift
problem.a = 2.0
geometry.name = euclidean
preset.name = vanilla_md
preset.eta = 1.0
check.samples = 100
lyapunov.reference = 5.0
output.dir = {out}
""".format(out=out)
    code = run_cli("check", text, tmp_path)
    assert code == 1
    report = json.loads((out / "check_report.json").read_text())
    assert report["surrogate_stability"]["refuted"] is True
    assert report["surrogate_stability"]["witness"] is not None


@pytest.mark.parametrize("reference,expected", [(None, [0.0, 0.0]),
                                                ("0.5, -0.25", [0.5, -0.25])])
def test_check_reads_lyapunov_reference(tmp_path, reference, expected):
    # the known solution of skew_bilinear is 0, the default reference
    out = tmp_path / "out"
    text = (CONFIG_DIR / "check_eg.cfg").read_text().replace(
        "runs/check_eg", str(out)).replace("lyapunov.reference = 0, 0\n", "")
    if reference is not None:
        text += f"lyapunov.reference = {reference}\n"
    run_cli("check", text, tmp_path)
    report = json.loads((out / "check_report.json").read_text())
    assert report["surrogate_stability"]["reference"] == expected


TUPLE_CONFIGS = sorted(path.stem for path in CONFIG_DIR.glob("*.cfg")
                       if harness.PRESETS[load_config(path).preset].build is not None)


@pytest.mark.parametrize("name", TUPLE_CONFIGS)
def test_check_passes_on_every_shipped_design_tuple(tmp_path, name):
    assert "compare_dr" in TUPLE_CONFIGS and "dmd_vanilla_scalar" not in TUPLE_CONFIGS
    out = tmp_path / "out"
    assert run_cli("check", (CONFIG_DIR / f"{name}.cfg").read_text(), tmp_path,
                   env_dir=out) == 0
    assert json.loads((out / "check_report.json").read_text())["refuted"] is False


def test_check_takes_no_default_reference_for_a_shadow_design(tmp_path, capsys):
    # the known solution of the dr problem is no reference for its
    # governing points: both reference sections are skipped, as solve
    # skips its Lyapunov block, and the fixed point is checked at its shadow
    out = tmp_path / "out"
    assert run_cli("check", (CONFIG_DIR / "compare_dr.cfg").read_text(), tmp_path,
                   env_dir=out) == 0
    assert capsys.readouterr().out == f"no refutation  -> {out}\n"
    report = json.loads((out / "check_report.json").read_text())
    for section in ("surrogate_stability", "descent_margin"):
        assert report[section] == {"skipped": True, "refuted": False,
                                   "reason": "no reference point available"}
    assert report["fixed_point_consistency"] == {
        "skipped": False, "converged": True, "fixed_point": [0.0],
        "natural_residual": 0.0, "at_shadow_point": True, "refuted": False}


def test_check_of_a_shadow_design_with_a_reference_samples_the_target_image(tmp_path):
    out = tmp_path / "out"
    text = (CONFIG_DIR / "compare_dr.cfg").read_text() + "lyapunov.reference = 0\n"
    assert run_cli("check", text, tmp_path, env_dir=out) == 0
    report = json.loads((out / "check_report.json").read_text())
    stability, margin = report["surrogate_stability"], report["descent_margin"]
    assert stability["sampled_on_target_image"] is True
    assert stability["reference"] == [0.0] and not stability["skipped"]
    assert stability["min_inner"] > 0.0 and stability["refuted"] is False
    assert not margin["skipped"] and margin["evaluated"] == 200
    assert margin["min_value"] > 0.0 and margin["refuted"] is False


@pytest.mark.filterwarnings("error")
def test_check_counts_a_target_that_overflows_as_unresolved(tmp_path, capsys):
    # near the float limit every dr target overflows to inf: each is a
    # resolution failure, checked without numpy's warnings, and the dual-map
    # check, whose pairs all overflow, observes no margin
    out = tmp_path / "out"
    text = (CONFIG_DIR / "compare_dr.cfg").read_text() + (
        "problem.lower = 1e308\nproblem.upper = 1.7e308\n")
    assert run_cli("check", text, tmp_path, env_dir=out) == 1
    assert capsys.readouterr().out == f"refuted  -> {out}\n"
    report = json.loads((out / "check_report.json").read_text())
    assert report["target_resolution"] == {"closed_form": True, "failures": 200,
                                           "refuted": True}
    dual_map = report["dual_map_strong_monotonicity"]
    assert dual_map["min_ratio"] is None and dual_map["refuted"] is False
    assert dual_map["strong_margin_observed"] is False


def test_check_leaves_every_unresolved_target_out_of_the_other_sections():
    # T(x) = x / 2 for x > 0; below 0 the target is inf, below -1 it raises
    problem = library_problem("scalar_shift", a=0.0)
    g = euclidean_geometry(problem.feasible_set)

    def target(x):
        if x[0] < -1.0:
            raise TargetResolutionError("no target here")
        return np.full(1, np.inf) if x[0] < 0.0 else 0.5 * x

    spec = TargetSpec(alpha=1.0, beta=0.0, S=g.grad_h, sigma=1.0, Phi=None,
                      target=ClosedForm(target), feasible_set=problem.feasible_set)
    report = run_condition_checks(g, spec, problem, n_samples=200, seed=0,
                                  x_bar=np.zeros(1))
    samples = problem.feasible_set.sample_interior(np.random.default_rng(0), 200)[:, 0]
    resolved = samples[samples > 0.0]
    assert report["target_resolution"]["failures"] == 200 - resolved.size > 0
    # Phi(T(x)) = x - T(x) = x / 2 against T(x) - 0 = x / 2, and a margin of
    # (x / 2)^2 + (x / 2)^2, at the resolved samples only
    stability, margin = report["surrogate_stability"], report["descent_margin"]
    assert stability["min_inner"] == float(np.min(0.25 * resolved ** 2))
    assert margin["evaluated"] == resolved.size
    assert margin["min_value"] == float(np.min(0.5 * resolved ** 2))
    assert not (stability["refuted"] or margin["refuted"])


def test_the_default_reference_is_decided_by_the_design_tuple():
    problem = library_problem("skew_bilinear")
    g = euclidean_geometry(problem.feasible_set)
    eg = preset_eg(g, problem, 0.1)
    pair, split = affine_box_split()
    dr = preset_dr(pair, whole_space(1), 1.0)
    given = np.ones(2)
    assert reference_point(eg, problem, given) is given
    assert reference_point(eg, problem) is problem.known_solution
    assert reference_point(None, problem) is problem.known_solution
    assert reference_point(dr, split) is None
    assert reference_point(dr, split, given) is given
    # the library default x_bar = None follows the same rule
    report = run_condition_checks(euclidean_geometry(whole_space(1)), dr, split,
                                  n_samples=20)
    assert report["surrogate_stability"]["skipped"] and report["descent_margin"]["skipped"]
    assert report["refuted"] is False


def test_check_api_anti_monotone_surrogate_refuted():
    # surrogate Phi(x) = -x on the line is unstable w.r.t. the origin
    s = whole_space(1)
    spec = TargetSpec(alpha=0.0, beta=1.0,
                      S=lambda x: np.asarray(x, dtype=float),
                      sigma=1.0, Phi=lambda x: -np.asarray(x, dtype=float),
                      target=ClosedForm(lambda x: np.asarray(x, dtype=float)),
                      feasible_set=s)
    problem = library_problem("scalar_shift", a=0.0)
    geometry = euclidean_geometry(s)
    report = run_condition_checks(geometry, spec, problem, n_samples=100,
                                  seed=0, x_bar=np.zeros(1))
    assert report["surrogate_stability"]["refuted"] is True
    assert report["refuted"] is True


def test_check_api_needs_a_pair_of_samples():
    problem = library_problem("skew_bilinear")
    g = euclidean_geometry(problem.feasible_set)
    with pytest.raises(ConfigurationError, match="at least 2 samples"):
        run_condition_checks(g, preset_eg(g, problem, 0.1), problem, n_samples=1)


def test_check_api_skew_surrogate_not_refuted():
    # Phi = -F for a skew operator: inner products vanish identically
    problem = library_problem("skew_bilinear")
    g = euclidean_geometry(problem.feasible_set)
    spec = TargetSpec(alpha=0.0, beta=1.0, S=g.grad_h, sigma=1.0,
                      Phi=lambda x: -problem.F(x),
                      target=ClosedForm(lambda x: np.asarray(x, dtype=float)),
                      feasible_set=problem.feasible_set)
    report = run_condition_checks(g, spec, problem, n_samples=100, seed=0,
                                  x_bar=np.zeros(2))
    assert report["surrogate_stability"]["refuted"] is False


@pytest.mark.parametrize("field", ["S", "Phi"])
@pytest.mark.parametrize("single", ["matmul", "indexing"])
def test_check_names_a_hand_built_callable_that_maps_only_single_points(field, single):
    # m @ x raises on a stack, and (x[1], -x[0]) returns the wrong shape;
    # unchecked, check ended in numpy's matmul ValueError
    problem = library_problem("skew_bilinear")
    g = euclidean_geometry(problem.feasible_set)
    spec = preset_eg(g, problem, 0.1)
    m = np.array([[0.0, 1.0], [-1.0, 0.0]])
    one_point = {"matmul": lambda x: m @ x,
                 "indexing": lambda x: np.array([x[1], -x[0]])}[single]
    callable_ = ((lambda x: g.grad_h(x) - 0.1 * one_point(x)) if field == "S"
                 else (lambda x: 0.1 * one_point(x)))
    spec = dataclasses.replace(spec, **{field: callable_})
    with pytest.raises(ConfigurationError, match=(
            f"^the design's {field} (raised ValueError|returned shapes) .*"
            "; it must map each row of a stack$")):
        run_condition_checks(g, spec, problem)


# --- ensemble -----------------------------------------------------------------------

def _states(path):
    rows = [line.split(",") for line in path.read_text().splitlines()]
    columns = [i for i, label in enumerate(rows[0]) if label.startswith("x_")]
    return np.array([[float(row[i]) for i in columns] for row in rows[1:]])


@pytest.mark.parametrize("budget", [
    "", "mode = flow\nflow.integrator = rk4\nflow.dt = 0.05\nbudget.t_end = 50\n"],
    ids=["discrete", "rk4"])
@pytest.mark.parametrize("name,tol,geometry", [
    ("ensemble_quadratic.cfg", 1e-9, "synthesized_quadratic"),
    ("ensemble_entropy.cfg", 1e-8, "synthesized_entropy"),
])
def test_ensemble_subcommand(tmp_path, name, tol, geometry, budget):
    out = tmp_path / "out"
    text = (CONFIG_DIR / name).read_text()
    text = "\n".join(line for line in text.splitlines()
                     if not line.startswith("output.dir"))
    text += f"\noutput.dir = {out}\n{budget}"
    code = run_cli("ensemble", text, tmp_path, name)
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["mode"] == ("rk4" if budget else "discrete")
    assert summary["synthesized_geometry"] == geometry
    # the tolerance scales with the largest state entry when that exceeds 1
    scale = max(1.0, np.abs(_states(out / "ensemble_trajectory.csv")).max())
    assert (scale > 1.0) == (name == "ensemble_quadratic.cfg")
    assert summary["reduction_tolerance"] == tol * scale
    assert summary["reduction_max_deviation"] <= summary["reduction_tolerance"]
    assert (out / "reduction_deviations.csv").exists()
    assert (out / "ensemble_trajectory.csv").exists()


@pytest.mark.parametrize("z0,message", [
    ("nan, 0, 0", "member 2: z0 must be finite, got [nan, 0.0, 0.0]"),
    ("1, 0", "member 2: z0 has 2 entries; the problem has dimension 3"),
])
def test_a_member_z0_is_checked_like_x0(tmp_path, capsys, z0, message):
    # a NaN z0 ended in the simplex projection's error, naming neither
    # the member nor the key
    out = tmp_path / "out"
    text = (CONFIG_DIR / "ensemble_entropy.cfg").read_text().replace(
        "ensemble.member2.z0 = 1, 0, 0", f"ensemble.member2.z0 = {z0}")
    assert run_cli("ensemble", text, tmp_path, env_dir=out) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.filterwarnings("error")
def test_an_ensemble_started_near_the_float_limit_stays_silent(tmp_path, capsys):
    # softmax of the members' duals overflows harmlessly at the start, in
    # the synthesized run's first state and the check's first average
    out = tmp_path / "out"
    text = (CONFIG_DIR / "ensemble_entropy.cfg").read_text().replace(
        "ensemble.member2.z0 = 1, 0, 0", "ensemble.member2.z0 = 1e308, -1e308, 0").replace(
        "budget.steps = 2000", "budget.steps = 20")
    assert run_cli("ensemble", text, tmp_path, env_dir=out) == 0
    assert capsys.readouterr().err == ""
    summary = json.loads((out / "summary.json").read_text())
    assert summary["termination"] == "budget_exhausted"
    assert summary["reduction_max_deviation"] <= summary["reduction_tolerance"]


def test_alpha_zero_ensemble_runs_its_budget(tmp_path):
    out = tmp_path / "out"
    text = ("problem.name = skew_bilinear\ngeometry.name = euclidean\n"
            "preset.name = vanilla_md\npreset.eta = 0.05\nbudget.steps = 500\n"
            f"{ENSEMBLE_MEMBERS}output.dir = {out}\n")
    assert run_cli("ensemble", text, tmp_path) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["termination"] == "budget_exhausted"
    assert summary["final_step"] == 500
    assert summary["final_natural_residual"] > 1e-3




@pytest.mark.parametrize("command,name", [
    ("solve", "eg_skew_solve.cfg"),
    ("compare", "compare_eg.cfg"),
    ("compare", "compare_bnn.cfg"),
    ("ensemble", "ensemble_quadratic.cfg"),
    ("ensemble", "ensemble_entropy.cfg"),
])
def test_outputs_name_every_file_written(tmp_path, command, name):
    out = tmp_path / "out"
    run_cli(command, (CONFIG_DIR / name).read_text(), tmp_path, name, env_dir=out)
    summary = json.loads((out / "summary.json").read_text())
    assert sorted(os.listdir(out)) == sorted(summary["outputs"].values())


def test_failed_solve_leaves_no_stale_outputs(tmp_path, capsys):
    # a converged solve, then one whose implicit target stalls (ppa on
    # rps_game under entropy asked for a target error that rounding
    # cannot reach) into the same directory
    out = tmp_path / "out"
    good = (CONFIG_DIR / "eg_skew_solve.cfg").read_text()
    assert run_cli("solve", good, tmp_path, "good.cfg", env_dir=out) == 0
    (out / "notes.txt").write_text("not an output\n")
    bad = ("problem.name = rps_game\ngeometry.name = entropy\npreset.name = ppa\n"
           "preset.eta = 50\npreset.inner_tol = 1e-300\nx0 = 0.6, 0.3, 0.1\n")
    assert run_cli("solve", bad, tmp_path, "bad.cfg", env_dir=out) == 1
    assert "target subproblem stalled" in capsys.readouterr().err
    assert sorted(os.listdir(out)) == ["notes.txt"]


@pytest.mark.parametrize("preset,eta", [
    ("ppa", 20), ("ppa", 50), ("ppa", 100), ("dmd_calibrated", 100)])
def test_large_step_proximal_targets_on_rps_entropy_converge(preset, eta, tmp_path):
    # targets far from x, where a plain mirror fixed-point iteration does
    # not contract; dmd_calibrated case 1 resolves the same targets in a flow
    out = tmp_path / "out"
    text = (f"problem.name = rps_game\ngeometry.name = entropy\npreset.name = {preset}\n"
            f"preset.eta = {eta}\nx0 = 0.6, 0.3, 0.1\noutput.dir = {out}\n")
    if preset == "dmd_calibrated":
        text += "preset.case = 1\nmode = flow\nbudget.t_end = 50\n"
    assert run_cli("solve", text, tmp_path) == 0
    assert json.loads((out / "summary.json").read_text())["termination"] == "converged"


def test_diverged_solve_replaces_the_earlier_outputs(tmp_path, capsys):
    out = tmp_path / "out"
    good = (CONFIG_DIR / "eg_skew_solve.cfg").read_text()
    assert run_cli("solve", good, tmp_path, "good.cfg", env_dir=out) == 0
    bad = (CONFIG_DIR / "vanilla_md_skew.cfg").read_text().replace(
        "preset.eta = 0.1", "preset.eta = 5.0")
    assert run_cli("solve", bad, tmp_path, "bad.cfg", env_dir=out) == 1
    err = capsys.readouterr().err
    assert err == "error: the dual point turned non-finite at step 436; the run diverges\n"
    assert sorted(os.listdir(out)) == ["summary.json", "trajectory.csv"]
    summary = json.loads((out / "summary.json").read_text())
    assert (summary["termination"], summary["final_step"]) == ("diverged", 435)
    assert "preset.eta = 5.0" in summary["config"]
    rows = (out / "trajectory.csv").read_text().splitlines()
    assert rows[-1].startswith("435,") and len(rows) == 437


@pytest.mark.parametrize("command,name,old,new", [
    ("compare", "compare_eg.cfg", "preset.name = eg", "preset.name = vanilla_md"),
    ("check", "check_eg.cfg", "preset.eta = 0.1", "preset.eta = 20"),
    ("ensemble", "ensemble_quadratic.cfg", "budget.steps = 10000",
     "budget.steps = 10000\nmode = flow\nflow.dt = 1e-300\nbudget.t_end = 1e300"),
    # configs that fail to load: under TARGETMD_OUT_DIR the directory does
    # not depend on the config, so the outputs go before the load
    ("solve", "eg_skew_solve.cfg", "x0 = 1, 0", "x0 = 1, 0\ncheck.samples = 1"),
    ("compare", "compare_eg.cfg", "budget.steps = 100", "budget.steps = -1"),
    ("check", "check_eg.cfg", "check.samples = 200", "check.samples = 1"),
    ("ensemble", "ensemble_quadratic.cfg", "budget.steps = 10000",
     "budget.steps = 10000\ncheck.samples = 1"),
    # the same without TARGETMD_OUT_DIR: the config's output.dir line names
    # the directory, and a key before that line fails to load
    ("solve", "eg_skew_solve.cfg", "output.dir = runs/eg_skew",
     "stop.residual = -1\noutput.dir = {out}"),
    ("compare", "compare_eg.cfg", "output.dir = runs/compare_eg",
     "stop.residual = -1\noutput.dir = {out}"),
    ("check", "check_eg.cfg", "output.dir = runs/check_eg",
     "stop.residual = -1\noutput.dir = {out}"),
    ("ensemble", "ensemble_quadratic.cfg", "output.dir = runs/ensemble_quadratic",
     "stop.residual = -1\noutput.dir = {out}"),
])
def test_failed_command_clears_only_its_own_outputs(tmp_path, command, name, old,
                                                    new):
    out = tmp_path / "out"
    text = (CONFIG_DIR / name).read_text()
    assert old in text
    # a case that rewrites the output.dir line runs without TARGETMD_OUT_DIR
    env_dir = None if old.startswith("output.dir") else out
    good = text if env_dir else text.replace(old, f"output.dir = {out}")
    assert run_cli(command, good, tmp_path, "good.cfg", env_dir=env_dir) == 0
    (out / "notes.txt").write_text("not an output\n")
    (out / "trajectory.csv").write_text("another command's output\n")
    bad = text.replace(old, new.format(out=out))
    assert run_cli(command, bad, tmp_path, "bad.cfg", env_dir=env_dir) == 1
    expected = ["notes.txt"] + (["trajectory.csv"] if command != "solve" else [])
    assert sorted(os.listdir(out)) == expected


@pytest.mark.parametrize("old,new", [
    ("output.dir = {out}", "output.dir ="),  # the directory does not validate
    ("x0 = 1, 0", "x0 1, 0"),                # a malformed line
])
def test_config_failing_before_its_output_dir_validates_deletes_nothing(
        tmp_path, old, new):
    out = tmp_path / "out"
    good = BASE_SOLVE.format(steps=50, out=out)
    assert run_cli("solve", good, tmp_path, "good.cfg") == 2
    bad = good.replace(old.format(out=out), new)
    assert bad != good
    assert run_cli("solve", bad, tmp_path, "bad.cfg") == 1
    assert sorted(os.listdir(out)) == ["summary.json", "trajectory.csv"]


@pytest.mark.parametrize("command,name", [
    ("solve", "eg_skew_solve.cfg"), ("compare", "compare_eg.cfg"),
    ("check", "check_eg.cfg"), ("ensemble", "ensemble_quadratic.cfg")])
def test_env_dir_leaves_the_configured_dir_alone(tmp_path, monkeypatch, command, name):
    # the shipped configs write under runs/ in the working directory
    monkeypatch.chdir(tmp_path)
    run_cli(command, (CONFIG_DIR / name).read_text(), tmp_path, name,
            env_dir=tmp_path / "out")
    assert sorted(os.listdir(tmp_path)) == [name, "out"]


def test_zero_stop_residual_solve_runs_its_whole_budget(tmp_path):
    out = tmp_path / "out"
    text = (CONFIG_DIR / "eg_skew_solve.cfg").read_text() + "stop.residual = 0\n"
    assert run_cli("solve", text, tmp_path, env_dir=out) == 2
    summary = json.loads((out / "summary.json").read_text())
    assert summary["termination"] == "budget_exhausted"
    assert summary["final_step"] == 10_000


@pytest.mark.parametrize("command,late_phase", [
    ("solve", "lyapunov_series"),
    ("compare", "_write_deviations"),
    ("check", "run_condition_checks"),
    ("ensemble", "verify_ensemble_reduction"),
])
def test_wallclock_covers_the_whole_command(tmp_path, monkeypatch, command,
                                            late_phase):
    # a clock that moves only while the last phase before the report runs
    out = tmp_path / "out"
    name = {"compare": "compare_eg", "check": "check_eg",
            "ensemble": "ensemble_quadratic"}.get(command)
    text = (BASE_SOLVE.format(steps=50, out=out) if name is None else
            (CONFIG_DIR / f"{name}.cfg").read_text().replace(f"runs/{name}", str(out)))
    now = [0.0]
    monkeypatch.setattr(harness, "time", SimpleNamespace(monotonic=lambda: now[0]))
    phase = getattr(harness, late_phase)

    def slow(*args, **kwargs):
        now[0] += 100.0
        return phase(*args, **kwargs)

    monkeypatch.setattr(harness, late_phase, slow)
    run_cli(command, text, tmp_path)
    report = json.loads((out / harness.COMMANDS[command].files[-1]).read_text())
    assert report["wallclock_seconds"] == 100.0


DIVERGING_ENSEMBLE = """problem.name = skew_bilinear
preset.name = eg
preset.eta = 0.1
budget.steps = 300
ensemble.member1.geometry = weighted_quadratic
ensemble.member1.weights = 0.2, 0.2
ensemble.member1.z0 = 0, 1
"""


def test_diverging_ensemble_passes_its_reduction_check(tmp_path):
    # the run grows to about 8e9; its rounding, about 2e-5, is far below
    # 1e-9 of the states' scale, but above the absolute 1e-9
    out = tmp_path / "out"
    assert run_cli("ensemble", DIVERGING_ENSEMBLE, tmp_path, env_dir=out) == 0
    summary = json.loads((out / "summary.json").read_text())
    scale = np.abs(_states(out / "ensemble_trajectory.csv")).max()
    assert scale > 1e9 and summary["final_step"] == 300
    assert summary["reduction_tolerance"] == 1e-9 * scale
    assert 1e-9 < summary["reduction_max_deviation"] <= summary["reduction_tolerance"]


def test_flow_ensemble_ends_at_budget_t_end(tmp_path):
    # the horizon of solve: round(t_end / dt) steps of flow.dt
    flow = ("problem.name = skew_bilinear\npreset.name = eg\nmode = flow\n"
            "flow.dt = 0.01\nbudget.t_end = 0.5\nstop.residual = 0\n")
    ensemble, solve = tmp_path / "ensemble", tmp_path / "solve"
    assert run_cli("ensemble", flow + "ensemble.member1.z0 = 1, 0\n", tmp_path,
                   env_dir=ensemble) == 0
    assert run_cli("solve", flow + "x0 = 1, 0\n", tmp_path, env_dir=solve) == 2
    summaries = [json.loads((out / "summary.json").read_text())
                 for out in (ensemble, solve)]
    for summary in summaries:
        assert summary["final_step"] == 50
        assert summary["final_time"] == pytest.approx(0.5, rel=1e-12)
    assert summaries[0]["final_time"] == summaries[1]["final_time"]


@pytest.mark.parametrize("geometry,design", [
    ("entropy", lambda x: np.log(x) + 1.0), ("euclidean", lambda x: x)])
def test_ensemble_design_follows_geometry_name(tmp_path, monkeypatch, geometry, design):
    # entropy members under either design geometry: the tuple is built on
    # geometry.name, whatever the members' own geometries
    specs = []
    run_ensemble = harness.run_ensemble

    def capture(members, spec, **kwargs):
        specs.append(spec)
        return run_ensemble(members, spec, **kwargs)

    monkeypatch.setattr(harness, "run_ensemble", capture)
    text = (CONFIG_DIR / "ensemble_entropy.cfg").read_text().replace(
        "geometry.name = entropy", f"geometry.name = {geometry}").replace(
        "preset.name = bnn", "preset.name = eg").replace(
        "preset.eta = 1.0", "preset.eta = 0.1").replace(
        "budget.steps = 2000", "budget.steps = 20")
    assert run_cli("ensemble", text, tmp_path, env_dir=tmp_path / "out") == 0
    x = np.array([0.5, 0.3, 0.2])
    rps = library_problem("rps_game")
    assert np.array_equal(specs[0].S(x), design(x) - 0.1 * rps.F(x))


def test_ensemble_requires_members(tmp_path):
    assert run_cli("ensemble", BASE_SOLVE.format(steps=10, out=tmp_path / "o"),
                   tmp_path) == 1


# --- list --------------------------------------------------------------------------

@pytest.mark.parametrize("argv,first", [
    (["list"], "problems:"),
    (["solve", str(CONFIG_DIR / "eg_skew_solve.cfg")], "converged  target_residual="),
])
def test_module_entry_point_in_a_subprocess(tmp_path, argv, first):
    # python -m targetmd.cli, so the __main__ guard runs too
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env[OUTPUT_DIR_ENV] = str(tmp_path)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-m", "targetmd.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    line = done.stdout.splitlines()[0]
    assert line.startswith(first)
    if argv[0] == "solve":
        assert line.endswith(f"-> {tmp_path}")
        assert (tmp_path / "summary.json").is_file()


def test_import_leaves_numpy_fft_unloaded():
    # the spectral solve loads numpy.fft on first use, not at import
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    probe = ("import sys, targetmd, targetmd.cli; "
             "print('numpy.fft' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def test_list_subcommand(capsys):
    assert main(["list"]) == 0
    text = capsys.readouterr().out
    for expected in ("skew_bilinear", "rps_game", "entropy", "dmd_calibrated",
                     "box_affine_split"):
        assert expected in text
    assert "eg_plus" not in text
