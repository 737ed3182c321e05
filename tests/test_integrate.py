"""The single stepping loop: one scheme for discrete and flow runs, one
non-finite policy, and the boundary checks every runner passes through."""

import json
import os
import warnings

import numpy as np
import pytest

from targetmd import (entropy_geometry, euclidean_geometry, flow,
                      library_problem, load_config, make_members, parse_config,
                      preset_eg, preset_vanilla_md, run_discrete, run_dmd,
                      run_ensemble, run_higher_order, run_vanilla_dmd,
                      preset_dmd_calibrated, verify_ensemble_reduction,
                      whole_space)
from targetmd.cli import main
from targetmd.errors import ConfigurationError, FlowDivergenceError
from targetmd.harness import OUTPUT_DIR_ENV, run_command


def run_cli(command, text, tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(text)
    old = os.environ.pop(OUTPUT_DIR_ENV, None)
    try:
        return main([command, str(path)])
    finally:
        if old is not None:
            os.environ[OUTPUT_DIR_ENV] = old


def one_error_line(capsys):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    return err


SCALAR_FLOW = """problem.name = scalar_shift
problem.a = 2.0
geometry.name = euclidean
preset.name = {preset}
mode = flow
flow.dt = 10
budget.t_end = 50000
output.dir = {out}
"""

VANILLA_MD_DIVERGES = """problem.name = skew_bilinear
geometry.name = euclidean
preset.name = vanilla_md
preset.eta = 1
mode = discrete
budget.steps = 5000
x0 = 1, 0
output.dir = {out}
"""

HUGE_STEP_ENSEMBLE = """problem.name = skew_bilinear
geometry.name = euclidean
preset.name = eg
preset.eta = 0.1
mode = flow
flow.dt = 1e100
ensemble.count = 1
ensemble.member1.geometry = euclidean
ensemble.member1.z0 = 1, 0
output.dir = {out}
"""


# --- one scheme ---------------------------------------------------------------

@pytest.mark.parametrize("name,eta", [("eg", 0.1), ("vanilla_md", 0.05)])
def test_discrete_run_is_euler_with_unit_step(name, eta):
    p = library_problem("skew_bilinear")
    g = euclidean_geometry(p.feasible_set)
    spec = (preset_eg if name == "eg" else preset_vanilla_md)(g, p, eta)
    discrete = run_discrete(g, spec, problem=p, x0=[1.0, 0.0], n_steps=300)
    euler = flow(g, spec, integrator="euler", dt=1.0, t_end=300.0, problem=p,
                 x0=[1.0, 0.0], stride=1)
    assert np.array_equal(discrete.states, euler.states)
    assert np.array_equal(discrete.steps, euler.steps)
    assert np.array_equal(discrete.times, euler.times)
    assert discrete.termination == euler.termination
    assert (discrete.mode, euler.mode) == ("discrete", "euler")


def test_stride_samples_start_multiples_and_end():
    p = library_problem("skew_bilinear")
    g = euclidean_geometry(p.feasible_set)
    rec = run_discrete(g, preset_eg(g, p, 0.1), problem=p, x0=[1.0, 0.0],
                       n_steps=25, stop_residual=0.0, stride=10)
    assert rec.steps.tolist() == [0, 10, 20, 25]
    rec = run_discrete(g, preset_eg(g, p, 0.1), problem=p, x0=[1.0, 0.0],
                       n_steps=0, stride=10)
    assert rec.steps.tolist() == [0]


# --- non-finite policy ----------------------------------------------------------

@pytest.mark.parametrize("preset,equilibrium", [
    # the uncalibrated baseline settles at x = 1, not at the solution x = 2
    ("dmd_vanilla", 1.0),
    ("higher_order", 2.0),
])
def test_discounted_and_higher_order_flows_halve_dt(tmp_path, preset, equilibrium):
    out = tmp_path / "o"
    assert run_cli("solve", SCALAR_FLOW.format(preset=preset, out=out), tmp_path) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["termination"] == "converged"
    assert summary["dt"] < 10.0
    last = (out / "trajectory.csv").read_text().strip().splitlines()[-1]
    assert float(last.split(",")[2]) == pytest.approx(equilibrium, abs=1e-6)


def test_discrete_divergence_is_a_typed_error(tmp_path, capsys):
    out = tmp_path / "o"
    assert run_cli("solve", VANILLA_MD_DIVERGES.format(out=out), tmp_path) == 1
    err = one_error_line(capsys)
    assert "non-finite at step" in err and "NaN" not in err
    assert not out.exists()
    p = library_problem("skew_bilinear")
    g = euclidean_geometry(p.feasible_set)
    with pytest.raises(FlowDivergenceError, match="non-finite at step"):
        run_discrete(g, preset_vanilla_md(g, p, 1.0), problem=p, x0=[1.0, 0.0],
                     n_steps=5000)


def _runtime_warnings(run):
    """run()'s result and the RuntimeWarnings it raised, each recorded."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = run()
    return result, [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_overflowing_start_gap_leaves_only_the_error_line(tmp_path, capsys):
    # ||T(x0) - x0|| overflows at x0 = (1e308, 1e308); the start point's
    # gap is evaluated inside the loop's errstate block, so only the
    # divergence error reaches stderr
    out = tmp_path / "o"
    text = ("problem.name = skew_bilinear\ngeometry.name = euclidean\n"
            f"preset.name = eg\nx0 = 1e308, 1e308\noutput.dir = {out}\n")
    code, caught = _runtime_warnings(lambda: run_cli("solve", text, tmp_path))
    assert code == 1 and caught == []
    assert "non-finite at step 1" in one_error_line(capsys)
    assert not out.exists()


def test_bnn_flow_at_a_huge_step_keeps_finite_target_residuals(tmp_path, capsys):
    # x * exp(eta * excess / x) overflows at eta = 1e10; the log-space
    # target stays finite, so every sample reports its target residual
    out = tmp_path / "o"
    text = ("problem.name = rps_game\ngeometry.name = entropy\npreset.name = bnn\n"
            "preset.eta = 1e10\nmode = flow\nflow.integrator = euler\n"
            f"budget.t_end = 1.0\nx0 = 0.6, 0.3, 0.1\noutput.dir = {out}\n")
    code, caught = _runtime_warnings(lambda: run_cli("solve", text, tmp_path))
    assert code == 2 and caught == []
    assert capsys.readouterr().err == ""
    rows = (out / "trajectory.csv").read_text().strip().splitlines()
    column = rows[0].split(",").index("residual_target")
    cells = [row.split(",")[column] for row in rows[1:]]
    assert len(cells) == 11 and all(np.isfinite(float(c)) for c in cells), cells
    summary = json.loads((out / "summary.json").read_text())
    assert np.isfinite(summary["final_target_residual"])


def test_ensemble_flow_divergence_is_a_typed_error(tmp_path, capsys):
    out = tmp_path / "o"
    assert run_cli("ensemble", HUGE_STEP_ENSEMBLE.format(out=out), tmp_path) == 1
    err = one_error_line(capsys)
    assert "non-finite" in err and "NaN" not in err
    assert not out.exists()
    p = library_problem("skew_bilinear")
    spec = preset_eg(euclidean_geometry(whole_space(2)), p, 0.1)
    members = make_members([euclidean_geometry(whole_space(2))], [np.array([1.0, 0.0])])
    with pytest.raises(FlowDivergenceError):
        run_ensemble(members, spec, problem=p, n_steps=1000, dt=1e100)


@pytest.mark.parametrize("dt", [None, 0.1])
def test_reduction_check_that_overflows_is_a_typed_error(dt):
    # the parallel run of the check steps at the record's dt with no halving
    p = library_problem("skew_bilinear")
    g = euclidean_geometry(whole_space(2))
    members = make_members([g], [np.array([1.0, 0.0])])
    record = run_ensemble(members, preset_eg(g, p, 0.1), n_steps=100, dt=dt,
                          stop_residual=0.0)
    assert np.all(np.isfinite(record.states))
    with pytest.raises(FlowDivergenceError, match="non-finite"):
        verify_ensemble_reduction(members, preset_vanilla_md(g, p, 1e300), record)


def test_ensemble_flow_halves_like_a_single_flow():
    p = library_problem("scalar_shift", a=2.0)
    g = euclidean_geometry(whole_space(1))
    spec = preset_eg(g, p, 0.5)
    members = make_members([g], [np.array([10.0])])
    # Euler on the extragradient flow z' = -(x - 2)/4 grows by 5 per step
    # at dt = 24 and by 2 at dt = 12; it contracts by 1/2 at dt = 6
    rec = run_ensemble(members, spec, problem=p, n_steps=1000, dt=24.0)
    assert rec.dt == 6.0 and rec.termination == "converged"
    # the check steps at the halved dt and keeps every one of the record's steps
    report = verify_ensemble_reduction(members, spec, rec)
    assert len(report.deviations) == rec.final_state.step_index + 1
    assert report.max_deviation <= 1e-12


def test_reduction_check_follows_a_strided_halved_record():
    p = library_problem("scalar_shift", a=2.0)
    g = euclidean_geometry(whole_space(1))
    spec = preset_eg(g, p, 0.5)
    members = make_members([g], [np.array([10.0])])
    rec = run_ensemble(members, spec, problem=p, n_steps=1000, dt=24.0, stride=10)
    assert rec.dt == 6.0 and rec.termination == "converged"
    assert rec.final_state.step_index % 10 != 0   # the end sample is off-stride
    report = verify_ensemble_reduction(members, spec, rec)
    assert len(report.deviations) == len(rec.steps)
    assert np.all(report.deviations <= 1e-12)


# --- boundary checks ------------------------------------------------------------

BASE_FLOW = """problem.name = skew_bilinear
geometry.name = euclidean
preset.name = fbf
mode = flow
output.dir = {out}
"""


@pytest.mark.parametrize("key,value,rule", [
    ("flow.dt", "nan", "finite positive"),
    ("flow.dt", "inf", "finite positive"),
    ("flow.dt", "0", "finite positive"),
    ("flow.dt", "-1", "finite positive"),
    ("budget.t_end", "nan", ">= 0"),
    ("budget.t_end", "inf", ">= 0"),
    ("budget.t_end", "-5", ">= 0"),
])
def test_config_rejects_bad_dt_and_horizon(tmp_path, capsys, key, value, rule):
    out = tmp_path / "o"
    text = BASE_FLOW.format(out=out) + f"{key} = {value}\n"
    path = tmp_path / "exp.cfg"
    path.write_text(text)
    with pytest.raises(ConfigurationError, match=f"exp.cfg:6: {key} must be"):
        load_config(path)
    assert run_cli("solve", text, tmp_path) == 1
    assert rule in one_error_line(capsys)
    assert not out.exists()


def test_config_accepts_zero_horizon():
    assert parse_config("budget.t_end = 0\n").t_end == 0.0


def test_integrate_checks_dt_and_horizon_for_library_callers():
    p = library_problem("scalar_shift", a=2.0)
    g = euclidean_geometry(p.feasible_set)
    spec = preset_dmd_calibrated(g, p, eta=1.0, case=1)
    with pytest.raises(ConfigurationError, match="dt must be"):
        run_dmd(g, spec, dt=float("nan"), problem=p)
    with pytest.raises(ConfigurationError, match="t_end must be"):
        run_vanilla_dmd(g, p, t_end=-5.0)
    with pytest.raises(ConfigurationError, match="dt must be"):
        run_higher_order(g, preset_eg(g, p, 0.5), dt=float("inf"), problem=p)
    with pytest.raises(ConfigurationError, match="t_end must be"):
        flow(g, spec, t_end=float("nan"), problem=p)


GAIN_CASES = [
    ("dmd_calibrated", "gamma"),
    ("dmd_vanilla", "gamma"),
    ("higher_order", "gamma1"),
    ("higher_order", "gamma2"),
]


@pytest.mark.parametrize("value", ["nan", "inf", "0", "-1", "abc"])
@pytest.mark.parametrize("preset,key", GAIN_CASES)
def test_gains_must_be_finite_positive_numbers(tmp_path, capsys, preset, key, value):
    out = tmp_path / "o"
    text = SCALAR_FLOW.format(preset=preset, out=out) + f"preset.{key} = {value}\n"
    assert run_cli("solve", text, tmp_path) == 1
    err = one_error_line(capsys)
    assert f"{key} must be a finite positive number" in err
    with pytest.raises(ConfigurationError):
        run_command("solve", parse_config(text))
    assert not out.exists()


@pytest.mark.parametrize("mode", ["discrete", "flow"])
def test_x0_of_the_wrong_size_is_a_configuration_error(tmp_path, capsys, mode):
    out = tmp_path / "o"
    text = (f"problem.name = skew_bilinear\ngeometry.name = euclidean\n"
            f"preset.name = eg\nmode = {mode}\nx0 = 1, 0, 0\noutput.dir = {out}\n")
    assert run_cli("solve", text, tmp_path) == 1
    assert "x0 has 3 entries; the problem has dimension 2" in one_error_line(capsys)
    assert not out.exists()


def test_simplex_default_start_passes_the_size_check():
    p = library_problem("rps_game")
    g = entropy_geometry(3)
    rec = run_discrete(g, preset_eg(g, p, 0.1), problem=p, n_steps=3,
                       stop_residual=-1.0)
    assert rec.states.shape == (4, 3)


@pytest.mark.parametrize("x0", ["nan, 0", "1, inf"])
def test_non_finite_x0_is_a_configuration_error(tmp_path, capsys, x0):
    out = tmp_path / "o"
    text = (f"problem.name = skew_bilinear\ngeometry.name = euclidean\n"
            f"preset.name = eg\nx0 = {x0}\noutput.dir = {out}\n")
    assert run_cli("solve", text, tmp_path) == 1
    assert "x0 must be finite" in one_error_line(capsys)
    assert not out.exists()


def test_non_integer_dimension_is_a_configuration_error(tmp_path, capsys):
    out = tmp_path / "o"
    text = (f"problem.name = skew_bilinear\nproblem.dim = 2.5\n"
            f"geometry.name = euclidean\npreset.name = eg\noutput.dir = {out}\n")
    assert run_cli("solve", text, tmp_path) == 1
    assert "integer dim >= 2, got 2.5" in one_error_line(capsys)
    assert not out.exists()


@pytest.mark.parametrize("integrator", ["euler", "rk4"])
@pytest.mark.parametrize("x0", [None, "0.5, 0.3, 0.2"])
def test_huge_step_flow_writes_strict_json(tmp_path, capsys, integrator, x0):
    out = tmp_path / "o"
    text = (f"problem.name = rps_game\ngeometry.name = euclidean\n"
            f"preset.name = eg\nmode = flow\nflow.integrator = {integrator}\n"
            f"flow.dt = 1e200\nbudget.t_end = 1e201\noutput.dir = {out}\n")
    if x0 is not None:
        text += f"x0 = {x0}\n"
    assert run_cli("solve", text, tmp_path) in (0, 2)
    assert capsys.readouterr().err == ""

    def reject(constant):
        raise ValueError(f"bare {constant} in summary.json")

    summary = json.loads((out / "summary.json").read_text(), parse_constant=reject)
    # 10 * dt**2 is past the float range: the band is inf and written as null
    assert summary["lyapunov_band"] is None
    assert summary["lyapunov_violations"] == 0
