"""The single stepping loop: one scheme for discrete and flow runs, one
non-finite policy, and the boundary checks every runner passes through."""

import json
import math
import os
import re
import warnings
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from targetmd import (entropy_geometry, euclidean_geometry, flow,
                      library_problem, load_config, make_members, parse_config,
                      preset_eg, preset_vanilla_md, run_discrete, run_dmd,
                      run_ensemble, run_higher_order, run_vanilla_dmd,
                      preset_dmd_calibrated, verify_ensemble_reduction,
                      whole_space)
from targetmd import harness
from targetmd.cli import main
from targetmd.dynamics import SolverState, _Recorder, integrate
from targetmd.errors import ConfigurationError
from targetmd.harness import OUTPUT_DIR_ENV, run_command

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


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
budget.t_end = 1e103
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

def _runtime_warnings(run):
    """run()'s result and the RuntimeWarnings it raised, each recorded."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = run()
    return result, [w for w in caught if issubclass(w.category, RuntimeWarning)]


# Every runner driven to overflow on skew_bilinear from (1, 0): vanilla_md at
# eta = 1 doubles |x|^2 per step, the flows take steps of 1e100, and the
# discounted flows' gain of 1e200 overflows their dual in a few steps.
X0 = [1.0, 0.0]
HUGE_STEPS = {"dt": 1e100, "t_end": 1e104}
HUGE_GAIN = {"gamma": 1e200, "dt": 1.0, "t_end": 1000.0}


def _ensemble(g, spec, p, **budget):
    members = make_members([g], [np.array(X0)])
    return run_ensemble(members, spec, problem=p, stop_residual=0.0, **budget)


DIVERGING_RUNS = {
    "run_discrete": lambda g, spec, p: run_discrete(g, spec, problem=p, x0=X0,
                                                    n_steps=5000),
    "flow-euler": lambda g, spec, p: flow(g, spec, problem=p, x0=X0, **HUGE_STEPS),
    "flow-rk4": lambda g, spec, p: flow(g, spec, integrator="rk4", problem=p,
                                        x0=X0, **HUGE_STEPS),
    "run_dmd": lambda g, spec, p: run_dmd(g, preset_dmd_calibrated(g, p, 0.1, 2),
                                          problem=p, x0=X0, **HUGE_GAIN),
    "run_vanilla_dmd": lambda g, spec, p: run_vanilla_dmd(g, p, x0=X0, **HUGE_GAIN),
    "run_higher_order": lambda g, spec, p: run_higher_order(g, spec, problem=p,
                                                            x0=X0, **HUGE_STEPS),
    "run_ensemble-discrete": lambda g, spec, p: _ensemble(g, spec, p, n_steps=5000),
    "run_ensemble-flow": lambda g, spec, p: _ensemble(g, spec, p, **HUGE_STEPS),
}


@pytest.mark.parametrize("runner", sorted(DIVERGING_RUNS))
def test_every_runner_ends_diverged_with_its_finite_prefix(runner):
    p = library_problem("skew_bilinear")
    g = euclidean_geometry(p.feasible_set)
    spec = preset_vanilla_md(g, p, 1.0)
    record, caught = _runtime_warnings(lambda: DIVERGING_RUNS[runner](g, spec, p))
    assert caught == []
    assert record.termination == "diverged"
    assert len(record.steps) >= 1 and np.all(np.isfinite(record.states))
    assert record.steps[-1] == record.final_state.step_index
    assert np.array_equal(record.states[-1], record.final_state.x)
    assert np.all(np.isfinite(record.final_state.z))


def test_a_diverging_run_reads_a_finite_natural_residual_at_every_sample():
    # vanilla_md at eta = 1 doubles |x|^2 per step: the last finite samples
    # lie past the overflow of |r|^2 (1.3e154), the last one where x - F(x)
    # overflows too; the residual is still the finite ||F(x)||
    p = library_problem("skew_bilinear")
    g = euclidean_geometry(p.feasible_set)
    record = run_discrete(g, preset_vanilla_md(g, p, 1.0), problem=p, x0=X0,
                          n_steps=5000)
    assert record.termination == "diverged" and record.states[-1, 0] > 1e307
    assert np.all(np.isfinite(record.natural_residuals))
    fx = p.F(record.states)
    assert np.allclose(record.natural_residuals,
                       [np.hypot(*row) for row in fx], rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("preset,equilibrium", [
    # the uncalibrated baseline settles at x = 1, not at the solution x = 2
    ("dmd_vanilla", 1.0),
    ("higher_order", 2.0),
])
def test_discounted_and_higher_order_flows_settle_at_a_stable_dt(tmp_path, preset,
                                                                 equilibrium):
    out = tmp_path / "o"
    text = SCALAR_FLOW.format(preset=preset, out=out).replace(
        "flow.dt = 10", "flow.dt = 0.625")
    assert run_cli("solve", text, tmp_path) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["termination"] == "converged"
    assert summary["dt"] == 0.625
    last = (out / "trajectory.csv").read_text().strip().splitlines()[-1]
    assert float(last.split(",")[2]) == pytest.approx(equilibrium, abs=1e-6)


def test_an_unstable_euler_step_diverges_at_its_own_dt():
    # Euler on the decay flow z' = -(z - 2) is unstable at dt = 4; the run
    # makes one attempt and keeps its dt
    p = library_problem("scalar_shift", a=2.0)
    g = euclidean_geometry(p.feasible_set)
    rec = flow(g, preset_vanilla_md(g, p, 1.0), x0=[10.0], dt=4.0, t_end=4000.0,
               stop_residual=0.0)
    assert rec.dt == 4.0 and rec.termination == "diverged"
    assert rec.final_state.step_index < 1000
    assert np.all(np.isfinite(rec.states))


def _summary(out):
    return json.loads((out / "summary.json").read_text())


def test_discrete_divergence_writes_its_outputs_and_one_error_line(tmp_path, capsys):
    out = tmp_path / "o"
    assert run_cli("solve", VANILLA_MD_DIVERGES.format(out=out), tmp_path) == 1
    err = one_error_line(capsys)
    summary = _summary(out)
    assert summary["termination"] == "diverged" and summary["exit_code"] == 1
    assert err == ("error: the dual point turned non-finite at step "
                   f"{summary['final_step'] + 1}; the run diverges\n")
    rows = (out / "trajectory.csv").read_text().strip().splitlines()
    assert len(rows) == summary["final_step"] + 2   # header, steps 0..final
    assert rows[-1].startswith(f"{summary['final_step']},")


def test_a_diverging_run_reads_its_lyapunov_value_at_every_sample(tmp_path, capsys):
    # past |x| near 1.3e154, h(x*) - h(y) - <grad h(y), x* - y> is inf - inf;
    # the quadratic potential's 0.5 * |x* - y|^2, scaled, reads 2^1023 at
    # step 1024, where x = (2^512, 0), and inf from then on
    out = tmp_path / "o"
    code, caught = _runtime_warnings(
        lambda: run_cli("solve", VANILLA_MD_DIVERGES.format(out=out), tmp_path))
    assert code == 1 and caught == []
    one_error_line(capsys)
    rows = (out / "trajectory.csv").read_text().strip().splitlines()
    column = rows[0].split(",").index("lyapunov")
    cells = {int(row.split(",")[0]): row.split(",")[column] for row in rows[1:]}
    assert len(cells) == 2048 and all(cells.values())
    assert float(cells[1024]) == 8.98846567431158e+307 == 2.0 ** 1023
    assert all(float(cells[k]) == np.inf for k in range(1025, 2048))
    # every step increases it: the 1023 finite increases, then 2^1023 and inf
    assert _summary(out)["lyapunov_violations"] == 1025


def test_a_finite_start_near_the_float_limit_runs_its_budget(tmp_path, capsys):
    # from x0 = (1e308, 1e308) the first dual point, about (8.9e307, 1.09e308),
    # is finite though its sum overflows, and ||T(x0) - x0|| = 0.1 * |x0|
    # (1.4e307) is finite though its square is not: no step diverges
    out = tmp_path / "o"
    text = ("problem.name = skew_bilinear\ngeometry.name = euclidean\n"
            f"preset.name = eg\nx0 = 1e308, 1e308\noutput.dir = {out}\n")
    code, caught = _runtime_warnings(lambda: run_cli("solve", text, tmp_path))
    assert code == 2 and caught == []
    assert capsys.readouterr().err == ""
    summary = _summary(out)
    assert summary["termination"] == "budget_exhausted"
    assert np.isfinite(summary["final_target_residual"])
    rows = (out / "trajectory.csv").read_text().strip().splitlines()
    column = rows[0].split(",").index("residual_target")
    assert float(rows[1].split(",")[column]) == pytest.approx(
        0.1 * math.hypot(1e308, 1e308), rel=1e-15)


def test_only_a_first_step_that_overflows_diverges_at_step_1(tmp_path, capsys):
    # vanilla_md from (1.7e308, 1.7e308): at eta = 1e-300 the dual point
    # stays finite (its sum is not); at eta = 1, z1[1] = 1.7e308 + 1.7e308
    # is inf
    p = library_problem("skew_bilinear")
    g = euclidean_geometry(p.feasible_set)
    x0 = [1.7e308, 1.7e308]
    record, caught = _runtime_warnings(lambda: run_discrete(
        g, preset_vanilla_md(g, p, 1e-300), x0=x0, n_steps=5))
    assert caught == [] and record.termination == "budget_exhausted"
    assert record.final_state.step_index == 5
    assert np.all(np.isfinite(record.final_state.z))
    out = tmp_path / "o"
    text = VANILLA_MD_DIVERGES.format(out=out).replace("x0 = 1, 0", "x0 = 1.7e308, 1.7e308")
    code, caught = _runtime_warnings(lambda: run_cli("solve", text, tmp_path))
    assert code == 1 and caught == []
    assert one_error_line(capsys) == (
        "error: the dual point turned non-finite at step 1; the run diverges\n")
    summary = _summary(out)
    assert (summary["termination"], summary["final_step"], summary["samples"]) == (
        "diverged", 0, 1)


EG_EULER_OVERFLOWS = """problem.name = skew_bilinear
geometry.name = euclidean
preset.name = eg
preset.eta = 0.1
mode = flow
flow.integrator = euler
flow.dt = 10
budget.t_end = 100000
x0 = 1, 0
output.dir = {out}
"""


def test_an_eg_flow_whose_s_overflows_ends_diverged(tmp_path, capsys):
    # Euler at dt = 10 grows the EG flow by about 1.35 per step; the whole-
    # space mirror map passes the non-finite S values on unchecked, and the
    # loop's finiteness test ends the run at the first non-finite dual point,
    # not at the last finite one, whose entries sum past the float range
    out = tmp_path / "o"
    code, caught = _runtime_warnings(
        lambda: run_cli("solve", EG_EULER_OVERFLOWS.format(out=out), tmp_path))
    assert code == 1 and caught == []
    err = one_error_line(capsys)
    summary = _summary(out)
    assert summary["termination"] == "diverged" and summary["final_step"] > 2000
    assert err == ("error: the dual point turned non-finite at step "
                   f"{summary['final_step'] + 1}; the run diverges\n")
    rows = (out / "trajectory.csv").read_text().strip().splitlines()
    assert len(rows) == summary["samples"] + 1
    assert rows[-1].startswith(f"{summary['final_step']},")
    points = np.array([[float(c) for c in row.split(",")[2:4]] for row in rows[1:]])
    assert np.all(np.isfinite(points))
    with np.errstate(over="ignore"):
        assert np.sum(points[-1]) == np.inf


@pytest.mark.parametrize("shape", [(2,), (3, 2)])
@pytest.mark.parametrize("entry,termination", [
    (1e308, "budget_exhausted"), (np.inf, "diverged"), (-np.inf, "diverged"),
    (np.nan, "diverged")])
def test_the_finiteness_test_is_exact_on_a_point_and_a_stack(shape, entry, termination):
    # one step from dual 0 to a point of entries 1e308 but its last: the
    # sum of the entries overflows, but only an inf or a NaN is non-finite
    step = np.full(shape, 1e308)
    step.flat[-1] = entry
    z0 = np.zeros(shape)
    first_row = lambda z: z.reshape(-1, 2)[0]
    record, caught = _runtime_warnings(lambda: integrate(
        lambda x, tx, sx, z: step, first_row, SolverState(0, 0.0, z0, first_row(z0)),
        "discrete", 1.0, target=lambda x: (None, None),
        recorder=partial(_Recorder, None, None, None, None)))
    assert caught == [] and record.termination == termination
    assert record.final_state.step_index == (termination != "diverged")


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


def test_ensemble_flow_divergence_writes_its_outputs(tmp_path, capsys):
    out = tmp_path / "o"
    text = HUGE_STEP_ENSEMBLE.format(out=out)
    code, caught = _runtime_warnings(lambda: run_cli("ensemble", text, tmp_path))
    assert code == 1 and caught == []
    err = one_error_line(capsys)
    summary = _summary(out)
    assert summary["termination"] == "diverged"
    assert f"non-finite at step {summary['final_step'] + 1};" in err
    assert (out / "ensemble_trajectory.csv").exists()
    # the check follows the finite prefix it was handed
    assert "reduction_max_deviation" in summary
    assert (out / "reduction_deviations.csv").exists()


def _ensemble_text(case, mode, out):
    if case == "huge_step":
        return HUGE_STEP_ENSEMBLE.format(out=out)
    text = (CONFIG_DIR / f"{case}.cfg").read_text()
    text = re.sub(r"(?m)^output\.dir = .*$", f"output.dir = {out}", text)
    return text + ("mode = flow\n" if mode == "flow" else "")


@pytest.mark.parametrize("variant", ["as_shipped", "tolerance_exceeded", "sets_verify"])
@pytest.mark.parametrize("case,mode", [
    ("ensemble_quadratic", "discrete"), ("ensemble_quadratic", "flow"),
    ("ensemble_entropy", "discrete"), ("ensemble_entropy", "flow"),
    ("huge_step", "flow")])
def test_every_ensemble_verifies_its_reduction(tmp_path, capsys, monkeypatch, case,
                                               mode, variant):
    # every run writes the deviations and the three reduction keys, and exits
    # 1 exactly when it diverged or its deviation exceeds the tolerance; the
    # key that switched the check off is refused like any unknown key
    out = tmp_path / "o"
    text = _ensemble_text(case, mode, out)
    if variant == "sets_verify":
        text += "ensemble.verify = true\n"
        assert run_cli("ensemble", text, tmp_path) == 1
        assert one_error_line(capsys).endswith(" ensemble.verify is not a known key\n")
        assert not out.exists()
        return
    if variant == "tolerance_exceeded":
        check = harness.verify_ensemble_reduction
        monkeypatch.setattr(harness, "verify_ensemble_reduction", lambda *args: replace(
            check(*args), tolerance=-1.0))
    code, caught = _runtime_warnings(lambda: run_cli("ensemble", text, tmp_path))
    assert caught == []
    summary = _summary(out)
    assert sorted(os.listdir(out)) == [
        "ensemble_trajectory.csv", "reduction_deviations.csv", "summary.json"]
    deviation, tolerance = (summary["reduction_max_deviation"],
                            summary["reduction_tolerance"])
    assert summary["synthesized_geometry"].startswith("synthesized")
    diverged = summary["termination"] == "diverged"
    assert diverged == (case == "huge_step")
    exceeded = deviation is None or deviation > tolerance
    assert exceeded == (variant == "tolerance_exceeded")
    assert code == summary["exit_code"] == (1 if diverged or exceeded else 0)
    if diverged:
        one_error_line(capsys)
    else:
        assert f"  reduction_deviation={deviation:.3e}  -> {out}" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["solve", "ensemble"])
def test_flow_budget_of_infinitely_many_steps_is_one_error_line(tmp_path, capsys,
                                                                command):
    # budget.t_end / flow.dt overflows to inf: there is no step count to run
    out = tmp_path / "o"
    text = HUGE_STEP_ENSEMBLE.format(out=out).replace(
        "flow.dt = 1e100", "flow.dt = 1e-300").replace(
        "budget.t_end = 1e103", "budget.t_end = 1e300")
    assert run_cli(command, text, tmp_path) == 1
    err = one_error_line(capsys)
    assert "t_end / dt = 1e+300 / 1e-300 is not a finite number" in err
    assert not out.exists()


@pytest.mark.parametrize("dt", [None, 0.1])
def test_reduction_check_that_overflows_counts_unreached_samples_as_infinite(dt):
    # the check's run diverges at once while the record stays finite: every
    # sample it did not reach deviates by inf, and the reduction fails
    p = library_problem("skew_bilinear")
    g = euclidean_geometry(whole_space(2))
    members = make_members([g], [np.array([1.0, 0.0])])
    budget = {"n_steps": 100} if dt is None else {"dt": dt, "t_end": 100 * dt}
    record = run_ensemble(members, preset_eg(g, p, 0.1), stop_residual=0.0, **budget)
    assert np.all(np.isfinite(record.states))
    report, caught = _runtime_warnings(lambda: verify_ensemble_reduction(
        members, preset_vanilla_md(g, p, 1e300), record))
    assert caught == []
    assert len(report.deviations) == len(record.steps)
    assert report.deviations[0] == 0.0
    assert np.all(report.deviations[-5:] == np.inf)
    assert report.max_deviation == np.inf > report.tolerance


def _scalar_ensemble():
    p = library_problem("scalar_shift", a=2.0)
    g = euclidean_geometry(whole_space(1))
    return p, preset_eg(g, p, 0.5), make_members([g], [np.array([10.0])])


def test_ensemble_flow_at_a_non_unit_dt_keeps_every_step():
    p, spec, members = _scalar_ensemble()
    # Euler on the extragradient flow z' = -(x - 2)/4 contracts by 1/2 at dt = 6
    rec = run_ensemble(members, spec, problem=p, dt=6.0, t_end=6_000.0, stride=1)
    assert rec.dt == 6.0 and rec.termination == "converged"
    # the check steps at the record's dt and keeps every one of its steps
    report = verify_ensemble_reduction(members, spec, rec)
    assert len(report.deviations) == rec.final_state.step_index + 1
    assert report.max_deviation <= 1e-12


def test_reduction_check_follows_a_strided_record_at_a_non_unit_dt():
    p, spec, members = _scalar_ensemble()
    rec = run_ensemble(members, spec, problem=p, dt=6.0, t_end=6_000.0, stride=10)
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
