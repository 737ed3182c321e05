from functools import partial
from pathlib import Path

import numpy as np
import pytest

import reference_impls as ri
import targetmd.dynamics as dynamics
from targetmd import (affine_box_split, entropy_geometry,
                      euclidean_geometry, flow, initial_state,
                      library_problem, lyapunov_series, natural_residual,
                      preset_bnn, preset_dmd_calibrated, preset_dr, preset_eg,
                      preset_fb, preset_fbf, preset_ppa, preset_vanilla_md,
                      primal_vector_field, relaxed_condition_value,
                      resolve_target, run_discrete, run_dmd, run_higher_order,
                      run_vanilla_dmd, whole_space)
from targetmd.cli import main
from targetmd.dynamics import dual_rate, violation_band
from targetmd.errors import ConfigurationError
from targetmd.harness import OUTPUT_DIR_ENV
from targetmd.targets import ClosedFormGap

SEED = 999


def _skew():
    p = library_problem("skew_bilinear")
    return p, euclidean_geometry(p.feasible_set)


# --- single steps -----------------------------------------------------------

def test_discrete_step_eg_example():
    p, g = _skew()
    spec = preset_eg(g, p, 0.1)
    nxt = run_discrete(g, spec, x0=[1.0, 0.0], n_steps=1).final_state
    assert np.allclose(nxt.x, [0.99, 0.1])
    assert nxt.step_index == 1


def test_discrete_step_vanilla_md_grows():
    p, g = _skew()
    spec = preset_vanilla_md(g, p, 0.1)
    state = initial_state(g, [1.0, 0.0])
    nxt = run_discrete(g, spec, n_steps=1, state=state).final_state
    assert np.allclose(nxt.x, [1.0, 0.1])
    assert np.linalg.norm(nxt.x) > np.linalg.norm(state.x)


def test_discrete_step_stationary_at_solution():
    p, g = _skew()
    for spec in (preset_eg(g, p, 0.1), preset_ppa(g, p, 0.5),
                 preset_fbf(p, 0.1)):
        # stop_residual = 0 runs the step, also from the exact fixed point
        rec = run_discrete(g, spec, x0=p.known_solution, n_steps=1, stop_residual=0.0)
        assert rec.final_state.step_index == 1
        assert np.linalg.norm(rec.final_state.x - rec.states[0]) <= 1e-10


def test_state_consistency_after_steps():
    p = library_problem("rps_game")
    g = entropy_geometry(3)
    spec = preset_eg(g, p, 0.1)
    state = initial_state(g, [0.5, 0.25, 0.25])
    for k in range(1, 51):
        state = run_discrete(g, spec, n_steps=1, stop_residual=0.0,
                             state=state).final_state
        assert state.step_index == k
        assert np.linalg.norm(state.x - g.grad_h_conj(state.z)) <= 1e-12
        assert abs(state.x.sum() - 1.0) <= 1e-9 and np.all(state.x > 0.0)


# --- reduction equivalence ----------------------------------------------------
# every preset against an independently coded version of the iteration it
# reproduces, run side by side from one initial point

def _side_by_side(geometry, spec, reference_step, x0, n_steps):
    states = run_discrete(geometry, spec, x0=x0, n_steps=n_steps,
                          stop_residual=0.0).states
    assert len(states) == n_steps + 1
    x_ref = states[0]
    worst = 0.0
    for x in states[1:]:
        x_ref = reference_step(x_ref)
        worst = max(worst, float(np.linalg.norm(x - x_ref)))
    return worst


def test_reduction_ppa_linear():
    p, g = _skew()
    m, q = p.linear_terms
    m = m.to_dense()
    spec = preset_ppa(g, p, 0.5, inner_tol=1e-13)
    worst = _side_by_side(g, spec, lambda x: ri.ppa_step_linear(m, q, 0.5, x),
                          [1.0, 0.0], 100)
    assert worst <= 1e-9


def test_reduction_eg():
    p, g = _skew()
    spec = preset_eg(g, p, 0.1)
    worst = _side_by_side(
        g, spec,
        lambda x: ri.eg_step_euclidean(p.F, p.feasible_set.project, 0.1, 0.1, x),
        [1.0, 0.0], 100)
    assert worst <= 1e-12


def test_reduction_eg_plus():
    p, g = _skew()
    spec = preset_eg(g, p, 0.1, 0.05)
    worst = _side_by_side(
        g, spec,
        lambda x: ri.eg_step_euclidean(p.F, p.feasible_set.project, 0.1, 0.05, x),
        [1.0, 0.0], 100)
    assert worst <= 1e-12


def test_reduction_eg_entropy():
    p = library_problem("rps_game")
    g = entropy_geometry(3)
    spec = preset_eg(g, p, 0.1)
    worst = _side_by_side(g, spec,
                          lambda x: ri.eg_step_entropy(p.F, 0.1, 0.1, x),
                          [0.5, 0.25, 0.25], 100)
    assert worst <= 1e-12


def test_reduction_dr():
    pair, _ = affine_box_split(2.0, 0.0, 1.0)
    g = euclidean_geometry(whole_space(1))
    spec = preset_dr(pair, g.domain, 1.0)
    ja = lambda v: np.clip(v, 0.0, 1.0)
    jb = lambda v: (v + 2.0) / 2.0
    worst = _side_by_side(g, spec, lambda x: ri.dr_step(ja, jb, x), [3.0], 100)
    assert worst <= 1e-12


def test_reduction_fb():
    pair, _ = affine_box_split(2.0, 0.0, 1.0)
    g = euclidean_geometry(whole_space(1))
    spec = preset_fb(pair, g.domain, 0.5)
    ja = lambda v: np.clip(v, 0.0, 1.0)
    b = lambda x: x - 2.0
    worst = _side_by_side(g, spec, lambda x: ri.fb_step(ja, b, 0.5, x), [-2.0], 100)
    assert worst <= 1e-12


def test_reduction_bnn_field():
    p = library_problem("rps_game")
    g = entropy_geometry(3)
    spec = preset_bnn(p, eta=1.0)
    rng = np.random.default_rng(SEED)
    for x in p.feasible_set.sample_interior(rng, 1000, margin=0.02):
        ours = primal_vector_field(g, spec, x)
        theirs = ri.bnn_field(p.F, x)
        assert np.linalg.norm(ours - theirs) <= 1e-10


def test_reduction_fbf_field():
    p, g = _skew()
    spec = preset_fbf(p, 0.1)
    rng = np.random.default_rng(SEED + 1)
    for x in p.feasible_set.sample(rng, 1000):
        ours = dual_rate(spec, x, *resolve_target(spec, x))
        theirs = ri.fbf_field(p.F, p.feasible_set.project, 0.1, x)
        assert np.linalg.norm(ours - theirs) <= 1e-10


def _rate_cases():
    p, g = _skew()
    rps, ent = library_problem("rps_game"), entropy_geometry(3)
    return {
        "eg": (preset_eg(g, p, 0.1), p),
        "eg_plus": (preset_eg(g, p, 0.1, 0.05), p),
        "bnn_eta1": (preset_bnn(rps, eta=1.0), rps),
        "bnn_eta2": (preset_bnn(rps, eta=2.0), rps),
        "ppa_closed_form": (preset_ppa(g, p, 0.5), p),
        "ppa_entropy": (preset_ppa(ent, rps, 1.0), rps),
        "vanilla_md": (preset_vanilla_md(g, p, 0.1), p),
        "dmd_calibrated_case2": (preset_dmd_calibrated(g, p, 0.1, case=2), p),
    }


@pytest.mark.parametrize("name", list(_rate_cases()))
def test_dual_rate_is_the_literal_formula(name):
    # alpha = 1 skips its multiply and alpha = 0 its gap; neither may move a
    # bit.  Under ClosedFormGap the target's gap stands in for
    # S(T(x)) - S(x); elsewhere the rate evaluates S(x) when no anchor is
    # handed on.
    spec, p = _rate_cases()[name]
    rng = np.random.default_rng(SEED + 2)
    for x in p.feasible_set.sample_interior(rng, 25, margin=0.02):
        tx, sx = resolve_target(spec, x)
        gap = (spec.target.fn(x)[1] if isinstance(spec.target, ClosedFormGap)
               else spec.S(tx) - spec.S(x))
        literal = spec.alpha * gap - spec.beta * spec.Phi(x)
        assert np.array_equal(dual_rate(spec, x, tx, sx), literal)
        if not isinstance(spec.target, ClosedFormGap):
            assert np.array_equal(dual_rate(spec, x, tx, None), literal)


# --- flows -------------------------------------------------------------------

def test_flow_fbf_norm_strictly_decreasing():
    p, g = _skew()
    spec = preset_fbf(p, 0.1)
    rec = flow(g, spec, x0=[1.0, 0.0], integrator="euler", dt=1e-3,
               t_end=10.0, problem=p)
    norms = np.linalg.norm(rec.states, axis=1)
    assert np.all(np.diff(norms) < 0.0)


def test_flow_constant_at_equilibrium():
    p, g = _skew()
    spec = preset_fbf(p, 0.1)
    rec = flow(g, spec, x0=[0.0, 0.0], integrator="euler", dt=1e-2, t_end=5.0,
               problem=p, stop_residual=0.0)
    assert np.allclose(rec.states, 0.0)


def test_flow_bnn_stays_interior_and_descends():
    p = library_problem("rps_game")
    g = entropy_geometry(3)
    spec = preset_bnn(p, eta=1.0)
    rec = flow(g, spec, x0=[0.5, 0.25, 0.25], integrator="euler", dt=1e-2,
               t_end=50.0, problem=p, stop_residual=0.0)
    assert np.all(rec.states > 0.0)
    assert np.max(np.abs(rec.states.sum(axis=1) - 1.0)) <= 1e-9
    dists = np.linalg.norm(rec.states - 1.0 / 3.0, axis=1)
    assert dists[-1] < 0.2 * dists[0]


def test_flow_rejects_bad_arguments():
    p, g = _skew()
    spec = preset_fbf(p, 0.1)
    with pytest.raises(ConfigurationError):
        flow(g, spec, integrator="heun", dt=1e-2, t_end=1.0)
    with pytest.raises(ConfigurationError):
        flow(g, spec, integrator="euler", dt=-1e-2, t_end=1.0)


def _order_run(case):
    """integrator, dt -> RunRecord of one flow runner on t in [0, 2]."""
    p, g = _skew()
    run = dict(t_end=2.0, stop_residual=0.0, stride=10 ** 9)
    if case == "flow_fbf":
        return partial(flow, g, preset_fbf(p, 0.1), x0=[1.0, 0.0], **run)
    if case == "dmd_case1":
        shift = library_problem("scalar_shift")
        g1 = euclidean_geometry(shift.feasible_set)
        spec = preset_dmd_calibrated(g1, shift, eta=1.0, case=1)
        return partial(run_dmd, g1, spec, problem=shift, x0=[0.0], **run)
    if case == "dmd_case2":
        spec = preset_dmd_calibrated(g, p, eta=0.1, case=2)
        return partial(run_dmd, g, spec, problem=p, x0=[1.0, 0.0], **run)
    if case == "vanilla_dmd":
        return partial(run_vanilla_dmd, g, p, x0=[1.0, 0.0], **run)
    if case == "higher_order_eg_euclidean":
        return partial(run_higher_order, g, preset_eg(g, p, 0.1), problem=p,
                       x0=[1.0, 0.0], **run)
    rps, ge = library_problem("rps_game"), entropy_geometry(3)
    return partial(run_higher_order, ge, preset_eg(ge, rps, 0.1), problem=rps,
                   x0=[0.6, 0.3, 0.1], **run)


@pytest.mark.parametrize("case", [
    "flow_fbf", "dmd_case1", "dmd_case2", "vanilla_dmd",
    "higher_order_eg_euclidean", "higher_order_eg_entropy"])
def test_integrator_observed_orders(case):
    runner = _order_run(case)

    def endpoint(integrator, dt):
        rec = runner(integrator=integrator, dt=dt)
        assert rec.mode == integrator
        return rec.final_state.x

    truth = endpoint("rk4", 1e-3)  # within 1e-12 of the dt = 1e-4 endpoint
    euler_errors = [np.linalg.norm(endpoint("euler", dt) - truth)
                    for dt in (0.02, 0.01, 0.005)]
    euler_orders = [np.log2(euler_errors[i] / euler_errors[i + 1]) for i in range(2)]
    assert min(euler_orders) >= 0.9
    rk4_errors = [np.linalg.norm(endpoint("rk4", dt) - truth)
                  for dt in (0.4, 0.2, 0.1)]
    rk4_orders = [np.log2(rk4_errors[i] / rk4_errors[i + 1]) for i in range(2)]
    assert min(rk4_orders) >= 3.5


# --- Lyapunov diagnostics ------------------------------------------------------

def test_lyapunov_eg_skew_zero_violations():
    p, g = _skew()
    spec = preset_eg(g, p, 0.1)
    rec = run_discrete(g, spec, problem=p, x0=[1.0, 0.0], n_steps=500,
                       reference=p.known_solution)
    rep = lyapunov_series(rec, spec=spec)
    assert rep.violations == []
    assert np.all(np.diff(rep.values) < 0.0)
    assert rep.dissipation_integral > 0.0
    assert np.all(np.diff(rep.dissipation_running) >= 0.0)
    assert rep.total_decrease == pytest.approx(rep.values[0] - rep.values[-1])
    # the relaxed descent margin holds at every recorded state
    margins = [relaxed_condition_value(spec, x, p.known_solution) for x in rec.states]
    assert np.all(np.asarray(margins) >= 0.0)


def test_lyapunov_flow_decrease_dominates_dissipation_bound():
    # along the continuous flow, the value drop should be at least the
    # integrated dissipation bound (up to integration error)
    p, g = _skew()
    spec = preset_fbf(p, 0.1)
    rec = flow(g, spec, x0=[1.0, 0.0], integrator="rk4", dt=1e-3, t_end=10.0,
               problem=p, stride=1, stop_residual=0.0, reference=p.known_solution)
    rep = lyapunov_series(rec, spec=spec)
    assert rep.total_decrease >= rep.dissipation_integral - 1e-6


def test_lyapunov_vanilla_md_violates_everywhere():
    p, g = _skew()
    spec = preset_vanilla_md(g, p, 0.1)
    rec = run_discrete(g, spec, problem=p, x0=[1.0, 0.0], n_steps=300,
                       reference=p.known_solution)
    rep = lyapunov_series(rec, spec=spec)
    assert len(rep.violations) == len(rep.values) - 1


def test_lyapunov_constant_trajectory_is_zero():
    p, g = _skew()
    spec = preset_eg(g, p, 0.1)
    rec = run_discrete(g, spec, problem=p, x0=p.known_solution, n_steps=10,
                       reference=p.known_solution)
    rep = lyapunov_series(rec, spec=spec)
    assert np.allclose(rep.values, 0.0)


def test_lyapunov_series_needs_a_reference():
    p, g = _skew()
    spec = preset_eg(g, p, 0.1)
    rec = run_discrete(g, spec, problem=p, x0=[1.0, 0.0], n_steps=10)
    assert rec.lyapunov is None
    with pytest.raises(ConfigurationError, match="no reference point"):
        lyapunov_series(rec, spec=spec)


def test_violation_band_scales_with_integrator():
    p, g = _skew()
    spec = preset_fbf(p, 0.1)
    rec_euler = flow(g, spec, x0=[1.0, 0.0], dt=1e-2, t_end=0.1, problem=p)
    assert violation_band(rec_euler) == pytest.approx(max(1e-9, 10 * 1e-4))
    rec_rk4 = flow(g, spec, x0=[1.0, 0.0], integrator="rk4", dt=1e-2,
                   t_end=0.1, problem=p)
    assert violation_band(rec_rk4) == pytest.approx(max(1e-9, 10 * 1e-8))
    rec_rk4_fine = flow(g, spec, x0=[1.0, 0.0], integrator="rk4", dt=1e-3,
                        t_end=0.01, problem=p)
    assert violation_band(rec_rk4_fine) == pytest.approx(1e-9)


# --- stopping and budgets --------------------------------------------------------

def test_run_discrete_budget_zero_keeps_initial_sample():
    p, g = _skew()
    spec = preset_eg(g, p, 0.1)
    rec = run_discrete(g, spec, problem=p, x0=[1.0, 0.0], n_steps=0)
    assert rec.termination == "budget_exhausted"
    assert rec.states.shape[0] == 1


def test_run_discrete_converges_and_stops_early():
    p, g = _skew()
    spec = preset_eg(g, p, 0.1)
    rec = run_discrete(g, spec, problem=p, x0=[1.0, 0.0], n_steps=10_000)
    assert rec.termination == "converged"
    assert rec.final_state.step_index < 10_000
    assert natural_residual(p, rec.final_state.x) <= 1e-6


@pytest.mark.parametrize("integrator,stride,n_steps,stop", [
    ("discrete", 1, 50, 0.0),       # every point recorded, budget exhausted
    ("discrete", 7, 50, 0.0),       # no stop rule: only the 9 samples
    ("discrete", 1, 10_000, 1e-8),  # converged: the last point ends the run
    ("rk4", 7, 50, 0.0),            # none at the stage points of RK4
])
def test_target_residual_is_evaluated_once_per_point(monkeypatch, integrator,
                                                      stride, n_steps, stop):
    # with a stop rule the loop computes one ||T(x) - x|| per point, for the
    # stop rule and the recorder both; stop_residual = 0 cannot stop a run,
    # so only the recorder reads it, once per sample
    p, g = _skew()
    spec = preset_eg(g, p, 0.1)
    gaps = []
    norm = dynamics._norm

    def counted(v):
        gaps.append(v)
        return norm(v)

    monkeypatch.setattr(dynamics, "_norm", counted)
    run = dict(problem=p, x0=[1.0, 0.0], stop_residual=stop, stride=stride)
    if integrator == "discrete":
        rec = run_discrete(g, spec, n_steps=n_steps, **run)
    else:
        rec = flow(g, spec, integrator=integrator, dt=0.1, t_end=0.1 * n_steps, **run)
    assert rec.termination == ("converged" if stop else "budget_exhausted")
    assert len(gaps) == (rec.final_state.step_index + 1 if stop else len(rec.states))
    start = rec.states[0]
    assert np.array_equal(gaps[0], resolve_target(spec, start)[0] - start)
    end = rec.final_state.x
    assert np.array_equal(gaps[-1], resolve_target(spec, end)[0] - end)
    if stride == 1:
        tx = [resolve_target(spec, x)[0] for x in rec.states]
        assert np.array_equal(np.array(gaps), [t - x for t, x in zip(tx, rec.states)])
        assert np.array_equal(rec.target_residuals,
                              [np.linalg.norm(t - x) for t, x in zip(tx, rec.states)])


def _count_gaps(monkeypatch):
    calls = [0]
    gap = dynamics._target_gap

    def counted(tx, x):
        calls[0] += 1
        return gap(tx, x)

    monkeypatch.setattr(dynamics, "_target_gap", counted)
    return calls


def test_ensemble_check_evaluates_no_target_residual(monkeypatch, tmp_path):
    # the reported run reads ||T(x) - x|| at each of its 2,001 points (2,000
    # steps at stride 1), in the loop, for its stop rule; the reduction check
    # reads only its states.  Every gap, in the loop or in the recorder, is
    # one call of dynamics._norm, and nothing else of an ensemble calls it.
    calls = [0]
    norm = dynamics._norm

    def counted(v):
        calls[0] += 1
        return norm(v)

    monkeypatch.setattr(dynamics, "_norm", counted)
    monkeypatch.setenv(OUTPUT_DIR_ENV, str(tmp_path))
    config = Path(__file__).resolve().parent.parent / "configs" / "ensemble_entropy.cfg"
    assert main(["ensemble", str(config)]) == 0
    rows = (tmp_path / "reduction_deviations.csv").read_text().splitlines()
    assert calls[0] == len(rows) - 1 == 2001


def test_dmd_run_evaluates_the_target_residual_only_at_samples(monkeypatch, tmp_path):
    # run_dmd stops on ||k1||, so ||T(x) - x|| is read only by the recorder:
    # 461 samples of the 4,595 points of 4,594 steps
    calls = _count_gaps(monkeypatch)
    monkeypatch.setenv(OUTPUT_DIR_ENV, str(tmp_path))
    config = Path(__file__).resolve().parent.parent / "configs" / "dmd_calibrated_scalar.cfg"
    assert main(["solve", str(config)]) == 0
    rows = (tmp_path / "trajectory.csv").read_text().splitlines()
    assert calls[0] == len(rows) - 1 == 461


def test_alpha_zero_run_evaluates_the_target_residual_only_at_samples(monkeypatch):
    # alpha = 0 stops on the natural residual, not on ||T(x) - x||: 9
    # samples (steps 0, 7, ..., 49, 50) of 50 steps
    calls = _count_gaps(monkeypatch)
    p, g = _skew()
    rec = run_discrete(g, preset_vanilla_md(g, p, 0.1), problem=p, x0=[1.0, 0.0],
                       n_steps=50, stride=7)
    assert calls[0] == len(rec.states) == 9
    assert np.array_equal(rec.target_residuals, np.zeros(len(rec.states)))


def test_zero_stop_residual_evaluates_no_natural_residual_in_the_loop(monkeypatch):
    # alpha = 0 stops on the natural residual: once per step with a stop
    # rule, never in the loop without one; the recorder's finish makes one
    # call on its one block of samples either way
    calls = [0]
    residual = dynamics.natural_residual

    def counted(problem, x):
        calls[0] += 1
        return residual(problem, x)

    monkeypatch.setattr(dynamics, "natural_residual", counted)
    p, g = _skew()
    spec = preset_vanilla_md(g, p, 0.1)
    runs, counts = [], []
    for stop in (1e-12, 0.0):
        calls[0] = 0
        runs.append(run_discrete(g, spec, problem=p, x0=[1.0, 0.0], n_steps=50,
                                 stride=7, stop_residual=stop))
        counts.append(calls[0])
    assert counts == [50 + 1, 1]
    assert np.array_equal(runs[0].states, runs[1].states)
    assert np.array_equal(runs[0].natural_residuals, runs[1].natural_residuals)


@pytest.mark.parametrize("n_steps", [0, 3])
@pytest.mark.parametrize("start", ["run_discrete", "flow", "initial_state",
                                   "state_from_dual"])
def test_changing_x0_after_the_call_leaves_the_run_unchanged(start, n_steps):
    # the loop copies no point, so the run's own copy of x0 is made where
    # it enters; after 0 steps the final state is the start state, whose z
    # and x are that copy under the whole-space Euclidean geometry
    p, g = _skew()
    spec = preset_eg(g, p, 0.1)
    run = dict(problem=p, stop_residual=0.0)
    if start == "flow":
        def start_from(x0):
            return flow(g, spec, x0=x0, dt=0.1, t_end=0.1 * n_steps, stride=1, **run)
    else:
        def start_from(x0):
            return run_discrete(g, spec, x0=x0, n_steps=n_steps, **run)

    x0 = np.array([1.0, 0.0])
    if start in ("initial_state", "state_from_dual"):
        # grad_h is the identity here, so x0 is also the dual start
        state = getattr(dynamics, start)(g, x0)
        x0[:] = 7.0
        rec = run_discrete(g, spec, state=state, n_steps=n_steps, **run)
    else:
        rec = start_from(x0)
    x0[:] = 7.0
    want = start_from([1.0, 0.0])
    assert np.array_equal(rec.states, want.states)
    end = rec.final_state
    assert np.array_equal(end.z, want.final_state.z)
    assert np.array_equal(end.x, want.final_state.x)


def test_zero_stop_residual_runs_past_an_exact_fixed_point():
    # DR from x0 = 3 lands on its exact fixed point at step 53; with
    # stop_residual = 0 the run still takes all of its steps
    pair, problem = affine_box_split(2.0, 0.0, 1.0)
    g = euclidean_geometry(whole_space(1))
    spec = preset_dr(pair, g.domain, 1.0)
    rec = run_discrete(g, spec, problem=problem, x0=[3.0], n_steps=200,
                       stop_residual=0.0)
    assert rec.termination == "budget_exhausted"
    assert rec.final_state.step_index == 200 and len(rec.states) == 201
    assert rec.target_residuals[52] > 0.0
    assert np.all(rec.target_residuals[53:] == 0.0)


def test_vanilla_md_never_converges_on_skew():
    p, g = _skew()
    spec = preset_vanilla_md(g, p, 0.1)
    rec = run_discrete(g, spec, problem=p, x0=[1.0, 0.0], n_steps=500)
    assert rec.termination == "budget_exhausted"
    assert rec.natural_residuals[-1] >= rec.natural_residuals[0]


# --- discounted updates -----------------------------------------------------------

def test_dmd_vanilla_equilibrium_is_misaligned():
    p = library_problem("scalar_shift", a=2.0)
    g = euclidean_geometry(p.feasible_set)
    rec = run_vanilla_dmd(g, p, gamma=1.0, dt=1e-2, t_end=50.0,
                          stop_residual=1e-10)
    assert rec.termination == "converged"
    assert rec.final_state.x[0] == pytest.approx(1.0, abs=1e-6)
    assert natural_residual(p, rec.final_state.x) > 0.5


def test_dmd_calibrated_equilibrium_is_the_solution():
    p = library_problem("scalar_shift", a=2.0)
    g = euclidean_geometry(p.feasible_set)
    for case, eta in ((1, 1.0), (2, 0.5)):
        spec = preset_dmd_calibrated(g, p, eta=eta, case=case)
        rec = run_dmd(g, spec, gamma=1.0, dt=1e-2, t_end=50.0, problem=p,
                      stop_residual=1e-10)
        assert rec.termination == "converged"
        assert rec.final_state.x[0] == pytest.approx(2.0, abs=1e-6)


def test_dmd_gamma_rescales_time_not_equilibrium():
    p = library_problem("scalar_shift", a=2.0)
    g = euclidean_geometry(p.feasible_set)
    spec = preset_dmd_calibrated(g, p, eta=1.0, case=1)
    ends = []
    for gamma in (1.0, 2.0):
        rec = run_dmd(g, spec, gamma=gamma, dt=5e-3, t_end=60.0, problem=p,
                      stop_residual=1e-12)
        ends.append(rec.final_state.x[0])
    assert ends[0] == pytest.approx(ends[1], abs=1e-9)


def test_dmd_case_validation():
    p = library_problem("scalar_shift", a=2.0)
    g = euclidean_geometry(p.feasible_set)
    with pytest.raises(ConfigurationError):
        preset_dmd_calibrated(g, p, eta=1.0, case=3)


# --- higher-order variant -----------------------------------------------------------

def test_higher_order_alpha_zero_matches_hand_coded_md2():
    # the first Euler step leaves xi = x0 and moves x off it; the second
    # step checks the rate at that point, where xi != x
    p, g = _skew()
    spec = preset_vanilla_md(g, p, 0.3)
    dt = 0.05
    run = dict(gamma1=1.3, gamma2=0.7, dt=dt, problem=p, x0=[0.8, -0.4])
    first = run_higher_order(g, spec, t_end=dt, **run).final_state
    second = run_higher_order(g, spec, t_end=2 * dt, **run).final_state
    assert first.step_index == 1 and second.step_index == 2
    x, xi = first.x, first.xi
    assert np.linalg.norm(x - xi) > 1e-3
    z_rate, xi_rate = ri.md2_rates(p.F, 0.3, 1.3, 0.7, x, xi)
    assert np.allclose(second.z, first.z + dt * z_rate, atol=1e-14)
    assert np.allclose(second.xi, xi + dt * xi_rate, atol=1e-14)


def test_higher_order_alpha_zero_does_not_stop_at_its_start():
    # x = xi at the start and the target residual of alpha = 0 is 0 at
    # every point, so only the natural residual can tell convergence; with
    # no problem there is no stop rule
    p, g = _skew()
    spec = preset_vanilla_md(g, p, 0.1)
    for problem in (p, None):
        rec = run_higher_order(g, spec, dt=0.05, t_end=1.0, problem=problem,
                               x0=[1.0, 0.0])
        assert rec.termination == "budget_exhausted"
        assert rec.final_state.step_index == 20


def test_higher_order_equilibrium_conditions():
    p = library_problem("scalar_shift", a=2.0)
    g = euclidean_geometry(p.feasible_set)
    spec = preset_eg(g, p, 0.5)
    # the slow eigenmode of the coupled system decays like exp(-0.117 t)
    rec = run_higher_order(g, spec, gamma1=1.0, gamma2=1.0, dt=1e-2,
                           t_end=250.0, problem=p, stop_residual=1e-9)
    assert rec.termination == "converged"
    final = rec.final_state
    assert np.linalg.norm(final.x - final.xi) <= 1e-8
    assert final.x[0] == pytest.approx(2.0, abs=1e-6)


def test_higher_order_reaches_boundary_solution():
    p = library_problem("vertex_cost_simplex", costs=(1.0, 2.0))
    g = entropy_geometry(2)
    spec = preset_eg(g, p, 1.0)
    rec = run_higher_order(g, spec, gamma1=1.0, gamma2=1.0, dt=0.05,
                           t_end=500.0, problem=p)
    assert rec.target_residuals[-1] <= 1e-3
    assert rec.final_state.time <= 500.0 + 1e-9
    assert np.allclose(rec.final_state.x, [1.0, 0.0], atol=1e-6)


def test_higher_order_rejects_bad_gains():
    p, g = _skew()
    spec = preset_eg(g, p, 0.1)
    with pytest.raises(ConfigurationError):
        run_higher_order(g, spec, gamma1=-1.0, gamma2=1.0, dt=0.01, x0=[1.0, 0.0])


# --- divergence handling ----------------------------------------------------------------

def test_explosive_flow_ends_diverged_at_the_last_finite_point():
    from targetmd import TargetSpec, ClosedForm, whole_space
    ws = whole_space(1)
    g = euclidean_geometry(ws)
    # surrogate -x makes the dual flow exponentially explosive at any dt
    explosive = TargetSpec(alpha=0.0, beta=1.0,
                           S=lambda x: np.asarray(x, dtype=float), sigma=1.0,
                           Phi=lambda x: -np.asarray(x, dtype=float),
                           target=ClosedForm(lambda x: np.asarray(x, float).copy()),
                           feasible_set=ws)
    rec = flow(g, explosive, x0=[1.0], dt=1.0, t_end=1200.0, stop_residual=0.0)
    # an Euler step of 1 doubles z, and 2**1024 overflows
    assert (rec.termination, rec.dt) == ("diverged", 1.0)
    assert rec.final_state.step_index == 1023
    assert rec.final_state.z.tolist() == [2.0 ** 1023]
    assert rec.steps[-1] == 1023 and rec.steps[-2] == 1020   # stride 10, then the end


def test_target_failure_propagates_through_steps(monkeypatch):
    from targetmd import ResolventSolve, TargetSpec, targets
    from targetmd.errors import TargetResolutionError
    monkeypatch.setattr(targets, "MAX_NEWTON_STEPS", 1)
    p = library_problem("linear_monotone")
    g = euclidean_geometry(p.feasible_set)
    good = preset_ppa(g, p, 0.5)
    crippled = TargetSpec(alpha=1.0, beta=0.0, S=good.S, sigma=good.sigma,
                          Phi=good.Phi,
                          target=ResolventSolve(tol=1e-16),
                          feasible_set=good.feasible_set)
    with pytest.raises(TargetResolutionError):
        run_discrete(g, crippled, x0=[1.0, 1.0], n_steps=1)


# --- relaxed descent condition ---------------------------------------------------------

def test_relaxed_condition_zero_at_solution():
    p, g = _skew()
    spec = preset_eg(g, p, 0.1)
    assert relaxed_condition_value(spec, np.zeros(2), np.zeros(2)) == 0.0


def test_relaxed_condition_closed_form_on_skew():
    # for a skew operator <F(y), y> vanishes, so the margin collapses to
    # alpha * sigma * ||eta F(x)||^2 = alpha * sigma * eta^2 * ||x||^2
    p, g = _skew()
    spec = preset_eg(g, p, 0.1)
    rng = np.random.default_rng(SEED + 2)
    for x in p.feasible_set.sample(rng, 200):
        value = relaxed_condition_value(spec, x, np.zeros(2))
        oracle = spec.alpha * spec.sigma * (0.1 ** 2) * float(np.dot(x, x))
        assert value == pytest.approx(oracle, rel=1e-9, abs=1e-12)
        assert value > 0.0 or np.allclose(x, 0.0)


def test_relaxed_condition_beta_only_monotone():
    p, g = _skew()
    spec = preset_vanilla_md(g, p, 0.1)
    rng = np.random.default_rng(SEED + 3)
    for x in p.feasible_set.sample(rng, 200):
        assert relaxed_condition_value(spec, x, np.zeros(2)) >= -1e-12


def _relaxed_cases():
    skew, g = _skew()
    rps = library_problem("rps_game")
    pair, split = affine_box_split(0.5, 0.0, 1.0)
    return {
        "eg": (preset_eg(g, skew, 0.1), skew),
        "vanilla_md": (preset_vanilla_md(g, skew, 0.1), skew),  # beta only
        "dmd_calibrated": (preset_dmd_calibrated(g, skew, 0.1, case=2), skew),  # both
        "dr": (preset_dr(pair, whole_space(1), 1.0), split),  # Phi on the target image
        "ppa_entropy": (preset_ppa(entropy_geometry(3), rps, 1.0), rps),  # Newton targets
    }


@pytest.mark.parametrize("name", ["eg", "vanilla_md", "dmd_calibrated", "dr", "ppa_entropy"])
def test_relaxed_condition_on_a_stack_is_its_single_point_calls(name):
    spec, problem = _relaxed_cases()[name]
    points = problem.feasible_set.sample_interior(np.random.default_rng(SEED), 40,
                                                  margin=0.02)
    x_bar = problem.known_solution + 0.25
    targets = np.array([resolve_target(spec, x)[0] for x in points])
    stacked = relaxed_condition_value(spec, points, x_bar, targets)
    singles = [relaxed_condition_value(spec, x, x_bar) for x in points]
    assert all(type(value) is float for value in singles)
    assert stacked.shape == (40,)
    assert stacked.tobytes() == np.array(singles).tobytes()  # bit for bit, -0.0 too


# --- simplex conservation along discrete runs ----------------------------------------

def test_simplex_flows_conserve_mass_and_positivity():
    p = library_problem("rps_game")
    g = entropy_geometry(3)
    for spec in (preset_eg(g, p, 0.1), preset_bnn(p, 1.0)):
        rec = run_discrete(g, spec, problem=p, x0=[0.5, 0.25, 0.25],
                           n_steps=300, stop_residual=0.0)
        assert np.max(np.abs(rec.states.sum(axis=1) - 1.0)) <= 1e-9
        assert np.all(rec.states > 0.0)
