"""Operator evaluations per step: each point resolves its target once, and
the S(x) that resolution evaluated is the one the dual rate subtracts.

Every count is a difference between runs of N and 2N steps, so start-up
and end-of-run samples cancel; the recorder is idle (stride >= budget)
unless a test records every step.  Counts split into F calls made inside
`resolve_target` (the target, including S(x)) and outside it (the rate)."""

import numpy as np
import pytest

import targetmd.checks as checks
import targetmd.dynamics as dynamics
from targetmd import (entropy_geometry, euclidean_geometry, flow,
                      library_problem, make_members, natural_residual, preset_bnn,
                      preset_dmd_calibrated, preset_eg, preset_fbf, preset_ppa,
                      run_condition_checks, run_discrete, run_dmd, run_ensemble,
                      run_vanilla_dmd, whole_space)

N = 40
X0 = [1.0, 0.0]


class Counts:
    """F calls inside and outside resolve_target, and resolve_target calls."""

    def __init__(self, problem, monkeypatch):
        self.f_calls = self.f_inside = self.resolves = 0
        f, resolve = problem.F, dynamics.resolve_target

        def counted_f(x):
            self.f_calls += 1
            return f(x)

        def counted_resolve(*args, **kwargs):
            before = self.f_calls
            self.resolves += 1
            try:
                return resolve(*args, **kwargs)
            finally:
                self.f_inside += self.f_calls - before

        problem.F = counted_f
        monkeypatch.setattr(dynamics, "resolve_target", counted_resolve)

    def per_step(self, run):
        """(F calls per step outside resolve_target, inside it, resolves per
        step), from runs of N and 2N steps."""
        marks = []
        for n in (N, 2 * N):
            self.f_calls = self.f_inside = self.resolves = 0
            run(n)
            marks.append((self.f_calls - self.f_inside, self.f_inside, self.resolves))
        return tuple((b - a) / N for a, b in zip(*marks))


def _skew():
    p = library_problem("skew_bilinear")
    return p, euclidean_geometry(whole_space(2))


PRESETS = {
    "eg": lambda g, p: preset_eg(g, p, 0.1),
    "eg_plus": lambda g, p: preset_eg(g, p, 0.1, 0.05),
    "fbf": lambda g, p: preset_fbf(p, 0.1),
}


@pytest.mark.parametrize("stride", ["idle", 1])
@pytest.mark.parametrize("name", sorted(PRESETS))
def test_discrete_extragradient_family_makes_two_f_calls_per_step(name, stride,
                                                                  monkeypatch):
    p, g = _skew()
    counts = Counts(p, monkeypatch)
    spec = PRESETS[name](g, p)
    run = lambda n: run_discrete(g, spec, problem=p, x0=X0, n_steps=n,
                                 stop_residual=0.0, reference=p.known_solution,
                                 stride=n if stride == "idle" else stride)
    # a rate that evaluated S(x) again would make it (2, 1, 1), and so
    # would a recorder that evaluated a sample's natural residual on its own
    assert counts.per_step(run) == (1.0, 1.0, 1.0)


@pytest.mark.parametrize("integrator,expected", [
    ("euler", (1.0, 1.0, 1.0)),
    # k1 reuses the step's target; three stages and the new point resolve
    # their own, and every stage rate makes one call
    ("rk4", (4.0, 4.0, 4.0)),
])
@pytest.mark.parametrize("name", sorted(PRESETS))
def test_extragradient_family_flows_reuse_s_of_x(name, integrator, expected,
                                                 monkeypatch):
    p, g = _skew()
    counts = Counts(p, monkeypatch)
    spec = PRESETS[name](g, p)
    run = lambda n: flow(g, spec, integrator=integrator, dt=0.01, t_end=0.01 * n,
                         problem=p, x0=X0, stop_residual=0.0, stride=n)
    assert counts.per_step(run) == expected


@pytest.mark.parametrize("integrator,expected", [
    ("euler", (1.0, 1.0, 1.0)), ("rk4", (4.0, 4.0, 4.0))])
def test_calibrated_discounted_flow_makes_two_f_calls_per_step(integrator, expected,
                                                               monkeypatch):
    p, g = _skew()
    counts = Counts(p, monkeypatch)
    spec = preset_dmd_calibrated(g, p, eta=0.1, case=2)
    run = lambda n: run_dmd(g, spec, dt=0.01, t_end=0.01 * n, problem=p, x0=X0,
                            stop_residual=0.0, stride=n, integrator=integrator)
    # the mismatch S(T(x)) - z is evaluated once, for the step and the stop
    assert counts.per_step(run) == expected


@pytest.mark.parametrize("integrator,expected", [
    ("euler", (1.0, 0.0, 0.0)), ("rk4", (4.0, 0.0, 0.0))])
def test_vanilla_discounted_flow_makes_one_f_call_per_step(integrator, expected,
                                                           monkeypatch):
    p, g = _skew()
    counts = Counts(p, monkeypatch)
    run = lambda n: run_vanilla_dmd(g, p, dt=0.01, t_end=0.01 * n, x0=X0,
                                    stop_residual=0.0, stride=n, integrator=integrator)
    assert counts.per_step(run) == expected


@pytest.mark.parametrize("mode,expected", [
    ("discrete", (0.0, 1.0, 1.0)), ("euler", (0.0, 1.0, 1.0)), ("rk4", (0.0, 4.0, 4.0))])
def test_bnn_target_hands_its_gap_to_the_rate(mode, expected, monkeypatch):
    # one excess-payoff evaluation per point serves the target and the gap
    p = library_problem("rps_game")
    g = entropy_geometry(3)
    counts = Counts(p, monkeypatch)
    spec = preset_bnn(p, eta=1.0)
    run_at = dict(problem=p, x0=[0.5, 0.25, 0.25], stop_residual=0.0)
    if mode == "discrete":
        run = lambda n: run_discrete(g, spec, n_steps=n, stride=n, **run_at)
    else:
        run = lambda n: flow(g, spec, integrator=mode, dt=0.01, t_end=0.01 * n,
                             stride=n, **run_at)
    assert counts.per_step(run) == expected


def test_extragradient_ensemble_makes_two_f_calls_per_step(monkeypatch):
    p, g = _skew()
    counts = Counts(p, monkeypatch)
    spec = preset_eg(g, p, 0.1)
    members = make_members([g, euclidean_geometry(whole_space(2))],
                           [np.array([1.0, 0.0]), np.array([0.0, 0.5])])
    run = lambda n: run_ensemble(members, spec, problem=p, n_steps=n,
                                 stop_residual=0.0, stride=n)
    assert counts.per_step(run) == (1.0, 1.0, 1.0)


@pytest.mark.parametrize("problem_name,geometry", [
    ("rps_game", "entropy"),                 # certified Newton route
    ("constrained_quadratic", "euclidean"),  # Newton route through the box projection
    ("skew_bilinear", "euclidean"),          # closed form: a linear solve, no F call
])
def test_proximal_point_rate_makes_no_f_call(problem_name, geometry, monkeypatch):
    p = library_problem(problem_name)
    g = (entropy_geometry(3) if geometry == "entropy"
         else euclidean_geometry(p.feasible_set))
    counts = Counts(p, monkeypatch)
    spec = preset_ppa(g, p, 0.1)
    x0 = [0.5, 0.3, 0.2] if problem_name == "rps_game" else X0
    run = lambda n: run_discrete(g, spec, problem=p, x0=x0, n_steps=n,
                                 stop_residual=0.0, stride=n)
    outside, inside, resolves = counts.per_step(run)
    assert outside == 0.0 and resolves == 1.0
    if problem_name == "skew_bilinear":
        assert inside == 0.0
    else:
        assert inside > 1.0


def test_anchor_is_the_s_of_x_the_rate_would_evaluate():
    p, g = _skew()
    x = np.array([0.3, -0.7])
    quad = library_problem("constrained_quadratic")
    rps = library_problem("rps_game")
    cases = [(make(g, p), x) for make in PRESETS.values()] + [
        (preset_ppa(euclidean_geometry(quad.feasible_set), quad, 1.0),
         np.array([0.3, 0.7])),                                   # Newton route on a box
        (preset_ppa(entropy_geometry(3), rps, 1.0), np.array([0.5, 0.3, 0.2]))]
    for spec, point in cases:
        tx, sx = dynamics.resolve_target(spec, point)
        assert np.array_equal(tx, dynamics.resolve_target(spec, point)[0])
        assert np.array_equal(sx, spec.S(point))
        assert np.array_equal(dynamics.dual_rate(spec, point, tx, sx),
                              dynamics.dual_rate(spec, point, tx, None))
    # a closed-form target hands on no anchor: the rate evaluates S(x)
    spec = preset_ppa(g, p, 1.0)
    tx, sx = dynamics.resolve_target(spec, x)
    assert sx is None
    assert np.array_equal(tx, dynamics.resolve_target(spec, x)[0])


@pytest.mark.parametrize("preset", [preset_eg, preset_ppa], ids=["eg", "ppa"])
def test_condition_checks_resolve_each_sample_once(preset, monkeypatch):
    p, g = _skew()
    spec = preset(g, p, 0.1)
    calls = []
    resolve = dynamics.resolve_target

    def counted(*args, **kwargs):
        calls.append(1)
        return resolve(*args, **kwargs)

    for module in (checks, dynamics):
        monkeypatch.setattr(module, "resolve_target", counted)
    run_condition_checks(g, spec, p, n_samples=200, seed=0)
    # one per sample, and one for the fixed-point run, which starts at the
    # known solution and stops there
    assert len(calls) == 201


def test_the_fixed_point_run_keeps_only_its_start_and_end(monkeypatch):
    # the check reads only the final natural residual, so the run that
    # locates the fixed point records no sample in between
    p = library_problem("linear_monotone", dim=20)
    g = euclidean_geometry(p.feasible_set)
    records = []
    run = checks.run_discrete

    def recorded(*args, **kwargs):
        records.append(run(*args, **kwargs))
        return records[-1]

    monkeypatch.setattr(checks, "run_discrete", recorded)
    report = run_condition_checks(g, preset_eg(g, p, 0.1), p, n_samples=20)
    [record] = records
    assert record.termination == "converged" and record.final_state.step_index > 2
    assert record.steps.tolist() == [0, record.final_state.step_index]
    section = report["fixed_point_consistency"]
    assert section["converged"] and section["refuted"] is False
    assert section["natural_residual"] == natural_residual(p, record.final_state.x)
