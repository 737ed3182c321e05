from dataclasses import replace

import numpy as np
import pytest

from targetmd import (box, entropy_geometry, euclidean_geometry,
                      library_problem, make_members, natural_residual,
                      preset_bnn, preset_eg, preset_fbf, preset_vanilla_md,
                      project_simplex, run_discrete, run_ensemble, simplex,
                      softmax, state_from_dual,
                      synthesized_geometry, verify_ensemble_reduction,
                      weighted_quadratic_geometry, whole_space)
from targetmd.errors import ConfigurationError

SEED = 31


def _skew_spec():
    p = library_problem("skew_bilinear")
    g = euclidean_geometry(p.feasible_set)
    return p, preset_eg(g, p, 0.1)


def _quadratic_members():
    return make_members(
        [weighted_quadratic_geometry([1.0, 2.0]),
         weighted_quadratic_geometry([2.0, 1.0]),
         euclidean_geometry(whole_space(2))],
        [np.array([2.0, 0.0]), np.array([0.0, 2.0]), np.array([1.0, 1.0])])


def _entropy_members():
    return make_members([entropy_geometry(3), entropy_geometry(3)],
                        [np.zeros(3), np.array([1.0, 0.0, 0.0])])


def _mixed_simplex_members():
    # an entropy member and a projected member on the same simplex
    return make_members([entropy_geometry(3), euclidean_geometry(simplex(3))],
                        [np.zeros(3), np.array([0.5, 0.2, 0.3])])


# --- stepping ---------------------------------------------------------------
# run_ensemble is one run on the shared dual z from 0; member k's dual is
# z + z_k(0).  stop_residual = 0 makes every step run.

def _shared_duals(members, spec, n_steps):
    """The final shared dual of run_ensemble after each of 1..n_steps."""
    for n in range(1, n_steps + 1):
        end = run_ensemble(members, spec, n_steps=n, stop_residual=0.0).final_state
        assert end.step_index == n
        yield end


def test_single_member_matches_single_run():
    p, spec = _skew_spec()
    g = euclidean_geometry(whole_space(2))
    members = make_members([g], [np.array([1.0, -0.5])])
    ensemble = run_ensemble(members, spec, n_steps=50, stop_residual=0.0)
    single = run_discrete(g, spec, n_steps=50, stop_residual=0.0,
                          state=state_from_dual(g, np.array([1.0, -0.5])))
    assert len(ensemble.states) == len(single.states) == 51
    for x_en, x in zip(ensemble.states[1:], single.states[1:]):
        assert np.allclose(x_en, x, atol=1e-14)


def test_identical_members_collapse():
    p, spec = _skew_spec()
    g = euclidean_geometry(whole_space(2))
    members = make_members([g, g], [np.array([1.0, 0.0]), np.array([1.0, 0.0])])
    for end in _shared_duals(members, spec, 20):
        xs = [m.geometry.grad_h_conj(end.z + m.z0) for m in members]
        assert np.allclose(xs[0], xs[1])


def test_two_member_affine_shift_example():
    # two plain-quadratic members started at (2,0) and (0,2): the averaged
    # state equals the shared dual plus (1,1) at every step
    p, spec = _skew_spec()
    g = euclidean_geometry(whole_space(2))
    members = make_members([g, g], [np.array([2.0, 0.0]), np.array([0.0, 2.0])])
    for end in _shared_duals(members, spec, 30):
        assert np.allclose(end.x, end.z + 1.0, atol=1e-14)


def test_member_validation():
    g2 = euclidean_geometry(whole_space(2))
    g3 = euclidean_geometry(whole_space(3))
    with pytest.raises(ConfigurationError):
        synthesized_geometry(make_members([g2, g3], [np.zeros(2), np.zeros(3)]))
    with pytest.raises(ConfigurationError):
        synthesized_geometry(make_members([g2, entropy_geometry(2)],
                                          [np.zeros(2), np.zeros(2)]))
    with pytest.raises(ConfigurationError):
        synthesized_geometry([])


def test_dual_offsets_are_rigid():
    p, spec = _skew_spec()
    members = _quadratic_members()
    shared = run_ensemble(members, spec, n_steps=100, stop_residual=0.0).final_state
    assert shared.step_index == 100
    duals = [shared.z + m.z0 for m in members]
    for i in range(len(members)):
        for j in range(len(members)):
            lhs = duals[i] - duals[j]
            rhs = members[i].z0 - members[j].z0
            assert np.array_equal(lhs - rhs, np.zeros(2))  # exact, by construction


# --- synthesized geometry -----------------------------------------------------

def test_synthesized_euclidean_pair_is_translation():
    g = euclidean_geometry(whole_space(2))
    members = make_members([g, g], [np.array([2.0, 0.0]), np.array([0.0, 2.0])])
    sg = synthesized_geometry(members)
    rng = np.random.default_rng(SEED)
    for z in rng.normal(size=(100, 2)):
        assert np.allclose(sg.grad_h_conj(z), z + 1.0, atol=1e-14)
    # full potential recovered: round trip through grad_h
    for z in rng.normal(size=(20, 2)):
        x = sg.grad_h_conj(z)
        assert np.allclose(sg.grad_h(x), z, atol=1e-12)


def test_synthesized_weighted_quadratic_formula():
    members = _quadratic_members()
    sg = synthesized_geometry(members)
    inv = [np.array([1.0, 0.5]), np.array([0.5, 1.0]), np.array([1.0, 1.0])]
    z0s = [m.z0 for m in members]
    rng = np.random.default_rng(SEED + 1)
    for z in rng.normal(size=(50, 2)):
        oracle = np.mean([iw * (z + z0) for iw, z0 in zip(inv, z0s)], axis=0)
        assert np.allclose(sg.grad_h_conj(z), oracle, atol=1e-14)


def test_synthesized_entropy_mixture_formula():
    members = _entropy_members()
    sg = synthesized_geometry(members)
    rng = np.random.default_rng(SEED + 2)
    for z in rng.normal(size=(100, 3)):
        oracle = 0.5 * (softmax(z) + softmax(z + np.array([1.0, 0.0, 0.0])))
        assert np.allclose(sg.grad_h_conj(z), oracle, atol=1e-15)
    with pytest.raises(ConfigurationError):
        sg.grad_h(np.full(3, 1.0 / 3.0))


def test_synthesized_degenerates_without_offsets():
    g = entropy_geometry(3)
    members = make_members([g, g], [np.zeros(3), np.zeros(3)])
    sg = synthesized_geometry(members)
    rng = np.random.default_rng(SEED + 3)
    for z in rng.normal(size=(50, 3)):
        assert np.allclose(sg.grad_h_conj(z), softmax(z), atol=1e-15)


def test_same_map_distinct_offsets_is_nontrivial():
    members = _entropy_members()
    sg = synthesized_geometry(members)
    z = np.array([0.3, -0.2, 0.1])
    assert np.linalg.norm(sg.grad_h_conj(z) - softmax(z)) >= 1e-3


def test_synthesized_rejects_mixed_families():
    g = euclidean_geometry(whole_space(2))
    from targetmd import box
    g_box = euclidean_geometry(box([0.0, 0.0], [1.0, 1.0]))
    with pytest.raises(ConfigurationError):
        synthesized_geometry(make_members([g, g_box], [np.zeros(2), np.zeros(2)]))


def test_synthesized_mixed_simplex_family_is_the_mean_map():
    sg = synthesized_geometry(_mixed_simplex_members())
    assert (sg.name, sg.domain.kind) == ("synthesized", "simplex")
    rng = np.random.default_rng(SEED + 4)
    for z in rng.normal(size=(100, 3)):
        oracle = 0.5 * (softmax(z) + project_simplex(z + np.array([0.5, 0.2, 0.3])))
        assert np.allclose(sg.grad_h_conj(z), oracle, atol=1e-15)
    with pytest.raises(ConfigurationError):
        sg.grad_h(np.full(3, 1.0 / 3.0))
    with pytest.raises(ConfigurationError):
        sg.eval_h(np.full(3, 1.0 / 3.0))


def test_synthesized_modulus_is_the_harmonic_mean():
    assert synthesized_geometry(_mixed_simplex_members()).strong_convexity_modulus == 1.0
    # each conjugate map is 1/mu_k-Lipschitz; their mean is mean_k(1/mu_k)-Lipschitz
    g = euclidean_geometry(box([0.0, 0.0], [1.0, 1.0]))
    stiff = replace(g, strong_convexity_modulus=4.0)
    sg = synthesized_geometry(make_members([g, stiff], [np.zeros(2), np.ones(2)]))
    assert sg.strong_convexity_modulus == pytest.approx(1.0 / np.mean([1.0, 0.25]))


# --- reduction to a single run ---------------------------------------------------

def test_reduction_quadratic_family():
    p, spec = _skew_spec()
    report = verify_ensemble_reduction(_quadratic_members(), spec, n_steps=2000)
    assert report.max_deviation <= 1e-9


def test_reduction_entropy_family():
    p = library_problem("rps_game")
    spec = preset_bnn(p, eta=1.0)
    report = verify_ensemble_reduction(_entropy_members(), spec, n_steps=1000)
    assert report.max_deviation <= 1e-8


@pytest.mark.parametrize("dt", [None, 0.1])
def test_reduction_mixed_simplex_family(dt):
    p = library_problem("rps_game")
    spec = preset_eg(entropy_geometry(3), p, 0.1)
    report = verify_ensemble_reduction(_mixed_simplex_members(), spec,
                                       n_steps=2000, dt=dt)
    assert len(report.deviations) == 2001
    assert report.max_deviation <= 1e-9


def test_reduction_single_member_is_exact():
    p, spec = _skew_spec()
    members = make_members([euclidean_geometry(whole_space(2))],
                           [np.array([0.7, -0.1])])
    report = verify_ensemble_reduction(members, spec, n_steps=500)
    assert report.max_deviation <= 1e-12


def test_reduction_flow_mode():
    p = library_problem("skew_bilinear")
    spec = preset_fbf(p, 0.1)
    report = verify_ensemble_reduction(_quadratic_members(), spec,
                                       n_steps=1000, dt=1e-2)
    assert report.max_deviation <= 1e-9


def test_ensemble_inherits_convergence():
    p, spec = _skew_spec()
    rec = run_ensemble(_quadratic_members(), spec, problem=p, n_steps=10_000)
    assert rec.termination == "converged"
    assert natural_residual(p, rec.final_state.x) <= 1e-6


def test_alpha_zero_ensemble_stops_on_the_natural_residual():
    # vanilla mirror descent has no target, so its target residual is 0 at
    # every point; the run must not call that convergence
    p = library_problem("skew_bilinear")
    spec = preset_vanilla_md(euclidean_geometry(whole_space(2)), p, 0.05)
    members = make_members([euclidean_geometry(whole_space(2)),
                            weighted_quadratic_geometry([1.0, 2.0])],
                           [np.array([1.0, 1.0]), np.zeros(2)])
    rec = run_ensemble(members, spec, problem=p, n_steps=500)
    assert rec.termination == "budget_exhausted"
    assert rec.final_state.step_index == 500
    assert natural_residual(p, rec.final_state.x) > 1e-3


def test_ensemble_mean_stays_feasible_on_simplex():
    p = library_problem("rps_game")
    spec = preset_bnn(p, eta=1.0)
    rec = run_ensemble(_entropy_members(), spec, n_steps=200, dt=0.05,
                       stop_residual=0.0)
    assert len(rec.states) == 201 and rec.dt == 0.05
    for x_en in rec.states[1:]:
        assert abs(x_en.sum() - 1.0) <= 1e-9
        assert np.all(x_en > 0.0)
