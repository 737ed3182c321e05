from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from targetmd import (box, entropy_geometry, euclidean_geometry,
                      library_problem, make_members, natural_residual,
                      preset_bnn, preset_eg, preset_fbf, preset_vanilla_md,
                      project_simplex, run_discrete, run_ensemble, simplex,
                      softmax, state_from_dual,
                      synthesized_geometry, verify_ensemble_reduction,
                      weighted_quadratic_geometry, whole_space)
from targetmd.ensemble import _family, _mean_of_members, _member_maps
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


def _same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


# _member_maps carries the (n, d) stack of member duals to the stack of
# member points in one call per family; each row must keep the bits of its
# member's own grad_h_conj call, and the averaged point the bits of np.mean
# over those rows.  The duals' magnitudes lie far apart so that any change
# of summation order shows.

def _family_geometries(family, n, dim, rng):
    if family == "entropy":
        return [entropy_geometry(dim) for _ in range(n)]
    if family == "quadratic":  # Euclidean members are the weights-1 case
        return [euclidean_geometry(whole_space(dim)) if rng.random() < 0.4
                else weighted_quadratic_geometry(rng.uniform(0.1, 10.0, dim))
                for _ in range(n)]
    # the entropy and simplex-projection mix falls back to the member loop
    return [entropy_geometry(dim) if k % 2 == 0 else euclidean_geometry(simplex(dim))
            for k in range(n)]


def _wide_duals(rng, n, dim):
    return rng.standard_normal((n, dim)) * 10.0 ** rng.integers(-8, 9, (n, dim))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["entropy", "quadratic", "mixed"]), st.integers(1, 9),
       st.integers(2, 12), st.integers(0, 2**32 - 1))
def test_stacked_member_maps_are_the_member_loop_bit_for_bit(family, n, dim, seed):
    rng = np.random.default_rng(seed)
    n = max(n, 2) if family == "mixed" else n
    members = make_members(_family_geometries(family, n, dim, rng),
                           _wide_duals(rng, n, dim))
    assert _family(members) == (None if family == "mixed" else family)
    duals = _wide_duals(rng, n, dim)
    points = np.array([m.geometry.grad_h_conj(z) for m, z in zip(members, duals)])
    assert _same_bits(_member_maps(members)(duals), points)
    assert _same_bits(_mean_of_members(members)(duals), np.mean(points, axis=0))
    # the synthesized map is the same mean at the shared dual plus each offset
    z = _wide_duals(rng, 1, dim)[0]
    shifted = [m.geometry.grad_h_conj(z + m.z0) for m in members]
    assert _same_bits(synthesized_geometry(members).grad_h_conj(z),
                      np.mean(shifted, axis=0))


@pytest.mark.parametrize("rows", [
    [np.array([v]) for v in np.random.default_rng(SEED).standard_normal(9)],
    [np.array([0.1 * k]) for k in range(16)],
    [np.array([-0.0, 0.0, -0.0])] * 8,
    [np.array([-0.0, 0.0])] * 3 + [np.array([0.0, -0.0])],
])
def test_member_mean_keeps_np_mean_bits_on_one_column_and_signed_zeros(rows):
    # dim 1 with 8 or more members, where pairwise summation could differ
    # from a plain sum, and zeros of either sign, through Euclidean members
    # whose map keeps every bit of its dual
    members = make_members([euclidean_geometry(whole_space(len(rows[0])))] * len(rows),
                           [np.zeros(len(rows[0]))] * len(rows))
    assert _same_bits(_mean_of_members(members)(np.array(rows)), np.mean(rows, axis=0))


# --- reduction to a single run ---------------------------------------------------
# verify_ensemble_reduction checks a run_ensemble record; stop_residual = 0
# makes the record run its whole budget.

def _reduction(members, spec, **budget):
    record = run_ensemble(members, spec, stop_residual=0.0, **budget)
    return verify_ensemble_reduction(members, spec, record)


def test_reduction_quadratic_family():
    p, spec = _skew_spec()
    report = _reduction(_quadratic_members(), spec, n_steps=2000)
    assert report.max_deviation <= 1e-9


def test_reduction_entropy_family():
    p = library_problem("rps_game")
    spec = preset_bnn(p, eta=1.0)
    report = _reduction(_entropy_members(), spec, n_steps=1000)
    assert report.max_deviation <= 1e-8


@pytest.mark.parametrize("dt", [None, 0.1])
def test_reduction_mixed_simplex_family(dt):
    p = library_problem("rps_game")
    spec = preset_eg(entropy_geometry(3), p, 0.1)
    budget = ({"n_steps": 2000} if dt is None
              else {"dt": dt, "t_end": 2000 * dt, "stride": 1})
    report = _reduction(_mixed_simplex_members(), spec, **budget)
    assert len(report.deviations) == 2001
    assert report.max_deviation <= 1e-9


@settings(max_examples=15, deadline=None)
@given(st.lists(st.tuples(st.lists(st.floats(0.6, 5.0), min_size=2, max_size=2),
                          st.lists(st.floats(-2.0, 2.0), min_size=2, max_size=2)),
                min_size=1, max_size=4))
def test_reduction_holds_for_random_quadratic_members(members):
    # whole-space quadratic members: random weights and z0 offsets.  The
    # synthesized run is extragradient with probe step 0.1 and move step
    # 0.1 * mean(1/w), which stays bounded on the skew problem while that
    # is below 2 * 0.1 / (1 + 0.1^2) = 0.198, so weights start at 0.6; the
    # tolerance is absolute, and a diverging run's states grow unbounded
    p, spec = _skew_spec()
    members = make_members([weighted_quadratic_geometry(w) for w, _ in members],
                           [z0 for _, z0 in members])
    assert _reduction(members, spec, n_steps=300).max_deviation <= 1e-9


@settings(max_examples=15, deadline=None)
@given(st.lists(st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3),
                min_size=1, max_size=4))
def test_reduction_holds_for_random_entropy_offsets(offsets):
    # extragradient, whose discrete runs stay interior: discrete bnn at
    # eta = 1 reaches the boundary from softmax(0, 0, 1) within 300 steps,
    # as a single run too
    spec = preset_eg(entropy_geometry(3), library_problem("rps_game"), 0.1)
    members = make_members([entropy_geometry(3) for _ in offsets], offsets)
    assert _reduction(members, spec, n_steps=300).max_deviation <= 1e-8


def test_reduction_single_member_is_exact():
    p, spec = _skew_spec()
    members = make_members([euclidean_geometry(whole_space(2))],
                           [np.array([0.7, -0.1])])
    report = _reduction(members, spec, n_steps=500)
    assert report.max_deviation <= 1e-12


@pytest.mark.parametrize("integrator", ["euler", "rk4"])
def test_reduction_flow_mode(integrator):
    p = library_problem("skew_bilinear")
    spec = preset_fbf(p, 0.1)
    report = _reduction(_quadratic_members(), spec, integrator=integrator, dt=1e-2,
                        t_end=10.0)
    assert report.max_deviation <= 1e-9


def test_reduction_refutes_a_record_of_other_members():
    p, spec = _skew_spec()
    record = run_ensemble(_quadratic_members(), spec, n_steps=500, stop_residual=0.0)
    shifted = [replace(m, z0=m.z0 + 0.5) for m in _quadratic_members()]
    report = verify_ensemble_reduction(shifted, spec, record)
    assert report.max_deviation > 1e-3


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
    rec = run_ensemble(_entropy_members(), spec, dt=0.05, t_end=10.0, stride=1,
                       stop_residual=0.0)
    assert len(rec.states) == 201 and rec.dt == 0.05
    for x_en in rec.states[1:]:
        assert abs(x_en.sum() - 1.0) <= 1e-9
        assert np.all(x_en > 0.0)
