import math

import numpy as np
import pytest

import nusample as ns
from nusample.errors import RankDeficientError
from nusample.simulate import export_trajectory_csv
from conftest import random_admissible_case, random_minimal_spec


def _oscillator():
    spec = ns.system_from_markov([(1j, 1), (-1j, 1)], [0.0, 1.0])
    return spec, ns.observability_canonical(spec)


# ---------------------------------------------------------------------------
# state transition

def test_transition_dt_zero_is_identity():
    _, real = _oscillator()
    x = np.array([0.3, -0.7])
    assert np.allclose(ns.state_transition(real, x, 0.0), x)


def test_transition_quarter_rotation():
    # A_ob = [[0,1],[-1,0]] rotates the state clockwise in this convention
    _, real = _oscillator()
    x = np.array([1.0, 0.0])
    y = ns.state_transition(real, x, math.pi / 2)
    assert y == pytest.approx([0.0, -1.0], abs=1e-12)


def test_transition_semigroup():
    rng = np.random.default_rng(2)
    spec = random_minimal_spec(rng, 4)
    real = ns.observability_canonical(spec)
    x = rng.standard_normal(4)
    one = ns.state_transition(real, ns.state_transition(real, x, 0.4), 0.9)
    two = ns.state_transition(real, x, 1.3)
    assert np.allclose(one, two, rtol=1e-10, atol=1e-12)


# ---------------------------------------------------------------------------
# deadbeat control

def test_deadbeat_integrator_single_step():
    # first-order integrator: u_0 must cancel the (constant) state
    spec = ns.system_from_modes([(0, 1)], [1.0])
    real = ns.observability_canonical(spec)
    seq = ns.SamplingSequence((0.0,), final_instant=1.0)
    plan = ns.deadbeat_inputs(real, [1.0], seq)
    assert plan.inputs == pytest.approx((-1.0,))


def test_deadbeat_zero_state_needs_no_input():
    rng = np.random.default_rng(6)
    spec, seq = random_admissible_case(rng, 3)
    real = ns.observability_canonical(spec)
    plan = ns.deadbeat_inputs(real, np.zeros(3), seq)
    assert np.allclose(plan.inputs, 0.0, atol=1e-12)


def test_deadbeat_reaches_origin():
    rng = np.random.default_rng(8)
    for n in (1, 2, 3, 4, 5):
        spec, seq = random_admissible_case(rng, n)
        real = ns.observability_canonical(spec)
        x0 = rng.standard_normal(n)
        plan = ns.deadbeat_inputs(real, x0, seq)
        traj = ns.simulate_impulse_train(real, x0, plan)
        assert np.linalg.norm(traj.final_state) < 1e-8 * max(1.0, np.linalg.norm(x0))


def test_deadbeat_rejects_missing_final_instant():
    _, real = _oscillator()
    with pytest.raises(ValueError):
        ns.deadbeat_inputs(real, [1.0, 0.0], ns.SamplingSequence((0.0, 1.0)))


def test_deadbeat_pathological_raises_with_diagnostics():
    _, real = _oscillator()
    seq = ns.SamplingSequence((0.0, math.pi), final_instant=2 * math.pi)
    with pytest.raises(RankDeficientError) as exc:
        ns.deadbeat_inputs(real, [1.0, 0.0], seq)
    assert exc.value.sigma_min < 1e-10
    assert exc.value.condition_number > 1e8


# ---------------------------------------------------------------------------
# simulation details

def test_free_response_matches_closed_form():
    # zero inputs: trajectory is just exp(A t) x0, and the output history is
    # the appropriately weighted combination of the basis functions
    spec, real = _oscillator()
    x0 = np.array([1.0, 0.0])
    seq = ns.SamplingSequence((0.0, 0.7), final_instant=1.5)
    plan = ns.ImpulsePlan((0.0, 0.0), seq)
    traj = ns.simulate_impulse_train(real, x0, plan)
    for cp in traj.checkpoints:
        assert np.allclose(cp.state, ns.state_transition(real, x0, cp.time),
                           atol=1e-12)


def test_impulse_from_rest_reproduces_impulse_response():
    rng = np.random.default_rng(13)
    for n in (2, 3, 4):
        spec = random_minimal_spec(rng, n)
        real = ns.observability_canonical(spec)
        seq = ns.SamplingSequence((0.0,) , final_instant=None)
        plan = ns.ImpulsePlan((1.0,), seq)
        traj = ns.simulate_impulse_train(real, np.zeros(n), plan)
        x_post = traj.final_state
        for t in (0.3, 1.1, 2.4):
            y = real.c @ ns.state_transition(real, x_post, t)
            assert y == pytest.approx(ns.impulse_response(spec, t),
                                      rel=1e-9, abs=1e-12)


def test_checkpoint_structure():
    spec, real = _oscillator()
    seq = ns.SamplingSequence((0.0, 1.0), final_instant=2.0)
    plan = ns.ImpulsePlan((0.5, -0.5), seq)
    traj = ns.simulate_impulse_train(real, np.zeros(2), plan)
    sides = [cp.side for cp in traj.checkpoints]
    assert sides == ["pre", "post", "pre", "post", "pre"]
    # the impulse jump is exactly b * u
    pre, post = traj.checkpoints[0], traj.checkpoints[1]
    assert np.allclose(post.state - pre.state, real.b * 0.5)


# ---------------------------------------------------------------------------
# reconstruction

def test_reconstruction_round_trip():
    rng = np.random.default_rng(21)
    for n in (1, 2, 3, 4, 5):
        spec, seq = random_admissible_case(rng, n)
        real = ns.observability_canonical(spec)
        av = ns.alphas(seq)
        x0 = rng.standard_normal(n)
        outputs = np.array([real.c @ ns.state_transition(real, x0, a)
                            for a in av])
        xr = ns.reconstruct_initial_state(real, outputs, av)
        assert np.linalg.norm(xr - x0) < 1e-8 * max(1.0, np.linalg.norm(x0))


def test_reconstruction_pathological_raises():
    _, real = _oscillator()
    av = ns.alphas(ns.SamplingSequence((0.0, math.pi)))
    with pytest.raises(RankDeficientError):
        ns.reconstruct_initial_state(real, [0.0, 0.0], av)


def test_trajectory_csv(tmp_path):
    spec, real = _oscillator()
    seq = ns.SamplingSequence((0.0, 1.0), final_instant=2.0)
    plan = ns.ImpulsePlan((0.5, -0.5), seq)
    traj = ns.simulate_impulse_train(real, np.zeros(2), plan)
    out = tmp_path / "traj.csv"
    export_trajectory_csv(traj, out)
    lines = out.read_text().splitlines()
    assert lines[0] == "time,x0,x1,side"
    assert len(lines) == 1 + len(traj.checkpoints)
