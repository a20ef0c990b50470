import math

import numpy as np
import pytest

import nusample as ns
from nusample.errors import DegenerateSamplingError, RankDeficientError
from conftest import random_admissible_case, random_minimal_spec, random_sequence
import reference
from reference import impulse_response, observability_canonical


def _oscillator():
    return ns.system_from_markov([(1j, 1), (-1j, 1)], [0.0, 1.0])


# ---------------------------------------------------------------------------
# state transition

def test_transition_dt_zero_is_identity():
    x = np.array([0.3, -0.7])
    assert np.allclose(ns.state_transition(_oscillator(), x, 0.0), x)


def test_transition_quarter_rotation():
    # A_ob = [[0,1],[-1,0]] rotates the state clockwise in this convention
    x = np.array([1.0, 0.0])
    y = ns.state_transition(_oscillator(), x, math.pi / 2)
    assert y == pytest.approx([0.0, -1.0], abs=1e-12)


def test_transition_semigroup():
    rng = np.random.default_rng(2)
    spec = random_minimal_spec(rng, 4)
    x = rng.standard_normal(4)
    one = ns.state_transition(spec, ns.state_transition(spec, x, 0.4), 0.9)
    two = ns.state_transition(spec, x, 1.3)
    assert np.allclose(one, two, rtol=1e-10, atol=1e-12)


# ---------------------------------------------------------------------------
# deadbeat control

def test_deadbeat_integrator_single_step():
    # first-order integrator: u_0 must cancel the (constant) state
    spec = ns.system_from_modes([(0, 1)], [1.0])
    seq = ns.SamplingSequence((0.0,), final_instant=1.0)
    plan = ns.deadbeat_inputs(spec, [1.0], seq)
    assert plan.inputs == pytest.approx((-1.0,))


def test_deadbeat_zero_state_needs_no_input():
    rng = np.random.default_rng(6)
    spec, seq = random_admissible_case(rng, 3)
    plan = ns.deadbeat_inputs(spec, np.zeros(3), seq)
    assert np.allclose(plan.inputs, 0.0, atol=1e-12)


def test_deadbeat_reaches_origin():
    rng = np.random.default_rng(8)
    for n in (1, 2, 3, 4, 5):
        spec, seq = random_admissible_case(rng, n)
        x0 = rng.standard_normal(n)
        plan = ns.deadbeat_inputs(spec, x0, seq)
        traj = ns.simulate_impulse_train(spec, x0, plan)
        assert np.linalg.norm(traj.final_state) < 1e-8 * max(1.0, np.linalg.norm(x0))


def test_deadbeat_rejects_missing_final_instant():
    with pytest.raises(ValueError):
        ns.deadbeat_inputs(_oscillator(), [1.0, 0.0], ns.SamplingSequence((0.0, 1.0)))


def test_deadbeat_pathological_raises_with_diagnostics():
    seq = ns.SamplingSequence((0.0, math.pi), final_instant=2 * math.pi)
    with pytest.raises(RankDeficientError) as exc:
        ns.deadbeat_inputs(_oscillator(), [1.0, 0.0], seq)
    assert exc.value.sigma_min < 1e-10
    assert exc.value.condition_number > 1e8


# ---------------------------------------------------------------------------
# simulation details

def test_free_response_matches_closed_form():
    # zero inputs: trajectory is just exp(A t) x0, and the output history is
    # the appropriately weighted combination of the basis functions
    spec = _oscillator()
    x0 = np.array([1.0, 0.0])
    seq = ns.SamplingSequence((0.0, 0.7), final_instant=1.5)
    plan = ns.ImpulsePlan((0.0, 0.0), seq)
    traj = ns.simulate_impulse_train(spec, x0, plan)
    for cp in traj.checkpoints:
        assert np.allclose(cp.state, ns.state_transition(spec, x0, cp.time),
                           atol=1e-12)


def test_impulse_from_rest_reproduces_impulse_response():
    rng = np.random.default_rng(13)
    for n in (2, 3, 4):
        spec = random_minimal_spec(rng, n)
        real = observability_canonical(spec)
        seq = ns.SamplingSequence((0.0,) , final_instant=None)
        plan = ns.ImpulsePlan((1.0,), seq)
        traj = ns.simulate_impulse_train(spec, np.zeros(n), plan)
        x_post = traj.final_state
        for t in (0.3, 1.1, 2.4):
            y = real.c @ ns.state_transition(spec, x_post, t)
            assert y == pytest.approx(impulse_response(spec, t),
                                      rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("n", range(2, 11))
def test_jordan_frame_train_matches_the_state_frame_loop(n):
    # the state-frame loop rounds through B^{-1} and B at every step, so the
    # two agree to a few ulps of the largest state times cond(B)
    rng = np.random.default_rng(300 + n)
    for _ in range(6):
        spec = random_minimal_spec(rng, n)
        real = observability_canonical(spec)
        seq = random_sequence(rng, n, with_final=True)
        x0 = rng.standard_normal(n)
        plan = ns.ImpulsePlan(tuple(rng.standard_normal(n)), seq)
        got = ns.simulate_impulse_train(spec, x0, plan).checkpoints
        old = reference.simulate_impulse_train(real, x0, plan)
        assert [(cp.time, cp.side) for cp in got] == [(t, side) for t, side, _ in old]
        scale = max([np.linalg.norm(x0)] + [np.max(np.abs(x)) for _, _, x in old])
        tol = 4 * (n + 1) * np.finfo(float).eps * real.jordan.condition_number * scale
        for cp, (_, _, x) in zip(got, old):
            assert np.max(np.abs(cp.state - x)) <= tol


def test_overflowing_state_raises():
    # exp(J dt) is finite, the state it carries is not
    spec = ns.system_from_modes([(1.0, 1)], [1.0])
    plan = ns.ImpulsePlan((0.0,), ns.SamplingSequence((0.0,), final_instant=10.0))
    with pytest.raises(DegenerateSamplingError, match="t = 10"):
        ns.simulate_impulse_train(spec, [1e306], plan)


def test_checkpoint_structure():
    spec = _oscillator()
    seq = ns.SamplingSequence((0.0, 1.0), final_instant=2.0)
    plan = ns.ImpulsePlan((0.5, -0.5), seq)
    traj = ns.simulate_impulse_train(spec, np.zeros(2), plan)
    sides = [cp.side for cp in traj.checkpoints]
    assert sides == ["pre", "post", "pre", "post", "pre"]
    # the impulse jump is exactly b * u
    pre, post = traj.checkpoints[0], traj.checkpoints[1]
    assert np.allclose(post.state - pre.state, observability_canonical(spec).b * 0.5)


# ---------------------------------------------------------------------------
# reconstruction

def test_reconstruction_round_trip():
    rng = np.random.default_rng(21)
    for n in (1, 2, 3, 4, 5):
        spec, seq = random_admissible_case(rng, n)
        real = observability_canonical(spec)
        av = ns.alphas(seq)
        x0 = rng.standard_normal(n)
        outputs = np.array([real.c @ ns.state_transition(spec, x0, a)
                            for a in av])
        xr = ns.reconstruct_initial_state(spec, outputs, av)
        assert np.linalg.norm(xr - x0) < 1e-8 * max(1.0, np.linalg.norm(x0))


def test_reconstruction_pathological_raises():
    av = ns.alphas(ns.SamplingSequence((0.0, math.pi)))
    with pytest.raises(RankDeficientError):
        ns.reconstruct_initial_state(_oscillator(), [0.0, 0.0], av)

