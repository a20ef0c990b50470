import math
import re

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
    inputs = ns.deadbeat_inputs(spec, [1.0], seq)
    assert inputs == pytest.approx([-1.0])


def test_deadbeat_zero_state_needs_no_input():
    rng = np.random.default_rng(6)
    spec, seq = random_admissible_case(rng, 3)
    inputs = ns.deadbeat_inputs(spec, np.zeros(3), seq)
    assert inputs.shape == (3,)
    assert np.allclose(inputs, 0.0, atol=1e-12)


def test_deadbeat_reaches_origin():
    rng = np.random.default_rng(8)
    for n in (1, 2, 3, 4, 5):
        spec, seq = random_admissible_case(rng, n)
        x0 = rng.standard_normal(n)
        inputs = ns.deadbeat_inputs(spec, x0, seq)
        states = ns.simulate_impulse_train(spec, x0, seq, inputs)
        assert np.linalg.norm(states[-1]) < 1e-8 * max(1.0, np.linalg.norm(x0))


def test_deadbeat_rejects_missing_final_instant():
    with pytest.raises(ValueError):
        ns.deadbeat_inputs(_oscillator(), [1.0, 0.0], ns.SamplingSequence((0.0, 1.0)))


def test_deadbeat_pathological_raises_with_diagnostics():
    seq = ns.SamplingSequence((0.0, math.pi), final_instant=2 * math.pi)
    with pytest.raises(RankDeficientError) as exc:
        ns.deadbeat_inputs(_oscillator(), [1.0, 0.0], seq)
    # sigma_min and the condition number are carried by the message only
    found = re.search(r"sigma_min = (\S+), cond = (\S+)\)", str(exc.value))
    assert float(found.group(1)) < 1e-10
    assert float(found.group(2)) > 1e8
    assert not hasattr(exc.value, "sigma_min")
    assert not hasattr(exc.value, "condition_number")


# ---------------------------------------------------------------------------
# simulation details

def test_free_response_matches_closed_form():
    # zero inputs: trajectory is just exp(A t) x0, and the output history is
    # the appropriately weighted combination of the basis functions
    spec = _oscillator()
    x0 = np.array([1.0, 0.0])
    seq = ns.SamplingSequence((0.0, 0.7), final_instant=1.5)
    states = ns.simulate_impulse_train(spec, x0, seq, [0.0, 0.0])
    times = (0.0, 0.0, 0.7, 0.7, 1.5)  # row 2k, 2k+1: instant k; last row: t_n
    assert len(states) == len(times)
    for x, t in zip(states, times):
        assert np.allclose(x, ns.state_transition(spec, x0, t), atol=1e-12)


def test_impulse_from_rest_reproduces_impulse_response():
    rng = np.random.default_rng(13)
    for n in (2, 3, 4):
        spec = random_minimal_spec(rng, n)
        real = observability_canonical(spec)
        seq = ns.SamplingSequence((0.0,) , final_instant=None)
        x_post = ns.simulate_impulse_train(spec, np.zeros(n), seq, [1.0])[-1]
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
        inputs = rng.standard_normal(n)
        got = ns.simulate_impulse_train(spec, x0, seq, inputs)
        old = reference.simulate_impulse_train(real, x0, seq, inputs)
        assert got.shape == (len(old), n)
        scale = max([np.linalg.norm(x0)] + [np.max(np.abs(x)) for _, _, x in old])
        tol = 4 * (n + 1) * np.finfo(float).eps * real.jordan.condition_number * scale
        for state, (_, _, x) in zip(got, old):
            assert np.max(np.abs(state - x)) <= tol


def test_overflowing_state_raises():
    # exp(J dt) is finite, the state it carries is not
    spec = ns.system_from_modes([(1.0, 1)], [1.0])
    seq = ns.SamplingSequence((0.0,), final_instant=10.0)
    with pytest.raises(DegenerateSamplingError, match="t = 10"):
        ns.simulate_impulse_train(spec, [1e306], seq, [0.0])


def test_checkpoint_structure():
    spec = _oscillator()
    seq = ns.SamplingSequence((0.0, 1.0), final_instant=2.0)
    states = ns.simulate_impulse_train(spec, np.zeros(2), seq, [0.5, -0.5])
    # rows: pre and post at t_0, pre and post at t_1, pre at the final instant
    assert states.shape == (5, 2)
    b = observability_canonical(spec).b
    # the impulse jump is exactly b * u
    assert np.allclose(states[1] - states[0], b * 0.5)
    assert np.allclose(states[2], ns.state_transition(spec, states[1], 1.0))
    assert np.allclose(states[3] - states[2], b * -0.5)
    assert np.allclose(states[4], ns.state_transition(spec, states[3], 1.0))


@pytest.mark.parametrize("inputs", [[0.5, np.nan], [0.5, np.inf], [0.5], [0.5, -0.5, 0.0],
                                    [[0.5, -0.5]]],
                         ids=["nan", "inf", "short", "long", "2d"])
def test_train_rejects_bad_inputs(inputs):
    seq = ns.SamplingSequence((0.0, 1.0), final_instant=2.0)
    with pytest.raises(ValueError, match="finite, one per sampling instant"):
        ns.simulate_impulse_train(_oscillator(), np.zeros(2), seq, inputs)


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

