import math
import re

import numpy as np
import pytest

import nusample as ns
from nusample.errors import DegenerateSamplingError, RankDeficientError
from conftest import random_admissible_case, random_minimal_spec, random_sequence
import reference
from reference import expA, impulse_response, observability_canonical

# Every state the simulation takes and returns is in the real Jordan frame z;
# the checks below carry it to the companion state x = B z and compare it with
# the state-frame route of tests/reference.py (expA, one exp_jordan matrix per
# interval, and the Markov vector b).


def _oscillator():
    return ns.system_from_markov([(1j, 1), (-1j, 1)], [0.0, 1.0])


def _free_state(spec, z0, t):
    """The Jordan-frame state z0 flowed freely for t > 0 by the impulse
    train: one instant with no input, then the final instant."""
    seq = ns.SamplingSequence((0.0,), final_instant=t)
    return ns.simulate_impulse_train(spec, z0, seq, [0.0])[-1]


# ---------------------------------------------------------------------------
# state transition: the free flow of the train

def test_transition_dt_zero_is_identity():
    # the first step of a train flows z0 to t_0 itself
    z = np.array([0.3, -0.7])
    seq = ns.SamplingSequence((0.0,), final_instant=1.0)
    assert np.allclose(ns.simulate_impulse_train(_oscillator(), z, seq, [0.0])[0], z)


def test_transition_quarter_rotation():
    # A_ob = [[0,1],[-1,0]] rotates the state clockwise in this convention
    spec = _oscillator()
    jf = observability_canonical(spec).jordan
    z = _free_state(spec, jf.B_inv @ np.array([1.0, 0.0]), math.pi / 2)
    assert jf.B @ z == pytest.approx([0.0, -1.0], abs=1e-12)


def test_transition_semigroup():
    rng = np.random.default_rng(2)
    spec = random_minimal_spec(rng, 4)
    z = rng.standard_normal(4)
    seq = ns.SamplingSequence((0.0, 0.4), final_instant=1.3)
    one = ns.simulate_impulse_train(spec, z, seq, [0.0, 0.0])[-1]
    two = _free_state(spec, z, 1.3)
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
        real = observability_canonical(spec)
        z0 = rng.standard_normal(n)
        inputs = ns.deadbeat_inputs(spec, z0, seq)
        states = ns.simulate_impulse_train(spec, z0, seq, inputs)
        assert np.linalg.norm(states[-1]) < 1e-8 * max(1.0, np.linalg.norm(z0))
        # the same inputs drive x0 = B z0 to the origin in the state frame
        x0 = real.jordan.B @ z0
        x_end = reference.simulate_impulse_train(real, x0, seq, inputs)[-1][2]
        assert np.linalg.norm(x_end) < 1e-8 * max(1.0, np.linalg.norm(x0))


def test_deadbeat_solves_against_the_controllability_matrix(monkeypatch):
    # the stacked flow's G_J is the controllability builder's, bit for bit,
    # and its right-hand side exp(J (t_n - t_0)) z0 is the free response
    rng = np.random.default_rng(9)
    spec, seq = random_admissible_case(rng, 4)
    z0 = rng.standard_normal(4)
    seen = []

    def solve(M, rhs, what, axis):
        seen.append((M, rhs, axis))
        return np.zeros(len(rhs))

    monkeypatch.setattr(ns.simulate, "solve_checked", solve)
    ns.deadbeat_inputs(spec, z0, seq)
    (G, rhs, axis), = seen
    assert np.array_equal(G, ns.bruteforce_controllability_matrix(spec, seq))
    assert axis == -2  # columns scaled to unit norm
    free = _free_state(spec, z0, seq.final_instant - seq.instants[0])
    assert np.allclose(-rhs, free, rtol=1e-13, atol=1e-13)


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
    # zero inputs: the trajectory is just exp(A t) x0, with x = B z
    spec = _oscillator()
    jf = observability_canonical(spec).jordan
    x0 = np.array([1.0, 0.0])
    seq = ns.SamplingSequence((0.0, 0.7), final_instant=1.5)
    states = ns.simulate_impulse_train(spec, jf.B_inv @ x0, seq, [0.0, 0.0])
    times = (0.0, 0.0, 0.7, 0.7, 1.5)  # row 2k, 2k+1: instant k; last row: t_n
    assert len(states) == len(times)
    for z, t in zip(states, times):
        assert np.allclose(jf.B @ z, expA(jf, t) @ x0, atol=1e-12)


def test_impulse_from_rest_reproduces_impulse_response():
    rng = np.random.default_rng(13)
    for n in (2, 3, 4):
        spec = random_minimal_spec(rng, n)
        real = observability_canonical(spec)
        seq = ns.SamplingSequence((0.0,) , final_instant=None)
        z_post = ns.simulate_impulse_train(spec, np.zeros(n), seq, [1.0])[-1]
        for t in (0.3, 1.1, 2.4):
            y = real.c @ expA(real.jordan, t) @ real.jordan.B @ z_post
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
        got = ns.simulate_impulse_train(spec, real.jordan.B_inv @ x0, seq, inputs)
        old = reference.simulate_impulse_train(real, x0, seq, inputs)
        assert got.shape == (len(old), n)
        scale = max([np.linalg.norm(x0)] + [np.max(np.abs(x)) for _, _, x in old])
        tol = 4 * (n + 1) * np.finfo(float).eps * real.jordan.condition_number * scale
        for state, (_, _, x) in zip(got, old):
            assert np.max(np.abs(real.jordan.B @ state - x)) <= tol


def test_overflowing_state_raises():
    # exp(J dt) is finite, the state it carries is not
    spec = ns.system_from_modes([(1.0, 1)], [1.0])
    seq = ns.SamplingSequence((0.0,), final_instant=10.0)
    with pytest.raises(DegenerateSamplingError, match="t = 10"):
        ns.simulate_impulse_train(spec, [1e306], seq, [0.0])


def test_checkpoint_structure():
    spec = _oscillator()
    real = observability_canonical(spec)
    B = real.jordan.B
    seq = ns.SamplingSequence((0.0, 1.0), final_instant=2.0)
    states = ns.simulate_impulse_train(spec, np.zeros(2), seq, [0.5, -0.5])
    # rows: pre and post at t_0, pre and post at t_1, pre at the final instant
    assert states.shape == (5, 2)
    # the impulse jump is exactly y0 * u, which is B^{-1} b * u
    assert np.array_equal(states[1] - states[0], spec.y0 * 0.5)
    assert np.allclose(B @ (states[1] - states[0]), real.b * 0.5)
    assert np.allclose(B @ states[2], expA(real.jordan, 1.0) @ B @ states[1])
    assert np.allclose(B @ (states[3] - states[2]), real.b * -0.5)
    assert np.allclose(B @ states[4], expA(real.jordan, 1.0) @ B @ states[3])


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
        z0 = rng.standard_normal(n)
        # the outputs of x0 = B z0, sampled through the state frame
        outputs = np.array([real.c @ expA(real.jordan, a) @ real.jordan.B @ z0
                            for a in av])
        zr = ns.reconstruct_initial_state(ns.jordan_observability_matrix(spec, av), outputs)
        assert np.linalg.norm(zr - z0) < 1e-8 * max(1.0, np.linalg.norm(z0))


def test_reconstruction_pathological_raises():
    av = ns.alphas(ns.SamplingSequence((0.0, math.pi)))
    with pytest.raises(RankDeficientError):
        ns.reconstruct_initial_state(ns.jordan_observability_matrix(_oscillator(), av),
                                     [0.0, 0.0])
