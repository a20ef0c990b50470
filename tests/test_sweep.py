"""Batched reconstruction and the sweep's noise amplification: k output
vectors solve against one observability matrix, and the CLI column matches
the per-trial loop it replaces."""
import json
import math
from pathlib import Path

import numpy as np
import pytest

import nusample as ns
from nusample import analysis, fileio, lti, simulate
from nusample.cli import main
from nusample.errors import RankDeficientError
from conftest import random_minimal_spec, random_sequence

DATA = Path(__file__).parent / "data"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def _case(seed, n):
    rng = np.random.default_rng(seed)
    spec = random_minimal_spec(rng, n)
    real = ns.observability_canonical(spec)
    return rng, real, ns.alphas(random_sequence(rng, n))


# ---------------------------------------------------------------------------
# reconstruct_initial_state with (n, k) outputs

def test_batched_reconstruction_matches_single_calls():
    rng, real, av = _case(12, 5)
    X0 = rng.standard_normal((5, 7))
    Y = ns.bruteforce_observability_matrix(real, av) @ X0
    batch = simulate.reconstruct_initial_state(real, Y, av)
    assert batch.shape == (5, 7)
    for j in range(7):
        single = simulate.reconstruct_initial_state(real, Y[:, j], av)
        assert single.shape == (5,)
        assert np.allclose(batch[:, j], single, rtol=1e-12, atol=1e-12)
    assert np.allclose(batch, X0, rtol=1e-8, atol=1e-8)


@pytest.mark.parametrize("shape", [(), (4,), (6,), (4, 3), (6, 2), (5, 2, 2)])
def test_reconstruction_rejects_wrong_shapes(shape):
    _, real, av = _case(12, 5)
    with pytest.raises(ValueError):
        simulate.reconstruct_initial_state(real, np.zeros(shape), av)


def test_batched_reconstruction_singular_raises():
    # the oscillator sampled half a period apart sees only +-x: O has rank 1
    spec = ns.system_from_markov([(1j, 1), (-1j, 1)], [0.0, 1.0])
    real = ns.observability_canonical(spec)
    av = ns.alphas(ns.SamplingSequence((0.0, math.pi)))
    with pytest.raises(RankDeficientError):
        simulate.reconstruct_initial_state(real, np.ones((2, 4)), av)


# ---------------------------------------------------------------------------
# the CLI column against the per-trial loop

def _per_trial_amplification(spec, real, av, eps, trials, rng):
    """Reference: each trial propagates its own x0 one alpha at a time and
    solves its own system, with an O built column by column from the flow."""
    n = spec.n
    O = np.array([[real.c @ simulate.state_transition(real, e, a) for e in np.eye(n)]
                  for a in av.alphas])
    errors = []
    for _ in range(trials):
        x0 = rng.standard_normal(n)
        outputs = np.array([float(real.c @ simulate.state_transition(real, x0, a))
                            for a in av.alphas])
        noisy = outputs + rng.normal(0.0, eps, n)
        errors.append(float(np.linalg.norm(np.linalg.solve(O, noisy) - x0)))
    return float(np.median(errors)) / eps


def _write_system(path, spec):
    path.write_text(json.dumps({
        "order": spec.n,
        "roots": [{"re": r.value.real, "im": r.value.imag, "mult": r.multiplicity}
                  for r in spec.eigen.roots],
        "mode_coefficients": [{"re": c.real, "im": c.imag} for c in spec.modes.coeffs],
    }))
    return str(path)


def _sweep_amplification(capsys, system, seed, trials, eps, start, stop, points):
    code, out, _ = run(capsys, "sweep", "--system", system, "--from", str(start),
                       "--to", str(stop), "--points", str(points),
                       "--noise", str(eps), "--trials", str(trials),
                       "--seed", str(seed))
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    return [float(r[0]) for r in rows], [float(r[4]) for r in rows]


@pytest.mark.parametrize("source", ["third_order", "random6"])
def test_sweep_amplification_matches_per_trial_loop(capsys, tmp_path, source):
    if source == "third_order":
        system = str(DATA / "third_order.json")
    else:
        spec = random_minimal_spec(np.random.default_rng(21), 6)
        system = _write_system(tmp_path / "random6.json", spec)
    spec = fileio.load_system(system)
    real = ns.observability_canonical(spec)
    seed, trials, eps = 4, 9, 1e-3
    scales, amps = _sweep_amplification(capsys, system, seed, trials, eps,
                                        0.3, 1.2, 5)
    assert all(math.isfinite(a) for a in amps)
    for idx, (s, amp) in enumerate(zip(scales, amps)):
        av = ns.alphas(ns.SamplingSequence(tuple(i * s for i in range(spec.n))))
        rng = np.random.default_rng(seed * 1000003 + idx)
        expected = _per_trial_amplification(spec, real, av, eps, trials, rng)
        assert amp == pytest.approx(expected, rel=1e-8)


def test_sweep_half_period_oscillator_is_inf(capsys):
    _, amps = _sweep_amplification(capsys, str(DATA / "oscillator.json"), 0, 5,
                                   1e-4, math.pi, math.pi, 1)
    assert amps == [math.inf]


# ---------------------------------------------------------------------------
# cost: one observability matrix per scale, whatever the number of trials

def _count(monkeypatch, original, modules):
    """Route every listed module's binding of ``original`` through a counter."""
    calls = []

    def counting(*args):
        calls.append(1)
        return original(*args)

    for module in modules:
        if hasattr(module, original.__name__):
            monkeypatch.setattr(module, original.__name__, counting)
    return calls


@pytest.mark.parametrize("system", ["third_order.json", "oscillator.json"])
def test_sweep_cost_does_not_grow_with_trials(monkeypatch, capsys, system):
    exp_calls = _count(monkeypatch, lti.exp_jordan, (lti, analysis, simulate, ns))
    transitions = _count(monkeypatch, simulate.state_transition, (simulate, ns))
    per_command = []
    for trials in (3, 30):
        exp_calls.clear()
        code, _, _ = run(capsys, "sweep", "--system", str(DATA / system),
                         "--from", "0.2", "--to", "1.0", "--points", "4",
                         "--trials", str(trials))
        assert code == 0
        per_command.append(len(exp_calls))
    assert per_command[0] == per_command[1] > 0
    assert transitions == []
