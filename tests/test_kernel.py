"""The batched Jordan-flow kernel against the per-alpha matrix routes, the
batched design grid against the scalar score, and the per-realization
Jordan form."""
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import nusample as ns
from nusample import analysis, design, lti, simulate
from nusample.cli import main
from conftest import random_minimal_spec

DATA = Path(__file__).parent / "data"

# a real block and a conjugate-pair block, both of multiplicity 3 (n = 9)
TRIPLE = ns.eigenstructure([(-0.4, 3), (complex(0.3, 1.1), 3), (complex(0.3, -1.1), 3)])


def _per_alpha(es, d, alphas):
    """exp(J alpha) d one alpha at a time, by exp_jordan and by scipy's expm."""
    J = lti.build_jordan_matrix(es)
    flat = np.ravel(alphas)
    by_cells = np.array([lti.exp_jordan(es, a) @ d for a in flat])
    by_expm = np.array([scipy.linalg.expm(J * a) @ d for a in flat])
    shape = np.shape(alphas) + (es.n,)
    return by_cells.reshape(shape), by_expm.reshape(shape)


@pytest.mark.parametrize("shape", [(7,), (4, 5)])
def test_flow_matches_per_alpha_routes(shape):
    rng = np.random.default_rng(3)
    d = rng.standard_normal(TRIPLE.n)
    alphas = rng.uniform(0.0, 3.0, shape)
    got = lti.jordan_flow(TRIPLE, d, alphas)
    assert got.shape == shape + (TRIPLE.n,)
    by_cells, by_expm = _per_alpha(TRIPLE, d, alphas)
    scale = np.max(np.abs(by_expm))
    assert np.max(np.abs(got - by_cells)) <= 1e-13 * scale
    assert np.max(np.abs(got - by_expm)) <= 1e-11 * scale


def test_flow_at_zero_is_identity():
    d = np.arange(1.0, TRIPLE.n + 1)
    assert np.array_equal(lti.jordan_flow(TRIPLE, d, 0.0), d)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1),
       n=st.integers(min_value=1, max_value=7))
def test_flow_matches_exp_jordan_random(seed, n):
    rng = np.random.default_rng(seed)
    spec = random_minimal_spec(rng, n)
    d = spec.real_mode_vector
    alphas = rng.uniform(-1.0, 4.0, (3, 2))
    got = lti.jordan_flow(spec.eigen, d, alphas)
    by_cells, _ = _per_alpha(spec.eigen, d, alphas)
    assert np.max(np.abs(got - by_cells)) <= 1e-12 * max(1.0, np.max(np.abs(by_cells)))


def test_exp_jordan_matches_expm():
    J = lti.build_jordan_matrix(TRIPLE)
    for t in (0.0, 0.7, 2.5):
        E = lti.exp_jordan(TRIPLE, t)
        ref = scipy.linalg.expm(J * t)
        assert np.max(np.abs(E - ref)) <= 1e-11 * np.max(np.abs(ref))


def _scalar_gram_det(spec, instants):
    """The normalized Gram determinant, one exp_jordan matrix per alpha."""
    av = ns.alphas(ns.SamplingSequence(tuple(instants)))
    Y = np.column_stack([lti.exp_jordan(spec.eigen, a) @ spec.real_mode_vector
                         for a in av.alphas])
    Yn = Y / np.linalg.norm(Y, axis=0)
    return float(np.clip(np.linalg.det(Yn.T @ Yn), 0.0, 1.0))


@pytest.mark.parametrize("n", [2, 3, 5])
def test_batched_grid_scores_match_scalar(n):
    rng = np.random.default_rng(40 + n)
    spec = random_minimal_spec(rng, n)
    instants = [0.3]
    for _ in range(n - 2):
        instants.append(instants[-1] + rng.uniform(0.2, 1.0))
    grid = instants[-1] + np.linspace(0.05, 5.0, 60)
    cand = np.column_stack([np.zeros(grid.size), grid[:, None] - instants[::-1]])
    batched = design._gram_dets(spec, cand)
    assert batched.shape == grid.shape
    for t, score in zip(grid, batched):
        assert score == pytest.approx(design._gram_det(spec, instants + [t]),
                                      rel=1e-12, abs=1e-14)
        assert score == pytest.approx(_scalar_gram_det(spec, instants + [t]),
                                      rel=1e-9, abs=1e-12)


def test_nonfinite_scores_are_zero():
    spec = ns.system_from_modes([(5.0, 1), (4.0, 1)], [1.0, 1.0])
    scores = design._gram_dets(spec, np.array([[0.0, 0.5], [0.0, 300.0]]))
    assert scores[0] > 0.0
    assert scores[1] == 0.0


def _count_real_jordan(monkeypatch):
    """Route every module's binding of real_jordan through a counter."""
    calls = []
    original = lti.real_jordan

    def counting(spec, real):
        calls.append(real)
        return original(spec, real)

    for module in (lti, analysis, simulate):
        if hasattr(module, "real_jordan"):
            monkeypatch.setattr(module, "real_jordan", counting)
    return calls


def test_realization_builds_jordan_form_once(monkeypatch):
    calls = _count_real_jordan(monkeypatch)
    spec = random_minimal_spec(np.random.default_rng(8), 4)
    real = ns.observability_canonical(spec)
    seq = ns.SamplingSequence((0.0, 0.4, 1.1, 1.5), final_instant=2.0)
    ns.bruteforce_controllability_matrix(real, seq)
    ns.bruteforce_observability_matrix(real, ns.alphas(seq))
    ns.state_transition(real, np.ones(4), 0.3)
    assert real.jordan is real.jordan
    assert len(calls) == 1


@pytest.mark.parametrize("argv", [
    ["sweep", "--system", str(DATA / "third_order.json"), "--from", "0.2",
     "--to", "1.0", "--points", "4", "--trials", "3"],
    ["verify", "--system", str(DATA / "third_order.json"),
     "--instants", str(DATA / "third_sequence.json"), "--seed", "1"],
])
def test_commands_build_jordan_form_once(monkeypatch, capsys, argv):
    # each command builds one realization, so at most one Jordan form
    calls = _count_real_jordan(monkeypatch)
    assert main(argv) == 0
    capsys.readouterr()
    assert len(calls) == 1
