"""The batched Jordan-flow kernel against the per-alpha matrix routes, the
basis, O, G, the Jordan-frame output rows and the state transitions it
builds against the same routes, the batched design grid against the scalar
score, and how often each command builds the Jordan form and each matrix."""
import ast
import math
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import nusample as ns
from nusample import analysis, cli, design, lti, simulate
from nusample.cli import main
from nusample.errors import DegenerateSamplingError
from conftest import count_calls, random_minimal_spec, random_sequence
from reference import (
    controllability_canonical,
    expA,
    exp_jordan,
    fundamental_basis,
    gram_det,
    jordan_matrix,
)

DATA = Path(__file__).parent / "data"

# a real block and a conjugate-pair block, both of multiplicity 3 (n = 9)
TRIPLE = ns.eigenstructure([(-0.4, 3), (complex(0.3, 1.1), 3), (complex(0.3, -1.1), 3)])


def _per_alpha(es, d, alphas):
    """exp(J alpha) d one alpha at a time, by exp_jordan and by scipy's expm."""
    J = jordan_matrix(es)
    flat = np.ravel(alphas)
    by_cells = np.array([exp_jordan(es, a) @ d for a in flat])
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


@pytest.mark.parametrize("alpha_shape, seed_shape", [((6,), (4,)), ((2, 3), (2, 5)),
                                                     ((1,), (3,))])
def test_flow_of_a_seed_stack_is_the_flow_of_each_seed(alpha_shape, seed_shape):
    rng = np.random.default_rng(4)
    for es in (TRIPLE, random_minimal_spec(rng, 7).eigen):
        d = rng.standard_normal(seed_shape + (es.n,))
        alphas = rng.uniform(-1.0, 3.0, alpha_shape)
        got = lti.jordan_flow(es, d, alphas)
        assert got.shape == alpha_shape + d.shape
        for idx in np.ndindex(*seed_shape):
            each = got[(slice(None),) * len(alpha_shape) + idx]
            assert np.array_equal(each, lti.jordan_flow(es, d[idx], alphas))


def test_flow_of_a_seed_stack_at_one_alpha():
    # a lone seed at a 0-d alpha takes numpy's scalar arithmetic, a stack its
    # array loops: equal up to the last bit
    rng = np.random.default_rng(5)
    d = rng.standard_normal((3, TRIPLE.n))
    alpha = float(rng.uniform(0.0, 3.0))
    got = lti.jordan_flow(TRIPLE, d, alpha)
    assert got.shape == d.shape
    for row, seed in zip(got, d):
        each = lti.jordan_flow(TRIPLE, seed, alpha)
        assert np.max(np.abs(row - each)) <= 4 * np.spacing(np.max(np.abs(each)))


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
    J = jordan_matrix(TRIPLE)
    for t in (0.0, 0.7, 2.5):
        E = exp_jordan(TRIPLE, t)
        ref = scipy.linalg.expm(J * t)
        assert np.max(np.abs(E - ref)) <= 1e-11 * np.max(np.abs(ref))


@pytest.mark.parametrize("shape", [(), (6,), (3, 4)])
def test_basis_matches_math_exp_loop(shape):
    rng = np.random.default_rng(len(shape))
    for n in range(1, 10):
        es = random_minimal_spec(rng, n).eigen
        t = rng.uniform(-1.0, 4.0, shape)
        got = lti.evaluate_fundamental_basis(es, t)
        assert got.shape == shape + (n,)
        ref = np.array([fundamental_basis(es, a) for a in np.ravel(t)]).reshape(got.shape)
        scale = np.max(np.abs(ref), axis=-1, keepdims=True)
        assert np.all(np.abs(got - ref) <= 1e-14 * scale)


def _close(got, ref):
    return np.max(np.abs(got - ref)) <= 1e-9 * np.max(np.abs(ref))


@pytest.mark.parametrize("n", range(2, 10))
def test_state_space_matrices_match_per_alpha_routes(n):
    # O, G and the Jordan-frame output rows against exp_jordan (through expA)
    # and expm.  O = Phi D^{-1} B^{-1} needs c B = a one in each block's first
    # cell, which holds for the observability form, the one the runtime
    # builds; G is checked on the controllability form too.
    rng = np.random.default_rng(60 + n)
    for _ in range(3):
        spec = random_minimal_spec(rng, n)
        seq = random_sequence(rng, n, with_final=True, max_step=0.6)
        av = ns.alphas(seq)
        es = spec.eigen
        leading = np.zeros(n)
        leading[[blk.offset for blk in es.blocks]] = 1.0
        ob = ns.observability_canonical(spec)
        assert np.array_equal(ob.c @ ob.jordan.B, leading)
        O = ns.bruteforce_observability_matrix(ob, av)
        assert _close(O, np.array([ob.c @ expA(ob.jordan, a) for a in av]))
        assert _close(O, np.array([ob.c @ scipy.linalg.expm(ob.A * a) for a in av]))
        for real in (ob, controllability_canonical(spec)):
            jf = real.jordan
            G = ns.bruteforce_controllability_matrix(real, seq)
            dts = [seq.final_instant - t for t in reversed(seq.instants)]
            assert _close(G, np.column_stack([expA(jf, dt) @ real.b for dt in dts]))
            assert _close(G, np.column_stack([scipy.linalg.expm(real.A * dt) @ real.b
                                              for dt in dts]))
        OJ = ns.fundamental_matrix(es, av) / es._wronskian_scale
        J = jordan_matrix(es)
        assert _close(OJ, np.array([leading @ exp_jordan(es, a) for a in av]))
        assert _close(OJ, np.array([leading @ scipy.linalg.expm(J * a) for a in av]))


MATH_MODULES = {"math", "cmath", "numpy"}
EXPONENTIALS = {"exp", "cos", "sin"}


def _exponential_calls(path):
    """(function, line) of every call to exp, cos or sin of math, cmath or
    numpy in the module at ``path``, by import binding, with the innermost
    enclosing function's name ("" at module level)."""
    tree = ast.parse(path.read_text())
    modules, direct = {}, {}  # local name -> module; local name -> function
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                modules[a.asname or a.name] = a.name
        elif isinstance(node, ast.ImportFrom) and node.module in MATH_MODULES:
            for a in node.names:
                direct[a.asname or a.name] = a.name
    found = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.Call):
            f = node.func
            if (isinstance(f, ast.Attribute) and f.attr in EXPONENTIALS
                    and isinstance(f.value, ast.Name)
                    and modules.get(f.value.id) in MATH_MODULES):
                found.append((func, node.lineno))
            elif isinstance(f, ast.Name) and direct.get(f.id) in EXPONENTIALS:
                found.append((func, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, "")
    return found


def test_runtime_has_no_per_alpha_exponential():
    # exp_jordan and expA live in tests/reference.py only, as the reference
    for module in (lti, analysis, simulate, cli, design):
        assert not hasattr(module, "exp_jordan")
    assert not hasattr(lti.RealJordanForm, "expA")
    assert not hasattr(lti.RealJordanForm, "expm")
    # and lti.jordan_flow is the only code that calls an exponential at all
    sources = sorted(Path(lti.__file__).parent.glob("*.py"))
    assert len(sources) >= 8
    calls = {f"{path.name}:{func}:{line}" for path in sources
             for func, line in _exponential_calls(path)
             if (path.name, func) != ("lti.py", "jordan_flow")}
    assert not calls
    assert [func for func, _ in _exponential_calls(Path(lti.__file__))] == \
        ["jordan_flow", "jordan_flow"]


def test_batched_state_transition_matches_scalar_calls():
    rng = np.random.default_rng(12)
    spec = random_minimal_spec(rng, 6)
    real = ns.observability_canonical(spec)
    x = rng.standard_normal(6)
    dts = rng.uniform(0.0, 3.0, 7)
    batched = ns.state_transition(real, x, dts)
    assert batched.shape == (7, 6)
    scalar = np.array([ns.state_transition(real, x, dt) for dt in dts])
    assert np.max(np.abs(batched - scalar)) <= 1e-14 * np.max(np.abs(scalar))


@pytest.mark.parametrize("build", [
    lambda real, seq: ns.bruteforce_observability_matrix(real, ns.alphas(seq)),
    lambda real, seq: ns.bruteforce_controllability_matrix(real, seq),
    lambda real, seq: ns.state_transition(real, np.ones(2), seq.instants),
    lambda real, seq: ns.fundamental_matrix(real.spec.eigen, ns.alphas(seq)),
])
def test_overflowing_flow_raises_degenerate_sampling(build):
    spec = ns.system_from_modes([(1.0, 1), (-0.5, 1)], [1.0, 1.0])
    real = ns.observability_canonical(spec)
    seq = ns.SamplingSequence((0.0, 800.0), final_instant=801.0)
    with pytest.raises(DegenerateSamplingError, match="Re lambda \\* alpha = 80[01]"):
        build(real, seq)


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
    for row, t, score in zip(cand, grid, batched):
        assert score == design._gram_dets(spec, row)
        assert score == pytest.approx(gram_det(spec, instants + [t]),
                                      rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("n", [2, 3, 5, 7])
def test_plain_scores_are_the_scaled_ones(monkeypatch, n):
    # intervals up to 150 spread the mode vectors' norms over 70 to 215
    # binary orders, all inside the range where _gram_dets skips the scaling
    rng = np.random.default_rng(60 + n)
    spec = random_minimal_spec(rng, n)
    instants = np.cumsum(np.r_[0.0, rng.uniform(0.05, 5.0, n - 2)])
    grid = instants[-1] + np.linspace(0.05, 150.0, 200)
    cand = np.column_stack([np.zeros(grid.size), grid[:, None] - instants[::-1]])
    plain = design._gram_dets(spec, cand)
    monkeypatch.setattr(design, "_PLAIN_NORMS", (math.inf, 0.0))  # always scale
    assert design._gram_dets(spec, cand).tobytes() == plain.tobytes()


def test_nonfinite_scores_are_zero():
    spec = ns.system_from_modes([(5.0, 1), (4.0, 1)], [1.0, 1.0])
    scores = design._gram_dets(spec, np.array([[0.0, 0.5], [0.0, 300.0]]))
    assert scores[0] > 0.0
    assert scores[1] == 0.0


def test_scores_hold_until_the_flow_leaves_the_normal_range():
    # the squares of e^{alpha} (roots 1, -0.5) overflow past alpha = 355, and
    # those of e^{-alpha} (roots -1, -1.1) underflow; the score stays the Gram
    # determinant, 0.5, until e^{alpha} overflows near 709.8 or e^{-alpha}
    # turns subnormal near 708.4, where unit_gram would reject the vector
    spec = ns.system_from_modes([(1.0, 1), (-0.5, 1)], [1.0, 1.0])
    alphas = [354.0, 356.0, 600.0, 704.0, 709.0, 710.0]
    scores = design._gram_dets(spec, np.column_stack([np.zeros(6), alphas]))
    assert scores.tolist() == pytest.approx([0.5] * 5 + [0.0], rel=1e-12, abs=0.0)
    spec = ns.system_from_modes([(-1.0, 1), (-1.1, 1)], [1.0, 1.0])
    scores = design._gram_dets(spec, np.array([[0.0, 700.0], [0.0, 710.0]]))
    assert scores[0] == pytest.approx(gram_det(spec, [0.0, 700.0]), rel=1e-12)
    assert scores[0] == pytest.approx(0.5, rel=1e-12)
    assert scores[1] == 0.0


def _count_real_jordan(monkeypatch):
    return count_calls(monkeypatch, lti.real_jordan, (lti, analysis, simulate))


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


def test_analyze_builds_each_matrix_once(monkeypatch, capsys):
    # third_order.json is minimal and third_sequence.json admissible, so
    # analyze reaches the degree metrics and the factorization check
    phi = count_calls(monkeypatch, analysis.fundamental_matrix, (analysis, ns))
    modes = count_calls(monkeypatch, analysis.sampled_mode_vectors, (analysis, ns))
    minimality = count_calls(monkeypatch, lti.check_minimality, (lti, analysis, cli, ns))
    flows = count_calls(monkeypatch, lti.jordan_flow, (lti, analysis, simulate, ns))
    assert main(["analyze", "--system", str(DATA / "third_order.json"),
                 "--instants", str(DATA / "third_sequence.json")]) == 0
    out = capsys.readouterr().out
    assert "basis_ratio_obs = " in out
    assert (len(phi), len(modes), len(minimality)) == (1, 1, 1)
    # one flow for Phi, one for the mode vectors; the observability side of
    # the factorization check is read off Phi
    assert len(flows) == 2


def test_sweep_builds_one_observability_matrix_per_block(monkeypatch, capsys):
    # both sweeps fit in one block of scales, so each builds O once
    calls = count_calls(monkeypatch, analysis.bruteforce_observability_matrix,
                        (analysis, simulate, ns))
    for points in (4, 64):
        calls.clear()
        assert main(["sweep", "--system", str(DATA / "third_order.json"), "--from", "0.2",
                     "--to", "1.0", "--points", str(points), "--trials", "30"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == points + 1
        assert len(calls) == 1
