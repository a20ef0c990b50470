"""Property-based checks. Random systems are drawn from the shared
generators, keyed by a hypothesis-provided seed so shrinking works on the
seed rather than on raw floats."""
import math

import numpy as np
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

import nusample as ns
from conftest import random_minimal_spec, random_sequence
from reference import exp_jordan

seeds = st.integers(min_value=0, max_value=2**31 - 1)
orders = st.integers(min_value=1, max_value=5)


@settings(max_examples=40, deadline=None)
@given(seed=seeds, n=orders)
@example(seed=6980, n=3)  # np.roots scatters the triple root into a pair and a real point
def test_coefficient_root_round_trip(seed, n):
    # coefficients -> roots -> coefficients is stable even when the
    # intermediate root estimates scatter (multiple roots)
    rng = np.random.default_rng(seed)
    spec = random_minimal_spec(rng, n)
    coeffs = ns.coefficients_from_roots(spec.eigen)
    es2 = ns.roots_from_coefficients(coeffs)
    coeffs2 = ns.coefficients_from_roots(es2)
    scale = max(1.0, max(abs(c) for c in coeffs))
    assert max(abs(a - b) for a, b in zip(coeffs, coeffs2)) < 1e-7 * scale


@settings(max_examples=30, deadline=None)
@given(seed=seeds, n=orders)
def test_exp_jordan_semigroup(seed, n):
    rng = np.random.default_rng(seed)
    spec = random_minimal_spec(rng, n)
    s, t = rng.uniform(0.0, 2.0, 2)
    E1 = exp_jordan(spec.eigen, s) @ exp_jordan(spec.eigen, t)
    E2 = exp_jordan(spec.eigen, s + t)
    assert np.max(np.abs(E1 - E2)) < 1e-10 * max(1.0, np.max(np.abs(E2)))


@settings(max_examples=30, deadline=None)
@given(seed=seeds, n=orders)
def test_markov_round_trip(seed, n):
    rng = np.random.default_rng(seed)
    spec = random_minimal_spec(rng, n)
    h = ns.markov_from_modes(spec)
    mc = ns.modes_from_markov(spec.eigen, h)
    scale = max(1.0, max(abs(c) for c in spec.coeffs))
    assert max(abs(a - b) for a, b in zip(spec.coeffs, mc)) \
        < 1e-10 * scale


@settings(max_examples=20, deadline=None)
@given(seed=seeds, n=st.integers(min_value=1, max_value=4))
def test_realizations_share_impulse_response(seed, n):
    # c exp(A t) b agrees across both canonical forms and with the modal sum;
    # scipy's expm is the independent propagator here
    rng = np.random.default_rng(seed)
    spec = random_minimal_spec(rng, n)
    for t in rng.uniform(0.0, 3.0, 4):
        ref = ns.impulse_response(spec, t)
        for real in (ns.observability_canonical(spec),
                     ns.controllability_canonical(spec)):
            y = real.c @ scipy.linalg.expm(real.A * t) @ real.b
            assert abs(y - ref) < 1e-8 * max(1.0, abs(ref))


@settings(max_examples=25, deadline=None)
@given(seed=seeds, n=orders, shift=st.floats(min_value=-50.0, max_value=50.0,
                                             allow_nan=False))
def test_analysis_translation_invariance(seed, n, shift):
    rng = np.random.default_rng(seed)
    spec = random_minimal_spec(rng, n)
    seq = random_sequence(rng, n)
    r1 = ns.joint_test(ns.fundamental_matrix(spec.eigen, ns.alphas(seq)))
    r2 = ns.joint_test(ns.fundamental_matrix(spec.eigen,
                                             ns.alphas(seq.shifted(shift))))
    scale = max(1.0, abs(r1.determinant))
    assert abs(r1.determinant - r2.determinant) < 1e-9 * scale
    assert abs(r1.sigma_min - r2.sigma_min) < 1e-9 * max(1.0, r1.sigma_min)


@settings(max_examples=20, deadline=None)
@given(seed=seeds)
def test_determinant_vanishes_as_instants_coalesce(seed):
    # two instants merging drives the determinant continuously to zero
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 5))
    spec = random_minimal_spec(rng, n)
    seq = random_sequence(rng, n)
    t = list(seq.instants)
    dets = []
    for eps in (1e-1, 1e-3, 1e-5, 1e-7):
        t2 = t[:-1] + [t[-2] + eps]
        av = ns.alphas(ns.SamplingSequence(tuple(t2)))
        dets.append(abs(ns.joint_test(ns.fundamental_matrix(spec.eigen, av)).determinant))
    assert dets[-1] < 1e-5 * max(dets[0], 1e-300) or dets[-1] < 1e-12


@settings(max_examples=20, deadline=None)
@given(seed=seeds, n=st.integers(min_value=2, max_value=5))
def test_mode_vector_routes_agree(seed, n):
    # the Jordan-frame mode vectors can be produced either analytically or by
    # mapping the controllability-canonical flow through the basis change
    rng = np.random.default_rng(seed)
    spec = random_minimal_spec(rng, n)
    seq = random_sequence(rng, n)
    av = ns.alphas(seq)
    Y = ns.analysis.sampled_mode_vectors(spec, av)
    co = ns.controllability_canonical(spec)
    jf = ns.real_jordan(spec, co)
    for i, a in enumerate(av):
        y = jf.B_inv @ scipy.linalg.expm(co.A * a) @ co.b
        assert np.allclose(Y[:, i], y, rtol=1e-8, atol=1e-8)


@settings(max_examples=20, deadline=None)
@given(seed=seeds, n=orders)
def test_degree_metrics_shift_invariant(seed, n):
    rng = np.random.default_rng(seed)
    spec = random_minimal_spec(rng, n)
    seq = random_sequence(rng, n)
    d1 = ns.degree_metrics(spec, ns.alphas(seq))
    d2 = ns.degree_metrics(spec, ns.alphas(seq.shifted(17.3)))
    assert math.isclose(d1.normalized_gram_det, d2.normalized_gram_det,
                        rel_tol=0, abs_tol=1e-9)
    assert math.isclose(d1.min_principal_angle, d2.min_principal_angle,
                        rel_tol=0, abs_tol=1e-9)
