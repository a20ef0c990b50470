"""Property-based checks. Random systems are drawn from the shared
generators, keyed by a hypothesis-provided seed so shrinking works on the
seed rather than on raw floats."""
import math

import numpy as np
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

import nusample as ns
from nusample.errors import InadmissibleDesignError
from conftest import random_minimal_spec, random_sequence
from reference import (
    coefficients_from_roots,
    controllability_canonical,
    exp_jordan,
    impulse_response,
    markov_from_modes,
    observability_canonical,
)

seeds = st.integers(min_value=0, max_value=2**31 - 1)
orders = st.integers(min_value=1, max_value=5)


@settings(max_examples=40, deadline=None)
@given(seed=seeds, n=orders)
@example(seed=6980, n=3)  # a triple root
def test_coefficient_root_round_trip(seed, n):
    # roots -> coefficients -> back at the roots: a root of multiplicity m
    # is a zero of the polynomial and of its first m - 1 derivatives
    rng = np.random.default_rng(seed)
    spec = random_minimal_spec(rng, n)
    poly = np.concatenate(([1.0], coefficients_from_roots(spec.eigen)))
    scale = max(1.0, float(np.max(np.abs(poly))))
    for rt in spec.eigen.roots:
        size = scale * max(1.0, abs(rt.value)) ** n  # bounds each term of p(lambda)
        for k in range(rt.multiplicity):
            p_k = np.polyval(np.polyder(poly, k), rt.value)
            assert abs(p_k) < 1e-9 * math.perm(n, k) * size


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
    h = markov_from_modes(spec)
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
        ref = impulse_response(spec, t)
        for real in (observability_canonical(spec), controllability_canonical(spec)):
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
    shifted = ns.SamplingSequence(tuple(t + shift for t in seq.instants))
    r2 = ns.joint_test(ns.fundamental_matrix(spec.eigen, ns.alphas(shifted)))
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
    co = controllability_canonical(spec)
    jf = co.jordan
    for i, a in enumerate(av):
        y = jf.B_inv @ scipy.linalg.expm(co.A * a) @ co.b
        assert np.allclose(Y[:, i], y, rtol=1e-8, atol=1e-8)


@settings(max_examples=20, deadline=None)
@given(seed=seeds, n=orders)
def test_degree_metrics_shift_invariant(seed, n):
    rng = np.random.default_rng(seed)
    spec = random_minimal_spec(rng, n)
    seq = random_sequence(rng, n)
    d1 = ns.analysis.degree_metrics_from_vectors(
        ns.analysis.sampled_mode_vectors(spec, ns.alphas(seq)))
    shifted = ns.SamplingSequence(tuple(t + 17.3 for t in seq.instants))
    d2 = ns.analysis.degree_metrics_from_vectors(
        ns.analysis.sampled_mode_vectors(spec, ns.alphas(shifted)))
    assert math.isclose(d1.normalized_gram_det, d2.normalized_gram_det,
                        rel_tol=0, abs_tol=1e-9)
    assert math.isclose(d1.min_principal_angle, d2.min_principal_angle,
                        rel_tol=0, abs_tol=1e-9)


def _modes(spec):
    """[((root, multiplicity), coefficients)] of each root of ``spec``."""
    es = spec.eigen
    return [((rt.value, rt.multiplicity), spec.coeffs[sl])
            for rt, sl in zip(es.roots, es.root_slices)]


def _rebuilt(modes, scale=1.0):
    return ns.system_from_modes([root for root, _ in modes],
                                [c * scale for _, cs in modes for c in cs])


def test_gram_determinant_ignores_block_order_and_coefficient_scale():
    # reordering the root blocks permutes the rows of the unit mode vectors
    # Yn, and scaling every coefficient cancels in their normalization, so
    # neither moves det(Yn' Yn).  Each computed value is within n eps cond(Yn)
    # of it (test_analysis), so the two differ by at most twice that.
    # Read from Yn' Yn, 283 of these 480 pairs broke that bound, and 11 read 0
    # on one side only.
    rng = np.random.default_rng(41)
    eps = np.finfo(float).eps
    for n in range(2, 10):
        for _ in range(30):
            spec = random_minimal_spec(rng, n)
            seq = random_sequence(rng, n)
            degree = ns.analyze(spec, seq).degree
            modes = _modes(spec)
            reordered = [modes[i] for i in rng.permutation(len(modes))]
            for other in (_rebuilt(reordered), _rebuilt(modes, 1e3)):
                moved = ns.analyze(other, seq).degree.normalized_gram_det
                error = abs(moved / degree.normalized_gram_det - 1.0)
                assert error <= 2 * n * eps * degree.condition_number, (n, error)


def _designed_instants(spec):
    try:
        return np.array(ns.design_sequence_generic(spec).sequence.instants)
    except InadmissibleDesignError as exc:
        return np.array(exc.best.sequence.instants)


def test_generic_design_ignores_coefficient_scale():
    # the search scores Gram determinants, which scaling every coefficient by
    # 1e3 moves only by rounding; scored from Yn' Yn, 7 of these 100 designs
    # moved an instant by more than 1e-7, by up to 2.2e-3
    rng = np.random.default_rng(43)
    for n in range(2, 7):
        for _ in range(20):
            spec = random_minimal_spec(rng, n)
            scaled = _rebuilt(_modes(spec), 1e3)
            moved = np.max(np.abs(_designed_instants(scaled) - _designed_instants(spec)))
            assert moved <= 1e-7, (n, moved)
