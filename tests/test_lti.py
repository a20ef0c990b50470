import cmath
import dataclasses
import math

import numpy as np
import pytest
import scipy.linalg

import nusample as ns
from nusample import analysis, cli, lti
from nusample import errors
from nusample.errors import RootFindingError
from conftest import count_builds, random_minimal_spec
import reference
from reference import (
    controllability_canonical,
    controllability_jordan,
    expA,
    exp_jordan,
    observability_canonical,
)


# ---------------------------------------------------------------------------
# characteristic polynomial

def test_coefficients_from_roots_trivials():
    coefficients = reference.coefficients_from_roots
    assert coefficients(ns.eigenstructure([(0, 1), (-1, 1)])) == pytest.approx([1.0, 0.0])
    assert coefficients(ns.eigenstructure([(1j, 1), (-1j, 1)])) == pytest.approx([0.0, 1.0])
    assert coefficients(ns.eigenstructure([(1, 2)])) == pytest.approx([-2.0, 1.0])


# ---------------------------------------------------------------------------
# fundamental basis

def test_basis_rotation_pair_at_zero():
    es = ns.eigenstructure([(1j, 1), (-1j, 1)])
    assert ns.evaluate_fundamental_basis(es, 0.0) == pytest.approx([1.0, 0.0])


def test_basis_two_real_roots():
    es = ns.eigenstructure([(0, 1), (-1, 1)])
    assert ns.evaluate_fundamental_basis(es, 1.0) == pytest.approx([1.0, math.exp(-1)])


def test_basis_double_root():
    es = ns.eigenstructure([(-1, 2)])
    assert ns.evaluate_fundamental_basis(es, 2.0) == pytest.approx(
        [math.exp(-2), 2 * math.exp(-2)])


# ---------------------------------------------------------------------------
# impulse response and Markov parameters

def test_impulse_response_scalar_exponential():
    spec = ns.system_from_modes([(-1, 1)], [1.0])
    assert reference.impulse_response(spec, 1.0) == pytest.approx(math.exp(-1), rel=1e-12)


def test_impulse_response_sine():
    spec = ns.system_from_markov([(1j, 1), (-1j, 1)], [0.0, 1.0])
    assert reference.impulse_response(spec, math.pi / 2) == pytest.approx(1.0, rel=1e-12)


def test_impulse_response_matches_per_root_sum():
    # h(t) = sum over roots of C t^k e^{lambda t}, term by term, against one
    # row of the real basis times the real mode vector; h can cancel to near
    # zero, so the error is relative to the sum of the terms' sizes
    rng = np.random.default_rng(21)
    for n in range(1, 10):
        spec = random_minimal_spec(rng, n)
        es, c = spec.eigen, spec.coeffs
        for t in rng.uniform(0.0, 4.0, 5):
            terms = [ck * t ** k * cmath.exp(rt.value * t)
                     for rt, sl in zip(es.roots, es.root_slices)
                     for k, ck in enumerate(c[sl])]
            scale = sum(abs(z) for z in terms)
            assert abs(sum(terms).imag) <= 1e-12 * scale
            h = ns.evaluate_fundamental_basis(es, t) @ spec.real_mode_vector
            assert abs(h - sum(terms).real) <= 1e-12 * scale


def test_impulse_at_zero_is_first_markov_parameter():
    rng = np.random.default_rng(3)
    for n in (1, 2, 3, 4):
        spec = random_minimal_spec(rng, n)
        h = reference.markov_from_modes(spec)
        assert reference.impulse_response(spec, 0.0) == pytest.approx(h[0], abs=1e-12)


def test_markov_examples():
    markov = reference.markov_from_modes
    spec = ns.system_from_modes([(-1, 1)], [1.0])
    assert markov(spec) == pytest.approx([1.0, ][:1])
    # n = 2 variants
    spec = ns.system_from_modes([(-1, 1), (0, 1)], [1.0, 0.0])
    # not minimal but Markov parameters are still well defined: h(t) = e^{-t}
    assert markov(spec) == pytest.approx([1.0, -1.0])
    spec = ns.system_from_markov([(1j, 1), (-1j, 1)], [0.0, 1.0])
    assert markov(spec) == pytest.approx([0.0, 1.0])
    # h(t) = t e^{-t}: root -1 with multiplicity 2
    spec = ns.system_from_modes([(-1, 2)], [0.0, 1.0])
    assert markov(spec) == pytest.approx([0.0, 1.0])


def test_modes_from_markov_trivials():
    es = ns.eigenstructure([(-1, 1)])
    assert ns.modes_from_markov(es, [1.0]) == pytest.approx([1.0])
    es = ns.eigenstructure([(1j, 1), (-1j, 1)])
    mc = ns.modes_from_markov(es, [0.0, 1.0])
    spec = ns.SystemSpec(es, mc)
    assert reference.impulse_response(spec, 0.7) == pytest.approx(math.sin(0.7), rel=1e-12)


def _same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def test_confluent_matrices_match_separate_loops():
    # the Wronskian that modes_from_markov solves against is the scaled
    # Vandermonde basis B D; at multiplicities up to 3 each must keep the
    # bits of its own former loop, signed zeros included
    rng = np.random.default_rng(17)
    structures = [random_minimal_spec(rng, int(rng.integers(1, 11))).eigen
                  for _ in range(50)]
    assert max(blk.multiplicity for es in structures for blk in es.blocks) == 3
    for es in structures:
        assert _same_bits(es.B * es._wronskian_scale, reference.wronskian_at_zero(es))
        assert _same_bits(es.B, reference.confluent_vandermonde_real(es))


def _layout_specs():
    """50 random minimal systems (n = 1 ... 10, multiplicities up to 3) and a
    few whose coefficients and Markov solutions hold exact zeros."""
    rng = np.random.default_rng(23)
    specs = [random_minimal_spec(rng, int(rng.integers(1, 11))) for _ in range(50)]
    assert max(blk.multiplicity for spec in specs for blk in spec.eigen.blocks) == 3
    return specs + [
        ns.system_from_modes([(1j, 1), (-1j, 1)], [0.5, 0.5]),
        ns.system_from_modes([(-1, 1), (2j, 2), (-2j, 2)], [-1, 0.5j, -0.25, -0.5j, -0.25]),
        ns.system_from_markov([(1j, 1), (-1j, 1)], [0.0, 1.0]),
        ns.system_from_markov([(1j, 1), (-1j, 1)], [-1.0, 0.0]),
        ns.system_from_markov([(-0.5, 3), (0.3 + 1j, 1), (0.3 - 1j, 1)], [1, 0, 0, 0, 2]),
    ]


def test_layout_builders_match_slot_loops():
    # the cell views must keep the bits of the former slot-index loops
    for spec in _layout_specs():
        es = spec.eigen
        assert _same_bits(spec.real_mode_vector, reference.real_mode_vector(spec))
        d, R = es._basis_seed
        ref_d, ref_R = reference.basis_seed(es)
        assert _same_bits(d, ref_d) and _same_bits(R, ref_R)
        t = np.linspace(0.0, 3.0, 2 * es.n).reshape(2, es.n)
        assert _same_bits(lti.evaluate_fundamental_basis(es, t),
                          lti.checked_flow(es, ref_d, t, ref_R))
        h = reference.markov_from_modes(spec)
        assert _same_bits(np.array(lti.modes_from_markov(es, h)),
                          np.array(reference.modes_from_markov(es, h)))


def test_block_cells_view_the_slots_and_operators_act_on_them():
    # the real Jordan matrix acts on a block's cells as lambda I plus the
    # shift to the next cell: a pair's rotation-scaling is multiplication
    # by lambda on the cells read as complex numbers
    rng = np.random.default_rng(29)
    es = ns.eigenstructure([(-1, 2), (0.5 + 2j, 3), (0.5 - 2j, 3)])
    v = rng.standard_normal((4, es.n))
    Jv = v @ reference.jordan_matrix(es).T
    for blk in es.blocks:
        m = blk.multiplicity
        cells = blk.cells(v)
        assert cells.shape == (4, m) and np.shares_memory(cells, v)
        expected = blk.value * cells
        expected[:, :m - 1] += cells[:, 1:]
        assert np.allclose(blk.cells(Jv), expected, rtol=1e-14, atol=1e-14)
    _, pair = es.blocks
    assert np.array_equal(pair.cells(v)[:, 1], v[:, 4] + 1j * v[:, 5])


def test_layout_constants_are_built_once_and_read_only(monkeypatch):
    builds = [count_builds(monkeypatch, lti.EigenStructure, name)
              for name in ("_basis_seed", "_wronskian_scale", "B", "B_inv")]
    builds.append(count_builds(monkeypatch, lti.SystemSpec, "y0"))
    spec = random_minimal_spec(np.random.default_rng(31), 5)
    seq = ns.SamplingSequence((0.0, 0.3, 0.9, 1.4, 2.2), final_instant=2.5)
    av = ns.alphas(seq)
    for _ in range(2):
        ns.fundamental_matrix(spec.eigen, av)
        reference.bruteforce_observability_matrix(spec, av)
        ns.bruteforce_controllability_matrix(spec, seq)
    assert [len(calls) for calls in builds] == [1] * 5
    es = spec.eigen
    for const in (*es._basis_seed, es._wronskian_scale, es.B, es.B_inv, spec.y0):
        assert not const.flags.writeable
        with pytest.raises(ValueError):
            const[0] = 1.0


@pytest.mark.parametrize("roots, coeffs, message", [
    ([(1 + 1j, 1)], None, r"complex root \(1\+1j\) lacks a conjugate partner"),
    ([(1 + 1j, 1), (1 - 1j, 2)], None, "lacks a conjugate partner"),
    ([(-1, 1), (0.5 - 1j, 1), (0.5 + 1j, 1)], [1, 1, 1j],
     "blocks 1 and 2 do not carry conjugate coefficients"),
    ([(2j, 1), (-2j, 1), (-1, 1)], [1j, 1j, 1j],
     "blocks 0 and 1 do not carry conjugate coefficients"),
    ([(-1, 1), (2j, 1), (-2j, 1)], [1j, 1j, 1j],
     "real-root block 0 has complex coefficients"),
])
def test_conjugate_pairing_errors(roots, coeffs, message):
    # errors come in root order: the first offending root or pair wins
    with pytest.raises(ValueError, match=message):
        if coeffs is None:
            ns.eigenstructure(roots)
        else:
            ns.system_from_modes(roots, coeffs)


def test_pair_coefficient_parts_stop_at_half_the_float_maximum():
    # the real mode vector holds 2 conj(C) for a pair coefficient C
    half = np.finfo(float).max / 2
    roots = [(-1 + 1j, 1), (-1 - 1j, 1)]
    spec = ns.system_from_modes(roots, [complex(half, -half), complex(half, half)])
    assert np.isfinite(spec.real_mode_vector).all()
    over = np.nextafter(half, np.inf)
    for c in (complex(over, 0.0), complex(0.0, -over)):
        with pytest.raises(ValueError, match="blocks 0 and 1: .* half the float maximum"):
            ns.system_from_modes(roots, [c, c.conjugate()])


def test_pair_blocks_carry_partner_index():
    es = ns.eigenstructure([(0.5 - 1j, 2), (-1, 1), (0.5 + 1j, 2)])
    pair, real = es.blocks
    assert (pair.kind, pair.root_index, pair.partner_index) == ("pair", 2, 0)
    assert (real.kind, real.root_index, real.partner_index) == ("real", 1, None)


# ---------------------------------------------------------------------------
# canonical realizations

def test_observability_canonical_oscillator():
    spec = ns.system_from_markov([(1j, 1), (-1j, 1)], [0.0, 1.0])
    ob = observability_canonical(spec)
    assert np.allclose(ob.A, [[0, 1], [-1, 0]], atol=1e-12)
    assert ob.b == pytest.approx([0, 1])
    assert ob.c == pytest.approx([1, 0])


def test_observability_canonical_first_order():
    spec = ns.system_from_markov([(-1, 1)], [1.0])
    ob = observability_canonical(spec)
    assert np.allclose(ob.A, [[-1.0]], atol=1e-12)
    assert ob.b == pytest.approx([1.0])
    assert ob.c == pytest.approx([1.0])


def test_c_ob_is_leading_indicator():
    rng = np.random.default_rng(11)
    for n in (1, 2, 3, 5):
        ob = observability_canonical(random_minimal_spec(rng, n))
        assert ob.c[0] == 1.0
        assert np.count_nonzero(ob.c) == 1


def test_controllability_canonical_transposes():
    spec = ns.system_from_markov([(1j, 1), (-1j, 1)], [0.0, 1.0])
    ob = observability_canonical(spec)
    co = controllability_canonical(spec)
    assert np.allclose(co.A, [[0, -1], [1, 0]], atol=1e-12)
    assert co.b == pytest.approx([1, 0])
    assert co.c == pytest.approx([0, 1])
    assert np.array_equal(co.A, ob.A.T)
    assert np.array_equal(co.b, ob.c)
    assert np.array_equal(co.c, ob.b)


# ---------------------------------------------------------------------------
# real Jordan form

def test_jordan_rotation_block():
    spec = ns.system_from_markov([(1j, 1), (-1j, 1)], [0.0, 1.0])
    co = controllability_canonical(spec)
    jf = co.jordan
    J = reference.jordan_matrix(spec.eigen)
    assert np.allclose(J, [[0, -1], [1, 0]], atol=1e-12)
    assert np.allclose(jf.B @ J @ jf.B_inv, co.A, atol=1e-12)


def test_jordan_distinct_real_roots():
    spec = ns.system_from_modes([(0, 1), (-1, 1)], [1.0, 1.0])
    ob = observability_canonical(spec)
    jf = ob.jordan
    J = reference.jordan_matrix(spec.eigen)
    assert np.allclose(J, np.diag([0.0, -1.0]), atol=1e-12)
    assert np.allclose(jf.B @ J @ jf.B_inv, ob.A, atol=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_jordan_reconstructs_A(n):
    rng = np.random.default_rng(100 + n)
    for _ in range(5):
        spec = random_minimal_spec(rng, n)
        J = reference.jordan_matrix(spec.eigen)
        for real in (observability_canonical(spec), controllability_canonical(spec)):
            jf = real.jordan
            scale = max(1.0, np.max(np.abs(real.A)))
            assert np.max(np.abs(jf.B @ J @ jf.B_inv - real.A)) < 1e-10 * scale
            assert np.allclose(exp_jordan(jf.es, 0.0), np.eye(n), atol=1e-12)


def test_jordan_controllability_normalization():
    # B^{-1} b_co equals the real-basis image of the modal coefficients
    rng = np.random.default_rng(42)
    for n in (2, 3, 4, 5):
        spec = random_minimal_spec(rng, n)
        jf = controllability_jordan(spec)
        assert jf.y0 == pytest.approx(spec.real_mode_vector, rel=1e-8, abs=1e-10)


def test_wronskian_is_the_scaled_vandermonde_basis():
    # W = B diag(D), by the two independent loops of tests/reference.py: W's
    # cell k holds i!/(i-k)! lambda^{i-k}, B's the conjugate of
    # C(i, k) lambda^{i-k}.  D's k! is 1 or 2 at multiplicities up to 3, so
    # the product rounds as W does; 6 and 24 may move it by an ulp
    rng = np.random.default_rng(44)
    for n in range(1, 11):
        for _ in range(4):
            es = random_minimal_spec(rng, n).eigen
            B = reference.confluent_vandermonde_real(es)
            assert np.array_equal(reference.wronskian_at_zero(es), B * es._wronskian_scale)
    for m in (4, 5):
        for es in (ns.eigenstructure([(-0.7, m), (1.3, 1)]),
                   ns.eigenstructure([(0.4 + 1.9j, m), (0.4 - 1.9j, m), (-2.2, 1)])):
            W = reference.wronskian_at_zero(es)
            BD = reference.confluent_vandermonde_real(es) * es._wronskian_scale
            assert np.all(np.abs(BD - W) <= 2 * np.spacing(np.abs(W)))


def test_y0_is_the_scaled_mode_vector():
    # y0 = B^{-1} W d = D d; the inverse route it replaces agrees to a few
    # ulps of cond(B)
    rng = np.random.default_rng(45)
    for n in range(1, 11):
        for _ in range(4):
            spec = random_minimal_spec(rng, n)
            real = observability_canonical(spec)
            jf = real.jordan
            assert np.array_equal(spec.y0, spec.eigen._wronskian_scale * spec.real_mode_vector)
            by_inverse = jf.B_inv @ real.b
            tol = 8 * n * np.finfo(float).eps * jf.condition_number
            assert np.max(np.abs(jf.y0 - by_inverse)) <= tol * np.max(np.abs(jf.y0))


def test_jordan_observability_row():
    rng = np.random.default_rng(43)
    for n in (2, 3, 4, 5):
        spec = random_minimal_spec(rng, n)
        ob = observability_canonical(spec)
        row = ob.c @ spec.eigen.B
        expected = np.zeros(n)
        for blk in spec.eigen.blocks:
            expected[blk.offset] = 1.0
        assert row == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("roots", [[(1e200, 1), (-1, 1), (-2, 1)],
                                   [(0.1 + 1e200j, 1), (0.1 - 1e200j, 1), (-1, 1)]])
def test_overflowing_vandermonde_basis_raises(roots):
    # Python's ** overflows past 1.8e308 for a real root and for a pair
    es = ns.eigenstructure(roots)
    with pytest.raises(RootFindingError, match=r"\|lambda\|\^\(n-1\) = 1e\+200\^2"):
        es.B
    assert np.isfinite(ns.eigenstructure([(1e154, 1), (-1, 1), (-2, 1)]).B).all()


def test_jordan_controllability_needs_minimality():
    spec = ns.system_from_modes([(0, 1), (-1, 1)], [1.0, 0.0])
    with pytest.raises(ValueError, match="not minimal"):
        controllability_jordan(spec)


def test_expA_matches_scipy_expm():
    rng = np.random.default_rng(7)
    for n in (2, 3, 4, 5):
        spec = random_minimal_spec(rng, n)
        for real in (observability_canonical(spec), controllability_canonical(spec)):
            jf = real.jordan
            for t in rng.uniform(0.0, 4.0, 3):
                ref = scipy.linalg.expm(real.A * t)
                assert np.max(np.abs(expA(jf, t) - ref)) < 1e-8 * max(1.0, np.max(np.abs(ref)))


# ---------------------------------------------------------------------------
# minimality

def test_minimality_all_nonzero():
    spec = ns.system_from_modes([(0, 1), (-1, 1)], [1.0, 1.0])
    assert ns.check_minimality(spec).minimal


def test_minimality_flags_zero_block():
    spec = ns.system_from_modes([(0, 1), (-1, 1)], [1.0, 0.0])
    report = ns.check_minimality(spec)
    assert not report.minimal
    assert report.offending_blocks == (1,)


def test_minimality_multiple_root_highest_coefficient():
    spec = ns.system_from_modes([(-1, 2)], [5.0, 0.0])
    assert not ns.check_minimality(spec).minimal


# ---------------------------------------------------------------------------
# the trimmed API

@pytest.mark.parametrize("owner, name", [
    (ns, "roots_from_coefficients"),
    (lti, "roots_from_coefficients"),
    (ns, "controllability_canonical"),
    (lti, "controllability_canonical"),
    (ns, "impulse_response"),
    (lti, "impulse_response"),
    (lti, "build_jordan_matrix"),
    (ns.simulate, "export_trajectory_csv"),
    (lti.Block, "put_operator"),
    (ns.SamplingSequence, "shifted"),
    (ns, "Realization"),
    (lti, "Realization"),
    (ns, "RealJordanForm"),
    (lti, "RealJordanForm"),
    (ns, "observability_canonical"),
    (lti, "observability_canonical"),
    (ns, "real_jordan"),
    (lti, "real_jordan"),
    (ns, "coefficients_from_roots"),
    (lti, "coefficients_from_roots"),
    (ns, "markov_from_modes"),
    (lti, "markov_from_modes"),
    (lti, "wronskian_at_zero"),
    (lti, "confluent_vandermonde_real"),
    (lti, "B_CONDITION_WARN"),
    (lti, "_read_only"),
    (ns, "degree_metrics"),
    (analysis, "degree_metrics"),
    (ns, "verify_factorizations"),
    (analysis, "verify_factorizations"),
    (lti.EigenStructure, "_swap_reversal"),
    (analysis, "_output_rows"),
    (analysis, "_block_hankel_det"),
    (lti, "_confluent"),
    (ns, "numerical_rank"),
    (analysis, "numerical_rank"),
    (ns.simulate, "rank_deficient"),
    (lti.EigenStructure, "r"),
    (errors, "NonMinimalError"),
    (analysis.FactorizationCheck, "lhs_ctrl"),
    (analysis.FactorizationCheck, "rhs_ctrl"),
    (analysis.FactorizationCheck, "lhs_obs"),
    (analysis.FactorizationCheck, "rhs_obs"),
    (analysis.FactorizationCheck, "det_phi"),
    (ns, "ImpulsePlan"),
    (ns, "Trajectory"),
    (ns.simulate, "Checkpoint"),
    (ns, "state_transition"),
    (ns.simulate, "state_transition"),
    (ns.design, "export_geometry_csv"),
    (ns.design.GeometryTrace, "surface_exponent"),
    (analysis, "DEFAULT_ADMISSIBILITY_FACTOR"),
    (ns, "DEFAULT_ADMISSIBILITY_FACTOR"),
    (ns.design, "MIN_GRAM_DET"),
    (analysis.AnalysisReport, "threshold"),
    (cli, "run_geometry"),
    (ns, "bruteforce_observability_matrix"),
    (analysis, "bruteforce_observability_matrix"),
    (ns.design, "_geometric_obstacle"),
])
def test_removed_api_is_gone(owner, name):
    # the package works in one realization's Jordan frame, which the system
    # owns, and the CLI reaches no root finder, companion form, Jordan-matrix
    # builder or trajectory export; O, the Wronskian and N2 have no second
    # builder, the degree and factorization checks no public wrapper, an
    # impulse train takes and returns plain arrays in the Jordan frame, with
    # no state transition of the companion frame, the CLI writes the
    # geometry CSV, the trace carries no field that nothing reads, and every
    # verdict is spectrum's one tolerance on a sigma ratio; the geometric
    # construction has one command, design --method geometric, which auto
    # never takes; the companion frame's O has one runtime builder,
    # analysis.sweep_arrays
    assert not hasattr(owner, name)
    if dataclasses.is_dataclass(owner):
        assert name not in {f.name for f in dataclasses.fields(owner)}
