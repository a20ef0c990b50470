import cmath
import dataclasses
import functools
import math

import numpy as np
import pytest
import scipy.linalg

import nusample as ns
from nusample import lti
from nusample.errors import NonMinimalError
from conftest import random_minimal_spec
import reference
from reference import controllability_canonical, controllability_jordan, expA, exp_jordan


# ---------------------------------------------------------------------------
# characteristic polynomial

def test_coefficients_from_roots_trivials():
    assert ns.coefficients_from_roots(ns.eigenstructure([(0, 1), (-1, 1)])) \
        == pytest.approx([1.0, 0.0])
    assert ns.coefficients_from_roots(ns.eigenstructure([(1j, 1), (-1j, 1)])) \
        == pytest.approx([0.0, 1.0])
    assert ns.coefficients_from_roots(ns.eigenstructure([(1, 2)])) \
        == pytest.approx([-2.0, 1.0])


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
        h = ns.markov_from_modes(spec)
        assert reference.impulse_response(spec, 0.0) == pytest.approx(h[0], abs=1e-12)


def test_markov_examples():
    spec = ns.system_from_modes([(-1, 1)], [1.0])
    assert ns.markov_from_modes(spec) == pytest.approx([1.0, ][:1])
    # n = 2 variants
    spec = ns.system_from_modes([(-1, 1), (0, 1)], [1.0, 0.0])
    # not minimal but Markov parameters are still well defined: h(t) = e^{-t}
    assert ns.markov_from_modes(spec) == pytest.approx([1.0, -1.0])
    spec = ns.system_from_markov([(1j, 1), (-1j, 1)], [0.0, 1.0])
    assert ns.markov_from_modes(spec) == pytest.approx([0.0, 1.0])
    # h(t) = t e^{-t}: root -1 with multiplicity 2
    spec = ns.system_from_modes([(-1, 2)], [0.0, 1.0])
    assert ns.markov_from_modes(spec) == pytest.approx([0.0, 1.0])


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
    # the Wronskian and the Vandermonde basis share one loop; each must keep
    # the bits of its own former loop, signed zeros included
    rng = np.random.default_rng(17)
    structures = [random_minimal_spec(rng, int(rng.integers(1, 11))).eigen
                  for _ in range(50)]
    assert max(blk.multiplicity for es in structures for blk in es.blocks) == 3
    for es in structures:
        assert _same_bits(lti.wronskian_at_zero(es), reference.wronskian_at_zero(es))
        assert _same_bits(lti.confluent_vandermonde_real(es),
                          reference.confluent_vandermonde_real(es))


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
        assert _same_bits(es._swap_reversal, reference.swap_reversal_permutation(es))
        h = ns.markov_from_modes(spec)
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


def _count_builds(monkeypatch, name):
    """Count the builds of the cached EigenStructure property ``name``."""
    calls = []
    build = getattr(lti.EigenStructure, name).func

    def counting(self):
        calls.append(1)
        return build(self)

    prop = functools.cached_property(counting)
    prop.__set_name__(lti.EigenStructure, name)
    monkeypatch.setattr(lti.EigenStructure, name, prop)
    return calls


def test_layout_constants_are_built_once_and_read_only(monkeypatch):
    seeds = _count_builds(monkeypatch, "_basis_seed")
    swaps = _count_builds(monkeypatch, "_swap_reversal")
    spec = random_minimal_spec(np.random.default_rng(31), 5)
    av = ns.alphas(ns.SamplingSequence((0.0, 0.3, 0.9, 1.4, 2.2)))
    ns.fundamental_matrix(spec.eigen, av)
    ns.fundamental_matrix(spec.eigen, av)
    real = ns.observability_canonical(spec)
    ns.bruteforce_observability_matrix(real, av)
    ns.bruteforce_observability_matrix(real, av)
    assert (len(seeds), len(swaps)) == (1, 1)
    for const in (*spec.eigen._basis_seed, spec.eigen._swap_reversal):
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


def test_pair_blocks_carry_partner_index():
    es = ns.eigenstructure([(0.5 - 1j, 2), (-1, 1), (0.5 + 1j, 2)])
    pair, real = es.blocks
    assert (pair.kind, pair.root_index, pair.partner_index) == ("pair", 2, 0)
    assert (real.kind, real.root_index, real.partner_index) == ("real", 1, None)


# ---------------------------------------------------------------------------
# canonical realizations

def test_observability_canonical_oscillator():
    spec = ns.system_from_markov([(1j, 1), (-1j, 1)], [0.0, 1.0])
    ob = ns.observability_canonical(spec)
    assert np.allclose(ob.A, [[0, 1], [-1, 0]], atol=1e-12)
    assert ob.b == pytest.approx([0, 1])
    assert ob.c == pytest.approx([1, 0])


def test_observability_canonical_first_order():
    spec = ns.system_from_markov([(-1, 1)], [1.0])
    ob = ns.observability_canonical(spec)
    assert np.allclose(ob.A, [[-1.0]], atol=1e-12)
    assert ob.b == pytest.approx([1.0])
    assert ob.c == pytest.approx([1.0])


def test_c_ob_is_leading_indicator():
    rng = np.random.default_rng(11)
    for n in (1, 2, 3, 5):
        ob = ns.observability_canonical(random_minimal_spec(rng, n))
        assert ob.c[0] == 1.0
        assert np.count_nonzero(ob.c) == 1


def test_controllability_canonical_transposes():
    spec = ns.system_from_markov([(1j, 1), (-1j, 1)], [0.0, 1.0])
    ob = ns.observability_canonical(spec)
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
    ob = ns.observability_canonical(spec)
    jf = ns.real_jordan(spec)
    J = reference.jordan_matrix(spec.eigen)
    assert np.allclose(J, np.diag([0.0, -1.0]), atol=1e-12)
    assert np.allclose(jf.B @ J @ jf.B_inv, ob.A, atol=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_jordan_reconstructs_A(n):
    rng = np.random.default_rng(100 + n)
    for _ in range(5):
        spec = random_minimal_spec(rng, n)
        J = reference.jordan_matrix(spec.eigen)
        for real in (ns.observability_canonical(spec), controllability_canonical(spec)):
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
    # W = B diag(D) bit for bit: W's cell k holds i!/(i-k)! lambda^{i-k}, B's
    # the conjugate of C(i, k) lambda^{i-k}, and D's k! is 1 or 2 at the
    # multiplicities (at most 3) drawn here, so the product rounds as W does
    rng = np.random.default_rng(44)
    for n in range(1, 11):
        for _ in range(4):
            es = random_minimal_spec(rng, n).eigen
            B = lti.confluent_vandermonde_real(es)
            assert np.array_equal(lti.wronskian_at_zero(es), B * es._wronskian_scale)


def test_y0_is_the_scaled_mode_vector():
    # y0 = B^{-1} W d = D d; the inverse route it replaces agrees to a few
    # ulps of cond(B)
    rng = np.random.default_rng(45)
    for n in range(1, 11):
        for _ in range(4):
            spec = random_minimal_spec(rng, n)
            real = ns.observability_canonical(spec)
            jf = real.jordan
            assert np.array_equal(jf.y0, spec.eigen._wronskian_scale * spec.real_mode_vector)
            by_inverse = jf.B_inv @ real.b
            tol = 8 * n * np.finfo(float).eps * jf.condition_number
            assert np.max(np.abs(jf.y0 - by_inverse)) <= tol * np.max(np.abs(jf.y0))


def test_jordan_observability_row():
    rng = np.random.default_rng(43)
    for n in (2, 3, 4, 5):
        spec = random_minimal_spec(rng, n)
        ob = ns.observability_canonical(spec)
        jf = ns.real_jordan(spec)
        row = ob.c @ jf.B
        expected = np.zeros(n)
        for blk in spec.eigen.blocks:
            expected[blk.offset] = 1.0
        assert row == pytest.approx(expected, abs=1e-12)


def test_jordan_controllability_needs_minimality():
    spec = ns.system_from_modes([(0, 1), (-1, 1)], [1.0, 0.0])
    with pytest.raises(NonMinimalError):
        controllability_jordan(spec)


def test_expA_matches_scipy_expm():
    rng = np.random.default_rng(7)
    for n in (2, 3, 4, 5):
        spec = random_minimal_spec(rng, n)
        for real in (ns.observability_canonical(spec), controllability_canonical(spec)):
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
    (ns.Realization, "tag"),
    (ns.RealJordanForm, "J"),
])
def test_removed_api_is_gone(owner, name):
    # the package builds one realization and the CLI reaches no root finder,
    # Jordan-matrix builder or trajectory export
    assert not hasattr(owner, name)
    if dataclasses.is_dataclass(owner):
        assert name not in {f.name for f in dataclasses.fields(owner)}
