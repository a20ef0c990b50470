import math

import numpy as np
import pytest

import nusample as ns
from nusample import analysis, simulate
from nusample.errors import DegenerateSamplingError, RankDeficientError
from conftest import pathological_sequence, random_minimal_spec, random_sequence
import reference
from reference import expA, observability_canonical


def _degree(spec, av):
    """The degree metrics at the alphas av, as analyze computes them."""
    return analysis.degree_metrics_from_vectors(analysis.sampled_mode_vectors(spec, av))


def _factors(spec, av):
    """The factorization check at the alphas av, as analyze computes it for
    an admissible sequence, here whether or not the sequence is admissible."""
    phi = ns.fundamental_matrix(spec.eigen, av)
    return analysis._factorizations(spec, float(np.linalg.det(phi)),
                                    analysis.sampled_mode_vectors(spec, av))


# ---------------------------------------------------------------------------
# sequences and alpha vectors

def test_sequence_rejects_nonincreasing():
    with pytest.raises(DegenerateSamplingError):
        ns.SamplingSequence((0.0, 0.0))
    with pytest.raises(DegenerateSamplingError):
        ns.SamplingSequence((1.0, 0.5))
    with pytest.raises(DegenerateSamplingError):
        ns.SamplingSequence((0.0, 1.0), final_instant=0.9)


def test_alphas_reverse_differences():
    av = ns.alphas(ns.SamplingSequence((0.0, 1.0, 3.0)))
    assert av == pytest.approx((0.0, 2.0, 3.0))


def test_alphas_translation_invariant():
    seq = ns.SamplingSequence((0.3, 1.1, 2.9, 3.4))
    shifted = ns.SamplingSequence(tuple(t + 17.3 for t in seq.instants))
    assert ns.alphas(shifted) == pytest.approx(ns.alphas(seq))


# ---------------------------------------------------------------------------
# fundamental matrix and joint test

def test_fundamental_matrix_two_real_roots():
    es = ns.eigenstructure([(0, 1), (-1, 1)])
    av = ns.alphas(ns.SamplingSequence((0.0, 1.0)))
    fm = ns.fundamental_matrix(es, av)
    assert np.allclose(fm, [[1.0, 1.0], [1.0, math.exp(-1)]])
    report = ns.joint_test(fm)
    assert report.determinant == pytest.approx(math.exp(-1) - 1.0)
    assert report.is_admissible


def test_alpha_phi_and_coefficients_are_plain_values():
    es = ns.eigenstructure([(-0.5, 1), (1j, 1), (-1j, 1)])
    av = ns.alphas(ns.SamplingSequence((0.25, 1.0, 3.0)))
    assert type(av) is tuple and [type(a) for a in av] == [float] * 3
    assert av[0] == 0.0
    M = ns.fundamental_matrix(es, av)
    assert type(M) is np.ndarray and M.shape == (3, 3) and M.dtype == float
    assert ns.joint_test(M).determinant == np.linalg.det(M)
    spec = ns.SystemSpec(es, [2, 0.5 - 1j, 0.5 + 1j])
    assert spec.coeffs == (2 + 0j, 0.5 - 1j, 0.5 + 1j)
    assert all(type(c) is complex for c in spec.coeffs)
    h = reference.markov_from_modes(spec)
    mc = ns.modes_from_markov(es, h)
    assert type(mc) is tuple and all(type(c) is complex for c in mc)


def test_joint_test_oscillator_pathological():
    # sampling the undamped oscillator at its half period makes the rows equal
    es = ns.eigenstructure([(1j, 1), (-1j, 1)])
    av = ns.alphas(ns.SamplingSequence((0.0, math.pi)))
    report = ns.joint_test(ns.fundamental_matrix(es, av))
    assert abs(report.determinant) < 1e-12
    assert not report.is_admissible
    assert report.sigma_min < 1e-12


def test_joint_test_oscillator_quarter_period():
    es = ns.eigenstructure([(1j, 1), (-1j, 1)])
    av = ns.alphas(ns.SamplingSequence((0.0, math.pi / 2)))
    report = ns.joint_test(ns.fundamental_matrix(es, av))
    assert report.determinant == pytest.approx(1.0)
    assert report.is_admissible
    assert report.condition_number == pytest.approx(1.0)


def test_verdict_flips_at_the_tolerance():
    # the verdict reads sigma_min / sigma_max of Phi with its rows scaled to
    # unit norm: admissible exactly above the tolerance, and blind to a
    # positive scale per row
    es = ns.eigenstructure([(0, 1), (-1, 1)])
    av = ns.alphas(ns.SamplingSequence((0.0, 1.0)))
    fm = ns.fundamental_matrix(es, av)
    sv = np.linalg.svd(fm / np.linalg.norm(fm, axis=1, keepdims=True), compute_uv=False)
    ratio = sv[-1] / sv[0]
    report = ns.joint_test(fm)
    assert (report.sigma_min, report.condition_number) == (sv[-1], sv[0] / sv[-1])
    assert report.determinant == np.linalg.det(fm)
    assert ns.joint_test(fm, tol=ratio).is_admissible is False
    assert ns.joint_test(fm, tol=np.nextafter(ratio, 0.0)).is_admissible is True
    scaled = ns.joint_test(fm * np.array([[2.0 ** 300], [2.0 ** -300]]))
    assert (scaled.sigma_min, scaled.condition_number) == (sv[-1], sv[0] / sv[-1])


def test_joint_test_matches_bruteforce_rank():
    # skip numerically borderline cases: the verdict and the rank test read
    # the sigma ratios of different matrices, which may fall on either side
    # of the tolerance right at the edge, which says nothing about either
    # implementation
    rng = np.random.default_rng(17)
    clear = 0
    for _ in range(60):
        n = int(rng.integers(1, 6))
        spec = random_minimal_spec(rng, n)
        seq = random_sequence(rng, n, with_final=True)
        av = ns.alphas(seq)
        report = ns.joint_test(ns.fundamental_matrix(spec.eigen, av))
        # the runtime's oracles, in the Jordan frame
        G = ns.bruteforce_controllability_matrix(spec, seq)
        O = ns.jordan_observability_matrix(spec, av)
        sg = np.linalg.svd(G, compute_uv=False)
        so = np.linalg.svd(O, compute_uv=False)
        phi_ratio = 1.0 / report.condition_number
        rank_ratio = min(sg[-1] / sg[0], so[-1] / so[0])
        if 1e-10 < phi_ratio < 1e-6 or 1e-10 < rank_ratio < 1e-6:
            continue
        full = not analysis.spectrum(np.stack([G, O]))[3].any()
        assert report.is_admissible == full
        clear += 1
    assert clear >= 40


# ---------------------------------------------------------------------------
# brute-force matrices

def test_bruteforce_rank_drop_oscillator():
    spec = ns.system_from_markov([(1j, 1), (-1j, 1)], [0.0, 1.0])
    seq = ns.SamplingSequence((0.0, math.pi), final_instant=2 * math.pi)
    G = ns.bruteforce_controllability_matrix(spec, seq)
    O = reference.bruteforce_observability_matrix(spec, ns.alphas(seq))
    O_J = ns.jordan_observability_matrix(spec, ns.alphas(seq))
    # 2 x 2, so deficient and nonzero is rank 1
    _, smax, _, deficient = analysis.spectrum(np.stack([G, O, O_J]))
    assert deficient.all() and (smax > 0).all()


def test_bruteforce_controllability_columns():
    # integrator chain roots {0, -1}: G_i = exp(A (t2 - t_i)) b = B G_J,i,
    # columns in reverse time order
    spec = ns.system_from_modes([(0, 1), (-1, 1)], [1.0, 1.0])
    real = observability_canonical(spec)
    seq = ns.SamplingSequence((0.0, 1.0), final_instant=2.0)
    jf = real.jordan
    G = jf.B @ ns.bruteforce_controllability_matrix(spec, seq)
    assert np.allclose(G[:, 0], expA(jf, 1.0) @ real.b)
    assert np.allclose(G[:, 1], expA(jf, 2.0) @ real.b)


def test_bruteforce_needs_final_instant():
    spec = ns.system_from_modes([(0, 1), (-1, 1)], [1.0, 1.0])
    with pytest.raises(ValueError):
        ns.bruteforce_controllability_matrix(spec, ns.SamplingSequence((0.0, 1.0)))


# ---------------------------------------------------------------------------
# degree of orthogonality

def test_degree_orthogonal_pair():
    spec = ns.system_from_markov([(1j, 1), (-1j, 1)], [0.0, 1.0])
    av = ns.alphas(ns.SamplingSequence((0.0, math.pi / 2)))
    deg = _degree(spec, av)
    assert deg.normalized_gram_det == pytest.approx(1.0)
    assert deg.min_principal_angle == pytest.approx(math.pi / 2)
    assert deg.condition_number == pytest.approx(1.0)


def test_degree_degrades_near_parallel():
    spec = ns.system_from_markov([(1j, 1), (-1j, 1)], [0.0, 1.0])
    near = _degree(spec, ns.alphas(ns.SamplingSequence((0.0, math.pi - 1e-4))))
    assert near.normalized_gram_det < 1e-7
    assert near.min_principal_angle < 1e-3


def test_degree_vectors_near_float_max():
    # entries near 1e304 are finite, but their squares are not
    Y = np.array([[1e304, 1.0], [1e304, 0.0]])
    dm = ns.analysis.degree_metrics_from_vectors(Y)
    assert dm.normalized_gram_det == pytest.approx(0.5)
    assert dm.min_principal_angle == pytest.approx(math.pi / 4)


def test_degree_vectors_past_two_to_the_1023():
    # the largest entry lies past 2**1023, whose next power of two overflows
    Y = np.array([[1.2e308, 1.0], [0.0, 1.0]])
    dm = ns.analysis.degree_metrics_from_vectors(Y)
    assert dm.normalized_gram_det == pytest.approx(0.5)
    assert dm.min_principal_angle == pytest.approx(math.pi / 4)


def test_degree_vectors_whose_norm_overflows():
    # every entry is finite, but the first column's 2-norm, 2.1e308, is not
    Y = np.array([[1.5e308, 1.0], [1.5e308, 0.0]])
    dm = ns.analysis.degree_metrics_from_vectors(Y)
    assert dm.normalized_gram_det == pytest.approx(0.5)
    assert dm.min_principal_angle == pytest.approx(math.pi / 4)


@pytest.mark.parametrize("column", [[math.inf, 1e200], [math.nan, 1e200], [0.0, 0.0]])
def test_degree_vectors_not_finite_or_zero(column):
    Y = np.column_stack([column, [1.0, 1.0]])
    with pytest.raises(DegenerateSamplingError, match="overflows a float or vanishes"):
        ns.analysis.degree_metrics_from_vectors(Y)


def test_stacked_helpers_give_each_matrix_its_own_bits():
    # the sweep runs joint_arrays and the helpers of degree_metrics_from_vectors
    # over stacks, and the rank rule of joint_test and solve_checked (spectrum
    # of the rows scaled to unit norm) holds over a stack too; analyze and
    # verify run them on one matrix
    rng = np.random.default_rng(31)
    seen = set()
    for n in (2, 5, 8, 10):
        spec = random_minimal_spec(rng, n)
        seqs = [random_sequence(rng, n) for _ in range(5)]
        if pathological_sequence(spec) is not None:
            seqs.append(pathological_sequence(spec))
        av = np.array([ns.alphas(seq) for seq in seqs])
        phi = ns.fundamental_matrix(spec.eigen, av)
        det = analysis.joint_arrays(phi)[0]
        smin, _, cond, singular = analysis.spectrum(analysis.unit_vectors(phi, axis=-1)[0])
        gram = analysis.unit_gram(analysis.sampled_mode_vectors(spec, av))[2]
        O = ns.jordan_observability_matrix(spec, av)
        deficient = analysis.spectrum(analysis.unit_vectors(O, axis=-1)[0])[3]
        seen.update(deficient.tolist())
        for p, seq in enumerate(seqs):
            a = ns.alphas(seq)
            single = ns.joint_test(ns.fundamental_matrix(spec.eigen, a))
            assert (det[p], smin[p], cond[p], not singular[p]) == (
                single.determinant, single.sigma_min, single.condition_number,
                single.is_admissible)
            assert gram[p] == _degree(spec, a).normalized_gram_det
            O = ns.jordan_observability_matrix(spec, a)
            try:
                simulate.solve_checked(O, np.ones(n), "O", axis=-1)
            except RankDeficientError:
                assert deficient[p]
            else:
                assert not deficient[p]
    assert seen == {False, True}


def test_degree_vectors_subnormal_column():
    # a column whose largest entry is subnormal carries a few bits at most
    tiny = np.finfo(float).tiny
    with pytest.raises(DegenerateSamplingError, match="overflows a float or vanishes"):
        ns.analysis.degree_metrics_from_vectors(np.array([[1.0, 6.9e-319], [1.0, 3.5e-323]]))
    # one at the smallest normal float still counts
    dm = ns.analysis.degree_metrics_from_vectors(np.array([[1.0, 0.0], [0.0, tiny]]))
    assert dm.normalized_gram_det == 1.0


def test_degree_requires_minimal():
    # analyze reports degree metrics only for a system whose highest-order
    # coefficient of each block clears MINIMALITY_TOL relative to the largest
    seq = ns.SamplingSequence((0.0, 1.0))
    for last, minimal in ((1e-10, False), (1e-8, True)):
        spec = ns.system_from_modes([(0, 1), (-1, 1)], [1.0, last])
        report = ns.analyze(spec, seq)
        assert report.is_admissible
        assert (report.degree is not None) == minimal


def test_degree_bounds():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        spec = random_minimal_spec(rng, n)
        seq = random_sequence(rng, n)
        deg = _degree(spec, ns.alphas(seq))
        assert 0.0 <= deg.normalized_gram_det <= 1.0
        assert 0.0 <= deg.min_principal_angle <= math.pi / 2 + 1e-12
        assert deg.condition_number >= 1.0


def test_gram_determinant_matches_sixty_digits():
    # det G of the unit Gram matrix G has entries and cofactors of at most 1
    # in size, so a few roundings per entry move it by O(n eps) absolutely
    rng = np.random.default_rng(26)
    eps = np.finfo(float).eps
    for i in range(40):
        n = 2 + i % 4
        spec = random_minimal_spec(rng, n)
        seq = random_sequence(rng, n)
        gram = ns.analyze(spec, seq).degree.normalized_gram_det
        exact = reference.unit_gram_determinant(spec, ns.alphas(seq))
        assert abs(gram - float(exact)) <= 4 * n * eps


def test_gram_determinant_keeps_its_relative_precision():
    # det(Yn)^2 errs relative to the Gram determinant by about n eps cond(Yn)
    # (det(Yn' Yn) erred by up to 1.7e6 times that on these draws)
    rng = np.random.default_rng(27)
    eps = np.finfo(float).eps
    for n in range(2, 10):
        for _ in range(20):
            spec = random_minimal_spec(rng, n)
            seq = random_sequence(rng, n)
            degree = ns.analyze(spec, seq).degree
            exact = float(reference.unit_gram_determinant(spec, ns.alphas(seq)))
            error = abs(degree.normalized_gram_det / exact - 1.0)
            assert error <= n * eps * degree.condition_number, (n, error)


def test_gram_determinant_keeps_its_relative_precision_at_order_nine():
    # a generic design at n = 9 (five real blocks, multiplicities up to 3),
    # where det(Yn' Yn), which squares the conditioning of Yn, was 2.2e-3 off
    # at a Gram determinant of 5.3e-40
    spec = ns.system_from_modes(
        [(-0.9803437502501748, 1), (-1.2829972425502163, 1), (0.5889881635954564, 3),
         (0.23622165722709854, 2), (-1.092343547751211, 2)],
        [1.2898331092936894, -0.7986129883032902, 0.5426198884343916,
         -0.5753885690052054, -1.1433476546774282, -1.2975649448687538,
         -1.7161987570223696, -1.7022457744213657, -1.7236391570696714])
    seq = ns.SamplingSequence((0.0, 2.0664516429805273, 4.193305281897885,
                               5.674857590829043, 6.704529992963918, 7.418207939324656,
                               7.961306532663316, 8.415053539180274, 8.631826000117774))
    gram = ns.analyze(spec, seq).degree.normalized_gram_det
    exact = reference.unit_gram_determinant(spec, ns.alphas(seq))
    assert abs(gram / float(exact) - 1.0) <= 1e-6


# ---------------------------------------------------------------------------
# factorization identities

def test_factorization_triple_root_N1():
    spec = ns.system_from_modes([(-1, 3)], [1.0, 0.5, 1.0])
    av = ns.alphas(ns.SamplingSequence((0.0, 0.7, 1.9)))
    fc = _factors(spec, av)
    assert fc.N1 == pytest.approx(0.5)  # 1/(0! 1! 2!)


def test_factorization_simple_roots_N2():
    # distinct real roots: the Hankel blocks are 1x1, so N2 is the product
    # of the modal coefficients
    spec = ns.system_from_modes([(0, 1), (-1, 1)], [2.0, 3.0])
    av = ns.alphas(ns.SamplingSequence((0.0, 1.0)))
    fc = _factors(spec, av)
    assert fc.N1 == 1.0
    assert fc.N2 == pytest.approx(6.0)
    assert fc.ratio_ctrl == pytest.approx(1.0, rel=1e-12)  # 4^p, p = 0


def test_factorization_ratios_alpha_independent():
    # the ratio is the exact constant 4^p, p the sum of the pair multiplicities
    rng = np.random.default_rng(23)
    for _ in range(10):
        n = int(rng.integers(2, 6))
        spec = random_minimal_spec(rng, n)
        p = sum(blk.multiplicity for blk in spec.eigen.blocks if blk.kind == "pair")
        ratios = [_factors(spec, ns.alphas(random_sequence(rng, n))).ratio_ctrl
                  for _ in range(4)]
        assert np.ptp(ratios) < 1e-8 * max(1.0, abs(ratios[0]))
        assert ratios == pytest.approx([4 ** p] * 4, rel=1e-6)


def test_factorization_ratio_is_free_of_the_coefficient_scale():
    # at 1e+-200 the coefficients' n-th powers, det Y and N2, leave the
    # float range; ratio_ctrl stays 4^p
    rng = np.random.default_rng(25)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        spec = random_minimal_spec(rng, n)
        p = sum(blk.multiplicity for blk in spec.eigen.blocks if blk.kind == "pair")
        av = ns.alphas(random_sequence(rng, n))
        for scale in (1e200, 1e-200):
            scaled = ns.system_from_modes([(rt.value, rt.multiplicity)
                                           for rt in spec.eigen.roots],
                                          [c * scale for c in spec.coeffs])
            fc = _factors(scaled, av)
            assert not 0.0 < abs(fc.N2) < math.inf
            assert fc.ratio_ctrl == pytest.approx(4 ** p, rel=1e-9)


def test_factorization_N2_is_the_hankel_determinant():
    # the closed form (-1)^{m(m-1)/2} C_m^m per root against numeric
    # determinants of the Hankel blocks, multiplicities up to 5 included
    rng = np.random.default_rng(24)
    specs = [random_minimal_spec(rng, int(rng.integers(1, 11))) for _ in range(30)]
    specs += [ns.system_from_modes([(-0.7, 4), (1.3, 1)], [0.3, -1.2, 0.8, 1.7, 0.9]),
              ns.system_from_modes([(0.4 + 1.9j, 5), (0.4 - 1.9j, 5)],
                                   [0.2 + 1j, -0.5, 0.3j, 1.1, 0.6 - 0.8j,
                                    0.2 - 1j, -0.5, -0.3j, 1.1, 0.6 + 0.8j])]
    for spec in specs:
        fc = _factors(spec, ns.alphas(random_sequence(rng, spec.n)))
        ref = reference.hankel_factor(spec)
        assert fc.N2 == pytest.approx(ref.real, rel=1e-12)
        assert abs(ref.imag) <= 1e-12 * abs(ref)


def test_factorization_requires_minimal():
    # a double root without its highest-order coefficient: the sequence is
    # admissible, yet analyze reports no factorization check
    spec = ns.system_from_modes([(-1, 2)], [5.0, 0.0])
    report = ns.analyze(spec, ns.SamplingSequence((0.0, 1.0)))
    assert report.is_admissible
    assert report.factors is None


# ---------------------------------------------------------------------------
# analyze

def test_analyze_full_report():
    spec = ns.system_from_markov([(1j, 1), (-1j, 1)], [0.0, 1.0])
    report = ns.analyze(spec, ns.SamplingSequence((0.0, math.pi / 2)))
    assert report.is_admissible
    assert report.degree is not None
    assert report.factors is not None
    assert report.degree.normalized_gram_det == pytest.approx(1.0)


def test_analyze_inadmissible_skips_factors():
    spec = ns.system_from_markov([(1j, 1), (-1j, 1)], [0.0, 1.0])
    report = ns.analyze(spec, pathological_sequence(spec))
    assert not report.is_admissible
    assert report.factors is None


def test_analyze_nonminimal_skips_degree():
    spec = ns.system_from_modes([(0, 1), (-1, 1)], [1.0, 0.0])
    report = ns.analyze(spec, ns.SamplingSequence((0.0, 1.0)))
    assert report.degree is None
    assert report.factors is None
