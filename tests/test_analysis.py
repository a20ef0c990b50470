import math

import numpy as np
import pytest

import nusample as ns
from nusample import analysis, simulate
from nusample.errors import DegenerateSamplingError, NonMinimalError, RankDeficientError
from conftest import pathological_sequence, random_minimal_spec, random_sequence
import reference
from reference import expA


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
    h = ns.markov_from_modes(spec)
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


def test_threshold_scales_with_rows():
    es = ns.eigenstructure([(0, 1), (-1, 1)])
    av = ns.alphas(ns.SamplingSequence((0.0, 1.0)))
    fm = ns.fundamental_matrix(es, av)
    expected = 1e-9 * np.prod(np.linalg.norm(fm, axis=1))
    assert ns.joint_test(fm).threshold == pytest.approx(expected)
    assert ns.joint_test(fm, tol_factor=1e-3).threshold == pytest.approx(1e6 * expected)


def test_joint_test_matches_bruteforce_rank():
    # skip numerically borderline cases: the determinant test and the
    # SVD rank test use different thresholds and may disagree right at
    # the edge, which says nothing about either implementation
    rng = np.random.default_rng(17)
    clear = 0
    for _ in range(60):
        n = int(rng.integers(1, 6))
        spec = random_minimal_spec(rng, n)
        seq = random_sequence(rng, n, with_final=True)
        av = ns.alphas(seq)
        report = ns.joint_test(ns.fundamental_matrix(spec.eigen, av))
        real = ns.observability_canonical(spec)
        G = ns.bruteforce_controllability_matrix(real, seq)
        O = ns.bruteforce_observability_matrix(real, av)
        sg = np.linalg.svd(G, compute_uv=False)
        so = np.linalg.svd(O, compute_uv=False)
        det_ratio = abs(report.determinant) / report.threshold
        rank_ratio = min(sg[-1] / sg[0], so[-1] / so[0])
        if 1e-2 < det_ratio < 1e2 or 1e-10 < rank_ratio < 1e-6:
            continue
        full = (ns.numerical_rank(G) == n) and (ns.numerical_rank(O) == n)
        assert report.is_admissible == full
        clear += 1
    assert clear >= 40


# ---------------------------------------------------------------------------
# brute-force matrices

def test_bruteforce_rank_drop_oscillator():
    spec = ns.system_from_markov([(1j, 1), (-1j, 1)], [0.0, 1.0])
    seq = ns.SamplingSequence((0.0, math.pi), final_instant=2 * math.pi)
    real = ns.observability_canonical(spec)
    G = ns.bruteforce_controllability_matrix(real, seq)
    O = ns.bruteforce_observability_matrix(real, ns.alphas(seq))
    assert ns.numerical_rank(G) == 1
    assert ns.numerical_rank(O) == 1


def test_bruteforce_controllability_columns():
    # integrator chain roots {0, -1}: G_i = exp(A (t2 - t_i)) b, columns in
    # reverse time order
    spec = ns.system_from_modes([(0, 1), (-1, 1)], [1.0, 1.0])
    real = ns.observability_canonical(spec)
    seq = ns.SamplingSequence((0.0, 1.0), final_instant=2.0)
    G = ns.bruteforce_controllability_matrix(real, seq)
    jf = ns.real_jordan(spec)
    assert np.allclose(G[:, 0], expA(jf, 1.0) @ real.b)
    assert np.allclose(G[:, 1], expA(jf, 2.0) @ real.b)


def test_bruteforce_needs_final_instant():
    spec = ns.system_from_modes([(0, 1), (-1, 1)], [1.0, 1.0])
    real = ns.observability_canonical(spec)
    with pytest.raises(ValueError):
        ns.bruteforce_controllability_matrix(real, ns.SamplingSequence((0.0, 1.0)))


# ---------------------------------------------------------------------------
# degree of orthogonality

def test_degree_orthogonal_pair():
    spec = ns.system_from_markov([(1j, 1), (-1j, 1)], [0.0, 1.0])
    av = ns.alphas(ns.SamplingSequence((0.0, math.pi / 2)))
    deg = ns.degree_metrics(spec, av)
    assert deg.normalized_gram_det == pytest.approx(1.0)
    assert deg.min_principal_angle == pytest.approx(math.pi / 2)
    assert deg.condition_number == pytest.approx(1.0)


def test_degree_degrades_near_parallel():
    spec = ns.system_from_markov([(1j, 1), (-1j, 1)], [0.0, 1.0])
    near = ns.degree_metrics(spec, ns.alphas(ns.SamplingSequence((0.0, math.pi - 1e-4))))
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
    # the sweep runs the helpers of joint_test, degree_metrics_from_vectors
    # and solve_checked over stacks; analyze and verify run them on one matrix
    rng = np.random.default_rng(31)
    seen = set()
    for n in (2, 5, 8, 10):
        spec = random_minimal_spec(rng, n)
        real = ns.observability_canonical(spec)
        seqs = [random_sequence(rng, n) for _ in range(5)]
        if pathological_sequence(spec) is not None:
            seqs.append(pathological_sequence(spec))
        av = np.array([ns.alphas(seq) for seq in seqs])
        det, threshold, smin, cond = analysis.joint_arrays(
            ns.fundamental_matrix(spec.eigen, av), 1e-9)
        gram = analysis.unit_gram(analysis.sampled_mode_vectors(spec, av))[2]
        deficient = simulate.rank_deficient(ns.bruteforce_observability_matrix(real, av))[0]
        seen.update(deficient.tolist())
        for p, seq in enumerate(seqs):
            a = ns.alphas(seq)
            single = ns.joint_test(ns.fundamental_matrix(spec.eigen, a))
            assert (det[p], threshold[p], smin[p], cond[p]) == (
                single.determinant, single.threshold, single.sigma_min,
                single.condition_number)
            assert gram[p] == ns.degree_metrics(spec, a).normalized_gram_det
            O = ns.bruteforce_observability_matrix(real, a)
            try:
                simulate.solve_checked(O, np.ones(n), "O")
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
    spec = ns.system_from_modes([(0, 1), (-1, 1)], [1.0, 0.0])
    with pytest.raises(NonMinimalError):
        ns.degree_metrics(spec, ns.alphas(ns.SamplingSequence((0.0, 1.0))))


def test_degree_bounds():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        spec = random_minimal_spec(rng, n)
        seq = random_sequence(rng, n)
        deg = ns.degree_metrics(spec, ns.alphas(seq))
        assert 0.0 <= deg.normalized_gram_det <= 1.0
        assert 0.0 <= deg.min_principal_angle <= math.pi / 2 + 1e-12
        assert deg.condition_number >= 1.0


# ---------------------------------------------------------------------------
# factorization identities

def test_factorization_triple_root_N1():
    spec = ns.system_from_modes([(-1, 3)], [1.0, 0.5, 1.0])
    av = ns.alphas(ns.SamplingSequence((0.0, 0.7, 1.9)))
    fc = ns.verify_factorizations(spec, av)
    assert fc.N1 == pytest.approx(0.5)  # 1/(0! 1! 2!)
    assert fc.M1 == pytest.approx(0.5)
    assert fc.M2 == 1.0


def test_factorization_simple_roots_N2():
    # distinct real roots: the Hankel blocks are 1x1, so N2 is the product
    # of the modal coefficients
    spec = ns.system_from_modes([(0, 1), (-1, 1)], [2.0, 3.0])
    av = ns.alphas(ns.SamplingSequence((0.0, 1.0)))
    fc = ns.verify_factorizations(spec, av)
    assert fc.N1 == 1.0
    assert fc.N2 == pytest.approx(6.0)
    assert fc.lhs_ctrl == pytest.approx(fc.rhs_ctrl, rel=1e-12)
    assert fc.lhs_obs == pytest.approx(fc.rhs_obs, rel=1e-12)


def test_factorization_ratios_alpha_independent():
    # the ratios are the exact constants (-1)^p and 4^p, p the sum of the
    # pair multiplicities: the output rows are Phi D^{-1}, N1 prod(D) = (-1)^p
    rng = np.random.default_rng(23)
    for _ in range(10):
        n = int(rng.integers(2, 6))
        spec = random_minimal_spec(rng, n)
        p = sum(blk.multiplicity for blk in spec.eigen.blocks if blk.kind == "pair")
        ratios_c, ratios_o = [], []
        for _ in range(4):
            seq = random_sequence(rng, n)
            fc = ns.verify_factorizations(spec, ns.alphas(seq))
            ratios_c.append(fc.ratio_ctrl)
            ratios_o.append(fc.ratio_obs)
        assert np.ptp(ratios_c) < 1e-8 * max(1.0, abs(ratios_c[0]))
        assert np.ptp(ratios_o) < 1e-8 * max(1.0, abs(ratios_o[0]))
        assert ratios_o == pytest.approx([(-1) ** p] * 4, rel=0.0, abs=1e-12)
        assert ratios_c == pytest.approx([4 ** p] * 4, rel=1e-6)


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
        fc = ns.verify_factorizations(spec, ns.alphas(random_sequence(rng, spec.n)))
        ref = reference.hankel_factor(spec)
        assert fc.N2 == pytest.approx(ref.real, rel=1e-12)
        assert abs(ref.imag) <= 1e-12 * abs(ref)


def test_factorization_requires_minimal():
    spec = ns.system_from_modes([(0, 1), (-1, 1)], [1.0, 0.0])
    with pytest.raises(NonMinimalError):
        ns.verify_factorizations(spec, ns.alphas(ns.SamplingSequence((0.0, 1.0))))


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
