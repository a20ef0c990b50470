"""Admissibility analysis of sampling sequences.

Builds the alpha vector (a tuple) and the basis matrix Phi (an array), decides
joint n-reachability / n-observability from its determinant, quantifies the
degree of orthogonality of the sampled mode vectors, verifies the determinant
factorization identities, and provides brute-force state-space matrices as
independent rank oracles; each matrix is one Jordan-flow call, built once.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from nusample.errors import DegenerateSamplingError, NonMinimalError
from nusample.lti import (
    EigenStructure,
    Realization,
    SystemSpec,
    check_minimality,
    checked_flow,
    evaluate_fundamental_basis,
    jordan_flow,
)

DEFAULT_ADMISSIBILITY_FACTOR = 1e-9  # |det| > factor * prod(row norms)
RANK_REL_TOL = 1e-8                  # sigma_min / sigma_max threshold for numerical rank


# ---------------------------------------------------------------------------
# sampling sequences

@dataclass(frozen=True)
class SamplingSequence:
    """Strictly increasing sampling instants, plus an optional final instant
    (needed only by the controllability-side simulation)."""

    instants: tuple[float, ...]
    final_instant: float | None = None

    def __post_init__(self):
        inst = tuple(float(t) for t in self.instants)
        object.__setattr__(self, "instants", inst)
        if not inst:
            raise DegenerateSamplingError("need at least one sampling instant")
        if not all(math.isfinite(t) for t in inst):
            raise DegenerateSamplingError("sampling instants must be finite")
        for a, b in zip(inst, inst[1:]):
            if not b > a:
                raise DegenerateSamplingError(f"instants must be strictly increasing "
                                              f"({a} !< {b})")
        if self.final_instant is not None:
            tf = float(self.final_instant)
            object.__setattr__(self, "final_instant", tf)
            if not tf > inst[-1]:
                raise DegenerateSamplingError("final instant must exceed the last "
                                              "sampling instant")

    def shifted(self, dt: float) -> "SamplingSequence":
        tf = None if self.final_instant is None else self.final_instant + dt
        return SamplingSequence(tuple(t + dt for t in self.instants), tf)


def alphas(seq: SamplingSequence) -> tuple[float, ...]:
    """(alpha_0, ..., alpha_{n-1}) with alpha_m = t_{n-1} - t_{n-m-1}, so
    alpha_0 = 0: instants enter only through differences."""
    t = seq.instants
    return tuple(t[-1] - ti for ti in reversed(t))


# ---------------------------------------------------------------------------
# fundamental matrix and joint test

def fundamental_matrix(es: EigenStructure, av: tuple[float, ...]) -> np.ndarray:
    """The n x n basis matrix Phi = [phi_i(alpha_m)], one row per alpha."""
    if len(av) != es.n:
        raise ValueError(f"alpha vector has {len(av)} entries, system order is {es.n}")
    return evaluate_fundamental_basis(es, av)


@dataclass(frozen=True)
class DegreeMetrics:
    normalized_gram_det: float
    min_principal_angle: float
    condition_number: float


@dataclass(frozen=True, eq=False)
class FactorizationCheck:
    lhs_ctrl: float
    rhs_ctrl: float
    lhs_obs: float
    rhs_obs: float
    N1: float
    N2: float
    M1: float
    M2: float
    det_phi: float
    ratio_ctrl: float
    ratio_obs: float


@dataclass(frozen=True, eq=False)
class AnalysisReport:
    determinant: float
    is_admissible: bool
    sigma_min: float
    condition_number: float
    threshold: float
    degree: DegreeMetrics | None = None
    factors: FactorizationCheck | None = None


def joint_test(M: np.ndarray,
               tol_factor: float = DEFAULT_ADMISSIBILITY_FACTOR) -> AnalysisReport:
    """Joint n-reachability and n-observability verdict from det[phi_i(alpha_m)],
    given the basis matrix M that ``fundamental_matrix`` builds.

    The admissibility threshold is Hadamard-scaled: |det| must exceed
    tol_factor times the product of the row norms.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        det = float(np.linalg.det(M))
        threshold = tol_factor * float(np.prod(_norms(M, axis=1)))
    if not (math.isfinite(det) and math.isfinite(threshold)):
        raise DegenerateSamplingError(
            "the determinant of the basis matrix or its threshold overflows a "
            f"float (largest |entry| = {np.max(np.abs(M)):.6g}); shorten the "
            "sampling intervals")
    svals = np.linalg.svd(M, compute_uv=False)
    smin, smax = float(svals[-1]), float(svals[0])
    cond = math.inf if smin == 0.0 else smax / smin
    return AnalysisReport(det, abs(det) > threshold, smin, cond, threshold)


# ---------------------------------------------------------------------------
# degree of orthogonality

def sampled_mode_vectors(spec: SystemSpec, av: tuple[float, ...]) -> np.ndarray:
    """Columns Y_i = exp(J alpha_i) y0 in the real Jordan frame, where y0 is
    the real-basis modal coefficient vector.  An overflowing mode gives inf
    or nan entries, which ``degree_metrics_from_vectors`` rejects."""
    with np.errstate(over="ignore", invalid="ignore"):
        return jordan_flow(spec.eigen, spec.real_mode_vector, av).T


def _pow2_scale(M: np.ndarray, axis: int) -> np.ndarray:
    """The power of two at or just below the largest |entry| of each vector
    along ``axis`` (keeping that axis): dividing by it is exact, and the
    quotient's 2-norm cannot overflow.  The power just above would overflow
    for entries past 2**1023."""
    return np.ldexp(1.0, np.frexp(np.max(np.abs(M), axis=axis, keepdims=True))[1] - 1)


def _norms(M: np.ndarray, axis: int) -> np.ndarray:
    """2-norms along ``axis`` that overflow only where the norm itself does."""
    scale = _pow2_scale(M, axis)
    return np.linalg.norm(M / scale, axis=axis) * np.squeeze(scale, axis)


def degree_metrics_from_vectors(Y: np.ndarray) -> DegreeMetrics:
    """Degree metrics of the columns of Y, each normalized in one pass: divided
    by its power-of-two scale, then by the norm of the scaled column.  A
    column whose largest |entry| is below the smallest normal float carries
    too few bits for any metric, so it is rejected like a zero one."""
    with np.errstate(over="ignore", invalid="ignore"):
        Ys = Y / _pow2_scale(Y, axis=0)
        norms = np.linalg.norm(Ys, axis=0)
    normal = np.max(np.abs(Y), axis=0) >= np.finfo(float).tiny
    if not (np.isfinite(norms).all() and normal.all()):
        raise DegenerateSamplingError("a sampled mode vector overflows a float or "
                                      "vanishes; shorten the sampling intervals")
    Yn = Ys / norms
    G = Yn.T @ Yn
    gram = float(np.clip(np.linalg.det(G), 0.0, 1.0))
    k = Y.shape[1]
    if k < 2:
        min_angle = math.pi / 2  # single vector: orthogonality is vacuous
    else:
        min_angle = min(math.acos(min(1.0, abs(G[i, j])))
                        for i in range(k) for j in range(i + 1, k))
    svals = np.linalg.svd(Yn, compute_uv=False)
    cond = math.inf if svals[-1] == 0.0 else float(svals[0] / svals[-1])
    return DegreeMetrics(gram, min_angle, cond)


def degree_metrics(spec: SystemSpec, av: tuple[float, ...]) -> DegreeMetrics:
    report = check_minimality(spec)
    if not report.minimal:
        raise NonMinimalError(f"degree metrics need a minimal system; "
                              f"offending blocks {report.offending_blocks}")
    return degree_metrics_from_vectors(sampled_mode_vectors(spec, av))


# ---------------------------------------------------------------------------
# brute-force state-space oracles

def bruteforce_controllability_matrix(real: Realization,
                                      seq: SamplingSequence) -> np.ndarray:
    """[G_{n-1}, ..., G_0] with G_i = exp(A (t_n - t_i)) b = B exp(J (t_n - t_i)) y0."""
    if seq.final_instant is None:
        raise ValueError("the controllability matrix needs the final instant t_n")
    n = real.n
    if len(seq.instants) != n:
        raise ValueError(f"need {n} sampling instants, got {len(seq.instants)}")
    jf = real.jordan
    dts = seq.final_instant - np.asarray(seq.instants[::-1])
    return checked_flow(jf.es, jf.y0, dts, jf.B.T).T


def bruteforce_observability_matrix(real: Realization, av: tuple[float, ...]) -> np.ndarray:
    """Rows c exp(A alpha_m) = (c B) exp(J alpha_m) B^{-1}."""
    jf = real.jordan
    return _output_rows(jf.es, real.c @ jf.B, av, jf.B_inv)


def _output_rows(es: EigenStructure, r: np.ndarray, alphas, right: np.ndarray) -> np.ndarray:
    """Rows r exp(J alpha) right, by the flow of J' = S J S:
    r exp(J alpha) = (exp(J alpha) S r)' S."""
    S = es._swap_reversal
    return checked_flow(es, S @ r, alphas, S @ right)


def numerical_rank(M: np.ndarray) -> int:
    svals = np.linalg.svd(M, compute_uv=False)
    if svals[0] == 0.0:
        return 0
    return int(np.sum(svals > RANK_REL_TOL * svals[0]))


# ---------------------------------------------------------------------------
# factorization identities

def _factorial_factor(es: EigenStructure) -> float:
    f = 1.0
    for rt in es.roots:
        for k in range(rt.multiplicity):
            f /= math.factorial(k)
    return f


def _block_hankel_det(coeffs) -> complex:
    """Determinant of the anti-triangular Hankel matrix with first row
    (C_1, ..., C_m) and zeros below the anti-diagonal."""
    m = len(coeffs)
    H = np.zeros((m, m), dtype=complex)
    for i in range(m):
        for k in range(m):
            if i + k < m:
                H[i, k] = coeffs[i + k]
    return complex(np.linalg.det(H))


def verify_factorizations(spec: SystemSpec, av: tuple[float, ...]) -> FactorizationCheck:
    """Check the two determinant factorizations in the real Jordan frame.

    Because the artifact works in the real fundamental basis, each identity
    holds up to a fixed nonzero constant depending only on the system;
    ratio_ctrl and ratio_obs report those constants, and they must be
    independent of the alpha vector.
    """
    report = check_minimality(spec)
    if not report.minimal:
        raise NonMinimalError("factorization identities are vacuous for "
                              f"non-minimal systems (blocks {report.offending_blocks})")
    det_phi = float(np.linalg.det(fundamental_matrix(spec.eigen, av)))
    return _factorizations(spec, av, det_phi, sampled_mode_vectors(spec, av))


def _factorizations(spec: SystemSpec, av: tuple[float, ...], det_phi: float,
                    Y: np.ndarray) -> FactorizationCheck:
    """verify_factorizations from det(Phi) and the mode vectors Y of ``av``."""
    es = spec.eigen
    lhs_ctrl = float(np.linalg.det(Y))

    leading = np.zeros(es.n)  # output row in the Jordan frame: 1 in each block's first cell
    for blk in es.blocks:
        blk.cells(leading)[0] = 1.0
    lhs_obs = float(np.linalg.det(_output_rows(es, leading, av, np.eye(es.n))))

    N1 = _factorial_factor(es)
    n2 = 1.0 + 0j
    c = np.asarray(spec.coeffs)
    for i in range(es.r):
        sl = es.root_slices[i]
        n2 *= _block_hankel_det(c[sl])
    if abs(n2.imag) > 1e-9 * max(1.0, abs(n2)):
        raise ArithmeticError("N2 is not real (broken conjugate structure)")
    N2 = float(n2.real)
    M1 = N1
    M2 = 1.0  # product of identity blocks

    rhs_ctrl = N1 * N2 * det_phi
    rhs_obs = M1 * M2 * det_phi
    ratio_ctrl = lhs_ctrl / rhs_ctrl if rhs_ctrl != 0.0 else math.inf
    ratio_obs = lhs_obs / rhs_obs if rhs_obs != 0.0 else math.inf
    return FactorizationCheck(lhs_ctrl, rhs_ctrl, lhs_obs, rhs_obs,
                              N1, N2, M1, M2, det_phi, ratio_ctrl, ratio_obs)


# ---------------------------------------------------------------------------
# one-call analysis

def analyze(spec: SystemSpec, seq: SamplingSequence,
            tol_factor: float = DEFAULT_ADMISSIBILITY_FACTOR) -> AnalysisReport:
    """Joint test, plus degree metrics for a minimal system and factorization
    factors for a minimal system with an admissible sequence."""
    av = alphas(seq)
    base = joint_test(fundamental_matrix(spec.eigen, av), tol_factor)
    degree = None
    factors = None
    if check_minimality(spec).minimal:
        Y = sampled_mode_vectors(spec, av)
        degree = degree_metrics_from_vectors(Y)
        if base.is_admissible:
            factors = _factorizations(spec, av, base.determinant, Y)
    return AnalysisReport(base.determinant, base.is_admissible, base.sigma_min,
                          base.condition_number, base.threshold, degree, factors)
