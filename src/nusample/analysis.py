"""Admissibility analysis of sampling sequences.

Builds the alpha vector (a tuple) and the basis matrix Phi (an array), decides
joint n-reachability / n-observability from its determinant, quantifies the
degree of orthogonality of the sampled mode vectors, verifies the determinant
factorization identities, and builds the state-space matrices O and G as rank
oracles.  Each matrix is one Jordan-flow call, built once.  O and the
observability side of the factorization are Phi times constants of the
system, so ``analyze`` makes two flow calls: Phi and the mode vectors.  The
independent routes (per-alpha matrix exponentials, the swap-reversal
permutation, numeric Hankel determinants) live in ``tests/reference.py``.
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


def alphas(seq: SamplingSequence) -> tuple[float, ...]:
    """(alpha_0, ..., alpha_{n-1}) with alpha_m = t_{n-1} - t_{n-m-1}, so
    alpha_0 = 0: instants enter only through differences."""
    t = seq.instants
    return tuple(t[-1] - ti for ti in reversed(t))


# ---------------------------------------------------------------------------
# fundamental matrix and joint test

def fundamental_matrix(es: EigenStructure, av) -> np.ndarray:
    """The n x n basis matrix Phi = [phi_i(alpha_m)], one row per alpha; a
    stack of them, shape (..., n, n), for alpha vectors stacked as (..., n)."""
    av = np.asarray(av, dtype=float)
    if av.shape[-1] != es.n:
        raise ValueError(f"alpha vector has {av.shape[-1]} entries, system order is {es.n}")
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
    det, threshold, smin, cond = joint_arrays(M, tol_factor)
    return AnalysisReport(float(det), bool(abs(det) > threshold), float(smin), float(cond),
                          float(threshold))


def joint_arrays(M: np.ndarray, tol_factor: float):
    """(det, Hadamard threshold, sigma_min, condition number) of each n x n
    matrix of the stack M, shape (..., n, n), as arrays of shape (...);
    raises DegenerateSamplingError for the first matrix whose determinant or
    threshold overflows a float."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        det = np.linalg.det(M)
        threshold = tol_factor * np.prod(_norms(M, axis=-1), axis=-1)
        finite = np.isfinite(det) & np.isfinite(threshold)
        if not finite.all():
            raise DegenerateSamplingError(
                "the determinant of the basis matrix or its threshold overflows a "
                f"float (largest |entry| = {np.max(np.abs(M[~finite][0])):.6g}); "
                "shorten the sampling intervals")
        svals = np.linalg.svd(M, compute_uv=False)
        smin, smax = svals[..., -1], svals[..., 0]
        return det, threshold, smin, np.where(smin == 0.0, math.inf, smax / smin)


# ---------------------------------------------------------------------------
# degree of orthogonality

def sampled_mode_vectors(spec: SystemSpec, av) -> np.ndarray:
    """Columns Y_i = exp(J alpha_i) y0 in the real Jordan frame, where y0 is
    the real-basis modal coefficient vector; a stack of such matrices for
    alpha vectors stacked as (..., n).  An overflowing mode gives inf or nan
    entries, which ``unit_gram`` rejects."""
    with np.errstate(over="ignore", invalid="ignore"):
        return np.swapaxes(jordan_flow(spec.eigen, spec.real_mode_vector, av), -1, -2)


def _pow2_scale(peak: np.ndarray) -> np.ndarray:
    """The power of two at or just below each ``peak``, the largest |entry|
    of a vector: dividing the vector by it is exact, and the quotient's
    2-norm cannot overflow.  The power just above would overflow for entries
    past 2**1023."""
    return np.ldexp(1.0, np.frexp(peak)[1] - 1)


def _norms(M: np.ndarray, axis: int) -> np.ndarray:
    """2-norms along ``axis`` that overflow only where the norm itself does."""
    scale = _pow2_scale(np.max(np.abs(M), axis=axis, keepdims=True))
    return np.linalg.norm(M / scale, axis=axis) * np.squeeze(scale, axis)


_TINY = np.finfo(float).tiny


def unit_vectors(Y: np.ndarray, axis: int):
    """(Yn, usable): each vector of Y along ``axis`` divided by its
    power-of-two scale, then by the norm of the scaled vector, and whether it
    is usable (keeping that axis).  A vector with an entry that is not a
    finite float is not, nor is one whose largest |entry| is zero or below
    the smallest normal float: it carries too few bits for any metric.  An
    unusable vector is zero in Yn."""
    peak = np.abs(Y).max(axis=axis, keepdims=True)
    with np.errstate(over="ignore", invalid="ignore"):
        Ys = Y / _pow2_scale(peak)
        norms = np.linalg.norm(Ys, axis=axis, keepdims=True)
    usable = np.isfinite(norms) & (peak >= _TINY)
    return np.divide(Ys, norms, out=np.zeros_like(Ys), where=usable), usable


def unit_gram(Y: np.ndarray):
    """(Yn, G, det G clipped to [0, 1]) for each matrix of the stack Y, shape
    (..., n, k): its columns normalized by ``unit_vectors`` and their Gram
    matrix.  An unusable column raises DegenerateSamplingError."""
    Yn, usable = unit_vectors(Y, axis=-2)
    if not usable.all():
        raise DegenerateSamplingError("a sampled mode vector overflows a float or "
                                      "vanishes; shorten the sampling intervals")
    G = np.swapaxes(Yn, -1, -2) @ Yn
    return Yn, G, np.clip(np.linalg.det(G), 0.0, 1.0)


def degree_metrics_from_vectors(Y: np.ndarray) -> DegreeMetrics:
    """Degree metrics of the columns of Y, normalized by ``unit_gram``."""
    Yn, G, gram = unit_gram(Y)
    k = Y.shape[1]
    if k < 2:
        min_angle = math.pi / 2  # single vector: orthogonality is vacuous
    else:
        min_angle = min(math.acos(min(1.0, abs(G[i, j])))
                        for i in range(k) for j in range(i + 1, k))
    svals = np.linalg.svd(Yn, compute_uv=False)
    cond = math.inf if svals[-1] == 0.0 else float(svals[0] / svals[-1])
    return DegreeMetrics(float(gram), min_angle, cond)


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
    """Rows c exp(A alpha_m) = (c B) exp(J alpha_m) B^{-1} = Phi D^{-1} B^{-1},
    with D the Wronskian scale.  The second equality needs the
    observability-canonical form, the only one the package builds: c = e_1,
    so c B is a one in each block's first cell, whose flow is phi(alpha)
    D^{-1}.  R / D is a signed permutation, entries +-1 exactly."""
    jf = real.jordan
    d, R = jf.es._basis_seed
    return checked_flow(jf.es, d, av, (R / jf.es._wronskian_scale) @ jf.B_inv)


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


def verify_factorizations(spec: SystemSpec, av: tuple[float, ...]) -> FactorizationCheck:
    """Check the two determinant factorizations in the real Jordan frame.

    Because the artifact works in the real fundamental basis, each identity
    holds up to a fixed nonzero constant depending only on the system;
    ratio_ctrl and ratio_obs report those constants, and they must be
    independent of the alpha vector.  With p the sum of the pair
    multiplicities, ratio_obs is (-1)^p: the output rows are Phi D^{-1}, and
    N1 prod(D) = (-1)^p.  ratio_ctrl is 4^p.
    """
    report = check_minimality(spec)
    if not report.minimal:
        raise NonMinimalError("factorization identities are vacuous for "
                              f"non-minimal systems (blocks {report.offending_blocks})")
    phi = fundamental_matrix(spec.eigen, av)
    return _factorizations(spec, phi, float(np.linalg.det(phi)), sampled_mode_vectors(spec, av))


def _factorizations(spec: SystemSpec, phi: np.ndarray, det_phi: float,
                    Y: np.ndarray) -> FactorizationCheck:
    """verify_factorizations from the basis matrix Phi, its determinant and
    the mode vectors Y of the same alphas."""
    es = spec.eigen
    lhs_ctrl = float(np.linalg.det(Y))
    # the Jordan-frame output rows, a one in each block's first cell, flow
    # to Phi D^{-1} (see bruteforce_observability_matrix)
    lhs_obs = float(np.linalg.det(phi / es._wronskian_scale))

    N1 = _factorial_factor(es)
    # each root's anti-triangular Hankel block of (C_1, ..., C_m) has
    # determinant (-1)^{m(m-1)/2} C_m^m
    n2 = 1.0 + 0j
    for rt, sl in zip(es.roots, es.root_slices):
        m = rt.multiplicity
        n2 *= (-1) ** (m * (m - 1) // 2) * spec.coeffs[sl.stop - 1] ** m
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
    phi = fundamental_matrix(spec.eigen, av)
    base = joint_test(phi, tol_factor)
    degree = None
    factors = None
    if check_minimality(spec).minimal:
        Y = sampled_mode_vectors(spec, av)
        degree = degree_metrics_from_vectors(Y)
        if base.is_admissible:
            factors = _factorizations(spec, phi, base.determinant, Y)
    return AnalysisReport(base.determinant, base.is_admissible, base.sigma_min,
                          base.condition_number, base.threshold, degree, factors)
