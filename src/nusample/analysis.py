"""Admissibility analysis of sampling sequences.

Builds the alpha vector (a tuple) and the basis matrix Phi (an array), decides
joint n-reachability / n-observability from Phi with its rows scaled to unit
norm, quantifies the degree of orthogonality of the sampled mode vectors,
checks the controllability-side determinant factorization, and builds the
state-space matrices G and O as rank oracles.  Each matrix is one
Jordan-flow call, built once, from the constants of the system's
observability-canonical realization: G_J and O_J in its real Jordan frame
from y0 of the spec and Phi's seed and D of the eigenstructure, and the
companion frame's O = O_J B^{-1}, the one reader of B^{-1}, for ``sweep``'s
noise column.  ``analyze`` makes two flow calls: Phi and the mode vectors.
Every vector norm and unit vector, the verdict's unit rows of Phi and the
degree metrics' unit mode vectors among them, comes from ``unit_vectors``,
the one code that scales vectors.  Every normalized Gram determinant
(``analyze``'s, ``sweep``'s and every score of the design search) comes from
``unit_gram``, which reads it from a factor of the unit mode vectors.  Every
singular value, condition number and numerical-rank decision comes from
``spectrum``, the one rank rule.  Every verdict is that rule, at one
tolerance (RANK_REL_TOL unless ``analyze`` is given another), on a matrix
whose vectors are scaled to unit norm: the rows of Phi (``joint_test``),
the unit mode vectors (``DegreeMetrics.deficient``, the verdict of
``design``) and the columns of G_J or rows of O_J that ``simulate`` solves
against.  The factorization ratio takes one path, free of the scale of the
modal coefficients: N1 is read from the Wronskian scale D, and N2 is carried
as a mantissa and a power of two, so neither side of the identity leaves the
float range on the way to the ratio.  The independent routes (per-alpha matrix
exponentials, the swap-reversal permutation, numeric Hankel determinants,
the observability identity on the companion form's expm rows) live in
``tests/reference.py`` and the tests.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from nusample.errors import DegenerateSamplingError
from nusample.lti import (
    EigenStructure,
    SystemSpec,
    check_minimality,
    checked_flow,
    evaluate_fundamental_basis,
    jordan_flow,
)

RANK_REL_TOL = 1e-8  # the default sigma_min / sigma_max at or below which a matrix is deficient


# ---------------------------------------------------------------------------
# sampling sequences

@dataclass(frozen=True)
class SamplingSequence:
    """Strictly increasing finite sampling instants, plus an optional finite
    final instant (needed only by the controllability-side simulation), whose
    span from the first instant to the last one a float holds."""

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
        last = inst[-1]
        if self.final_instant is not None:
            last = float(self.final_instant)
            object.__setattr__(self, "final_instant", last)
            if not math.isfinite(last):
                raise DegenerateSamplingError("final instant must be finite")
            if not last > inst[-1]:
                raise DegenerateSamplingError("final instant must exceed the last "
                                              "sampling instant")
        if not math.isfinite(last - inst[0]):
            raise DegenerateSamplingError(f"the span from t = {inst[0]:.6g} to t = "
                                          f"{last:.6g} overflows a float")


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
    deficient: bool  # the unit mode vectors fail ``spectrum``'s rank rule


@dataclass(frozen=True, eq=False)
class FactorizationCheck:
    N1: float
    N2: float
    ratio_ctrl: float


@dataclass(frozen=True, eq=False)
class AnalysisReport:
    determinant: float
    is_admissible: bool
    sigma_min: float
    condition_number: float
    degree: DegreeMetrics | None = None
    factors: FactorizationCheck | None = None


def joint_test(M: np.ndarray, tol: float = RANK_REL_TOL) -> AnalysisReport:
    """Joint n-reachability and n-observability verdict for the basis matrix
    M that ``fundamental_matrix`` builds: its determinant, and the verdict,
    sigma_min and condition number that ``spectrum`` reads, at ``tol``, from
    M with its rows scaled to unit norm by ``unit_vectors``.  A determinant
    that overflows a float raises DegenerateSamplingError."""
    det = _checked_det(M)
    smin, _, cond, deficient = spectrum(unit_vectors(M, axis=-1)[0], tol)
    return AnalysisReport(float(det), not deficient, float(smin), float(cond))


def _checked_det(M: np.ndarray) -> np.ndarray:
    """The determinant of each matrix of the stack M; raises
    DegenerateSamplingError for the first matrix where it overflows."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        det = np.linalg.det(M)
    finite = np.isfinite(det)
    if not finite.all():
        raise DegenerateSamplingError(
            "the determinant of the basis matrix overflows a float "
            f"(largest |entry| = {np.max(np.abs(M[~finite][0])):.6g}); shorten the "
            "sampling intervals")
    return det


def joint_arrays(M: np.ndarray):
    """(det, sigma_min, condition number) of each n x n matrix of the stack
    M, shape (..., n, n), as arrays of shape (...); raises
    DegenerateSamplingError for the first matrix whose determinant overflows
    a float."""
    det = _checked_det(M)
    smin, _, cond, _ = spectrum(M)
    return det, smin, cond


def spectrum(M: np.ndarray, tol: float = RANK_REL_TOL):
    """(sigma_min, sigma_max, condition number, deficient) of each matrix of
    the stack M, shape (..., n, k), as arrays of shape (...): the condition
    number is inf where sigma_min is zero, and a matrix is deficient where
    sigma_max is zero or sigma_min / sigma_max is at most ``tol``.  The one
    rank rule of the package."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        svals = np.linalg.svd(M, compute_uv=False)
        smin, smax = svals[..., -1], svals[..., 0]
        cond = np.where(smin == 0.0, math.inf, smax / smin)
        return smin, smax, cond, (smax == 0.0) | (smin / smax <= tol)


# ---------------------------------------------------------------------------
# degree of orthogonality

def sampled_mode_vectors(spec: SystemSpec, av) -> np.ndarray:
    """Columns Y_i = exp(J alpha_i) y0 in the real Jordan frame, where y0 is
    the real-basis modal coefficient vector; a stack of such matrices for
    alpha vectors stacked as (..., n).  An overflowing mode gives inf or nan
    entries, which ``unit_gram`` marks unusable."""
    return np.swapaxes(jordan_flow(spec.eigen, spec.real_mode_vector, av), -1, -2)


def _pow2_scale(peak: np.ndarray) -> np.ndarray:
    """The power of two at or just below each ``peak``, the largest |entry|
    of a vector: dividing the vector by it is exact, and the quotient's
    2-norm cannot overflow.  The power just above would overflow for entries
    past 2**1023."""
    return np.ldexp(1.0, np.frexp(peak)[1] - 1)


_TINY = np.finfo(float).tiny
# Within these plain 2-norms no square of an entry overflows, and any that
# underflows lies far below the last place of the sum, so Y / norm is the
# quotient of first dividing by a power of two, and the norm is the scaled
# norm times that power; only outside them does a call pay for the scaling.
_PLAIN_NORMS = (2.0 ** -460, 2.0 ** 460)


def unit_vectors(Y: np.ndarray, axis: int):
    """(Yn, usable, norms): each vector of Y along ``axis`` divided by its
    power-of-two scale, then by the norm of the scaled vector; whether it is
    usable (keeping that axis); and its 2-norm (dropping that axis), which
    overflows only where the norm itself does.  A vector with an entry that
    is not a finite float is not usable, nor is one whose largest |entry| is
    zero or below the smallest normal float: it carries too few bits for any
    metric.  An unusable vector is zero in Yn."""
    with np.errstate(over="ignore", invalid="ignore"):
        norms = np.linalg.norm(Y, axis=axis, keepdims=True)
        lo, hi = _PLAIN_NORMS
        if ((norms >= lo) & (norms <= hi)).all():
            return Y / norms, np.ones(norms.shape, bool), np.squeeze(norms, axis)
        peak = np.abs(Y).max(axis=axis, keepdims=True)
        scale = _pow2_scale(peak)
        Ys = Y / scale
        scaled = np.linalg.norm(Ys, axis=axis, keepdims=True)
        usable = np.isfinite(scaled) & (peak >= _TINY)
        Yn = np.divide(Ys, scaled, out=np.zeros_like(Ys), where=usable)
        return Yn, usable, np.squeeze(scaled * scale, axis)


def unit_gram(Y: np.ndarray):
    """(Yn, usable, gram) for each matrix of the stack Y, shape (..., n, k):
    its columns normalized by ``unit_vectors``, whether all of them are
    usable, and their normalized Gram determinant det(Yn' Yn), at most 1.
    The one Gram determinant of the package.  It is read from a factor of
    Yn, never from Yn' Yn, whose condition number is that of Yn squared:
    det(Yn)^2 where Yn is square, else the product of the squared diagonal
    of R, where Yn = QR.  An unusable column is zero in Yn, so its gram is
    0."""
    Yn, usable, _ = unit_vectors(Y, axis=-2)
    if Y.shape[-2] == Y.shape[-1]:
        gram = np.linalg.det(Yn) ** 2
    else:
        gram = np.prod(np.diagonal(np.linalg.qr(Yn, mode="r"), 0, -2, -1) ** 2, axis=-1)
    return Yn, usable.all(axis=(-2, -1)), np.minimum(gram, 1.0)


def checked_gram(Y: np.ndarray):
    """(Yn, gram) of ``unit_gram``; an unusable column raises
    DegenerateSamplingError."""
    Yn, usable, gram = unit_gram(Y)
    if not usable.all():
        raise DegenerateSamplingError("a sampled mode vector overflows a float or "
                                      "vanishes; shorten the sampling intervals")
    return Yn, gram


def degree_metrics_from_vectors(Y: np.ndarray) -> DegreeMetrics:
    """Degree metrics of the columns of Y, normalized by ``checked_gram``."""
    Yn, gram = checked_gram(Y)
    G = Yn.T @ Yn
    k = Y.shape[1]
    # a single vector's orthogonality is vacuous
    min_angle = min((math.acos(min(1.0, abs(G[i, j]))) for i in range(k)
                     for j in range(i + 1, k)), default=math.pi / 2)
    _, _, cond, deficient = spectrum(Yn)
    return DegreeMetrics(float(gram), min_angle, float(cond), bool(deficient))


# ---------------------------------------------------------------------------
# brute-force state-space oracles

def reach_intervals(spec: SystemSpec, seq: SamplingSequence) -> np.ndarray:
    """t_n - t_i for i = n-1 .. 0, the intervals of the controllability
    matrix's columns; raises ValueError without a final instant or without
    one instant per state."""
    if seq.final_instant is None:
        raise ValueError("the controllability matrix needs the final instant t_n")
    if len(seq.instants) != spec.n:
        raise ValueError(f"need {spec.n} sampling instants, got {len(seq.instants)}")
    return seq.final_instant - np.asarray(seq.instants[::-1])


def bruteforce_controllability_matrix(spec: SystemSpec,
                                      seq: SamplingSequence) -> np.ndarray:
    """G_J = [G_{n-1}, ..., G_0] in the Jordan frame, G_i = exp(J (t_n - t_i))
    y0; the companion frame's G_i = exp(A (t_n - t_i)) b is B G_i."""
    return checked_flow(spec.eigen, spec.y0, reach_intervals(spec, seq)).T


def jordan_observability_matrix(spec: SystemSpec, av: tuple[float, ...]) -> np.ndarray:
    """O_J = [(c B) exp(J alpha_m)] = Phi D^{-1} in the Jordan frame, with D
    the Wronskian scale.  The equality needs the observability-canonical
    form, the only one the package works in: c = e_1, so c B is a one in
    each block's first cell, whose flow is phi(alpha) D^{-1}.  R / D is a
    signed permutation, entries +-1 exactly."""
    es = spec.eigen
    d, R = es._basis_seed
    return checked_flow(es, d, av, R / es._wronskian_scale)


def bruteforce_observability_matrix(spec: SystemSpec, av: tuple[float, ...]) -> np.ndarray:
    """Rows c exp(A alpha_m) = O_J B^{-1} in the companion frame, the frame of
    ``sweep``'s noise column: one flow of Phi's seed through
    (R / D) B^{-1}."""
    es = spec.eigen
    d, R = es._basis_seed
    return checked_flow(es, d, av, (R / es._wronskian_scale) @ es.B_inv)


# ---------------------------------------------------------------------------
# factorization identity

def _factorizations(spec: SystemSpec, det_phi: float,
                    Y: np.ndarray) -> FactorizationCheck:
    """The controllability-side determinant factorization in the real Jordan
    frame, from the determinant of the basis matrix Phi and the mode vectors
    Y of the same alphas, for a minimal system.

    Because the artifact works in the real fundamental basis, det Y =
    N1 N2 det Phi holds up to a fixed nonzero constant depending only on the
    system; ratio_ctrl reports it, and it must be independent of the alpha
    vector.  With p the sum of the pair multiplicities, N1 is 1 / prod|D|
    (N1 prod(D) = (-1)^p) and ratio_ctrl is 4^p, the quotient of det Y and
    N1 N2 det Phi each divided by the same power of two, so it is free of
    their common scale: N2 is carried as a mantissa near 1 and a power of
    two, so ratio_ctrl keeps full precision where the printed N2 is inf
    (past a float) or subnormal or 0 (below the normal range).  N2 is the
    real part of a product whose imaginary part is only the residue of
    partner coefficients that ``SystemSpec`` accepts as conjugates (up to
    1e-9 of the largest coefficient apart).  The observability side holds by
    construction, as the output rows are Phi D^{-1}.
    """
    es = spec.eigen
    n = es.n
    N1 = 1.0 / float(np.prod(np.abs(es._wronskian_scale)))
    # each root's anti-triangular Hankel block of (C_1, ..., C_m) has
    # determinant (-1)^{m(m-1)/2} C_m^m.  N2 = n2 2^e2: each C_m is divided
    # by sigma, the power of two of the largest coefficient, and n2 by its
    # own power of two after each root, so n2 stays within the float range
    s = math.frexp(max(map(abs, spec.coeffs)))[1] - 1
    sigma = math.ldexp(1.0, s)
    n2, e2 = 1.0 + 0j, n * s
    for rt, sl in zip(es.roots, es.root_slices):
        m = rt.multiplicity
        n2 *= (-1) ** (m * (m - 1) // 2) * (spec.coeffs[sl.stop - 1] / sigma) ** m
        e = math.frexp(abs(n2))[1]
        n2 = complex(math.ldexp(n2.real, -e), math.ldexp(n2.imag, -e))
        e2 += e
    n2 = n2.real
    with np.errstate(over="ignore"):
        N2 = float(np.ldexp(n2, e2))

    # Y / 2^k and 2^e2 det Phi / 2^{nk}, exact powers of two, keep both
    # sides near 1
    k = (math.frexp(det_phi)[1] + e2) // n
    with np.errstate(over="ignore", invalid="ignore"):
        lhs = float(np.linalg.det(np.ldexp(Y, -k)))
    ratio_ctrl = lhs / (N1 * n2 * math.ldexp(det_phi, e2 - n * k))
    return FactorizationCheck(N1, N2, ratio_ctrl)


# ---------------------------------------------------------------------------
# one-call analysis

def analyze(spec: SystemSpec, seq: SamplingSequence,
            tol: float = RANK_REL_TOL) -> AnalysisReport:
    """Joint test, plus degree metrics for a minimal system and factorization
    factors for a minimal system with an admissible sequence whose
    determinant a float holds: a determinant that underflows to zero leaves
    no ratio to check."""
    av = alphas(seq)
    phi = fundamental_matrix(spec.eigen, av)
    base = joint_test(phi, tol)
    degree = None
    factors = None
    if check_minimality(spec).minimal:
        Y = sampled_mode_vectors(spec, av)
        degree = degree_metrics_from_vectors(Y)
        if base.is_admissible and base.determinant != 0.0:
            factors = _factorizations(spec, base.determinant, Y)
    return AnalysisReport(base.determinant, base.is_admissible, base.sigma_min,
                          base.condition_number, degree, factors)
