"""Per-alpha matrix exponentials, a block-by-block Jordan matrix, the
math.exp spiral, the per-root impulse response, the separate confluent loops,
slot-by-slot builders of the real-basis layout, the companion route (the
characteristic polynomial, the Markov parameters, the companion frame's
observability matrix O = O_J B^{-1} and the observability- and
controllability-canonical realizations (A, b, c) with their Jordan frames),
the impulse train carried in the state frame, the sweep one scale at a time,
the generic design search with a bounded Brent refinement per instant, the
observability matrix from scipy's expm of the companion matrix, and 60-digit
mpmath routes to the singular values of the row-normalized basis matrix and
to the Gram determinant of the unit mode vectors: the independent routes the
tests compare the runtime against.  The
runtime never calls these."""
import cmath
import csv
import io
import math
from dataclasses import dataclass
from functools import cached_property

import mpmath
import numpy as np
import scipy.linalg

from nusample import analysis, fileio
from nusample.errors import (
    DegenerateSamplingError,
    InputError,
    NuSampleError,
    RootFindingError,
)
from nusample.lti import (
    EigenStructure,
    SystemSpec,
    _overflow,
    check_minimality,
    checked_flow,
)


def jordan_matrix(es: EigenStructure) -> np.ndarray:
    """The real Jordan matrix as scipy's block_diag of one cell per block."""
    cells = []
    for blk in es.blocks:
        m = blk.multiplicity
        if blk.kind == "real":
            J = np.diag(np.full(m, blk.value.real)) + np.diag(np.ones(m - 1), 1)
        else:
            a, b = blk.value.real, blk.value.imag
            J = np.zeros((2 * m, 2 * m))
            for k in range(m):
                J[2 * k:2 * k + 2, 2 * k:2 * k + 2] = [[a, -b], [b, a]]
                if k + 1 < m:
                    J[2 * k:2 * k + 2, 2 * k + 2:2 * k + 4] = np.eye(2)
        cells.append(J)
    return scipy.linalg.block_diag(*cells)


def exp_jordan(es: EigenStructure, t: float) -> np.ndarray:
    """Closed-form exp(J t) for the real Jordan matrix of ``es``."""
    E = np.zeros((es.n, es.n))
    try:
        for blk in es.blocks:
            m, o = blk.multiplicity, blk.offset
            if blk.kind == "real":
                e = math.exp(blk.value.real * t)
                for k in range(m):
                    v = e * t ** k / math.factorial(k)
                    for p in range(m - k):
                        E[o + p, o + p + k] = v
            else:
                a, b = blk.value.real, blk.value.imag
                e = math.exp(a * t)
                co, si = e * math.cos(b * t), e * math.sin(b * t)
                for k in range(m):
                    f = t ** k / math.factorial(k)
                    cell = ((co * f, -si * f), (si * f, co * f))
                    for p in range(m - k):
                        r, c = o + 2 * p, o + 2 * (p + k)
                        E[r:r + 2, c:c + 2] = cell
    except OverflowError:
        raise _overflow(es, t) from None
    return E


def expA(jf, t: float) -> np.ndarray:
    """exp(A t) = B exp(J t) B^{-1} for the realization ``jf`` was built from."""
    return jf.B @ exp_jordan(jf.es, t) @ jf.B_inv


def fundamental_basis(es: EigenStructure, t: float) -> np.ndarray:
    """(phi_1(t), ..., phi_n(t)) one basis function at a time, by math.exp."""
    out = np.empty(es.n)
    for blk in es.blocks:
        if blk.kind == "real":
            e = math.exp(blk.value.real * t)
            for k in range(blk.multiplicity):
                out[blk.offset + k] = t ** k * e
        else:
            a, b = blk.value.real, blk.value.imag
            e = math.exp(a * t)
            co, si = math.cos(b * t), math.sin(b * t)
            for k in range(blk.multiplicity):
                tk = t ** k
                out[blk.offset + 2 * k] = tk * e * co
                out[blk.offset + 2 * k + 1] = tk * e * si
    return out


def row_normalized_ratio(es: EigenStructure, av, dps: int = 60):
    """sigma_min / sigma_max, as an mpf, of Phi = [phi_i(alpha_m)] with each
    row divided by its 2-norm, at ``dps`` decimal digits: the closed-form
    basis t^k e^{lambda t} (t^k e^{a t} cos(b t), t^k e^{a t} sin(b t) for a
    pair) in ``fundamental_basis``'s layout, and mpmath's svd_r."""
    with mpmath.workdps(dps):
        rows = []
        for alpha in av:
            t = mpmath.mpf(alpha)
            row = [mpmath.mpf(0)] * es.n
            for blk in es.blocks:
                e = mpmath.exp(mpmath.mpf(blk.value.real) * t)
                for k in range(blk.multiplicity):
                    if blk.kind == "real":
                        row[blk.offset + k] = t ** k * e
                    else:
                        bt = mpmath.mpf(blk.value.imag) * t
                        row[blk.offset + 2 * k] = t ** k * e * mpmath.cos(bt)
                        row[blk.offset + 2 * k + 1] = t ** k * e * mpmath.sin(bt)
            norm = mpmath.norm(row, 2)
            rows.append([x / norm for x in row])
        sigma = mpmath.svd_r(mpmath.matrix(rows), compute_uv=False)
        return min(sigma) / max(sigma)


def unit_gram_determinant(spec: SystemSpec, av, dps: int = 60):
    """det(Yn' Yn), as an mpf, of the unit mode vectors Yn at ``dps``
    decimal digits: each column Y_i = exp(J alpha_i) d, with d the real mode
    vector of ``real_mode_vector``, built cell by cell as ``exp_jordan``
    lays out exp(J t) (e^{lambda t} t^k / k! on the k-th superdiagonal, a
    rotation by b t for a pair), then divided by its 2-norm."""
    d = real_mode_vector(spec)
    with mpmath.workdps(dps):
        cols = []
        for alpha in av:
            t = mpmath.mpf(alpha)
            y = [mpmath.mpf(0)] * spec.n
            for blk in spec.eigen.blocks:
                m, o = blk.multiplicity, blk.offset
                e = mpmath.exp(mpmath.mpf(blk.value.real) * t)
                for k in range(m):
                    f = e * t ** k / mpmath.factorial(k)
                    for p in range(m - k):
                        if blk.kind == "real":
                            y[o + p] += f * d[o + p + k]
                        else:
                            bt = mpmath.mpf(blk.value.imag) * t
                            co, si = mpmath.cos(bt), mpmath.sin(bt)
                            x1, x2 = d[o + 2 * (p + k)], d[o + 2 * (p + k) + 1]
                            y[o + 2 * p] += f * (co * x1 - si * x2)
                            y[o + 2 * p + 1] += f * (si * x1 + co * x2)
            norm = mpmath.norm(y, 2)
            cols.append([v / norm for v in y])
        Yn = mpmath.matrix(cols).T
        return mpmath.det(Yn.T * Yn)


def spiral_point(lam: float, a: float, b: float, alpha: float) -> np.ndarray:
    """(e^{a alpha} cos(b alpha), e^{a alpha} sin(b alpha), e^{lam alpha}) by math.exp."""
    ea = math.exp(a * alpha)
    return np.array([ea * math.cos(b * alpha), ea * math.sin(b * alpha),
                     math.exp(lam * alpha)])


def wronskian_at_zero(es: EigenStructure) -> np.ndarray:
    """W[i, j] = i-th derivative of phi_j at t = 0, one derivative at a time."""
    n = es.n
    W = np.zeros((n, n))
    for blk in es.blocks:
        lam = blk.value
        for k in range(blk.multiplicity):
            for i in range(k, n):
                z = math.perm(i, k) * lam ** (i - k)
                if blk.kind == "real":
                    W[i, blk.offset + k] = z.real
                else:
                    W[i, blk.offset + 2 * k] = z.real
                    W[i, blk.offset + 2 * k + 1] = z.imag
    return W


def confluent_vandermonde_real(es: EigenStructure) -> np.ndarray:
    """Real confluent Vandermonde basis, one complex column at a time."""
    n = es.n
    V = np.zeros((n, n))
    for blk in es.blocks:
        lam = blk.value
        for k in range(blk.multiplicity):
            col = np.array([math.comb(i, k) * lam ** (i - k) if i >= k else 0.0
                            for i in range(n)], dtype=complex)
            if blk.kind == "real":
                V[:, blk.offset + k] = col.real
            else:
                V[:, blk.offset + 2 * k] = col.real
                V[:, blk.offset + 2 * k + 1] = -col.imag
    return V


# ---------------------------------------------------------------------------
# the real-basis layout, one slot index at a time

def real_mode_vector(spec: SystemSpec) -> np.ndarray:
    """Coefficients of h(t) in the real fundamental basis: C for a real
    slot, (2 Re C, -2 Im C) for a pair's (x, y) slots."""
    d = np.empty(spec.eigen.n)
    c = spec.coeffs
    for blk in spec.eigen.blocks:
        sl = spec.eigen.root_slices[blk.root_index]
        block_c = c[sl.start:sl.stop]
        if blk.kind == "real":
            for k, ck in enumerate(block_c):
                d[blk.offset + k] = ck.real
        else:
            for k, ck in enumerate(block_c):
                d[blk.offset + 2 * k] = 2.0 * ck.real
                d[blk.offset + 2 * k + 1] = -2.0 * ck.imag
    return d


def modes_from_markov(es: EigenStructure, h) -> tuple[complex, ...]:
    """Modal coefficients from the first n Markov parameters, read slot by slot."""
    d = np.linalg.solve(wronskian_at_zero(es), np.asarray(h, dtype=float))
    coeffs = np.zeros(es.n, dtype=complex)
    for blk in es.blocks:
        sl = es.root_slices[blk.root_index]
        if blk.kind == "real":
            coeffs[sl] = d[blk.offset:blk.offset + blk.multiplicity]
        else:
            block_c = np.array([0.5 * d[blk.offset + 2 * k] - 0.5j * d[blk.offset + 2 * k + 1]
                                for k in range(blk.multiplicity)])
            coeffs[sl] = block_c
            coeffs[es.root_slices[blk.partner_index]] = np.conj(block_c)
    return tuple(coeffs.tolist())


def basis_seed(es: EigenStructure) -> tuple[np.ndarray, np.ndarray]:
    """(d, R) with basis(t) = exp(J t) d @ R: a one in each block's last
    slot (cell), and R reversing each block's cells, slot k scaled by k!."""
    n = es.n
    d = np.zeros(n)
    reverse = np.zeros((n, n))
    for blk in es.blocks:
        m, o = blk.multiplicity, blk.offset
        width = 1 if blk.kind == "real" else 2  # slots per cell
        d[o + width * (m - 1)] = 1.0
        for k in range(m):
            for part in range(width):
                reverse[o + width * (m - 1 - k) + part, o + width * k + part] = \
                    math.factorial(k)
    return d, reverse


def swap_reversal_permutation(es: EigenStructure) -> np.ndarray:
    """Symmetric permutation S with S J' S = J, built per block
    (index reversal; for pair blocks cell reversal plus in-cell swap)."""
    n = es.n
    S = np.zeros((n, n))
    for blk in es.blocks:
        m = blk.multiplicity
        if blk.kind == "real":
            for k in range(m):
                S[blk.offset + k, blk.offset + m - 1 - k] = 1.0
        else:
            for k in range(m):
                for comp in range(2):
                    S[blk.offset + 2 * k + comp,
                      blk.offset + 2 * (m - 1 - k) + (1 - comp)] = 1.0
    return S


def commuting_normalizer(es: EigenStructure, d: np.ndarray) -> np.ndarray:
    """Upper (cell-)Toeplitz K commuting with J with K d = S V' b_co, one
    2 x 2 rotation-scaling cell at a time."""
    n = es.n
    K = np.zeros((n, n))
    for blk in es.blocks:
        m = blk.multiplicity
        if blk.kind == "real":
            delta = [complex(d[blk.offset + k]) for k in range(m)]
            target = 1.0 + 0j
        else:
            delta = [complex(d[blk.offset + 2 * k], d[blk.offset + 2 * k + 1])
                     for k in range(m)]
            target = 1j
        if abs(delta[-1]) == 0.0:
            raise ValueError(f"block at offset {blk.offset} has zero "
                             "highest-order coefficient: the system is not minimal")
        c = [0j] * m
        for off in range(m):
            i = m - 1 - off
            acc = sum(c[k] * delta[i + k] for k in range(off))
            rhs = (target if i == m - 1 else 0j) - acc
            c[off] = rhs / delta[-1]
        if blk.kind == "real":
            for off in range(m):
                for p in range(m - off):
                    K[blk.offset + p, blk.offset + p + off] = c[off].real
        else:
            for off in range(m):
                p_, q_ = c[off].real, c[off].imag
                cell = np.array([[p_, -q_], [q_, p_]])
                for p in range(m - off):
                    K[blk.offset + 2 * p:blk.offset + 2 * p + 2,
                      blk.offset + 2 * (p + off):blk.offset + 2 * (p + off) + 2] = cell
    return K


def impulse_response(spec: SystemSpec, t: float) -> float:
    """h(t) = sum over roots of C t^k e^{lambda t}, term by term."""
    es, c = spec.eigen, spec.coeffs
    return sum(ck * t ** k * cmath.exp(rt.value * t)
               for rt, sl in zip(es.roots, es.root_slices)
               for k, ck in enumerate(c[sl])).real


def hankel_factor(spec: SystemSpec) -> complex:
    """N2 of the controllability factorization: the product over roots of
    the numeric determinant of the anti-triangular Hankel matrix with first
    row (C_1, ..., C_m) and zeros below the anti-diagonal."""
    n2 = 1.0 + 0j
    for sl in spec.eigen.root_slices:
        c = spec.coeffs[sl]
        m = len(c)
        H = np.array([[c[i + k] if i + k < m else 0j for k in range(m)] for i in range(m)])
        n2 *= complex(np.linalg.det(H))
    return n2


# ---------------------------------------------------------------------------
# the companion route: the observability-canonical realization (A, b, c) and
# its dual, the controllability-canonical realization (A', c', b')

def coefficients_from_roots(es: EigenStructure) -> np.ndarray:
    """Monic characteristic polynomial coefficients (a_1 ... a_n), by np.poly."""
    expanded = []
    for rt in es.roots:
        expanded.extend([rt.value] * rt.multiplicity)
    coeffs = np.poly(np.asarray(expanded))
    scale = max(1.0, float(np.max(np.abs(coeffs))))
    if np.max(np.abs(coeffs.imag)) > 1e-12 * scale:
        raise RootFindingError("characteristic polynomial is not real "
                               "(broken conjugate symmetry)")
    return coeffs.real[1:].copy()


def markov_from_modes(spec: SystemSpec) -> np.ndarray:
    """First n Markov parameters h_{i+1} = d^i h / dt^i at 0."""
    return wronskian_at_zero(spec.eigen) @ spec.real_mode_vector


def bruteforce_observability_matrix(spec: SystemSpec, av) -> np.ndarray:
    """Rows c exp(A alpha_m) = O_J B^{-1} in the companion frame, the frame of
    ``sweep``'s noise column: one flow of Phi's seed through
    (R / D) B^{-1}, the product ``analysis.sweep_arrays`` takes of a
    block's flow."""
    es = spec.eigen
    d, R = es._basis_seed
    return checked_flow(es, d, av, (R / es._wronskian_scale) @ es.B_inv)


@dataclass(frozen=True, eq=False)
class JordanFrame:
    """A = B J B^{-1}, with y0 = B^{-1} b the input vector in the Jordan frame."""

    es: EigenStructure
    B: np.ndarray
    B_inv: np.ndarray
    y0: np.ndarray

    @cached_property
    def condition_number(self) -> float:
        return float(np.linalg.cond(self.B))


class ObservabilityForm:
    """The observability-canonical realization (A, b, c) of ``spec``: A the
    companion matrix of ``coefficients_from_roots``, b the Markov parameters
    and c = e_1.  Its Jordan frame is the runtime's: B and B^{-1} of the
    eigenstructure, y0 of the spec."""

    def __init__(self, spec: SystemSpec):
        self.spec = spec

    @property
    def n(self) -> int:
        return self.spec.n

    @cached_property
    def A(self) -> np.ndarray:
        A = np.eye(self.n, k=1)
        A[-1, :] = -coefficients_from_roots(self.spec.eigen)[::-1]
        return A

    @cached_property
    def b(self) -> np.ndarray:
        return markov_from_modes(self.spec)

    @cached_property
    def c(self) -> np.ndarray:
        return np.eye(self.n)[0]

    @cached_property
    def jordan(self) -> JordanFrame:
        es = self.spec.eigen
        return JordanFrame(es, es.B, es.B_inv, self.spec.y0)


def observability_canonical(spec: SystemSpec) -> ObservabilityForm:
    return ObservabilityForm(spec)


def observability_matrix(spec: SystemSpec, av) -> np.ndarray:
    """Rows c expm(A alpha_m) of the observability-canonical realization,
    one scipy ``expm`` of the companion matrix per alpha."""
    real = observability_canonical(spec)
    return np.array([real.c @ scipy.linalg.expm(real.A * a) for a in av])


def controllability_jordan(spec: SystemSpec) -> JordanFrame:
    """Real Jordan form of the controllability-canonical realization: the
    basis B = solve(V', S) K, with K normalizing B^{-1} b_co to the real
    mode vector.  Needs a minimal system."""
    es = spec.eigen
    B0 = np.linalg.solve(confluent_vandermonde_real(es).T, swap_reversal_permutation(es))
    B = B0 @ commuting_normalizer(es, real_mode_vector(spec))
    B_inv = np.linalg.inv(B)
    b_co = np.zeros(es.n)
    b_co[0] = 1.0
    return JordanFrame(es, B, B_inv, B_inv @ b_co)


class ControllabilityForm(ObservabilityForm):
    """The dual (A', c', b') of the observability-canonical realization, with
    ``controllability_jordan`` as its Jordan frame; the runtime knows the
    observability form's frame only."""

    @cached_property
    def _dual(self) -> ObservabilityForm:
        return observability_canonical(self.spec)

    @cached_property
    def A(self) -> np.ndarray:
        return self._dual.A.T

    @cached_property
    def b(self) -> np.ndarray:
        return self._dual.c.copy()

    @cached_property
    def c(self) -> np.ndarray:
        return self._dual.b.copy()

    @cached_property
    def jordan(self) -> JordanFrame:
        return controllability_jordan(self.spec)


def controllability_canonical(spec: SystemSpec) -> ControllabilityForm:
    return ControllabilityForm(spec)


# ---------------------------------------------------------------------------
# the impulse train in the state frame

def simulate_impulse_train(real: ObservabilityForm, x0, seq, inputs) -> list:
    """(time, side, state) of every checkpoint, the state carried as x:
    each free flow is ``expA`` of the realization's Jordan frame, one
    ``exp_jordan`` matrix per interval, and each jump adds b u_i, with b the
    realization's Markov vector."""
    x = np.asarray(x0, dtype=float)
    checkpoints = []
    t_prev = seq.instants[0]
    for ti, ui in zip(seq.instants, inputs):
        x = expA(real.jordan, ti - t_prev) @ x
        checkpoints.append((ti, "pre", x.copy()))
        x = x + real.b * ui
        checkpoints.append((ti, "post", x.copy()))
        t_prev = ti
    if seq.final_instant is not None:
        x = expA(real.jordan, seq.final_instant - t_prev) @ x
        checkpoints.append((seq.final_instant, "pre", x.copy()))
    return checkpoints


# ---------------------------------------------------------------------------
# the sweep, one scale at a time

def _sweep_row(spec, minimal, trials, seed, idx, s):
    """One CSV row: each matrix built for this scale alone, each check in the
    order the CLI's stages run."""
    if s <= 0:
        raise InputError("interval scale must stay positive over the sweep")
    with np.errstate(over="ignore", invalid="ignore"):
        seq = analysis.SamplingSequence(tuple(i * s for i in range(spec.n)))
    av = analysis.alphas(seq)
    M = analysis.fundamental_matrix(spec.eigen, av)
    with np.errstate(over="ignore", invalid="ignore"):
        det = float(np.linalg.det(M))
    if not math.isfinite(det):
        raise DegenerateSamplingError(
            "the determinant of the basis matrix overflows a "
            f"float (largest |entry| = {np.max(np.abs(M)):.6g}); shorten the "
            "sampling intervals")
    svals = np.linalg.svd(M, compute_uv=False)
    cond = math.inf if svals[-1] == 0.0 else float(svals[0]) / float(svals[-1])
    gram = math.nan
    if minimal:
        Y = analysis.sampled_mode_vectors(spec, av)
        with np.errstate(over="ignore", invalid="ignore"):
            Ys = Y / np.ldexp(1.0, np.frexp(np.max(np.abs(Y), axis=0))[1] - 1)
            norms = np.linalg.norm(Ys, axis=0)
        if not (np.isfinite(norms).all()
                and (np.max(np.abs(Y), axis=0) >= np.finfo(float).tiny).all()):
            raise DegenerateSamplingError("a sampled mode vector overflows a float or "
                                          "vanishes; shorten the sampling intervals")
        Yn = Ys / norms
        gram = float(min(np.linalg.det(Yn) ** 2, 1.0))
    # trial t draws an initial state, then the noise w; the error of the
    # least-squares estimate is O^{-1} w, whatever the state and noise level
    z = np.random.default_rng(seed * 1000003 + idx).standard_normal((trials, 2, spec.n))
    w = z[:, 1].T
    O = bruteforce_observability_matrix(spec, av)
    so = np.linalg.svd(O, compute_uv=False)
    if so[0] == 0.0 or so[-1] / so[0] <= analysis.RANK_REL_TOL:
        amp = math.inf
    else:
        amp = float(np.median(np.linalg.norm(np.linalg.solve(O, w), axis=0)))
    return [s, det, gram, cond, amp]


def sweep(system, start, stop, points, trials=50, seed=0) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of ``nusample sweep`` run one scale at a
    time over np.linspace(start, stop, points): the rows before a failing
    scale, then that scale's error."""
    out = io.StringIO()
    writer = csv.writer(out)
    try:
        spec = fileio.load_system(system)
        minimal = check_minimality(spec).minimal
        writer.writerow(["scale", "determinant", "gram_det",
                         "condition_number", "noise_amplification"])
        with np.errstate(over="ignore", invalid="ignore"):
            scales = np.linspace(start, stop, points)
        for idx, s in enumerate(scales):
            row = _sweep_row(spec, minimal, trials, seed, idx, s)
            writer.writerow([f"{float(x):.12g}" for x in row])
    except NuSampleError as exc:
        return 1, out.getvalue(), f"error: {exc}\n"
    return 0, out.getvalue(), ""


# ---------------------------------------------------------------------------
# the generic design search with a scalar Brent refinement per instant

def gram_det(spec: SystemSpec, instants) -> float:
    """The normalized Gram determinant of the sequence, one exp_jordan matrix
    per alpha, each mode vector divided by its power-of-two scale and then by
    its norm."""
    av = analysis.alphas(analysis.SamplingSequence(tuple(instants)))
    Y = np.column_stack([exp_jordan(spec.eigen, a) @ spec.real_mode_vector
                         for a in av])
    Y = Y / np.ldexp(1.0, np.frexp(np.max(np.abs(Y), axis=0))[1] - 1)
    Yn = Y / np.linalg.norm(Y, axis=0)
    return float(np.clip(np.linalg.det(Yn.T @ Yn), 0.0, 1.0))


_SQRT_EPS = math.sqrt(2.2e-16)
_GOLDEN = 0.5 * (3.0 - math.sqrt(5.0))


def minimize_bounded(func, lo: float, hi: float, xatol: float,
                     maxfun: int = 500) -> tuple[float, float]:
    """(x, func(x)) minimizing ``func`` on [lo, hi] by Brent's method:
    golden-section steps, parabolic ones where the fit is acceptable.

    A step-for-step port of ``_minimize_scalar_bounded`` in
    ``scipy.optimize._optimize``, so it evaluates the same points and returns
    the same x and f(x), bit for bit, as
    ``scipy.optimize.minimize_scalar(method="bounded")`` with the options
    ``xatol`` and ``maxiter=maxfun``.  The scipy original is
    Copyright (c) 2001-2002 Enthought, Inc. 2003, SciPy Developers, and is
    used under the BSD 3-Clause license.
    """
    a, b = lo, hi
    fulc = a + _GOLDEN * (b - a)
    nfc = xf = fulc
    rat = e = 0.0
    fx = func(xf)
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1

    while abs(xf - xm) > tol2 - 0.5 * (b - a):
        golden = True
        if abs(e) > tol1:  # try a parabolic fit through xf, nfc and fulc
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat
            if abs(p) < abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf):
                rat = (p + 0.0) / q
                x = xf + rat
                if x - a < tol2 or b - x < tol2:
                    rat = tol1 if xm >= xf else -tol1
            else:
                golden = True
        if golden:
            e = (a if xf >= xm else b) - xf
            rat = _GOLDEN * e

        step = max(abs(rat), tol1)
        x = xf + step if rat >= 0.0 else xf - step
        fu = func(x)
        num += 1

        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu

        xm = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= maxfun:
            break
    return xf, fx


def greedy_instants(spec: SystemSpec, t0: float, bounds, steps: int) -> list[float]:
    """The greedy grid of the generic design search: each instant after t0
    is the first maximizer of the Gram determinant over ``steps`` interval
    lengths in [dmin, dmax], scored one batched ``analysis.unit_gram`` call
    per instant."""
    dmin, dmax = bounds
    instants = [float(t0)]
    for _ in range(1, spec.n):
        grid = instants[-1] + np.linspace(dmin, dmax, steps)
        cand = np.column_stack([np.zeros(steps), grid[:, None] - instants[::-1]])
        scores = analysis.unit_gram(analysis.sampled_mode_vectors(spec, cand))[2]
        instants.append(float(grid[int(np.argmax(scores))]))
    return instants


def brent_design(spec: SystemSpec, t0: float = 0.0, bounds=(0.05, 5.0),
                 steps: int = 200, minimize=minimize_bounded) -> list[float]:
    """The instants of the generic design search with a scalar refinement:
    the greedy grid, then each instant after t0 refined once, in order, by
    ``minimize`` on minus the Gram determinant (one ``analysis.unit_gram``
    matrix per evaluation), at least dmin from its neighbors and, for the last,
    at most dmax after its predecessor; kept if no worse."""
    dmin, dmax = bounds
    n = spec.n
    instants = greedy_instants(spec, t0, bounds, steps)

    def score(inst):
        t = np.asarray(inst, dtype=float)
        Y = analysis.sampled_mode_vectors(spec, t[-1] - t[::-1])
        return float(analysis.unit_gram(Y)[2])

    for i in range(1, n):
        lo = instants[i - 1] + dmin
        hi = instants[i + 1] - dmin if i + 1 < n else instants[i - 1] + dmax
        if hi <= lo:
            continue
        x, fun = minimize(
            lambda t, i=i: -score(instants[:i] + [float(t)] + instants[i + 1:]),
            lo, hi, xatol=1e-10 * (1.0 + abs(hi)))
        if -fun >= score(instants):
            instants[i] = float(x)
    return instants
