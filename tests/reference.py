"""Per-alpha matrix exponentials, a block-by-block Jordan matrix, the
math.exp spiral, the per-root impulse response, the separate confluent loops,
slot-by-slot builders of the real-basis layout and the controllability-
canonical realization, the impulse train carried in the state frame, the
sweep one scale at a time, and the generic design
search with a bounded Brent refinement per instant: the independent routes
the tests compare the runtime against.  The runtime never calls these."""
import cmath
import csv
import io
import math
from functools import cached_property

import numpy as np
import scipy.linalg

from nusample import analysis, design, fileio, simulate
from nusample.errors import (
    DegenerateSamplingError,
    InputError,
    NonMinimalError,
    NuSampleError,
)
from nusample.lti import (
    EigenStructure,
    RealJordanForm,
    Realization,
    SystemSpec,
    _overflow,
    check_minimality,
    observability_canonical,
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
            raise NonMinimalError(f"block at offset {blk.offset} has zero "
                                  "highest-order coefficient")
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
# the controllability-canonical realization (A', c, b) of the observability form

def controllability_jordan(spec: SystemSpec) -> RealJordanForm:
    """Real Jordan form of the controllability-canonical realization: the
    basis B = solve(V', S) K, with K normalizing B^{-1} b_co to the real
    mode vector.  Needs a minimal system."""
    es = spec.eigen
    B0 = np.linalg.solve(confluent_vandermonde_real(es).T, swap_reversal_permutation(es))
    B = B0 @ commuting_normalizer(es, real_mode_vector(spec))
    B_inv = np.linalg.inv(B)
    b_co = np.zeros(es.n)
    b_co[0] = 1.0
    return RealJordanForm(es, B, B_inv, B_inv @ b_co)


class ControllabilityForm(Realization):
    """The dual (A', c', b') of the observability-canonical realization, with
    ``controllability_jordan`` as its Jordan form; the runtime's
    ``real_jordan`` knows the observability form only."""

    @cached_property
    def _dual(self) -> Realization:
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
    def jordan(self) -> RealJordanForm:
        return controllability_jordan(self.spec)


def controllability_canonical(spec: SystemSpec) -> ControllabilityForm:
    return ControllabilityForm(spec)


# ---------------------------------------------------------------------------
# the impulse train in the state frame

def simulate_impulse_train(real: Realization, x0, plan) -> list:
    """(time, side, state) of every checkpoint, the state carried as x:
    each free flow is ``simulate.state_transition`` and each jump adds
    b u_i, with b the realization's Markov vector."""
    x = np.asarray(x0, dtype=float)
    seq = plan.sequence
    checkpoints = []
    t_prev = seq.instants[0]
    for ti, ui in zip(seq.instants, plan.inputs):
        x = simulate.state_transition(real, x, ti - t_prev)
        checkpoints.append((ti, "pre", x.copy()))
        x = x + real.b * ui
        checkpoints.append((ti, "post", x.copy()))
        t_prev = ti
    if seq.final_instant is not None:
        x = simulate.state_transition(real, x, seq.final_instant - t_prev)
        checkpoints.append((seq.final_instant, "pre", x.copy()))
    return checkpoints


# ---------------------------------------------------------------------------
# the sweep, one scale at a time

def _pow2_norms(M: np.ndarray, axis: int) -> np.ndarray:
    """2-norms along ``axis`` of M divided by the power of two at or just below
    its largest |entry|, times that power."""
    scale = np.ldexp(1.0, np.frexp(np.max(np.abs(M), axis=axis, keepdims=True))[1] - 1)
    return np.linalg.norm(M / scale, axis=axis) * np.squeeze(scale, axis)


def _sweep_row(spec, real, minimal, tol, noise, trials, seed, idx, s):
    """One CSV row: each matrix built for this scale alone, each check in the
    order the CLI's stages run."""
    if s <= 0:
        raise InputError("interval scale must stay positive over the sweep")
    with np.errstate(over="ignore", invalid="ignore"):
        seq = analysis.SamplingSequence(tuple(i * s for i in range(spec.n)),
                                        final_instant=spec.n * s)
    av = analysis.alphas(seq)
    M = analysis.fundamental_matrix(spec.eigen, av)
    with np.errstate(over="ignore", invalid="ignore"):
        det = float(np.linalg.det(M))
        threshold = tol * float(np.prod(_pow2_norms(M, axis=1)))
    if not (math.isfinite(det) and math.isfinite(threshold)):
        raise DegenerateSamplingError(
            "the determinant of the basis matrix or its threshold overflows a "
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
        gram = float(np.clip(np.linalg.det(Yn.T @ Yn), 0.0, 1.0))
    # trial t draws its initial state, then its noise / eps; noise above 1 is
    # scaled with the states by the power of two 2**e >= eps
    z = np.random.default_rng(seed * 1000003 + idx).standard_normal((trials, 2, spec.n))
    e = math.frexp(noise)[1] if noise > 1 else 0
    eps = math.ldexp(noise, -e)
    x0 = np.ldexp(z[:, 0].T, -e)
    O = analysis.bruteforce_observability_matrix(real, av)
    noisy = O @ x0 + eps * z[:, 1].T
    so = np.linalg.svd(O, compute_uv=False)
    if so[0] == 0.0 or so[-1] / so[0] <= analysis.RANK_REL_TOL:
        amp = math.inf
    else:
        x0_hat = np.linalg.solve(O, noisy)
        amp = float(np.median(np.linalg.norm(x0_hat - x0, axis=0))) / eps
    return [s, det, gram, cond, amp]


def sweep(system, start, stop, points, noise=1e-4, trials=50, seed=0,
          tol=analysis.DEFAULT_ADMISSIBILITY_FACTOR) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of ``nusample sweep`` run one scale at a
    time over np.linspace(start, stop, points): the rows before a failing
    scale, then that scale's error."""
    out = io.StringIO()
    writer = csv.writer(out)
    try:
        spec = fileio.load_system(system)
        real = observability_canonical(spec)
        minimal = check_minimality(spec).minimal
        writer.writerow(["scale", "determinant", "gram_det",
                         "condition_number", "noise_amplification"])
        with np.errstate(over="ignore", invalid="ignore"):
            scales = np.linspace(start, stop, points)
        for idx, s in enumerate(scales):
            row = _sweep_row(spec, real, minimal, tol, noise, trials, seed, idx, s)
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
    lengths in [dmin, dmax], scored one batched ``design._gram_dets`` call per
    instant."""
    dmin, dmax = bounds
    instants = [float(t0)]
    for _ in range(1, spec.n):
        grid = instants[-1] + np.linspace(dmin, dmax, steps)
        cand = np.column_stack([np.zeros(steps), grid[:, None] - instants[::-1]])
        instants.append(float(grid[int(np.argmax(design._gram_dets(spec, cand)))]))
    return instants


def brent_design(spec: SystemSpec, t0: float = 0.0, bounds=(0.05, 5.0),
                 steps: int = 200, minimize=minimize_bounded) -> list[float]:
    """The instants of the generic design search with a scalar refinement:
    the greedy grid, then each instant after t0 refined once, in order, by
    ``minimize`` on minus the Gram determinant (one ``design._gram_dets``
    row per evaluation), at least dmin from its neighbors and, for the last,
    at most dmax after its predecessor; kept if no worse."""
    dmin, dmax = bounds
    n = spec.n
    instants = greedy_instants(spec, t0, bounds, steps)

    def score(inst):
        t = np.asarray(inst, dtype=float)
        return float(design._gram_dets(spec, t[-1] - t[::-1]))

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
