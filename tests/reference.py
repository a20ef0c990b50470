"""Per-alpha matrix exponentials, a block-by-block Jordan matrix, the
math.exp spiral, the separate confluent loops and slot-by-slot builders of
the real-basis layout: the independent routes the tests compare the runtime
against.  The runtime never calls these."""
import math

import numpy as np
import scipy.linalg

from nusample.errors import NonMinimalError
from nusample.lti import EigenStructure, SystemSpec, _overflow


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
