"""Per-alpha matrix exponentials and a block-by-block Jordan matrix: the
independent routes the tests compare the runtime against.  The runtime never
calls these."""
import math

import numpy as np
import scipy.linalg

from nusample.lti import EigenStructure, _overflow


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
