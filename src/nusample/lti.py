"""Modal representation of SISO LTI systems and their canonical realizations.

A system is described by its eigenstructure (the distinct characteristic
roots with multiplicities) together with modal coefficients of the impulse
response h(t) = sum_i C_i phi_i(t).  All downstream arithmetic uses the
*real* fundamental basis, ordered block-wise in first-appearance order of
the roots:

    real root lambda, multiplicity m:
        t^k e^{lambda t}                                   k = 0 .. m-1
    complex pair a +- jb (b > 0), multiplicity m:
        t^k e^{a t} cos(b t),  t^k e^{a t} sin(b t)        k = 0 .. m-1

The real Jordan form of the canonical companion realizations is built
analytically from a confluent Vandermonde basis; its matrix exponential is
evaluated in closed form (finite nilpotent series and rotation-scaling
cells), so no general-purpose expm is needed on the canonical path.

One batched kernel, ``jordan_flow``, evaluates the flow exp(J alpha) d for a
whole array of alphas at once, without forming any n x n matrix; the sampled
mode vectors and the design search's candidate grid both go through it.
``exp_jordan`` stays as the per-alpha matrix route.  Each ``Realization``
builds its real Jordan form once, on first use of ``Realization.jordan``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg

from nusample.errors import DegenerateSamplingError, NonMinimalError, RootFindingError

CLUSTER_TOL = 1e-7        # relative tolerance for merging numerically equal roots
MINIMALITY_TOL = 1e-9     # relative tolerance on the last modal coefficient of a block
B_CONDITION_WARN = 1e12   # condition number above which real_jordan attaches a warning


# ---------------------------------------------------------------------------
# eigenstructure

@dataclass(frozen=True)
class Root:
    value: complex
    multiplicity: int


@dataclass(frozen=True)
class Block:
    """One block of the real fundamental basis.

    kind        "real" or "pair"
    value       the eigenvalue; for "pair" the member with positive imaginary part
    multiplicity   m (the pair block spans 2*m basis functions)
    offset      first index of this block in the real basis
    root_index  index into EigenStructure.roots of the representative root
    """

    kind: str
    value: complex
    multiplicity: int
    offset: int
    root_index: int

    @property
    def size(self) -> int:
        return self.multiplicity if self.kind == "real" else 2 * self.multiplicity


def _conjugate_partner(roots, idx, used):
    target = roots[idx].value.conjugate()
    scale = 1.0 + abs(target)
    for j, rt in enumerate(roots):
        if j == idx or j in used:
            continue
        if rt.multiplicity == roots[idx].multiplicity and abs(rt.value - target) <= 1e-12 * scale:
            return j
    return None


@dataclass(frozen=True)
class EigenStructure:
    """Distinct characteristic roots with multiplicities."""

    roots: tuple[Root, ...]

    def __post_init__(self):
        object.__setattr__(self, "roots", tuple(Root(complex(r.value), int(r.multiplicity))
                                                for r in self.roots))
        if not self.roots:
            raise ValueError("eigenstructure needs at least one root")
        for rt in self.roots:
            if rt.multiplicity < 1:
                raise ValueError(f"multiplicity must be positive, got {rt.multiplicity}")
            if not (math.isfinite(rt.value.real) and math.isfinite(rt.value.imag)):
                raise ValueError("roots must be finite")
        # pairwise separation beyond the clustering tolerance
        vals = [rt.value for rt in self.roots]
        for i in range(len(vals)):
            for j in range(i + 1, len(vals)):
                tol = CLUSTER_TOL * (1.0 + max(abs(vals[i]), abs(vals[j])))
                if abs(vals[i] - vals[j]) <= tol:
                    raise ValueError(f"roots {vals[i]} and {vals[j]} are not distinct "
                                     "at the clustering tolerance")
        # conjugate pairing
        used = set()
        for i, rt in enumerate(self.roots):
            if i in used or rt.value.imag == 0:
                continue
            j = _conjugate_partner(self.roots, i, used)
            if j is None:
                raise ValueError(f"complex root {rt.value} lacks a conjugate partner")
            used.add(i)
            used.add(j)

    @cached_property
    def n(self) -> int:
        return sum(rt.multiplicity for rt in self.roots)

    @cached_property
    def r(self) -> int:
        return len(self.roots)

    @cached_property
    def blocks(self) -> tuple[Block, ...]:
        blocks = []
        used = set()
        offset = 0
        for i, rt in enumerate(self.roots):
            if i in used:
                continue
            if rt.value.imag == 0:
                blocks.append(Block("real", rt.value.real, rt.multiplicity, offset, i))
                offset += rt.multiplicity
            else:
                j = _conjugate_partner(self.roots, i, used)
                used.add(j)
                rep = i if rt.value.imag > 0 else j
                blocks.append(Block("pair", self.roots[rep].value, rt.multiplicity, offset, rep))
                offset += 2 * rt.multiplicity
        return tuple(blocks)

    @cached_property
    def root_slices(self) -> tuple[slice, ...]:
        """Slice of the modal coefficient vector belonging to each root entry."""
        slices = []
        pos = 0
        for rt in self.roots:
            slices.append(slice(pos, pos + rt.multiplicity))
            pos += rt.multiplicity
        return tuple(slices)


def eigenstructure(roots) -> EigenStructure:
    """Build an EigenStructure from (value, multiplicity) pairs."""
    return EigenStructure(tuple(Root(complex(v), int(m)) for v, m in roots))


# ---------------------------------------------------------------------------
# modal coefficients and system description

@dataclass(frozen=True)
class ModeCoefficients:
    """Coefficients C_i of h(t) = sum C_i t^k e^{lambda t}, ordered block-wise
    to match the root entries of the eigenstructure."""

    coeffs: tuple[complex, ...]

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(complex(c) for c in self.coeffs))


@dataclass(frozen=True)
class SystemSpec:
    eigen: EigenStructure
    modes: ModeCoefficients

    def __post_init__(self):
        if len(self.modes.coeffs) != self.eigen.n:
            raise ValueError(f"expected {self.eigen.n} modal coefficients, "
                             f"got {len(self.modes.coeffs)}")
        c = np.asarray(self.modes.coeffs)
        scale = float(np.max(np.abs(c))) or 1.0
        # h(t) must be real: real-root blocks carry real coefficients and
        # conjugate-pair blocks carry conjugate coefficients.
        used = set()
        for i, rt in enumerate(self.eigen.roots):
            sl = self.eigen.root_slices[i]
            if rt.value.imag == 0:
                if np.max(np.abs(c[sl].imag)) > 1e-9 * scale:
                    raise ValueError(f"real-root block {i} has complex coefficients")
            elif i not in used:
                j = _conjugate_partner(self.eigen.roots, i, used)
                used.add(i)
                used.add(j)
                sl_j = self.eigen.root_slices[j]
                if np.max(np.abs(c[sl] - np.conj(c[sl_j]))) > 1e-9 * scale:
                    raise ValueError(f"blocks {i} and {j} do not carry conjugate coefficients")

    @property
    def n(self) -> int:
        return self.eigen.n

    @cached_property
    def real_mode_vector(self) -> np.ndarray:
        """Coefficients of h(t) in the real fundamental basis."""
        d = np.empty(self.eigen.n)
        c = self.modes.coeffs
        for blk in self.eigen.blocks:
            sl = self.eigen.root_slices[blk.root_index]
            block_c = c[sl.start:sl.stop]
            if blk.kind == "real":
                for k, ck in enumerate(block_c):
                    d[blk.offset + k] = ck.real
            else:
                for k, ck in enumerate(block_c):
                    d[blk.offset + 2 * k] = 2.0 * ck.real
                    d[blk.offset + 2 * k + 1] = -2.0 * ck.imag
        d.setflags(write=False)
        return d


def system_from_modes(roots, coeffs) -> SystemSpec:
    return SystemSpec(eigenstructure(roots), ModeCoefficients(tuple(coeffs)))


def system_from_markov(roots, markov) -> SystemSpec:
    es = eigenstructure(roots)
    return SystemSpec(es, modes_from_markov(es, np.asarray(markov, dtype=float)))


# ---------------------------------------------------------------------------
# polynomial <-> roots

def roots_from_coefficients(a) -> EigenStructure:
    """Roots (with multiplicities) of s^n + a_1 s^{n-1} + ... + a_n.

    Numerically close roots are merged into a multiple root at the cluster
    mean; conjugate symmetry of the merged set is enforced afterwards, and
    clusters it brings together are merged once more.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 1 or a.size == 0:
        raise ValueError("need at least one coefficient (system order >= 1)")
    if not np.all(np.isfinite(a)):
        raise ValueError("coefficients must be finite")
    raw = np.roots(np.concatenate(([1.0], a)))
    poly = np.concatenate(([1.0], a))
    # sanity: the returned values must actually be zeros of the polynomial
    scale = max(1.0, float(np.max(np.abs(poly))))
    for z in raw:
        if abs(np.polyval(poly, z)) > 1e-6 * scale * max(1.0, abs(z)) ** a.size:
            raise RootFindingError(f"np.roots returned a non-root {z}")

    clusters = _cluster_roots(list(raw))
    clusters = _merge_coincident(_symmetrize_conjugates(clusters))
    return eigenstructure(clusters)


def _cluster_roots(values):
    clusters = []
    remaining = list(values)
    while remaining:
        seed = remaining.pop(0)
        members = [seed]
        changed = True
        while changed:
            changed = False
            center = np.mean(members)
            tol = CLUSTER_TOL * (1.0 + abs(center))
            for z in list(remaining):
                if abs(z - center) <= tol:
                    members.append(z)
                    remaining.remove(z)
                    changed = True
        clusters.append((complex(np.mean(members)), len(members)))
    return clusters


def _symmetrize_conjugates(clusters):
    out = []
    pending = list(clusters)
    while pending:
        val, mult = pending.pop(0)
        tol = CLUSTER_TOL * (1.0 + abs(val))
        if abs(val.imag) <= tol:
            out.append((complex(val.real), mult))
            continue
        partner = None
        for j, (v2, m2) in enumerate(pending):
            if m2 == mult and abs(v2 - val.conjugate()) <= 2 * tol:
                partner = j
                break
        if partner is None:
            raise RootFindingError(f"no conjugate partner found for root {val}")
        v2, _ = pending.pop(partner)
        mean = 0.5 * (val + v2.conjugate())
        if mean.imag < 0:
            mean = mean.conjugate()
        out.append((mean, mult))
        out.append((mean.conjugate(), mult))
    return out


def _merge_coincident(clusters):
    """Merge clusters of the same kind (real or complex) that lie within the
    clustering tolerance of each other, summing their multiplicities.

    np.roots can scatter a multiple real root into a conjugate pair and a
    real point, each farther apart than the tolerance; symmetrization then
    turns the pair into two equal real roots, which must become one."""
    merged = []
    for val, mult in clusters:
        for i, (v2, m2) in enumerate(merged):
            same_kind = (val.imag == 0) == (v2.imag == 0)
            if same_kind and abs(val - v2) <= CLUSTER_TOL * (1.0 + max(abs(val), abs(v2))):
                merged[i] = ((v2 * m2 + val * mult) / (m2 + mult), m2 + mult)
                break
        else:
            merged.append((val, mult))
    return merged


def coefficients_from_roots(es: EigenStructure) -> np.ndarray:
    """Monic characteristic polynomial coefficients (a_1 ... a_n)."""
    expanded = []
    for rt in es.roots:
        expanded.extend([rt.value] * rt.multiplicity)
    coeffs = np.poly(np.asarray(expanded))
    scale = max(1.0, float(np.max(np.abs(coeffs))))
    if np.max(np.abs(coeffs.imag)) > 1e-12 * scale:
        raise RootFindingError("characteristic polynomial is not real "
                               "(broken conjugate symmetry)")
    return coeffs.real[1:].copy()


# ---------------------------------------------------------------------------
# fundamental basis

def _overflow(es: EigenStructure, t: float) -> DegenerateSamplingError:
    """The error for a basis or exponential that overflows a float at t."""
    x = max(blk.value.real * t for blk in es.blocks)
    return DegenerateSamplingError(
        f"the modes overflow a float at alpha = {t:.6g} (largest Re lambda * "
        f"alpha = {x:.6g}); shorten the sampling intervals")


def evaluate_fundamental_basis(es: EigenStructure, t: float) -> np.ndarray:
    """(phi_1(t), ..., phi_n(t)) in the fixed real basis."""
    out = np.empty(es.n)
    try:
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
    except OverflowError:
        raise _overflow(es, t) from None
    return out


def wronskian_at_zero(es: EigenStructure) -> np.ndarray:
    """W[i, j] = i-th derivative of phi_j at t = 0 (analytic, no differences)."""
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


def impulse_response(spec: SystemSpec, t: float) -> float:
    """h(t) = sum C_i t^k e^{lambda t}; the imaginary residue must vanish."""
    if t < 0:
        raise ValueError("impulse response is defined for t >= 0")
    total = 0j
    c = spec.modes.coeffs
    scale = max(1.0, max(abs(ci) for ci in c))
    for i, rt in enumerate(spec.eigen.roots):
        sl = spec.eigen.root_slices[i]
        e = np.exp(rt.value * t)
        for k, ck in enumerate(c[sl.start:sl.stop]):
            total += ck * t ** k * e
    if abs(total.imag) > 1e-10 * scale * max(1.0, abs(total)):
        raise ValueError(f"imaginary residue {total.imag} exceeds tolerance "
                         "(inconsistent conjugate coefficients)")
    return total.real


def markov_from_modes(spec: SystemSpec) -> np.ndarray:
    """First n Markov parameters h_{i+1} = d^i h / dt^i at 0."""
    return wronskian_at_zero(spec.eigen) @ spec.real_mode_vector


def modes_from_markov(es: EigenStructure, h) -> ModeCoefficients:
    h = np.asarray(h, dtype=float)
    if h.shape != (es.n,):
        raise ValueError(f"expected {es.n} Markov parameters, got {h.shape}")
    W = wronskian_at_zero(es)
    try:
        d = np.linalg.solve(W, h)
    except np.linalg.LinAlgError as exc:  # cannot happen for a fundamental system
        raise RootFindingError("singular Wronskian-at-zero matrix") from exc
    coeffs = np.zeros(es.n, dtype=complex)
    for blk in es.blocks:
        sl = es.root_slices[blk.root_index]
        if blk.kind == "real":
            coeffs[sl] = d[blk.offset:blk.offset + blk.multiplicity]
        else:
            block_c = np.array([0.5 * d[blk.offset + 2 * k] - 0.5j * d[blk.offset + 2 * k + 1]
                                for k in range(blk.multiplicity)])
            coeffs[sl] = block_c
            # conjugate partner block
            for j, rt in enumerate(es.roots):
                if j != blk.root_index and rt.multiplicity == blk.multiplicity and \
                        abs(rt.value - blk.value.conjugate()) <= 1e-12 * (1.0 + abs(blk.value)):
                    coeffs[es.root_slices[j]] = np.conj(block_c)
                    break
    return ModeCoefficients(tuple(coeffs))


# ---------------------------------------------------------------------------
# canonical realizations

@dataclass(frozen=True, eq=False)
class Realization:
    A: np.ndarray
    b: np.ndarray
    c: np.ndarray
    tag: str  # "observability-canonical" | "controllability-canonical" | "general"
    spec: SystemSpec | None = None

    def __post_init__(self):
        for name in ("A", "b", "c"):
            arr = np.array(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @cached_property
    def jordan(self) -> RealJordanForm:
        """Real Jordan form of this realization, built on first use."""
        if self.spec is None:
            raise ValueError("realization must carry its system spec")
        return real_jordan(self.spec, self)


def observability_canonical(spec: SystemSpec) -> Realization:
    n = spec.n
    a = coefficients_from_roots(spec.eigen)
    A = np.zeros((n, n))
    for i in range(n - 1):
        A[i, i + 1] = 1.0
    A[n - 1, :] = -a[::-1]
    b = markov_from_modes(spec)
    c = np.zeros(n)
    c[0] = 1.0
    return Realization(A, b, c, "observability-canonical", spec)


def controllability_canonical(spec: SystemSpec) -> Realization:
    ob = observability_canonical(spec)
    return Realization(ob.A.T, ob.c.copy(), ob.b.copy(), "controllability-canonical", spec)


# ---------------------------------------------------------------------------
# real Jordan form

def build_jordan_matrix(es: EigenStructure) -> np.ndarray:
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


def jordan_flow(es: EigenStructure, d, alphas) -> np.ndarray:
    """exp(J alpha) d for every alpha of an array of any shape.

    Returns shape ``alphas.shape + (n,)``.  A real block applies the finite
    nilpotent series e^{lambda alpha} sum_k alpha^k/k! N^k; a pair block does
    the same on its cells read as complex numbers x + iy, on which the
    rotation-scaling cell acts as multiplication by e^{lambda alpha}.
    Overflow gives inf or nan entries, never an exception.
    """
    al = np.asarray(alphas, dtype=float)
    d = np.asarray(d, dtype=float)
    out = np.empty(al.shape + (es.n,))
    for blk in es.blocks:
        m, o = blk.multiplicity, blk.offset
        if blk.kind == "real":
            z = d[o:o + m]
            e = np.exp(blk.value.real * al)
        else:
            z = d[o:o + 2 * m:2] + 1j * d[o + 1:o + 2 * m:2]
            e = np.exp(blk.value * al)
        for p in range(m):
            # Horner form of sum_{k < m - p} alpha^k / k! z[p + k]
            s = z[m - 1]
            for k in range(m - 1 - p, 0, -1):
                s = z[p + k - 1] + (al / k) * s
            w = e * s
            if blk.kind == "real":
                out[..., o + p] = w
            else:
                out[..., o + 2 * p] = w.real
                out[..., o + 2 * p + 1] = w.imag
    return out


def confluent_vandermonde_real(es: EigenStructure) -> np.ndarray:
    """Real confluent Vandermonde basis V with A_ob V = V J.

    Complex columns are w_k(lambda)[i] = C(i, k) lambda^{i-k}; a conjugate
    pair contributes the interleaved real columns [Re w_k, -Im w_k].
    """
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


def _swap_reversal_permutation(es: EigenStructure) -> np.ndarray:
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


def _commuting_normalizer(es: EigenStructure, d: np.ndarray) -> np.ndarray:
    """Upper (cell-)Toeplitz K commuting with J such that K d = S V' b_co,
    i.e. the Jordan basis of the controllability form is normalized to
    B^{-1} b_co = d.  Requires minimality (last block coefficients nonzero)."""
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


@dataclass(frozen=True, eq=False)
class RealJordanForm:
    es: EigenStructure
    J: np.ndarray
    B: np.ndarray
    B_inv: np.ndarray
    y0: np.ndarray
    condition_number: float
    warning: str | None = None

    def expm(self, t: float) -> np.ndarray:
        """Closed-form exp(J t)."""
        return exp_jordan(self.es, t)

    def expA(self, t: float) -> np.ndarray:
        """exp(A t) = B exp(J t) B^{-1} for the realization this was built from."""
        return self.B @ self.expm(t) @ self.B_inv


def real_jordan(spec: SystemSpec, real: Realization) -> RealJordanForm:
    """Real Jordan form of a canonical realization, with B built analytically
    from the eigenstructure (never by numerical eigendecomposition of A)."""
    es = spec.eigen
    J = build_jordan_matrix(es)
    V = confluent_vandermonde_real(es)
    if real.tag == "observability-canonical":
        B = V
    elif real.tag == "controllability-canonical":
        report = check_minimality(spec)
        if not report.minimal:
            raise NonMinimalError("controllability-form Jordan basis needs a minimal "
                                  f"system; offending blocks {report.offending_blocks}")
        S = _swap_reversal_permutation(es)
        B0 = np.linalg.solve(V.T, S)
        K = _commuting_normalizer(es, spec.real_mode_vector)
        B = B0 @ K
    else:
        raise ValueError("real_jordan supports the two canonical forms only")
    B_inv = np.linalg.inv(B)
    y0 = B_inv @ real.b
    cond = float(np.linalg.cond(B))
    warning = None
    if not np.isfinite(cond) or cond > B_CONDITION_WARN:
        warning = f"ill-conditioned change of basis (cond = {cond:.3e})"
    return RealJordanForm(es, J, B, B_inv, y0, cond, warning)


# ---------------------------------------------------------------------------
# minimality

@dataclass(frozen=True)
class MinimalityReport:
    minimal: bool
    offending_blocks: tuple[int, ...]
    magnitudes: tuple[float, ...]


def check_minimality(spec: SystemSpec) -> MinimalityReport:
    """True iff the highest-order modal coefficient of every block is nonzero
    (relative to the largest coefficient magnitude)."""
    c = np.asarray(spec.modes.coeffs)
    scale = float(np.max(np.abs(c))) or 1.0
    offending = []
    mags = []
    for blk in spec.eigen.blocks:
        sl = spec.eigen.root_slices[blk.root_index]
        mag = abs(c[sl.stop - 1])
        mags.append(float(mag))
        if mag <= MINIMALITY_TOL * scale:
            offending.append(blk.root_index)
    return MinimalityReport(not offending, tuple(offending), tuple(mags))
