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
analytically from a confluent Vandermonde basis, once per ``Realization``.
Every exponential comes from one batched kernel, ``jordan_flow``: the flow
exp(J alpha) d for a whole array of alphas, with no n x n exponential.  The
basis and h(t) (one row of the basis times the real mode vector), the mode
vectors, O, G, the state transitions, the design grid and the third-order
spiral (the flow of the normalized mode vector) all go through it;
``checked_flow`` raises DegenerateSamplingError on overflow.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

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
    partner_index  for "pair", the index of the conjugate root; else None
    """

    kind: str
    value: complex
    multiplicity: int
    offset: int
    root_index: int
    partner_index: int | None = None

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
        self.blocks  # pairs the conjugate roots, or raises

    @cached_property
    def n(self) -> int:
        return sum(rt.multiplicity for rt in self.roots)

    @cached_property
    def r(self) -> int:
        return len(self.roots)

    @cached_property
    def blocks(self) -> tuple[Block, ...]:
        """The blocks in first-appearance order; the one place conjugate
        roots are paired."""
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
                if j is None:
                    raise ValueError(f"complex root {rt.value} lacks a conjugate partner")
                used.add(j)
                rep, partner = (i, j) if rt.value.imag > 0 else (j, i)
                blocks.append(Block("pair", self.roots[rep].value, rt.multiplicity,
                                    offset, rep, partner))
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
        slices = self.eigen.root_slices
        for blk in self.eigen.blocks:
            if blk.kind == "real":
                i = blk.root_index
                if np.max(np.abs(c[slices[i]].imag)) > 1e-9 * scale:
                    raise ValueError(f"real-root block {i} has complex coefficients")
            else:
                i, j = sorted((blk.root_index, blk.partner_index))
                if np.max(np.abs(c[slices[i]] - np.conj(c[slices[j]]))) > 1e-9 * scale:
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
    """The error for a flow that overflows a float at alpha = t."""
    x = max(blk.value.real * t for blk in es.blocks)
    return DegenerateSamplingError(
        f"the modes overflow a float at alpha = {t:.6g} (largest Re lambda * "
        f"alpha = {x:.6g}); shorten the sampling intervals")


def evaluate_fundamental_basis(es: EigenStructure, t) -> np.ndarray:
    """(phi_1(t), ..., phi_n(t)) for every t of an array of any shape, as
    shape ``t.shape + (n,)``.  With d a one in the last slot (cell) of each
    block, slot m-1-k of exp(J t) d is t^k e^{lambda t} / k!, so the basis is
    that flow with each block's slots reversed and slot k scaled by k!."""
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
    return checked_flow(es, d, t, reverse)


def _confluent(es: EigenStructure, weight, im_sign: float) -> np.ndarray:
    """M[i, k] = weight(i, k) lambda^{i-k} (0 for i < k), column k of each
    block: a real block takes the real part, a pair block the interleaved
    real columns [Re, im_sign * Im]."""
    n = es.n
    M = np.zeros((n, n))
    for blk in es.blocks:
        lam = blk.value
        for k in range(blk.multiplicity):
            for i in range(n):
                z = weight(i, k) * lam ** (i - k) if i >= k else 0.0
                if blk.kind == "real":
                    M[i, blk.offset + k] = z.real
                else:
                    M[i, blk.offset + 2 * k] = z.real
                    M[i, blk.offset + 2 * k + 1] = im_sign * z.imag
    return M


def wronskian_at_zero(es: EigenStructure) -> np.ndarray:
    """W[i, j] = i-th derivative of phi_j at t = 0 (analytic, no differences)."""
    return _confluent(es, math.perm, 1.0)


def impulse_response(spec: SystemSpec, t: float) -> float:
    """h(t) = sum C_i t^k e^{lambda t}, one row of the real basis times the
    real mode vector."""
    if t < 0:
        raise ValueError("impulse response is defined for t >= 0")
    return float(evaluate_fundamental_basis(spec.eigen, t) @ spec.real_mode_vector)


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
            coeffs[es.root_slices[blk.partner_index]] = np.conj(block_c)
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
    """The real Jordan matrix J, block-diagonal in the order of ``es.blocks``."""
    J = np.zeros((es.n, es.n))
    for blk in es.blocks:
        m, o = blk.multiplicity, blk.offset
        if blk.kind == "real":
            for k in range(m):
                J[o + k, o + k] = blk.value.real
                if k + 1 < m:
                    J[o + k, o + k + 1] = 1.0
        else:
            a, b = blk.value.real, blk.value.imag
            for k in range(m):
                r = o + 2 * k
                J[r:r + 2, r:r + 2] = ((a, -b), (b, a))
                if k + 1 < m:
                    J[r, r + 2] = J[r + 1, r + 3] = 1.0
    return J


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


def checked_flow(es: EigenStructure, d, alphas, right: np.ndarray) -> np.ndarray:
    """``jordan_flow(es, d, alphas) @ right``, raising DegenerateSamplingError
    for the first alpha whose row has an entry that is not a finite float."""
    al = np.asarray(alphas, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        out = jordan_flow(es, d, al) @ right
    bad = ~np.isfinite(out).all(axis=-1)
    if bad.any():
        raise _overflow(es, float(al[bad][0]))
    return out


def confluent_vandermonde_real(es: EigenStructure) -> np.ndarray:
    """Real confluent Vandermonde basis V with A_ob V = V J.

    Complex columns are w_k(lambda)[i] = C(i, k) lambda^{i-k}; a conjugate
    pair contributes the interleaved real columns [Re w_k, -Im w_k].
    """
    return _confluent(es, math.comb, -1.0)


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


def __getattr__(name):
    # perfbench/spans.py still reads ``lti.scipy.linalg.block_diag`` when it
    # installs a trace, so ``scipy`` is imported here only when asked for and
    # never by the runtime.  Delete this once the benchmark drops that
    # binding (ROADMAP item 7).
    if name == "scipy":
        import scipy.linalg
        return scipy
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
