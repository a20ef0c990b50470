"""Modal representation of SISO LTI systems and the real Jordan frame of
their observability-canonical realization.

A system is described by its eigenstructure (the distinct characteristic
roots with multiplicities) together with modal coefficients of the impulse
response h(t) = sum_i C_i phi_i(t).  All downstream arithmetic uses the
*real* fundamental basis, ordered block-wise in first-appearance order of
the roots:

    real root lambda, multiplicity m:
        t^k e^{lambda t}                                   k = 0 .. m-1
    complex pair a +- jb (b > 0), multiplicity m:
        t^k e^{a t} cos(b t),  t^k e^{a t} sin(b t)        k = 0 .. m-1

Each block's slots hold m cells: a real cell is one slot, a pair cell the
slots (x, y) = (Re, Im), which is numpy's complex128 layout; ``Block.cells``
views them as complex numbers x + iy, on which the pair's rotation-scaling
acts as multiplication by lambda.

The one realization the package works in is the observability-canonical
(companion) form (A, b, c = e_1), and only through its real Jordan frame,
whose constants are read-only properties built once, on first read:
``EigenStructure`` holds the basis seed (d, R), the Wronskian scale D, the
confluent Vandermonde basis B with A B = B J, and B^{-1}; ``SystemSpec``
holds y0 = B^{-1} b, the input vector in the Jordan frame.  The Wronskian at
zero is B diag(D), so y0 is D times the real mode vector, in closed form;
and the output row c flows as c B exp(J t) = phi(t) D^{-1}, so the
Jordan-frame observability matrix is O_J = Phi D^{-1}, and the companion
frame's is O_J B^{-1}.  A and b themselves are never built, and B only for
Markov parameters and the companion frame's O.  Every exponential comes
from one batched kernel, ``jordan_flow``: the flow exp(J alpha) d for a
whole array of alphas and a stack of seeds d, with no n x n exponential.
The basis, the mode vectors, O_J, O, G_J, the free response of a deadbeat
plan, the steps of an impulse train, the design grid and the third-order
spiral (the flow of the normalized mode vector) all go through it;
``checked_flow`` raises DegenerateSamplingError on overflow, and
``require_finite`` raises it for values read from a flow.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from nusample.errors import DegenerateSamplingError, RootFindingError

CLUSTER_TOL = 1e-7        # relative distance below which two roots count as one
MINIMALITY_TOL = 1e-9     # relative tolerance on the last modal coefficient of a block


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

    A pair's cell k, slots (offset + 2k, offset + 2k + 1) = (Re, Im), is a
    complex128 in numpy's layout, so ``cells`` views it without a copy.
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

    def cells(self, v: np.ndarray) -> np.ndarray:
        """Writable view of this block's m cells along the last axis of ``v``
        (which must be contiguous): the slots themselves for a real block,
        complex numbers x + iy for a pair."""
        cells = v[..., self.offset:self.offset + self.size]
        return cells if self.kind == "real" else cells.view(complex)


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
    def _basis_seed(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only (d, R) with basis(t) = exp(J t) d @ R.  With d a one in
        the last cell of each block, cell m-1-k of the flow is
        t^k e^{lambda t} / k!, so R reverses each block's cells and scales
        cell k by k!."""
        eye = np.eye(self.n)
        d = np.zeros(self.n)
        R = np.zeros((self.n, self.n))
        for blk in self.blocks:
            blk.cells(d)[-1] = 1.0
            factorials = [math.factorial(k) for k in range(blk.multiplicity)]
            blk.cells(R)[:] = blk.cells(eye)[:, ::-1] * factorials
        d.setflags(write=False)
        R.setflags(write=False)
        return d, R

    @cached_property
    def _wronskian_scale(self) -> np.ndarray:
        """Read-only D with W = B diag(D) for the Wronskian at zero W and the
        confluent Vandermonde basis B: W's cell k carries the falling
        factorial i!/(i-k)! where B's carries C(i, k), and B's pair cells are
        conjugated, so D is k! in a real slot and in a pair's x slot, and -k!
        in its y slot.  It also scales the basis to the flow of the output
        row: e_1 B exp(J t) = phi(t) D^{-1}."""
        D = np.empty(self.n)
        for blk in self.blocks:
            factorials = [math.factorial(k) for k in range(blk.multiplicity)]
            blk.cells(D)[:] = (factorials if blk.kind == "real"
                               else [complex(f, -f) for f in factorials])
        D.setflags(write=False)
        return D

    @cached_property
    def B(self) -> np.ndarray:
        """Read-only real confluent Vandermonde basis B, with A B = B J for the
        companion matrix A of the roots.  Its complex columns are
        w_k(lambda)[i] = C(i, k) lambda^{i-k}; cell k of a conjugate pair
        holds conj(w_k).  Raises RootFindingError when an entry overflows a
        float."""
        n = self.n
        B = np.zeros((n, n))
        try:
            for blk in self.blocks:
                cells = blk.cells(B)
                zero = 0.0 if blk.kind == "real" else 0j  # conj(0j) is -0j in the pairs
                for k in range(blk.multiplicity):
                    col = (math.comb(i, k) * blk.value ** (i - k) if i >= k else zero
                           for i in range(n))
                    cells[:, k] = [z.conjugate() for z in col]
            finite = np.isfinite(B).all()
        except OverflowError:  # from float or complex ** in Python
            finite = False
        if not finite:
            r = max(abs(blk.value) for blk in self.blocks)
            raise RootFindingError(
                f"the Vandermonde basis of the roots overflows a float at "
                f"|lambda|^(n-1) = {r:.6g}^{n - 1}; rescale time so that the "
                "roots are smaller")
        B.setflags(write=False)
        return B

    @cached_property
    def B_inv(self) -> np.ndarray:
        """Read-only B^{-1}, built on first read.  Raises RootFindingError
        when B is singular to working precision."""
        try:
            B_inv = np.linalg.inv(self.B)
        except np.linalg.LinAlgError as exc:  # distinct roots too close to tell apart
            raise RootFindingError("the Vandermonde basis of the roots is singular to "
                                   "working precision; separate the roots") from exc
        B_inv.setflags(write=False)
        return B_inv

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
class SystemSpec:
    """h(t) = sum C_i t^k e^{lambda t}: the roots, and the coefficients C_i as a
    tuple of complex, ordered block-wise to match the root entries of ``eigen``."""

    eigen: EigenStructure
    coeffs: tuple[complex, ...]

    def __post_init__(self):
        coeffs = tuple(complex(c) for c in self.coeffs)
        object.__setattr__(self, "coeffs", coeffs)
        if len(coeffs) != self.eigen.n:
            raise ValueError(f"expected {self.eigen.n} modal coefficients, "
                             f"got {len(coeffs)}")
        # a complex coefficient with finite parts may still have a modulus
        # past the float range, which no scale or norm of them survives
        if not all(math.isfinite(math.hypot(c.real, c.imag)) for c in coeffs):
            raise ValueError("modal coefficients must be finite, and so must "
                             "their moduli")
        scale = max(map(abs, coeffs)) or 1.0
        # h(t) must be real: real-root blocks carry real coefficients and
        # conjugate-pair blocks carry conjugate coefficients.
        slices = self.eigen.root_slices
        for blk in self.eigen.blocks:
            if blk.kind == "real":
                i = blk.root_index
                if max(abs(c.imag) for c in coeffs[slices[i]]) > 1e-9 * scale:
                    raise ValueError(f"real-root block {i} has complex coefficients")
            else:
                i, j = sorted((blk.root_index, blk.partner_index))
                # the pair's cells in real_mode_vector are 2 conj(C)
                half = np.finfo(float).max / 2
                if max(max(abs(c.real), abs(c.imag)) for c in coeffs[slices[i]]) > half:
                    raise ValueError(f"blocks {i} and {j}: a pair's modal coefficients need "
                                     f"|Re| and |Im| at most {half:.6g}, half the float maximum")
                if max(abs(ci - cj.conjugate())
                       for ci, cj in zip(coeffs[slices[i]], coeffs[slices[j]])) > 1e-9 * scale:
                    raise ValueError(f"blocks {i} and {j} do not carry conjugate coefficients")

    @property
    def n(self) -> int:
        return self.eigen.n

    @cached_property
    def real_mode_vector(self) -> np.ndarray:
        """Coefficients of h(t) in the real fundamental basis."""
        d = np.empty(self.eigen.n)
        c = self.coeffs
        for blk in self.eigen.blocks:
            cells = blk.cells(d)
            pair = blk.kind == "pair"
            # a pair's cell is 2 conj(C): 2 Re(C e^{lambda t}) = 2 Re C cos - 2 Im C sin
            for k, ck in enumerate(c[self.eigen.root_slices[blk.root_index]]):
                cells[k] = complex(2.0 * ck.real, -2.0 * ck.imag) if pair else ck.real
        d.setflags(write=False)
        return d

    @cached_property
    def y0(self) -> np.ndarray:
        """Read-only input vector in the Jordan frame, y0 = B^{-1} b: the
        Markov vector is b = W d for the Wronskian at zero W = B diag(D) and
        the real mode vector d, so y0 = D d, in closed form.  Raises
        DegenerateSamplingError when an entry of y0 overflows a float."""
        with np.errstate(over="ignore"):
            y0 = self.eigen._wronskian_scale * self.real_mode_vector
        if not np.isfinite(y0).all():
            raise DegenerateSamplingError("the input vector y0 = D d overflows a float; "
                                          "rescale the modal coefficients")
        y0.setflags(write=False)
        return y0


def system_from_modes(roots, coeffs) -> SystemSpec:
    return SystemSpec(eigenstructure(roots), coeffs)


def system_from_markov(roots, markov) -> SystemSpec:
    es = eigenstructure(roots)
    return SystemSpec(es, modes_from_markov(es, np.asarray(markov, dtype=float)))


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
    shape ``t.shape + (n,)``: the flow of the structure's basis seed (see
    ``EigenStructure._basis_seed``)."""
    d, reverse = es._basis_seed
    return checked_flow(es, d, t, reverse)


def modes_from_markov(es: EigenStructure, h) -> tuple[complex, ...]:
    h = np.asarray(h, dtype=float)
    if h.shape != (es.n,):
        raise ValueError(f"expected {es.n} Markov parameters, got {h.shape}")
    W = es.B * es._wronskian_scale  # the Wronskian at zero
    try:
        d = np.linalg.solve(W, h)
    except np.linalg.LinAlgError as exc:  # cannot happen for a fundamental system
        raise RootFindingError("singular Wronskian-at-zero matrix") from exc
    if not np.isfinite(d).all():
        raise RootFindingError("the modal coefficients solved from the Markov "
                               "parameters overflow a float")
    coeffs = np.zeros(es.n, dtype=complex)
    for blk in es.blocks:
        block_c = blk.cells(d)
        if blk.kind == "pair":
            block_c = 0.5 * block_c.real - 0.5j * block_c.imag  # conj(cell) / 2
            coeffs[es.root_slices[blk.partner_index]] = np.conj(block_c)
        coeffs[es.root_slices[blk.root_index]] = block_c
    return tuple(coeffs.tolist())


# ---------------------------------------------------------------------------
# the Jordan flow

def jordan_flow(es: EigenStructure, d, alphas) -> np.ndarray:
    """exp(J alpha) d for every alpha of an array of any shape and every seed
    d of a stack, shape (..., n).

    Returns shape ``alphas.shape + d.shape``.  A real block applies the finite
    nilpotent series e^{lambda alpha} sum_k alpha^k/k! N^k; a pair block does
    the same on its cells read as complex numbers x + iy, on which the
    rotation-scaling cell acts as multiplication by e^{lambda alpha}.
    Overflow gives inf or nan entries, never an exception or a warning, so
    no caller sets numpy's error state for it.  For an array of alphas each
    seed's flow is, bit for bit, the flow of that seed alone; for a single
    alpha numpy's scalar arithmetic serves a single seed, its array loops a
    stack, and the two may differ in the last bit.
    """
    al = np.asarray(alphas, dtype=float)
    d = np.ascontiguousarray(d, dtype=float)
    out = np.empty(al.shape + d.shape)
    spread = al.shape + (1,) * (d.ndim - 1)  # one alpha for a whole seed of a stack
    al_spread = al.reshape(spread)
    cell_axis_first = (d.ndim - 1, *range(d.ndim - 1))
    with np.errstate(over="ignore", invalid="ignore"):
        for blk in es.blocks:
            m = blk.multiplicity
            z = blk.cells(d).transpose(cell_axis_first)  # z[k]: cell k of every seed
            cells = blk.cells(out)
            # a real block's exponential stays a float array, like its cells
            e = np.exp(blk.value.real * al) if blk.kind == "real" else np.exp(blk.value * al)
            if d.ndim > 1:  # a lone seed keeps a single alpha's e a numpy scalar
                e = np.reshape(e, spread)
            for p in range(m):
                # Horner form of sum_{k < m - p} alpha^k / k! z[p + k]
                s = z[m - 1]
                for k in range(m - 1 - p, 0, -1):
                    s = z[p + k - 1] + (al_spread / k) * s
                cells[..., p] = e * s
    return out


def checked_flow(es: EigenStructure, d, alphas, right: np.ndarray | None = None) -> np.ndarray:
    """``jordan_flow(es, d, alphas) @ right``, or the flow itself without
    ``right``, raising DegenerateSamplingError for the first alpha whose
    result has an entry that is not a finite float."""
    al = np.asarray(alphas, dtype=float)
    out = jordan_flow(es, d, al)
    if right is not None:
        with np.errstate(over="ignore", invalid="ignore"):
            out = out @ right
    return require_finite(es, al, out)


def require_finite(es: EigenStructure, alphas: np.ndarray, values: np.ndarray) -> np.ndarray:
    """``values``, an array of shape ``alphas.shape + (...)`` read from the
    flow at ``alphas``; raises DegenerateSamplingError for the first alpha
    whose values have an entry that is not a finite float."""
    bad = ~np.isfinite(values.reshape(alphas.shape + (-1,))).all(axis=-1)
    if bad.any():
        raise _overflow(es, float(alphas[bad][0]))
    return values


# ---------------------------------------------------------------------------
# minimality

@dataclass(frozen=True)
class MinimalityReport:
    minimal: bool
    offending_blocks: tuple[int, ...]


def check_minimality(spec: SystemSpec) -> MinimalityReport:
    """True iff the highest-order modal coefficient of every block is nonzero
    (relative to the largest coefficient magnitude)."""
    c = spec.coeffs
    scale = max(map(abs, c)) or 1.0
    offending = tuple(blk.root_index for blk in spec.eigen.blocks
                      if abs(c[spec.eigen.root_slices[blk.root_index].stop - 1])
                      <= MINIMALITY_TOL * scale)
    return MinimalityReport(not offending, offending)


def __getattr__(name):
    # perfbench/spans.py still reads ``lti.scipy.linalg.block_diag`` when it
    # installs a trace, so ``scipy`` is imported here only when asked for and
    # never by the runtime.  Delete this once the benchmark drops that
    # binding (ROADMAP item 10).
    if name == "scipy":
        import scipy.linalg
        return scipy
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
