"""Synthesis of sampling sequences maximizing mode-vector orthogonality.

Three routes:

* closed form for a 2nd-order complex pair (quarter-turn rule),
* the spiral-geometry step for the 3rd-order {real pole, complex pair} case,
* a greedy grid search with golden-section refinement for arbitrary order;
  each greedy step scores its whole candidate grid in one batched call.

The 3rd-order geometry works in a normalized frame where the initial mode
vector is (1, 0, 1)', so the sampled vectors trace the spiral
Y(alpha) = (e^{a alpha} cos(b alpha), e^{a alpha} sin(b alpha), e^{lambda alpha})'
on the surface z = (x^2 + y^2)^{lambda/2a}.  Scaling/rotating to that frame
commutes with the flow, so the chosen instants are unaffected.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize_scalar

from nusample.analysis import (
    DegreeMetrics,
    SamplingSequence,
    alphas,
    degree_metrics,
    degree_metrics_from_vectors,
    sampled_mode_vectors,
)
from nusample.errors import DesignError, InadmissibleDesignError
from nusample.lti import SystemSpec, check_minimality, jordan_flow, system_from_modes

DEFAULT_M_MAX = 8
MIN_GRAM_DET = 1e-12  # below this every grid candidate counts as inadmissible


@dataclass(frozen=True)
class DesignResult:
    sequence: SamplingSequence
    metric: DegreeMetrics
    method: str  # "closed-form-2nd" | "geometric-3rd" | "generic-search"
    branch_m: int | None = None


@dataclass(frozen=True, eq=False)
class GeometryTrace:
    """Normalized-frame geometry of the 3rd-order design step."""

    surface_exponent: float          # lambda / (2 a)
    spiral: np.ndarray               # rows (alpha, x, y, z)
    vectors: dict                    # "Y0", "Y1", "Y2" -> 3-vectors
    projections: dict                # "P0", "P1", "P2" -> 2-vectors
    q2: np.ndarray
    mu: float
    rotation_angle: float            # M, counterclockwise from P0 to P2 in [0, 2pi)


# ---------------------------------------------------------------------------
# 2nd order: closed form

def optimal_interval_second_order(a: float, b: float, t0: float = 0.0,
                                  m: int = 0) -> DesignResult:
    """b (t1 - t0) = (2m + 1) pi / 2: the second mode vector is rotated a
    quarter turn (plus m half turns) from the first, hence orthogonal."""
    if b <= 0:
        raise DesignError(f"need b > 0, got {b}")
    if m < 0:
        raise DesignError("branch integer m must be nonnegative")
    t1 = t0 + (2 * m + 1) * math.pi / (2.0 * b)
    seq = SamplingSequence((t0, t1))
    lam = complex(a, b)
    spec = system_from_modes([(lam, 1), (lam.conjugate(), 1)], [0.5, 0.5])
    metric = degree_metrics(spec, alphas(seq))
    return DesignResult(seq, metric, "closed-form-2nd", m)


# ---------------------------------------------------------------------------
# 3rd order: spiral geometry

def _third_order_params(spec: SystemSpec):
    blocks = spec.eigen.blocks
    kinds = sorted(blk.kind for blk in blocks)
    if spec.n != 3 or kinds != ["pair", "real"]:
        raise DesignError("geometric design needs a 3rd-order system with one "
                          "real pole and one complex pair")
    real_blk = next(blk for blk in blocks if blk.kind == "real")
    pair_blk = next(blk for blk in blocks if blk.kind == "pair")
    return real_blk.value.real, pair_blk.value.real, pair_blk.value.imag


def spiral_point(spec: SystemSpec, alpha: float) -> np.ndarray:
    """Point of the parametric spiral traced by the normalized mode vector."""
    lam, a, b = _third_order_params(spec)
    ea = math.exp(a * alpha)
    return np.array([ea * math.cos(b * alpha), ea * math.sin(b * alpha),
                     math.exp(lam * alpha)])


def next_instant_third_order(spec: SystemSpec, t0: float, t1: float,
                             m_max: int = DEFAULT_M_MAX):
    """Choose t2 so the third mode vector is as orthogonal as possible to the
    first two, following the spiral-and-surface construction.

    Returns (DesignResult, GeometryTrace).  Candidate branches
    b (t2 - t0) = M + 2 pi m are enumerated for m = 0 .. m_max (keeping only
    those with t2 > t1) and the one minimizing the surface/spiral height
    mismatch is selected; ties break toward the smallest m.
    """
    lam, a, b = _third_order_params(spec)
    if a == 0.0:
        raise DesignError("surface exponent lambda/2a is undefined for a = 0; "
                          "use the generic search instead")
    if abs(lam - a) < 1e-12 * (1.0 + abs(a)):
        raise DesignError("the surface scaling relation degenerates for lambda = a")
    if not t1 > t0:
        raise DesignError("need t1 > t0")
    report = check_minimality(spec)
    if not report.minimal:
        raise DesignError(f"system is not minimal (blocks {report.offending_blocks})")

    a0, a1 = 0.0, t1 - t0
    Y0 = spiral_point(spec, a0)
    Y1 = spiral_point(spec, a1)
    cross = np.cross(Y0, Y1)
    nrm = np.linalg.norm(cross)
    if nrm <= 1e-12 * np.linalg.norm(Y0) * np.linalg.norm(Y1):
        raise DesignError("Y0 and Y1 are parallel: no orthogonal direction exists")
    if cross[2] < 0:
        cross = -cross  # endpoint must lie on the upper surface sheet (z > 0)
    if cross[2] <= 1e-12 * nrm:
        raise DesignError("Y0 x Y1 lies in the XY-plane: no point of the surface "
                          "is orthogonal to both")
    P0, P1, P2 = Y0[:2], Y1[:2], cross[:2]
    r2 = float(np.hypot(P2[0], P2[1]))
    if r2 <= 1e-12 * nrm:
        raise DesignError("Y0 x Y1 is vertical: rotation target undefined")

    # counterclockwise angle from P0 = (1, 0) to P2, in [0, 2 pi)
    M = math.atan2(P2[1], P2[0]) % (2.0 * math.pi)

    # mu > 0 scaling Y0 x Y1 onto the surface z = (x^2 + y^2)^(lambda/2a):
    # mu * z_c = (mu * r2)^(lambda/a)  =>  mu^(1 - lambda/a) = r2^(lambda/a) / z_c
    expo = lam / a
    mu = (r2 ** expo / cross[2]) ** (1.0 / (1.0 - expo))
    q2 = mu * cross
    q2_height = (mu * mu * r2 * r2) ** (lam / (2.0 * a))

    candidates = []
    for m in range(m_max + 1):
        alpha2 = (M + 2.0 * math.pi * m) / b
        t2 = t0 + alpha2
        if t2 <= t1:
            continue
        score = abs(q2_height - math.exp(lam * alpha2))
        candidates.append((score, m, t2, alpha2))
    if not candidates:
        raise DesignError(f"no branch m in [0, {m_max}] yields t2 > t1")
    _, best_m, t2, alpha2 = min(candidates, key=lambda c: (c[0], c[1]))

    seq = SamplingSequence((t0, t1, t2))
    metric = degree_metrics(spec, alphas(seq))
    result = DesignResult(seq, metric, "geometric-3rd", best_m)

    grid = np.linspace(0.0, 1.05 * alpha2, 400)
    spiral = np.array([[g, *spiral_point(spec, g)] for g in grid])
    trace = GeometryTrace(
        surface_exponent=lam / (2.0 * a),
        spiral=spiral,
        vectors={"Y0": Y0, "Y1": Y1, "Y2": spiral_point(spec, alpha2)},
        projections={"P0": P0, "P1": P1, "P2": P2},
        q2=q2,
        mu=float(mu),
        rotation_angle=M,
    )
    return result, trace


def export_geometry_csv(trace: GeometryTrace, path) -> None:
    """Columns (alpha, x, y, z, kind); enough to replot the construction."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["alpha", "x", "y", "z", "kind"])
        for row in trace.spiral:
            w.writerow([f"{row[0]:.12g}", f"{row[1]:.12g}", f"{row[2]:.12g}",
                        f"{row[3]:.12g}", "spiral"])
        for name, v in trace.vectors.items():
            w.writerow(["", f"{v[0]:.12g}", f"{v[1]:.12g}", f"{v[2]:.12g}", name])
        for name, p in trace.projections.items():
            w.writerow(["", f"{p[0]:.12g}", f"{p[1]:.12g}", "0", name])
        q = trace.q2
        w.writerow(["", f"{q[0]:.12g}", f"{q[1]:.12g}", f"{q[2]:.12g}", "Q2"])


# ---------------------------------------------------------------------------
# generic greedy search

def _gram_dets(spec: SystemSpec, alpha_rows: np.ndarray) -> np.ndarray:
    """Normalized Gram determinant of the sampled mode vectors of every row
    of ``alpha_rows`` (shape (..., k)), in one kernel call.  A candidate
    whose Gram matrix is not finite (overflowing flow, zero-norm vector)
    scores 0, so it never wins."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        Y = jordan_flow(spec.eigen, spec.real_mode_vector, alpha_rows)
        Yn = Y / np.linalg.norm(Y, axis=-1, keepdims=True)
        G = Yn @ np.swapaxes(Yn, -1, -2)
    G[~np.isfinite(G).all(axis=(-2, -1))] = 0.0
    return np.clip(np.linalg.det(G), 0.0, 1.0)


def _gram_det(spec: SystemSpec, instants) -> float:
    t = np.asarray(instants, dtype=float)
    return float(_gram_dets(spec, t[-1] - t[::-1]))


def design_sequence_generic(spec: SystemSpec, t0: float = 0.0,
                            bounds: tuple[float, float] = (0.05, 5.0),
                            steps: int = 200) -> DesignResult:
    """Greedy sequential search: extend the sequence one instant at a time by
    scoring a bounded grid of interval lengths in one batched call and keeping
    the candidate maximizing the normalized Gram determinant, then refine each
    instant after t0 once by bounded golden-section search, at least dmin
    from its neighbors and, for the last one, at most dmax after its
    predecessor."""
    dmin, dmax = bounds
    if not (dmin > 0 and dmax > dmin):
        raise DesignError(f"invalid interval bounds {bounds}")
    if steps < 1:
        raise DesignError(f"need at least one grid step, got {steps}")
    report = check_minimality(spec)
    if not report.minimal:
        raise DesignError(f"system is not minimal (blocks {report.offending_blocks})")
    n = spec.n
    instants = [float(t0)]
    for _ in range(1, n):
        grid = instants[-1] + np.linspace(dmin, dmax, steps)
        # alphas of each candidate sequence instants + [t]: (0, t - t_{j-1}, ..., t - t_0)
        cand = np.column_stack([np.zeros(steps), grid[:, None] - instants[::-1]])
        scores = _gram_dets(spec, cand)
        best = int(np.argmax(scores))  # argmax takes the first (smallest) instant on ties
        instants.append(float(grid[best]))

    # one refinement pass, each instant at least dmin from its neighbors
    for i in range(1, n):
        lo = instants[i - 1] + dmin
        hi = instants[i + 1] - dmin if i + 1 < n else instants[i - 1] + dmax
        if hi <= lo:
            continue
        res = minimize_scalar(
            lambda t, i=i: -_gram_det(spec, instants[:i] + [float(t)] + instants[i + 1:]),
            bounds=(lo, hi), method="bounded",
            options={"xatol": 1e-10 * (1.0 + abs(hi))})
        if -res.fun >= _gram_det(spec, instants):
            instants[i] = float(res.x)

    seq = SamplingSequence(tuple(instants))
    with np.errstate(over="ignore", invalid="ignore"):
        Y = sampled_mode_vectors(spec, alphas(seq))
        norms = np.linalg.norm(Y, axis=0)
    if not (np.isfinite(norms).all() and (norms > 0.0).all()):
        raise DesignError("the sampled mode vectors of the designed sequence "
                          "overflow or underflow; narrow the interval bounds")
    metric = degree_metrics_from_vectors(Y)
    result = DesignResult(seq, metric, "generic-search", None)
    if n > 1 and metric.normalized_gram_det <= MIN_GRAM_DET:
        raise InadmissibleDesignError("every grid candidate is inadmissible",
                                      best=result)
    return result
