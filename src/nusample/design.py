"""Synthesis of sampling sequences maximizing mode-vector orthogonality.

Three routes:

* closed form for a 2nd-order complex pair (quarter-turn rule),
* the spiral-geometry step for the 3rd-order {real pole, complex pair} case,
* a greedy grid search for arbitrary order: each greedy step scores its
  whole candidate grid in one batched call, and each instant is then refined
  by two ever finer grids and one parabolic step, each one batched call.

The 3rd-order geometry works in a normalized frame where the initial mode
vector is (1, 0, 1)', so the sampled vectors trace the spiral
Y(alpha) = (e^{a alpha} cos(b alpha), e^{a alpha} sin(b alpha), e^{lambda alpha})'
on the surface z = (x^2 + y^2)^{lambda/2a}.  That spiral is the Jordan flow
exp(J alpha) of the normalized mode vector, so every point of it, the branch
heights included, comes from ``lti.jordan_flow``.  Scaling/rotating to that
frame commutes with the flow, so the chosen instants are unaffected.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from nusample.analysis import (
    DegreeMetrics,
    SamplingSequence,
    _norms,
    alphas,
    degree_metrics_from_vectors,
    sampled_mode_vectors,
    unit_vectors,
)
from nusample.errors import DesignError, InadmissibleDesignError
from nusample.lti import Block, SystemSpec, check_minimality, jordan_flow, system_from_modes

DEFAULT_M_MAX = 8
MIN_GRAM_DET = 1e-12  # a design at or below this Gram determinant is inadmissible


@dataclass(frozen=True)
class DesignResult:
    sequence: SamplingSequence
    metric: DegreeMetrics
    method: str  # "closed-form-2nd" | "geometric-3rd" | "generic-search"
    branch_m: int | None = None


def _designed_metric(spec: SystemSpec, seq: SamplingSequence) -> DegreeMetrics:
    return degree_metrics_from_vectors(sampled_mode_vectors(spec, alphas(seq)))


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
    return DesignResult(seq, _designed_metric(spec, seq), "closed-form-2nd", m)


# ---------------------------------------------------------------------------
# 3rd order: spiral geometry

def _third_order_blocks(spec: SystemSpec):
    """(real block, pair block) of a 3rd-order {real pole, complex pair} system."""
    blocks = spec.eigen.blocks
    kinds = [blk.kind for blk in blocks]
    if spec.n != 3 or sorted(kinds) != ["pair", "real"]:
        raise DesignError("geometric design needs a 3rd-order system with one "
                          "real pole and one complex pair")
    return blocks[kinds.index("real")], blocks[kinds.index("pair")]


def _geometric_obstacle(real: Block, pair: Block) -> str | None:
    """Why the spiral-and-surface step cannot run on these blocks, or None
    when it can: the surface exponent lambda/2a needs a != 0, and the
    scaling relation needs lambda != a."""
    lam, a = real.value.real, pair.value.real
    if a == 0.0:
        return ("surface exponent lambda/2a is undefined for a = 0; "
                "use the generic search instead")
    if abs(lam - a) < 1e-12 * (1.0 + abs(a)):
        return "the surface scaling relation degenerates for lambda = a"
    return None


def _spiral(spec: SystemSpec, alphas) -> np.ndarray:
    """(x, y, z) of the normalized mode vector at every alpha of an array of
    any shape: the flow of d = (1, 0) in the pair's cell and 1 in the real
    slot, read as (Re, Im) of the pair and the real slot.  Overflow gives inf
    or nan entries, never a warning."""
    real, pair = _third_order_blocks(spec)
    d = np.zeros(3)
    pair.cells(d)[0] = real.cells(d)[0] = 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        flow = jordan_flow(spec.eigen, d, alphas)
    xy = pair.cells(flow)[..., 0]
    return np.stack([xy.real, xy.imag, real.cells(flow)[..., 0]], axis=-1)


def _spiral_overflow(alpha: float) -> DesignError:
    return DesignError(f"the spiral overflows a float at alpha = {alpha:.6g}; "
                       "shorten the sampling intervals")


def spiral_point(spec: SystemSpec, alpha) -> np.ndarray:
    """Point of the parametric spiral traced by the normalized mode vector
    (one row per alpha when ``alpha`` is an array); DesignError where it
    leaves the float range."""
    al = np.asarray(alpha, dtype=float)
    points = _spiral(spec, al)
    bad = ~np.isfinite(points).all(axis=-1)
    if bad.any():
        raise _spiral_overflow(float(al[bad][0]))
    return points


def next_instant_third_order(spec: SystemSpec, t0: float, t1: float,
                             m_max: int = DEFAULT_M_MAX):
    """Choose t2 so the third mode vector is as orthogonal as possible to the
    first two, following the spiral-and-surface construction.

    Returns (DesignResult, GeometryTrace).  Candidate branches
    b (t2 - t0) = M + 2 pi m are enumerated for m = 0 .. m_max (keeping only
    those with t2 > t1) and the one minimizing the surface/spiral height
    mismatch is selected; ties break toward the smallest m.  A sequence at or
    below MIN_GRAM_DET raises InadmissibleDesignError with it as ``best``.
    """
    real, pair = _third_order_blocks(spec)
    obstacle = _geometric_obstacle(real, pair)
    if obstacle is not None:
        raise DesignError(obstacle)
    lam, a, b = real.value.real, pair.value.real, pair.value.imag
    if not t1 > t0:
        raise DesignError("need t1 > t0")
    report = check_minimality(spec)
    if not report.minimal:
        raise DesignError(f"system is not minimal (blocks {report.offending_blocks})")

    a1 = t1 - t0
    Y0, Y1 = spiral_point(spec, [0.0, a1])
    with np.errstate(over="ignore", invalid="ignore"):
        cross = np.cross(Y0, Y1)
        nrm, nrm0, nrm1 = _norms(np.stack([cross, Y0, Y1]), axis=1)
    if not (np.isfinite(cross).all() and np.isfinite(nrm) and np.isfinite(nrm1)):
        raise _spiral_overflow(a1)
    if nrm <= 1e-12 * nrm0 * nrm1:
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
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        mu = (np.float64(r2) ** expo / cross[2]) ** (1.0 / (1.0 - expo))
        q2 = mu * cross
        q2_height = (mu * mu * r2 * r2) ** (lam / (2.0 * a))
    # mu and the height are positive; 0 or inf means a float over- or underflowed
    if not (0.0 < mu < math.inf and 0.0 < q2_height < math.inf and np.isfinite(q2).all()):
        raise DesignError(f"scaling Y0 x Y1 onto the surface z = r^{expo:.6g} "
                          "leaves the float range; choose another t1")

    if m_max < 0:
        raise DesignError("branch bound m_max must be nonnegative")
    branch_alphas = (M + 2.0 * math.pi * np.arange(m_max + 1)) / b
    scores = np.abs(q2_height - _spiral(spec, branch_alphas)[:, 2])
    # a branch before t1, or whose height overflows, never wins
    scores[~((t0 + branch_alphas > t1) & np.isfinite(scores))] = math.inf
    best_m = int(np.argmin(scores))  # the first, so ties go to the smallest m
    if scores[best_m] == math.inf:
        raise DesignError(f"no branch m in [0, {m_max}] gives t2 > t1 with a finite height")
    alpha2 = float(branch_alphas[best_m])

    seq = SamplingSequence((t0, t1, t0 + alpha2))
    result = DesignResult(seq, _designed_metric(spec, seq), "geometric-3rd", best_m)

    grid = np.linspace(0.0, 1.05 * alpha2, 400)
    trace = GeometryTrace(
        surface_exponent=lam / (2.0 * a),
        spiral=np.column_stack([grid, spiral_point(spec, grid)]),
        vectors={"Y0": Y0, "Y1": Y1, "Y2": spiral_point(spec, alpha2)},
        projections={"P0": P0, "P1": P1, "P2": P2},
        q2=q2,
        mu=float(mu),
        rotation_angle=M,
    )
    gram = result.metric.normalized_gram_det
    if gram <= MIN_GRAM_DET:
        raise InadmissibleDesignError(
            "the geometric step's sequence is inadmissible "
            f"(gram_determinant = {gram:.6g} <= {MIN_GRAM_DET:g})", best=result)
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

# Within these plain 2-norms no square of an entry overflows, and any that
# underflows lies far below the last place of the sum, so Y / norm is the
# quotient ``unit_vectors`` gets by first dividing by a power of two; only
# outside them does a call pay for that scaling.
_PLAIN_NORMS = (2.0 ** -460, 2.0 ** 460)


def _gram_dets(spec: SystemSpec, alpha_rows: np.ndarray) -> np.ndarray:
    """Normalized Gram determinant of the sampled mode vectors of every row
    of ``alpha_rows`` (shape (..., k)), in one kernel call, each vector
    normalized as ``unit_gram`` does.  A candidate with a vector that
    ``unit_gram`` rejects (overflowing, zero or subnormal) scores 0, so it
    never wins and the search never picks a sequence its metric refuses."""
    with np.errstate(over="ignore", invalid="ignore"):
        Y = jordan_flow(spec.eigen, spec.real_mode_vector, alpha_rows)
        norms = np.linalg.norm(Y, axis=-1, keepdims=True)
    lo, hi = _PLAIN_NORMS
    if ((norms >= lo) & (norms <= hi)).all():
        Yn = Y / norms
    else:
        Yn = unit_vectors(Y, axis=-1)[0]  # an unusable vector is a zero row: det 0
    return np.clip(np.linalg.det(Yn @ np.swapaxes(Yn, -1, -2)), 0.0, 1.0)


REFINE_POINTS = 65  # candidates per refinement grid
REFINE_ROUNDS = 2   # grids per instant, each one spacing either side of the last's best


def _refine_instant(spec: SystemSpec, instants: list, i: int, lo: float,
                    hi: float, score: float) -> tuple[float, float]:
    """(t_i, score) after refining instant i of ``instants`` on [lo, hi].

    ``score`` is the Gram determinant of ``instants`` as given.  The first
    grid spans [lo, hi]; each later one spans one spacing either side of the
    previous grid's best, clipped to [lo, hi]; last comes the vertex of the
    parabola through the final grid's best and its two neighbours.  Each is
    one ``_gram_dets`` call.  A candidate replaces t_i only if it scores
    strictly higher, so a flat objective keeps t_i and ties go to the
    smallest instant."""
    base = np.array(instants)
    best = instants[i]

    def scores(cands):
        rows = np.repeat(base[None, :], cands.size, axis=0)
        rows[:, i] = cands
        return _gram_dets(spec, rows[:, -1:] - rows[:, ::-1])

    a, b = lo, hi
    for _ in range(REFINE_ROUNDS):
        cands = np.linspace(a, b, REFINE_POINTS)
        s = scores(cands)
        k = int(np.argmax(s))
        if s[k] > score:
            best, score = float(cands[k]), s[k]
        h = (b - a) / (REFINE_POINTS - 1)
        a, b = max(lo, cands[k] - h), min(hi, cands[k] + h)
    if 0 < k < REFINE_POINTS - 1:
        # k is the first maximum, so s[k] > s[k - 1] and the parabola is concave
        f0, f1, f2 = s[k - 1:k + 2]
        vertex = cands[k] + 0.5 * h * (f0 - f2) / (f0 - 2.0 * f1 + f2)
        s = scores(np.array([vertex]))
        if s[0] > score:
            best, score = float(vertex), s[0]
    return best, score


def design_sequence_generic(spec: SystemSpec, t0: float = 0.0,
                            bounds: tuple[float, float] = (0.05, 5.0),
                            steps: int = 200) -> DesignResult:
    """Greedy sequential search: extend the sequence one instant at a time by
    scoring a bounded grid of interval lengths in one batched call and keeping
    the candidate maximizing the normalized Gram determinant, then refine each
    instant after t0 once, in order, by ``_refine_instant`` (two finer grids
    and a parabolic step, three batched calls at most), never lowering the
    Gram determinant.  A refined instant stays at least dmin and at most dmax
    from its neighbors, so every interval lies in [dmin, dmax]."""
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
    score = 0.0
    for _ in range(1, n):
        grid = instants[-1] + np.linspace(dmin, dmax, steps)
        # alphas of each candidate sequence instants + [t]: (0, t - t_{j-1}, ..., t - t_0)
        cand = np.column_stack([np.zeros(steps), grid[:, None] - instants[::-1]])
        scores = _gram_dets(spec, cand)
        best = int(np.argmax(scores))  # argmax takes the first (smallest) instant on ties
        instants.append(float(grid[best]))
        score = scores[best]

    # one refinement pass, each instant at least dmin and at most dmax from
    # its neighbors
    for i in range(1, n):
        lo, hi = instants[i - 1] + dmin, instants[i - 1] + dmax
        if i + 1 < n:
            lo, hi = max(lo, instants[i + 1] - dmax), min(hi, instants[i + 1] - dmin)
        if hi > lo:
            instants[i], score = _refine_instant(spec, instants, i, lo, hi, score)

    seq = SamplingSequence(tuple(instants))
    metric = _designed_metric(spec, seq)
    result = DesignResult(seq, metric, "generic-search", None)
    if n > 1 and metric.normalized_gram_det <= MIN_GRAM_DET:
        raise InadmissibleDesignError("every grid candidate is inadmissible",
                                      best=result)
    return result


def __getattr__(name):
    # perfbench/spans.py still wraps ``design.minimize_scalar`` when it
    # installs a trace, so scipy's optimizer is imported here only when asked
    # for and never by the runtime.  Delete this once the benchmark drops
    # that binding (ROADMAP item 7).
    if name == "minimize_scalar":
        from scipy.optimize import minimize_scalar
        return minimize_scalar
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
