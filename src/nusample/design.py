"""Synthesis of sampling sequences maximizing mode-vector orthogonality.

Three routes, of which ``route`` picks the one ``--method auto`` takes.
Each takes the system and refuses one that is not minimal
(``_require_minimal``); the closed form and the geometric step also refuse a
system of another shape and read b from its pair a +- ib themselves:

* closed form for a 2nd-order complex pair (quarter-turn rule),
* the spiral-geometry step for the 3rd-order {real pole, complex pair} case,
* a greedy grid search for arbitrary order: each greedy step scores its
  whole candidate grid in one batched call, and each instant is then refined
  by two ever finer grids and one parabolic step, each one batched call.
  Every candidate is scored by ``analysis.unit_gram``, the function that
  gives the designed sequence's metric, so the search scores what the metric
  reports; a candidate with a mode vector that is not usable (overflowing,
  zero or subnormal) scores 0.  This module computes no determinant or
  factorization of its own.

The generic and geometric routes judge their sequence by the one rank rule,
``analysis.spectrum``: a sequence whose unit mode vectors are deficient
(``DegreeMetrics.deficient``, read from the SVD that gives the designed
metric) raises InadmissibleDesignError, with the sequence as ``best``.

The 3rd-order geometry works in a normalized frame where the initial mode
vector is (1, 0, 1)', so the sampled vectors trace the spiral
Y(alpha) = (e^{a alpha} cos(b alpha), e^{a alpha} sin(b alpha), e^{lambda alpha})'
on the surface z = (x^2 + y^2)^{lambda/2a}.  That spiral is the Jordan flow
exp(J alpha) of the normalized mode vector, so every point of it, the branch
heights included, comes from ``lti.jordan_flow``, through ``spiral_point``.
Like the kernel, ``spiral_point`` gives inf or nan where the spiral leaves
the float range; the step checks Y1 (through Y0 x Y1) and the trace grid, and
skips a branch whose height is not finite.  Scaling/rotating to that frame
commutes with the flow, so the chosen instants are unaffected.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from nusample.analysis import (
    DegreeMetrics,
    SamplingSequence,
    alphas,
    degree_metrics_from_vectors,
    sampled_mode_vectors,
    unit_gram,
    unit_vectors,
)
from nusample.errors import DesignError, InadmissibleDesignError
from nusample.lti import Block, SystemSpec, check_minimality, jordan_flow

DEFAULT_M_MAX = 8


@dataclass(frozen=True)
class DesignResult:
    sequence: SamplingSequence
    metric: DegreeMetrics
    method: str  # "closed-form-2nd" | "geometric-3rd" | "generic-search"
    branch_m: int | None = None


def _designed_metric(spec: SystemSpec, seq: SamplingSequence) -> DegreeMetrics:
    return degree_metrics_from_vectors(sampled_mode_vectors(spec, alphas(seq)))


def _require_minimal(spec: SystemSpec) -> None:
    """Every route's refusal of a system that is not minimal."""
    report = check_minimality(spec)
    if not report.minimal:
        raise DesignError(f"system is not minimal (blocks {report.offending_blocks})")


@dataclass(frozen=True, eq=False)
class GeometryTrace:
    """Normalized-frame geometry of the 3rd-order design step."""

    spiral: np.ndarray               # rows (alpha, x, y, z)
    vectors: dict                    # "Y0", "Y1", "Y2" -> 3-vectors
    projections: dict                # "P0", "P1", "P2" -> 2-vectors
    q2: np.ndarray
    mu: float
    rotation_angle: float            # M, counterclockwise from P0 to P2 in [0, 2pi)


# ---------------------------------------------------------------------------
# 2nd order: closed form

def optimal_interval_second_order(spec: SystemSpec, t0: float = 0.0,
                                  m: int = 0) -> DesignResult:
    """b (t1 - t0) = (2m + 1) pi / 2 for the lone pair a +- ib of ``spec``:
    the second mode vector is rotated a quarter turn (plus m half turns) from
    the first, hence orthogonal."""
    if route(spec) != "closed":
        raise DesignError("closed-form design needs a 2nd-order complex pair")
    if m < 0:
        raise DesignError("branch integer m must be nonnegative")
    _require_minimal(spec)
    try:
        t1 = t0 + (2 * m + 1) * math.pi / (2.0 * spec.eigen.blocks[0].value.imag)
    except OverflowError:  # an m past the float range
        t1 = math.inf
    if not math.isfinite(t1):
        raise DesignError("branch integer m puts t1 past the float range")
    seq = SamplingSequence((t0, t1))
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


def route(spec: SystemSpec) -> str:
    """The route ``--method auto`` takes: "closed" for a lone complex pair at
    n = 2, "geometric" for a 3rd-order real pole plus pair with no
    ``_geometric_obstacle``, "generic" otherwise."""
    blocks = spec.eigen.blocks
    if spec.n == 2 and len(blocks) == 1 and blocks[0].kind == "pair":
        return "closed"
    try:
        obstacle = _geometric_obstacle(*_third_order_blocks(spec))
    except DesignError:  # not a real pole plus pair
        return "generic"
    return "geometric" if obstacle is None else "generic"


def spiral_point(spec: SystemSpec, alpha) -> np.ndarray:
    """Point (x, y, z) of the parametric spiral traced by the normalized mode
    vector, one row per alpha when ``alpha`` is an array of any shape: the
    flow of d = (1, 0) in the pair's cell and 1 in the real slot, read as
    (Re, Im) of the pair and the real slot.  Like ``lti.jordan_flow``, it
    gives inf or nan entries where the spiral leaves the float range, never
    a warning."""
    real, pair = _third_order_blocks(spec)
    d = np.zeros(3)
    pair.cells(d)[0] = real.cells(d)[0] = 1.0
    flow = jordan_flow(spec.eigen, d, alpha)
    xy = pair.cells(flow)[..., 0]
    return np.stack([xy.real, xy.imag, real.cells(flow)[..., 0]], axis=-1)


def _spiral_overflow(alpha: float) -> DesignError:
    return DesignError(f"the spiral overflows a float at alpha = {alpha:.6g}; "
                       "shorten the sampling intervals")


def next_instant_third_order(spec: SystemSpec, t0: float, t1: float | None = None,
                             m_max: int = DEFAULT_M_MAX):
    """Choose t2 so the third mode vector is as orthogonal as possible to the
    first two, following the spiral-and-surface construction.  ``t1``
    defaults to t0 + pi/(2b), a quarter turn of the pair a +- ib.

    Returns (DesignResult, GeometryTrace).  Candidate branches
    b (t2 - t0) = M + 2 pi m are enumerated for m = 0 .. m_max (keeping only
    those with t2 > t1) and the one minimizing the surface/spiral height
    mismatch is selected; ties break toward the smallest m.  A sequence whose
    unit mode vectors are deficient (``DegreeMetrics.deficient``) raises
    InadmissibleDesignError with it as ``best``.
    """
    real, pair = _third_order_blocks(spec)
    obstacle = _geometric_obstacle(real, pair)
    if obstacle is not None:
        raise DesignError(obstacle)
    lam, a, b = real.value.real, pair.value.real, pair.value.imag
    if t1 is None:
        t1 = t0 + math.pi / (2.0 * b)
    if not t1 > t0:
        raise DesignError("need t1 > t0")
    _require_minimal(spec)

    a1 = t1 - t0
    Y0, Y1 = spiral_point(spec, [0.0, a1])
    with np.errstate(over="ignore", invalid="ignore"):
        cross = np.cross(Y0, Y1)
    nrm, nrm0, nrm1 = unit_vectors(np.stack([cross, Y0, Y1]), axis=1)[2]
    # Y1 past the float range shows as inf or nan in the cross product or in
    # Y1's norm
    if not (np.isfinite(cross).all() and np.isfinite(nrm) and np.isfinite(nrm1)):
        raise _spiral_overflow(a1)
    if nrm <= 1e-12 * nrm0 * nrm1:
        raise DesignError("Y0 and Y1 are parallel: no orthogonal direction exists")
    if cross[2] < 0:
        cross = -cross  # endpoint must lie on the upper surface sheet (z > 0)
    if cross[2] <= 1e-12 * nrm:
        raise DesignError("Y0 x Y1 lies in the XY-plane: no point of the surface "
                          "is orthogonal to both")
    # Y0 = (1, 0, 1), so Y0 x Y1 = (-y, x - z, y) and r2 >= |Y0 x Y1| / sqrt 2:
    # the cross product is never vertical once it is not zero
    P0, P1, P2 = Y0[:2], Y1[:2], cross[:2]
    r2 = float(np.hypot(P2[0], P2[1]))

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
    scores = np.abs(q2_height - spiral_point(spec, branch_alphas)[:, 2])
    # a branch before t1, or whose height overflows, never wins
    scores[~((t0 + branch_alphas > t1) & np.isfinite(scores))] = math.inf
    best_m = int(np.argmin(scores))  # the first, so ties go to the smallest m
    if scores[best_m] == math.inf:
        raise DesignError(f"no branch m in [0, {m_max}] gives t2 > t1 with a finite height")
    alpha2 = float(branch_alphas[best_m])

    seq = SamplingSequence((t0, t1, t0 + alpha2))
    result = DesignResult(seq, _designed_metric(spec, seq), "geometric-3rd", best_m)

    grid = np.linspace(0.0, 1.05 * alpha2, 400)
    spiral = spiral_point(spec, grid)
    bad = ~np.isfinite(spiral).all(axis=-1)
    if bad.any():
        raise _spiral_overflow(float(grid[bad][0]))
    trace = GeometryTrace(
        spiral=np.column_stack([grid, spiral]),
        # alpha2 lies inside the grid's span, between two finite points of
        # the spiral's exponentials, so Y2 is finite too
        vectors={"Y0": Y0, "Y1": Y1, "Y2": spiral_point(spec, alpha2)},
        projections={"P0": P0, "P1": P1, "P2": P2},
        q2=q2,
        mu=float(mu),
        rotation_angle=M,
    )
    if result.metric.deficient:
        raise InadmissibleDesignError(
            "the geometric step's sequence is inadmissible "
            f"(gram_determinant = {result.metric.normalized_gram_det:.6g})", best=result)
    return result, trace


# ---------------------------------------------------------------------------
# generic greedy search

REFINE_POINTS = 65  # candidates per refinement grid
REFINE_ROUNDS = 2   # grids per instant, each one spacing either side of the last's best


def _refine_instant(spec: SystemSpec, instants: list, i: int, lo: float,
                    hi: float, score: float) -> tuple[float, float]:
    """(t_i, score) after refining instant i of ``instants`` on [lo, hi].

    ``score`` is the Gram determinant of ``instants`` as given.  The first
    grid spans [lo, hi]; each later one spans one spacing either side of the
    previous grid's best, clipped to [lo, hi]; last comes the vertex of the
    parabola through the final grid's best and its two neighbours.  Each is
    one ``unit_gram`` call.  A candidate replaces t_i only if it scores
    strictly higher, so a flat objective keeps t_i and ties go to the
    smallest instant."""
    base = np.array(instants)
    best = instants[i]

    def scores(cands):
        rows = np.repeat(base[None, :], cands.size, axis=0)
        rows[:, i] = cands
        return unit_gram(sampled_mode_vectors(spec, rows[:, -1:] - rows[:, ::-1]))[2]

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
    from its neighbors, so every interval lies in [dmin, dmax].  A sequence
    whose unit mode vectors are deficient raises InadmissibleDesignError with
    it as ``best``."""
    dmin, dmax = bounds
    if not (dmin > 0 and dmax > dmin):
        raise DesignError(f"invalid interval bounds {bounds}")
    if steps < 1:
        raise DesignError(f"need at least one grid step, got {steps}")
    _require_minimal(spec)
    n = spec.n
    instants = [float(t0)]
    score = 0.0
    for _ in range(1, n):
        grid = instants[-1] + np.linspace(dmin, dmax, steps)
        # alphas of each candidate sequence instants + [t]: (0, t - t_{j-1}, ..., t - t_0)
        cand = np.column_stack([np.zeros(steps), grid[:, None] - instants[::-1]])
        scores = unit_gram(sampled_mode_vectors(spec, cand))[2]
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
    if metric.deficient:
        raise InadmissibleDesignError("every grid candidate is inadmissible",
                                      best=result)
    return result


def __getattr__(name):
    # perfbench/spans.py still wraps ``design.minimize_scalar`` when it
    # installs a trace, so scipy's optimizer is imported here only when asked
    # for and never by the runtime.  Delete this once the benchmark drops
    # that binding (ROADMAP item 10).
    if name == "minimize_scalar":
        from scipy.optimize import minimize_scalar
        return minimize_scalar
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
