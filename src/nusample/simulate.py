"""Verification by state-space simulation.

Deadbeat impulse plans drive an initial state to the origin in n steps;
initial states are reconstructed from n output samples.  An impulse u_i
applied at t_i produces the instantaneous state jump b * u_i at t_i+, and
the state flows freely by exp(A dt) = B exp(J dt) B^{-1} between instants;
all propagation is the Jordan-flow kernel in the frame of the realization's
Jordan form, which each realization builds once.  The controllability and
observability matrices the solves use are the ``analysis.bruteforce_*``
builders; a reconstruction takes k output vectors as one (n, k) array and
solves them against a single observability matrix.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from nusample.analysis import (
    RANK_REL_TOL,
    SamplingSequence,
    bruteforce_controllability_matrix,
    bruteforce_observability_matrix,
)
from nusample.errors import RankDeficientError
from nusample.lti import Realization, checked_flow


@dataclass(frozen=True)
class ImpulsePlan:
    inputs: tuple[float, ...]
    sequence: SamplingSequence

    def __post_init__(self):
        object.__setattr__(self, "inputs", tuple(float(u) for u in self.inputs))
        if not all(np.isfinite(self.inputs)):
            raise ValueError("impulse inputs must be finite")
        if len(self.inputs) != len(self.sequence.instants):
            raise ValueError("one input per sampling instant")


@dataclass(frozen=True, eq=False)
class Checkpoint:
    time: float
    side: str  # "pre" | "post"
    state: np.ndarray


@dataclass(frozen=True, eq=False)
class Trajectory:
    checkpoints: tuple[Checkpoint, ...]

    @property
    def final_state(self) -> np.ndarray:
        return self.checkpoints[-1].state


def state_transition(real: Realization, x, dt) -> np.ndarray:
    """exp(A dt) x = B exp(J dt) B^{-1} x for every dt of an array of any
    shape; returns shape ``dt.shape + (n,)``."""
    jf = real.jordan
    return checked_flow(jf.es, jf.B_inv @ np.asarray(x, dtype=float), dt, jf.B.T)


def solve_checked(M: np.ndarray, rhs: np.ndarray, what: str) -> np.ndarray:
    """np.linalg.solve(M, rhs), raising RankDeficientError (naming ``what``)
    when sigma_min / sigma_max of M is at most RANK_REL_TOL."""
    svals = np.linalg.svd(M, compute_uv=False)
    if svals[0] == 0.0 or svals[-1] / svals[0] <= RANK_REL_TOL:
        smin = float(svals[-1])
        cond = np.inf if smin == 0.0 else float(svals[0] / smin)
        raise RankDeficientError(f"{what} is numerically singular "
                                 f"(sigma_min = {smin:.3e}, cond = {cond:.3e})",
                                 sigma_min=smin, condition_number=cond)
    return np.linalg.solve(M, rhs)


def deadbeat_inputs(real: Realization, x0, seq: SamplingSequence) -> ImpulsePlan:
    """Impulse inputs u_0 .. u_{n-1} at the sampling instants that drive x0
    (the state just before t_0) to the origin at t_n."""
    if seq.final_instant is None:
        raise ValueError("deadbeat plan needs the final instant t_n")
    x0 = np.asarray(x0, dtype=float)
    G = bruteforce_controllability_matrix(real, seq)  # [G_{n-1}, ..., G_0]
    rhs = -state_transition(real, x0, seq.final_instant - seq.instants[0])
    u_rev = solve_checked(G, rhs, "controllability matrix [G_{n-1},...,G_0]")
    return ImpulsePlan(tuple(u_rev[::-1]), seq)


def simulate_impulse_train(real: Realization, x0, plan: ImpulsePlan) -> Trajectory:
    """Piecewise evolution: free flow between instants, jump b u_i at t_i."""
    x = np.asarray(x0, dtype=float)
    seq = plan.sequence
    checkpoints = []
    t_prev = seq.instants[0]
    for ti, ui in zip(seq.instants, plan.inputs):
        x = state_transition(real, x, ti - t_prev)
        checkpoints.append(Checkpoint(ti, "pre", x.copy()))
        x = x + real.b * ui
        checkpoints.append(Checkpoint(ti, "post", x.copy()))
        t_prev = ti
    if seq.final_instant is not None:
        x = state_transition(real, x, seq.final_instant - t_prev)
        checkpoints.append(Checkpoint(seq.final_instant, "pre", x.copy()))
    return Trajectory(tuple(checkpoints))


def reconstruct_initial_state(real: Realization, outputs,
                              av: tuple[float, ...]) -> np.ndarray:
    """Solve y(alpha_m) = c exp(A alpha_m) X0 for X0.

    ``outputs`` is one output vector, shape (n,), or k of them as the
    columns of an (n, k) array; the result has the same shape, column j
    solving for column j.  All columns share one observability matrix and
    one rank check."""
    outputs = np.asarray(outputs, dtype=float)
    if outputs.ndim not in (1, 2) or outputs.shape[0] != real.n:
        raise ValueError(f"need {real.n} output samples (shape ({real.n},) or "
                         f"({real.n}, k)), got {outputs.shape}")
    O = bruteforce_observability_matrix(real, av)
    return solve_checked(O, outputs, "observability matrix [c exp(A alpha_m)]")


def export_trajectory_csv(traj: Trajectory, path) -> None:
    import csv

    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        n = traj.checkpoints[0].state.size
        w.writerow(["time", *[f"x{i}" for i in range(n)], "side"])
        for cp in traj.checkpoints:
            w.writerow([f"{cp.time:.12g}", *[f"{v:.12g}" for v in cp.state], cp.side])
