"""Verification by state-space simulation.

Deadbeat impulse plans drive an initial state to the origin in n steps;
initial states are reconstructed from n output samples.  An impulse u_i
applied at t_i produces the instantaneous state jump b * u_i at t_i+, and
the state flows freely by exp(A dt) = B exp(J dt) B^{-1} between instants.
Every function takes the system's ``SystemSpec``: all propagation is the
Jordan-flow kernel in the real Jordan frame of its observability-canonical
realization, whose constants the system owns and builds once: B and B^{-1}
(``EigenStructure``) and y0 = B^{-1} b (``SystemSpec``).  An impulse train
runs in that frame: the state z = B^{-1} x flows by exp(J dt), one kernel
call for every step of the train, and jumps by y0 u_i, where y0 is known in
closed form; only the checkpoints go back to x = B z.  The controllability
and observability matrices the solves use are the ``analysis.bruteforce_*``
builders, and every solve passes the one rank rule, ``analysis.spectrum``,
first.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from nusample.analysis import (
    SamplingSequence,
    bruteforce_controllability_matrix,
    bruteforce_observability_matrix,
    spectrum,
)
from nusample.errors import DegenerateSamplingError, RankDeficientError
from nusample.lti import SystemSpec, checked_flow


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


def state_transition(spec: SystemSpec, x, dt) -> np.ndarray:
    """exp(A dt) x = B exp(J dt) B^{-1} x for every dt of an array of any
    shape; returns shape ``dt.shape + (n,)``."""
    es = spec.eigen
    return checked_flow(es, es.B_inv @ np.asarray(x, dtype=float), dt, es.B.T)


def solve_checked(M: np.ndarray, rhs: np.ndarray, what: str) -> np.ndarray:
    """np.linalg.solve(M, rhs), raising RankDeficientError (naming ``what``)
    when ``analysis.spectrum`` finds M deficient, and DegenerateSamplingError
    when the solution overflows a float."""
    smin, _, cond, deficient = spectrum(M)
    if deficient:
        smin, cond = float(smin), float(cond)
        raise RankDeficientError(f"{what} is numerically singular "
                                 f"(sigma_min = {smin:.3e}, cond = {cond:.3e})",
                                 sigma_min=smin, condition_number=cond)
    x = np.linalg.solve(M, rhs)
    if not np.isfinite(x).all():
        raise DegenerateSamplingError(f"the solution against the {what} overflows a "
                                      "float")
    return x


def deadbeat_inputs(spec: SystemSpec, x0, seq: SamplingSequence) -> ImpulsePlan:
    """Impulse inputs u_0 .. u_{n-1} at the sampling instants that drive x0
    (the state just before t_0) to the origin at t_n."""
    if seq.final_instant is None:
        raise ValueError("deadbeat plan needs the final instant t_n")
    x0 = np.asarray(x0, dtype=float)
    G = bruteforce_controllability_matrix(spec, seq)  # [G_{n-1}, ..., G_0]
    rhs = -state_transition(spec, x0, seq.final_instant - seq.instants[0])
    u_rev = solve_checked(G, rhs, "controllability matrix [G_{n-1},...,G_0]")
    return ImpulsePlan(tuple(u_rev[::-1]), seq)


def simulate_impulse_train(spec: SystemSpec, x0, plan: ImpulsePlan) -> Trajectory:
    """Piecewise evolution: free flow between instants, jump b u_i at t_i.

    Runs in the Jordan frame: z = B^{-1} x0, then for each instant z flows by
    exp(J dt) and jumps by y0 u_i, ending with the flow to the final instant
    if there is one; every checkpoint is x = B z."""
    es = spec.eigen
    seq = plan.sequence
    times = seq.instants if seq.final_instant is None else seq.instants + (seq.final_instant,)
    # steps[k] = exp(J dt_k)', so z exp(J dt_k)' = exp(J dt_k) z
    steps = checked_flow(es, np.eye(spec.n), np.subtract(times, times[:1] + times[:-1]))
    z = es.B_inv @ np.asarray(x0, dtype=float)
    labels, states = [], []
    with np.errstate(over="ignore", invalid="ignore"):
        for ti, step, ui in zip(times, steps, plan.inputs):
            z = z @ step
            labels += [(ti, "pre"), (ti, "post")]
            states += [z, z + spec.y0 * ui]
            z = states[-1]
        if seq.final_instant is not None:
            labels.append((seq.final_instant, "pre"))
            states.append(z @ steps[-1])
        xs = np.array(states) @ es.B.T
    bad = ~np.isfinite(xs).all(axis=-1)
    if bad.any():
        raise DegenerateSamplingError(f"the simulated state overflows a float at "
                                      f"t = {labels[bad.argmax()][0]:.6g}; shorten the "
                                      "sampling intervals")
    checkpoints = tuple(Checkpoint(t, side, x) for (t, side), x in zip(labels, xs))
    return Trajectory(checkpoints)


def reconstruct_initial_state(spec: SystemSpec, outputs,
                              av: tuple[float, ...]) -> np.ndarray:
    """Solve y(alpha_m) = c exp(A alpha_m) x0 for x0, given the n output
    samples y(alpha_m)."""
    outputs = np.asarray(outputs, dtype=float)
    if outputs.shape != (spec.n,):
        raise ValueError(f"need {spec.n} output samples, got shape {outputs.shape}")
    O = bruteforce_observability_matrix(spec, av)
    return solve_checked(O, outputs, "observability matrix [c exp(A alpha_m)]")

