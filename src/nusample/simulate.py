"""Verification by state-space simulation.

Deadbeat impulse inputs, one float per sampling instant, drive an initial
state to the origin in n steps; initial states are reconstructed from n
output samples.  An impulse u_i applied at t_i produces the instantaneous
state jump b * u_i at t_i+, and the state flows freely by
exp(A dt) = B exp(J dt) B^{-1} between instants.  Every function takes the
system's ``SystemSpec``: all propagation is the Jordan-flow kernel in the
real Jordan frame of its observability-canonical realization, whose
constants the system owns and builds once: B and B^{-1} (``EigenStructure``)
and y0 = B^{-1} b (``SystemSpec``).  An impulse train runs in that frame:
the state z = B^{-1} x flows by exp(J dt), one kernel call for every step of
the train, and jumps by y0 u_i, where y0 is known in closed form; the train
returns its states as the rows of one array, and only those rows go back to
x = B z.  The controllability and observability matrices the solves use are
the ``analysis.bruteforce_*`` builders, and every solve passes the one rank
rule, ``analysis.spectrum``, first.
"""
from __future__ import annotations

import numpy as np

from nusample.analysis import (
    SamplingSequence,
    bruteforce_controllability_matrix,
    bruteforce_observability_matrix,
    spectrum,
)
from nusample.errors import DegenerateSamplingError, RankDeficientError
from nusample.lti import SystemSpec, checked_flow


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
        raise RankDeficientError(f"{what} is numerically singular (sigma_min = "
                                 f"{float(smin):.3e}, cond = {float(cond):.3e})")
    x = np.linalg.solve(M, rhs)
    if not np.isfinite(x).all():
        raise DegenerateSamplingError(f"the solution against the {what} overflows a "
                                      "float")
    return x


def deadbeat_inputs(spec: SystemSpec, x0, seq: SamplingSequence) -> np.ndarray:
    """Impulse inputs u_0 .. u_{n-1} at the sampling instants that drive x0
    (the state just before t_0) to the origin at t_n, as an (n,) array."""
    if seq.final_instant is None:
        raise ValueError("deadbeat plan needs the final instant t_n")
    x0 = np.asarray(x0, dtype=float)
    G = bruteforce_controllability_matrix(spec, seq)  # [G_{n-1}, ..., G_0]
    rhs = -state_transition(spec, x0, seq.final_instant - seq.instants[0])
    u_rev = solve_checked(G, rhs, "controllability matrix [G_{n-1},...,G_0]")
    return u_rev[::-1]


def simulate_impulse_train(spec: SystemSpec, x0, seq: SamplingSequence,
                           inputs) -> np.ndarray:
    """Piecewise evolution: free flow between instants, jump b u_i at t_i.

    Returns the states as the rows of a (2m, n) array for m instants, or
    (2m+1, n) with a final instant: rows 2k and 2k+1 are the states just
    before and just after instant k, and the extra last row is the state
    just before the final instant.  Runs in the Jordan frame: z = B^{-1} x0,
    then for each instant z flows by exp(J dt) and jumps by y0 u_i, ending
    with the flow to the final instant if there is one; every row is
    x = B z.  Raises ValueError unless ``inputs`` holds one finite float per
    instant."""
    inputs = np.asarray(inputs, dtype=float)
    if inputs.shape != (len(seq.instants),) or not np.isfinite(inputs).all():
        raise ValueError("impulse inputs must be finite, one per sampling instant")
    es = spec.eigen
    times = seq.instants if seq.final_instant is None else seq.instants + (seq.final_instant,)
    # steps[k] = exp(J dt_k)', so z exp(J dt_k)' = exp(J dt_k) z
    steps = checked_flow(es, np.eye(spec.n), np.subtract(times, times[:1] + times[:-1]))
    z = es.B_inv @ np.asarray(x0, dtype=float)
    states = []
    with np.errstate(over="ignore", invalid="ignore"):
        for step, ui in zip(steps, inputs):
            z = z @ step
            states += [z, z + spec.y0 * ui]
            z = states[-1]
        if seq.final_instant is not None:
            states.append(z @ steps[-1])
        xs = np.array(states) @ es.B.T
    bad = ~np.isfinite(xs).all(axis=-1)
    if bad.any():  # rows 2k and 2k+1 belong to times[k]
        raise DegenerateSamplingError(f"the simulated state overflows a float at "
                                      f"t = {times[bad.argmax() // 2]:.6g}; shorten the "
                                      "sampling intervals")
    return xs


def reconstruct_initial_state(spec: SystemSpec, outputs,
                              av: tuple[float, ...]) -> np.ndarray:
    """Solve y(alpha_m) = c exp(A alpha_m) x0 for x0, given the n output
    samples y(alpha_m)."""
    outputs = np.asarray(outputs, dtype=float)
    if outputs.shape != (spec.n,):
        raise ValueError(f"need {spec.n} output samples, got shape {outputs.shape}")
    O = bruteforce_observability_matrix(spec, av)
    return solve_checked(O, outputs, "observability matrix [c exp(A alpha_m)]")

