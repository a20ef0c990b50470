"""Verification by state-space simulation.

Deadbeat impulse inputs, one float per sampling instant, drive an initial
state to the origin in n steps; initial states are reconstructed from n
output samples.  An impulse u_i applied at t_i produces the instantaneous
state jump y0 u_i at t_i+, and the state flows freely by exp(J dt) between
instants.  Every state here is in the real Jordan frame z of the system's
observability-canonical realization, where the input vector is y0 = D d, in
closed form (``SystemSpec.y0``), and nothing here reads the companion basis
B or B^{-1}.  The matrices the solves use are the Jordan-frame G_J =
[exp(J (t_n - t_i)) y0] and O_J = Phi D^{-1}
(``analysis.jordan_observability_matrix``), and every solve first scales
G_J's columns or O_J's rows to unit norm, so the one rank rule,
``analysis.spectrum``, judges the sampled modes and not their scale.
"""
from __future__ import annotations

import numpy as np

from nusample.analysis import SamplingSequence, _reach_intervals, spectrum, unit_vectors
from nusample.errors import DegenerateSamplingError, RankDeficientError
from nusample.lti import SystemSpec, checked_flow


def solve_checked(M: np.ndarray, rhs: np.ndarray, what: str, axis: int) -> np.ndarray:
    """The solution x of M x = rhs, solved against M with its columns
    (``axis=-2``) or its rows (``axis=-1``) scaled to unit norm by
    ``unit_vectors``.  Raises RankDeficientError (naming ``what``) when
    ``analysis.spectrum`` finds the scaled M deficient, and
    DegenerateSamplingError when the solution overflows a float."""
    Mn, _, norms = unit_vectors(M, axis=axis)
    smin, _, cond, deficient = spectrum(Mn)
    if deficient:
        raise RankDeficientError(f"{what} is numerically singular (sigma_min = "
                                 f"{float(smin):.3e}, cond = {float(cond):.3e})")
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        x = (np.linalg.solve(Mn, rhs) / norms if axis == -2
             else np.linalg.solve(Mn, rhs / norms))
    if not np.isfinite(x).all():
        raise DegenerateSamplingError(f"the solution against the {what} overflows a "
                                      "float")
    return x


def deadbeat_inputs(spec: SystemSpec, z0, seq: SamplingSequence) -> np.ndarray:
    """Impulse inputs u_0 .. u_{n-1} at the sampling instants that drive z0
    (the Jordan-frame state just before t_0) to the origin at t_n, as an
    (n,) array.  One flow over t_n - t_i of the seeds (y0, z0) gives the
    columns of G_J = [G_{n-1}, ..., G_0], those of
    ``analysis.bruteforce_controllability_matrix`` bit for bit, and, at
    t_n - t_0, z0's free response."""
    flows = checked_flow(spec.eigen, np.stack([spec.y0, np.asarray(z0, dtype=float)]),
                         _reach_intervals(spec, seq))
    u_rev = solve_checked(flows[:, 0].T, -flows[-1, 1],
                          "controllability matrix [G_{n-1},...,G_0]", axis=-2)
    return u_rev[::-1]


def simulate_impulse_train(spec: SystemSpec, z0, seq: SamplingSequence,
                           inputs) -> np.ndarray:
    """Piecewise evolution in the Jordan frame: free flow by exp(J dt)
    between instants, jump y0 u_i at t_i.

    Returns the states as the rows of a (2m, n) array for m instants, or
    (2m+1, n) with a final instant: rows 2k and 2k+1 are the states just
    before and just after instant k, and the extra last row is the state
    just before the final instant.  One kernel call gives exp(J dt) for every
    step.  Raises ValueError unless ``inputs`` holds one finite float per
    instant."""
    inputs = np.asarray(inputs, dtype=float)
    if inputs.shape != (len(seq.instants),) or not np.isfinite(inputs).all():
        raise ValueError("impulse inputs must be finite, one per sampling instant")
    times = seq.instants if seq.final_instant is None else seq.instants + (seq.final_instant,)
    # steps[k] = exp(J dt_k)', so z exp(J dt_k)' = exp(J dt_k) z
    steps = checked_flow(spec.eigen, np.eye(spec.n),
                         np.subtract(times, times[:1] + times[:-1]))
    z = np.asarray(z0, dtype=float)
    states = []
    with np.errstate(over="ignore", invalid="ignore"):
        for step, ui in zip(steps, inputs):
            z = z @ step
            states += [z, z + spec.y0 * ui]
            z = states[-1]
        if seq.final_instant is not None:
            states.append(z @ steps[-1])
    zs = np.array(states)
    bad = ~np.isfinite(zs).all(axis=-1)
    if bad.any():  # rows 2k and 2k+1 belong to times[k]
        raise DegenerateSamplingError(f"the simulated state overflows a float at "
                                      f"t = {times[bad.argmax() // 2]:.6g}; shorten the "
                                      "sampling intervals")
    return zs


def reconstruct_initial_state(O: np.ndarray, outputs) -> np.ndarray:
    """The Jordan-frame state z0 whose n output samples y_m = (O z0)_m are
    ``outputs``, for the observability matrix O that
    ``analysis.jordan_observability_matrix`` builds."""
    outputs = np.asarray(outputs, dtype=float)
    if outputs.shape != O.shape[:1]:
        raise ValueError(f"need {len(O)} output samples, got shape {outputs.shape}")
    return solve_checked(O, outputs, "observability matrix [c B exp(J alpha_m)]", axis=-1)
