#!/usr/bin/env python3
"""Empirical agreement study between the joint test (``joint_test``'s verdict,
read from the row-normalized basis matrix Phi) and the brute-force
controllability/observability rank oracles over random systems and random
sampling sequences.

The oracles are read in two frames.  The Jordan frame is the runtime's:
G_J = ``bruteforce_controllability_matrix`` and O_J =
``jordan_observability_matrix``, the matrices ``verify`` solves against.
The companion frame of the observability-canonical realization is built
here from them, G = B G_J and O = O_J B^{-1}, so its rank decisions also
carry cond(B), a property of the realization and not of the sequence; each
companion-frame disagreement prints cond(B).

Reports agreement counts split by verdict and by how close each case sits to
the decision threshold, so threshold effects are visible rather than hidden.

Usage:
    python scripts/theorem_equivalence.py [--cases 1000] [--seed 0]
"""
import argparse
import time

import numpy as np

import nusample as ns
from nusample.analysis import spectrum
from random_cases import theorem_cases

FRAMES = ("jordan", "companion")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--cases", type=int, default=1000)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--nmin", type=int, default=2)
    ap.add_argument("--nmax", type=int, default=5)
    args = ap.parse_args()

    rng = np.random.default_rng(args.seed)
    agree = dict.fromkeys(FRAMES, 0)
    borderline = dict.fromkeys(FRAMES, 0)
    rows = {frame: [] for frame in FRAMES}
    t_start = time.time()
    for i, spec, seq in theorem_cases(rng, args.cases, args.nmin, args.nmax):
        n = spec.n
        av = ns.alphas(seq)
        es = spec.eigen
        G_J = ns.bruteforce_controllability_matrix(spec, seq)
        O_J = ns.jordan_observability_matrix(spec, av)
        joint = ns.joint_test(ns.fundamental_matrix(es, av))
        smin, smax, _, deficient = spectrum(np.stack([G_J, O_J, es.B @ G_J, O_J @ es.B_inv]))
        ratios = [1.0 / joint.condition_number, *(smin / smax).tolist()]
        verdict = joint.is_admissible
        for k, frame in enumerate(FRAMES):
            oracle = not (deficient[2 * k] or deficient[2 * k + 1])
            frame_ratios = [ratios[0], *ratios[1 + 2 * k:3 + 2 * k]]
            borderline[frame] += any(1e-11 < r < 1e-5 for r in frame_ratios)
            if verdict == oracle:
                agree[frame] += 1
            else:
                cond_b = spectrum(es.B)[2] if frame == "companion" else None
                rows[frame].append((i, n, verdict, oracle, frame_ratios, cond_b))
    dt = time.time() - t_start

    for frame in FRAMES:
        print(f"cases = {args.cases}  agree = {agree[frame]}  "
              f"disagree = {args.cases - agree[frame]}  "
              f"near-threshold = {borderline[frame]}  frame = {frame}  ({dt:.1f}s)")
    for frame in FRAMES:
        if rows[frame]:
            print(f"{frame}-frame disagreements:")
        for i, n, v, o, r, cond_b in rows[frame]:
            line = (f"  case {i} (n={n}): joint={v} oracle={o} "
                    f"sigma-ratios M/G/O = {r[0]:.2e} {r[1]:.2e} {r[2]:.2e}")
            print(line if cond_b is None else f"{line}  cond(B) = {cond_b:.2e}")


if __name__ == "__main__":
    main()
