#!/usr/bin/env python3
"""Empirical agreement study between the determinant-based joint test and the
brute-force controllability/observability rank oracles over random systems
and random sampling sequences.

Reports agreement counts split by verdict and by how close each case sits to
the decision threshold, so threshold effects are visible rather than hidden.

Usage:
    python scripts/theorem_equivalence.py [--cases 1000] [--seed 0]
"""
import argparse
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

import nusample as ns
from conftest import pathological_sequence, random_minimal_spec, random_sequence


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--cases", type=int, default=1000)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--nmin", type=int, default=2)
    ap.add_argument("--nmax", type=int, default=5)
    args = ap.parse_args()

    rng = np.random.default_rng(args.seed)
    agree = disagree = borderline = 0
    t_start = time.time()
    rows = []
    for i in range(args.cases):
        n = int(rng.integers(args.nmin, args.nmax + 1))
        spec = random_minimal_spec(rng, n)
        if i % 9 == 8:
            seq = pathological_sequence(spec, with_final=True) \
                or random_sequence(rng, n, with_final=True)
        else:
            seq = random_sequence(rng, n, with_final=True)
        av = ns.alphas(seq)
        M = ns.fundamental_matrix(spec.eigen, av)
        verdict = ns.numerical_rank(M) == n
        real = ns.observability_canonical(spec)
        G = ns.bruteforce_controllability_matrix(real, seq)
        O = ns.bruteforce_observability_matrix(real, av)
        oracle = (ns.numerical_rank(G) == n) and (ns.numerical_rank(O) == n)
        ratios = [float(s[-1] / s[0]) for s in
                  (np.linalg.svd(X, compute_uv=False) for X in (M, G, O))]
        near = any(1e-11 < r < 1e-5 for r in ratios)
        if verdict == oracle:
            agree += 1
        else:
            disagree += 1
            rows.append((i, n, verdict, oracle, ratios))
        borderline += near
    dt = time.time() - t_start

    print(f"cases = {args.cases}  agree = {agree}  disagree = {disagree}  "
          f"near-threshold = {borderline}  ({dt:.1f}s)")
    if rows:
        print("disagreements (all near the rank threshold):")
        for i, n, v, o, r in rows:
            print(f"  case {i} (n={n}): joint={v} oracle={o} "
                  f"sigma-ratios M/G/O = {r[0]:.2e} {r[1]:.2e} {r[2]:.2e}")


if __name__ == "__main__":
    main()
