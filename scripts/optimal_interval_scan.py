#!/usr/bin/env python3
"""Scan the normalized Gram determinant of a 2nd-order complex pair over the
sampling interval t1 - t0 and write a CSV, one column per (a, b) combination.

The peaks land at (2m+1) pi / (2b), independent of the damping a.

Usage:
    python scripts/optimal_interval_scan.py --out scan.csv [--points 2000]
"""
import argparse
import csv
import math

import numpy as np

import nusample as ns
from nusample import analysis


def gram_curve(a, b, grid):
    """The normalized Gram determinant of the sequence (0, dt) for every dt of
    ``grid``, whose alphas are (0, dt), in one batched call."""
    lam = complex(a, b)
    spec = ns.system_from_modes([(lam, 1), (lam.conjugate(), 1)], [0.5, 0.5])
    av = np.column_stack([np.zeros(grid.size), grid])
    return analysis.unit_gram(analysis.sampled_mode_vectors(spec, av))[2]


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", required=True)
    ap.add_argument("--points", type=int, default=2000)
    ap.add_argument("--a", type=float, nargs="+", default=[-0.5, 0.0, 0.5])
    ap.add_argument("--b", type=float, nargs="+", default=[0.5, 1.0, 2.0])
    args = ap.parse_args()

    bmin = min(args.b)
    grid = np.linspace(0.0, 2 * (2 * math.pi / bmin), args.points + 1)[1:]
    combos = [(a, b) for a in args.a for b in args.b]
    curves = [gram_curve(a, b, grid) for a, b in combos]

    with open(args.out, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["dt"] + [f"a={a:g}_b={b:g}" for a, b in combos])
        for i, dt in enumerate(grid):
            w.writerow([f"{dt:.12g}"] + [f"{c[i]:.12g}" for c in curves])
    print(f"wrote {args.out}: {grid.size} rows x {len(combos)} curves")
    for (a, b), c in zip(combos, curves):
        peak = grid[int(np.argmax(c >= c.max() - 1e-12))]  # earliest of tied peaks
        print(f"  a={a:g} b={b:g}: first peak at dt={peak:.6g} "
              f"(quarter turn = {math.pi / (2 * b):.6g})")


if __name__ == "__main__":
    main()
