#!/usr/bin/env python3
"""Run the benchmark on two checkouts in alternating pairs and compare them.

    python scripts/bench_pairs.py --parent DIR --change DIR --workload W \
        [--pairs 10] [--seconds 30] [--seed S]

Each DIR is the root of a checkout, for example an extracted ``git archive``
of the parent commit.  Pair i runs

    python3 perfbench/run.py --workload W --seed S+13i --seconds T --trace 0

in both checkouts, one after the other, the parent first in even pairs and
the change first in odd ones, and prints each run's ``correct``,
``attempted``, ``failed`` and end-to-end metrics.  Then, for every end-to-end
metric of the change's ``BENCHMARK.json``, it prints both medians, the
spread of the parent's runs (the distance between their quartiles), the
median and the range of the per-pair change/parent ratios, and the pairs
the change wins, ties counting for neither side.  The two runs of a pair
share a seed, so the ratio shows the change's own effect where seed-to-seed
variation widens the parent's spread.  Last come whether a gain claim
would hold (at least nine tenths of the pairs won, and the medians further
apart than that spread); and whether the change is worse than the parent by
more than the metric's bound: ``regression``, ``ok``, or ``unresolved``
where the spread is wider than the bound, unless every run of the change
reads better than every run of the parent.  The exit status is 1 when a
run's output check fails or a metric regresses, else 0.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SEED_STRIDE = 13


def pair_plan(pairs: int, seed: int) -> list[tuple[int, tuple[str, str]]]:
    """(seed, run order) of every pair; the side that runs first alternates."""
    return [(seed + SEED_STRIDE * i, ("parent", "change") if i % 2 == 0 else ("change", "parent"))
            for i in range(pairs)]


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """The JSON object on the last line of one benchmark run in ``root``."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", f"{seconds:g}", "--trace", "0"]
    res = subprocess.run(cmd, cwd=root, capture_output=True, text=True, check=False)
    if res.returncode != 0 or not res.stdout.strip():
        sys.exit(f"bench_pairs: {' '.join(cmd)} in {root} exited with "
                 f"{res.returncode}:\n{res.stderr}")
    return json.loads(res.stdout.strip().splitlines()[-1])


def _quartile_spread(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def summarize(pairs: list[dict], end_to_end: list[dict]) -> list[dict]:
    """One row per end-to-end metric from ``pairs``, each a dict with the
    "parent" and "change" runs' metric values by name.  ``end_to_end`` holds
    BENCHMARK.json's entries: name, better ("higher" or "lower") and bound,
    a fraction of the parent's median."""
    rows = []
    for metric in end_to_end:
        name, bound = metric["name"], metric["bound"]
        sign = 1.0 if metric["better"] == "higher" else -1.0
        parent = [p["parent"][name] for p in pairs]
        change = [p["change"][name] for p in pairs]
        p_med, c_med = statistics.median(parent), statistics.median(change)
        spread = _quartile_spread(parent)
        ratios = [c / p for p, c in zip(parent, change)]
        wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
        gain = sign * (c_med - p_med)
        allowed = bound * abs(p_med)
        if -gain > allowed:
            verdict = "regression"
        elif spread > allowed and min(sign * c for c in change) <= max(sign * p for p in parent):
            verdict = "unresolved"
        else:
            verdict = "ok"
        rows.append({"name": name, "unit": metric.get("unit", ""), "parent_median": p_med,
                     "change_median": c_med, "parent_spread": spread,
                     "ratio_median": statistics.median(ratios),
                     "ratio_range": (min(ratios), max(ratios)), "wins": wins,
                     "pairs": len(pairs),
                     "gain_holds": 10 * wins >= 9 * len(pairs) and gain > spread,
                     "verdict": verdict})
    return rows


def table(rows: list[dict]) -> list[str]:
    """The printed lines of ``summarize``'s rows, a header first."""
    lines = [f"{'metric':<16}{'unit':>5}{'parent_med':>13}{'change_med':>13}"
             f"{'parent_iqr':>12}{'ratio_med':>11}  {'ratio_range':<17}{'wins':>5}"
             "  gain_claim  regression"]
    for r in rows:
        lo, hi = r["ratio_range"]
        lines.append(f"{r['name']:<16}{r['unit']:>5}{r['parent_median']:>13.6g}"
                     f"{r['change_median']:>13.6g}{r['parent_spread']:>12.4g}"
                     f"{r['ratio_median']:>11.4f}  {f'{lo:.4f}-{hi:.4f}':<17}"
                     f"{r['wins']:>2}/{r['pairs']:<2}  "
                     f"{'holds' if r['gain_holds'] else 'not met':<10}  {r['verdict']}")
    return lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--parent", type=Path, required=True)
    p.add_argument("--change", type=Path, required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--seed", type=int, default=0)
    args = p.parse_args(argv)
    end_to_end = json.loads((args.change / "BENCHMARK.json").read_text())["end_to_end"]
    roots = {"parent": args.parent, "change": args.change}

    pairs, correct = [], True
    counts = {side: [0, 0] for side in roots}  # failed, attempted
    for i, (seed, order) in enumerate(pair_plan(args.pairs, args.seed)):
        pair = {}
        for side in order:
            out = run_once(roots[side], args.workload, seed, args.seconds)
            values = {k: m["value"] for k, m in out["metrics"].items()}
            pair[side] = values
            correct = correct and out["correct"]
            counts[side][0] += out["failed"]
            counts[side][1] += out["attempted"]
            shown = " ".join(f"{k}={v:.6g}" for k, v in values.items())
            print(f"pair {i} {side:<6} seed={seed} correct={out['correct']} "
                  f"attempted={out['attempted']} failed={out['failed']} {shown}", flush=True)
        pairs.append(pair)

    rows = summarize(pairs, end_to_end)
    print(f"workload {args.workload}: {args.pairs} pairs of {args.seconds:g} s; failed "
          + ", ".join(f"{side} {f} of {a}" for side, (f, a) in counts.items()))
    print("\n".join(table(rows)))
    return 0 if correct and all(r["verdict"] != "regression" for r in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
