"""nusample benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload check|design|sweep --seed N \
        --seconds T --trace 0|1

Run from the root of a source checkout.  Set-up is timed in SETUP_PROBES
fresh interpreters (import, input generation, one warm-up command) and
reported as their median; the workload then runs in one more interpreter
(see worker.py).  The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  Every generated
file lives under .perfbench_work/ in the checkout and is removed on exit.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_PROBES = 7
TIME_LIMIT_S = 170          # a run must end within 180 s
BLAS_ENV = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                   "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                                   "NUMEXPR_NUM_THREADS")}
E2E_UNITS = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
REPORT_ONLY_UNITS = {"failed_frac": "frac", "design_log10_gram_p50": "log10"}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def source_digest(root):
    h = hashlib.sha256()
    pkg = os.path.join(root, "src", "nusample")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def commit(root):
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    res = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                         capture_output=True, text=True, check=False)
    return res.stdout.strip() or None


def call_worker(args, env, deadline):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), *args]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        fail("out of time before the workload ran")
    try:
        res = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"worker did not finish in time: {' '.join(args)}")
    if res.returncode != 0 or not res.stdout.strip():
        sys.stderr.write(res.stderr)
        fail(f"worker exited with {res.returncode}: {' '.join(args)}")
    return json.loads(res.stdout.strip().splitlines()[-1])


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=("check", "design", "sweep"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S

    root = os.getcwd()
    for needed in ("src/nusample/cli.py", "tests/data/third_order.json",
                   "tests/data/oscillator.json"):
        if not os.path.isfile(os.path.join(root, needed)):
            fail(f"run from the root of a nusample checkout ({needed} is missing)")
    if args.seconds <= 0:
        fail("--seconds must be positive")

    env = dict(os.environ, **BLAS_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(root, "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env.pop("NUSAMPLE_TOL", None)   # the oracle assumes the default tolerance
    work = os.path.join(root, ".perfbench_work", str(os.getpid()))
    common = ["--workload", args.workload, "--seed", str(args.seed), "--repo", root]
    try:
        setups = [call_worker(common + ["--workdir", os.path.join(work, f"setup{i}"),
                                        "--setup-only"], env, deadline)
                  for i in range(SETUP_PROBES)]
        result = call_worker(common + ["--workdir", os.path.join(work, "run"),
                                       "--seconds", str(args.seconds),
                                       "--trace", str(args.trace)], env, deadline)
        machine = {
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            **result["versions"],
            "blas_threads": BLAS_ENV,
            "commit": commit(root),
            "source_sha256": source_digest(root),
            "platform": platform.platform(),
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(work))   # only if no other run is using it

    setup_s = statistics.median(s["setup_s"] for s in setups)
    import_s = statistics.median(s["import_s"] for s in setups)
    if args.trace:
        values = dict(result["per_layer"], **{"setup.import_s": import_s})
        units = dict(result["per_layer_units"], **{"setup.import_s": "s"})
    else:
        values = {k: result["e2e"][k] for k in E2E_UNITS if k in result["e2e"]}
        values["setup_s"] = setup_s
        units = E2E_UNITS
    tail = result["tail"]
    report_only = {k: result["e2e"][k] for k in REPORT_ONLY_UNITS}

    print(f"nusample benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("machine: " + json.dumps(machine))
    print(f"latency_tail_ms is p{tail['tail_percentile']:g} of {tail['samples']} "
          f"commands ({tail['beyond_tail']} beyond it)")
    print(f"setup probes: {[round(s['setup_s'], 4) for s in setups]} "
          f"(import {[round(s['import_s'], 4) for s in setups]})")
    for name, value in values.items():
        print(f"  {name:<50} {value:>14.6g} {units[name]}")
    for name, value in report_only.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:<50} {shown:>14} {REPORT_ONLY_UNITS[name]}  (report only)")
    for reason, count in result["failures"].items():
        print(f"  failed {count}x  {reason}")
    for problem in result["problems"]:
        print(f"  output check: {problem}")
    print("report: " + json.dumps({
        "machine": machine, "tail": tail, "setups": setups,
        "report_only": {k: (None if v is None or math.isinf(v) else v)
                        for k, v in report_only.items()},
        "failures": result["failures"],
        "attempted": result["attempted"], "failed": result["failed"],
        "wrong": result["wrong"]}))
    print(json.dumps({
        "correct": result["wrong"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
