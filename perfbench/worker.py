"""One benchmark client: a closed loop calling ``nusample.cli.main`` in-process.

Started by ``run.py`` in a fresh interpreter with BLAS pinned to one thread
and ``src`` on ``PYTHONPATH``.  Prints one JSON object as its last line.

    worker.py --workload W --seed S --workdir DIR --setup-only
    worker.py --workload W --seed S --workdir DIR --seconds T --trace 0|1

``--setup-only`` times the set-up a user of the workload pays once: importing
the CLI, generating the first cycle of inputs and one warm-up command.
Otherwise the worker runs whole cycles of the workload until ``--seconds``
have passed, checking every output against ``oracle`` outside the timed
region.  With ``--trace 1`` it runs each cycle untraced and then again with
every layer wrapped by ``spans.Tracer``.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import resource
import sys
import time
from collections import Counter

import_start = time.perf_counter()
from nusample import cli  # noqa: E402  (the import is part of what set-up measures)
import_s = time.perf_counter() - import_start

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import gen  # noqa: E402
import oracle  # noqa: E402
from spans import MODULES, Tracer  # noqa: E402

TAIL_LADDER = (50, 75, 90, 95, 99, 99.5, 99.9)
TAIL_MIN_BEYOND = 10
# An untraced run holds at least this many cycles and commands, so its tail
# percentile stays the same when the host is slow: p95 on design and sweep
# (200 to 999 commands), p99.5 on check (2000 to 9999).
MIN_CYCLES = 5
MIN_COMMANDS = 250

# (name, kind): "calls" gives .calls and .self_s, "total" gives .total_s
NAMED = [
    ("cli.build_parser", "total"),
    ("fileio.load_system", "total"),
    ("fileio.load_sequence", "total"),
    ("lti.evaluate_fundamental_basis", "calls"),
    ("lti.exp_jordan", "calls"),
    ("lti.block_diag", "calls"),
    ("lti.real_jordan", "calls"),
    ("lti.observability_canonical", "calls"),
    ("lti.check_minimality", "calls"),
    ("lti.build_jordan_matrix", "calls"),
    ("lti.confluent_vandermonde_real", "calls"),
    ("analysis.fundamental_matrix", "calls"),
    ("analysis.joint_test", "calls"),
    ("analysis.sampled_mode_vectors", "calls"),
    ("analysis.degree_metrics", "calls"),
    ("analysis.verify_factorizations", "calls"),
    ("design.design_sequence_generic", "total"),
    ("design.minimize_scalar", "total"),
    ("design.next_instant_third_order", "total"),
    ("simulate.state_transition", "calls"),
    ("simulate.reconstruct_initial_state", "calls"),
    ("simulate.deadbeat_inputs", "calls"),
    ("simulate.simulate_impulse_train", "calls"),
]


def per_layer_units():
    """Name -> unit of every metric a traced run reports."""
    units = {f"{layer}.self_s": "s/op" for layer in MODULES}
    for name, kind in NAMED:
        if kind == "calls":
            units[f"{name}.calls"] = "calls/op"
            units[f"{name}.self_s"] = "s/op"
        else:
            units[f"{name}.total_s"] = "s/op"
    units.update({
        "lti.real_jordan.calls_per_system": "calls/system",
        "analysis.fundamental_matrix.calls_per_analyze": "calls/analyze",
        "design.candidates_per_design": "cands/design",
        "trace.ops": "count",
        "trace.systems": "count",
        "trace.analyze_ops": "count",
        "trace.design_ops": "count",
        "trace.overhead_frac": "frac",
        "trace.named_self_frac": "frac",
    })
    return units


def versions():
    cfg = np.show_config(mode="dicts") or {}
    blas = cfg.get("Build Dependencies", {}).get("blas", {})
    return {"numpy": np.__version__, "scipy": scipy.__version__,
            "blas": blas.get("name"), "blas_version": blas.get("version")}


def run_command(argv):
    """(exit code or None on an exception, stdout, stderr, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception as exc:  # a traceback for the user: record it, keep going
            code = None
            err.write(f"uncaught {type(exc).__name__}: {exc}")
        seconds = time.perf_counter() - start
    return code, out.getvalue(), err.getvalue(), seconds


class Op:
    __slots__ = ("argv", "case", "seconds", "failed", "reason", "problems", "gram")

    def __init__(self, argv, case):
        self.argv, self.case = argv, case
        self.seconds, self.failed, self.reason, self.problems = 0.0, False, "", []
        self.gram = None    # Gram determinant of a design; 0 when the design failed


def _options(argv):
    return dict(zip(argv[1::2], argv[2::2]))


def check(op, code, stdout, stderr, ref, expected):
    """Fill op.failed, op.reason, op.problems and op.gram from one command's
    output."""
    kind = op.argv[0]
    if code is None:
        op.failed, op.reason = True, stderr
        op.problems = [stderr]
        return
    opts = _options(op.argv)
    if kind == "analyze":
        op.problems = oracle.check_analyze(ref, op.case.sequence, code, stdout, expected)
    elif kind == "verify":
        op.problems = oracle.check_verify(code, stdout, expected)
    elif kind == "design":
        op.problems = oracle.check_design(ref, float(opts["--t0"]), code, stdout, stderr)
        op.gram = float(oracle.fields(stdout).get("gram_determinant", 0.0))
    else:
        args = {"start": float(opts["--from"]), "stop": float(opts["--to"]),
                "points": int(opts["--points"]), "trials": int(opts["--trials"]),
                "seed": int(opts["--seed"])}
        op.problems = oracle.check_sweep(ref, args, code, stdout)
    op.failed = code == 1 or bool(op.problems)
    if wrong(op):
        op.reason = "wrong output"
    elif op.problems:
        op.reason = op.problems[0].split(";")[0]
    elif code == 1:
        op.reason = stderr.strip()


def wrong(op):
    """True when an output contradicts the reference beyond the program's
    known defects (see oracle.KNOWN)."""
    return any(not p.startswith(oracle.KNOWN) for p in op.problems)


def run_cases(cases, tracer=None):
    """Run every command of ``cases`` back to back, then check the outputs,
    so the reference never runs between timed commands.  Returns the Ops
    and, when traced, the folded span statistics of each."""
    gc.collect()
    outputs, traces = [], []
    for case in cases:
        for argv in case.commands:
            outputs.append(run_command(argv))
            if tracer is not None:
                traces.append(tracer.take())
    ops, outputs = [], iter(outputs)
    for case in cases:
        ref = oracle.RefSystem(case.system)
        expected = oracle.verdict(ref, case.sequence) if case.sequence else None
        for argv in case.commands:
            op = Op(argv, case)
            code, stdout, stderr, op.seconds = next(outputs)
            check(op, code, stdout, stderr, ref, expected)
            ops.append(op)
    return ops, traces


def run_for(generator, seconds, min_cycles=MIN_CYCLES, min_commands=MIN_COMMANDS,
            tracer=None):
    """Whole cycles until ``seconds`` have passed and at least ``min_cycles``
    with ``min_commands`` ran; returns the Ops of each cycle.  With a
    ``tracer`` each cycle is run again traced right after it, so a drift of
    the host's speed hits both alike; the traced Ops and their span
    statistics are returned too."""
    deadline = time.perf_counter() + seconds
    cycles, traced_ops, traces, commands = [], [], [], 0
    while True:
        cases = generator.cycle()
        cycles.append(run_cases(cases)[0])
        commands += len(cycles[-1])
        if tracer is not None:
            tracer.install()
            try:
                ops, stats = run_cases(cases, tracer)
            finally:
                tracer.uninstall()
            traced_ops += ops
            traces += stats
        if (time.perf_counter() >= deadline and len(cycles) >= min_cycles
                and commands >= min_commands):
            return cycles, traced_ops, traces


def failures(ops):
    """How many commands failed, by command and reason."""
    return dict(Counter(f"{op.argv[0]}: {op.reason}" for op in ops if op.failed))


def problems(ops, limit=20):
    """The first output-check problems, for the report."""
    return [[op.argv[0], op.case.order, op.problems[:3]] for op in ops if op.problems][:limit]


def tail_percentile(n):
    """Highest ladder percentile with at least TAIL_MIN_BEYOND samples above it."""
    fit = [p for p in TAIL_LADDER if n * (100 - p) / 100 >= TAIL_MIN_BEYOND]
    return fit[-1] if fit else 50


def end_to_end(cycles):
    """Untraced metrics of the whole cycles of a run."""
    ops = [op for cycle in cycles for op in cycle]
    lat = np.array([op.seconds for op in ops])
    pct = tail_percentile(len(lat))
    failed = sum(op.failed for op in ops)
    log_grams = [math.log10(op.gram) if op.gram > 0 else -math.inf
                 for op in ops if op.gram is not None]
    return {
        "ops_per_s": len(lat) / float(lat.sum()),
        "latency_p50_ms": 1e3 * float(np.percentile(lat, 50)),
        "latency_tail_ms": 1e3 * float(np.percentile(lat, pct)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "failed_frac": failed / len(lat),
        "design_log10_gram_p50": float(np.median(log_grams)) if log_grams else None,
    }, {"tail_percentile": pct, "samples": len(lat), "cycles": len(cycles),
        "beyond_tail": int((lat > np.percentile(lat, pct)).sum())}


def per_layer(ops, traces, untraced):
    units = per_layer_units()
    totals = {}
    candidates = 0
    fm_in_analyze = 0
    for op, (stats, cands) in zip(ops, traces):
        candidates += cands
        for name, (calls, self_s, total_s) in stats.items():
            acc = totals.setdefault(name, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += self_s
            acc[2] += total_s
        if op.argv[0] == "analyze":
            fm_in_analyze += stats.get("analysis.fundamental_matrix", [0])[0]
    n_ops = len(ops)
    systems = len({id(op.case) for op in ops})
    analyze_ops = sum(op.argv[0] == "analyze" for op in ops)
    design_ops = sum(op.argv[0] == "design" for op in ops)
    traced_s = sum(op.seconds for op in ops)
    untraced_s = sum(op.seconds for op in untraced)

    def get(name, i):
        return totals.get(name, [0, 0.0, 0.0])[i]

    out = {}
    for layer in MODULES:
        out[f"{layer}.self_s"] = sum(v[1] for k, v in totals.items()
                                     if k.startswith(layer + ".")) / n_ops
    for name, kind in NAMED:
        if kind == "calls":
            out[f"{name}.calls"] = get(name, 0) / n_ops
            out[f"{name}.self_s"] = get(name, 1) / n_ops
        else:
            out[f"{name}.total_s"] = get(name, 2) / n_ops
    named_self = out["cli.self_s"] * n_ops + sum(
        get(name, 1) for name, _ in NAMED if not name.startswith("cli."))
    out.update({
        "lti.real_jordan.calls_per_system": get("lti.real_jordan", 0) / systems,
        "analysis.fundamental_matrix.calls_per_analyze":
            fm_in_analyze / analyze_ops if analyze_ops else 0.0,
        "design.candidates_per_design": candidates / design_ops if design_ops else 0.0,
        "trace.ops": n_ops,
        "trace.systems": systems,
        "trace.analyze_ops": analyze_ops,
        "trace.design_ops": design_ops,
        "trace.overhead_frac": traced_s / untraced_s - 1.0,
        "trace.named_self_frac": named_self / traced_s,
    })
    assert set(out) == set(units)
    return out


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(gen.ORDERS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--workdir", required=True)
    p.add_argument("--repo", default=".")
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)
    os.makedirs(args.workdir, exist_ok=True)
    generator = gen.Generator(args.workload, args.seed, args.workdir, args.repo)

    if args.setup_only:
        start = time.perf_counter()
        first = generator.cycle()
        gen_s = time.perf_counter() - start
        _, _, _, warmup_s = run_command(first[0].commands[0])
        print(json.dumps({"import_s": import_s, "gen_s": gen_s, "warmup_s": warmup_s,
                          "setup_s": import_s + gen_s + warmup_s}))
        return 0

    run_command(generator.cycle()[0].commands[0])   # warm-up, as in set-up
    if args.trace:
        cycles, traced_ops, traces = run_for(generator, args.seconds, min_cycles=1,
                                             min_commands=0, tracer=Tracer())
    else:
        cycles, _, _ = run_for(generator, args.seconds)
    ops = [op for cycle in cycles for op in cycle]
    e2e, tail = end_to_end(cycles)
    result = {"e2e": e2e, "tail": tail, "versions": versions()}
    if args.trace:
        result["per_layer"] = per_layer(traced_ops, traces, ops)
        result["per_layer_units"] = per_layer_units()
        ops = ops + traced_ops
    result.update(attempted=len(ops), failed=sum(op.failed for op in ops),
                  wrong=sum(wrong(op) for op in ops),
                  failures=failures(ops), problems=problems(ops))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
