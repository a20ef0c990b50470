"""Command-line front end.

Subcommands: analyze, design, verify, sweep.  Exit codes follow a fixed
contract: 0 = success/admissible, 2 = inadmissible sequence, 1 = usage or
input error, an input file that cannot be read or an output file that cannot
be written among them.  This module writes every output (standard output,
the sweep CSV and the geometric design's trace CSV), and every number in
them with 12 significant digits (``fmt``), so outputs are reproducible
byte-for-byte for fixed seeds and inputs.  ``design`` hands the system to the
route it picks; each route checks the system's shape itself.
"""
from __future__ import annotations

import argparse
import csv
import math
import os
import sys

import numpy as np

from nusample import analysis, design, fileio, simulate
from nusample.errors import InputError, NuSampleError, RankDeficientError
from nusample.lti import check_minimality

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INADMISSIBLE = 2

RESIDUAL_TOL = 1e-8
SWEEP_BLOCK_FLOATS = 1 << 15  # floats a sweep holds per block of scales


def fmt(x: float) -> str:
    return f"{float(x):.12g}"


def _finite_float(text: str) -> float:
    """float(text), refusing inf and nan: the type of every float flag."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


def _count(text: str) -> int:
    """int(text), refusing a count past the floats one numpy array can hold:
    the type of every count flag."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if abs(value) > np.iinfo(np.intp).max // 8:
        raise argparse.ArgumentTypeError(f"count too large for an array: {text!r}")
    return value


def _tolerance(args) -> float:
    if args.tol is not None:
        if args.tol <= 0:
            raise InputError("tolerance must be positive")
        return args.tol
    env = os.environ.get("NUSAMPLE_TOL")
    if env is not None:
        try:
            value = float(env)
        except ValueError as exc:
            raise InputError(f"NUSAMPLE_TOL={env!r} is not a number") from exc
        if not math.isfinite(value):
            raise InputError(f"NUSAMPLE_TOL={env!r} is not a finite number")
        if value <= 0:
            raise InputError("NUSAMPLE_TOL must be positive")
        return value
    return analysis.RANK_REL_TOL


class _NegativeFloat:
    """Stands in for argparse's negative-number pattern, which matches only
    -12 and -1.5: any token that float() reads, such as -5e-06 or -inf, is
    a value, not an unknown option."""

    @staticmethod
    def match(token: str) -> bool:
        try:
            float(token)
        except ValueError:
            return False
        return token.startswith("-")


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NegativeFloat  # subparsers are _Parsers too

    # usage errors must exit 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        raise InputError(message)


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="nusample",
                description="Reachability/observability analysis and sampling-"
                            "schedule design for nonuniformly sampled SISO LTI systems")
    sub = p.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="joint test, degree metrics, factorization factors")
    pa.add_argument("--system", required=True)
    pa.add_argument("--instants", required=True)
    pa.add_argument("--tol", type=_finite_float, default=None,
                    help="largest sigma_min / sigma_max of the row-normalized basis "
                         "matrix that is inadmissible (overrides NUSAMPLE_TOL)")

    pd = sub.add_parser("design", help="synthesize a sampling sequence")
    pd.add_argument("--system", required=True)
    pd.add_argument("--t0", type=_finite_float, required=True)
    pd.add_argument("--method", choices=["auto", "closed", "geometric", "generic"],
                    default="auto")
    pd.add_argument("--m", type=int, default=0, help="branch integer for the closed form")
    pd.add_argument("--t1", type=_finite_float, default=None,
                    help="second instant for the geometric method "
                         "(default: t0 + pi/(2 b))")
    pd.add_argument("--m-max", type=_count, default=design.DEFAULT_M_MAX)
    pd.add_argument("--dmin", type=_finite_float, default=0.05,
                    help="shortest sampling interval of the generic search")
    pd.add_argument("--dmax", type=_finite_float, default=5.0,
                    help="longest sampling interval of the generic search")
    pd.add_argument("--steps", type=_count, default=200)
    pd.add_argument("--trace", default=None,
                    help="write the geometry trace CSV here (geometric method only)")

    pv = sub.add_parser("verify", help="deadbeat and reconstruction round trips")
    pv.add_argument("--system", required=True)
    pv.add_argument("--instants", required=True)
    pv.add_argument("--seed", type=int, required=True)

    ps = sub.add_parser("sweep", help="CSV sweep over uniformly scaled intervals")
    ps.add_argument("--system", required=True)
    ps.add_argument("--from", dest="start", type=_finite_float, required=True)
    ps.add_argument("--to", dest="stop", type=_finite_float, required=True)
    ps.add_argument("--points", type=_count, required=True)
    ps.add_argument("--trials", type=_count, default=50)
    ps.add_argument("--seed", type=int, default=0)

    return p


_PARSER = None  # built on the first main() call and reused by later ones


def _parser() -> argparse.ArgumentParser:
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    return _PARSER


# ---------------------------------------------------------------------------
# subcommands

def _load_case(args):
    """The system and the sequence of ``args``, one instant per state."""
    spec = fileio.load_system(args.system)
    seq = fileio.load_sequence(args.instants)
    if len(seq.instants) != spec.n:
        raise InputError(f"system order is {spec.n} but the sequence has "
                         f"{len(seq.instants)} instants")
    return spec, seq


def run_analyze(args) -> int:
    spec, seq = _load_case(args)
    tol = _tolerance(args)
    report = analysis.analyze(spec, seq, tol)
    print(f"determinant = {fmt(report.determinant)}")
    print(f"smallest_singular_value = {fmt(report.sigma_min)}")
    print(f"condition_number = {fmt(report.condition_number)}")
    print(f"threshold = {fmt(tol)}")
    print(f"admissible = {'yes' if report.is_admissible else 'no'}")
    print(f"minimal = {'yes' if report.degree is not None else 'no'}")
    if report.degree is not None:
        print(f"gram_determinant = {fmt(report.degree.normalized_gram_det)}")
        print(f"min_principal_angle = {fmt(report.degree.min_principal_angle)}")
        print(f"degree_condition_number = {fmt(report.degree.condition_number)}")
    if report.factors is not None:
        f = report.factors
        print(f"factor_N1 = {fmt(f.N1)}")
        print(f"factor_N2 = {fmt(f.N2)}")
        print(f"basis_ratio_ctrl = {fmt(f.ratio_ctrl)}")
    return EXIT_OK if report.is_admissible else EXIT_INADMISSIBLE


def export_geometry_csv(trace: design.GeometryTrace, path) -> None:
    """Columns (alpha, x, y, z, kind); enough to replot the construction.
    A path that cannot be written is an InputError."""
    points = [*trace.vectors.items(),
              *((name, (*p, 0)) for name, p in trace.projections.items()),
              ("Q2", trace.q2)]
    try:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["alpha", "x", "y", "z", "kind"])
            w.writerows([*map(fmt, row), "spiral"] for row in trace.spiral)
            w.writerows(["", *map(fmt, v), name] for name, v in points)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from exc


def run_design(args) -> int:
    spec = fileio.load_system(args.system)
    method = design.route(spec) if args.method == "auto" else args.method
    if args.trace is not None and method != "geometric":
        raise InputError(f"--trace applies to the geometric method only; this design "
                         f"takes the {method} method")
    trace = None
    if method == "closed":
        result = design.optimal_interval_second_order(spec, args.t0, args.m)
    elif method == "geometric":
        result, trace = design.next_instant_third_order(spec, args.t0, args.t1,
                                                        m_max=args.m_max)
    else:
        result = design.design_sequence_generic(spec, args.t0,
                                                bounds=(args.dmin, args.dmax),
                                                steps=args.steps)
    if args.trace is not None:
        # before any output, so a path that cannot be written prints none
        export_geometry_csv(trace, args.trace)
    print(f"method = {result.method}")
    print("instants = " + " ".join(fmt(t) for t in result.sequence.instants))
    if result.branch_m is not None:
        print(f"branch_m = {result.branch_m}")
    if trace is not None:
        print(f"rotation_angle = {fmt(trace.rotation_angle)}")
        print(f"mu = {fmt(trace.mu)}")
    print(f"gram_determinant = {fmt(result.metric.normalized_gram_det)}")
    print(f"min_principal_angle = {fmt(result.metric.min_principal_angle)}")
    if args.trace is not None:
        print(f"trace_written = {args.trace}")
    return EXIT_OK


def run_verify(args) -> int:
    spec, seq = _load_case(args)
    if seq.final_instant is None:
        raise InputError("verify needs 'final_instant' for the controllability leg")
    rng = np.random.default_rng(args.seed)
    z0 = rng.standard_normal(spec.n)  # the initial state in the Jordan frame
    try:
        inputs = simulate.deadbeat_inputs(spec, z0, seq)
        z_end = simulate.simulate_impulse_train(spec, z0, seq, inputs)[-1]
        O = analysis.jordan_observability_matrix(spec, analysis.alphas(seq))
        with np.errstate(over="ignore", invalid="ignore"):
            outputs = O @ z0
        z0_hat = simulate.reconstruct_initial_state(O, outputs)
    except RankDeficientError:
        print("inadmissible_sequence = yes")
        return EXIT_INADMISSIBLE
    # a residual far above 1 is a finite number whose square may overflow
    final, error, size = analysis.unit_vectors(
        np.stack([z_end, z0_hat - z0, z0]), axis=-1)[2]
    residual_ctrl, residual_rec = float(final / size), float(error / size)
    print(f"deadbeat_residual = {fmt(residual_ctrl)}")
    print(f"reconstruction_residual = {fmt(residual_rec)}")
    ok = residual_ctrl <= RESIDUAL_TOL and residual_rec <= RESIDUAL_TOL
    print(f"verified = {'yes' if ok else 'no'}")
    return EXIT_OK if ok else EXIT_INADMISSIBLE


def _scales(args, lo: int, hi: int) -> np.ndarray:
    """np.linspace(args.start, args.stop, args.points)[lo:hi] by linspace's
    own arithmetic, allocating only that slice."""
    div = args.points - 1
    y = np.arange(lo, hi, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        delta = np.subtract(args.stop, args.start)
        y = (y / div * delta if delta / div == 0 else y * (delta / div)) if div else y * delta
        y += args.start
    if div and hi == args.points:
        y[-1] = args.stop
    return y


def _noise_amplification(O, trials, seeds) -> np.ndarray:
    """Median of ||O^{-1} w|| over ``trials`` noise draws w for each
    observability matrix of the stack O, inf where O is numerically
    singular: the least-squares reconstruction error per unit output noise,
    which depends on neither the initial state nor the noise level.  Matrix
    p draws each trial's w from default_rng(seeds[p])."""
    n = O.shape[-1]
    try:
        z = np.empty((len(seeds), trials, 2, n))
    except ValueError as exc:  # more bytes than numpy can count
        raise MemoryError(str(exc)) from None
    for zp, seed in zip(z, seeds):
        # each trial draws an initial state, unused, before its noise: that
        # keeps the stream the same, and so the replay in perfbench/oracle.py
        np.random.default_rng(seed).standard_normal(out=zp)
    deficient = analysis.spectrum(O)[3]
    # a deficient O may be exactly singular, so it solves I x = w instead
    x = np.linalg.solve(np.where(deficient[:, None, None], np.eye(n), O),
                        z[:, :, 1].swapaxes(-1, -2))
    return np.where(deficient, math.inf, _median_norm(x))


def _median_norm(x: np.ndarray) -> np.ndarray:
    """np.median(np.linalg.norm(x, axis=-2), axis=-1), bit for bit, for a
    real stack x of shape (..., n, trials), without either call's overhead:
    the same sum of squares along the same axis, and the middle of the
    sorted norms, or the mean of the middle two; nan where a norm is nan."""
    trials = x.shape[-1]
    norms = np.sort(np.sqrt(np.add.reduce(x * x, axis=-2)), axis=-1)
    mid = trials // 2
    median = norms[..., mid] if trials % 2 else (norms[..., mid - 1] + norms[..., mid]) / 2
    return np.where(np.isnan(norms[..., -1]), math.nan, median)  # sort puts nan last


def _sweep_columns(spec, minimal, args, lo: int, hi: int):
    """The five CSV columns of scales lo..hi-1, every matrix of them read
    from one Jordan-flow call; raises the error of a failing scale."""
    n = spec.n
    s = _scales(args, lo, hi)
    with np.errstate(over="ignore", invalid="ignore"):
        t = np.arange(n) * s[:, None]  # the instants i * s
    # the instants i * s of a scale s > 0 increase, so only s <= 0 or an
    # instant that is not finite can fail the checks of SamplingSequence
    bad = ~((s > 0) & np.isfinite(t).all(axis=-1))
    if bad.any():
        if s[bad][0] <= 0:
            raise InputError("interval scale must stay positive over the sweep")
        analysis.SamplingSequence(tuple(t[bad][0]))  # raises
    av = t[:, -1:] - t[:, ::-1]  # analysis.alphas, row by row
    det, gram, cond, O = analysis.sweep_arrays(spec, av, minimal)
    seeds = [args.seed * 1000003 + idx for idx in range(lo, hi)]
    return s, det, gram, cond, _noise_amplification(O, args.trials, seeds)


def _sweep_rows(spec, minimal, args, lo: int, hi: int):
    """The CSV rows of scales lo..hi-1.  A block with a failing scale is
    halved until that scale stands alone: the rows before it come out, then
    the error of its first failing stage."""
    try:
        columns = _sweep_columns(spec, minimal, args, lo, hi)
    except NuSampleError:
        if hi - lo == 1:
            raise
        mid = (lo + hi) // 2
        yield from _sweep_rows(spec, minimal, args, lo, mid)
        yield from _sweep_rows(spec, minimal, args, mid, hi)
        return
    for row in zip(*columns):
        yield [fmt(x) for x in row]


def run_sweep(args) -> int:
    spec = fileio.load_system(args.system)
    if args.points < 1:
        raise InputError("need at least one sweep point")
    if args.trials < 1:
        raise InputError("need at least one noise trial")
    writer = csv.writer(sys.stdout)
    writer.writerow(["scale", "determinant", "gram_det",
                     "condition_number", "noise_amplification"])
    minimal = check_minimality(spec).minimal
    # a scale holds an n x n matrix and 2n noise draws per trial
    block = max(1, SWEEP_BLOCK_FLOATS // (spec.n * (spec.n + 2 * args.trials)))
    for lo in range(0, args.points, block):
        writer.writerows(_sweep_rows(spec, minimal, args, lo,
                                     min(lo + block, args.points)))
    return EXIT_OK


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        if getattr(args, "seed", 0) < 0:  # verify and sweep seed numpy with it
            raise InputError("seed must be nonnegative")
        runner = {
            "analyze": run_analyze,
            "design": run_design,
            "verify": run_verify,
            "sweep": run_sweep,
        }[args.command]
        return runner(args)
    except NuSampleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except MemoryError as exc:  # a count too large to allocate
        print(f"error: out of memory ({str(exc) or 'allocation failed'})", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
