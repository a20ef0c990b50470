"""Command-line front end.

Subcommands: analyze, design, verify, sweep, geometry.  Exit codes follow a
fixed contract: 0 = success/admissible, 2 = inadmissible sequence,
1 = usage or input error.  All numbers print with 12 significant digits so
outputs are reproducible byte-for-byte for fixed seeds and inputs.
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
from nusample.lti import check_minimality, observability_canonical

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


def _tolerance(args) -> float:
    if getattr(args, "tol", None) is not None:
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
    return analysis.DEFAULT_ADMISSIBILITY_FACTOR


class _Parser(argparse.ArgumentParser):
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
                    help="admissibility tolerance factor (overrides NUSAMPLE_TOL)")

    pd = sub.add_parser("design", help="synthesize a sampling sequence")
    pd.add_argument("--system", required=True)
    pd.add_argument("--t0", type=_finite_float, required=True)
    pd.add_argument("--method", choices=["auto", "closed", "geometric", "generic"],
                    default="auto")
    pd.add_argument("--m", type=int, default=0, help="branch integer for the closed form")
    pd.add_argument("--t1", type=_finite_float, default=None,
                    help="second instant for the geometric method "
                         "(default: t0 + pi/(2 b))")
    pd.add_argument("--m-max", type=int, default=design.DEFAULT_M_MAX)
    pd.add_argument("--dmin", type=_finite_float, default=0.05,
                    help="shortest sampling interval of the generic search")
    pd.add_argument("--dmax", type=_finite_float, default=5.0,
                    help="longest sampling interval of the generic search")
    pd.add_argument("--steps", type=int, default=200)
    pd.add_argument("--trace", default=None, help="write the geometry trace CSV here")

    pv = sub.add_parser("verify", help="deadbeat and reconstruction round trips")
    pv.add_argument("--system", required=True)
    pv.add_argument("--instants", required=True)
    pv.add_argument("--seed", type=int, required=True)

    ps = sub.add_parser("sweep", help="CSV sweep over uniformly scaled intervals")
    ps.add_argument("--system", required=True)
    ps.add_argument("--from", dest="start", type=_finite_float, required=True)
    ps.add_argument("--to", dest="stop", type=_finite_float, required=True)
    ps.add_argument("--points", type=int, required=True)
    ps.add_argument("--noise", type=_finite_float, default=1e-4)
    ps.add_argument("--trials", type=int, default=50)
    ps.add_argument("--seed", type=int, default=0)
    ps.add_argument("--tol", type=_finite_float, default=None)

    pg = sub.add_parser("geometry", help="third-order spiral construction trace")
    pg.add_argument("--system", required=True)
    pg.add_argument("--instants", required=True)
    pg.add_argument("--out", required=True)

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
    report = analysis.analyze(spec, seq, tol_factor=_tolerance(args))
    print(f"determinant = {fmt(report.determinant)}")
    print(f"smallest_singular_value = {fmt(report.sigma_min)}")
    print(f"condition_number = {fmt(report.condition_number)}")
    print(f"threshold = {fmt(report.threshold)}")
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
        print(f"factor_M1 = {fmt(f.M1)}")
        print(f"factor_M2 = {fmt(f.M2)}")
        print(f"basis_ratio_ctrl = {fmt(f.ratio_ctrl)}")
        print(f"basis_ratio_obs = {fmt(f.ratio_obs)}")
    return EXIT_OK if report.is_admissible else EXIT_INADMISSIBLE


def _single_pair(spec) -> bool:
    """A 2nd-order system with one complex pair: the closed form's case."""
    blocks = spec.eigen.blocks
    return spec.n == 2 and len(blocks) == 1 and blocks[0].kind == "pair"


def _auto_method(spec) -> str:
    blocks = spec.eigen.blocks
    if _single_pair(spec):
        return "closed"
    if spec.n == 3 and sorted(b.kind for b in blocks) == ["pair", "real"]:
        if design._geometric_obstacle(*design._third_order_blocks(spec)) is None:
            return "geometric"
    return "generic"


def run_design(args) -> int:
    if args.steps < 1:
        raise InputError("need at least one grid step")
    spec = fileio.load_system(args.system)
    method = args.method if args.method != "auto" else _auto_method(spec)
    trace = None
    if method == "closed":
        if not _single_pair(spec):
            raise InputError("closed-form design needs a 2nd-order complex pair")
        lam = spec.eigen.blocks[0].value
        result = design.optimal_interval_second_order(lam.real, lam.imag, args.t0, args.m)
    elif method == "geometric":
        pair = next((b for b in spec.eigen.blocks if b.kind == "pair"), None)
        if pair is None:
            raise InputError("geometric design needs a complex pair")
        t1 = args.t1 if args.t1 is not None else args.t0 + math.pi / (2.0 * pair.value.imag)
        result, trace = design.next_instant_third_order(spec, args.t0, t1,
                                                        m_max=args.m_max)
    else:
        result = design.design_sequence_generic(spec, args.t0,
                                                bounds=(args.dmin, args.dmax),
                                                steps=args.steps)
    print(f"method = {result.method}")
    print("instants = " + " ".join(fmt(t) for t in result.sequence.instants))
    if result.branch_m is not None:
        print(f"branch_m = {result.branch_m}")
    print(f"gram_determinant = {fmt(result.metric.normalized_gram_det)}")
    print(f"min_principal_angle = {fmt(result.metric.min_principal_angle)}")
    if trace is not None and args.trace is not None:
        design.export_geometry_csv(trace, args.trace)
        print(f"trace_written = {args.trace}")
    return EXIT_OK


def run_verify(args) -> int:
    spec, seq = _load_case(args)
    if seq.final_instant is None:
        raise InputError("verify needs 'final_instant' for the controllability leg")
    real = observability_canonical(spec)
    rng = np.random.default_rng(args.seed)
    x0 = rng.standard_normal(spec.n)
    try:
        plan = simulate.deadbeat_inputs(real, x0, seq)
        traj = simulate.simulate_impulse_train(real, x0, plan)
        residual_ctrl = float(np.linalg.norm(traj.final_state) / np.linalg.norm(x0))
        av = analysis.alphas(seq)
        jf_outputs = simulate.state_transition(real, x0, av) @ real.c
        x0_hat = simulate.reconstruct_initial_state(real, jf_outputs, av)
        residual_rec = float(np.linalg.norm(x0_hat - x0) / np.linalg.norm(x0))
    except RankDeficientError as exc:
        print("inadmissible_sequence = yes")
        print(f"condition_number = {fmt(exc.condition_number)}")
        return EXIT_INADMISSIBLE
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


def _noise_amplification(O, eps, trials, seeds) -> np.ndarray:
    """Median reconstruction error per unit output noise over ``trials``
    random initial states for each observability matrix of the stack O, inf
    where O is numerically singular.  Matrix p draws each trial's initial
    state, then its noise / eps, from default_rng(seeds[p]).  Noise above 1
    is divided, with the states, by the power of two 2**e >= eps: the ratio
    keeps its bits and O x0 + eps z cannot overflow."""
    n = O.shape[-1]
    z = np.empty((len(seeds), trials, 2, n))
    for zp, seed in zip(z, seeds):
        np.random.default_rng(seed).standard_normal(out=zp)
    e = math.frexp(eps)[1] if eps > 1 else 0
    eps = math.ldexp(eps, -e)
    x0 = np.ldexp(z[:, :, 0], -e).swapaxes(-1, -2)  # one initial state per column
    deficient = simulate.rank_deficient(O)[0]
    solvable = ~deficient[:, None, None]  # the others solve I x = x0 exactly
    noisy = np.where(solvable, O @ x0 + eps * z[:, :, 1].swapaxes(-1, -2), x0)
    x0_hat = np.linalg.solve(np.where(solvable, O, np.eye(n)), noisy)
    amp = np.median(np.linalg.norm(x0_hat - x0, axis=-2), axis=-1) / eps
    return np.where(deficient, math.inf, amp)


def _sweep_columns(spec, real, minimal, tol, args, lo: int, hi: int):
    """The five CSV columns of scales lo..hi-1, each matrix built by one
    call for all of them; raises the error of a failing scale."""
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
        analysis.SamplingSequence(tuple(t[bad][0]), final_instant=n * s[bad][0])  # raises
    av = t[:, -1:] - t[:, ::-1]  # analysis.alphas, row by row
    det, _, _, cond = analysis.joint_arrays(analysis.fundamental_matrix(spec.eigen, av), tol)
    gram = np.full(len(s), math.nan)
    if minimal:
        gram = analysis.unit_gram(analysis.sampled_mode_vectors(spec, av))[2]
    O = analysis.bruteforce_observability_matrix(real, av)
    seeds = [args.seed * 1000003 + idx for idx in range(lo, hi)]
    return s, det, gram, cond, _noise_amplification(O, args.noise, args.trials, seeds)


def _sweep_rows(spec, real, minimal, tol, args, lo: int, hi: int):
    """The CSV rows of scales lo..hi-1.  A block with a failing scale is
    halved until that scale stands alone: the rows before it come out, then
    the error of its first failing stage."""
    try:
        columns = _sweep_columns(spec, real, minimal, tol, args, lo, hi)
    except NuSampleError:
        if hi - lo == 1:
            raise
        mid = (lo + hi) // 2
        yield from _sweep_rows(spec, real, minimal, tol, args, lo, mid)
        yield from _sweep_rows(spec, real, minimal, tol, args, mid, hi)
        return
    for row in zip(*columns):
        yield [fmt(x) for x in row]


def run_sweep(args) -> int:
    spec = fileio.load_system(args.system)
    if args.points < 1:
        raise InputError("need at least one sweep point")
    if args.noise <= 0:
        raise InputError("noise magnitude must be positive")
    if args.trials < 1:
        raise InputError("need at least one noise trial")
    real = observability_canonical(spec)
    tol = _tolerance(args)
    writer = csv.writer(sys.stdout)
    writer.writerow(["scale", "determinant", "gram_det",
                     "condition_number", "noise_amplification"])
    minimal = check_minimality(spec).minimal
    # a scale holds an n x n matrix and 2n noise draws per trial
    block = max(1, SWEEP_BLOCK_FLOATS // (spec.n * (spec.n + 2 * args.trials)))
    for lo in range(0, args.points, block):
        writer.writerows(_sweep_rows(spec, real, minimal, tol, args, lo,
                                     min(lo + block, args.points)))
    return EXIT_OK


def run_geometry(args) -> int:
    spec = fileio.load_system(args.system)
    seq = fileio.load_sequence(args.instants)
    if len(seq.instants) < 2:
        raise InputError("geometry needs at least two instants (t0, t1)")
    t0, t1 = seq.instants[0], seq.instants[1]
    result, trace = design.next_instant_third_order(spec, t0, t1)
    design.export_geometry_csv(trace, args.out)
    print("instants = " + " ".join(fmt(t) for t in result.sequence.instants))
    print(f"branch_m = {result.branch_m}")
    print(f"rotation_angle = {fmt(trace.rotation_angle)}")
    print(f"mu = {fmt(trace.mu)}")
    print(f"gram_determinant = {fmt(result.metric.normalized_gram_det)}")
    print(f"trace_written = {args.out}")
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
            "geometry": run_geometry,
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
