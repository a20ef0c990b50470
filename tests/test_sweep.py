"""The batched sweep and the shape of a reconstruction: the noise column
matches the per-trial loop and a 50-digit route, the whole output matches
the per-scale loop byte for byte, the cost of a sweep grows with neither its points nor its
trials, and a reconstruction takes one output vector."""
import argparse
import contextlib
import json
import math
import os
import tracemalloc
from pathlib import Path

import mpmath
import numpy as np
import pytest

import nusample as ns
from nusample import analysis, cli, fileio, lti, simulate
from nusample.cli import main
import reference
from conftest import count_calls, random_minimal_spec, random_sequence
from reference import expA, observability_canonical

DATA = Path(__file__).parent / "data"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def _case(seed, n):
    rng = np.random.default_rng(seed)
    spec = random_minimal_spec(rng, n)
    return rng, spec, ns.alphas(random_sequence(rng, n))


# ---------------------------------------------------------------------------
# reconstruct_initial_state takes one output vector; the sweep solves its own
# stack

@pytest.mark.parametrize("shape", [(), (4,), (6,), (4, 3), (6, 2), (5, 2, 2), (5, 7)])
def test_reconstruction_rejects_wrong_shapes(shape):
    _, spec, av = _case(12, 5)
    O = ns.jordan_observability_matrix(spec, av)
    with pytest.raises(ValueError):
        simulate.reconstruct_initial_state(O, np.zeros(shape))


# ---------------------------------------------------------------------------
# the CLI column against the per-trial loop

def _per_trial_amplification(spec, real, av, trials, rng):
    """Reference: each trial draws an initial state (unused) and then its
    noise w, and solves its own system for O^{-1} w, with an O built column
    by column from the state-frame flow, ``expA`` of the companion
    realization's Jordan frame (the frame of the sweep's noise column)."""
    n = spec.n
    O = np.array([[real.c @ expA(real.jordan, a) @ e for e in np.eye(n)] for a in av])
    errors = []
    for _ in range(trials):
        rng.standard_normal(n)
        w = rng.standard_normal(n)
        errors.append(float(np.linalg.norm(np.linalg.solve(O, w))))
    return float(np.median(errors))


def _write_system(path, spec):
    path.write_text(json.dumps({
        "order": spec.n,
        "roots": [{"re": r.value.real, "im": r.value.imag, "mult": r.multiplicity}
                  for r in spec.eigen.roots],
        "mode_coefficients": [{"re": c.real, "im": c.imag} for c in spec.coeffs],
    }))
    return str(path)


def _sweep_amplification(capsys, system, seed, trials, start, stop, points):
    code, out, _ = run(capsys, "sweep", "--system", system, "--from", str(start),
                       "--to", str(stop), "--points", str(points),
                       "--trials", str(trials), "--seed", str(seed))
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    return [float(r[0]) for r in rows], [float(r[4]) for r in rows]


@pytest.mark.parametrize("source", ["third_order", "random6"])
def test_sweep_amplification_matches_per_trial_loop(capsys, tmp_path, source):
    if source == "third_order":
        system = str(DATA / "third_order.json")
    else:
        spec = random_minimal_spec(np.random.default_rng(21), 6)
        system = _write_system(tmp_path / "random6.json", spec)
    spec = fileio.load_system(system)
    real = observability_canonical(spec)
    seed, trials = 4, 9
    scales, amps = _sweep_amplification(capsys, system, seed, trials, 0.3, 1.2, 5)
    assert all(math.isfinite(a) for a in amps)
    for idx, (s, amp) in enumerate(zip(scales, amps)):
        av = ns.alphas(ns.SamplingSequence(tuple(i * s for i in range(spec.n))))
        rng = np.random.default_rng(seed * 1000003 + idx)
        expected = _per_trial_amplification(spec, real, av, trials, rng)
        assert amp == pytest.approx(expected, rel=1e-8)


def test_sweep_half_period_oscillator_is_inf(capsys):
    _, amps = _sweep_amplification(capsys, str(DATA / "oscillator.json"), 0, 5,
                                   math.pi, math.pi, 1)
    assert amps == [math.inf]


# ---------------------------------------------------------------------------
# the noise column against a 50-digit route from the same O and draws

def _exact_median_error(O, w):
    """The median over the columns w_k of w of ||O^{-1} w_k||, each solve and
    norm in 50-digit arithmetic."""
    with mpmath.workdps(50):
        A = mpmath.matrix(O.tolist())
        errors = sorted(mpmath.norm(mpmath.lu_solve(A, mpmath.matrix(col.tolist())))
                        for col in w.T)
        mid = len(errors) // 2
        return errors[mid] if len(errors) % 2 else (errors[mid - 1] + errors[mid]) / 2


@pytest.mark.parametrize("n", range(2, 9))
def test_noise_amplification_is_accurate(n):
    # the column is ||O^{-1} w|| for the draws w alone, so it keeps the
    # accuracy of one solve: n eps cond(O) relative to the exact median
    rng = np.random.default_rng(700 + n)
    spec = random_minimal_spec(rng, n)
    scales = rng.uniform(0.2, 1.0, 4)
    O = analysis.bruteforce_observability_matrix(spec, np.arange(n) * scales[:, None])
    trials = 6 + n % 2  # an even count takes the mean of the middle two
    seeds = [n * 1000003 + idx for idx in range(len(scales))]
    amps = cli._noise_amplification(O, trials, seeds)
    for Op, amp, seed in zip(O, amps, seeds):
        w = np.random.default_rng(seed).standard_normal((trials, 2, n))[:, 1].T
        exact = _exact_median_error(Op, w)
        bound = n * np.finfo(float).eps * np.linalg.cond(Op)
        assert abs(mpmath.mpf(float(amp)) - exact) <= bound * exact


@pytest.mark.parametrize("trials", [1, 2, 5, 6, 7, 50])
def test_median_norm_is_numpys(trials):
    # the noise column's norm and median, bit for bit, over odd and even
    # trial counts, and rows that hold inf, nan or both
    rng = np.random.default_rng(trials)
    x = rng.standard_normal((8, 4, trials)) * np.exp2(rng.uniform(-40.0, 40.0, (8, 1, 1)))
    x[1, 2, 0] = math.inf
    x[2, :, -1] = math.inf
    x[3, 0, trials // 2] = math.nan
    x[4, 1, 0], x[4, 3, -1] = math.inf, math.nan
    x[5] = math.inf
    x[6, 2] = math.nan
    expected = np.median(np.linalg.norm(x, axis=-2), axis=-1)
    assert cli._median_norm(x).tobytes() == expected.tobytes()


# ---------------------------------------------------------------------------
# cost: one observability matrix per scale, whatever the number of trials

@pytest.mark.parametrize("system", ["third_order.json", "oscillator.json"])
def test_sweep_cost_does_not_grow_with_trials(monkeypatch, capsys, system):
    flow_calls = count_calls(monkeypatch, lti.jordan_flow, (lti, analysis, simulate, ns))
    # the sweep solves its own stack: no per-trial simulation or solve
    simulations = [count_calls(monkeypatch, fn, (simulate, ns)) for fn in (
        simulate.simulate_impulse_train, simulate.reconstruct_initial_state,
        simulate.solve_checked)]
    per_command = []
    for trials in (3, 30):
        flow_calls.clear()
        code, _, _ = run(capsys, "sweep", "--system", str(DATA / system),
                         "--from", "0.2", "--to", "1.0", "--points", "4",
                         "--trials", str(trials))
        assert code == 0
        per_command.append(len(flow_calls))
    assert per_command[0] == per_command[1] > 0
    assert simulations == [[], [], []]


def test_sweep_checks_minimality_once(monkeypatch, capsys):
    calls = count_calls(monkeypatch, lti.check_minimality, (lti, analysis, cli, simulate, ns))
    code, _, _ = run(capsys, "sweep", "--system", str(DATA / "third_order.json"),
                     "--from", "0.2", "--to", "1.0", "--points", "4", "--trials", "3")
    assert code == 0
    assert len(calls) == 1


def test_sweep_kernel_calls_do_not_grow_with_points(monkeypatch, capsys):
    flow_calls = count_calls(monkeypatch, lti.jordan_flow, (lti, analysis, simulate, ns))
    per_command = []
    for points in (4, 64):
        flow_calls.clear()
        code, _, _ = run(capsys, "sweep", "--system", str(DATA / "third_order.json"),
                         "--from", "0.2", "--to", "1.0", "--points", str(points),
                         "--trials", "6")
        assert code == 0
        per_command.append(len(flow_calls))
    assert per_command[0] == per_command[1] > 0


def _sweep_peak_bytes(points, trials):
    argv = ["sweep", "--system", str(DATA / "oscillator.json"), "--from", "0.2",
            "--to", "3.0", "--trials", str(trials), "--points"]
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        assert main(argv + ["10"]) == 0  # parser, caches and first-call allocations
        tracemalloc.start()
        try:
            assert main(argv + [str(points)]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()


def test_sweep_memory_does_not_grow_with_points_or_trials():
    # rows stream block by block, and a block holds about the same number of
    # floats whatever --trials is
    base = _sweep_peak_bytes(2000, 20)
    assert _sweep_peak_bytes(20000, 20) <= 1.1 * base
    assert _sweep_peak_bytes(2000, 200) <= 1.1 * base


@pytest.mark.parametrize("start, stop, points", [
    (0.2, 1.0, 8), (1.0, 0.2, 7), (-3.0, 5.5, 1), (0.3, 0.3, 4), (0.1, 40.0, 1000),
    (2.0, 0.0, 2), (1e-320, 1e-310, 9), (5e-324, 1e-323, 5), (-1e308, 1e308, 6)])
def test_sweep_scales_are_slices_of_linspace(start, stop, points):
    args = argparse.Namespace(start=start, stop=stop, points=points)
    with np.errstate(all="ignore"):
        full = np.linspace(start, stop, points)
    for block in (1, 3, points):
        got = np.concatenate([cli._scales(args, lo, min(lo + block, points))
                              for lo in range(0, points, block)])
        assert got.tobytes() == full.tobytes()


# ---------------------------------------------------------------------------
# the whole output against the per-scale loop of tests/reference.py

def _system_file(tmp_path, name, spec):
    return _write_system(tmp_path / f"{name}.json", spec)


def _pinned_system(tmp_path, name):
    if name in ("third_order", "oscillator"):
        return str(DATA / f"{name}.json")
    if name.startswith("random"):
        n = int(name[len("random"):])
        return _system_file(tmp_path, name, random_minimal_spec(np.random.default_rng(90 + n), n))
    if name == "non_minimal":  # the second mode is unobservable: gram_det is nan
        return _system_file(tmp_path, name, ns.system_from_modes([(-0.3, 1), (-1.1, 1)],
                                                                 [1.0, 0.0]))
    if name == "hadamard":  # Phi's row norms overflow from scale 80, det Phi from 110
        spec = ns.system_from_modes([(1.0, 1), (-1.0, 1), (3.0, 1)], [1.0, 1.0, 1.0])
        return _system_file(tmp_path, name, spec)
    assert name == "overflowing"  # e^{alpha} overflows past alpha = 709.78
    return _system_file(tmp_path, name, ns.system_from_modes([(1.0, 1), (-0.5, 1)],
                                                             [1.0, 1.0]))


PINNED = [
    # system, from, to, points, trials, seed
    ("third_order", 0.2, 1.0, 8, 6, 0),
    ("third_order", 0.05, 6.0, 25, 3, 11),
    ("oscillator", 0.5, 3.5, 9, 5, 2),
    ("oscillator", math.pi, math.pi, 3, 4, 0),  # half period: O singular, inf
    ("third_order", 1.2, 0.1, 7, 4, 5),         # descending
    ("oscillator", 1.0, -0.5, 7, 3, 0),         # reaches 0 after four rows
    ("third_order", 0.3, -0.3, 1, 3, 0),
    ("third_order", 0.2, 1.0, 5, 4, 1),
    ("non_minimal", 0.2, 2.0, 5, 6, 3),
    ("overflowing", 700.0, 800.0, 2, 50, 0),    # one row, then the error
    ("overflowing", 600.0, 760.0, 9, 4, 7),
    ("hadamard", 60.0, 120.0, 7, 2, 0),
    *[(f"random{n}", 0.2, 1.5, 6, 5, n) for n in range(2, 9)],
]


def _pinned_output(capsys, monkeypatch, tmp_path, case):
    name, start, stop, points, trials, seed = case
    monkeypatch.delenv("NUSAMPLE_TOL", raising=False)
    system = _pinned_system(tmp_path, name)
    got = run(capsys, "sweep", "--system", system, "--from", repr(start), "--to", repr(stop),
              "--points", str(points), "--trials", str(trials), "--seed", str(seed))
    assert got == reference.sweep(system, start, stop, points, trials, seed)
    return got


@pytest.mark.parametrize("case", PINNED, ids=lambda c: f"{c[0]}-{c[1]:g}-{c[2]:g}")
def test_sweep_output_matches_per_scale_loop(capsys, monkeypatch, tmp_path, case):
    code, out, err = _pinned_output(capsys, monkeypatch, tmp_path, case)
    rows = [row.split(",") for row in out.splitlines()[1:]]
    assert err == "" if code == 0 else err.startswith("error: ")
    if case[0] == "non_minimal":
        assert {row[2] for row in rows} == {"nan"}
    if case[1] == math.pi:
        assert {row[4] for row in rows} == {"inf"}
    if case[:3] == ("oscillator", 1.0, -0.5):  # 1, 0.75, 0.5 and 0.25, then 0
        assert (code, len(rows)) == (1, 4)
    if case[:3] == ("overflowing", 600.0, 760.0):  # 600 to 700, then 720 overflows
        assert (code, len(rows)) == (1, 6)
    if case[0] == "hadamard":  # no threshold stops it: 60 to 100, then det Phi overflows
        assert (code, len(rows)) == (1, 5)
        assert err.startswith("error: the determinant of the basis matrix")


def test_analyze_judges_where_the_row_norms_overflow(capsys, tmp_path):
    # where the product of Phi's row norms overflows (scale 80 of the hadamard
    # sweep) det Phi is finite, and the verdict reads Phi with unit rows: its
    # 60-digit sigma_min / sigma_max is 2.48e-62, so analyze refuses it
    instants = (0.0, 80.0, 160.0)
    spec = ns.system_from_modes([(1.0, 1), (-1.0, 1), (3.0, 1)], [1.0, 1.0, 1.0])
    ratio = reference.row_normalized_ratio(spec.eigen, ns.alphas(ns.SamplingSequence(instants)))
    assert float(ratio) == pytest.approx(2.48e-62, rel=2e-3)
    seq = tmp_path / "seq.json"
    seq.write_text(json.dumps({"instants": list(instants)}))
    code, out, err = run(capsys, "analyze", "--system", _pinned_system(tmp_path, "hadamard"),
                         "--instants", str(seq))
    assert (code, err) == (2, "")
    assert "admissible = no" in out.splitlines()


def test_sweep_small_blocks_match_per_scale_loop(capsys, monkeypatch, tmp_path):
    # three scales per block: the overflow falls in the third block, and the
    # rows of the blocks before it and of its first scale still come out
    monkeypatch.setattr(cli, "SWEEP_BLOCK_FLOATS", 2 * (2 + 2 * 4) * 3)
    code, out, _ = _pinned_output(capsys, monkeypatch, tmp_path,
                                  ("overflowing", 600.0, 760.0, 9, 4, 7))
    assert code == 1 and len(out.splitlines()) == 7
