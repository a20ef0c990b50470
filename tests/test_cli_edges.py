"""CLI inputs at the edges: overflowing design searches, spirals,
exponential modes and modal coefficients, the design's minimum spacing, zero
counts, negative seeds and branch bounds, non-finite floats, the parser
shared by successive main() calls, and the exit contract on generated
system and sequence files and flags."""
import contextlib
import io
import json
import math
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from nusample import cli, fileio
from nusample.cli import main
import reference

DATA = Path(__file__).parent / "data"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def _write_system(tmp_path, roots, coeffs):
    path = tmp_path / "system.json"
    path.write_text(json.dumps({
        "order": len(roots),
        "roots": [{"re": r, "im": 0.0, "mult": 1} for r in roots],
        "mode_coefficients": [{"re": c, "im": 0.0} for c in coeffs],
    }))
    return str(path)


def test_design_overflowing_grid_exits_cleanly(capsys, tmp_path):
    # e^{1.0 * alpha} overflows on most of the grid up to dmax = 800
    system = _write_system(tmp_path, [1.0, -0.5], [1.0, 1.0])
    code, out, err = run(capsys, "design", "--system", system, "--t0", "0",
                         "--dmax", "800")
    assert code in (0, 1)
    assert "Traceback" not in err
    if code == 0:
        assert "gram_determinant = " in out
    else:
        assert err.startswith("error:")


def test_design_overflowing_sequence_is_an_error(capsys, tmp_path):
    # every candidate overflows, so the search cannot end on a finite sequence
    system = _write_system(tmp_path, [5.0, 4.0], [1.0, 1.0])
    code, _, err = run(capsys, "design", "--system", system, "--t0", "0",
                       "--dmin", "200", "--dmax", "300")
    assert code == 1
    assert err.startswith("error:")


def test_design_zero_steps_is_an_input_error(capsys):
    code, _, err = run(capsys, "design", "--system", str(DATA / "third_order.json"),
                       "--t0", "0", "--method", "generic", "--steps", "0")
    assert code == 1
    assert err.startswith("error:")


def test_closed_form_reads_no_steps(capsys):
    # only the generic search reads --steps, and it refuses a zero count itself
    code, out, err = run(capsys, "design", "--system", str(DATA / "oscillator.json"),
                         "--t0", "0", "--method", "closed", "--steps", "0")
    assert (code, err) == (0, "")
    assert out.startswith("method = closed-form-2nd\n")


@pytest.mark.parametrize("system, method, message", [
    ("oscillator.json", "auto", "(2m + 1) pi / (2b) = 1.5708"),
    ("third_order.json", "geometric", "pi / (2b) = 1.309"),
    ("third_order.json", "generic", "dmin = 0.05"),
])
def test_design_first_interval_rounding_away_is_named(capsys, system, method, message):
    # at t0 = 1.7e18 (a timestamp in nanoseconds) a float's spacing is 256,
    # so each route's first interval vanishes in t0 + interval
    code, out, err = run(capsys, "design", "--system", str(DATA / system),
                         "--t0", "1.7e18", "--method", method)
    assert (code, out) == (1, "")
    assert err == (f"error: the first interval {message} rounds away at t0 = 1.7e+18; "
                   "move t0 nearer to zero\n")


@pytest.mark.parametrize("argv, flag, value", [
    (["design", "--system", str(DATA / "oscillator.json")], "--t0", "-5e-06"),
    (["design", "--system", str(DATA / "third_order.json"), "--t0", "0", "--method",
      "geometric"], "--t1", "-2.5e-1"),
    (["sweep", "--system", str(DATA / "third_order.json"), "--to", "1", "--points", "3",
      "--trials", "2"], "--from", "-1e-3"),
    (["design", "--system", str(DATA / "oscillator.json")], "--t0", "-1E+2"),
    (["design", "--system", str(DATA / "oscillator.json")], "--t0", "-inf"),
])
def test_negative_float_in_any_form_is_a_value(capsys, argv, flag, value):
    # argparse reads only -12 and -1.5 as negative numbers on its own
    separate = run(capsys, *argv, flag, value)
    assert separate == run(capsys, *argv, f"{flag}={value}")
    assert "expected one argument" not in separate[2]
    if flag == "--from":
        assert separate[0] == 1
        assert separate[2] == "error: interval scale must stay positive over the sweep\n"


def test_sweep_zero_trials_is_an_input_error(capsys):
    code, out, err = run(capsys, "sweep", "--system", str(DATA / "third_order.json"),
                         "--from", "0.2", "--to", "1.0", "--points", "3",
                         "--trials", "0")
    assert code == 1
    assert err.startswith("error:")
    assert "nan" not in out


def test_parser_is_built_once(capsys, monkeypatch):
    built = []
    original = cli.build_parser

    def counting():
        built.append(1)
        return original()

    monkeypatch.setattr(cli, "build_parser", counting)
    monkeypatch.setattr(cli, "_PARSER", None)
    for _ in range(3):
        code, _, _ = run(capsys, "design", "--system", str(DATA / "oscillator.json"),
                         "--t0", "0.0")
        assert code == 0
    assert len(built) == 1


def _clean_error(code, err):
    assert code == 1
    assert err.startswith("error:")
    assert "Traceback" not in err


def test_analyze_overflowing_mode_is_an_error(capsys, tmp_path):
    # e^{1.0 * alpha} overflows a float past alpha = 709.78
    system = _write_system(tmp_path, [1.0, -0.5], [1.0, 1.0])
    seq = tmp_path / "seq.json"
    seq.write_text(json.dumps({"instants": [0.0, 800.0]}))
    code, _, err = run(capsys, "analyze", "--system", system, "--instants", str(seq))
    _clean_error(code, err)
    assert "Re lambda * alpha = 800" in err


def test_verify_overflowing_mode_is_an_error(capsys, tmp_path):
    system = _write_system(tmp_path, [1.0, -0.5], [1.0, 1.0])
    seq = tmp_path / "seq.json"
    seq.write_text(json.dumps({"instants": [0.0, 800.0], "final_instant": 801.0}))
    code, _, err = run(capsys, "verify", "--system", system, "--instants", str(seq),
                       "--seed", "1")
    _clean_error(code, err)


def test_analyze_overflowing_determinant_is_an_error(capsys, tmp_path):
    # every entry of Phi is finite (the largest is 9.6e307), but det(Phi) and
    # the product of its row norms overflow, and so do the mode vectors
    path = tmp_path / "system.json"
    b = math.pi / 4 / 709.5
    path.write_text(json.dumps({
        "order": 3,
        "roots": [{"re": -0.5, "im": 0.0, "mult": 1}, {"re": 1.0, "im": b, "mult": 1},
                  {"re": 1.0, "im": -b, "mult": 1}],
        "mode_coefficients": [{"re": 1.0, "im": 0.0}, {"re": 0.75, "im": -0.75},
                              {"re": 0.75, "im": 0.75}],
    }))
    seq = tmp_path / "seq.json"
    seq.write_text(json.dumps({"instants": [0.0, 354.75, 709.5]}))
    code, out, err = run(capsys, "analyze", "--system", str(path), "--instants", str(seq))
    _clean_error(code, err)
    assert "Warning" not in err
    assert out == ""


# the Vandermonde basis B of the roots overflows Python's ** past 1.8e308 on
# loading Markov parameters, whose Wronskian is B D.  Nothing else builds B
# on these paths: verify runs in the Jordan frame, so on the same roots with
# modal coefficients it exits 2, as analyze does (cond(Phi) = 1.4e48)
BIG_REAL = [{"re": 1e200, "im": 0.0, "mult": 1}, {"re": -1.0, "im": 0.0, "mult": 1},
            {"re": -2.0, "im": 0.0, "mult": 1}]
BIG_PAIR = [{"re": 0.1, "im": 1e200, "mult": 1}, {"re": 0.1, "im": -1e200, "mult": 1},
            {"re": -1.0, "im": 0.0, "mult": 1}]


@pytest.mark.parametrize("roots, fields, argv, sequence", [
    (BIG_REAL, {"markov": [1, 1, 1]}, ["analyze"], {"instants": [0.0, 1.0, 2.0]}),
    (BIG_PAIR, {"markov": [1, 1, 1]}, ["design", "--t0", "0"], None),
    (BIG_REAL, {"markov": [1, 1, 1]}, ["verify", "--seed", "1"],
     {"instants": [0.0, 1e-300, 2e-300], "final_instant": 3e-300}),
], ids=["analyze", "design", "verify"])
def test_overflowing_vandermonde_basis_is_an_error(capsys, tmp_path, roots, fields, argv,
                                                   sequence):
    system = tmp_path / "system.json"
    system.write_text(json.dumps({"order": 3, "roots": roots, **fields}))
    argv = argv + ["--system", str(system)]
    if sequence is not None:
        seq = tmp_path / "seq.json"
        seq.write_text(json.dumps(sequence))
        argv += ["--instants", str(seq)]
    code, out, err = run(capsys, *argv)
    _clean_error(code, err)
    assert "|lambda|^(n-1) = 1e+200^2" in err
    assert out == ""


def test_sweep_overflowing_mode_is_an_error(capsys, tmp_path):
    system = _write_system(tmp_path, [1.0, -0.5], [1.0, 1.0])
    code, _, err = run(capsys, "sweep", "--system", system, "--from", "700",
                       "--to", "800", "--points", "2")
    _clean_error(code, err)


def test_sweep_row_below_overflow_keeps_its_gram_det(capsys, tmp_path):
    # at scale 700 every entry is finite but near 1e304, so squaring it for
    # a norm would overflow; the row must still carry the true Gram det
    system = _write_system(tmp_path, [1.0, -0.5], [1.0, 1.0])
    code, out, err = run(capsys, "sweep", "--system", system, "--from", "700",
                         "--to", "800", "--points", "2")
    _clean_error(code, err)
    rows = out.splitlines()
    assert len(rows) == 2
    scale, _, gram, _, _ = rows[1].split(",")
    assert (scale, float(gram)) == ("700", pytest.approx(0.5))


def _write_spiral_system(tmp_path, lam=1.0, a=-0.3, b=1.2, c=0.5 - 0.25j, r=1.0):
    """Real root lam and pair a +- jb, coefficients r and c, conj(c), in
    ``tmp_path``, which is made if it is missing."""
    tmp_path.mkdir(exist_ok=True)
    path = tmp_path / "spiral.json"
    path.write_text(json.dumps({
        "order": 3,
        "roots": [{"re": lam, "im": 0.0, "mult": 1},
                  {"re": a, "im": b, "mult": 1},
                  {"re": a, "im": -b, "mult": 1}],
        "mode_coefficients": [{"re": r, "im": 0.0}, {"re": c.real, "im": c.imag},
                              {"re": c.real, "im": -c.imag}],
    }))
    return str(path)


# at these instants the mode vectors' largest entries are subnormal (6.9e-319
# and 3.5e-323): a few bits, too few for a Gram determinant or an angle
SUBNORMAL_SYSTEM = dict(lam=-9.225, a=-5.657, b=0.01212, c=0.909 + 0.892j)


def test_geometric_design_subnormal_mode_vectors_is_an_error(capsys, tmp_path):
    code, out, err = run(capsys, "design", "--system",
                         _write_spiral_system(tmp_path, **SUBNORMAL_SYSTEM),
                         "--method", "geometric", "--t0", "0", "--t1", "1.757")
    _clean_error(code, err)
    assert "vanishes" in err
    assert out == ""


def test_analyze_subnormal_mode_vectors_is_an_error(capsys, tmp_path):
    seq = tmp_path / "seq.json"
    seq.write_text(json.dumps({"instants": [0.0, 1.757, 131.363991441]}))
    code, out, err = run(capsys, "analyze", "--system",
                         _write_spiral_system(tmp_path, **SUBNORMAL_SYSTEM),
                         "--instants", str(seq))
    _clean_error(code, err)
    assert "vanishes" in err
    assert out == ""


def test_geometric_design_overflowing_spiral_is_an_error(capsys, tmp_path):
    # e^{1.0 * alpha} at the second instant overflows a float
    code, _, err = run(capsys, "design", "--system", _write_spiral_system(tmp_path),
                       "--method", "geometric", "--t0", "0", "--t1", "800")
    _clean_error(code, err)
    assert "spiral overflows" in err


def test_geometric_design_skips_overflowing_branches(capsys, tmp_path):
    # branches up to m = 200 reach alpha ~ 1000, where the height overflows
    code, out, err = run(capsys, "design", "--system", _write_spiral_system(tmp_path),
                         "--method", "geometric", "--t0", "0", "--t1", "0.5",
                         "--m-max", "200")
    assert code == 0, err
    lines = dict(line.split(" = ") for line in out.splitlines())
    instants = [float(t) for t in lines["instants"].split()]
    assert instants[:2] == [0.0, 0.5] and 0.5 < instants[2] < 700.0
    assert 0.0 < float(lines["gram_determinant"]) <= 1.0


def test_unwritable_output_path_is_an_error(capsys, tmp_path):
    # the directory does not exist, so open() raises FileNotFoundError
    path = tmp_path / "missing" / "g.csv"
    code, out, err = run(capsys, "design", "--system", str(DATA / "third_order.json"),
                         "--t0", "0", "--method", "geometric", "--t1", "1.0",
                         "--trace", str(path))
    assert (code, out) == (1, "")
    assert err == (f"error: cannot write {path}: [Errno 2] No such file or "
                   f"directory: '{path}'\n")


@pytest.mark.parametrize("system, flags, method, flag, value", [
    ("third_order.json", ["--method", "generic"], "generic", "--trace", "t.csv"),
    ("oscillator.json", ["--method", "closed"], "closed", "--trace", "t.csv"),
    ("oscillator.json", [], "closed", "--trace", "t.csv"),  # auto on a lone pair
    ("oscillator.json", [], "closed", "--trace", "missing/t.csv"),
    ("third_order.json", ["--method", "generic"], "generic", "--t1", "1.0"),
    ("oscillator.json", ["--method", "closed"], "closed", "--t1", "1.0"),
    ("third_order.json", [], "generic", "--t1", "1.0"),  # auto on a pair plus a real root
], ids=["generic", "closed", "auto", "auto_missing_dir", "t1_generic", "t1_closed",
        "t1_auto"])
def test_trace_off_the_geometric_step_is_a_usage_error(capsys, tmp_path, system, flags,
                                                       method, flag, value):
    # only the geometric step has a trace and a t1; the method is decided
    # before the search, so nothing is printed or written, whether or not
    # the path could be written
    if flag == "--trace":
        value = str(tmp_path / value)
    code, out, err = run(capsys, "design", "--system", str(DATA / system), "--t0", "0",
                         *flags, flag, value)
    assert (code, out) == (1, "")
    assert err == (f"error: {flag} applies to the geometric method only; this "
                   f"design takes the {method} method\n")
    assert not any(tmp_path.iterdir())


# the growing real mode e^{5.094 alpha} swamps the pair in the second and third
# mode vectors, so they are parallel: the geometric step's sequence has a zero
# Gram determinant, which used to exit 0
DEGENERATE_SPIRAL = dict(lam=5.094, a=-0.4729, b=0.36, c=0.1506 + 0.6349j)
# det(Yn)^2 keeps the Gram determinant's digits (the 60-digit value is
# 2.25757402617e-46), where det(Yn' Yn) read 0
DEGENERATE_ERROR = ("error: the geometric step's sequence is inadmissible "
                    "(gram_determinant = 2.25757e-46)\n")


def _auto_designs(capsys, system):
    """auto on ``system`` at t0 = 0 exits 0 through the generic search."""
    code, out, err = run(capsys, "design", "--system", system, "--t0", "0")
    assert (code, err) == (0, "")
    assert out.startswith("method = generic-search\n")


@pytest.mark.parametrize("method", ["geometric", "auto"])
def test_design_degenerate_geometric_step_is_an_error(capsys, tmp_path, method):
    system = _write_spiral_system(tmp_path, **DEGENERATE_SPIRAL)
    if method == "auto":  # auto takes the generic search, which designs it
        _auto_designs(capsys, system)
        return
    trace = tmp_path / "trace.csv"
    code, out, err = run(capsys, "design", "--system", system,
                         "--method", method, "--t0", "0", "--t1", "4.019",
                         "--trace", str(trace))
    assert (code, out, err) == (1, "", DEGENERATE_ERROR)
    assert not trace.exists()


# (lam, a, b, t1) whose geometric step ended in a traceback: the surface
# scaling mu over- or underflowing (lam / a = 5000), mode vectors of the
# designed sequence that overflow (LinAlgError from the SVD), and ones that
# underflow to zero (ArithmeticError)
GEOMETRIC_TRACEBACKS = [(5.0, 0.001, 1.0, 0.5), (-6.979, 9.005, 0.0032, 1.28),
                        (-9.139, -4.872, 0.0032, 1.08)]


@pytest.mark.parametrize("lam, a, b, t1", GEOMETRIC_TRACEBACKS)
@pytest.mark.parametrize("method", ["geometric", "auto"])
def test_geometric_design_out_of_float_range_is_an_error(capsys, tmp_path,
                                                         lam, a, b, t1, method):
    system = _write_spiral_system(tmp_path, lam, a, b)
    if method == "auto":  # auto takes the generic search, which designs it
        _auto_designs(capsys, system)
        return
    trace = tmp_path / "trace.csv"
    code, out, err = run(capsys, "design", "--system", system,
                         "--method", method, "--t0", "0", "--t1", str(t1),
                         "--trace", str(trace))
    _clean_error(code, err)
    assert out == ""
    assert not trace.exists()


def test_closed_form_design_overflow_is_an_error(capsys, tmp_path):
    # a quarter turn of b = 1 takes alpha = pi / 2, where e^{800 alpha} overflows
    path = tmp_path / "pair.json"
    path.write_text(json.dumps({
        "order": 2,
        "roots": [{"re": 800.0, "im": 1.0, "mult": 1},
                  {"re": 800.0, "im": -1.0, "mult": 1}],
        "mode_coefficients": [{"re": 0.5, "im": -0.25}, {"re": 0.5, "im": 0.25}],
    }))
    code, _, err = run(capsys, "design", "--system", str(path), "--t0", "0")
    _clean_error(code, err)


@settings(max_examples=60, deadline=None)
@given(lam=st.floats(-20.0, 10.0), a=st.floats(-10.0, 10.0),
       log_b=st.floats(-3.0, 1.0), log_t1=st.floats(-2.0, 2.0))
def test_geometric_design_never_raises(tmp_path_factory, lam, a, log_b, log_t1):
    system = _write_spiral_system(tmp_path_factory.mktemp("geo"), lam, a, 10.0 ** log_b)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["design", "--system", system, "--method", "geometric",
                     "--t0", "0", "--t1", repr(10.0 ** log_t1)])
    assert code in (0, 1)
    if code == 1:
        assert err.getvalue().startswith("error:")
    else:
        assert "gram_determinant = " in out.getvalue()


def test_design_refinement_keeps_dmin(capsys, tmp_path):
    # the grid starts at dmin = 600, where e^{alpha} is finite but its square
    # is not; the search scores it anyway (0.5, flat up to the overflow near
    # 709), and the refinement must not slide the instant below dmin
    system = _write_system(tmp_path, [1.0, -0.5], [1.0, 1.0])
    code, out, err = run(capsys, "design", "--system", system, "--t0", "0",
                         "--dmin", "600", "--dmax", "800")
    assert (code, err) == (0, "")
    printed = dict(line.split(" = ") for line in out.splitlines())
    instants = [float(t) for t in printed["instants"].split()]
    assert min(b - a for a, b in zip(instants, instants[1:])) >= 600.0
    spec = fileio.load_system(system)
    assert printed["gram_determinant"] == cli.fmt(reference.gram_det(spec, instants))


def test_generic_design_inadmissible_search_is_an_error(capsys, tmp_path):
    # past an interval of 100 only the e^{-0.5 alpha} mode is left in a sampled
    # mode vector, so no candidate clears the Gram floor
    system = _write_system(tmp_path, [-7.0, -0.5, -6.9], [1.0, 1.0, 1.0])
    code, out, err = run(capsys, "design", "--system", system, "--t0", "0",
                         "--dmin", "100", "--dmax", "160")
    assert (code, out, err) == (1, "", "error: every grid candidate is inadmissible\n")


def test_generic_design_intervals_respect_dmin(capsys):
    code, out, _ = run(capsys, "design", "--system", str(DATA / "third_order.json"),
                       "--t0", "0", "--method", "generic", "--dmin", "1.0")
    assert code == 0
    line = next(l for l in out.splitlines() if l.startswith("instants = "))
    instants = [float(t) for t in line.split(" = ")[1].split()]
    assert len(instants) == 3
    assert min(b - a for a, b in zip(instants, instants[1:])) >= 1.0


THIRD = ["--system", str(DATA / "third_order.json")]
THIRD_SEQ = [*THIRD, "--instants", str(DATA / "third_sequence.json")]


def test_geometric_design_negative_branch_bound_is_an_error(capsys):
    code, out, err = run(capsys, "design", *THIRD, "--t0", "0", "--method", "geometric",
                         "--m-max", "-1")
    assert (code, out, err) == (1, "", "error: branch bound m_max must be nonnegative\n")


@pytest.mark.parametrize("argv", [
    ["verify", *THIRD_SEQ, "--seed", "-1"],
    ["sweep", *THIRD, "--from", "0.2", "--to", "1.0", "--points", "3", "--seed", "-1"],
])
def test_negative_seed_is_an_input_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (1, "", "error: seed must be nonnegative\n")


def _sweep(start="0.2", stop="1.0"):
    return ["sweep", *THIRD, "--from", start, "--to", stop, "--points", "3", "--trials", "3"]


@pytest.mark.parametrize("argv, env", [
    (["analyze", *THIRD_SEQ, "--tol", "inf"], None),
    (["analyze", *THIRD_SEQ, "--tol", "nan"], None),
    (["analyze", *THIRD_SEQ, "--tol", "1e999"], None),
    (["analyze", *THIRD_SEQ], "inf"),
    (["analyze", *THIRD_SEQ], "nan"),
    (["analyze", *THIRD_SEQ], "-inf"),
    (["design", *THIRD, "--t0", "0", "--method", "geometric", "--t1", "inf"], None),
    (_sweep(stop="inf"), None),
    (_sweep(start="nan"), None),
    (["design", *THIRD, "--t0", "0", "--method", "generic", "--dmax", "inf"], None),
    (["design", *THIRD, "--t0", "nan"], None),
    # a flag outranks NUSAMPLE_TOL, whatever the variable holds
    (["analyze", *THIRD_SEQ, "--tol", "nan"], "1e-9"),
])
def test_non_finite_float_is_an_input_error(capsys, monkeypatch, argv, env):
    if env is None:
        monkeypatch.delenv("NUSAMPLE_TOL", raising=False)
    else:
        monkeypatch.setenv("NUSAMPLE_TOL", env)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert "error: " in err and "finite" in err
    assert "Traceback" not in err and "Warning" not in err and "overflow" not in err


def test_sweep_reads_no_tolerance(capsys, monkeypatch):
    # no column of the sweep depends on the admissibility tolerance, so it
    # has no --tol and a malformed NUSAMPLE_TOL does not fail it
    monkeypatch.setenv("NUSAMPLE_TOL", "not-a-number")
    code, out, err = run(capsys, *_sweep())
    assert code == 0 and len(out.splitlines()) == 4 and err == ""
    code, out, err = run(capsys, *_sweep(), "--tol", "1e-9")
    assert (code, out) == (1, "")
    assert err.endswith("error: unrecognized arguments: --tol 1e-9\n")


def test_sweep_takes_no_noise_level(capsys):
    # the noise column is the error per unit noise, whatever the level
    code, out, err = run(capsys, *_sweep(), "--noise", "1e-4")
    assert (code, out) == (1, "")
    assert err.endswith("error: unrecognized arguments: --noise 1e-4\n")


def test_finite_tolerance_flag_outranks_a_non_finite_environment(capsys, monkeypatch):
    monkeypatch.setenv("NUSAMPLE_TOL", "inf")
    code, out, _ = run(capsys, "analyze", *THIRD_SEQ, "--tol", "1e-9")
    assert code == 0 and "admissible = yes" in out


SWEEP_TWO = ["sweep", *THIRD, "--from", "0.2", "--to", "1.0", "--points", "2"]
DESIGN_THIRD = ["design", *THIRD, "--t0", "0", "--method"]


UNALLOCATABLE = [
    # numpy refuses arrays of petabytes or hundreds of terabytes at once,
    # before any memory is touched
    ([*SWEEP_TWO, "--trials", "100000000000000"], "out of memory (Unable to allocate "),
    ([*DESIGN_THIRD, "geometric", "--m-max", "100000000000000"],
     "out of memory (Unable to allocate "),
    # counts past the floats one array can hold, refused at the flag
    ([*SWEEP_TWO, "--trials", "4611686018427387904"],
     "argument --trials: count too large for an array: '4611686018427387904'"),
    ([*DESIGN_THIRD, "geometric", "--m-max", "9223372036854775807"],
     "argument --m-max: count too large for an array: '9223372036854775807'"),
    ([*DESIGN_THIRD, "generic", "--steps", "9223372036854775807"],
     "argument --steps: count too large for an array: '9223372036854775807'"),
    ([*SWEEP_TWO[:-1], str(10 ** 400)], "argument --points: count too large for an array: "),
    # a branch integer, not a count: its t1 leaves the float range
    (["design", "--system", str(DATA / "oscillator.json"), "--t0", "0", "--method", "closed",
      "--m", str(10 ** 400)], "branch integer m puts t1 past the float range"),
    # a count the flag takes, whose noise draws hold more bytes than numpy counts
    ([*SWEEP_TWO, "--trials", str(2 ** 59)], "out of memory (array is too big"),
]


@pytest.mark.parametrize("argv, expected", UNALLOCATABLE,
                         ids=[f"argv{i}" for i in range(len(UNALLOCATABLE))])
def test_unallocatable_count_is_an_error(capsys, argv, expected):
    code, _, err = run(capsys, *argv)
    lines = err.splitlines()
    assert code == 1 and "Traceback" not in err
    assert [line for line in lines if "error:" in line] == lines[-1:]
    assert lines[-1].startswith(f"error: {expected}")
    if not expected.startswith("argument "):  # only a usage error prints usage lines first
        assert len(lines) == 1


# roots 0.75 and -0.73 +- 0.35j, coefficients -2.36 and 0.76 -+ 0.64j: the
# geometric step's sequence is inadmissible, so auto exited 1 while it took
# that step on every pair plus a real root
INADMISSIBLE_SPIRAL = dict(lam=0.75, a=-0.73, b=0.35, c=0.76 - 0.64j, r=-2.36)


def test_auto_design_skips_the_degenerate_geometric_step(capsys, tmp_path):
    # auto takes the generic search on a pair plus a real root, so it designs
    # what the geometric step refuses and prints --method generic's bytes:
    # roots -1, -1 +- 2j (lambda = a, where the surface scaling relation
    # degenerates), INADMISSIBLE_SPIRAL, the fixture and seeded draws
    def design(system, *flags):
        return run(capsys, "design", "--system", system, "--t0", "0", *flags)

    lam_is_a = _write_spiral_system(tmp_path / "lam_is_a", lam=-1.0, a=-1.0, b=2.0)
    assert design(lam_is_a, "--method", "geometric") == (
        1, "", "error: the surface scaling relation degenerates for lambda = a\n")
    inadmissible = _write_spiral_system(tmp_path / "inadmissible", **INADMISSIBLE_SPIRAL)
    assert design(inadmissible, "--method", "geometric") == (
        1, "", "error: the geometric step's sequence is inadmissible "
               "(gram_determinant = 5.85199e-18)\n")
    assert design(inadmissible) == (0, "method = generic-search\n"
                                       "instants = 0 5 5.71793783135\n"
                                       "gram_determinant = 0.00199646783232\n"
                                       "min_principal_angle = 0.283192111701\n", "")
    rng = np.random.default_rng(3)
    draws = [_write_spiral_system(tmp_path / f"draw{i}", lam, a, b, complex(*c), r)
             for i, (lam, a, b, c, r) in enumerate(zip(
                 *rng.uniform(-1.0, 1.0, (2, 5)), rng.uniform(0.3, 3.0, 5),
                 rng.standard_normal((5, 2)), rng.standard_normal(5)))]
    for system in [lam_is_a, inadmissible, str(DATA / "third_order.json"), *draws]:
        _auto_designs(capsys, system)
        assert design(system) == design(system, "--method", "generic")


@pytest.mark.parametrize("field, message", [
    ("order", "'order' must be a positive integer"),
    ("mult", "roots[0].mult must be a positive integer"),
])
def test_boolean_counts_are_rejected(capsys, tmp_path, field, message):
    # JSON true loads as a bool, which Python counts as the int 1
    doc = {"order": 1, "roots": [{"re": -1.0, "im": 0.0, "mult": 1}], "markov": [1.0]}
    if field == "order":
        doc["order"] = True
    else:
        doc["roots"][0]["mult"] = True
    path = tmp_path / "system.json"
    path.write_text(json.dumps(doc))
    seq = tmp_path / "seq.json"
    seq.write_text(json.dumps({"instants": [0.0]}))
    code, out, err = run(capsys, "analyze", "--system", str(path), "--instants", str(seq))
    assert (code, out) == (1, "")
    assert err == f"error: {path}: {message}\n"


ONE_ROOT = {"order": 1, "roots": [{"re": -1.0, "im": 0.0, "mult": 1}], "markov": [1.0]}
ONE_INSTANT = {"instants": [0.0]}
ANALYZE = ["analyze", "--system", "{system}", "--instants", "{sequence}"]
SWEEP = ["sweep", "--system", "{system}", "--from", "0.2", "--to", "1.0"]
VERIFY = ["verify", "--system", "{system}", "--instants", "{sequence}", "--seed", "1"]
TWO_ROOTS = {"order": 2, "roots": [{"re": -1.0, "im": 0.0, "mult": 1},
                                   {"re": -2.0, "im": 0.0, "mult": 1}],
             "mode_coefficients": [{"re": 1.0, "im": 0.0}, {"re": 1.0, "im": 0.0}]}
# the span from the first instant to the final one overflows a float
SPAN_OVERFLOW = (TWO_ROOTS, {"instants": [-1e308, 0.0], "final_instant": 1e308})


def _without(doc, field):
    return {k: v for k, v in doc.items() if k != field}


# (system file, sequence file, argv, NUSAMPLE_TOL, the file the error names,
# message): every input error of fileio and of the flags that no other test
# reaches; a JSON document is written as is when it is a string
INPUT_ERRORS = [
    ("{", ONE_INSTANT, ANALYZE, None, "system", "invalid JSON at line 1, column 2"),
    ({**ONE_ROOT, "markov": ["1"]}, ONE_INSTANT, ANALYZE, None, "system",
     "field 'markov' must be a number, got '1'"),
    ([ONE_ROOT], ONE_INSTANT, ANALYZE, None, "system", "system file must be a JSON object"),
    ({**ONE_ROOT, "roots": []}, ONE_INSTANT, ANALYZE, None, "system",
     "'roots' must be a non-empty list"),
    ({**ONE_ROOT, "roots": [{"re": -1.0, "im": 0.0}]}, ONE_INSTANT, ANALYZE, None, "system",
     "roots[0] needs fields re, im, mult"),
    ({**ONE_ROOT, "order": 2}, ONE_INSTANT, ANALYZE, None, "system",
     "multiplicities sum to 1, but order is 2"),
    ({**ONE_ROOT, "markov": [1.0, 2.0]}, ONE_INSTANT, ANALYZE, None, "system",
     "'markov' must list 1 numbers"),
    ({**_without(ONE_ROOT, "markov"), "mode_coefficients": []}, ONE_INSTANT, ANALYZE, None,
     "system", "'mode_coefficients' must list 1 entries"),
    ({**_without(ONE_ROOT, "markov"), "mode_coefficients": [{"re": 1.0}]}, ONE_INSTANT,
     ANALYZE, None, "system", "mode_coefficients[0] needs fields re, im"),
    (ONE_ROOT, [0.0], ANALYZE, None, "sequence",
     "sequence file must be a JSON object with field 'instants'"),
    (ONE_ROOT, {"instants": []}, ANALYZE, None, "sequence",
     "'instants' must be a non-empty list of numbers"),
    ({**ONE_ROOT, "order": 2, "roots": [{"re": -1.0, "im": 0.0, "mult": 2}],
      "markov": [1.0, 1.0]}, {"instants": [1.0, 0.5]}, ANALYZE, None, "sequence",
     "instants must be strictly increasing (1.0 !< 0.5)"),
    (ONE_ROOT, ONE_INSTANT, [*ANALYZE, "--tol", "abc"], None, None,
     "argument --tol: invalid float value: 'abc'"),
    (ONE_ROOT, ONE_INSTANT, [*ANALYZE, "--tol", "0"], None, None,
     "tolerance must be positive"),
    (ONE_ROOT, ONE_INSTANT, ANALYZE, "0", None, "NUSAMPLE_TOL must be positive"),
    (ONE_ROOT, ONE_INSTANT, [*SWEEP, "--points", "0"], None, None,
     "need at least one sweep point"),
    (TWO_ROOTS, {"instants": [0.0, 1.0], "final_instant": math.inf}, VERIFY, None,
     "sequence", "final instant must be finite"),
    (TWO_ROOTS, {"instants": [0.0, 1.0], "final_instant": math.nan}, VERIFY, None,
     "sequence", "final instant must be finite"),
    (TWO_ROOTS, SPAN_OVERFLOW[1], VERIFY, None, "sequence",
     "the span from t = -1e+308 to t = 1e+308 overflows a float"),
]


@pytest.mark.parametrize("system, sequence, argv, env, named, message", INPUT_ERRORS,
                         ids=[case[-1] for case in INPUT_ERRORS])
def test_input_error_is_one_error_line(capsys, monkeypatch, tmp_path, system, sequence,
                                       argv, env, named, message):
    paths = {}
    for name, doc in (("system", system), ("sequence", sequence)):
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(doc if isinstance(doc, str) else json.dumps(doc))
    if env is None:
        monkeypatch.delenv("NUSAMPLE_TOL", raising=False)
    else:
        monkeypatch.setenv("NUSAMPLE_TOL", env)
    code, out, err = run(capsys, *(arg.format(**paths) for arg in argv))
    assert (code, out) == (1, "")
    line = "error: " + (f"{paths[named]}: " if named else "") + message + "\n"
    if message.startswith("argument "):  # argparse prints its usage line first
        assert err.startswith(f"usage: nusample {argv[0]} ") and err.endswith("\n" + line)
    else:
        assert err == line


# a huge modal coefficient: det Y and N2 grow as the n-th power of the
# coefficients and leave the float range, while their ratio does not
HUGE_COEFFICIENT = (
    {"order": 2, "roots": [{"re": -1.0, "im": 0.0, "mult": 2}],
     "mode_coefficients": [{"re": 1.0, "im": 0.0}, {"re": 1e200, "im": 0.0}]},
    {"instants": [0.0, 1.0]})
HUGE_COEFFICIENTS = (
    {"order": 3, "roots": [{"re": -k, "im": 0.0, "mult": 1} for k in (1.0, 2.0, 3.0)],
     "mode_coefficients": [{"re": 1e120, "im": 0.0}] * 3},
    {"instants": [0.0, 1.0, 2.0]})


@pytest.mark.parametrize("case, n2", [(HUGE_COEFFICIENT, "-inf"), (HUGE_COEFFICIENTS, "inf")],
                         ids=["double-root", "three-roots"])
def test_analyze_huge_modal_coefficients(capsys, tmp_path, case, n2):
    # N2 = -1e400 and 1e360 exceed a float; basis_ratio_ctrl is 4^p = 1
    system, sequence = tmp_path / "system.json", tmp_path / "seq.json"
    system.write_text(json.dumps(case[0]))
    sequence.write_text(json.dumps(case[1]))
    code, out, err = run(capsys, "analyze", "--system", str(system),
                         "--instants", str(sequence))
    assert (code, err) == (0, "")
    printed = dict(line.split(" = ") for line in out.splitlines())
    assert printed["admissible"] == "yes"
    assert printed["factor_N2"] == n2
    assert float(printed["basis_ratio_ctrl"]) == pytest.approx(1.0, rel=0.0, abs=1e-6)


def test_analyze_subnormal_N2_keeps_the_factorization_ratio(capsys, tmp_path):
    # N2 = 5.5e-316 is subnormal, so N1 N2 det Phi carries few bits; the one
    # factorization path divides det Y and N2 by the same power of two
    # instead, and ratio_ctrl is 4^p = 4
    pair = {"order": 2, "roots": [{"re": 0.374, "im": 1.786, "mult": 1},
                                  {"re": 0.374, "im": -1.786, "mult": 1}],
            "mode_coefficients": [{"re": -1.4e-158, "im": -1.87e-158},
                                  {"re": -1.4e-158, "im": 1.87e-158}]}
    system, sequence = tmp_path / "system.json", tmp_path / "seq.json"
    system.write_text(json.dumps(pair))
    sequence.write_text(json.dumps({"instants": [0.0, 0.3564]}))
    code, out, err = run(capsys, "analyze", "--system", str(system),
                         "--instants", str(sequence))
    assert (code, err) == (0, "")
    printed = dict(line.split(" = ") for line in out.splitlines())
    assert printed["factor_N2"] == "5.4569000194e-316"
    assert printed["basis_ratio_ctrl"] == "4"


def _analyze_printed(capsys, tmp_path, case):
    system, sequence = tmp_path / "system.json", tmp_path / "seq.json"
    system.write_text(json.dumps(case[0]))
    sequence.write_text(json.dumps(case[1]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "analyze", "--system", str(system),
                             "--instants", str(sequence))
    assert (code, err) == (0, "")
    return dict(line.split(" = ") for line in out.splitlines())


# partner coefficients 1 and 1 + 0.99e-9j of a double pair: SystemSpec
# accepts them as conjugates (1e-9 of the largest coefficient), so N2 carries
# an imaginary residue of 1.98e-9
NEAR_CONJUGATE = (json.loads((DATA / "near_conjugate.json").read_text()),
                  json.loads((DATA / "near_conjugate_sequence.json").read_text()))


def test_analyze_near_conjugate_pair_keeps_the_factorization(capsys, tmp_path):
    printed = _analyze_printed(capsys, tmp_path, NEAR_CONJUGATE)
    assert (printed["factor_N2"], printed["basis_ratio_ctrl"]) == ("1", "16")


def _high_order_case():
    """n = 45: 22 pairs -0.01 +- kj with coefficients 1e-8 and a real root 0
    with coefficient 1, so N2 = 1e-352 underflows a float."""
    roots = [{"re": 0.0, "im": 0.0, "mult": 1}]
    for k in range(1, 23):
        roots += [{"re": -0.01, "im": float(k), "mult": 1},
                  {"re": -0.01, "im": -float(k), "mult": 1}]
    coefficients = [{"re": 1.0, "im": 0.0}] + [{"re": 1e-8, "im": 0.0}] * 44
    instants = [i * 2.0 * math.pi / 47.0 for i in range(45)]
    return ({"order": 45, "roots": roots, "mode_coefficients": coefficients},
            {"instants": instants, "final_instant": 45 * 2.0 * math.pi / 47.0})


HIGH_ORDER = _high_order_case()


def test_analyze_underflowing_N2_keeps_the_factorization(capsys, tmp_path):
    printed = _analyze_printed(capsys, tmp_path, HIGH_ORDER)
    assert printed["admissible"] == "yes"
    assert printed["factor_N2"] == "0"
    assert printed["basis_ratio_ctrl"] == cli.fmt(4.0 ** 22)


# a complex coefficient whose modulus passes the float maximum, a pair
# coefficient whose parts pass half of it (the real mode vector holds
# 2 conj(C)), and Markov parameters whose modal coefficients overflow in the
# Wronskian solve
HUGE_MODULUS = (
    {"order": 2, "roots": [{"re": -1.0, "im": 1.0, "mult": 1},
                           {"re": -1.0, "im": -1.0, "mult": 1}],
     "mode_coefficients": [{"re": 1.5e308, "im": 1.5e308}, {"re": 1.5e308, "im": -1.5e308}]},
    {"instants": [0.0, 1.0], "final_instant": 2.0})
HUGE_PAIR_PART = (
    {"order": 2, "roots": [{"re": -1.0, "im": 1.0, "mult": 1},
                           {"re": -1.0, "im": -1.0, "mult": 1}],
     "mode_coefficients": [{"re": 1e308, "im": 1e308}, {"re": 1e308, "im": -1e308}]},
    {"instants": [0.0, 1.0], "final_instant": 2.0})
OVERFLOWING_MARKOV = (
    {"order": 2, "roots": [{"re": 0.001, "im": 0.001, "mult": 1},
                           {"re": 0.001, "im": -0.001, "mult": 1}],
     "markov": [1e305, 1e306]},
    {"instants": [0.0, 1.0], "final_instant": 2.0})


@pytest.mark.parametrize("case, message", [
    (HUGE_MODULUS, "modal coefficients must be finite, and so must their moduli"),
    (HUGE_PAIR_PART, "blocks 0 and 1: a pair's modal coefficients need |Re| and |Im| at "
                     "most 8.98847e+307, half the float maximum"),
    (OVERFLOWING_MARKOV, "the modal coefficients solved from the Markov parameters "
                         "overflow a float")], ids=["modulus", "pair_part", "markov"])
@pytest.mark.parametrize("argv", [["analyze"], ["verify", "--seed", "1"], ["design", "--t0", "0"],
                                  ["sweep", "--from", "0.1", "--to", "1", "--points", "2"]],
                         ids=["analyze", "verify", "design", "sweep"])
def test_overflowing_modal_coefficients_are_an_error(capsys, tmp_path, case, message, argv):
    system, sequence = tmp_path / "system.json", tmp_path / "seq.json"
    system.write_text(json.dumps(case[0]))
    sequence.write_text(json.dumps(case[1]))
    if argv[0] in ("analyze", "verify"):
        argv = argv + ["--instants", str(sequence)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, *argv, "--system", str(system))
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.endswith(message + "\n")


@pytest.mark.parametrize("case", [
    HUGE_PAIR_PART, OVERFLOWING_MARKOV,
    ({"order": 3, "roots": BIG_REAL, "markov": [1, 1, 1]}, {"instants": [0.0, 1.0, 2.0]}),
], ids=["pair_part", "markov", "vandermonde"])
def test_load_errors_name_the_system_file(capsys, tmp_path, case):
    # the last two raise RootFindingError while the file loads
    system, sequence = tmp_path / "system.json", tmp_path / "seq.json"
    system.write_text(json.dumps(case[0]))
    sequence.write_text(json.dumps(case[1]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "analyze", "--system", str(system),
                             "--instants", str(sequence))
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {system}: ") and err.count("\n") == 1


# root magnitudes log-uniform in [1e-6, 316], one draw in twenty at an edge
EDGE_MAGNITUDES = (0.0, 1e-300, 1e300, 5e-324, 709.0, 710.0)


@st.composite
def _magnitudes(draw):
    if draw(st.integers(0, 19)) == 0:
        return draw(st.sampled_from(EDGE_MAGNITUDES))
    return 10.0 ** draw(st.floats(-6.0, 2.5))


TRACE = "<trace>"  # replaced by the trace path in the test's directory


@st.composite
def _flags(draw):
    """The flags that shape a verdict or a design: --tol (analyze; absent
    one time in three), --method, the generic search's --dmin/--dmax
    (the second possibly below the first), and --trace (half the time; TRACE
    stands for a path in the test's directory)."""
    dmin = 10.0 ** draw(st.floats(-6.0, 1.5))
    tol = draw(st.one_of(st.none(), st.floats(-300.0, 300.0), st.floats(-15.0, 0.0)))
    return {"tol": [] if tol is None else ["--tol", repr(10.0 ** tol)],
            "design": ["--method", draw(st.sampled_from(["auto", "closed", "geometric",
                                                         "generic"])),
                       "--dmin", repr(dmin),
                       "--dmax", repr(dmin * 10.0 ** draw(st.floats(-0.5, 3.0))),
                       *draw(st.sampled_from([[], ["--trace", TRACE]]))]}


# the flags' defaults, for the cases below
NO_FLAGS = {"tol": [], "design": []}


@st.composite
def _cases(draw):
    """(system document, sequence document): 1-4 real or pair blocks of
    multiplicity 1-4, coefficients (modal, or Markov two times in five) at
    scales up to 1e+-308, where the parts of a complex one may be large
    enough for its modulus to overflow, and a pair's partner coefficients
    may sit off the exact conjugates by up to the 1e-9 of the largest
    coefficient that ``SystemSpec`` accepts; and one instant per state."""
    scale = draw(st.floats(-308.0, 308.0))

    def coefficient():
        # 10 ** 308.25 is just below the largest float
        exponent = min(scale + draw(st.floats(-3.0, 3.0)), 308.25)
        return draw(st.floats(-1.0, 1.0)) * 10.0 ** exponent

    roots, coeffs, partners = [], [], []
    for _ in range(draw(st.integers(1, 4))):
        m = draw(st.integers(1, 4))
        re = draw(st.sampled_from([-1.0, 1.0])) * draw(_magnitudes())
        if draw(st.booleans()):
            im = draw(_magnitudes())
            c = [complex(coefficient(), coefficient()) for _ in range(m)]
            roots += [{"re": re, "im": im, "mult": m}, {"re": re, "im": -im, "mult": m}]
            partners += range(len(coeffs) + m, len(coeffs) + 2 * m)
            coeffs += c + [z.conjugate() for z in c]
        else:
            roots.append({"re": re, "im": 0.0, "mult": m})
            coeffs += [complex(coefficient()) for _ in range(m)]
    # |0.7 + 0.7j| = 0.99, and a part bounds the modulus from below (a
    # modulus itself may overflow)
    tilt = 1e-9 * max(max(abs(z.real), abs(z.imag)) for z in coeffs)
    for i in partners:
        coeffs[i] += tilt * complex(draw(st.floats(-0.7, 0.7)), draw(st.floats(-0.7, 0.7)))
    n = sum(r["mult"] for r in roots)
    system = {"order": n, "roots": roots}
    if draw(st.integers(0, 4)) < 2:
        system["markov"] = [coefficient() for _ in range(n)]
    else:
        system["mode_coefficients"] = [{"re": z.real, "im": z.imag} for z in coeffs]
    gaps = [10.0 ** draw(st.floats(-4.0, 1.5)) for _ in range(n)]
    instants = (draw(st.floats(-10.0, 10.0)) + np.cumsum([0.0] + gaps[:-1])).tolist()
    return system, {"instants": instants, "final_instant": instants[-1] + gaps[-1]}


def _real(*roots):
    return [{"re": r, "im": 0.0, "mult": m} for r, m in roots]


# cases a wider run of _cases() found, each a warning or an exception before
# its site was mended
TINY_MARKOV = ({"order": 1, "roots": _real((-9.370988311721396, 1)),
                "markov": [2.22507385850696e-310]},
               {"instants": [0.0], "final_instant": 1.0})  # deadbeat inputs overflow
CLUSTERED_ROOTS = ({"order": 5, "roots": [
    {"re": 9.99976974414163, "im": 2.074800064090657e-06, "mult": 2},
    {"re": 9.99976974414163, "im": -2.074800064090657e-06, "mult": 2},
    *_real((9.99976974414163, 1))], "mode_coefficients": [
    {"re": 1.0, "im": 1.0}, {"re": 1.0, "im": 0.0}, {"re": 1.0, "im": -1.0},
    {"re": 1.0, "im": 0.0}, {"re": 1.0, "im": 0.0}]},
                   {"instants": [0.0, 1.0, 2.0, 3.0, 4.0], "final_instant": 5.0})  # B singular
LARGE_RESIDUAL = ({"order": 1, "roots": _real((20.72144713807011, 1)),
                   "mode_coefficients": [{"re": -5.964841965361769e-124, "im": 0.0}]},
                  {"instants": [-1.2152921663001077e-122], "final_instant": 20.72144713807011})
SUBNORMAL_SIGMA = ({"order": 2, "roots": _real((-709.0, 2)),
                    "markov": [0.14192359374171565, 1.1301500156901153e-63]},
                   {"instants": [0.05, 1.05], "final_instant": 1.0537128748005793})
LOUD_OUTPUTS = ({"order": 2, "roots": [{"re": 709.0, "im": 709.0, "mult": 1},
                                       {"re": 709.0, "im": -709.0, "mult": 1}],
                 "markov": [0.0, 0.0]},
                {"instants": [0.0, 1.0], "final_instant": 1.0270469469495167})  # O x0 overflows
# y0 = D d: the last cell of a triple root carries 2! C_3 = 2e308
LOUD_INPUT = ({"order": 3, "roots": _real((-1.0, 3)), "mode_coefficients": [
    {"re": 1.0, "im": 0.0}, {"re": 1.0, "im": 0.0}, {"re": 1e308, "im": 0.0}]},
              {"instants": [0.0, 1.0, 2.0], "final_instant": 3.0})
# Phi's determinant is 0 through a zero pivot, where numpy's det divides by
# zero; the verdict reads it under its own error state
ZERO_PIVOT = ({"order": 9, "roots": _real((-10.0, 1), (-64.93816315762113, 4), (-0.0, 4)),
               "mode_coefficients": [{"re": 0.0, "im": 0.0}] * 9},
              {"instants": [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 17.0],
               "final_instant": 18.0})


@settings(max_examples=40, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=_cases(), flags=_flags())
@example(case=HUGE_COEFFICIENT, flags=NO_FLAGS)
@example(case=HUGE_COEFFICIENTS, flags=NO_FLAGS)
@example(case=TINY_MARKOV, flags=NO_FLAGS)
@example(case=CLUSTERED_ROOTS, flags=NO_FLAGS)
@example(case=LARGE_RESIDUAL, flags=NO_FLAGS)
@example(case=SUBNORMAL_SIGMA, flags=NO_FLAGS)
@example(case=LOUD_OUTPUTS, flags=NO_FLAGS)
@example(case=HUGE_MODULUS, flags=NO_FLAGS)
@example(case=OVERFLOWING_MARKOV, flags=NO_FLAGS)
@example(case=LOUD_INPUT, flags=NO_FLAGS)
@example(case=ZERO_PIVOT, flags=NO_FLAGS)
@example(case=NEAR_CONJUGATE, flags=NO_FLAGS)
@example(case=HIGH_ORDER, flags=NO_FLAGS)
@example(case=SPAN_OVERFLOW, flags=NO_FLAGS)
def test_every_subcommand_keeps_the_exit_contract(case, flags):
    # exit 0, 1 or 2, an error message for 1, and no exception or warning
    with tempfile.TemporaryDirectory() as tmp:
        system, sequence, trace = (str(Path(tmp) / name)
                                   for name in ("system.json", "seq.json", "trace.csv"))
        Path(system).write_text(json.dumps(case[0]))
        Path(sequence).write_text(json.dumps(case[1]))
        gaps = np.diff(case[1]["instants"] + [case[1].get("final_instant", math.inf)])
        span = [repr(float(gaps.min())), repr(float(min(gaps.max(), 1e3)))]
        # the first two instants, the final one standing in for a second
        t0, t1 = [*case[1]["instants"], case[1].get("final_instant")][:2]
        for argv in (["analyze", "--instants", sequence, *flags["tol"]],
                     ["verify", "--instants", sequence, "--seed", "1"],
                     ["design", "--t0", "0", "--steps", "20",
                      *(trace if flag == TRACE else flag for flag in flags["design"])],
                     ["sweep", "--from", span[0], "--to", span[1], "--points", "3",
                      "--trials", "3"],
                     ["design", "--method", "geometric", f"--t0={t0!r}", f"--t1={t1!r}",
                      "--trace", trace]):
            out, err = io.StringIO(), io.StringIO()
            with warnings.catch_warnings(record=True) as caught, \
                    contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                warnings.simplefilter("always")
                code = main(argv + ["--system", system])
            assert code in (0, 1, 2), argv
            assert not caught, (argv, [str(w.message) for w in caught])
            assert code != 1 or err.getvalue().startswith("error:"), argv
