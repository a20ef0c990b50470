"""CLI inputs at the edges: overflowing design searches, spirals and
exponential modes, the design's minimum spacing, zero counts, negative seeds
and branch bounds, non-finite floats, and the parser shared by successive
main() calls."""
import contextlib
import io
import json
import math
from pathlib import Path

import pytest
from hypothesis import given, settings
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


def _write_spiral_system(tmp_path, lam=1.0, a=-0.3, b=1.2, c=0.5 - 0.25j):
    """Real root lam and pair a +- jb, coefficients 1 and c, conj(c)."""
    path = tmp_path / "spiral.json"
    path.write_text(json.dumps({
        "order": 3,
        "roots": [{"re": lam, "im": 0.0, "mult": 1},
                  {"re": a, "im": b, "mult": 1},
                  {"re": a, "im": -b, "mult": 1}],
        "mode_coefficients": [{"re": 1.0, "im": 0.0}, {"re": c.real, "im": c.imag},
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


def test_geometry_overflowing_spiral_is_an_error(capsys, tmp_path):
    seq = tmp_path / "seq.json"
    seq.write_text(json.dumps({"instants": [0.0, 800.0, 801.0]}))
    code, _, err = run(capsys, "geometry", "--system", _write_spiral_system(tmp_path),
                       "--instants", str(seq), "--out", str(tmp_path / "trace.csv"))
    _clean_error(code, err)


# the growing real mode e^{5.094 alpha} swamps the pair in the second and third
# mode vectors, so they are parallel: the geometric step's sequence has a zero
# Gram determinant, which used to exit 0
DEGENERATE_SPIRAL = dict(lam=5.094, a=-0.4729, b=0.36, c=0.1506 + 0.6349j)
DEGENERATE_ERROR = ("error: the geometric step's sequence is inadmissible "
                    "(gram_determinant = 0 <= 1e-12)\n")


@pytest.mark.parametrize("method", ["geometric", "auto"])
def test_design_degenerate_geometric_step_is_an_error(capsys, tmp_path, method):
    trace = tmp_path / "trace.csv"
    code, out, err = run(capsys, "design", "--system",
                         _write_spiral_system(tmp_path, **DEGENERATE_SPIRAL),
                         "--method", method, "--t0", "0", "--t1", "4.019",
                         "--trace", str(trace))
    assert (code, out, err) == (1, "", DEGENERATE_ERROR)
    assert not trace.exists()


def test_geometry_degenerate_step_is_an_error(capsys, tmp_path):
    seq = tmp_path / "seq.json"
    seq.write_text(json.dumps({"instants": [0.0, 4.019]}))
    trace = tmp_path / "trace.csv"
    code, out, err = run(capsys, "geometry", "--system",
                         _write_spiral_system(tmp_path, **DEGENERATE_SPIRAL),
                         "--instants", str(seq), "--out", str(trace))
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
    code, out, err = run(capsys, "design", "--system",
                         _write_spiral_system(tmp_path, lam, a, b),
                         "--method", method, "--t0", "0", "--t1", str(t1))
    _clean_error(code, err)
    assert out == ""


@pytest.mark.parametrize("lam, a, b, t1", GEOMETRIC_TRACEBACKS)
def test_geometry_out_of_float_range_is_an_error(capsys, tmp_path, lam, a, b, t1):
    seq = tmp_path / "seq.json"
    seq.write_text(json.dumps({"instants": [0.0, t1]}))
    code, _, err = run(capsys, "geometry", "--system",
                       _write_spiral_system(tmp_path, lam, a, b),
                       "--instants", str(seq), "--out", str(tmp_path / "trace.csv"))
    _clean_error(code, err)
    assert not (tmp_path / "trace.csv").exists()


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
    ([*_sweep(), "--tol", "inf"], None),
    (["analyze", *THIRD_SEQ], "inf"),
    (["analyze", *THIRD_SEQ], "nan"),
    (_sweep(), "-inf"),
    ([*_sweep(), "--noise", "inf"], None),
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


def test_finite_tolerance_flag_outranks_a_non_finite_environment(capsys, monkeypatch):
    monkeypatch.setenv("NUSAMPLE_TOL", "inf")
    code, out, _ = run(capsys, "analyze", *THIRD_SEQ, "--tol", "1e-9")
    assert code == 0 and "admissible = yes" in out


@pytest.mark.parametrize("argv", [
    ["sweep", *THIRD, "--from", "0.2", "--to", "1.0", "--points", "2",
     "--trials", "100000000000000"],
    ["design", *THIRD, "--t0", "0", "--method", "geometric", "--m-max", "100000000000000"],
])
def test_unallocatable_count_is_an_error(capsys, argv):
    # the arrays would take petabytes or hundreds of terabytes, so numpy
    # refuses them at once, before any memory is touched
    code, _, err = run(capsys, *argv)
    assert code == 1
    assert err.startswith("error: out of memory (Unable to allocate ")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_auto_design_skips_the_degenerate_geometric_step(capsys, tmp_path):
    # roots -1, -1 +- 2j: lambda = a, where the surface scaling relation of
    # the geometric step degenerates; auto takes the generic search instead
    system = _write_spiral_system(tmp_path, lam=-1.0, a=-1.0, b=2.0)
    code, _, err = run(capsys, "design", "--system", system, "--t0", "0",
                       "--method", "geometric")
    assert (code, err) == (1, "error: the surface scaling relation degenerates "
                              "for lambda = a\n")
    code, out, err = run(capsys, "design", "--system", system, "--t0", "0")
    assert (code, err) == (0, "")
    assert out.splitlines()[0] == "method = generic-search"
    assert out == run(capsys, "design", "--system", system, "--t0", "0",
                      "--method", "generic")[1]


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
