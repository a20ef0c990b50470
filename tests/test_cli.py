import hashlib
import json
import os
from pathlib import Path

import numpy as np
import pytest

from nusample import analysis, fileio
from nusample.cli import main

DATA = Path(__file__).parent / "data"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# analyze

def test_analyze_admissible_exit_zero(capsys):
    code, out, _ = run(capsys, "analyze",
                       "--system", str(DATA / "oscillator.json"),
                       "--instants", str(DATA / "quarter_turn.json"))
    assert code == 0
    assert "admissible = yes" in out
    assert "determinant = 1" in out
    # the tolerance applied, RANK_REL_TOL unless --tol or NUSAMPLE_TOL sets one
    assert "threshold = 1e-08" in out.splitlines()


def test_analyze_inadmissible_exit_two(capsys):
    code, out, _ = run(capsys, "analyze",
                       "--system", str(DATA / "oscillator.json"),
                       "--instants", str(DATA / "half_turn.json"))
    assert code == 2
    assert "admissible = no" in out


def test_analyze_reports_factors(capsys):
    code, out, _ = run(capsys, "analyze",
                       "--system", str(DATA / "third_order.json"),
                       "--instants", str(DATA / "third_sequence.json"))
    assert code == 0
    keys = [line.split(" = ")[0] for line in out.splitlines()]
    for key in ("factor_N1", "factor_N2", "basis_ratio_ctrl", "gram_determinant"):
        assert key in keys
    # the observability side holds by construction, so it is not printed
    for key in ("factor_M1", "factor_M2", "basis_ratio_obs"):
        assert key not in keys


def test_analyze_order_mismatch(capsys):
    code, _, err = run(capsys, "analyze",
                       "--system", str(DATA / "third_order.json"),
                       "--instants", str(DATA / "quarter_turn.json"))
    assert code == 1
    assert "error:" in err


def test_analyze_tol_flag_loosens_threshold(capsys):
    # sigma_min / sigma_max is at most 1, so a tolerance of 10 makes even the
    # clean case inadmissible
    code, out, _ = run(capsys, "analyze",
                       "--system", str(DATA / "oscillator.json"),
                       "--instants", str(DATA / "quarter_turn.json"),
                       "--tol", "10.0")
    assert code == 2
    assert "admissible = no" in out
    assert "threshold = 10" in out.splitlines()


def test_analyze_env_tolerance(capsys, monkeypatch):
    monkeypatch.setenv("NUSAMPLE_TOL", "10.0")
    code, out, _ = run(capsys, "analyze",
                       "--system", str(DATA / "oscillator.json"),
                       "--instants", str(DATA / "quarter_turn.json"))
    assert code == 2
    assert "threshold = 10" in out.splitlines()
    monkeypatch.setenv("NUSAMPLE_TOL", "not-a-number")
    code, _, err = run(capsys, "analyze",
                       "--system", str(DATA / "oscillator.json"),
                       "--instants", str(DATA / "quarter_turn.json"))
    assert code == 1
    assert "NUSAMPLE_TOL" in err


# ---------------------------------------------------------------------------
# design

def test_design_auto_closed_form(capsys):
    code, out, _ = run(capsys, "design",
                       "--system", str(DATA / "oscillator.json"),
                       "--t0", "0.0")
    assert code == 0
    assert "method = closed-form-2nd" in out
    assert "instants = 0 1.57079632679" in out


def test_design_auto_geometric_with_trace(capsys, tmp_path):
    out_csv = tmp_path / "trace.csv"
    code, out, _ = run(capsys, "design",
                       "--system", str(DATA / "third_order.json"),
                       "--t0", "0.0", "--trace", str(out_csv))
    assert code == 0
    assert "method = geometric-3rd" in out
    assert out_csv.exists()
    assert out_csv.read_text().startswith("alpha,x,y,z,kind")


def test_design_generic(capsys):
    code, out, _ = run(capsys, "design",
                       "--system", str(DATA / "third_order.json"),
                       "--t0", "0.0", "--method", "generic", "--steps", "80")
    assert code == 0
    assert "method = generic-search" in out
    assert "gram_determinant" in out


@pytest.mark.parametrize("method", ["auto", "closed"])
def test_design_refuses_a_nonminimal_lone_pair(capsys, tmp_path, method):
    # zero modal coefficients: the closed form used to score a stand-in
    # system with coefficients 0.5 and print gram_determinant = 1
    path = tmp_path / "pair.json"
    path.write_text(json.dumps({
        "order": 2,
        "roots": [{"re": -0.5, "im": 1.0, "mult": 1}, {"re": -0.5, "im": -1.0, "mult": 1}],
        "mode_coefficients": [{"re": 0.0, "im": 0.0}, {"re": 0.0, "im": 0.0}],
    }))
    code, out, err = run(capsys, "design", "--system", str(path), "--t0", "0",
                         "--method", method)
    assert (code, out, err) == (1, "", "error: system is not minimal (blocks (0,))\n")


def test_design_closed_on_wrong_order(capsys):
    code, _, err = run(capsys, "design",
                       "--system", str(DATA / "third_order.json"),
                       "--t0", "0.0", "--method", "closed")
    assert code == 1
    assert "error:" in err


# ---------------------------------------------------------------------------
# verify

def test_verify_round_trip(capsys):
    code, out, _ = run(capsys, "verify",
                       "--system", str(DATA / "oscillator.json"),
                       "--instants", str(DATA / "quarter_turn.json"),
                       "--seed", "7")
    assert code == 0
    assert "verified = yes" in out


def test_verify_deterministic(capsys):
    args = ("verify", "--system", str(DATA / "third_order.json"),
            "--instants", str(DATA / "third_sequence.json"), "--seed", "123")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert (code1, out1) == (code2, out2) == (0, out1)


def test_verify_pathological_exit_two(capsys):
    code, out, _ = run(capsys, "verify",
                       "--system", str(DATA / "oscillator.json"),
                       "--instants", str(DATA / "half_turn.json"),
                       "--seed", "7")
    assert code == 2
    # the condition number of a singular matrix is rounding noise: not printed
    assert out == "inadmissible_sequence = yes\n"


def test_verify_needs_final_instant(capsys, tmp_path):
    seq = tmp_path / "seq.json"
    seq.write_text(json.dumps({"instants": [0.0, 1.5707963267948966]}))
    code, _, err = run(capsys, "verify",
                       "--system", str(DATA / "oscillator.json"),
                       "--instants", str(seq), "--seed", "1")
    assert code == 1
    assert "final_instant" in err


def test_verify_carries_the_impulse_train_in_the_jordan_frame(capsys, tmp_path):
    # an undecided case of the benchmark's check workload (seed 77, n = 6): the
    # train carried as x went through B^{-1} and B at every step and ended
    # 4.6e-7 from the origin (verified = no, exit 2); in the Jordan frame it
    # ends 2.7e-10 from it
    system = {"order": 6,
              "roots": [{"re": -0.17798647902027187, "im": 0.0, "mult": 1},
                        {"re": -0.9553927784856064, "im": 1.5525732749048777, "mult": 1},
                        {"re": -0.9553927784856064, "im": -1.5525732749048777, "mult": 1},
                        {"re": 0.09116829250246927, "im": 0.0, "mult": 2},
                        {"re": 0.20941019684267692, "im": 0.0, "mult": 1}],
              "mode_coefficients": [{"re": -1.6217578753588062, "im": 0.0},
                                    {"re": 1.0797124190398337, "im": -0.08791083515202258},
                                    {"re": 1.0797124190398337, "im": 0.08791083515202258},
                                    {"re": -1.2431747442398073, "im": 0.0},
                                    {"re": 0.7805219319617014, "im": 0.0},
                                    {"re": 1.1540827550136403, "im": 0.0}]}
    sequence = {"instants": [0.8020090225808698, 1.5924908950081758, 2.2312082518444747,
                             2.9354927967579103, 4.0526776729668, 5.105222123393599],
                "final_instant": 5.902173474256695}
    sys_path, seq_path = tmp_path / "sys.json", tmp_path / "seq.json"
    sys_path.write_text(json.dumps(system))
    seq_path.write_text(json.dumps(sequence))
    code, out, _ = run(capsys, "verify", "--system", str(sys_path),
                       "--instants", str(seq_path), "--seed", "770018927")
    assert code == 0 and "verified = yes" in out
    fields = dict(line.split(" = ") for line in out.splitlines())
    assert float(fields["deadbeat_residual"]) < 1e-9


def test_verify_and_sweep_build_no_companion_form_and_no_cond(capsys, monkeypatch):
    # the runtime works in the realization's Jordan frame: the companion
    # matrix A and the Markov vector b have no runtime builder, and cond(B)
    # has no runtime reader
    def refuse(*args, **kwargs):
        raise AssertionError("built although nothing reads it")

    monkeypatch.setattr(np.linalg, "cond", refuse)
    for system, sequence in (("oscillator.json", "quarter_turn.json"),
                             ("third_order.json", "third_sequence.json")):
        code, out, _ = run(capsys, "verify", "--system", str(DATA / system),
                           "--instants", str(DATA / sequence), "--seed", "5")
        assert code == 0 and "verified = yes" in out
        code, out, _ = run(capsys, "sweep", "--system", str(DATA / system),
                           "--from", "0.2", "--to", "1.0", "--points", "4", "--trials", "3")
        assert code == 0 and len(out.splitlines()) == 5


# ---------------------------------------------------------------------------
# sweep

def test_sweep_csv_shape(capsys):
    code, out, _ = run(capsys, "sweep",
                       "--system", str(DATA / "oscillator.json"),
                       "--from", "0.5", "--to", "1.5", "--points", "3",
                       "--trials", "5", "--seed", "0")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("scale,determinant,gram_det,")
    assert len(lines) == 4


def test_sweep_single_point_matches_analyze(capsys, tmp_path):
    # one sweep point at scale s has analyze's determinant and Gram
    # determinant on the uniform sequence; its condition number is that of
    # the raw basis matrix, analyze's that of the row-normalized one, and the
    # two agree only where the rows have unit norm, as for the oscillator
    s = 0.8
    for system in ("oscillator.json", "third_order.json"):
        code, out, _ = run(capsys, "sweep",
                           "--system", str(DATA / system),
                           "--from", str(s), "--to", str(s), "--points", "1",
                           "--trials", "3")
        assert code == 0
        _, det, gram, cond, _ = out.strip().splitlines()[1].split(",")
        spec = fileio.load_system(DATA / system)
        seq = tmp_path / "seq.json"
        seq.write_text(json.dumps({"instants": [i * s for i in range(spec.n)]}))
        code, out, _ = run(capsys, "analyze",
                           "--system", str(DATA / system),
                           "--instants", str(seq))
        printed = dict(line.split(" = ") for line in out.splitlines())
        assert (det, gram) == (printed["determinant"], printed["gram_determinant"])
        alphas = analysis.alphas(fileio.load_sequence(seq))
        phi = analysis.fundamental_matrix(spec.eigen, alphas)
        assert float(cond) == pytest.approx(np.linalg.cond(phi), rel=1e-10)
        if system == "oscillator.json":
            assert cond == printed["condition_number"]


def test_sweep_rejects_nonpositive_scale(capsys):
    code, _, err = run(capsys, "sweep",
                       "--system", str(DATA / "oscillator.json"),
                       "--from", "-0.5", "--to", "1.0", "--points", "2")
    assert code == 1
    assert "error:" in err


# ---------------------------------------------------------------------------
# geometric design

# SHA-256 of the trace CSV on third_order.json at t0 = 0, t1 = 0.5, as the
# removed `geometry` subcommand wrote it for the instants [0, 0.5]
GEOMETRY_TRACE_SHA256 = "cebea820a7c9d95de181111ad76d4792ec95539a6560b2f02e535cb8fba8661c"


def test_geometry_writes_trace(capsys, tmp_path):
    # rotation_angle and mu are the lines `geometry` printed that design did not
    out_csv = tmp_path / "geom.csv"
    code, out, _ = run(capsys, "design",
                       "--system", str(DATA / "third_order.json"),
                       "--method", "geometric", "--t0", "0", "--t1", "0.5",
                       "--trace", str(out_csv))
    assert code == 0
    lines = out.splitlines()
    assert lines[2:5] == ["branch_m = 0", "rotation_angle = 2.93108745438",
                          "mu = 1.9930661574"]
    digest = hashlib.sha256(out_csv.read_bytes()).hexdigest()
    assert digest == GEOMETRY_TRACE_SHA256


def test_geometry_wrong_structure(capsys, tmp_path):
    out_csv = tmp_path / "geom.csv"
    code, out, err = run(capsys, "design",
                         "--system", str(DATA / "oscillator.json"),
                         "--method", "geometric", "--t0", "0", "--t1", "0.5",
                         "--trace", str(out_csv))
    assert (code, out) == (1, "")
    assert err == ("error: geometric design needs a 3rd-order system with one "
                   "real pole and one complex pair\n")
    assert not out_csv.exists()


def test_geometry_subcommand_is_gone(capsys, tmp_path):
    out_csv = tmp_path / "geom.csv"
    code, out, err = run(capsys, "geometry",
                         "--system", str(DATA / "third_order.json"),
                         "--instants", str(DATA / "third_sequence.json"),
                         "--out", str(out_csv))
    assert (code, out) == (1, "")
    assert "invalid choice: 'geometry'" in err
    assert not out_csv.exists()


# ---------------------------------------------------------------------------
# input errors

def test_missing_field_exit_one(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"order": 2, "markov": [0.0, 1.0]}))
    code, _, err = run(capsys, "analyze", "--system", str(bad),
                       "--instants", str(DATA / "quarter_turn.json"))
    assert code == 1
    assert "roots" in err


def test_both_param_styles_rejected(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "order": 1, "roots": [{"re": -1.0, "im": 0.0, "mult": 1}],
        "markov": [1.0], "mode_coefficients": [{"re": 1.0, "im": 0.0}]}))
    code, _, err = run(capsys, "analyze", "--system", str(bad),
                       "--instants", str(DATA / "quarter_turn.json"))
    assert code == 1
    assert "exactly one" in err


def test_unknown_subcommand_exit_one(capsys):
    code, _, err = run(capsys, "frobnicate")
    assert code == 1


def test_nonexistent_file_exit_one(capsys):
    code, _, err = run(capsys, "analyze", "--system", "/does/not/exist.json",
                       "--instants", str(DATA / "quarter_turn.json"))
    assert code == 1
    assert "cannot read" in err
