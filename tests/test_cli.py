import json
import os
from pathlib import Path

import pytest

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
    for key in ("factor_N1", "factor_N2", "factor_M1", "factor_M2",
                "basis_ratio_ctrl", "basis_ratio_obs", "gram_determinant"):
        assert key in out


def test_analyze_order_mismatch(capsys):
    code, _, err = run(capsys, "analyze",
                       "--system", str(DATA / "third_order.json"),
                       "--instants", str(DATA / "quarter_turn.json"))
    assert code == 1
    assert "error:" in err


def test_analyze_tol_flag_loosens_threshold(capsys):
    # a huge tolerance factor makes even the clean case inadmissible
    code, out, _ = run(capsys, "analyze",
                       "--system", str(DATA / "oscillator.json"),
                       "--instants", str(DATA / "quarter_turn.json"),
                       "--tol", "10.0")
    assert code == 2
    assert "admissible = no" in out


def test_analyze_env_tolerance(capsys, monkeypatch):
    monkeypatch.setenv("NUSAMPLE_TOL", "10.0")
    code, out, _ = run(capsys, "analyze",
                       "--system", str(DATA / "oscillator.json"),
                       "--instants", str(DATA / "quarter_turn.json"))
    assert code == 2
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
    assert "inadmissible_sequence = yes" in out


def test_verify_needs_final_instant(capsys, tmp_path):
    seq = tmp_path / "seq.json"
    seq.write_text(json.dumps({"instants": [0.0, 1.5707963267948966]}))
    code, _, err = run(capsys, "verify",
                       "--system", str(DATA / "oscillator.json"),
                       "--instants", str(seq), "--seed", "1")
    assert code == 1
    assert "final_instant" in err


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
    # one sweep point at scale s equals analyze on the uniform sequence
    s = 0.8
    code, out, _ = run(capsys, "sweep",
                       "--system", str(DATA / "oscillator.json"),
                       "--from", str(s), "--to", str(s), "--points", "1",
                       "--trials", "3")
    assert code == 0
    _, det, gram, cond, _ = out.strip().splitlines()[1].split(",")
    seq = tmp_path / "seq.json"
    seq.write_text(json.dumps({"instants": [0.0, s]}))
    code, out, _ = run(capsys, "analyze",
                       "--system", str(DATA / "oscillator.json"),
                       "--instants", str(seq))
    printed = dict(line.split(" = ") for line in out.splitlines())
    assert (det, gram, cond) == (printed["determinant"], printed["gram_determinant"],
                                 printed["condition_number"])


def test_sweep_rejects_nonpositive_scale(capsys):
    code, _, err = run(capsys, "sweep",
                       "--system", str(DATA / "oscillator.json"),
                       "--from", "-0.5", "--to", "1.0", "--points", "2")
    assert code == 1
    assert "error:" in err


# ---------------------------------------------------------------------------
# geometry

def test_geometry_writes_trace(capsys, tmp_path):
    out_csv = tmp_path / "geom.csv"
    code, out, _ = run(capsys, "geometry",
                       "--system", str(DATA / "third_order.json"),
                       "--instants", str(DATA / "third_sequence.json"),
                       "--out", str(out_csv))
    assert code == 0
    assert "rotation_angle" in out
    assert out_csv.read_text().startswith("alpha,x,y,z,kind")


def test_geometry_wrong_structure(capsys, tmp_path):
    out_csv = tmp_path / "geom.csv"
    code, _, err = run(capsys, "geometry",
                       "--system", str(DATA / "oscillator.json"),
                       "--instants", str(DATA / "quarter_turn.json"),
                       "--out", str(out_csv))
    assert code == 1
    assert "error:" in err


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
