"""CLI inputs at the edges: overflowing design searches and exponential
modes, the design's minimum spacing, zero counts, and the parser shared by
successive main() calls."""
import json
from pathlib import Path

from nusample import cli
from nusample.cli import main

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


def test_sweep_overflowing_mode_is_an_error(capsys, tmp_path):
    system = _write_system(tmp_path, [1.0, -0.5], [1.0, 1.0])
    code, _, err = run(capsys, "sweep", "--system", system, "--from", "700",
                       "--to", "800", "--points", "2")
    _clean_error(code, err)


def test_design_refinement_keeps_dmin(capsys, tmp_path):
    # the grid starts at dmin = 600, where the flow already overflows; the
    # refinement must not slide the instant below dmin to escape it
    system = _write_system(tmp_path, [1.0, -0.5], [1.0, 1.0])
    code, out, err = run(capsys, "design", "--system", system, "--t0", "0",
                         "--dmin", "600", "--dmax", "800")
    _clean_error(code, err)
    assert "instants" not in out


def test_generic_design_intervals_respect_dmin(capsys):
    code, out, _ = run(capsys, "design", "--system", str(DATA / "third_order.json"),
                       "--t0", "0", "--method", "generic", "--dmin", "1.0")
    assert code == 0
    line = next(l for l in out.splitlines() if l.startswith("instants = "))
    instants = [float(t) for t in line.split(" = ")[1].split()]
    assert len(instants) == 3
    assert min(b - a for a, b in zip(instants, instants[1:])) >= 1.0
