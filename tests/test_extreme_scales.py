"""Sequences whose basis entries span hundreds of decades.

On roots 1 and -0.5 at instants [0, 355] or [0, 700], and on roots 1 and 2
at [0, 200], the row-normalized basis matrix has sigma_min / sigma_max =
sqrt(2) - 1 to 60 digits, so the right verdict is "admissible".  ``verify``
agrees on the first two: it solves in the Jordan frame, against G_J and O_J
with their columns and rows scaled to unit norm (sigma ratios 0.110 and
0.414, where the raw matrices read 1e-155 and 1e-305).  ``analyze`` still
applies the scale e^{Re lambda alpha} before it measures, and prints a zero
sigma_min beside its admissible verdict on the third; that pin is a strict
xfail, so the change that mends it must remove the marker.
"""
import json
import math

import mpmath
import pytest

import nusample as ns
from nusample.cli import main
import reference

CASES = [  # (roots, instants, final instant), each with modal coefficients 1, 1
    ((1.0, -0.5), (0.0, 355.0), 356.0),
    ((1.0, -0.5), (0.0, 700.0), 701.0),
    ((1.0, 2.0), (0.0, 200.0), None),
]
IDS = ["355", "700", "roots_1_2"]


def _files(tmp_path, roots, instants, final):
    system, seq = tmp_path / "system.json", tmp_path / "sequence.json"
    system.write_text(json.dumps({
        "order": len(roots),
        "roots": [{"re": r, "im": 0.0, "mult": 1} for r in roots],
        "mode_coefficients": [{"re": 1.0, "im": 0.0} for _ in roots],
    }))
    seq.write_text(json.dumps({"instants": list(instants), "final_instant": final}
                              if final is not None else {"instants": list(instants)}))
    return ["--system", str(system), "--instants", str(seq)]


def _run(capsys, *argv):
    code = main(list(argv))
    return code, dict(line.split(" = ", 1) for line in capsys.readouterr().out.splitlines())


@pytest.mark.parametrize("roots, instants, final", CASES, ids=IDS)
def test_row_normalized_basis_is_well_conditioned(roots, instants, final):
    spec = ns.system_from_modes([(r, 1) for r in roots], [1.0] * len(roots))
    ratio = reference.row_normalized_ratio(spec.eigen,
                                           ns.alphas(ns.SamplingSequence(instants)))
    with mpmath.workdps(60):
        assert abs(ratio - (mpmath.sqrt(2) - 1)) <= 1e-15


@pytest.mark.parametrize("roots, instants, final", CASES[:2], ids=IDS[:2])
def test_analyze_and_verify_agree_on_an_admissible_case(capsys, tmp_path, roots,
                                                         instants, final):
    files = _files(tmp_path, roots, instants, final)
    codes = [_run(capsys, "analyze", *files)[0],
             _run(capsys, "verify", *files, "--seed", "1")[0]]
    assert codes == [0, 0]


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the SVD of the unscaled basis matrix loses sigma_min, "
                          "1e-174 below sigma_max")
def test_an_admissible_verdict_has_a_positive_sigma_min(capsys, tmp_path):
    code, printed = _run(capsys, "analyze", *_files(tmp_path, *CASES[2]))
    assert (code, printed["admissible"]) == (0, "yes")
    assert float(printed["smallest_singular_value"]) > 0.0
    assert math.isfinite(float(printed["condition_number"]))
