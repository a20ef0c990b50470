"""Sequences whose basis entries span hundreds of decades.

On roots 1 and -0.5 at instants [0, 355] or [0, 700], and on roots 1 and 2
at [0, 200], the row-normalized basis matrix has sigma_min / sigma_max =
sqrt(2) - 1 to 60 digits, so the right verdict is "admissible".  ``analyze``
judges that matrix, so it admits all three and prints sigma_min and the
condition number of the row-normalized matrix, where the SVD of the raw one
lost sigma_min 1e-174 below sigma_max.  ``verify`` agrees on the first two:
it solves in the Jordan frame, against G_J and O_J with their columns and
rows scaled to unit norm (sigma ratios 0.110 and 0.414, where the raw
matrices read 1e-155 and 1e-305).  On the third, with final instant 201, it
exits 2 with a deadbeat residual of 5e158: cancelling the fast mode at t_0
leaves a rounding error that the forward impulse train grows by e^400
before t_n, a float limit of the simulation.  That pin is a strict xfail,
so the change that mends it must remove the marker.  Last, a well-conditioned
case whose determinant underflows to zero: admissible, with no
factorization ratio to print.
"""
import json
import math

import mpmath
import pytest

import nusample as ns
from nusample.cli import fmt, main
import reference

CASES = [  # (roots, instants, final instant), each with modal coefficients 1, 1
    ((1.0, -0.5), (0.0, 355.0), 356.0),
    ((1.0, -0.5), (0.0, 700.0), 701.0),
    ((1.0, 2.0), (0.0, 200.0), 201.0),
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


AGREEMENT = [*CASES[:2], pytest.param(*CASES[2], marks=pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="the forward impulse train grows a rounding error by e^400"))]


@pytest.mark.parametrize("roots, instants, final", AGREEMENT, ids=IDS)
def test_analyze_and_verify_agree_on_an_admissible_case(capsys, tmp_path, roots,
                                                         instants, final):
    files = _files(tmp_path, roots, instants, final)
    codes = [_run(capsys, "analyze", *files)[0],
             _run(capsys, "verify", *files, "--seed", "1")[0]]
    assert codes == [0, 0]


def test_an_admissible_verdict_has_a_positive_sigma_min(capsys, tmp_path):
    # the row-normalized matrix is [[1, 1] / sqrt 2, [0, 1]] to 1e-87, whose
    # singular values are sqrt(1 -+ 1 / sqrt 2)
    code, printed = _run(capsys, "analyze", *_files(tmp_path, *CASES[2]))
    assert (code, printed["admissible"]) == (0, "yes")
    assert printed["smallest_singular_value"] == fmt(math.sqrt(1.0 - math.sqrt(0.5)))
    assert printed["condition_number"] == fmt(1.0 + math.sqrt(2.0))


def test_an_admissible_verdict_whose_determinant_underflows(capsys, tmp_path):
    # roots -1 +- i of multiplicity 2 at [0, 1, 2, 300]: three rows of Phi
    # have norms near 300 e^{-300}, so det Phi underflows to zero, while the
    # row-normalized matrix is well conditioned.  analyze admits it and
    # prints no factorization ratio, which would divide by the determinant
    spec = ns.system_from_modes([(complex(-1.0, 1.0), 2), (complex(-1.0, -1.0), 2)],
                                [1 + 0.5j, 1 - 0.5j, 1 - 0.5j, 1 + 0.5j])
    instants = (0.0, 1.0, 2.0, 300.0)
    ratio = reference.row_normalized_ratio(spec.eigen, ns.alphas(ns.SamplingSequence(instants)))
    assert 1e-6 < ratio < 1e-5
    system, seq = tmp_path / "system.json", tmp_path / "sequence.json"
    system.write_text(json.dumps({
        "order": 4,
        "roots": [{"re": -1.0, "im": 1.0, "mult": 2}, {"re": -1.0, "im": -1.0, "mult": 2}],
        "mode_coefficients": [{"re": c.real, "im": c.imag} for c in spec.coeffs]}))
    seq.write_text(json.dumps({"instants": list(instants)}))
    code, printed = _run(capsys, "analyze", "--system", str(system), "--instants", str(seq))
    assert (code, printed["determinant"], printed["admissible"]) == (0, "0", "yes")
    assert float(printed["condition_number"]) == pytest.approx(1.0 / float(ratio), rel=1e-6)
    assert "basis_ratio_ctrl" not in printed
