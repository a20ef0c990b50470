"""One verdict from ``analyze`` and ``verify`` on the theorem study's draws.

The draws are those of ``scripts/theorem_equivalence.py`` (seed 0, 1000
cases, n = 2..5, final instants as drawn), run through the CLI.  Wherever
``analyze`` admits a sequence, ``verify --seed 1`` verifies it: both judge
the sampled modes, ``verify`` in the Jordan frame with its matrices scaled
to unit norm.  And ``analyze`` admits wherever ``verify`` verifies on the
cases 563, 649 and 921: it reads sigma_min / sigma_max of the row-normalized
basis matrix (60 digits: 2.6e-6, 7.2e-7 and 9.6e-7) with the tolerance
``verify`` applies to its own matrices, where a fixed threshold of 1e-9 on
|det| over the product of the row norms refuses all three.
"""
import contextlib
import io
import json

import numpy as np
import pytest

from nusample.cli import main
from random_cases import theorem_cases

REVERSE_SPLITS = (563, 649, 921)  # all n = 5, where verify exits 0


@pytest.fixture(scope="module")
def exit_codes(tmp_path_factory):
    """{case index: (analyze exit code, verify exit code)} over the draws."""
    tmp = tmp_path_factory.mktemp("theorem")
    system, sequence = str(tmp / "system.json"), str(tmp / "sequence.json")
    codes = {}
    for i, spec, seq in theorem_cases(np.random.default_rng(0), 1000):
        with open(system, "w") as fh:
            json.dump({"order": spec.n,
                       "roots": [{"re": r.value.real, "im": r.value.imag,
                                  "mult": r.multiplicity} for r in spec.eigen.roots],
                       "mode_coefficients": [{"re": c.real, "im": c.imag}
                                             for c in spec.coeffs]}, fh)
        with open(sequence, "w") as fh:
            json.dump({"instants": list(seq.instants), "final_instant": seq.final_instant}, fh)
        files = ["--system", system, "--instants", sequence]
        with contextlib.redirect_stdout(io.StringIO()):
            codes[i] = (main(["analyze", *files]), main(["verify", *files, "--seed", "1"]))
    return codes


def test_verify_verifies_wherever_analyze_admits(exit_codes):
    assert all(code in (0, 2) for pair in exit_codes.values() for code in pair)
    refused = [i for i, (a, v) in exit_codes.items() if a == 0 and v != 0]
    assert refused == []


@pytest.mark.parametrize("case", REVERSE_SPLITS)
def test_analyze_admits_what_verify_verifies(exit_codes, case):
    assert exit_codes[case] == (0, 0)

