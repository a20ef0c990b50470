"""The experiment scripts run end to end on small inputs."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

import code_lines

ROOT = Path(__file__).resolve().parent.parent


def _run(script, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          capture_output=True, text=True, env=env, timeout=120)


def test_theorem_equivalence_runs():
    proc = _run("theorem_equivalence.py", "--cases", "20")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("cases = 20  agree = ")


def test_optimal_interval_scan_runs(tmp_path):
    out = tmp_path / "scan.csv"
    proc = _run("optimal_interval_scan.py", "--out", str(out), "--points", "50")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith(f"wrote {out}: 50 rows x 9 curves")
    assert out.read_text().startswith("dt,a=-0.5_b=0.5,")


def test_output_digest_runs():
    # one cycle per workload; the temporary directory differs between runs,
    # and the digests must not
    runs = [_run("output_digest.py", "--seed", "77", "--cycles", "1") for _ in range(2)]
    for proc in runs:
        assert proc.returncode == 0, proc.stderr
    assert runs[0].stdout == runs[1].stdout
    lines = [line.split() for line in runs[0].stdout.splitlines()]
    assert [(w[0], w[3]) for w in lines] == [("check", "18"), ("design", "3"),
                                             ("sweep", "9"), ("fixtures", "15")]
    assert all(len(w[-1]) == 64 for w in lines)


def test_code_lines_runs():
    # one row per module and a total; code lines exclude blanks, comments
    # and docstrings, but not other strings
    proc = _run("code_lines.py")
    assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines()[1:]]
    modules = sorted(p.name for p in (ROOT / "src" / "nusample").glob("*.py"))
    assert [r[0] for r in rows] == modules + ["total"]
    counts = [(int(r[1]), int(r[2])) for r in rows]
    assert counts[-1] == tuple(map(sum, zip(*counts[:-1])))
    assert all(0 < code < lines for lines, code in counts)
    source = ('"""Module\n\ndocstring."""\n\n# a comment\nx = """not a\ndocstring"""\n\n'
              'def f(a,\n      b):\n    """Doc."""\n    return a  # trailing\n')
    assert code_lines.count(source) == (12, 5)
