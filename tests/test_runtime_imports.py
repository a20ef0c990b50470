"""The runtime needs no scipy: importing the package and the CLI loads no
scipy module, and every subcommand prints the same with scipy blocked."""
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).parents[1] / "src"
DATA = Path(__file__).parent / "data"

# a finder ahead of every other one that refuses to import scipy
BLOCK_SCIPY = """
import sys

class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ModuleNotFoundError(f"{name} is blocked")
        return None

sys.meta_path.insert(0, NoScipy())
"""

# runs each argv of argv[1] (JSON) through cli.main and prints one JSON list
# of (exit code, stdout, stderr, contents of the written CSV or None)
RUN_COMMANDS = """
import contextlib, io, json, os, sys
from nusample import cli

results = []
for argv, csv_path in json.loads(sys.argv[1]):
    if csv_path and os.path.exists(csv_path):
        os.remove(csv_path)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    csv = open(csv_path).read() if csv_path and os.path.exists(csv_path) else None
    results.append([code, out.getvalue(), err.getvalue(), csv])
print(json.dumps(results))
"""


def _python(code, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                          text=True, env=env, timeout=120, check=False)


def test_importing_the_cli_loads_no_scipy():
    res = _python("import sys, nusample, nusample.cli\n"
                  "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"


def _commands(tmp_path):
    def data(name):
        return str(DATA / name)

    trace = str(tmp_path / "design_trace.csv")
    geometry = str(tmp_path / "geometry.csv")
    third = ["--system", data("third_order.json")]
    osc = ["--system", data("oscillator.json")]
    return [
        (["analyze", *third, "--instants", data("third_sequence.json")], None),
        (["analyze", *osc, "--instants", data("quarter_turn.json")], None),
        (["analyze", *osc, "--instants", data("half_turn.json")], None),
        (["verify", *third, "--instants", data("third_sequence.json"), "--seed", "3"], None),
        (["verify", *osc, "--instants", data("half_turn.json"), "--seed", "3"], None),
        (["design", *third, "--t0", "0.25"], None),
        (["design", *third, "--t0", "0", "--method", "geometric", "--t1", "1.0",
          "--trace", trace], trace),
        (["design", *third, "--t0", "0", "--method", "generic"], None),
        (["design", *osc, "--t0", "0", "--method", "closed", "--m", "1"], None),
        (["design", *osc, "--t0", "0", "--method", "generic", "--steps", "50"], None),
        (["design", *third, "--t0", "0", "--method", "closed"], None),
        (["sweep", *third, "--from", "0.2", "--to", "1.0", "--points", "4",
          "--trials", "5"], None),
        (["sweep", *osc, "--from", "0.5", "--to", "3.5", "--points", "3"], None),
        (["design", *third, "--t0", "0", "--method", "geometric", "--t1", "0.5",
          "--trace", geometry], geometry),
    ]


def test_every_subcommand_runs_with_scipy_blocked(tmp_path):
    commands = _commands(tmp_path)
    free = _python(BLOCK_SCIPY + RUN_COMMANDS, json.dumps(commands))
    assert free.returncode == 0, free.stderr
    full = _python(RUN_COMMANDS, json.dumps(commands))
    assert full.returncode == 0, full.stderr
    got, want = json.loads(free.stdout), json.loads(full.stdout)
    assert got == want
    assert {r[0] for r in want} == {0, 1, 2}  # the runs cover every exit code
    assert all(r[3] for r, (_, csv) in zip(want, commands) if csv)
