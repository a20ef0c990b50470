#!/usr/bin/env python3
"""Digest everything the CLI prints on the benchmark's inputs, to show that a
change leaves the output byte for byte the same.

Runs ``--cycles`` cycles of each benchmark workload (check, design, sweep),
as ``perfbench/gen.py`` generates them for ``--seed``, and a fixed set of
commands on the ``tests/data`` fixtures, through ``nusample.cli.main`` in
this process.  Prints one line per workload: the number of commands and the
SHA-256 of the exit code, standard output and standard error of every
command and the bytes of the file it writes (the ``--trace`` path), in
order.  A warning counts as standard error, without the file and
line that raised it.

The inputs are written to a temporary directory and named by relative paths,
so the digests do not depend on where the files live.  ``nusample`` is
imported from ``PYTHONPATH``; run the script once per checkout and compare:

    PYTHONPATH=src python scripts/output_digest.py --seed 77 --cycles 40
    PYTHONPATH=/path/to/other/src python scripts/output_digest.py --seed 77 --cycles 40
"""
import argparse
import contextlib
import hashlib
import io
import json
import os
import shutil
import sys
import tempfile
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import gen  # noqa: E402
from nusample import cli  # noqa: E402

WORKLOADS = ("check", "design", "sweep")


def fixture_commands():
    """Every subcommand on the fixtures, copied to ``data/``, covering each
    design method, the geometric design's trace CSV, a double pair whose
    partner coefficients sit just off the exact conjugates, an output path in
    a missing directory, a trace asked of a method without one, and exit
    codes 0, 1 and 2."""
    third = ["--system", "data/third_order.json"]
    osc = ["--system", "data/oscillator.json"]
    return [
        ["analyze", *third, "--instants", "data/third_sequence.json"],
        ["analyze", *osc, "--instants", "data/quarter_turn.json"],
        ["analyze", *osc, "--instants", "data/half_turn.json"],
        ["verify", *third, "--instants", "data/third_sequence.json", "--seed", "3"],
        ["verify", *osc, "--instants", "data/quarter_turn.json", "--seed", "3"],
        ["verify", *osc, "--instants", "data/half_turn.json", "--seed", "3"],
        ["design", *third, "--t0", "0.25"],
        ["design", *third, "--t0", "0", "--method", "geometric", "--t1", "1.0"],
        ["design", *third, "--t0", "0", "--method", "geometric", "--t1", "1.0",
         "--trace", "trace.csv"],
        ["design", *third, "--t0", "0", "--method", "generic"],
        ["design", *osc, "--t0", "0", "--method", "closed", "--m", "1"],
        ["design", *osc, "--t0", "0", "--method", "generic", "--steps", "50"],
        ["design", *third, "--t0", "0", "--method", "closed"],
        ["sweep", *third, "--from", "0.2", "--to", "1.0", "--points", "4", "--trials", "5"],
        ["sweep", *osc, "--from", "0.5", "--to", "3.5", "--points", "3"],
        ["design", *third, "--t0", "0", "--method", "geometric", "--t1", "0.5",
         "--trace", "geometry.csv"],
        ["analyze", "--system", "data/near_conjugate.json",
         "--instants", "data/near_conjugate_sequence.json"],
        ["design", *third, "--t0", "0", "--method", "geometric", "--t1", "0.5",
         "--trace", "missing/geometry.csv"],
        ["design", *osc, "--t0", "0", "--trace", "trace.csv"],
    ]


def run(argv):
    """(exit code, stdout, stderr) of ``cli.main(argv)``."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = cli.main(argv)
    notes = "".join(f"{w.category.__name__}: {w.message}\n" for w in caught)
    return code, out.getvalue(), notes + err.getvalue()


def written_path(argv):
    """The path of the file ``argv`` asks the command to write (the value of
    ``--trace``), or None."""
    return next((path for flag, path in zip(argv, argv[1:]) if flag == "--trace"), None)


def digest(commands):
    """(number of commands, SHA-256 hex of all their outputs).  A command
    that names a file to write adds the file's bytes, or a marker if it
    wrote none."""
    h = hashlib.sha256()
    count = 0
    for argv in commands:
        path = written_path(argv)
        if path is not None and os.path.exists(path):
            os.remove(path)
        h.update(json.dumps(run(argv)).encode())
        h.update(b"\n")
        if path is not None:
            h.update(Path(path).read_bytes() if os.path.exists(path) else b"<not written>")
            h.update(b"\n")
        count += 1
    return count, h.hexdigest()


def workload_commands(workload, seed, cycles):
    generator = gen.Generator(workload, seed, ".", str(ROOT))
    for _ in range(cycles):
        for case in generator.cycle():
            yield from case.commands


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seed", type=int, default=77)
    ap.add_argument("--cycles", type=int, default=40)
    args = ap.parse_args(argv)
    if args.cycles < 1:
        ap.error("need at least one cycle")

    start = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            shutil.copytree(ROOT / "tests" / "data", "data")
            for workload in WORKLOADS:
                count, hexdigest = digest(workload_commands(workload, args.seed, args.cycles))
                print(f"{workload}  commands = {count}  sha256 = {hexdigest}")
            count, hexdigest = digest(fixture_commands())
            print(f"fixtures  commands = {count}  sha256 = {hexdigest}")
        finally:
            os.chdir(start)


if __name__ == "__main__":
    main()
