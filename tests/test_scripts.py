"""The experiment scripts run end to end on small inputs, and the benchmark
pair summary on synthetic runs."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bench_pairs
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
                                             ("sweep", "9"), ("fixtures", "19")]
    assert all(len(w[-1]) == 64 for w in lines)


def test_output_digest_hashes_written_files(tmp_path, monkeypatch):
    # the bytes at the --out/--trace path enter the digest, and a stale file
    # from an earlier command does not
    import output_digest

    def writer(content):
        def run(argv):
            if content is not None:
                Path(output_digest.written_path(argv)).write_text(content)
            return 0, "", ""
        return run

    monkeypatch.chdir(tmp_path)
    digests = {}
    for content in ("a", "b", None, "stale"):
        monkeypatch.setattr(output_digest, "run", writer(content))
        digests[content] = output_digest.digest([["design", "--trace", "t.csv"]])
    assert digests["a"] != digests["b"]
    assert (tmp_path / "t.csv").read_text() == "stale"
    monkeypatch.setattr(output_digest, "run", writer(None))
    assert output_digest.digest([["design", "--trace", "t.csv"]]) == digests[None]
    assert output_digest.written_path(["design", "--trace", "g.csv"]) == "g.csv"
    assert output_digest.written_path(["analyze", "--system", "s.json"]) is None


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


E2E = [{"name": "ops_per_s", "better": "higher", "bound": 0.25},
       {"name": "latency_p50_ms", "better": "lower", "bound": 0.25}]


def _pairs(parent, change, latency=(2.0, 2.0)):
    return [{"parent": {"ops_per_s": p, "latency_p50_ms": latency[0]},
             "change": {"ops_per_s": c, "latency_p50_ms": latency[1]}}
            for p, c in zip(parent, change)]


def test_bench_pairs_alternates_the_first_side():
    plan = bench_pairs.pair_plan(4, 7)
    assert [seed for seed, _ in plan] == [7, 20, 33, 46]
    assert [order[0] for _, order in plan] == ["parent", "change", "parent", "change"]
    assert all(sorted(order) == ["change", "parent"] for _, order in plan)


def test_bench_pairs_gain_needs_nine_tenths_and_the_spread():
    parent = [100.0 + i for i in range(10)]  # quartiles 102.25 and 106.75
    ops, lat = bench_pairs.summarize(_pairs(parent, [p + 10.0 for p in parent]), E2E)
    assert (ops["parent_median"], ops["change_median"]) == (104.5, 114.5)
    assert ops["parent_spread"] == pytest.approx(4.5)
    assert (ops["wins"], ops["gain_holds"], ops["verdict"]) == (10, True, "ok")
    # equal latencies are ties, which count for neither side
    assert (lat["wins"], lat["gain_holds"], lat["verdict"]) == (0, False, "ok")
    # eight wins of ten do not carry a claim
    change = [p + 10.0 for p in parent[:8]] + parent[8:]
    ops = bench_pairs.summarize(_pairs(parent, change), E2E)[0]
    assert (ops["wins"], ops["gain_holds"]) == (8, False)
    # nor does a median gap inside the parent's spread
    ops = bench_pairs.summarize(_pairs(parent, [p + 1.0 for p in parent]), E2E)[0]
    assert (ops["wins"], ops["gain_holds"]) == (10, False)


def test_bench_pairs_flags_regressions_and_unresolved_metrics():
    parent = [100.0] * 10
    # latency 30% higher is worse than its 25% bound; 20% is within it
    rows = bench_pairs.summarize(_pairs(parent, parent, latency=(2.0, 2.6)), E2E)
    assert [r["verdict"] for r in rows] == ["ok", "regression"]
    rows = bench_pairs.summarize(_pairs(parent, parent, latency=(2.0, 2.4)), E2E)
    assert rows[1]["verdict"] == "ok"
    # a parent spread wider than the bound leaves a metric unresolved, unless
    # every change run beats every parent run
    wide = [50.0, 60.0, 70.0, 80.0, 90.0, 110.0, 120.0, 130.0, 140.0, 150.0]
    ops = bench_pairs.summarize(_pairs(wide, wide), E2E)[0]
    assert (ops["parent_spread"] > 25.0, ops["verdict"]) == (True, "unresolved")
    ops = bench_pairs.summarize(_pairs(wide, [151.0 + i for i in range(10)]), E2E)[0]
    assert ops["verdict"] == "ok"


def test_bench_pairs_prints_the_per_pair_ratios():
    # the parent's runs spread by seed, and each pair's change runs 5% to
    # 15% faster than its own parent run
    parent = [100.0 + 10.0 * i for i in range(10)]
    change = [p * (1.05 + 0.01 * i) for i, p in enumerate(parent)]
    rows = bench_pairs.summarize(_pairs(parent, change), E2E)
    assert rows[0]["ratio_median"] == pytest.approx(1.095)
    assert rows[0]["ratio_range"] == pytest.approx((1.05, 1.14))
    assert rows[1]["ratio_median"] == rows[1]["ratio_range"][0] == 1.0
    header, ops, lat = bench_pairs.table(rows)
    assert header.split() == ["metric", "unit", "parent_med", "change_med", "parent_iqr",
                              "ratio_med", "ratio_range", "wins", "gain_claim", "regression"]
    assert ops.split()[4:7] == ["1.0950", "1.0500-1.1400", "10/10"]
    assert lat.split()[4:7] == ["1.0000", "1.0000-1.0000", "0/10"]
