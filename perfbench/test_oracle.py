"""The benchmark's output checks pass real outputs and flag planted wrong ones.

    PYTHONPATH=src python3 -m pytest perfbench
"""
import json
import os

import pytest

import gen
import oracle
import run
import worker

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def plant(stdout, key, factor):
    """stdout with the value printed for ``key`` multiplied by ``factor``."""
    lines = []
    for line in stdout.splitlines():
        name, sep, value = line.partition(" = ")
        if sep and name == key:
            line = f"{name} = {float(value) * factor:.12g}"
        lines.append(line)
    return "\n".join(lines) + "\n"


def cases(workload, tmp_path, cycles=1):
    g = gen.Generator(workload, 0, str(tmp_path), ROOT)
    return [case for _ in range(cycles) for case in g.cycle()]


@pytest.fixture(scope="module")
def admissible_case(tmp_path_factory):
    """A check case the oracle decides as admissible, away from the gray
    band, with both outputs."""
    for case in cases("check", tmp_path_factory.mktemp("check"), cycles=3):
        ref = oracle.RefSystem(case.system)
        expected = oracle.verdict(ref, case.sequence)
        if expected.decided and expected.admissible and not expected.near_band:
            outputs = [worker.run_command(argv) for argv in case.commands]
            return case, ref, expected, outputs
    pytest.fail("no decided admissible case in three cycles")


def test_check_cases_are_undecided_or_clear_of_the_gray_band(tmp_path):
    """The generator redraws a decided case near the gray band, where
    analyze's criterion and the rank test may disagree."""
    for case in cases("check", tmp_path, cycles=2):
        expected = oracle.verdict(oracle.RefSystem(case.system), case.sequence)
        assert not (expected.decided and expected.near_band), case.order


def test_analyze_planted_values_are_flagged(admissible_case):
    case, ref, expected, ((code, out, _, _), _) = admissible_case
    assert oracle.check_analyze(ref, case.sequence, code, out, expected) == []
    for key in ("determinant", "gram_determinant"):
        wrong = plant(out, key, 1.001)
        assert oracle.check_analyze(ref, case.sequence, code, wrong, expected)
    flipped = out.replace("admissible = yes", "admissible = no")
    flagged = oracle.check_analyze(ref, case.sequence, 2, flipped, expected)
    assert flagged
    # a verdict against analyze's own criterion is wrong, not a known defect
    assert not any(p.startswith(oracle.KNOWN) for p in flagged)


def test_verify_planted_verdict_is_flagged(admissible_case):
    _, _, expected, (_, (code, out, _, _)) = admissible_case
    assert oracle.check_verify(code, out, expected) == []
    assert oracle.check_verify(2, "inadmissible_sequence = yes\n", expected)
    assert oracle.check_verify(0, plant(out, "deadbeat_residual", 1e9), expected)


def test_verify_large_residuals_on_admissible_case_are_wrong(admissible_case):
    """A broken simulation layer makes verify print large residuals and exit
    2; away from the gray band that is wrong output, not a known defect."""
    _, _, expected, _ = admissible_case
    broken = "deadbeat_residual = 0.01\nreconstruction_residual = 1e-13\nverified = no\n"
    flagged = oracle.check_verify(2, broken, expected)
    assert flagged and not any(p.startswith(oracle.KNOWN) for p in flagged)
    # the same verdict next to the gray band is the known criterion defect
    near = expected._replace(near_band=True)
    assert all(p.startswith(oracle.KNOWN) for p in oracle.check_verify(2, broken, near))


def test_design_planted_values_are_flagged(tmp_path):
    checked = 0
    for case in cases("design", tmp_path)[:4]:
        argv = case.commands[0]
        t0 = float(argv[argv.index("--t0") + 1])
        ref = oracle.RefSystem(case.system)
        code, out, err, _ = worker.run_command(argv)
        assert oracle.check_design(ref, t0, code, out, err) == []
        if code == 0:
            assert oracle.check_design(ref, t0, code, plant(out, "gram_determinant", 1.001), err)
            assert oracle.check_design(ref, t0 + 0.5, code, out, err)
            checked += 1
    assert checked


def test_design_errors_other_than_the_known_one_are_wrong(tmp_path):
    by_order = {case.order: case for case in cases("design", tmp_path)}
    generic = oracle.RefSystem(by_order[4].system)
    closed = oracle.RefSystem(by_order[2].system)
    assert oracle.design_route(generic) == "generic"
    assert oracle.design_route(closed) == "closed"
    known = oracle.DESIGN_SEARCH_FAILED + "\n"
    flagged = oracle.check_design(generic, 0.0, 1, "", known)
    assert flagged and all(p.startswith(oracle.KNOWN) for p in flagged)
    for ref, stderr in ((generic, "error: system is not minimal\n"),
                        (generic, "error: invalid interval bounds\n"),
                        (closed, known)):
        flagged = oracle.check_design(ref, 0.0, 1, "", stderr)
        assert flagged and not any(p.startswith(oracle.KNOWN) for p in flagged), stderr


def test_sweep_planted_row_is_flagged(tmp_path):
    case = cases("sweep", tmp_path)[0]     # tests/data/third_order.json
    argv = case.commands[0]
    opts = dict(zip(argv[1::2], argv[2::2]))
    args = {"start": float(opts["--from"]), "stop": float(opts["--to"]),
            "points": int(opts["--points"]), "trials": int(opts["--trials"]),
            "seed": int(opts["--seed"])}
    ref = oracle.RefSystem(case.system)
    code, out, _, _ = worker.run_command(argv)
    assert oracle.check_sweep(ref, args, code, out) == []
    rows = out.splitlines()
    for column in range(1, 5):
        cells = rows[3].split(",")
        cells[column] = f"{float(cells[column]) * 1.001:.12g}"
        wrong = "\n".join(rows[:3] + [",".join(cells)] + rows[4:]) + "\n"
        assert oracle.check_sweep(ref, args, code, wrong), column


def test_benchmark_json_lists_the_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    layer_units = dict(worker.per_layer_units(), **{"setup.import_s": "s"})
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layer_units
    assert [w["name"] for w in spec["workloads"]] == list(gen.ORDERS)
