"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
"""
import json
import math
from pathlib import Path

import numpy as np
import pytest

import nusample as ns
from nusample.analysis import sampled_mode_vectors
from nusample.cli import main
from nusample.design import spiral_point
from conftest import (
    pathological_sequence,
    random_admissible_case,
    random_minimal_spec,
    random_sequence,
)

DATA = Path(__file__).parent / "data"

# gray-band bounds for criterion 1: a case counts as numerically decided
# only if every matrix has sigma_min/sigma_max outside this interval,
# because no pair of rank tests with fixed thresholds can be expected to
# agree on matrices that sit exactly at the threshold
GRAY_LO, GRAY_HI = 1e-11, 1e-5
MAX_BASIS_COND = 1e3


def _angle_diff(x, y):
    d = (x - y) % (2 * math.pi)
    return min(d, 2 * math.pi - d)


def _well_conditioned_spec(rng, n):
    for _ in range(200):
        spec = random_minimal_spec(rng, n)
        ob = ns.observability_canonical(spec)
        co = ns.controllability_canonical(spec)
        cb = max(ns.real_jordan(spec, ob).condition_number,
                 ns.real_jordan(spec, co).condition_number)
        if cb < MAX_BASIS_COND:
            return spec
    raise RuntimeError("no well-conditioned system found")


def _ratios(spec, seq):
    av = ns.alphas(seq)
    M = ns.fundamental_matrix(spec.eigen, av)
    real = ns.observability_canonical(spec)
    G = ns.bruteforce_controllability_matrix(real, seq)
    O = ns.bruteforce_observability_matrix(real, av)
    rs = [float(s[-1] / s[0]) for s in
          (np.linalg.svd(X, compute_uv=False) for X in (M, G, O))]
    return rs, (M, G, O)


def _decided(rs):
    return all(not (GRAY_LO < r < GRAY_HI) for r in rs)


def test_acceptance_1_theorem_equivalence():
    rng = np.random.default_rng(0)
    count = 0
    pathological = 0
    while count < 500:
        n = int(rng.integers(2, 6))
        spec = _well_conditioned_spec(rng, n)
        if count % 9 == 8:
            seq = pathological_sequence(spec, with_final=True)
            if seq is None:
                continue
            rs, (M, G, O) = _ratios(spec, seq)
            if not _decided(rs):
                continue
            pathological += 1
        else:
            for _ in range(50):
                seq = random_sequence(rng, n, with_final=True)
                rs, (M, G, O) = _ratios(spec, seq)
                if _decided(rs):
                    break
            else:
                continue
        verdict = ns.numerical_rank(M) == n
        oracle = (ns.numerical_rank(G) == n) and (ns.numerical_rank(O) == n)
        assert verdict == oracle, (count, n, rs)
        count += 1
    assert pathological >= 50
    print("ACCEPTANCE 1 theorem equivalence (500 cases, "
          f"{pathological} pathological): PASS")


def test_acceptance_2_optimal_interval_scan():
    for a in (-0.5, 0.0, 0.5):
        for b in (0.5, 1.0, 2.0):
            lam = complex(a, b)
            spec = ns.system_from_modes([(lam, 1), (lam.conjugate(), 1)],
                                        [0.5, 0.5])
            period = 2 * math.pi / b
            grid = np.linspace(0.0, 2 * period, 10**4 + 1)[1:]
            step = grid[1] - grid[0]
            gd = np.empty(grid.size)
            for i, dt in enumerate(grid):
                av = ns.alphas(ns.SamplingSequence((0.0, dt)))
                Y = sampled_mode_vectors(spec, av)
                Yn = Y / np.linalg.norm(Y, axis=0)
                gd[i] = np.linalg.det(Yn.T @ Yn)
            m = 0
            while (2 * m + 1) * math.pi / (2 * b) <= grid[-1]:
                peak = (2 * m + 1) * math.pi / (2 * b)
                lo = np.searchsorted(grid, peak - period / 8)
                hi = np.searchsorted(grid, peak + period / 8)
                idx = lo + int(np.argmax(gd[lo:hi]))
                assert abs(grid[idx] - peak) <= step + 1e-15, (a, b, m)
                av = ns.alphas(ns.SamplingSequence((0.0, peak)))
                Y = sampled_mode_vectors(spec, av)
                ip = abs(Y[:, 0] @ Y[:, 1])
                assert ip <= 1e-9 * np.linalg.norm(Y[:, 0]) * np.linalg.norm(Y[:, 1])
                m += 1
    print("ACCEPTANCE 2 optimal-interval scan (9 systems, 1e4-point grids): PASS")


def test_acceptance_3_pathological_sampling():
    for b in (0.5, 1.0, 2.0):
        spec = ns.system_from_modes([(complex(0, b), 1), (complex(0, -b), 1)],
                                    [0.5, 0.5])
        n = spec.n
        period = math.pi / b
        seq = ns.SamplingSequence((0.0, period), final_instant=n * period)
        av = ns.alphas(seq)
        report = ns.joint_test(ns.fundamental_matrix(spec.eigen, av))
        assert abs(report.determinant) <= report.threshold
        assert not report.is_admissible
        real = ns.observability_canonical(spec)
        assert ns.numerical_rank(ns.bruteforce_controllability_matrix(real, seq)) < n
        assert ns.numerical_rank(ns.bruteforce_observability_matrix(real, av)) < n
    print("ACCEPTANCE 3 pathological sampling (b in {0.5, 1, 2}): PASS")


def test_acceptance_4_factorization_identities():
    rng = np.random.default_rng(4)
    for _ in range(50):
        n = int(rng.integers(2, 6))
        spec = random_minimal_spec(rng, n)
        rc, ro = [], []
        for _ in range(5):
            seq = random_sequence(rng, n)
            fc = ns.verify_factorizations(spec, ns.alphas(seq))
            assert fc.M2 == 1.0  # exact by construction
            rc.append(fc.ratio_ctrl)
            ro.append(fc.ratio_obs)
        assert np.ptp(rc) <= 1e-8 * max(1.0, abs(np.mean(rc)))
        assert np.ptp(ro) <= 1e-8 * max(1.0, abs(np.mean(ro)))
    print("ACCEPTANCE 4 factorization identities (50 systems x 5 alpha-vectors): PASS")


def test_acceptance_5_deadbeat_and_reconstruction():
    rng = np.random.default_rng(5)
    for _ in range(100):
        n = int(rng.integers(1, 6))
        spec, seq = random_admissible_case(rng, n)
        real = ns.observability_canonical(spec)
        x0 = rng.standard_normal(n)
        plan = ns.deadbeat_inputs(real, x0, seq)
        traj = ns.simulate_impulse_train(real, x0, plan)
        assert np.linalg.norm(traj.final_state) <= 1e-8 * np.linalg.norm(x0)
        av = ns.alphas(seq)
        y = np.array([float(real.c @ ns.state_transition(real, x0, a))
                      for a in av])
        xr = ns.reconstruct_initial_state(real, y, av)
        assert np.linalg.norm(xr - x0) <= 1e-8 * np.linalg.norm(x0)
    print("ACCEPTANCE 5 deadbeat & reconstruction round trips (100 cases): PASS")


def test_acceptance_6_geometric_design():
    rng = np.random.default_rng(2026)
    done = 0
    while done < 20:
        lam = rng.uniform(-1.0, 0.5)
        a = rng.uniform(0.1, 1.0) * (1 if rng.random() < 0.5 else -1)
        b = rng.uniform(0.5, 2.0)
        if abs(lam - a) < 0.05:
            continue
        c_pair = complex(rng.uniform(0.2, 1.0), rng.uniform(-0.5, 0.5))
        spec = ns.system_from_modes(
            [(lam, 1), (complex(a, b), 1), (complex(a, -b), 1)],
            [1.0, c_pair, c_pair.conjugate()])
        t1 = rng.uniform(0.3, 2.0)
        res, trace = ns.next_instant_third_order(spec, 0.0, t1)
        # enumeration oracle over the branch integer
        M = trace.rotation_angle
        target = trace.q2[2]
        best = None
        for m in range(9):
            alpha2 = (M + 2 * math.pi * m) / b
            if alpha2 <= t1:
                continue
            score = abs(target - math.exp(lam * alpha2))
            if best is None or score < best[0] - 1e-15:
                best = (score, m)
        assert res.branch_m == best[1]
        report = ns.joint_test(
            ns.fundamental_matrix(spec.eigen, ns.alphas(res.sequence)))
        assert report.is_admissible
        # Y2's XY-projection must point along P2
        alpha2 = res.sequence.instants[2]
        Y2 = spiral_point(spec, alpha2)
        P2 = trace.projections["P2"]
        assert _angle_diff(math.atan2(Y2[1], Y2[0]),
                           math.atan2(P2[1], P2[0])) <= 1e-9
        done += 1
    print("ACCEPTANCE 6 geometric design vs enumeration oracle (20 systems): PASS")


def test_acceptance_7_sensitivity_ordering():
    spec = ns.system_from_markov([(1j, 1), (-1j, 1)], [0.0, 1.0])
    real = ns.observability_canonical(spec)
    av_opt = ns.alphas(ns.SamplingSequence((0.0, math.pi / 2)))
    av_bad = ns.alphas(ns.SamplingSequence((0.0, 0.99 * math.pi)))
    eps = 1e-4
    rng = np.random.default_rng(7)
    wins = 0
    for _ in range(200):
        x0 = rng.standard_normal(2)
        noise = rng.normal(0.0, eps, 2)  # shared between the paired sequences
        errs = []
        for av in (av_opt, av_bad):
            y = np.array([float(real.c @ ns.state_transition(real, x0, a))
                          for a in av])
            xh = ns.reconstruct_initial_state(real, y + noise, av)
            errs.append(np.linalg.norm(xh - x0))
        wins += errs[0] < errs[1]
    assert wins >= 190  # >= 95% of 200
    print(f"ACCEPTANCE 7 sensitivity ordering ({wins}/200 paired wins): PASS")


def test_acceptance_8_translation_invariance(capsys, tmp_path):
    cases = [("oscillator.json", "quarter_turn.json"),
             ("oscillator.json", "half_turn.json"),
             ("third_order.json", "third_sequence.json")]
    for system, sequence in cases:
        code1 = main(["analyze", "--system", str(DATA / system),
                      "--instants", str(DATA / sequence)])
        out1 = capsys.readouterr().out
        doc = json.loads((DATA / sequence).read_text())
        shifted = {"instants": [t + 17.3 for t in doc["instants"]]}
        if doc.get("final_instant") is not None:
            shifted["final_instant"] = doc["final_instant"] + 17.3
        path = tmp_path / f"shifted_{sequence}"
        path.write_text(json.dumps(shifted))
        code2 = main(["analyze", "--system", str(DATA / system),
                      "--instants", str(path)])
        out2 = capsys.readouterr().out
        assert code1 == code2
        assert out1 == out2, (system, sequence)
    with capsys.disabled():
        print("\nACCEPTANCE 8 translation invariance (3 golden cases): PASS")
