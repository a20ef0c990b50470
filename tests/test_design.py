import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import nusample as ns
from nusample import analysis, design, fileio
from nusample.cli import export_geometry_csv
from nusample.design import spiral_point
from nusample.errors import DesignError, InadmissibleDesignError
import reference

DATA = Path(__file__).parent / "data"


def _angle_diff(x, y):
    d = (x - y) % (2 * math.pi)
    return min(d, 2 * math.pi - d)


# ---------------------------------------------------------------------------
# 2nd order closed form

def _pair(a, b, c=0.5):
    """The lone pair a +- ib with modal coefficients c and conj(c)."""
    return ns.system_from_modes([(complex(a, b), 1), (complex(a, -b), 1)],
                                [c, np.conj(c)])


def test_second_order_quarter_turn():
    res = ns.optimal_interval_second_order(_pair(0.0, 1.0), t0=0.0, m=0)
    assert res.sequence.instants == pytest.approx((0.0, math.pi / 2))
    assert res.metric.min_principal_angle == pytest.approx(math.pi / 2)
    assert res.metric.normalized_gram_det == pytest.approx(1.0)


def test_second_order_branches():
    res = ns.optimal_interval_second_order(_pair(0.0, 2.0), t0=1.0, m=1)
    assert res.sequence.instants == pytest.approx((1.0, 1.0 + 3 * math.pi / 4))
    assert res.branch_m == 1


def test_second_order_damped_still_orthogonal():
    # damping shrinks the vectors, and the coefficient's phase turns both, but
    # neither changes the quarter-turn angle
    res = ns.optimal_interval_second_order(_pair(-0.5, 1.0, 0.3 - 1.7j))
    assert res.metric.min_principal_angle == pytest.approx(math.pi / 2, abs=1e-12)


def test_second_order_rejects_a_system_that_is_not_a_lone_pair():
    spec = fileio.load_system(DATA / "third_order.json")
    with pytest.raises(DesignError, match="closed-form design needs a 2nd-order complex pair"):
        ns.optimal_interval_second_order(spec)


# ---------------------------------------------------------------------------
# spiral geometry

def _third_order_spec(lam, a, b, coeffs=(1.0, 0.5 + 0j)):
    c_real, c_pair = coeffs
    return ns.system_from_modes(
        [(lam, 1), (complex(a, b), 1), (complex(a, -b), 1)],
        [c_real, c_pair, np.conjugate(c_pair)])


def test_spiral_point_origin():
    spec = _third_order_spec(-1.0, -0.5, 1.0)
    assert spiral_point(spec, 0.0) == pytest.approx([1.0, 0.0, 1.0])


def test_spiral_point_half_turn():
    spec = _third_order_spec(-1.0, 0.0001, 1.0)
    # nearly undamped pair: after alpha = pi the XY part is close to (-1, 0)
    p = spiral_point(spec, math.pi)
    assert p[0] == pytest.approx(-math.exp(0.0001 * math.pi), rel=1e-9)
    assert p[1] == pytest.approx(0.0, abs=1e-12)
    assert p[2] == pytest.approx(math.exp(-math.pi), rel=1e-12)


def test_spiral_matches_math_exp_spiral():
    # the flow route against (e^{a t} cos bt, e^{a t} sin bt, e^{lam t}) by
    # math.exp, with the real root listed before and after the pair
    rng = np.random.default_rng(44)
    for case in range(40):
        lam, a, b = rng.uniform(-3.0, 2.0), rng.uniform(-2.0, 1.0), 10.0 ** rng.uniform(-1, 1)
        roots = [(lam, 1), (complex(a, b), 1), (complex(a, -b), 1)]
        spec = ns.system_from_modes(roots[case % 3:] + roots[:case % 3],
                                    [1.0, 0.5, 0.5][case % 3:] + [1.0, 0.5, 0.5][:case % 3])
        alphas = rng.uniform(0.0, 20.0, 25)
        got = spiral_point(spec, alphas)
        ref = np.array([reference.spiral_point(lam, a, b, t) for t in alphas])
        scale = np.max(np.abs(ref), axis=1, keepdims=True)
        assert np.all(np.abs(got - ref) <= 1e-15 * scale)


def test_third_order_result_is_orthogonalish():
    spec = _third_order_spec(-1.0, -0.3, 1.2)
    res, trace = ns.next_instant_third_order(spec, t0=0.0, t1=1.0)
    assert res.method == "geometric-3rd"
    t0, t1, t2 = res.sequence.instants
    assert (t0, t1) == (0.0, 1.0)
    assert t2 > t1
    # the designed third instant must be exactly on the enumerated branch
    alpha2 = t2 - t0
    assert _angle_diff(1.2 * alpha2, trace.rotation_angle) < 1e-9
    # and the third direction is orthogonal to the first two by construction
    v2 = spiral_point(spec, alpha2)
    assert abs(np.dot(v2[:2] / np.linalg.norm(v2[:2]),
                      trace.projections["P2"] / np.linalg.norm(trace.projections["P2"]))
               - 1.0) < 1e-9


def test_third_order_cross_product_example():
    lam, a = -1.0, -0.4
    spec = _third_order_spec(lam, a, 1.0)
    res, trace = ns.next_instant_third_order(spec, 0.0, 2.0)
    Y0, Y1 = trace.vectors["Y0"], trace.vectors["Y1"]
    cross = np.cross(Y0, Y1)
    if cross[2] < 0:
        cross = -cross
    assert trace.projections["P2"] == pytest.approx(cross[:2])
    assert trace.q2 == pytest.approx(trace.mu * cross)
    # mu puts q2 on the surface z = (x^2+y^2)^(lambda/2a)
    r2 = np.hypot(*trace.q2[:2])
    assert trace.q2[2] == pytest.approx((r2 * r2) ** (lam / (2 * a)), rel=1e-9)


def test_third_order_orthogonal_directions():
    rng = np.random.default_rng(31)
    for _ in range(10):
        lam = rng.uniform(-1.5, -0.2)
        a = rng.uniform(-1.0, -0.1)
        b = rng.uniform(0.5, 2.0)
        if abs(lam - a) < 0.05:
            continue
        spec = _third_order_spec(lam, a, b)
        t1 = rng.uniform(0.3, 2.0)
        res, trace = ns.next_instant_third_order(spec, 0.0, t1)
        # q2 is orthogonal to both earlier vectors (it is along Y0 x Y1)
        assert abs(np.dot(trace.q2, trace.vectors["Y0"])) < 1e-9 * np.linalg.norm(trace.q2)
        assert abs(np.dot(trace.q2, trace.vectors["Y1"])) < 1e-9 * np.linalg.norm(trace.q2)


def test_third_order_rejects_a_zero():
    spec = _third_order_spec(-1.0, 0.0, 1.0)
    with pytest.raises(DesignError):
        ns.next_instant_third_order(spec, 0.0, 1.0)


def test_third_order_rejects_lambda_equal_a():
    spec = _third_order_spec(-0.5, -0.5, 1.0)
    with pytest.raises(DesignError):
        ns.next_instant_third_order(spec, 0.0, 1.0)


def test_third_order_rejects_bad_interval():
    spec = _third_order_spec(-1.0, -0.3, 1.0)
    with pytest.raises(DesignError):
        ns.next_instant_third_order(spec, 1.0, 1.0)


def test_third_order_rejects_wrong_structure():
    spec = ns.system_from_modes([(0, 1), (-1, 1)], [1.0, 1.0])
    with pytest.raises(DesignError):
        ns.next_instant_third_order(spec, 0.0, 1.0)


def test_third_order_rejects_degenerate_sequence():
    # the growing real mode e^{5.094 alpha} swamps the pair in the second and
    # third mode vectors, so they are parallel: a zero Gram determinant
    spec = _third_order_spec(5.094, -0.4729, 0.36, (1.0, 0.1506 + 0.6349j))
    with pytest.raises(InadmissibleDesignError,
                       match="geometric step's sequence is inadmissible") as info:
        ns.next_instant_third_order(spec, 0.0, 4.019)
    best = info.value.best
    assert best.method == "geometric-3rd"
    assert best.sequence.instants[:2] == (0.0, 4.019)
    assert best.metric.deficient
    assert best.metric.condition_number >= 1.0 / analysis.RANK_REL_TOL


def test_geometry_csv_roundtrip(tmp_path):
    spec = _third_order_spec(-1.0, -0.3, 1.2)
    _, trace = ns.next_instant_third_order(spec, 0.0, 1.0)
    out = tmp_path / "geom.csv"
    export_geometry_csv(trace, out)
    lines = out.read_text().splitlines()
    assert lines[0] == "alpha,x,y,z,kind"
    kinds = {ln.rsplit(",", 1)[1] for ln in lines[1:]}
    assert {"spiral", "Y0", "Y1", "Y2", "P0", "P1", "P2", "Q2"} <= kinds


# ---------------------------------------------------------------------------
# generic search

def test_generic_second_order_finds_quarter_turn():
    spec = ns.system_from_modes([(1j, 1), (-1j, 1)], [0.5, 0.5])
    res = ns.design_sequence_generic(spec, t0=0.0, bounds=(0.05, 4.0), steps=400)
    assert res.metric.normalized_gram_det > 0.999
    dt = res.sequence.instants[1] - res.sequence.instants[0]
    assert _angle_diff(dt, math.pi / 2) < 0.05 or _angle_diff(dt, 3 * math.pi / 2) < 0.05


def test_generic_matches_geometric_quality():
    spec = _third_order_spec(-1.0, -0.3, 1.2)
    geo, _ = ns.next_instant_third_order(spec, 0.0, 1.0)
    gen = ns.design_sequence_generic(spec, t0=0.0, bounds=(0.05, 6.0), steps=250)
    assert gen.metric.normalized_gram_det > 0.0
    # generic search gets within the same order of orthogonality quality
    assert gen.metric.normalized_gram_det > 0.3 * geo.metric.normalized_gram_det


def test_generic_rejects_nonminimal():
    spec = ns.system_from_modes([(0, 1), (-1, 1)], [1.0, 0.0])
    with pytest.raises(DesignError):
        ns.design_sequence_generic(spec)


def test_generic_sequences_are_admissible():
    rng = np.random.default_rng(9)
    from conftest import random_minimal_spec
    for n in (2, 3, 4):
        spec = random_minimal_spec(rng, n)
        res = ns.design_sequence_generic(spec, t0=0.0)
        report = ns.joint_test(ns.fundamental_matrix(spec.eigen, ns.alphas(res.sequence)))
        assert report.is_admissible


def test_generic_design_is_admissible_up_to_order_ten():
    # default bounds, one generator seeded 1, 6 systems per order: every
    # design passes the rank rule, and joint_test admits every designed
    # sequence.  A fixed floor of 1e-12 on the Gram determinant refused 16 of
    # these 54 at n = 6..10, though their cond(Yn) was 8.7e2 to 8.7e6
    from conftest import random_minimal_spec
    rng = np.random.default_rng(1)
    for n in range(2, 11):
        for _ in range(6):
            spec = random_minimal_spec(rng, n)
            res = ns.design_sequence_generic(spec)
            phi = ns.fundamental_matrix(spec.eigen, ns.alphas(res.sequence))
            assert ns.joint_test(phi).is_admissible, (n, res.sequence.instants)


def test_generic_inadmissible_search_attaches_best():
    # past an interval of 100 only the e^{-0.5 alpha} mode is left in a sampled
    # mode vector, so the later two are parallel and every candidate fails the
    # rank rule
    spec = ns.system_from_modes([(-7.0, 1), (-0.5, 1), (-6.9, 1)], [1.0, 1.0, 1.0])
    with pytest.raises(InadmissibleDesignError,
                       match="^every grid candidate is inadmissible$") as info:
        ns.design_sequence_generic(spec, t0=0.0, bounds=(100.0, 160.0))
    best = info.value.best
    assert best.method == "generic-search"
    assert best.metric.deficient
    assert best.metric.condition_number >= 1.0 / analysis.RANK_REL_TOL
    t = best.sequence.instants
    assert len(t) == 3 and t[0] == 0.0
    assert min(b - a for a, b in zip(t, t[1:])) >= 100.0


# ---------------------------------------------------------------------------
# the batched refinement against the Brent route of tests/reference.py

@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_generic_search_keeps_the_brent_routes_quality(n):
    # seeded systems, default bounds: per order, the median log10 Gram
    # determinant may trail the Brent route's by at most 1e-6 decades (on 100
    # systems per order it trailed by at most 1e-7), and no more designs may
    # fail the rank rule than the Brent route's
    from conftest import random_minimal_spec
    rng = np.random.default_rng(7)
    new, old, deficient = [], [], []
    for _ in range(25):
        spec = random_minimal_spec(rng, n)
        try:
            res = ns.design_sequence_generic(spec)
        except InadmissibleDesignError as exc:
            res = exc.best
        seq = ns.SamplingSequence(tuple(reference.brent_design(spec)))
        brent = design._designed_metric(spec, seq)
        new.append(res.metric.normalized_gram_det)
        old.append(brent.normalized_gram_det)
        deficient.append((res.metric.deficient, brent.deficient))
    new, old = np.array(new), np.array(old)
    assert np.median(np.log10(new)) >= np.median(np.log10(old)) - 1e-6
    new_deficient, old_deficient = np.sum(deficient, axis=0)
    assert new_deficient <= old_deficient


def test_generic_search_keeps_every_interval_within_the_bounds():
    # refining an interior instant on [t[i-1] + dmin, t[i+1] - dmin] alone
    # let its left interval grow to almost 2 dmax: 31 of these 200 designs
    # had an interval above dmax
    from conftest import random_minimal_spec
    rng = np.random.default_rng(7)
    dmin, dmax = 0.05, 5.0
    for n in range(3, 7):
        for _ in range(50):
            spec = random_minimal_spec(rng, n)
            try:
                res = ns.design_sequence_generic(spec, bounds=(dmin, dmax))
            except InadmissibleDesignError as exc:
                res = exc.best
            t = np.array(res.sequence.instants)
            slack = 4 * np.spacing(np.max(np.abs(t)))  # the rounding of t + dmax
            gaps = np.diff(t)
            assert np.all(gaps >= dmin - slack) and np.all(gaps <= dmax + slack), gaps


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1),
       n=st.integers(min_value=2, max_value=5),
       t0=st.floats(-50.0, 50.0),
       dmin=st.floats(0.01, 3.0),
       span=st.floats(0.01, 6.0))
@example(seed=20, n=3, t0=0.0, dmin=1.0, span=2.0)  # refining t1 used to stretch the last gap
def test_generic_search_invariants(seed, n, t0, dmin, span):
    from conftest import count_calls, random_minimal_spec
    spec = random_minimal_spec(np.random.default_rng(seed), n)
    dmax = dmin + span
    with pytest.MonkeyPatch.context() as mp:
        calls = count_calls(mp, analysis.unit_gram, (design,))
        try:
            res = ns.design_sequence_generic(spec, t0=t0, bounds=(dmin, dmax))
        except InadmissibleDesignError as exc:
            res = exc.best
    assert len(calls) <= 4 * (n - 1)  # one greedy grid, three refinement calls
    t = np.array(res.sequence.instants)
    assert t[0] == t0 and np.all(np.diff(t) > 0)
    slack = 4 * np.spacing(np.max(np.abs(t)))  # the rounding of t + dmin
    assert np.all(np.diff(t) >= dmin - slack)
    assert np.all(np.diff(t) <= dmax + slack)
    greedy = np.array(reference.greedy_instants(spec, t0, (dmin, dmax), 200))
    av = np.stack([t[-1] - t[::-1], greedy[-1] - greedy[::-1]])
    refined, first = analysis.unit_gram(analysis.sampled_mode_vectors(spec, av))[2]
    assert refined >= first


# ---------------------------------------------------------------------------
# the Brent route's minimizer against scipy's

def _same_float(x, y):
    return float(x).hex() == float(y).hex()


def _brent_matches_scipy(func, lo, hi, xatol, maxfun=500):
    """Run both minimizers; assert the same x and f(x) bit for bit and return
    scipy's result."""
    from scipy.optimize import minimize_scalar
    x, fun = reference.minimize_bounded(func, lo, hi, xatol, maxfun)
    ref = minimize_scalar(func, bounds=(lo, hi), method="bounded",
                          options={"xatol": xatol, "maxiter": maxfun})
    assert _same_float(x, ref.x) and _same_float(fun, ref.fun), (x, fun, ref)
    return ref


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_brent_matches_scipy_on_design_objectives(n):
    from conftest import random_minimal_spec
    calls = []

    def both(func, lo, hi, xatol, maxfun=500):
        calls.append(_brent_matches_scipy(func, lo, hi, xatol, maxfun).nfev)
        return reference.minimize_bounded(func, lo, hi, xatol, maxfun)

    rng = np.random.default_rng(40 + n)
    for _ in range(4):
        spec = random_minimal_spec(rng, n)
        reference.brent_design(spec, t0=float(rng.uniform(-1, 1)), steps=60,
                               minimize=both)
    assert len(calls) == 4 * (n - 1)  # one refinement per instant after t0


@pytest.mark.parametrize("func, lo, hi", [
    (lambda x: x, 1.0, 2.0),                       # minimum at the lower bound
    (lambda x: -x, -3.0, 0.5),                     # minimum at the upper bound
    (lambda x: (x - 2.0) ** 2, 0.0, 2.0),
    (lambda x: 0.0, 0.0, 1.0),                     # flat
    (lambda x: math.cos(3.0 * x) + 0.1 * x, -4.0, 7.0),
    (lambda x: abs(x - 0.3), -1.0, 1.0),
    # plateaus, as where overflowing candidates all score 0: ties in f and x
    (lambda x: float(math.floor(4.0 * abs(x - 1.03181761176121))), 0.0, 1.0),
    (lambda x: -float(abs(x + 1.3223015756101293) < 0.125), -2.0, 0.0),
])
def test_brent_matches_scipy_on_test_functions(func, lo, hi):
    ref = _brent_matches_scipy(func, lo, hi, 1e-10 * (1.0 + abs(hi)))
    assert ref.status == 0


def test_brent_matches_scipy_when_maxfun_runs_out():
    calls = []

    def func(x):
        calls.append(x)
        return math.sin(5.0 * x) + 0.05 * x * x

    ref = _brent_matches_scipy(func, -3.0, 4.0, 1e-12, maxfun=6)
    assert ref.status == 1 and ref.nfev == 6
    assert len(calls) == 12   # six evaluations by each minimizer
