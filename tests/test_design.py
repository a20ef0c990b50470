import math

import numpy as np
import pytest

import nusample as ns
from nusample import design
from nusample.design import _minimize_bounded, export_geometry_csv, spiral_point
from nusample.errors import DesignError
import reference


def _angle_diff(x, y):
    d = (x - y) % (2 * math.pi)
    return min(d, 2 * math.pi - d)


# ---------------------------------------------------------------------------
# 2nd order closed form

def test_second_order_quarter_turn():
    res = ns.optimal_interval_second_order(a=0.0, b=1.0, t0=0.0, m=0)
    assert res.sequence.instants == pytest.approx((0.0, math.pi / 2))
    assert res.metric.min_principal_angle == pytest.approx(math.pi / 2)
    assert res.metric.normalized_gram_det == pytest.approx(1.0)


def test_second_order_branches():
    res = ns.optimal_interval_second_order(a=0.0, b=2.0, t0=1.0, m=1)
    assert res.sequence.instants == pytest.approx((1.0, 1.0 + 3 * math.pi / 4))
    assert res.branch_m == 1


def test_second_order_damped_still_orthogonal():
    # damping shrinks the vectors but not the quarter-turn angle
    res = ns.optimal_interval_second_order(a=-0.5, b=1.0)
    assert res.metric.min_principal_angle == pytest.approx(math.pi / 2, abs=1e-12)


def test_second_order_rejects_bad_b():
    with pytest.raises(DesignError):
        ns.optimal_interval_second_order(a=0.0, b=-1.0)


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
        got = design._spiral(spec, alphas)
        ref = np.array([reference.spiral_point(lam, a, b, t) for t in alphas])
        scale = np.max(np.abs(ref), axis=1, keepdims=True)
        assert np.all(np.abs(got - ref) <= 1e-15 * scale)
        assert np.array_equal(spiral_point(spec, alphas), got)


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
    spec = _third_order_spec(-1.0, -0.4, 1.0)
    res, trace = ns.next_instant_third_order(spec, 0.0, 2.0)
    Y0, Y1 = trace.vectors["Y0"], trace.vectors["Y1"]
    cross = np.cross(Y0, Y1)
    if cross[2] < 0:
        cross = -cross
    assert trace.projections["P2"] == pytest.approx(cross[:2])
    assert trace.q2 == pytest.approx(trace.mu * cross)
    # mu puts q2 on the surface z = (x^2+y^2)^(lambda/2a)
    r2 = np.hypot(*trace.q2[:2])
    assert trace.q2[2] == pytest.approx(r2 ** (2 * trace.surface_exponent), rel=1e-9)


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


# ---------------------------------------------------------------------------
# the bounded Brent refinement against scipy's

def _same_float(x, y):
    return float(x).hex() == float(y).hex()


def _brent_matches_scipy(func, lo, hi, xatol, maxfun=500):
    """Run both minimizers; assert the same x and f(x) bit for bit and return
    scipy's result."""
    from scipy.optimize import minimize_scalar
    x, fun = _minimize_bounded(func, lo, hi, xatol, maxfun)
    ref = minimize_scalar(func, bounds=(lo, hi), method="bounded",
                          options={"xatol": xatol, "maxiter": maxfun})
    assert _same_float(x, ref.x) and _same_float(fun, ref.fun), (x, fun, ref)
    return ref


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_brent_matches_scipy_on_design_objectives(monkeypatch, n):
    from conftest import random_minimal_spec
    calls = []

    def both(func, lo, hi, xatol, maxfun=500):
        calls.append(_brent_matches_scipy(func, lo, hi, xatol, maxfun).nfev)
        return _minimize_bounded(func, lo, hi, xatol, maxfun)

    monkeypatch.setattr(design, "_minimize_bounded", both)
    rng = np.random.default_rng(40 + n)
    for _ in range(4):
        spec = random_minimal_spec(rng, n)
        ns.design_sequence_generic(spec, t0=float(rng.uniform(-1, 1)), steps=60)
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
