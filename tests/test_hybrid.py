"""Hybrid flows: event localization, dwell times, energy accounting."""

import dataclasses
import json
import math
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest
from scipy.optimize import brentq

import _reference as ref
from hbreset.discrete import switching_beta
import hbreset.hybrid
from hbreset.hybrid import (BLOCK, ILLINOIS_LEAD, MAX_EVENT_BISECTIONS, HybridParams,
                            HybridState, _damping, _jumps, _locate, _modal_coeffs, _ModalFlow,
                            _rk4, default_dwell, energy, in_flow_set, in_jump_set,
                            integrate_hb, integrate_hhb, integrate_hihb, jump_map)
from hbreset.objectives import QuadraticSpec, gen_random_quadratic, quadratic_model


def scalar_model(curv=1.0):
    return quadratic_model(QuadraticSpec(Q=np.array([[curv]]), b=np.zeros(1)))


def test_params_validation():
    with pytest.raises(ValueError):
        HybridParams(K_lo=2.0, K_hi=1.0)
    for bad in ({"K_lo": -1e-3}, {"K": -1e-3}):
        with pytest.raises(ValueError):
            HybridParams(**bad)
    with pytest.raises(ValueError):
        HybridParams(T_min=0.0)
    for name in ("K", "K_lo", "K_hi", "T_min", "step", "event_tol"):
        with pytest.raises(ValueError):
            HybridParams(**{name: math.nan})
    with pytest.raises(ValueError):
        HybridParams(K_hi=math.inf)
    HybridParams(K=0.0)  # undamped hb/hhb runs stay legal
    HybridParams(K_lo=0.0)  # so does an undamped hihb aligned end
    for tau in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="tau"):
            HybridState(q=np.zeros(1), p=np.zeros(1), tau=tau)
    for q, p in ((np.zeros(2), np.zeros(3)), (np.zeros((2, 2)), np.zeros((2, 2))),
                 (np.array([math.nan]), np.zeros(1)), (np.zeros(1), np.array([math.inf]))):
        with pytest.raises(ValueError, match="q and p"):
            HybridState(q=q, p=p)
    z0 = HybridState(q=np.ones(1), p=np.zeros(1))
    for integrate in (integrate_hb, integrate_hhb, integrate_hihb):
        for t_end in (math.nan, math.inf, 0.0, -1.0):
            with pytest.raises(ValueError, match="t_end"):
                integrate(scalar_model(), HybridParams(), z0, t_end)


def test_one_switching_law_for_resets_jumps_and_damping():
    # switching_beta's reset branch, the jump set (timer elapsed) and the
    # damping switch all read `discrete.aligned`; the damping switch with
    # band event_tol. Rows: inner, aligned, aligned by more than event_tol.
    par = HybridParams(K_lo=0.5, K_hi=2.0)
    tol = par.event_tol
    table = [(-1.0, True, True), (-1e-300, True, False), (-0.0, False, False),
             (0.0, False, False), (1.0, False, False), (math.nan, False, False),
             (-math.inf, True, True), (math.inf, False, False), (-tol, True, False),
             (np.nextafter(-tol, -math.inf), True, True), (np.nextafter(-tol, 0.0), True, False)]
    inner = np.array([row[0] for row in table])
    kept = np.array([row[1] for row in table])
    low = np.where([row[2] for row in table], 0.5, 2.0)
    for x, want_kept, want_low in zip(inner.tolist() + [inner], kept.tolist() + [kept],
                                      low.tolist() + [low]):
        # each entry as a float, as the stage path reads it, then the array
        _, reset = switching_beta(x, 0.2, 0.9)
        np.testing.assert_array_equal(reset, ~np.asarray(want_kept))
        np.testing.assert_array_equal(_jumps(x, par.T_min, par), ~np.asarray(want_kept))
        np.testing.assert_array_equal(_jumps(x, 0.5 * par.T_min, par), False)
        np.testing.assert_array_equal(_damping(x, (par.K_lo, par.K_hi), tol), want_low)


def test_hihb_with_an_equal_pair_is_hb():
    # the pair (K, K) never switches: hihb gives hb's arrays bit for bit
    # with hb's oracle calls
    _, base = gen_random_quadratic(10, 1e3, 3)
    calls = []

    def value_grad(q):
        calls.append(np.shape(q))
        return base.value_grad(q)

    def grad(q):
        calls.append(("grad", np.shape(q)))
        return base.grad(q)

    model = dataclasses.replace(base, value_grad=value_grad, grad=grad)
    par = HybridParams(K=1.0, K_lo=1.0, K_hi=1.0, T_min=default_dwell(base.lipschitz))
    z0 = HybridState(q=np.ones(10), p=np.zeros(10))
    runs = []
    for integrate in (integrate_hb, integrate_hihb):
        calls.clear()
        runs.append((integrate(model, par, z0, 4.0), list(calls)))
    (hb, hb_calls), (hihb, hihb_calls) = runs
    for name in ("t", "j", "q", "p", "tau", "energy"):
        np.testing.assert_array_equal(getattr(hihb, name), getattr(hb, name))
    assert hihb_calls == hb_calls


def test_non_finite_arc_raises():
    # a gradient oracle that turns NaN once q drops below 0.5: the arcs
    # raise rather than return NaN samples, on the modal flow (a model with
    # a Hessian, whose exact flow cannot overflow) and on the stage path
    base = scalar_model(1.0)

    def value_grad(q):
        phi, g = base.value_grad(q)
        return phi, np.where(q < 0.5, np.nan, g)

    def grad(q):
        return np.where(q < 0.5, np.nan, base.grad(q))

    faulty = dataclasses.replace(base, value_grad=value_grad, grad=grad)
    z0 = HybridState(q=np.ones(1), p=np.zeros(1))
    for model in (faulty, dataclasses.replace(faulty, hessian=None)):
        for par in (HybridParams(step=1e-2), HybridParams(K_lo=0.5, K_hi=2.0, step=1e-2)):
            for integrate in (integrate_hb, integrate_hhb, integrate_hihb):
                with pytest.raises(FloatingPointError, match="non-finite gradient"):
                    integrate(model, par, z0, 20.0)


def _counting(run):
    """(run(), _rk4 calls, located events) with `hybrid._rk4` and
    `hybrid._locate` counted. Each located event is (step, clock, dt, hi,
    points): the step function (step(0) is the step's start), the timer
    reading at the start, the step length, the located hi, and the points
    the locator evaluated."""
    rk4, events = 0, []

    def counting_rk4(*args):
        nonlocal rk4
        rk4 += 1
        return _rk4(*args)

    def counting_locate(model, params, step, event, clock, edge, f0, dt, end):
        points = 0

        def counted(s):
            nonlocal points
            points += 1
            return step(s)

        out = _locate(model, params, counted, event, clock, edge, f0, dt, end)
        events.append((step, clock, dt, out[1], points))
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hbreset.hybrid, "_rk4", counting_rk4)
        mp.setattr(hbreset.hybrid, "_locate", counting_locate)
        out = run()
    return out, rk4, events


def test_hihb_four_oracle_calls_per_step():
    _, base = gen_random_quadratic(3, 10.0, 2)
    calls = []

    def value_grad(q):
        calls.append("value_grad")
        return base.value_grad(q)

    def grad(q):
        calls.append("grad")
        return base.grad(q)

    # hessian=None: the stage path, RK4 under one damping a step
    model = dataclasses.replace(base, value_grad=value_grad, grad=grad, hessian=None)
    calls.clear()
    par = HybridParams(K_lo=0.5, K_hi=2.0, step=1e-2)
    arc, _, events = _counting(
        lambda: integrate_hihb(model, par, HybridState(q=np.ones(3), p=np.zeros(3)), 1.0))
    steps = len(arc) - 1
    assert steps >= 99 and len(events) >= 1
    # each step: three new RK4 stages, gradient-only, plus the end point,
    # which the next step's first stage and the energy sample share; each
    # switch: the same four at every point its locator evaluates, and for
    # the rest of the step under the other damping
    points = sum(ev[-1] for ev in events)
    assert len(calls) == 4 * (steps + points + len(events)) + 1
    assert calls.count("grad") == 3 * (steps + points + len(events))


def _flow_cases():
    """(integrator, spec, params, start, t_end): the criterion 10 arcs,
    the benchmark's n = 10 arcs, with hihb both switching and not, and
    n = 200 arcs. Built at collection; the largest model is one 200 x 200
    matrix."""
    osc = QuadraticSpec(Q=np.array([[1.0]]), b=np.zeros(1))
    s2, _ = gen_random_quadratic(2, 30.0, 5)
    s3, _ = gen_random_quadratic(3, 50.0, 8)
    z2 = HybridState(q=np.random.default_rng(5).uniform(-3.0, 3.0, 2), p=np.zeros(2))
    z3 = HybridState(q=np.random.default_rng(8).uniform(-2.0, 2.0, 3), p=np.zeros(3))
    cases = [
        (integrate_hhb, osc, HybridParams(K=0.0, T_min=1e-3, step=1e-3),
         HybridState(q=np.array([1.0]), p=np.array([0.0])), 3.0),
        (integrate_hhb, s2, HybridParams(K=0.2, T_min=0.05, step=1e-3), z2, 20.0),
        (integrate_hhb, s3, HybridParams(K=0.5, T_min=0.02, step=1e-3), z3, 10.0),
        (integrate_hihb, s3, HybridParams(K=1.0, K_lo=0.5, K_hi=4.0, T_min=0.02,
                                          step=1e-3), z3, 10.0),
        (integrate_hb, s3, HybridParams(K=0.5, step=1e-3), z3, 10.0),
    ]
    for seed in (3, 7):
        s10, m10 = gen_random_quadratic(10, 1e3, seed)
        z10 = HybridState(q=np.ones(10), p=np.zeros(10))
        T_min = default_dwell(m10.lipschitz)
        for integrate, par in ((integrate_hb, HybridParams(K=1.0, T_min=T_min)),
                               (integrate_hhb, HybridParams(K=1.0, T_min=T_min)),
                               (integrate_hihb, HybridParams(K_lo=1.0, K_hi=1.0, T_min=T_min)),
                               (integrate_hihb, HybridParams(K_lo=0.5, K_hi=2.0, T_min=T_min))):
            cases.append((integrate, s10, par, z10, 4.0))
    s200, m200 = gen_random_quadratic(200, 1e3, 11)
    z200 = HybridState(q=np.ones(200), p=np.zeros(200))
    T_min = default_dwell(m200.lipschitz)
    cases += [(integrate_hhb, s200, HybridParams(K=1.0, T_min=T_min), z200, 0.5),
              (integrate_hihb, s200, HybridParams(K_lo=0.5, K_hi=2.0, T_min=T_min), z200, 0.5)]
    return cases


def _pair(integrate, par: HybridParams) -> tuple:
    return (par.K_lo, par.K_hi) if integrate is integrate_hihb else (par.K, par.K)


@pytest.mark.parametrize("integrate, spec, par, z0, t_end",
                         [case for case in _flow_cases() if len(set(_pair(case[0], case[2]))) == 1])
def test_hessian_path_matches_exact_arc(integrate, spec, par, z0, t_end):
    # a model with a Hessian flows by each mode's closed form, so its arc
    # is the flow's to round-off: the largest error on these arcs, against
    # exact_arc from each flow interval's first sample, is 1.4e-12 of the
    # arc's largest |q| or |p| (2.6e-14 at n = 200 over 0.5). Switching hihb
    # arcs are checked at their switches (below) and by
    # test_hihb_arc_does_not_depend_on_the_step.
    pair = _pair(integrate, par)
    arc = integrate(quadratic_model(spec), par, z0, t_end)
    scale = max(np.abs(arc.q).max(), np.abs(arc.p).max())
    for j in np.unique(arc.j):
        idx = np.flatnonzero(arc.j == j)
        t0 = arc.t[idx[0]]
        q, p = exact_arc(spec, pair[0], arc.q[idx[0]], arc.p[idx[0]], arc.t[idx] - t0)
        err = max(np.abs(arc.q[idx] - q).max(), np.abs(arc.p[idx] - p).max())
        assert err <= 5e-12 * scale, (j, err / scale)


def _exact_event(spec, par, pair, step, clock, dt):
    """The time, from the start step(0) = (q, p) of a step with timer reading
    clock, of the step's first event on the closed-form flow: the root, by
    scipy.optimize.brentq, of <grad phi, p> (a jump, with the timer past
    T_min), or of <grad phi, p> + event_tol (a damping switch, at the end
    of the aligned band)."""
    q0, p0 = step(0.0)
    g0 = spec.Q @ q0 + spec.b
    K = float(_damping(np.dot(g0, p0), pair, par.event_tol))

    def inner(s):
        q, p = exact_arc(spec, K, q0, p0, [s])
        return float(np.dot(spec.Q @ q[0] + spec.b, p[0]))

    lo, shift = 0.0, par.event_tol
    if math.isfinite(clock):
        lo, shift = max(0.0, par.T_min - clock), 0.0
        if inner(lo) >= 0.0:
            return lo
    return brentq(lambda s: inner(s) + shift, lo, dt, xtol=1e-18, rtol=4 * np.finfo(float).eps)


@pytest.mark.parametrize("integrate, spec, par, z0, t_end",
                         [case for case in _flow_cases() if (
                             case[0] is integrate_hhb or len(set(_pair(case[0], case[2]))) == 2)])
def test_event_times_match_the_closed_form_roots(integrate, spec, par, z0, t_end):
    # every located jump and damping switch lies within event_tol after
    # the root of the closed-form <grad phi, p> in its step (measured
    # 3.6e-13 to 6.0e-11 after it on these arcs)
    _, _, events = _counting(lambda: integrate(quadratic_model(spec), par, z0, t_end))
    assert events
    pair = _pair(integrate, par)
    for step, clock, dt, hi, _ in events:
        root = _exact_event(spec, par, pair, step, clock, dt)
        assert -1e-14 <= hi - root <= par.event_tol + 1e-14, (hi, root)


def _dense_case(kind: str, n: int):
    """(H, K) for the dense comparison: a random Hessian, one with mu = L
    (every vector an eigenvector, and eigh may return any basis), one
    with a mode critically damped at K = 4 (K^2 = 4 lam), and one with a
    zero eigenvalue."""
    rng = np.random.default_rng(n)
    V = np.linalg.qr(rng.standard_normal((n, n)))[0]
    lam = {"distinct": np.linspace(1.0, 100.0, n), "mu=L": np.full(n, 30.0),
           "critical": np.linspace(4.0, 100.0, n), "lam=0": np.linspace(0.0, 100.0, n)}[kind]
    return (V * lam) @ V.T


@pytest.mark.parametrize("kind", ["distinct", "mu=L", "critical", "lam=0"])
@pytest.mark.parametrize("K", [0.0, 0.5, 4.0])
@pytest.mark.parametrize("n", [1, 2, 10, 50])
def test_modal_block_matches_dense_recursion(n, K, kind):
    # a skip-ahead block moves each mode of H's eigenbasis on its own; the
    # dense exact flow of the whole state (scipy's expm) gives the same
    # rows: the displacement after i + 1 steps is D_i = Phi(h) f0 + exp(hA)
    # D_{i-1}, from f0 = (p, -K p - g) (measured within 1.1e-14 of the
    # largest)
    H = _dense_case(kind, n)
    h = 1e-2
    rng = np.random.default_rng(n + 1)
    p, g = rng.standard_normal(n), rng.standard_normal(n)
    # the modal flow reads only the Hessian of its model here
    flow = _ModalFlow(SimpleNamespace(hessian=H), HybridParams(K=K, step=h), 1.0, resets=False)
    dQ, P = flow._states(np.zeros(n), p, g, K)(*flow._coeffs(K)[1])
    dP = P - p
    T, Phi = ref.propagator(H, K, h)
    w = Phi @ np.concatenate((p, -K * p - g))
    D = [w]
    for _ in range(BLOCK - 1):
        D.append(T @ D[-1] + w)
    D = np.array(D)
    np.testing.assert_allclose(np.hstack((dQ, dP)), D, rtol=0, atol=1e-12 * np.abs(D).max())


@pytest.mark.parametrize("lam, K, t", [(0.0, 1.0, 1e-3), (0.0, 1e-3, 1e-3),
                                       (1e-20, 1e-9, 1e-3)])
def test_slow_stiff_mode_integral_matches_mpmath(lam, K, t):
    # C = (E(r1) - E(r2))/(r1 - r2), E(r) = (e^{rt} - 1)/r, in 60 digits; in
    # doubles that difference cancels to eps/(Kt) (3.3e-4 relative at the
    # last point), which the Taylor series of C avoids
    mpmath.mp.dps = 60
    m = -mpmath.mpf(K) / 2
    d = mpmath.sqrt(m * m - mpmath.mpf(lam))
    E = [mpmath.mpf(t) if r == 0 else mpmath.expm1(r * t) / r for r in (m + d, m - d)]
    want = (E[0] - E[1]) / (2 * d)
    C = _modal_coeffs(np.array([lam]), K)(t)[1][0]
    assert abs((C - want) / want) <= 1e-14


def exact_arc(spec: QuadraticSpec, K: float, q0, p0, t):
    """(q, p) at times t of the flow q'' = -grad phi(q) - K q' on the
    quadratic spec, from each mode's closed-form 2x2 exponential.

    With H = V diag(lam) V', the mode (e, v) = (V'(q - q*), V'p) solves
    z' = A z, A = [[0, 1], [-lam, -K]], so z(t) = exp(tA) z(0) and, with
    m = -K/2 and d = sqrt(m^2 - lam) (complex when underdamped),
    exp(tA) = e^{mt} (cosh(dt) I + sinh(dt)/d (A - m I)).
    """
    lam, V = np.linalg.eigh(spec.Q)
    qstar = np.linalg.solve(spec.Q, -spec.b)
    e0, v0 = V.T @ (q0 - qstar), V.T @ p0
    m = -0.5 * K
    d = np.sqrt((m * m - lam).astype(complex))
    t = np.asarray(t)[:, None]
    ch = np.cosh(d * t).real
    sh = np.where(d == 0, t, np.sinh(d * t) / np.where(d == 0, 1.0, d)).real
    et = np.exp(m * t)
    e = et * (ch * e0 + sh * (v0 - m * e0))
    v = et * (ch * v0 + sh * (-lam * e0 - (K + m) * v0))
    return qstar + e @ V.T, v @ V.T


@pytest.mark.parametrize("n, L, K, dts, t_end, bound", [
    (3, 50.0, 0.5, (0.02, 0.01, 0.005), 5.0, 5e-8),
    (3, 50.0, 0.0, (0.02, 0.01, 0.005), 5.0, 1e-7),
    (10, 1e3, 1.0, (4e-3, 2e-3, 1e-3), 2.0, 2e-7),
])
def test_hb_arc_converges_to_exact_arc_at_fourth_order(n, L, K, dts, t_end, bound):
    # the stage path (a model with no Hessian) is RK4, whose global error
    # is O(dt^4): halving dt divides the arc's largest error by about 16
    # (measured 16.002-16.022 on these cases). The band 14-18 allows for
    # the dt^5 term. The bound is on the error at the finest dt relative to
    # the arc's largest |q| or |p|, about 3x the measured 1.4e-8, 3.2e-8
    # and 6.6e-8.
    spec, model = gen_random_quadratic(n, L, 4)
    model = dataclasses.replace(model, hessian=None)
    rng = np.random.default_rng(n)
    q0, p0 = rng.uniform(-2.0, 2.0, n), rng.uniform(-1.0, 1.0, n)
    errs = []
    for dt in dts:
        arc = integrate_hb(model, HybridParams(K=K, step=dt), HybridState(q=q0, p=p0), t_end)
        assert arc.t[-1] == pytest.approx(t_end)
        q, p = exact_arc(spec, K, q0, p0, arc.t)
        scale = max(np.abs(q).max(), np.abs(p).max())
        errs.append(max(np.abs(arc.q - q).max(), np.abs(arc.p - p).max()) / scale)
    ratios = np.array(errs[:-1]) / np.array(errs[1:])
    assert np.all((14.0 < ratios) & (ratios < 18.0)), (errs, ratios)
    assert errs[-1] < bound, errs


# (samples, jumps) of the hhb and hihb arcs of the benchmark's hybrid
# workload, `simulate --model gen --n 10 --dt 1e-3` at CLI seeds 0-15,
# as bench/reference.json records them. The benchmark checks one seed
# per run; this table checks all of them, so a round-off change that
# flips an event on any seed shows here.
BENCH_ARC_COUNTS = {
    0: ((10020, 12), (10002, 0)),
    1: ((10025, 15), (10002, 0)),
    2: ((10021, 12), (10002, 0)),
    3: ((10014, 8), (10002, 0)),
    4: ((10023, 15), (10002, 0)),
    5: ((10023, 14), (10002, 0)),
    6: ((10024, 14), (10002, 0)),
    7: ((10025, 14), (10002, 0)),
    8: ((10015, 9), (10002, 0)),
    9: ((10013, 8), (10002, 0)),
    10: ((10016, 10), (10002, 0)),
    11: ((10021, 12), (10002, 0)),
    12: ((10012, 7), (10002, 0)),
    13: ((10025, 14), (10002, 0)),
    14: ((10018, 12), (10002, 0)),
    15: ((10020, 12), (10002, 0)),
}


@pytest.fixture(scope="module")
def bench_arcs():
    """{seed: ((samples, jumps, _rk4 calls, located events) of the hhb arc,
    the same of the hihb arc)} at the simulate defaults: cond 1e3, K = K_lo
    = K_hi = 1, the default dwell, t_end 10, q0 all ones and p0 zero."""
    out = {}
    for seed in BENCH_ARC_COUNTS:
        _, model = gen_random_quadratic(10, 1e3, seed)
        par = HybridParams(K=1.0, T_min=default_dwell(model.lipschitz), step=1e-3)
        z0 = HybridState(q=np.ones(10), p=np.zeros(10))
        arcs = []
        for integrate in (integrate_hhb, integrate_hihb):
            arc, rk4, events = _counting(lambda: integrate(model, par, z0, 10.0))
            arcs.append((len(arc), len(arc.jumps), rk4, events))
        out[seed] = tuple(arcs)
    return out


def test_bench_arc_counts_are_pinned(bench_arcs):
    got = {seed: tuple(arc[:2] for arc in arcs) for seed, arcs in bench_arcs.items()}
    assert got == BENCH_ARC_COUNTS


def test_quadratic_arcs_make_no_rk4_call(bench_arcs):
    assert all(arc[2] == 0 for arcs in bench_arcs.values() for arc in arcs)


def test_bench_hhb_arcs_locate_their_jumps_in_few_point_flows(bench_arcs):
    # each of the 188 jumps of the 16 hhb arcs is one located event; its
    # locator evaluates 1,294 points of the exact flow in all, about 6.9 a
    # jump, where bisection evaluates 24
    hhb = [arcs[0] for arcs in bench_arcs.values()]
    assert sum(jumps for _, jumps, _, _ in hhb) == 188
    assert all(len(events) == jumps for _, jumps, _, events in hhb)
    assert sum(ev[-1] for _, _, _, events in hhb for ev in events) == 1294


def test_hihb_damping_switches_are_located_events(bench_arcs):
    # at an equal pair hihb never switches; at (0.5, 2) each sign change
    # of <grad phi, p> is one located switch, and the arc makes no _rk4
    # call. The bench never runs the switch, so its count is pinned here.
    for seed, want in ((0, 164), (11, 162)):
        assert bench_arcs[seed][1][3] == []
        _, model = gen_random_quadratic(10, 1e3, seed)
        par = HybridParams(K_lo=0.5, K_hi=2.0, T_min=default_dwell(model.lipschitz), step=1e-3)
        z0 = HybridState(q=np.ones(10), p=np.zeros(10))
        arc, rk4, events = _counting(lambda: integrate_hihb(model, par, z0, 10.0))
        assert (len(arc), rk4, len(events)) == (10002, 0, want)


def test_hihb_arc_does_not_depend_on_the_step():
    # every step flows under one damping and each switch is located inside
    # its step, so halving the step twice moves the final state by 9.1e-11
    # (its entries reach 45); RK4 with a damping switch at each stage moved
    # it by 0.042
    _, model = gen_random_quadratic(10, 1e3, 0)
    z0 = HybridState(q=np.random.default_rng(0).uniform(-1.0, 1.0, 10), p=np.zeros(10))
    ends = []
    for dt in (1e-3, 2.5e-4):
        arc = integrate_hihb(model, HybridParams(K_lo=0.5, K_hi=2.0, T_min=1e-3, step=dt),
                             z0, 2.0)
        ends.append(np.concatenate((arc.q[-1], arc.p[-1])))
    assert np.abs(ends[0] - ends[1]).max() <= 1e-9


def test_more_switches_in_a_step_than_the_budget_raise(monkeypatch):
    # a locator that reports each switch event_tol into its step, where
    # the damping has not changed, makes no progress; the step stops after
    # MAX_EVENT_BISECTIONS switches, on both propagators
    def stuck(model, params, step, event, clock, edge, f0, dt, end):
        q, p = step(params.event_tol)
        phi, g = model.value_grad(q)
        return 0.0, params.event_tol, (q, p, phi, g)

    monkeypatch.setattr(hbreset.hybrid, "_locate", stuck)
    _, model = gen_random_quadratic(3, 50.0, 9)
    par = HybridParams(K_lo=0.5, K_hi=4.0, step=1e-3)
    z0 = HybridState(q=np.random.default_rng(9).uniform(-2, 2, 3), p=np.zeros(3))
    for m in (model, dataclasses.replace(model, hessian=None)):
        with pytest.raises(RuntimeError,
                           match=f"more than {MAX_EVENT_BISECTIONS} damping switches"):
            integrate_hihb(m, par, z0, 10.0)


def test_default_dwell_scales_with_stiffness():
    assert default_dwell(4.0) == pytest.approx(1e-3 / 2.0)
    assert default_dwell(0.0) > 0.0


def test_flow_jump_set_boundary_overlap():
    model = scalar_model(1.0)
    par = HybridParams(K=1.0, T_min=0.5, step=1e-2)
    ascending = HybridState(q=np.array([1.0]), p=np.array([1.0]), tau=0.6)
    descending = HybridState(q=np.array([1.0]), p=np.array([-1.0]), tau=0.6)
    young = HybridState(q=np.array([1.0]), p=np.array([1.0]), tau=0.1)
    assert in_jump_set(ascending, par, model)
    assert not in_flow_set(ascending, par, model)
    assert in_flow_set(descending, par, model)
    assert not in_jump_set(descending, par, model)
    # timer not elapsed: must flow even while ascending
    assert in_flow_set(young, par, model)
    assert not in_jump_set(young, par, model)
    # closed-set overlap exactly at tau = T_min with <g,p> = 0
    edge = HybridState(q=np.array([1.0]), p=np.array([0.0]), tau=0.5)
    assert in_flow_set(edge, par, model)
    assert in_jump_set(edge, par, model)


def test_jump_map_zeroes_momentum_and_timer():
    st = HybridState(q=np.array([2.0]), p=np.array([-3.0]), tau=1.2)
    post = jump_map(st)
    np.testing.assert_array_equal(post.q, st.q)
    np.testing.assert_array_equal(post.p, np.zeros(1))
    assert post.tau == 0.0


def _damped_oscillator(q0, p0, K, w2, t):
    """Closed form for q'' + K q' + w2 q = 0 (underdamped branch)."""
    disc = K * K - 4.0 * w2
    assert disc < 0.0
    om = math.sqrt(-disc) / 2.0
    a = -K / 2.0
    # q(t) = e^{at}(c1 cos om t + c2 sin om t)
    c1 = q0
    c2 = (p0 - a * q0) / om
    e = math.exp(a * t)
    q = e * (c1 * math.cos(om * t) + c2 * math.sin(om * t))
    p = e * ((a * c1 + om * c2) * math.cos(om * t) +
             (a * c2 - om * c1) * math.sin(om * t))
    return q, p


def test_hb_matches_closed_form_oscillator():
    w2 = 4.0
    model = scalar_model(w2)
    # damped, and undamped (K = 0 with the default damping pair)
    for K, par in ((1.0, HybridParams(K=1.0, K_lo=1.0, K_hi=1.0, T_min=1.0, step=1e-3)),
                   (0.0, HybridParams(K=0.0, T_min=1.0, step=1e-3))):
        arc = integrate_hb(model, par, HybridState(q=np.array([1.0]), p=np.array([0.0])), 1.0)
        qT, pT = _damped_oscillator(1.0, 0.0, K, w2, 1.0)
        assert float(arc.q[-1][0]) == pytest.approx(qT, abs=1e-6)
        assert float(arc.p[-1][0]) == pytest.approx(pT, abs=1e-6)


def test_first_jump_at_quarter_period():
    # undamped unit oscillator from (1, 0): minimum crossing at t = pi/2,
    # located within event_tol (the jump lies 2.1e-11 from it)
    model = scalar_model(1.0)
    par = HybridParams(K=0.0, T_min=1e-3, step=1e-3)
    arc = integrate_hhb(model, par, HybridState(q=np.array([1.0]), p=np.array([0.0])), 3.0)
    assert len(arc.jumps) >= 1
    t_first = arc.jumps[0][0]
    assert abs(t_first - math.pi / 2.0) <= 2.0 * par.event_tol


def _event_step(kind: str):
    """The arguments (model, params, step, event, clock, edge, f0, dt, end)
    of `_locate` for one step of the unit oscillator on its exact flow
    whose end `end` = (q, p, phi, g) is in the event set. "crossing" is an
    undamped hhb step that starts 0.4 dt before the arc crosses the
    minimizer at pi/2, its timer long elapsed, so <grad phi, p> changes
    sign inside the step; "triple" is that step with the value oracle's
    gradient cubed (times 1e9), so <grad phi, p> has a triple root there;
    "timer" starts ascending, <grad phi, p> = 0.5, and its timer reaches
    T_min 0.37 dt into the step; "switch" is the crossing step of hihb at
    (0.5, 2), which leaves the aligned band and so K_lo."""
    model, dt = scalar_model(1.0), 1e-3
    if kind == "triple":
        def value_grad(q):
            phi, g = scalar_model(1.0).value_grad(q)
            return phi, 1e9 * g ** 3

        model = dataclasses.replace(model, value_grad=value_grad)
    par = HybridParams(K=0.0, K_lo=0.5, K_hi=2.0, T_min=1e-3, step=dt)
    if kind != "timer":
        t0 = math.pi / 2.0 - 0.4 * dt
        q, p, tau = np.array([math.cos(t0)]), np.array([-math.sin(t0)]), 1.0
    else:
        par = dataclasses.replace(par, T_min=0.1)
        q, p, tau = np.array([1.0]), np.array([0.5]), 0.1 - 0.37 * dt
    if kind == "switch":
        K, clock, edge = par.K_lo, math.inf, -par.event_tol

        def event(f, _):
            return _damping(f, (par.K_lo, par.K_hi), par.event_tol) != K
    else:
        K, clock, edge = par.K, tau, 0.0

        def event(f, c):
            return _jumps(f, c, par)
    g = model.gradient(q)
    step = _ModalFlow(model, par, 1.0, kind != "switch").step(q, p, g, K)
    q1, p1 = step(dt)
    phi1, g1 = model.value_grad(q1)
    return model, par, step, event, clock, edge, float(np.dot(g, p)), dt, (q1, p1, phi1, g1)


# the locator's points, where bisection evaluates 24: at the triple
# root, where regula falsi is slow, the lead bound holds it to 28
@pytest.mark.parametrize("kind, most", [("crossing", 10), ("timer", 10), ("switch", 10),
                                        ("triple", 24 + ILLINOIS_LEAD + 2)])
def test_locator_finds_the_bisection_point_bit_for_bit(kind, most):
    model, par, step, event, clock, edge, f0, dt, end = args = _event_step(kind)
    assert event(float(np.dot(end[3], end[1])), clock + dt)
    if kind == "timer":
        assert f0 > 0.0 and clock < par.T_min
    want_lo, want_hi, want = ref.bisect_event(*args)
    calls = 0

    def counted(s):
        nonlocal calls
        calls += 1
        return step(s)

    lo, hi, got = _locate(model, par, counted, event, clock, edge, f0, dt, end)
    assert (lo, hi) == (want_lo, want_hi)
    for x, y in zip(got, want):
        assert np.asarray(x).tobytes() == np.asarray(y).tobytes()
    # the event set entered at hi, within event_tol, and not at lo
    q_lo, p_lo = step(lo)
    assert not event(float(np.dot(model.gradient(q_lo), p_lo)), clock + lo)
    assert event(float(np.dot(got[3], got[1])), clock + hi)
    assert 0.0 < hi - lo <= par.event_tol
    assert calls <= most


def test_event_localization_raises_when_out_of_bisections(monkeypatch):
    # a 1e-3 step takes 24 halvings down to event_tol 1e-10, found narrow
    # enough on a 25th pass, so a budget of 24 fails an hhb arc
    monkeypatch.setattr(hbreset.hybrid, "MAX_EVENT_BISECTIONS", 24)
    par = HybridParams(K=0.0, T_min=1e-3, step=1e-3)
    with pytest.raises(RuntimeError, match="did not converge in 24 bisections"):
        integrate_hhb(scalar_model(1.0), par, HybridState(q=np.ones(1), p=np.zeros(1)), 3.0)
    # the budget bounds the locator's points too: at the triple root they
    # outrun 25 halvings, and with no lead bound they outrun 100
    step = _event_step("triple")
    monkeypatch.setattr(hbreset.hybrid, "MAX_EVENT_BISECTIONS", 25)
    with pytest.raises(RuntimeError, match="did not converge in 25 bisections"):
        _locate(*step)
    monkeypatch.setattr(hbreset.hybrid, "MAX_EVENT_BISECTIONS", 100)
    monkeypatch.setattr(hbreset.hybrid, "ILLINOIS_LEAD", 100)
    with pytest.raises(RuntimeError, match="did not converge in 100 bisections"):
        _locate(*step)


def test_locator_raises_on_a_non_finite_gradient_inside_the_step():
    # NaN gradients near the minimizer, which the crossing step's start
    # (q = 4e-4) and end (q = -6e-4) stay clear of: the locator raises as
    # an arc's step does, and as bisection does
    model, *rest = _event_step("crossing")

    def value_grad(x):
        phi, g = model.value_grad(x)
        return phi, np.where(np.abs(x) < 2e-4, np.nan, g)

    faulty = dataclasses.replace(model, value_grad=value_grad)
    for locate in (_locate, ref.bisect_event):
        with pytest.raises(FloatingPointError, match="non-finite gradient"):
            locate(faulty, *rest)


def test_immediate_jump_from_jump_set():
    model = scalar_model(1.0)
    par = HybridParams(K=1.0, T_min=0.1, step=1e-2)
    z0 = HybridState(q=np.array([1.0]), p=np.array([1.0]), tau=0.2)
    arc = integrate_hhb(model, par, z0, 0.5)
    assert arc.jumps[0][0] == 0.0
    assert int(arc.j[0]) == 0 and int(arc.j[1]) == 1
    assert arc.t[0] == arc.t[1]  # pre/post samples share the jump instant
    np.testing.assert_array_equal(arc.p[1], np.zeros(1))


def test_dwell_times_respect_timer():
    _, model = gen_random_quadratic(2, 30.0, 5)
    par = HybridParams(K=0.2, T_min=0.05, step=1e-3)
    rng = np.random.default_rng(5)
    z0 = HybridState(q=rng.uniform(-3, 3, 2), p=np.zeros(2))
    arc = integrate_hhb(model, par, z0, 20.0)
    assert len(arc.jumps) >= 2
    for dwell in arc.dwell_times():
        assert dwell >= par.T_min - 1e-9


def test_dwell_doubles_with_timer():
    _, model = gen_random_quadratic(2, 30.0, 5)
    rng = np.random.default_rng(5)
    z0 = HybridState(q=rng.uniform(-3, 3, 2), p=np.zeros(2))
    par2 = HybridParams(K=0.2, T_min=0.1, step=1e-3)
    arc2 = integrate_hhb(model, par2, z0, 20.0)
    for dwell in arc2.dwell_times():
        assert dwell >= par2.T_min - 1e-9


def test_energy_nonincreasing_hhb():
    _, model = gen_random_quadratic(3, 50.0, 8)
    par = HybridParams(K=0.5, T_min=0.02, step=1e-3)
    rng = np.random.default_rng(8)
    z0 = HybridState(q=rng.uniform(-2, 2, 3), p=np.zeros(3))
    arc = integrate_hhb(model, par, z0, 10.0)
    e = arc.energy
    assert float(np.max(np.diff(e))) <= 1e-8 * float(e[0])
    assert e[-1] < 1e-4 * e[0]


def test_energy_nonincreasing_hihb_and_no_jumps():
    _, model = gen_random_quadratic(3, 50.0, 9)
    par = HybridParams(K=1.0, K_lo=0.5, K_hi=4.0, T_min=0.02, step=1e-3)
    rng = np.random.default_rng(9)
    z0 = HybridState(q=rng.uniform(-2, 2, 3), p=np.zeros(3))
    arc = integrate_hihb(model, par, z0, 10.0)
    assert np.all(arc.j == 0)
    assert len(arc.jumps) == 0
    e = arc.energy
    assert float(np.max(np.diff(e))) <= 1e-8 * float(e[0])


def test_reset_beats_plain_flow_on_energy():
    # mistimed damping: the reset drains kinetic energy the flow keeps
    model = scalar_model(4.0)
    z0 = HybridState(q=np.array([1.0]), p=np.array([0.0]))
    par = HybridParams(K=0.05, K_lo=0.05, K_hi=0.05, T_min=1e-2, step=1e-3)
    hb = integrate_hb(model, par, z0, 12.0)
    hhb = integrate_hhb(model, par, z0, 12.0)
    assert hhb.energy[-1] < 1e-3 * hb.energy[-1]


def test_grad_stop_at_minimizer():
    model = scalar_model(2.0)
    par = HybridParams(K=1.0, T_min=0.1, step=1e-2)
    arc = integrate_hb(model, par, HybridState(q=np.zeros(1), p=np.zeros(1)), 5.0)
    assert arc.t[-1] < 5.0  # gradient stop fires immediately
    assert len(arc) <= 2


def test_arc_csv_and_jump_log(tmp_path):
    _, model = gen_random_quadratic(2, 20.0, 12)
    par = HybridParams(K=0.3, T_min=0.05, step=1e-3)
    rng = np.random.default_rng(12)
    z0 = HybridState(q=rng.uniform(-1, 1, 2), p=np.zeros(2))
    arc = integrate_hhb(model, par, z0, 5.0)
    f1 = tmp_path / "arc.csv"
    arc.to_csv(f1)
    lines = f1.read_text().splitlines()
    assert lines[0] == "t,j,q0,q1,p0,p1,tau,energy"
    assert len(lines) == len(arc) + 1
    arc2 = integrate_hhb(model, par, z0, 5.0)
    f2 = tmp_path / "arc2.csv"
    arc2.to_csv(f2)
    assert f1.read_bytes() == f2.read_bytes()
    log = json.loads(arc.jumps_json())
    assert len(log) == len(arc.jumps)
    if log:
        assert set(log[0]) == {"t", "j", "q"}


def check_arc_csv(tmp_path, n):
    # csv17 formats whole chunks of values in numpy, and j as a float; it
    # must give the bytes of formatting each numpy scalar on its own
    _, model = gen_random_quadratic(n, 20.0, 12)
    par = HybridParams(K=0.3, T_min=0.05, step=1e-3)
    z0 = HybridState(q=np.linspace(1.0, -0.5, n), p=np.zeros(n))
    arc = integrate_hhb(model, par, z0, 5.0)
    assert len(arc.jumps) >= 2 and len(arc) > 2048  # spans many csv17 chunks
    path = tmp_path / "arc.csv"
    arc.to_csv(path)
    lines = [",".join(["t", "j"] + [f"q{i}" for i in range(n)] + [f"p{i}" for i in range(n)]
                      + ["tau", "energy"])]
    for i in range(len(arc.t)):
        vals = [("%.17g" % arc.t[i]), str(int(arc.j[i]))]
        vals += ["%.17g" % v for v in arc.q[i]]
        vals += ["%.17g" % v for v in arc.p[i]]
        vals += ["%.17g" % arc.tau[i], "%.17g" % arc.energy[i]]
        lines.append(",".join(vals))
    got = path.read_text().split("\n")
    assert got[-1] == "" and len(got) == len(lines) + 1
    bad = [i for i, (a, b) in enumerate(zip(got, lines)) if a != b]
    assert not bad, (bad[0], got[bad[0]], lines[bad[0]])


def test_arc_csv_matches_per_value_formatting(tmp_path):
    check_arc_csv(tmp_path, 2)
    assert (tmp_path / "arc.csv").read_text().startswith("t,j,q0,q1,p0,p1,tau,energy\n")


def test_arc_csv_at_the_benchmark_width_matches_per_value_formatting(tmp_path):
    # n = 10 is the benchmark's width: 24 columns, 128 rows a csv17 chunk
    check_arc_csv(tmp_path, 10)


def test_final_state_round_trip():
    model = scalar_model(3.0)
    par = HybridParams(K=0.8, T_min=0.05, step=1e-3)
    arc = integrate_hhb(model, par, HybridState(q=np.array([2.0]), p=np.zeros(1)), 2.0)
    fin = arc.final_state()
    cont = integrate_hhb(model, par, fin, 2.0)
    assert energy(fin, model) == pytest.approx(float(arc.energy[-1]), rel=1e-12)
    assert cont.energy[-1] <= arc.energy[-1] * (1 + 1e-9)
