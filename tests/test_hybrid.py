"""Hybrid flows: event localization, dwell times, energy accounting."""

import dataclasses
import json
import math
import warnings

import numpy as np
import pytest

import _reference as ref
from hbreset.discrete import switching_beta
import hbreset.hybrid
from hbreset.hybrid import (BLOCK, ILLINOIS_LEAD, HybridParams, HybridState, _SkipAhead,
                            _accel, _damping, _jumps, _locate, _rk4, default_dwell, energy,
                            in_flow_set, in_jump_set, integrate_hb, integrate_hhb,
                            integrate_hihb, jump_map)
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
    # the pair (K, K) makes no per-stage damping check: hihb gives hb's
    # arrays bit for bit with hb's oracle calls
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
    # curvature 1e6 at step 1e-2 is past RK4's stability limit, so the hb
    # and hihb arcs overflow (hhb's resets land on the minimizer first); they
    # raise rather than return NaN samples, on the skip-ahead (a model with
    # a Hessian) and on the stage path. Warnings are ignored, as a process
    # that does not turn them into errors ignores them.
    z0 = HybridState(q=np.ones(1), p=np.zeros(1))
    stiff = scalar_model(1e6)
    for model in (stiff, dataclasses.replace(stiff, hessian=None)):
        for par in (HybridParams(step=1e-2), HybridParams(K_lo=0.5, K_hi=2.0, step=1e-2)):
            for integrate in (integrate_hb, integrate_hihb):
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    with pytest.raises(FloatingPointError, match="non-finite gradient"):
                        integrate(model, par, z0, 20.0)


def test_hihb_four_oracle_calls_per_step():
    _, base = gen_random_quadratic(3, 10.0, 2)
    calls = []

    def value_grad(q):
        calls.append("value_grad")
        return base.value_grad(q)

    def grad(q):
        calls.append("grad")
        return base.grad(q)

    # hessian=None: the stage path, which the skip-ahead of quadratics bypasses
    model = dataclasses.replace(base, value_grad=value_grad, grad=grad, hessian=None)
    calls.clear()
    par = HybridParams(K_lo=0.5, K_hi=2.0, step=1e-2)
    arc = integrate_hihb(model, par, HybridState(q=np.ones(3), p=np.zeros(3)), 1.0)
    steps = len(arc) - 1
    assert steps >= 99
    # three new RK4 stages per step, gradient-only, plus the end point,
    # which the next step's first stage and the energy sample share
    assert len(calls) == 4 * steps + 1
    assert calls.count("grad") == 3 * steps


def _two_path_cases():
    """(integrator, model, params, start, t_end): the criterion 10 arcs,
    the benchmark's n = 10 arcs, with hihb both switching and not, and
    n = 200 arcs. Built at collection; the largest model is one 200 x 200
    matrix."""
    osc = scalar_model(1.0)
    _, m2 = gen_random_quadratic(2, 30.0, 5)
    _, m3 = gen_random_quadratic(3, 50.0, 8)
    z2 = HybridState(q=np.random.default_rng(5).uniform(-3.0, 3.0, 2), p=np.zeros(2))
    z3 = HybridState(q=np.random.default_rng(8).uniform(-2.0, 2.0, 3), p=np.zeros(3))
    cases = [
        (integrate_hhb, osc, HybridParams(K=0.0, T_min=1e-3, step=1e-3),
         HybridState(q=np.array([1.0]), p=np.array([0.0])), 3.0),
        (integrate_hhb, m2, HybridParams(K=0.2, T_min=0.05, step=1e-3), z2, 20.0),
        (integrate_hhb, m3, HybridParams(K=0.5, T_min=0.02, step=1e-3), z3, 10.0),
        (integrate_hihb, m3, HybridParams(K=1.0, K_lo=0.5, K_hi=4.0, T_min=0.02,
                                          step=1e-3), z3, 10.0),
        (integrate_hb, m3, HybridParams(K=0.5, step=1e-3), z3, 10.0),
    ]
    for seed in (3, 7):
        _, m10 = gen_random_quadratic(10, 1e3, seed)
        z10 = HybridState(q=np.ones(10), p=np.zeros(10))
        T_min = default_dwell(m10.lipschitz)
        for integrate, par in ((integrate_hb, HybridParams(K=1.0, T_min=T_min)),
                               (integrate_hhb, HybridParams(K=1.0, T_min=T_min)),
                               (integrate_hihb, HybridParams(K_lo=1.0, K_hi=1.0, T_min=T_min)),
                               (integrate_hihb, HybridParams(K_lo=0.5, K_hi=2.0, T_min=T_min))):
            cases.append((integrate, m10, par, z10, 4.0))
    _, m200 = gen_random_quadratic(200, 1e3, 11)
    z200 = HybridState(q=np.ones(200), p=np.zeros(200))
    T_min = default_dwell(m200.lipschitz)
    cases += [(integrate_hhb, m200, HybridParams(K=1.0, T_min=T_min), z200, 0.5),
              (integrate_hihb, m200, HybridParams(K_lo=0.5, K_hi=2.0, T_min=T_min), z200, 0.5)]
    return cases


@pytest.mark.parametrize("integrate, model, par, z0, t_end", _two_path_cases())
def test_propagator_path_matches_stage_path(integrate, model, par, z0, t_end):
    # a model with a Hessian skips ahead through its event-free full steps;
    # without one every step takes the RK4 stages. Both step the same RK4
    # map, so they agree to round-off. Energy crosses zero on these arcs,
    # so differences are relative to each column's largest magnitude.
    assert model.hessian is not None
    fast = integrate(model, par, z0, t_end)
    ref = integrate(dataclasses.replace(model, hessian=None), par, z0, t_end)
    assert len(fast) == len(ref) and len(fast.jumps) == len(ref.jumps)
    np.testing.assert_array_equal(fast.j, ref.j)
    np.testing.assert_allclose([tj for tj, _, _ in fast.jumps],
                               [tj for tj, _, _ in ref.jumps], rtol=0, atol=1e-6)
    for got, want in ((fast.q, ref.q), (fast.p, ref.p), (fast.energy, ref.energy)):
        scale = max(1.0, float(np.max(np.abs(want))))
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-9 * scale)


@pytest.mark.parametrize("repeated", [False, True], ids=["distinct", "mu=L"])
@pytest.mark.parametrize("K", [0.0, 0.5, 4.0])
@pytest.mark.parametrize("n", [1, 2, 10, 50])
def test_modal_block_matches_dense_recursion(n, K, repeated):
    # a skip-ahead block steps each mode of H's eigenbasis on its own; the
    # dense RK4 propagator of the whole state gives the same rows. With
    # mu = L every vector is an eigenvector, and eigh may return any basis.
    rng = np.random.default_rng(n)
    if repeated:
        model = quadratic_model(QuadraticSpec(Q=30.0 * np.eye(n), b=rng.uniform(-1, 1, n)))
    elif n == 1:
        model = scalar_model(30.0)
    else:
        _, model = gen_random_quadratic(n, 100.0, n)
    h = 1e-2
    p, g = rng.standard_normal(n), rng.standard_normal(n)
    skip = _SkipAhead(model, HybridParams(K=K, step=h), 1.0, resets=False, pair=(K, K))
    dQ, dP = skip.steps(p, g, K, BLOCK)
    T, M = ref.propagator(model.hessian, K, h)
    w = M @ np.concatenate((p, -K * p - g))
    D = [w]
    for _ in range(BLOCK - 1):
        D.append(T @ D[-1] + w)
    D = np.array(D)
    np.testing.assert_allclose(np.hstack((dQ, dP)), D, rtol=0, atol=1e-12 * np.abs(D).max())


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
    # RK4's global error is O(dt^4): halving dt divides the arc's largest
    # error by about 16 (measured 16.002-16.022 on these cases). The band
    # 14-18 allows for the dt^5 term. The bound is on the error at the
    # finest dt relative to the arc's largest |q| or |p|, about 3x the
    # measured 1.4e-8, 3.2e-8 and 6.6e-8.
    spec, model = gen_random_quadratic(n, L, 4)
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


def _counting_rk4(run):
    """(run(), _rk4 calls, _rk4 rows) with `hybrid._rk4` counted: a stacked
    call steps len(q) rows."""
    calls = rows = 0

    def counting(q, *args):
        nonlocal calls, rows
        calls += 1
        rows += len(q) if np.ndim(q) == 2 else 1
        return _rk4(q, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hbreset.hybrid, "_rk4", counting)
        out = run()
    return out, calls, rows


@pytest.fixture(scope="module")
def bench_arcs():
    """{seed: ((samples, jumps, _rk4 calls, _rk4 rows) of the hhb arc, the
    same of the hihb arc)} at the simulate defaults: cond 1e3, K = K_lo =
    K_hi = 1, the default dwell, t_end 10, q0 all ones and p0 zero."""
    out = {}
    for seed in BENCH_ARC_COUNTS:
        _, model = gen_random_quadratic(10, 1e3, seed)
        par = HybridParams(K=1.0, T_min=default_dwell(model.lipschitz), step=1e-3)
        z0 = HybridState(q=np.ones(10), p=np.zeros(10))
        arcs = []
        for integrate in (integrate_hhb, integrate_hihb):
            arc, calls, rows = _counting_rk4(lambda: integrate(model, par, z0, 10.0))
            arcs.append((len(arc), len(arc.jumps), calls, rows))
        out[seed] = tuple(arcs)
    return out


def test_bench_arc_counts_are_pinned(bench_arcs):
    got = {seed: tuple(arc[:2] for arc in arcs) for seed, arcs in bench_arcs.items()}
    assert got == BENCH_ARC_COUNTS


def test_bench_hhb_arcs_locate_their_jumps_in_few_rk4_steps(bench_arcs):
    # every stage-path step of the 16 hhb arcs, one _rk4 call each: the
    # step that meets a jump and its locator's steps (1,508 calls for
    # 188 jumps, about 8 a jump; bisection alone took 4,716, 25 a jump)
    hhb = [arcs[0] for arcs in bench_arcs.values()]
    assert sum(jumps for _, jumps, _, _ in hhb) == 188
    assert all(calls == rows for _, _, calls, rows in hhb)
    assert sum(calls for _, _, calls, _ in hhb) <= 1700


def test_hihb_damping_switch_rk4_rows_are_pinned(bench_arcs):
    # at an equal pair hihb skips ahead with no damping check (one _rk4
    # row, the short last step); at (0.5, 2) every skip-ahead block also
    # steps its rows through the stage path, stacked, to find a damping
    # change. The bench never runs the switch, so its cost is pinned here.
    for seed, want in ((0, 42801), (11, 41516)):
        assert bench_arcs[seed][1][3] == 1
        _, model = gen_random_quadratic(10, 1e3, seed)
        par = HybridParams(K_lo=0.5, K_hi=2.0, T_min=default_dwell(model.lipschitz), step=1e-3)
        z0 = HybridState(q=np.ones(10), p=np.zeros(10))
        arc, _, rows = _counting_rk4(lambda: integrate_hihb(model, par, z0, 10.0))
        assert (len(arc), rows) == (10002, want)


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
    """(model, params, accel, q, p, g, tau, dt, end) of one hhb step of
    the undamped unit oscillator whose end `end` = (q, p, phi, g) is in
    the jump set. "crossing" starts 0.4 dt before the exact arc crosses
    the minimizer at pi/2, its timer long elapsed, so <grad phi, p>
    changes sign inside the step; "triple" is that step with the value
    oracle's gradient cubed (times 1e9), so <grad phi, p> has a triple
    root there; "timer" starts ascending, <grad phi, p> = 0.5, and its
    timer reaches T_min 0.37 dt into the step."""
    model, dt = scalar_model(1.0), 1e-3
    if kind == "triple":
        def value_grad(q):
            phi, g = scalar_model(1.0).value_grad(q)
            return phi, 1e9 * g ** 3

        model = dataclasses.replace(model, value_grad=value_grad)
    if kind != "timer":
        t0 = math.pi / 2.0 - 0.4 * dt
        par = HybridParams(K=0.0, T_min=1e-3, step=dt)
        q, p, tau = np.array([math.cos(t0)]), np.array([-math.sin(t0)]), 1.0
    else:
        par = HybridParams(K=0.0, T_min=0.1, step=dt)
        q, p, tau = np.array([1.0]), np.array([0.5]), 0.1 - 0.37 * dt
    accel = _accel((par.K, par.K), par.event_tol)
    g = model.gradient(q)
    q1, p1 = _rk4(q, p, g, dt, model, accel)
    phi1, g1 = model.value_grad(q1)
    return model, par, accel, q, p, g, tau, dt, (q1, p1, phi1, g1)


# the locator's RK4 steps, where bisection takes 24: at the triple root,
# where regula falsi is slow, the lead bound holds it to 28
@pytest.mark.parametrize("kind, most", [("crossing", 10), ("timer", 10),
                                        ("triple", 24 + ILLINOIS_LEAD + 2)])
def test_locator_finds_the_bisection_point_bit_for_bit(kind, most):
    model, par, accel, q, p, g, tau, dt, end = step = _event_step(kind)
    assert _jumps(float(np.dot(end[3], end[1])), tau + dt, par)
    if kind == "timer":
        assert float(np.dot(g, p)) > 0.0 and tau < par.T_min
    want_lo, want_hi, want = ref.bisect_event(*step)
    (lo, hi, got), calls, _ = _counting_rk4(lambda: _locate(*step))
    assert (lo, hi) == (want_lo, want_hi)
    for x, y in zip(got, want):
        assert np.asarray(x).tobytes() == np.asarray(y).tobytes()
    # the jump set entered at hi, within event_tol, and not at lo
    q_lo, p_lo = _rk4(q, p, g, lo, model, accel)
    assert not _jumps(float(np.dot(model.gradient(q_lo), p_lo)), tau + lo, par)
    assert _jumps(float(np.dot(got[3], got[1])), tau + hi, par)
    assert 0.0 < hi - lo <= par.event_tol
    assert calls <= most


def test_event_localization_raises_when_out_of_bisections(monkeypatch):
    # a 1e-3 step takes 24 halvings down to event_tol 1e-10, found narrow
    # enough on a 25th pass, so a budget of 24 fails an hhb arc
    monkeypatch.setattr(hbreset.hybrid, "MAX_EVENT_BISECTIONS", 24)
    par = HybridParams(K=0.0, T_min=1e-3, step=1e-3)
    with pytest.raises(RuntimeError, match="did not converge in 24 bisections"):
        integrate_hhb(scalar_model(1.0), par, HybridState(q=np.ones(1), p=np.zeros(1)), 3.0)
    # the budget bounds the locator's RK4 steps too: at the triple root
    # they outrun 25 halvings, and with no lead bound they outrun 100
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
    # the stage path does, and as bisection does
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


def test_arc_csv_matches_per_value_formatting(tmp_path):
    # csv17 formats whole chunks of values in numpy, and j as a float; it
    # must give the bytes of formatting each numpy scalar on its own
    _, model = gen_random_quadratic(2, 20.0, 12)
    par = HybridParams(K=0.3, T_min=0.05, step=1e-3)
    z0 = HybridState(q=np.array([1.0, -0.5]), p=np.zeros(2))
    arc = integrate_hhb(model, par, z0, 5.0)
    assert len(arc.jumps) >= 2 and len(arc) > 2048  # spans many csv17 chunks
    path = tmp_path / "arc.csv"
    arc.to_csv(path)
    lines = ["t,j,q0,q1,p0,p1,tau,energy"]
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


def test_final_state_round_trip():
    model = scalar_model(3.0)
    par = HybridParams(K=0.8, T_min=0.05, step=1e-3)
    arc = integrate_hhb(model, par, HybridState(q=np.array([2.0]), p=np.zeros(1)), 2.0)
    fin = arc.final_state()
    cont = integrate_hhb(model, par, fin, 2.0)
    assert energy(fin, model) == pytest.approx(float(arc.energy[-1]), rel=1e-12)
    assert cont.energy[-1] <= arc.energy[-1] * (1 + 1e-9)
