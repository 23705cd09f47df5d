"""Certificate construction: matrix stacks, feasibility calls, bisection."""

import warnings

import numpy as np
import pytest

from hbreset.discrete import AlgoParams, IterState, Variant, initial_state, run, step
from hbreset.lmi import (NES, POL, Certificate, CertRequest, NoCertificate,
                         bisect_rate, bisect_rates, build_ct, build_dt, build_sector,
                         build_theorem2, certify_discrete, ct_alpha_builder,
                         ct_feasible, ct_problem, dt_feasible, dt_problem,
                         dt_rate_builder, dt_rates_probe, dt_system)
from hbreset.objectives import QuadraticSpec, gen_random_quadratic, quadratic_model
from hbreset.sdp import FEASIBLE, problem_to_json


def scalar_quad(c: float, q_star: float = 0.0):
    return quadratic_model(QuadraticSpec(Q=np.array([[c]]),
                                         b=np.array([-c * q_star])))


def replayed_pairs(model, params, q0, traj):
    """(q_{k-1}, q_k) at every iterate of traj, rebuilt with `step` from q0.

    The run keeps no iterates; the rebuilt ones must reproduce its
    recorded gaps and gradient norms bit for bit.
    """
    states = [initial_state(q0, params.eps)]
    for _ in range(traj.iterations):
        states.append(step(states[-1], params, model))
    assert [model.gap(s.q) for s in states] == traj.phi_gaps.tolist()
    assert ([float(np.linalg.norm(model.gradient(s.q))) for s in states]
            == traj.grad_norms.tolist())
    return [(s.q_prev, s.q) for s in states]


def switched_step(sys_mats, model, x):
    """One step of the switched matrix recursion at n=1.

    The branch is picked from the gradient at the main branch's
    evaluation point, which is the splitting the certificate covers; the
    running implementation tests the gradient at the position instead,
    and the two agree except on a thin sliver for the lookahead form.
    """
    main, reset = sys_mats.main, sys_mats.reset
    g_main = float(model.gradient(main.C @ x)[0])
    dq = x[1] - x[0]
    if g_main * dq < 0.0:
        br, u = main, g_main
    else:
        br = reset
        u = float(model.gradient(reset.C @ x)[0])
    x_next = br.A @ x + br.B[:, 0] * u
    return x_next, br, u


# ---------------------------------------------------------------------------
# sector matrix


def test_sector_matrix_values():
    m = build_sector(1.0, 1.0)
    np.testing.assert_allclose(m, [[-0.5, 0.5], [0.5, -0.5]], atol=1e-15)
    m = build_sector(1.0, 3.0)
    np.testing.assert_allclose(m, [[-0.75, 0.5], [0.5, -0.25]], atol=1e-15)
    m2 = build_sector(1.0, 3.0, n=2)
    assert m2.shape == (4, 4)
    np.testing.assert_allclose(m2[:2, :2], -0.75 * np.eye(2), atol=1e-15)
    np.testing.assert_allclose(m2[:2, 2:], 0.5 * np.eye(2), atol=1e-15)


def test_sector_matrix_validation():
    with pytest.raises(ValueError):
        build_sector(0.0, 1.0)
    with pytest.raises(ValueError):
        build_sector(2.0, 1.0)


def test_sector_form_nonnegative_on_matching_quadratic():
    mu, L = 1.0, 3.0
    _, model = gen_random_quadratic(2, L, 11)
    sec = build_sector(mu, L, n=2)
    rng = np.random.default_rng(12)
    for _ in range(1000):
        v, w = rng.uniform(-10.0, 10.0, (2, 2))
        z = np.concatenate([v - w, model.gradient(v) - model.gradient(w)])
        val = float(z @ sec @ z)
        assert val >= -1e-8 * (1.0 + z @ z)


# ---------------------------------------------------------------------------
# continuous time


def test_ct_system_matrices():
    data = build_ct(2.0, 1, 1.0, 10.0)
    np.testing.assert_allclose(data.A, [[0.0, 1.0], [0.0, -2.0]], atol=0)
    np.testing.assert_allclose(data.A_R, [[1.0, 0.0], [0.0, 0.0]], atol=0)
    np.testing.assert_allclose(data.B, [[0.0], [-1.0]], atol=0)
    np.testing.assert_allclose(data.C, [[1.0, 0.0]], atol=0)
    coupled = build_ct(2.0, 1, 1.0, 10.0, b_coupled=True)
    np.testing.assert_allclose(coupled.B, [[-1.0], [-1.0]], atol=0)
    with pytest.raises(ValueError):
        build_ct(0.0, 1, 1.0, 10.0)
    with pytest.raises(ValueError):
        build_ct(1.0, 2, 1.0, 10.0)
    for mat in (data.M_phi, data.M0, data.M_eps(1e-6)):
        assert mat.shape == (3, 3)
        np.testing.assert_allclose(mat, mat.T, atol=1e-14)


def test_ct_descent_identities():
    # e' M0 e = -p * grad, and the inflated form adds eps |x|^2
    data = build_ct(2.0, 1, 1.0, 10.0)
    rng = np.random.default_rng(3)
    eps = 1e-4
    for _ in range(1000):
        c = rng.uniform(1.0, 10.0)
        q, p = rng.uniform(-5.0, 5.0, 2)
        u = c * q
        e = np.array([q, p, u])
        scale = 1.0 + e @ e
        assert abs(e @ data.M0 @ e - (-p * u)) <= 1e-12 * scale
        want = -p * u + eps * (q * q + p * p)
        assert abs(e @ data.M_eps(eps) @ e - want) <= 1e-12 * scale


def test_ct_flow_jump_quadratic_forms():
    # flow form is the derivative of |x|_P^2 plus the 2 alpha P term along
    # xdot = A x + B u; jump form is the P-energy difference across a reset
    rng = np.random.default_rng(4)
    for coupled in (False, True):
        data = build_ct(1.5, 1, 1.0, 10.0, b_coupled=coupled)
        for _ in range(200):
            raw = rng.standard_normal((2, 2))
            P = raw @ raw.T + 0.1 * np.eye(2)
            alpha = rng.uniform(0.01, 1.0)
            x = rng.uniform(-3.0, 3.0, 2)
            u = rng.uniform(-3.0, 3.0)
            e = np.array([x[0], x[1], u])
            xdot = data.A @ x + data.B[:, 0] * u
            want = 2.0 * x @ P @ xdot + 2.0 * alpha * x @ P @ x
            got = e @ data.M_F(P, alpha) @ e
            assert abs(got - want) <= 1e-11 * (1.0 + abs(want))
            xr = data.A_R @ x
            want_j = xr @ P @ xr - x @ P @ x
            assert abs(e @ data.M_J(P) @ e - want_j) <= 1e-11 * (1.0 + abs(want_j))


def test_ct_standard_input_uncertifiable():
    # with the plain input matrix the flow/jump pair never certifies, from
    # tiny decay exponents through huge ones
    data = build_ct(2.0, 1, 1.0, 10.0)
    for alpha in (1e-6, 1e-2, 1.0, 100.0):
        status, cert = ct_feasible(data, alpha, 1e-6, max_oracle_calls=120,
                                   detail=True)
        assert status != FEASIBLE
        assert cert is None


def test_ct_coupled_input_feasible_band():
    data = build_ct(1.0, 1, 1.0, 2.0, b_coupled=True)
    cert = ct_feasible(data, 0.5, 1e-6)
    assert cert is not None
    assert cert.rate_kind == "alpha"
    eigs = np.linalg.eigvalsh(cert.P)
    assert eigs[0] > 0.0
    assert 0.0 < cert.rate <= 0.5
    assert cert.multipliers["sigma_phi"] >= 1e-9 * (1.0 - 1e-6)
    # beyond the band the same data is uncertifiable
    status, none_cert = ct_feasible(data, 1.5, 1e-6, detail=True)
    assert status != FEASIBLE and none_cert is None


def test_ct_coupled_max_exponent():
    builder = ct_alpha_builder(1.0, 1.0, 2.0, 1e-6, b_coupled=True)
    alpha, cert = bisect_rate(builder, 0.7, 1.1, iters=12, scan=False,
                              sense="max")
    assert abs(alpha - 0.8938) <= 5e-4
    assert cert.tuning["b_coupled"] is True
    assert 0.0 < cert.rate <= alpha


# ---------------------------------------------------------------------------
# discrete-time matrices


def test_two_step_branch_matrices():
    br = build_dt(0.1, 0.0, POL)
    np.testing.assert_allclose(br.A, [[0.0, 1.0], [0.0, 1.0]], atol=0)
    np.testing.assert_allclose(br.B, [[0.0], [-0.1]], atol=0)
    np.testing.assert_allclose(br.C, [[0.0, 1.0]], atol=0)
    np.testing.assert_allclose(br.E, [[0.0, 1.0]], atol=0)
    nes0 = build_dt(0.1, 0.0, NES)
    np.testing.assert_allclose(nes0.C, br.C, atol=0)
    nes = build_dt(0.1, 0.4, NES)
    np.testing.assert_allclose(nes.C, [[-0.4, 1.4]], atol=0)
    np.testing.assert_allclose(nes.A, [[0.0, 1.0], [-0.4, 1.4]], atol=0)


def test_two_step_branch_validation():
    with pytest.raises(ValueError):
        build_dt(0.0, 0.5, POL)
    with pytest.raises(ValueError):
        build_dt(0.1, 1.5, POL)
    with pytest.raises(ValueError):
        build_dt(0.1, 0.5, "euler")


def test_matrix_recursion_matches_step_functions():
    # x+ = A x + B grad(C x) reproduces the step functions elementwise
    # with the switching pinned (beta_lo = beta_hi)
    h, beta = 0.09, 0.4
    eps = np.sqrt(h)
    _, model = gen_random_quadratic(2, 10.0, 5)
    rng = np.random.default_rng(6)
    for disc, variant in ((POL, Variant.POL), (NES, Variant.NES)):
        br = build_dt(h, beta, disc)
        lift = {k: np.kron(getattr(br, k), np.eye(2)) for k in ("A", "B", "C")}
        params = AlgoParams.from_h(h, beta_lo=beta, beta_hi=beta, variant=variant)
        for _ in range(1000):
            q_prev, q = rng.uniform(-5.0, 5.0, (2, 2))
            x = np.concatenate([q_prev, q])
            x_next = lift["A"] @ x + lift["B"] @ model.gradient(lift["C"] @ x)
            state = IterState(q_prev=q_prev, q=q, p=(q - q_prev) / eps)
            out = step(state, params, model)
            np.testing.assert_allclose(out.q, x_next[2:], atol=1e-12)
            np.testing.assert_allclose(out.q_prev, q, atol=0)


def test_constraint_stacks_shapes_and_symmetry():
    sys_mats = dt_system(0.05, 0.7, 0.2, NES)
    data = build_theorem2(sys_mats, 1.0, 10.0, 0.9)
    for stack in (data.main, data.reset):
        for name in ("M1", "M2", "M3"):
            mat = getattr(stack, name)
            assert mat.shape == (3, 3)
            np.testing.assert_allclose(mat, mat.T, atol=1e-14)
        mp = stack.mp(np.array([[2.0, 0.3], [0.3, 1.0]]), 0.9)
        assert mp.shape == (3, 3)
        np.testing.assert_allclose(mp, mp.T, atol=1e-14)
    np.testing.assert_allclose(
        data.M, [[0.0, 0.0, 0.5], [0.0, 0.0, -0.5], [0.5, -0.5, 0.0]], atol=0)


def test_sigma_one_top_row():
    # Sigma1's top row maps (x, u) to E x_next - C x: [E A - C, E B]
    sys_mats = dt_system(0.1, 0.5, 0.0, POL)
    for br, want in ((sys_mats.main, [-0.5, 0.5, -0.1]),
                     (sys_mats.reset, [0.0, 0.0, -0.1])):
        top = np.hstack([br.E @ br.A - br.C, br.E @ br.B])[0]
        np.testing.assert_allclose(top, want, atol=1e-15)


def test_alignment_form_identity():
    # e' M e = -<grad at the branch point, q - q_prev>
    data = build_theorem2(dt_system(0.05, 0.7, 0.0, NES), 1.0, 10.0, 0.9)
    rng = np.random.default_rng(8)
    for _ in range(1000):
        c = rng.uniform(1.0, 10.0)
        x = rng.uniform(-5.0, 5.0, 2)
        u = c * (x[1] + 0.7 * (x[1] - x[0]))  # gradient at the lookahead
        e = np.array([x[0], x[1], u])
        want = -u * (x[1] - x[0])
        assert abs(e @ data.M @ e - want) <= 1e-12 * (1.0 + abs(want) + e @ e)


def test_decrease_bounds_along_switched_runs():
    # along simulated switched runs on matching quadratics, the stacks
    # bound the per-step objective change, the distance to the optimum,
    # and the sector form, branch by branch
    mu, L = 1.0, 10.0
    configs = (dt_system(0.05, 0.7, 0.2, POL), dt_system(0.08, 0.6, 0.0, NES))
    for sys_mats in configs:
        data = build_theorem2(sys_mats, mu, L, 0.9)
        for seed in range(10):
            rng = np.random.default_rng([17, seed])
            c = rng.uniform(mu, L)
            q_star = rng.uniform(-2.0, 2.0)
            model = scalar_quad(c, q_star)
            x = q_star + rng.uniform(-5.0, 5.0, 2)
            for _ in range(1000):
                x_next, br, u = switched_step(sys_mats, model, x)
                stack = data.main if br is sys_mats.main else data.reset
                e = np.array([x[0] - q_star, x[1] - q_star, u])
                phi_now = model.gap(np.array([x[1]]))
                phi_next = model.gap(np.array([x_next[1]]))
                slack = 1e-8 * (1.0 + abs(phi_next) + abs(phi_now) + e @ e)
                assert phi_next - phi_now <= e @ stack.M1 @ e + slack
                assert phi_next <= e @ stack.M2 @ e + slack
                assert e @ stack.M3 @ e >= -slack
                sign = e @ data.M @ e
                if br is sys_mats.main:
                    assert sign >= -slack
                elif u * (x[1] - x[0]) >= 0.0:
                    # the reset sign claim binds only when the reset
                    # branch's own gradient agrees with the split
                    assert sign <= slack
                x = x_next


# ---------------------------------------------------------------------------
# discrete-time certification


def test_gradient_descent_embedding_rate():
    # h=0.1 on mu=1, L=19 balances both ends of the spectrum: the true
    # contraction factor is exactly 0.9
    req = CertRequest(mu=1.0, lipschitz=19.0, h=0.1, beta_hi=0.0, beta_lo=0.0,
                      disc=POL)
    rate, cert = certify_discrete(req, lo=0.88, hi=0.92, iters=14, scan=False)
    assert 0.89999 <= rate <= 0.9005
    assert cert.rate == rate
    assert cert.rate_kind == "rho"
    assert cert.tuning["h"] == 0.1 and cert.tuning["L"] == 19.0


def test_nesterov_optimal_tuning_certified():
    mu, L = 1.0, 10.0
    beta = (np.sqrt(L) - np.sqrt(mu)) / (np.sqrt(L) + np.sqrt(mu))
    sys_mats = dt_system(1.0 / L, beta, beta, NES)
    rho_known = np.sqrt(1.0 - np.sqrt(mu / L) + 0.02)
    cert = dt_feasible(build_theorem2(sys_mats, mu, L, rho_known))
    assert cert is not None
    for val in cert.multipliers.values():
        assert val >= 1e-9 * (1.0 - 1e-6)
    assert np.linalg.eigvalsh(cert.P)[0] > 0.0
    # a slightly tighter factor is still certifiable, a clearly smaller
    # one is not
    assert dt_feasible(build_theorem2(sys_mats, mu, L, 0.8240)) is not None
    status, cert_lo = dt_feasible(build_theorem2(sys_mats, mu, L, 0.80),
                                  detail=True)
    assert status != FEASIBLE and cert_lo is None


def test_rate_one_certifiable_for_stable_tuning():
    data = build_theorem2(dt_system(0.1, 0.0, 0.0, POL), 1.0, 10.0, 1.0)
    cert = dt_feasible(data)
    assert cert is not None
    assert cert.rate == 1.0


def test_certificate_decrease_along_plain_runs():
    # the switched heavy-ball form: every simulated step contracts the
    # certified decrease function by rho^2
    mu, L, h = 1.0, 10.0, 0.1
    beta_hi = 0.3
    rho = 0.93
    cert = dt_feasible(build_theorem2(dt_system(h, beta_hi, 0.0, POL), mu, L, rho))
    assert cert is not None
    params = AlgoParams.from_h(h, beta_lo=0.0, beta_hi=beta_hi, variant=Variant.POL)
    for seed in range(5):
        _, model = gen_random_quadratic(3, L, seed)
        rng = np.random.default_rng([19, seed])
        q0 = model.minimizer + rng.uniform(-3.0, 3.0, 3)
        traj = run(model, params, q0, 300)
        pairs = replayed_pairs(model, params, q0, traj)
        v_prev = None
        v0 = cert.lyapunov(*pairs[0], model)
        c_env = cert.guarantee_constant(*pairs[0], model)
        for k in range(len(traj)):
            qp, q = pairs[k]
            v = cert.lyapunov(qp, q, model)
            if k % 50 == 0:
                # reference: a (phi(q) - phi*) + e' (P kron I) e
                e = np.concatenate([qp, q]) - np.tile(model.minimizer, 2)
                ref = (cert.multipliers["a"] * model.gap(q)
                       + e @ np.kron(cert.P, np.eye(3)) @ e)
                assert v == pytest.approx(ref, rel=1e-12, abs=1e-15)
            if v_prev is not None and v_prev > 1e-10 * v0:
                assert v <= rho * rho * v_prev + 1e-9 * v0
            bound = c_env * rho ** (2 * k)
            if bound > 1e-12 * (1.0 + c_env):
                assert model.gap(q) <= bound * (1.0 + 1e-6) + 1e-12
            v_prev = v


def test_certificate_decrease_switched_lookahead_form():
    # same property for the lookahead discretization, simulated with the
    # branch split the certificate covers
    mu, L, h = 1.0, 10.0, 0.05
    beta_hi = 1.0 - 0.1 * np.sqrt(h)
    rho = 0.95
    sys_mats = dt_system(h, beta_hi, 0.0, NES)
    cert = dt_feasible(build_theorem2(sys_mats, mu, L, rho))
    assert cert is not None
    for seed in range(10):
        rng = np.random.default_rng([23, seed])
        c = rng.uniform(mu, L)
        q_star = rng.uniform(-2.0, 2.0)
        model = scalar_quad(c, q_star)
        x = q_star + rng.uniform(-5.0, 5.0, 2)
        v = cert.lyapunov(x[:1], x[1:], model)
        v0 = v
        for _ in range(400):
            x, _, _ = switched_step(sys_mats, model, x)
            v_next = cert.lyapunov(x[:1], x[1:], model)
            if v > 1e-10 * v0:
                assert v_next <= rho * rho * v + 1e-9 * v0
            v = v_next


def test_time_invariant_lookahead_envelope():
    # with both branches equal the running implementation and the matrix
    # model coincide, so the envelope can be checked on a real run
    mu, L = 1.0, 10.0
    beta = (np.sqrt(L) - np.sqrt(mu)) / (np.sqrt(L) + np.sqrt(mu))
    rho = 0.8240
    cert = dt_feasible(build_theorem2(dt_system(1.0 / L, beta, beta, NES),
                                      mu, L, rho))
    assert cert is not None
    params = AlgoParams.from_h(1.0 / L, beta_lo=beta, beta_hi=beta,
                               variant=Variant.NES)
    _, model = gen_random_quadratic(2, L, 29)
    q0 = model.minimizer + np.array([4.0, -3.0])
    traj = run(model, params, q0, 200)
    pairs = replayed_pairs(model, params, q0, traj)
    c_env = cert.guarantee_constant(*pairs[0], model)
    for k in range(len(traj)):
        bound = c_env * rho ** (2 * k)
        if bound > 1e-12 * (1.0 + c_env):
            _, q = pairs[k]
            assert model.gap(q) <= bound * (1.0 + 1e-6) + 1e-12


# ---------------------------------------------------------------------------
# bisection and plumbing


def test_bisect_returns_hard_end_when_everywhere_feasible():
    token = Certificate(rate=0.0, rate_kind="rho", P=np.eye(2), multipliers={},
                        margin=-1.0, tuning={})
    rate, cert = bisect_rate(lambda r: token, 0.1, 1.0, iters=5, scan=False)
    assert rate == 0.1 and cert is token
    rate, cert = bisect_rate(lambda r: token, 0.1, 1.0, iters=5, scan=False,
                             sense="max")
    assert rate == 1.0


def test_bisect_reports_missing_certificate():
    with pytest.raises(NoCertificate, match="<= 1"):
        bisect_rate(lambda r: None, 0.05, 1.0, iters=5, scan=False)
    with pytest.raises(NoCertificate, match=">= 1"):
        bisect_rate(lambda r: None, 1.0, 2.0, iters=5, scan=False, sense="max")


def test_bisect_converges_to_feasibility_edge():
    token = Certificate(rate=0.0, rate_kind="rho", P=np.eye(2), multipliers={},
                        margin=-1.0, tuning={})
    rate, _ = bisect_rate(lambda r: token if r >= 0.6 else None, 0.05, 1.0,
                          iters=24, scan=False)
    assert abs(rate - 0.6) <= 1e-5
    rate, _ = bisect_rate(lambda r: token if r <= 0.4 else None, 0.05, 1.0,
                          iters=24, scan=False, sense="max")
    assert abs(rate - 0.4) <= 1e-5


def test_bisect_warns_on_nonmonotone_scan():
    token = Certificate(rate=0.0, rate_kind="rho", P=np.eye(2), multipliers={},
                        margin=-1.0, tuning={})

    def patchy(r):
        return token if (r >= 0.6 or 0.2 <= r <= 0.3) else None

    with pytest.warns(RuntimeWarning, match="not monotone"):
        rate, _ = bisect_rate(patchy, 0.05, 1.0, iters=20, scan=True)
    assert abs(rate - 0.6) <= 1e-3


def test_bisect_validation():
    with pytest.raises(ValueError):
        bisect_rate(lambda r: None, 1.0, 1.0, iters=5)
    with pytest.raises(ValueError):
        bisect_rate(lambda r: None, 0.1, 1.0, iters=5, sense="middle")


def test_bisect_rates_gives_each_row_its_single_row_result():
    # rows with different feasible sets, bisected in lockstep: each row
    # sees the rates it sees alone, in the same order, and gets the same
    # result; a row without a certificate at the easy end gets None
    token = Certificate(rate=0.0, rate_kind="rho", P=np.eye(2), multipliers={},
                        margin=-1.0, tuning={})
    tests = [lambda r: r >= 0.6, lambda r: r >= 0.05, lambda r: False,
             lambda r: r >= 0.3 or 0.1 <= r <= 0.15, lambda r: r <= 0.4]
    for sense in ("min", "max"):
        for scan in (False, True):
            calls = []

            def probe(rows, rates):
                calls.append(list(zip(rows, rates)))
                return [token if tests[i](r) else None for i, r in zip(rows, rates)]

            with warnings.catch_warnings(record=True):
                warnings.simplefilter("always")
                found = bisect_rates(probe, len(tests), 0.05, 1.0, iters=9, scan=scan,
                                     sense=sense)
            for i, test in enumerate(tests):
                alone = []

                def builder(r):
                    alone.append(r)
                    return token if test(r) else None

                try:
                    with warnings.catch_warnings(record=True):
                        warnings.simplefilter("always")
                        want = bisect_rate(builder, 0.05, 1.0, iters=9, scan=scan,
                                           sense=sense)
                except NoCertificate:
                    want = None
                assert found[i] == want
                assert [r for call in calls for j, r in call if j == i] == alone
            # one probe call per round, and no call probes a row twice
            assert all(len({j for j, _ in call}) == len(call) for call in calls)
            assert len(calls) == (32 if scan else 0) + 2 + 9
    with pytest.warns(RuntimeWarning, match="not monotone"):
        bisect_rates(lambda rows, rates: [token if tests[3](r) else None for r in rates],
                     1, 0.05, 1.0, iters=3, scan=True)


def test_dt_rows_in_lockstep_match_each_row_bisected_alone():
    # one stacked solve a round gives every row the rate and the
    # certificate bytes that it gets from its own dt_rate_builder
    requests = [CertRequest(1.0, L, 1.0 / (2.0 * L), beta, blo, disc)
                for L in (1.0, 10.0)
                for beta in [1.0 - 0.1 * np.sqrt(1.0 / (2.0 * L))]
                for blo, disc in ((beta, NES), (0.0, NES), (beta, POL), (0.0, POL))]
    found = bisect_rates(dt_rates_probe(requests, 150), len(requests), 0.05, 1.0,
                         iters=5, scan=False)
    for req, got in zip(requests, found):
        builder = dt_rate_builder(req.mu, req.lipschitz, req.h, req.beta_hi,
                                  req.beta_lo, req.disc, max_oracle_calls=150)
        try:
            rate, cert = bisect_rate(builder, 0.05, 1.0, iters=5, scan=False)
        except NoCertificate:
            assert got is None
            continue
        assert got[0] == rate
        assert got[1].to_json() == cert.to_json()
        assert got[1].raw_v.tobytes() == cert.raw_v.tobytes()
    assert sum(f is None for f in found) >= 1 and sum(f is not None for f in found) >= 4


def test_rate_builder_warm_start_consistency():
    builder = dt_rate_builder(1.0, 10.0, 0.1, 0.0, 0.0, POL)
    cert_a = builder(0.95)
    cert_b = builder(0.95)
    assert cert_a is not None and cert_b is not None
    assert cert_a.rate == cert_b.rate == 0.95
    assert cert_a.tuning["beta_hi"] == 0.0


def test_certificate_json_round_trip():
    cert = dt_feasible(build_theorem2(dt_system(0.1, 0.0, 0.0, POL),
                                      1.0, 10.0, 0.95))
    assert cert is not None
    text = cert.to_json()
    back = Certificate.from_json(text)
    assert back.rate == cert.rate
    assert back.rate_kind == cert.rate_kind
    np.testing.assert_array_equal(back.P, cert.P)
    assert back.multipliers == cert.multipliers
    assert back.tuning == cert.tuning
    assert back.raw_v is None
    assert back.to_json() == text


def test_problem_export():
    ct = ct_problem(build_ct(2.0, 1, 1.0, 10.0), 0.5, 1e-6)
    assert ct.nvar == 6
    dt = dt_problem(build_theorem2(dt_system(0.1, 0.5, 0.0, POL), 1.0, 10.0, 0.9))
    assert dt.nvar == 8
    for prob in (ct, dt):
        text = problem_to_json(prob)
        assert '"nvar"' in text


def test_lyapunov_requires_discrete_certificate_and_minimum():
    data = build_ct(1.0, 1, 1.0, 2.0, b_coupled=True)
    ct_cert = ct_feasible(data, 0.3, 1e-6)
    assert ct_cert is not None
    model = scalar_quad(2.0)
    with pytest.raises(ValueError):
        ct_cert.lyapunov(np.zeros(1), np.ones(1), model)
    dt_cert = dt_feasible(build_theorem2(dt_system(0.1, 0.0, 0.0, POL),
                                         1.0, 10.0, 0.95))
    no_min = quadratic_model(QuadraticSpec(Q=np.eye(1), b=np.zeros(1)))
    object.__setattr__(no_min, "min_value", None)
    with pytest.raises(ValueError):
        dt_cert.lyapunov(np.zeros(1), np.ones(1), no_min)
