"""Certificate construction: matrix stacks, feasibility calls, bisection."""

import dataclasses
import json
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _reference as ref
import hbreset.cli
import hbreset.lmi
from hbreset.cli import certify_request, main as cli_main
from hbreset.discrete import AlgoParams, Variant, run
from hbreset.lmi import (ALIGNMENT_FORM, NES, POL, Certificate, CertRequest,
                         NoCertificate, bisect_rate, bisect_rates, build_ct, build_dt,
                         build_sector, build_theorem2, ct_rates_probe, dt_feasible,
                         dt_problem, dt_rates_probe, dt_system)
from hbreset.objectives import QuadraticSpec, gen_random_quadratic, quadratic_model
from hbreset import sdp
from hbreset.sdp import FEASIBLE, INDETERMINATE, INFEASIBLE, problem_to_json


def scalar_quad(c: float, q_star: float = 0.0):
    return quadratic_model(QuadraticSpec(Q=np.array([[c]]),
                                         b=np.array([-c * q_star])))


def replayed_pairs(model, params, q0, traj):
    """(q_{k-1}, q_k) at every iterate of traj, rebuilt from q0 with the
    reference step.

    The run keeps no iterates; the rebuilt ones must reproduce its
    recorded gaps and gradient norms bit for bit.
    """
    states = [ref.initial_state(q0, params.eps)]
    for _ in range(traj.iterations):
        states.append(ref.step(states[-1], params, model))
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
    data = build_ct(2.0, 1.0, 10.0)
    np.testing.assert_allclose(data.A, [[0.0, 1.0], [0.0, -2.0]], atol=0)
    np.testing.assert_allclose(data.A_R, [[1.0, 0.0], [0.0, 0.0]], atol=0)
    np.testing.assert_allclose(data.B, [[0.0], [-1.0]], atol=0)
    np.testing.assert_allclose(data.C, [[1.0, 0.0]], atol=0)
    coupled = build_ct(2.0, 1.0, 10.0, b_coupled=True)
    np.testing.assert_allclose(coupled.B, [[-1.0], [-1.0]], atol=0)
    with pytest.raises(ValueError):
        build_ct(0.0, 1.0, 10.0)
    for mat in (data.M_phi, data.M0, data.M_eps(1e-6)):
        assert mat.shape == (3, 3)
        np.testing.assert_allclose(mat, mat.T, atol=1e-14)


def test_ct_descent_identities():
    # e' M0 e = -p * grad, and the inflated form adds eps |x|^2
    data = build_ct(2.0, 1.0, 10.0)
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
        data = build_ct(1.5, 1.0, 10.0, b_coupled=coupled)
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
    data = build_ct(2.0, 1.0, 10.0)
    for alpha in (1e-6, 1e-2, 1.0, 100.0):
        assert ref.probe_at(ct_rates_probe([data], 1e-6, max_oracle_calls=120), alpha) == [None]


def test_ct_coupled_input_feasible_band():
    data = build_ct(1.0, 1.0, 2.0, b_coupled=True)
    (cert,) = ref.probe_at(ct_rates_probe([data], 1e-6), 0.5)
    assert cert is not None
    assert cert.rate_kind == "alpha"
    eigs = np.linalg.eigvalsh(cert.P)
    assert eigs[0] > 0.0
    assert 0.0 < cert.rate <= 0.5
    assert cert.multipliers["sigma_phi"] >= 1e-9 * (1.0 - 1e-6)
    # beyond the band the same data is uncertifiable
    assert ref.probe_at(ct_rates_probe([data], 1e-6), 1.5) == [None]


def test_ct_coupled_max_exponent():
    data = build_ct(1.0, 1.0, 2.0, b_coupled=True)
    [(alpha, cert)] = bisect_rates(ct_rates_probe([data], 1e-6), 0.7, 1.1, iters=12,
                                   scan=False, sense="max")
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


def _dt_stream_row(h=0.1, L=10.0):
    return bisect_rates(dt_rates_probe([CertRequest(1.0, L, h, 0.5, 0.0, NES)]), 0.05, 1.0,
                        iters=1)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("name, make", [
    ("h", lambda x: build_dt(x, 0.5, POL)),
    ("h", lambda x: _dt_stream_row(h=x)),
    ("K", lambda x: build_ct(x, 1.0, 2.0)),
    ("L", lambda x: build_sector(1.0, x)),
    ("L", lambda x: _dt_stream_row(L=x)),
    ("alpha", lambda x: ref.probe_at(ct_rates_probe([build_ct(1.0, 1.0, 2.0, b_coupled=True)],
                                                    1e-6), x)),
    ("eps_infl", lambda x: ct_rates_probe([build_ct(1.0, 1.0, 2.0, b_coupled=True)], x)),
])
def test_non_finite_lmi_inputs_are_refused_by_name(name, make, bad):
    # a NaN or infinite parameter is refused where it enters, under its
    # own name, before a matrix is built from it or a warning is raised
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=rf"(^|\W){name}\W"):
            make(bad)


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
            state = ref.IterState(q_prev=q_prev, q=q, p=(q - q_prev) / eps)
            out = ref.step(state, params, model)
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
    for blk in dt_problem(data).nsd_blocks:
        for _, mp in blk.basis[:3]:
            assert mp.shape == (3, 3)
            np.testing.assert_allclose(mp, mp.T, atol=1e-14)
    np.testing.assert_allclose(
        ALIGNMENT_FORM, [[0.0, 0.0, 0.5], [0.0, 0.0, -0.5], [0.5, -0.5, 0.0]], atol=0)


def test_sigma_one_top_row():
    # Sigma1's top row maps (x, u) to E x_next - C x: [E A - C, E B]
    sys_mats = dt_system(0.1, 0.5, 0.0, POL)
    for br, want in ((sys_mats.main, [-0.5, 0.5, -0.1]),
                     (sys_mats.reset, [0.0, 0.0, -0.1])):
        top = np.hstack([br.E @ br.A - br.C, br.E @ br.B])[0]
        np.testing.assert_allclose(top, want, atol=1e-15)


def test_alignment_form_identity():
    # e' M e = -<grad at the branch point, q - q_prev>
    rng = np.random.default_rng(8)
    for _ in range(1000):
        c = rng.uniform(1.0, 10.0)
        x = rng.uniform(-5.0, 5.0, 2)
        u = c * (x[1] + 0.7 * (x[1] - x[0]))  # gradient at the lookahead
        e = np.array([x[0], x[1], u])
        want = -u * (x[1] - x[0])
        assert abs(e @ ALIGNMENT_FORM @ e - want) <= 1e-12 * (1.0 + abs(want) + e @ e)


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
                sign = e @ ALIGNMENT_FORM @ e
                if br is sys_mats.main:
                    assert sign >= -slack
                elif u * (x[1] - x[0]) >= 0.0:
                    # the reset sign claim binds only when the reset
                    # branch's own gradient agrees with the split
                    assert sign <= slack
                x = x_next


def reference_dt_lmis(sys_mats, mu, L, rho):
    """Both 3 x 3 blocks of the dt problem, rebuilt from the DtBranch
    matrices at rate rho: (variable index, basis matrix) pairs per block."""
    w_upper = np.array([[L / 2.0, 0.5], [0.5, 0.0]])
    w_lower = np.array([[-mu / 2.0, 0.5], [0.5, 0.0]])
    m = np.zeros((3, 3))
    m[0, 2] = m[2, 0] = 0.5
    m[1, 2] = m[2, 1] = -0.5
    blocks = []
    for br, lam, sigma, sign in ((sys_mats.main, 4, 6, m), (sys_mats.reset, 5, 7, -m)):
        sigma1 = np.block([[br.E @ br.A - br.C, br.E @ br.B],
                           [np.zeros((1, 2)), np.ones((1, 1))]])
        sigma2 = np.block([[br.C - br.E, np.zeros((1, 1))],
                           [np.zeros((1, 2)), np.ones((1, 1))]])
        c0 = np.block([[br.C, np.zeros((1, 1))], [np.zeros((1, 2)), np.ones((1, 1))]])
        n1 = sigma1.T @ w_upper @ sigma1
        n2 = sigma2.T @ w_lower @ sigma2
        n3 = c0.T @ w_lower @ c0
        basis = []
        for i, E in enumerate((np.array([[1.0, 0.0], [0.0, 0.0]]),
                               np.array([[0.0, 1.0], [1.0, 0.0]]),
                               np.array([[0.0, 0.0], [0.0, 1.0]]))):
            tl = br.A.T @ E @ br.A - rho * rho * E
            tr = br.A.T @ E @ br.B
            basis.append((i, np.block([[tl, tr], [tr.T, br.B.T @ E @ br.B]])))
        rho2 = rho * rho
        basis += [(3, rho2 * (n1 + n2) + (1.0 - rho2) * (n1 + n3)),
                  (lam, c0.T @ build_sector(mu, L) @ c0), (sigma, sign)]
        blocks.append(basis)
    return blocks


def basis_bytes(blocks):
    return [[(i, mat.tobytes()) for i, mat in basis] for basis in blocks]


def test_compiled_row_matches_the_reference_blocks_bit_for_bit():
    for sys_mats, mu, L in ((dt_system(0.05, 0.7, 0.2, POL), 1.0, 10.0),
                            (dt_system(0.08, 0.6, 0.0, NES), 1.0, 10.0),
                            (dt_system(1.0 / 300.0, 0.93, 0.93, NES), 3.0, 300.0)):
        for rho in (0.05, 0.3, 0.8125, 0.9, 1.0):
            problem = dt_problem(build_theorem2(sys_mats, mu, L, rho))
            assert [blk.name for blk in problem.nsd_blocks] == ["flow_lmi", "reset_lmi"]
            assert (basis_bytes(blk.basis for blk in problem.nsd_blocks)
                    == basis_bytes(reference_dt_lmis(sys_mats, mu, L, rho)))


def test_a_row_compiled_once_gives_the_same_bits_at_every_rate_in_any_order():
    # a probe must not update the compiled pieces in place: rates visited
    # rising, falling and repeated give the bits of a fresh compile
    sys_mats = dt_system(0.05, 0.7, 0.2, NES)
    data = build_theorem2(sys_mats, 1.0, 10.0, 1.0)
    for rho in (0.3, 0.6, 0.9, 0.9, 0.6, 0.3, 0.3, 1.0, 0.05, 0.6):
        moved = dt_problem(dataclasses.replace(data, rho=rho))
        fresh = dt_problem(build_theorem2(sys_mats, 1.0, 10.0, rho))
        assert problem_to_json(moved) == problem_to_json(fresh)
        assert (basis_bytes(blk.basis for blk in moved.nsd_blocks)
                == basis_bytes(blk.basis for blk in fresh.nsd_blocks))
    with pytest.raises(ValueError, match="rho"):
        dataclasses.replace(data, rho=0.0)


def test_bench_config_sweep_compiles_each_row_once(monkeypatch, tmp_path):
    # every compiled row passes through the stacked builder, build_theorem2's
    # rows too, so the count covers the front end: it compiles nothing
    # itself, not even the dumped problems
    compiled = []
    stacked = hbreset.lmi._theorem2_stack

    def counting(systems, mu, L):
        compiled.extend((s.h, s.beta_hi, s.beta_lo, s.disc, m, l)
                        for s, m, l in zip(systems, mu, L))
        return stacked(systems, mu, L)

    monkeypatch.setattr(hbreset.lmi, "_theorem2_stack", counting)
    for extra in ([], ["--dump-sdp"]):
        compiled.clear()
        out = tmp_path / f"out{len(extra)}"
        assert cli_main(["certify", "--grid-L", "1,10,100", "--bisect-iters", "3",
                         *extra, "--out", str(out)]) == 0
        assert len(compiled) == len(set(compiled)) == 18
        assert bool(list(out.glob("sdp_*.json"))) == bool(extra)


def test_stacked_rows_are_build_theorem2_rows_bit_for_bit():
    # the six certify methods at four conditionings under both tuning
    # rules: one stack compiles each row to the bits of its stack of one
    requests = [certify_request(method, L, 1.0, rule) for method in hbreset.cli.METHODS["certify"]
                for L in (1.0, 10.0, 25.0, 100.0) for rule in ("mistuned", "optimal")]
    assert len(requests) == 48
    systems = [dt_system(r.h, r.beta_hi, r.beta_lo, r.disc) for r in requests]
    stack = hbreset.lmi._theorem2_stack(systems, [r.mu for r in requests],
                                        [r.lipschitz for r in requests])
    rows = hbreset.lmi._rate_free([build_theorem2(s, r.mu, r.lipschitz, 1.0)
                                   for s, r in zip(systems, requests)])
    assert stack.shape == rows.shape == (48, 2, 7, 3, 3)
    assert stack.tobytes() == rows.tobytes()
    compiled = dt_rates_probe(requests).rows
    assert hbreset.lmi._rate_free(compiled).tobytes() == rows.tobytes()
    assert all(isinstance(x, hbreset.lmi.DtLmiData) and x.rho == 1.0 for x in compiled)
    with pytest.raises(ValueError, match="mu <= L"):
        hbreset.lmi._theorem2_stack(systems[:2], [1.0, 2.0], [10.0, 1.0])


def _lifted_bytes(lifted):
    return (lifted.v_base.tobytes(), lifted.basis.tobytes(), lifted.radius, lifted.margin,
            [(c.tobytes(), g.tobytes()) for c, g in lifted.parts],
            [(c.tobytes(), np.asarray(idx).tobytes(), m.tobytes())
             for c, idx, m in lifted.blocks])


def _result_bits(res):
    return (res.status, res.oracle_calls, None if res.v is None else res.v.tobytes(),
            repr(res.worst_eig), res.message)


def test_compiled_probes_replay_as_solves_of_their_dt_problems(monkeypatch, tmp_path):
    # every probe of three certify passes: the lifted rows that the
    # compiled path solves, and their results, are those of lifting and
    # solving the probed row's dt_problem, and for a row with L == mu its
    # face twin's are those of the row's reference face problem. A probe's
    # result is its full form's, or its face twin's INFEASIBLE, named so.
    # The first two passes no longer end a probe INDETERMINATE (every
    # L = mu "no" is proved on the face); the third's budget of 20 ends
    # some, one of them at L = mu beside a face twin that stays feasible
    probes, solves = [], []
    real_cert, real_stream = hbreset.lmi._dt_certificate, hbreset.lmi.solve_stream

    def recording_cert(data, rho, res):
        probes.append((data, rho, res))
        return real_cert(data, rho, res)

    def recording_stream(feed, max_oracle_calls):
        live, call = {}, len({key[0] for key, *_ in solves})

        def fed(decided):
            solves.extend(((call, *key), *live.pop(key), res) for key, res in decided)
            joining, dropping = feed(decided)
            live.update((key, (lifted, max_oracle_calls, v_init))
                        for key, lifted, v_init in joining)
            return joining, dropping

        real_stream(fed, max_oracle_calls)

    monkeypatch.setattr(hbreset.lmi, "_dt_certificate", recording_cert)
    monkeypatch.setattr(hbreset.lmi, "solve_stream", recording_stream)
    ends = []  # the number of probes after each pass
    for i, args in enumerate((["--grid-L", "1,10,100", "--bisect-iters", "3"],
                              ["--grid-L", "10", "--rule", "optimal", "--scan",
                               "--bisect-iters", "5"],
                              ["--grid-L", "1,10", "--methods", "nesterov,hhb-pol",
                               "--bisect-iters", "2", "--max-oracle-calls", "20"])):
        assert cli_main(["certify", *args, "--out", str(tmp_path / str(i))]) == 0
        ends.append(len(probes))
    monkeypatch.undo()
    # each path probe's twins, found from its result: the full form's own
    # result, or the face twin's with the face named
    twins = {key: solve for key, *solve in solves}
    by_result = {id(res): key for key, *_, res in solves if key[-1] == 0}
    by_result.update(
        (_result_bits(dataclasses.replace(res, message=ref.FACE_MESSAGE + res.message)), key)
        for key, *_, res in solves if key[-1] == 1 and res.status == INFEASIBLE)
    recorded = []
    for data, rho, res in probes:
        key = by_result.get(id(res)) or by_result[_result_bits(res)]
        assert res is twins[key][-1] or res.message == ref.FACE_MESSAGE + twins[key][-1].message
        assert (key[-1] == 1) == res.message.startswith(ref.FACE_MESSAGE)
        for twin, build in enumerate((dt_problem, ref.dt_face_problem)):
            if (*key[:-1], twin) in twins:
                assert data.lipschitz == data.mu or twin == 0
                recorded.append((build(dataclasses.replace(data, rho=rho)),
                                 *twins[(*key[:-1], twin)]))
    # a solve that a certified probe before it cancels has no probe, and
    # a probe's verdict drops the twin still running
    assert len(probes) < len(recorded) < len(solves)
    assert ends[1] >= 66 + 32 * 6
    assert {budget for *_, budget, _, _ in recorded} == {20, 200}
    for budget in (20, 200):
        replayed = [r for r in recorded if r[2] == budget]
        again = ref.stacked([problem for problem, *_ in replayed], budget,
                            [v_init for *_, v_init, _ in replayed])
        for (problem, lifted, _, _, res), res_again in zip(replayed, again, strict=True):
            assert _lifted_bytes(lifted) == _lifted_bytes(sdp.lift(problem))
            assert _result_bits(res) == _result_bits(res_again)
    statuses = [res.status for *_, res in probes]
    assert set(statuses[:ends[1]]) == {FEASIBLE, INFEASIBLE}
    assert set(statuses) == {FEASIBLE, INFEASIBLE, INDETERMINATE}
    assert {res.message.startswith(ref.FACE_MESSAGE) for *_, res in probes} == {True, False}
    assert any(data.lipschitz == data.mu and res.status == INDETERMINATE
               for data, _, res in probes)
    assert any(v_init is not None for *_, v_init, _ in recorded)


def test_ct_probes_replay_as_solves_of_their_reference_problems(monkeypatch):
    # every probe of a ct bisection (plain rows at L = 10, coupled ones at
    # L = 2, 4) and criterion 08's fixed-alpha probes: the lifted rows that
    # the compiled path solves, and their results, are those of lifting
    # and solving the probed row's reference problem alone
    probes, solves = [], []
    real_cert, real_stream = hbreset.lmi._ct_certificate, hbreset.lmi.solve_stream

    def recording_cert(data, eps_infl, alpha, res):
        probes.append((data, eps_infl, alpha, res))
        return real_cert(data, eps_infl, alpha, res)

    def recording_stream(feed, max_oracle_calls):
        live = {}

        def fed(decided):
            solves.extend((*live.pop(key), res) for key, res in decided)
            joining, dropping = feed(decided)
            live.update((key, (lifted, max_oracle_calls, v_init))
                        for key, lifted, v_init in joining)
            return joining, dropping

        real_stream(fed, max_oracle_calls)

    monkeypatch.setattr(hbreset.lmi, "_ct_certificate", recording_cert)
    monkeypatch.setattr(hbreset.lmi, "solve_stream", recording_stream)
    rows = [build_ct(K, 1.0, L, b_coupled=L < 10.0) for L in (10.0, 2.0, 4.0)
            for K in (0.5, 1.0, 2.0)]
    found = bisect_rates(ct_rates_probe(rows, 1e-6), 0.05, 2.0, iters=8, scan=False,
                         sense="max")
    plain = build_ct(1.0, 1.0, 10.0)
    for alpha in (1e-6, 1e-4, 1e-2, 0.1, 1.0, 10.0, 100.0):
        assert ref.probe_at(ct_rates_probe([plain], 1e-6, max_oracle_calls=120), alpha) == [None]
    coupled = [build_ct(1.0, 1.0, L, b_coupled=True) for L in (2.0, 4.0)]
    assert None not in ref.probe_at(ct_rates_probe(coupled, 1e-6), 0.5)
    monkeypatch.undo()
    probed = {id(res): (data, eps_infl, alpha) for data, eps_infl, alpha, res in probes}
    recorded = [(*probed[id(res)], *solved, res) for *solved, res in solves
                if id(res) in probed]
    assert len(recorded) == len(probes) < len(solves)
    assert {budget for *_, budget, _, _ in recorded} == {120, 200}
    for data, eps_infl, alpha, lifted, budget, v_init, res in recorded:
        problem = ref.ct_problem(data, alpha, eps_infl)
        assert _lifted_bytes(lifted) == _lifted_bytes(sdp.lift(problem))
        assert _result_bits(res) == _result_bits(sdp.solve_feasibility(problem, budget, v_init))
    assert {res.status for *_, res in recorded} == {FEASIBLE, INFEASIBLE, INDETERMINATE}
    assert any(v_init is not None for *_, v_init, _ in recorded)
    # the warm starts move certificates but no verdict of the path: each
    # row bisects to the alpha of cold solves at every probe
    for data, got in zip(rows, found, strict=True):
        def cold(alpha, data=data):
            res = sdp.solve_feasibility(ref.ct_problem(data, alpha, 1e-6))
            return hbreset.lmi._ct_certificate(data, 1e-6, alpha, res)

        try:
            want = bisect_rate(cold, 0.05, 2.0, iters=8, scan=False, sense="max")[0]
        except NoCertificate:
            want = None
        assert (got is None) == (want is None) == (not data.b_coupled)
        assert got is None or got[0] == want


def test_a_compiled_row_is_validated_as_its_dt_problem_is(monkeypatch):
    # a compiled matrix made asymmetric by 1e-6 or non-finite is rejected
    # by the probe with the message that building its dt_problem gives:
    # the rate-dependent ones at the probe, M3 when the row is compiled.
    # A compiled row's matrices are views of its stack entry.
    request = CertRequest(1.0, 10.0, 0.1, 0.5, 0.0, NES)
    sys_mats = dt_system(0.1, 0.5, 0.0, NES)
    stacked = hbreset.lmi._theorem2_stack
    for matrix, entry, bad in ((lambda x: x.main.M1, (0, 1), 1e-6),
                               (lambda x: x.reset.P[2], (0, 1), 1e-6),
                               (lambda x: x.main.P[0], (1, 2), 1e-6),
                               (lambda x: x.reset.M1, (1, 1), np.nan),
                               (lambda x: x.main.P[1], (2, 2), np.inf),
                               (lambda x: x.reset.M2, (2, 0), 1e-6),
                               (lambda x: x.main.M3, (0, 2), 1e-6),
                               (lambda x: x.reset.M3, (1, 1), -np.inf)):
        def tampered(systems, mu, L):
            mats = stacked(systems, mu, L)
            matrix(hbreset.lmi._compiled(systems[0], mu[0], L[0], 1.0, mats[0]))[entry] += bad
            return mats

        monkeypatch.setattr(hbreset.lmi, "_theorem2_stack", tampered)
        with pytest.raises(ValueError) as want:
            dt_problem(build_theorem2(sys_mats, 1.0, 10.0, 0.9))
        with pytest.raises(ValueError) as got:
            ref.probe_at(dt_rates_probe([request]), 0.9)
        monkeypatch.undo()
        assert str(got.value) == str(want.value)
        assert ("non-finite" if np.isinf(bad) or np.isnan(bad) else "not symmetric") in str(got.value)


@settings(max_examples=25, deadline=None, database=None, derandomize=True)
@given(st.floats(0.1, 2.0), st.floats(1.0, 1e4), st.floats(0.01, 2.0), st.floats(0.0, 1.0),
       st.floats(0.0, 1.0), st.sampled_from((POL, NES)), st.floats(0.05, 1.0))
def test_every_probe_matrix_passes_the_symmetry_check(mu, cond, h, beta_hi, lo, disc, rho):
    seen = []
    real = hbreset.lmi.solve_stream

    def recording(feed, max_oracle_calls):
        def fed(decided):
            joining, dropping = feed(decided)
            seen.extend(lifted for _, lifted, _ in joining)
            return joining, dropping

        real(fed, max_oracle_calls)

    request = CertRequest(mu, mu * cond, h / (mu * cond), beta_hi, lo * beta_hi, disc)
    with mock.patch.object(hbreset.lmi, "solve_stream", recording):
        ref.probe_at(dt_rates_probe([request], max_oracle_calls=1), rho)
    # the full form, and at L == mu its face twin
    assert len(seen) == 1 + (request.lipschitz == request.mu)
    for lifted in seen:
        for const, _, mats in lifted.blocks:
            for mat in (const, *mats):
                sdp._check_symmetric(mat, "probe matrix")


@settings(max_examples=30, deadline=None, database=None, derandomize=True)
@given(st.floats(0.1, 2.0), st.floats(0.01, 2.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0),
       st.sampled_from((POL, NES)), st.floats(0.05, 1.0))
def test_a_full_certificate_at_L_equal_to_mu_clears_the_face(mu, h, beta_hi, lo, disc, rho):
    # at L == mu, a point of the full form that clears the margin, on the
    # face and renormalized to the face's normalization (lambda and
    # lambda_r left out), clears the face's margin in every block under
    # eigvalsh; so the two twins never give (full FEASIBLE, face INFEASIBLE)
    data = build_theorem2(dt_system(h / mu, beta_hi, lo * beta_hi, disc), mu, mu, rho)
    full = sdp.solve_feasibility(dt_problem(data))
    face_problem = ref.dt_face_problem(data)
    face = sdp.solve_feasibility(face_problem)
    assert not (full.status == FEASIBLE and face.status == INFEASIBLE)
    if full.status == FEASIBLE:
        scale = face_problem.normalization @ full.v  # 1 - lambda - lambda_r
        assert 0.0 < scale <= 1.0
        v = full.v / scale
        for blk in face_problem.compiled_blocks():
            assert np.linalg.eigvalsh(blk.value(v))[-1] <= -hbreset.lmi.MARGIN


def test_only_rows_with_L_exactly_mu_get_a_face_twin(monkeypatch):
    # the face is taken at L == mu with no tolerance: at the next float
    # above mu, at 1 + 1e-9 and at 1 + 1e-6 every probe is the full form
    # alone, and there each "no" stays INDETERMINATE
    joined = []
    real_stream = hbreset.lmi.solve_stream

    def recording_stream(feed, max_oracle_calls):
        def fed(decided):
            joining, dropping = feed(decided)
            joined.extend(key for key, _, _ in joining)
            return joining, dropping

        real_stream(fed, max_oracle_calls)

    monkeypatch.setattr(hbreset.lmi, "solve_stream", recording_stream)
    grid = [(1.0, 1.0), (1.0, float(np.nextafter(1.0, 2.0))), (1.0, 1.0 + 1e-9),
            (1.0, 1.0 + 1e-6), (0.5, 0.5), (1.0, 2.0)]
    requests = [CertRequest(mu, L, 0.1, 0.5, 0.0, NES) for mu, L in grid]
    found = ref.probe_at(dt_rates_probe(requests), 0.2)
    assert found == [None] * len(grid)
    assert [sum(key[0] == i for key in joined) for i in range(len(grid))] == [2, 1, 1, 1, 2, 1]
    statuses = {}
    monkeypatch.setattr(hbreset.lmi, "_dt_certificate", lambda data, rho, res: statuses.update(
        {(data.mu, data.lipschitz): (res.status, res.message.startswith(ref.FACE_MESSAGE))}))
    ref.probe_at(dt_rates_probe(requests), 0.2)
    assert [statuses[row] for row in grid] == [(INFEASIBLE, True), *[(INDETERMINATE, False)] * 3,
                                               (INFEASIBLE, True), (INFEASIBLE, False)]


# ---------------------------------------------------------------------------
# discrete-time certification


def test_gradient_descent_embedding_rate():
    # h=0.1 on mu=1, L=19 balances both ends of the spectrum: the true
    # contraction factor is exactly 0.9
    req = CertRequest(mu=1.0, lipschitz=19.0, h=0.1, beta_hi=0.0, beta_lo=0.0,
                      disc=POL)
    [(rate, cert)] = bisect_rates(dt_rates_probe([req]), 0.88, 0.92, iters=14, scan=False)
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
    for iters in (5, 0):
        rate, cert = bisect_rate(lambda r: token, 0.1, 1.0, iters=iters, scan=False)
        assert rate == 0.1 and cert is token
        rate, cert = bisect_rate(lambda r: token, 0.1, 1.0, iters=iters, scan=False,
                                 sense="max")
        assert rate == 1.0


def test_bisect_calls_a_builder_that_certifies_everywhere_twice():
    # the easy end, then the hard end alone, which decides the row: no
    # midpoint is probed, whatever the depth
    token = Certificate(rate=0.0, rate_kind="rho", P=np.eye(2), multipliers={},
                        margin=-1.0, tuning={})
    for sense, easy, hard in (("min", 1.0, 0.1), ("max", 0.1, 1.0)):
        for iters in (0, 1, 5):
            probed = []

            def builder(r):
                probed.append(r)
                return token

            assert bisect_rate(builder, 0.1, 1.0, iters=iters, scan=False,
                               sense=sense) == (hard, token)
            assert probed == [easy, hard]


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
    # with no midpoint the hard end is probed alone, after the easy end
    probed = []

    def edge(r):
        probed.append(r)
        return token if r >= 0.6 else None

    assert bisect_rate(edge, 0.05, 1.0, iters=0, scan=False) == (1.0, token)
    assert probed == [1.0, 0.05]


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
    token = Certificate(rate=0.0, rate_kind="rho", P=np.eye(2), multipliers={},
                        margin=-1.0, tuning={})
    with pytest.raises(ValueError, match="iters"):
        bisect_rate(lambda r: token if r >= 0.6 else None, 0.05, 1.0, iters=-1)
    with pytest.raises(ValueError, match="iters"):
        bisect_rates(lambda rule: [[]] * 3, 0.05, 1.0, iters=-1)


@pytest.mark.parametrize("iters", [3.5, float("inf"), float("nan")])
def test_bisection_refuses_iters_that_are_not_counts(iters):
    # a fractional depth would bisect to the next whole one, nan to none
    # and inf forever: each is refused before any probe, while a numpy
    # integer is a count
    calls = []

    def builder(r):
        calls.append(r)
        return None

    with pytest.raises(ValueError, match="iters must be an integer"):
        bisect_rate(builder, 0.1, 1.0, iters=iters, scan=False)
    with pytest.raises(ValueError, match="iters must be an integer"):
        bisect_rates(lambda rule: calls.append(rule), 0.1, 1.0, iters=iters)
    assert calls == []
    token = Certificate(rate=0.0, rate_kind="rho", P=np.eye(2), multipliers={},
                        margin=-1.0, tuning={})
    rate, _ = bisect_rate(lambda r: token if r >= 0.6 else None, 0.05, 1.0,
                          iters=np.int64(3), scan=False)
    assert rate == bisect_rate(lambda r: token if r >= 0.6 else None, 0.05, 1.0, iters=3,
                               scan=False)[0]


def _builders_stream(builders):
    # a stream whose row i calls builders[i] at each rate of its path
    def stream(rule):
        paths = [[] for _ in builders]
        for builder, path in zip(builders, paths):
            while (rate := rule([c is not None for _, c in path])[0]) is not None:
                path.append((rate, builder(rate)))
        return paths

    return stream


def test_bisect_rates_gives_each_row_its_single_row_result():
    # rows with different feasible sets, bisected through one stream: each
    # row sees the rates it sees alone, in the same order, and gets the
    # same result; a row without a certificate at the easy end gets None
    token = Certificate(rate=0.0, rate_kind="rho", P=np.eye(2), multipliers={},
                        margin=-1.0, tuning={})
    tests = [lambda r: r >= 0.6, lambda r: r >= 0.05, lambda r: False,
             lambda r: r >= 0.3 or 0.1 <= r <= 0.15, lambda r: r <= 0.4]
    for sense in ("min", "max"):
        for scan in (False, True):
            calls = []

            def probe(i, r):
                calls.append((i, r))
                return token if tests[i](r) else None

            stream = _builders_stream([lambda r, i=i: probe(i, r) for i in range(len(tests))])
            with warnings.catch_warnings(record=True):
                warnings.simplefilter("always")
                found = bisect_rates(stream, 0.05, 1.0, iters=9, scan=scan, sense=sense)
            assert len(found) == len(tests)
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
                assert [r for j, r in calls if j == i] == alone
    with pytest.warns(RuntimeWarning, match="not monotone"):
        bisect_rates(_builders_stream([lambda r: token if tests[3](r) else None]),
                     0.05, 1.0, iters=3, scan=True)


def test_dt_rows_in_lockstep_match_each_row_bisected_alone():
    # one stacked solve gives every row the rate and the certificate
    # bytes that it gets from its own sequential reference builder; a
    # second bisection on the same stream warm-starts each row from its
    # first one's last certificate, as a second bisection on the same
    # builder does, and keeps matching it
    requests = [CertRequest(1.0, L, 1.0 / (2.0 * L), beta, blo, disc)
                for L in (1.0, 10.0)
                for beta in [1.0 - 0.1 * np.sqrt(1.0 / (2.0 * L))]
                for blo, disc in ((beta, NES), (0.0, NES), (beta, POL), (0.0, POL))]
    stream = dt_rates_probe(requests, 150)
    builders = [ref.dt_rate_builder(req, max_oracle_calls=150) for req in requests]
    for _ in range(2):
        found = bisect_rates(stream, 0.05, 1.0, iters=5, scan=False)
        for builder, got in zip(builders, found, strict=True):
            try:
                rate, cert = bisect_rate(builder, 0.05, 1.0, iters=5, scan=False)
            except NoCertificate:
                assert got is None
                continue
            assert got[0] == rate
            assert got[1].to_json() == cert.to_json()
            assert got[1].raw_v.tobytes() == cert.raw_v.tobytes()
        assert sum(f is None for f in found) >= 1 and sum(f is not None for f in found) >= 4


def test_rows_that_certify_at_the_hard_end_match_each_row_bisected_alone():
    # at the optimal tuning every L = 1 row certifies at the hard end,
    # probed with the midpoints after it, while L = 10 rows keep bisecting or
    # fail at the easy end: each row gets the rate and certificate bytes of
    # its own sequential reference builder
    requests = [certify_request(method, L, 1.0, "optimal")
                for L, methods in ((1.0, ("nesterov", "hhb-nes", "hihb-pol")),
                                   (10.0, ("nesterov", "hhb-nes", "polyak")))
                for method in methods]
    found = bisect_rates(dt_rates_probe(requests), 0.05, 1.0, iters=3, scan=False)
    for req, got in zip(requests, found, strict=True):
        try:
            rate, cert = bisect_rate(ref.dt_rate_builder(req), 0.05, 1.0, iters=3,
                                     scan=False)
        except NoCertificate:
            assert got is None
            continue
        assert got[0] == rate
        assert got[1].to_json() == cert.to_json()
        assert got[1].raw_v.tobytes() == cert.raw_v.tobytes()
    assert [None if f is None else f[0] for f in found] == [0.05] * 3 + [0.88125, 1.0, None]


def _seeded_rows(seed: int) -> list:
    # three mistuned and three optimal rows of random methods and L
    rng = np.random.default_rng(seed)
    methods = ("nesterov", "polyak", "hhb-pol", "hhb-nes", "hihb-pol", "hihb-nes")
    return [certify_request(str(rng.choice(methods)), L, 1.0, rule)
            for rule in ("mistuned", "mistuned", "mistuned", "optimal", "optimal", "optimal")
            for L in [float(rng.choice([1.0, 2.0, 10.0, 100.0]))]]


@pytest.mark.parametrize("scan", [False, True])
def test_rows_probing_ahead_keep_each_rows_path_and_bits(monkeypatch, scan):
    # seeded rows bisected together through the stream, which keeps up to
    # LOOKAHEAD probes of each row's path in the stack: each row gets the
    # rate and certificate bytes of its own reference builder, and its path
    # probes reach _dt_certificate in path order, with the results that
    # the builder's solves get alone
    # with the scan, every other row: 32 scan probes a row cost more time
    requests = _seeded_rows(18)[::2 if scan else 1]
    seen, joined, dropped = [], [], []
    real_cert, real_stream = hbreset.lmi._dt_certificate, hbreset.lmi.solve_stream

    def recording_cert(data, rho, res):
        seen.append((data, rho, _result_bits(res)))
        return real_cert(data, rho, res)

    def recording_stream(feed, max_oracle_calls):
        def fed(decided):
            joining, dropping = feed(decided)
            joined.extend(joining)
            dropped.extend(dropping)
            return joining, dropping

        real_stream(fed, max_oracle_calls)

    memo, real_solve = {}, sdp.solve_feasibility

    def remembered(problem, budget, v_init=None):
        # the single solves of the builders: a row's path at one depth
        # begins with its path at any smaller depth, and a solve repeats
        # bit for bit, so the deepest bisection's solves serve the rest
        key = repr((problem_to_json(problem), budget,
                    v_init if v_init is None else v_init.tobytes()))
        if key not in memo:
            memo[key] = real_solve(problem, budget, v_init)
        return memo[key]

    monkeypatch.setattr(hbreset.lmi, "_dt_certificate", recording_cert)
    monkeypatch.setattr(hbreset.lmi, "solve_stream", recording_stream)
    monkeypatch.setattr(sdp, "solve_feasibility", remembered)
    for iters in (9, 3, 1, 0):
        seen.clear()
        stream = dt_rates_probe(requests)
        with warnings.catch_warnings(record=True):
            warnings.simplefilter("always")
            found = bisect_rates(stream, 0.05, 1.0, iters=iters, scan=scan)
        paths = [[(rho, bits) for data, rho, bits in seen if data is row]
                 for row in stream.rows]
        assert sum(map(len, paths)) == len(seen)
        builders = [ref.dt_rate_builder(req) for req in requests]
        for req, got, path, builder in zip(requests, found, paths, builders, strict=True):
            seen.clear()
            try:
                with warnings.catch_warnings(record=True):
                    warnings.simplefilter("always")
                    rate, cert = bisect_rate(builder, 0.05, 1.0, iters=iters, scan=scan)
            except NoCertificate:
                rate = cert = None
            assert [(rho, bits) for _, rho, bits in seen] == path
            assert (got is None) == (cert is None)
            if cert is not None:
                assert got[0] == rate
                assert got[1].to_json() == cert.to_json()
                assert got[1].raw_v.tobytes() == cert.raw_v.tobytes()
        # each row's warm start after the bisection is its path's last
        # certificate, the one its builder holds
        for after, builder in zip(ref.probe_at(stream, 0.99), builders, strict=True):
            want = builder(0.99)
            assert (after is None) == (want is None)
            assert after is None or after.raw_v.tobytes() == want.raw_v.tobytes()
    # the stack held probes off the decided paths, and certificates
    # cancelled some of them
    assert dropped and len(joined) > len(dropped) + len(seen)


def test_rows_of_a_wide_grid_share_the_stack(monkeypatch):
    # past STACK_ROWS / LOOKAHEAD rows still searching, each row keeps
    # STACK_ROWS // rows probes of its path in the stack: six rows in a
    # stack of 12 keep at most two each while all of them search and more
    # as rows finish, never more than LOOKAHEAD, and every row keeps its
    # rate and certificate (at these rows, a row keeps three probes while
    # three rows search)
    requests = _seeded_rows(19)
    want = bisect_rates(dt_rates_probe(requests), 0.05, 1.0, iters=3, scan=False)
    stacked, shares = set(), []
    real_stream = hbreset.lmi.solve_stream

    def recording_stream(feed, max_oracle_calls):
        def fed(decided):
            stacked.difference_update(key for key, _ in decided)
            joining, dropping = feed(decided)
            stacked.difference_update(dropping)
            stacked.update(key for key, _, _ in joining)
            # a probe's face twin (L == mu) is the same probe
            rows = [i for i, _ in {key[:2] for key in stacked}]
            # (probes of the fullest row, rows in the stack)
            shares.append((max(map(rows.count, rows), default=0), len(set(rows))))
            return joining, dropping

        real_stream(fed, max_oracle_calls)

    monkeypatch.setattr(hbreset.lmi, "solve_stream", recording_stream)
    monkeypatch.setattr(hbreset.lmi, "STACK_ROWS", 12)
    found = bisect_rates(dt_rates_probe(requests), 0.05, 1.0, iters=3, scan=False)
    assert all(most <= 12 // max(rows, 1) for most, rows in shares)
    assert (2, 6) in shares and 2 < max(shares)[0] <= hbreset.lmi.LOOKAHEAD
    for got, ref in zip(found, want, strict=True):
        assert (got is None) == (ref is None)
        if ref is not None:
            assert got[0] == ref[0]
            assert got[1].to_json() == ref[1].to_json()
            assert got[1].raw_v.tobytes() == ref[1].raw_v.tobytes()


def test_bench_config_rows_wait_only_for_their_own_probes(monkeypatch, tmp_path):
    # one phase-I pass evaluates every live probe once, and each row keeps
    # up to LOOKAHEAD probes of its path in the stack: the bench config
    # makes the 66 path probes of 18 rows bisected alone in 92 passes, for
    # 2,529 row evaluations, the face twins of the six L = mu rows' probes
    # included; 16 of the path probes end
    # FEASIBLE and 50 INFEASIBLE, 20 of them on the face, where the full
    # form alone ends INDETERMINATE ("Newton system not positive definite")
    evals, probes = [], []
    real_eigh, real_cert = sdp._block_eigh, hbreset.lmi._dt_certificate

    def counting_eigh(groups, w):
        evals.append(len(w))
        return real_eigh(groups, w)

    def counting_cert(data, rho, res):
        probes.append((res.status, res.message.startswith(ref.FACE_MESSAGE)))
        return real_cert(data, rho, res)

    monkeypatch.setattr(sdp, "_block_eigh", counting_eigh)
    monkeypatch.setattr(hbreset.lmi, "_dt_certificate", counting_cert)
    assert cli_main(["certify", "--grid-L", "1,10,100", "--bisect-iters", "3",
                     "--out", str(tmp_path)]) == 0
    assert len(probes) == 66
    assert sum(evals) == 2529
    assert len(evals) == 92
    statuses = [status for status, _ in probes]
    assert [statuses.count(s) for s in (FEASIBLE, INFEASIBLE, INDETERMINATE)] == [16, 50, 0]
    assert probes.count((INFEASIBLE, True)) == 20


def test_certificate_json_round_trip():
    cert = dt_feasible(build_theorem2(dt_system(0.1, 0.0, 0.0, POL),
                                      1.0, 10.0, 0.95))
    assert cert is not None
    text = cert.to_json()
    back = json.loads(text)
    assert back["rate"] == cert.rate
    assert back["rate_kind"] == cert.rate_kind
    np.testing.assert_array_equal(np.array(back["P"]), cert.P)
    assert back["multipliers"] == cert.multipliers
    assert back["tuning"] == cert.tuning
    assert set(back) == {"rate", "rate_kind", "P", "multipliers", "margin", "tuning"}
    assert back["margin"] == cert.margin
    assert json.dumps(back, sort_keys=True) == text


def test_problem_export():
    ct = ref.ct_problem(build_ct(2.0, 1.0, 10.0), 0.5, 1e-6)
    assert ct.nvar == 6
    dt = dt_problem(build_theorem2(dt_system(0.1, 0.5, 0.0, POL), 1.0, 10.0, 0.9))
    assert dt.nvar == 8
    for prob in (ct, dt):
        text = problem_to_json(prob)
        assert '"nvar"' in text


def test_lyapunov_requires_discrete_certificate_and_minimum():
    data = build_ct(1.0, 1.0, 2.0, b_coupled=True)
    (ct_cert,) = ref.probe_at(ct_rates_probe([data], 1e-6), 0.3)
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
