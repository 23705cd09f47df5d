"""Two-step iteration family: step maps, switching law, trajectory records.

The scalar step and loop of `_reference` are the bitwise reference for
`run_many`'s stacked loop, and so for `run`, its stack of one.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import _reference as ref
from hbreset.discrete import (AlgoParams, STATUS_CONVERGED, STATUS_DIVERGED,
                              STATUS_MAX_ITER, Trajectory, Variant,
                              count_nonmonotone, nesterov_beta_schedule, run,
                              run_many, switching_beta)
from hbreset.objectives import (LogisticSpec, QuadraticSpec, gen_random_quadratic,
                                logistic_model, quadratic_model)


def scalar_model(curv=2.0):
    return quadratic_model(QuadraticSpec(Q=np.array([[curv]]), b=np.zeros(1)))

def test_params_h_is_eps_squared_exactly():
    p = AlgoParams(eps=0.3, beta_lo=0.1, beta_hi=0.5, variant=Variant.POL)
    assert p.h == 0.3 * 0.3
    q = AlgoParams.from_h(1e-4, 0.0, 0.9, Variant.NES)
    assert q.eps == math.sqrt(1e-4)
    assert q.h == pytest.approx(1e-4, rel=1e-15)


def test_params_validation():
    with pytest.raises(ValueError):
        AlgoParams(eps=0.0)
    with pytest.raises(ValueError):
        AlgoParams(eps=0.1, beta_lo=0.6, beta_hi=0.5)
    with pytest.raises(ValueError):
        AlgoParams(eps=0.1, beta_lo=0.0, beta_hi=1.5)
    # GD ignores the beta ordering check
    AlgoParams(eps=0.1, beta_lo=0.0, beta_hi=0.0, variant=Variant.GD)
    for bad in ({"eps": math.nan}, {"eps": math.inf},
                {"eps": 0.1, "beta_lo": math.nan, "beta_hi": 0.5},
                {"eps": 0.1, "beta_hi": math.inf, "variant": Variant.GD}):
        with pytest.raises(ValueError):
            AlgoParams(**bad)
    with pytest.raises(ValueError):
        AlgoParams.from_h(math.nan)


def test_params_json_round_trip():
    p = AlgoParams(eps=0.05, beta_lo=0.2, beta_hi=0.8, variant=Variant.NES)
    q = AlgoParams.from_json(p.to_json())
    assert q == p


def test_initial_state_embedding():
    q0 = np.array([1.0, -2.0])
    p0 = np.array([0.5, 0.25])
    st = ref.initial_state(q0, eps=0.1, p0=p0)
    np.testing.assert_allclose(st.q_prev, q0 - 0.1 * p0)
    np.testing.assert_allclose(st.p, p0)
    st0 = ref.initial_state(q0, eps=0.1)
    np.testing.assert_allclose(st0.q_prev, q0)
    np.testing.assert_allclose(st.p * 0.1, st.q - st.q_prev, rtol=0, atol=1e-12)


def test_switching_law_boundary_resets():
    for inner in (np.float64(-1.0), -1.0, -1e-300):
        beta, reset = switching_beta(inner, 0.2, 0.9)
        assert beta == 0.9 and reset is np.False_
    # the boundary <g, p> = 0, of either sign, and a NaN take the reset
    # branch, whether inner is a numpy scalar or a Python float
    for inner in (np.float64(1.0), 1.0, 0.0, -0.0, math.nan, np.float64(-0.0)):
        beta, reset = switching_beta(inner, 0.2, 0.9)
        assert beta == 0.2 and reset is np.True_
    # a (B,) array of inner products, with scalar or (B,) betas
    inner = np.array([-1.0, 1.0, 0.0, -0.0, math.nan, -math.inf, math.inf])
    kept = np.array([True, False, False, False, False, True, False])
    beta, reset = switching_beta(inner, 0.2, 0.9)
    assert reset.dtype == bool and reset.tolist() == (~kept).tolist()
    assert beta.tolist() == np.where(kept, 0.9, 0.2).tolist()
    lo, hi = np.linspace(0.0, 0.3, 7), np.linspace(0.5, 0.8, 7)
    beta, reset = switching_beta(inner, lo, hi)
    assert beta.tolist() == np.where(kept, hi, lo).tolist()
    assert reset.tolist() == (~kept).tolist()


def test_step_pol_matches_classic_recursion():
    model = scalar_model(3.0)
    p = AlgoParams(eps=0.2, beta_lo=0.5, beta_hi=0.5, variant=Variant.POL)
    st = ref.initial_state(np.array([1.0]), p.eps, np.array([0.7]))
    beta = 0.5
    nxt = ref.step(st, p, model)
    expected = st.q + beta * (st.q - st.q_prev) - p.h * model.gradient(st.q)
    np.testing.assert_allclose(nxt.q, expected, rtol=1e-14)
    np.testing.assert_allclose(nxt.p, (nxt.q - st.q) / p.eps, rtol=1e-14)
    assert nxt.k == 1


def test_step_nes_gradient_at_extrapolated_point():
    model = scalar_model(3.0)
    p = AlgoParams(eps=0.2, beta_lo=0.6, beta_hi=0.6, variant=Variant.NES)
    st = ref.initial_state(np.array([1.0]), p.eps, np.array([0.7]))
    nxt = ref.step(st, p, model)
    y = st.q + 0.6 * (st.q - st.q_prev)
    expected = st.q + 0.6 * (st.q - st.q_prev) - p.h * model.gradient(y)
    np.testing.assert_allclose(nxt.q, expected, rtol=1e-14)


def test_step_gd_is_plain_descent():
    model = scalar_model(5.0)
    p = AlgoParams(eps=0.1, variant=Variant.GD)
    st = ref.initial_state(np.array([2.0]), p.eps)
    nxt = ref.step(st, p, model)
    np.testing.assert_allclose(nxt.q, st.q - p.h * model.gradient(st.q))


def test_reset_branch_equals_momentum_zeroing():
    # beta_lo = 0 on the reset branch reproduces a step from (q, p=0)
    model = scalar_model(2.0)
    p = AlgoParams(eps=0.1, beta_lo=0.0, beta_hi=0.8, variant=Variant.POL)
    # ascending state: grad and momentum aligned, so <g, p> > 0
    st = ref.initial_state(np.array([1.0]), p.eps, np.array([0.5]))
    assert float(model.gradient(st.q) @ st.p) > 0
    nxt = ref.step(st, p, model)
    zeroed = ref.initial_state(st.q, p.eps)  # same point, no momentum
    nxt0 = ref.step(zeroed, p, model)
    np.testing.assert_allclose(nxt.q, nxt0.q, rtol=1e-15)


def test_beta_schedule_recursion_invariant():
    alpha = 1.0
    beta, alpha_next = nesterov_beta_schedule(alpha)
    assert beta == 0.0  # alpha_0 = 1 makes the first extrapolation vanish
    for _ in range(50):
        beta, nxt = nesterov_beta_schedule(alpha)
        # alpha_next solves a^2 = (1 - a) alpha^2
        assert nxt * nxt == pytest.approx((1.0 - nxt) * alpha * alpha, rel=1e-12)
        assert beta == pytest.approx(alpha * (1.0 - alpha) / (alpha * alpha + nxt),
                                     rel=1e-12)
        assert 0.0 <= beta < 1.0
        alpha = nxt
    with pytest.raises(ValueError):
        nesterov_beta_schedule(0.0)


@pytest.mark.parametrize("variant", list(Variant))
def test_run_record_counts_and_state_pairs(variant):
    _, model = gen_random_quadratic(4, 10.0, 3)
    p = AlgoParams.from_h(1.0 / 10.0, 0.3, 0.3, variant)
    q0 = np.ones(4)
    traj = run(model, p, q0, max_iter=25)
    assert len(traj) == 26
    assert traj.iterations == 25
    assert traj.status == STATUS_MAX_ITER
    assert len(traj.phi_gaps) == len(traj) == len(traj.betas) == len(traj.resets)
    # the run keeps no iterates; stepping from q0 again with the reference
    # step rebuilds them, and they reproduce the recorded gaps and gradient
    # norms bit for bit. NES_SCHEDULE takes the schedule's beta.
    states, alpha = [ref.initial_state(q0, p.eps)], 1.0
    for _ in range(traj.iterations):
        beta = None
        if variant is Variant.NES_SCHEDULE:
            beta, alpha = nesterov_beta_schedule(alpha)
        states.append(ref.step(states[-1], p, model, beta=beta))
    assert [model.gap(s.q) for s in states] == traj.phi_gaps.tolist()
    assert ([float(np.linalg.norm(model.gradient(s.q))) for s in states]
            == traj.grad_norms.tolist())
    np.testing.assert_array_equal(traj.q, states[-1].q)
    assert traj.phi == model.value(states[-1].q)
    prev, cur = states[0].q_prev, states[0].q
    np.testing.assert_allclose(cur, q0)
    np.testing.assert_allclose(prev, q0)  # p0 = 0
    prev, cur = states[5].q_prev, states[5].q
    np.testing.assert_array_equal(prev, states[4].q)
    np.testing.assert_array_equal(cur, states[5].q)
    assert_same_run(traj, ref.run(model, p, q0, 25))


def test_run_grad_tol_stops_early():
    model = scalar_model(4.0)
    p = AlgoParams.from_h(0.25, variant=Variant.GD)  # exact one-step solve
    traj = run(model, p, np.array([3.0]), max_iter=50, grad_tol=1e-12)
    assert traj.status == STATUS_CONVERGED
    assert traj.iterations <= 2


def test_run_divergence_guard():
    model = scalar_model(100.0)
    p = AlgoParams.from_h(1.0, variant=Variant.GD)  # wildly unstable
    traj = run(model, p, np.array([1.0]), max_iter=1000)
    assert traj.status == STATUS_DIVERGED
    assert traj.iterations < 1000


@pytest.mark.parametrize("variant, calls_per_step", [
    (Variant.POL, 1), (Variant.GD, 1), (Variant.NES, 2), (Variant.NES_SCHEDULE, 2)])
def test_run_one_oracle_call_per_iterate(variant, calls_per_step):
    _, base = gen_random_quadratic(4, 10.0, 3)
    calls = []

    def value_grad(q):
        calls.append(1)
        return base.value_grad(q)

    model = dataclasses.replace(base, value_grad=value_grad)
    calls.clear()
    p = AlgoParams.from_h(1.0 / 10.0, 0.2, 0.6, variant)
    traj = run(model, p, np.ones(4), max_iter=30)
    assert traj.iterations == 30
    # NES variants add the gradient at the extrapolated point
    assert len(calls) == calls_per_step * 30 + 1


@pytest.mark.parametrize("variant", list(Variant))
def test_run_raises_on_nan_gradient_with_finite_value(variant):
    # the tuner scores a FloatingPointError as a failed setting; the
    # oracle takes one point or a stack
    base = scalar_model(2.0)

    def value_grad(q):
        phi, g = base.value_grad(q)
        return phi, np.where(q[..., :1] > 0.5, g, np.nan)

    model = dataclasses.replace(base, value_grad=value_grad, minimizer=None,
                                min_value=None)
    p = AlgoParams.from_h(0.1, 0.3, 0.3, variant)
    for runner in (run, ref.run):
        with pytest.raises(FloatingPointError):
            runner(model, p, np.array([1.0]), max_iter=50)


def test_run_nes_schedule_uses_recursion_betas():
    _, model = gen_random_quadratic(3, 8.0, 11)
    p = AlgoParams.from_h(1.0 / 8.0, variant=Variant.NES_SCHEDULE)
    traj = run(model, p, np.zeros(3) + 2.0, max_iter=10)
    alpha, expected = 1.0, []
    for _ in range(len(traj)):
        beta, alpha = nesterov_beta_schedule(alpha)
        expected.append(beta)
    np.testing.assert_allclose(traj.betas, expected, rtol=1e-12)
    assert not any(traj.resets)


def test_trajectory_csv_format_and_determinism(tmp_path):
    _, model = gen_random_quadratic(3, 12.0, 6)
    p = AlgoParams.from_h(1.0 / 12.0, 0.2, 0.7, Variant.NES)
    traj = run(model, p, np.ones(3) * 5.0, max_iter=40)
    f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
    traj.to_csv(f1)
    run(model, p, np.ones(3) * 5.0, max_iter=40).to_csv(f2)
    assert f1.read_bytes() == f2.read_bytes()
    lines = f1.read_text().splitlines()
    assert lines[0] == "k,phi_gap,inner_sign,beta,reset,grad_norm"
    assert len(lines) == len(traj) + 1
    first = lines[1].split(",")
    assert first[0] == "0"
    assert float(first[1]) == pytest.approx(traj.phi_gaps[0], rel=1e-16)


def test_iterations_to_gap():
    _, model = gen_random_quadratic(4, 5.0, 2)
    p = AlgoParams.from_h(1.0 / 5.0, variant=Variant.GD)
    traj = run(model, p, np.ones(4), max_iter=500)
    k = traj.iterations_to_gap(1e-8)
    assert k is not None
    assert traj.phi_gaps[k] <= 1e-8
    assert all(g > 1e-8 for g in traj.phi_gaps[:k])
    assert traj.iterations_to_gap(-1.0) is None


def test_count_nonmonotone_hand_case():
    p = AlgoParams(eps=0.1, variant=Variant.GD)
    traj = Trajectory(params=p, phi_gaps=[5.0, 3.0, 4.0, 1.0, 2.0],
                      inner_signs=[0] * 5, betas=[0.0] * 5,
                      resets=[False] * 5, grad_norms=[0.0] * 5,
                      q=np.zeros(1), phi=2.0)
    assert count_nonmonotone(traj) == 2
    traj.phi_gaps[2] = float("nan")
    with pytest.raises(ValueError):
        count_nonmonotone(traj)


def test_reset_count_drops_with_reset_branch():
    # hard-reset variant suppresses nonmonotone steps on a stiff quadratic
    _, model = gen_random_quadratic(10, 1000.0, 4)
    rng = np.random.default_rng(4)
    q0 = rng.uniform(-50.0, 50.0, 10)
    eps = math.sqrt(1e-4)
    beta = 1.0 - eps * 1.0  # underestimated damping
    classic = run(model, AlgoParams(eps=eps, beta_lo=beta, beta_hi=beta,
                                    variant=Variant.POL), q0, 3000)
    reset = run(model, AlgoParams(eps=eps, beta_lo=0.0, beta_hi=beta,
                                  variant=Variant.POL), q0, 3000)
    assert count_nonmonotone(reset) < count_nonmonotone(classic)
    assert reset.phi_gaps[-1] < classic.phi_gaps[-1]


def assert_same_run(a, b):
    """Two trajectories agree bit for bit: records, status, final q and phi."""
    assert (a.status, len(a), a.phi) == (b.status, len(b), b.phi)
    for name in ("phi_gaps", "inner_signs", "betas", "resets", "grad_norms"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), name
    assert a.q.tobytes() == b.q.tobytes()


V = Variant


@settings(max_examples=40, deadline=None, database=None)
@given(n=st.integers(2, 8), cond=st.floats(1.0, 1e3), seed=st.integers(0, 2 ** 16),
       runs=st.lists(st.tuples(st.sampled_from(list(Variant)),
                               st.floats(-2.0, 1.0),  # log10(h * L)
                               st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
                     min_size=1, max_size=12),
       max_iter=st.integers(0, 300), tol_frac=st.sampled_from([0.0, 1e-3, 0.5]))
# all four variants: the first POL row meets grad_tol at k = 111, the NES
# row diverges at k = 6, and the rest run to max_iter
@example(n=4, cond=100.0, seed=1, max_iter=200, tol_frac=1e-3,
         runs=[(V.POL, 0.0, 0.0, 0.9), (V.NES, 1.0, 0.5, 0.5), (V.GD, -1.0, 0.0, 0.0),
               (V.NES_SCHEDULE, -1.0, 0.0, 0.0), (V.POL, -1.5, 0.2, 0.2)])
# every NES and NES_SCHEDULE row diverges first, so the extrapolated
# sub-stack empties while the POL and GD rows go on
@example(n=4, cond=100.0, seed=1, max_iter=100, tol_frac=0.0,
         runs=[(V.POL, -1.0, 0.0, 0.9), (V.NES, 1.0, 0.5, 0.5),
               (V.NES_SCHEDULE, 1.0, 0.0, 0.0), (V.GD, -1.0, 0.0, 0.0),
               (V.POL, -0.5, 0.3, 0.8)])
# every POL row diverges first (at k = 6 and 9)
@example(n=4, cond=100.0, seed=1, max_iter=100, tol_frac=0.0,
         runs=[(V.POL, 1.0, 0.0, 0.9), (V.POL, 0.8, 0.5, 0.5), (V.NES, -1.0, 0.2, 0.9),
               (V.NES_SCHEDULE, -1.0, 0.0, 0.0), (V.GD, -1.0, 0.0, 0.0)])
def test_run_many_matches_run_bitwise(n, cond, seed, runs, max_iter, tol_frac):
    # rows that diverge (h*L up to 10), meet grad_tol early or run to
    # max_iter, in one stack of mixed variants, leave the stack at their
    # own iterate and must record what the reference loop records alone
    _, model = gen_random_quadratic(n, cond, seed)
    q0 = np.random.default_rng(seed).uniform(-10.0, 10.0, n)
    grad_tol = tol_frac * float(np.linalg.norm(model.gradient(q0)))
    params = [AlgoParams.from_h(10.0 ** lh / model.lipschitz, min(a, b), max(a, b),
                                variant) for variant, lh, a, b in runs]
    trajs = run_many(model, params, q0, max_iter, grad_tol)
    assert len(trajs) == len(params)
    for p, traj in zip(params, trajs):
        assert traj.params is p
        assert_same_run(traj, ref.run(model, p, q0, max_iter, grad_tol))


def test_run_many_covers_every_stop():
    _, model = gen_random_quadratic(5, 100.0, 8)
    q0 = np.full(5, 3.0)
    tol = 1e-6 * float(np.linalg.norm(model.gradient(q0)))
    params = [AlgoParams.from_h(h / model.lipschitz, 0.0, 0.9, Variant.POL)
              for h in (0.5, 1e-3, 30.0)]
    trajs = run_many(model, params, q0, 400, tol)
    assert [t.status for t in trajs] == [STATUS_CONVERGED, STATUS_MAX_ITER,
                                         STATUS_DIVERGED]
    assert len({len(t) for t in trajs}) == 3
    for p, traj in zip(params, trajs):
        assert_same_run(traj, ref.run(model, p, q0, 400, tol))
    assert run_many(model, [], q0, 10) == []
    with pytest.raises(ValueError):
        run_many(model, params, q0, -1)


def test_values_last_reads_phi_where_a_run_stops_or_may_diverge():
    # phi = log(1 + e^-q) + log(1 + e^q) from q0 = 1, so phi0 = 1.63 and the
    # guard is 1.63e12. gd at h = 2.64e12 swings between q = -1.22e12 and
    # 1.42e12, where phi <= guard < the bound 2 (|q| + 2): every iterate
    # takes the exact fallback and the run reaches max_iter. h = 1e13
    # diverges at k = 1, the runs at h in [0.5, 1] meet grad_tol, and
    # gd at h = 1e-3 reaches max_iter with its value skipped until then.
    spec = LogisticSpec(features=np.ones((1, 2)), labels=np.array([1.0, -1.0]))
    model = dataclasses.replace(logistic_model(spec), min_value=0.0)  # gap = phi
    q0 = np.ones(1)
    params = [AlgoParams.from_h(h, 0.3, 0.3, variant) for h, variant in (
        (2.64e12, V.GD), (1e13, V.GD), (1e13, V.POL), (1e13, V.NES),
        (1.0, V.GD), (1.0, V.POL), (1.0, V.NES_SCHEDULE), (0.5, V.NES),
        (1e-3, V.GD))]
    trajs = run_many(model, params, q0, 60, 1e-9, values="last")
    assert [t.status for t in trajs] == ([STATUS_MAX_ITER] + [STATUS_DIVERGED] * 3
                                         + [STATUS_CONVERGED] * 4 + [STATUS_MAX_ITER])
    for p, traj in zip(params, trajs):
        alone = run(model, p, q0, 60, 1e-9)
        # phi, status, final q and every other record are run's; a gap is
        # NaN only where the value was skipped, never where the run stops
        assert_same_run(dataclasses.replace(traj, phi_gaps=alone.phi_gaps), alone)
        read = ~np.isnan(traj.phi_gaps)
        assert read[0] and read[-1]
        assert traj.phi_gaps[read].tobytes() == alone.phi_gaps[read].tobytes()
    assert not np.isnan(trajs[0].phi_gaps).any()
    assert all(np.isnan(t.phi_gaps[1:-1]).all() for t in trajs[4:])
    # a model without bound_grad evaluates every iterate as before
    _, quad = gen_random_quadratic(4, 100.0, 1)
    q0 = np.full(4, 3.0)
    params = [AlgoParams.from_h(h / quad.lipschitz, 0.2, 0.9, variant)
              for h, variant in ((0.5, V.POL), (1.0, V.NES), (30.0, V.GD),
                                 (0.1, V.NES_SCHEDULE))]
    for p, traj in zip(params, run_many(quad, params, q0, 80, 1e-6, values="last")):
        assert_same_run(traj, run(quad, p, q0, 80, 1e-6))
    with pytest.raises(ValueError, match="values"):
        run_many(quad, params, q0, 10, values="first")


def test_nes_schedule_steps_past_a_nan_gradient_at_its_iterate():
    # NES_SCHEDULE steps by the gradient at its extrapolated point alone,
    # so a NaN gradient at q_1 = 0.8 (h = 0.1 on phi = q^2) is recorded,
    # not raised, by run_many and the reference alike; the GD row (h = 1e-6) never
    # comes near q = 0.8
    base = scalar_model(2.0)

    def value_grad(q):
        phi, g = base.value_grad(q)
        return phi, np.where(np.abs(q[..., :1] - 0.8) < 1e-9, np.nan, g)

    model = dataclasses.replace(base, value_grad=value_grad, minimizer=None,
                                min_value=None)
    params = [AlgoParams.from_h(0.1, variant=Variant.NES_SCHEDULE),
              AlgoParams.from_h(1e-6, variant=Variant.GD)]
    trajs = run_many(model, params, np.array([1.0]), max_iter=20)
    assert np.isnan(trajs[0].grad_norms[1]) and trajs[0].status == STATUS_MAX_ITER
    for p, traj in zip(params, trajs):
        assert_same_run(traj, ref.run(model, p, np.array([1.0]), max_iter=20))


@pytest.mark.parametrize("variant", list(Variant))
def test_run_many_raises_on_nan_gradient_in_one_live_row(variant):
    # as the reference does: the row with h = 0.5 crosses q = 0.5 first,
    # while the other row is still live
    base = scalar_model(2.0)

    def value_grad(q):
        phi, g = base.value_grad(q)
        return phi, np.where(q[..., :1] > 0.5, g, np.nan)

    model = dataclasses.replace(base, value_grad=value_grad, minimizer=None,
                                min_value=None)
    params = [AlgoParams.from_h(h, 0.3, 0.3, variant) for h in (0.5, 1e-4)]
    with pytest.raises(FloatingPointError):
        ref.run(model, params[0], np.array([1.0]), max_iter=50)
    alone = ref.run(model, params[1], np.array([1.0]), max_iter=50)
    assert alone.status == STATUS_MAX_ITER
    with pytest.raises(FloatingPointError):
        run_many(model, params, np.array([1.0]), max_iter=50)


def test_run_many_raises_on_nan_gradient_in_a_nes_row_of_a_mixed_stack():
    # as above, with the row that crosses q = 0.5 (h = 0.5) a NES row of a
    # stack that holds every variant
    base = scalar_model(2.0)

    def value_grad(q):
        phi, g = base.value_grad(q)
        return phi, np.where(q[..., :1] > 0.5, g, np.nan)

    model = dataclasses.replace(base, value_grad=value_grad, minimizer=None,
                                min_value=None)
    params = [AlgoParams.from_h(h, 0.3, 0.3, variant) for h, variant in (
        (1e-4, Variant.POL), (1e-4, Variant.GD), (0.5, Variant.NES),
        (1e-4, Variant.NES_SCHEDULE))]
    for p in params[:2] + params[3:]:
        assert ref.run(model, p, np.array([1.0]), max_iter=50).status == STATUS_MAX_ITER
    with pytest.raises(FloatingPointError):
        ref.run(model, params[2], np.array([1.0]), max_iter=50)
    with pytest.raises(FloatingPointError):
        run_many(model, params, np.array([1.0]), max_iter=50)


def test_trajectory_csv_matches_per_value_formatting(tmp_path):
    # csv17 formats whole chunks of values in numpy, with the integer columns
    # and the betas (-0.0 among them) as floats; it must give the bytes of
    # formatting each record on its own
    _, model = gen_random_quadratic(4, 50.0, 5)
    cases = [(Variant.NES, 0.0, 0.95),
             (Variant.POL, -0.0, 0.0),  # betas -0.0 (reset) and 0.0 in one run
             (Variant.NES_SCHEDULE, 0.0, 0.0)]  # a new beta at every iterate
    for variant, beta_lo, beta_hi in cases:
        p = AlgoParams.from_h(0.5 / 50.0, beta_lo, beta_hi, variant)
        traj = run(model, p, np.full(4, 20.0), max_iter=2500)
        assert len(traj) > 2048
        if variant is Variant.NES:
            assert traj.resets.any() and (traj.inner_signs < 0).any()
        if variant is Variant.POL:
            assert np.signbit(traj.betas).any() and not np.signbit(traj.betas).all()
        if variant is Variant.NES_SCHEDULE:
            assert len(np.unique(traj.betas)) > 2048
        path = tmp_path / f"traj_{variant.value}.csv"
        traj.to_csv(path)
        lines = ["k,phi_gap,inner_sign,beta,reset,grad_norm"]
        for k in range(len(traj)):
            lines.append("%d,%.17g,%d,%.17g,%d,%.17g" % (
                k, float(traj.phi_gaps[k]), int(traj.inner_signs[k]),
                float(traj.betas[k]), int(traj.resets[k]),
                float(traj.grad_norms[k])))
        assert path.read_text() == "\n".join(lines) + "\n", variant
