"""Objective construction, generators, and their analytic invariants."""

import dataclasses
import json
import math
import os
import subprocess
import sys
import textwrap
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import _reference as ref
import hbreset

from hbreset.discrete import DIVERGENCE_FACTOR, _screen
from hbreset.objectives import (LogisticSpec, ObjectiveModel, QuadraticSpec, _expit,
                                gen_logistic_dataset, gen_random_quadratic,
                                logistic_eval_grad, logistic_grad,
                                logistic_lipschitz, logistic_model,
                                quad_eval_grad, quad_from_json, quad_to_json,
                                quadratic_model)
from hbreset.lmi import build_sector


def test_quad_eval_grad_matches_direct_algebra():
    rng = np.random.default_rng(0)
    for _ in range(20):
        n = int(rng.integers(1, 8))
        A = rng.standard_normal((n, n))
        Q = A @ A.T + np.eye(n)
        b = rng.standard_normal(n)
        q = rng.standard_normal(n)
        spec = QuadraticSpec(Q=Q, b=b)
        val, grad = quad_eval_grad(spec, q)
        assert val == pytest.approx(0.5 * q @ Q @ q + b @ q, rel=1e-12)
        np.testing.assert_allclose(grad, Q @ q + b, rtol=1e-12)


def test_quad_eval_grad_stack_rows_match_single_points_bitwise():
    # discrete.run_many relies on this to reproduce run bit for bit
    rng = np.random.default_rng(4)
    for n, stack in ((1, 50), (7, 300), (50, 2000)):
        A = rng.standard_normal((n, n))
        spec = QuadraticSpec(Q=A @ A.T + np.eye(n), b=rng.uniform(-100, 100, n))
        X = rng.uniform(-100.0, 100.0, (stack, n))
        vals, grads = quad_eval_grad(spec, X)
        assert vals.shape == (stack,) and grads.shape == (stack, n)
        for x, val, grad in zip(X, vals, grads):
            one_val, one_grad = quad_eval_grad(spec, x)
            assert type(one_val) is float and one_val == val
            assert one_grad.tobytes() == grad.tobytes()
        # a strided stack (every third row) gives the same bits
        sub_vals, sub_grads = quad_eval_grad(spec, X[::3])
        assert sub_vals.tobytes() == vals[::3].tobytes()
        assert sub_grads.tobytes() == grads[::3].tobytes()
    with pytest.raises(ValueError):
        quad_eval_grad(spec, np.zeros((2, 3, n)))
    with pytest.raises(ValueError):
        quad_eval_grad(spec, np.zeros((2, n + 1)))


def test_symmetry_check_takes_the_unscaled_decision_without_overflow():
    # ||Q - Q'|| <= 1e-12 max(1, ||Q||) decides, as the unscaled Frobenius
    # norms decide it, on both sides of the bound and near the float range,
    # where those norms overflow
    with np.errstate(over="raise"):
        for big in (1.0, 3e5, 1e300, 1.7e308):
            QuadraticSpec(Q=np.array([[big, big], [big, big]]), b=np.zeros(2))
            QuadraticSpec(Q=np.array([[big, big], [big * (1 + 2 ** -45), big]]), b=np.zeros(2))
            with pytest.raises(ValueError, match="not symmetric"):
                QuadraticSpec(Q=np.array([[big, big], [big * (1 + 2 ** -30), big]]),
                              b=np.zeros(2))
        QuadraticSpec(Q=np.array([[0.0, 0.0], [7e-13, 0.0]]), b=np.zeros(2))
        with pytest.raises(ValueError, match="not symmetric"):
            QuadraticSpec(Q=np.array([[0.0, 0.0], [7.1e-13, 0.0]]), b=np.zeros(2))


def test_quadratic_model_minimizer_and_gap():
    rng = np.random.default_rng(1)
    A = rng.standard_normal((5, 5))
    spec = QuadraticSpec(Q=A @ A.T + np.eye(5), b=rng.standard_normal(5))
    model = quadratic_model(spec)
    np.testing.assert_allclose(spec.Q @ model.minimizer, -spec.b, atol=1e-9)
    assert model.gap(model.minimizer) == pytest.approx(0.0, abs=1e-9)
    assert model.gap(model.minimizer + 1.0) > 0.0


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_minimizer_check_scales_with_the_curvature(seed):
    # a solve's residual grows with L: at cond 1e9 and 1e12 (n = 10) the
    # solved minimizer's gradient is past 1e-8 max(1, ||q*||), and passes
    # the check, which scales that by max(1, L). At 1e12 a minimizer off
    # by 1e-6 in each entry fails it
    for cond in (1e9, 1e12):
        _, model = gen_random_quadratic(10, cond, seed)
        residual = np.linalg.norm(model.gradient(model.minimizer))
        assert residual > 1e-8 * max(1.0, np.linalg.norm(model.minimizer))
    with pytest.raises(ValueError, match="at claimed minimizer exceeds"):
        dataclasses.replace(model, minimizer=model.minimizer + 1e-6)


def test_generated_quadratic_spectrum_pinned():
    # generator invariant: eig_min = 1 and eig_max = L within 1e-6 relative
    for seed, L in ((0, 10.0), (3, 1e3), (7, 2.0)):
        spec, model = gen_random_quadratic(8, L, seed)
        eigs = np.linalg.eigvalsh(spec.Q)
        assert eigs[0] == pytest.approx(1.0, rel=1e-6)
        assert eigs[-1] == pytest.approx(L, rel=1e-6)
        assert model.mu == pytest.approx(1.0, rel=1e-6)
        assert model.lipschitz == pytest.approx(L, rel=1e-6)
        assert np.all(np.abs(spec.b) <= 100.0)


def test_generated_quadratic_deterministic_per_seed():
    a = quad_to_json(gen_random_quadratic(6, 50.0, 42)[0])
    b = quad_to_json(gen_random_quadratic(6, 50.0, 42)[0])
    c = quad_to_json(gen_random_quadratic(6, 50.0, 43)[0])
    assert a == b
    assert a != c


def test_logistic_value_gradient_at_zero():
    spec = gen_logistic_dataset(4, 30, 5)
    val, grad = logistic_eval_grad(spec, np.zeros(4))
    assert val == pytest.approx(30 * math.log(2.0), rel=1e-12)
    expected = -0.5 * (spec.features * spec.labels).sum(axis=1)
    np.testing.assert_allclose(grad, expected, rtol=1e-12)


def test_logistic_separable_limit_monotone_to_zero():
    spec = LogisticSpec(features=np.array([[1.0]]), labels=np.array([1.0]))
    vals = [logistic_eval_grad(spec, np.array([t]))[0]
            for t in (0.0, 1.0, 5.0, 20.0, 100.0, 1000.0)]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    assert vals[-1] >= 0.0
    assert vals[-1] < 1e-300 or vals[-1] == 0.0


def test_logistic_stable_at_large_margins():
    spec = gen_logistic_dataset(3, 10, 2)
    q = np.full(3, 400.0)  # margins up to ~1e3
    val, grad = logistic_eval_grad(spec, q)
    assert np.isfinite(val)
    assert np.all(np.isfinite(grad))


def test_logistic_eval_grad_stack_rows_match_single_points_bitwise():
    # discrete.run_many relies on this to reproduce run bit for bit, also
    # for column-major features
    rng = np.random.default_rng(6)
    for n, m, stack in ((1, 5, 40), (6, 120, 200), (20, 1000, 300)):
        spec = gen_logistic_dataset(n, m, 30 + n)
        for spec in (spec, LogisticSpec(np.asfortranarray(spec.features), spec.labels)):
            X = rng.uniform(-5.0, 5.0, (stack, n)) * rng.choice(
                [1e-3, 1.0, 50.0, 400.0], size=(stack, 1))
            vals, grads = logistic_eval_grad(spec, X)
            assert vals.shape == (stack,) and grads.shape == (stack, n)
            for x, val, grad in zip(X, vals, grads):
                one_val, one_grad = logistic_eval_grad(spec, x)
                assert type(one_val) is float and one_val == val
                assert one_grad.tobytes() == grad.tobytes()
            # a strided stack (every third row) gives the same bits
            sub_vals, sub_grads = logistic_eval_grad(spec, X[::3])
            assert sub_vals.tobytes() == vals[::3].tobytes()
            assert sub_grads.tobytes() == grads[::3].tobytes()
    with pytest.raises(ValueError):
        logistic_eval_grad(spec, np.zeros((2, 3, n)))
    with pytest.raises(ValueError):
        logistic_eval_grad(spec, np.zeros((2, n + 1)))


@st.composite
def margin_rows(draw):
    """m in [1, 4096] margins: mixed with +-inf and NaN, all <= 0, or all >= 0,
    with |z| up to 1e308."""
    m = draw(st.integers(1, 4096))
    elements = draw(st.sampled_from([
        st.floats(-1e308, 1e308) | st.sampled_from([np.inf, -np.inf, np.nan]),
        st.floats(-1e308, 0.0), st.floats(0.0, 1e308)]))
    return draw(arrays(np.float64, m, elements=elements, fill=elements))


def _screened(model, q0, q):
    """(value, screen, guard, calm) at each row of the stack q, from q0:
    the values as value_grad computes them, run_many's divergence screen
    from the gradient-only oracle, taken under warnings as errors, and
    whether the gradient oracle computes the row alone without a
    warning. The oracles may warn as they do in any run."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        phi0 = model.value(q0)
        value = model.value(q)
        g = model.gradient(q)
        norms = np.sqrt(np.vecdot(g, g)).tolist()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        screen = np.array(_screen(phi0, q0)(q, g, norms))
    calm = []
    for row in q:
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            model.gradient(row)
        calm.append(not seen)
    return value, screen, DIVERGENCE_FACTOR * max(1.0, abs(phi0)), np.array(calm)


def _assert_screen_sees(value, screen, guard, calm):
    seen = (screen > guard) | ~np.isfinite(screen)
    assert np.all(seen[((value > guard) | ~np.isfinite(value)) & calm])


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(z=margin_rows(), scales=st.lists(
    st.sampled_from([1.0, -1.0, 0.5, 2.0, 1e-300, 0.0]), min_size=1, max_size=4),
    n=st.integers(2, 8), cond=st.sampled_from([1.0, 1e3, 1e8, 1e12]),
    seed=st.integers(0, 2 ** 16),
    reach=st.lists(st.sampled_from([0.0, 1e-300, 1.0, 1e6, 1e12, 1e100, 1e150, 1e154,
                                    1e200, 1e300, 1.7e308]), min_size=1, max_size=4),
    poison=st.sampled_from([None, np.inf, -np.inf, np.nan]))
@example(z=np.array([1e308]), scales=[1.0], n=2, cond=1.0, seed=0, reach=[1.7e308],
         poison=None)  # from q0 = 0, 2 <g, q - q0> overflows and the value does not
@example(z=np.full(4096, 1e305), scales=[1.0, -1.0], n=8, cond=1e12, seed=1,
         reach=[1e154, 1e12], poison=np.nan)  # the value's sum overflows, and q's NaN
def test_divergence_screen_sees_every_value_above_the_guard(z, scales, n, cond, seed, reach,
                                                             poison):
    # run_many's screen phi0 + 2 <g, q - q0> never warns, and it is above
    # the guard, or not finite, at every point whose value as computed is
    # and whose gradient computes without overflow (see the next test for
    # one that overflows). Logistic: with three features and labels +1,
    # the margins at q = s (1, 2, 2) are s (x + 2 u + 2 v): at s = 1
    # exactly the drawn ones. Features are finite, so the drawn infinities and NaNs come
    # from overflow: (x, u, v) is (z, 0, 0) at a finite z, (0, +-MAX, 0)
    # at +-inf and (0, MAX, -MAX) at a NaN. From q0 = 0 and from half the
    # point. Quadratic: points at the drawn distances from a start, in
    # random directions, with a drawn inf or NaN in their first entry
    big, finite = np.finfo(float).max, np.isfinite(z)
    rows = (np.where(finite, z, 0.0), np.where(finite, 0.0, np.where(z < 0, -big, big)),
            np.where(np.isnan(z), -big, 0.0))
    spec = LogisticSpec(features=-np.stack(rows), labels=np.ones(z.size))
    # logistic_model's oracles, with an L that the screen does not read in
    # place of the estimate, which these features overflow
    model = ObjectiveModel(dim=3, mu=0.0, lipschitz=1.0,
                           value_grad=lambda q: logistic_eval_grad(spec, q),
                           grad=lambda q: logistic_grad(spec, q))
    point = np.array([1.0, 2.0, 2.0])
    for q0 in (np.zeros(3), 0.5 * point):
        _assert_screen_sees(*_screened(model, q0, np.array(scales)[:, None] * point))
    _, model = gen_random_quadratic(n, cond, seed)
    rng = np.random.default_rng(seed)
    q0 = rng.uniform(-10.0, 10.0, n)
    steps = rng.standard_normal((len(reach), n))
    q = q0 + np.array(reach)[:, None] * (steps / np.linalg.norm(steps, axis=1)[:, None])
    if poison is not None:
        q[:, 0] = poison
    _assert_screen_sees(*_screened(model, q0, q))


def test_divergence_screen_misses_a_value_that_overflows_inside_the_oracle():
    # features (0, MAX, -MAX) give the margin 2 MAX - 2 MAX at q = (1, 2,
    # 2): exactly 0, so phi = log 2, but the margin's products overflow,
    # and both oracles warn. The value is computed as inf beside the
    # finite gradient (0, MAX, -MAX), whose inner product with q - q0 =
    # (0.5, 1, 1) is exactly 0: the screen is phi0 and clears the guard.
    # From q0 = 0, the screen's products overflow as the margin's do
    big = np.finfo(float).max
    spec = LogisticSpec(features=-np.array([[0.0], [big], [-big]]), labels=np.ones(1))
    model = ObjectiveModel(dim=3, mu=0.0, lipschitz=1.0,
                           value_grad=lambda q: logistic_eval_grad(spec, q),
                           grad=lambda q: logistic_grad(spec, q))
    q = np.array([[1.0, 2.0, 2.0]])
    value, screen, guard, calm = _screened(model, 0.5 * q[0], q)
    assert value[0] == np.inf and screen[0] == math.log(2.0) and not calm[0]
    value, screen, guard, calm = _screened(model, np.zeros(3), q)
    assert value[0] == np.inf and not np.isfinite(screen[0])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_logistic_spec_refuses_non_finite_features(bad):
    with pytest.raises(ValueError, match="^features must be finite$"):
        LogisticSpec(features=[[bad, 1.0], [0.5, 2.0]], labels=[1.0, -1.0])


def test_gradient_only_oracles_give_the_value_oracles_gradient_bits():
    # at one point, in a stack and in a strided stack, with the same
    # errors for a point of the wrong shape
    rng = np.random.default_rng(29)
    _, quad = gen_random_quadratic(7, 50.0, 29)
    logistic = logistic_model(gen_logistic_dataset(7, 120, 29))
    for model in (quad, logistic):
        X = rng.uniform(-50.0, 50.0, (40, 7))
        for q in (X[0], X, X[::3]):
            assert model.grad(q).tobytes() == model.value_grad(q)[1].tobytes()
            assert model.gradient(q).tobytes() == model.grad(q).tobytes()
        for bad in (np.zeros((2, 3, 7)), np.zeros((2, 8))):
            with pytest.raises(ValueError):
                model.grad(bad)


def test_logistic_signed_form_matches_label_scaling_bitwise():
    # the oracle takes margins and gradient as products with the signed
    # matrix -b_i theta_i; with labels exactly +-1 that is the label
    # scaling after the products, bit for bit, out to margins of ~1e4
    from scipy.special import expit
    rng = np.random.default_rng(8)
    for n, m in ((1, 7), (6, 120), (20, 1000)):
        spec = gen_logistic_dataset(n, m, 40 + n)
        for spec in (spec, LogisticSpec(np.asfortranarray(spec.features), spec.labels)):
            for scale in (1e-3, 1.0, 30.0, 1e3):
                for _ in range(25):
                    q = scale * rng.standard_normal(n)
                    z = -spec.labels * (spec.features.T @ q)
                    value = float(np.logaddexp(0.0, z).sum())
                    grad = -(spec.features @ (spec.labels * expit(z)))
                    got_value, got_grad = logistic_eval_grad(spec, q)
                    assert got_value == value
                    assert got_grad.tobytes() == grad.tobytes()
    assert np.max(np.abs(z)) > 1e3


def test_logistic_gradient_is_scipy_expit_bitwise():
    # where numpy's exp is vectorised (AVX-512), 1/(1+np.exp(-z)) differs
    # from scipy's expit in the last bit on some margins, which changes this
    # gradient and moves the logreg tuner's picks at ties
    from scipy.special import expit
    spec = gen_logistic_dataset(6, 200, 19)
    q = np.random.default_rng(19).standard_normal(6)
    z = -spec.labels * (spec.features.T @ q)
    for scale in (1.0, 1e3 / np.max(np.abs(z))):  # margins up to ~8, then 1e3
        _, grad = logistic_eval_grad(spec, scale * q)
        zs = -spec.labels * (spec.features.T @ (scale * q))
        want = -(spec.features @ (spec.labels * expit(zs)))
        assert grad.tobytes() == want.tobytes()
    assert np.max(np.abs(zs)) == pytest.approx(1e3)


def _run_fresh(script: str, *args: str) -> None:
    """Run a script in a fresh interpreter that imports hbreset from here."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(hbreset.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([src] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(script), *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_scipy_loaded_only_by_the_logistic_objective(tmp_path):
    # a fresh interpreter: the CLI and the non-logistic subcommands must
    # not import scipy, and the first logistic evaluation loads scipy's
    # compiled expit module alone, which the scipy.special package, once
    # imported, reuses
    _run_fresh("""
        import sys
        import numpy as np
        import hbreset.cli
        from hbreset.objectives import _expit, gen_logistic_dataset, logistic_eval_grad
        out = sys.argv[1]
        for argv in (["simulate", "--model", "scalar", "--t-end", "0.1"],
                     ["quad", "--seed", "1", "--n", "4", "--iters", "20", "--K", "1",
                      "--methods", "polyak"],
                     ["certify", "--grid-L", "1", "--bisect-iters", "0"],
                     ["tune", "--method", "gd", "--objective", "quad", "--seed", "1"]):
            assert hbreset.cli.main(argv + ["--out", out + "/" + argv[0]]) == 0
            assert "scipy" not in sys.modules, (argv, sorted(m for m in sys.modules
                                                             if "scipy" in m))
        logistic_eval_grad(gen_logistic_dataset(3, 5, 0), np.zeros(3))
        ufuncs = sys.modules["scipy.special._special_ufuncs"]
        assert "scipy.special" not in sys.modules
        assert _expit() is ufuncs.expit
        x = np.concatenate(([0.0, -0.0, np.inf, -np.inf, np.nan, 709.0, -709.0, 745.0,
                             -745.0, 5e-324, -5e-324], np.linspace(-1e3, 1e3, 20001)))
        got = _expit()(x)
        import scipy.special
        assert scipy.special.expit is _expit()
        assert got.tobytes() == scipy.special.expit(x).tobytes()
    """, str(tmp_path))


@pytest.mark.parametrize("found", ["none", "no expit", "no d->d loop"])
def test_expit_falls_back_to_the_scipy_special_package(found):
    # a scipy without the compiled module, or whose module holds no double
    # expit, gives the package's expit
    _run_fresh("""
        import sys, types
        import numpy as np
        from hbreset import objectives
        fake = {"none": None, "no expit": types.ModuleType("fake"),
                "no d->d loop": types.SimpleNamespace(expit=np.logical_not)}[sys.argv[1]]
        asked = []
        objectives._load_extension = lambda name: asked.append(name) or fake
        expit = objectives._expit()
        import scipy.special
        assert asked == ["scipy.special._special_ufuncs"]
        assert expit is scipy.special.expit
    """, found)


def test_finite_differences_agree():
    _, qm = gen_random_quadratic(5, 20.0, 9)
    rng = np.random.default_rng(9)
    q = rng.standard_normal(5)
    assert ref.finite_diff_check(qm, q, 1e-5) <= 1e-6

    lm = logistic_model(gen_logistic_dataset(6, 40, 9))
    assert ref.finite_diff_check(lm, np.zeros(6), 1e-5) <= 1e-5

    with pytest.raises(ValueError):
        ref.finite_diff_check(qm, q, 0.0)


def test_lipschitz_estimate_matches_power_iteration():
    spec = gen_logistic_dataset(12, 200, 13)
    gram = 0.25 * spec.features @ spec.features.T
    v = np.ones(12) / math.sqrt(12.0)
    lam = 0.0
    for _ in range(10000):
        w = gram @ v
        lam_new = float(np.linalg.norm(w))
        v = w / lam_new
        if abs(lam_new - lam) <= 1e-10 * lam_new:
            lam = lam_new
            break
        lam = lam_new
    assert logistic_lipschitz(spec) == pytest.approx(lam, rel=0.05)


def test_logistic_gradient_lipschitz_on_samples():
    spec = gen_logistic_dataset(8, 100, 21)
    lhat = logistic_lipschitz(spec)
    model = logistic_model(spec)
    rng = np.random.default_rng(21)
    for _ in range(200):
        v = rng.uniform(-3.0, 3.0, 8)
        w = rng.uniform(-3.0, 3.0, 8)
        dg = np.linalg.norm(model.gradient(v) - model.gradient(w))
        assert dg <= (1.0 + 1e-6) * lhat * np.linalg.norm(v - w)


@pytest.mark.parametrize("family", ["quad", "logistic"])
def test_sector_inequality_on_samples(family):
    # sector invariant: the form is >= -1e-8 * scale on gradient pairs
    rng = np.random.default_rng(17)
    if family == "quad":
        _, model = gen_random_quadratic(6, 30.0, 17)
        mu, L, dim = model.mu, model.lipschitz, 6
    else:
        spec = gen_logistic_dataset(6, 80, 17)
        model = logistic_model(spec)
        mu, L, dim = 0.0, logistic_lipschitz(spec), 6
    if mu > 0.0:
        M = build_sector(mu, L, n=dim)
    else:
        # mu = 0 limit of the sector blocks (convex, L-smooth)
        eye = np.eye(dim)
        M = np.block([[0.0 * eye, 0.5 * eye], [0.5 * eye, -(1.0 / L) * eye]])
    for _ in range(1000):
        v = rng.uniform(-2.0, 2.0, dim)
        w = rng.uniform(-2.0, 2.0, dim)
        dq = v - w
        dg = model.gradient(v) - model.gradient(w)
        z = np.concatenate([dq, dg])
        scale = max(1.0, float(z @ z))
        assert z @ M @ z >= -1e-8 * scale


def test_quad_json_round_trip():
    spec, _ = gen_random_quadratic(4, 12.0, 33)
    text = quad_to_json(spec)
    again = quad_to_json(quad_from_json(text))
    assert text == again
    data = json.loads(text)
    assert len(data["Q"]) == 4 and len(data["Q"][0]) == 4


def test_generator_rejects_bad_sizes():
    with pytest.raises(ValueError):
        gen_logistic_dataset(0, 5, 1)
    with pytest.raises(ValueError):
        gen_logistic_dataset(3, 0, 1)
