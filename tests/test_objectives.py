"""Objective construction, generators, and their analytic invariants."""

import json
import math
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import hbreset

from hbreset.objectives import (LogisticSpec, QuadraticSpec, finite_diff_check,
                                gen_logistic_dataset, gen_random_quadratic,
                                logistic_eval_grad, logistic_from_json,
                                logistic_lipschitz, logistic_model,
                                quad_eval_grad, quad_from_json, quad_to_json,
                                quadratic_model, logistic_to_json)
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


def test_quadratic_model_minimizer_and_gap():
    rng = np.random.default_rng(1)
    A = rng.standard_normal((5, 5))
    spec = QuadraticSpec(Q=A @ A.T + np.eye(5), b=rng.standard_normal(5))
    model = quadratic_model(spec)
    np.testing.assert_allclose(spec.Q @ model.minimizer, -spec.b, atol=1e-9)
    assert model.gap(model.minimizer) == pytest.approx(0.0, abs=1e-9)
    assert model.gap(model.minimizer + 1.0) > 0.0


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
    # discrete.run_many relies on this to reproduce run bit for bit; the
    # JSON round trip gives column-major features
    rng = np.random.default_rng(6)
    for n, m, stack in ((1, 5, 40), (6, 120, 200), (20, 1000, 300)):
        spec = gen_logistic_dataset(n, m, 30 + n)
        for spec in (spec, logistic_from_json(logistic_to_json(spec))):
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


def test_logistic_signed_form_matches_label_scaling_bitwise():
    # the oracle takes margins and gradient as products with the signed
    # matrix -b_i theta_i; with labels exactly +-1 that is the label
    # scaling after the products, bit for bit, out to margins of ~1e4
    from scipy.special import expit
    rng = np.random.default_rng(8)
    for n, m in ((1, 7), (6, 120), (20, 1000)):
        spec = gen_logistic_dataset(n, m, 40 + n)
        for spec in (spec, logistic_from_json(logistic_to_json(spec))):
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


def test_scipy_loaded_only_by_the_logistic_objective(tmp_path):
    # a fresh interpreter: the CLI and the non-logistic subcommands must
    # not import scipy, and the first logistic evaluation must
    script = textwrap.dedent("""
        import sys
        import numpy as np
        import hbreset.cli
        from hbreset.objectives import gen_logistic_dataset, logistic_eval_grad
        out = sys.argv[1]
        assert hbreset.cli.main(["simulate", "--model", "scalar", "--t-end", "0.1",
                                 "--out", out + "/sim"]) == 0
        assert hbreset.cli.main(["quad", "--seed", "1", "--n", "4", "--iters", "20",
                                 "--K", "1", "--methods", "polyak",
                                 "--out", out + "/quad"]) == 0
        assert "scipy" not in sys.modules, sorted(m for m in sys.modules if "scipy" in m)
        logistic_eval_grad(gen_logistic_dataset(3, 5, 0), np.zeros(3))
        assert "scipy.special" in sys.modules
    """)
    src = os.path.dirname(os.path.dirname(os.path.abspath(hbreset.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([src] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", script, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_finite_differences_agree():
    _, qm = gen_random_quadratic(5, 20.0, 9)
    rng = np.random.default_rng(9)
    q = rng.standard_normal(5)
    assert finite_diff_check(qm, q, 1e-5) <= 1e-6

    lm = logistic_model(gen_logistic_dataset(6, 40, 9))
    assert finite_diff_check(lm, np.zeros(6), 1e-5) <= 1e-5

    with pytest.raises(ValueError):
        finite_diff_check(qm, q, 0.0)


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


def test_logistic_json_round_trip_column_major():
    spec = gen_logistic_dataset(3, 5, 8)
    text = logistic_to_json(spec)
    data = json.loads(text)
    assert data["n"] == 3 and data["m"] == 5
    assert len(data["theta"]) == 5 and len(data["theta"][0]) == 3
    back = logistic_from_json(text)
    np.testing.assert_array_equal(back.features, spec.features)
    np.testing.assert_array_equal(back.labels, spec.labels)
    assert logistic_to_json(back) == text


def test_generator_rejects_bad_sizes():
    with pytest.raises(ValueError):
        gen_logistic_dataset(0, 5, 1)
    with pytest.raises(ValueError):
        gen_logistic_dataset(3, 0, 1)
