"""Objective functions for the momentum-reset experiments.

Two concrete families: strongly convex quadratics with a controlled
spectrum, and full-batch logistic regression on synthetic data. Models
carry (mu, L) curvature metadata consumed by the rate certifiers. Each
model has one oracle, value_grad(q) -> (phi(q), grad phi(q)), so a
caller that needs both at a point pays for one evaluation.
"""
from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

Array = np.ndarray


@dataclass
class ObjectiveModel:
    """Evaluatable objective with gradient and curvature metadata.

    value_grad(q) returns (phi(q), grad phi(q)) from one evaluation;
    value() and gradient() are the two halves of it, for callers that
    need only one. mu = 0 means the strong-convexity modulus is unknown
    or absent. minimizer/min_value are optional; when minimizer is given its
    gradient must vanish to within 1e-8 * max(1, ||q*||). hessian is the
    constant Hessian of a quadratic phi, or None; value_grad stays the
    source of every value and gradient, and a caller that has the
    Hessian may use it only to move points (the hybrid integrators step
    quadratic flows with it). discrete.run_many (and so the logreg
    tuner) and the hybrid skip-ahead also pass value_grad a (B, n) stack
    of points, for (B,) values and (B, n) gradients; quad_eval_grad and
    logistic_eval_grad take one, and give each row the bits of its point
    alone.
    """

    dim: int
    mu: float
    lipschitz: float
    value_grad: Callable[[Array], tuple[float, Array]]
    minimizer: Optional[Array] = None
    min_value: Optional[float] = None
    hessian: Optional[Array] = None

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be positive")
        if not (0.0 <= self.mu <= self.lipschitz):
            raise ValueError(f"need 0 <= mu <= L, got mu={self.mu}, L={self.lipschitz}")
        if self.minimizer is not None:
            self.minimizer = np.asarray(self.minimizer, dtype=float)
            gnorm = float(np.linalg.norm(self.gradient(self.minimizer)))
            bound = 1e-8 * max(1.0, float(np.linalg.norm(self.minimizer)))
            if gnorm > bound:
                raise ValueError(
                    f"gradient norm {gnorm:.3e} at claimed minimizer exceeds {bound:.3e}")

    def value(self, q: Array) -> float:
        return self.value_grad(q)[0]

    def gradient(self, q: Array) -> Array:
        return self.value_grad(q)[1]

    def gap(self, q: Array) -> float:
        """phi(q) - phi*, or nan when the minimum is unknown."""
        if self.min_value is None:
            return float("nan")
        return float(self.value(q) - self.min_value)


@dataclass
class QuadraticSpec:
    """phi(q) = 1/2 q'Qq + b'q with Q symmetric positive definite."""

    Q: Array
    b: Array

    def __post_init__(self):
        self.Q = np.asarray(self.Q, dtype=float)
        self.b = np.asarray(self.b, dtype=float)
        n = self.b.shape[0]
        if self.Q.shape != (n, n):
            raise ValueError(f"Q shape {self.Q.shape} does not match b length {n}")
        scale = max(1.0, float(np.linalg.norm(self.Q)))
        if float(np.linalg.norm(self.Q - self.Q.T)) > 1e-12 * scale:
            raise ValueError("Q is not symmetric")

    @property
    def dim(self) -> int:
        return self.b.shape[0]


@dataclass
class LogisticSpec:
    """Full-batch logistic regression data: features theta (n x m), labels in {-1,+1}.

    signed is theta with column i scaled by -b_i, built once: margins and
    gradients are then one matrix product each.
    """

    features: Array
    labels: Array
    signed: Array = field(init=False, repr=False)

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=float)
        self.labels = np.asarray(self.labels, dtype=float)
        if self.features.ndim != 2:
            raise ValueError("features must be an n x m matrix")
        if self.labels.shape != (self.features.shape[1],):
            raise ValueError("labels length must equal the number of feature columns")
        if self.m < 1:
            raise ValueError("need at least one observation")
        if not np.all(np.abs(self.labels) == 1.0):
            raise ValueError("labels must be exactly +1 or -1")
        self.signed = self.features * -self.labels

    @property
    def dim(self) -> int:
        return self.features.shape[0]

    @property
    def m(self) -> int:
        return self.features.shape[1]


def quad_eval_grad(spec: QuadraticSpec, q: Array) -> tuple[float, Array]:
    """Value 1/2 q'Qq + b'q and gradient Qq + b.

    q is one point (n,) or a (B, n) stack of points, which gives (B,)
    values and (B, n) gradients. Each row costs one gemv and two dot
    products, as a single point does, so a row of a stack gets the bits
    that the point gets alone. One point keeps the `@` form: the stack
    form's gufunc calls cost about a microsecond more per call, which
    the scalar loops (`discrete.run`, the hybrid integrators) would pay
    at every evaluation.
    """
    q = np.asarray(q, dtype=float)
    if q.shape == (spec.dim,):
        Qq = spec.Q @ q
        return 0.5 * float(q @ Qq) + float(spec.b @ q), Qq + spec.b
    if q.ndim != 2 or q.shape[1] != spec.dim:
        raise ValueError(f"point of dim {q.shape} does not match spec dim {spec.dim}")
    Qq = np.matmul(spec.Q, q[..., None])[..., 0]
    return 0.5 * np.vecdot(q, Qq) + np.vecdot(spec.b, q), Qq + spec.b


def quadratic_model(spec: QuadraticSpec) -> ObjectiveModel:
    """Wrap a quadratic spec as an ObjectiveModel with exact (mu, L) and minimizer."""
    eigs = np.linalg.eigvalsh(spec.Q)
    qstar = np.linalg.solve(spec.Q, -spec.b)
    return ObjectiveModel(
        dim=spec.dim,
        mu=float(eigs[0]),
        lipschitz=float(eigs[-1]),
        # looked up at call time, so wrapping quad_eval_grad (to trace
        # it, say) takes effect; logistic_model does the same
        value_grad=lambda q: quad_eval_grad(spec, q),
        minimizer=qstar,
        min_value=quad_eval_grad(spec, qstar)[0],
        hessian=spec.Q,
    )


def gen_random_quadratic(n: int, L: float, seed: int) -> tuple[QuadraticSpec, ObjectiveModel]:
    """Random quadratic with eigenvalues of Q in [1, L] and extremes attained.

    Generate a standard-normal n x n matrix, take its SVD U S V', replace
    the singular values by [sqrt(L), uniform(1, sqrt(L))..., 1], and set
    Q = Qhat Qhat' with Qhat = U Shat V'. Then eig(Q) = Shat^2, so mu = 1
    and the Lipschitz constant is L. b is uniform on [-100, 100]^n.
    """
    if n < 2:
        raise ValueError("n >= 2 required: the recipe pins two singular values")
    if L < 1.0:
        raise ValueError("L >= 1 required")
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((n, n))
    U, _, Vt = np.linalg.svd(raw)
    mid = np.sort(rng.uniform(1.0, np.sqrt(L), size=n - 2))[::-1]
    shat = np.concatenate(([np.sqrt(L)], mid, [1.0]))
    Qhat = U @ np.diag(shat) @ Vt
    Q = Qhat @ Qhat.T
    Q = 0.5 * (Q + Q.T)
    b = rng.uniform(-100.0, 100.0, size=n)
    spec = QuadraticSpec(Q=Q, b=b)
    model = quadratic_model(spec)
    return spec, model


@functools.cache
def _expit():
    """scipy's logistic sigmoid, imported on first use.

    Only the logistic objective needs scipy, and importing scipy.special
    costs more than importing the rest of the package; loading it here
    keeps it out of every run that never evaluates a sigmoid. scipy's
    expit (libm exp) stays rather than 1/(1+np.exp(-z)): numpy's SIMD exp
    differs from it in the last bit on some inputs, enough to move the
    logreg tuner's pick at ties.
    """
    from scipy.special import expit
    return expit


def logistic_eval_grad(spec: LogisticSpec, q: Array) -> tuple[float, Array]:
    """Value sum_i log(1 + exp(-b_i theta_i'q)) and its gradient.

    Stable for |theta_i'q| up to 1e3 and beyond: log(1+exp(z)) is
    computed as max(z,0) + log1p(exp(-|z|)) via logaddexp. The margins
    z = -b_i theta_i'q and the gradient sum_i -b_i theta_i expit(z_i) are
    products with spec.signed; as the labels are exactly +-1, every sign
    flip is exact and the bits are those of scaling by the labels after
    the products. q is one point (n,) or a (B, n) stack, which gives (B,)
    values and (B, n) gradients, each row with the bits that its point
    gets alone (one gemv each way per row, as quad_eval_grad does).
    """
    q = np.asarray(q, dtype=float)
    A = spec.signed
    if q.shape == (spec.dim,):
        z = A.T @ q
        return float(np.logaddexp(0.0, z).sum()), A @ _expit()(z)
    if q.ndim != 2 or q.shape[1] != spec.dim:
        raise ValueError(f"point of dim {q.shape} does not match spec dim {spec.dim}")
    z = np.matmul(A.T, q[..., None])[..., 0]
    grad = np.matmul(A, _expit()(z)[..., None])[..., 0]
    return np.logaddexp(0.0, z).sum(axis=-1), grad


def logistic_lipschitz(spec: LogisticSpec) -> float:
    """Gradient Lipschitz estimate 1/4 * lambda_max(theta theta')."""
    gram = spec.features @ spec.features.T
    return 0.25 * float(np.linalg.eigvalsh(gram)[-1])


def logistic_model(spec: LogisticSpec, mu: float = 0.0) -> ObjectiveModel:
    """Wrap a logistic spec as an ObjectiveModel.

    mu defaults to 0 (unknown); the objective is convex but not strongly
    convex globally. No minimizer is attached here; experiment code pins
    one operationally via a long gradient-descent reference run.
    """
    return ObjectiveModel(
        dim=spec.dim,
        mu=mu,
        lipschitz=logistic_lipschitz(spec),
        value_grad=lambda q: logistic_eval_grad(spec, q),
    )


def gen_logistic_dataset(n: int, m: int, seed: int) -> LogisticSpec:
    """Standard-normal features, labels uniform on {-1, +1}, deterministic per seed."""
    if n < 1 or m < 1:
        raise ValueError("n and m must be positive")
    rng = np.random.default_rng(seed)
    theta = rng.standard_normal((n, m))
    labels = rng.integers(0, 2, size=m) * 2.0 - 1.0
    return LogisticSpec(features=theta, labels=labels)


def finite_diff_check(model: ObjectiveModel, q: Array, step: float) -> float:
    """Max relative error between the analytic gradient and central differences.

    Relative to max(1, ||grad||_inf) per coordinate.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    q = np.asarray(q, dtype=float)
    g = model.gradient(q)
    denom = max(1.0, float(np.max(np.abs(g))))
    worst = 0.0
    for i in range(model.dim):
        e = np.zeros(model.dim)
        e[i] = step
        hi = model.value(q + e)
        lo = model.value(q - e)
        if not (np.isfinite(hi) and np.isfinite(lo)):
            raise FloatingPointError("non-finite objective value at probe point")
        fd = (hi - lo) / (2.0 * step)
        worst = max(worst, abs(fd - g[i]) / denom)
    return worst


# --- serialization -------------------------------------------------------

def quad_to_json(spec: QuadraticSpec) -> str:
    return json.dumps({"Q": spec.Q.tolist(), "b": spec.b.tolist()}, sort_keys=True)


def quad_from_json(text: str) -> QuadraticSpec:
    data = json.loads(text)
    return QuadraticSpec(Q=np.array(data["Q"], dtype=float), b=np.array(data["b"], dtype=float))


def logistic_to_json(spec: LogisticSpec) -> str:
    # theta stored column-major: a list of the m feature columns
    return json.dumps(
        {
            "theta": spec.features.T.tolist(),
            "labels": spec.labels.tolist(),
            "m": spec.m,
            "n": spec.dim,
        },
        sort_keys=True,
    )


def logistic_from_json(text: str) -> LogisticSpec:
    data = json.loads(text)
    theta = np.array(data["theta"], dtype=float).T
    if theta.shape != (data["n"], data["m"]):
        raise ValueError("theta shape does not match stored (n, m)")
    return LogisticSpec(features=theta, labels=np.array(data["labels"], dtype=float))
