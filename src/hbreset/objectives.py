"""Objective functions for the momentum-reset experiments.

Two concrete families: strongly convex quadratics with a controlled
spectrum, and full-batch logistic regression on synthetic data. Models
carry (mu, L) curvature metadata consumed by the rate certifiers. Each
model has the oracle value_grad(q) -> (phi(q), grad phi(q)), so a
caller that needs both at a point pays for one evaluation; both
families add grad(q), the same gradient alone, for callers that read no
value there.
"""
from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import json
import math
import os
import sys
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

Array = np.ndarray

_LARGEST = float(np.finfo(float).max)


@dataclass
class ObjectiveModel:
    """Evaluatable objective with gradient and curvature metadata.

    value_grad(q) returns (phi(q), grad phi(q)) from one evaluation;
    value() and gradient() are the two halves of it, for callers that
    need only one. grad(q), optional, returns value_grad's gradient bit
    for bit without computing the value; gradient() takes it when there
    is one. mu = 0 means the strong-convexity modulus is unknown
    or absent. minimizer/min_value are optional; when minimizer is given its
    gradient must vanish to within 1e-8 * max(1, ||q*||). hessian is the
    constant Hessian of a quadratic phi, or None; value_grad (and grad)
    stay the source of every value and gradient, and a caller that has the
    Hessian may use it only to move points (the hybrid integrators step
    quadratic flows with it). discrete.run_many (and so discrete.run,
    its stack of one, and the logreg tuner) and the hybrid skip-ahead
    also pass value_grad a (B, n) stack of points, for (B,) values and
    (B, n) gradients: run_many passes all its live runs, of every
    variant, as one stack, and the extrapolated points of its NES and
    NES_SCHEDULE rows as a second, through gradient(). So a model given
    to discrete.run needs stack-capable oracles. The oracles of
    quadratic_model and logistic_model take a stack, and give each row
    the bits of its point alone.

    bound_grad(q), optional, returns (upper, grad phi(q)): grad has the
    bits of value_grad's and upper >= its phi as computed (NaN and inf
    pass through). run_many(values="last") uses it.
    """

    dim: int
    mu: float
    lipschitz: float
    value_grad: Callable[[Array], tuple[float, Array]]
    minimizer: Optional[Array] = None
    min_value: Optional[float] = None
    hessian: Optional[Array] = None
    bound_grad: Optional[Callable[[Array], tuple[float, Array]]] = None
    grad: Optional[Callable[[Array], Array]] = None

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
        return self.value_grad(q)[1] if self.grad is None else self.grad(q)

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
        if not (np.isfinite(self.Q).all() and np.isfinite(self.b).all()):
            raise ValueError("Q and b must be finite")
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
    the hybrid stage path and the certificate replay along simulated
    runs (acceptance criterion 05) would pay at every evaluation.
    """
    q, Qq = _quad_product(spec, q)
    if q.ndim == 1:
        return 0.5 * float(q @ Qq) + float(spec.b @ q), Qq + spec.b
    return 0.5 * np.vecdot(q, Qq) + np.vecdot(spec.b, q), Qq + spec.b


def quad_grad(spec: QuadraticSpec, q: Array) -> Array:
    """quad_eval_grad's gradient Qq + b, bit for bit, without the value."""
    return _quad_product(spec, q)[1] + spec.b


def _quad_product(spec: QuadraticSpec, q: Array) -> tuple[Array, Array]:
    """(q, Qq) for one point (n,) or a (B, n) stack, as a float array."""
    q = np.asarray(q, dtype=float)
    if q.shape == (spec.dim,):
        return q, spec.Q @ q
    if q.ndim != 2 or q.shape[1] != spec.dim:
        raise ValueError(f"point of dim {q.shape} does not match spec dim {spec.dim}")
    return q, np.matmul(spec.Q, q[..., None])[..., 0]


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
        grad=lambda q: quad_grad(spec, q),
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
    """scipy's logistic sigmoid, loaded on first use from its one compiled
    module.

    Only the logistic objective needs scipy. The package scipy.special
    loads 66 scipy modules and numpy.f2py, about 0.15 s and 22.2 MiB per
    process (scipy 1.17.1, 2-vCPU Xeon), while the expit ufunc lives in
    the extension scipy/special/_special_ufuncs, which loads in about 1 ms.
    It is loaded under its own name, so a later `import scipy.special`
    reuses it and scipy.special.expit is this ufunc. Where scipy.special
    is imported already, or the extension is missing or has no d->d expit
    (another scipy), the package's expit is taken: the same ufunc, so
    every value and gradient keeps its bits. scipy's expit (libm exp)
    stays rather than 1/(1+np.exp(-z)): numpy's SIMD exp differs from it
    in the last bit on some inputs, enough to move the logreg tuner's pick
    at ties. ROADMAP item 6 step 2 drops scipy once the benchmark
    reference can be regenerated with the picks that move.
    """
    if "scipy.special" not in sys.modules:
        name = "scipy.special._special_ufuncs"
        expit = getattr(sys.modules.get(name) or _load_extension(name), "expit", None)
        if isinstance(expit, np.ufunc) and "d->d" in expit.types:
            return expit
    from scipy.special import expit
    return expit


def _load_extension(name: str):
    """The compiled module `name` (package.sub.module), loaded from its file
    under that name without importing its packages, or None when no such
    file is installed."""
    top, *inner = name.split(".")
    package = importlib.util.find_spec(top)
    for root in (package.submodule_search_locations or ()) if package else ():
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(root, *inner) + suffix
            if os.path.isfile(path):
                loader = importlib.machinery.ExtensionFileLoader(name, path)
                module = importlib.util.module_from_spec(
                    importlib.util.spec_from_loader(name, loader))
                loader.exec_module(module)
                sys.modules[name] = module
                return module
    return None


def _margins_grad(spec: LogisticSpec, q: Array) -> tuple[Array, Array]:
    """Margins z = signed'q and gradient signed expit(z), at a point or stack."""
    q = np.asarray(q, dtype=float)
    A = spec.signed
    if q.shape == (spec.dim,):
        z = A.T @ q
        return z, A @ _expit()(z)
    if q.ndim != 2 or q.shape[1] != spec.dim:
        raise ValueError(f"point of dim {q.shape} does not match spec dim {spec.dim}")
    z = np.matmul(A.T, q[..., None])[..., 0]
    return z, np.matmul(A, _expit()(z)[..., None])[..., 0]


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
    z, grad = _margins_grad(spec, q)
    phi = np.logaddexp(0.0, z).sum(axis=-1)
    return (float(phi) if z.ndim == 1 else phi), grad


def logistic_grad(spec: LogisticSpec, q: Array) -> Array:
    """logistic_eval_grad's gradient, bit for bit, without the value."""
    return _margins_grad(spec, q)[1]


def logistic_bound_grad(spec: LogisticSpec, q: Array) -> tuple[float, Array]:
    """logistic_eval_grad's gradient, bit for bit, with the upper bound
    2 (sum_i max(z_i, 0) + m) in place of its value.

    Each computed term log(1+exp(z_i)) is at most max(z_i, 0) + 1 and
    the factor 2 covers the rounding of both sums. It skips logaddexp,
    most of an evaluation's cost, and never warns: a bound that
    overflows is inf (NaN where a margin is NaN), with no warning raised.
    """
    z, grad = _margins_grad(spec, q)
    pos = np.maximum(z, 0.0)
    if pos.max() <= _LARGEST / (4 * spec.m):
        # m terms this small sum to at most about a quarter of the
        # largest double, so neither the sum nor its double overflows
        return 2.0 * (pos.sum(axis=-1) + spec.m), grad
    return _bound_near_overflow(pos, spec.m), grad


def _bound_near_overflow(pos: Array, m: int) -> Array:
    """2 (sum pos + m) along the last axis of pos, (..., m), with the bits
    of the plain formula where it is finite, inf where it overflows and
    NaN where pos holds a NaN, and no overflow on the way.

    The sum of pos / 2^b, 2^b > m, cannot overflow, and it is within a
    relative m 2^-52 of the plain sum scaled. Where it puts the plain sum
    below 3/4 of the largest double, the plain sum is taken, and doubled
    unless that overflows; elsewhere the plain bound overflows."""
    rows = pos.reshape(-1, m)
    scale = math.ldexp(1.0, -m.bit_length())
    approx = (rows * scale).sum(axis=1)
    safe = approx <= 0.75 * _LARGEST * scale
    bound = np.where(np.isnan(approx), np.nan, np.inf)
    total = rows[safe].sum(axis=1) + m
    bound[safe] = np.multiply(total, 2.0, out=np.full(total.shape, np.inf),
                              where=total <= 0.5 * _LARGEST)
    return bound.reshape(pos.shape[:-1])[()]


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
        bound_grad=lambda q: logistic_bound_grad(spec, q),
        grad=lambda q: logistic_grad(spec, q),
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
