"""The scalar two-step map and loop, kept as the bitwise reference.

`hbreset.discrete.run_many` steps every run as a row of one stack, and
`hbreset.discrete.run` is its stack of one. The code below steps one run
alone, one iterate at a time, with each variant's update written out:
the equivalence, stop and NaN tests compare the stacked loop with it
record for record, and the step hand cases and the matrix-recursion
tests read the states it keeps. It uses only the library's switching
law, beta schedule and records, never `run_many`.

`propagator` is the dense form of one RK4 step of a linear flow, which
the hybrid skip-ahead takes mode by mode in the Hessian's eigenbasis.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from hbreset.discrete import (DIVERGENCE_FACTOR, STATUS_CONVERGED, STATUS_DIVERGED,
                              STATUS_MAX_ITER, AlgoParams, Trajectory, Variant,
                              nesterov_beta_schedule, switching_beta)
from hbreset.objectives import ObjectiveModel

Array = np.ndarray


@dataclass
class IterState:
    """Two-point state (q_{k-1}, q_k) with momentum p_k = (q_k - q_{k-1})/eps."""

    q_prev: Array
    q: Array
    p: Array
    k: int = 0


def initial_state(q0: Array, eps: float, p0: Optional[Array] = None) -> IterState:
    q0 = np.asarray(q0, dtype=float)
    p0 = np.zeros_like(q0) if p0 is None else np.asarray(p0, dtype=float)
    return IterState(q_prev=q0 - eps * p0, q=q0.copy(), p=p0.copy(), k=0)


def switched_beta(grad: Array, p: Array, params: AlgoParams):
    """(beta, reset) of the switching law at one point, for POL and NES."""
    if params.variant not in (Variant.POL, Variant.NES):
        raise ValueError("switching law applies to POL and NES only")
    return switching_beta(np.vecdot(grad, p), params.beta_lo, params.beta_hi)


def _finite(g: Array) -> Array:
    if not np.isfinite(g).all():
        raise FloatingPointError("non-finite gradient")
    return g


def step(state: IterState, params: AlgoParams, model: ObjectiveModel,
         grad: Optional[Array] = None, beta: Optional[float] = None) -> IterState:
    """One iteration of params.variant from (q_{k-1}, q_k).

    grad is grad phi(q_k) when the caller has it already. beta defaults to
    the switching law on <grad phi(q_k), p_k>; NES_SCHEDULE needs it from
    the caller, who owns the alpha recursion. POL uses the gradient at
    q_k, NES and NES_SCHEDULE the gradient at q_k + eps*beta*p_k, and GD
    is q_k - h*grad phi(q_k) (p is kept for uniform records).
    """
    variant = params.variant
    if variant is not Variant.NES_SCHEDULE:
        g = _finite(model.gradient(state.q) if grad is None else grad)
    if variant is Variant.GD:
        q_next = state.q - params.h * g
    else:
        if beta is None:
            if variant is Variant.NES_SCHEDULE:
                raise ValueError("NES_SCHEDULE needs the schedule's beta")
            beta, _ = switched_beta(g, state.p, params)
        if variant is not Variant.POL:
            g = _finite(model.gradient(state.q + params.eps * beta * state.p))
        q_next = state.q + params.eps * (beta * state.p - params.eps * g)
    return IterState(q_prev=state.q, q=q_next, p=(q_next - state.q) / params.eps,
                     k=state.k + 1)


def run(model: ObjectiveModel, params: AlgoParams, q0: Array, max_iter: int,
        grad_tol: float = 0.0, p0: Optional[Array] = None) -> Trajectory:
    """Iterate `step` alone from q0, recording what `hbreset.discrete.run`
    records: one value_grad call per visited iterate on the point itself,
    and the same stops (max_iter, ||grad|| <= grad_tol, the divergence
    guard 1e12 * max(1, |phi(q0)|))."""
    if max_iter < 0:
        raise ValueError("max_iter must be >= 0")
    state = initial_state(q0, params.eps, p0)
    phi, g = model.value_grad(state.q)
    guard = DIVERGENCE_FACTOR * max(1.0, abs(phi))
    phi_star = math.nan if model.min_value is None else model.min_value
    alpha = 1.0  # NES_SCHEDULE state

    gaps, signs, betas, resets, gnorms = [], [], [], [], []
    status = STATUS_MAX_ITER
    while True:
        if params.variant is Variant.NES_SCHEDULE:
            beta, alpha = nesterov_beta_schedule(alpha)
            reset = False
        elif params.variant is Variant.GD:
            beta, reset = 0.0, False
        else:
            beta, reset = switched_beta(g, state.p, params)
        gnorm = float(np.linalg.norm(g))
        inner = float(np.dot(g, state.p))
        gaps.append(float(phi - phi_star))
        signs.append(int(np.sign(inner)) if np.isfinite(inner) else 0)
        betas.append(beta)
        resets.append(reset)
        gnorms.append(gnorm)
        if status == STATUS_DIVERGED or state.k == max_iter:
            break
        if gnorm <= grad_tol:
            status = STATUS_CONVERGED
            break
        state = step(state, params, model, grad=g, beta=beta)
        phi, g = model.value_grad(state.q)
        if not np.isfinite(phi) or phi > guard:
            status = STATUS_DIVERGED

    return Trajectory(params=params, phi_gaps=gaps, inner_signs=signs,
                      betas=betas, resets=resets, grad_norms=gnorms,
                      q=state.q, phi=float(phi), status=status)


def propagator(H: Array, K: float, h: float) -> tuple[Array, Array]:
    """(T, M) of one RK4 step of size h of the linear flow z' = A z + c,
    z = [q; p], A = [[0, I], [-H, -K I]].

    On an affine field the four stages are polynomials in hA applied to
    f(z) = A z + c, and the step is z + M f(z) with M = h S(hA),
    S(X) = I + X/2 + X^2/6 + X^3/24. A point z0 + d with f(z0) = f0
    then steps to z0 + T d + M f0, where T = I + A M = R(hA) is the
    step's stability polynomial I + X + X^2/2 + X^3/6 + X^4/24.
    """
    n = H.shape[0]
    eye = np.eye(2 * n)
    A = np.block([[np.zeros((n, n)), np.eye(n)], [-H, -K * np.eye(n)]])
    X = h * A
    S = eye + X / 4.0
    S = eye + X @ S / 3.0
    S = eye + X @ S / 2.0
    M = h * S
    return eye + A @ M, M
