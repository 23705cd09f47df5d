"""Discrete-time momentum iterations with the inner-product reset law.

The two-step family

    q_{k+1} = q_k + eps * (beta(x_k) p_k - eps * grad(...)),
    p_{k+1} = (q_{k+1} - q_k) / eps,

switches beta between beta_hi (momentum kept) and beta_lo (reset branch)
on the sign of <grad phi(q_k), p_k>. POL evaluates the gradient at q_k,
NES at the extrapolated point q_k + eps*beta*p_k. GD and a time-varying
Nesterov schedule are included as baselines. `step` is the one step map:
it dispatches on params.variant, so each variant's update is written
once, and `run` drives it with one oracle call per visited iterate.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

import numpy as np

from .objectives import ObjectiveModel

Array = np.ndarray

STATUS_CONVERGED = "converged"
STATUS_MAX_ITER = "max_iter"
STATUS_DIVERGED = "diverged"

DIVERGENCE_FACTOR = 1e12


class Variant(str, Enum):
    POL = "pol"
    NES = "nes"
    GD = "gd"
    NES_SCHEDULE = "nes-schedule"


@dataclass
class AlgoParams:
    """Stepsize and switching parameters. h is stored and equals eps**2 exactly."""

    eps: float
    beta_lo: float = 0.0
    beta_hi: float = 0.0
    variant: Variant = Variant.POL
    h: float = field(init=False)

    def __post_init__(self):
        self.variant = Variant(self.variant)
        if not all(math.isfinite(v) for v in (self.eps, self.beta_lo, self.beta_hi)):
            raise ValueError("eps, beta_lo and beta_hi must be finite")
        if self.eps <= 0:
            raise ValueError("eps must be positive")
        if self.variant is not Variant.GD:
            if not (0.0 <= self.beta_lo <= self.beta_hi <= 1.0):
                raise ValueError(
                    f"need 0 <= beta_lo <= beta_hi <= 1, got {self.beta_lo}, {self.beta_hi}")
        self.h = self.eps * self.eps

    @classmethod
    def from_h(cls, h: float, beta_lo: float = 0.0, beta_hi: float = 0.0,
               variant: Variant = Variant.POL) -> "AlgoParams":
        if h <= 0:
            raise ValueError("h must be positive")
        return cls(eps=math.sqrt(h), beta_lo=beta_lo, beta_hi=beta_hi, variant=variant)

    def to_json(self) -> str:
        return json.dumps(
            {"eps": self.eps, "beta_lo": self.beta_lo, "beta_hi": self.beta_hi,
             "variant": self.variant.value},
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "AlgoParams":
        d = json.loads(text)
        return cls(eps=d["eps"], beta_lo=d["beta_lo"], beta_hi=d["beta_hi"],
                   variant=Variant(d["variant"]))


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


def switching_beta(grad: Array, p: Array, params: AlgoParams) -> tuple[float, bool]:
    """beta_hi while momentum aligns with descent, beta_lo otherwise.

    The boundary <grad, p> = 0 takes the reset branch.
    """
    if params.variant not in (Variant.POL, Variant.NES):
        raise ValueError("switching law applies to POL and NES only")
    if float(np.dot(grad, p)) < 0.0:
        return params.beta_hi, False
    return params.beta_lo, True


def _finite(g: Array) -> Array:
    if not np.all(np.isfinite(g)):
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
            beta, _ = switching_beta(g, state.p, params)
        if variant is not Variant.POL:
            g = _finite(model.gradient(state.q + params.eps * beta * state.p))
        q_next = state.q + params.eps * (beta * state.p - params.eps * g)
    return IterState(q_prev=state.q, q=q_next, p=(q_next - state.q) / params.eps,
                     k=state.k + 1)


def nesterov_beta_schedule(alpha_prev: float) -> tuple[float, float]:
    """One step of the alpha recursion alpha_next^2 = (1 - alpha_next) alpha_prev^2.

    Returns (beta, alpha_next) with beta = alpha_prev(1 - alpha_prev) /
    (alpha_prev^2 + alpha_next); alpha_next is the positive root of
    a^2 + a*alpha_prev^2 - alpha_prev^2 = 0.
    """
    if not (0.0 < alpha_prev <= 1.0):
        raise ValueError("alpha_prev must lie in (0, 1]")
    a2 = alpha_prev * alpha_prev
    alpha_next = 0.5 * (-a2 + math.sqrt(a2 * a2 + 4.0 * a2))
    beta = alpha_prev * (1.0 - alpha_prev) / (a2 + alpha_next)
    return beta, alpha_next


@dataclass
class Trajectory:
    """Recorded run: one record per visited iterate (iterations + 1 rows)."""

    params: AlgoParams
    q0_prev: Array
    qs: list[Array]
    phi_gaps: list[float]
    inner_signs: list[int]
    betas: list[float]
    resets: list[bool]
    grad_norms: list[float]
    status: str = STATUS_MAX_ITER

    def __len__(self) -> int:
        return len(self.qs)

    @property
    def iterations(self) -> int:
        return len(self.qs) - 1

    def state_pair(self, k: int) -> tuple[Array, Array]:
        """(q_{k-1}, q_k) with q_{-1} = q0 - eps*p0."""
        prev = self.q0_prev if k == 0 else self.qs[k - 1]
        return prev, self.qs[k]

    def to_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("k,phi_gap,inner_sign,beta,reset,grad_norm\n")
            for k in range(len(self.qs)):
                fh.write("%d,%.17g,%d,%.17g,%d,%.17g\n" % (
                    k, self.phi_gaps[k], self.inner_signs[k], self.betas[k],
                    int(self.resets[k]), self.grad_norms[k]))

    def iterations_to_gap(self, target: float) -> Optional[int]:
        """First k with phi gap <= target, or None."""
        for k, g in enumerate(self.phi_gaps):
            if np.isfinite(g) and g <= target:
                return k
        return None


def run(model: ObjectiveModel, params: AlgoParams, q0: Array, max_iter: int,
        grad_tol: float = 0.0, p0: Optional[Array] = None) -> Trajectory:
    """Iterate the configured step, recording reset diagnostics per iterate.

    Stops at max_iter, at ||grad|| <= grad_tol, or when phi exceeds the
    divergence guard 1e12 * max(1, |phi(q0)|) (status "diverged"). Each
    visited iterate costs one value_grad call, whose value feeds the guard
    and the gap record and whose gradient feeds the record and the step;
    NES variants add one gradient at the extrapolated point per step.
    """
    if max_iter < 0:
        raise ValueError("max_iter must be >= 0")
    state = initial_state(q0, params.eps, p0)
    q0_prev = state.q_prev.copy()
    phi, g = model.value_grad(state.q)
    guard = DIVERGENCE_FACTOR * max(1.0, abs(phi))
    phi_star = math.nan if model.min_value is None else model.min_value
    alpha = 1.0  # NES_SCHEDULE state

    qs = [state.q.copy()]
    gaps, signs, betas, resets, gnorms = [], [], [], [], []
    status = STATUS_MAX_ITER
    while True:
        if params.variant is Variant.NES_SCHEDULE:
            beta, alpha = nesterov_beta_schedule(alpha)
            reset = False
        elif params.variant is Variant.GD:
            beta, reset = 0.0, False
        else:
            beta, reset = switching_beta(g, state.p, params)
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
        qs.append(state.q.copy())
        phi, g = model.value_grad(state.q)
        if not np.isfinite(phi) or phi > guard:
            status = STATUS_DIVERGED

    return Trajectory(params=params, q0_prev=q0_prev, qs=qs, phi_gaps=gaps,
                      inner_signs=signs, betas=betas, resets=resets,
                      grad_norms=gnorms, status=status)


def count_nonmonotone(traj: Trajectory) -> int:
    """Number of steps with phi(q_{k+1}) > phi(q_k). Needs phi* recorded."""
    if not all(np.isfinite(g) for g in traj.phi_gaps):
        raise ValueError("count_nonmonotone needs phi gaps (model with known phi*)")
    gaps = traj.phi_gaps
    return int(sum(1 for k in range(len(gaps) - 1) if gaps[k + 1] > gaps[k]))
