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
`run_many` drives the same `step` and switching law for several runs
from one start point at once, as rows of a (B, n) stack.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional, Sequence

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
    """Two-point state (q_{k-1}, q_k) with momentum p_k = (q_k - q_{k-1})/eps.

    On a (B, n) stack each row is the state of one run.
    """

    q_prev: Array
    q: Array
    p: Array
    k: int = 0


def initial_state(q0: Array, eps: float, p0: Optional[Array] = None) -> IterState:
    q0 = np.asarray(q0, dtype=float)
    p0 = np.zeros_like(q0) if p0 is None else np.asarray(p0, dtype=float)
    return IterState(q_prev=q0 - eps * p0, q=q0.copy(), p=p0.copy(), k=0)


def switching_beta(grad: Array, p: Array, params: AlgoParams):
    """beta_hi while momentum aligns with descent, beta_lo otherwise.

    Returns (beta, reset). The boundary <grad, p> = 0, and a NaN, take the
    reset branch. Row by row on a (B, n) stack, whose params hold (B,)
    vectors of betas (`_Stack`).
    """
    if params.variant not in (Variant.POL, Variant.NES):
        raise ValueError("switching law applies to POL and NES only")
    keep = np.vecdot(grad, p) < 0.0
    return np.where(keep, params.beta_hi, params.beta_lo), ~keep


def _momentum(params: AlgoParams, g: Array, p: Array, alpha: float):
    """(beta, reset, next alpha) at one iterate with gradient g and momentum p.

    POL and NES follow the switching law; NES_SCHEDULE takes the next
    beta of the alpha recursion, the same for every row of a stack; GD
    has no momentum.
    """
    if params.variant is Variant.NES_SCHEDULE:
        beta, alpha = nesterov_beta_schedule(alpha)
        return beta, False, alpha
    if params.variant is Variant.GD:
        return 0.0, False, alpha
    beta, reset = switching_beta(g, p, params)
    return beta, reset, alpha


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
    is q_k - h*grad phi(q_k) (p is kept for uniform records). The update
    is elementwise, so on a (B, n) stack it steps each row with its own
    eps, h and beta, given as (B, 1) columns.
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
    """Recorded run: one record per visited iterate (iterations + 1 rows),
    each record a numpy column, plus the last iterate q and its value phi.
    """

    params: AlgoParams
    phi_gaps: Array
    inner_signs: Array
    betas: Array
    resets: Array
    grad_norms: Array
    q: Array
    phi: float
    status: str = STATUS_MAX_ITER

    def __post_init__(self):
        self.phi_gaps = np.asarray(self.phi_gaps, dtype=float)
        self.inner_signs = np.asarray(self.inner_signs, dtype=np.int8)
        self.betas = np.asarray(self.betas, dtype=float)
        self.resets = np.asarray(self.resets, dtype=bool)
        self.grad_norms = np.asarray(self.grad_norms, dtype=float)

    def __len__(self) -> int:
        return len(self.phi_gaps)

    @property
    def iterations(self) -> int:
        return len(self.phi_gaps) - 1

    def to_csv(self, path) -> None:
        # one format string per row over plain Python numbers, 1024 rows
        # at a time, as HybridArc.to_csv does
        row = "%d,%.17g,%d,%.17g,%d,%.17g\n"
        with open(path, "w") as fh:
            fh.write("k,phi_gap,inner_sign,beta,reset,grad_norm\n")
            for lo in range(0, len(self), 1024):
                part = slice(lo, lo + 1024)
                fh.writelines(row % rec for rec in zip(
                    range(lo, lo + 1024), self.phi_gaps[part].tolist(),
                    self.inner_signs[part].tolist(), self.betas[part].tolist(),
                    self.resets[part].tolist(), self.grad_norms[part].tolist()))

    def iterations_to_gap(self, target: float) -> Optional[int]:
        """First k with phi gap <= target, or None."""
        g = self.phi_gaps
        hits = np.flatnonzero(np.isfinite(g) & (g <= target))
        return int(hits[0]) if hits.size else None


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
    phi, g = model.value_grad(state.q)
    guard = DIVERGENCE_FACTOR * max(1.0, abs(phi))
    phi_star = math.nan if model.min_value is None else model.min_value
    alpha = 1.0  # NES_SCHEDULE state

    gaps, signs, betas, resets, gnorms = [], [], [], [], []
    status = STATUS_MAX_ITER
    while True:
        beta, reset, alpha = _momentum(params, g, state.p, alpha)
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


@dataclass
class _Stack:
    """The AlgoParams of B runs of one variant, as `step` and
    `switching_beta` read them on a (B, n) state: eps and h as (B, 1)
    columns, beta_lo and beta_hi as (B,) vectors."""

    variant: Variant
    eps: Array
    h: Array
    beta_lo: Array
    beta_hi: Array

    @classmethod
    def of(cls, group: Sequence[AlgoParams]) -> "_Stack":
        def col(name):
            return np.array([getattr(p, name) for p in group])
        return cls(group[0].variant, col("eps")[:, None], col("h")[:, None],
                   col("beta_lo"), col("beta_hi"))

    def rows(self, keep: Array) -> "_Stack":
        return _Stack(self.variant, self.eps[keep], self.h[keep],
                      self.beta_lo[keep], self.beta_hi[keep])


def run_many(model: ObjectiveModel, params_seq: Sequence[AlgoParams], q0: Array,
             max_iter: int, grad_tol: float = 0.0) -> list[Trajectory]:
    """`run` for each of params_seq from one start point q0 (p0 = 0).

    Runs of one variant step together as the rows of a (B, n) stack, so
    each iterate makes one stacked value_grad call for all of them (NES
    variants one more at the extrapolated points); model.value_grad must
    map a (B, n) stack to (B,) values and (B, n) gradients. A run leaves
    the stack at the iterate where it stops. With an oracle that gives
    each row the bits it gives that point alone (`quad_eval_grad` does),
    every record, status, final q and phi equals `run`'s bit for bit.
    """
    if max_iter < 0:
        raise ValueError("max_iter must be >= 0")
    params_seq = list(params_seq)
    out: list = [None] * len(params_seq)
    for variant in Variant:
        idx = [i for i, p in enumerate(params_seq) if p.variant is variant]
        if idx:
            trajs = _run_stack(model, [params_seq[i] for i in idx], q0,
                               max_iter, grad_tol)
            for i, traj in zip(idx, trajs):
                out[i] = traj
    return out


def _run_stack(model: ObjectiveModel, group: list[AlgoParams], q0: Array,
               max_iter: int, grad_tol: float) -> list[Trajectory]:
    """`run`'s loop on a (B, n) stack of runs of one variant."""
    size = len(group)
    params = _Stack.of(group)
    q0 = np.asarray(q0, dtype=float)
    phi0, g0 = model.value_grad(q0)
    guard = DIVERGENCE_FACTOR * max(1.0, abs(phi0))
    phi_star = math.nan if model.min_value is None else model.min_value
    alpha = 1.0  # NES_SCHEDULE state

    q = np.tile(q0, (size, 1))
    state = IterState(q_prev=q, q=q, p=np.zeros_like(q))
    phi, g = np.full(size, phi0), np.tile(g0, (size, 1))
    diverged = np.zeros(size, dtype=bool)
    live = np.arange(size)  # the run of each stacked row
    # records, run by run; a run's iterates fill a prefix of its row
    gaps, betas, gnorms = (np.empty((size, max_iter + 1)) for _ in range(3))
    signs = np.empty((size, max_iter + 1), dtype=np.int8)
    resets = np.empty((size, max_iter + 1), dtype=bool)
    ends: list = [None] * size  # (length, status, q, phi)
    for k in range(max_iter + 1):
        beta, reset, alpha = _momentum(params, g, state.p, alpha)
        inner = np.vecdot(g, state.p)
        gnorm = np.sqrt(np.vecdot(g, g))
        gaps[live, k] = phi - phi_star
        signs[live, k] = np.sign(np.where(np.isfinite(inner), inner, 0.0))
        betas[live, k] = beta
        resets[live, k] = reset
        gnorms[live, k] = gnorm
        stop = diverged | (gnorm <= grad_tol) | (k == max_iter)
        if stop.any():
            for i in np.flatnonzero(stop):
                status = (STATUS_DIVERGED if diverged[i] else
                          STATUS_MAX_ITER if k == max_iter else STATUS_CONVERGED)
                ends[live[i]] = (k + 1, status, state.q[i].copy(), float(phi[i]))
            keep = ~stop
            if not keep.any():
                break
            live, params, g = live[keep], params.rows(keep), g[keep]
            state = IterState(q_prev=state.q_prev[keep], q=state.q[keep],
                              p=state.p[keep], k=state.k)
            if np.ndim(beta):
                beta = beta[keep]
        state = step(state, params, model, grad=g, beta=np.reshape(beta, (-1, 1)))
        phi, g = model.value_grad(state.q)
        diverged = ~np.isfinite(phi) | (phi > guard)

    return [Trajectory(params=p, phi_gaps=gaps[i, :n], inner_signs=signs[i, :n],
                       betas=betas[i, :n], resets=resets[i, :n],
                       grad_norms=gnorms[i, :n], q=q_end, phi=phi_end,
                       status=status)
            for i, (p, (n, status, q_end, phi_end)) in enumerate(zip(group, ends))]


def count_nonmonotone(traj: Trajectory) -> int:
    """Number of steps with phi(q_{k+1}) > phi(q_k). Needs phi* recorded."""
    g = traj.phi_gaps
    if not np.isfinite(g).all():
        raise ValueError("count_nonmonotone needs phi gaps (model with known phi*)")
    return int(np.count_nonzero(g[1:] > g[:-1]))
