"""Discrete-time momentum iterations with the inner-product reset law.

The two-step family

    q_{k+1} = q_k + eps * (beta(x_k) p_k - eps * grad(...)),
    p_{k+1} = (q_{k+1} - q_k) / eps,

switches beta between beta_hi (momentum kept) and beta_lo (reset branch)
by whether <grad phi(q_k), p_k> is `aligned`. POL evaluates the gradient
at q_k, NES at the extrapolated point q_k + eps*beta*p_k. GD and a
time-varying Nesterov schedule are included as baselines. `run_many` is
the one stepping loop: the runs of any mix of variants from one start
point step as the rows of one (B, n) stack, and `run` is its stack of one.
"""
from __future__ import annotations

import math
from contextlib import nullcontext
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


def aligned(inner, band=0.0):
    """The switching law: momentum aligns with descent when inner =
    <grad phi(q), p> < -band, band >= 0. The boundary inner = -band (and
    so inner = 0 of either sign at band 0) is not aligned, nor is a NaN.
    Elementwise over an array; a float gives a numpy bool, so ~ negates.
    """
    return np.less(inner, -band)


def switching_beta(inner, beta_lo, beta_hi):
    """(beta, reset): beta_hi while inner = <grad phi(q_k), p_k> is
    `aligned`, else beta_lo and the reset branch. Elementwise over (B,)
    inner products and (B,) or scalar betas; a float gives 0-d results."""
    keep = aligned(inner)
    return np.where(keep, beta_hi, beta_lo), ~keep


def _finite(g: Array) -> Array:
    if not np.isfinite(g).all():
        raise FloatingPointError("non-finite gradient")
    return g


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
        # k, inner_sign and reset go as floats: below 2**53, "%.17g" prints
        # an integer-valued float as "%d" prints the integer
        from .csv17 import write_rows  # compiled at the first write, not at import
        with open(path, "wb") as fh:
            fh.write(b"k,phi_gap,inner_sign,beta,reset,grad_norm\n")
            write_rows(fh, (np.arange(len(self)), self.phi_gaps, self.inner_signs,
                            self.betas, self.resets, self.grad_norms))

    def iterations_to_gap(self, target: float) -> Optional[int]:
        """First k with phi gap <= target, or None."""
        g = self.phi_gaps
        hits = np.flatnonzero(np.isfinite(g) & (g <= target))
        return int(hits[0]) if hits.size else None


def run(model: ObjectiveModel, params: AlgoParams, q0: Array, max_iter: int,
        grad_tol: float = 0.0) -> Trajectory:
    """`run_many` on a stack of one: params.variant from q0 (p0 = 0), with
    its reset diagnostics per iterate. model.value_grad must take the
    point q0 and a (1, n) stack.

    Stops at max_iter, at ||grad|| <= grad_tol, or when phi exceeds the
    divergence guard 1e12 * max(1, |phi(q0)|) (status "diverged"). Each
    visited iterate costs one value_grad call; NES variants add one
    gradient at the extrapolated point per step.
    """
    return run_many(model, [params], q0, max_iter, grad_tol)[0]


# run_many sorts its rows by variant in this order, so that the rows of
# each formula are one slice: GD's, the switching law's (POL and NES) and
# the extrapolated point's (NES and NES_SCHEDULE)
_ORDER = (Variant.GD, Variant.POL, Variant.NES, Variant.NES_SCHEDULE)
# run_many holds at most this many iterates' values in lists before it
# writes them into the records
_HELD = 64


def _calm(phis: list, norms: list, guard: float, grad_tol: float) -> bool:
    """Whether every phi (or screen) and gradient norm of a stack is
    finite (a NaN or inf makes a sum non-finite), phi at most guard and
    the norm above grad_tol: then no row stops and every gradient row is
    finite. On a stack's few rows, Python's sum, max and min cost a
    fraction of a numpy reduction's fixed cost."""
    return (math.isfinite(sum(phis) + sum(norms)) and max(phis) <= guard
            and min(norms) > grad_tol)


def _screen(phi0: float, q0: Array):
    """run_many's divergence screen from q0, whose value is phi0: (q, g,
    norms) -> [phi0 + 2 <g_i, q_i - q0>] over the rows of a stack q,
    their gradients g and the norms of those, a list. It never warns.
    Where the sum of the norms times max|q_i| + max|q0_i| is at most
    1e280, no partial sum of <g, q - q0> can near overflow (below 1e56
    dimensions); past that, or at an inf or NaN, the products go under
    np.errstate. The sums with phi0 are Python floats, which overflow to
    inf silently.

    A row whose value as computed is above the guard G, or not finite,
    has a screen above G or not finite. An inf or NaN in g or q, or an
    overflow, makes <g, q - q0> NaN or infinite (a sum that meets one
    stays so), and the screen with it. Otherwise the convexity that
    ObjectiveModel asks of its computed oracles gives <g, q - q0> >= 0.6
    G; as |phi0| <= 1e-12 G, the screen is at least (1.2 - 1e-12) G
    before its one rounding, which keeps it above G.
    """
    phi0, reach = float(phi0), float(np.abs(q0).max())

    def screen(q: Array, g: Array, norms: list) -> list:
        plain = sum(norms) * (float(np.abs(q).max()) + reach) <= 1e280
        with nullcontext() if plain else np.errstate(over="ignore", invalid="ignore"):
            inner = np.vecdot(g, q - q0)
        return [phi0 + 2.0 * x for x in inner.tolist()]
    return screen


def run_many(model: ObjectiveModel, params_seq: Sequence[AlgoParams], q0: Array,
             max_iter: int, grad_tol: float = 0.0, *, values: str = "all",
             start: Optional[tuple] = None) -> list[Trajectory]:
    """Runs of each of params_seq from one start point q0 (p0 = 0), as
    the rows of one (B, n) stack sorted by variant in `_ORDER`.

    A row steps q_{k+1} = q_k + eps * (beta p_k - eps g). beta comes from
    `switching_beta`, whether <grad phi(q_k), p_k> is `aligned` (POL,
    NES), or from the alpha recursion (NES_SCHEDULE). POL takes g at q_k,
    NES and NES_SCHEDULE at q_k + eps*beta*p_k (NES_SCHEDULE reads no
    gradient at q_k). GD steps q_k - h*grad phi(q_k) and records beta 0. A non-finite gradient that
    a step reads raises FloatingPointError.

    Each iterate makes one stacked value_grad call for every live row
    and, while NES or NES_SCHEDULE rows are live, one model.gradient call
    at their extrapolated points, under the `ObjectiveModel` contract: a
    (B, n) stack maps to (B,) values and (B, n) gradients, each row with
    the bits of its point alone, and nothing here writes into them.
    start, when given, is model.value_grad(q0), for a caller that runs
    many stacks from one q0. A run leaves the stack at the iterate where
    it stops, and each run's records, status, final q and phi are those
    of its stack of one, `run`.

    Where `_calm` finds that no row stops and every gradient is finite,
    the loop builds no per-row stop masks and skips the finite check of
    the gradients that the step reads.

    The loop appends each iterate's values, inner products and gradient
    norms (one norm per iterate) to lists, and writes them into the
    records as one block at each stop and every `_HELD` iterates, while
    the live rows stay the same. The block's signs, betas and resets are
    derived there from its inner products, through `switching_beta` as
    the loop derives its betas.

    values="last" (for callers that read only phi and status) screens
    intermediate iterates by convexity instead of evaluating phi: it
    calls model.gradient there, and a row whose `_screen`, phi0 + 2 <g,
    q - q0>, is finite and at most the guard has not diverged and records
    a NaN gap. Every other row, and every iterate where a run stops, gets
    value_grad's phi, so status, final q and phi are unchanged. An
    iterate where no row took value_grad's phi skips the stop tests, as
    no row can stop there.
    """
    if max_iter < 0:
        raise ValueError("max_iter must be >= 0")
    if values not in ("all", "last"):
        raise ValueError(f"values must be 'all' or 'last', got {values!r}")
    params_seq = list(params_seq)
    if not params_seq:
        return []
    ranks = [_ORDER.index(p.variant) for p in params_seq]
    order = sorted(range(len(ranks)), key=ranks.__getitem__)
    rank, group = np.array(sorted(ranks)), [params_seq[i] for i in order]
    # eps, h and the betas as (B,) columns; GD rows take beta 0
    eps, h, lo, hi = np.array([(p.eps, p.h, p.beta_lo, p.beta_hi) if p.variant != Variant.GD
                               else (p.eps, p.h, 0.0, 0.0) for p in group]).T
    eps, h = eps[:, None], h[:, None]
    size = len(group)
    q0 = np.asarray(q0, dtype=float)
    phi0, g0 = model.value_grad(q0) if start is None else start
    guard = DIVERGENCE_FACTOR * max(1.0, abs(phi0))
    screen = _screen(phi0, q0) if values == "last" else None
    phi_star = math.nan if model.min_value is None else model.min_value
    alpha = 1.0  # NES_SCHEDULE state

    q, p = np.repeat(q0[None], size, axis=0), np.zeros((size, q0.size))
    phi, g = np.full(size, phi0), np.repeat(np.asarray(g0)[None], size, axis=0)
    gnorm = np.sqrt(np.vecdot(g, g))
    # the rows that stop at this iterate (None: no row), the diverged ones
    # among them and whether every gradient is finite; none diverges at q0
    stop = None if gnorm[0] > grad_tol else gnorm <= grad_tol
    diverged, finite = np.zeros(size, dtype=bool), math.isfinite(gnorm[0])
    nans = np.full(size, math.nan)  # the phi of a row whose value is skipped
    live = np.arange(size)  # the record row of each stacked row
    at = slice(None)  # live, as a slice while every row is live
    a, b, c = np.searchsorted(rank, (1, 2, 3)).tolist()  # POL, NES, NES_SCHEDULE
    # records, in stack order; a run's iterates fill a prefix of its row
    gaps, betas, gnorms = (np.empty((size, max_iter + 1)) for _ in range(3))
    signs = np.empty((size, max_iter + 1), dtype=np.int8)
    resets = np.empty((size, max_iter + 1), dtype=bool)
    phis, inners, norms = held = ([], [], [])  # of iterates first..k
    first = 0
    schedule: list = []  # NES_SCHEDULE's beta at each iterate
    ends: list = [None] * size  # (length, status, q, phi)
    for k in range(max_iter + 1):
        inner = np.vecdot(g, p)
        beta = np.where(aligned(inner), hi, lo)  # switching_beta's beta
        if c < len(beta):
            beta[c:], alpha = nesterov_beta_schedule(alpha)
            schedule.append(beta[c])
        phis.append(phi)
        inners.append(inner)
        norms.append(gnorm)
        ending = k == max_iter
        stopping = ending or stop is not None and stop.any()
        if stopping or k + 1 - first == _HELD:
            # the held iterates go into the records as one block, with
            # their signs, betas and resets derived from the inner products
            phi_k, inner_k, norm_k = (np.array(column).T for column in held)
            for column in held:
                column.clear()
            beta_k, reset_k = switching_beta(inner_k, lo[:, None], hi[:, None])
            reset_k[:a] = reset_k[c:] = False
            if c < len(beta_k):
                beta_k[c:] = schedule[first:k + 1]
            block = (at, slice(first, k + 1))
            gaps[block] = phi_k - phi_star
            signs[block] = np.sign(np.where(np.isfinite(inner_k), inner_k, 0.0))
            betas[block], resets[block], gnorms[block] = beta_k, reset_k, norm_k
            first = k + 1
        if stopping:
            for i in range(len(live)) if ending else np.flatnonzero(stop):
                status = (STATUS_DIVERGED if stop is not None and diverged[i] else
                          STATUS_MAX_ITER if ending else STATUS_CONVERGED)
                ends[live[i]] = (k + 1, status, q[i].copy(), float(phi[i]))
            if ending or stop.all():
                break
            keep = ~stop
            live, rank, eps, h, lo, hi, q, p, g, gnorm, beta, nans = (
                v[keep] for v in (live, rank, eps, h, lo, hi, q, p, g, gnorm, beta, nans))
            at, (a, b, c) = live, np.searchsorted(rank, (1, 2, 3)).tolist()
        # each variant's formula, slice by slice: NES_SCHEDULE reads only
        # the gradient at its extrapolated point, and GD's momentum
        # formula (beta 0) is replaced by q - h*g, whose bits differ.
        if not finite:
            _finite(g[:c])
        beta = beta[:, None]
        if b < len(g):
            ahead = q[b:] + eps[b:] * beta[b:] * p[b:]
            g = np.concatenate((g[:b], _finite(model.gradient(ahead))))
        q_next = q + eps * (beta * p - eps * g)
        if a:
            q_next[:a] = q[:a] - h[:a] * g[:a]
        p, q = (q_next - q) / eps, q_next
        exact = screen is None or k + 1 == max_iter
        phi, g = model.value_grad(q) if exact else (nans, model.gradient(q))
        gnorm = np.sqrt(np.vecdot(g, g))
        sizes = gnorm.tolist()
        level = phi.tolist() if exact else screen(q, g, sizes)
        finite, stop = _calm(level, sizes, guard, grad_tol), None
        if not finite:
            # a screened row's phi is read where it may have diverged (its
            # screen is above the guard or not finite) or stops at grad_tol
            t = np.array(level)
            read = exact or ~(np.isfinite(t) & (t <= guard)) | (gnorm <= grad_tol)
            if not exact and read.any():
                phi = nans.copy()
                phi[read] = model.value(q[read])
            if np.any(read):
                diverged = read & (~np.isfinite(phi) | (phi > guard))
                stop = diverged | (gnorm <= grad_tol)

    out: list = [None] * size
    for row, (i, (n, status, q_end, phi_end)) in enumerate(zip(order, ends)):
        out[i] = Trajectory(params=params_seq[i], phi_gaps=gaps[row, :n],
                            inner_signs=signs[row, :n], betas=betas[row, :n],
                            resets=resets[row, :n], grad_norms=gnorms[row, :n],
                            q=q_end, phi=phi_end, status=status)
    return out


def count_nonmonotone(traj: Trajectory) -> int:
    """Number of steps with phi(q_{k+1}) > phi(q_k). Needs phi* recorded."""
    g = traj.phi_gaps
    if not np.isfinite(g).all():
        raise ValueError("count_nonmonotone needs phi gaps (model with known phi*)")
    return int(np.count_nonzero(g[1:] > g[:-1]))
