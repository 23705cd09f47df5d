"""LMI feasibility via a log-det barrier phase I.

Problems are small (matrix blocks of at most MAX_EIG_DIM = 16 rows,
refused when a `FeasProblem` is built; at most a dozen scalar unknowns),
so everything here is plain dense numpy: numpy's LAPACK `eigh` supplies
eigenpairs, and one damped-Newton loop on the phase-I barrier (Boyd &
Vandenberghe, Convex Optimization, 11.4 and 11.6) either finds a point
or bounds the best achievable margin by weak duality. The barrier's
derivatives are contractions of the coefficient matrices with
Z = (sI - F)^-1 and Z kron Z, built per block from the eigenpairs; a
block of m rows costs m^4 per coordinate. No external solver is used.

A problem is a set of affine symmetric matrix maps v -> F0 + sum v_i F_i,
split into blocks required NSD by a margin and blocks required PD by the
same margin, plus scalar floors on selected variables and (optionally)
one linear normalization c.v = 1 that removes the scaling ray of a
homogeneous LMI system. Any other scalar constraint is a 1x1 block.

`FeasProblem` compiles every constraint once into NSD maps
(`compiled_blocks()`). `lift` moves them into the search's coordinates;
a caller can lift shared blocks once and add the rest per problem with
`Lifted.with_blocks`. The half-margin re-check evaluates every block in
v with `eigvalsh`. `solve_stream` steps problems of one block shape
together, one row each, so that a pass costs one LAPACK call per size
whatever the number of problems; problems join the stack between passes
and leave it at their verdict or when dropped, and each counts its own
oracle calls. Every operation acts on each row as on that problem alone,
so a result does not depend on the stack or on when the problem joined.
`solve_feasibility` is a stream of one problem. `symmetric_eig` and
`FeasProblem.worst_block` are not called by the engine: they are the
hooks that the benchmark's tracer patches.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

Array = np.ndarray

FEASIBLE = "feasible"
INFEASIBLE = "infeasible"
INDETERMINATE = "indeterminate"

MAX_EIG_DIM = 16
_ASYM_TOL = 1e-10

# phase I: tau grows by this factor once the Newton decrement is at most
# _CENTERED, i.e. once the point is close enough to the central path
_TAU_GROWTH = 10.0
_CENTERED = 0.25


def _check_symmetric(a: Array, what: str) -> Array:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{what}: expected a square matrix, got shape {a.shape}")
    check_symmetric_stack(a[None], lambda _: what)
    return a


def check_symmetric_stack(mats: Array, name: Callable[[int], str]) -> None:
    """Reject the first matrix i of a stack (k, m, m) that has a non-finite
    entry or an asymmetry above _ASYM_TOL * max(1, its largest entry)."""
    finite = np.isfinite(mats).all(axis=(1, 2))
    clean = np.where(finite[:, None, None], mats, 0.0)
    scale = np.maximum(1.0, np.abs(clean).max(axis=(1, 2)))
    bad = ~finite | (np.abs(clean - clean.swapaxes(1, 2)).max(axis=(1, 2)) > _ASYM_TOL * scale)
    if bad.any():
        i = int(bad.argmax())
        raise ValueError(f"{name(i)}: matrix "
                         + ("is not symmetric" if finite[i] else "has a non-finite entry"))


def symmetric_eig(a: Array) -> tuple[Array, Array]:
    """Eigendecomposition of a symmetric matrix by LAPACK (numpy's `eigh`).

    Returns (eigenvalues ascending, eigenvectors as columns). Meant for
    the small blocks that arise here; dimensions above 16 are rejected.
    """
    a = _check_symmetric(a, "symmetric_eig")
    n = a.shape[0]
    if n > MAX_EIG_DIM:
        raise ValueError(f"matrix dimension {n} exceeds supported maximum {MAX_EIG_DIM}")
    return np.linalg.eigh(0.5 * (a + a.T))


@dataclass
class AffineMatrixMap:
    """v |-> constant + sum over (i, F) in basis of v_i * F."""

    constant: Array
    basis: list  # (variable index, symmetric matrix) pairs
    name: str = ""

    def __post_init__(self):
        self.constant = _check_symmetric(self.constant, f"map {self.name}: constant")
        m = self.constant.shape[0]
        checked = []
        for i, (idx, mat) in enumerate(self.basis):
            mat = _check_symmetric(mat, f"map {self.name}: basis[{i}]")
            if mat.shape != (m, m):
                raise ValueError(f"map {self.name}: basis[{i}] shape {mat.shape} != {(m, m)}")
            checked.append((int(idx), mat))
        self.basis = checked

    @property
    def dim(self) -> int:
        return self.constant.shape[0]

    def value(self, v: Array) -> Array:
        return sum((v[idx] * mat for idx, mat in self.basis), self.constant.copy())

    def negated(self) -> "AffineMatrixMap":
        return AffineMatrixMap(constant=-self.constant,
                               basis=[(i, -m) for i, m in self.basis],
                               name=self.name)


@dataclass
class FeasProblem:
    """Feasibility data: nsd blocks <= -margin I, pd blocks >= +margin I,
    scalar floors v_i >= floor and an optional normalization c.v = 1.
    A block has at most MAX_EIG_DIM rows."""

    nvar: int
    nsd_blocks: list = field(default_factory=list)
    pd_blocks: list = field(default_factory=list)
    nonneg: dict = field(default_factory=dict)  # index -> floor
    normalization: Optional[Array] = None
    margin: float = 1e-9

    def __post_init__(self):
        if self.nvar < 0:
            raise ValueError("nvar must be nonnegative")
        if not (np.isfinite(self.margin) and self.margin > 0):
            raise ValueError("margin must be positive and finite")
        if not self.nsd_blocks and not self.pd_blocks:
            raise ValueError("need at least one matrix block")
        for kind in ("nsd_blocks", "pd_blocks"):
            for i, blk in enumerate(getattr(self, kind)):
                if blk.dim > MAX_EIG_DIM:
                    raise ValueError(f"{kind}[{i}] (map {blk.name!r}): dimension {blk.dim} "
                                     f"exceeds the supported maximum {MAX_EIG_DIM}")
                for idx, _ in blk.basis:
                    if not (0 <= idx < self.nvar):
                        raise ValueError(f"map {blk.name}: variable index {idx} out of range")
        for idx in self.nonneg:
            if not (0 <= idx < self.nvar):
                raise ValueError(f"nonneg index {idx} out of range")
        if self.normalization is not None:
            self.normalization = np.asarray(self.normalization, dtype=float)
            if self.normalization.shape != (self.nvar,):
                raise ValueError("normalization vector has wrong length")
            if not np.isfinite(self.normalization).all():
                raise ValueError("normalization vector has a non-finite entry")
            if float(np.linalg.norm(self.normalization)) == 0.0:
                raise ValueError("normalization vector is zero")
        # everything as NSD maps, once: pd blocks negated, floors as 1x1
        # maps (floor - v_i <= -margin, i.e. v_i >= floor + margin);
        # building a floor's map also rejects a non-finite floor
        self._compiled = list(self.nsd_blocks)
        self._compiled += [blk.negated() for blk in self.pd_blocks]
        for idx in sorted(self.nonneg):
            self._compiled.append(AffineMatrixMap(
                constant=np.array([[float(self.nonneg[idx])]]),
                basis=[(idx, np.array([[-1.0]]))], name=f"floor_v{idx}"))

    def compiled_blocks(self) -> list:
        """Every constraint as an NSD map: nsd blocks, then the pd blocks
        negated, then the floors as 1x1 maps."""
        return list(self._compiled)

    def worst_block(self, v: Array) -> tuple[float, Array, str]:
        """Largest eigenvalue over compiled_blocks() at v, with a
        subgradient (u' F_i u per coordinate, u the top eigenvector of the
        worst block; repeated indices add up) and the block's name."""
        # no engine code calls this; it is the bench tracer's sdp.oracle hook
        worst, grad, which = -np.inf, np.zeros(self.nvar), ""
        for blk in self.compiled_blocks():
            vals, vecs = np.linalg.eigh(blk.value(v))
            if vals[-1] > worst:
                worst, which, u = float(vals[-1]), blk.name, vecs[:, -1]
                grad = np.zeros(self.nvar)
                for idx, mat in blk.basis:
                    grad[idx] += u @ mat @ u
        return worst, grad, which


@dataclass
class FeasResult:
    status: str
    v: Optional[Array]
    worst_eig: float        # achieved max eigenvalue over sign-adjusted blocks
    oracle_calls: int
    message: str = ""

    @property
    def feasible(self) -> bool:
        return self.status == FEASIBLE


def _block_eigh(groups: list, w: Array) -> list:
    """(eigenvalues, eigenvectors) of every block at the rows of w, one
    row per problem: one stacked LAPACK call per block size. A 1x1 block
    is its own eigenvalue, with eigenvector 1, as LAPACK gives it."""
    out = []
    for const, flat in groups:
        mats = const + (w[:, None, :] @ flat).reshape(const.shape)
        out.append((mats[..., 0], np.ones_like(mats)) if const.shape[-1] == 1
                   else np.linalg.eigh(mats))
    return out


def _barrier_terms(flats: list, eigs: list, w: Array, s: Array, radius: Array):
    """Gradient and Hessian in x = (w, s) of the barrier
    -sum_j log det(sI - F_j(w)) - sum_i log(R^2 - w_i^2), together with
    sum_j tr Z_j and the weak-duality lower bound that Z_j = (sI - F_j)^-1
    gives on min over the box of max_j lambda_max(F_j); one row per
    problem.

    The w-derivatives are contractions with Z (Boyd & Vandenberghe,
    Convex Optimization, 11.6): tr(Z G_i), tr(Z G_i Z) and
    tr(Z G_i Z G_j). Each block size builds vec Z, vec Z^2 and, through
    the per-block Z kron Z, vec(Z G_i Z) from the eigenpairs, and one
    stacked product with the group's `flat` coefficients adds all three
    for each row. The traces of Z and Z^2 and sum lam/(s - lam) come from
    the eigenvalues. The w-Hessian is symmetric up to rounding; its
    Cholesky factor reads the lower triangle."""
    b, d = w.shape
    # 1/(s - lam), its square and lam/(s - lam) of every eigenvalue: (B, 3, M)
    lams = np.concatenate([lam.reshape(b, -1) for lam, _ in eigs], axis=1)
    z = np.empty((b, 3, lams.shape[1]))
    inv = np.divide(1.0, s[:, None] - lams, out=z[:, 0])
    np.multiply(inv, inv, out=z[:, 1])
    np.multiply(lams, inv, out=z[:, 2])
    trz, trz2, lamz = z.sum(axis=2).T
    # per group: for each coordinate i, vec(Z G_i Z), then vec Z and vec Z^2
    # (B, d + 2, k m^2); its product with the group's coefficients adds
    # tr(Z G_i Z G_j), then tr(Z G_j) and tr(Z^2 G_j): (B, d + 2, d)
    prod = np.zeros((b, d + 2, d))
    at = 0
    for flat, (lam, vecs) in zip(flats, eigs):
        k, m = lam.shape[1:]
        zk = z[:, :2, at:at + k * m]
        at += k * m
        lhs = np.empty((b, d + 2, k * m * m))
        if m == 1:
            # a 1x1 block is its own Z, and Z kron Z is its square
            lhs[:, d:] = zk
            np.multiply(flat, zk[:, 1:], out=lhs[:, :d])
        else:
            # V diag(1/(s - lam)) V' and V diag(1/(s - lam)^2) V': (B, 2, k, m, m)
            zz = (vecs[:, None] * zk.reshape(b, 2, k, 1, m)) @ vecs.swapaxes(2, 3)[:, None]
            lhs[:, d:] = zz.reshape(b, 2, -1)
            coef, out = flat.reshape(b, d, k, m * m), lhs[:, :d].reshape(b, d, k, m * m)
            # one block at a time: Z kron Z of all k at once would only
            # hold more memory
            for j in range(k):
                zb = zz[:, 0, j]
                kron = (zb[:, :, None, :, None] * zb[:, None, :, None, :]).reshape(
                    b, m * m, m * m)
                np.matmul(coef[:, :, j], kron, out=out[:, :, j])
        prod += lhs @ flat.swapaxes(1, 2)
    grad = np.empty((b, d + 1))
    hess = np.empty((b, d + 1, d + 1))
    hess[:, :d, :d] = prod[:, :d]
    grad[:, :d] = prod[:, d]
    np.negative(prod[:, d + 1], out=hess[:, :d, d])
    hess[:, d, :d] = hess[:, :d, d]
    hess[:, d, d] = trz2
    # tr(Z C) = sum lam/(s - lam) - w . tr(Z G); the box caps w . tr(Z G)
    g = grad[:, :d]
    bound = (lamz - np.vecdot(w, g) - radius * np.abs(g).sum(axis=1)) / trz
    grad[:, d] = -trz
    up, dn = 1.0 / (radius[:, None] - w), 1.0 / (radius[:, None] + w)
    grad[:, :d] += up - dn
    # the first d diagonal entries of each Hessian, as a writable view
    hess.reshape(b, -1)[:, :d * (d + 2):d + 2] += up * up + dn * dn
    return grad, hess, trz, bound


def _cholesky(a: Array) -> tuple[Array, Array]:
    """Stacked Cholesky factors and a mask of the rows that have one; a
    row that is not numerically positive definite fails alone."""
    try:
        return np.linalg.cholesky(a), np.ones(len(a), dtype=bool)
    except np.linalg.LinAlgError:
        out, ok = np.zeros_like(a), np.ones(len(a), dtype=bool)
        for i, row in enumerate(a):
            try:
                out[i] = np.linalg.cholesky(row)
            except np.linalg.LinAlgError:
                ok[i] = False
        return out, ok


def _newton_step(chol: Array, scale: Array, grad: Array, tau: Array):
    """Newton steps and decrements for tau * s plus the barrier, from the
    Cholesky factors of the Jacobi-scaled Hessians (one row per problem)."""
    rhs = -scale * grad
    rhs[:, -1] = -scale[:, -1] * (grad[:, -1] + tau)
    half = np.linalg.solve(chol, rhs[:, :, None])
    step = scale * np.linalg.solve(chol.swapaxes(1, 2), half)[:, :, 0]
    half = half[:, :, 0]
    return step, np.sqrt(np.vecdot(half, half))


def _verified(lifted: "Lifted", v: Array) -> bool:
    """The half-margin re-check, independent of the search's evaluation:
    every block in v by half the margin."""
    half = 0.5 * lifted.margin
    # each block summed in basis order, as AffineMatrixMap.value sums it
    return all(np.linalg.eigvalsh(sum((v[i] * mat for i, mat in zip(idx, mats)), const))[-1]
               <= -half for const, idx, mats in lifted.blocks)


@dataclass
class Lifted:
    """A problem in the search's coordinates v = v_base + basis w, |w_i| <=
    radius: its blocks F(w) = C + sum w_i G_i as `parts` (C, G), and for
    the re-check the same blocks in v (constant, idx, mats)."""

    v_base: Array
    basis: Array
    radius: float
    margin: float
    parts: list
    blocks: list

    def lift(self, w: Array) -> Array:
        return self.v_base + self.basis @ w

    def with_blocks(self, blocks: list) -> "Lifted":
        """This problem with more NSD blocks, given in v, ahead of its own."""
        parts = [(const + np.tensordot(self.v_base[idx], mats, 1),
                  np.tensordot(self.basis[idx].T, mats, 1)) for const, idx, mats in blocks]
        return Lifted(self.v_base, self.basis, self.radius, self.margin,
                      parts + self.parts, list(blocks) + self.blocks)

    def start(self, v_init: Optional[Array]) -> Array:
        """0, or v_init projected onto the normalization and into the box."""
        if v_init is None:
            return np.zeros(self.basis.shape[1])
        v_init = np.asarray(v_init, dtype=float)
        if v_init.shape != self.v_base.shape:
            raise ValueError("v_init has wrong length")
        return np.clip(self.basis.T @ (v_init - self.v_base),
                       -0.99 * self.radius, 0.99 * self.radius)


def lift(problem: FeasProblem) -> Lifted:
    """The problem in search coordinates."""
    if problem.normalization is not None:
        c = problem.normalization
        v_base = c / float(c @ c)
        # columns span {w : c.w = 0}: QR of c as a single column
        basis = np.linalg.qr(c.reshape(-1, 1), mode="complete")[0][:, 1:]
        radius = 4.0
    else:
        v_base = np.zeros(problem.nvar)
        basis = np.eye(problem.nvar)
        radius = 10.0
    blocks = [(blk.constant, np.array([i for i, _ in blk.basis], dtype=np.intp),
               np.array([m for _, m in blk.basis], dtype=float).reshape(-1, blk.dim, blk.dim))
              for blk in problem.compiled_blocks()]
    return Lifted(v_base, basis, radius, problem.margin, [], []).with_blocks(blocks)


class _Rows:
    """The live problems of one phase-I stack, one row each, numbered by
    `ids` in the order they joined. Every pass evaluates each live row
    once, and each row counts its own oracle calls from when it joined.
    `keep` drops the rows whose verdict is in; `join` appends new rows.

    Each block size is a group (const, flat): the constants (B, k, m, m)
    and `flat`, the coefficients (B, d, k m^2) with the coordinates
    first, as tensordot(w, coef, (0, 1)) lays them out. The memory layout
    of `flat` picks the BLAS kernels of the products with it, and so
    their bits; it is C order whether made here, kept or joined (for
    m = 1 the reshape alone would be a strided view), so a row's bits do
    not depend on the stack's history."""

    def __init__(self, lifts: list, starts: list, ids: Array):
        n, d = len(lifts), lifts[0].basis.shape[1]
        self.ids = ids
        self.groups = []
        for m in sorted({c.shape[0] for c, _ in lifts[0].parts}):
            const = np.array([[c for c, _ in lf.parts if c.shape[0] == m] for lf in lifts])
            coef = np.array([[g for c, g in lf.parts if c.shape[0] == m] for lf in lifts])
            self.groups.append((const, np.ascontiguousarray(coef.swapaxes(1, 2).reshape(
                n, d, math.prod(const.shape[1:])))))
        # a point clears the margin when its worst eigenvalue is <= limit
        self.limit = -np.array([lf.margin for lf in lifts])
        self.radius = np.array([lf.radius for lf in lifts])
        self.calls = np.zeros(n, dtype=int)
        self.w_try = np.array(starts).reshape(n, d)
        self.s_try = np.zeros(n)
        self.w, self.s = self.w_try, self.s_try
        self.step, self.alpha = np.zeros((n, d + 1)), np.zeros(n)
        self.tau = np.zeros(n)
        self.best, self.best_w = np.full(n, np.inf), self.w_try.copy()
        self.bound = np.full(n, -np.inf)

    def keep(self, mask: Array) -> None:
        for name, val in list(vars(self).items()):
            if name == "groups":
                self.groups = [(const[mask], flat[mask]) for const, flat in val]
            else:
                setattr(self, name, val[mask])

    def join(self, other: "_Rows") -> "_Rows":
        for name, val in list(vars(self).items()):
            if name == "groups":
                self.groups = [tuple(map(np.concatenate, zip(grp, more)))
                               for grp, more in zip(val, other.groups)]
            else:
                setattr(self, name, np.concatenate([val, getattr(other, name)]))
        return self


def solve_stream(feed: Callable[[list], tuple], max_oracle_calls: int = 200) -> None:
    """Phase I on a stream of problems of one block shape, stepped
    together. Before each pass, `feed` is given the (key, FeasResult)
    pairs decided since it was last called (none at first) and returns
    the (key, Lifted, v_init) triples that join the stack and the keys
    of live problems to drop from it, which get no result; the stream
    ends when the stack is empty and `feed` returns none. Each pass
    evaluates one point per live problem, and a problem leaves the stack
    at its verdict or its drop. Each row keeps its own oracle count, tau,
    step length and bound, so it gets the result it gets solved alone."""
    live: dict = {}  # id -> (key, Lifted) of each problem in the stack
    joined = 0
    rows = None
    decided: list = []

    def done(i: int, status: str, v, worst, message: str = "") -> None:
        key, _ = live.pop(rows.ids[i])
        decided.append((key, FeasResult(status, v, float(worst), int(rows.calls[i]), message)))

    def undecided(i: int, reason: str) -> None:
        lf, best = live[rows.ids[i]][1], float(rows.best[i])
        done(i, INDETERMINATE, lf.lift(rows.best_w[i]) if best < np.inf else None,
             best, f"{reason}; best worst eigenvalue {best:.3e}, "
                   f"last lower bound {float(rows.bound[i]):.3e}")

    while True:
        joining, dropping = feed(decided)
        decided = []
        if dropping:
            stay = np.array([live[i][0] not in dropping for i in rows.ids.tolist()], dtype=bool)
            for i in rows.ids[~stay].tolist():
                del live[i]
            rows.keep(stay)
        if joining:
            ids = np.arange(joined, joined + len(joining))
            joined += len(joining)
            live.update(zip(ids.tolist(), [(key, lf) for key, lf, _ in joining]))
            new = _Rows([lf for _, lf, _ in joining], [lf.start(v) for _, lf, v in joining], ids)
            rows = new if rows is None else rows.join(new)
        if rows is None or not rows.ids.size:
            return
        spent = rows.calls >= max_oracle_calls
        if spent.any():
            # decided before the pass, so their successors join it
            for i in spent.nonzero()[0]:
                undecided(i, "oracle budget exhausted")
            rows.keep(~spent)
            continue
        d = rows.w.shape[1]
        # one oracle call per row: every block at its trial point
        eigs = _block_eigh(rows.groups, rows.w_try)
        rows.calls += 1
        first = rows.calls == 1
        worst = np.concatenate([lam[:, :, -1] for lam, _ in eigs], axis=1).max(axis=1)
        better = worst < rows.best
        rows.best = np.where(better, worst, rows.best)
        np.copyto(rows.best_w, rows.w_try, where=better[:, None])
        clear = worst <= rows.limit
        finished = clear.copy()
        # a row's first point is taken as it is
        accept = first | clear | ((rows.s_try > worst) & (
            np.abs(rows.w_try).max(axis=1, initial=0.0) < rows.radius))
        rows.w = np.where(accept[:, None], rows.w_try, rows.w)
        rows.s = np.where(first, worst + 1.0, np.where(accept, rows.s_try, rows.s))
        # a rejected trial halves its step; halving only guards against
        # rounding, so a step that keeps failing has stalled
        for i in (~accept).nonzero()[0]:
            rows.alpha[i] *= 0.5
            if rows.alpha[i] < 1e-10:
                undecided(i, "line search stalled")
                finished[i] = True
        clear &= accept
        for i in clear.nonzero()[0]:
            lf = live[rows.ids[i]][1]
            v = lf.lift(rows.w[i])
            # the re-check is one more oracle call
            rows.calls[i] += 1
            ok = _verified(lf, v)
            done(i, FEASIBLE if ok else INDETERMINATE, v, worst[i],
                 "" if ok else "verification at half margin failed")
        newton = (accept & ~finished).nonzero()[0]
        if d == 0:
            # no free variable (none at all, or all pinned by the
            # normalization): the one point there is decides
            for i in newton:
                done(i, INFEASIBLE, None, worst[i],
                     f"no free variables: worst eigenvalue {float(worst[i])!r} > -margin")
            finished[newton] = True
        elif newton.size:
            sel = slice(None) if newton.size == rows.ids.size else newton
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                grad, hess, trz, bound = _barrier_terms(
                    [flat[sel] for _, flat in rows.groups],
                    [(lam[sel], vecs[sel]) for lam, vecs in eigs],
                    rows.w[sel], rows.s[sel], rows.radius[sel])
            # an overflowed row fails alone; eye stands in for its Hessian
            finite = np.isfinite(np.column_stack([grad, hess.reshape(len(hess), -1), bound]))
            finite = finite.all(axis=1)
            hess[~finite] = np.eye(d + 1)
            rows.bound[sel] = bound
            # tau starts where the s-gradient is zero
            tau = np.where(first[sel], trz, rows.tau[sel])
            scale = 1.0 / np.sqrt(hess.diagonal(axis1=1, axis2=2))
            chol, factored = _cholesky(hess * scale[:, :, None] * scale[:, None, :])
            go = finite & factored & ~(bound > rows.limit[sel])
            if not go.all():
                for i, b, ok in zip(newton[~go], bound[~go], finite[~go]):
                    if not ok:
                        undecided(i, "barrier terms not finite")
                    elif b > rows.limit[i]:
                        done(i, INFEASIBLE, None, rows.best[i],
                             f"phase-I lower bound {float(b)!r} > -margin")
                    else:
                        undecided(i, "Newton system not positive definite")
                finished[newton[~go]] = True
                sel = newton[go]
                chol, scale, grad, tau = chol[go], scale[go], grad[go], tau[go]
            step, dec = _newton_step(chol, scale, grad, tau)
            grow = (dec <= _CENTERED).nonzero()[0]
            while grow.size:
                tau[grow] *= _TAU_GROWTH
                step[grow], dec[grow] = _newton_step(chol[grow], scale[grow],
                                                     grad[grow], tau[grow])
                grow = grow[dec[grow] <= _CENTERED]
            # the damped step 1/(1 + dec) stays in the barrier's domain
            # and lowers it
            rows.tau[sel], rows.step[sel] = tau, step
            rows.alpha[sel] = 1.0 / (1.0 + dec)
        # the next trial of every row still searching (finished rows
        # leave the stack below)
        rows.w_try = rows.w + rows.alpha[:, None] * rows.step[:, :-1]
        rows.s_try = rows.s + rows.alpha * rows.step[:, -1]
        if finished.any():
            rows.keep(~finished)


def solve_feasibility(problem: FeasProblem, max_oracle_calls: int = 200,
                      v_init: Optional[Array] = None) -> FeasResult:
    """Search for v meeting every block constraint by the problem margin.

    Phase I with a log-det barrier: over x = (w, s), v = v_base + basis w
    inside the box |w_i| <= R, damped Newton minimizes
    tau s - sum_j log det(sI - F_j(w)) - sum log(box slacks), and tau
    grows after each centering. FEASIBLE is returned at the first
    evaluated point whose worst eigenvalue clears the margin and that an
    independent re-check, every block by eigvalsh, passes at half margin.
    INFEASIBLE is returned only when the weak-duality bound from
    Z_j = (sI - F_j)^-1 proves that no point of the box clears the
    margin; the bound is in the message. With no free variable the one
    point decides, and its worst eigenvalue is the stated bound. An
    exhausted budget or a numerically stalled step yields INDETERMINATE,
    never a guess. This is `solve_stream` fed this one problem.
    """
    joining = iter([[(None, lift(problem), v_init)]])
    found: list = []

    def feed(decided: list) -> tuple:
        found.extend(res for _, res in decided)
        return next(joining, []), []

    solve_stream(feed, max_oracle_calls)
    return found[0]


def _map_to_doc(blk: AffineMatrixMap) -> dict:
    return {"name": blk.name, "constant": blk.constant.tolist(),
            "basis": [[idx, mat.tolist()] for idx, mat in blk.basis]}


def _object(doc, where: str, keys: tuple, optional: tuple) -> dict:
    """doc, a JSON object with each of keys and no other key but optional ones."""
    if not isinstance(doc, dict):
        raise ValueError(f"problem JSON: {where} is not an object")
    missing = [key for key in keys if key not in doc]
    unknown = sorted(set(doc) - set(keys) - set(optional))
    if missing or unknown:
        what = f"lacks key {missing[0]!r}" if missing else f"has unknown key {unknown[0]!r}"
        raise ValueError(f"problem JSON: {where} {what}")
    return doc


def _map_from_doc(doc, where: str) -> AffineMatrixMap:
    doc = _object(doc, where, ("constant", "basis"), ("name",))
    return AffineMatrixMap(constant=np.array(doc["constant"], dtype=float),
                           basis=[(int(i), np.array(m, dtype=float)) for i, m in doc["basis"]],
                           name=doc.get("name", ""))


def problem_to_json(problem: FeasProblem) -> str:
    doc = {
        "nvar": problem.nvar,
        "margin": problem.margin,
        "nsd_blocks": [_map_to_doc(b) for b in problem.nsd_blocks],
        "pd_blocks": [_map_to_doc(b) for b in problem.pd_blocks],
        "nonneg": {str(k): v for k, v in problem.nonneg.items()},
        "normalization": (None if problem.normalization is None
                          else problem.normalization.tolist()),
    }
    return json.dumps(doc, sort_keys=True)


def problem_from_json(text: str) -> FeasProblem:
    """The problem problem_to_json wrote; a missing, unknown or bad key is a
    ValueError naming it. "bounds": null, which earlier dumps hold, reads."""
    keys = ("nvar", "margin", "nsd_blocks", "pd_blocks")
    doc = _object(json.loads(text), "the top level", keys, ("nonneg", "normalization", "bounds"))
    if doc.pop("bounds", None) is not None:
        raise ValueError('problem JSON: "bounds" is not supported; state them as 1x1 blocks')
    floors = doc.get("nonneg", {})
    if not (isinstance(floors, dict) and all(map(str.isdecimal, floors))):
        raise ValueError("problem JSON: nonneg must map variable indices to floors, "
                         f"got {json.dumps(floors)}")
    norm = doc.get("normalization")
    return FeasProblem(
        nvar=int(doc["nvar"]),
        nsd_blocks=[_map_from_doc(b, f"nsd_blocks[{i}]") for i, b in enumerate(doc["nsd_blocks"])],
        pd_blocks=[_map_from_doc(b, f"pd_blocks[{i}]") for i, b in enumerate(doc["pd_blocks"])],
        nonneg={int(k): float(v) for k, v in floors.items()},
        normalization=None if norm is None else np.array(norm, dtype=float),
        margin=float(doc["margin"]))
