"""LMI feasibility via a log-det barrier phase I.

Problems are small (matrix blocks up to 16x16, at most a dozen scalar
unknowns), so everything here is plain dense numpy: numpy's LAPACK `eigh`
supplies eigenvalues, and one damped-Newton loop on the phase-I barrier
(Boyd & Vandenberghe, Convex Optimization, 11.4 and 11.6) either finds a
point or bounds the best achievable margin by weak duality. No external
solver is used.

A problem is a set of affine symmetric matrix maps v -> F0 + sum v_i F_i,
split into blocks required NSD by a margin and blocks required PD by the
same margin, plus scalar floors on selected variables and (optionally)
one linear normalization c.v = 1 that removes the scaling ray of a
homogeneous LMI system, and optional per-variable bounds.

`FeasProblem` compiles every constraint once into NSD maps
(`compiled_blocks()`). The search stacks those maps by size in its own
coordinates; the half-margin re-check evaluates them one by one with
`eigvalsh`. `solve_many` steps problems of one block shape together, one
row each, so that a pass costs one batched LAPACK call per block size
whatever the number of problems; every operation acts on each row as on
that problem alone, so a result does not depend on the stack.
`solve_feasibility` is a stack of one. `symmetric_eig` and
`FeasProblem.worst_block` are not called by the engine: they are the
hooks that the benchmark's tracer patches.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional, Sequence

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
    if not np.isfinite(a).all():
        raise ValueError(f"{what}: matrix has a non-finite entry")
    scale = max(1.0, float(np.abs(a).max()))
    if float(np.abs(a - a.T).max()) > _ASYM_TOL * scale:
        raise ValueError(f"{what}: matrix is not symmetric")
    return a


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
        out = self.constant.copy()
        for idx, mat in self.basis:
            out += v[idx] * mat
        return out

    def negated(self) -> "AffineMatrixMap":
        return AffineMatrixMap(constant=-self.constant,
                               basis=[(i, -m) for i, m in self.basis],
                               name=self.name)


@dataclass
class FeasProblem:
    """Feasibility data: nsd blocks <= -margin I, pd blocks >= +margin I,
    scalar floors v_i >= floor, optional normalization c.v = 1 and
    per-variable (lo, hi) bounds."""

    nvar: int
    nsd_blocks: list = field(default_factory=list)
    pd_blocks: list = field(default_factory=list)
    nonneg: dict = field(default_factory=dict)  # index -> floor
    normalization: Optional[Array] = None
    bounds: Optional[list] = None
    margin: float = 1e-9

    def __post_init__(self):
        if self.nvar < 0:
            raise ValueError("nvar must be nonnegative")
        if not (np.isfinite(self.margin) and self.margin > 0):
            raise ValueError("margin must be positive and finite")
        if not self.nsd_blocks and not self.pd_blocks:
            raise ValueError("need at least one matrix block")
        for blk in list(self.nsd_blocks) + list(self.pd_blocks):
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
            if float(np.linalg.norm(self.normalization)) == 0.0:
                raise ValueError("normalization vector is zero")
        if self.bounds is not None and len(self.bounds) != self.nvar:
            raise ValueError("bounds list has wrong length")
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
    for const, _, flat in groups:
        mats = const + (w[:, None, :] @ flat).reshape(const.shape)
        out.append((mats[..., 0], np.ones_like(mats)) if const.shape[-1] == 1
                   else np.linalg.eigh(mats))
    return out


def _block_sum(t: Array) -> Array:
    """Sum of t (..., k, d, m) over eigenvalues m, then over blocks k,
    each as a running sum in index order. accumulate fixes that order
    whatever the stack, so a row's bits do not depend on the rows beside
    it; they are the bits of einsum("kim,km->i") on that row alone."""
    inner = np.add.accumulate(t, axis=-1)[..., -1]
    return np.add.accumulate(inner, axis=-2)[..., -1, :]


def _barrier_terms(coefs: list, eigs: list, w: Array, s: Array, radius: Array):
    """Gradient and Hessian in x = (w, s) of the barrier
    -sum_j log det(sI - F_j(w)) - sum_i log(R^2 - w_i^2), together with
    sum_j tr Z_j and the weak-duality lower bound that Z_j = (sI - F_j)^-1
    gives on min over the box of max_j lambda_max(F_j); one row per
    problem."""
    b, d = w.shape
    grad = np.zeros((b, d + 1))
    hess = np.zeros((b, d + 1, d + 1))
    trz = lamz = 0.0
    for coef, (lam, vecs) in zip(coefs, eigs):
        # 1/(s - lam), its square and lam/(s - lam): shape (B, 3, k, m)
        z = np.empty((b, 3) + lam.shape[1:])
        inv = np.divide(1.0, s[:, None, None] - lam, out=z[:, 0])
        np.multiply(inv, inv, out=z[:, 1])
        np.multiply(lam, inv, out=z[:, 2])
        # U' G_i U for every block k and coordinate i: shape (B, k, d, m, m)
        rot = vecs.swapaxes(2, 3)[:, :, None] @ coef @ vecs[:, :, None]
        root = np.sqrt(inv)
        scaled = rot * root[:, :, None, :, None] * root[:, :, None, None, :]
        scaled = scaled.swapaxes(1, 2).reshape(b, d, -1)
        hess[:, :d, :d] += scaled @ scaled.swapaxes(1, 2)
        # tr(Z G_i) and tr(Z G_i Z) for every coordinate: shape (B, 2, d)
        terms = _block_sum(rot.diagonal(axis1=3, axis2=4)[:, None] * z[:, :2, :, None])
        grad[:, :d] += terms[:, 0]
        hess[:, :d, d] -= terms[:, 1]
        sums = z.reshape(b, 3, -1).sum(axis=2)
        trz += sums[:, 0]
        hess[:, d, d] += sums[:, 1]
        lamz += sums[:, 2]
    # tr(Z C) = sum lam/(s - lam) - w . tr(Z G); the box caps w . tr(Z G)
    g = grad[:, :d]
    bound = (lamz - np.vecdot(w, g) - radius * np.abs(g).sum(axis=1)) / trz
    hess[:, d, :d] = hess[:, :d, d]
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


def _verified(problem: FeasProblem, v: Array) -> bool:
    """The half-margin re-check, independent of the search's evaluation:
    every block, and every bound (which the search enforces exactly)
    relaxed by half the margin."""
    half = 0.5 * problem.margin
    for i, bd in enumerate(problem.bounds or ()):
        lo, hi = bd or (None, None)
        if (lo is not None and not v[i] >= lo - half) or \
                (hi is not None and not v[i] <= hi + half):
            return False
    return all(np.linalg.eigvalsh(blk.value(v))[-1] <= -half
               for blk in problem.compiled_blocks())


@dataclass
class _Lifted:
    """A problem in the search's coordinates v = v_base + basis w with
    |w_i| <= radius, and its blocks F(w) = C + sum w_i G_i stacked by
    size as (C, G)."""

    problem: FeasProblem
    v_base: Array
    basis: Array
    radius: float
    groups: list
    w0: Array

    def lift(self, w: Array) -> Array:
        return self.v_base + self.basis @ w


def _lifted(problem: FeasProblem, v_init: Optional[Array]):
    """The problem in search coordinates, or the FeasResult its bounds
    decide before any evaluation."""
    margin = problem.margin
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
    dim = basis.shape[1]
    by_size: dict = {}
    for blk in problem.compiled_blocks():
        m = blk.dim
        idx = np.array([i for i, _ in blk.basis], dtype=np.intp)
        mats = np.array([mat for _, mat in blk.basis], dtype=float).reshape(-1, m, m)
        by_size.setdefault(m, []).append(
            (blk.constant + np.tensordot(v_base[idx], mats, 1),
             np.tensordot(basis[idx].T, mats, 1)))
    for i, bd in enumerate(problem.bounds or ()):
        for sign, limit in zip((-1.0, 1.0), bd or ()):
            if limit is None:
                continue
            # row a.w <= b, unit-normalized; a zero row decides outright
            a, b = sign * basis[i], sign * (limit - v_base[i])
            nrm = float(np.linalg.norm(a))
            if nrm <= 1e-14:
                if b < 0.0:
                    return FeasResult(INFEASIBLE, None, np.inf, 0, "bounds conflict")
                continue
            by_size.setdefault(1, []).append((np.array([[-b / nrm - margin]]),
                                              (a / nrm).reshape(dim, 1, 1)))
    groups = [(np.array([c for c, _ in blocks]), np.array([g for _, g in blocks]))
              for _, blocks in sorted(by_size.items())]
    w0 = np.zeros(dim)
    if v_init is not None:
        # warm start: the first point is v_init, projected onto the
        # normalization and moved strictly inside the box if need be
        v_init = np.asarray(v_init, dtype=float)
        if v_init.shape != (problem.nvar,):
            raise ValueError("v_init has wrong length")
        w0 = np.clip(basis.T @ (v_init - v_base), -0.99 * radius, 0.99 * radius)
    return _Lifted(problem, v_base, basis, radius, groups, w0)


class _Rows:
    """The live problems of one phase-I stack, one row each. They start
    together and every pass evaluates each live row once, so they share
    one count of oracle calls. `keep` drops the rows whose verdict is in."""

    def __init__(self, lifts: list):
        n, d = len(lifts), lifts[0].w0.size
        self.ids = np.arange(n)
        self.groups = []
        for j in range(len(lifts[0].groups)):
            const = np.array([lf.groups[j][0] for lf in lifts])
            coef = np.array([lf.groups[j][1] for lf in lifts])
            # coordinates first, as tensordot(w, coef, (0, 1)) lays them out
            flat = coef.swapaxes(1, 2).reshape(n, d, const[0].size)
            self.groups.append((const, coef, flat))
        # a point clears the margin when its worst eigenvalue is <= limit
        self.limit = -np.array([lf.problem.margin for lf in lifts])
        self.radius = np.array([lf.radius for lf in lifts])
        self.w_try = np.array([lf.w0 for lf in lifts]).reshape(n, d)
        self.s_try = np.zeros(n)
        self.w, self.s = self.w_try, self.s_try
        self.step, self.alpha = np.zeros((n, d + 1)), np.zeros(n)
        self.tau = np.zeros(n)
        self.best, self.best_w = np.full(n, np.inf), self.w_try.copy()
        self.bound = np.full(n, -np.inf)

    def keep(self, mask: Array) -> None:
        for name, val in list(vars(self).items()):
            if name == "groups":
                self.groups = [tuple(a[mask] for a in grp) for grp in val]
            else:
                setattr(self, name, val[mask])


def _phase_one(lifts: list, max_oracle_calls: int) -> list:
    """Phase I on problems of one block shape, stepped together: each pass
    evaluates one point per live problem, and a problem leaves the stack
    at its verdict. Every row keeps its own tau, step length and bound,
    so its result does not depend on the rows beside it."""
    rows = _Rows(lifts)
    d = lifts[0].w0.size
    results = [None] * len(lifts)
    calls = 0

    def done(i: int, status: str, v, worst, message: str = "") -> None:
        results[rows.ids[i]] = FeasResult(status, v, float(worst), calls, message)

    def undecided(i: int, reason: str) -> None:
        lf, best = lifts[rows.ids[i]], float(rows.best[i])
        done(i, INDETERMINATE, lf.lift(rows.best_w[i]) if best < np.inf else None,
             best, f"{reason}; best worst eigenvalue {best:.3e}, "
                   f"last lower bound {float(rows.bound[i]):.3e}")

    while rows.ids.size:
        if calls >= max_oracle_calls:
            for i in range(rows.ids.size):
                undecided(i, "oracle budget exhausted")
            break
        # one oracle call per row: every block at its trial point
        eigs = _block_eigh(rows.groups, rows.w_try)
        calls += 1
        worst = np.concatenate([lam[:, :, -1] for lam, _ in eigs], axis=1).max(axis=1)
        better = worst < rows.best
        rows.best = np.where(better, worst, rows.best)
        np.copyto(rows.best_w, rows.w_try, where=better[:, None])
        clear = worst <= rows.limit
        finished = clear.copy()
        if calls == 1:
            # the first point is taken as it is
            rows.w, rows.s = rows.w_try, worst + 1.0
        else:
            accept = clear | ((rows.s_try > worst) & (
                np.abs(rows.w_try).max(axis=1) < rows.radius))
            rows.w = np.where(accept[:, None], rows.w_try, rows.w)
            rows.s = np.where(accept, rows.s_try, rows.s)
            # a rejected trial halves its step; halving only guards
            # against rounding, so a step that keeps failing has stalled
            for i in (~accept).nonzero()[0]:
                rows.alpha[i] *= 0.5
                if rows.alpha[i] < 1e-10:
                    undecided(i, "line search stalled")
                    finished[i] = True
            clear &= accept
        for i in clear.nonzero()[0]:
            lf = lifts[rows.ids[i]]
            v = lf.lift(rows.w[i])
            # the re-check is one more oracle call
            results[rows.ids[i]] = (
                FeasResult(FEASIBLE, v, float(worst[i]), calls + 1)
                if _verified(lf.problem, v) else
                FeasResult(INDETERMINATE, v, float(worst[i]), calls + 1,
                           "verification at half margin failed"))
        newton = (~finished if calls == 1 else accept & ~finished).nonzero()[0]
        if d == 0:
            # no free variable (none at all, or all pinned by the
            # normalization): the one point there is decides
            for i in newton:
                done(i, INFEASIBLE, None, worst[i],
                     f"no free variables: worst eigenvalue {float(worst[i])!r} > -margin")
            break
        if newton.size:
            sel = slice(None) if newton.size == rows.ids.size else newton
            grad, hess, trz, bound = _barrier_terms(
                [coef[sel] for _, coef, _ in rows.groups],
                [(lam[sel], vecs[sel]) for lam, vecs in eigs],
                rows.w[sel], rows.s[sel], rows.radius[sel])
            rows.bound[sel] = bound
            # tau starts where the s-gradient is zero
            tau = trz if calls == 1 else rows.tau[sel]
            scale = 1.0 / np.sqrt(hess.diagonal(axis1=1, axis2=2))
            chol, factored = _cholesky(hess * scale[:, :, None] * scale[:, None, :])
            go = factored & ~(bound > rows.limit[sel])
            if not go.all():
                for i, b in zip(newton[~go], bound[~go]):
                    if b > rows.limit[i]:
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
    return results


def solve_many(problems: Sequence[FeasProblem], max_oracle_calls: int = 200,
               v_inits: Optional[Sequence[Optional[Array]]] = None) -> list:
    """solve_feasibility on each problem, in one stacked phase I per
    block shape; results come back in input order, each the one that
    problem gets when solved alone."""
    problems = list(problems)
    v_inits = [None] * len(problems) if v_inits is None else list(v_inits)
    if len(v_inits) != len(problems):
        raise ValueError("need one v_init per problem")
    results: list = [None] * len(problems)
    shapes: dict = {}
    for i, (problem, v_init) in enumerate(zip(problems, v_inits)):
        lifted = _lifted(problem, v_init)
        if isinstance(lifted, FeasResult):
            results[i] = lifted
            continue
        key = (lifted.w0.size, tuple(c.shape for c, _ in lifted.groups))
        shapes.setdefault(key, []).append((i, lifted))
    for members in shapes.values():
        found = _phase_one([lf for _, lf in members], max_oracle_calls)
        for (i, _), res in zip(members, found):
            results[i] = res
    return results


def solve_feasibility(problem: FeasProblem, max_oracle_calls: int = 200,
                      v_init: Optional[Array] = None) -> FeasResult:
    """Search for v meeting every block constraint by the problem margin.

    Phase I with a log-det barrier: over x = (w, s), v = v_base + basis w
    inside the box |w_i| <= R, damped Newton minimizes
    tau s - sum_j log det(sI - F_j(w)) - sum log(box slacks), and tau
    grows after each centering. Bounds enter as 1x1 blocks shifted by
    -margin, so "<= -margin" on them means the bound holds. FEASIBLE is
    returned at the first evaluated point whose worst eigenvalue clears
    the margin and that an independent re-check passes at half margin
    (every block by eigvalsh, every bound relaxed by half the margin).
    INFEASIBLE is returned only when the weak-duality bound from
    Z_j = (sI - F_j)^-1 proves that no point of the box clears the
    margin; the bound is in the message. With no free variable the one
    point decides, and its worst eigenvalue is the stated bound. An
    exhausted budget or a numerically stalled step yields INDETERMINATE,
    never a guess. This is `solve_many` on a stack of one.
    """
    return solve_many([problem], max_oracle_calls, [v_init])[0]


def _map_to_doc(blk: AffineMatrixMap) -> dict:
    return {"name": blk.name, "constant": blk.constant.tolist(),
            "basis": [[idx, mat.tolist()] for idx, mat in blk.basis]}


def _map_from_doc(doc: dict) -> AffineMatrixMap:
    return AffineMatrixMap(constant=np.array(doc["constant"], dtype=float),
                           basis=[(int(i), np.array(m, dtype=float))
                                  for i, m in doc["basis"]],
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
        "bounds": (None if problem.bounds is None else
                   [None if bd is None else [bd[0], bd[1]] for bd in problem.bounds]),
    }
    return json.dumps(doc, sort_keys=True)


def problem_from_json(text: str) -> FeasProblem:
    doc = json.loads(text)
    bounds = doc.get("bounds")
    if bounds is not None:
        bounds = [None if bd is None else (bd[0], bd[1]) for bd in bounds]
    norm = doc.get("normalization")
    return FeasProblem(
        nvar=int(doc["nvar"]),
        nsd_blocks=[_map_from_doc(b) for b in doc["nsd_blocks"]],
        pd_blocks=[_map_from_doc(b) for b in doc["pd_blocks"]],
        nonneg={int(k): float(v) for k, v in doc.get("nonneg", {}).items()},
        normalization=None if norm is None else np.array(norm, dtype=float),
        bounds=bounds,
        margin=float(doc["margin"]))


def result_to_json(result: FeasResult) -> str:
    return json.dumps({
        "status": result.status,
        "v": None if result.v is None else result.v.tolist(),
        "worst_eig": result.worst_eig,
        "oracle_calls": result.oracle_calls,
        "message": result.message,
    }, sort_keys=True)
