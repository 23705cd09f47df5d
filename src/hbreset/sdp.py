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
`eigvalsh`. `symmetric_eig` and `FeasProblem.worst_block` are not called
by the engine: they are the hooks that the benchmark's tracer patches.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional

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
    """(eigenvalues, eigenvectors) of the blocks of each size at w: one
    stacked LAPACK call per size."""
    return [np.linalg.eigh(const + np.tensordot(w, coef, axes=(0, 1)))
            for const, coef in groups]


def _barrier_terms(groups: list, eigs: list, w: Array, s: float, radius: float):
    """Gradient and Hessian in x = (w, s) of the barrier
    -sum_j log det(sI - F_j(w)) - sum_i log(R^2 - w_i^2), together with
    sum_j tr Z_j and the weak-duality lower bound that Z_j = (sI - F_j)^-1
    gives on min over the box of max_j lambda_max(F_j)."""
    d = len(w)
    grad = np.zeros(d + 1)
    hess = np.zeros((d + 1, d + 1))
    trz = lamz = 0.0
    for (_, coef), (lam, vecs) in zip(groups, eigs):
        inv = 1.0 / (s - lam)
        # U' G_i U for every block k and coordinate i: shape (k, d, m, m)
        rot = vecs.swapaxes(1, 2)[:, None] @ coef @ vecs[:, None]
        diag = np.diagonal(rot, axis1=2, axis2=3)
        root = np.sqrt(inv)
        scaled = rot * root[:, None, :, None] * root[:, None, None, :]
        scaled = scaled.swapaxes(0, 1).reshape(d, -1)
        grad[:d] += np.einsum("kim,km->i", diag, inv)
        hess[:d, :d] += scaled @ scaled.T
        hess[:d, d] -= np.einsum("kim,km->i", diag, inv * inv)
        hess[d, d] += float((inv * inv).sum())
        trz += float(inv.sum())
        lamz += float((lam * inv).sum())
    # tr(Z C) = sum lam/(s - lam) - w . tr(Z G); the box caps w . tr(Z G)
    bound = (lamz - float(w @ grad[:d]) - radius * float(np.abs(grad[:d]).sum())) / trz
    hess[d, :d] = hess[:d, d]
    grad[d] = -trz
    up, dn = 1.0 / (radius - w), 1.0 / (radius + w)
    grad[:d] += up - dn
    hess[np.diag_indices(d)] += up * up + dn * dn
    return grad, hess, trz, bound


def _newton_step(hess: Array, grad: Array, tau: float) -> tuple[Array, float]:
    """Newton step and decrement for tau * s plus the barrier, from a
    Cholesky factor of the Jacobi-scaled Hessian (LinAlgError when that
    is not numerically positive definite)."""
    scale = 1.0 / np.sqrt(np.diag(hess))
    chol = np.linalg.cholesky(hess * scale[:, None] * scale)
    rhs = -scale * grad
    rhs[-1] = -scale[-1] * (grad[-1] + tau)
    half = np.linalg.solve(chol, rhs)
    return scale * np.linalg.solve(chol.T, half), float(np.sqrt(half @ half))


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
    never a guess.
    """
    margin = problem.margin
    calls = 0

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

    def lift(w: Array) -> Array:
        return v_base + basis @ w

    def verified(v: Array) -> bool:
        # the half-margin re-check, independent of the search's evaluation:
        # every block, and every bound (which the search enforces exactly)
        # relaxed by half the margin
        nonlocal calls
        calls += 1
        half = 0.5 * margin
        for i, bd in enumerate(problem.bounds or ()):
            lo, hi = bd or (None, None)
            if (lo is not None and not v[i] >= lo - half) or \
                    (hi is not None and not v[i] <= hi + half):
                return False
        return all(np.linalg.eigvalsh(blk.value(v))[-1] <= -half
                   for blk in problem.compiled_blocks())

    # every block in w-coordinates, stacked by size: F(w) = C + sum w_i G_i
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
                    return FeasResult(INFEASIBLE, None, np.inf, calls, "bounds conflict")
                continue
            by_size.setdefault(1, []).append((np.array([[-b / nrm - margin]]),
                                              (a / nrm).reshape(dim, 1, 1)))
    groups = [(np.array([c for c, _ in blocks]), np.array([g for _, g in blocks]))
              for _, blocks in sorted(by_size.items())]

    w = np.zeros(dim)
    if v_init is not None:
        # warm start: the first point is v_init, projected onto the
        # normalization and moved strictly inside the box if need be
        v_init = np.asarray(v_init, dtype=float)
        if v_init.shape != (problem.nvar,):
            raise ValueError("v_init has wrong length")
        w = np.clip(basis.T @ (v_init - v_base), -0.99 * radius, 0.99 * radius)

    best_worst, best_v, bound = np.inf, None, -np.inf

    def evaluate(w: Array):
        # one oracle call: every block at one point
        nonlocal calls, best_worst, best_v
        calls += 1
        eigs = _block_eigh(groups, w)
        worst = max(float(lam[:, -1].max()) for lam, _ in eigs)
        if worst < best_worst:
            best_worst, best_v = worst, lift(w)
        return eigs, worst

    def undecided(reason: str) -> FeasResult:
        return FeasResult(INDETERMINATE, best_v, best_worst, calls,
                          f"{reason}; best worst eigenvalue {best_worst:.3e}, "
                          f"last lower bound {bound:.3e}")

    if calls >= max_oracle_calls:
        return undecided("oracle budget exhausted")
    eigs, worst = evaluate(w)
    if dim == 0 and worst > -margin:
        # no free variable (none at all, or all pinned by the
        # normalization): the one point there is decides
        return FeasResult(INFEASIBLE, None, worst, calls,
                          f"no free variables: worst eigenvalue {worst!r} > -margin")
    s, tau = worst + 1.0, None
    while True:
        if worst <= -margin:
            v = lift(w)
            if verified(v):
                return FeasResult(FEASIBLE, v, worst, calls)
            return FeasResult(INDETERMINATE, v, worst, calls,
                              "verification at half margin failed")
        grad, hess, trz, bound = _barrier_terms(groups, eigs, w, s, radius)
        if bound > -margin:
            return FeasResult(INFEASIBLE, None, best_worst, calls,
                              f"phase-I lower bound {bound!r} > -margin")
        tau = trz if tau is None else tau  # zero s-gradient at the start
        try:
            step, dec = _newton_step(hess, grad, tau)
            while dec <= _CENTERED:
                tau *= _TAU_GROWTH
                step, dec = _newton_step(hess, grad, tau)
        except np.linalg.LinAlgError:
            return undecided("Newton system not positive definite")
        # the damped step 1/(1 + dec) stays in the barrier's domain and
        # lowers it; halving only guards against rounding
        alpha = 1.0 / (1.0 + dec)
        while True:
            if calls >= max_oracle_calls:
                return undecided("oracle budget exhausted")
            w_try, s_try = w + alpha * step[:-1], s + alpha * step[-1]
            eigs_try, worst_try = evaluate(w_try)
            if worst_try <= -margin or (s_try > worst_try
                                        and np.abs(w_try).max() < radius):
                break
            alpha *= 0.5
            if alpha < 1e-10:
                return undecided("line search stalled")
        w, s, eigs, worst = w_try, s_try, eigs_try, worst_try


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
