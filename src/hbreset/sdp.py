"""LMI feasibility via analytic-center cutting planes.

Problems are small (matrix blocks up to 16x16, at most a dozen scalar
unknowns), so everything here is plain dense numpy: numpy's LAPACK `eigh`
supplies eigenvalues and the cutting-plane oracle, and a damped-Newton
analytic center method drives the search. No external solver is used.

A problem is a set of affine symmetric matrix maps v -> F0 + sum v_i F_i,
split into blocks required NSD by a margin and blocks required PD by the
same margin, plus scalar floors on selected variables and (optionally)
one linear normalization c.v = 1 that removes the scaling ray of a
homogeneous LMI system.
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


def eig_max(a: Array) -> tuple[float, Array]:
    """Largest eigenvalue and a unit eigenvector."""
    vals, vecs = symmetric_eig(a)
    return float(vals[-1]), vecs[:, -1].copy()


def check_nsd(a: Array, tol: float = 0.0) -> bool:
    vals, _ = symmetric_eig(a)
    return bool(vals[-1] <= tol)


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
        # the oracle's view of compiled_blocks(): (name, constant, variable
        # indices, stacked basis matrices) per block; compiling also rejects
        # a non-finite floor
        self._oracle_blocks = []
        for blk in self.compiled_blocks():
            m = blk.dim
            idx = np.array([i for i, _ in blk.basis], dtype=np.intp)
            mats = np.array([mat for _, mat in blk.basis], dtype=float).reshape(-1, m, m)
            self._oracle_blocks.append((blk.name, blk.constant, idx, mats))

    def compiled_blocks(self) -> list:
        """Everything as NSD maps: pd blocks negated, floors as 1x1 maps
        (floor - v_i <= -margin, i.e. v_i >= floor + margin)."""
        out = list(self.nsd_blocks)
        out += [blk.negated() for blk in self.pd_blocks]
        for idx in sorted(self.nonneg):
            floor = self.nonneg[idx]
            out.append(AffineMatrixMap(constant=np.array([[float(floor)]]),
                                       basis=[(idx, np.array([[-1.0]]))],
                                       name=f"floor_v{idx}"))
        return out

    def worst_block(self, v: Array) -> tuple[float, Array, str]:
        """Largest eigenvalue over all sign-adjusted blocks at v, with a
        subgradient (u' F_i u per coordinate, u the top eigenvector of
        the worst block; repeated indices add up)."""
        worst = -np.inf
        grad = np.zeros(self.nvar)
        which = ""
        for name, const, idx, mats in self._oracle_blocks:
            vals, vecs = np.linalg.eigh(const + np.tensordot(v[idx], mats, 1))
            if vals[-1] > worst:
                worst = float(vals[-1])
                which = name
                u = vecs[:, -1]
                grad = np.bincount(idx, np.einsum("i,kij,j->k", u, mats, u),
                                   minlength=self.nvar)
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


def _nullspace_basis(c: Array) -> Array:
    # columns span {w : c.w = 0}; QR of c as a single column
    n = len(c)
    q, _ = np.linalg.qr(c.reshape(n, 1), mode="complete")
    return q[:, 1:]


class _Polytope:
    """Rows a_k.w <= b_k with unit-norm a_k; supports center finding."""

    def __init__(self, dim: int):
        self.dim = dim
        self.rows_a: list = []
        self.rows_b: list = []

    def add(self, a: Array, b: float) -> Optional[str]:
        nrm = float(np.linalg.norm(a))
        if nrm <= 1e-14:
            # degenerate cut: 0 <= b decides outright
            return None if b >= 0.0 else INFEASIBLE
        self.rows_a.append(np.asarray(a, dtype=float) / nrm)
        self.rows_b.append(b / nrm)
        return None

    def matrices(self) -> tuple[Array, Array]:
        return np.array(self.rows_a), np.array(self.rows_b)


def _quick_interior(poly: _Polytope, w_prev: Optional[Array],
                    w_cut: Array) -> Optional[Array]:
    """Cheap interior candidates: the previous interior point (the new
    cut may have missed it), then a step off the newest row from the cut
    center, sized from the exact slack interval along the row normal."""
    tau = 1e-11
    a, b = poly.matrices()
    if w_prev is not None and float((b - a @ w_prev).min()) > tau:
        return w_prev
    a_new = a[-1]
    s = b - a @ w_cut  # s[-1] < 0: the cut removed the center
    c = a @ a_new
    lo = float(-s[-1]) + tau
    hi = np.inf
    for j in range(len(b) - 1):
        if c[j] < -1e-14:
            hi = min(hi, (s[j] - tau) / (-c[j]))
    if hi > lo:
        w = w_cut - 0.5 * (lo + min(hi, 3.0 * lo + 1.0)) * a_new
        if float((b - a @ w).min()) > tau:
            return w
    return None


def _interior_point(poly: _Polytope, w0: Array, box_radius: float):
    """Find a strictly interior point, or certify the polytope empty.

    Minimizes the softmax of constraint violations with a decreasing
    temperature. Returns (w, None) on success, (None, "empty") when the
    convexity lower bound shows max-violation > 0 everywhere, and
    (None, "stalled") otherwise.
    """
    a, b = poly.matrices()
    logm = np.log(a.shape[0])
    reg = np.eye(poly.dim)
    w = w0.copy()
    r = a @ w - b  # constraint residuals at w; positive = violated

    def softmax_terms(res: Array, t: float):
        # psi = t * log sum exp(res / t), with the unnormalised weights
        # and their sum (pi = weights / sum)
        z = res / t
        zmax = float(z.max())
        e = np.exp(z - zmax)
        total = e.sum()
        return t * (zmax + np.log(total)), e, total

    # the final temperatures must resolve slacks near the solve margin,
    # which can be as tight as ~1e-9 in well-cut regions
    for t in (1e-1, 1e-2, 1e-3, 1e-4, 1e-6, 1e-8, 1e-10, 1e-12):
        tlogm = t * logm
        psi_prev = None
        terms = None  # softmax terms at w for this t, kept from the line search
        for _ in range(60):
            if float(r.max()) < -1e-12:
                return w, None
            psi, e, total = terms if terms is not None else softmax_terms(r, t)
            pi = e / total
            grad = a.T @ pi
            gnorm = float(np.linalg.norm(grad))
            # convexity bound: min of max-violation over the box is at
            # least psi - |grad|*reach - t*log m; positive proves the
            # polytope empty (reach = farthest box point from w)
            reach = float(np.sqrt(np.sum(np.maximum(np.abs(w - box_radius),
                                                    np.abs(w + box_radius)) ** 2)))
            if psi - gnorm * reach - tlogm > 0.0:
                return None, "empty"
            if gnorm <= 1e-15:
                break
            if (psi_prev is not None and psi_prev - psi < 0.05 * t
                    and psi <= tlogm):
                # too coarse: the emptiness bound cannot fire at this
                # temperature and progress has flattened out, so descend
                break
            psi_prev = psi
            hess = (a.T * pi) @ a / t - np.outer(grad, grad) / t
            hess += (1e-12 / t) * reg
            try:
                step = np.linalg.solve(hess, -grad)
            except np.linalg.LinAlgError:
                step = -grad
            slope = float(grad @ step)
            if slope >= 0.0:
                step = -grad
                slope = -gnorm * gnorm
            alpha = 1.0
            moved = False
            for _ in range(40):
                w_try = w + alpha * step
                r_try = a @ w_try - b
                terms = softmax_terms(r_try, t)
                if terms[0] <= psi + 1e-4 * alpha * slope:
                    w, r = w_try, r_try
                    moved = True
                    break
                alpha *= 0.5
            if not moved:
                break
    if float(r.max()) < -1e-12:
        return w, None
    return None, "stalled"


def _analytic_center(poly: _Polytope, w0: Array) -> Array:
    """Damped Newton on -sum log(slack), started strictly inside."""
    a, b = poly.matrices()
    w = w0.copy()
    s = b - a @ w
    if s.min() <= 0.0:
        return w
    for _ in range(50):
        inv = 1.0 / s
        grad = a.T @ inv
        hess = (a.T * inv ** 2) @ a + 1e-14 * np.eye(poly.dim)
        try:
            step = np.linalg.solve(hess, -grad)
        except np.linalg.LinAlgError:
            break
        decrement = float(-grad @ step)
        if decrement <= 2e-12:
            break
        alpha = 1.0
        phi0 = float(-np.sum(np.log(s)))
        for _ in range(60):
            sn = b - a @ (w + alpha * step)
            if sn.min() > 0.0:
                phin = float(-np.sum(np.log(sn)))
                if phin < phi0 - 1e-4 * alpha * decrement or alpha < 1e-8:
                    break
            alpha *= 0.5
        else:
            return w
        w = w + alpha * step
        s = b - a @ w
    return w


def solve_feasibility(problem: FeasProblem, max_oracle_calls: int = 200,
                      v_init: Optional[Array] = None,
                      box_radius: Optional[float] = None) -> FeasResult:
    """Search for v meeting every block constraint by the problem margin.

    Analytic-center cutting planes on f(v) = max block eigenvalue (a
    convex function; subgradient from the top eigenvector). FEASIBLE
    results are re-verified at half margin before being returned.
    INFEASIBLE is only reported when the cut region is certifiably empty.
    Budget exhaustion yields INDETERMINATE, never a guess.
    """
    margin = problem.margin
    calls = 0

    if problem.nvar == 0:
        worst, _, _ = problem.worst_block(np.zeros(0))
        ok = worst <= -margin
        return FeasResult(FEASIBLE if ok else INFEASIBLE, np.zeros(0), worst, 1)

    if problem.normalization is not None:
        c = problem.normalization
        v_base = c / float(c @ c)
        basis = _nullspace_basis(c)
        radius = 4.0 if box_radius is None else box_radius
    else:
        c = None
        v_base = np.zeros(problem.nvar)
        basis = np.eye(problem.nvar)
        radius = 10.0 if box_radius is None else box_radius
    dim = basis.shape[1]

    def lift(w: Array) -> Array:
        return v_base + basis @ w

    best_worst = np.inf
    best_v = None

    def probe(v: Array):
        nonlocal calls, best_worst, best_v
        calls += 1
        worst, grad, name = problem.worst_block(v)
        if worst < best_worst:
            best_worst, best_v = worst, v.copy()
        return worst, grad, name

    def verify(v: Array) -> bool:
        nonlocal calls
        calls += 1
        worst, _, _ = problem.worst_block(v)
        return worst <= -0.5 * margin

    if dim == 0:
        # normalization pins v completely
        worst, _, _ = probe(v_base)
        if worst <= -margin and verify(v_base):
            return FeasResult(FEASIBLE, v_base, worst, calls)
        return FeasResult(INFEASIBLE, None, worst, calls,
                          "variable fixed by normalization")

    poly = _Polytope(dim)
    for i in range(dim):
        e = np.zeros(dim)
        e[i] = 1.0
        poly.add(e, radius)
        poly.add(-e, radius)
    if problem.bounds is not None:
        for i, bd in enumerate(problem.bounds):
            if bd is None:
                continue
            lo, hi = bd
            row = basis[i, :]
            if hi is not None:
                st = poly.add(row, hi - v_base[i])
                if st == INFEASIBLE:
                    return FeasResult(INFEASIBLE, None, np.inf, calls, "bounds conflict")
            if lo is not None:
                st = poly.add(-row, v_base[i] - lo)
                if st == INFEASIBLE:
                    return FeasResult(INFEASIBLE, None, np.inf, calls, "bounds conflict")


    def add_cut(w_at: Array, worst: float, grad_v: Array) -> Optional[str]:
        # subgradient inequality: any margin-feasible v obeys
        # grad.(v - v_at) <= -margin - worst (a deep cut when worst > -margin)
        rhs = -margin - worst
        a_row = basis.T @ grad_v
        return poly.add(a_row, rhs + float(a_row @ w_at))

    def find_interior(w_prev: Optional[Array], w_cut: Array):
        w = _quick_interior(poly, w_prev, w_cut)
        if w is not None:
            return w, None
        return _interior_point(poly, w_cut, radius)

    w_int, status = find_interior(np.zeros(dim), np.zeros(dim))
    if status == "empty":
        return FeasResult(INFEASIBLE, None, np.inf, calls, "search box empty")
    if w_int is None:
        return FeasResult(INDETERMINATE, best_v, best_worst, calls, "no interior start")

    if v_init is not None:
        v_init = np.asarray(v_init, dtype=float)
        if v_init.shape != (problem.nvar,):
            raise ValueError("v_init has wrong length")
        worst, grad, name = probe(v_init)
        if worst <= -margin and verify(v_init):
            return FeasResult(FEASIBLE, v_init, worst, calls)
        w_at = basis.T @ (v_init - v_base)
        st = add_cut(w_at, worst, grad)
        if st == INFEASIBLE:
            return FeasResult(INFEASIBLE, None, best_worst, calls,
                              "flat objective exceeds margin")
        w_int, status = find_interior(w_int, w_at)
        if status == "empty":
            return FeasResult(INFEASIBLE, None, best_worst, calls, "cut region empty")
        if w_int is None:
            return FeasResult(INDETERMINATE, best_v, best_worst, calls,
                              "interior search stalled")

    while calls < max_oracle_calls:
        w_c = _analytic_center(poly, w_int)
        v_c = lift(w_c)
        worst, grad, name = probe(v_c)
        if worst <= -margin:
            if verify(v_c):
                return FeasResult(FEASIBLE, v_c, worst, calls)
            return FeasResult(INDETERMINATE, v_c, worst, calls,
                              "verification at half margin failed")
        st = add_cut(w_c, worst, grad)
        if st == INFEASIBLE:
            return FeasResult(INFEASIBLE, None, best_worst, calls,
                              "flat objective exceeds margin")
        w_int, status = find_interior(w_int, w_c)
        if status == "empty":
            return FeasResult(INFEASIBLE, None, best_worst, calls, "cut region empty")
        if w_int is None:
            return FeasResult(INDETERMINATE, best_v, best_worst, calls,
                              "interior search stalled")
    return FeasResult(INDETERMINATE, best_v, best_worst, calls, "oracle budget exhausted")


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
