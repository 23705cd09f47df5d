"""Rate certificates for the reset heavy-ball family via small LMIs.

Continuous time: exponential decay of the hybrid flow/jump system is
certified by two coupled matrix inequalities in (P, sigma_phi, sigma_1,
sigma_2) at a given decay exponent alpha. Discrete time: geometric decay
of the switched two-step iteration is certified by two inequalities in
(P, a, lambda, lambda_R, sigma, sigma_R) at a given factor rho, and the
best rho is located by bisection. All work is done at state dimension 1;
a certificate lifts to any dimension blockwise (P kron I).

Feasibility itself is delegated to the phase-I barrier engine in `sdp`.
"""
from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from .objectives import ObjectiveModel
from .sdp import (AffineMatrixMap, FeasProblem, FeasResult, FEASIBLE, INFEASIBLE,
                  INDETERMINATE, solve_feasibility)

Array = np.ndarray

POL = "pol"
NES = "nes"

MARGIN = 1e-9
MULTIPLIER_FLOOR = 1e-9
# The jump inequality of the continuous-time certificate has structural
# zeros on its diagonal (the timer and input rows carry no quadratic
# term), so it can hold only with equality there; a uniform strict margin
# would make it unsatisfiable. This slack relaxes that one block to
# "<= CT_RESET_SLACK * I" while every other block keeps the strict margin.
CT_RESET_SLACK = 1e-8

_E11 = np.array([[1.0, 0.0], [0.0, 0.0]])
_E12 = np.array([[0.0, 1.0], [1.0, 0.0]])
_E22 = np.array([[0.0, 0.0], [0.0, 1.0]])
_P_BASIS = (_E11, _E12, _E22)


class NoCertificate(RuntimeError):
    pass


@dataclass
class SectorMatrix:
    """Quadratic form that is nonnegative on pairs (v - w, grad(v) - grad(w))
    for any mu-strongly-convex, L-smooth function."""

    matrix: Array
    mu: float
    lipschitz: float


def build_sector(mu: float, L: float, n: int = 1) -> SectorMatrix:
    if not (0.0 < mu <= L):
        raise ValueError("need 0 < mu <= L")
    eye = np.eye(n)
    top = np.hstack([-(mu * L / (mu + L)) * eye, 0.5 * eye])
    bot = np.hstack([0.5 * eye, -(1.0 / (mu + L)) * eye])
    return SectorMatrix(matrix=np.vstack([top, bot]), mu=mu, lipschitz=L)


# ---------------------------------------------------------------------------
# continuous time


@dataclass
class CtLmiData:
    """System and constraint matrices for the flow/jump certificate (n=1)."""

    A: Array
    A_R: Array
    B: Array
    C: Array
    mu: float
    lipschitz: float
    K: float
    b_coupled: bool
    M_phi: Array = field(init=False)
    M0: Array = field(init=False)

    def __post_init__(self):
        cmat = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])  # [C 0; 0 I]
        sector = build_sector(self.mu, self.lipschitz).matrix
        self.M_phi = cmat.T @ sector @ cmat
        m0 = np.zeros((3, 3))
        m0[1, 2] = m0[2, 1] = -0.5
        self.M0 = m0

    def M_eps(self, eps: float) -> Array:
        return self.M0 + eps * np.diag([1.0, 1.0, 0.0])

    def M_F(self, P: Array, alpha: float) -> Array:
        tl = P @ self.A + self.A.T @ P + 2.0 * alpha * P
        tr = P @ self.B
        return np.block([[tl, tr], [tr.T, np.zeros((1, 1))]])

    def M_J(self, P: Array) -> Array:
        tl = self.A_R.T @ P @ self.A_R - P
        out = np.zeros((3, 3))
        out[:2, :2] = tl
        return out


def build_ct(K: float, n: int, mu: float, L: float,
             b_coupled: bool = False) -> CtLmiData:
    """Flow matrices for damping K. The jump resets momentum (A_R keeps
    position only). b_coupled swaps in the experimental input matrix
    [-I; -I]; the default [0; -I] is the plain dynamics."""
    if K <= 0:
        raise ValueError("K must be positive")
    if n != 1:
        raise ValueError("certificate work is done at n=1; lift P blockwise")
    A = np.array([[0.0, 1.0], [0.0, -K]])
    A_R = np.array([[1.0, 0.0], [0.0, 0.0]])
    B = np.array([[-1.0], [-1.0]]) if b_coupled else np.array([[0.0], [-1.0]])
    C = np.array([[1.0, 0.0]])
    return CtLmiData(A=A, A_R=A_R, B=B, C=C, mu=mu, lipschitz=L, K=K,
                     b_coupled=b_coupled)


def ct_problem(data: CtLmiData, alpha: float, eps_infl: float) -> FeasProblem:
    """The feasibility problem behind ct_feasible, for export or inspection."""
    # v = [p11, p12, p22, sigma_phi, sigma_1, sigma_2]
    flow_basis = [(i, data.M_F(E, alpha)) for i, E in enumerate(_P_BASIS)]
    flow_basis += [(3, data.M_phi), (4, data.M_eps(eps_infl))]
    flow = AffineMatrixMap(constant=np.zeros((3, 3)), basis=flow_basis, name="flow")
    jump_basis = [(i, data.M_J(E)) for i, E in enumerate(_P_BASIS)]
    jump_basis += [(5, -data.M0)]
    jump = AffineMatrixMap(constant=-(CT_RESET_SLACK + MARGIN) * np.eye(3),
                           basis=jump_basis, name="jump")
    pmap = AffineMatrixMap(constant=np.zeros((2, 2)),
                           basis=[(i, E) for i, E in enumerate(_P_BASIS)], name="P")
    return FeasProblem(nvar=6, nsd_blocks=[flow, jump], pd_blocks=[pmap],
                       nonneg={3: MULTIPLIER_FLOOR, 4: MULTIPLIER_FLOOR,
                               5: MULTIPLIER_FLOOR},
                       normalization=np.array([1.0, 0.0, 1.0, 1.0, 1.0, 1.0]),
                       margin=MARGIN)


def ct_feasible(data: CtLmiData, alpha: float, eps_infl: float,
                max_oracle_calls: int = 200, v_init: Optional[Array] = None,
                detail: bool = False):
    """Certificate at decay exponent alpha, or None. The reported rate is
    alpha / cond(P), the exponent of the norm-ball guarantee.

    With detail=True returns (status, certificate-or-None), separating
    "infeasible" from "indeterminate" (budget ran out)."""
    if alpha <= 0 or eps_infl <= 0:
        raise ValueError("alpha and eps_infl must be positive")
    res = solve_feasibility(ct_problem(data, alpha, eps_infl),
                            max_oracle_calls=max_oracle_calls, v_init=v_init)
    cert = None
    if res.status == FEASIBLE:
        v = res.v
        P = np.array([[v[0], v[1]], [v[1], v[2]]])
        eigs = np.linalg.eigvalsh(P)
        cond = float(eigs[-1] / eigs[0])
        cert = Certificate(
            rate=alpha / cond, rate_kind="alpha", P=P,
            multipliers={"eps": eps_infl, "sigma_phi": float(v[3]),
                         "sigma_1": float(v[4]), "sigma_2": float(v[5])},
            margin=res.worst_eig,
            tuning={"K": data.K, "alpha": alpha, "mu": data.mu,
                    "L": data.lipschitz, "b_coupled": data.b_coupled},
            raw_v=v.copy())
    if detail:
        return res.status, cert
    return cert


# ---------------------------------------------------------------------------
# discrete time


@dataclass
class DtBranch:
    """One branch of the switched two-step system, x = (q_prev, q)."""

    A: Array
    B: Array
    C: Array
    E: Array
    h: float
    beta: float
    disc: str


def build_dt(h: float, beta: float, disc: str) -> DtBranch:
    if h <= 0:
        raise ValueError("h must be positive")
    if not (0.0 <= beta <= 1.0):
        raise ValueError("beta must lie in [0, 1]")
    if disc not in (POL, NES):
        raise ValueError(f"unknown discretization {disc!r}")
    A = np.array([[0.0, 1.0], [-beta, beta + 1.0]])
    B = np.array([[0.0], [-h]])
    E = np.array([[0.0, 1.0]])
    C = np.array([[-beta, beta + 1.0]]) if disc == NES else E.copy()
    return DtBranch(A=A, B=B, C=C, E=E, h=h, beta=beta, disc=disc)


@dataclass
class DtSystemMatrices:
    main: DtBranch
    reset: DtBranch
    disc: str
    h: float
    beta_hi: float
    beta_lo: float


def dt_system(h: float, beta_hi: float, beta_lo: float, disc: str) -> DtSystemMatrices:
    """Both branches: the nominal momentum beta_hi and the reset value
    beta_lo that replaces it when the iterate leaves the descent region."""
    return DtSystemMatrices(main=build_dt(h, beta_hi, disc),
                            reset=build_dt(h, beta_lo, disc),
                            disc=disc, h=h, beta_hi=beta_hi, beta_lo=beta_lo)


@dataclass
class _Stack:
    Sigma1: Array
    Sigma2: Array
    N1: Array
    N2: Array
    N3: Array
    M1: Array
    M2: Array
    M3: Array
    A: Array
    B: Array

    def mp(self, E: Array, rho: float) -> Array:
        tl = self.A.T @ E @ self.A - rho * rho * E
        tr = self.A.T @ E @ self.B
        return np.block([[tl, tr], [tr.T, self.B.T @ E @ self.B]])


def _branch_stack(br: DtBranch, mu: float, L: float) -> _Stack:
    w_upper = np.array([[L / 2.0, 0.5], [0.5, 0.0]])
    w_lower = np.array([[-mu / 2.0, 0.5], [0.5, 0.0]])
    sigma1 = np.block([[br.E @ br.A - br.C, br.E @ br.B],
                       [np.zeros((1, 2)), np.ones((1, 1))]])
    sigma2 = np.block([[br.C - br.E, np.zeros((1, 1))],
                       [np.zeros((1, 2)), np.ones((1, 1))]])
    c0 = np.block([[br.C, np.zeros((1, 1))],
                   [np.zeros((1, 2)), np.ones((1, 1))]])
    n1 = sigma1.T @ w_upper @ sigma1
    n2 = sigma2.T @ w_lower @ sigma2
    n3 = c0.T @ w_lower @ c0
    m3 = c0.T @ build_sector(mu, L).matrix @ c0
    return _Stack(Sigma1=sigma1, Sigma2=sigma2, N1=n1, N2=n2, N3=n3,
                  M1=n1 + n2, M2=n1 + n3, M3=m3, A=br.A, B=br.B)


@dataclass
class DtLmiData:
    """Constraint matrices of the switched-rate certificate at factor rho."""

    sys: DtSystemMatrices
    mu: float
    lipschitz: float
    rho: float
    main: _Stack = field(init=False)
    reset: _Stack = field(init=False)
    M: Array = field(init=False)

    def __post_init__(self):
        if not (0.0 < self.rho <= 1.0):
            raise ValueError("rho must lie in (0, 1]")
        if not (0.0 < self.mu <= self.lipschitz):
            raise ValueError("need 0 < mu <= L")
        self.main = _branch_stack(self.sys.main, self.mu, self.lipschitz)
        self.reset = _branch_stack(self.sys.reset, self.mu, self.lipschitz)
        m = np.zeros((3, 3))
        m[0, 2] = m[2, 0] = 0.5
        m[1, 2] = m[2, 1] = -0.5
        self.M = m

    def fixed_point(self, q_star: float) -> dict:
        return {"x": (q_star, q_star), "u": 0.0, "y": q_star, "xi": q_star}


def build_theorem2(sys: DtSystemMatrices, mu: float, L: float, rho: float) -> DtLmiData:
    return DtLmiData(sys=sys, mu=mu, lipschitz=L, rho=rho)


def dt_problem(data: DtLmiData) -> FeasProblem:
    """The feasibility problem behind dt_feasible, for export or inspection."""
    # v = [p11, p12, p22, a, lam, lam_r, sigma, sigma_r]
    rho2 = data.rho * data.rho
    main, reset = data.main, data.reset
    basis_a = [(i, main.mp(E, data.rho)) for i, E in enumerate(_P_BASIS)]
    basis_a += [(3, rho2 * main.M1 + (1.0 - rho2) * main.M2),
                (4, main.M3), (6, data.M)]
    lmi_a = AffineMatrixMap(constant=np.zeros((3, 3)), basis=basis_a, name="flow_lmi")
    basis_b = [(i, reset.mp(E, data.rho)) for i, E in enumerate(_P_BASIS)]
    basis_b += [(3, rho2 * reset.M1 + (1.0 - rho2) * reset.M2),
                (5, reset.M3), (7, -data.M)]
    lmi_b = AffineMatrixMap(constant=np.zeros((3, 3)), basis=basis_b, name="reset_lmi")
    pmap = AffineMatrixMap(constant=np.zeros((2, 2)),
                           basis=[(i, E) for i, E in enumerate(_P_BASIS)], name="P")
    return FeasProblem(nvar=8, nsd_blocks=[lmi_a, lmi_b], pd_blocks=[pmap],
                       nonneg={i: MULTIPLIER_FLOOR for i in range(3, 8)},
                       normalization=np.array([1.0, 0.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0]),
                       margin=MARGIN)


def dt_feasible(data: DtLmiData, max_oracle_calls: int = 200,
                v_init: Optional[Array] = None, detail: bool = False):
    """Certificate at contraction factor rho, or None.

    With detail=True returns (status, certificate-or-None), separating
    "infeasible" from "indeterminate" (budget ran out)."""
    res = solve_feasibility(dt_problem(data), max_oracle_calls=max_oracle_calls,
                            v_init=v_init)
    cert = None
    if res.status == FEASIBLE:
        v = res.v
        cert = Certificate(
            rate=data.rho, rate_kind="rho",
            P=np.array([[v[0], v[1]], [v[1], v[2]]]),
            multipliers={"a": float(v[3]), "lambda": float(v[4]),
                         "lambda_r": float(v[5]), "sigma": float(v[6]),
                         "sigma_r": float(v[7])},
            margin=res.worst_eig,
            tuning={"h": data.sys.h, "beta_hi": data.sys.beta_hi,
                    "beta_lo": data.sys.beta_lo, "disc": data.sys.disc,
                    "mu": data.mu, "L": data.lipschitz},
            raw_v=v.copy())
    if detail:
        return res.status, cert
    return cert


# ---------------------------------------------------------------------------
# certificates and bisection


@dataclass
class Certificate:
    """A feasible point of one of the rate LMIs, with its provenance.

    margin is the most-positive eigenvalue achieved over all constraint
    blocks (negative for a valid certificate). raw_v is the engine's
    variable vector, kept for warm-starting nearby solves.
    """

    rate: float
    rate_kind: str  # "rho" or "alpha"
    P: Array
    multipliers: dict
    margin: float
    tuning: dict
    raw_v: Optional[Array] = None

    def lyapunov(self, q_prev: Array, q: Array, model: ObjectiveModel) -> float:
        """Certified decrease function at state x = (q_prev, q), any n.

        a*(phi(q) - phi*) + (x - x*)' (P kron I) (x - x*). The objective
        is read at the position component E x = q for both
        discretizations; only the gradient sample point differs between
        them.
        """
        if self.rate_kind != "rho":
            raise ValueError("Lyapunov evaluation applies to discrete certificates")
        if model.minimizer is None or model.min_value is None:
            raise ValueError("model minimum unknown")
        q_prev = np.atleast_1d(np.asarray(q_prev, dtype=float))
        q = np.atleast_1d(np.asarray(q, dtype=float))
        n = q.size
        x = np.concatenate([q_prev, q])
        x_star = np.concatenate([model.minimizer, model.minimizer])
        lift = np.kron(self.P, np.eye(n))
        quad = float((x - x_star) @ lift @ (x - x_star))
        return self.multipliers["a"] * (float(model.value(q)) - model.min_value) + quad

    def guarantee_constant(self, q_prev0: Array, q0: Array,
                           model: ObjectiveModel) -> float:
        """c with phi(q_k) - phi* <= c * rate^(2k) from this start."""
        return self.lyapunov(q_prev0, q0, model) / self.multipliers["a"]

    def to_json(self) -> str:
        return json.dumps({
            "rate": self.rate,
            "rate_kind": self.rate_kind,
            "P": self.P.tolist(),
            "multipliers": self.multipliers,
            "margin": self.margin,
            "tuning": self.tuning,
        }, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "Certificate":
        doc = json.loads(text)
        return cls(rate=float(doc["rate"]), rate_kind=doc["rate_kind"],
                   P=np.array(doc["P"], dtype=float),
                   multipliers=dict(doc["multipliers"]), margin=float(doc["margin"]),
                   tuning=dict(doc["tuning"]))


@dataclass
class CertRequest:
    """What to certify: tuning, conditioning, and state dimension."""

    mu: float
    lipschitz: float
    h: float
    beta_hi: float
    beta_lo: float
    disc: str
    n: int = 1


def reduce_to_scalar(request: CertRequest) -> CertRequest:
    """The switched LMIs hold for dimension n iff they hold at n=1, so
    all solver work happens on the scalar reduction."""
    return replace(request, n=1)


SCAN_POINTS = 32


def bisect_rate(builder: Callable[[float], Optional["Certificate"]], lo: float,
                hi: float, iters: int = 40, scan: bool = True,
                sense: str = "min"):
    """Smallest rate in [lo, hi] the builder can certify, by bisection.

    The builder maps a rate to a certificate or None; None covers both
    infeasible and indeterminate outcomes (conservative). Feasibility is
    assumed monotone in the rate; a coarse scan warns when the assumption
    visibly fails but does not alter the bracket. sense="max" searches
    for the largest certifiable rate instead (used for decay exponents,
    where faster decay is harder).
    """
    if not lo < hi:
        raise ValueError("need lo < hi")
    if sense not in ("min", "max"):
        raise ValueError("sense must be 'min' or 'max'")
    flip = sense == "max"
    if scan:
        flags = [builder(r) is not None for r in np.linspace(lo, hi, SCAN_POINTS)]
        ordered = flags[::-1] if flip else flags
        first = next((i for i, f in enumerate(ordered) if f), None)
        if first is not None and not all(ordered[first:]):
            warnings.warn("certificate feasibility is not monotone on the coarse scan",
                          RuntimeWarning)
    easy, hard = (lo, hi) if flip else (hi, lo)
    cert_easy = builder(easy)
    if cert_easy is None:
        side = ">=" if flip else "<="
        raise NoCertificate(f"no certificate with rate {side} {easy:g}")
    cert_hard = builder(hard)
    if cert_hard is not None:
        return hard, cert_hard
    best_rate, best_cert = easy, cert_easy
    a, b = hard, easy
    for _ in range(iters):
        mid = 0.5 * (a + b)
        cert = builder(mid)
        if cert is None:
            a = mid
        else:
            b, best_rate, best_cert = mid, mid, cert
    return best_rate, best_cert


def dt_rate_builder(mu: float, L: float, h: float, beta_hi: float, beta_lo: float,
                    disc: str, max_oracle_calls: int = 200
                    ) -> Callable[[float], Optional[Certificate]]:
    """Probe closure for bisect_rate; warm-starts each solve from the
    last feasible point seen."""
    sys = dt_system(h, beta_hi, beta_lo, disc)
    state = {"v": None}

    def probe(rho: float) -> Optional[Certificate]:
        data = build_theorem2(sys, mu, L, rho)
        cert = dt_feasible(data, max_oracle_calls=max_oracle_calls,
                           v_init=state["v"])
        if cert is not None:
            state["v"] = cert.raw_v
        return cert

    return probe


def certify_discrete(request: CertRequest, lo: float = 0.05, hi: float = 1.0,
                     iters: int = 40, scan: bool = True,
                     max_oracle_calls: int = 200):
    """Bisected contraction factor and certificate for a tuning request."""
    req = reduce_to_scalar(request)
    builder = dt_rate_builder(req.mu, req.lipschitz, req.h, req.beta_hi,
                              req.beta_lo, req.disc,
                              max_oracle_calls=max_oracle_calls)
    return bisect_rate(builder, lo, hi, iters=iters, scan=scan)


def ct_alpha_builder(K: float, mu: float, L: float, eps_infl: float,
                     b_coupled: bool = False, max_oracle_calls: int = 200
                     ) -> Callable[[float], Optional[Certificate]]:
    data = build_ct(K, 1, mu, L, b_coupled=b_coupled)
    state = {"v": None}

    def probe(alpha: float) -> Optional[Certificate]:
        cert = ct_feasible(data, alpha, eps_infl,
                           max_oracle_calls=max_oracle_calls, v_init=state["v"])
        if cert is not None:
            state["v"] = cert.raw_v
        return cert

    return probe
