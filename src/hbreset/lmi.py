"""Rate certificates for the reset heavy-ball family via small LMIs.

Continuous time: exponential decay of the hybrid flow/jump system is
certified by two coupled matrix inequalities in (P, sigma_phi, sigma_1,
sigma_2) at a given decay exponent alpha. Discrete time: geometric decay
of the switched two-step iteration is certified by two inequalities in
(P, a, lambda, lambda_R, sigma, sigma_R) at a given factor rho, and the
best rho is located by bisection. All work is done at state dimension 1;
a certificate lifts to any dimension blockwise (P kron I), so a
`CertRequest` carries no dimension and `Certificate.lyapunov` evaluates
the lifted form on states of any dimension.

Feasibility itself is delegated to the phase-I barrier engine in `sdp`.
`bisect_rates` bisects many independent rows in lockstep, and
`dt_rates_probe` solves each round's problems as one `sdp.solve_many`
stack; every row gets the result it gets bisected alone.
"""
from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .objectives import ObjectiveModel
from .sdp import (AffineMatrixMap, FeasProblem, FeasResult, FEASIBLE, INFEASIBLE,
                  INDETERMINATE, solve_feasibility, solve_many)

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


def build_sector(mu: float, L: float, n: int = 1) -> Array:
    """The 2n x 2n quadratic form that is nonnegative on pairs
    (v - w, grad(v) - grad(w)) for any mu-strongly-convex, L-smooth
    function."""
    if not (0.0 < mu <= L):
        raise ValueError("need 0 < mu <= L")
    eye = np.eye(n)
    top = np.hstack([-(mu * L / (mu + L)) * eye, 0.5 * eye])
    bot = np.hstack([0.5 * eye, -(1.0 / (mu + L)) * eye])
    return np.vstack([top, bot])


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
        sector = build_sector(self.mu, self.lipschitz)
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
    m3 = c0.T @ build_sector(mu, L) @ c0
    return _Stack(M1=n1 + n2, M2=n1 + n3, M3=m3, A=br.A, B=br.B)


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


def _dt_certificate(data: DtLmiData, res: FeasResult) -> Optional["Certificate"]:
    """The certificate of a FEASIBLE dt solve, or None."""
    if res.status != FEASIBLE:
        return None
    v = res.v
    return Certificate(
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


def dt_feasible(data: DtLmiData, max_oracle_calls: int = 200,
                v_init: Optional[Array] = None, detail: bool = False):
    """Certificate at contraction factor rho, or None.

    With detail=True returns (status, certificate-or-None), separating
    "infeasible" from "indeterminate" (budget ran out)."""
    res = solve_feasibility(dt_problem(data), max_oracle_calls=max_oracle_calls,
                            v_init=v_init)
    cert = _dt_certificate(data, res)
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

        a*(phi(q) - phi*) + (x - x*)' (P kron I) (x - x*), where the
        quadratic term is sum_ij P_ij <d_i, d_j> with
        d = (q_prev - q*, q - q*). The objective is read at the position
        component E x = q for both discretizations; only the gradient
        sample point differs between them.
        """
        if self.rate_kind != "rho":
            raise ValueError("Lyapunov evaluation applies to discrete certificates")
        if model.minimizer is None or model.min_value is None:
            raise ValueError("model minimum unknown")
        q = np.atleast_1d(np.asarray(q, dtype=float))
        d0 = np.atleast_1d(np.asarray(q_prev, dtype=float)) - model.minimizer
        d1 = q - model.minimizer
        P = self.P
        quad = float(P[0, 0] * (d0 @ d0) + (P[0, 1] + P[1, 0]) * (d0 @ d1)
                     + P[1, 1] * (d1 @ d1))
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
    """What to certify: tuning and conditioning. The switched LMIs hold in
    dimension n iff they hold at n=1, so no dimension is asked for."""

    mu: float
    lipschitz: float
    h: float
    beta_hi: float
    beta_lo: float
    disc: str


SCAN_POINTS = 32

# A probe for bisect_rates: given the rows to probe this round and one
# rate for each, it returns a certificate or None for each of them.
RatesProbe = Callable[[list, list], list]


def bisect_rates(probe: RatesProbe, rows: int, lo: float, hi: float,
                 iters: int = 40, scan: bool = True, sense: str = "min") -> list:
    """bisect_rate on `rows` independent rows in lockstep.

    Each round probes one rate for every row still bisecting, in one call
    of `probe`, so a probe can solve the round's problems as one stack.
    Every row sees the rates it would see bisected alone, in the same
    order. Returns one entry per row: (rate, certificate), or None when
    the easy end of [lo, hi] is not certified.
    """
    if not lo < hi:
        raise ValueError("need lo < hi")
    if sense not in ("min", "max"):
        raise ValueError("sense must be 'min' or 'max'")
    flip = sense == "max"
    every = list(range(rows))
    if scan:
        flags = [probe(every, [r] * rows) for r in np.linspace(lo, hi, SCAN_POINTS)]
        for row in zip(*flags):
            ordered = [c is not None for c in (row[::-1] if flip else row)]
            first = next((i for i, f in enumerate(ordered) if f), None)
            if first is not None and not all(ordered[first:]):
                warnings.warn("certificate feasibility is not monotone on the "
                              "coarse scan", RuntimeWarning)
    easy, hard = (lo, hi) if flip else (hi, lo)
    found: list = [None] * rows
    # per bisecting row: [uncertified end, certified end, its certificate]
    at_easy = probe(every, [easy] * rows)
    brackets = {i: [hard, easy, cert] for i, cert in zip(every, at_easy)
                if cert is not None}
    live = list(brackets)
    for i, cert in zip(live, probe(live, [hard] * len(live)) if live else ()):
        if cert is not None:
            found[i] = (hard, cert)
            del brackets[i]
    for _ in range(iters if brackets else 0):
        live = list(brackets)
        mids = [0.5 * (brackets[i][0] + brackets[i][1]) for i in live]
        for i, mid, cert in zip(live, mids, probe(live, mids)):
            if cert is None:
                brackets[i][0] = mid
            else:
                brackets[i][1:] = [mid, cert]
    for i, (_, rate, cert) in brackets.items():
        found[i] = (rate, cert)
    return found


def bisect_rate(builder: Callable[[float], Optional["Certificate"]], lo: float,
                hi: float, iters: int = 40, scan: bool = True,
                sense: str = "min"):
    """Smallest rate in [lo, hi] the builder can certify, by bisection: a
    batch of one in bisect_rates.

    The builder maps a rate to a certificate or None. None merges the
    INFEASIBLE verdict (no certificate of this form exists) with the
    INDETERMINATE one (budget or numerics ran out), so the rate found is
    conservative by an unknown amount near the threshold. Feasibility is
    assumed monotone in the rate, and that is empirical only: the phase-I
    value of the dt LMIs is not monotone in rho in general (for hhb-nes at
    L = 10 it rises from 0.0303 to 0.0329 as rho goes from 0.3 to 0.55).
    A coarse scan warns when the assumption visibly fails but does not
    alter the bracket. sense="max" searches for the largest certifiable
    rate instead (used for decay exponents, where faster decay is harder).
    Raises NoCertificate when the easy end of [lo, hi] is not certified.
    """
    (found,) = bisect_rates(lambda _, rates: [builder(r) for r in rates], 1, lo, hi,
                            iters=iters, scan=scan, sense=sense)
    if found is None:
        side, easy = (">=", lo) if sense == "max" else ("<=", hi)
        raise NoCertificate(f"no certificate with rate {side} {easy:g}")
    return found


def dt_rates_probe(requests: Sequence[CertRequest],
                   max_oracle_calls: int = 200) -> RatesProbe:
    """Probe for bisect_rates over discrete-time rows: each round's
    problems are solved as one stack, and each row warm-starts from the
    last feasible point it has seen."""
    systems = [dt_system(r.h, r.beta_hi, r.beta_lo, r.disc) for r in requests]
    last: list = [None] * len(requests)

    def probe(rows: list, rates: list) -> list:
        datas = [DtLmiData(sys=systems[i], mu=requests[i].mu,
                           lipschitz=requests[i].lipschitz, rho=rho)
                 for i, rho in zip(rows, rates)]
        solved = solve_many([dt_problem(x) for x in datas], max_oracle_calls,
                            [last[i] for i in rows])
        certs = [_dt_certificate(x, res) for x, res in zip(datas, solved)]
        for i, cert in zip(rows, certs):
            if cert is not None:
                last[i] = cert.raw_v
        return certs

    return probe


def dt_rate_builder(mu: float, L: float, h: float, beta_hi: float, beta_lo: float,
                    disc: str, max_oracle_calls: int = 200
                    ) -> Callable[[float], Optional[Certificate]]:
    """Probe closure for bisect_rate: dt_rates_probe on one row."""
    probe = dt_rates_probe([CertRequest(mu, L, h, beta_hi, beta_lo, disc)],
                           max_oracle_calls)
    return lambda rho: probe([0], [rho])[0]


def certify_discrete(request: CertRequest, lo: float = 0.05, hi: float = 1.0,
                     iters: int = 40, scan: bool = True,
                     max_oracle_calls: int = 200):
    """Bisected contraction factor and certificate for a tuning request."""
    builder = dt_rate_builder(request.mu, request.lipschitz, request.h,
                              request.beta_hi, request.beta_lo, request.disc,
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
