"""Rate certificates for the reset heavy-ball family via small LMIs.

Continuous time: exponential decay of the hybrid flow/jump system is
certified by two coupled matrix inequalities in (P, sigma_phi, sigma_1,
sigma_2) at a decay exponent alpha. Discrete time: geometric decay of
the switched two-step iteration is certified by two inequalities in
(P, a, lambda, lambda_R, sigma, sigma_R) at a factor rho. All work is
done at state dimension 1; a certificate lifts to any dimension
blockwise (P kron I), so a `CertRequest` carries no dimension.

Both forms are affine in their rate: the ct flow LMI in alpha (2 alpha E
in its P blocks; Boyd et al., LMIs in System and Control Theory, 5.1),
the dt LMIs in rho² (`_theorem2_stack` compiles rows, as one stack of
matrix products, into everything but the rate, `build_theorem2` compiles
a stack of one, and `_at_rates` applies rho), and `_feas` adds the same
P > 0, floors and normalization to both. So one stream, `_rates_probe`, serves
`ct_rates_probe` and `dt_rates_probe`: each row is compiled once, and
every probe of a `bisect_rates` call joins one `sdp.solve_stream` stack,
each row probing up to LOOKAHEAD rates ahead on its path; every row gets
the result it gets bisected alone. `bisect_rates` bisects by one rule,
`_bisection`: a row's path given its outcomes so far. `bisect_rate`
drives one row through a builder, a rate at a time.
At L == mu a dt row's probes also solve its face (dt_rates_probe), whose
INFEASIBLE proves the "no" that the full form alone leaves INDETERMINATE.
"""
from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field, replace
from functools import partial
from itertools import count
from numbers import Integral
from typing import Callable, Optional, Sequence

import numpy as np

from .objectives import ObjectiveModel
from .sdp import (AffineMatrixMap, FeasProblem, FeasResult, FEASIBLE, INDETERMINATE,
                  INFEASIBLE, check_symmetric_stack, lift, solve_feasibility, solve_stream)

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
    if not 0.0 < mu <= L < np.inf:
        raise ValueError("need 0 < mu <= L < inf")
    eye = np.eye(n)
    top = np.hstack([-(mu * L / (mu + L)) * eye, 0.5 * eye])
    bot = np.hstack([0.5 * eye, -(1.0 / (mu + L)) * eye])
    return np.vstack([top, bot])


def _feas(nvar: int, lmis: list, free: tuple = ()) -> FeasProblem:
    """The rate problem with these LMIs, in v = [p11, p12, p22, multipliers]:
    P > 0, every multiplier floored, and p11 + p22 + multipliers = 1, the
    multipliers `free` left out of the sum."""
    pmap = AffineMatrixMap(constant=np.zeros((2, 2)),
                           basis=[(i, E) for i, E in enumerate(_P_BASIS)], name="P")
    return FeasProblem(nvar=nvar, nsd_blocks=lmis, pd_blocks=[pmap],
                       nonneg={i: MULTIPLIER_FLOOR for i in range(3, nvar)},
                       normalization=np.array([1.0, 0.0] + [float(i not in free)
                                                            for i in range(2, nvar)]),
                       margin=MARGIN)


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


def build_ct(K: float, mu: float, L: float, b_coupled: bool = False) -> CtLmiData:
    """Flow matrices for damping K. The jump resets momentum (A_R keeps
    position only). b_coupled swaps in the experimental input matrix
    [-I; -I]; the default [0; -I] is the plain dynamics."""
    if not 0.0 < K < np.inf:
        raise ValueError("K must be positive and finite")
    A = np.array([[0.0, 1.0], [0.0, -K]])
    A_R = np.array([[1.0, 0.0], [0.0, 0.0]])
    B = np.array([[-1.0], [-1.0]]) if b_coupled else np.array([[0.0], [-1.0]])
    C = np.array([[1.0, 0.0]])
    return CtLmiData(A=A, A_R=A_R, B=B, C=C, mu=mu, lipschitz=L, K=K,
                     b_coupled=b_coupled)


def _ct_certificate(data: CtLmiData, eps_infl: float, alpha: float,
                    res: FeasResult) -> Optional["Certificate"]:
    """The certificate of a FEASIBLE ct solve at exponent alpha, or None.
    Its rate is alpha / cond(P), the exponent of the norm-ball guarantee."""
    if res.status != FEASIBLE:
        return None
    v = res.v
    P = np.array([[v[0], v[1]], [v[1], v[2]]])
    eigs = np.linalg.eigvalsh(P)
    return Certificate(
        rate=alpha / float(eigs[-1] / eigs[0]), rate_kind="alpha", P=P,
        multipliers={"eps": eps_infl, "sigma_phi": float(v[3]),
                     "sigma_1": float(v[4]), "sigma_2": float(v[5])},
        margin=res.worst_eig,
        tuning={"K": data.K, "alpha": alpha, "mu": data.mu,
                "L": data.lipschitz, "b_coupled": data.b_coupled},
        raw_v=v.copy())


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
    if not 0.0 < h < np.inf:
        raise ValueError("h must be positive and finite")
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


@dataclass(frozen=True)
class DtBranchLmi:
    """One branch's LMI pieces that do not depend on rho: the function
    bounds M1, M2, the sector form M3, and per E in _P_BASIS the block
    [[A'EA, A'EB], [B'EA, B'EB]], whose corner lacks its -rho^2 E."""

    M1: Array
    M2: Array
    M3: Array
    P: tuple


# e' ALIGNMENT_FORM e = -<u, q - q_prev> at e = (q_prev, q, u): minus the
# inner product that `discrete.aligned` reads, signed per branch in _DT_LMIS
ALIGNMENT_FORM = np.array([[0.0, 0.0, 0.5], [0.0, 0.0, -0.5], [0.5, -0.5, 0.0]])
_P_CORNERS = tuple(np.pad(E, (0, 1)) for E in _P_BASIS)  # E as a 3 x 3 corner
# per branch LMI: name, indices in v of its basis matrices, sign of the form
_DT_LMIS = (("flow_lmi", [0, 1, 2, 3, 4, 6], 1.0), ("reset_lmi", [0, 1, 2, 3, 5, 7], -1.0))


@dataclass
class DtLmiData:
    """A discrete-time rate row as compiled by build_theorem2, evaluated at
    factor rho. Moving a row to another rate, dataclasses.replace(data,
    rho=r), reuses its compiled branches."""

    sys: DtSystemMatrices
    mu: float
    lipschitz: float
    rho: float
    main: DtBranchLmi
    reset: DtBranchLmi

    def __post_init__(self):
        if not (0.0 < self.rho <= 1.0):
            raise ValueError("rho must lie in (0, 1]")


def _theorem2_stack(systems: Sequence[DtSystemMatrices], mu: Sequence[float],
                    L: Sequence[float]) -> Array:
    """Compile the switched-rate certificates of rows (systems[k], mu[k],
    L[k]) as one stack: everything in their two LMIs but the rate, which
    _at_rates applies, laid out as _rate_free lays out compiled rows,
    (rows, branch, 7, 3, 3)."""
    mu, L = (np.asarray(x, dtype=float) for x in (mu, L))
    if not np.all((0.0 < mu) & (mu <= L) & (L < np.inf)):
        raise ValueError("need 0 < mu <= L < inf")
    rows = len(systems)

    def branches(name: str, shape: tuple) -> Array:
        return np.array([[getattr(br, name) for br in (s.main, s.reset)]
                         for s in systems]).reshape(rows, 2, *shape)

    def form(corner, last) -> Array:
        """[[corner, 0.5], [0.5, last]] per row, for both branches."""
        w = np.full((rows, 1, 2, 2), 0.5)
        w[:, 0, 0, 0], w[:, 0, 1, 1] = corner, last
        return w

    def T(x: Array) -> Array:
        return np.swapaxes(x, -1, -2)

    A, B, C, E = (branches("A", (2, 2)), branches("B", (2, 1)), branches("C", (1, 2)),
                  branches("E", (1, 2)))
    # each is a 1 x 3 row stacked on [0 0 1]
    zero, unit = np.zeros((rows, 2, 1, 1)), np.broadcast_to([[0.0, 0.0, 1.0]], (rows, 2, 1, 3))
    sigma1, sigma2, c0 = (np.concatenate([np.concatenate(top, -1), unit], -2) for top in (
        (E @ A - C, E @ B), (C - E, zero), (C, zero)))
    w_lower = form(-mu / 2.0, 0.0)
    n1 = T(sigma1) @ form(L / 2.0, 0.0) @ sigma1
    # the sector form of build_sector, row by row
    sector = form(-(mu * L / (mu + L)), -(1.0 / (mu + L)))
    out = np.empty((rows, 2, 7, 3, 3))
    for k, Ek in enumerate(_P_BASIS):
        tr = T(A) @ Ek @ B
        out[:, :, k] = np.concatenate([np.concatenate([T(A) @ Ek @ A, tr], -1),
                                       np.concatenate([T(tr), T(B) @ Ek @ B], -1)], -2)
    out[:, :, 3] = n1 + T(sigma2) @ w_lower @ sigma2
    out[:, :, 4] = T(c0) @ sector @ c0
    out[:, :, 5] = [sign * ALIGNMENT_FORM for *_, sign in _DT_LMIS]
    out[:, :, 6] = n1 + T(c0) @ w_lower @ c0
    return out


def _compiled(sys: DtSystemMatrices, mu: float, L: float, rho: float,
              mats: Array) -> DtLmiData:
    """The row at rho whose branches are views of its _theorem2_stack entry."""
    return DtLmiData(sys, mu, L, rho, *(DtBranchLmi(M1=m[3], M2=m[6], M3=m[4], P=tuple(m[:3]))
                                        for m in mats))


def build_theorem2(sys: DtSystemMatrices, mu: float, L: float, rho: float) -> DtLmiData:
    """Compile the switched-rate certificate of one row, once: everything
    in its two LMIs but the rate, which _at_rates applies. A stack of one
    of _theorem2_stack."""
    return _compiled(sys, mu, L, rho, _theorem2_stack([sys], [mu], [L])[0])


def _rate_free(datas: Sequence[DtLmiData]) -> Array:
    """Per row and branch LMI, its basis matrices without rho, then M2."""
    return np.array([[[*br.P, br.M1, br.M3, sign * ALIGNMENT_FORM, br.M2]
                      for br, (*_, sign) in zip((x.main, x.reset), _DT_LMIS)]
                     for x in datas]).reshape(-1, 2, 7, 3, 3)


def _at_rates(base: Array, rho: Array) -> Array:
    """The branch LMIs' basis matrices of rows `base` at rates rho: each
    P-basis block less rho^2 E, and rho^2 M1 + (1 - rho^2) M2 for a."""
    rho2 = (rho * rho)[:, None, None, None]
    mats = base[:, :, :6].copy()
    mats[:, :, :3] -= rho2[..., None] * _P_CORNERS
    mats[:, :, 3] = rho2 * base[:, :, 3] + (1.0 - rho2) * base[:, :, 6]
    return mats


def dt_problem(data: DtLmiData) -> FeasProblem:
    """The feasibility problem behind dt_feasible, for export or inspection."""
    mats = _at_rates(_rate_free([data]), np.array([data.rho]))[0]
    # v = [p11, p12, p22, a, lam, lam_r, sigma, sigma_r]
    return _feas(8, [AffineMatrixMap(constant=np.zeros((3, 3)), basis=list(zip(idx, m)),
                                     name=name) for (name, idx, _), m in zip(_DT_LMIS, mats)])


def _dt_certificate(data: DtLmiData, rho: float, res: FeasResult) -> Optional["Certificate"]:
    """The certificate of a FEASIBLE dt solve at rate rho, or None."""
    if res.status != FEASIBLE:
        return None
    v = res.v
    return Certificate(
        rate=rho, rate_kind="rho",
        P=np.array([[v[0], v[1]], [v[1], v[2]]]),
        multipliers={"a": float(v[3]), "lambda": float(v[4]),
                     "lambda_r": float(v[5]), "sigma": float(v[6]),
                     "sigma_r": float(v[7])},
        margin=res.worst_eig,
        tuning={"h": data.sys.h, "beta_hi": data.sys.beta_hi,
                "beta_lo": data.sys.beta_lo, "disc": data.sys.disc,
                "mu": data.mu, "L": data.lipschitz},
        raw_v=v.copy())


def dt_feasible(data: DtLmiData, max_oracle_calls: int = 200, detail: bool = False):
    """Certificate at contraction factor rho, or None.

    With detail=True returns (status, certificate-or-None), separating
    "infeasible" from "indeterminate" (budget ran out)."""
    res = solve_feasibility(dt_problem(data), max_oracle_calls=max_oracle_calls)
    cert = _dt_certificate(data, data.rho, res)
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
# probes of its path a row keeps in a stream's stack at once, and the
# stack they share when more than STACK_ROWS / LOOKAHEAD rows search
LOOKAHEAD = 4
STACK_ROWS = 72

# A stream for bisect_rates: `stream(rule)` runs the bisection `rule` on each
# of its rows and returns their paths, lists of (rate, certificate-or-None) pairs.
RatesStream = Callable[[Callable], list]


def _bisection(lo: float, hi: float, iters: int, scan: bool, flip: bool,
               won: list) -> tuple:
    """The rule of one row of bisect_rates, given whether each probe of
    its path so far was certified: (rate, None) for the next probe, or
    (None, k) once the search is over, the certificate of path probe k
    being the result (k is None when the easy end is not certified)."""
    scanned = SCAN_POINTS if scan else 0
    if len(won) < scanned:
        return np.linspace(lo, hi, SCAN_POINTS)[len(won)], None
    easy, hard = (lo, hi) if flip else (hi, lo)
    tail = won[scanned:]
    if not tail:
        return easy, None
    if not tail[0] or len(tail) == 1:
        return (hard, None) if tail[0] else (None, None)
    if tail[1]:
        return None, scanned + 1
    # the uncertified end, the certified end and the path probe that certified it
    bad, good, k = hard, easy, scanned
    for j, certified in enumerate(tail[2:], scanned + 2):
        mid = 0.5 * (bad + good)
        bad, good, k = (bad, mid, j) if certified else (mid, good, k)
    return (0.5 * (bad + good), None) if len(tail) - 2 < iters else (None, k)


def bisect_rates(stream: RatesStream, lo: float, hi: float, iters: int = 40,
                 scan: bool = True, sense: str = "min") -> list:
    """bisect_rate on each row of `stream`, independently.

    Every row's path is the one it has bisected alone: with `scan`,
    SCAN_POINTS rates, then the easy end, then the hard end (which is
    the result when certified), then `iters` midpoints. A stream may
    probe ahead (see _rates_probe), as long as each row's certificates
    follow its path. Returns one entry per row: (rate, certificate), or
    None when the easy end of [lo, hi] is not certified.
    """
    if not lo < hi:
        raise ValueError("need lo < hi")
    if sense not in ("min", "max"):
        raise ValueError("sense must be 'min' or 'max'")
    if not isinstance(iters, Integral) or iters < 0:
        raise ValueError(f"iters must be an integer >= 0, not {iters!r}")
    rule = partial(_bisection, lo, hi, iters, scan, sense == "max")
    found = []
    for path in stream(rule):
        won = [cert is not None for _, cert in path]
        flags = won[:SCAN_POINTS if scan else 0][::-1 if sense == "max" else 1]
        if True in flags and not all(flags[flags.index(True):]):
            warnings.warn("certificate feasibility is not monotone on the "
                          "coarse scan", RuntimeWarning)
        k = rule(won)[1]
        found.append(None if k is None else path[k])
    return found


def bisect_rate(builder: Callable[[float], Optional["Certificate"]], lo: float,
                hi: float, iters: int = 40, scan: bool = True,
                sense: str = "min"):
    """Smallest rate in [lo, hi] the builder can certify, by bisection: a
    stream of one row in bisect_rates, so the builder is called at each
    rate of the row's path in turn. A certified hard end is the result,
    so a builder that certifies everywhere is called twice, at the easy
    end and at the hard end.

    The builder maps a rate to a certificate or None. None merges the
    INFEASIBLE verdict (no certificate of this form exists) with the
    INDETERMINATE one (budget or numerics ran out), so the rate found is
    conservative by an unknown amount near the threshold. In a
    dt_rates_probe stream, an L == mu row's "no" is a proof: INFEASIBLE
    on the sector's face. Feasibility is assumed monotone in the rate,
    and that is empirical only: the phase-I value of the dt LMIs is not
    monotone in rho in general (for hhb-nes at L = 10 it rises from
    0.0303 to 0.0329 as rho goes from 0.3 to 0.55).
    A coarse scan warns when the assumption visibly fails but does not
    alter the bracket. sense="max" searches for the largest certifiable
    rate instead (used for decay exponents, where faster decay is harder).
    Raises NoCertificate when the easy end of [lo, hi] is not certified.
    """
    def stream(rule: Callable) -> list:
        path: list = []
        while (rate := rule([c is not None for _, c in path])[0]) is not None:
            path.append((rate, builder(rate)))
        return [path]

    (found,) = bisect_rates(stream, lo, hi, iters=iters, scan=scan, sense=sense)
    if found is None:
        side, easy = (">=", lo) if sense == "max" else ("<=", hi)
        raise NoCertificate(f"no certificate with rate {side} {easy:g}")
    return found


def _verdict(results: list) -> Optional[FeasResult]:
    """The result of a probe from its twins' results so far (None while
    running): the full form's, unless a face twin proves INFEASIBLE. A
    face INFEASIBLE decides at once, a full FEASIBLE or INFEASIBLE does
    too, and a full INDETERMINATE waits for the face."""
    full, *faces = results
    for res in faces:
        if res is not None and res.status == INFEASIBLE:
            return replace(res, message=f"on the sector's face (L = mu): {res.message}")
    if full is not None and (full.status != INDETERMINATE or None not in faces):
        return full
    return None


def _rates_probe(rows: list, problems: Callable, certificate: Callable,
                 max_oracle_calls: int) -> RatesStream:
    """The stream for bisect_rates over compiled `rows` of one LMI form:
    `problems(rows, rates)` gives the lifted problems of row rows[k] at
    rates[k], its full form first and then any face twins (see
    dt_rates_probe), all of one block shape; `certificate(i, rate,
    result)` reads row i's certificate, or None.

    A call solves a whole bisect_rates call in one `solve_stream` stack,
    in which each row keeps up to LOOKAHEAD probes of its path (fewer on
    wide grids, see STACK_ROWS): the next rates if every pending probe
    fails. Only failure can be assumed, since a failed probe leaves the
    warm start, the last certificate of the row's path (also across
    calls), as it is. A certified probe drops every later probe of its
    row at once, and the row refills from there. A probe's twins join
    together, with the same warm start, and its verdict (_verdict) drops
    the twins still running. Certificates are made, and warm starts move,
    only along the decided path and in its order, so every row gets the
    result it gets bisected alone."""
    last: list = [None] * len(rows)

    def certified(i: int, rate: float, res: FeasResult) -> Optional[Certificate]:
        cert = certificate(i, rate, res)
        if cert is not None:
            last[i] = cert.raw_v
        return cert

    def stream(rule: Callable) -> list:
        paths: list = [[] for _ in rows]
        # each row's probes past its path: [rate, key, result or None,
        # its twins' results], twin t solving as (*key, t)
        ahead: list = [[] for _ in rows]
        keys = count()
        todo = set(range(len(rows)))  # the rows with news since the last call

        def feed(decided: list) -> tuple:
            fresh, new, dropping = set(), [], []
            for (i, n, twin), res in decided:
                e = next(e for e in ahead[i] if e[1] == (i, n))
                if e[2] is None:
                    e[3][twin] = res
                    e[2] = _verdict(e[3])
                    if e[2] is not None:
                        dropping += [(i, n, t) for t, r in enumerate(e[3]) if r is None]
                        if e[2].feasible:
                            fresh.add((i, n))
                todo.add(i)
            live = sum(bool(line) or i in todo for i, line in enumerate(ahead))
            window = max(1, min(LOOKAHEAD, STACK_ROWS // max(live, 1)))
            for i in sorted(todo):
                line = ahead[i]
                # a new certificate cancels every probe after it
                cut = next((j + 1 for j, e in enumerate(line) if e[1] in fresh), len(line))
                dropping += [(*key, t) for _, key, res, twins in line[cut:] if res is None
                             for t, r in enumerate(twins) if r is None]
                del line[cut:]
                while line and line[0][2] is not None:
                    rate, _, res, _ = line.pop(0)
                    paths[i].append((rate, certified(i, rate, res)))
                # refill along the path where every pending probe fails
                outcomes = [c is not None for _, c in paths[i]]
                outcomes += [res is not None and res.feasible for _, _, res, _ in line]
                start = next((res.v for _, _, res, _ in reversed(line)
                              if res is not None and res.feasible), last[i])
                for _ in range(window - sum(e[2] is None for e in line)):
                    rate = rule(outcomes)[0]
                    if rate is None:
                        break
                    line.append([rate, (i, next(keys)), None, None])
                    outcomes.append(False)
                    new.append((line[-1], rate, start))
            todo.clear()
            if not new:
                return [], dropping
            joining = []
            for (e, _, v), twins in zip(new, problems([e[1][0] for e, _, _ in new],
                                                      [rate for _, rate, _ in new])):
                e[3] = [None] * len(twins)
                joining += [((*e[1], t), lifted, v) for t, lifted in enumerate(twins)]
            return joining, dropping

        solve_stream(feed, max_oracle_calls)
        return paths

    stream.rows = rows
    return stream


def dt_rates_probe(requests: Sequence[CertRequest],
                   max_oracle_calls: int = 200) -> RatesStream:
    """Stream for bisect_rates over discrete-time rows at factors rho. Each
    request is compiled once, at rho = 1, into its entry of the stream's
    `rows`; a probe applies rho as dt_problem does, checks the joining
    rate-dependent matrices as one stack and lifts only the branch LMIs.

    At L == mu (exactly) the sector form is negative semidefinite, so
    P = 0 with a sector multiplier carrying the normalization is a
    recession point and the full form is never proved INFEASIBLE. There
    u = mu C_b x, and each probe gets a face twin: each branch LMI F as
    Q_b' F Q_b, Q_b orthonormal with span [I; mu C_b], padded by a -1
    corner, without the sector multipliers v[4], v[5], which also leave
    the normalization. A full point clearing the margin gives a face point
    clearing it (Q_b' F Q_b <= lambda_max(F) I; rescaling by
    1 / (1 - v[4] - v[5]) >= 1 keeps margin and floors), and one inside
    the box (|w| < 1.5 with v[4], v[5] at their floors), so the face's
    INFEASIBLE is a proof. Certificates and warm starts come from the
    full form only."""
    systems = [dt_system(r.h, r.beta_hi, r.beta_lo, r.disc) for r in requests]
    mu = np.array([r.mu for r in requests], dtype=float)
    base = _theorem2_stack(systems, mu, [r.lipschitz for r in requests])
    compiled = [_compiled(s, r.mu, r.lipschitz, 1.0, m)
                for s, r, m in zip(systems, requests, base)]
    check_symmetric_stack(base[:, :, 4:6].reshape(-1, 3, 3),
                          lambda i: f"map {_DT_LMIS[i // 2 % 2][0]}: basis[{4 + i % 2}]")
    zero, corner = np.zeros((3, 3)), np.diag([0.0, 0.0, -1.0])
    skeleton, face_skeleton = lift(_feas(8, [])), lift(_feas(8, [], free=(4, 5)))
    faces = np.array([r.lipschitz == r.mu for r in requests], dtype=bool)
    # Q_b per row and branch: QR of [I; mu C_b]
    span = np.zeros((len(requests), 2, 3, 2))
    span[..., 0, 0] = span[..., 1, 1] = 1.0
    span[..., 2, :] = mu[:, None, None] * np.array([[br.C[0] for br in (s.main, s.reset)]
                                                     for s in systems])
    face_basis = np.linalg.qr(span)[0][:, :, None]
    # a face LMI's indices in v and its matrices' positions: no sector
    face_idx = [idx[:4] + idx[5:] for _, idx, _ in _DT_LMIS]

    def problems(rows: list, rates: list) -> list:
        rho = np.array(rates, dtype=float)
        if not np.all((0.0 < rho) & (rho <= 1.0)):
            raise ValueError("rho must lie in (0, 1]")
        mats = _at_rates(base[rows], rho)
        check_symmetric_stack(mats[:, :, :4].reshape(-1, 3, 3),
                              lambda i: f"map {_DT_LMIS[i // 4 % 2][0]}: basis[{i % 4}]")
        out = [[skeleton.with_blocks([(zero, idx, m) for (_, idx, _), m in zip(_DT_LMIS, pair)])]
               for pair in mats]
        on = faces[rows].nonzero()[0]
        if on.size:
            Q = face_basis[np.asarray(rows)[on]]
            face = np.pad(np.swapaxes(Q, -1, -2) @ mats[on][:, :, [0, 1, 2, 3, 5]] @ Q,
                          [(0, 0)] * 3 + [(0, 1)] * 2)
            for k, pair in zip(on, face):
                out[k].append(face_skeleton.with_blocks([(corner, idx, m)
                                                         for idx, m in zip(face_idx, pair)]))
        return out

    return _rates_probe(compiled, problems,
                        lambda i, rho, res: _dt_certificate(compiled[i], rho, res),
                        max_oracle_calls)


def ct_rates_probe(rows: Sequence[CtLmiData], eps_infl: float,
                   max_oracle_calls: int = 200) -> RatesStream:
    """Stream for bisect_rates over continuous-time rows at decay exponents
    alpha (bisected with sense="max"), each descent form inflated by
    eps_infl (CtLmiData.M_eps). Each row's flow basis is built once at
    alpha = 0, and a probe adds 2 alpha E to its three P blocks."""
    if not 0.0 < eps_infl < np.inf:
        raise ValueError("eps_infl must be positive and finite")
    # v = [p11, p12, p22, sigma_phi, sigma_1, sigma_2]
    flow = np.array([[*(x.M_F(E, 0.0) for E in _P_BASIS), x.M_phi, x.M_eps(eps_infl)]
                     for x in rows]).reshape(-1, 5, 3, 3)
    jump = np.array([[*(x.M_J(E) for E in _P_BASIS), -x.M0] for x in rows]).reshape(-1, 4, 3, 3)
    check_symmetric_stack(jump.reshape(-1, 3, 3), lambda i: f"map jump: basis[{i % 4}]")
    zero, slack = np.zeros((3, 3)), -(CT_RESET_SLACK + MARGIN) * np.eye(3)
    skeleton = lift(_feas(6, []))

    def problems(idx: list, rates: list) -> list:
        alpha = np.array(rates, dtype=float)
        if not np.all((0.0 < alpha) & (alpha < np.inf)):
            raise ValueError("alpha must be positive and finite")
        mats = flow[idx]
        mats[:, :3, :2, :2] += (2.0 * alpha)[:, None, None, None] * np.array(_P_BASIS)
        check_symmetric_stack(mats.reshape(-1, 3, 3), lambda i: f"map flow: basis[{i % 5}]")
        return [[skeleton.with_blocks([(zero, [0, 1, 2, 3, 4], f), (slack, [0, 1, 2, 5], j)])]
                for f, j in zip(mats, jump[idx])]

    return _rates_probe(rows, problems,
                        lambda i, alpha, res: _ct_certificate(rows[i], eps_infl, alpha, res),
                        max_oracle_calls)
