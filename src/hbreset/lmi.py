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
the dt LMIs in rho². Each kind's layout is written once, in its table
(`_CT`, `_DT`), which the problems, checks and certificates read. Rows of
either kind compile by one `_compile`, from their state-space data, into
stack entries: their LMIs' slots without the rate, in the table's order.
`_at_rates` moves rows to their rates. So one stream, `_rates_probe`,
serves `ct_rates_probe` and `dt_rates_probe`: every probe of a
`bisect_rates` call joins one `sdp.solve_stream` stack, each row probing
up to LOOKAHEAD rates ahead on its path; every row gets the result it
gets bisected alone. `bisect_rates` bisects by one rule, `_bisection`: a
row's path given its outcomes so far. `bisect_rate` drives one row
through a builder, a rate at a time.
At L == mu a dt row's probes also solve its face (dt_rates_probe), whose
INFEASIBLE proves the "no" that the full form alone leaves INDETERMINATE.
"""
from __future__ import annotations

import json
import warnings
from collections import namedtuple
from dataclasses import dataclass, replace
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

# E11, E12, E22: P = p11 E11 + p12 E12 + p22 E22
_P_BASIS = np.array([[[1.0, 0.0], [0.0, 0.0]], [[0.0, 1.0], [1.0, 0.0]], [[0.0, 0.0], [0.0, 1.0]]])
_ZERO = np.zeros((3, 3))


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


# a rate-row kind's table, built by _layout
_Layout = namedtuple("_Layout", "rate_kind rates v lmis moves moved sector tuning")


def _layout(rate_kind: str, rates: tuple, v: str, lmis: list, moves: tuple,
            tuning: Callable, sector: str = "") -> _Layout:
    """A kind's table, from names: v's entries (P's, then the multipliers
    of Certificate.multipliers), per LMI its name, constant and slots'
    variables (P's first), the largest rate and the message for one out
    of range, `moves` = (k, n): the rate moves the first n slots of the
    first k LMIs (`moved` masks them), `tuning(row, rate)`, a
    certificate's tuning, and `sector`, the multipliers inert on the face."""
    names = v.split()
    slots = [[names.index(x) for x in row.split()] for _, _, row in lmis]
    (k, n), width = moves, max(map(len, slots))
    moved = (np.arange(len(lmis)) < k)[:, None] & (np.arange(width) < n)
    return _Layout(rate_kind, rates, tuple(names),
                   tuple((name, const, idx) for (name, const, _), idx in zip(lmis, slots)),
                   moves, moved, tuple(sector.split()), tuning)


def _feas(kind: _Layout, lmis: Sequence = (), face: bool = False) -> FeasProblem:
    """The rate problem of a row of `kind` with these LMIs: P > 0, every
    multiplier floored, and p11 + p22 + the multipliers = 1 (on the face,
    the sector's left out)."""
    pmap = AffineMatrixMap(constant=np.zeros((2, 2)),
                           basis=[(i, E) for i, E in enumerate(_P_BASIS)], name="P")
    left_out = ("p12", *(kind.sector if face else ()))
    return FeasProblem(nvar=len(kind.v), nsd_blocks=list(lmis), pd_blocks=[pmap],
                       nonneg={i: MULTIPLIER_FLOOR for i in range(len(_P_BASIS), len(kind.v))},
                       normalization=np.array([float(x not in left_out) for x in kind.v]),
                       margin=MARGIN)


def _at_rates(kind: _Layout, stack: Array, rates: Array) -> Array:
    """The LMIs' basis matrices of compiled rows `stack` at `rates`: P's
    slots move by 2 alpha E (ct) or -rho² E (dt), and dt's a slot M1
    becomes rho² M1 + (1 - rho²) M2, M2 being the row's last."""
    top, message = kind.rates
    if not np.all((0.0 < rates) & (rates <= top) & (rates < np.inf)):
        raise ValueError(message)
    r = rates[:, None, None, None, None]
    (k, n), p = kind.moves, len(_P_BASIS)
    mats = stack[:, :, :kind.moved.shape[1]].copy()
    if kind.rate_kind == "alpha":
        mats[:, :k, :p, :2, :2] += (2.0 * r) * _P_BASIS
    else:
        rho2 = r * r
        mats[:, :k, :p, :2, :2] -= rho2 * _P_BASIS
        mats[:, :k, p:n] = rho2 * stack[:, :k, p:n] + (1.0 - rho2) * stack[:, :k, -1:]
    return mats


def _pullback(top: Array, form: Array) -> Array:
    """T' form T, T = [top; 0 0 1]: a form on (top e, u) as one on e = (x, u)."""
    T = np.concatenate([top, np.broadcast_to([0.0, 0.0, 1.0], top.shape)], -2)
    return np.swapaxes(T, -1, -2) @ form @ T


def _sector(top: Array, mu: Sequence[float], L: Sequence[float]) -> Array:
    """build_sector(mu[k], L[k]) of each row k pulled back through its own
    [C 0; 0 1], top = [C 0] (row, LMI, 1, 3): >= 0 at e = (x, u), u = grad(C x)."""
    forms = {x: build_sector(*x) for x in set(zip(mu, L))}
    return _pullback(top, np.array([forms[x] for x in zip(mu, L)]).reshape(-1, 1, 2, 2))


def _compile(kind: _Layout, maps: Array, forms: dict, last: Optional[Array] = None) -> Array:
    """Rows of `kind` compiled as one stack (row, LMI, slot, 3, 3), all in
    their LMIs but the rate, which _at_rates applies. Per row and LMI, maps
    (row, LMI, term, 2, 2, 3) holds the pairs (X, Y) of its Lyapunov term
    sum X' P Y at e = (x, u), which give its P slots over _P_BASIS, and
    forms[v], broadcasting to (row, LMI, 3, 3), is multiplier v's slot;
    the table orders them. `last` (dt's M2) ends each LMI, zeros pad it."""
    n, rows = len(_P_BASIS), (len(maps), len(kind.lmis))
    stack = np.zeros((*rows, kind.moved.shape[1] + (last is not None), 3, 3))
    stack[:, :, :n] = (np.swapaxes(maps[:, :, :, :1], -1, -2) @ _P_BASIS @ maps[:, :, :, 1:]).sum(2)
    for b, (_, _, idx) in enumerate(kind.lmis):
        for s, i in enumerate(idx[n:], n):
            stack[:, b, s] = np.broadcast_to(forms[kind.v[i]], (*rows, 3, 3))[:, b]
    if last is not None:
        stack[:, :, -1] = last
    return stack


# ---------------------------------------------------------------------------
# continuous time


@dataclass
class CtLmiData:
    """A ct rate row (n=1): x' = A x + B grad(C x) on flows, x+ = A_R x at jumps."""

    A: Array
    A_R: Array
    B: Array
    C: Array
    mu: float
    lipschitz: float
    K: float
    b_coupled: bool


def build_ct(K: float, mu: float, L: float, b_coupled: bool = False) -> CtLmiData:
    """Flow matrices for damping K. The jump resets momentum (A_R keeps
    position only). b_coupled swaps in the experimental input matrix
    [-I; -I]; the default [0; -I] is the plain dynamics."""
    if not 0.0 < K < np.inf:
        raise ValueError("K must be positive and finite")
    build_sector(mu, L)  # refuses mu and L out of order or not finite
    A = np.array([[0.0, 1.0], [0.0, -K]])
    A_R = np.array([[1.0, 0.0], [0.0, 0.0]])
    B = np.array([[-1.0], [-1.0]]) if b_coupled else np.array([[0.0], [-1.0]])
    C = np.array([[1.0, 0.0]])
    return CtLmiData(A=A, A_R=A_R, B=B, C=C, mu=mu, lipschitz=L, K=K,
                     b_coupled=b_coupled)


# a compiled ct row: per LMI its slots at alpha = 0, the jump's padded by a zero
_CT = _layout("alpha", (np.inf, "alpha must be positive and finite"),
              "p11 p12 p22 sigma_phi sigma_1 sigma_2",
              [("flow", _ZERO, "p11 p12 p22 sigma_phi sigma_1"),
               ("jump", -(CT_RESET_SLACK + MARGIN) * np.eye(3), "p11 p12 p22 sigma_2")],
              moves=(1, 3),
              tuning=lambda row, alpha: {"K": row.K, "alpha": alpha, "mu": row.mu,
                                         "L": row.lipschitz, "b_coupled": row.b_coupled})


def _ct_stack(rows: Sequence[CtLmiData], eps_infl: float) -> Array:
    """Compile ct rows as one stack, at alpha = 0. The flow's Lyapunov term
    is 2 x'P(A x + B u): [I 0] with [A B] and back; the jump's is
    x'A_R'P A_R x - x'P x. The descent form -p u is >= 0 on the flow set,
    which takes it inflated by eps_infl |x|², and <= 0 on the jump set."""
    descent = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, -0.5], [0.0, -0.5, 0.0]])
    I0 = np.eye(2, 3)
    maps = np.array([[[(I0, AB), (AB, I0)], [(AR, AR), (-I0, I0)]]
                     for AB, AR in ((np.hstack([x.A, x.B]), np.pad(x.A_R, [(0, 0), (0, 1)]))
                                    for x in rows)]).reshape(-1, 2, 2, 2, 2, 3)
    sector = _sector(np.array([np.pad(x.C, [(0, 0), (0, 1)]) for x in rows]).reshape(-1, 1, 1, 3),
                     [x.mu for x in rows], [x.lipschitz for x in rows])
    return _compile(_CT, maps, {"sigma_phi": sector, "sigma_2": -descent,
                                "sigma_1": descent + eps_infl * np.diag([1.0, 1.0, 0.0])})


# ---------------------------------------------------------------------------
# discrete time


@dataclass
class DtBranch:
    """A branch of the switched two-step system at x = (q_prev, q): x+ = A x + B grad(C x)."""

    A: Array
    B: Array
    C: Array
    E: Array


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
    return DtBranch(A=A, B=B, C=C, E=E)


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


# e' ALIGNMENT_FORM e = -<u, q - q_prev> at e = (q_prev, q, u): minus the
# inner product that `discrete.aligned` reads, + on the main branch, - on the reset
ALIGNMENT_FORM = np.array([[0.0, 0.0, 0.5], [0.0, 0.0, -0.5], [0.5, -0.5, 0.0]])

# a compiled dt row: per branch LMI its slots (see _dt_stack), then M2
_DT = _layout("rho", (1.0, "rho must lie in (0, 1]"),
              "p11 p12 p22 a lambda lambda_r sigma sigma_r",
              [("flow_lmi", _ZERO, "p11 p12 p22 a lambda sigma"),
               ("reset_lmi", _ZERO, "p11 p12 p22 a lambda_r sigma_r")],
              moves=(2, 4),
              tuning=lambda row, rho: {"h": row.sys.h, "beta_hi": row.sys.beta_hi,
                                       "beta_lo": row.sys.beta_lo, "disc": row.sys.disc,
                                       "mu": row.mu, "L": row.lipschitz},
              sector="lambda lambda_r")


@dataclass
class DtLmiData:
    """A discrete-time rate row as compiled by build_theorem2 (its stack
    entry), evaluated at factor rho. Moving a row to another rate,
    dataclasses.replace(data, rho=r), reuses its stack."""

    sys: DtSystemMatrices
    mu: float
    lipschitz: float
    rho: float
    stack: Array

    def __post_init__(self):
        if not 0.0 < self.rho <= _DT.rates[0]:
            raise ValueError(_DT.rates[1])


def _dt_stack(systems: Sequence[DtSystemMatrices], mu: Sequence[float],
              L: Sequence[float]) -> Array:
    """Compile the switched-rate certificates of rows (systems[k], mu[k],
    L[k]) as one stack, (row, branch, 7, 3, 3). On a branch, x+ = [A B] e
    is both maps of the Lyapunov term, and a's slots bound phi's change
    (M1) and phi (M2, last): with u = grad(y) and w(c) = [[c, 1/2], [1/2, 0]],
    phi(z) - phi(y) <= (z - y, u)' w(L/2) (z - y, u) at z = q+, and
    phi(y) - phi(z) <= (y - z, u)' w(-mu/2) (y - z, u) at z = q and q*."""
    A, B, C, E = (np.array([[getattr(br, x) for br in (s.main, s.reset)] for s in systems])
                  .reshape(-1, 2, *shape) for x, shape in zip("ABCE", ((2, 2), (2, 1), (1, 2), (1, 2))))
    AB = np.concatenate([A, B], -1)
    C0, E0 = (np.pad(x, [(0, 0)] * 3 + [(0, 1)]) for x in (C, E))
    sector = _sector(C0, mu, L)
    upper, lower = (np.divide(c, d)[:, None, None, None] * _P_BASIS[0] + 0.5 * _P_BASIS[1]
                    for c, d in ((L, 2.0), (mu, -2.0)))
    n1 = _pullback(E @ AB - C0, upper)
    return _compile(_DT, np.stack([AB, AB], 2)[:, :, None],
                    {"a": n1 + _pullback(C0 - E0, lower), "lambda": sector, "lambda_r": sector,
                     "sigma": ALIGNMENT_FORM, "sigma_r": -ALIGNMENT_FORM},
                    last=n1 + _pullback(C0, lower))


def build_theorem2(sys: DtSystemMatrices, mu: float, L: float, rho: float) -> DtLmiData:
    """Compile the switched-rate certificate of one row, once: a stack of
    one of _dt_stack."""
    return DtLmiData(sys, mu, L, rho, _dt_stack([sys], [mu], [L])[0])


def dt_problem(data: DtLmiData) -> FeasProblem:
    """The feasibility problem behind dt_feasible, for export or inspection."""
    mats = _at_rates(_DT, data.stack[None], np.array([data.rho]))[0]
    return _feas(_DT, [AffineMatrixMap(constant=const, basis=list(zip(idx, m)), name=name)
                       for (name, const, idx), m in zip(_DT.lmis, mats)])


def dt_feasible(data: DtLmiData, max_oracle_calls: int = 200) -> Optional["Certificate"]:
    """Certificate at contraction factor rho, or None."""
    return _certificate(_DT, data, data.rho,
                        solve_feasibility(dt_problem(data), max_oracle_calls=max_oracle_calls))


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


def _certificate(kind: _Layout, row, rate: float, res: FeasResult,
                 **fixed: float) -> Optional[Certificate]:
    """The certificate of a FEASIBLE solve of `row` at `rate`, or None;
    `fixed` (ct's eps) leads its multipliers. A ct certificate's rate is
    alpha / cond(P), the exponent of the norm-ball guarantee."""
    if res.status != FEASIBLE:
        return None
    v, n = res.v, len(_P_BASIS)
    p11, p12, p22 = v[:n]
    P = np.array([[p11, p12], [p12, p22]])
    tuning = kind.tuning(row, rate)
    if kind.rate_kind == "alpha":
        eigs = np.linalg.eigvalsh(P)
        rate = rate / float(eigs[-1] / eigs[0])
    return Certificate(rate=rate, rate_kind=kind.rate_kind, P=P,
                       multipliers=dict(fixed, **dict(zip(kind.v[n:], map(float, v[n:])))),
                       margin=res.worst_eig, tuning=tuning, raw_v=v.copy())


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


def _check(kind: _Layout, mats: Array, slots: Array) -> None:
    """check_symmetric_stack on the `slots` (LMI, slot) of rows `mats`."""
    lmi, slot = slots.nonzero()
    check_symmetric_stack(mats[:, slots].reshape(-1, 3, 3),
                          lambda i: f"map {kind.lmis[lmi[i % lmi.size]][0]}: "
                                    f"basis[{slot[i % lmi.size]}]")


def _rates_probe(kind: _Layout, rows: Sequence, stack: Array, max_oracle_calls: int,
                 face_basis: Optional[Array] = None, **fixed: float) -> RatesStream:
    """The stream for bisect_rates over compiled `rows` of `kind`, `stack`
    their entries. A probe moves its row to its rate, checks the moved
    matrices as one stack and lifts only the LMIs; at L == mu, with Q_b per
    row and LMI in `face_basis`, it has a face twin (see dt_rates_probe).

    A call solves a whole bisect_rates call in one `solve_stream` stack,
    in which each row keeps up to LOOKAHEAD probes of its path (fewer on
    wide grids, see STACK_ROWS): the next rates if every pending probe
    fails. Only failure can be assumed, since a failed probe leaves the
    warm start, the last certificate of the row's path (also across
    calls), as it is. A certified probe drops every later probe of its
    row at once, and the row refills from there. A probe's twins join
    together, with the same warm start, and its verdict (_verdict) drops
    the twins still running. Certificates (_certificate) are made, and
    warm starts move, only along the decided path and in its order, so
    every row gets the result it gets bisected alone."""
    _check(kind, stack[:, :, :kind.moved.shape[1]], ~kind.moved)
    skeleton, face_skeleton = lift(_feas(kind)), lift(_feas(kind, face=True))
    on_face = np.array([bool(kind.sector) and x.lipschitz == x.mu for x in rows], dtype=bool)
    # per LMI, the slots and the indices in v that stay on the face
    lmis = np.arange(len(kind.lmis))[:, None]
    kept = [[s for s, i in enumerate(idx) if kind.v[i] not in kind.sector]
            for _, _, idx in kind.lmis]
    face_vars = [[idx[s] for s in slots] for (_, _, idx), slots in zip(kind.lmis, kept)]
    corner = np.diag([0.0, 0.0, -1.0])

    def problems(idx: list, rates: list) -> list:
        """The lifted problems of row rows[idx[k]] at rates[k]."""
        mats = _at_rates(kind, stack[idx], np.array(rates, dtype=float))
        _check(kind, mats, kind.moved)
        lmi_mats = [mats[:, b, :len(i)] for b, (_, _, i) in enumerate(kind.lmis)]
        out = [[skeleton.with_blocks([(const, i, m) for (_, const, i), m in zip(kind.lmis, row)])]
               for row in zip(*lmi_mats)]
        on = on_face[idx].nonzero()[0]
        if on.size:
            Q = face_basis[np.asarray(idx)[on]]
            face = np.pad(np.swapaxes(Q, -1, -2) @ mats[on][:, lmis, kept] @ Q,
                          [(0, 0)] * 3 + [(0, 1)] * 2)
            for k, row in zip(on, face):
                out[k].append(face_skeleton.with_blocks(
                    [(corner, i, m) for i, m in zip(face_vars, row)]))
        return out

    last: list = [None] * len(rows)

    def certified(i: int, rate: float, res: FeasResult) -> Optional[Certificate]:
        cert = _certificate(kind, rows[i], rate, res, **fixed)
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
    request is compiled once, at rho = 1, into its row of `rows`.

    At L == mu (exactly) the sector form is negative semidefinite, so
    P = 0 with a sector multiplier carrying the normalization is a
    recession point and the full form is never proved INFEASIBLE. There
    u = mu C_b x, and each probe gets a face twin: each branch LMI F as
    Q_b' F Q_b, Q_b orthonormal with span [I; mu C_b], padded by a -1
    corner, without the sector multipliers lambda, lambda_r, which also
    leave the normalization. A full point clearing the margin gives a
    face point clearing it (Q_b' F Q_b <= lambda_max(F) I; rescaling by
    1 / (1 - lambda - lambda_r) >= 1 keeps margin and floors), and one
    inside the box (|w| < 1.5 with lambda, lambda_r at their floors), so
    the face's INFEASIBLE is a proof. Certificates and warm starts come
    from the full form only."""
    systems = [dt_system(r.h, r.beta_hi, r.beta_lo, r.disc) for r in requests]
    mu = np.array([r.mu for r in requests], dtype=float)
    stack = _dt_stack(systems, mu, [r.lipschitz for r in requests])
    rows = [DtLmiData(s, r.mu, r.lipschitz, 1.0, m) for s, r, m in zip(systems, requests, stack)]
    # Q_b per row and branch: QR of [I; mu C_b]
    C = np.array([[br.C for br in (s.main, s.reset)] for s in systems]).reshape(-1, 2, 1, 2)
    span = np.concatenate([np.broadcast_to(np.eye(2), (len(systems), 2, 2, 2)),
                           mu[:, None, None, None] * C], -2)
    return _rates_probe(_DT, rows, stack, max_oracle_calls, np.linalg.qr(span)[0][:, :, None])


def ct_rates_probe(rows: Sequence[CtLmiData], eps_infl: float,
                   max_oracle_calls: int = 200) -> RatesStream:
    """Stream for bisect_rates over continuous-time rows at decay exponents
    alpha (bisected with sense="max"), each flow's descent form inflated by
    eps_infl (_ct_stack). Each row is compiled once, at alpha = 0, and a
    probe adds 2 alpha E to its flow LMI's three P blocks."""
    if not 0.0 < eps_infl < np.inf:
        raise ValueError("eps_infl must be positive and finite")
    return _rates_probe(_CT, rows, _ct_stack(rows, eps_infl), max_oracle_calls, eps=eps_infl)
