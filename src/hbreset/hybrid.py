"""Continuous-time heavy-ball flows with momentum resets.

Simulates the plain flow (qdot, pdot) = (p, -K p - grad phi(q)), the
hybrid variant that jumps (q, p, tau) -> (q, 0, 0) once the timer tau
exceeds the dwell time T_min and the momentum is not `discrete.aligned`,
and the switched variant; all take K from a pair (K while aligned, K
otherwise), (K_lo, K_hi) on the switched flow and (K, K) on the others.

Arcs are sampled on a fixed step grid; each step flows under one
damping. A jump and a damping switch are one kind of event, located
inside its step by `_locate`: a jump ends the step, and after a switch
the rest of the step flows under the other damping. An event is seen only
where it holds at a step's end, so a step longer than a quarter period
pi/(2 sqrt(L)) of the fastest mode can step over one, and the arc is then
the flow, not the hybrid system's solution.

A quadratic model (one with `ObjectiveModel.hessian`) flows exactly, each
mode of its Hessian by a closed-form 2x2 flow (`_ModalFlow`), at any step
size; event-free full steps go a block at a time, with one stacked oracle
call. Any other model steps by classical RK4 (`_rk4`), which evaluates the
oracle at each stage. A non-finite gradient raises FloatingPointError.
"""
from __future__ import annotations

import functools
import json
import math
from dataclasses import astuple, dataclass

import numpy as np

from .discrete import _finite, aligned
from .objectives import ObjectiveModel

Array = np.ndarray

GRAD_STOP = 1e-10
MAX_EVENT_BISECTIONS = 100
# _locate evaluates Illinois points while its bracket is wider than
# ILLINOIS_WIDTH event_tol, and while it has evaluated fewer than
# ILLINOIS_LEAD points more than the halvings so far. At a multiple root
# of <grad phi, p>, where regula falsi is slow, an event then costs at
# most ILLINOIS_LEAD + 2 points more than bisection; with no lead bound, a
# triple root on the unit oscillator took more than 100. A lead of 4
# leaves every jump of the benchmark's arcs where it is with no bound.
ILLINOIS_WIDTH = 16
ILLINOIS_LEAD = 4
# full steps that one _ModalFlow.block takes from its start, with one stacked
# oracle call; each block restarts the closed-form flow, so BLOCK sets arc bits
BLOCK = 128


@dataclass
class HybridState:
    q: Array
    p: Array
    tau: float = 0.0

    def __post_init__(self):
        self.q = np.asarray(self.q, dtype=float)
        self.p = np.asarray(self.p, dtype=float)
        if not (math.isfinite(self.tau) and self.tau >= 0):
            raise ValueError(f"tau must be finite and nonnegative, got {self.tau}")
        if self.q.ndim != 1 or self.q.shape != self.p.shape:
            raise ValueError(f"q and p must be 1-D of one shape, got {self.q.shape} "
                             f"and {self.p.shape}")
        if not (np.isfinite(self.q).all() and np.isfinite(self.p).all()):
            raise ValueError("q and p must be finite")


@dataclass
class HybridParams:
    K: float = 1.0
    K_lo: float = 1.0
    K_hi: float = 1.0
    T_min: float = 1e-3
    step: float = 1e-3
    event_tol: float = 1e-10

    def __post_init__(self):
        if not all(math.isfinite(v) for v in astuple(self)):
            raise ValueError("HybridParams fields must be finite")
        if not (self.K >= 0.0 and 0.0 <= self.K_lo <= self.K_hi):
            raise ValueError("need K >= 0 and 0 <= K_lo <= K_hi")
        if self.T_min <= 0 or self.step <= 0 or self.event_tol <= 0:
            raise ValueError("T_min, step, event_tol must be positive")


def default_dwell(lipschitz: float) -> float:
    """Small dwell time relative to the fastest period scale 1/sqrt(L)."""
    return 1e-3 / np.sqrt(max(lipschitz, 1e-12))


@dataclass
class HybridArc:
    """Solution samples over a hybrid time domain, plus the jump log."""

    t: Array
    j: Array
    q: Array
    p: Array
    tau: Array
    energy: Array
    jumps: list  # (t, j_after, q_at_jump) tuples

    def __len__(self) -> int:
        return len(self.t)

    def final_state(self) -> HybridState:
        return HybridState(q=self.q[-1].copy(), p=self.p[-1].copy(), tau=float(self.tau[-1]))

    def dwell_times(self) -> list[float]:
        """Flow durations between consecutive jumps."""
        times = [tj for tj, _, _ in self.jumps]
        out = []
        prev = float(self.t[0])
        for tj in times:
            out.append(tj - prev)
            prev = tj
        return out

    def to_csv(self, path) -> None:
        n = self.q.shape[1]
        cols = ["t", "j"] + [f"q{i}" for i in range(n)] + [f"p{i}" for i in range(n)] \
            + ["tau", "energy"]
        # j goes as a float: below 2**53, "%.17g" prints an integer-valued
        # float as "%d" prints the integer
        from .csv17 import write_rows  # compiled at the first write, not at import
        with open(path, "wb") as fh:
            fh.write((",".join(cols) + "\n").encode())
            write_rows(fh, (self.t, self.j, self.q, self.p, self.tau, self.energy))

    def jumps_json(self) -> str:
        return json.dumps(
            [{"t": tj, "j": jj, "q": list(qj)} for tj, jj, qj in self.jumps],
            sort_keys=True)


def _jumps(inner, tau, params: HybridParams):
    """The jump set, elementwise: tau >= T_min and inner not `aligned`."""
    return (tau >= params.T_min) & ~aligned(inner)


def _damping(inner, pair: tuple, band: float):
    """The damping switch, elementwise: pair[0] while `aligned` by band, else pair[1]."""
    return np.where(aligned(inner, band), *pair)


def _stopped(g) -> Array:
    """The stop test: the gradient has vanished. Row-wise over a stack."""
    return np.linalg.norm(g, axis=-1) <= GRAD_STOP


def jump_map(state: HybridState) -> HybridState:
    return HybridState(q=state.q.copy(), p=np.zeros_like(state.p), tau=0.0)


def _rk4(model: ObjectiveModel, q: Array, p: Array, g: Array, K: float):
    """dt -> one RK4 step of length dt of (qdot, pdot) = (p, -K p - grad
    phi(q)) from (q, p); g is the gradient there, which the caller has."""
    def at(dt: float) -> tuple[Array, Array]:
        k1q, k1p = p, -K * p - g
        k2q = p + 0.5 * dt * k1p
        q2 = q + 0.5 * dt * k1q
        k2p = -K * k2q - model.gradient(q2)
        k3q = p + 0.5 * dt * k2p
        q3 = q + 0.5 * dt * k2q
        k3p = -K * k3q - model.gradient(q3)
        k4q = p + dt * k3p
        q4 = q + dt * k3q
        k4p = -K * k4q - model.gradient(q4)
        qn = q + (dt / 6.0) * (k1q + 2.0 * k2q + 2.0 * k3q + k4q)
        pn = p + (dt / 6.0) * (k1p + 2.0 * k2p + 2.0 * k3p + k4p)
        return qn, pn
    return at


class _ArcBuilder:

    def __init__(self):
        self.parts = []
        self.jumps = []

    def rows(self, t: Array, j: int, q: Array, p: Array, tau: Array,
             phi: Array) -> None:
        """Record samples of flow interval j; phi = phi(q) row by row comes
        from the caller's evaluation."""
        self.parts.append((t, np.full(len(t), j), q, p, tau, phi))

    def sample(self, t: float, j: int, q: Array, p: Array, tau: float,
               phi: float) -> None:
        self.rows(np.array([t]), j, q[None], p[None], np.array([tau]),
                  np.array([phi]))

    def jump(self, t: float, j: int, z: HybridState, phi: float) -> HybridState:
        """Record a jump out of flow interval j at time t: the sample of z,
        the log entry and the sample of jump_map(z), which starts interval
        j + 1. Returns jump_map(z); phi = phi(z.q) holds across the jump."""
        self.sample(t, j, z.q, z.p, z.tau, phi)
        z = jump_map(z)
        self.jumps.append((t, j + 1, z.q))
        self.sample(t, j + 1, z.q, z.p, z.tau, phi)
        return z

    def build(self) -> HybridArc:
        t, j, q, p, tau, phi = (np.concatenate(c) for c in zip(*self.parts))
        return HybridArc(t=t, j=j, q=q, p=p, tau=tau,
                         energy=phi + 0.5 * np.vecdot(p, p), jumps=self.jumps)


def _modal_coeffs(lam: Array, K: float):
    """t -> (c, C) of each mode at times t, for lam >= 0: c(t) = x(t) and
    C(t) = int_0^t x, where x'' + K x' + lam x = 0, x(0) = 0, x'(0) = 1.

    With m = -K/2 and d^2 = m^2 - lam, c = e^{mt} sinh(dt)/d, that is
    e^{mt} sin(wt)/w for d = iw (w = 0 included) and e^{r1 t} (1 -
    e^{-2dt})/(2d) for real d > 0, r1 = m + d, finite at any t. C is
    (1 - c0)/lam for c0 = e^{mt} (cosh(dt) - m sinh(dt)/d), with 1 - c0 =
    (1 - e^{r1 t}) + e^{r1 t} 2 sin^2(wt/2) + r1 c (r1 = m, and no sine
    term for real d), which is exact at K = 0. Where K^2 >= 16 lam (lam =
    0 included) the real roots r1 and r2 = m - d lie apart and C = (E(r1)
    - E(r2))/(2d), E(r) = (e^{rt} - 1)/r, with no division by lam. That
    difference cancels to about eps/(Kt), so where also Kt <= 1 (and so
    lam t^2 <= 1/16) C is summed from its Taylor series instead
    (`_series_C`).
    """
    m = -0.5 * K
    s = m * m - lam
    osc, stiff = s <= 0.0, K * K >= 16.0 * lam
    # w >= 1e-150 makes sin(wt)/w exactly t at d = 0, and moves no value
    w = np.maximum(np.sqrt(np.abs(s)), 1e-150)
    r1, r2 = np.where(osc, m, m + w), m - w
    iw = 1.0 / w
    ilam = 1.0 / np.where(stiff, 1.0, lam)
    # which forms some mode needs, decided once per damping
    any_real, any_stiff = not osc.all(), bool(stiff.any())
    lam_stiff = np.where(stiff, lam, 0.0)

    def coeffs(t):
        wt = w * t
        x = np.expm1(r1 * t)
        e1 = x + 1.0
        sn, vs = np.sin(wt) * iw, np.sin(0.5 * wt)
        vs = 2.0 * vs * vs
        if any_real:
            sn, vs = np.where(osc, sn, -0.5 * np.expm1(-2.0 * wt) * iw), np.where(osc, vs, 0.0)
        c = e1 * sn
        C = (e1 * vs + r1 * c - x) * ilam
        if any_stiff:  # r2 < 0, and r1 = 0 where lam = 0
            E1 = np.where(r1 != 0.0, x / np.where(r1 != 0.0, r1, 1.0), t)
            E = 0.5 * (E1 - np.expm1(r2 * t) / r2) * iw
            # the series is summed at t = 0 where Kt > 1, and on lam = 0
            # for the modes that are not stiff, so every term stays finite
            small = K * t <= 1.0
            series = _series_C(lam_stiff, K, np.where(small, t, 0.0))
            C = np.where(stiff, np.where(small, series, E), C)
        return c, C
    return coeffs


# 1/(k+2)! for the 20 terms of _series_C; at Kt <= 1 the terms past them
# sum to less than 1e-19 of C
_INV_FACTORIALS = [1.0 / math.factorial(k) for k in range(2, 22)]


def _series_C(lam: Array, K: float, t):
    """C(t) = int_0^t x of _modal_coeffs as its Taylor series sum_k h_k
    t^(k+2)/(k+2)!, h_k = x^(k+1)(0): h_0 = 1, h_1 = -K and h_k = -K h_(k-1)
    - lam h_(k-2). Summed over g_k = h_k t^k, with no roots and no
    division; for real roots in [-K, 0], |g_k| <= (k+1) (Kt)^k."""
    kt, lt2 = K * t, lam * t * t
    g_prev, g = 0.0, 1.0
    total = _INV_FACTORIALS[0]
    for inv in _INV_FACTORIALS[1:]:
        g_prev, g = g, -kt * g - lt2 * g_prev
        total = total + g * inv
    return total * t * t


class _ModalFlow:
    """The exact flow of a quadratic model, in its Hessian's eigenbasis.

    The field f(z) = A z + c of z = [q; p], A = [[0, I], [-H, -K I]], flows
    by f' = A f, so z moves by Phi(t) f(z0), Phi(t) = int_0^t exp(sA) ds,
    with no minimizer. With H = V diag(lam) V', exp(tA_j) = c0 I + c A_j
    gives Phi_j(t) = c I + C (A_j + K I), so mode j of f(z0) = (p, -K p - g),
    (u, w) = (V'p, -K V'p - V'g), moves by (c u - C V'g, c w - C lam u).
    """

    def __init__(self, model: ObjectiveModel, params: HybridParams, t_end: float,
                 resets: bool):
        self.model, self.params, self.t_end, self.resets = model, params, t_end, resets
        H = model.hessian
        lam, self.V = np.linalg.eigh(0.5 * (H + H.T))
        # a Hessian is positive semidefinite: round-off below 0 is taken as 0
        self.lam = np.maximum(lam, 0.0)
        self.tables = {}

    def _coeffs(self, K: float):
        """(t -> (c, C), (c, C) at h, 2h, ..., BLOCK h) under damping K."""
        if K not in self.tables:
            coeffs = _modal_coeffs(self.lam, K)
            self.tables[K] = coeffs, coeffs(self.params.step * np.arange(1.0, BLOCK + 1)[:, None])
        return self.tables[K]

    def _states(self, q: Array, p: Array, g: Array, K: float):
        """(c, C) -> the states (q, p), after the times of (c, C), of the
        flow from (q, p), whose gradient is g, under damping K."""
        u, gam = np.stack((p, g)) @ self.V
        w, lu = -K * u - gam, self.lam * u
        return lambda c, C: (q + (c * u - C * gam) @ self.V.T, p + (c * w - C * lu) @ self.V.T)

    def step(self, q: Array, p: Array, g: Array, K: float):
        """s -> the state (q, p) at time s of the flow from (q, p), whose
        gradient is g, under damping K."""
        at, coeffs = self._states(q, p, g, K), self._coeffs(K)[0]
        return lambda s: at(*coeffs(s))

    def block(self, q: Array, p: Array, g: Array, t: float, tau: float, K: float, event):
        """(t, tau, q, p, phi, g) of the full steps under damping K from
        (q, p), up to the first one that meets the stop test or whose end
        is in `event`(<grad phi, p>, tau), or None when the next step is
        such a step or is short; the caller takes that step alone."""
        h = self.params.step
        # the loop's own sequential additions, so t reaches t_end exactly
        # where a step at a time would and the short last step is left to it
        ts = np.cumsum(np.concatenate(([t], np.full(BLOCK, h))))
        starts = ts[:-1]
        rows = int(np.count_nonzero((starts < self.t_end - 1e-15)
                                    & (self.t_end - starts >= h)))
        if rows == 0:
            return None
        c, C = self._coeffs(K)[1]
        Q, P = self._states(q, p, g, K)(c[:rows], C[:rows])
        phi, G = self.model.value_grad(Q)
        taus = np.cumsum(np.concatenate(([tau], np.full(rows, h if self.resets else 0.0))))[1:]
        stop = _stopped(G) | event(np.vecdot(G, P), taus)
        r = int(np.argmax(stop)) if stop.any() else rows
        if r == 0:
            return None
        return ts[1:r + 1], taus[:r], Q[:r], P[:r], phi[:r], _finite(G[:r])


def _locate(model: ObjectiveModel, params: HybridParams, step, event, clock: float,
            edge: float, f0: float, dt: float, end: tuple) -> tuple:
    """The earliest entry into the event set within the step (0, dt] whose
    end `end` = (q, p, phi, g) at dt is in it: (lo, hi, the state (q, p,
    phi, g) at hi). lo and hi are the bisection's: the halvings of (0, dt]
    down to event_tol, each midpoint going to hi when it is in the event
    set, else to lo.

    step(s) is the state (q, p) at s into the step, f0 its <grad phi, p>
    at 0. event(f, c) is the event set at <grad phi, p> = f and timer
    reading c = clock + s, empty where c < T_min (the jump set's dwell; a
    damping switch has clock = inf), with its edge at f = `edge`. The
    evaluated bracket (a, b), the latest point found outside the event set
    and the earliest found in it, decides every midpoint outside it, and
    the timer every midpoint before T_min, with no new point. For one
    inside, an Illinois point (regula falsi on f - edge that halves the
    value kept at an end twice in a row; Dowell & Jarratt, BIT 1971) is
    evaluated first, while b - a > ILLINOIS_WIDTH event_tol, the ends
    straddle a sign change and the points lead the halvings by less than
    ILLINOIS_LEAD; else the timer's crossing of T_min, if in (a, b); else
    the midpoint. Where the event set is an interval of the step, that
    gives bisection's lo and hi. MAX_EVENT_BISECTIONS bounds both the
    halvings and the evaluations.
    """
    tol, ready, calls = params.event_tol, params.T_min - clock, 0
    failed = f"event localization did not converge in {MAX_EVENT_BISECTIONS} bisections"

    def at(s: float) -> tuple:
        nonlocal calls
        calls += 1
        if calls > MAX_EVENT_BISECTIONS:
            raise RuntimeError(failed)
        qs, ps = step(s)
        phis, gs = model.value_grad(qs)
        return qs, ps, phis, _finite(gs)

    a, fa = 0.0, f0 - edge
    b, fb, at_b = dt, float(np.dot(end[3], end[1])) - edge, end
    kept = 0  # +1 after a point moved a, -1 after one moved b
    lo, hi, at_hi = 0.0, dt, end
    for halvings in range(MAX_EVENT_BISECTIONS):
        if hi - lo <= tol:
            return lo, hi, at_hi if at_hi is not None else at(hi)
        mid = 0.5 * (lo + hi)
        while a < mid < b and clock + mid >= params.T_min:
            if (b - a > ILLINOIS_WIDTH * tol and min(fa, fb) < 0.0 < max(fa, fb)
                    and calls < halvings + ILLINOIS_LEAD):
                s = (a * fb - b * fa) / (fb - fa)
            else:
                s = ready
            s = s if a < s < b else mid
            z = at(s)
            f = float(np.dot(z[3], z[1]))
            if event(f, clock + s):
                b, fb, at_b = s, f - edge, z
                fa *= 0.5 if kept < 0 else 1.0
                kept = -1
            else:
                a, fa = s, f - edge
                fb *= 0.5 if kept > 0 else 1.0
                kept = 1
        if mid >= b:
            hi, at_hi = mid, at_b if mid == b else None
        else:
            lo = mid
    raise RuntimeError(failed)


def _integrate(model: ObjectiveModel, params: HybridParams, z0: HybridState,
               t_end: float, resets: bool, pair: tuple) -> HybridArc:
    """An arc of (qdot, pdot) = (p, -K p - grad phi(q)), sampled every
    params.step.

    Each step flows under the damping `_damping` of the pair at its start
    (K while `aligned`, K otherwise). An event, located by `_locate` in a
    step whose end is in the event set, is a jump (q, p, tau) -> (q, 0, 0)
    for a resetting arc, which ends the step, and otherwise a switch to the
    pair's other damping for the rest of the step; more than
    MAX_EVENT_BISECTIONS switches in one step raise RuntimeError. Arcs that
    do not reset keep j = 0 and tau = 0.
    """
    if not (math.isfinite(t_end) and t_end > 0):
        raise ValueError(f"t_end must be finite and positive, got {t_end}")
    tol = params.event_tol
    modal = _ModalFlow(model, params, t_end, resets) if model.hessian is not None else None
    flow = modal.step if modal is not None else functools.partial(_rk4, model)

    def event(inner, clock):
        """The event set of a step under damping K."""
        return _jumps(inner, clock, params) if resets else _damping(inner, pair, tol) != K

    arc = _ArcBuilder()
    q, p = z0.q.astype(float).copy(), z0.p.astype(float).copy()
    tau = float(z0.tau) if resets else 0.0
    t, j = 0.0, 0
    phi, g = model.value_grad(q)

    # a start inside the jump set jumps immediately
    if resets and _jumps(float(np.dot(g, p)), tau, params):
        z = arc.jump(t, j, HybridState(q, p, tau), phi)
        q, p, tau, j = z.q, z.p, z.tau, j + 1
    else:
        arc.sample(t, j, q, p, tau, phi)

    while t < t_end - 1e-15:
        if _stopped(g):
            break
        K = float(_damping(np.dot(g, p), pair, tol))
        block = modal.block(q, p, g, t, tau, K, event) if modal is not None else None
        if block is not None:
            ts, taus, Q, P, phis, G = block
            arc.rows(ts, j, Q, P, taus, phis)
            t, tau = float(ts[-1]), float(taus[-1])
            q, p, phi, g = Q[-1], P[-1], phis[-1], G[-1]
            continue
        dt = left = min(params.step, t_end - t)
        jumped = False
        for _ in range(MAX_EVENT_BISECTIONS + 1):
            step = flow(q, p, g, K)
            q1, p1 = step(left)
            phi1, g1 = model.value_grad(q1)
            end = q1, p1, phi1, _finite(g1)
            if not event(float(np.dot(g1, p1)), tau + left):
                break
            _, hi, end = _locate(model, params, step, event,
                                 *((tau, 0.0) if resets else (math.inf, -tol)),
                                 float(np.dot(g, p)), left, end)
            if resets:
                dt, jumped = hi, True
                break
            q, p, _, g = end
            left -= hi
            K = float(_damping(np.dot(g, p), pair, tol))
        else:
            raise RuntimeError(f"more than {MAX_EVENT_BISECTIONS} damping switches in one step")
        q, p, phi, g = end
        t, tau = t + dt, tau + (dt if resets else 0.0)
        if jumped:
            z = arc.jump(t, j, HybridState(q, p, tau), phi)
            q, p, tau, j = z.q, z.p, z.tau, j + 1
        else:
            arc.sample(t, j, q, p, tau, phi)
    return arc.build()


def integrate_hhb(model: ObjectiveModel, params: HybridParams, z0: HybridState,
                  t_end: float) -> HybridArc:
    """Simulate the hybrid system: flow under damping K, jump to (q, 0, 0)
    once tau >= T_min and the momentum is not `aligned`, located inside
    its step to within event_tol in time (`_locate`)."""
    return _integrate(model, params, z0, t_end, resets=True, pair=(params.K, params.K))


def integrate_hihb(model: ObjectiveModel, params: HybridParams, x0: HybridState,
                   t_end: float) -> HybridArc:
    """Simulate the switched-damping flow: K_lo while `aligned` (band
    event_tol), else K_hi. A change of damping is located inside its step
    by `_locate`, as a jump is, and the rest of the step flows under the
    new damping. No jumps: j and tau stay 0."""
    return _integrate(model, params, x0, t_end, resets=False, pair=(params.K_lo, params.K_hi))


def integrate_hb(model: ObjectiveModel, params: HybridParams, x0: HybridState,
                 t_end: float) -> HybridArc:
    """Plain heavy-ball flow with damping K (no switching, no jumps); K = 0
    is the undamped flow."""
    return _integrate(model, params, x0, t_end, resets=False, pair=(params.K, params.K))
