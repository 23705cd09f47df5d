"""Continuous-time heavy-ball flows with momentum resets.

Simulates the plain flow (qdot, pdot) = (p, -K p - grad phi(q)), the
hybrid variant that jumps (q, p, tau) -> (q, 0, 0) once the timer tau
exceeds the dwell time T_min and the momentum is not `discrete.aligned`,
and the switched variant; all take K from a pair (K while aligned, K
otherwise), (K_lo, K_hi) on the switched flow and (K, K) on the others.
Fixed-step classical RK4. A jump inside a step is located, to within
event_tol in time, at the point that bisecting the step would find, by
`_locate`: Illinois regula falsi on <grad phi, p> inside the bisection
bracket, about 8 RK4 steps a jump where bisection takes 25.

On a quadratic model (one with `ObjectiveModel.hessian`) the flow is
linear, so one full RK4 step is an affine map of the state whose matrix
is the step's stability polynomial R(hA). Such arcs skip ahead through
steps with no event a block at a time, in the Hessian's eigenbasis: each
mode steps by its own 2x2 matrices, so a block of up to BLOCK steps is
two elementwise products over (steps, modes) and one matrix product back
to (q, p), and the block's values and gradients come from one stacked
oracle call. Event steps (a jump, a change of damping at any stage, the
gradient stop), the short last step and every step of a non-quadratic
model take the stage path, `_rk4`, which evaluates the oracle at each
stage. A non-finite gradient raises FloatingPointError.
"""
from __future__ import annotations

import json
import math
from dataclasses import astuple, dataclass
from typing import Optional

import numpy as np

from .discrete import _finite, aligned
from .objectives import ObjectiveModel

Array = np.ndarray

GRAD_STOP = 1e-10
MAX_EVENT_BISECTIONS = 100
# _locate evaluates Illinois points while its bracket is wider than
# ILLINOIS_WIDTH event_tol, and while it has taken fewer than ILLINOIS_LEAD
# RK4 steps more than the halvings so far. At a multiple root of
# <grad phi, p>, where regula falsi is slow, a jump then costs at most
# ILLINOIS_LEAD + 2 steps more than bisection; with no lead bound, a
# triple root on the unit oscillator took more than 100. A lead of 4
# leaves every jump of the benchmark's arcs where it is with no bound.
ILLINOIS_WIDTH = 16
ILLINOIS_LEAD = 4
# full steps a skip-ahead block advances before its stacked oracle call;
# 128 ran the benchmark's n = 10 arcs about 9% faster than 64
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


def _inner(model: ObjectiveModel, q: Array, p: Array) -> float:
    return float(np.dot(model.gradient(q), p))


def _jumps(inner, tau, params: HybridParams):
    """The jump set, elementwise: tau >= T_min and inner not `aligned`."""
    return (tau >= params.T_min) & ~aligned(inner)


def _damping(inner, pair: tuple, band: float):
    """The damping switch, elementwise: pair[0] while `aligned` by band, else pair[1]."""
    return np.where(aligned(inner, band), *pair)


def _accel(pair: tuple, band: float, log: Optional[list] = None):
    """accel(g, p) = -K p - g, K switched on <g, p>, row-wise; log collects each <g, p>."""
    def accel(g, p):
        inner = np.vecdot(g, p)
        if log is not None:
            log.append(inner)
        return -_damping(inner, pair, band)[..., None] * p - g
    return accel


def _stopped(g) -> Array:
    """The stop test: the gradient has vanished. Row-wise over a stack."""
    return np.linalg.norm(g, axis=-1) <= GRAD_STOP


def in_flow_set(state: HybridState, params: HybridParams, model: ObjectiveModel) -> bool:
    if state.tau <= params.T_min:
        return True
    return _inner(model, state.q, state.p) <= 0.0


def in_jump_set(state: HybridState, params: HybridParams, model: ObjectiveModel) -> bool:
    return bool(_jumps(_inner(model, state.q, state.p), state.tau, params))


def jump_map(state: HybridState) -> HybridState:
    return HybridState(q=state.q.copy(), p=np.zeros_like(state.p), tau=0.0)


def energy(state: HybridState, model: ObjectiveModel) -> float:
    return float(model.value(state.q)) + 0.5 * float(np.dot(state.p, state.p))


def _rk4(q: Array, p: Array, g: Array, dt: float, model: ObjectiveModel,
         accel) -> tuple[Array, Array]:
    """One RK4 step of (qdot, pdot) = (p, accel(grad phi(q), p)); g is the
    gradient at the start point, which the caller already has."""
    k1q, k1p = p, accel(g, p)
    k2q = p + 0.5 * dt * k1p
    q2 = q + 0.5 * dt * k1q
    k2p = accel(model.gradient(q2), k2q)
    k3q = p + 0.5 * dt * k2p
    q3 = q + 0.5 * dt * k2q
    k3p = accel(model.gradient(q3), k3q)
    k4q = p + dt * k3p
    q4 = q + dt * k3q
    k4p = accel(model.gradient(q4), k4q)
    qn = q + (dt / 6.0) * (k1q + 2.0 * k2q + 2.0 * k3q + k4q)
    pn = p + (dt / 6.0) * (k1p + 2.0 * k2p + 2.0 * k3p + k4p)
    return qn, pn


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


def _check_t_end(t_end: float) -> None:
    if not (math.isfinite(t_end) and t_end > 0):
        raise ValueError(f"t_end must be finite and positive, got {t_end}")


class _SkipAhead:
    """Steps of a quadratic flow in its Hessian's eigenbasis, a block at a time.

    On the affine field f(z) = A z + c, z = [q; p], A = [[0, I], [-H, -K I]],
    an RK4 step is z + M f(z) with M = h S(hA), S(X) = I + X/2 + X^2/6 +
    X^3/24, so i + 1 steps move z0 by C[i] M f(z0), C[i] = sum_{k<=i} T^k,
    where T = I + A M = R(hA). With H = V diag(lam) V', each mode
    (V'q, V'p)_j has its own 2x2 A_j = [[0, 1], [-lam_j, -K]], M_j, T_j and
    C_j[i], built once per damping.

    Rows are the candidate states after 1, 2, ..., BLOCK full steps from
    the block start, and all rows get their values and gradients from one
    stacked oracle call. A block ends before the first row that meets the
    stop test, enters the jump set (resetting flows) or, when the pair's
    ends differ, would step under another damping than the block's at
    any of its four stages; the caller takes that step on the stage path.
    """

    def __init__(self, model: ObjectiveModel, params: HybridParams,
                 t_end: float, resets: bool, pair: tuple):
        self.model, self.params, self.t_end = model, params, t_end
        self.resets, self.pair = resets, pair
        H = model.hessian
        self.lam, self.V = np.linalg.eigh(0.5 * (H + H.T))
        self.tables = {}

    def _table(self, K: float) -> tuple[Array, Array]:
        """(M, C) under damping K, indexed [a, b, j] and [a, b, i, j] for
        entry (a, b) of mode j's 2x2 M_j and power sum C_j[i]."""
        if K not in self.tables:
            h, eye = self.params.step, np.eye(2)
            A = np.zeros((self.lam.size, 2, 2))
            A[:, 0, 1], A[:, 1, 0], A[:, 1, 1] = 1.0, -self.lam, -K
            X = h * A
            S = eye + X / 4.0
            S = eye + X @ S / 3.0
            S = eye + X @ S / 2.0
            M = h * S
            T = eye + A @ M
            C = np.empty((BLOCK,) + T.shape)
            C[0] = Tk = np.broadcast_to(eye, T.shape)
            for i in range(1, BLOCK):
                Tk = T @ Tk
                C[i] = C[i - 1] + Tk
            # mode last, so a block's products are elementwise over (rows, n)
            self.tables[K] = (np.ascontiguousarray(M.transpose(1, 2, 0)),
                              np.ascontiguousarray(C.transpose(2, 3, 0, 1)))
        return self.tables[K]

    def steps(self, p: Array, g: Array, K: float, rows: int) -> tuple[Array, Array]:
        """(dQ, dP), (rows, n) each: the displacements of q and p after 1, 2,
        ..., rows full steps under damping K from a point with momentum p
        and gradient g."""
        M, C = self._table(K)
        f0 = np.stack((p, -K * p - g)) @ self.V
        w = M[:, 0] * f0[0] + M[:, 1] * f0[1]
        D = C[:, 0, :rows] * w[0] + C[:, 1, :rows] * w[1]
        dz = D.reshape(2 * rows, -1) @ self.V.T
        return dz[:rows], dz[rows:]

    def block(self, q: Array, p: Array, g: Array, t: float, tau: float):
        """(t, tau, q, p, phi, g) of the accepted rows, or None when the
        next step takes the stage path."""
        params, model, h = self.params, self.model, self.params.step
        # the loop's own sequential additions, so t reaches t_end exactly
        # where the stage path would and the short last step is left to it
        ts = np.cumsum(np.concatenate(([t], np.full(BLOCK, h))))
        starts = ts[:-1]
        rows = int(np.count_nonzero((starts < self.t_end - 1e-15)
                                    & (self.t_end - starts >= h)))
        if rows == 0:
            return None
        K = float(_damping(np.vecdot(g, p), self.pair, params.event_tol))
        dQ, dP = self.steps(p, g, K, rows)
        Q, P = q + dQ, p + dP
        phi, G = model.value_grad(Q)
        inner = np.vecdot(G, P)
        stop = _stopped(G)
        if self.resets:
            taus = np.cumsum(np.concatenate(([tau], np.full(rows, h))))[1:]
            stop |= _jumps(inner, taus, params)
        else:
            taus = np.full(rows, tau)
        if self.pair[0] != self.pair[1]:
            # each row's step from its predecessor, on the stage path
            inners = []
            _rk4(np.vstack((q, Q[:-1])), np.vstack((p, P[:-1])), np.vstack((g, G[:-1])),
                 h, model, _accel(self.pair, params.event_tol, inners))
            stop |= (_damping(np.array(inners), self.pair, params.event_tol) != K).any(axis=0)
        r = int(np.argmax(stop)) if stop.any() else rows
        if r == 0:
            return None
        return ts[1:r + 1], taus[:r], Q[:r], P[:r], phi[:r], _finite(G[:r])


def _locate(model: ObjectiveModel, params: HybridParams, accel, q: Array, p: Array,
            g: Array, tau: float, dt: float, end: tuple) -> tuple:
    """The earliest entry into the jump set within the step (0, dt] from
    (q, p), with gradient g and timer tau, whose end `end` = (q, p, phi, g)
    at dt is in it: (lo, hi, the state (q, p, phi, g) at hi). lo and hi
    are the bisection's: the halvings of (0, dt] down to event_tol, each
    midpoint going to hi when it is in the jump set, else to lo.

    A point's state is the RK4 step of that length from the step start.
    The evaluated bracket (a, b), the latest point found outside the jump
    set and the earliest found in it, decides every midpoint outside it,
    and the timer every midpoint before T_min, with no new step. For a
    midpoint inside, an Illinois point (regula falsi on the switching
    value <grad phi, p> that halves the value kept at an end twice in a
    row; Dowell & Jarratt, BIT 1971) is evaluated first, while b - a >
    ILLINOIS_WIDTH event_tol, the ends straddle a sign change and the
    steps so far lead the halvings by less than ILLINOIS_LEAD; else the
    timer's crossing of T_min, when it lies in (a, b); else the midpoint.
    Where the jump set is an interval of the step, as it is when
    <grad phi, p> changes sign once, that gives bisection's lo and hi.
    MAX_EVENT_BISECTIONS bounds both the halvings and the evaluations.
    """
    tol, ready, calls = params.event_tol, params.T_min - tau, 0
    failed = f"event localization did not converge in {MAX_EVENT_BISECTIONS} bisections"

    def at(s: float) -> tuple:
        nonlocal calls
        calls += 1
        if calls > MAX_EVENT_BISECTIONS:
            raise RuntimeError(failed)
        qs, ps = _rk4(q, p, g, s, model, accel)
        phis, gs = model.value_grad(qs)
        return qs, ps, phis, _finite(gs)

    a, fa = 0.0, float(np.dot(g, p))
    b, fb, at_b = dt, float(np.dot(end[3], end[1])), end
    kept = 0  # +1 after a point moved a, -1 after one moved b
    lo, hi, at_hi = 0.0, dt, end
    for halvings in range(MAX_EVENT_BISECTIONS):
        if hi - lo <= tol:
            return lo, hi, at_hi if at_hi is not None else at(hi)
        mid = 0.5 * (lo + hi)
        while a < mid < b and tau + mid >= params.T_min:
            if (b - a > ILLINOIS_WIDTH * tol and fa < 0.0 < fb
                    and calls < halvings + ILLINOIS_LEAD):
                s = (a * fb - b * fa) / (fb - fa)
            else:
                s = ready
            s = s if a < s < b else mid
            z = at(s)
            f = float(np.dot(z[3], z[1]))
            if _jumps(f, tau + s, params):
                b, fb, at_b = s, f, z
                fa *= 0.5 if kept < 0 else 1.0
                kept = -1
            else:
                a, fa = s, f
                fb *= 0.5 if kept > 0 else 1.0
                kept = 1
        if mid >= b:
            hi, at_hi = mid, at_b if mid == b else None
        else:
            lo = mid
    raise RuntimeError(failed)


def _integrate(model: ObjectiveModel, params: HybridParams, z0: HybridState,
               t_end: float, resets: bool, pair: tuple) -> HybridArc:
    """An RK4 arc of (qdot, pdot) = (p, -K p - grad phi(q)).

    K is the damping switch `_damping` on the pair (K while `aligned`, K
    otherwise), re-evaluated at each RK4 stage. A resetting arc jumps
    (q, p, tau) -> (q, 0, 0) when tau >= T_min and the momentum leaves
    alignment, located inside the step to within event_tol in time by
    `_locate`; other arcs keep j = 0 and tau = 0. A quadratic model skips
    ahead through its event-free full steps (`_SkipAhead`); every other
    step takes the stage path, `_rk4`.
    """
    _check_t_end(t_end)
    accel = _accel(pair, params.event_tol)
    skip = (_SkipAhead(model, params, t_end, resets, pair)
            if model.hessian is not None else None)
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
        block = skip.block(q, p, g, t, tau) if skip is not None else None
        if block is not None:
            ts, taus, Q, P, phis, G = block
            arc.rows(ts, j, Q, P, taus, phis)
            t, tau = float(ts[-1]), float(taus[-1])
            q, p, phi, g = Q[-1], P[-1], phis[-1], G[-1]
            continue
        dt = min(params.step, t_end - t)
        q1, p1 = _rk4(q, p, g, dt, model, accel)
        phi1, g1 = model.value_grad(q1)
        _finite(g1)
        if resets and _jumps(float(np.dot(g1, p1)), tau + dt, params):
            _, hi, (q1, p1, phi1, g1) = _locate(model, params, accel, q, p, g, tau, dt,
                                                (q1, p1, phi1, g1))
            t += hi
            z = arc.jump(t, j, HybridState(q1, p1, tau + hi), phi1)
            q, p, tau, j, phi, g = z.q, z.p, z.tau, j + 1, phi1, g1
        else:
            q, p, t, phi, g = q1, p1, t + dt, phi1, g1
            if resets:
                tau += dt
            arc.sample(t, j, q, p, tau, phi)
    return arc.build()


def integrate_hhb(model: ObjectiveModel, params: HybridParams, z0: HybridState,
                  t_end: float) -> HybridArc:
    """Simulate the hybrid system: flow under damping K, jump to (q, 0, 0).

    RK4 fixed step; a jump triggers when tau >= T_min and the momentum is
    not `aligned`, located inside the step to within event_tol in time,
    at the point that bisecting the step finds, by Illinois regula falsi
    on <grad phi, p> inside the bisection bracket (`_locate`).
    """
    return _integrate(model, params, z0, t_end, resets=True, pair=(params.K, params.K))


def integrate_hihb(model: ObjectiveModel, params: HybridParams, x0: HybridState,
                   t_end: float) -> HybridArc:
    """Simulate the switched-damping flow: K_lo while `aligned` (band
    event_tol), else K_hi, at each RK4 stage. No jumps: j and tau stay 0."""
    return _integrate(model, params, x0, t_end, resets=False, pair=(params.K_lo, params.K_hi))


def integrate_hb(model: ObjectiveModel, params: HybridParams, x0: HybridState,
                 t_end: float) -> HybridArc:
    """Plain heavy-ball flow with damping K (no switching, no jumps); K = 0
    is the undamped flow."""
    return _integrate(model, params, x0, t_end, resets=False, pair=(params.K, params.K))
