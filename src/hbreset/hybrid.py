"""Continuous-time heavy-ball flows with momentum resets.

Simulates the plain flow (qdot, pdot) = (p, -K p - grad phi(q)), the
hybrid variant that jumps (q, p, tau) -> (q, 0, 0) once the timer tau
exceeds the dwell time T_min and <grad phi(q), p> >= 0, and the switched
variant that swaps the damping between K_lo and K_hi on the same sign
condition. Fixed-step classical RK4 with bisection event localization.
"""
from __future__ import annotations

import json
import math
from dataclasses import astuple, dataclass
from typing import Optional

import numpy as np

from .objectives import ObjectiveModel

Array = np.ndarray

GRAD_STOP = 1e-10
MAX_EVENT_BISECTIONS = 100


@dataclass
class HybridState:
    q: Array
    p: Array
    tau: float = 0.0

    def __post_init__(self):
        self.q = np.asarray(self.q, dtype=float)
        self.p = np.asarray(self.p, dtype=float)
        if self.tau < 0:
            raise ValueError("tau must be nonnegative")


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
        if not (0.0 < self.K_lo <= self.K_hi):
            raise ValueError("need 0 < K_lo <= K_hi")
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
        # one format string per row over plain Python numbers gives the
        # bytes of formatting each numpy scalar on its own, at about half
        # the cost; converting 1024 rows at a time keeps the Python copies
        # of a long arc from raising the peak memory
        row = "%.17g,%d," + ",".join(["%.17g"] * (2 * n + 2)) + "\n"
        with open(path, "w") as fh:
            fh.write(",".join(cols) + "\n")
            for lo in range(0, len(self.t), 1024):
                part = slice(lo, lo + 1024)
                for t, j, q, p, tau, e in zip(
                        self.t[part].tolist(), self.j[part].tolist(),
                        self.q[part].tolist(), self.p[part].tolist(),
                        self.tau[part].tolist(), self.energy[part].tolist()):
                    fh.write(row % (t, j, *q, *p, tau, e))

    def jumps_json(self) -> str:
        return json.dumps(
            [{"t": tj, "j": jj, "q": list(qj)} for tj, jj, qj in self.jumps],
            sort_keys=True)


def _inner(model: ObjectiveModel, q: Array, p: Array) -> float:
    return float(np.dot(model.gradient(q), p))


def _jumps(inner: float, tau: float, params: HybridParams) -> bool:
    """The jump set: timer elapsed and momentum not opposing descent."""
    return tau >= params.T_min and inner >= 0.0


def _damping(inner: float, params: HybridParams) -> float:
    """The damping switch: K_lo while momentum opposes descent by more than
    event_tol, K_hi otherwise (near the boundary included)."""
    return params.K_lo if inner < -params.event_tol else params.K_hi


def in_flow_set(state: HybridState, params: HybridParams, model: ObjectiveModel) -> bool:
    if state.tau <= params.T_min:
        return True
    return _inner(model, state.q, state.p) <= 0.0


def in_jump_set(state: HybridState, params: HybridParams, model: ObjectiveModel) -> bool:
    return _jumps(_inner(model, state.q, state.p), state.tau, params)


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
        self.t, self.j, self.q, self.p, self.tau, self.e = [], [], [], [], [], []
        self.jumps = []

    def sample(self, t: float, j: int, q: Array, p: Array, tau: float,
               phi: float) -> None:
        """Record a sample; phi = phi(q) comes from the caller's evaluation."""
        self.t.append(t)
        self.j.append(j)
        self.q.append(q.copy())
        self.p.append(p.copy())
        self.tau.append(tau)
        self.e.append(float(phi) + 0.5 * float(np.dot(p, p)))

    def build(self) -> HybridArc:
        return HybridArc(
            t=np.array(self.t), j=np.array(self.j, dtype=int),
            q=np.array(self.q), p=np.array(self.p), tau=np.array(self.tau),
            energy=np.array(self.e), jumps=self.jumps)


def _check_t_end(t_end: float) -> None:
    if not (math.isfinite(t_end) and t_end > 0):
        raise ValueError(f"t_end must be finite and positive, got {t_end}")


def integrate_hhb(model: ObjectiveModel, params: HybridParams, z0: HybridState,
                  t_end: float) -> HybridArc:
    """Simulate the hybrid system: flow under damping K, jump to (q, 0, 0).

    RK4 fixed step; a jump triggers when tau >= T_min and the switching
    function g = <grad phi(q), p> reaches 0 from below, localized by
    bisection on the step to within event_tol in time.
    """
    _check_t_end(t_end)

    def accel(g, p):
        return -params.K * p - g

    arc = _ArcBuilder()
    q, p, tau = z0.q.astype(float).copy(), z0.p.astype(float).copy(), float(z0.tau)
    t, j = 0.0, 0
    phi, g = model.value_grad(q)

    # a start inside the jump set jumps immediately
    if _jumps(float(np.dot(g, p)), tau, params):
        arc.sample(t, j, q, p, tau, phi)
        j += 1
        p = np.zeros_like(p)
        tau = 0.0
        arc.jumps.append((t, j, q.copy()))
    arc.sample(t, j, q, p, tau, phi)

    while t < t_end - 1e-15:
        if float(np.linalg.norm(g)) <= GRAD_STOP:
            break
        dt = min(params.step, t_end - t)
        q1, p1 = _rk4(q, p, g, dt, model, accel)
        phi1, g1 = model.value_grad(q1)
        if _jumps(float(np.dot(g1, p1)), tau + dt, params):
            # earliest entry time into the jump set within (0, dt]
            lo, hi = 0.0, dt
            for _ in range(MAX_EVENT_BISECTIONS):
                if hi - lo <= params.event_tol:
                    break
                mid = 0.5 * (lo + hi)
                qm, pm = _rk4(q, p, g, mid, model, accel)
                phim, gm = model.value_grad(qm)
                if _jumps(float(np.dot(gm, pm)), tau + mid, params):
                    hi, q1, p1, phi1, g1 = mid, qm, pm, phim, gm
                else:
                    lo = mid
            else:
                raise RuntimeError(
                    f"event localization did not converge in {MAX_EVENT_BISECTIONS} bisections")
            t += hi
            tau += hi
            arc.sample(t, j, q1, p1, tau, phi1)
            j += 1
            q, p, tau, phi, g = q1.copy(), np.zeros_like(p1), 0.0, phi1, g1
            arc.jumps.append((t, j, q.copy()))
            arc.sample(t, j, q, p, tau, phi)
        else:
            q, p, tau, t, phi, g = q1, p1, tau + dt, t + dt, phi1, g1
            arc.sample(t, j, q, p, tau, phi)
    return arc.build()


def _flow(model: ObjectiveModel, params: HybridParams, x0: HybridState,
          t_end: float, accel) -> HybridArc:
    """An RK4 arc of (qdot, pdot) = (p, accel(grad phi(q), p)) with no
    jumps: j stays 0 and tau is unused."""
    _check_t_end(t_end)
    arc = _ArcBuilder()
    q, p = x0.q.astype(float).copy(), x0.p.astype(float).copy()
    t = 0.0
    phi, g = model.value_grad(q)
    arc.sample(t, 0, q, p, 0.0, phi)
    while t < t_end - 1e-15:
        if float(np.linalg.norm(g)) <= GRAD_STOP:
            break
        dt = min(params.step, t_end - t)
        q, p = _rk4(q, p, g, dt, model, accel)
        t += dt
        phi, g = model.value_grad(q)
        arc.sample(t, 0, q, p, 0.0, phi)
    return arc.build()


def integrate_hihb(model: ObjectiveModel, params: HybridParams, x0: HybridState,
                   t_end: float) -> HybridArc:
    """Simulate the switched-damping flow; the damping switch is re-evaluated
    at each RK4 stage."""
    return _flow(model, params, x0, t_end,
                 lambda g, p: -_damping(float(np.dot(g, p)), params) * p - g)


def integrate_hb(model: ObjectiveModel, params: HybridParams, x0: HybridState,
                 t_end: float) -> HybridArc:
    """Plain heavy-ball flow with damping K (no switching, no jumps); K = 0
    is the undamped flow."""
    return _flow(model, params, x0, t_end, lambda g, p: -params.K * p - g)
