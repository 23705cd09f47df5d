"""The scalar two-step map and loop, kept as the bitwise reference.

`hbreset.discrete.run_many` steps every run as a row of one stack, and
`hbreset.discrete.run` is its stack of one. The code below steps one run
alone, one iterate at a time, with each variant's update written out:
the equivalence, stop and NaN tests compare the stacked loop with it
record for record, and the step hand cases and the matrix-recursion
tests read the states it keeps. It uses only the library's switching
law, beta schedule and records, never `run_many`.

`propagator` is the dense form of one RK4 step of a linear flow, which
the hybrid skip-ahead takes mode by mode in the Hessian's eigenbasis.
`bisect_event` locates a hybrid jump inside a step by plain bisection,
the reference of `hybrid._locate`.

`dt_rate_builder` probes one discrete-time rate row a rate at a time,
each probe a lone `solve_feasibility` of the row's `dt_problem`: the
sequential reference of `lmi.dt_rates_probe`'s stream. At L == mu a
probe is `twin_probe`: the row's `dt_problem` and `dt_face_problem`, the
face twin that the stream adds, stacked alone. `ct_problem` is
the continuous-time problem built whole at one alpha, the reference of
each probe of `lmi.ct_rates_probe`'s stream; `probe_at` probes every row
of a stream once. `stacked` feeds problems of one block shape to
`sdp.solve_stream` as one stack. `barrier_terms` is the phase-I
barrier's derivatives taken from dense inverses, the reference of
`sdp._barrier_terms`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from hbreset import hybrid, lmi, sdp
from hbreset.discrete import (DIVERGENCE_FACTOR, STATUS_CONVERGED, STATUS_DIVERGED,
                              STATUS_MAX_ITER, AlgoParams, Trajectory, Variant,
                              nesterov_beta_schedule, switching_beta)
from hbreset.objectives import ObjectiveModel

Array = np.ndarray


@dataclass
class IterState:
    """Two-point state (q_{k-1}, q_k) with momentum p_k = (q_k - q_{k-1})/eps."""

    q_prev: Array
    q: Array
    p: Array
    k: int = 0


def initial_state(q0: Array, eps: float, p0: Optional[Array] = None) -> IterState:
    q0 = np.asarray(q0, dtype=float)
    p0 = np.zeros_like(q0) if p0 is None else np.asarray(p0, dtype=float)
    return IterState(q_prev=q0 - eps * p0, q=q0.copy(), p=p0.copy(), k=0)


def switched_beta(grad: Array, p: Array, params: AlgoParams):
    """(beta, reset) of the switching law at one point, for POL and NES."""
    if params.variant not in (Variant.POL, Variant.NES):
        raise ValueError("switching law applies to POL and NES only")
    return switching_beta(np.vecdot(grad, p), params.beta_lo, params.beta_hi)


def _finite(g: Array) -> Array:
    if not np.isfinite(g).all():
        raise FloatingPointError("non-finite gradient")
    return g


def step(state: IterState, params: AlgoParams, model: ObjectiveModel,
         grad: Optional[Array] = None, beta: Optional[float] = None) -> IterState:
    """One iteration of params.variant from (q_{k-1}, q_k).

    grad is grad phi(q_k) when the caller has it already. beta defaults to
    the switching law on <grad phi(q_k), p_k>; NES_SCHEDULE needs it from
    the caller, who owns the alpha recursion. POL uses the gradient at
    q_k, NES and NES_SCHEDULE the gradient at q_k + eps*beta*p_k, and GD
    is q_k - h*grad phi(q_k) (p is kept for uniform records).
    """
    variant = params.variant
    if variant is not Variant.NES_SCHEDULE:
        g = _finite(model.gradient(state.q) if grad is None else grad)
    if variant is Variant.GD:
        q_next = state.q - params.h * g
    else:
        if beta is None:
            if variant is Variant.NES_SCHEDULE:
                raise ValueError("NES_SCHEDULE needs the schedule's beta")
            beta, _ = switched_beta(g, state.p, params)
        if variant is not Variant.POL:
            g = _finite(model.gradient(state.q + params.eps * beta * state.p))
        q_next = state.q + params.eps * (beta * state.p - params.eps * g)
    return IterState(q_prev=state.q, q=q_next, p=(q_next - state.q) / params.eps,
                     k=state.k + 1)


def run(model: ObjectiveModel, params: AlgoParams, q0: Array, max_iter: int,
        grad_tol: float = 0.0, p0: Optional[Array] = None) -> Trajectory:
    """Iterate `step` alone from q0, recording what `hbreset.discrete.run`
    records: one value_grad call per visited iterate on the point itself,
    and the same stops (max_iter, ||grad|| <= grad_tol, the divergence
    guard 1e12 * max(1, |phi(q0)|))."""
    if max_iter < 0:
        raise ValueError("max_iter must be >= 0")
    state = initial_state(q0, params.eps, p0)
    phi, g = model.value_grad(state.q)
    guard = DIVERGENCE_FACTOR * max(1.0, abs(phi))
    phi_star = math.nan if model.min_value is None else model.min_value
    alpha = 1.0  # NES_SCHEDULE state

    gaps, signs, betas, resets, gnorms = [], [], [], [], []
    status = STATUS_MAX_ITER
    while True:
        if params.variant is Variant.NES_SCHEDULE:
            beta, alpha = nesterov_beta_schedule(alpha)
            reset = False
        elif params.variant is Variant.GD:
            beta, reset = 0.0, False
        else:
            beta, reset = switched_beta(g, state.p, params)
        gnorm = float(np.linalg.norm(g))
        inner = float(np.dot(g, state.p))
        gaps.append(float(phi - phi_star))
        signs.append(int(np.sign(inner)) if np.isfinite(inner) else 0)
        betas.append(beta)
        resets.append(reset)
        gnorms.append(gnorm)
        if status == STATUS_DIVERGED or state.k == max_iter:
            break
        if gnorm <= grad_tol:
            status = STATUS_CONVERGED
            break
        state = step(state, params, model, grad=g, beta=beta)
        phi, g = model.value_grad(state.q)
        if not np.isfinite(phi) or phi > guard:
            status = STATUS_DIVERGED

    return Trajectory(params=params, phi_gaps=gaps, inner_signs=signs,
                      betas=betas, resets=resets, grad_norms=gnorms,
                      q=state.q, phi=float(phi), status=status)


def propagator(H: Array, K: float, h: float) -> tuple[Array, Array]:
    """(T, M) of one RK4 step of size h of the linear flow z' = A z + c,
    z = [q; p], A = [[0, I], [-H, -K I]].

    On an affine field the four stages are polynomials in hA applied to
    f(z) = A z + c, and the step is z + M f(z) with M = h S(hA),
    S(X) = I + X/2 + X^2/6 + X^3/24. A point z0 + d with f(z0) = f0
    then steps to z0 + T d + M f0, where T = I + A M = R(hA) is the
    step's stability polynomial I + X + X^2/2 + X^3/6 + X^4/24.
    """
    n = H.shape[0]
    eye = np.eye(2 * n)
    A = np.block([[np.zeros((n, n)), np.eye(n)], [-H, -K * np.eye(n)]])
    X = h * A
    S = eye + X / 4.0
    S = eye + X @ S / 3.0
    S = eye + X @ S / 2.0
    M = h * S
    return eye + A @ M, M


def bisect_event(model: ObjectiveModel, params, accel, q: Array, p: Array, g: Array,
                 tau: float, dt: float, end: tuple) -> tuple:
    """Plain bisection of an event step, the reference of
    `hybrid._locate`, with its arguments and result: each halving of
    (0, dt] down to event_tol evaluates its midpoint by the RK4 step of
    that length and sends it to hi when it is in the jump set, else to
    lo. Returns (lo, hi, the state (q, p, phi, g) at hi)."""
    q1, p1, phi1, g1 = end
    lo, hi = 0.0, dt
    for _ in range(hybrid.MAX_EVENT_BISECTIONS):
        if hi - lo <= params.event_tol:
            return lo, hi, (q1, p1, phi1, g1)
        mid = 0.5 * (lo + hi)
        qm, pm = hybrid._rk4(q, p, g, mid, model, accel)
        phim, gm = model.value_grad(qm)
        if hybrid._jumps(float(np.dot(_finite(gm), pm)), tau + mid, params):
            hi, q1, p1, phi1, g1 = mid, qm, pm, phim, gm
        else:
            lo = mid
    raise RuntimeError(
        f"event localization did not converge in {hybrid.MAX_EVENT_BISECTIONS} bisections")


def dt_rate_builder(request: lmi.CertRequest, max_oracle_calls: int = 200):
    """A builder for `lmi.bisect_rate` over one discrete-time row: at each
    rho it solves the row's `dt_problem` alone (with its face twin when
    L == mu, see `twin_probe`), warm-started from the last certificate it
    made. It calls `sdp.solve_feasibility` and `lmi._dt_certificate` by
    name, so a test can record or memoize them."""
    row = lmi.build_theorem2(lmi.dt_system(request.h, request.beta_hi, request.beta_lo,
                                           request.disc), request.mu, request.lipschitz, 1.0)
    last = None

    def probe(rho: float) -> Optional[lmi.Certificate]:
        nonlocal last
        data = replace(row, rho=rho)
        if request.lipschitz == request.mu:
            res = twin_probe(lmi.dt_problem(data), dt_face_problem(data), max_oracle_calls, last)
        else:
            res = sdp.solve_feasibility(lmi.dt_problem(data), max_oracle_calls, v_init=last)
        cert = lmi._dt_certificate(data, rho, res)
        if cert is not None:
            last = cert.raw_v
        return cert

    return probe


FACE_MESSAGE = "on the sector's face (L = mu): "


def twin_probe(full: sdp.FeasProblem, face: sdp.FeasProblem, max_oracle_calls: int,
               v_init: Optional[Array]) -> sdp.FeasResult:
    """One probe of a row with L == mu: its full problem and its face twin
    stacked alone from the same start. The first verdict that arrives
    decides: the face's INFEASIBLE (its message prefixed by FACE_MESSAGE)
    or the full form's FEASIBLE or INFEASIBLE; a full INDETERMINATE stands
    once the face has ended otherwise. The other twin is then dropped."""
    joining = iter([[(0, sdp.lift(full), v_init), (1, sdp.lift(face), v_init)]])
    got: dict = {}
    verdict: list = []

    def feed(decided: list) -> tuple:
        for twin, res in decided:
            if verdict:
                break
            got[twin] = res
            if twin == 1 and res.status == sdp.INFEASIBLE:
                verdict.append(replace(res, message=FACE_MESSAGE + res.message))
            elif 0 in got and (got[0].status != sdp.INDETERMINATE or 1 in got):
                verdict.append(got[0])
        return next(joining, []), [0, 1] if verdict else []

    sdp.solve_stream(feed, max_oracle_calls)
    return verdict[0]


def dt_face_problem(data: lmi.DtLmiData) -> sdp.FeasProblem:
    """The face twin of a row with L == mu at its rho, built from the row's
    `dt_problem`: there u = mu C x on each branch, so each branch LMI F
    becomes Q' F Q, Q the orthonormal basis that QR gives of the columns
    of [I; mu C], less the branch's sector multiplier (v[4] or v[5]) and
    padded to 3 x 3 by a constant -1 corner; lambda and lambda_r leave the
    normalization, and P > 0, the floors and the margin stay."""
    full = lmi.dt_problem(data)
    faces = []
    for blk, branch, sector in zip(full.nsd_blocks, (data.sys.main, data.sys.reset), (4, 5)):
        Q = np.linalg.qr(np.vstack([np.eye(2), data.mu * branch.C]))[0]
        faces.append(sdp.AffineMatrixMap(
            constant=np.diag([0.0, 0.0, -1.0]), name=f"{blk.name} on the face",
            basis=[(i, np.pad(Q.T @ mat @ Q, (0, 1))) for i, mat in blk.basis if i != sector]))
    normalization = full.normalization.copy()
    normalization[[4, 5]] = 0.0
    return sdp.FeasProblem(nvar=full.nvar, nsd_blocks=faces, pd_blocks=full.pd_blocks,
                           nonneg=full.nonneg, normalization=normalization, margin=full.margin)


def ct_problem(data: lmi.CtLmiData, alpha: float, eps_infl: float) -> sdp.FeasProblem:
    """The continuous-time feasibility problem of one row at exponent alpha."""
    for name, value in (("alpha", alpha), ("eps_infl", eps_infl)):
        if not 0.0 < value < np.inf:
            raise ValueError(f"{name} must be positive and finite")
    # v = [p11, p12, p22, sigma_phi, sigma_1, sigma_2]
    flow_basis = [(i, data.M_F(E, alpha)) for i, E in enumerate(lmi._P_BASIS)]
    flow_basis += [(3, data.M_phi), (4, data.M_eps(eps_infl))]
    flow = sdp.AffineMatrixMap(constant=np.zeros((3, 3)), basis=flow_basis, name="flow")
    jump_basis = [(i, data.M_J(E)) for i, E in enumerate(lmi._P_BASIS)]
    jump_basis += [(5, -data.M0)]
    jump = sdp.AffineMatrixMap(constant=-(lmi.CT_RESET_SLACK + lmi.MARGIN) * np.eye(3),
                               basis=jump_basis, name="jump")
    pmap = sdp.AffineMatrixMap(constant=np.zeros((2, 2)),
                               basis=[(i, E) for i, E in enumerate(lmi._P_BASIS)], name="P")
    return sdp.FeasProblem(nvar=6, nsd_blocks=[flow, jump], pd_blocks=[pmap],
                           nonneg={3: lmi.MULTIPLIER_FLOOR, 4: lmi.MULTIPLIER_FLOOR,
                                   5: lmi.MULTIPLIER_FLOOR},
                           normalization=np.array([1.0, 0.0, 1.0, 1.0, 1.0, 1.0]),
                           margin=lmi.MARGIN)


def probe_at(stream, rate: float) -> list:
    """Every row of an `lmi` rates stream probed once, at rate: its
    certificate or None."""
    return [cert for ((_, cert),) in stream(lambda won: (None if won else rate, None))]


def stacked(problems: list, max_oracle_calls: int = 200,
            v_inits: Optional[list] = None) -> list:
    """The results of problems of one block shape, each a FeasProblem or
    already `sdp.Lifted`, solved as one `sdp.solve_stream` stack that
    they all join at once; in input order."""
    lifts = [p if isinstance(p, sdp.Lifted) else sdp.lift(p) for p in problems]
    joining = iter([list(zip(range(len(lifts)), lifts, v_inits or [None] * len(lifts)))])
    results: list = [None] * len(lifts)

    def feed(decided: list) -> tuple:
        for i, res in decided:
            results[i] = res
        return next(joining, []), []

    sdp.solve_stream(feed, max_oracle_calls)
    return results


def barrier_terms(lifts: list, w: Array, s: Array) -> tuple:
    """What `sdp._barrier_terms` returns for problems in the search's
    coordinates at the rows of (w, s): the gradient and Hessian in (w, s)
    of -sum_j log det(sI - F_j(w)) - sum_i log(R^2 - w_i^2), sum_j tr Z_j
    and the weak-duality bound (sum_j tr(Z_j C_j) - R ||g||_1) / sum_j tr Z_j
    with g_i = sum_j tr(Z_j G_ji). Each row inverts each of its blocks,
    Z_j = inv(sI - F_j(w)), and takes every trace directly."""
    rows = []
    for lf, wr, sr in zip(lifts, w, s):
        d = len(wr)
        grad, hess = np.zeros(d + 1), np.zeros((d + 1, d + 1))
        trz = trzc = 0.0
        for const, coef in lf.parts:
            z = np.linalg.inv(sr * np.eye(len(const)) - const - np.tensordot(wr, coef, 1))
            zg = z @ coef  # Z G_i for every coordinate i
            grad[:d] += np.trace(zg, axis1=1, axis2=2)
            hess[:d, :d] += np.einsum("iab,jba->ij", zg, zg)
            hess[:d, d] -= np.einsum("iab,ba->i", zg, z)
            hess[d, d] += np.trace(z @ z)
            trz += np.trace(z)
            trzc += np.trace(z @ const)
        bound = (trzc - lf.radius * np.abs(grad[:d]).sum()) / trz
        grad[d] = -trz
        hess[d, :d] = hess[:d, d]
        up, dn = 1.0 / (lf.radius - wr), 1.0 / (lf.radius + wr)
        grad[:d] += up - dn
        hess[range(d), range(d)] += up * up + dn * dn
        rows.append((grad, hess, trz, bound))
    return tuple(np.array(col) for col in zip(*rows))
