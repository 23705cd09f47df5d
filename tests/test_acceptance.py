"""End-to-end acceptance checks, one test per numbered contract.

The first four tests certify rates and stash every certificate they
produce; criterion 5 replays those certificates against simulated
trajectories, so the module relies on pytest's definition-order
execution.  Each test prints a single "[criterion NN] PASS/FAIL" line;
the assertions enforce the same conditions.
"""

import math
import time

import numpy as np

import _reference as ref
from hbreset.cli import main as cli_main, quad_params
from hbreset.discrete import count_nonmonotone, run_many
from hbreset.hybrid import HybridParams, HybridState, integrate_hhb, integrate_hihb
from hbreset.lmi import (ALIGNMENT_FORM, NES, POL, Certificate, CertRequest,
                         bisect_rates, build_ct, build_theorem2, ct_rates_probe,
                         dt_feasible, dt_rates_probe, dt_system)
from hbreset.objectives import QuadraticSpec, gen_random_quadratic, quadratic_model
from hbreset.sdp import AffineMatrixMap, FeasProblem, FEASIBLE, solve_feasibility

CERTS: list[tuple[str, Certificate]] = []


def report(num: int, ok: bool, detail: str) -> None:
    tag = "PASS" if ok else "FAIL"
    print(f"[criterion {num:02d}] {tag}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def scalar_quad(c: float, q_star: float = 0.0):
    return quadratic_model(QuadraticSpec(Q=np.array([[c]]),
                                         b=np.array([-c * q_star])))


def switched_step(sys_mats, model, x):
    """One step of the switched matrix recursion at n=1, branching on the
    gradient at the main branch's evaluation point (the splitting the
    certificates cover)."""
    main, reset = sys_mats.main, sys_mats.reset
    g_main = float(model.gradient(main.C @ x)[0])
    dq = x[1] - x[0]
    if g_main * dq < 0.0:
        br, u = main, g_main
    else:
        br = reset
        u = float(model.gradient(reset.C @ x)[0])
    return br.A @ x + br.B[:, 0] * u, br, u


def tuning_rule(rule: str, disc: str, L: float, mu: float = 1.0):
    rl, rm = math.sqrt(L), math.sqrt(mu)
    if rule == "mistuned":
        h = 1.0 / (2.0 * L)
        return h, 1.0 - 0.1 * math.sqrt(h)
    if disc == NES:
        return 1.0 / L, (rl - rm) / (rl + rm)
    return 4.0 / (rl + rm) ** 2, ((rl - rm) / (rl + rm)) ** 2


# ---------------------------------------------------------------------------
# criterion 1: switched certification collapses to a single-branch rate LMI
# when both branches share one damping value


def _sym(m):
    return 0.5 * (m + m.T)


def baseline_problem(h, beta, disc, mu, L, rho):
    """Single-branch rate LMI, written out directly from the two-step
    recursion and the interpolation bounds rather than through the
    switched stack builder."""
    A = np.array([[0.0, 1.0], [-beta, beta + 1.0]])
    B = np.array([[0.0], [-h]])
    E = np.array([[0.0, 1.0]])
    C = E.copy() if disc == POL else np.array([[-beta, beta + 1.0]])
    G = np.hstack([A, B])
    H = np.hstack([np.eye(2), np.zeros((2, 1))])
    vxp = E @ G
    vy = np.hstack([C, [[0.0]]])
    vxi = np.hstack([E, [[0.0]]])
    vu = np.array([[0.0, 0.0, 1.0]])
    m1 = (_sym(vu.T @ (vxp - vxi)) + 0.5 * L * (vxp - vy).T @ (vxp - vy)
          - 0.5 * mu * (vxi - vy).T @ (vxi - vy))
    m2 = (_sym(vu.T @ vxp) + 0.5 * L * (vxp - vy).T @ (vxp - vy)
          - 0.5 * mu * vy.T @ vy)
    m3 = _sym((vu - mu * vy).T @ (L * vy - vu))
    e11 = np.array([[1.0, 0.0], [0.0, 0.0]])
    e12 = np.array([[0.0, 1.0], [1.0, 0.0]])
    e22 = np.array([[0.0, 0.0], [0.0, 1.0]])
    rho2 = rho * rho
    basis = [(i, G.T @ eb @ G - rho2 * (H.T @ eb @ H))
             for i, eb in enumerate((e11, e12, e22))]
    basis.append((3, rho2 * m1 + (1.0 - rho2) * m2))
    basis.append((4, m3))
    lmi = AffineMatrixMap(constant=np.zeros((3, 3)), basis=basis, name="single")
    pmap = AffineMatrixMap(constant=np.zeros((2, 2)),
                           basis=[(0, e11), (1, e12), (2, e22)], name="P")
    return FeasProblem(nvar=5, nsd_blocks=[lmi], pd_blocks=[pmap],
                       nonneg={3: 1e-9, 4: 1e-9},
                       normalization=np.array([1.0, 0.0, 1.0, 1.0, 1.0]),
                       margin=1e-9)


def baseline_feasible(h, beta, disc, mu, L, rho):
    res = solve_feasibility(baseline_problem(h, beta, disc, mu, L, rho))
    return res.status == FEASIBLE


def baseline_bisect(h, beta, disc, mu, L, lo=0.05, hi=1.0, iters=14):
    if baseline_feasible(h, beta, disc, mu, L, lo):
        return lo
    if not baseline_feasible(h, beta, disc, mu, L, hi):
        return None
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if baseline_feasible(h, beta, disc, mu, L, mid):
            hi = mid
        else:
            lo = mid
    return hi


def test_criterion_01_single_branch_equivalence():
    t0 = time.time()
    mu, failures = 1.0, []
    configs = [(L, rule, disc, *tuning_rule(rule, disc, L))
               for L in (2.0, 5.0, 10.0, 50.0, 100.0)
               for rule in ("optimal", "mistuned") for disc in (POL, NES)]
    n_cfg = len(configs)
    # the package side bisects the 20 configs together, in one stacked
    # solve in which each row probes ahead on its own path
    found = bisect_rates(dt_rates_probe([CertRequest(mu, L, h, beta, beta, disc)
                                         for L, _, disc, h, beta in configs]),
                         0.05, 1.0, iters=14, scan=False)
    for (L, rule, disc, h, beta), result in zip(configs, found, strict=True):
        label = f"L={L:g} {rule} {disc}"
        base_rho = baseline_bisect(h, beta, disc, mu, L)
        pkg_rho = None
        if result is not None:
            pkg_rho, cert = result
            CERTS.append((label, cert))
        base_09 = baseline_feasible(h, beta, disc, mu, L, 0.9)
        pkg_09 = dt_feasible(build_theorem2(
            dt_system(h, beta, beta, disc), mu, L, 0.9)) is not None
        if base_09 != pkg_09:
            failures.append(f"{label}: verdicts differ at rho=0.9")
        if (base_rho is None) != (pkg_rho is None):
            failures.append(f"{label}: {base_rho} vs {pkg_rho}")
        elif base_rho is not None and abs(base_rho - pkg_rho) > 1e-3:
            failures.append(f"{label}: |{base_rho} - {pkg_rho}| > 1e-3")
    detail = (f"{n_cfg - len(failures)}/{n_cfg} configs agree "
              f"(bisection and matched rho=0.9 verdicts), {time.time()-t0:.0f}s")
    if failures:
        detail += "; " + "; ".join(failures)
    report(1, not failures, detail)


# ---------------------------------------------------------------------------
# criterion 2: the accelerated rate at the classic tuning


def test_criterion_02_accelerated_rate_recovered():
    L = 10.0
    beta = (math.sqrt(L) - 1.0) / (math.sqrt(L) + 1.0)
    req = CertRequest(mu=1.0, lipschitz=L, h=1.0 / L, beta_hi=beta,
                      beta_lo=beta, disc=NES)
    [(rate, cert)] = bisect_rates(dt_rates_probe([req]), 0.05, 1.0, iters=20, scan=False)
    CERTS.append(("accelerated tuning", cert))
    bound = 1.0 - math.sqrt(0.1) + 0.02
    ok = rate * rate <= bound
    report(2, ok, f"rho^2 = {rate * rate:.6f} <= {bound:.6f}")


# ---------------------------------------------------------------------------
# criterion 3: certified-rate sweep, reset variants against the plain method


FIG1_FROZEN = {
    1.0: (0.681651, 0.368292, 0.476705),
    10.0: (0.971129, 0.945589, 0.967222),
    25.0: (0.986384, 0.977822, 0.985619),
    50.0: (0.992000, 0.988721, 0.991787),
    75.0: (0.994061, 0.992379, 0.993964),
    100.0: (0.995166, 0.994214, 0.995112),
}


def test_criterion_03_rate_sweep_orderings():
    t0 = time.time()
    failures = []
    rows = []
    for L in FIG1_FROZEN:
        h = 1.0 / (2.0 * L)
        beta_hi = 1.0 - 0.1 * math.sqrt(h)
        beta_mid = 1.0 - math.sqrt(h)
        for name, beta_lo in (("nes", beta_hi), ("hhb", 0.0),
                              ("hihb", beta_mid)):
            rows.append((name, L, CertRequest(1.0, L, h, beta_hi, beta_lo, NES)))
    # the 18 rows bisect together, in one stacked solve
    found = bisect_rates(dt_rates_probe([req for _, _, req in rows]), 0.05, 1.0, iters=20,
                         scan=False)
    rates = {}
    for (name, L, _), result in zip(rows, found, strict=True):
        rho = None
        if result is not None:
            rho, cert = result
            CERTS.append((f"sweep {name} L={L:g}", cert))
        rates[(name, L)] = rho
    for L, frozen in FIG1_FROZEN.items():
        got = tuple(rates[(n, L)] for n in ("nes", "hhb", "hihb"))
        if any(r is None for r in got):
            failures.append(f"L={L:g}: uncertified {got}")
            continue
        if any(abs(g - f) > 1e-3 for g, f in zip(got, frozen)):
            failures.append(f"L={L:g}: drifted from {frozen}: {got}")
        if rates[("hhb", L)] > rates[("nes", L)]:
            failures.append(f"L={L:g}: reset variant not <= plain")
        if L >= 50.0 and not rates[("hhb", L)] < rates[("nes", L)]:
            failures.append(f"L={L:g}: inequality not strict")
    L_end = 100.0
    if not (rates[("hhb", L_end)] <= rates[("hihb", L_end)]
            <= rates[("nes", L_end)]):
        failures.append("switched damping not between reset and plain at L=100")
    detail = (f"18 certified rates match frozen sweep, reset <= plain "
              f"(strict at L>=50), interpolation at L=100, {time.time()-t0:.0f}s")
    if failures:
        detail = "; ".join(failures)
    report(3, not failures, detail)


# ---------------------------------------------------------------------------
# criterion 4: reset variant keeps the heavy-ball rate at optimal tuning


def test_criterion_04_heavy_ball_rate_preserved():
    t0 = time.time()
    failures = []
    grid = []
    for L in (2.0, 4.0, 8.0, 16.0):
        h, beta = tuning_rule("optimal", POL, L)
        for name, beta_lo in (("plain", beta), ("reset", 0.0)):
            grid.append((name, L, CertRequest(1.0, L, h, beta, beta_lo, POL)))
    # the 8 rows bisect together, in one stacked solve
    found = bisect_rates(dt_rates_probe([req for _, _, req in grid]), 0.05, 1.0, iters=14,
                         scan=False)
    rates = {}
    for (name, L, _), result in zip(grid, found, strict=True):
        rho = None
        if result is not None:
            rho, cert = result
            CERTS.append((f"optimal heavy-ball {name} L={L:g}", cert))
        rates[(name, L)] = rho
    profile = {}
    for L in (2.0, 4.0, 8.0, 16.0):
        rows = {name: rates[(name, L)] for name in ("plain", "reset")}
        profile[L] = (rows["plain"], rows["reset"])
        if (rows["plain"] is None) != (rows["reset"] is None):
            failures.append(f"L={L:g}: only one side certifiable {rows}")
        elif rows["plain"] is not None:
            if abs(rows["plain"] - rows["reset"]) > 1e-2:
                failures.append(f"L={L:g}: rates differ {rows}")
    certifiable = [L for L, (p, _) in profile.items() if p is not None]
    if not certifiable or len(certifiable) == len(profile):
        failures.append(f"no common certifiability threshold in sweep: {profile}")
    detail = (f"rates agree within 1e-2 on L={certifiable}, both sides "
              f"uncertifiable beyond, {time.time()-t0:.0f}s")
    if failures:
        detail = "; ".join(failures)
    report(4, not failures, detail)


# ---------------------------------------------------------------------------
# criterion 5: every stored certificate is sound along simulated runs


def covered_step(sys_mats, model, x):
    """switched_step plus a flag for whether the taken branch's own sign
    condition holds.  The two conditions are read at different lookahead
    points when the branches carry distinct damping values, so they do
    not quite partition the state space; on the thin uncovered sliver
    the certificate makes no per-step claim."""
    main, reset = sys_mats.main, sys_mats.reset
    g_main = float(model.gradient(main.C @ x)[0])
    dq = x[1] - x[0]
    if g_main * dq < 0.0:
        br, u, covered = main, g_main, True
    else:
        br = reset
        u = float(model.gradient(reset.C @ x)[0])
        covered = u * dq >= 0.0
    return br.A @ x + br.B[:, 0] * u, covered


def test_criterion_05_certificate_soundness():
    t0 = time.time()
    assert CERTS, "rate tests must populate the certificate store first"
    failures = []
    n_steps = n_uncovered = 0
    for label, cert in CERTS:
        tun = cert.tuning
        sys_mats = dt_system(tun["h"], tun["beta_hi"], tun["beta_lo"],
                             tun["disc"])
        rho2 = cert.rate * cert.rate
        a_mult = cert.multipliers["a"]
        for seed in range(20):
            rng = np.random.default_rng([41, seed])
            c = rng.uniform(tun["mu"], tun["L"])
            q_star = rng.uniform(-2.0, 2.0)
            model = scalar_quad(c, q_star)
            x = q_star + rng.uniform(-5.0, 5.0, 2)
            v0 = cert.lyapunov(x[0], x[1], model)
            bound = cert.guarantee_constant(x[0], x[1], model)
            # the envelope comparison stops once the certified bound
            # falls below float resolution of the objective evaluation
            floor = 1e-13 * (1.0 + abs(model.min_value) + bound)
            v_prev = v0
            for _ in range(1000):
                x, covered = covered_step(sys_mats, model, x)
                v = cert.lyapunov(x[0], x[1], model)
                n_steps += 1
                if not covered:
                    # uncovered sliver state: restart the decrease and
                    # envelope comparisons from here
                    n_uncovered += 1
                    v_prev, bound = v, v / a_mult
                    continue
                if v > v_prev + 1e-8 * v0:
                    failures.append(f"{label} seed {seed}: V increased")
                    break
                v_prev = v
                bound *= rho2
                gap = float(model.gap(x[1:]))
                if bound >= floor and gap > bound * (1.0 + 1e-6):
                    failures.append(f"{label} seed {seed}: envelope broken "
                                    f"({gap} > {bound})")
                    break
            else:
                continue
            break
    if n_uncovered > 0.02 * n_steps:
        failures.append(f"{n_uncovered}/{n_steps} steps outside the "
                        f"certified switching region")
    detail = (f"{len(CERTS)} certificates x 20 seeds x 1000 steps: V "
              f"nonincreasing, gap within envelope "
              f"({n_uncovered}/{n_steps} sliver steps excluded), "
              f"{time.time()-t0:.0f}s")
    if failures:
        detail = "; ".join(failures)
    report(5, not failures, detail)


# ---------------------------------------------------------------------------
# criterion 6: trajectory orderings on the ill-conditioned quadratic


GAP_FLOOR = 1e-10


def clipped_gaps(traj):
    return np.maximum(traj.phi_gaps, GAP_FLOOR)


def live_slope(gaps, frac=0.2):
    """log10-gap slope per iteration over the tail of the segment still
    above the dust floor."""
    live = np.where(gaps > GAP_FLOOR)[0]
    if live.size < 10:
        return float("nan")
    kend = int(live[-1])
    k0 = int((1.0 - frac) * kend)
    ks = np.array([k for k in range(k0, kend + 1) if gaps[k] > GAP_FLOOR],
                  dtype=float)
    ys = np.log10(gaps[ks.astype(int)])
    return float(np.polyfit(ks, ys, 1)[0])


def test_criterion_06_quadratic_benchmark_orderings():
    # at these parameters every method's gap reaches the float64 dust
    # floor before k=5000, so gaps are clipped at GAP_FLOOR and compared
    # at the last iterate where either curve is still live; slopes are
    # fitted on the live segment only
    t0 = time.time()
    eps = math.sqrt(1e-4)
    pairs = (("polyak", "hhb-pol"), ("nesterov", "hhb-nes"))
    order_hits = {p: 0 for p in pairs}
    failures = []
    for seed in (1, 2, 3, 4, 5):
        rng = np.random.default_rng(seed)
        _, model = gen_random_quadratic(50, 1e3, rng)
        q0 = rng.uniform(-100.0, 100.0, 50)
        methods = [m for pair in pairs for m in pair]
        runs = dict(zip(methods, run_many(
            model, [quad_params(m, 1.0, eps) for m in methods], q0, 5000)))
        for pair in pairs:
            gc, gh = clipped_gaps(runs[pair[0]]), clipped_gaps(runs[pair[1]])
            live = np.where(np.maximum(gc, gh) > GAP_FLOOR)[0]
            ke = min(5000, int(live[-1]))
            nc = count_nonmonotone(runs[pair[0]])
            nh = count_nonmonotone(runs[pair[1]])
            if gh[ke] < gc[ke] and nh < nc:
                order_hits[pair] += 1
        if seed == 2:
            slope_runs = dict(zip(methods, run_many(
                model, [quad_params(m, 1.97, eps) for m in methods], q0, 5000)))
            for classic, reset in pairs:
                sc = live_slope(clipped_gaps(slope_runs[classic]))
                sh = live_slope(clipped_gaps(slope_runs[reset]))
                if not abs(sh - sc) <= 0.1 * abs(sc):
                    failures.append(
                        f"{classic} slopes differ >10%: {sc:.5f}/{sh:.5f}")
    for pair, hits in order_hits.items():
        if hits < 4:
            failures.append(f"{pair[1]} ordering holds only {hits}/5 seeds")
    detail = (f"gap and nonmonotone orderings {list(order_hits.values())}/5 "
              f"seeds, matched-damping slopes within 10%, {time.time()-t0:.0f}s")
    if failures:
        detail = "; ".join(failures)
    report(6, not failures, detail)


# ---------------------------------------------------------------------------
# criterion 7: logistic benchmark through the command line


def test_criterion_07_logistic_benchmark_orderings(tmp_path):
    t0 = time.time()
    out = tmp_path / "logreg"
    assert cli_main(["logreg", "--seed", "1", "--out", str(out)]) == 0
    with open(out / "summary.csv") as fh:
        header = fh.readline().strip().split(",")
        rows = [line.strip().split(",") for line in fh]
    im, ii = header.index("method"), header.index("iters_to_gap")
    iters = {row[im]: int(row[ii]) for row in rows}
    failures = []
    for m, k in iters.items():
        if k < 0:
            failures.append(f"{m} never reached the gap target")
    if not failures:
        cap = 1.5 * min(iters["polyak"], iters["nesterov"])
        if not iters["hhb"] < iters["gd"]:
            failures.append(f"hhb {iters['hhb']} not < gd {iters['gd']}")
        if not iters["hihb"] < iters["gd"]:
            failures.append(f"hihb {iters['hihb']} not < gd {iters['gd']}")
        for m in ("hhb", "hihb"):
            if iters[m] > cap:
                failures.append(f"{m} {iters[m]} exceeds 1.5x best classic "
                                f"momentum ({cap:g})")
    detail = (f"iterations to gap 1e-6: {iters}, {time.time()-t0:.0f}s")
    if failures:
        detail += "; " + "; ".join(failures)
    report(7, not failures, detail)


# ---------------------------------------------------------------------------
# criterion 8: continuous-time certification, both input matrices


def test_criterion_08_continuous_time_input_matrices():
    t0 = time.time()
    failures = []
    data = build_ct(1.0, 1.0, 10.0)
    for alpha in (1e-6, 1e-4, 1e-2, 0.1, 1.0, 10.0, 100.0):
        # a fresh stream, so that each probe starts cold
        if ref.probe_at(ct_rates_probe([data], 1e-6, max_oracle_calls=120), alpha) != [None]:
            failures.append(f"standard input certified at alpha={alpha:g}")
    grid = (2.0, 4.0)
    certs = ref.probe_at(ct_rates_probe([build_ct(1.0, 1.0, L, b_coupled=True) for L in grid],
                                        1e-6), 0.5)
    coupled_hits = [L for L, cert in zip(grid, certs, strict=True) if cert is not None]
    if not coupled_hits:
        failures.append("coupled input certified nowhere")
    detail = (f"standard input uncertified on the alpha grid, coupled input "
              f"certified at L/mu={coupled_hits}, {time.time()-t0:.0f}s")
    if failures:
        detail = "; ".join(failures)
    report(8, not failures, detail)


# ---------------------------------------------------------------------------
# criterion 9: algebraic identities and per-step function bounds


def test_criterion_09_proof_identities():
    failures = []
    rng = np.random.default_rng(3)
    eps = 1e-4
    _, _, _, M0, M_eps = ref.ct_forms(build_ct(2.0, 1.0, 10.0), eps)
    for _ in range(1000):
        c = rng.uniform(1.0, 10.0)
        q, p = rng.uniform(-5.0, 5.0, 2)
        u = c * q
        e = np.array([q, p, u])
        scale = 1.0 + e @ e
        if abs(e @ M0 @ e + p * u) > 1e-8 * scale:
            failures.append("descent form identity")
            break
        want = -p * u + eps * (q * q + p * p)
        if abs(e @ M_eps @ e - want) > 1e-8 * scale:
            failures.append("inflated descent form identity")
            break
    for _ in range(1000):
        c = rng.uniform(1.0, 10.0)
        x = rng.uniform(-5.0, 5.0, 2)
        u = c * (x[1] + 0.7 * (x[1] - x[0]))
        e = np.array([x[0], x[1], u])
        want = -u * (x[1] - x[0])
        if abs(e @ ALIGNMENT_FORM @ e - want) > 1e-8 * (1.0 + abs(want) + e @ e):
            failures.append("alignment form identity")
            break
    n_bound = 0
    for sys_mats in (dt_system(0.05, 0.7, 0.2, POL),
                     dt_system(0.08, 0.6, 0.0, NES)):
        data = build_theorem2(sys_mats, 1.0, 10.0, 0.9)
        for seed in range(5):
            srng = np.random.default_rng([23, seed])
            c = srng.uniform(1.0, 10.0)
            q_star = srng.uniform(-2.0, 2.0)
            model = scalar_quad(c, q_star)
            x = q_star + srng.uniform(-5.0, 5.0, 2)
            for _ in range(200):
                x_next, br, u = switched_step(sys_mats, model, x)
                M1, M2, _ = ref.dt_forms(data, 0 if br is sys_mats.main else 1)
                e = np.array([x[0] - q_star, x[1] - q_star, u])
                gap_now = float(model.gap(x[1:]))
                gap_next = float(model.gap(x_next[1:]))
                slack = 1e-8 * (1.0 + abs(gap_next) + abs(gap_now) + e @ e)
                n_bound += 1
                if gap_next - gap_now > e @ M1 @ e + slack:
                    failures.append("per-step decrease bound")
                if gap_next > e @ M2 @ e + slack:
                    failures.append("distance-to-optimum bound")
                x = x_next
            if failures:
                break
    detail = (f"3 identities on 1000 samples each, both function bounds on "
              f"{n_bound} switched-run samples")
    if failures:
        detail = "; ".join(sorted(set(failures)))
    report(9, not failures, detail)


# ---------------------------------------------------------------------------
# criterion 10: hybrid arc invariants


def test_criterion_10_hybrid_invariants():
    failures = []
    osc = scalar_quad(1.0)
    par = HybridParams(K=0.0, T_min=1e-3, step=1e-3)
    arc = integrate_hhb(osc, par, HybridState(q=np.array([1.0]),
                                              p=np.array([0.0])), 3.0)
    if not arc.jumps:
        failures.append("no jump on the undamped oscillator")
        t_err = float("nan")
    else:
        t_err = abs(arc.jumps[0][0] - math.pi / 2.0)
        if t_err > 1e-4:
            failures.append(f"first jump off quarter period by {t_err:.2e}")
    _, model = gen_random_quadratic(2, 30.0, 5)
    par = HybridParams(K=0.2, T_min=0.05, step=1e-3)
    rng = np.random.default_rng(5)
    z0 = HybridState(q=rng.uniform(-3.0, 3.0, 2), p=np.zeros(2))
    arc = integrate_hhb(model, par, z0, 20.0)
    if len(arc.jumps) < 2:
        failures.append("dwell check needs at least two jumps")
    if any(d < par.T_min - 1e-9 for d in arc.dwell_times()):
        failures.append("dwell time below the timer threshold")
    _, model3 = gen_random_quadratic(3, 50.0, 8)
    z3 = HybridState(q=np.random.default_rng(8).uniform(-2.0, 2.0, 3),
                     p=np.zeros(3))
    reset_arc = integrate_hhb(model3, HybridParams(K=0.5, T_min=0.02,
                                                   step=1e-3), z3, 10.0)
    switched_arc = integrate_hihb(model3, HybridParams(K=1.0, K_lo=0.5,
                                                       K_hi=4.0, T_min=0.02,
                                                       step=1e-3), z3, 10.0)
    for name, a in (("reset", reset_arc), ("switched", switched_arc)):
        if float(np.max(np.diff(a.energy))) > 1e-8 * float(a.energy[0]):
            failures.append(f"{name} arc energy increased")
    detail = (f"dwell >= timer, energy monotone across flows and jumps, "
              f"first jump within {t_err:.1e} of pi/2")
    if failures:
        detail = "; ".join(failures)
    report(10, not failures, detail)
