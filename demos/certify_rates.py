"""Certify per-iteration rates for a few tunings and inspect a certificate.

Walks the smallest useful slice of the library: build a certification
request, bisect for the best certifiable rate, and read the pieces of
the resulting certificate (P, multipliers, feasibility margin).  The
rate table uses a conservatively damped tuning, the regime where adding
a momentum reset provably tightens the certified rate.

Run from the repository root:

    python demos/certify_rates.py
"""

import math

from hbreset.lmi import NES, POL, CertRequest, bisect_rates, dt_rates_probe


def underdamped(L: float, mu: float = 1.0) -> CertRequest:
    # cautious stepsize, damping well short of the optimum
    h = 1.0 / (2.0 * L)
    beta = 1.0 - 0.1 * math.sqrt(h)
    return CertRequest(mu=mu, lipschitz=L, h=h, beta_hi=beta, beta_lo=beta,
                       disc=NES)


def optimal_nesterov(L: float, mu: float = 1.0) -> CertRequest:
    beta = (math.sqrt(L) - math.sqrt(mu)) / (math.sqrt(L) + math.sqrt(mu))
    return CertRequest(mu=mu, lipschitz=L, h=1.0 / L, beta_hi=beta,
                       beta_lo=beta, disc=NES)


def with_reset(req: CertRequest) -> CertRequest:
    # same main-branch tuning, full momentum reset on the other branch
    return CertRequest(mu=req.mu, lipschitz=req.lipschitz, h=req.h,
                       beta_hi=req.beta_hi, beta_lo=0.0, disc=req.disc)


def main() -> None:
    print("certified contraction factors at a conservative tuning, mu=1")
    print(f"{'L':>6} {'plain':>10} {'with reset':>11}")
    grid = (10.0, 50.0, 100.0)
    requests = [req for L in grid for req in (underdamped(L), with_reset(underdamped(L)))]
    # the six rows bisect in one stacked solve, each probing ahead on
    # its own path
    found = bisect_rates(dt_rates_probe(requests), lo=0.05, hi=1.0, iters=16, scan=False)
    cells = ["none" if f is None else f"{f[0]:.6f}" for f in found]
    for i, L in enumerate(grid):
        print(f"{L:6.0f} {cells[2 * i]:>10} {cells[2 * i + 1]:>11}")

    # the classical heavy-ball discretization loses certifiability once
    # the conditioning gets bad enough; the search reports that honestly
    L = 16.0
    beta = ((math.sqrt(L) - 1.0) / (math.sqrt(L) + 1.0)) ** 2
    heavy_ball = CertRequest(mu=1.0, lipschitz=L, h=4.0 / (math.sqrt(L) + 1.0) ** 2,
                             beta_hi=beta, beta_lo=beta, disc=POL)
    hb, (rate, cert) = bisect_rates(dt_rates_probe([heavy_ball, optimal_nesterov(10.0)]),
                                    lo=0.05, hi=1.0, iters=16, scan=False)
    verdict = "no certificate with rate <= 1" if hb is None else f"rate {hb[0]:.6f}"
    print(f"\nheavy-ball tuning at L={L:g}: {verdict}")

    print(f"\ncertificate at L=10 (rate {rate:.6f})")
    print("  P eigenvalue ratio:", cert.P[1, 1] / cert.P[0, 0])
    print("  multipliers:", {k: round(v, 6) for k, v in cert.multipliers.items()})
    print("  feasibility margin:", cert.margin)


if __name__ == "__main__":
    main()
