"""Momentum resets on an ill-conditioned quadratic, side by side.

Runs the four discrete methods with a deliberately underestimated
damping level, where plain momentum rings for thousands of iterations
while the reset variants kill each oscillation as it starts.  Prints a
summary table and writes a log-gap chart next to this script.

Run from the repository root:

    python demos/reset_vs_plain.py
"""

import math
import os

import numpy as np

from hbreset.cli import quad_params
from hbreset.discrete import count_nonmonotone, run_many
from hbreset.objectives import gen_random_quadratic
from hbreset.svg import write_chart

SEED = 2
COND = 1e3
H = 1e-4
ITERS = 5000
K_UNDER = 1.0  # damping well below the optimal level for this spectrum


def main() -> None:
    rng = np.random.default_rng(SEED)
    _, model = gen_random_quadratic(50, COND, rng)
    q0 = rng.uniform(-100.0, 100.0, 50)
    eps = math.sqrt(H)

    print(f"quadratic with L/mu = {COND:g}, {ITERS} iterations, "
          f"damping K = {K_UNDER}")
    print(f"{'method':>10} {'gap at k=2000':>14} {'final gap':>12} "
          f"{'nonmonotone steps':>18}")
    series = []
    methods = ("polyak", "hhb-pol", "nesterov", "hhb-nes")
    trajs = run_many(model, [quad_params(m, K_UNDER, eps) for m in methods],
                     q0, ITERS)
    for method, traj in zip(methods, trajs):
        # clip float dust around phi* so the table and log chart stay readable
        gaps = np.maximum(traj.phi_gaps, 1e-12)
        print(f"{method:>10} {gaps[2000]:14.3e} {gaps[-1]:12.3e} "
              f"{count_nonmonotone(traj):18d}")
        series.append((method, list(range(len(gaps))), list(gaps)))

    out = os.path.join(os.path.dirname(__file__), "reset_vs_plain.svg")
    write_chart(out, series, title="objective gap, underdamped tuning",
                x_label="iteration", y_label="phi - phi*", log_y=True,
                y_floor=1e-12)
    print(f"\nchart written to {out}")


if __name__ == "__main__":
    main()
