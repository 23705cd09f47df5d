"""The four benchmark workloads, as `hbreset` command lines.

Each workload is one or more CLI calls. The shapes follow the module each
workload isolates (see README.md); the sizes are chosen so one pass takes
a few seconds on a 2-core machine, which lets a run take a median over
several passes.
"""
from __future__ import annotations

WORKLOADS = ("certify", "quad", "logreg", "hybrid")

# BLAS pools pinned to one thread: the load comes from one process with
# one busy thread, never more than nproc.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}

# Randomized workloads draw their CLI seed from a fixed pool so that every
# input has a stored reference (reference.json) to check outputs against.
SEED_POOL = 16

# certify bisects the rate over [0.05, 1]; the resolution after
# BISECT_ITERS halvings bounds how far a rate may move between engines.
BISECT_ITERS = 3
BISECT_RESOLUTION = 0.95 / 2 ** BISECT_ITERS

QUAD_ITERS = 1500
LOGREG_ITERS = 300
# n = 10 keeps the hhb arc running to t_end (with n = 2 it stops early at
# a seed-dependent time), so every seed does the same number of steps.
HYBRID_N = 10
HYBRID_DT = 1e-3
HYBRID_MODES = ("hhb", "hihb")


def cli_seed(seed: int) -> int:
    return seed % SEED_POOL


def commands(workload: str, seed: int) -> list[list[str]]:
    """CLI argument lists (without --out) for one pass of a workload."""
    s = str(cli_seed(seed))
    if workload == "certify":
        return [["certify", "--grid-L", "1,10,100",
                 "--bisect-iters", str(BISECT_ITERS)]]
    if workload == "quad":
        return [["quad", "--seed", s, "--iters", str(QUAD_ITERS)]]
    if workload == "logreg":
        return [["logreg", "--seed", s, "--iters", str(LOGREG_ITERS)]]
    if workload == "hybrid":
        return [["simulate", "--model", "gen", "--mode", mode, "--seed", s,
                 "--n", str(HYBRID_N), "--dt", repr(HYBRID_DT)]
                for mode in HYBRID_MODES]
    raise ValueError(f"unknown workload {workload!r}")
