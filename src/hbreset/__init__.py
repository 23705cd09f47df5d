"""Reset-based heavy-ball methods: simulators, rate certificates, benchmarks.

Layers, bottom up: `objectives` (quadratic / logistic test functions),
`csv17` (exact `%.17g` CSV rows and `%.3f` chart points, formatted in
numpy), `svg` (line charts, whose polylines go through `csv17`),
`discrete` (the switched two-step iteration family), `hybrid`
(continuous-time flows with momentum resets or switched damping), `sdp`
(a self-contained log-det barrier feasibility engine), `lmi` (rate
certificates built on it; one private table per row kind, and one
compiler for the rows of both), `cli` (benchmark front end).

The names below are the entry points of each layer. Building blocks such
as `lmi.DtLmiData` (a discrete-time rate row: its compiled stack entry,
moved between rates), `lmi.build_sector`, `lmi.bisect_rates`, `lmi.dt_rates_probe`,
`sdp.solve_stream`, `discrete.switching_beta`, `discrete.run_many` or
`objectives.quad_to_json` are imported from their own module.
"""

from .discrete import (AlgoParams, Trajectory, Variant, count_nonmonotone,
                       run)
from .hybrid import (HybridArc, HybridParams, HybridState, default_dwell,
                     integrate_hb, integrate_hhb, integrate_hihb)
from .lmi import (Certificate, CertRequest, NoCertificate, bisect_rate,
                  build_ct, ct_rates_probe, dt_feasible, dt_system)
from .objectives import (LogisticSpec, ObjectiveModel, QuadraticSpec,
                         gen_logistic_dataset, gen_random_quadratic,
                         logistic_model, quadratic_model)
from .sdp import (AffineMatrixMap, FeasProblem, FeasResult, FEASIBLE,
                  INDETERMINATE, INFEASIBLE, solve_feasibility)

__version__ = "0.1.0"

__all__ = [
    "AffineMatrixMap", "AlgoParams", "CertRequest", "Certificate", "FEASIBLE",
    "FeasProblem", "FeasResult", "HybridArc", "HybridParams", "HybridState",
    "INDETERMINATE", "INFEASIBLE", "LogisticSpec", "NoCertificate",
    "ObjectiveModel", "QuadraticSpec", "Trajectory", "Variant", "bisect_rate",
    "build_ct", "count_nonmonotone", "ct_rates_probe", "default_dwell",
    "dt_feasible", "dt_system", "gen_logistic_dataset",
    "gen_random_quadratic", "integrate_hb", "integrate_hhb", "integrate_hihb",
    "logistic_model", "quadratic_model", "run", "solve_feasibility",
]
