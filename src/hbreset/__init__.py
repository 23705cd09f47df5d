"""Reset-based heavy-ball methods: simulators, rate certificates, benchmarks.

Layers, bottom up: `objectives` (quadratic / logistic test functions),
`discrete` (the switched two-step iteration family), `hybrid`
(continuous-time flows with momentum resets or switched damping), `sdp`
(a self-contained log-det barrier feasibility engine), `lmi` (rate
certificates built on it), `cli` (benchmark front end).
"""

from .discrete import (AlgoParams, IterState, Trajectory, Variant,
                       count_nonmonotone, initial_state, nesterov_beta_schedule,
                       run, switching_beta)
from .hybrid import (HybridArc, HybridParams, HybridState, default_dwell,
                     integrate_hb, integrate_hhb, integrate_hihb)
from .lmi import (Certificate, CertRequest, CtLmiData, DtLmiData, NoCertificate,
                  bisect_rate, build_ct, build_sector, build_theorem2,
                  certify_discrete, ct_alpha_builder, ct_feasible,
                  dt_feasible, dt_rate_builder, dt_system, reduce_to_scalar)
from .objectives import (LogisticSpec, ObjectiveModel, QuadraticSpec,
                         gen_logistic_dataset, gen_random_quadratic,
                         logistic_lipschitz, logistic_model, quad_from_json,
                         quad_to_json, quadratic_model)
from .sdp import (AffineMatrixMap, FeasProblem, FeasResult, FEASIBLE,
                  INDETERMINATE, INFEASIBLE, check_nsd, eig_max,
                  solve_feasibility, symmetric_eig)

__version__ = "0.1.0"

__all__ = [
    "AffineMatrixMap", "AlgoParams", "CertRequest", "Certificate", "CtLmiData",
    "DtLmiData", "FEASIBLE", "FeasProblem", "FeasResult", "HybridArc",
    "HybridParams", "HybridState", "INDETERMINATE", "INFEASIBLE", "IterState",
    "LogisticSpec", "NoCertificate", "ObjectiveModel", "QuadraticSpec",
    "Trajectory", "Variant", "bisect_rate", "build_ct", "build_sector",
    "build_theorem2", "certify_discrete", "check_nsd", "count_nonmonotone",
    "ct_alpha_builder", "ct_feasible", "default_dwell", "dt_feasible",
    "dt_rate_builder", "dt_system", "eig_max", "gen_logistic_dataset",
    "gen_random_quadratic", "initial_state", "integrate_hb", "integrate_hhb",
    "integrate_hihb", "logistic_lipschitz", "logistic_model",
    "nesterov_beta_schedule", "quad_from_json", "quad_to_json",
    "quadratic_model", "reduce_to_scalar", "run", "solve_feasibility",
    "switching_beta", "symmetric_eig",
]
