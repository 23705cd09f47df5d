"""Benchmark and certification front end.

Subcommands
  certify   certified contraction-rate sweep over condition numbers
  quad      ill-conditioned random quadratic benchmark
  logreg    full-batch logistic regression benchmark
  tune      derivative-free stepsize/momentum tuning
  simulate  continuous-time hybrid arcs

Every CSV/JSON/SVG written is a pure function of (config, seed); the
resolved configuration is dumped next to the outputs as config.json.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

# run is not called here; bench/tracing.py patches it by this name
from .discrete import (AlgoParams, Trajectory, Variant, count_nonmonotone,  # noqa: F401
                       run, run_many)
from .hybrid import (HybridParams, HybridState, default_dwell, integrate_hb,
                     integrate_hhb, integrate_hihb)
# bisect_rate is not called here; bench/tracing.py patches it by this name
from .lmi import (NES, POL, CertRequest, bisect_rate, bisect_rates,  # noqa: F401
                  build_theorem2, dt_problem, dt_rates_probe, dt_system)
from .objectives import (ObjectiveModel, QuadraticSpec, gen_logistic_dataset,
                         gen_random_quadratic, logistic_lipschitz,
                         logistic_model, quad_from_json, quad_to_json,
                         quadratic_model)
from .sdp import problem_to_json
from .svg import write_chart

CERTIFY_METHODS = ("nesterov", "hhb-nes", "hihb-nes", "polyak", "hhb-pol", "hihb-pol")
QUAD_METHODS = ("polyak", "nesterov", "hhb-pol", "hhb-nes", "hihb-pol", "hihb-nes")
LOGREG_METHODS = ("gd", "polyak", "nesterov", "hhb", "hihb")

GAP_TARGET = 1e-6
SWEEP_HEADER = ("L", "mu", "h", "beta_hi", "beta_lo", "method", "rho", "status")

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


# ---------------------------------------------------------------------------
# configuration


@dataclass
class ExperimentConfig:
    """Flat bag of every knob; per-subcommand defaults fill the None fields."""

    subcommand: str
    seed: Optional[int] = None
    out: str = "run-out"
    methods: Optional[tuple] = None
    # certify
    grid_L: tuple = (1.0, 10.0, 25.0, 50.0, 75.0, 100.0)
    rule: str = "mistuned"
    mu: float = 1.0
    bisect_iters: int = 20
    scan: bool = False
    max_oracle_calls: int = 200
    dump_sdp: bool = False
    # quad / logreg / tune problem sizes
    n: Optional[int] = None
    m: int = 1000
    cond: float = 1e3
    h: Optional[float] = None
    k_values: tuple = (1.97, 0.5, 1.0, 1.5)
    iters: Optional[int] = None
    # tuning
    method: Optional[str] = None
    objective: str = "quad"
    # resolved per objective: short enough that near-optimal settings
    # have not all converged by the budget, which keeps the tuning
    # objective discriminating
    budget: Optional[int] = None
    h_lo: Optional[float] = None
    h_hi: Optional[float] = None
    # logreg reference
    ref_max_iter: int = 1000000
    ref_tol: float = 1e-10
    # simulate
    mode: str = "hhb"
    model: str = "scalar"
    model_file: Optional[str] = None
    curv: float = 1.0
    K: float = 1.0
    K_lo: Optional[float] = None
    K_hi: Optional[float] = None
    t_min: Optional[float] = None
    dt: float = 1e-3
    t_end: float = 10.0
    q0: Optional[tuple] = None
    p0: Optional[tuple] = None

    def with_defaults(self) -> "ExperimentConfig":
        """Fill per-subcommand defaults so the dumped config is complete."""
        cfg = dataclasses.replace(self)
        if cfg.subcommand == "certify":
            cfg.methods = cfg.methods if cfg.methods is not None else CERTIFY_METHODS
        elif cfg.subcommand == "quad":
            cfg.methods = cfg.methods if cfg.methods is not None else QUAD_METHODS
            cfg.n = cfg.n if cfg.n is not None else 50
            cfg.iters = cfg.iters if cfg.iters is not None else 5000
            cfg.h = cfg.h if cfg.h is not None else 1e-4
        elif cfg.subcommand == "logreg":
            cfg.methods = cfg.methods if cfg.methods is not None else LOGREG_METHODS
            cfg.n = cfg.n if cfg.n is not None else 20
            cfg.iters = cfg.iters if cfg.iters is not None else 3000
        elif cfg.subcommand == "tune":
            cfg.n = cfg.n if cfg.n is not None else (20 if cfg.objective == "logreg" else 10)
        if cfg.subcommand in ("logreg", "tune") and cfg.budget is None:
            objective = "logreg" if cfg.subcommand == "logreg" else cfg.objective
            cfg.budget = 15 if objective == "logreg" else 60
        return cfg

    def validate(self) -> None:
        randomized = (self.subcommand in ("quad", "logreg", "tune")
                      or (self.subcommand == "simulate" and self.model == "gen"))
        if randomized and self.seed is None:
            raise ValueError("--seed is required for randomized experiments")
        if self.seed is not None and not (0 <= self.seed < 2 ** 64):
            raise ValueError("seed must fit in 64 bits")
        if (self.subcommand in ("certify", "quad", "logreg")
                and self.methods is not None and not self.methods):
            raise ValueError("--methods must name at least one method")
        if self.subcommand == "certify":
            if not self.grid_L:
                raise ValueError("grid of L values must be non-empty")
            if not all(math.isfinite(L) for L in self.grid_L):
                raise ValueError(f"--grid-L entries must be finite, got {self.grid_L}")
            _require_positive("--mu", self.mu)
            if not all(L >= self.mu for L in self.grid_L):
                raise ValueError(f"--grid-L entries must be at least --mu = {self.mu}, "
                                 f"got {self.grid_L}")
            if self.max_oracle_calls < 1:
                raise ValueError(f"--max-oracle-calls must be at least 1, "
                                 f"got {self.max_oracle_calls}")
            if self.bisect_iters < 0:
                raise ValueError(f"--bisect-iters must be nonnegative, "
                                 f"got {self.bisect_iters}")
            bad = set(self.methods or ()) - set(CERTIFY_METHODS)
            if bad:
                raise ValueError(f"unknown certify methods: {sorted(bad)}")
        uses_cond = (self.subcommand == "quad"
                     or (self.subcommand == "tune" and self.objective == "quad")
                     or (self.subcommand == "simulate" and self.model == "gen"))
        if uses_cond:
            if not (math.isfinite(self.cond) and self.cond >= 1.0):
                raise ValueError(f"--cond must be finite and at least 1, got {self.cond}")
            # the random quadratic pins its two extreme eigenvalues
            if self.n is not None and self.n < 2:
                raise ValueError(f"--n must be at least 2, got {self.n}")
        uses_logistic = (self.subcommand == "logreg"
                         or (self.subcommand == "tune" and self.objective == "logreg"))
        if uses_logistic:
            if self.n is not None and self.n < 1:
                raise ValueError(f"--n must be at least 1, got {self.n}")
            if self.m < 1:
                raise ValueError(f"--m must be at least 1, got {self.m}")
        if self.subcommand in ("logreg", "tune"):
            if self.budget is not None and self.budget < 1:
                # with no iterations every tuner candidate scores phi(q0)
                raise ValueError(f"--budget must be at least 1, got {self.budget}")
            # the stepsize search runs over [log10 h_lo, log10 h_hi]
            for flag, value in (("--h-lo", self.h_lo), ("--h-hi", self.h_hi)):
                if value is not None:
                    _require_positive(flag, value)
            if self.h_lo is not None and self.h_hi is not None and self.h_lo > self.h_hi:
                raise ValueError(f"--h-lo must not exceed --h-hi, "
                                 f"got {self.h_lo} > {self.h_hi}")
        if (self.subcommand in ("quad", "logreg") and self.iters is not None
                and self.iters < 0):
            raise ValueError(f"--iters must be nonnegative, got {self.iters}")
        if self.subcommand == "quad":
            if not self.k_values:
                raise ValueError("K grid must be non-empty")
            if not all(math.isfinite(K) for K in self.k_values):
                raise ValueError(f"--K entries must be finite, got {self.k_values}")
            if self.h is not None:
                _require_positive("--h", self.h)
            bad = set(self.methods or ()) - set(QUAD_METHODS)
            if bad:
                raise ValueError(f"unknown quad methods: {sorted(bad)}")
        if self.subcommand == "logreg":
            bad = set(self.methods or ()) - set(LOGREG_METHODS)
            if bad:
                raise ValueError(f"unknown logreg methods: {sorted(bad)}")
            _require_positive("--ref-tol", self.ref_tol)
            if self.ref_max_iter < 1:
                raise ValueError(f"--ref-max-iter must be at least 1, "
                                 f"got {self.ref_max_iter}")
        if self.subcommand == "tune" and self.method not in LOGREG_METHODS:
            raise ValueError(f"--method must be one of {LOGREG_METHODS}")
        if self.subcommand == "simulate":
            if self.mode not in ("hb", "hhb", "hihb"):
                raise ValueError("--mode must be hb, hhb or hihb")
            if self.model not in ("scalar", "file", "gen"):
                raise ValueError("--model must be scalar, file or gen")
            if self.model == "file" and not self.model_file:
                raise ValueError("--model-file required with --model file")
            if self.model == "scalar":
                _require_positive("--curv", self.curv)
            _require_positive("--t-end", self.t_end)
            _require_positive("--dt", self.dt)
            if self.t_min is not None:
                _require_positive("--t-min", self.t_min)
            if not (math.isfinite(self.K) and self.K >= 0.0):
                raise ValueError(f"--K must be finite and nonnegative, got {self.K}")
            for flag, value in (("--K-lo", self.K_lo), ("--K-hi", self.K_hi)):
                if value is not None:
                    _require_positive(flag, value)
            K_lo, K_hi = self.damping_pair()
            if K_lo > K_hi:
                raise ValueError(f"--K-lo must not exceed --K-hi, got {K_lo} > {K_hi}")
            for flag, point in (("--q0", self.q0), ("--p0", self.p0)):
                if point is not None and not all(math.isfinite(v) for v in point):
                    raise ValueError(f"{flag} entries must be finite, got {point}")

    def damping_pair(self) -> tuple[float, float]:
        """The simulate damping pair (K_lo, K_hi); an unset one is K. The
        pair only drives hihb arcs, so an undamped hb/hhb run (K = 0) falls
        back to 1 rather than trip the pair's positivity contract."""
        fallback = self.K if self.K > 0.0 else 1.0
        return (self.K_lo if self.K_lo is not None else fallback,
                self.K_hi if self.K_hi is not None else fallback)

    def resolved_json(self) -> str:
        # the output path is excluded so bytes do not depend on where the
        # run lands
        d = dataclasses.asdict(self)
        d.pop("out")
        return json.dumps(d, sort_keys=True, indent=2) + "\n"


def _require_positive(flag: str, value: float) -> None:
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"{flag} must be finite and positive, got {value}")


def _prepare(cfg: ExperimentConfig) -> str:
    os.makedirs(cfg.out, exist_ok=True)
    with open(os.path.join(cfg.out, "config.json"), "w") as fh:
        fh.write(cfg.resolved_json())
    return cfg.out


def _fmt_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return "%.17g" % v
    return str(v)


def write_csv(path, header: Sequence[str], rows) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt_cell(v) for v in row) + "\n")


# ---------------------------------------------------------------------------
# certify


def certify_tuning(method: str, L: float, mu: float, rule: str):
    """(disc, h, beta_hi, beta_lo) for one sweep method under a tuning rule."""
    disc = NES if "nes" in method else POL
    rl, rm = math.sqrt(L), math.sqrt(mu)
    if rule == "mistuned":
        h = 1.0 / (2.0 * L)
        beta = 1.0 - 0.1 * math.sqrt(h)
    elif rule == "optimal":
        if disc == NES:
            h = 1.0 / L
            beta = (rl - rm) / (rl + rm)
        else:
            h = 4.0 / (rl + rm) ** 2
            beta = ((rl - rm) / (rl + rm)) ** 2
    else:
        raise ValueError(f"unknown tuning rule {rule!r}")
    if method in ("nesterov", "polyak"):
        blo = beta
    elif method.startswith("hhb-"):
        blo = 0.0
    elif method.startswith("hihb-"):
        # switched damping floor; clamped into [0, beta_hi]
        blo = min(max(1.0 - math.sqrt(h), 0.0), beta)
    else:
        raise ValueError(f"unknown method {method!r}")
    return disc, h, beta, blo


def read_sweep(path) -> list[dict]:
    rows = []
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        for line in fh:
            parts = line.rstrip("\n").split(",")
            row = dict(zip(header, parts))
            for key in ("L", "mu", "h", "beta_hi", "beta_lo", "rho"):
                row[key] = float(row[key]) if row[key] else float("nan")
            rows.append(row)
    return rows


def replot_sweep(csv_path, svg_path) -> None:
    """Re-plot from the CSV itself so re-reading reproduces identical bytes."""
    rows = read_sweep(csv_path)
    order = []
    by_method: dict = {}
    for row in rows:
        name = row["method"]
        if name not in by_method:
            by_method[name] = ([], [])
            order.append(name)
        if math.isfinite(row["rho"]):
            by_method[name][0].append(row["L"])
            by_method[name][1].append(row["rho"])
    series = [(name, by_method[name][0], by_method[name][1]) for name in order]
    write_chart(svg_path, series, title="certified contraction rate",
                x_label="L / mu", y_label="rho")


def cmd_certify(cfg: ExperimentConfig) -> int:
    out = _prepare(cfg)
    grid = [(L, method, *certify_tuning(method, L, cfg.mu, cfg.rule))
            for L in cfg.grid_L for method in cfg.methods]
    # every (L, method) row bisects in lockstep: one stacked solve a round
    probe = dt_rates_probe([CertRequest(cfg.mu, L, h, bhi, blo, disc)
                            for L, _, disc, h, bhi, blo in grid], cfg.max_oracle_calls)
    found = bisect_rates(probe, len(grid), 0.05, 1.0, iters=cfg.bisect_iters,
                         scan=cfg.scan)
    rows = []
    for (L, method, disc, h, bhi, blo), result in zip(grid, found):
        rho, cert = result if result is not None else (float("nan"), None)
        status = "certified" if cert is not None else "uncertified"
        rows.append((float(L), cfg.mu, h, bhi, blo, method, rho, status))
        if cert is not None:
            with open(os.path.join(out, f"cert_{method}_L{L:g}.json"), "w") as fh:
                fh.write(cert.to_json())
        if cfg.dump_sdp and cert is not None:
            data = build_theorem2(dt_system(h, bhi, blo, disc), cfg.mu, L, rho)
            with open(os.path.join(out, f"sdp_{method}_L{L:g}.json"), "w") as fh:
                fh.write(problem_to_json(dt_problem(data)))
    csv_path = os.path.join(out, "sweep.csv")
    write_csv(csv_path, SWEEP_HEADER, rows)
    replot_sweep(csv_path, os.path.join(out, "sweep.svg"))
    print(f"certify: {len(rows)} rows -> {csv_path}")
    return 0


# ---------------------------------------------------------------------------
# quad


def quad_params(method: str, K: float, eps: float) -> AlgoParams:
    """Two-step parameters for continuous damping K at discretization eps."""
    beta = 1.0 - eps * K
    if not (0.0 <= beta <= 1.0):
        raise ValueError(f"K={K} outside the stable damping range for eps={eps}")
    variant = Variant.NES if "nes" in method else Variant.POL
    if method in ("polyak", "nesterov"):
        return AlgoParams(eps=eps, beta_lo=beta, beta_hi=beta, variant=variant)
    if method.startswith("hhb-"):
        return AlgoParams(eps=eps, beta_lo=0.0, beta_hi=beta, variant=variant)
    if method.startswith("hihb-"):
        return AlgoParams(eps=eps, beta_lo=beta, beta_hi=1.0, variant=variant)
    raise ValueError(f"unknown method {method!r}")


def tail_slope(traj: Trajectory, frac: float = 0.2) -> float:
    """Least-squares slope of log10(phi gap) per iteration over the tail."""
    gaps = traj.phi_gaps
    k0 = int((1.0 - frac) * (len(gaps) - 1))
    pts = [(k, math.log10(g)) for k, g in enumerate(gaps)
           if k >= k0 and np.isfinite(g) and g > 0.0]
    if len(pts) < 2:
        return float("nan")
    ks = np.array([p[0] for p in pts], dtype=float)
    ys = np.array([p[1] for p in pts])
    return float(np.polyfit(ks, ys, 1)[0])


def cmd_quad(cfg: ExperimentConfig) -> int:
    out = _prepare(cfg)
    eps = math.sqrt(cfg.h)
    rng = np.random.default_rng(cfg.seed)
    spec, model = gen_random_quadratic(cfg.n, cfg.cond, rng)
    q0 = rng.uniform(-100.0, 100.0, size=cfg.n)
    with open(os.path.join(out, "problem.json"), "w") as fh:
        fh.write(quad_to_json(spec))
    # every K x method run starts at q0, so they step together
    runs = [(K, method) for K in cfg.k_values for method in cfg.methods]
    trajs = run_many(model, [quad_params(method, K, eps) for K, method in runs],
                     q0, cfg.iters)
    width = len(cfg.methods)
    summary = []
    for i, K in enumerate(cfg.k_values):
        series = []
        for method, traj in zip(cfg.methods, trajs[i * width:(i + 1) * width]):
            traj.to_csv(os.path.join(out, f"traj_{method}_K{K:g}.csv"))
            try:
                nonmono = count_nonmonotone(traj)
            except ValueError:
                nonmono = -1
            summary.append((method, float(K), cfg.h, traj.phi_gaps[-1],
                            nonmono, tail_slope(traj), traj.status))
            series.append((method, list(range(len(traj))), traj.phi_gaps))
        write_chart(os.path.join(out, f"gaps_K{K:g}.svg"), series, log_y=True,
                    title=f"phi gap, K={K:g}", x_label="iteration",
                    y_label="phi gap")
    write_csv(os.path.join(out, "summary.csv"),
              ("method", "K", "h", "final_gap", "nonmonotone", "tail_slope",
               "status"), summary)
    print(f"quad: {len(summary)} runs -> {os.path.join(out, 'summary.csv')}")
    return 0


# ---------------------------------------------------------------------------
# tuning


def _golden(lo: float, hi: float, iters: int):
    """Golden-section search as a generator: yields each probe x, is sent
    f(x), and returns (x, f(x)) of the better final point."""
    a, b = float(lo), float(hi)
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc = yield c
    fd = yield d
    for _ in range(iters):
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = yield c
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = yield d
    return (c, fc) if fc <= fd else (d, fd)


def golden_min(f, lo: float, hi: float, iters: int):
    """Golden-section search; deterministic, returns (x, f(x))."""
    search = _golden(lo, hi, iters)
    x = next(search)
    while True:
        try:
            x = search.send(f(x))
        except StopIteration as done:
            return done.value


def tune_params(method: str, h: float, beta: float) -> AlgoParams:
    """Parameters for the tuned family; beta is ignored where not tuned."""
    eps = math.sqrt(h)
    if method == "gd":
        return AlgoParams(eps=eps, variant=Variant.GD)
    if method == "polyak":
        return AlgoParams(eps=eps, beta_lo=beta, beta_hi=beta, variant=Variant.POL)
    if method == "nesterov":
        return AlgoParams(eps=eps, variant=Variant.NES_SCHEDULE)
    if method == "hhb":
        return AlgoParams(eps=eps, beta_lo=0.0, beta_hi=beta, variant=Variant.POL)
    if method == "hihb":
        return AlgoParams(eps=eps, beta_lo=beta, beta_hi=1.0, variant=Variant.POL)
    raise ValueError(f"unknown method {method!r}")


def _drive(search, f):
    """Drive a `_golden` search whose f(x) is itself a generator of probes:
    yields what each f(x) yields and returns the search's (x, f(x))."""
    x = next(search)
    while True:
        fx = yield from f(x)
        try:
            x = search.send(fx)
        except StopIteration as done:
            return done.value


def _probe(h: float, beta: float):
    """Yield one (h, beta) probe; return the score sent back for it."""
    return (yield h, beta)


def _tune_search(method: str, h_lo: float, h_hi: float, outer_iters: int,
                 inner_iters: int):
    """One method's nested interval search as a generator: stepsize outer
    (log scale), momentum inner. Yields (h, beta) probes, is sent each
    probe's score, and returns the best (h, beta, score) it probed."""
    has_beta = method in ("polyak", "hhb", "hihb")
    best = (h_lo, None, float("inf"))

    def score_h(lh: float):
        nonlocal best
        h = 10.0 ** lh
        if has_beta:
            beta, val = yield from _drive(_golden(0.0, 0.995, inner_iters),
                                          lambda b: _probe(h, b))
        else:
            beta, val = None, (yield from _probe(h, 0.0))
        if val < best[2]:
            best = (h, beta, val)
        return val

    yield from _drive(_golden(math.log10(h_lo), math.log10(h_hi), outer_iters),
                      score_h)
    return best


def _scores(model: ObjectiveModel, params: list[AlgoParams], q0,
            budget: int) -> list[float]:
    """phi after `budget` iterations of each run, inf for a run that
    diverges or meets a non-finite gradient. The runs step as one
    run_many; if that raises, each run is scored alone, so only the run
    that raised scores inf."""
    try:
        trajs = run_many(model, params, q0, budget)
    except FloatingPointError:
        if len(params) == 1:
            return [float("inf")]
        return [score for p in params for score in _scores(model, [p], q0, budget)]
    return [t.phi if np.isfinite(t.phi) else float("inf") for t in trajs]


def tune_method(methods: Sequence[str], model: ObjectiveModel, q0, budget: int,
                h_lo: float, h_hi: float, outer_iters: int = 16,
                inner_iters: int = 12) -> list[dict]:
    """Tune each of methods by its own nested interval search, in lockstep.

    Each search minimizes phi after `budget` iterations; phi and the
    phi-gap have the same argmin, so no reference optimum is needed to
    tune. The searches are independent, so every round advances each
    live search by one probe and scores the round's probes with one
    run_many call (`_scores`). A search sees the scores it would see
    alone, so it makes the same picks. Returns one dict per method, in
    order.
    """
    searches = [_tune_search(m, h_lo, h_hi, outer_iters, inner_iters)
                for m in methods]
    probes = [next(search) for search in searches]
    found: list = [None] * len(searches)
    live = list(range(len(searches)))
    while live:
        scores = _scores(model, [tune_params(methods[i], *probes[i]) for i in live],
                         q0, budget)
        for i, score in zip(live, scores):
            try:
                probes[i] = searches[i].send(score)
            except StopIteration as done:
                found[i] = done.value
        live = [i for i in live if found[i] is None]
    return [{"method": m, "h": h, "beta": beta, "phi_at_budget": phi,
             "budget": int(budget)} for m, (h, beta, phi) in zip(methods, found)]


def cmd_tune(cfg: ExperimentConfig) -> int:
    out = _prepare(cfg)
    rng = np.random.default_rng(cfg.seed)
    if cfg.objective == "quad":
        spec, model = gen_random_quadratic(cfg.n, cfg.cond, rng)
        q0 = rng.uniform(-100.0, 100.0, size=cfg.n)
        obj = {"objective": "quad", "n": int(cfg.n), "cond": cfg.cond}
    elif cfg.objective == "logreg":
        spec = gen_logistic_dataset(cfg.n, cfg.m, cfg.seed)
        model = logistic_model(spec)
        q0 = logreg_start(cfg.seed, cfg.n)
        obj = {"objective": "logreg", "n": int(cfg.n), "m": int(cfg.m)}
    else:
        raise ValueError("--objective must be quad or logreg")
    lhat = model.lipschitz
    h_lo = cfg.h_lo if cfg.h_lo is not None else 1e-3 / lhat
    h_hi = cfg.h_hi if cfg.h_hi is not None else 10.0 / lhat
    result, = tune_method([cfg.method], model, q0, cfg.budget, h_lo, h_hi)
    result.update(obj)
    result["seed"] = int(cfg.seed)
    path = os.path.join(out, "tuned.json")
    with open(path, "w") as fh:
        fh.write(json.dumps(result, sort_keys=True, indent=2) + "\n")
    print(f"tune: {cfg.method} h={result['h']:.6g} -> {path}")
    return 0


# ---------------------------------------------------------------------------
# logreg


def logreg_start(seed: int, n: int):
    """Benchmark start, shared by tuning and the benchmark itself.

    Drawn far from the basin so the momentum methods separate before the
    iterates reach the flat region around the optimum; from the origin
    every method converges in a handful of steps and the orderings are
    ties. The [seed, 1] key keeps the stream independent of the dataset
    stream."""
    return np.random.default_rng([seed, 1]).uniform(-5.0, 5.0, size=n)


def logreg_reference(model: ObjectiveModel, h: float, max_iter: int,
                     tol: float):
    """Long plain gradient-descent run; returns (q*, phi*, iters, |grad|)."""
    q = np.zeros(model.dim)
    it = 0
    phi, g = model.value_grad(q)
    gn = float(np.linalg.norm(g))
    while gn > tol and it < max_iter:
        q = q - h * g
        it += 1
        phi, g = model.value_grad(q)
        gn = float(np.linalg.norm(g))
    return q, float(phi), it, gn


def cmd_logreg(cfg: ExperimentConfig) -> int:
    out = _prepare(cfg)
    spec = gen_logistic_dataset(cfg.n, cfg.m, cfg.seed)
    lhat = logistic_lipschitz(spec)
    base = logistic_model(spec)
    qref, phi_star, ref_iters, ref_gn = logreg_reference(
        base, 1.0 / lhat, cfg.ref_max_iter, cfg.ref_tol)
    if ref_gn > cfg.ref_tol:
        raise RuntimeError(
            f"reference run did not converge: |grad| = {ref_gn:.3e} "
            f"after {ref_iters} iterations")
    model = dataclasses.replace(base, minimizer=qref, min_value=phi_star)
    with open(os.path.join(out, "reference.json"), "w") as fh:
        fh.write(json.dumps({"phi_star": phi_star, "iterations": int(ref_iters),
                             "grad_norm": ref_gn, "lipschitz": float(lhat)},
                            sort_keys=True, indent=2) + "\n")
    q0 = logreg_start(cfg.seed, cfg.n)
    h_lo = cfg.h_lo if cfg.h_lo is not None else 1e-3 / lhat
    h_hi = cfg.h_hi if cfg.h_hi is not None else 10.0 / lhat
    tuned = tune_method(cfg.methods, model, q0, cfg.budget, h_lo, h_hi)
    # the final runs share q0 as well, so they step together
    trajs = run_many(model, [tune_params(t["method"], t["h"], t["beta"] or 0.0)
                             for t in tuned], q0, cfg.iters)
    tuned_all = {}
    series = []
    rows = []
    for t, traj in zip(tuned, trajs):
        method = t["method"]
        tuned_all[method] = t
        traj.to_csv(os.path.join(out, f"traj_{method}.csv"))
        reach = traj.iterations_to_gap(GAP_TARGET)
        rows.append((method, t["h"], t["beta"], traj.phi_gaps[-1],
                     -1 if reach is None else reach, traj.status))
        series.append((method, list(range(len(traj))), traj.phi_gaps))
    with open(os.path.join(out, "tuned.json"), "w") as fh:
        fh.write(json.dumps(tuned_all, sort_keys=True, indent=2) + "\n")
    write_csv(os.path.join(out, "summary.csv"),
              ("method", "h", "beta", "final_gap", "iters_to_gap", "status"),
              rows)
    write_chart(os.path.join(out, "gaps.svg"), series, log_y=True,
                title="logistic regression phi gap", x_label="iteration",
                y_label="phi gap")
    print(f"logreg: {len(rows)} methods -> {os.path.join(out, 'summary.csv')}")
    return 0


# ---------------------------------------------------------------------------
# simulate


def _simulate_model(cfg: ExperimentConfig):
    if cfg.model == "file":
        with open(cfg.model_file) as fh:
            return quadratic_model(quad_from_json(fh.read()))
    if cfg.model == "gen":
        _, model = gen_random_quadratic(cfg.n if cfg.n is not None else 2,
                                        cfg.cond, cfg.seed)
        return model
    spec = QuadraticSpec(Q=np.array([[cfg.curv]]), b=np.zeros(1))
    return quadratic_model(spec)


def cmd_simulate(cfg: ExperimentConfig) -> int:
    out = _prepare(cfg)
    model = _simulate_model(cfg)
    q0 = np.ones(model.dim) if cfg.q0 is None else np.array(cfg.q0, dtype=float)
    p0 = np.zeros(model.dim) if cfg.p0 is None else np.array(cfg.p0, dtype=float)
    if q0.shape != (model.dim,) or p0.shape != (model.dim,):
        raise ValueError(f"q0/p0 must have the model dimension {model.dim}")
    K_lo, K_hi = cfg.damping_pair()
    params = HybridParams(
        K=cfg.K, K_lo=K_lo, K_hi=K_hi,
        T_min=cfg.t_min if cfg.t_min is not None else default_dwell(model.lipschitz),
        step=cfg.dt)
    z0 = HybridState(q=q0, p=p0, tau=0.0)
    integrate = {"hb": integrate_hb, "hhb": integrate_hhb,
                 "hihb": integrate_hihb}[cfg.mode]
    arc = integrate(model, params, z0, cfg.t_end)
    arc.to_csv(os.path.join(out, "arc.csv"))
    with open(os.path.join(out, "jumps.json"), "w") as fh:
        fh.write(arc.jumps_json() + "\n")
    write_chart(os.path.join(out, "energy.svg"),
                [(cfg.mode, list(arc.t), list(arc.energy))], log_y=True,
                title="energy along the arc", x_label="t", y_label="energy")
    print(f"simulate: {len(arc)} samples, {len(arc.jumps)} jumps -> "
          f"{os.path.join(out, 'arc.csv')}")
    return 0


# ---------------------------------------------------------------------------
# argument handling


def _floats(text: str) -> tuple:
    return tuple(float(v) for v in text.split(",") if v)


def _names(text: str) -> tuple:
    return tuple(v.strip() for v in text.split(",") if v.strip())


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="hbreset",
        description="reset heavy-ball benchmarks, certificates and simulation")
    sub = ap.add_subparsers(dest="subcommand", required=True)

    def common(p):
        p.add_argument("--seed", type=int, help="64-bit experiment seed")
        p.add_argument("--out", help="output directory (default run-out)")
        p.add_argument("--config", dest="config_file",
                       help="JSON file of config fields; flags override")

    p = sub.add_parser("certify", help="certified rate sweep")
    common(p)
    p.add_argument("--methods", type=_names)
    p.add_argument("--grid-L", dest="grid_L", type=_floats)
    p.add_argument("--rule", choices=("mistuned", "optimal"))
    p.add_argument("--mu", type=float)
    p.add_argument("--bisect-iters", dest="bisect_iters", type=int)
    p.add_argument("--scan", action=argparse.BooleanOptionalAction, default=None)
    p.add_argument("--max-oracle-calls", dest="max_oracle_calls", type=int)
    p.add_argument("--dump-sdp", dest="dump_sdp",
                   action=argparse.BooleanOptionalAction, default=None)

    p = sub.add_parser("quad", help="random ill-conditioned quadratic benchmark")
    common(p)
    p.add_argument("--methods", type=_names)
    p.add_argument("--n", type=int)
    p.add_argument("--cond", type=float)
    p.add_argument("--h", type=float)
    p.add_argument("--K", dest="k_values", type=_floats)
    p.add_argument("--iters", type=int)

    p = sub.add_parser("logreg", help="logistic regression benchmark")
    common(p)
    p.add_argument("--methods", type=_names)
    p.add_argument("--n", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--iters", type=int)
    p.add_argument("--budget", type=int)
    p.add_argument("--h-lo", dest="h_lo", type=float)
    p.add_argument("--h-hi", dest="h_hi", type=float)
    p.add_argument("--ref-max-iter", dest="ref_max_iter", type=int)
    p.add_argument("--ref-tol", dest="ref_tol", type=float)

    p = sub.add_parser("tune", help="tune one method on one objective")
    common(p)
    p.add_argument("--method", required=True, choices=LOGREG_METHODS)
    p.add_argument("--objective", choices=("quad", "logreg"))
    p.add_argument("--n", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--cond", type=float)
    p.add_argument("--budget", type=int)
    p.add_argument("--h-lo", dest="h_lo", type=float)
    p.add_argument("--h-hi", dest="h_hi", type=float)

    p = sub.add_parser("simulate", help="continuous-time hybrid arc")
    common(p)
    p.add_argument("--mode", choices=("hb", "hhb", "hihb"))
    p.add_argument("--model", choices=("scalar", "file", "gen"))
    p.add_argument("--model-file", dest="model_file")
    p.add_argument("--curv", type=float)
    p.add_argument("--n", type=int)
    p.add_argument("--cond", type=float)
    p.add_argument("--K", dest="K", type=float)
    p.add_argument("--K-lo", dest="K_lo", type=float)
    p.add_argument("--K-hi", dest="K_hi", type=float)
    p.add_argument("--t-min", dest="t_min", type=float)
    p.add_argument("--dt", type=float)
    p.add_argument("--t-end", dest="t_end", type=float)
    p.add_argument("--q0", type=_floats)
    p.add_argument("--p0", type=_floats)
    return ap


def config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    cfg = ExperimentConfig(subcommand=args.subcommand)
    fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
    file_path = getattr(args, "config_file", None)
    if file_path:
        with open(file_path) as fh:
            overrides = json.load(fh)
        for key, value in overrides.items():
            if key in ("subcommand", "out"):
                continue
            if key not in fields:
                raise ValueError(f"unknown config field {key!r}")
            if isinstance(value, list):
                value = tuple(value)
            setattr(cfg, key, value)
    for key, value in vars(args).items():
        if key in ("subcommand", "config_file") or value is None:
            continue
        if key in fields:
            setattr(cfg, key, value)
    cfg = cfg.with_defaults()
    cfg.validate()
    return cfg


COMMANDS = {"certify": cmd_certify, "quad": cmd_quad, "logreg": cmd_logreg,
            "tune": cmd_tune, "simulate": cmd_simulate}


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    cfg = config_from_args(args)
    return COMMANDS[cfg.subcommand](cfg)


if __name__ == "__main__":
    raise SystemExit(main())
