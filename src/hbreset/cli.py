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
from typing import Callable, Optional, Sequence

import numpy as np

# run is not called here; bench/tracing.py patches it by this name
from .discrete import (STATUS_DIVERGED, AlgoParams, Trajectory, Variant,  # noqa: F401
                       count_nonmonotone, run, run_many)
from .hybrid import (HybridParams, HybridState, default_dwell, integrate_hb,
                     integrate_hhb, integrate_hihb)
# bisect_rate is not called here; bench/tracing.py patches it by this name
from .lmi import (NES, POL, CertRequest, bisect_rate, bisect_rates,  # noqa: F401
                  dt_problem, dt_rates_probe)
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


def _floats(text: str) -> tuple:
    return tuple(float(v) for v in text.split(",") if v)


def _names(text: str) -> tuple:
    return tuple(v.strip() for v in text.split(",") if v.strip())


def _quadratic(cfg: "ExperimentConfig") -> bool:
    """Whether the run draws a random quadratic."""
    return (cfg.subcommand == "quad" or (cfg.subcommand == "tune" and cfg.objective == "quad")
            or (cfg.subcommand == "simulate" and cfg.model == "gen"))


def _logistic(cfg: "ExperimentConfig") -> bool:
    """Whether the run draws a logistic regression dataset."""
    return cfg.subcommand == "logreg" or (cfg.subcommand == "tune" and cfg.objective == "logreg")


def _per(spec, cfg: "ExperimentConfig"):
    """A fill or choices for cfg: a dict has one per subcommand, a callable takes cfg."""
    spec = spec.get(cfg.subcommand) if isinstance(spec, dict) else spec
    return spec(cfg) if callable(spec) else spec


# bounds: (test, what the value or each entry must be)
_FINITE = (math.isfinite, "be finite")
_POSITIVE = (lambda v: math.isfinite(v) and v > 0.0, "be finite and positive")
_NONNEGATIVE = (lambda v: v >= 0, "be nonnegative")
_AT_LEAST_1 = (lambda v: v >= 1, "be at least 1")


@dataclass(frozen=True)
class Knob:
    """A config field's flag, parser (int, float, bool, str, _floats or
    _names) and subcommands. `fill` (per subcommand, see `_per`) replaces
    an unset (None) value; `choices` (likewise) and `bounds` limit a set
    value, or each entry of a list, where `used(cfg)` holds too. `labels`
    entries name files: there must be some, with distinct labels."""

    flag: str
    parse: Callable
    subcommands: tuple
    fill: object = None
    choices: object = None
    bounds: Optional[tuple] = None
    used: Callable = lambda cfg: True
    labels: bool = False
    required: bool = False
    help: Optional[str] = None

    def check(self, value, cfg: "ExperimentConfig") -> None:
        """Raise ValueError, naming the flag, unless value is set and allowed."""
        if value is None:
            raise ValueError(f"{self.flag} is required")
        listed = self.parse in (_floats, _names)
        entries = value if listed else (value,)
        what = f"{self.flag} entries" if listed else self.flag
        choices = _per(self.choices, cfg)
        bad = [v for v in entries if choices is not None and v not in choices]
        if bad:
            raise ValueError(f"{what} must be one of {', '.join(choices)}, got {bad[0]!r}")
        if self.bounds is not None and not all(map(self.bounds[0], entries)):
            raise ValueError(f"{what} must {self.bounds[1]}, got {value}")
        if self.labels:
            labels = [f"{v:g}" if isinstance(v, float) else v for v in value]
            if not labels or len(set(labels)) < len(labels):
                raise ValueError(f"{self.flag} must give one or more entries with distinct "
                                 f"file labels, got {value}")


def _knob(default, flag: str, parse: Callable, subcommands: str, **spec):
    """A dataclass field with its Knob; subcommands is space-separated."""
    knob = Knob(flag, parse, tuple(subcommands.split()), **spec)
    return dataclasses.field(default=default, metadata={"knob": knob})


_ALL = "certify quad logreg tune simulate"
_METHODS = {"certify": CERTIFY_METHODS, "quad": QUAD_METHODS, "logreg": LOGREG_METHODS}


@dataclass
class ExperimentConfig:
    """Flat bag of every knob; per-subcommand defaults fill the None fields.
    Each field but subcommand declares its flag and checks (see Knob)."""

    subcommand: str
    seed: Optional[int] = _knob(None, "--seed", int, _ALL, help="64-bit experiment seed",
                                bounds=(lambda v: 0 <= v < 2 ** 64, "fit in 64 bits"))
    out: str = _knob("run-out", "--out", str, _ALL, help="output directory (default run-out)")
    methods: Optional[tuple] = _knob(None, "--methods", _names, "certify quad logreg",
                                     fill=_METHODS, choices=_METHODS, labels=True)
    grid_L: tuple = _knob((1.0, 10.0, 25.0, 50.0, 75.0, 100.0), "--grid-L", _floats, "certify",
                          bounds=_FINITE, labels=True)
    rule: str = _knob("mistuned", "--rule", str, "certify", choices=("mistuned", "optimal"))
    mu: float = _knob(1.0, "--mu", float, "certify", bounds=_POSITIVE)
    bisect_iters: int = _knob(20, "--bisect-iters", int, "certify", bounds=_NONNEGATIVE)
    scan: bool = _knob(False, "--scan", bool, "certify")
    max_oracle_calls: int = _knob(200, "--max-oracle-calls", int, "certify", bounds=_AT_LEAST_1)
    dump_sdp: bool = _knob(False, "--dump-sdp", bool, "certify")
    n: Optional[int] = _knob(None, "--n", int, "quad logreg tune simulate", fill={
        "quad": 50, "logreg": 20, "tune": lambda cfg: 20 if _logistic(cfg) else 10})
    m: int = _knob(1000, "--m", int, "logreg tune", bounds=_AT_LEAST_1, used=_logistic)
    cond: float = _knob(1e3, "--cond", float, "quad tune simulate", used=_quadratic, bounds=(
        lambda v: math.isfinite(v) and v >= 1.0, "be finite and at least 1"))
    h: Optional[float] = _knob(None, "--h", float, "quad", fill=1e-4, bounds=_POSITIVE)
    k_values: tuple = _knob((1.97, 0.5, 1.0, 1.5), "--K", _floats, "quad", bounds=_FINITE,
                            labels=True)
    iters: Optional[int] = _knob(None, "--iters", int, "quad logreg", bounds=_NONNEGATIVE,
                                 fill={"quad": 5000, "logreg": 3000})
    method: Optional[str] = _knob(None, "--method", str, "tune", choices=LOGREG_METHODS,
                                  required=True)
    objective: str = _knob("quad", "--objective", str, "tune", choices=("quad", "logreg"))
    # resolved per objective: short enough that near-optimal settings
    # have not all converged by the budget, which keeps the tuning
    # objective discriminating
    budget: Optional[int] = _knob(None, "--budget", int, "logreg tune", bounds=_AT_LEAST_1,
                                  fill=lambda cfg: 15 if _logistic(cfg) else 60)
    # the stepsize search runs over [log10 h_lo, log10 h_hi]
    h_lo: Optional[float] = _knob(None, "--h-lo", float, "logreg tune", bounds=_POSITIVE)
    h_hi: Optional[float] = _knob(None, "--h-hi", float, "logreg tune", bounds=_POSITIVE)
    ref_max_iter: int = _knob(1000000, "--ref-max-iter", int, "logreg", bounds=_AT_LEAST_1)
    ref_tol: float = _knob(1e-10, "--ref-tol", float, "logreg", bounds=_POSITIVE)
    mode: str = _knob("hhb", "--mode", str, "simulate", choices=("hb", "hhb", "hihb"))
    model: str = _knob("scalar", "--model", str, "simulate", choices=("scalar", "file", "gen"))
    model_file: Optional[str] = _knob(None, "--model-file", str, "simulate")
    curv: float = _knob(1.0, "--curv", float, "simulate", bounds=_POSITIVE,
                        used=lambda cfg: cfg.model == "scalar")
    K: float = _knob(1.0, "--K", float, "simulate", bounds=(
        lambda v: math.isfinite(v) and v >= 0.0, "be finite and nonnegative"))
    K_lo: Optional[float] = _knob(None, "--K-lo", float, "simulate", bounds=_POSITIVE)
    K_hi: Optional[float] = _knob(None, "--K-hi", float, "simulate", bounds=_POSITIVE)
    t_min: Optional[float] = _knob(None, "--t-min", float, "simulate", bounds=_POSITIVE)
    dt: float = _knob(1e-3, "--dt", float, "simulate", bounds=_POSITIVE)
    t_end: float = _knob(10.0, "--t-end", float, "simulate", bounds=_POSITIVE)
    q0: Optional[tuple] = _knob(None, "--q0", _floats, "simulate", bounds=_FINITE)
    p0: Optional[tuple] = _knob(None, "--p0", _floats, "simulate", bounds=_FINITE)

    def with_defaults(self) -> "ExperimentConfig":
        """Fill per-subcommand defaults so the dumped config is complete."""
        cfg = dataclasses.replace(self)
        for name, knob in KNOBS.items():
            if getattr(cfg, name) is None and cfg.subcommand in knob.subcommands:
                setattr(cfg, name, _per(knob.fill, cfg))
        return cfg

    def validate(self) -> None:
        """Each field's checks where it is used, then the cross-field rules."""
        for name, knob in KNOBS.items():
            value = getattr(self, name)
            used = self.subcommand in knob.subcommands and knob.used(self)
            if used and (value is not None or knob.required):
                knob.check(value, self)
        for rule in CROSS_FIELD_RULES:
            rule(self)

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


KNOBS = {f.name: f.metadata["knob"] for f in dataclasses.fields(ExperimentConfig) if f.metadata}


def _grid_fits_mu(cfg: ExperimentConfig) -> None:
    """certify: each L is at least mu and gives the rule a nonzero stepsize."""
    for L in cfg.grid_L if cfg.subcommand == "certify" else ():
        if L < cfg.mu:
            raise ValueError(f"--grid-L entries must be at least --mu {cfg.mu}, got {cfg.grid_L}")
        try:  # the rule's 2L or (sqrt L + sqrt mu)^2 may overflow
            h = min(certify_tuning(m, L, cfg.mu, cfg.rule)[1]
                    for m in cfg.methods or CERTIFY_METHODS)
        except OverflowError:
            h = 0.0
        if h == 0.0:
            raise ValueError(f"--grid-L entry {L:g} overflows h to 0 at --mu {cfg.mu:g}")


def _random_problem_fits(cfg: ExperimentConfig) -> None:
    """A randomized run needs --seed; a random quadratic pins its two
    extreme eigenvalues, so n >= 2, and a logistic dataset needs n >= 1."""
    if not (_quadratic(cfg) or _logistic(cfg)):
        return
    if cfg.seed is None:
        raise ValueError("--seed is required for randomized experiments")
    least = 2 if _quadratic(cfg) else 1
    if cfg.n is not None and cfg.n < least:
        raise ValueError(f"--n must be at least {least}, got {cfg.n}")


def _h_range_ordered(cfg: ExperimentConfig) -> None:
    if (cfg.subcommand in ("logreg", "tune") and None not in (cfg.h_lo, cfg.h_hi)
            and cfg.h_lo > cfg.h_hi):
        raise ValueError(f"--h-lo must not exceed --h-hi, got {cfg.h_lo} > {cfg.h_hi}")


def _quad_damping_in_unit(cfg: ExperimentConfig) -> None:
    # quad_params' damping beta = 1 - sqrt(h)*K must lie in [0, 1]
    if cfg.subcommand != "quad" or cfg.h is None:
        return
    bad = [K for K in cfg.k_values if not 0.0 <= 1.0 - math.sqrt(cfg.h) * K <= 1.0]
    if bad:
        raise ValueError(f"--K entries need 1 - sqrt(h)*K in [0, 1] at --h {cfg.h:g}, got {bad}")


def _simulate_inputs_given(cfg: ExperimentConfig) -> None:
    if cfg.subcommand != "simulate":
        return
    if cfg.model == "file" and not cfg.model_file:
        raise ValueError("--model-file required with --model file")
    K_lo, K_hi = cfg.damping_pair()
    if K_lo > K_hi:
        raise ValueError(f"--K-lo must not exceed --K-hi, got {K_lo} > {K_hi}")


CROSS_FIELD_RULES = (_random_problem_fits, _grid_fits_mu, _h_range_ordered,
                     _quad_damping_in_unit, _simulate_inputs_given)


def _stepsize_range(cfg: ExperimentConfig, lipschitz: float) -> tuple[float, float]:
    """The tuner's stepsize interval: --h-lo and --h-hi, where an unset end
    defaults to 1e-3 / L or 10 / L for the objective's smoothness L."""
    h_lo = cfg.h_lo if cfg.h_lo is not None else 1e-3 / lipschitz
    h_hi = cfg.h_hi if cfg.h_hi is not None else 10.0 / lipschitz
    # validate() rejects a reversed pair of set ends, so here one is a default
    if h_lo > h_hi:
        raise ValueError(f"--h-lo must not exceed --h-hi, got {h_lo:g} > {h_hi:g} "
                         f"(an unset --h-lo is 1e-3/L, an unset --h-hi 10/L)")
    return h_lo, h_hi


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
    by_method: dict = {}  # in order of first appearance
    for row in rows:
        xs, ys = by_method.setdefault(row["method"], ([], []))
        if math.isfinite(row["rho"]):
            xs.append(row["L"])
            ys.append(row["rho"])
    series = [(name, xs, ys) for name, (xs, ys) in by_method.items()]
    write_chart(svg_path, series, title="certified contraction rate",
                x_label="L / mu", y_label="rho")


def cmd_certify(cfg: ExperimentConfig) -> int:
    out = _prepare(cfg)
    grid = [(L, method, *certify_tuning(method, L, cfg.mu, cfg.rule))
            for L in cfg.grid_L for method in cfg.methods]
    # every (L, method) row bisects in one stacked solve, holding up to
    # LOOKAHEAD probes of its path at once (fewer on wide grids)
    probe = dt_rates_probe([CertRequest(cfg.mu, L, h, bhi, blo, disc)
                            for L, _, disc, h, bhi, blo in grid], cfg.max_oracle_calls)
    found = bisect_rates(probe, len(grid), 0.05, 1.0, iters=cfg.bisect_iters,
                         scan=cfg.scan)
    rows = []
    for (L, method, disc, h, bhi, blo), compiled, result in zip(grid, probe.rows, found):
        rho, cert = result if result is not None else (float("nan"), None)
        status = "certified" if cert is not None else "uncertified"
        rows.append((float(L), cfg.mu, h, bhi, blo, method, rho, status))
        if cert is not None:
            with open(os.path.join(out, f"cert_{method}_L{L:g}.json"), "w") as fh:
                fh.write(cert.to_json())
        if cfg.dump_sdp and cert is not None:
            with open(os.path.join(out, f"sdp_{method}_L{L:g}.json"), "w") as fh:
                fh.write(problem_to_json(dt_problem(dataclasses.replace(compiled, rho=rho))))
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
    gaps = np.asarray(traj.phi_gaps, dtype=float)
    k0 = max(int((1.0 - frac) * (len(gaps) - 1)), 0)
    tail = gaps[k0:]
    keep = np.isfinite(tail) & (tail > 0.0)
    if np.count_nonzero(keep) < 2:
        return float("nan")
    ks = (k0 + np.flatnonzero(keep)).astype(float)
    # math.log10, not np.log10, which can differ from libm in the last bit
    ys = np.fromiter(map(math.log10, tail[keep].tolist()), float, len(ks))
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
            series.append((method, np.arange(len(traj)), traj.phi_gaps))
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
            budget: int) -> list[tuple[float, bool]]:
    """(phi after `budget` iterations, whether the run diverged) for each
    run; phi is inf for a run that diverges to a non-finite value or meets
    a non-finite gradient. The runs step as one run_many; if that raises,
    each run is scored alone, so only the run that raised scores inf.
    Only those are read, so run_many evaluates phi only where a run
    stops or may have diverged (values="last"), with the same scores."""
    try:
        trajs = run_many(model, params, q0, budget, values="last")
    except FloatingPointError:
        if len(params) == 1:
            return [(float("inf"), True)]
        return [score for p in params for score in _scores(model, [p], q0, budget)]
    return [(t.phi if np.isfinite(t.phi) else float("inf"), t.status == STATUS_DIVERGED)
            for t in trajs]


def tune_method(methods: Sequence[str], model: ObjectiveModel, q0, budget: int,
                h_lo: float, h_hi: float, outer_iters: int = 16,
                inner_iters: int = 12) -> list[dict]:
    """Tune each of methods by its own nested interval search, in lockstep.

    Each search minimizes phi after `budget` iterations; phi and the
    phi-gap have the same argmin, so no reference optimum is needed to
    tune. The searches are independent, so every round advances each
    live search by one probe and scores the round's probes with one
    run_many call (`_scores`), which evaluates phi only where it reads
    it. A search sees the scores it would see alone, so it makes the
    same picks. Returns one dict per method, in order; raises
    ValueError when a method's pick diverged.
    """
    searches = [_tune_search(m, h_lo, h_hi, outer_iters, inner_iters)
                for m in methods]
    probes = [next(search) for search in searches]
    found: list = [None] * len(searches)
    stable = [False] * len(searches)
    live = list(range(len(searches)))
    while live:
        scored = _scores(model, [tune_params(methods[i], *probes[i]) for i in live],
                         q0, budget)
        for i, (score, diverged) in zip(live, scored):
            stable[i] = stable[i] or not diverged
            try:
                probes[i] = searches[i].send(score)
            except StopIteration as done:
                found[i] = done.value
        live = [i for i in live if found[i] is None]
    # a diverged run scores above every run that did not diverge, so a
    # search picks a diverged run exactly when all of its runs diverged
    for m, ok in zip(methods, stable):
        if not ok:
            raise ValueError(f"every {m} run diverged within {budget} iterations on "
                             f"[{h_lo:g}, {h_hi:g}]; lower --h-lo and --h-hi")
    return [{"method": m, "h": h, "beta": beta, "phi_at_budget": phi,
             "budget": int(budget)} for m, (h, beta, phi) in zip(methods, found)]


def cmd_tune(cfg: ExperimentConfig) -> int:
    rng = np.random.default_rng(cfg.seed)
    if cfg.objective == "quad":
        _, model = gen_random_quadratic(cfg.n, cfg.cond, rng)
        q0 = rng.uniform(-100.0, 100.0, size=cfg.n)
        obj = {"objective": "quad", "n": int(cfg.n), "cond": cfg.cond}
    else:
        model = logistic_model(gen_logistic_dataset(cfg.n, cfg.m, cfg.seed))
        q0 = logreg_start(cfg.seed, cfg.n)
        obj = {"objective": "logreg", "n": int(cfg.n), "m": int(cfg.m)}
    h_lo, h_hi = _stepsize_range(cfg, model.lipschitz)
    result, = tune_method([cfg.method], model, q0, cfg.budget, h_lo, h_hi)
    # only a run that tuned writes anything
    out = _prepare(cfg)
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
    spec = gen_logistic_dataset(cfg.n, cfg.m, cfg.seed)
    lhat = logistic_lipschitz(spec)
    h_lo, h_hi = _stepsize_range(cfg, lhat)
    base = logistic_model(spec)
    qref, phi_star, ref_iters, ref_gn = logreg_reference(
        base, 1.0 / lhat, cfg.ref_max_iter, cfg.ref_tol)
    if ref_gn > cfg.ref_tol:
        raise RuntimeError(
            f"reference run did not converge: |grad| = {ref_gn:.3e} "
            f"after {ref_iters} iterations")
    model = dataclasses.replace(base, minimizer=qref, min_value=phi_star)
    q0 = logreg_start(cfg.seed, cfg.n)
    tuned = tune_method(cfg.methods, model, q0, cfg.budget, h_lo, h_hi)
    # only a run whose reference converged and whose picks held writes anything
    out = _prepare(cfg)
    with open(os.path.join(out, "reference.json"), "w") as fh:
        fh.write(json.dumps({"phi_star": phi_star, "iterations": int(ref_iters),
                             "grad_norm": ref_gn, "lipschitz": float(lhat)},
                            sort_keys=True, indent=2) + "\n")
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
        series.append((method, np.arange(len(traj)), traj.phi_gaps))
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
        try:
            with open(cfg.model_file) as fh:
                return quadratic_model(quad_from_json(fh.read()))
        except (OSError, KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"--model-file {cfg.model_file!r} is not a readable "
                             f"quadratic model: {exc}") from exc
    if cfg.model == "gen":
        _, model = gen_random_quadratic(cfg.n if cfg.n is not None else 2,
                                        cfg.cond, cfg.seed)
        return model
    spec = QuadraticSpec(Q=np.array([[cfg.curv]]), b=np.zeros(1))
    return quadratic_model(spec)


def _check_rk4_step(cfg: ExperimentConfig, model: ObjectiveModel) -> None:
    """Reject a --dt at which RK4 grows a mode e, Re e <= 0, of the flow
    q'' = -lam q - K q' (lam an eigenvalue of the Hessian, K a damping
    --mode uses): |R(dt e)| > 1 + 1e-12, R(z) = 1 + z + ... + z^4/24."""
    K = np.array(cfg.damping_pair() if cfg.mode == "hihb" else [cfg.K])[:, None]
    root = np.sqrt(K * K - 4.0 * np.linalg.eigvalsh(model.hessian) + 0j)
    z = cfg.dt * np.concatenate([-K + root, -K - root]).ravel() / 2.0
    growth = np.abs(np.polyval([1 / 24, 1 / 6, 0.5, 1.0, 1.0], z[z.real <= 0.0]))
    growth = growth.max(initial=0.0)
    if growth > 1.0 + 1e-12:
        raise ValueError(f"--dt {cfg.dt} is past RK4's stability limit: a step grows "
                         f"a mode of the flow by a factor {growth:.6g}")


def cmd_simulate(cfg: ExperimentConfig) -> int:
    # the model, the step and the start point are checked before writing
    model = _simulate_model(cfg)
    _check_rk4_step(cfg, model)
    q0 = np.ones(model.dim) if cfg.q0 is None else np.array(cfg.q0, dtype=float)
    p0 = np.zeros(model.dim) if cfg.p0 is None else np.array(cfg.p0, dtype=float)
    for flag, point in (("--q0", q0), ("--p0", p0)):
        if point.shape != (model.dim,):
            raise ValueError(f"{flag} must have the model dimension {model.dim}, "
                             f"got {point.size} entries")
    out = _prepare(cfg)
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
                [(cfg.mode, arc.t, arc.energy)], log_y=True,
                title="energy along the arc", x_label="t", y_label="energy")
    print(f"simulate: {len(arc)} samples, {len(arc.jumps)} jumps -> "
          f"{os.path.join(out, 'arc.csv')}")
    return 0


# ---------------------------------------------------------------------------
# argument handling


# the JSON types a --config value may have, by the field's parser
_JSON = {int: ((int,), "an integer"), float: ((int, float), "a number"),
         bool: ((bool,), "true or false"), str: ((str,), "a string"),
         _floats: ((list,), "a list of numbers"), _names: ((list,), "a list of strings")}


def _from_json(parse: Callable, value):
    """A --config value as the flag's parser gives it; TypeError unless JSON of its type."""
    if type(value) not in _JSON[parse][0]:
        raise TypeError
    if parse in (_floats, _names):
        return tuple(_from_json(float if parse is _floats else str, v) for v in value)
    return float(value) if parse is float else value


def _read_config(path: str) -> dict:
    """The fields a --config file sets, each coerced by its field's parser;
    subcommand and out are ignored."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except ValueError as exc:
        raise ValueError(f"--config {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValueError(f"--config {path!r} must hold a JSON object, got {type(doc).__name__}")
    fields = {name: value for name, value in doc.items() if name not in ("subcommand", "out")}
    for name, value in fields.items():
        knob = KNOBS.get(name)
        if knob is None:
            raise ValueError(f"unknown config field {name!r} in --config {path!r}")
        if value is None and getattr(ExperimentConfig, name) is None:
            continue  # null leaves a field with no default unset
        try:
            fields[name] = _from_json(knob.parse, value)
        except (TypeError, OverflowError):
            raise ValueError(f"--config {path!r}: {name} ({knob.flag}) must be "
                             f"{_JSON[knob.parse][1]}, got {json.dumps(value)}") from None
    return fields


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="hbreset", description="reset heavy-ball benchmarks, certificates and simulation")
    sub = ap.add_subparsers(dest="subcommand", required=True)
    for subcommand, (_, text) in COMMANDS.items():
        p = sub.add_parser(subcommand, help=text)
        for name, knob in KNOBS.items():
            if subcommand not in knob.subcommands:
                continue
            kind = ({"action": argparse.BooleanOptionalAction} if knob.parse is bool else
                    {"type": knob.parse, "required": knob.required,
                     "choices": knob.choices if knob.parse is str else None})
            p.add_argument(knob.flag, dest=name, help=knob.help, **kind)
        p.add_argument("--config", help="JSON file of config fields; flags override")
    return ap


def config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    """The validated config: --config fields, then the flags, then defaults."""
    fields = _read_config(args.config) if args.config else {}
    fields.update((name, value) for name, value in vars(args).items()
                  if name in KNOBS and value is not None)
    cfg = ExperimentConfig(subcommand=args.subcommand, **fields).with_defaults()
    cfg.validate()
    return cfg


COMMANDS = {"certify": (cmd_certify, "certified rate sweep"),
            "quad": (cmd_quad, "random ill-conditioned quadratic benchmark"),
            "logreg": (cmd_logreg, "logistic regression benchmark"),
            "tune": (cmd_tune, "tune one method on one objective"),
            "simulate": (cmd_simulate, "continuous-time hybrid arc")}


def main(argv: Optional[Sequence[str]] = None) -> int:
    cfg = config_from_args(build_parser().parse_args(argv))
    return COMMANDS[cfg.subcommand][0](cfg)


if __name__ == "__main__":
    raise SystemExit(main())
