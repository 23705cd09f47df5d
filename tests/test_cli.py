"""Front-end behavior: config resolution, outputs, determinism, orderings."""

import collections
import dataclasses
import filecmp
import json
import math
import os
import re
import subprocess
import sys
import types
import warnings

import numpy as np
import pytest

import hbreset.cli
import hbreset.objectives
from hbreset.cli import (METHODS, ExperimentConfig, SWEEP_HEADER, certify_request,
                         certify_tuning, config_from_args, build_parser,
                         golden_min, logreg_start, main, method_entry,
                         method_params, quad_params, read_sweep, replot_sweep,
                         tail_slope, tune_method)
from hbreset.discrete import Variant, run
from hbreset.lmi import build_dt
from hbreset.objectives import (QuadraticSpec, gen_logistic_dataset,
                                gen_random_quadratic, logistic_model,
                                quad_from_json, quad_to_json, quadratic_model)
from hbreset.sdp import problem_from_json


def parse_csv(path):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        rows = [line.rstrip("\n").split(",") for line in fh]
    return header, rows


def column(header, rows, name):
    i = header.index(name)
    return [row[i] for row in rows]


LOGREG_METHODS = tuple(METHODS["logreg"])


def assert_dirs_byte_identical(a, b):
    names_a = sorted(os.listdir(a))
    assert names_a == sorted(os.listdir(b))
    for name in names_a:
        assert filecmp.cmp(os.path.join(a, name), os.path.join(b, name),
                           shallow=False), name


# ---------------------------------------------------------------------------
# configuration


def test_defaults_fill_per_subcommand():
    cfg = ExperimentConfig(subcommand="logreg", seed=1).with_defaults()
    assert cfg.methods == LOGREG_METHODS
    assert cfg.n == 20 and cfg.m == 1000
    assert cfg.iters == 3000
    assert cfg.budget == 15
    tq = ExperimentConfig(subcommand="tune", method="nesterov", seed=1,
                          objective="quad").with_defaults()
    assert tq.n == 10 and tq.budget == 60
    tl = ExperimentConfig(subcommand="tune", method="polyak", seed=1,
                          objective="logreg").with_defaults()
    assert tl.n == 20 and tl.budget == 15
    quad = ExperimentConfig(subcommand="quad", seed=1).with_defaults()
    assert quad.n == 50 and quad.iters == 5000 and quad.h == 1e-4


def test_validation_rejects_bad_configs():
    with pytest.raises(ValueError, match="--seed"):
        ExperimentConfig(subcommand="quad").with_defaults().validate()
    with pytest.raises(ValueError, match="methods"):
        ExperimentConfig(subcommand="logreg", seed=1,
                         methods=("gd", "adam")).with_defaults().validate()
    with pytest.raises(ValueError, match="grid"):
        ExperimentConfig(subcommand="certify", grid_L=()).with_defaults().validate()
    with pytest.raises(ValueError, match="--mode"):
        ExperimentConfig(subcommand="simulate", mode="midpoint").validate()
    with pytest.raises(ValueError, match="64 bits"):
        ExperimentConfig(subcommand="quad", seed=-1).with_defaults().validate()


@pytest.mark.parametrize("argv, flag", [
    (["certify", "--grid-L", "1,nan"], "--grid-L"),
    (["certify", "--grid-L", "inf"], "--grid-L"),
    (["certify", "--mu", "nan"], "--mu"),
    (["certify", "--mu=-inf"], "--mu"),
    (["quad", "--seed", "1", "--cond", "nan"], "--cond"),
    (["quad", "--seed", "1", "--cond", "inf"], "--cond"),
    (["tune", "--seed", "1", "--method", "gd", "--cond", "nan"], "--cond"),
    (["simulate", "--model", "gen", "--seed", "1", "--cond", "nan"], "--cond"),
    (["simulate", "--model", "scalar", "--curv", "0"], "--curv"),
    (["simulate", "--model", "scalar", "--curv=-1"], "--curv"),
    (["simulate", "--model", "scalar", "--curv", "nan"], "--curv"),
    (["simulate", "--model", "scalar", "--curv", "inf"], "--curv"),
    (["certify", "--methods", ","], "--methods"),
    (["quad", "--seed", "1", "--methods", ","], "--methods"),
    (["logreg", "--seed", "1", "--methods", ","], "--methods"),
    (["certify", "--max-oracle-calls", "0"], "--max-oracle-calls"),
    (["certify", "--max-oracle-calls=-5"], "--max-oracle-calls"),
    (["certify", "--bisect-iters=-1"], "--bisect-iters"),
    (["simulate", "--t-end", "nan"], "--t-end"),
    (["simulate", "--t-end", "inf"], "--t-end"),
    (["simulate", "--t-end", "0"], "--t-end"),
    (["simulate", "--dt", "nan"], "--dt"),
    (["simulate", "--dt", "0"], "--dt"),
    (["simulate", "--dt=-1e-3"], "--dt"),
    (["simulate", "--dt", "inf"], "--dt"),
    (["simulate", "--t-min", "nan"], "--t-min"),
    (["simulate", "--t-min", "0"], "--t-min"),
    (["simulate", "--model", "gen", "--seed", "1", "--t-min=-1"], "--t-min"),
    (["quad", "--seed", "1", "--h", "nan"], "--h"),
    (["quad", "--seed", "1", "--h=-1"], "--h"),
    (["quad", "--seed", "1", "--h", "0"], "--h"),
    (["quad", "--seed", "1", "--h", "inf"], "--h"),
    (["quad", "--seed", "1", "--K", "1,nan"], "--K"),
    (["quad", "--seed", "1", "--K", "inf"], "--K"),
    (["quad", "--seed", "1", "--iters=-1"], "--iters"),
    (["logreg", "--seed", "1", "--iters=-1"], "--iters"),
    (["certify", "--mu=-1"], "--mu"),
    (["certify", "--mu", "0"], "--mu"),
    (["certify", "--grid-L", "1,0.5"], "--grid-L"),
    (["certify", "--mu", "2", "--grid-L", "1,10"], "--grid-L"),
    (["quad", "--seed", "1", "--cond", "0.5"], "--cond"),
    (["tune", "--seed", "1", "--method", "gd", "--cond", "0.5"], "--cond"),
    (["simulate", "--model", "gen", "--seed", "1", "--cond", "0.5"], "--cond"),
    (["quad", "--seed", "1", "--n", "1"], "--n"),
    (["tune", "--seed", "1", "--method", "gd", "--n", "1"], "--n"),
    (["simulate", "--model", "gen", "--seed", "1", "--n", "1"], "--n"),
    (["logreg", "--seed", "1", "--m", "0"], "--m must"),
    (["logreg", "--seed", "1", "--n", "0"], "--n"),
    (["tune", "--seed", "1", "--method", "gd", "--objective", "logreg", "--m", "0"],
     "--m must"),
    (["logreg", "--seed", "1", "--budget", "0"], "--budget"),
    (["tune", "--seed", "1", "--method", "gd", "--budget=-3"], "--budget"),
    (["simulate", "--K", "nan"], "--K must"),
    (["simulate", "--K", "inf"], "--K must"),
    (["simulate", "--mode", "hb", "--K=-1"], "--K must"),
    (["simulate", "--mode", "hihb", "--K-lo=-1"], "--K-lo"),
    (["simulate", "--mode", "hihb", "--K-lo", "nan"], "--K-lo"),
    (["simulate", "--mode", "hihb", "--K-hi", "inf"], "--K-hi"),
    (["simulate", "--mode", "hihb", "--K-hi=-2"], "--K-hi"),
    (["simulate", "--mode", "hihb", "--K-lo", "2", "--K-hi", "1"], "--K-lo"),
    (["simulate", "--mode", "hihb", "--K-lo", "2"], "--K-lo"),
    (["simulate", "--q0", "nan"], "--q0"),
    (["simulate", "--model", "gen", "--seed", "1", "--q0", "1,inf"], "--q0"),
    (["simulate", "--p0", "nan"], "--p0"),
    (["logreg", "--seed", "1", "--iters", "5", "--h-lo", "0"], "--h-lo"),
    (["logreg", "--seed", "1", "--iters", "5", "--h-lo=-1"], "--h-lo"),
    (["tune", "--seed", "1", "--method", "gd", "--h-lo", "0"], "--h-lo"),
    (["tune", "--seed", "1", "--method", "gd", "--h-lo=-1"], "--h-lo"),
    (["logreg", "--seed", "1", "--iters", "5", "--h-hi", "nan"], "--h-hi"),
    (["logreg", "--seed", "1", "--iters", "5", "--h-hi", "inf"], "--h-hi"),
    (["tune", "--seed", "1", "--method", "gd", "--h-hi", "nan"], "--h-hi"),
    (["tune", "--seed", "1", "--method", "gd", "--h-hi", "inf"], "--h-hi"),
    (["logreg", "--seed", "1", "--iters", "5", "--h-lo", "1", "--h-hi", "0.001"],
     "--h-lo"),
    (["tune", "--seed", "1", "--method", "gd", "--h-lo", "1", "--h-hi", "0.001"],
     "--h-lo"),
    (["logreg", "--seed", "1", "--iters", "5", "--ref-tol=-1"], "--ref-tol"),
    (["logreg", "--seed", "1", "--iters", "5", "--ref-tol", "nan"], "--ref-tol"),
    (["logreg", "--seed", "1", "--iters", "5", "--ref-tol", "0"], "--ref-tol"),
    (["logreg", "--seed", "1", "--iters", "5", "--ref-max-iter=-5"], "--ref-max-iter"),
    (["logreg", "--seed", "1", "--iters", "5", "--ref-max-iter", "0"], "--ref-max-iter"),
    # one set end past the other end's default 1e-3/L .. 10/L
    (["tune", "--seed", "1", "--method", "gd", "--h-lo", "100"], "--h-lo"),
    (["tune", "--seed", "1", "--method", "gd", "--h-hi", "1e-9"], "--h-hi"),
    (["logreg", "--seed", "1", "--iters", "5", "--h-lo", "100"], "--h-lo"),
    (["logreg", "--seed", "1", "--iters", "5", "--h-hi", "1e-9"], "--h-hi"),
    # quad_params' damping 1 - sqrt(h)*K outside [0, 1]
    (["quad", "--seed", "1", "--K", "300"], "--K"),
    (["quad", "--seed", "1", "--K=-1"], "--K"),
    (["quad", "--seed", "1", "--h", "1", "--K", "0.5,1.5"], "--K"),
    # a start point or a model file that does not fit the model
    (["simulate", "--q0", "1,2"], "--q0"),
    (["simulate", "--p0", "1,2"], "--p0"),
    (["simulate", "--model", "gen", "--seed", "1", "--n", "3", "--q0", "1,2"], "--q0"),
    (["simulate", "--model", "file", "--model-file", "no-such-model.json"],
     "--model-file"),
    # repeated list entries, or entries whose %g file labels collide
    (["quad", "--seed", "1", "--methods", "polyak,polyak"], "--methods"),
    (["certify", "--methods", "nesterov,nesterov"], "--methods"),
    (["logreg", "--seed", "1", "--methods", "gd,polyak,gd"], "--methods"),
    (["quad", "--seed", "1", "--K", "1,1"], "--K"),
    (["quad", "--seed", "1", "--K", "1,1.0000001"], "--K"),
    (["certify", "--grid-L", "10,10"], "--grid-L"),
    (["certify", "--grid-L", "10,10.0000001"], "--grid-L"),
    # an L whose tuning-rule stepsize overflows to h = 0 (2L, or
    # (sqrt L + sqrt mu)^2 under the optimal rule, is past the float range)
    (["certify", "--grid-L", "1e308"], "--grid-L"),
    (["certify", "--rule", "optimal", "--mu", "1e308", "--grid-L", "1e308"],
     "--grid-L"),
])
def test_validation_names_the_flag_of_an_edge_input(argv, flag, tmp_path):
    with pytest.raises(ValueError, match=flag):
        main(argv + ["--out", str(tmp_path / "out")])
    assert not (tmp_path / "out").exists()


def test_edge_checks_apply_only_where_the_value_is_used():
    # configs that carry an unused non-finite cond or mu, a zero curv, an
    # empty methods tuple, or an unused bad h, K, dt, t_min, iters, cond,
    # n, m, budget, mu, grid_L, h_lo, h_hi, ref_tol or ref_max_iter were
    # accepted before these checks and still are
    nan = float("nan")
    for cfg in (ExperimentConfig(subcommand="logreg", seed=1, cond=nan, mu=nan),
                ExperimentConfig(subcommand="tune", seed=1, method="gd",
                                 objective="logreg", cond=nan),
                ExperimentConfig(subcommand="simulate", cond=nan, methods=()),
                ExperimentConfig(subcommand="simulate", model="file",
                                 model_file="m.json", curv=0.0),
                ExperimentConfig(subcommand="quad", seed=1, curv=0.0, mu=nan),
                ExperimentConfig(subcommand="logreg", seed=1, h=nan,
                                 k_values=(nan,), dt=nan, t_min=-1.0),
                ExperimentConfig(subcommand="certify", iters=-1, h=-1.0, dt=0.0),
                ExperimentConfig(subcommand="certify", cond=0.5, n=1, m=0, budget=0),
                ExperimentConfig(subcommand="quad", seed=1, mu=-1.0, grid_L=(0.5,),
                                 m=0, budget=0),
                ExperimentConfig(subcommand="simulate", n=1, cond=0.5, m=0),
                ExperimentConfig(subcommand="tune", seed=1, method="gd",
                                 objective="logreg", cond=0.5),
                ExperimentConfig(subcommand="tune", seed=1, method="gd", m=0),
                ExperimentConfig(subcommand="quad", seed=1, h_lo=0.0, h_hi=nan,
                                 ref_tol=-1.0, ref_max_iter=-5),
                ExperimentConfig(subcommand="certify", h_lo=1.0, h_hi=1e-3,
                                 ref_tol=nan, ref_max_iter=0),
                ExperimentConfig(subcommand="simulate", h_lo=-1.0, h_hi=math.inf,
                                 ref_tol=0.0),
                ExperimentConfig(subcommand="tune", seed=1, method="gd",
                                 objective="logreg", ref_tol=nan, ref_max_iter=-5),
                ExperimentConfig(subcommand="tune", seed=1, method="gd",
                                 ref_tol=-1.0, ref_max_iter=0)):
        cfg.with_defaults().validate()


def test_config_file_merge_and_flag_override(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"n": 4, "iters": 50, "out": "ignored",
                                "k_values": [1.0]}))
    args = build_parser().parse_args(
        ["quad", "--seed", "3", "--config", str(path), "--iters", "70"])
    cfg = config_from_args(args)
    assert cfg.n == 4
    assert cfg.iters == 70  # flag wins over file
    assert cfg.k_values == (1.0,)
    assert cfg.out == "run-out"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"stepsize": 0.1}))
    with pytest.raises(ValueError, match="stepsize"):
        config_from_args(build_parser().parse_args(
            ["quad", "--seed", "3", "--config", str(bad)]))


def test_resolved_json_complete_and_path_free():
    cfg = ExperimentConfig(subcommand="logreg", seed=9, out="/tmp/somewhere")
    doc = json.loads(cfg.with_defaults().resolved_json())
    assert "out" not in doc
    assert doc["budget"] == 15
    assert doc["seed"] == 9
    assert tuple(doc["methods"]) == LOGREG_METHODS


def test_tune_requires_method_flag():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["tune", "--seed", "1"])


@pytest.mark.parametrize("argv, message", [
    (["certify", "--mu", "0"], "--mu must be finite and positive, got 0.0"),
    (["quad", "--config", "bad.json"], "--config 'bad.json' is not valid JSON: "),
    # every run diverges, so the search has no pick
    (["tune", "--method", "polyak", "--seed", "1", "--h-lo", "1e3", "--h-hi", "1e4"],
     "every polyak run diverged within 60 iterations on [1000, 10000]"),
    # the reference run stops short of --ref-tol
    (["logreg", "--seed", "1", "--n", "3", "--m", "20", "--ref-max-iter", "1"],
     "reference run did not converge: |grad| = "),
])
def test_console_reports_a_rejected_input_in_one_line(argv, message, tmp_path, monkeypatch):
    # `python -m hbreset.cli` runs the console script, which prints main's
    # ValueError as argparse prints a usage error; main itself raises it
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.json").write_text("{not json")
    src = os.path.dirname(os.path.dirname(hbreset.cli.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    done = subprocess.run([sys.executable, "-m", "hbreset.cli", *argv, "--out", "out"],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 2
    assert done.stderr.count("\n") == 1 and "Traceback" not in done.stderr
    assert done.stderr.startswith(f"hbreset {argv[0]}: error: {message}")
    assert done.stdout == "" and not (tmp_path / "out").exists()
    with pytest.raises(ValueError, match="^" + re.escape(message)):
        main([*argv, "--out", "out"])


# ---------------------------------------------------------------------------
# method table


# Every METHODS entry, pinned bit for bit to what the per-subcommand mappings
# that the table replaced gave: certify's (disc, h, beta_lo, beta_hi) at each
# (L, mu, rule) of CERTIFY_CASES, and quad's and tune's (variant, eps,
# beta_lo, beta_hi) at each (K, eps) of QUAD_CASES and (h, beta) of
# TUNE_CASES. The mistuned rule makes hihb-floor's clamp bind at
# 1 - sqrt(h) < beta, and h > 1 at (0.5, 0.25, "optimal") makes it bind at 0.
CERTIFY_CASES = ((4.0, 1.0, "mistuned"), (4.0, 1.0, "optimal"), (0.5, 0.25, "optimal"))
QUAD_CASES = ((1.5, 0.01), (0.5, 0.1))
TUNE_CASES = ((0.1, 0.5), (1e-3, 0.9))
TABLE_PINS = {
    ("certify", "nesterov"): [("nes", 0.125, 0.9646446609406726, 0.9646446609406726),
                              ("nes", 0.25, 0.3333333333333333, 0.3333333333333333),
                              ("nes", 2.0, 0.17157287525380996, 0.17157287525380996)],
    ("certify", "hhb-nes"): [("nes", 0.125, 0.0, 0.9646446609406726),
                             ("nes", 0.25, 0.0, 0.3333333333333333),
                             ("nes", 2.0, 0.0, 0.17157287525380996)],
    ("certify", "hihb-nes"): [("nes", 0.125, 0.6464466094067263, 0.9646446609406726),
                              ("nes", 0.25, 0.3333333333333333, 0.3333333333333333),
                              ("nes", 2.0, 0.0, 0.17157287525380996)],
    ("certify", "polyak"): [("pol", 0.125, 0.9646446609406726, 0.9646446609406726),
                            ("pol", 0.4444444444444444, 0.1111111111111111, 0.1111111111111111),
                            ("pol", 2.7451660040609585, 0.029437251522859434,
                             0.029437251522859434)],
    ("certify", "hhb-pol"): [("pol", 0.125, 0.0, 0.9646446609406726),
                             ("pol", 0.4444444444444444, 0.0, 0.1111111111111111),
                             ("pol", 2.7451660040609585, 0.0, 0.029437251522859434)],
    ("certify", "hihb-pol"): [("pol", 0.125, 0.6464466094067263, 0.9646446609406726),
                              ("pol", 0.4444444444444444, 0.1111111111111111, 0.1111111111111111),
                              ("pol", 2.7451660040609585, 0.0, 0.029437251522859434)],
    ("quad", "polyak"): [("pol", 0.01, 0.985, 0.985),
                         ("pol", 0.1, 0.95, 0.95)],
    ("quad", "nesterov"): [("nes", 0.01, 0.985, 0.985),
                           ("nes", 0.1, 0.95, 0.95)],
    ("quad", "hhb-pol"): [("pol", 0.01, 0.0, 0.985),
                          ("pol", 0.1, 0.0, 0.95)],
    ("quad", "hhb-nes"): [("nes", 0.01, 0.0, 0.985),
                          ("nes", 0.1, 0.0, 0.95)],
    ("quad", "hihb-pol"): [("pol", 0.01, 0.985, 1.0),
                           ("pol", 0.1, 0.95, 1.0)],
    ("quad", "hihb-nes"): [("nes", 0.01, 0.985, 1.0),
                           ("nes", 0.1, 0.95, 1.0)],
    ("tune", "gd"): [("gd", 0.31622776601683794, 0.0, 0.0),
                     ("gd", 0.03162277660168379, 0.0, 0.0)],
    ("tune", "polyak"): [("pol", 0.31622776601683794, 0.5, 0.5),
                         ("pol", 0.03162277660168379, 0.9, 0.9)],
    ("tune", "nesterov"): [("nes-schedule", 0.31622776601683794, 0.0, 0.0),
                           ("nes-schedule", 0.03162277660168379, 0.0, 0.0)],
    ("tune", "hhb"): [("pol", 0.31622776601683794, 0.0, 0.5),
                      ("pol", 0.03162277660168379, 0.0, 0.9)],
    ("tune", "hihb"): [("pol", 0.31622776601683794, 0.5, 1.0),
                       ("pol", 0.03162277660168379, 0.9, 1.0)],
}
# logreg runs the family that tune tunes
TABLE_PINS.update({("logreg", m): rows for (s, m), rows in list(TABLE_PINS.items())
                   if s == "tune"})


def _bits(row):
    return tuple(v.hex() if isinstance(v, float) else v for v in row)


@pytest.mark.parametrize("subcommand, method",
                         [(s, m) for s in METHODS for m in METHODS[s]])
def test_method_table_entry_gives_its_pinned_parameters(subcommand, method):
    if subcommand == "certify":
        got = [(r.disc, r.h, r.beta_lo, r.beta_hi)
               for L, mu, rule in CERTIFY_CASES
               for r in [certify_request(method, L, mu, rule)]]
    elif subcommand == "quad":
        got = [(p.variant, p.eps, p.beta_lo, p.beta_hi)
               for K, eps in QUAD_CASES for p in [quad_params(method, K, eps)]]
    else:
        got = [(p.variant, p.eps, p.beta_lo, p.beta_hi) for h, beta in TUNE_CASES
               for p in [method_params(subcommand, method, math.sqrt(h), beta)]]
    assert [_bits(row) for row in got] == [_bits(row) for row in TABLE_PINS[subcommand, method]]


def test_method_table_keeps_every_pinned_name_in_default_order():
    assert [(s, m) for s in METHODS for m in METHODS[s]] == [
        key for s in METHODS for key in TABLE_PINS if key[0] == s]
    assert tuple(METHODS["certify"]) == ("nesterov", "hhb-nes", "hihb-nes", "polyak",
                                         "hhb-pol", "hihb-pol")


@pytest.mark.parametrize("call, match", [
    (lambda: method_entry("tune", "adam"),
     "unknown method 'adam' for tune; one of gd, polyak, nesterov, hhb, hihb$"),
    (lambda: method_params("quad", "hhb", 0.1, 0.5), "unknown method 'hhb' for quad"),
    (lambda: quad_params("adam", 1.0, 0.01), "unknown method 'adam' for quad"),
    (lambda: certify_request("hihb", 4.0, 1.0, "mistuned"),
     "unknown method 'hihb' for certify; one of nesterov, hhb-nes, "),
    (lambda: tune_method(["adam"], quadratic_model(QuadraticSpec(np.eye(1), np.zeros(1))),
                         np.ones(1), 5, 0.1, 1.0), "unknown method 'adam' for tune"),
    (lambda: method_entry("simulate", "hb"),
     "unknown subcommand 'simulate'; one of certify, quad, logreg, tune$"),
    (lambda: certify_tuning("grid", "pol", 4.0, 1.0), "unknown tuning rule 'grid'"),
    (lambda: quad_params("polyak", 1.97, 0.6), "outside the stable damping range"),
])
def test_an_unknown_name_or_damping_raises_a_value_error_naming_it(call, match):
    with pytest.raises(ValueError, match=match):
        call()


# ---------------------------------------------------------------------------
# certify


@pytest.fixture(scope="module")
def certify_l1(tmp_path_factory):
    out = tmp_path_factory.mktemp("certify")
    assert main(["certify", "--grid-L", "1", "--bisect-iters", "8",
                 "--out", str(out)]) == 0
    return out


def test_certify_all_methods_contract_at_unit_condition(certify_l1):
    header, rows = parse_csv(certify_l1 / "sweep.csv")
    assert tuple(header) == SWEEP_HEADER
    assert len(rows) == 6
    assert set(column(header, rows, "status")) == {"certified"}
    rhos = {m: float(r) for m, r in zip(column(header, rows, "method"),
                                        column(header, rows, "rho"))}
    for method, rho in rhos.items():
        assert 0.0 < rho < 1.0, method
    # the time-invariant rows can be cross-checked against the spectral
    # radius of the closed-loop iteration matrix at the only curvature
    for method in ("nesterov", "polyak"):
        req = certify_request(method, 1.0, 1.0, "mistuned")
        br = build_dt(req.h, req.beta_hi, req.disc)
        acl = br.A + br.B @ br.C
        spectral = float(max(abs(np.linalg.eigvals(acl))))
        assert rhos[method] >= spectral - 1e-6
        assert rhos[method] <= spectral + 0.02
    # certificates are written next to the sweep
    for method in rhos:
        assert (certify_l1 / f"cert_{method}_L1.json").exists()


def test_certify_csv_floats_are_17_digit(certify_l1):
    header, rows = parse_csv(certify_l1 / "sweep.csv")
    for name in ("h", "beta_hi", "rho"):
        for cell in column(header, rows, name):
            assert cell == "%.17g" % float(cell)


def test_certify_replot_round_trip(certify_l1, tmp_path):
    rows = read_sweep(certify_l1 / "sweep.csv")
    assert rows[0]["L"] == 1.0 and 0.0 < rows[0]["rho"] < 1.0
    again = tmp_path / "again.svg"
    replot_sweep(certify_l1 / "sweep.csv", again)
    assert again.read_bytes() == (certify_l1 / "sweep.svg").read_bytes()


def test_certify_uncertified_row(tmp_path):
    # optimally tuned Polyak stops being certifiable well below L=16
    assert main(["certify", "--grid-L", "16", "--rule", "optimal",
                 "--methods", "polyak", "--bisect-iters", "8",
                 "--out", str(tmp_path)]) == 0
    header, rows = parse_csv(tmp_path / "sweep.csv")
    assert column(header, rows, "status") == ["uncertified"]
    assert column(header, rows, "rho") == ["nan"]
    # at L = 1e20 the polyak rows' barrier terms overflow and the others
    # stall: every row ends uncertified, without a RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["certify", "--grid-L", "1e20", "--bisect-iters", "1",
                     "--out", str(tmp_path / "huge")]) == 0
    header, rows = parse_csv(tmp_path / "huge" / "sweep.csv")
    assert column(header, rows, "status") == ["uncertified"] * 6


def test_certify_dump_sdp(tmp_path):
    assert main(["certify", "--grid-L", "1,10", "--methods", "nesterov,hhb-pol",
                 "--bisect-iters", "4", "--dump-sdp", "--out", str(tmp_path)]) == 0
    prob = problem_from_json((tmp_path / "sdp_nesterov_L1.json").read_text())
    assert prob.nvar == 8
    assert len(prob.nsd_blocks) == 2
    # each certificate's problem is dumped, holds the certificate at half
    # the margin, and has no "bounds" key
    dumps = sorted(tmp_path.glob("sdp_*.json"))
    assert [p.name for p in dumps] == ["sdp_hhb-pol_L1.json", "sdp_nesterov_L1.json",
                                       "sdp_nesterov_L10.json"]
    assert len(list(tmp_path.glob("cert_*.json"))) == len(dumps)
    for path in dumps:
        assert "bounds" not in json.loads(path.read_text())
        prob = problem_from_json(path.read_text())
        cert = json.loads((tmp_path / path.name.replace("sdp_", "cert_")).read_text())
        P, mult = cert["P"], cert["multipliers"]
        v = np.array([P[0][0], P[0][1], P[1][1], mult["a"], mult["lambda"],
                      mult["lambda_r"], mult["sigma"], mult["sigma_r"]])
        half = 0.5 * prob.margin
        for blk in prob.nsd_blocks:
            assert np.linalg.eigvalsh(blk.value(v))[-1] <= -half, blk.name
        (pmap,) = prob.pd_blocks
        assert pmap.name == "P" and np.linalg.eigvalsh(pmap.value(v))[0] >= half
        assert sorted(prob.nonneg) == [3, 4, 5, 6, 7]
        for i, floor in prob.nonneg.items():
            assert v[i] >= floor + half


def test_certify_deterministic(tmp_path):
    args = ["certify", "--grid-L", "1", "--methods", "nesterov",
            "--bisect-iters", "5"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert_dirs_byte_identical(a, b)


# ---------------------------------------------------------------------------
# quad


@pytest.fixture(scope="module")
def quad_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("quad")
    assert main(["quad", "--seed", "7", "--n", "6", "--cond", "50",
                 "--h", "0.002", "--K", "1.0", "--iters", "1000",
                 "--out", str(out)]) == 0
    return out


def test_quad_outputs(quad_run):
    header, rows = parse_csv(quad_run / "summary.csv")
    assert header == ["method", "K", "h", "final_gap", "nonmonotone",
                      "tail_slope", "status"]
    assert len(rows) == 6  # six methods, one K
    spec = quad_from_json((quad_run / "problem.json").read_text())
    eigs = np.linalg.eigvalsh(spec.Q)
    assert eigs[0] == pytest.approx(1.0) and eigs[-1] == pytest.approx(50.0)
    for method, gap in zip(column(header, rows, "method"),
                           column(header, rows, "final_gap")):
        assert float(gap) < 1.0, method
        traj_header, traj_rows = parse_csv(quad_run / f"traj_{method}_K1.csv")
        assert traj_header[:2] == ["k", "phi_gap"]
        assert len(traj_rows) == 1001
    assert (quad_run / "gaps_K1.svg").exists()


def test_quad_deterministic(tmp_path):
    args = ["quad", "--seed", "7", "--n", "5", "--cond", "20", "--h", "0.004",
            "--K", "1.0", "--iters", "120", "--methods", "polyak,hhb-pol"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert_dirs_byte_identical(a, b)


def counting_oracle(monkeypatch, name):
    """Count the calls of objectives.<name> by the shape of the points:
    () for one point, (B,) for a stack of B."""
    shapes, lone = collections.Counter(), getattr(hbreset.objectives, name)

    def counted(spec, q):
        shapes[np.shape(q)[:-1]] += 1
        return lone(spec, q)

    monkeypatch.setattr(hbreset.objectives, name, counted)
    return shapes


def test_quad_pass_steps_every_run_in_one_stack(monkeypatch, tmp_path):
    # the 24 runs (6 methods x 4 K) of a quad pass are the rows of one
    # stack: each iterate makes one call for all 24 and one gradient-only
    # call at the extrapolated points of the 12 NES rows. The single
    # points are phi* and the start q0, and the gradient check at q*
    # (quadratic_model).
    shapes = counting_oracle(monkeypatch, "quad_eval_grad")
    grads = counting_oracle(monkeypatch, "quad_grad")
    assert main(["quad", "--seed", "3", "--iters", "20", "--out",
                 str(tmp_path)]) == 0
    assert shapes == {(24,): 20, (): 2}
    assert grads == {(12,): 20, (): 1}


def test_tune_round_of_five_methods_is_one_stack(monkeypatch):
    # every round scores its probes with one run_many, whose runs step as
    # one stack. The first round holds every search's opening probes: the
    # outer pair of gd and of nesterov, and the pairs of the two opening
    # inner searches of each beta method. No run stops early there, so
    # each iterate makes one call for all 16 rows and one at the
    # extrapolated points of the two nesterov rows. Only the last
    # iterate's call is a value; the others take the bound, as no run
    # diverges there, and every extrapolated point the gradient alone.
    # The one single point is the start q0, evaluated once before the
    # first round.
    spec = gen_logistic_dataset(6, 120, 2)
    model = logistic_model(spec)
    shapes = counting_oracle(monkeypatch, "logistic_eval_grad")
    bounds = counting_oracle(monkeypatch, "logistic_bound_grad")
    grads = counting_oracle(monkeypatch, "logistic_grad")
    rounds, between, lone_run_many = [], [], hbreset.cli.run_many

    def recording_run_many(model, params, q0, budget, **kwargs):
        between.append(dict(shapes))
        shapes.clear()
        bounds.clear()
        grads.clear()
        trajs = lone_run_many(model, params, q0, budget, **kwargs)
        rounds.append(([p.variant for p in params], dict(shapes), dict(bounds),
                       dict(grads)))
        shapes.clear()
        return trajs

    monkeypatch.setattr(hbreset.cli, "run_many", recording_run_many)
    lhat = model.lipschitz
    tune_method(LOGREG_METHODS, model, logreg_start(2, 6), 15, 1e-3 / lhat,
                10.0 / lhat, outer_iters=3, inner_iters=2)
    assert rounds[0] == ([Variant.GD] * 2 + [Variant.POL] * 4 + [Variant.NES_SCHEDULE] * 2
                         + [Variant.POL] * 8, {(16,): 1}, {(16,): 14}, {(2,): 15})
    assert len(rounds) == (3 + 1) * (2 + 1)
    assert between == [{(): 1}] + [{}] * (len(rounds) - 1) and not shapes
    assert all(() not in calls for _, calls, _, _ in rounds)


def tune_rounds(method, outer_iters, inner_iters):
    """The stack size of each tuner round of one method's search. Its
    opening pairs go out together, so a method with a beta takes
    (outer + 1)(inner + 1) rounds, and one without takes outer + 1."""
    if method not in ("polyak", "hhb", "hihb"):
        return [2] + [1] * outer_iters
    return [(2 if t == 0 else 1) * (2 if j == 0 else 1)
            for j in range(outer_iters + 1) for t in range(inner_iters + 1)]


def test_tune_rounds_score_each_probe_of_the_sequential_search_once(monkeypatch):
    # the rounds hold exactly the settings that the one-run-at-a-time
    # search probes, each once, in the rounds of `tune_rounds`; methods
    # tuned together share rounds, so a round's stack is the sum of theirs
    spec = gen_logistic_dataset(6, 120, 2)
    model = logistic_model(spec)
    lhat = model.lipschitz
    args = (model, logreg_start(2, 6), 15, 1e-3 / lhat, 10.0 / lhat)
    rounds, probed, lone_run_many, lone_run = [], [], hbreset.cli.run_many, run

    def setting(p):
        return p.variant, p.eps, p.beta_lo, p.beta_hi

    def recording_run_many(model, params, *rest, **kwargs):
        rounds.append([setting(p) for p in params])
        return lone_run_many(model, params, *rest, **kwargs)

    def recording_run(model, p, *rest):
        probed.append(setting(p))
        return lone_run(model, p, *rest)

    monkeypatch.setattr(hbreset.cli, "run_many", recording_run_many)
    monkeypatch.setitem(globals(), "run", recording_run)
    for method in LOGREG_METHODS:
        rounds.clear()
        probed.clear()
        got = tune_method([method], *args, outer_iters=3, inner_iters=2)
        assert got == [sequential_tune(method, *args, outer_iters=3, inner_iters=2)]
        assert [len(r) for r in rounds] == tune_rounds(method, 3, 2)
        scored = [row for r in rounds for row in r]
        assert len(set(scored)) == len(scored)
        assert collections.Counter(scored) == collections.Counter(probed)
    rounds.clear()
    tune_method(LOGREG_METHODS, *args, outer_iters=3, inner_iters=2)
    each = [tune_rounds(m, 3, 2) for m in LOGREG_METHODS]
    assert [len(r) for r in rounds] == [sum(s[i] for s in each if i < len(s))
                                        for i in range(max(map(len, each)))]


def test_tail_slope_on_geometric_decay():
    gaps = [10.0 ** (-0.1 * k) for k in range(200)]
    traj = types.SimpleNamespace(phi_gaps=gaps)
    assert tail_slope(traj) == pytest.approx(-0.1, abs=1e-9)
    assert math.isnan(tail_slope(types.SimpleNamespace(phi_gaps=[0.0, 0.0])))


def test_golden_min_quadratic():
    x, fx = golden_min(lambda x: (x - 2.0) ** 2, 0.0, 5.0, 60)
    assert x == pytest.approx(2.0, abs=1e-8)
    assert fx == pytest.approx(0.0, abs=1e-15)


# ---------------------------------------------------------------------------
# logreg


@pytest.fixture(scope="module")
def logreg_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("logreg")
    assert main(["logreg", "--seed", "5", "--n", "8", "--m", "200",
                 "--iters", "400", "--out", str(out)]) == 0
    return out


def test_logreg_outputs_and_envelope(logreg_run):
    header, rows = parse_csv(logreg_run / "summary.csv")
    assert header == ["method", "h", "beta", "final_gap", "iters_to_gap",
                      "status"]
    assert column(header, rows, "method") == list(LOGREG_METHODS)
    ref = json.loads((logreg_run / "reference.json").read_text())
    assert ref["grad_norm"] <= 1e-10
    tuned = json.loads((logreg_run / "tuned.json").read_text())
    assert set(tuned) == set(LOGREG_METHODS)
    for method in LOGREG_METHODS:
        assert tuned[method]["budget"] == 15
        theader, trows = parse_csv(logreg_run / f"traj_{method}.csv")
        gaps = [float(r[theader.index("phi_gap")]) for r in trows]
        assert len(gaps) == 401
        # convex problem: after burn-in the gap stays under its burn-in
        # level (envelope claim, not per-step monotonicity)
        burn = 10
        assert max(gaps[burn:]) <= max(gaps[burn], 0.0) * 1.000001 + 1e-12


def test_logreg_zero_iterations(tmp_path):
    assert main(["logreg", "--seed", "3", "--n", "6", "--m", "80",
                 "--iters", "0", "--budget", "3", "--methods", "gd",
                 "--out", str(tmp_path)]) == 0
    header, rows = parse_csv(tmp_path / "traj_gd.csv")
    assert len(rows) == 1
    gap0 = float(rows[0][header.index("phi_gap")])
    assert gap0 > 0.0
    sheader, srows = parse_csv(tmp_path / "summary.csv")
    assert float(column(sheader, srows, "final_gap")[0]) == gap0
    assert column(sheader, srows, "iters_to_gap") == ["-1"]


def test_logreg_deterministic(tmp_path):
    args = ["logreg", "--seed", "3", "--n", "6", "--m", "80", "--iters", "100",
            "--budget", "5", "--methods", "gd,hhb"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert_dirs_byte_identical(a, b)


def test_logreg_start_is_seeded_and_far():
    q = logreg_start(11, 20)
    assert q.shape == (20,)
    np.testing.assert_array_equal(q, logreg_start(11, 20))
    assert not np.array_equal(q, logreg_start(12, 20))
    assert np.max(np.abs(q)) > 1.0


# ---------------------------------------------------------------------------
# tune


def test_tune_quad_nesterov_near_analytic_optimum(tmp_path):
    assert main(["tune", "--method", "nesterov", "--objective", "quad",
                 "--seed", "3", "--cond", "1000", "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "tuned.json").read_text())
    assert doc["method"] == "nesterov" and doc["beta"] is None
    # analytic optimum is h = 1/L; accept a factor of 2 either way
    assert 0.5 <= doc["h"] * 1000.0 <= 2.0
    assert doc["budget"] == 60


def test_tune_idempotent_bytes(tmp_path):
    args = ["tune", "--method", "polyak", "--objective", "logreg",
            "--seed", "2", "--n", "6", "--m", "120"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert_dirs_byte_identical(a, b)


def test_tune_hihb_polyak_stepsize_coincidence_soft(tmp_path):
    # the original experiments report both tunings landing on the same
    # stepsize; treated as a soft expectation, not a hard contract
    docs = {}
    for method in ("polyak", "hihb"):
        out = tmp_path / method
        assert main(["tune", "--method", method, "--objective", "logreg",
                     "--seed", "2", "--n", "6", "--m", "120",
                     "--out", str(out)]) == 0
        docs[method] = json.loads((out / "tuned.json").read_text())
        assert docs[method]["h"] > 0.0
    ratio = docs["hihb"]["h"] / docs["polyak"]["h"]
    if not (1.0 / 1.3 <= ratio <= 1.3):
        warnings.warn(f"hihb/polyak tuned stepsize ratio {ratio:.3f} "
                      "departs from the reported coincidence")


@pytest.mark.parametrize("method", ["polyak", "gd"])
def test_tune_scores_a_setting_with_the_runs_own_evaluations(method, monkeypatch):
    # one value_grad call for the start q0 per tune, then one stacked call
    # per iterate after the first while a run of the round is live, and
    # none after it: the score is the value the run computed at its last
    # iterate
    _, base = gen_random_quadratic(4, 50.0, 3)
    calls = []

    def value_grad(q):
        calls.append(1)
        return base.value_grad(q)

    model = dataclasses.replace(base, value_grad=value_grad)
    rounds, lone_run_many = [], hbreset.cli.run_many

    def recording_run_many(*args, **kwargs):
        rounds.append(lone_run_many(*args, **kwargs))
        return rounds[-1]

    monkeypatch.setattr(hbreset.cli, "run_many", recording_run_many)
    calls.clear()
    result, = tune_method([method], model, np.full(4, 5.0), 15, 1e-3 / 50.0,
                          10.0 / 50.0, outer_iters=3, inner_iters=2)
    trajs = [t for r in rounds for t in r]
    inner = 4 if method == "polyak" else 1
    assert len(trajs) == 5 * inner
    assert len(calls) == 1 + sum(max(len(t) for t in r) - 1 for r in rounds)
    assert result["phi_at_budget"] == min(t.phi for t in trajs)


def sequential_tune(method, model, q0, budget, h_lo, h_hi, outer_iters=16,
                    inner_iters=12):
    """The nested search one method at a time, one `run` per setting."""
    def phi_at_budget(h, beta):
        try:
            traj = run(model, method_params("tune", method, math.sqrt(h), beta), q0, budget)
        except FloatingPointError:
            return float("inf")
        return traj.phi if np.isfinite(traj.phi) else float("inf")

    has_beta = method in ("polyak", "hhb", "hihb")
    best = {"phi": float("inf"), "h": h_lo, "beta": None}

    def eval_h(lh):
        h = 10.0 ** lh
        if has_beta:
            beta, val = golden_min(lambda b: phi_at_budget(h, b), 0.0, 0.995,
                                   inner_iters)
        else:
            beta, val = None, phi_at_budget(h, 0.0)
        if val < best["phi"]:
            best.update(phi=val, h=h, beta=beta)
        return val

    golden_min(eval_h, math.log10(h_lo), math.log10(h_hi), outer_iters)
    return {"method": method, "h": best["h"], "beta": best["beta"],
            "phi_at_budget": best["phi"], "budget": int(budget)}


def test_lockstep_tune_matches_the_sequential_search():
    spec = gen_logistic_dataset(6, 120, 2)
    logistic = logistic_model(spec)
    _, quad = gen_random_quadratic(10, 1e3, 4)
    cases = [(logistic, logreg_start(2, 6), 15, {}),
             (quad, np.random.default_rng(4).uniform(-100.0, 100.0, 10), 60,
              {"outer_iters": 8, "inner_iters": 6})]
    for model, q0, budget, iters in cases:
        lhat = model.lipschitz
        args = (model, q0, budget, 1e-3 / lhat, 10.0 / lhat)
        got = tune_method(LOGREG_METHODS, *args, **iters)
        assert got == [sequential_tune(m, *args, **iters) for m in LOGREG_METHODS]
        assert all(math.isfinite(t["phi_at_budget"]) for t in got)


def test_tune_scores_a_nan_gradient_inf_on_that_row_only(monkeypatch):
    # phi = q^2 on the line, with a NaN gradient once |q| > 1: a run from
    # q0 = 1 meets it when its stepsize (h > 1 for gd) or momentum
    # overshoots the start
    base = quadratic_model(QuadraticSpec(Q=np.array([[2.0]]), b=np.zeros(1)))

    def value_grad(q):
        phi, g = base.value_grad(q)
        return phi, np.where(np.abs(q[..., :1]) > 1.0, np.nan, g)

    model = dataclasses.replace(base, value_grad=value_grad, minimizer=None,
                                min_value=None, grad=lambda q: value_grad(q)[1])
    calls, lone_run_many = [], hbreset.cli.run_many

    def recording_run_many(model, params, q0, budget, **kwargs):
        try:
            trajs = lone_run_many(model, params, q0, budget, **kwargs)
        except FloatingPointError:
            calls.append((params, None))
            raise
        calls.append((params, trajs))
        return trajs

    monkeypatch.setattr(hbreset.cli, "run_many", recording_run_many)
    args = (model, np.ones(1), 15, 5e-4, 5.0)
    got = tune_method(LOGREG_METHODS, *args, outer_iters=6, inner_iters=4)
    monkeypatch.undo()
    assert got == [sequential_tune(m, *args, outer_iters=6, inner_iters=4)
                   for m in LOGREG_METHODS]
    # a round that raised is scored again one run at a time, in order; the
    # runs that raise alone score inf and the others their own phi
    raised = [i for i, (params, trajs) in enumerate(calls)
              if trajs is None and len(params) > 1]
    assert raised
    mixed = 0
    for i in raised:
        params = calls[i][0]
        alone = calls[i + 1:i + 1 + len(params)]
        assert [p for p, _ in alone] == [[p] for p in params]
        failed = [trajs is None for _, trajs in alone]
        assert any(failed)
        mixed += not all(failed)
    assert mixed


def test_tune_rejects_a_pick_whose_run_diverged(tmp_path):
    # every gd stepsize in [1, 10] diverges on this quadratic (L = 1e3), so
    # the best-scoring probe is a diverged run
    out = tmp_path / "out"
    with pytest.raises(ValueError, match="--h-lo and --h-hi"):
        main(["tune", "--seed", "1", "--method", "gd", "--h-lo", "1", "--h-hi", "10",
              "--out", str(out)])
    assert not (out / "tuned.json").exists()
    assert not out.exists()


def test_tune_logreg_rejects_a_pick_when_every_run_diverges(tmp_path):
    # every gd run at h in [1e14, 1e15] passes the guard at its first
    # step; the tuner skips phi only below the guard, so each run still
    # scores as diverged and the search has no pick
    out = tmp_path / "out"
    with pytest.raises(ValueError, match="every gd run diverged"):
        main(["tune", "--objective", "logreg", "--seed", "1", "--n", "3", "--m", "20",
              "--method", "gd", "--h-lo", "1e14", "--h-hi", "1e15", "--out", str(out)])
    assert not out.exists()


@pytest.mark.parametrize("argv, error, match", [
    # the tuner's pick diverged
    (["--methods", "gd", "--h-lo", "1e14", "--h-hi", "1e15"], ValueError,
     "--h-lo and --h-hi"),
    (["--ref-max-iter", "1"], ValueError, "reference run did not converge"),
])
def test_rejected_logreg_writes_nothing(tmp_path, argv, error, match):
    out = tmp_path / "out"
    with pytest.raises(error, match=match):
        main(["logreg", "--seed", "1", "--n", "3", "--m", "20", "--iters", "5",
              *argv, "--out", str(out)])
    assert not out.exists()


# ---------------------------------------------------------------------------
# simulate


def test_simulate_hb_matches_damped_oscillator(tmp_path):
    # K = 1, and the undamped K = 0 (q = cos t)
    for K in ("1.0", "0.0"):
        out = tmp_path / K
        assert main(["simulate", "--mode", "hb", "--model", "scalar",
                     "--curv", "1.0", "--K", K, "--dt", "0.001",
                     "--t-end", "1.0", "--q0", "1", "--p0", "0",
                     "--out", str(out)]) == 0
        header, rows = parse_csv(out / "arc.csv")
        assert header == ["t", "j", "q0", "p0", "tau", "energy"]
        last = dict(zip(header, rows[-1]))
        t = float(last["t"])
        assert t == pytest.approx(1.0, abs=1e-12)
        a = -0.5 * float(K)
        om = math.sqrt(1.0 - a * a)
        want = math.exp(a * t) * (math.cos(om * t) - (a / om) * math.sin(om * t))
        assert float(last["q0"]) == pytest.approx(want, abs=1e-6)
        assert json.loads((out / "jumps.json").read_text()) == []
        assert int(last["j"]) == 0
        assert (out / "energy.svg").exists()


def test_simulate_hhb_jump_log_nonempty_undamped(tmp_path):
    assert main(["simulate", "--mode", "hhb", "--model", "scalar",
                 "--curv", "1.0", "--K", "0.0", "--dt", "0.001",
                 "--t-end", "6.0", "--t-min", "0.3", "--q0", "1", "--p0", "0",
                 "--out", str(tmp_path)]) == 0
    jumps = json.loads((tmp_path / "jumps.json").read_text())
    assert len(jumps) >= 1
    assert jumps[0]["t"] == pytest.approx(math.pi / 2.0, abs=1e-3)


def test_simulate_takes_any_step_on_a_quadratic(tmp_path):
    # arcs of quadratic models flow exactly, so no --dt is past a
    # stability limit: a step of 20 on the unit oscillator, which RK4
    # would grow, gives a finite arc whose energy never rises
    assert main(["simulate", "--model", "scalar", "--mode", "hhb", "--dt", "20",
                 "--t-end", "100", "--out", str(tmp_path)]) == 0
    header, rows = parse_csv(tmp_path / "arc.csv")
    values = np.array(rows, dtype=float)
    assert len(values) >= 4 and np.isfinite(values).all()
    assert np.all(np.diff(values[:, header.index("energy")]) <= 0.0)


def test_simulate_hihb_at_K_0_is_the_undamped_flow(tmp_path):
    # an unset --K-lo or --K-hi is --K, zero included: hihb at --K 0 is
    # hb's undamped arc, not an arc at damping 1
    for mode in ("hb", "hihb"):
        assert main(["simulate", "--mode", mode, "--K", "0", "--t-end", "2",
                     "--out", str(tmp_path / mode)]) == 0
    assert (tmp_path / "hihb" / "arc.csv").read_bytes() == \
        (tmp_path / "hb" / "arc.csv").read_bytes()


def test_simulate_dwell_respects_doubled_timer(tmp_path):
    ts = {}
    for tmin in (0.05, 0.1):
        out = tmp_path / f"t{tmin}"
        assert main(["simulate", "--mode", "hhb", "--model", "gen",
                     "--seed", "5", "--n", "2", "--cond", "30", "--K", "0.2",
                     "--t-min", str(tmin), "--t-end", "20",
                     "--q0", "2,-1", "--p0", "0,0", "--out", str(out)]) == 0
        jumps = json.loads((out / "jumps.json").read_text())
        times = [j["t"] for j in jumps]
        assert len(times) >= 2
        dwells = [b - a for a, b in zip([0.0] + times, times)]
        assert all(d >= tmin - 1e-9 for d in dwells)
        ts[tmin] = times


def test_simulate_model_file_and_dimension_check(tmp_path):
    spec, _ = gen_random_quadratic(2, 10.0, 1)
    path = tmp_path / "model.json"
    path.write_text(quad_to_json(spec))
    out = tmp_path / "run"
    assert main(["simulate", "--mode", "hihb", "--model", "file",
                 "--model-file", str(path), "--K-lo", "0.5", "--K-hi", "4.0",
                 "--t-end", "2.0", "--q0", "1,1", "--p0", "0,0",
                 "--out", str(out)]) == 0
    header, rows = parse_csv(out / "arc.csv")
    assert header[:4] == ["t", "j", "q0", "q1"]
    with pytest.raises(ValueError, match="dimension"):
        main(["simulate", "--mode", "hb", "--model", "file",
              "--model-file", str(path), "--q0", "1",
              "--out", str(tmp_path / "bad")])
    # a file that does not read as a quadratic spec names the flag too, and
    # so does one with a NaN or infinite entry, which no model is built from
    for text in ("{}", "[1]", "not json", '{"Q": [[1, 0], [0, NaN]], "b": [0, 0]}',
                 '{"Q": [[1, 0], [0, 1]], "b": [NaN, 0]}',
                 '{"Q": [[1, 0], [0, Infinity]], "b": [0, 0]}',
                 '{"Q": [[1, 0], [0, 1]], "b": [0, -Infinity]}'):
        path.write_text(text)
        with pytest.raises(ValueError, match="--model-file"):
            main(["simulate", "--model", "file", "--model-file", str(path),
                  "--out", str(tmp_path / "bad")])
    assert not (tmp_path / "bad").exists()


def test_simulate_gen_dimension(tmp_path):
    # n defaults to 2 only when it is not given: n = 0 must be rejected,
    # naming the flag, before anything is written, not run a 2-d arc
    with pytest.raises(ValueError, match="--n must be at least 2"):
        main(["simulate", "--model", "gen", "--seed", "1", "--n", "0",
              "--t-end", "0.1", "--out", str(tmp_path / "zero")])
    assert not (tmp_path / "zero").exists()
    # and the generator keeps its own check for callers that skip validate
    with pytest.raises(ValueError, match="n >= 2"):
        gen_random_quadratic(0, 10.0, 1)
    assert main(["simulate", "--model", "gen", "--seed", "1", "--t-end", "0.1",
                 "--out", str(tmp_path / "default")]) == 0
    header, _ = parse_csv(tmp_path / "default" / "arc.csv")
    assert header[:4] == ["t", "j", "q0", "q1"] and header[4] == "p0"
    assert json.loads((tmp_path / "default" / "config.json").read_text())["n"] is None


def test_simulate_gen_requires_seed(tmp_path):
    with pytest.raises(ValueError, match="--seed"):
        main(["simulate", "--mode", "hhb", "--model", "gen",
              "--out", str(tmp_path)])


# ---------------------------------------------------------------------------
# config files


@pytest.mark.parametrize("argv, doc, flag", [
    (["certify"], {"scan": "no"}, "--scan"),
    (["certify"], {"bisect_iters": 1.5}, "--bisect-iters"),
    (["certify"], {"max_oracle_calls": 2.5}, "--max-oracle-calls"),
    (["quad", "--n", "4", "--iters", "5"], {"seed": True}, "--seed"),
    (["certify"], {"grid_L": 10}, "--grid-L"),
    (["certify"], {"mu": "1"}, "--mu"),
    (["certify"], {"mu": None}, "--mu"),
    (["quad", "--seed", "1", "--n", "4"], {"iters": 3.0}, "--iters"),
    (["quad", "--seed", "1", "--n", "4", "--iters", "5"], {"methods": "polyak"},
     "--methods"),
    (["certify"], [1], "--config"),
    (["certify"], "not json", "--config"),
    # no file at all (doc None), and a float field past the float range,
    # which is said without echoing its 401 digits
    (["certify"], None, "--config .* cannot be read"),
    (["certify"], '{"mu": 1' + "0" * 400 + "}", r"\(--mu\) is out of the float range$"),
])
def test_config_file_values_are_typed_by_their_field(argv, doc, flag, tmp_path):
    path = tmp_path / "cfg.json"
    if doc is not None:
        path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    with pytest.raises(ValueError, match=flag) as got:
        main(argv + ["--config", str(path), "--out", str(tmp_path / "out")])
    assert str(path) in str(got.value)
    assert not (tmp_path / "out").exists()


def test_config_file_coerces_numbers_and_takes_null_for_an_unset_default(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"mu": 2, "grid_L": [2, 20]}))
    cfg = config_from_args(build_parser().parse_args(["certify", "--config", str(path)]))
    assert type(cfg.mu) is float and cfg.mu == 2.0
    assert cfg.grid_L == (2.0, 20.0) and all(type(L) is float for L in cfg.grid_L)
    assert '"mu": 2.0' in cfg.resolved_json()
    path.write_text(json.dumps({"h": None}))
    cfg = config_from_args(build_parser().parse_args(
        ["quad", "--seed", "1", "--config", str(path)]))
    assert cfg.h == 1e-4


@pytest.mark.parametrize("argv", [
    ["certify", "--grid-L", "1,4", "--bisect-iters", "2", "--methods", "polyak,hhb-pol",
     "--dump-sdp"],
    ["quad", "--seed", "2", "--n", "4", "--iters", "20", "--K", "1,1.5",
     "--methods", "polyak,hihb-nes"],
    ["logreg", "--seed", "2", "--n", "3", "--m", "20", "--iters", "10", "--budget", "3",
     "--methods", "gd,hhb"],
    ["tune", "--seed", "2", "--method", "hihb", "--objective", "logreg", "--n", "3",
     "--m", "20", "--budget", "4"],
    ["simulate", "--mode", "hihb", "--K-lo", "0.5", "--K-hi", "2", "--t-end", "2",
     "--q0", "2", "--p0=-1"],
], ids=lambda argv: argv[0])
def test_config_json_round_trips_through_config_flag(argv, tmp_path):
    # a run's config.json, fed back with only --out (and tune's required
    # --method) on the command line, repeats the run byte for byte
    first, again = tmp_path / "first", tmp_path / "again"
    assert main(argv + ["--out", str(first)]) == 0
    method = ["--method", argv[argv.index("--method") + 1]] if argv[0] == "tune" else []
    assert main([argv[0], *method, "--config", str(first / "config.json"),
                 "--out", str(again)]) == 0
    assert_dirs_byte_identical(first, again)
