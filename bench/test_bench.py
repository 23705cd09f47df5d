"""Tests for the benchmark's own code.

    python3 -m pytest -q bench
"""
from __future__ import annotations

import json
import os
import signal
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from checks import (Checks, check_certify, check_identical, digest_tree,  # noqa: E402
                    recheck_certificate)
from speed import SpeedSampler  # noqa: E402
from tracing import (ATTRS, NAME, Tracer, layer_metrics,  # noqa: E402
                     self_times)
from worker import originals, run_pass  # noqa: E402

# small versions of the four workloads' CLI calls
TINY = [
    ["certify", "--grid-L", "10", "--methods", "nesterov,polyak", "--bisect-iters", "1"],
    ["quad", "--seed", "1", "--n", "5", "--iters", "40", "--K", "1.0"],
    ["logreg", "--seed", "1", "--n", "4", "--m", "40", "--iters", "20", "--budget", "4"],
    ["simulate", "--model", "gen", "--mode", "hhb", "--seed", "1", "--t-end", "0.5"],
]


def test_self_time_subtracts_merged_clipped_children():
    spans = [
        [0, None, "root", 0.0, 10.0, None],
        [1, 0, "a", 1.0, 3.0, None],
        [2, 0, "a", 2.0, 5.0, None],      # overlaps its sibling: union 1..5
        [3, 1, "leaf", 1.5, 2.5, None],   # grandchild: only its parent's
        [4, 0, "late", 9.0, 12.0, None],  # clipped to the parent: 9..10
    ]
    assert self_times(spans) == pytest.approx([5.0, 1.0, 3.0, 1.0, 3.0])


def test_search_self_time_is_solve_minus_oracle():
    spans = [
        [0, None, "sdp.solve", 0.0, 4.0, {"status": "feasible", "oracle_calls": 2}],
        [1, 0, "sdp.oracle", 1.0, 2.0, None],
        [2, 1, "sdp.eig", 1.2, 1.8, None],
        [3, 0, "sdp.oracle", 2.5, 3.0, None],
        [4, None, "sdp.solve", 5.0, 6.0, {"status": "indeterminate", "oracle_calls": 0}],
    ]
    m = layer_metrics(spans)
    assert m["sdp.solves"] == 2 and m["sdp.feasible"] == 1 and m["sdp.indeterminate"] == 1
    assert m["sdp.indeterminate_frac"] == 0.5
    assert m["sdp.solve_s"] == pytest.approx(5.0)
    assert m["sdp.feasible_s"] == pytest.approx(4.0)
    assert m["sdp.oracle_s"] == pytest.approx(1.5)
    assert m["sdp.search_self_s"] == pytest.approx(m["sdp.solve_s"] - m["sdp.oracle_s"])
    assert m["sdp.eig_us_per_call"] == pytest.approx(0.6e6)


def test_tracer_restores_originals_even_when_the_call_fails():
    before = originals()
    tracer = Tracer()
    tracer.install()
    try:
        assert any(a is not b for a, b in zip(before, originals()))
        with pytest.raises(ValueError):
            run_pass([["certify", "--grid-L", ""]], "unused", tracer)
    finally:
        tracer.restore()
    assert all(a is b for a, b in zip(before, originals()))


def test_traced_artifacts_are_byte_identical(tmp_path):
    run_pass(TINY, str(tmp_path / "plain"))
    tracer = Tracer()
    tracer.install()
    try:
        run_pass(TINY, str(tmp_path / "traced"), tracer)
    finally:
        tracer.restore()
    plain, traced = digest_tree(str(tmp_path / "plain")), digest_tree(str(tmp_path / "traced"))
    assert len(plain) > 10 and plain == traced

    names = {rec[NAME] for rec in tracer.spans}
    assert {"cli.main", "lmi.cert", "lmi.probe", "sdp.solve", "sdp.oracle", "sdp.eig",
            "discrete.run", "objectives.eval", "hybrid.arc", "cli.tune",
            "cli.reference", "cli.write", "svg.chart"} <= names
    m = layer_metrics(tracer.spans)
    # every oracle call the engine reports was seen by the tracer
    reported = sum(rec[ATTRS]["oracle_calls"] for rec in tracer.spans
                   if rec[NAME] == "sdp.solve")
    assert m["sdp.oracle_calls"] == reported > 0
    assert m["discrete.iters"] > 0 and m["hybrid.samples"] > 0

    checks = Checks()
    (tmp_path / "traced" / "1" / "summary.csv").write_text("tampered\n")
    check_identical(checks, plain, digest_tree(str(tmp_path / "traced")), "t")
    assert checks.failures == ["t: 1/summary.csv differs"]


def test_certificate_recheck_rejects_tampering(tmp_path):
    out = tmp_path / "cert"
    run_pass([["certify", "--grid-L", "10", "--methods", "nesterov",
               "--bisect-iters", "0"]], str(out))
    out = out / "0"
    path = out / "cert_nesterov_L10.json"
    doc = json.loads(path.read_text())
    assert recheck_certificate(doc) == []
    reference = {"sweep.csv": (out / "sweep.csv").read_text()}
    checks = Checks()
    check_certify(checks, str(out), reference)
    assert checks.attempted > 0 and checks.failures == []

    doc["P"] = [[-x for x in row] for row in doc["P"]]
    assert any(p.startswith("P:") for p in recheck_certificate(doc))
    path.write_text(json.dumps(doc))
    checks = Checks()
    check_certify(checks, str(out), reference)
    assert len(checks.failures) == 1 and "cert_nesterov_L10.json" in checks.failures[0]


def test_speed_sampler_samples_inside_and_leaves_no_timer():
    previous = signal.getsignal(signal.SIGALRM)
    with SpeedSampler() as speed:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.2:
            pass
        wall = time.perf_counter() - t0
    assert len(speed.samples) >= 3
    assert 0.0 < speed.busy_s < wall and speed.rescale(wall) > 0.0
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
