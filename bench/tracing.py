"""Span tracing from outside the library, and the per-layer metrics.

`Tracer.install` wraps the public entry points of each module where they
are looked up: names a module imported by name are patched in the
importing module (`hbreset.cli.run`, `hbreset.lmi.solve_feasibility`),
names looked up at call time in their own module, and methods on their
class. Spans stay in memory with their parent ids; `restore` puts every
original back.

Run one CLI call traced and print its layer metrics:

    python3 bench/tracing.py quad --seed 7 --out .bench_out/quad
"""
from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from contextlib import contextmanager

# span record fields
ID, PARENT, NAME, START, END, ATTRS = range(6)


def _solve_attrs(result):
    return {"status": result.status, "oracle_calls": result.oracle_calls}


def _probe_attrs(result):
    cert = result[1] if isinstance(result, tuple) else result
    return {"feasible": cert is not None}


def _run_attrs(traj):
    return {"iters": traj.iterations, "resets": int(sum(traj.resets))}


def _arc_attrs(arc):
    return {"samples": len(arc), "jumps": len(arc.jumps)}


# (module[:class], attribute, span name, attributes read from the result)
PATCHES = (
    ("hbreset.cli", "bisect_rate", "lmi.cert", None),
    ("hbreset.lmi", "dt_feasible", "lmi.probe", _probe_attrs),
    ("hbreset.lmi", "solve_feasibility", "sdp.solve", _solve_attrs),
    ("hbreset.sdp:FeasProblem", "worst_block", "sdp.oracle", None),
    ("hbreset.sdp", "symmetric_eig", "sdp.eig", None),
    ("hbreset.cli", "run", "discrete.run", _run_attrs),
    ("hbreset.objectives", "quad_eval_grad", "objectives.eval", None),
    ("hbreset.objectives", "logistic_eval_grad", "objectives.eval", None),
    ("hbreset.cli", "integrate_hb", "hybrid.arc", _arc_attrs),
    ("hbreset.cli", "integrate_hhb", "hybrid.arc", _arc_attrs),
    ("hbreset.cli", "integrate_hihb", "hybrid.arc", _arc_attrs),
    ("hbreset.cli", "tune_method", "cli.tune", None),
    ("hbreset.cli", "logreg_reference", "cli.reference", None),
    ("hbreset.cli", "write_csv", "cli.write", None),
    ("hbreset.discrete:Trajectory", "to_csv", "cli.write", None),
    ("hbreset.hybrid:HybridArc", "to_csv", "cli.write", None),
    ("hbreset.cli", "write_chart", "svg.chart", None),
)


def resolve_owner(target: str):
    module, _, cls = target.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls else owner


class Tracer:
    """Records [id, parent, name, start, end, attrs] spans in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    @contextmanager
    def span(self, name: str):
        rec = [len(self.spans), self._stack[-1] if self._stack else None,
               name, time.perf_counter(), None, None]
        self.spans.append(rec)
        self._stack.append(rec[ID])
        try:
            yield rec
        finally:
            rec[END] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, fn, name: str, attrs):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
                if attrs is not None:
                    rec[ATTRS] = attrs(result)
                return result
        return traced

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for target, attr, name, attrs in PATCHES:
            owner = resolve_owner(target)
            # vars() reads a class's own function, not a bound method
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, attrs))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def write_jsonl(self, path) -> None:
        keys = ("id", "parent", "name", "start", "end", "attrs")
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(dict(zip(keys, rec))) + "\n")


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of its interval that its direct
    children cover (children clipped to the parent, overlaps merged)."""
    children: dict = {}
    for rec in spans:
        if rec[PARENT] is not None:
            children.setdefault(rec[PARENT], []).append(rec)
    out = []
    for rec in spans:
        start, end = rec[START], rec[END]
        covered, reach = 0.0, start
        for child in sorted(children.get(rec[ID], ()), key=lambda c: c[START]):
            lo, hi = max(child[START], reach), min(child[END], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


# name -> (unit, better); the order is the order of the report
LAYER_METRICS = {
    "sdp.solves": ("count", "lower"),
    "sdp.feasible": ("count", "higher"),
    "sdp.infeasible": ("count", "higher"),
    "sdp.indeterminate": ("count", "lower"),
    "sdp.indeterminate_frac": ("ratio", "lower"),
    "sdp.solve_s": ("s", "lower"),
    "sdp.feasible_s": ("s", "lower"),
    "sdp.infeasible_s": ("s", "lower"),
    "sdp.indeterminate_s": ("s", "lower"),
    "sdp.oracle_calls": ("count", "lower"),
    "sdp.oracle_calls_per_solve": ("count", "lower"),
    "sdp.oracle_s": ("s", "lower"),
    "sdp.eig_calls": ("count", "lower"),
    "sdp.eig_us_per_call": ("us", "lower"),
    "sdp.search_self_s": ("s", "lower"),
    "lmi.certs": ("count", "lower"),
    "lmi.probes": ("count", "lower"),
    "lmi.probes_per_cert": ("count", "lower"),
    "lmi.s_per_cert": ("s", "lower"),
    "lmi.feasible_probe_frac": ("ratio", "higher"),
    "lmi.build_self_s": ("s", "lower"),
    "discrete.runs": ("count", "lower"),
    "discrete.iters": ("count", "lower"),
    "discrete.resets": ("count", "lower"),
    "discrete.run_s": ("s", "lower"),
    "discrete.us_per_iter": ("us", "lower"),
    "discrete.self_s": ("s", "lower"),
    "objectives.evals": ("count", "lower"),
    "objectives.eval_s": ("s", "lower"),
    "objectives.us_per_eval": ("us", "lower"),
    "objectives.evals_per_iter": ("count", "lower"),
    "objectives.evals_per_step": ("count", "lower"),
    "hybrid.arcs": ("count", "lower"),
    "hybrid.samples": ("count", "lower"),
    "hybrid.jumps": ("count", "lower"),
    "hybrid.us_per_sample": ("us", "lower"),
    "hybrid.self_s": ("s", "lower"),
    "cli.tune_s": ("s", "lower"),
    "cli.reference_s": ("s", "lower"),
    "cli.write_s": ("s", "lower"),
    "cli.bytes_written": ("bytes", "lower"),
    "svg.chart_s": ("s", "lower"),
    "svg.charts": ("count", "lower"),
    "trace.spans": ("count", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans) -> dict:
    """Per-layer values from a finished trace (trace.wall_s,
    trace.overhead_s and cli.bytes_written are the caller's to add)."""
    selfs = self_times(spans)
    dur: dict = {}
    own: dict = {}
    count: dict = {}
    for rec, self_s in zip(spans, selfs):
        name = rec[NAME]
        if name == "sdp.solve" and rec[ATTRS] is not None:
            # split solves by outcome
            name = "sdp." + rec[ATTRS]["status"]
            dur[name] = dur.get(name, 0.0) + rec[END] - rec[START]
            count[name] = count.get(name, 0) + 1
            name = "sdp.solve"
        dur[name] = dur.get(name, 0.0) + rec[END] - rec[START]
        own[name] = own.get(name, 0.0) + self_s
        count[name] = count.get(name, 0) + 1

    def attr_sum(span_name: str, key: str) -> int:
        return sum(rec[ATTRS][key] for rec in spans
                   if rec[NAME] == span_name and rec[ATTRS] is not None)

    solves = count.get("sdp.solve", 0)
    oracle = count.get("sdp.oracle", 0)
    eigs = count.get("sdp.eig", 0)
    certs = count.get("lmi.cert", 0)
    probes = count.get("lmi.probe", 0)
    iters = attr_sum("discrete.run", "iters")
    evals = count.get("objectives.eval", 0)
    samples = attr_sum("hybrid.arc", "samples")
    return {
        "sdp.solves": solves,
        "sdp.feasible": count.get("sdp.feasible", 0),
        "sdp.infeasible": count.get("sdp.infeasible", 0),
        "sdp.indeterminate": count.get("sdp.indeterminate", 0),
        "sdp.indeterminate_frac": _ratio(count.get("sdp.indeterminate", 0), solves),
        "sdp.solve_s": dur.get("sdp.solve", 0.0),
        "sdp.feasible_s": dur.get("sdp.feasible", 0.0),
        "sdp.infeasible_s": dur.get("sdp.infeasible", 0.0),
        "sdp.indeterminate_s": dur.get("sdp.indeterminate", 0.0),
        "sdp.oracle_calls": oracle,
        "sdp.oracle_calls_per_solve": _ratio(oracle, solves),
        "sdp.oracle_s": dur.get("sdp.oracle", 0.0),
        "sdp.eig_calls": eigs,
        "sdp.eig_us_per_call": 1e6 * _ratio(dur.get("sdp.eig", 0.0), eigs),
        "sdp.search_self_s": own.get("sdp.solve", 0.0),
        "lmi.certs": certs,
        "lmi.probes": probes,
        "lmi.probes_per_cert": _ratio(probes, certs),
        "lmi.s_per_cert": _ratio(dur.get("lmi.cert", 0.0), certs),
        "lmi.feasible_probe_frac": _ratio(attr_sum("lmi.probe", "feasible"), probes),
        "lmi.build_self_s": own.get("lmi.probe", 0.0),
        "discrete.runs": count.get("discrete.run", 0),
        "discrete.iters": iters,
        "discrete.resets": attr_sum("discrete.run", "resets"),
        "discrete.run_s": dur.get("discrete.run", 0.0),
        "discrete.us_per_iter": 1e6 * _ratio(dur.get("discrete.run", 0.0), iters),
        "discrete.self_s": own.get("discrete.run", 0.0),
        "objectives.evals": evals,
        "objectives.eval_s": dur.get("objectives.eval", 0.0),
        "objectives.us_per_eval": 1e6 * _ratio(dur.get("objectives.eval", 0.0), evals),
        "objectives.evals_per_iter": _ratio(evals, iters),
        "objectives.evals_per_step": _ratio(evals, samples),
        "hybrid.arcs": count.get("hybrid.arc", 0),
        "hybrid.samples": samples,
        "hybrid.jumps": attr_sum("hybrid.arc", "jumps"),
        "hybrid.us_per_sample": 1e6 * _ratio(dur.get("hybrid.arc", 0.0), samples),
        "hybrid.self_s": own.get("hybrid.arc", 0.0),
        "cli.tune_s": dur.get("cli.tune", 0.0),
        "cli.reference_s": dur.get("cli.reference", 0.0),
        "cli.write_s": dur.get("cli.write", 0.0),
        "svg.chart_s": dur.get("svg.chart", 0.0),
        "svg.charts": count.get("svg.chart", 0),
        "trace.spans": len(spans),
    }


def _main(argv: list[str]) -> int:
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src"))
    import hbreset.cli

    tracer = Tracer()
    tracer.install()
    try:
        with tracer.span("cli.main"):
            code = hbreset.cli.main(argv)
    finally:
        tracer.restore()
    print(json.dumps(layer_metrics(tracer.spans), indent=1))
    return code


if __name__ == "__main__":
    raise SystemExit(_main(sys.argv[1:]))
