"""Output checks behind error_frac and the result's `correct` flag.

Every check is one assertion; error_frac = failed / attempted. Outputs are
compared with reference.json, which holds what this benchmark's inputs
produced at the commit that defined it (regenerate with make_reference.py
only on purpose). Tolerances, stated once here:

* certify: a row certified in the reference must stay certified, with a
  rate no higher than the reference rate plus the bisection resolution.
  Every written certificate is rebuilt with `lmi.dt_problem` and its
  blocks are checked with numpy's eigvalsh (not the engine's own
  eigensolver) at half the solve margin.
* quad, logreg: summary rows match by name and status; floats agree to
  RTOL relative plus GAP_ATOL absolute (gap units; the float floor of
  these objectives is below 1e-9). quad rows whose reference gap is
  below GAP_FLOOR sit at that floor, where the nonmonotone count and tail
  slope are rounding noise, so those two columns are compared only above
  it. logreg iterations-to-gap and reference iterations match exactly.
* hybrid: sample and jump counts match exactly.
* every workload: repeat passes give byte-identical artifacts.
"""
from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os

import numpy as np

from workloads import BISECT_RESOLUTION, HYBRID_MODES

RTOL = 1e-6
GAP_ATOL = 1e-8
GAP_FLOOR = 1e-6
SLOPE_ATOL = 1e-9


class Checks:
    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok


def digest_tree(root: str) -> dict:
    """sha256 of every file under root, keyed by relative path."""
    out = {}
    for base, _, files in os.walk(root):
        for name in files:
            path = os.path.join(base, name)
            h = hashlib.sha256()
            with open(path, "rb") as fh:
                for block in iter(lambda: fh.read(1 << 20), b""):
                    h.update(block)
            out[os.path.relpath(path, root)] = h.hexdigest()
    return out


def check_identical(checks: Checks, first: dict, other: dict, what: str) -> None:
    for rel in sorted(set(first) | set(other)):
        checks.check(first.get(rel) == other.get(rel), f"{what}: {rel} differs")


def _read(path: str) -> str:
    with open(path) as fh:
        return fh.read()


def extract(workload: str, out_dirs: list[str]) -> dict:
    """The parts of a pass's outputs that are compared with the reference."""
    if workload == "certify":
        return {"sweep.csv": _read(os.path.join(out_dirs[0], "sweep.csv"))}
    if workload == "quad":
        return {"summary.csv": _read(os.path.join(out_dirs[0], "summary.csv"))}
    if workload == "logreg":
        return {name: _read(os.path.join(out_dirs[0], name))
                for name in ("summary.csv", "reference.json")}
    if workload == "hybrid":
        out = {}
        for mode, d in zip(HYBRID_MODES, out_dirs):
            with open(os.path.join(d, "arc.csv")) as fh:
                samples = sum(1 for _ in fh) - 1
            jumps = len(json.loads(_read(os.path.join(d, "jumps.json"))))
            out[mode] = {"samples": samples, "jumps": jumps}
        return out
    raise ValueError(f"unknown workload {workload!r}")


def _rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def _num(cell: str) -> float:
    return float(cell) if cell else math.nan


def _close(got: str, ref: str, atol: float) -> bool:
    a, b = _num(got), _num(ref)
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= RTOL * abs(b) + atol


def _match_rows(checks: Checks, got: list[dict], ref: list[dict], keys, what: str):
    """Pairs of rows whose identifying columns agree."""
    checks.check(len(got) == len(ref), f"{what}: {len(got)} rows, reference has {len(ref)}")
    pairs = []
    for g, r in zip(got, ref):
        if checks.check(all(g.get(k) == r[k] for k in keys),
                        f"{what}: row {[g.get(k) for k in keys]} != {[r[k] for k in keys]}"):
            pairs.append((g, r))
    return pairs


def recheck_certificate(doc: dict) -> list[str]:
    """Problems with a certificate, checked without the engine that made it.

    The blocks are rebuilt from the certificate's tuning and rate with
    `lmi.dt_problem`; each must hold at half the solve margin."""
    from hbreset.lmi import build_theorem2, dt_problem, dt_system

    t, m = doc["tuning"], doc["multipliers"]
    P = np.array(doc["P"], dtype=float)
    if doc.get("rate_kind") != "rho" or P.shape != (2, 2) or P[0, 1] != P[1, 0]:
        return ["not a symmetric 2x2 discrete-time certificate"]
    v = np.array([P[0, 0], P[0, 1], P[1, 1], m["a"], m["lambda"], m["lambda_r"],
                  m["sigma"], m["sigma_r"]], dtype=float)
    if not np.all(np.isfinite(v)):
        return ["non-finite certificate entries"]
    data = build_theorem2(dt_system(t["h"], t["beta_hi"], t["beta_lo"], t["disc"]),
                          t["mu"], t["L"], doc["rate"])
    problem = dt_problem(data)
    half = 0.5 * problem.margin

    def value(blk):
        return blk.constant + sum(v[i] * mat for i, mat in blk.basis)

    problems = []
    for blk in problem.nsd_blocks:
        top = float(np.linalg.eigvalsh(value(blk))[-1])
        if not top <= -half:
            problems.append(f"{blk.name}: largest eigenvalue {top:.3e} > {-half:.1e}")
    for blk in problem.pd_blocks:
        low = float(np.linalg.eigvalsh(value(blk))[0])
        if not low >= half:
            problems.append(f"{blk.name}: smallest eigenvalue {low:.3e} < {half:.1e}")
    for i, floor in problem.nonneg.items():
        if not v[i] >= floor + half:
            problems.append(f"v{i} = {v[i]:.3e} below its floor {floor:.1e}")
    return problems


def check_certify(checks: Checks, out_dir: str, ref: dict) -> float:
    """Row and certificate checks; returns mean_rho (uncertified = 1.0)."""
    rows = _rows(_read(os.path.join(out_dir, "sweep.csv")))
    keys = ("L", "mu", "h", "beta_hi", "beta_lo", "method")
    for got, want in _match_rows(checks, rows, _rows(ref["sweep.csv"]), keys, "sweep.csv"):
        name = f"sweep.csv {want['method']} L={want['L']}"
        if want["status"] == "certified":
            if checks.check(got["status"] == "certified", f"{name}: no longer certified"):
                checks.check(float(got["rho"]) <= float(want["rho"]) + BISECT_RESOLUTION,
                             f"{name}: rate {got['rho']} above reference {want['rho']}")
    written = {f for f in os.listdir(out_dir) if f.startswith("cert_")}
    expected = set()
    for row in rows:
        if row["status"] != "certified":
            continue
        fname = f"cert_{row['method']}_L{float(row['L']):g}.json"
        expected.add(fname)
        if not checks.check(fname in written, f"{fname}: missing"):
            continue
        doc = json.loads(_read(os.path.join(out_dir, fname)))
        t = doc["tuning"]
        checks.check(doc["rate"] == float(row["rho"]) and t["L"] == float(row["L"])
                     and t["mu"] == float(row["mu"]) and t["h"] == float(row["h"])
                     and t["beta_hi"] == float(row["beta_hi"])
                     and t["beta_lo"] == float(row["beta_lo"]),
                     f"{fname}: rate or tuning differs from its sweep row")
        problems = recheck_certificate(doc)
        checks.check(not problems, f"{fname}: {'; '.join(problems)}")
    checks.check(written == expected,
                 f"certificates without a certified row: {sorted(written - expected)}")
    rates = [float(r["rho"]) if r["status"] == "certified" else 1.0 for r in rows]
    return sum(rates) / len(rates) if rates else math.nan


def check_quad(checks: Checks, got: dict, ref: dict) -> None:
    pairs = _match_rows(checks, _rows(got["summary.csv"]), _rows(ref["summary.csv"]),
                        ("method", "K", "h", "status"), "quad summary.csv")
    for g, r in pairs:
        name = f"quad {r['method']} K={r['K']}"
        checks.check(_close(g["final_gap"], r["final_gap"], GAP_ATOL),
                     f"{name}: final_gap {g['final_gap']} vs {r['final_gap']}")
        if abs(_num(r["final_gap"])) > GAP_FLOOR:
            checks.check(g["nonmonotone"] == r["nonmonotone"],
                         f"{name}: nonmonotone {g['nonmonotone']} vs {r['nonmonotone']}")
            checks.check(_close(g["tail_slope"], r["tail_slope"], SLOPE_ATOL),
                         f"{name}: tail_slope {g['tail_slope']} vs {r['tail_slope']}")


def check_logreg(checks: Checks, got: dict, ref: dict) -> None:
    pairs = _match_rows(checks, _rows(got["summary.csv"]), _rows(ref["summary.csv"]),
                        ("method", "status", "iters_to_gap"), "logreg summary.csv")
    for g, r in pairs:
        for col in ("h", "beta", "final_gap"):
            checks.check(_close(g[col], r[col], GAP_ATOL if col == "final_gap" else 0.0),
                         f"logreg {r['method']}: {col} {g[col]} vs {r[col]}")
    g, r = json.loads(got["reference.json"]), json.loads(ref["reference.json"])
    checks.check(g["iterations"] == r["iterations"]
                 and abs(g["phi_star"] - r["phi_star"]) <= RTOL * abs(r["phi_star"]),
                 f"logreg reference run: {g} vs {r}")


def check_hybrid(checks: Checks, got: dict, ref: dict) -> None:
    for mode in HYBRID_MODES:
        for key in ("samples", "jumps"):
            checks.check(got[mode][key] == ref[mode][key],
                         f"hybrid {mode}: {key} {got[mode][key]} vs {ref[mode][key]}")
