"""hbreset benchmark: four CLI workloads, end-to-end metrics, traced layers.

    python3 bench/run.py --workload quad --seed 3 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 3 --seconds 20

Run from the root of a checkout. Each run measures set-up (fresh
interpreters importing hbreset and resolving the config), then starts one
workload process (worker.py) that repeats the workload's CLI calls for
--seconds, checks the outputs (checks.py), and prints every metric by
name and unit. The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}; with --trace 0 the metrics
are the end-to-end ones, with --trace 1 the per-layer ones of a traced
pass. Artifacts, the full record (bench.json) and the span dump
(trace.jsonl) land in .bench_out/<workload>/. See README.md.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import THREAD_ENV, WORKLOADS, cli_seed, commands  # noqa: E402

os.environ.update(THREAD_ENV)  # before numpy is imported
import numpy  # noqa: E402
import scipy  # noqa: E402

from checks import (Checks, check_certify, check_hybrid, check_identical,  # noqa: E402
                    check_logreg, check_quad, extract)
from speed import SpeedSampler  # noqa: E402
from tracing import LAYER_METRICS  # noqa: E402

SETUP_SAMPLES = 5
WORKER_TIMEOUT_S = 150
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}


def child_env(root: str) -> dict:
    env = dict(os.environ)  # THREAD_ENV included, see above
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


def measure_setup(root: str, argv: list[str], env: dict):
    """Seconds from spawning an interpreter to hbreset imported and the
    workload's config resolved, SETUP_SAMPLES times after one warm-up:
    (raw, at the reference speed). The speed kernel runs in this process
    while the interpreter starts in another."""
    code = ("import sys; sys.path.insert(0, %r); import hbreset.cli as c; "
            "c.config_from_args(c.build_parser().parse_args(%r))"
            % (os.path.join(root, "src"), argv + ["--out", "unused"]))
    raw, norm = [], []
    for _ in range(SETUP_SAMPLES + 1):
        with SpeedSampler() as speed:
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], env=env, check=True,
                           timeout=60, cwd=root)
            elapsed = time.perf_counter() - t0
        raw.append(elapsed)
        norm.append(elapsed * speed.speed_factor())
    return raw[1:], norm[1:]


def provenance(root: str, workload: str, seed: int) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = getattr(numpy.__config__, "CONFIG", {}).get(
        "Build Dependencies", {}).get("blas", {})
    commit = "unknown"
    if os.path.isdir(os.path.join(root, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, check=False)
        commit = proc.stdout.strip() or commit
    src = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(os.path.join(root, "src"))):
        dirs.sort()
        for name in sorted(f for f in files if f.endswith(".py")):
            with open(os.path.join(base, name), "rb") as fh:
                src.update(name.encode() + fh.read())
    return {
        "workload": workload, "seed": seed, "cli_seed": cli_seed(seed),
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu, "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "thread_env": THREAD_ENV, "git_commit": commit,
        "src_sha256": src.hexdigest(),
    }


def check_outputs(workload: str, seed: int, out: str, worker: dict, reference: dict):
    checks = Checks()
    first = worker["passes"][0]["digests"]
    for i, p in enumerate(worker["passes"][1:], start=1):
        check_identical(checks, first, p["digests"], f"pass{i} vs pass0")
    traced = worker.get("traced")
    if traced is not None:
        check_identical(checks, first, traced["digests"], "traced vs untraced")
        checks.check(traced["restored"], "tracer left patched functions behind")
    checks.check(reference["commands"].get(workload) == commands(workload, 0),
                 "reference.json was made for other workload commands")
    out_dirs = [os.path.join(out, "pass0", str(i))
                for i in range(len(commands(workload, seed)))]
    mean_rho = None
    if workload == "certify":
        mean_rho = check_certify(checks, out_dirs[0], reference["certify"])
    else:
        want = reference["seeds"][str(cli_seed(seed))][workload]
        got = extract(workload, out_dirs)
        {"quad": check_quad, "logreg": check_logreg,
         "hybrid": check_hybrid}[workload](checks, got, want)
    return checks, mean_rho


def run_workload(root: str, workload: str, seed: int, seconds: int, trace: int) -> dict:
    out = os.path.join(root, ".bench_out", workload)
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    env = child_env(root)
    setup, norm_setup = measure_setup(root, commands(workload, seed)[0], env)
    subprocess.run([sys.executable, os.path.join(HERE, "worker.py"),
                    "--workload", workload, "--seed", str(seed),
                    "--seconds", str(seconds), "--trace", str(trace), "--out", out],
                   env=env, check=True, timeout=WORKER_TIMEOUT_S, cwd=root)
    with open(os.path.join(out, "worker.json")) as fh:
        worker = json.load(fh)
    with open(os.path.join(HERE, "reference.json")) as fh:
        reference = json.load(fh)
    checks, mean_rho = check_outputs(workload, seed, out, worker, reference)

    raw = [p["wall_s"] for p in worker["passes"]]
    wall = statistics.median(p["norm_wall_s"] for p in worker["passes"])
    if trace:
        layers = dict(worker["traced"]["layers"])
        layers["trace.overhead_s"] = layers["trace.wall_s"] - wall
        metrics = {k: {"value": layers[k], "unit": LAYER_METRICS[k][0]}
                   for k in LAYER_METRICS}
    else:
        values = {"wall_s": wall,
                  "setup_s": statistics.median(norm_setup),
                  "peak_rss_mb": worker["peak_rss_mb"]}
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    record = {
        "provenance": provenance(root, workload, seed),
        "commands": commands(workload, seed),
        "pass_wall_s": raw,
        "pass_norm_wall_s": [p["norm_wall_s"] for p in worker["passes"]],
        "speed_samples": [p["speed_samples"] for p in worker["passes"]],
        "setup_samples_s": setup,
        "setup_norm_samples_s": norm_setup,
        "error_frac": len(checks.failures) / checks.attempted,
        "mean_rho": mean_rho,
        "attempted": checks.attempted,
        "failures": checks.failures,
        "metrics": metrics,
    }
    with open(os.path.join(out, "bench.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    return record


def print_record(rec: dict) -> None:
    wl = rec["provenance"]["workload"]
    q = statistics.quantiles(rec["pass_wall_s"], n=4)
    print(f"# {json.dumps(rec['provenance'], sort_keys=True)}")
    for name, m in rec["metrics"].items():
        print(f"{wl:8s} {name:28s} {m['value']:.6g} {m['unit']}")
    print(f"{wl:8s} {'raw wall_s':28s} {statistics.median(rec['pass_wall_s']):.6g} s "
          f"(n={len(rec['pass_wall_s'])} passes, "
          f"q1={q[0]:.4g} q3={q[2]:.4g}; not speed-normalised)")
    print(f"{wl:8s} {'error_frac':28s} {rec['error_frac']:.6g} ratio "
          f"({len(rec['failures'])} of {rec['attempted']} checks failed)")
    if rec["mean_rho"] is not None:
        print(f"{wl:8s} {'mean_rho':28s} {rec['mean_rho']:.6g} rho")
    for failure in rec["failures"][:20]:
        print(f"{wl:8s} FAIL {failure}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "hbreset", "cli.py")):
        print(f"bench: no hbreset sources under {root}/src; run from the root "
              "of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    records = []
    for wl in names:
        try:
            rec = run_workload(root, wl, args.seed, args.seconds, args.trace)
        except (subprocess.SubprocessError, OSError) as exc:
            print(f"bench: workload {wl} did not complete: {exc!r}", file=sys.stderr)
            return 1
        print_record(rec)
        records.append(rec)
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['provenance']['workload']}.{k}": v
                   for r in records for k, v in r["metrics"].items()}
    failed = sum(len(r["failures"]) for r in records)
    print(json.dumps({"correct": failed == 0,
                      "attempted": sum(r["attempted"] for r in records),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
