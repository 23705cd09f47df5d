"""The workload process: runs a workload's CLI calls in-process, pass after
pass, and writes per-pass times, artifact digests and (traced) layer
metrics to <out>/worker.json. Started by run.py; not meant to be run by
hand.

Passes repeat until --seconds have elapsed and at least MIN_PASSES ran.
The first pass is timed like the others: the set-up probes have already
compiled the bytecode, and a user of the CLI pays the first pass in every
process. Each untraced pass runs under a SpeedSampler (speed.py), so its
time is also reported at the reference machine speed. With --trace 1 one
more pass runs under the tracer afterwards.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import hbreset  # noqa: E402
import hbreset.cli  # noqa: E402

from checks import digest_tree  # noqa: E402
from speed import SpeedSampler  # noqa: E402
from tracing import PATCHES, Tracer, layer_metrics, resolve_owner  # noqa: E402
from workloads import commands  # noqa: E402

MIN_PASSES = 3
MAX_PASSES = 200


def run_pass(cmds: list[list[str]], out_dir: str, tracer=None) -> float:
    """Wall seconds of the pass's CLI calls; each writes to out_dir/<i>."""
    total = 0.0
    for i, argv in enumerate(cmds):
        full = argv + ["--out", os.path.join(out_dir, str(i))]
        sink = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(sink):
            if tracer is None:
                code = hbreset.cli.main(full)
            else:
                with tracer.span("cli.main"):
                    code = hbreset.cli.main(full)
        total += time.perf_counter() - t0
        if code != 0:
            raise RuntimeError(f"hbreset {' '.join(full)} exited with {code}")
    return total


def originals() -> list:
    return [vars(resolve_owner(target))[attr] for target, attr, _, _ in PATCHES]


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    src = os.path.join(ROOT, "src")
    if not os.path.abspath(hbreset.__file__).startswith(src + os.sep):
        raise RuntimeError(f"hbreset imported from {hbreset.__file__}, not {src}")
    cmds = commands(args.workload, args.seed)
    passes = []
    t_start = time.perf_counter()
    while len(passes) < MAX_PASSES:
        pass_dir = os.path.join(args.out, f"pass{len(passes)}")
        with SpeedSampler() as speed:
            wall = run_pass(cmds, pass_dir)
        passes.append({
            "wall_s": wall,
            "norm_wall_s": speed.rescale(wall),
            "speed_samples": len(speed.samples),
            "digests": digest_tree(pass_dir),
        })
        if len(passes) > 1:
            # pass0 stays on disk for the reference checks
            shutil.rmtree(pass_dir)
        if (len(passes) >= MIN_PASSES
                and time.perf_counter() - t_start >= args.seconds):
            break
    result = {
        "passes": passes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if args.trace:
        before = originals()
        tracer = Tracer()
        tracer.install()
        traced_dir = os.path.join(args.out, "traced")
        try:
            with SpeedSampler() as speed:
                wall = run_pass(cmds, traced_dir, tracer)
        finally:
            tracer.restore()
        layers = layer_metrics(tracer.spans)
        digests = digest_tree(traced_dir)
        layers["cli.bytes_written"] = sum(
            os.path.getsize(os.path.join(traced_dir, rel)) for rel in digests)
        layers["trace.wall_s"] = speed.rescale(wall)
        tracer.write_jsonl(os.path.join(args.out, "trace.jsonl"))
        result["traced"] = {
            "digests": digests, "layers": layers,
            "restored": all(a is b for a, b in zip(before, originals())),
        }
    with open(os.path.join(args.out, "worker.json"), "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
