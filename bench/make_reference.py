"""Regenerate reference.json: the outputs the checks compare against.

    python3 bench/make_reference.py

Runs certify once and quad, logreg and hybrid for every seed of the pool,
with the benchmark's own commands. Regenerate only on purpose (a workload
changed, or a change to the program's outputs was accepted), and say so
where the change is recorded: the checks are only as strict as this file.
"""
from __future__ import annotations

import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import SEED_POOL, THREAD_ENV, WORKLOADS, commands  # noqa: E402

os.environ.update(THREAD_ENV)  # before worker imports numpy

from checks import extract  # noqa: E402
from worker import ROOT, run_pass  # noqa: E402


def main() -> int:
    out = os.path.join(ROOT, ".bench_out", "reference")
    shutil.rmtree(out, ignore_errors=True)

    def outputs(workload: str, seed: int) -> dict:
        cmds = commands(workload, seed)
        pass_dir = os.path.join(out, workload, str(seed))
        run_pass(cmds, pass_dir)
        return extract(workload, [os.path.join(pass_dir, str(i))
                                  for i in range(len(cmds))])

    ref = {"commands": {w: commands(w, 0) for w in WORKLOADS},
           "certify": outputs("certify", 0), "seeds": {}}
    for seed in range(SEED_POOL):
        ref["seeds"][str(seed)] = {w: outputs(w, seed)
                                   for w in WORKLOADS if w != "certify"}
        print(f"seed {seed} done", flush=True)
    with open(os.path.join(HERE, "reference.json"), "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    shutil.rmtree(out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
