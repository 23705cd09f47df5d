"""The scripts under demos/ run and print what they promise.

Each runs from a copy in a temporary directory, so a chart a demo writes
next to itself lands there and not in demos/.
"""

import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("script, lines", [
    ("certify_rates.py", ["    10   0.971139    0.945597",
                          "heavy-ball tuning at L=16: no certificate with rate <= 1",
                          "certificate at L=10 (rate 0.822585)"]),
    ("hybrid_oscillator.py", ["  first jump at t = 1.570796 (pi/2 = 1.570796)",
                              "dwell times all >= 0.001: True"]),
    ("reset_vs_plain.py", ["quadratic with L/mu = 1000, 5000 iterations, damping K = 1.0"]),
])
def test_demo_runs_from_a_copy(script, lines, tmp_path):
    shutil.copy(os.path.join(ROOT, "demos", script), tmp_path)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    done = subprocess.run([sys.executable, script], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    printed = done.stdout.splitlines()
    for line in lines:
        assert line in printed
    assert sorted(os.listdir(tmp_path)) == sorted(
        [script] + (["reset_vs_plain.svg"] if script == "reset_vs_plain.py" else []))
