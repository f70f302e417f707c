"""The benchmark's smoke run: every workload's answers match their committed
digests.  Answers only; timings are never checked here."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_perfbench_smoke_answers_match():
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--smoke"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    for workload in ("hom", "closure", "dim"):
        line = next(
            (ln for ln in proc.stdout.splitlines() if ln.startswith(f"smoke {workload}:")), ""
        )
        assert " 0 failed," in line, proc.stdout + proc.stderr
