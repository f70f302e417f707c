"""The benchmark's smoke run: every workload's answers match their committed
digests.  Answers only; timings are never checked here."""

import os
import subprocess
import sys

import pytest

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


FULL_RUN = """
import sys, tempfile
sys.path[:0] = ["src", "perfbench"]
import run

with tempfile.TemporaryDirectory() as workdir:
    workload = run.Run(sys.argv[1], run.DEFAULT_SEED, "full", workdir)
    workload.write_inputs()
    workload.setup()
    workload.run_pass()
    workload.check_oracles()
print(len(workload.tasks), workload.failed)
print("\\n".join(workload.errors))
"""


@pytest.mark.parametrize("workload", ["hom", "closure", "dim"])
def test_every_full_size_answer_matches_its_digest(workload):
    """All answers of the workload's full task list, not just the smoke
    ones, against their committed digests and oracles."""
    proc = subprocess.run(
        [sys.executable, "-B", "-c", FULL_RUN, workload],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    tasks, failed = proc.stdout.split("\n")[0].split()
    assert int(tasks) > 100 and failed == "0", proc.stdout + proc.stderr


TRACED_MEMBER = """
import sys
sys.path[:0] = ["src", "perfbench"]
import run
from tracing import Tracer

modules = run.import_graphfib()
freeprod = modules["freeprod"]
tracer = Tracer()
tracer.install(modules)
try:
    # not racg-eligible, with a finite quotient, so ``auto`` resolves to the
    # finite model and the hook calls quotient_order_if_finite(spec)
    spec = freeprod.NormalClosureSpec(3, [(0, 1), (1, 2)])
    verdict = freeprod.member((0, 2), spec)
finally:
    tracer.uninstall()
print(verdict.value, tracer.calls["freeprod.member"], tracer.counts["freeprod.member.strategy.finite-model"])
"""


def test_tracer_binds_every_traced_name():
    """The tracer wraps the names it lists and reads ``spec.strategy`` and
    ``quotient_order_if_finite``; a renamed or deleted one fails here."""
    proc = subprocess.run(
        [sys.executable, "-B", "-c", TRACED_MEMBER],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.split() == ["yes", "1", "1"], proc.stdout + proc.stderr
