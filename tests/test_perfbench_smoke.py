"""The benchmark's smoke run: every workload's answers match their committed
digests.  Answers only; timings are never checked here."""

import glob
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def assert_smoke_answers_match(python):
    proc = subprocess.run(
        [python, os.path.join("perfbench", "run.py"), "--smoke"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, python + "\n" + proc.stdout + proc.stderr
    for workload in ("hom", "closure", "dim"):
        line = next(
            (ln for ln in proc.stdout.splitlines() if ln.startswith(f"smoke {workload}:")), ""
        )
        assert " 0 failed," in line, python + "\n" + proc.stdout + proc.stderr


def test_perfbench_smoke_answers_match():
    assert_smoke_answers_match(sys.executable)


PROBE = "import platform, sys; print(platform.python_implementation(), sys.version_info >= (3, 10), sys.version)"


def other_interpreters():
    """One path per CPython 3.10 or newer, other than the one running the
    tests, found as ``python3.1x`` on the PATH or as
    ``$(pyenv root)/versions/3.1*/bin/python3``.  A path that is absent, or
    that does not start, is passed over."""
    candidates = [shutil.which(f"python3.{minor}") for minor in range(10, 20)]
    pyenv = shutil.which("pyenv")
    if pyenv:
        root = subprocess.run([pyenv, "root"], capture_output=True, text=True, timeout=60).stdout.strip()
        candidates += sorted(glob.glob(os.path.join(root, "versions", "3.1*", "bin", "python3")))
    found = {}  # by sys.version, so that each build runs once
    for path in filter(None, candidates):
        try:
            proc = subprocess.run([path, "-c", PROBE], capture_output=True, text=True, timeout=60)
        except (OSError, subprocess.TimeoutExpired):
            continue
        implementation, new_enough, version = (proc.stdout.rstrip("\n").split(" ", 2) + ["", ""])[:3]
        if proc.returncode == 0 and implementation == "CPython" and new_enough == "True" and version != sys.version:
            found.setdefault(version, path)
    return list(found.values())


def test_perfbench_smoke_answers_match_under_every_other_installed_python():
    """The benchmark needs the standard library only, from 3.10 on: its
    smoke answers match under each other CPython installed here."""
    pythons = other_interpreters()
    if not pythons:
        pytest.skip("no other CPython 3.10 or newer is installed")
    for python in pythons:
        assert_smoke_answers_match(python)


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
