"""Benchmark for graphfib: seeded workloads driven through ``graphfib.cli.main``.

Run from the repository root:

    python3 perfbench/run.py --workload hom --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

One run generates the workload's inputs from the seed, then makes a fixed
number of passes over its fixed task list: ``--seconds`` divided by the
workload's nominal pass length, so the count depends on the arguments and
never on the speed of the code measured.  Every pass starts from the same
state: graphfib is imported afresh and one untimed warm-up task per
subcommand runs (that is the set-up, timed as ``setup_s``); the inputs are
written once, before the first set-up.  Each task is one in-process
``cli.main(argv)`` call, timed end to end.  A fixed reference loop, which
is benchmark code, runs just before every task and around every set-up, and
every time is scaled by how fast that loop ran next to it (see
``speed_scale``), so that a machine slowed by other load gives the same
figures.  A task's time is the median of its scaled times over the passes.
The exit code and stdout of every
task are hashed and must agree across passes, with the digests committed in
``expected.json`` (default seed), with the seed-independent figures committed
there (every seed), and with the oracles in ``oracles.py``.

With ``--trace 1`` one further pass runs with timing wrappers on graphfib's
public functions (see ``tracing.py``) and the per-layer metrics are reported
instead of the end-to-end ones.  The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--smoke`` runs the smallest task lists once each with the default seed and
checks answers only: digests and oracles, never timings.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True  # leave no bytecode caches in the checkout; every run imports alike

import argparse
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench-out")
EXPECTED = os.path.join(HERE, "expected.json")
DEFAULT_SEED = 0
MIN_SETUPS = 20  # setup_s is the median of at least this many set-ups
REFERENCE_SAMPLES = 5  # reference loops timed before and after each set-up
# Seconds reference_loop() takes on a 2-vCPU Xeon VM with Python 3.11: its
# fastest of 20,000 calls there.  Scaled times read as seconds on that
# machine running at that speed.
REFERENCE_S = 0.000381
# Seconds one pass took on the seed commit (2-vCPU Xeon VM, Python 3.11).
# A run makes round(--seconds / this) passes, the same on every commit.
NOMINAL_PASS_S = {"hom": 2.7, "closure": 4.6, "dim": 2.5}
MODULES = ("cli", "graphs", "partitions", "diagrams", "tensors", "freeprod", "fibrations", "repspaces")

import gen  # noqa: E402
import oracles  # noqa: E402
from tracing import Tracer  # noqa: E402


def reference_loop():
    """A fixed piece of pure-Python work: dict lookups and stores, integer
    arithmetic and a loop, the operations graphfib spends its time on.  It
    allocates no container the garbage collector tracks, so how much
    graphfib keeps alive does not change its speed."""
    table = dict.fromkeys(range(1013), 0)
    total = 0
    for i in range(2000):
        key = i * 7 % 1013
        table[key] += i
        total ^= table[key]
    return total


def time_reference():
    start = time.perf_counter()
    reference_loop()
    return time.perf_counter() - start


def speed_scale(reference_times):
    """REFERENCE_S over the median of reference-loop times measured next to
    some work: multiply the work's measured time by this to get its time at
    the reference speed.  Other load on a shared machine slows the reference
    loop and graphfib alike, so the product stays put; graphfib never runs
    the loop, so a change to graphfib moves only the work's own time."""
    return REFERENCE_S / statistics.median(reference_times)


def drop_graphfib():
    """Forget any earlier import, so that the next one starts with empty
    process-wide caches."""
    for name in [m for m in sys.modules if m == "graphfib" or m.startswith("graphfib.")]:
        del sys.modules[name]


def import_graphfib():
    """Import graphfib afresh from ``src/``."""
    import graphfib.cli  # noqa: F401
    modules = {name: sys.modules[f"graphfib.{name}"] for name in MODULES}
    modules["graphfib"] = sys.modules["graphfib"]  # re-exports every public function
    return modules


def run_task(modules, task):
    """One ``cli.main`` call: (exit code, stdout text, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    start = time.perf_counter()
    try:
        code = modules["cli"].main(task["argv"])
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # a crash is a failed task, not a failed benchmark
        code = f"raised {type(exc).__name__}: {exc}"
    finally:
        elapsed = time.perf_counter() - start
        sys.stdout, sys.stderr = saved
    return code, out.getvalue(), elapsed


def digest(code, text):
    return hashlib.sha256(f"{code}\n".encode() + text.encode("utf-8")).hexdigest()


def combined_digest(tasks, digests):
    h = hashlib.sha256()
    for task, d in zip(tasks, digests):
        h.update(f"{task['id']} {d}\n".encode())
    return h.hexdigest()


class Run:
    """One workload's task list, with every answer and failure seen so far."""

    def __init__(self, workload, seed, size, workdir, committed=True):
        self.workload = workload
        self.seed = seed
        self.size = size
        self.workdir = workdir
        self.committed = committed
        self.tasks = None
        self.modules = None
        self.expected = None  # per-task digests every execution must match
        self.invariants = None  # per-task seed-independent figures
        self.first = None  # (code, text) of each task's first execution
        self.runs = None  # executions per task
        self.bad = None  # executions per task that failed
        self.oracle_bad = set()  # tasks whose first answer failed an oracle
        self.errors = []

    def write_inputs(self):
        """Generate and write the inputs once; returns seconds taken."""
        start = time.perf_counter()
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.tasks = gen.make_tasks(self.workload, self.seed, self.size, self.workdir)
        elapsed = time.perf_counter() - start
        self.first = [None] * len(self.tasks)
        self.runs = [0] * len(self.tasks)
        self.bad = [0] * len(self.tasks)
        if self.committed:
            self.expected, self.invariants = load_committed(self.size, self.workload, self.seed, self.tasks)
        return elapsed

    def setup(self):
        """Import graphfib and warm up; returns seconds taken.

        The previous import and its caches are freed before the clock
        starts, so the time does not depend on what the last pass left."""
        self.modules = None
        drop_graphfib()
        gc.collect()
        start = time.perf_counter()
        self.modules = import_graphfib()
        warmed = set()
        for task in self.tasks:
            if task["argv"][0] not in warmed:
                warmed.add(task["argv"][0])
                run_task(self.modules, task)
        return time.perf_counter() - start

    def run_pass(self, tracer=None):
        """Run every task once, each right after one reference loop; returns
        (per-task seconds, reference-loop seconds, stdout bytes)."""
        gc.collect()
        times, references = [], []
        out_bytes = 0
        for index, task in enumerate(self.tasks):
            references.append(time_reference())
            if tracer:
                tracer.start_task(index)
            code, text, elapsed = run_task(self.modules, task)
            times.append(elapsed)
            out_bytes += len(text.encode("utf-8"))
            self.record(index, code, text)
        return times, references, out_bytes

    def record(self, index, code, text):
        """Count a failure when an answer is not the expected one."""
        self.runs[index] += 1
        if self.first[index] is None:
            self.first[index] = (code, text)
        want = self.expected[index] if self.expected else digest(*self.first[index])
        problem = None
        if not isinstance(code, int) or code == 1:
            problem = f"exit {code}"
        elif digest(code, text) != want:
            problem = "answer differs from the expected digest"
        if problem:
            self.bad[index] += 1
            self.errors.append(f"{self.tasks[index]['id']}: {problem}")

    def check_oracles(self):
        """Run the independent oracles on each task's first answer, and
        compare its seed-independent figure with the committed one."""
        for index, (task, (code, text)) in enumerate(zip(self.tasks, self.first)):
            problem = oracles.check(task, code, text) if isinstance(code, int) else None
            if problem is None and self.invariants is not None:
                have = oracles.invariant(task, code, text)
                if have != self.invariants[index]:
                    problem = f"seed-independent figure differs from the committed one: {str(have)[:80]}"
            if problem:
                self.oracle_bad.add(index)
                self.errors.append(f"{task['id']}: oracle: {problem}")

    @property
    def attempted(self):
        return sum(self.runs)

    @property
    def failed(self):
        """Failed executions; a task that fails an oracle fails every time."""
        return sum(r if i in self.oracle_bad else b for i, (r, b) in enumerate(zip(self.runs, self.bad)))

    def digests(self):
        return [digest(code, text) for code, text in self.first]

    def invariant_figures(self):
        return [oracles.invariant(task, code, text) for task, (code, text) in zip(self.tasks, self.first)]


def load_committed(size, workload, seed, tasks):
    """(per-task digests, per-task seed-independent figures) from
    ``expected.json``.  The digests hold for the default seed only, so on
    other seeds they are None."""
    with open(EXPECTED, encoding="utf-8") as fh:
        table = json.load(fh)
    ids = [t["id"] for t in tasks]
    found = []
    for key in ("digests", "invariants"):
        per_task = table[key][size][workload]
        if list(per_task) != ids:
            raise SystemExit(f"{EXPECTED} does not match the {size} {workload} task list")
        found.append(list(per_task.values()))
    digests, invariants = found
    return (digests if seed == DEFAULT_SEED else None), invariants


def percentile(sorted_values, q):
    """Nearest-rank percentile."""
    index = max(0, -(-len(sorted_values) * q // 100) - 1)
    return sorted_values[int(index)]


def load_declared():
    """Metric names and units declared in BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def benchmark(args):
    end_to_end, per_layer = load_declared()
    workdir = os.path.join(OUT, f"{args.workload}-s{args.seed}-p{os.getpid()}")
    run = Run(args.workload, args.seed, "full", workdir)
    passes = max(1, round(args.seconds / NOMINAL_PASS_S[args.workload]))
    setups_per_pass = -(-MIN_SETUPS // passes)
    try:
        inputs_s = run.write_inputs()
        # Set-ups are spread over the run, several before each pass; the
        # pass runs on the last one.  Each set-up is timed between
        # REFERENCE_SAMPLES reference loops before and after it.
        setups, raw_setups, task_times, scales = [], [], [], []
        for _ in range(passes):
            for _ in range(setups_per_pass):
                references = [time_reference() for _ in range(REFERENCE_SAMPLES)]
                seconds = run.setup()
                references += [time_reference() for _ in range(REFERENCE_SAMPLES)]
                raw_setups.append(seconds)
                setups.append(seconds * speed_scale(references))
            times, references, _ = run.run_pass()
            task_times.append(times)
            scales.append(speed_scale(references))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        # Each task's time is the median over the passes of its time scaled
        # by its pass's speed.  The pass count is fixed, so every commit gets
        # as many samples.
        per_task = [statistics.median(t * scale for t, scale in zip(ts, scales)) for ts in zip(*task_times)]
        raw_per_task = sorted(statistics.median(ts) for ts in zip(*task_times))
        tasks_per_s = len(run.tasks) / sum(per_task)

        if args.trace:
            run.setup()
            tracer = Tracer()
            tracer.install(run.modules)
            try:
                traced_times, traced_references, out_bytes = run.run_pass(tracer)
            finally:
                tracer.uninstall()
            os.makedirs(OUT, exist_ok=True)
            spans_path = os.path.join(OUT, f"spans-{args.workload}-s{args.seed}.csv.gz")
            tracer.write_spans(spans_path)
            # traced / untraced tasks_per_s at the reference speed, against the
            # untraced pass just before
            overhead = (sum(task_times[-1]) * scales[-1]) / (sum(traced_times) * speed_scale(traced_references))
            values = tracer.metrics(per_layer, out_bytes, overhead)
            units = per_layer
            print(f"spans: {len(tracer.spans)} written to {os.path.relpath(spans_path, ROOT)}")
        else:
            per_task.sort()
            values = {
                "tasks_per_s": tasks_per_s,
                "task_p50_s": statistics.median(per_task),
                "task_p90_s": percentile(per_task, 90),
                "setup_s": statistics.median(setups),
                "peak_rss_mb": peak_rss_mb,
            }
            units = end_to_end
            print(f"samples: {len(per_task)} tasks x {len(task_times)} passes, {len(setups)} set-ups; "
                  f"p90 has {len(per_task) - per_task.index(values['task_p90_s']) - 1} tasks above it")
            print(f"unscaled: tasks_per_s {len(raw_per_task) / sum(raw_per_task)} tasks/s, "
                  f"task_p50_s {statistics.median(raw_per_task)} s, task_p90_s {percentile(raw_per_task, 90)} s, "
                  f"setup_s {statistics.median(raw_setups)} s; speed scale per pass "
                  + " ".join(f"{scale:.3f}" for scale in scales))
        run.check_oracles()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if set(values) != set(units):
        raise SystemExit(f"metrics {sorted(set(values) ^ set(units))} disagree with BENCHMARK.json")
    failed = run.failed
    for line in run.errors[:20]:
        print(f"FAIL {line}")
    print(f"workload {args.workload} seed {args.seed}: {len(run.tasks)} tasks, {len(task_times)} passes, "
          f"expected digests {'committed' if run.expected else 'from first pass'}; "
          f"inputs written in {inputs_s:.3f} s (not part of setup_s)")
    print(f"answers digest {combined_digest(run.tasks, run.digests())}")
    print(f"fail_ratio {failed / run.attempted:.6f} ratio ({failed} of {run.attempted})")
    for name, value in values.items():
        print(f"{name} {value} {units[name]}")
    result = {
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


def dump_table(obj, depth=0):
    """JSON with one line per task: nested objects indented, values inline."""
    if not isinstance(obj, dict):
        return json.dumps(obj)
    pad = " " * (depth + 1)
    items = [f"{pad}{json.dumps(k)}: {dump_table(v, depth + 1)}" for k, v in sorted(obj.items())]
    return "{\n" + ",\n".join(items) + "\n" + " " * depth + "}"


def smoke_or_update(args):
    """Answers only: run each small (or, with --update-expected, each full)
    task list once on the default seed and check its digests, figures and
    oracles."""
    sizes = ("smoke", "full") if args.update_expected else ("smoke",)
    table = {"digests": {}, "invariants": {}}
    ok = True
    for size in sizes:
        table["digests"][size], table["invariants"][size] = {}, {}
        for workload in gen.WORKLOADS:
            workdir = os.path.join(OUT, f"{size}-{workload}-p{os.getpid()}")
            run = Run(workload, DEFAULT_SEED, size, workdir, committed=not args.update_expected)
            try:
                run.write_inputs()
                run.setup()
                run.run_pass()
                run.check_oracles()
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            for line in run.errors:
                print(f"FAIL {size} {line}")
            ok &= run.failed == 0
            table["digests"][size][workload] = {t["id"]: d for t, d in zip(run.tasks, run.digests())}
            table["invariants"][size][workload] = {t["id"]: f for t, f in zip(run.tasks, run.invariant_figures())}
            print(f"{size} {workload}: {len(run.tasks)} tasks, {run.failed} failed, "
                  f"digest {combined_digest(run.tasks, run.digests())}")
    if args.update_expected:
        if not ok:
            print("not writing expected.json: some answers failed their checks")
            return 1
        with open(EXPECTED, "w", encoding="utf-8") as fh:
            fh.write(dump_table(table) + "\n")
        print(f"wrote {os.path.relpath(EXPECTED, ROOT)}")
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=gen.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="check answers of the smallest task lists")
    parser.add_argument("--update-expected", action="store_true",
                        help="recompute the committed digests and figures from the default seed")
    args = parser.parse_args(argv)
    if not os.path.exists(os.path.join(SRC, "graphfib", "__init__.py")):
        print(f"error: no graphfib sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.smoke or args.update_expected:
        return smoke_or_update(args)
    if args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    return benchmark(args)


if __name__ == "__main__":
    sys.exit(main())
