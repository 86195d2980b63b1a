"""Benchmark of the planar-rook command line, one fresh process per command.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a planar-rook checkout.  A single client runs a
workload's commands one at a time (a closed loop), each as a new process, so
every command starts with cold caches as it does for a user.  Set-up
compiles the package's bytecode and writes the seeded inputs under
.perfbench/.  Then passes over the job list run while at least half of the
next pass fits in S seconds.  Every job's exit code and output are checked,
the output against an answer from perfbench/reference.py; after a failure
no further pass starts, so a job that fails is never timed again.  After
each job a trivial command is timed (setup_s: spawn, package import and
parser set-up, which users pay on every command).

Job times are reported in "ref" units: multiples of the CPU time of a fixed
pure-Python reference computation (reference_work below, which never
imports the package).  On a shared host the speed of a CPU changes by up to
1.7x, in bursts of a second and in spells of minutes, with the load of
other tenants, and raw seconds follow it.  So the whole run is pinned to
one CPU, the reference runs right before and right after every job, and a
job's time is divided by the mean of the reference samples taken from just
before the previous job to just after the next one: close enough in time to
follow the spells, wide enough to average out the bursts.  A change to the
package moves the job's time and not the reference's.  The record line
keeps the raw seconds and the reference's own time.  Pass metrics are sums
over jobs of each job's median over the passes.

With --trace 0 the last line of standard output carries the end-to-end
metrics; with --trace 1 passes alternate between plain and traced
(perfbench/tracer.py) and it carries per-layer self times and work counts.
The line before it holds the full record: environment, inputs with their
sizes, and each metric's median, quartiles and sample count.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from fractions import Fraction

import inputs
import tracer
from workloads import SEEDED, WORKLOADS, Job

WORK_DIR = ".perfbench"
JOB_TIMEOUT_S = 120
SETUP_ARGV = ("simples", "--m", "1", "--n", "1")
HERE = os.path.dirname(os.path.abspath(__file__))


class Runner:
    """Runs jobs as fresh processes from the checkout at root."""

    def __init__(self, root: str, work: str):
        self.root = root
        self.env = {k: v for k, v in os.environ.items() if k != "PLANAR_ROOK_FORCE"}
        self.env["PYTHONPATH"] = os.path.join(root, "src")
        self.out_dir = work
        self.spans_path = os.path.join(work, "spans.bin")
        self.attempted = 0
        self.failures: list[str] = []

    def spawn(self, argv, traced: bool = False) -> dict:
        """One process: wall and CPU time, peak RSS, exit code and output."""
        if traced:
            cmd = [sys.executable, os.path.join(HERE, "tracer.py"), self.spans_path, *argv]
        else:
            cmd = [sys.executable, "-m", "planar_rook.cli", *argv]
        out_path = os.path.join(self.out_dir, "stdout")
        err_path = os.path.join(self.out_dir, "stderr")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=self.env, cwd=self.root)
            timer = threading.Timer(JOB_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        with open(out_path, "rb") as fh:
            stdout = fh.read()
        with open(err_path, "rb") as fh:
            stderr = fh.read()
        return {
            "start": start,
            "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024,
            "code": proc.returncode,
            "stdout": stdout,
            "stderr": stderr,
        }

    def run(self, job: Job, traced: bool) -> dict:
        """Run and check one job; a failure is recorded with its reason."""
        result = self.spawn(job.argv, traced)
        self.attempted += 1
        if result["code"] != 0:
            tail = result["stderr"][-300:].decode(errors="replace")
            reason = f"exit {result['code']}: {tail}"
        else:
            try:
                reason = job.check(result["stdout"])
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                reason = f"unreadable output: {exc!r}"
        result["stdout_bytes"] = len(result.pop("stdout"))
        del result["stderr"]
        if traced and reason is None:
            result["trace"] = job_breakdown(self.spans_path, result["start"], result["wall_s"])
        if reason is not None:
            self.failures.append(f"{job.name}: {reason}")
        return result


# -------------------------------------------------------------- reference

REF_REPEATS = 3


def reference_work() -> int:
    """A fixed computation made of what the package's own work is made of:
    Fraction arithmetic, dict updates and small tuples."""
    total = Fraction(0)
    table: dict[int, int] = {}
    items = []
    for i in range(1, 1200):
        total += Fraction(i % 7 + 1, i) * Fraction(i + 1, i % 11 + 2)
        key = (i * 31) % 509
        table[key] = table.get(key, 0) + i
        items.append(tuple(range(i % 9)))
    return total.denominator % 7 + len(table) + len(items)


def reference_seconds() -> float:
    """CPU seconds of one reference_work on the current CPU, averaged over
    REF_REPEATS runs."""
    start = time.thread_time()
    for _ in range(REF_REPEATS):
        reference_work()
    return (time.thread_time() - start) / REF_REPEATS


# ------------------------------------------------------------------ trace

LAYERS = ("startup", "import") + tracer.LAYERS + ("exit",)
# Metric name -> span name, for the functions whose self time is reported.
SELF_TIMES = {
    name: name
    for name in (
        "linalg.rref", "linalg.mat_vec", "linalg.column_space_basis",
        "linalg.coordinates_in_basis", "modules.matrix", "modules.matrix_of",
        "modules.restrict", "modules.decompose", "diagrams.multiply",
        "algebra.mul", "algebra.tensor", "algebra.to_orbit_basis",
        "algebra.expand_orbit_coordinates", "crystals.tensor",
        "crystals.are_isomorphic", "crystals.check_axioms", "crystals.components",
        "tableaux.ssyt_crystal", "tableaux.row_crystal", "tableaux.enumerate_ssyt",
        "class_crystals.class_crystal", "class_crystals.tensor_class_crystal",
        "class_crystals.highest_component",
    )
}
SELF_TIMES["diagrams.enumerate"] = "diagrams.enumerate_diagrams"
CALLS = ("linalg.rref", "modules.matrix", "diagrams.multiply", "algebra.orbit_vector")
COUNTS = (
    "linalg.rref.entries", "modules.matrix_of.entries", "algebra.orbit_vector.terms",
    "diagrams.construct.calls", "crystals.nodes", "crystals.edges", "verify.checked",
)


def job_breakdown(spans_path: str, start: float, wall: float) -> dict:
    """Self time per span name and per layer, call counts and counters.

    A span's self time is its duration minus its children's durations, so
    the self times of one job sum to its root span (cli.main).  perf_counter
    is the system's monotonic clock, so the job's wall time splits exactly
    into startup (spawn, interpreter, tracer set-up), the package import,
    the spans, and exit (writing the spans, interpreter teardown).
    """
    header, names, parents, starts, ends = tracer.read_spans(spans_path)
    count = header["count"]
    self_s = [ends[i] - starts[i] for i in range(count)]
    root_s = 0.0
    for i in range(count):
        p = parents[i]
        if p < 0:
            root_s += ends[i] - starts[i]
        elif starts[p] <= starts[i] <= ends[i] <= ends[p]:
            self_s[p] -= ends[i] - starts[i]
        else:
            raise ValueError(f"span {i} is not inside its parent span {p}")
    by_name: dict[str, float] = {}
    calls: dict[str, int] = {}
    for i in range(count):
        name = header["names"][names[i]]
        by_name[name] = by_name.get(name, 0.0) + self_s[i]
        calls[name] = calls.get(name, 0) + 1
    layers = dict.fromkeys(LAYERS, 0.0)
    for name, seconds in by_name.items():
        layers[name.split(".")[0]] += seconds
    first = starts[0] if count else start + wall
    layers["import"] = header["import_s"]
    layers["startup"] = first - start - header["import_s"]
    layers["exit"] = wall - layers["startup"] - layers["import"] - root_s
    return {"self_s": by_name, "calls": calls, "layers": layers,
            "counters": header["counters"]}


def layer_metrics(results: list[dict]) -> dict:
    """Per-layer metrics of one traced pass, summed over its jobs."""
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    layers = dict.fromkeys(LAYERS, 0.0)
    counters: dict[str, float] = {}
    for job in results:
        t = job["trace"]
        for table, acc in ((t["self_s"], self_s), (t["calls"], calls),
                           (t["layers"], layers), (t["counters"], counters)):
            for k, v in table.items():
                acc[k] = acc.get(k, 0) + v

    def ratio(a: str, b: float) -> float:
        return counters.get(a, 0) / b if b else 0.0

    out = {f"{layer}.self_s": (layers[layer], "s") for layer in LAYERS}
    for metric, span in SELF_TIMES.items():
        out[f"{metric}.self_s"] = (self_s.get(span, 0.0), "s")
    for name in CALLS:
        out[f"{name}.calls"] = (calls.get(name, 0), "count")
    for name in COUNTS:
        out[name] = (counters.get(name, 0), "count")
    out["linalg.rank_per_row"] = (
        ratio("linalg.rref.pivots", counters.get("linalg.rref.rows", 0)), "ratio")
    matrix_calls = calls.get("modules.matrix", 0)
    out["modules.matrix.hit_ratio"] = (
        1 - ratio("modules.matrix.distinct", matrix_calls) if matrix_calls else 0.0, "ratio")
    out["algebra.mul.useful_ratio"] = (
        ratio("algebra.mul.terms", counters.get("algebra.mul.products", 0)), "ratio")
    out["cli.stdout_bytes"] = (sum(job["stdout_bytes"] for job in results), "bytes")
    return out


# ---------------------------------------------------------------- helpers


def summary(values) -> dict:
    """Median and quartiles with the sample count."""
    values = list(values)
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def job_medians(passes: list[list[dict]], key: str) -> list[float]:
    """Each job's median of one measurement over the passes."""
    return [statistics.median(p[j][key] for p in passes) for j in range(len(passes[0]))]


def environment(root: str, seed: int) -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    except OSError:
        pass
    commit = None
    if os.path.isdir(os.path.join(root, ".git")):
        got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True)
        commit = got.stdout.strip() or None
    digest = hashlib.sha256()
    src = os.path.join(root, "src", "planar_rook")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "platform": platform.platform(),
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "seed": seed,
    }


def build(root: str) -> None:
    """Compile the package's bytecode, as an install would."""
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", os.path.join(root, "src", "planar_rook")],
        check=True,
    )


# ------------------------------------------------------------------- main


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "planar_rook", "cli.py")):
        print("perfbench: run from the root of a planar-rook checkout "
              "(src/planar_rook/cli.py not found)", file=sys.stderr)
        return 2
    # SIGTERM unwinds like Ctrl-C, so a running job is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    build(root)
    os.makedirs(WORK_DIR, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=WORK_DIR)
    try:
        return measure(args, root, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, root: str, work: str) -> int:
    manifest = inputs.generate(args.seed, os.path.join(work, "inputs"))
    jobs = WORKLOADS[args.workload](manifest)
    runner = Runner(root, work)

    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    setup: list[dict] = []

    def run_pass(traced_now: bool) -> list[dict]:
        """One pass; each job's result carries the reference time around it."""
        results = []
        for job in jobs:
            before = reference_seconds()
            result = runner.run(job, traced_now)
            result["ref_s"] = (before + reference_seconds()) / 2
            results.append(result)
            if not traced_now:
                setup.append(runner.spawn(SETUP_ARGV))
        return results

    # With --trace 1, plain and traced passes alternate.
    plain: list[list[dict]] = []
    traced: list[list[dict]] = []
    start = time.perf_counter()
    while not runner.failures:
        pass_start = time.perf_counter()
        for trace_now in (False, True) if args.trace else (False,):
            if not runner.failures:
                (traced if trace_now else plain).append(run_pass(trace_now))
        # Start another pass while at least half of it fits, so that runs
        # measure S seconds on average.
        now = time.perf_counter()
        if now - start + (now - pass_start) / 2 > args.seconds:
            break
    os.sched_setaffinity(0, cpus)
    if any(s["code"] != 0 for s in setup):
        print("perfbench: the trivial command failed", file=sys.stderr)
        return 2

    in_order = [r for p in plain for r in p]
    for i, r in enumerate(in_order):
        ref = statistics.fmean(w["ref_s"] for w in in_order[max(0, i - 1):i + 2])
        r["wall_ref"] = r["wall_s"] / ref
        r["cpu_ref"] = r["cpu_s"] / ref
    end_to_end = {
        "wall_ref": (sum(job_medians(plain, "wall_ref")), "ref"),
        "cpu_ref": (sum(job_medians(plain, "cpu_ref")), "ref"),
        "peak_rss_mb": (max(job_medians(plain, "rss_mb")), "MiB"),
        "setup_s": (statistics.median(s["wall_s"] for s in setup), "s"),
        "ok_rate": (1 - len(runner.failures) / runner.attempted, "ratio"),
    }
    record = {
        "workload": args.workload,
        "environment": environment(root, args.seed),
        "inputs": {k: manifest[k] for k in SEEDED[args.workload]},
        "failures": runner.failures,
        "end_to_end": {k: v for k, (v, _) in end_to_end.items()},
        "samples": {
            "pass_s": summary(sum(r["wall_s"] for r in p) for p in plain),
            "pass_ref": summary(sum(r["wall_ref"] for r in p) for p in plain),
            "job_ref": summary(r["wall_ref"] for p in plain for r in p),
            "ref_s": summary(r["ref_s"] for p in plain for r in p),
            "setup_s": summary(s["wall_s"] for s in setup),
        },
        "jobs": [
            {"job": job.name,
             **{key: [p[j][key] for p in plain]
                for key in ("wall_s", "cpu_s", "ref_s", "wall_ref", "cpu_ref")}}
            for j, job in enumerate(jobs)
        ],
    }
    if not args.trace:
        metrics = end_to_end
    elif not runner.failures:
        per_pass = [layer_metrics(p) for p in traced]
        metrics = {
            name: (statistics.median(m[name][0] for m in per_pass), unit)
            for name, (_, unit) in per_pass[0].items()
        }
        traced_wall = sum(job_medians(traced, "wall_s"))
        metrics["trace.wall_s"] = (traced_wall, "s")
        metrics["trace.overhead_s"] = (traced_wall - sum(job_medians(plain, "wall_s")), "s")
        record["trace"] = [
            {"job": job.name, "wall_s": r["wall_s"], "layers": r["trace"]["layers"]}
            for job, r in zip(jobs, traced[0])
        ]
    else:
        metrics = {}
    print(json.dumps(record))
    print(json.dumps({
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
