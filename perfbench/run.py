"""filtered-rf benchmark: one command, three workloads, reference-gated.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; the program is taken from ``src/``.
Workloads (see ``workloads.py`` and BENCHMARK.json for why each exists):
``cli-figures``, ``sweep-irf``, ``sweep-zero``.

With ``--trace 0`` the run times closed-loop ops for ``--seconds`` and
prints the end-to-end metrics.  With ``--trace 1`` it runs a
fixed, seed-determined list of ops twice, untraced and then traced, and
prints the per-layer metrics; the counts in them repeat exactly for a
given seed.  Every op is checked against the stored references either
way.  The last line of standard output is the result object; the line
before it holds the details (environment, sample counts, failures).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
WORKERS_ENV = "FILTERED_RF_WORKERS"
SETUP_PROBES = 5
IMPORTTIME_PROBES = 3
IMPORTTIME_MODULES = ("filtered_rf.cli", "scipy.linalg", "scipy.optimize")
# Tail = the highest of these percentiles with at least 10 samples beyond it.
# The steps are coarse so that runs of one workload, whose op counts vary
# with the host's speed, report the same percentile.
TAIL_LADDER = (99.9, 90.0)
TAIL_BEYOND = 10


class Refused(Exception):
    """The benchmark cannot run here; exit nonzero without a result."""


def pin_environment():
    """Pin BLAS threads and the CLI's pool size; return the CPU count."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    nproc = len(os.sched_getaffinity(0))
    raw = os.environ.get(WORKERS_ENV)
    try:
        workers = min(2, nproc) if raw is None else int(raw)
    except ValueError:
        raise Refused(f"{WORKERS_ENV} must be an integer, got {raw!r}") from None
    if workers > nproc:
        raise Refused(f"{WORKERS_ENV}={workers} exceeds the {nproc} CPUs available")
    os.environ[WORKERS_ENV] = str(workers)
    return nproc


def environment_record(nproc, seed):
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": nproc,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "seed": seed,
        "threads": {var: os.environ[var] for var in (*THREAD_VARS, WORKERS_ENV)},
    }


def tail_percentile(n):
    for q in TAIL_LADDER:
        if n * (100.0 - q) >= 100.0 * TAIL_BEYOND - 1e-6:
            return q
    return 50.0


def latency_summary(latencies):
    import numpy as np

    q = tail_percentile(len(latencies))
    ms = np.asarray(latencies) * 1e3
    return float(np.percentile(ms, 50.0)), float(np.percentile(ms, q)), q


def import_metrics():
    """import.<module>.ms: cumulative times from python -X importtime."""

    def parse(proc):
        found = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in IMPORTTIME_MODULES:
                found[parts[2].strip()] = int(parts[1]) / 1e3
        return found

    from perfbench.workloads import child_env

    samples = {m: [] for m in IMPORTTIME_MODULES}
    for _ in range(IMPORTTIME_PROBES):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import filtered_rf.cli"],
            cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=120, check=True,
        )
        for module, ms in parse(proc).items():
            samples[module].append(ms)
    return {f"import.{m}.ms": statistics.median(v) if v else 0.0 for m, v in samples.items()}


class Loop:
    """Closed loop over ops with the reference gate; collects latencies."""

    def __init__(self, workload, references, workdir):
        self.workload = workload
        self.references = references
        self.workdir = workdir
        self.ops = []
        self.latencies = []
        self.failures = []

    def run_op(self, op_id, spans_dir=None):
        start = time.perf_counter()
        failure = None
        try:
            output = self.workload.run(op_id, self.workdir, spans_dir)
        except Exception as exc:  # a failed op is counted, never fatal
            failure = exc
        self.ops.append(op_id)
        self.latencies.append(time.perf_counter() - start)
        if failure is None:
            try:
                self.workload.check(op_id, output, self.references)
            except Exception as exc:
                failure = exc
        if failure is not None:
            self.failures.append(f"{op_id}: {type(failure).__name__}: {failure}")

    @property
    def attempted(self):
        return len(self.ops)

    @property
    def failed(self):
        return len(self.failures)


def timed_run(workload, references, workdir, seed, seconds):
    loop = Loop(workload, references, workdir)
    ops = (op for ops in workload.rounds(random.Random(seed)) for op in ops)
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        loop.run_op(next(ops))
    elapsed = time.perf_counter() - start
    return loop, elapsed


def set_up_seconds(workload):
    """Median set-up time over fresh interpreters, after one untimed probe fills caches."""
    from perfbench.workloads import child_env

    values = []
    for i in range(SETUP_PROBES + 1):
        proc = subprocess.run(
            [sys.executable, "-m", "perfbench.child", "setup", workload.name], cwd=ROOT,
            env=child_env(), capture_output=True, text=True, timeout=120, check=True,
        )
        if i:
            values.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(values)


def peak_rss_mb(workload):
    who = resource.RUSAGE_SELF if workload.in_process else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024.0


def end_to_end(workload, references, workdir, seed, seconds):
    setup_s = set_up_seconds(workload)
    loop, elapsed = timed_run(workload, references, workdir, seed, seconds)
    p50, tail, q = latency_summary(loop.latencies)
    metrics = {
        "latency_ms.tail": (tail, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb(workload), "MB"),
    }
    detail = {
        "latency_ms.p50": p50,
        "throughput_ops_per_s": (loop.attempted - loop.failed) / elapsed,
        "tail_percentile": q,
        "samples": loop.attempted,
        "timed_s": elapsed,
    }
    return loop, metrics, detail


def record_spans(workload, loop, ops, workdir):
    """Run ops through the loop with tracing on; return merged spans and marks."""
    from perfbench import spans

    if workload.in_process:
        recorder = spans.Recorder()
        recorder.install()
        try:
            for op_id in ops:
                loop.run_op(op_id)
        finally:
            recorder.uninstall()
        return recorder.records()
    span_list, marks = [], []
    for i, op_id in enumerate(ops):
        spans_dir = Path(workdir) / f"spans-{i}"
        spans_dir.mkdir()
        loop.run_op(op_id, spans_dir)
        op_spans, op_marks = spans.read_spans_dir(spans_dir)
        span_list += op_spans
        marks += op_marks
    return span_list, marks


def traced(workload, references, workdir, seed):
    from perfbench import spans

    ops = workload.trace_ops(seed)
    imports = import_metrics()

    loop = Loop(workload, references, workdir)
    for op_id in ops:
        loop.run_op(op_id)
    untraced_p50 = statistics.median(loop.latencies)

    mark = len(loop.latencies)
    span_list, marks = record_spans(workload, loop, ops, workdir)
    traced_p50 = statistics.median(loop.latencies[mark:])

    trace_file = ROOT / ".perfbench" / f"trace-{workload.name}-seed{seed}.json"
    trace_file.write_text(json.dumps({"ops": ops, "spans": span_list, "marks": marks}))

    layers = spans.layer_metrics(span_list, marks)
    layers.update(imports)
    layers["trace.overhead_ratio"] = traced_p50 / untraced_p50
    units = {}
    for name in layers:
        if name.endswith("ms"):
            units[name] = "ms"
        elif name.endswith("bytes_computed"):
            units[name] = "B"
        elif name.endswith(("eig_share", "overhead_ratio", "pipelines_per_point")):
            units[name] = "ratio"
        else:
            units[name] = "count"
    metrics = {name: (value, units[name]) for name, value in layers.items()}
    detail = {"ops": len(ops), "trace_file": str(trace_file.relative_to(ROOT))}
    return loop, metrics, detail


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        if not (ROOT / "src" / "filtered_rf" / "__init__.py").is_file():
            raise Refused(f"no filtered_rf sources under {ROOT / 'src'}")
        nproc = pin_environment()
        sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
        from perfbench import workloads

        if args.workload not in workloads.WORKLOADS:
            raise Refused(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
        workload = workloads.get(args.workload)
        references = workload.load_references()
        env = environment_record(nproc, args.seed)
    except Refused as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    workdir = scratch / f"run-{os.getpid()}"
    workdir.mkdir()
    try:
        if workload.in_process:
            workload.set_up()
        if args.trace:
            loop, metrics, detail = traced(workload, references, workdir, args.seed)
        else:
            loop, metrics, detail = end_to_end(workload, references, workdir, args.seed, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    detail.update(
        workload=workload.name,
        environment=env,
        failed_ratio=loop.failed / loop.attempted,
        failures=loop.failures[:5],
    )
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
