"""One workload process: set-up, then a timed or a traced phase.

Started by run.py with BLAS and OpenMP threads set to 1.  Set-up is the
import of numpy and lensdist, input generation and the warm-up job (job 0);
its time runs from the first statement of this file.  Prints one JSON object
as its last line of standard output.

  --setup-only  stop after set-up
  --trace 0     run jobs 1, 2, ... one at a time until --seconds have passed
  --trace 1     run jobs 1..K, each untraced and then traced
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench-out")
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


# Inputs of the reference computation, made once.
_SMALL = np.linspace(0.0, 1.0, 64)
_LARGE = np.linspace(0.0, 1.0, 1 << 16) * (1.0 + 1.0j)


def reference_s() -> float:
    """Wall time of a fixed computation that does not use lensdist.

    It mixes interpreter work, small-array and large-array numpy calls, like
    the jobs do, and takes about 6 ms.  Dividing a job's wall time by the
    reference time measured next to it cancels most of the host's speed
    swings: on a shared 2-vCPU host the same job's wall time varied by 1.7x
    within minutes, while its ratio to the reference stayed within a few
    percent over 30 s windows.
    """
    start = time.perf_counter()
    table = {}
    for i in range(20000):
        table[i & 1023] = table.get(i & 1023, 0) + i
    total = 0.0
    for _ in range(400):
        total += float((_SMALL * _SMALL + 2.0 * _SMALL).sum())
    for _ in range(4):
        total += float(np.abs(_LARGE * _LARGE + _LARGE).sum())
    return time.perf_counter() - start


def run_job(workload, inputs):
    """(latency_s, failure reasons) of one job; an oracle that raises on the
    job's output counts as a failure too."""
    latency = None
    start = time.perf_counter()
    try:
        out = workload.run(inputs)
        latency = time.perf_counter() - start
        return latency, workload.check(inputs, out)
    except Exception as err:  # a failing job is counted, the run goes on
        if latency is None:
            latency = time.perf_counter() - start
        frame = traceback.extract_tb(err.__traceback__)[-1]
        return latency, [f"{type(err).__name__}: {err} ({frame.filename}:{frame.lineno})"]


def self_check(workload, inputs, out) -> bool:
    """True when the oracle rejects a deliberately perturbed copy of a result."""
    try:
        return bool(workload.check(inputs, workload.perturb(inputs, out)))
    except Exception:
        return False


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    return {"numpy": np.__version__, "blas": blas}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT_DIR)
    try:
        workload = workloads.make(args.workload, workdir)
        warm_inputs = workload.make_job(args.seed, 0)
        warm_out = workload.run(warm_inputs)
        setup_s = time.perf_counter() - T0
        result = {
            "setup_s": setup_s,
            "warmup_failures": workload.check(warm_inputs, warm_out),
            "self_check": self_check(workload, warm_inputs, warm_out),
            "env": environment(),
        }
        if args.setup_only:
            pass
        elif args.trace:
            result.update(traced_phase(workload, args))
        else:
            result.update(timed_phase(workload, args))
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


def timed_phase(workload, args) -> dict:
    """Jobs 1, 2, ... until --seconds have passed, each between two runs of
    the reference computation; a job's reference time is their mean."""
    latencies = []
    references = []
    failures = []
    job = 1
    start = time.perf_counter()
    deadline = start + args.seconds
    before = reference_s()
    while time.perf_counter() < deadline:
        inputs = workload.make_job(args.seed, job)
        latency, reasons = run_job(workload, inputs)
        after = reference_s()
        latencies.append(latency)
        references.append((before + after) / 2.0)
        before = after
        if reasons:
            failures.append({"job": job, "reasons": reasons})
        job += 1
    return {
        "phase_s": time.perf_counter() - start,
        "latencies": latencies,
        "references": references,
        "failures": failures,
    }


def traced_phase(workload, args) -> dict:
    """Each job runs untraced, then traced, so both passes see the same warm
    state; the difference of their sums is the tracing overhead."""
    tracer = Tracer()
    failures = []
    untraced = traced = 0.0
    jobs = range(1, workload.trace_jobs + 1)
    for job in jobs:
        inputs = workload.make_job(args.seed, job)
        latency, reasons = run_job(workload, inputs)
        untraced += latency
        if reasons:
            failures.append({"job": job, "pass": "untraced", "reasons": reasons})
        tracer.current_job = job
        tracer.install()
        try:
            latency, reasons = run_job(workload, inputs)
        finally:
            tracer.uninstall()
        traced += latency
        if reasons:
            failures.append({"job": job, "pass": "traced", "reasons": reasons})
    tracer.write(os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.npz"))
    return {
        "attempted": 2 * len(jobs),
        "failures": failures,
        "layers": tracer.metrics(traced, untraced),
        "missing": tracer.missing,
    }


if __name__ == "__main__":
    sys.exit(main())
