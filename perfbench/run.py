"""lensdist benchmark: one closed-loop client, one job at a time.

    python3 perfbench/run.py --workload calibrate --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py and predictions.json):
  calibrate  refine-poses and shared-axis Levenberg-Marquardt fits
  survey     the CLI bench and sweep commands: linear fits and classification
  undistort  batch inversion and a large forward map

With --trace 0 the last line of standard output holds the end-to-end
metrics.  Job times are measured against a reference computation that does
not use lensdist (worker.reference_s), run before and after every job: a
job's relative time is its wall time over the mean of the two.
  job_p50_ref    median relative job time, in reference units
  jobs_per_kref  jobs completed per 1000 reference units of job time
  peak_rss_mb    peak resident memory of the workload process
  setup_s        import, input generation and warm-up job, wall seconds,
                 median over SETUP_SAMPLES fresh processes
With --trace 1 the last line holds the per-layer metrics of a fixed job set,
traced from outside the package (tracer.py); --seconds does not apply.  The
line before the last records the job count, failed jobs, fail_frac, the
wall-clock jobs_per_s and job_p50_s, job_p90_s where a run holds at least
100 jobs, and the versions the numbers were taken with; the same record is
written under .perfbench-out/.

Every workload process runs with BLAS and OpenMP threads set to 1.  Run from
the root of a lensdist checkout; exits 2 without a result elsewhere.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PACKAGE = os.path.join(ROOT, "src", "lensdist")
OUT_DIR = os.path.join(ROOT, ".perfbench-out")
# Same as workloads.NAMES, which this process does not import (it needs numpy).
WORKLOADS = ("calibrate", "survey", "undistort")
SETUP_SAMPLES = 3
P90_MIN_JOBS = 100
DEADLINE_S = 175.0
SINGLE_THREAD = {
    var: "1"
    for var in (
        "OPENBLAS_NUM_THREADS",
        "OMP_NUM_THREADS",
        "MKL_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    )
}


class BenchError(Exception):
    pass


def worker(args, deadline: float, setup_only: bool = False) -> dict:
    cmd = [
        sys.executable,
        os.path.join(HERE, "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    if setup_only:
        cmd.append("--setup-only")
    env = {**os.environ, **SINGLE_THREAD}
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("time budget exhausted")
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, timeout=remaining, text=True
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker exceeded the {DEADLINE_S:.0f} s budget") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with code {proc.returncode}")
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError as err:
        raise BenchError(f"worker printed no result: {err}") from None


def source_id() -> dict:
    """git commit when the checkout is a repository, and a hash of src/ always."""
    digest = hashlib.sha256()
    for base, dirs, files in os.walk(PACKAGE):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            sha = None
    return {"git_sha": sha, "src_sha256": digest.hexdigest()}


def run(args) -> tuple[dict, dict, dict]:
    deadline = time.monotonic() + DEADLINE_S
    if args.trace:
        samples = [worker(args, deadline)]
    else:
        samples = [worker(args, deadline, setup_only=True) for _ in range(SETUP_SAMPLES - 1)]
        samples.append(worker(args, deadline))
    main = samples[-1]
    failures = list(main["failures"])
    for n, sample in enumerate(samples):
        if sample["warmup_failures"]:
            failures.append({"job": 0, "process": n, "reasons": sample["warmup_failures"]})
    self_check = all(s["self_check"] for s in samples)

    if args.trace:
        attempted = main["attempted"]
        metrics = main["layers"]
    else:
        latencies = main["latencies"]
        attempted = len(latencies)
        relative = [t / r for t, r in zip(latencies, main["references"])]
        metrics = {
            "job_p50_ref": {"value": statistics.median(relative), "unit": "ref"},
            "jobs_per_kref": {"value": 1000.0 * attempted / sum(relative), "unit": "1/kref"},
            "peak_rss_mb": {"value": main["peak_rss_mb"], "unit": "MB"},
            "setup_s": {"value": statistics.median(s["setup_s"] for s in samples), "unit": "s"},
        }
    failed = sum(1 for f in failures if f["job"] != 0)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "jobs": attempted,
        "failed": failed,
        "fail_frac": failed / attempted,
        "failures": failures,
        "oracle_self_check": self_check,
        "setup_samples_s": [s["setup_s"] for s in samples if not args.trace],
        "env": {
            **source_id(),
            "python": platform.python_version(),
            **main["env"],
            "nproc": os.cpu_count(),
            **SINGLE_THREAD,
        },
    }
    if args.trace:
        record["missing_functions"] = main["missing"]
    else:
        record["jobs_per_s"] = attempted / main["phase_s"]
        record["job_p50_s"] = statistics.median(latencies)
        if attempted >= P90_MIN_JOBS:
            record["job_p90_s"] = statistics.quantiles(latencies, n=10)[-1]
            record["job_p90_ref"] = statistics.quantiles(relative, n=10)[-1]
        record["reference_p50_s"] = statistics.median(main["references"])
    result = {
        "correct": not failures and self_check,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    jobs = {k: main[k] for k in ("latencies", "references") if k in main}
    return record, result, jobs


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(PACKAGE, "__init__.py")):
        print(f"error: no lensdist package at {PACKAGE}", file=sys.stderr)
        return 2
    try:
        record, result, jobs = run(args)
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    os.makedirs(OUT_DIR, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT_DIR, name), "w", encoding="utf-8") as fh:
        json.dump({"record": record, "result": result, "jobs": jobs}, fh, indent=1)
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
