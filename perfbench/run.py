"""Benchmark of the abreu CLI: closed-loop workloads, one process each.

    python3 perfbench/run.py --seed 1                 # every workload, a table
    python3 perfbench/run.py --workload solve-2d --seed 1 --seconds 20 --trace 0

Each workload runs in a fresh python3 process, started with the BLAS and
OpenMP thread variables set, that calls abreu.cli.main(argv) back to back
(one client, no extra threads), then checks every output.  A run makes a
fixed number of ops: whole passes over the workload's seeded input pool,
as many as last about --seconds at a typical op time, so that a seed gives
the same ops, and the same attempted and failed counts, on every run.
With --trace 0 the run reports the end-to-end metrics of BENCHMARK.json,
with --trace 1 its per-layer metrics from a traced run.  The last line
of standard output is one JSON object; the full result, with the run
manifest and every op, is written under perfbench/.results/.

set-up time is the median of three set-ups (process start, imports, input
generation and one warm-up op): two set-up-only processes, then the
measuring process itself.
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
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, ops_in_run  # noqa: E402

THREADS = "1"
THREAD_ENV = {var: THREADS for var in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "ABREU_THREADS")}
SETUP_REPEATS = 3
TIME_LIMIT_S = 170.0


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def child_env() -> dict:
    env = dict(os.environ, **THREAD_ENV)
    env.pop("PYTHONPATH", None)
    return env


def run_child(workload, seed, seconds, trace, stem, setup_only, deadline):
    """Run one workload process; returns (result dict, spawn wall time)."""
    result_path = HERE / ".results" / f"{stem}.json"
    workdir = HERE / ".work" / stem
    argv = [sys.executable, str(HERE / "child.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
            "--workdir", str(workdir), "--result", str(result_path)]
    if setup_only:
        argv.append("--setup-only")
    spawned = time.time()
    try:
        subprocess.run(argv, env=child_env(), stdout=sys.stderr, check=True,
                       timeout=max(1.0, deadline - time.monotonic()))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(result_path, encoding="utf-8") as handle:
        return json.load(handle), spawned


def manifest(workload, seed, seconds, trace) -> dict:
    """Facts that make a run comparable: machine, libraries, code, inputs."""
    info = json.loads(subprocess.run(
        [sys.executable, "-c",
         "import json, numpy; c = numpy.show_config(mode='dicts');"
         "d = c.get('Build Dependencies', {});"
         "print(json.dumps({'numpy': numpy.__version__,"
         " 'blas': [d.get('blas', {}).get(k) for k in ('name', 'version')],"
         " 'lapack': [d.get('lapack', {}).get(k) for k in ('name', 'version')]}))"],
        env=child_env(), capture_output=True, text=True, check=True, timeout=60,
    ).stdout)
    commit = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        commit = git.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": info["numpy"],
        "blas": info["blas"],
        "lapack": info["lapack"],
        "thread_env": THREAD_ENV,
        "git_commit": commit if commit else "unavailable: not a git checkout",
        "src_sha256": digest.hexdigest(),
        "seed": seed,
        "seconds": seconds,
        "ops_per_run": ops_in_run(WORKLOADS[workload], seconds),
        "tracing": bool(trace),
        "workload": workload,
        "workload_parameters": {k: v for k, v in WORKLOADS[workload].items()
                                if k not in ("why", "loads", "bypasses")},
        "loads": WORKLOADS[workload]["loads"],
        "bypasses": WORKLOADS[workload]["bypasses"],
    }


def setup_sample(result, spawned):
    """(set-up wall seconds, speed scale measured around it) of one process."""
    wall = result["ready_time"] - spawned - result["setup_overhead_s"]
    return wall, result["setup_scale"]


def run_workload(workload, seed, seconds, trace) -> dict:
    deadline = time.monotonic() + TIME_LIMIT_S
    stem = f"{workload}-seed{seed}-trace{trace}"
    setups = []
    if not trace:
        for k in range(SETUP_REPEATS - 1):
            res, spawned = run_child(workload, seed, seconds, trace, f"{stem}-setup{k}",
                                     True, deadline)
            setups.append(setup_sample(res, spawned))
    result, spawned = run_child(workload, seed, seconds, trace, stem, False, deadline)
    setups.append(setup_sample(result, spawned))
    result["setup_s"] = statistics.median(wall * scale for wall, scale in setups)
    result["setup_wall_s"] = statistics.median(wall for wall, _ in setups)
    result["setup_samples"] = setups
    result["manifest"] = manifest(workload, seed, seconds, trace)
    with open(HERE / ".results" / f"{stem}.json", "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=1)
    return result


def result_line(result, trace, spec) -> dict:
    """The last stdout line: exactly the metrics BENCHMARK.json names."""
    source = result["per_layer"] if trace else result
    entries = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    for entry in entries:
        value = source[entry["name"]]
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
        if value is None:
            metrics[entry["name"]]["reason"] = result["trace"]["unavailable"].get(
                entry["name"], "see trace.unavailable in the result file")
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


TABLE = [("setup_s", "s"), ("op_p50_s", "s"), ("op_tail_s", "s"),
         ("ok_ops_per_s", "1/s"), ("fail_share", "1"), ("peak_rss_mb", "MB"),
         ("setup_wall_s", "s"), ("op_p50_wall_s", "s"), ("op_tail_wall_s", "s")]


def print_summary(result, trace) -> None:
    name = result["workload"]
    if trace:
        t = result["trace"]
        print(f"{name}: traced op_p50 {t['traced_op_p50_s']:.4f} s against untraced "
              f"{t['untraced_op_p50_s']:.4f} s; {t['identical']}/{t['compared']} "
              f"outputs byte-identical; {t['spans']} spans")
    else:
        cells = ", ".join(f"{m} {result[m]:.6g} {u}" for m, u in TABLE)
        print(f"{name}: {cells}; tail is p{result['op_tail_percentile']:.1f} "
              f"of {result['op_tail_samples']} ops")
    print(f"{name}: attempted {result['attempted']}, failed {result['failed']} "
          f"{result['failure_classes']}, correct {result['correct']}")


def _exit_on_sigterm(signum, frame):
    # SystemExit unwinds through subprocess.run, which kills and waits for
    # the running workload process
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="one workload (default: all of them, in turn)")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "abreu" / "cli.py").is_file():
        sys.stderr.write(f"error: no package source under {ROOT / 'src'}\n")
        return 2
    spec = load_spec()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    (HERE / ".results").mkdir(exist_ok=True)
    names = [args.workload] if args.workload else list(WORKLOADS)
    results = {}
    for name in names:
        results[name] = run_workload(name, args.seed, seconds, args.trace)
        print_summary(results[name], args.trace)
    if args.workload:
        print(json.dumps(result_line(results[args.workload], args.trace, spec)))
    else:
        summary = {name: result_line(res, args.trace, spec) for name, res in results.items()}
        print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
