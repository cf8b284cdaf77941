"""One workload in its own process: set-up, closed loop, checks, trace.

Started by run.py with the BLAS/OpenMP thread variables already set, so
they hold before numpy is imported.  Writes one JSON result to --result.
Each op is a call to abreu.cli.main(argv) in this process; the next op
starts when the previous returns (a closed loop with one client).  A run
makes a fixed number of ops, whole passes over the input pool sized to
last about --seconds (workloads.ops_in_run).
"""

from __future__ import annotations

import argparse
import contextlib
import gzip
import hashlib
import io
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, make_inputs, ops_in_run  # noqa: E402

# Distinct inputs re-run untraced after a traced loop, to measure the
# tracing overhead and compare outputs byte for byte.
TRACE_COMPARE_INPUTS = 6


def import_package():
    """Import abreu from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "abreu" / "cli.py").is_file():
        raise SystemExit(f"error: no package source at {src / 'abreu'}")
    sys.path.insert(0, str(src))
    import abreu
    import abreu.cli

    if Path(abreu.__file__).resolve().parent != (src / "abreu").resolve():
        raise SystemExit(f"error: imported abreu from {abreu.__file__}, not {src}")
    return abreu.cli


class Workload:
    """The ops of one workload over its seeded input pool."""

    def __init__(self, name, seed, workdir, spec=None):
        self.spec = WORKLOADS[name] if spec is None else spec
        self.kind = self.spec["command"]
        self.pool = make_inputs(name, seed, self.spec)
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)

    def path(self, stem):
        return str(self.workdir / stem)

    def prepare(self, cli) -> None:
        """Write the files ops read; verify needs a solved phi per input."""
        if self.kind != "verify":
            return
        for item in self.pool:
            grid = ["--dim", str(item["dim"]), "--resolution", str(item["resolution"])]
            a_path, phi_path = self.path(f"A{item['id']}.fld"), self.path(f"phi{item['id']}.fld")
            for argv in (["synth", *grid, f"--expr={item['expr']}", "--out", a_path],
                         ["solve", "--rhs", a_path, "--out", phi_path]):
                rc, _, err = call(cli, argv)
                if rc != 0:
                    raise RuntimeError(f"set-up {argv[0]} for input {item['id']} "
                                       f"exited {rc}: {err.strip()}")

    def op(self, item):
        """(argv, output paths) of the op on one input."""
        i = item["id"]
        paths = {"out": self.path(f"out{i}.fld"), "report": self.path(f"report{i}.json")}
        if self.kind == "verify":
            argv = ["verify", "--phi", self.path(f"phi{i}.fld"),
                    "--rhs", self.path(f"A{i}.fld"), "--report", paths["report"]]
            del paths["out"]
            return argv, paths
        argv = [self.kind, "--dim", str(item["dim"]),
                "--resolution", str(item["resolution"]),
                f"--expr={item['expr']}", "--out", paths["out"]]
        if self.spec["report"]:
            argv += ["--report", paths["report"]]
        else:
            del paths["report"]
        return argv, paths


def call(cli, argv):
    """Run the CLI in this process; returns (exit code, seconds, stderr)."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        start = time.perf_counter()
        rc = cli.main(argv)
        seconds = time.perf_counter() - start
    return rc, seconds, err.getvalue()


def output_digest(paths) -> str | None:
    """Digest of an op's outputs: .fld bytes, and the report minus its clock."""
    h = hashlib.sha256()
    found = False
    for key in sorted(paths):
        try:
            data = Path(paths[key]).read_bytes()
        except FileNotFoundError:
            continue
        found = True
        if key == "report":
            report = json.loads(data)
            report.pop("wall_clock_seconds", None)
            data = json.dumps(report, sort_keys=True).encode()
        h.update(key.encode() + b"\0" + data)
    return h.hexdigest() if found else None


def run_op(cli, workload, item, op_id):
    argv, paths = workload.op(item)
    for path in paths.values():
        with contextlib.suppress(FileNotFoundError):
            os.unlink(path)
    rc, seconds, stderr = call(cli, argv)
    return {"op": op_id, "input": item["id"], "rc": rc, "seconds": seconds,
            "stderr": stderr[-2000:], "digest": output_digest(paths), "paths": paths}


def closed_loop(cli, workload, n_ops, speed, tracer=None, extra=()):
    """`n_ops` ops back to back, cycling over the pool.

    The speed reference runs between ops; each op gets the mean of the
    reference times just before and just after it.  `extra` are (label,
    argv) ops appended after the loop, used by the benchmark's own tests
    to force one failure per class.
    """
    ops = []
    before = speed.measure()

    def timed(make_op):
        nonlocal before
        op = make_op()
        after = speed.measure()
        op["reference_s"] = (before + after) / 2.0
        op["scaled_s"] = speed.scaled(op["seconds"], op["reference_s"])
        before = after
        ops.append(op)

    start = time.perf_counter()
    while len(ops) < n_ops:
        item = workload.pool[len(ops) % len(workload.pool)]
        if tracer is not None:
            tracer.start_op(len(ops))
        timed(lambda: run_op(cli, workload, item, len(ops)))
        if tracer is not None:
            tracer.end_op()
    wall = time.perf_counter() - start
    for label, argv in extra:
        def forced(label=label, argv=argv):
            rc, secs, stderr = call(cli, argv)
            return {"op": len(ops), "input": label, "rc": rc, "seconds": secs,
                    "stderr": stderr[-2000:], "digest": None, "paths": {}}
        timed(forced)
    return ops, wall


def check_ops(workload, ops) -> None:
    """Fill in each op's failure class and correctness, outside any timing.

    An input's output is checked once; a later op on the same input must
    reproduce the checked output byte for byte (reports minus the clock).
    """
    from checks import check_output, classify

    first = {}
    for op in ops:
        if not isinstance(op["input"], int):
            op.update(cls=classify(op["rc"], op["stderr"]), correct=True)
            continue
        ref = first.get(op["input"])
        if ref is None:
            item = workload.pool[op["input"]]
            verdict = check_output(workload.kind, item, op["rc"], op["stderr"], op["paths"])
            op.update(cls=verdict.pop("class"), correct=verdict.pop("correct"),
                      detail=verdict)
            first[op["input"]] = op
        elif (ref["rc"], ref["digest"]) == (op["rc"], op["digest"]):
            op.update(cls=ref["cls"], correct=ref["correct"])
        else:
            op.update(cls="check:nondeterministic-output", correct=False)


def tail(times):
    """The highest percentile with at least 10 samples beyond it.

    Returns (value, percentile, samples). With n <= 10 samples no
    percentile has 10 beyond it, and the minimum (percentile 0) is used.
    """
    n = len(times)
    ordered = sorted(times)
    if n <= 10:
        return ordered[0], 0.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def summarize(ops, wall, nominal_s) -> dict:
    """End-to-end metrics; times scaled to reference speed, with wall twins.

    One scale serves the whole run: the kernels' nominal time over their
    median time around the ops.  A run lasts seconds, shorter than the
    host's speed drifts, and a median over the run is steadier than the
    single kernel runs around each op.
    """
    wall_times = [op["seconds"] for op in ops]
    reference_s = statistics.median(op["reference_s"] for op in ops)
    times = [t * nominal_s / reference_s for t in wall_times]
    ok = sum(1 for op in ops if op["cls"] is None)
    value, pct, n = tail(times)
    classes = {}
    for op in ops:
        if op["cls"] is not None:
            classes[op["cls"]] = classes.get(op["cls"], 0) + 1
    return {
        "attempted": len(ops),
        "failed": len(ops) - ok,
        "correct": all(op["correct"] for op in ops),
        "failure_classes": classes,
        "op_p50_s": statistics.median(times),
        "op_tail_s": value,
        "op_tail_percentile": pct,
        "op_tail_samples": n,
        "op_p50_wall_s": statistics.median(wall_times),
        "op_tail_wall_s": tail(wall_times)[0],
        "ok_ops_per_s": ok / wall,
        "fail_share": (len(ops) - ok) / len(ops),
        "measured_wall_s": wall,
        "reference_p50_s": reference_s,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(name, seed, seconds, trace, workdir, setup_only=False, spec=None, extra=()):
    """Set up, then run the workload; returns the result dict."""
    from speed import SpeedReference

    cli = import_package()
    started = time.perf_counter()
    with SpeedReference((spec or WORKLOADS[name])["reference"]) as speed:
        refs = [speed.measure()]
        # the launcher takes set-up time from process start to `ready`; the
        # helper's start and the first two kernel runs are taken out again
        overhead = time.perf_counter() - started
        workload = Workload(name, seed, workdir, spec)
        workload.prepare(cli)
        refs.append(speed.measure())
        overhead += refs[-1]
        warm = run_op(cli, workload, workload.pool[0], "warm-up")
        ready = time.time()
        refs.append(speed.measure())
        result = {"workload": name, "seed": seed, "ready_time": ready,
                  "setup_scale": speed.nominal_s / statistics.mean(refs),
                  "setup_overhead_s": overhead,
                  "warm_up_rc": warm["rc"], "inputs": workload.pool}
        if setup_only:
            return result
        return measure(cli, workload, seconds, trace, speed, extra, result)


def measure(cli, workload, seconds, trace, speed, extra, result):
    """The timed closed loop, its checks and, when traced, per-layer metrics."""
    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        ops, wall = closed_loop(cli, workload, ops_in_run(workload.spec, seconds), speed,
                                tracer, extra)
    finally:
        if tracer is not None:
            tracer.uninstall()
    result["peak_rss_mb"] = peak_rss_mb()
    check_ops(workload, ops)
    result.update(summarize(ops, wall, speed.nominal_s))
    if trace:
        result["per_layer"], result["trace"] = trace_summary(cli, workload, ops, speed,
                                                             tracer)
        result["spans"] = tracer.span_records()
        if result["trace"]["identical"] < result["trace"]["compared"]:
            result["correct"] = False
    result["ops"] = [{k: v for k, v in op.items() if k != "paths"} for op in ops]
    return result


def trace_summary(cli, workload, ops, speed, tracer):
    """Per-layer metrics, plus overhead and byte identity against untraced ops."""
    first = {}
    for op in ops:
        if isinstance(op["input"], int):
            first.setdefault(op["input"], op)
    replay = _Replay(workload, list(first)[:TRACE_COMPARE_INPUTS])
    again, _ = closed_loop(cli, replay, len(replay.pool), speed)
    traced = [first[op["input"]]["scaled_s"] for op in again]
    untraced = [op["scaled_s"] for op in again]
    identical = sum((op["rc"], op["digest"]) == (first[op["input"]]["rc"],
                                                 first[op["input"]]["digest"])
                    for op in again)
    metrics = tracer.metrics(len(ops))
    metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(untraced)
    metrics["trace.identical_outputs_share"] = identical / len(again)
    info = {"traced_op_p50_s": statistics.median(traced),
            "untraced_op_p50_s": statistics.median(untraced),
            "compared": len(again), "identical": identical,
            "unavailable": tracer.unavailable, "spans": len(tracer.spans)}
    return metrics, info


class _Replay:
    """One untraced pass over chosen inputs of a workload, in order."""

    def __init__(self, workload, input_ids):
        self.pool = [workload.pool[i] for i in input_ids]
        self.op = workload.op


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, args.trace, args.workdir,
                 setup_only=args.setup_only)
    spans = result.pop("spans", None)
    if spans is not None:
        with gzip.open(args.result + ".spans.jsonl.gz", "wt", encoding="utf-8") as handle:
            for span in spans:
                handle.write(json.dumps(span) + "\n")
    with open(args.result, "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
