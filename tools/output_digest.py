"""Digest of every output the benchmark workloads make, for byte-identity checks.

    python3 tools/output_digest.py --seeds 1 2 > new.json
    python3 tools/output_digest.py --seeds 1 2 --src ../parent/src > old.json
    diff old.json new.json        # empty: the two sources give the same bytes

For each workload of perfbench/workloads.py and each seed, the tool takes
the seeded input pool (`make_inputs`) and runs every input's CLI command
in this process, as the benchmark does (`perfbench/child.py`), set-up
solves included, with one BLAS/OpenMP thread and all files in a temporary
directory.  It prints one sorted JSON object: per workload, seed and input,
the exit code, the stderr text, the number of Newton steps the input's
command took (calls of `abreu.solver.newton_step`, counted by wrapping the
module binding as the benchmark's tracer does), the Krylov applies summed
over the records those steps return (`record.correction.applies`; null
where the records carry no correction) and the sha256 of each file the
input made, `.fld` files by their bytes and reports without the keys that
differ between identical runs (`VOLATILE_REPORT_KEYS`).  A failing solve
writes no file, so its step and apply counts are what show that its
Newton and Krylov path is unchanged.  The package is imported
from `--src`, by default this checkout's `src/`, so one copy of the tool
digests any other checkout with the same pools.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import json
import os
import re
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from child import Workload, call  # noqa: E402
from run import THREAD_ENV  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Report keys that differ between two runs of the same command: the
#: clock, and the argv, which names the temporary files.
VOLATILE_REPORT_KEYS = ("wall_clock_seconds", "command")

_OUTPUT = re.compile(r"[A-Za-z]+(\d+)\.(fld|json)")


def report_digest(data: bytes) -> str:
    """sha256 of a JSON report without its `VOLATILE_REPORT_KEYS`."""
    report = json.loads(data)
    for key in VOLATILE_REPORT_KEYS:
        report.pop(key, None)
    return hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()


def file_digest(path: Path) -> str:
    data = path.read_bytes()
    if path.suffix == ".json":
        return report_digest(data)
    return hashlib.sha256(data).hexdigest()


def krylov_applies(record) -> int | None:
    """Krylov applies of the step that made `record`, those of its
    `correction`; None for a record that carries none."""
    correction = getattr(record, "correction", None)
    return None if correction is None else correction.applies


@contextlib.contextmanager
def counting_steps(solver):
    """The Krylov applies of each call of `solver.newton_step`, read from
    the record it returns, by wrapping the module binding, which the
    package calls through; yields the list they are appended to, one entry
    per call, and restores the binding on exit."""
    step = solver.newton_step
    applies = []

    def counted(record, forcing):
        accepted = step(record, forcing)
        # a record with zero residual is returned as it is, with no solve
        applies.append(0 if accepted is record else krylov_applies(accepted))
        return accepted

    solver.newton_step = counted
    try:
        yield applies
    finally:
        solver.newton_step = step


def total(applies: list) -> int | None:
    """The sum of per-step applies, None if a step's record carried none."""
    return None if None in applies else sum(applies)


def import_cli(src: Path):
    """abreu.cli imported from `src`, never from elsewhere."""
    sys.path.insert(0, str(src))
    import abreu.cli

    if Path(abreu.cli.__file__).resolve().parent != (src / "abreu").resolve():
        raise SystemExit(f"error: imported abreu from {abreu.cli.__file__}, not {src}")
    return abreu.cli


def digest_workload(cli, name: str, seed: int) -> dict:
    """{input id: {rc, stderr, newton_steps, krylov_applies, files}} of one
    workload's pool for one seed; the steps and applies are those of the
    input's command, set-up solves left out."""
    solver = importlib.import_module("abreu.solver")
    records = {}
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)  # relative paths keep the directory out of every output
        try:
            workload = Workload(name, seed, ".")
            workload.prepare(cli)
            for item in workload.pool:
                with counting_steps(solver) as applies:
                    rc, _, stderr = call(cli, workload.op(item)[0])
                records[item["id"]] = {"rc": rc, "stderr": stderr,
                                       "newton_steps": len(applies),
                                       "krylov_applies": total(applies), "files": {}}
            for path in sorted(Path(".").iterdir()):
                match = _OUTPUT.fullmatch(path.name)
                if match:
                    records[int(match[1])]["files"][path.name] = file_digest(path)
        finally:
            os.chdir(cwd)
    return records


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="the package source to import (default: this checkout's)")
    args = parser.parse_args(argv)
    os.environ.update(THREAD_ENV)  # before numpy is first imported
    cli = import_cli(args.src.resolve())
    out = {name: {seed: digest_workload(cli, name, seed) for seed in args.seeds}
           for name in WORKLOADS}
    json.dump(out, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
