"""The byte-identity tool digests reports without their run-specific keys
and counts each input's Newton steps and Krylov applies."""

import importlib.util
import json
from pathlib import Path
from types import SimpleNamespace

from abreu import continuity_solve, eval_field, make_grid, parse, solver

TOOL = Path(__file__).resolve().parent.parent / "tools" / "output_digest.py"


def _tool():
    spec = importlib.util.spec_from_file_location("output_digest", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_report_digest_ignores_the_clock_and_the_command():
    tool = _tool()
    report = {"schema_version": 3, "wall_clock_seconds": 1.5,
              "command": ["verify", "--phi", "/a/phi0.fld"], "verification": {"passed": True}}
    again = dict(report, wall_clock_seconds=2.5, command=["verify", "--phi", "/b/phi0.fld"])
    changed = dict(report, verification={"passed": False})
    digest = tool.report_digest
    assert digest(json.dumps(report).encode()) == digest(json.dumps(again).encode())
    assert digest(json.dumps(report).encode()) != digest(json.dumps(changed).encode())


def test_records_the_newton_steps_of_each_input(monkeypatch, tmp_path):
    # a two-input 1D pool that solves at t = 1, so every step is an accepted
    # Newton iteration of the input's trace; the wrapper is gone afterwards
    tool = _tool()
    spec = {"command": "solve", "dim": 1, "resolutions": [16], "pool": 2, "modes": [1],
            "kmax": 1, "sup": [0.1, 0.2], "report": False, "op_s": 0.01}
    monkeypatch.setitem(tool.WORKLOADS, "tiny-1d", spec)
    step = solver.newton_step
    records = tool.digest_workload(tool.import_cli(tool.ROOT / "src"), "tiny-1d", 1)
    assert solver.newton_step is step
    for item in tool.Workload("tiny-1d", 1, tmp_path).pool:
        record = records[item["id"]]
        assert record["rc"] == 0 and list(record["files"]) == [f"out{item['id']}.fld"]
        grid = make_grid(1, item["resolution"])
        _, trace = continuity_solve(eval_field(parse(item["expr"]), grid))
        assert [s.t for s in trace.steps] == [1.0]
        assert record["newton_steps"] == trace.steps[0].newton_iterations > 0


def test_records_the_krylov_applies_of_each_input(monkeypatch):
    # the applies of an input's command are those the PCG solves of its
    # Newton steps made, summed over the records the steps return
    tool = _tool()
    spec = {"command": "solve", "dim": 2, "resolutions": [16], "pool": 2, "modes": [2],
            "kmax": 1, "sup": [0.3, 0.6], "report": False, "op_s": 0.01}
    monkeypatch.setitem(tool.WORKLOADS, "tiny-2d", spec)
    solved = []
    pcg = solver._pcg

    def counting_pcg(apply_op, *args):
        def counted(spectrum):
            solved[-1] += 1
            return apply_op(spectrum)

        solved.append(0)
        return pcg(counted, *args)

    monkeypatch.setattr(solver, "_pcg", counting_pcg)
    records = tool.digest_workload(tool.import_cli(tool.ROOT / "src"), "tiny-2d", 1)
    applies = [record["krylov_applies"] for record in records.values()]
    assert all(record["rc"] == 0 for record in records.values())
    assert sum(applies) == sum(solved) and min(applies) > 0


def test_reads_the_applies_of_either_record_shape():
    # a record keeps its correction; an older tree's stores krylov_applies;
    # a record with neither reads None, and so does any sum it enters
    tool = _tool()
    kept = SimpleNamespace(correction=SimpleNamespace(applies=5))
    assert tool.krylov_applies(kept) == 5
    assert tool.krylov_applies(SimpleNamespace(krylov_applies=4)) == 4
    assert tool.krylov_applies(SimpleNamespace(correction=None)) is None
    assert tool.total([5, 4]) == 9 and tool.total([5, None]) is None
