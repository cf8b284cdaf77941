"""Tests of the benchmark itself: inputs, self time, checks and a smoke run.

Run with `python3 -m pytest -q perfbench/tests` from the repository root.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import child  # noqa: E402
import run  # noqa: E402
from checks import classify  # noqa: E402
from tracing import Tracer, self_times  # noqa: E402
from workloads import WORKLOADS, make_inputs, ops_in_run  # noqa: E402

child.import_package()


def test_same_seed_gives_byte_identical_inputs():
    for name in WORKLOADS:
        first = json.dumps(make_inputs(name, 7)).encode()
        assert first == json.dumps(make_inputs(name, 7)).encode()
        assert first != json.dumps(make_inputs(name, 8)).encode()


def test_inputs_have_zero_mean_and_the_ladder_sup():
    from abreu.fieldlang import eval_field, parse
    from abreu.grid import make_grid, mean, sup_norm
    from abreu.solver import MEAN_TOLERANCE

    for name, spec in WORKLOADS.items():
        targets = {}
        for item in make_inputs(name, 3):
            f = eval_field(parse(item["expr"]), make_grid(item["dim"], item["resolution"]))
            assert abs(mean(f)) < MEAN_TOLERANCE
            assert sup_norm(f) == pytest.approx(item["sup_target"], rel=1e-12)
            targets.setdefault(item["resolution"], []).append(item["sup_target"])
        lo, hi = spec["sup"]
        strata = spec["pool"] // len(spec["resolutions"])
        width = (hi - lo) / strata
        assert sorted(targets) == sorted(spec["resolutions"])
        for sups in targets.values():
            assert sorted(round((t - lo) / width - 0.5) for t in sups) == list(range(strata))


def test_a_run_is_whole_passes_sized_by_seconds_only():
    for spec in WORKLOADS.values():
        assert ops_in_run(spec, 0.0) == spec["pool"]
        for seconds in (5.0, 20.0, 60.0):
            n = ops_in_run(spec, seconds)
            assert n % spec["pool"] == 0
            assert abs(n * spec["op_s"] - seconds) <= spec["pool"] * spec["op_s"] / 2 or \
                n == spec["pool"]


def test_self_time_on_a_synthetic_span_tree():
    spans = [
        (0, None, 0, "a", 0.0, 10.0),
        (1, 0, 0, "b", 1.0, 4.0),
        (2, 1, 0, "d", 2.0, 3.0),
        (3, 0, 0, "c", 5.0, 7.0),
        (4, 0, 0, "e", 6.0, 8.0),     # overlaps c: the union 5..8 counts once
        (5, None, 1, "a", 20.0, 21.0),
        (6, 5, 1, "b", 20.5, 22.0),   # runs past its parent: clipped at 21
    ]
    got = self_times(spans)
    assert got["a"] == pytest.approx((10.0 - 6.0) + (1.0 - 0.5))
    assert got["b"] == pytest.approx((3.0 - 1.0) + 1.5)
    assert got["c"] == pytest.approx(2.0)
    assert got["d"] == pytest.approx(1.0)
    assert got["e"] == pytest.approx(2.0)


def test_classify_matches_the_package_error_messages():
    from abreu.errors import LinearSolveFailure, NotConvex, StepFloorReached

    assert classify(0, "") is None
    assert classify(2, "error: right-hand side has mean 1e-3") == "mean_not_zero"
    assert classify(3, f"error: {StepFloorReached(0.5, 1e-4)}") == "step_floor"
    assert classify(3, f"error: {LinearSolveFailure(10, 1e-3, 1e-12)}") == "krylov"
    assert classify(3, f"error: {NotConvex((1, 2), -0.5)}") == "not_convex"
    assert classify(3, "verification failed: a, b-c\n") == "check:a,b-c"
    assert classify(1, "error: syntax error at offset 3") == "other"


def _tiny(name):
    spec = dict(WORKLOADS[name])
    spec["pool"] = 2
    spec["resolutions"] = {"solve-2d": [16], "duality-2d": [16], "prescribe-3d": [8],
                           "solve-1d-ladder": [16, 32]}[name]
    return spec


def _failing_ops(name, tmp_path):
    """One op per failure class the workload's command can trigger."""
    out = str(tmp_path / "fail.fld")
    if name == "duality-2d":
        # phi solved for input 0 checked against the rhs of input 1
        work = tmp_path / "work"
        argv = ["verify", "--phi", str(work / "phi0.fld"), "--rhs", str(work / "A1.fld"),
                "--report", str(tmp_path / "fail.json")]
        return [("wrong-phi", argv)], {"wrong-phi": "check:"}
    grid = {"solve-2d": ["--dim", "2", "--resolution", "16"],
            "prescribe-3d": ["--dim", "3", "--resolution", "8"],
            "solve-1d-ladder": ["--dim", "1", "--resolution", "16"]}[name]
    cmd = WORKLOADS[name]["command"]
    ops = [("nonzero-mean", [cmd, *grid, "--expr=0.01+0.05*cos(2*pi*x1)", "--out", out]),
           ("bad-expr", [cmd, *grid, "--expr=cos(", "--out", out]),
           ("tol-below-floor", [cmd, *grid, "--expr=0.05*cos(2*pi*x1)", "--tol", "1e-30",
                                "--out", out])]
    expected = {"nonzero-mean": "mean_not_zero", "bad-expr": "other",
                "tol-below-floor": "step_floor"}
    return ops, expected


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_smoke_run_classifies_forced_failures(name, tmp_path):
    import abreu.grid
    import abreu.potential

    ops, expected = _failing_ops(name, tmp_path)
    result = child.run(name, 5, 0.0, 1, tmp_path / "work", spec=_tiny(name), extra=ops)

    assert result["correct"]
    # at 0 s a run is one whole pass over the pool, then the forced ops
    assert result["attempted"] == 2 + len(ops)
    by_label = {op["input"]: op["cls"] for op in result["ops"]}
    for label, cls in expected.items():
        assert by_label[label].startswith(cls), (label, by_label[label])
    assert result["failed"] >= len(expected)
    assert result["trace"]["identical"] == result["trace"]["compared"] >= 1

    spec = run.load_spec()
    line = run.result_line(result, 1, spec)
    assert set(line["metrics"]) == {m["name"] for m in spec["per_layer"]}
    assert all(m["value"] is not None for m in line["metrics"].values())
    assert line["metrics"]["cli.main.calls"]["value"] == 1.0
    # uninstall restored every binding
    assert abreu.potential.hessian is abreu.grid.hessian
    assert not hasattr(abreu.grid.hessian, "__wrapped__")


def _traced_tiny_solve(tmp_path):
    import abreu.cli

    tracer = Tracer()
    tracer.install()
    try:
        tracer.start_op(0)
        assert abreu.cli.main(["solve", "--dim", "2", "--resolution", "16",
                               "--expr=0.5*cos(2*pi*x1)",
                               "--out", str(tmp_path / "phi.fld")]) == 0
        tracer.end_op()
    finally:
        tracer.uninstall()
    return tracer.metrics(1), tracer.unavailable


def test_krylov_counter_falls_back_then_degrades_to_null(tmp_path, monkeypatch):
    metrics, _ = _traced_tiny_solve(tmp_path)
    with_pcg = metrics["solver.krylov_applies"]
    assert with_pcg > 0

    # as if a later change had removed the preferred private name
    monkeypatch.setattr(Tracer, "KRYLOV_HOOKS",
                        (("_gone", "argument"), ("_linearized_operator", "result")))
    metrics, _ = _traced_tiny_solve(tmp_path)
    assert metrics["solver.krylov_applies"] == with_pcg

    monkeypatch.setattr(Tracer, "KRYLOV_HOOKS", (("_gone", "argument"),))
    metrics, unavailable = _traced_tiny_solve(tmp_path)
    assert metrics["solver.krylov_applies"] is None
    assert metrics["solver.krylov_per_newton"] is None
    assert "_gone" in unavailable["solver.krylov_applies"]
    assert metrics["solver.newton_step.calls"] > 0


def test_missing_public_function_degrades_to_null(tmp_path, monkeypatch):
    from abreu import potential

    monkeypatch.delattr(potential, "cofactor")
    metrics, unavailable = _traced_tiny_solve(tmp_path)
    assert metrics["potential.cofactor.calls"] is None
    assert "potential.cofactor" in unavailable
    assert metrics["potential.hessian_u.calls"] > 0


def test_failing_counter_hook_degrades_to_null(tmp_path, monkeypatch):
    import tracing

    def unreadable(P):
        raise AttributeError("no perturbation")

    monkeypatch.setattr(tracing, "_perturbation_key", unreadable)
    metrics, unavailable = _traced_tiny_solve(tmp_path)
    assert metrics["potential.hessian_u.recompute_ratio"] is None
    assert "no perturbation" in unavailable["potential.hessian_u.recompute_ratio"]
    assert metrics["potential.hessian_u.calls"] > 0


def test_fails_without_the_package_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".results", ".work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "solve-2d",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
