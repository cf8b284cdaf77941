"""The byte-identity tool digests reports without their run-specific keys."""

import importlib.util
import json
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "output_digest.py"


def test_report_digest_ignores_the_clock_and_the_command():
    spec = importlib.util.spec_from_file_location("output_digest", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    report = {"schema_version": 3, "wall_clock_seconds": 1.5,
              "command": ["verify", "--phi", "/a/phi0.fld"], "verification": {"passed": True}}
    again = dict(report, wall_clock_seconds=2.5, command=["verify", "--phi", "/b/phi0.fld"])
    changed = dict(report, verification={"passed": False})
    digest = tool.report_digest
    assert digest(json.dumps(report).encode()) == digest(json.dumps(again).encode())
    assert digest(json.dumps(report).encode()) != digest(json.dumps(changed).encode())
