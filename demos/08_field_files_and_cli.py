"""Field files and the command-line pipeline.

Fields serialize to a bit-exact little-endian format ("PABR1" magic, dim,
per-axis resolutions, float64 payload).  The CLI chains the library into
reproducible batch workflows; this demo drives it in-process through the
same entry point the installed `abreu` script uses.
"""

import json
import tempfile
from pathlib import Path

import numpy as np

from abreu import ScalarField, make_grid, read_field, sup_norm, write_field
from abreu.cli import main

workdir = Path(tempfile.mkdtemp(prefix="abreu-demo-"))
print(f"working in {workdir}")

# bit-exact round trip
g = make_grid(2, [16, 16])
rng = np.random.default_rng(0)
f = ScalarField(g, rng.standard_normal(g.shape))
write_field(workdir / "noise.fld", f)
back = read_field(workdir / "noise.fld")
print(f"round trip bitwise equal: {np.array_equal(back.values, f.values)}")
raw = (workdir / "noise.fld").read_bytes()
print(f"header: magic={raw[:5]!r}, total {len(raw)} bytes "
      f"(= 5 + 4 + 2*8 + 8*256)")

# CLI pipeline: synthesize a right-hand side, solve, verify, inspect report
steps = [
    ["synth", "--dim", "1", "--resolution", "64",
     "--expr", "0.5*cos(2*pi*x1)", "--out", str(workdir / "A.fld")],
    ["solve", "--rhs", str(workdir / "A.fld"), "--out", str(workdir / "phi.fld"),
     "--report", str(workdir / "solve.json")],
    ["verify", "--phi", str(workdir / "phi.fld"), "--rhs", str(workdir / "A.fld"),
     "--report", str(workdir / "verify.json")],
    ["legendre", "--phi", str(workdir / "phi.fld"), "--out", str(workdir / "psi.fld")],
]
for argv in steps:
    code = main(argv)
    print(f"abreu {argv[0]:8s} -> exit {code}")

report = json.loads((workdir / "solve.json").read_text())
print(f"solve report: schema {report['schema_version']}, "
      f"tool {report['tool_version']}, "
      f"final residual {report['residual_norms']['final_sup']:.2e}, "
      f"{len(report['trace']['steps'])} accepted step(s) in t")
verdict = json.loads((workdir / "verify.json").read_text())
print(f"verification passed: {verdict['verification']['passed']}")

# exit code 2 signals the zero-mean violation (unless --project-mean)
code = main(["solve", "--dim", "1", "--resolution", "16", "--expr", "1",
             "--out", str(workdir / "nope.fld")])
print(f"solving a nonzero-mean right-hand side -> exit {code} (2 = mean violation)")

phi = read_field(workdir / "phi.fld")
print(f"solution perturbation amplitude: {sup_norm(phi):.3e}")
