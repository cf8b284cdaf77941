"""Workload definitions and seeded input generation.

Every input is a field expression: a sum of a few low Fourier modes
a*cos(2*pi*(k.x) + theta) with nonzero integer wavevectors k, so it has
zero mean on every grid the workload uses.  The seed chooses wavevectors,
relative amplitudes and phases; the overall size sup|A| on the workload
grid walks a fixed ladder, so that every seed sees the same spread of
difficulty and only the shapes differ.  This module uses the standard
library only, so the same seed gives byte-identical inputs on any host.
"""

from __future__ import annotations

import itertools
import math
import random

# Each workload: the CLI subcommand it times, its grids, the size of its
# input pool (ops cycle through it; a power of two), how many modes an
# input has (by turns), the largest wavenumber per axis, the sup|A|
# ladder, the typical seconds of one op on a 2-vCPU Xeon VM (used only to
# size a run, see ops_in_run) and the speed-reference kernels whose work
# resembles its ops (speed.py).
WORKLOADS = {
    "solve-2d": {
        "command": "solve",
        "dim": 2,
        "resolutions": [64],
        "pool": 16,
        "modes": [3, 4],
        "kmax": 2,
        "sup": [1.0, 4.0],
        "report": True,
        "op_s": 0.95,
        "reference": ["spectral-2d"],
        "why": (
            "the path users run most: 2D solve --report at 64^2; loads grid "
            "FFTs, potential 2x2 algebra and solver Krylov work, never "
            "interpolation"
        ),
        "loads": ["cli", "fieldlang", "fieldfile", "grid", "potential", "solver",
                  "estimates"],
        "bypasses": ["grid.TrigInterpolant", "legendre", "abelian"],
    },
    "duality-2d": {
        "command": "verify",
        "dim": 2,
        "resolutions": [48],
        "pool": 4,
        "modes": [3, 4],
        "kmax": 2,
        "sup": [1.0, 4.0],
        "report": True,
        "op_s": 2.1,
        "reference": ["interp-2d"],
        "why": (
            "verify at 48^2 on solved potentials: off-grid interpolation "
            "under gradient-map inversion plus the bound monitors; never "
            "runs the solver"
        ),
        "loads": ["cli", "fieldfile", "grid", "grid.TrigInterpolant", "potential",
                  "legendre", "estimates"],
        "bypasses": ["solver", "abelian", "fieldlang (set-up only)"],
    },
    "prescribe-3d": {
        "command": "prescribe",
        "dim": 3,
        "resolutions": [16],
        "pool": 4,
        "modes": [3, 4],
        "kmax": 1,
        "sup": [0.06, 0.15],
        "report": True,
        "op_s": 3.2,
        "reference": ["spectral-3d", "interp-3d"],
        "why": (
            "prescribe at 16^3: the only user of abelian; a 3D solve (3x3 "
            "algebra) plus a 3D Legendre transform, so 2D-only kernels must "
            "show no change here"
        ),
        "loads": ["cli", "fieldlang", "fieldfile", "grid", "grid.TrigInterpolant",
                  "potential", "solver", "legendre", "abelian"],
        "bypasses": ["estimates"],
    },
    "solve-1d-ladder": {
        "command": "solve",
        "dim": 1,
        "resolutions": [128, 256, 512, 1024],
        "pool": 8,
        "modes": [3, 4],
        "kmax": 4,
        "sup": [1.0, 4.0],
        "report": False,
        "op_s": 0.75,
        "reference": ["scalar-1d"],
        "why": (
            "1D solve cycling N=128..1024: the scalar branch with no matrix "
            "algebra and the continuation failure path (N>=256 ends at the "
            "step floor today)"
        ),
        "loads": ["cli", "fieldlang", "fieldfile", "grid", "potential (scalar)",
                  "solver"],
        "bypasses": ["grid.TrigInterpolant", "legendre", "estimates", "abelian",
                     "eigvalsh"],
    },
}


def ops_in_run(spec: dict, seconds: float) -> int:
    """Number of ops in a run: whole passes over the pool, as many as take
    about `seconds` at the typical op time, and at least one.

    The count depends on `seconds` and the spec only, never on how fast
    the host is, so a seed always gives the same ops, and the same
    attempted and failed counts, on every run.  Whole passes weigh every
    input of the pool equally.
    """
    passes = max(1, round(seconds / (spec["op_s"] * spec["pool"])))
    return passes * spec["pool"]


def van_der_corput(j: int) -> float:
    """Base-2 radical inverse of j: 0, 1/2, 1/4, 3/4, 1/8, ..."""
    out, scale = 0.0, 0.5
    while j:
        if j & 1:
            out += scale
        j >>= 1
        scale *= 0.5
    return out


def _shells(dim: int, kmax: int) -> list[list[tuple[int, ...]]]:
    """Nonzero vectors in [-kmax, kmax]^dim, one of each +-k pair, grouped
    by |k|^2 in increasing order."""
    shells = {}
    for k in itertools.product(range(-kmax, kmax + 1), repeat=dim):
        first = next((c for c in k if c != 0), 0)
        if first > 0:
            shells.setdefault(sum(c * c for c in k), []).append(k)
    return [shells[r] for r in sorted(shells)]


def _grid_sup(dim, n, modes) -> float:
    """sup over the nodes j/n of sum a*cos(2*pi*k.x + theta)."""
    best = 0.0
    for idx in itertools.product(range(n), repeat=dim):
        value = 0.0
        for amp, k, phase in modes:
            arg = sum(ki * ji for ki, ji in zip(k, idx)) / n
            value += amp * math.cos(2.0 * math.pi * arg + phase)
        best = max(best, abs(value))
    return best


def modes_expression(modes) -> str:
    """Field-language text of sum a*cos(2*pi*(k.x) + theta)."""
    terms = []
    for amp, k, phase in modes:
        arg = "+".join(f"{c}*x{i + 1}" for i, c in enumerate(k) if c != 0)
        terms.append(f"{amp!r}*cos(2*pi*({arg})+{phase!r})")
    return "+".join(terms)


def make_inputs(name: str, seed: int, spec: dict | None = None) -> list[dict]:
    """The seeded input pool of a workload, in the order ops use it.

    Input j runs on resolution resolutions[j % R], where R is their number;
    its index among the inputs of that resolution, i = j // R, fixes its
    mode count (modes[i % 2]) and its sup|A| on its grid: the middle of
    stratum round(vdc(i) * pool / R) of the ladder, vdc being the van der
    Corput sequence.  Pools are powers of two, so every resolution covers
    the ladder evenly and any prefix of the pool is balanced across it.
    The m-th mode comes from the m-th lowest |k| shell (cycling), so every
    input has the same shell structure; the seed picks directions within
    shells, relative amplitudes and phases.
    """
    spec = WORKLOADS[name] if spec is None else spec
    rng = random.Random(f"{name}:{seed}")
    shells = _shells(spec["dim"], spec["kmax"])
    lo, hi = spec["sup"]
    resolutions, modes = spec["resolutions"], spec["modes"]
    strata = spec["pool"] // len(resolutions)
    pool = []
    for j in range(spec["pool"]):
        i = j // len(resolutions)
        n = resolutions[j % len(resolutions)]
        n_modes = modes[i % len(modes)]
        target = lo + (hi - lo) * (round(van_der_corput(i) * strata) + 0.5) / strata
        chosen = []
        for m in range(n_modes):
            free = [k for k in shells[m % len(shells)] if k not in chosen]
            chosen.append(rng.choice(free))
        raw = [(rng.uniform(0.5, 1.0), k, rng.uniform(0.0, 2.0 * math.pi))
               for k in chosen]
        scale = target / _grid_sup(spec["dim"], n, raw)
        pool.append({
            "id": j,
            "dim": spec["dim"],
            "resolution": n,
            "sup_target": target,
            "expr": modes_expression([(amp * scale, k, phase) for amp, k, phase in raw]),
        })
    return pool
