"""Machine-speed reference for scaling measured times.

On a shared host, other tenants change how fast this process runs by
±20% over minutes, in wall time and CPU time alike, and longer runs do
not average it out.  Different kinds of work slow down by different
amounts.  So each workload names fixed numpy kernels that do the same
kind of work as its ops, at the same sizes, and they are timed between
ops:

  * "spectral-2d" / "spectral-3d": FFTs on a 64^2 / 16^3 grid, batched
    2x2 / 3x3 eigenvalues, inverses and three-operand contractions, and
    interpreted Python (the solver);
  * "interp-2d" / "interp-3d": the axis-by-axis contraction of
    trigonometric interpolation at 48^2 / 16^3 (gradient-map inversion);
  * "scalar-1d": many numpy calls on 1D arrays of 512 points (copies,
    finiteness checks, FFTs, pointwise algebra) and interpreted Python
    (the 1D solver).

The kernels run in a helper process pinned to the workload's CPU, so
their memory does not count in the workload's peak RSS.

A scaled time is a wall time times the kernels' nominal time over their
time measured around it: the time the work would take at the speed where
the kernels take their nominal time.  Nominal times are only a unit; they
are about the kernels' median times on a 2-vCPU Xeon VM.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time

NOMINAL_S = {"spectral-2d": 0.02, "spectral-3d": 0.02, "interp-2d": 0.017,
             "interp-3d": 0.015, "scalar-1d": 0.017}
# Kernel timings per measurement; their median is less often hit by a
# momentary stall than one timing.
REPEATS = 3


class _Kernels:
    """The named reference kernels with their fixed inputs."""

    def __init__(self, kernels):
        import numpy

        self.np = numpy
        self.kernels = [(name, self._prepare(name, numpy.random.default_rng(0)))
                        for name in kernels]
        self.nominal_s = sum(NOMINAL_S[name] for name in kernels)
        self._fftn, self._ifftn = numpy.fft.fftn, numpy.fft.ifftn
        self._inv, self._eigvalsh = numpy.linalg.inv, numpy.linalg.eigvalsh
        self._einsum, self._exp = numpy.einsum, numpy.exp
        self._broadcast_to = numpy.broadcast_to

    def _prepare(self, name, rng):
        np = self.np
        kind, dim = name.rsplit("-", 1)
        dim = int(dim[0])
        if kind == "spectral":
            shape = (64, 64) if dim == 2 else (16, 16, 16)
            m = rng.standard_normal(shape + (dim, dim))
            return {"field": rng.standard_normal(shape),
                    "matrices": m @ m.swapaxes(-1, -2) + np.eye(dim),
                    "reps": (4, 10000) if dim == 2 else (2, 3000)}
        if kind == "interp":
            n, points = (48, 256) if dim == 2 else (16, 512)
            coeffs = np.fft.fftn(rng.standard_normal((n,) * dim)) / n**dim
            phases = 2j * np.pi * np.multiply.outer(rng.random((dim, points)),
                                                    np.fft.fftfreq(n) * n)
            return {"coeffs": coeffs, "phases": phases, "points": points,
                    "reps": 6 if dim == 2 else 2}
        return {"field": rng.standard_normal(512), "mult": rng.standard_normal(512),
                "reps": 250}

    def _spectral(self, k):
        reps, loop = k["reps"]
        for _ in range(reps):
            spectrum = self._fftn(k["field"])
            for _ in range(3):
                self._ifftn(spectrum * 1.5)
            self._eigvalsh(k["matrices"])
            inverse = self._inv(k["matrices"])
            self._einsum("...ia,...ab,...bj->...ij", inverse, k["matrices"], inverse)
            acc = 0
            for i in range(loop):
                acc += i * i

    def _interp(self, k):
        for _ in range(k["reps"]):
            acc = self._broadcast_to(k["coeffs"], (k["points"],) + k["coeffs"].shape)
            for phases in k["phases"]:
                acc = self._einsum("pk,pk...->p...", self._exp(phases), acc)

    def _scalar(self, k):
        f, mult = k["field"], k["mult"]
        for _ in range(k["reps"]):
            x = self.np.array(f, dtype=float, copy=True)
            x.setflags(write=False)
            self.np.all(self.np.isfinite(x))
            g = self._ifftn(self._fftn(x) * mult).real
            h = 1.0 / (1.0 + g * g)
            s = self._ifftn(self._fftn(h - h.mean()) * mult).real
            peak = float(abs(s).max())
            f = 0.5 * (f + s / (1.0 + peak))

    def measure(self) -> float:
        """Seconds the kernels take now: the median of REPEATS timings."""
        times = []
        for _ in range(REPEATS):
            start = time.perf_counter()
            for name, k in self.kernels:
                getattr(self, "_" + name.rsplit("-", 1)[0])(k)
            times.append(time.perf_counter() - start)
        return statistics.median(times)


class SpeedReference:
    """The kernels, timed in a helper process on this process's CPU.

    The helper keeps the kernels' memory out of the workload process's
    peak RSS.  Both processes are pinned to the same CPU, so the helper
    sees the speed the ops see; the workload waits while it runs.
    Use as a context manager: leaving it stops the helper and waits for it.
    """

    def __init__(self, kernels):
        cpu = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
        self._proc = subprocess.Popen(
            [sys.executable, __file__, str(cpu), *kernels],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.nominal_s = float(self._proc.stdout.readline())

    def measure(self) -> float:
        """Seconds the kernels take now."""
        self._proc.stdin.write("\n")
        self._proc.stdin.flush()
        return float(self._proc.stdout.readline())

    def scaled(self, seconds: float, reference_s: float) -> float:
        return seconds * self.nominal_s / reference_s

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()


def _serve(cpu: int, kernels) -> None:
    """Helper process: time the kernels once per input line, until EOF."""
    os.sched_setaffinity(0, {cpu})
    timer = _Kernels(kernels)
    print(repr(timer.nominal_s), flush=True)
    for _ in sys.stdin:
        print(repr(timer.measure()), flush=True)


if __name__ == "__main__":
    _serve(int(sys.argv[1]), sys.argv[2:])
