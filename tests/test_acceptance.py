"""Acceptance suite: one test per criterion, one printed line per verdict.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS lines and
the measured values they certify.  Everything here is property-based or
manufactured-solution-based; no reference data files are involved.
"""

import struct
import time

import numpy as np
import pytest

from abreu import (
    InvariantMetric,
    NotConvex,
    Potential,
    ScalarField,
    abreu_forward,
    continuity_solve,
    divergence_form_residual,
    dual_residual,
    gradient_map_inverse,
    hessian_u,
    det_hessian,
    inverse_hessian,
    legendre_transform,
    lower_bound_monitor,
    make_grid,
    mean,
    metric_volume_mean,
    prescribe_curvature,
    pullback_rhs,
    read_field,
    scalar_curvature,
    scalar_curvature_symplectic,
    sup_norm,
    upper_bound_monitor,
    write_field,
    TrigInterpolant,
)
from abreu.cli import main as cli_main
from abreu.fieldfile import MAGIC
from tests.support import (
    functional_second_derivative_oracle,
    linearized_apply,
    manufactured_problem,
    random_band_limited,
    random_convex_potential,
)

TWO_PI = 2.0 * np.pi


def report(criterion, ok, detail):
    marker = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion:>2}: {marker}  {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def solved_1d():
    grid, a, phi_star = manufactured_problem(64)
    start = time.perf_counter()
    P, trace = continuity_solve(a)
    wall = time.perf_counter() - start
    return grid, a, phi_star, P, trace, wall


@pytest.fixture(scope="module")
def solved_2d():
    g = make_grid(2, [64, 64])
    x, y = g.coordinate_arrays()
    a = ScalarField(g, 0.5 * (np.cos(TWO_PI * x) + np.cos(TWO_PI * y)))
    start = time.perf_counter()
    P, trace = continuity_solve(a)
    wall = time.perf_counter() - start
    return g, a, P, trace, wall


def test_01_manufactured_1d_solve(solved_1d):
    _, _, phi_star, P, _, wall = solved_1d
    err = sup_norm(P.perturbation - phi_star)
    report(
        1,
        err <= 1e-6 and wall <= 60.0,
        f"1D manufactured recovery err={err:.3e} (<=1e-6), wall={wall:.2f}s (<=60s)",
    )


def test_02_2d_solve(solved_2d):
    _, a, P, trace, wall = solved_2d
    residual = sup_norm(abreu_forward(P) - a)
    ts = [s.t for s in trace.steps]
    monotone = ts == sorted(ts) and len(set(ts)) == len(ts) and ts[-1] == 1.0
    report(
        2,
        residual <= 1e-8 and monotone and wall <= 600.0,
        f"2D residual={residual:.3e} (<=1e-8), t-path={ts}, wall={wall:.2f}s",
    )


def test_03_spectral_convergence():
    # a manufactured solution with visible spectral tail at N=32
    # (eps = 0.02) so the error ratio measures genuine superalgebraic decay
    errs = {}
    for n in (32, 64):
        _, a, phi_star = manufactured_problem(n, eps=0.02)
        P, _ = continuity_solve(a)
        errs[n] = sup_norm(P.perturbation - phi_star)
    ratio = errs[32] / errs[64]
    report(
        3,
        ratio >= 10.0,
        f"err(N=32)={errs[32]:.3e}, err(N=64)={errs[64]:.3e}, ratio={ratio:.1f} (>=10)",
    )


def test_04_uniqueness(solved_1d):
    _, a, _, P_flat, _, _ = solved_1d
    rng = np.random.default_rng(4)
    noise = random_convex_potential(a.grid, rng, margin=0.7, max_mode=3)
    P_noisy, _ = continuity_solve(a, initial_perturbation=noise.perturbation)
    gap = sup_norm(P_flat.perturbation - P_noisy.perturbation)
    report(4, gap <= 1e-6, f"flat vs noisy-start solutions differ by {gap:.3e} (<=1e-6)")


def test_05_necessary_condition(tmp_path):
    rng = np.random.default_rng(5)
    worst = 0.0
    for trial in range(100):
        dim = 1 if trial % 2 == 0 else 2
        g = make_grid(dim, [16] * dim)
        P = random_convex_potential(g, rng, margin=rng.uniform(0.2, 0.9))
        out = abreu_forward(P)
        hinv = inverse_hessian(hessian_u(P))
        scale = 1.0 + float(np.max(np.abs(hinv.entries)))
        worst = max(worst, abs(mean(out)) / scale)
    ok_mean = worst <= 1e-12

    bad = tmp_path / "bad.fld"
    code = cli_main(
        ["solve", "--dim", "1", "--resolution", "16", "--expr", "1",
         "--out", str(bad)]
    )
    report(
        5,
        ok_mean and code == 2,
        f"worst scaled mean over 100 random P = {worst:.3e} (<=1e-12); "
        f"solve exit code for nonzero mean = {code} (==2)",
    )


def test_06_self_adjoint_positive():
    rng = np.random.default_rng(6)
    g = make_grid(2, [16, 16])
    worst_asym = 0.0
    min_quad = np.inf
    worst_const = 0.0
    for trial in range(100):
        P = random_convex_potential(g, rng, margin=0.4)
        psi = random_band_limited(g, rng, max_mode=3)
        chi = random_band_limited(g, rng, max_mode=3)
        lpsi = linearized_apply(P, psi)
        a = mean(lpsi * chi)
        b = mean(psi * linearized_apply(P, chi))
        norms = np.sqrt(mean(psi * psi)) * np.sqrt(mean(chi * chi))
        worst_asym = max(worst_asym, abs(a - b) / norms)
        min_quad = min(min_quad, mean(lpsi * psi))
        const = ScalarField.constant(g, float(rng.normal()))
        worst_const = max(worst_const, mean(linearized_apply(P, const) * const))
    report(
        6,
        worst_asym <= 1e-10 and min_quad > 0.0 and abs(worst_const) <= 1e-10,
        f"asymmetry={worst_asym:.3e} (<=1e-10), min <L psi, psi>={min_quad:.3e} (>0), "
        f"constants={worst_const:.3e} (<=1e-10)",
    )


def test_07_functional_convexity():
    rng = np.random.default_rng(7)
    g = make_grid(1, [32])
    low = np.inf
    for _ in range(50):
        P0 = random_convex_potential(g, rng, margin=rng.uniform(0.3, 0.8))
        P1 = random_convex_potential(g, rng, margin=rng.uniform(0.3, 0.8))
        for t in (0.0, 0.25, 0.5, 0.75, 1.0):
            low = min(low, functional_second_derivative_oracle(P0, P1, t))
    report(7, low >= -1e-10, f"min d2F/dt2 over 50 paths x 5 points = {low:.3e} (>=-1e-10)")


def test_08_legendre_suite(solved_1d):
    _, a, _, P, _, _ = solved_1d
    V = legendre_transform(P)
    involution = sup_norm(legendre_transform(V).perturbation - P.perturbation)
    x_of_y = gradient_map_inverse(P, P.grid.node_points())
    det_u = TrigInterpolant(det_hessian(hessian_u(P)))
    det_v = det_hessian(hessian_u(V)).values.ravel()
    duality = float(np.max(np.abs(det_v * det_u.evaluate(x_of_y) - 1.0)))
    atilde = pullback_rhs(a, V)
    dual_res = sup_norm(dual_residual(V, atilde))
    report(
        8,
        involution <= 1e-8 and duality <= 1e-8 and dual_res <= 1e-6,
        f"involution={involution:.3e} (<=1e-8), det-duality={duality:.3e} (<=1e-8), "
        f"dual-residual={dual_res:.3e} (<=1e-6)",
    )


def test_09_estimate_monitors(solved_1d):
    _, a, _, P, _, _ = solved_1d
    V = legendre_transform(P)
    atilde = pullback_rhs(a, V)
    upper = upper_bound_monitor(V, atilde)
    lower = lower_bound_monitor(V, atilde)
    names = {c.name for c in upper.inequalities} | {c.name for c in lower.inequalities}
    required = {"upper-det-at-min", "lower-trace-at-min"}
    all_hold = upper.all_satisfied and lower.all_satisfied and required <= names

    y = V.grid.axis_coordinates(0)
    corrupted = Potential(
        V.base,
        ScalarField(
            V.grid,
            V.perturbation.values
            + 0.3 * np.cos(TWO_PI * y)
            - np.mean(V.perturbation.values + 0.3 * np.cos(TWO_PI * y)),
        ),
    )
    try:
        flagged = not upper_bound_monitor(corrupted, atilde).all_satisfied
    except NotConvex:
        flagged = True
    report(
        9,
        all_hold and flagged,
        f"certified solution satisfies all monitor inequalities (5% slack): {all_hold}; "
        f"corrupted dual flagged: {flagged}",
    )


def test_10_curvature_round_trip():
    g = make_grid(1, [64])
    x = g.axis_coordinates(0)
    psi = ScalarField(g, 0.01 * np.cos(TWO_PI * x))
    m = InvariantMetric(psi)

    s_t = scalar_curvature_symplectic(m)
    recovered, _ = prescribe_curvature(s_t)
    round_trip = sup_norm(recovered.psi - psi)

    flat, _ = prescribe_curvature(ScalarField.zeros(g))
    flat_exact = sup_norm(flat.psi)
    s_of_flat = sup_norm(scalar_curvature(InvariantMetric(ScalarField.zeros(g))))

    rng = np.random.default_rng(10)
    worst_mean = 0.0
    for _ in range(10):
        psi_r = random_convex_potential(g, rng, margin=0.6, max_mode=2).perturbation
        m_r = InvariantMetric(psi_r)
        worst_mean = max(
            worst_mean,
            abs(metric_volume_mean(m_r, scalar_curvature(m_r))),
            abs(mean(scalar_curvature_symplectic(m_r))),
        )
    report(
        10,
        round_trip <= 1e-6 and flat_exact == 0.0 and s_of_flat <= 1e-12
        and worst_mean <= 1e-10,
        f"round-trip psi err={round_trip:.3e} (<=1e-6), flat<->zero exact, "
        f"worst curvature mean={worst_mean:.3e} (<=1e-10)",
    )


def test_11_divergence_form_equivalence():
    rng = np.random.default_rng(2024)
    g = make_grid(2, [64, 64])
    worst = 0.0
    for _ in range(20):
        P = random_convex_potential(g, rng, margin=0.75, max_mode=2)
        worst = max(worst, sup_norm(divergence_form_residual(P, abreu_forward(P))))
    report(11, worst <= 1e-8, f"worst divergence-form residual over 20 random P = {worst:.3e} (<=1e-8)")


def test_12_file_format(tmp_path):
    rng = np.random.default_rng(12)
    ok = True
    for trial in range(50):
        dim = int(rng.integers(1, 3))
        res = [int(rng.choice([8, 16]))] * dim
        g = make_grid(dim, res)
        f = ScalarField(g, rng.standard_normal(g.shape))
        path = tmp_path / f"t{trial}.fld"
        write_field(path, f)
        write_field(tmp_path / "again.fld", read_field(path))
        ok = ok and path.read_bytes() == (tmp_path / "again.fld").read_bytes()

    trunc = tmp_path / "trunc.fld"
    write_field(trunc, ScalarField.zeros(make_grid(1, [8])))
    trunc.write_bytes(trunc.read_bytes()[:-5])
    try:
        read_field(trunc)
        trunc_ok = False
    except Exception as err:
        trunc_ok = "missing 5 bytes" in str(err)

    badmagic = tmp_path / "magic.fld"
    badmagic.write_bytes(b"PABR0" + struct.pack("<I", 1) + struct.pack("<Q", 8) + b"\0" * 64)
    try:
        read_field(badmagic)
        magic_ok = False
    except Exception as err:
        magic_ok = "PABR0" in str(err) and MAGIC.decode() in str(err)

    report(
        12,
        ok and trunc_ok and magic_ok,
        f"50 bitwise round trips: {ok}; truncation diagnostic: {trunc_ok}; "
        f"bad-magic diagnostic: {magic_ok}",
    )
