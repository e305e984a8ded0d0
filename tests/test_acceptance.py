"""Acceptance battery: one test per criterion, at the stated tolerances.

Each test prints a single summary line (visible with ``pytest -s`` or on
failure).  Sizes, tolerances, and runtime ceilings are pinned here and
not calibrated anywhere else.
"""

import time

import numpy as np
import pytest

from posreal.calculus import (
    accretive_positivity_check,
    calc_realized,
    calc_series,
    herglotz_taylor_from_schur,
    operator_cayley,
    pointwise_diagonal_oracle,
    taylor_from_function,
    von_neumann_check,
)
from posreal.cayley import DiskFunctionView, DiskKernelEvaluator, disk_to_halfplane, inv_double_cayley
from posreal.colligation import agler_identity_residual, build_colligation, spectrum_condition, transfer_eval
from posreal.core import hermitian_part
from posreal.geometry import (
    AntiUnitaryInvolution,
    check_real_colligation,
    check_real_pencil,
    dehomogenize,
    four_quadrant_check,
    homogenize,
    in_omega,
    in_omega_oracle,
    in_omega_oracle_batch,
    is_iota_real_function,
    taylor_realness_residual,
)
from posreal.kernels import KernelEvaluator, kernel_identity_residual, pencil_from_kernel_samples, sample_kernels
from posreal.netlist import network_pencil, parse_netlist
from posreal.pencil import eval_schur, realize
from posreal.sampling import (
    disk_grid,
    halfplane_grid,
    random_accretive_tuple,
    random_contraction_tuple,
    random_diagonalizable_accretive_pair,
    random_pencil,
)


def report(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num}: {status} - {detail}")
    assert ok, detail


def random_law_pencil(rng, max_vars=4, max_n=4, max_p=8):
    n = int(rng.integers(1, max_n + 1))
    p = int(rng.integers(0, max_p + 1))
    nv = int(rng.integers(1, max_vars + 1))
    return random_pencil(rng, nv, n, p, rank_deficient=True)


def test_01_pencil_law_battery():
    rng = np.random.default_rng(101)
    t0 = time.time()
    worst = {"hom": 0.0, "sym": 0.0, "pos": 0.0, "ker": 0.0}
    quad_failures = 0
    for i in range(200):
        f = random_law_pencil(rng)
        pts = halfplane_grid(f.num_vars, 25, seed=int(rng.integers(1 << 30)))
        vals = f(pts)
        norms = np.linalg.norm(vals, ord=2, axis=(1, 2))
        scales = 1.0 + norms

        lam = (0.5 + 1.5 * rng.random(len(pts))) * np.exp(2j * np.pi * rng.random(len(pts)))
        hom = np.linalg.norm(f(lam[:, None] * pts) - lam[:, None, None] * vals, axis=(1, 2))
        worst["hom"] = max(worst["hom"], float(np.max(hom / scales)))

        sym = np.linalg.norm(f(pts.conj()) - vals.conj().transpose(0, 2, 1), axis=(1, 2))
        worst["sym"] = max(worst["sym"], float(np.max(sym / scales)))

        # slack is relative to the value norm, with the policy's absolute
        # floor so identically-zero values measure their own roundoff
        for v, nv in zip(vals, norms):
            lo = np.linalg.eigvalsh(hermitian_part(v))[0]
            worst["pos"] = max(worst["pos"], float(-lo - 1e-10 * (1.0 + nv)))

        worst["ker"] = max(worst["ker"], kernel_identity_residual(f, pts))

        if not four_quadrant_check(lambda q: f(q), f.num_vars, rng, samples=25):
            quad_failures += 1
    elapsed = time.time() - t0
    ok = (worst["hom"] <= 1e-9 and worst["sym"] <= 1e-9 and worst["pos"] <= 0.0
          and worst["ker"] <= 1e-9 and quad_failures == 0 and elapsed <= 60.0)
    report(1, ok, f"200 pencils x 25 points: homogeneity {worst['hom']:.1e}, "
                  f"symmetry {worst['sym']:.1e}, positivity slack-excess {worst['pos']:.1e}, "
                  f"kernel residual {worst['ker']:.1e}, quadrant failures {quad_failures}, "
                  f"{elapsed:.1f}s (limit 60)")


def test_02_network_closed_forms():
    rng = np.random.default_rng(102)
    series = network_pencil(parse_netlist("ports P\nbranch P M z1 1\nbranch M GND z2 1\n"))
    pts = rng.random((100, 2)) * 3 + 0.05 + 1j * rng.standard_normal((100, 2))
    vals = series(pts)[:, 0, 0]
    expect = pts[:, 0] * pts[:, 1] / (pts[:, 0] + pts[:, 1])
    rel = float(np.max(np.abs(vals - expect) / np.abs(expect)))

    par = network_pencil(parse_netlist("ports P\nbranch P GND z1 1\nbranch P GND z2 1\n"))
    exact = all(par(z)[0, 0] == z[0] + z[1] for z in pts)
    report(2, rel <= 1e-12 and exact,
           f"series network rel err {rel:.2e} (tol 1e-12); parallel exact: {exact}")


def test_03_kernel_roundtrip():
    rng = np.random.default_rng(103)
    t0 = time.time()
    worst_node = worst_holdout = 0.0
    for i in range(50):
        n = int(rng.integers(1, 5))
        p = int(rng.integers(0, 9))
        nv = int(rng.integers(1, 5))
        f = random_pencil(rng, nv, n, p, rank_deficient=True)
        grid = halfplane_grid(nv, p + 3, seed=int(rng.integers(1 << 30)))
        ks = sample_kernels(f, grid)
        rebuilt = pencil_from_kernel_samples(ks)
        node_err = np.linalg.norm(rebuilt(grid) - ks.f_samples, axis=(1, 2))
        worst_node = max(worst_node, float(np.max(node_err / (1 + np.linalg.norm(ks.f_samples, axis=(1, 2))))))
        holdout = halfplane_grid(nv, 10, seed=int(rng.integers(1 << 30))) * (1 + 0.07j)
        vals, expect = rebuilt(holdout), f(holdout)
        h_err = np.linalg.norm(vals - expect, axis=(1, 2))
        worst_holdout = max(worst_holdout, float(np.max(h_err / (1 + np.linalg.norm(expect, axis=(1, 2))))))
    elapsed = time.time() - t0
    ok = worst_node <= 1e-10 and worst_holdout <= 1e-8 and elapsed <= 120.0
    report(3, ok, f"50 roundtrips (grid p+3): node {worst_node:.1e} (tol 1e-10), "
                  f"held-out {worst_holdout:.1e} (tol 1e-8), {elapsed:.1f}s (limit 120)")


@pytest.fixture(scope="module")
def synthesized_colligations():
    rng = np.random.default_rng(104)
    out = []
    for i in range(50):
        n = int(rng.integers(1, 4))
        p = int(rng.integers(0, 7))
        nv = int(rng.integers(1, 4))
        f = random_pencil(rng, nv, n, p, rank_deficient=True)
        ws = disk_grid(nv, 25, seed=int(rng.integers(1 << 30)))
        dk = DiskKernelEvaluator(f)
        svals = DiskFunctionView(f).eval_double_cayley(ws)
        syn = build_colligation(ws, dk.theta_table(ws), svals)
        out.append((f, ws, svals, syn))
    return out


def test_04_double_cayley_colligation(synthesized_colligations):
    worst_u = worst_sa = worst_match = worst_rec = 0.0
    min_margin = np.inf
    for f, ws, svals, syn in synthesized_colligations:
        c = syn.colligation
        worst_u = max(worst_u, c.unitarity_residual())
        worst_sa = max(worst_sa, c.selfadjointness_residual())
        tv = transfer_eval(c, ws)
        worst_match = max(worst_match, float(np.max(np.linalg.norm(tv - svals, axis=(1, 2)))))
        min_margin = min(min_margin, spectrum_condition(c)[1])
        rec = inv_double_cayley(lambda pts: transfer_eval(c, pts), ws)
        target = f(disk_to_halfplane(ws))
        rec_err = np.linalg.norm(rec - target, axis=(1, 2)) / (1 + np.linalg.norm(target, axis=(1, 2)))
        worst_rec = max(worst_rec, float(np.max(rec_err)))
    ok = (worst_u <= 1e-9 and worst_sa <= 1e-9 and worst_match <= 1e-9
          and min_margin > 0 and worst_rec <= 1e-8)
    report(4, ok, f"50 colligations: unitarity {worst_u:.1e}, selfadjointness {worst_sa:.1e} "
                  f"(tol 1e-9), transfer match {worst_match:.1e} (tol 1e-9), "
                  f"spectrum margin {min_margin:.3f} > 0, recovery {worst_rec:.1e} (tol 1e-8)")


def test_05_agler_identities(synthesized_colligations):
    worst = 0.0
    for f, ws, svals, syn in synthesized_colligations:
        pairs = ws[:5]
        rp, rm = agler_identity_residual(syn.colligation, pairs)
        worst = max(worst, rp, rm)
    report(5, worst <= 1e-9, f"plus/minus identity residual over 5x5 pairs: {worst:.1e} (tol 1e-9)")


def test_06_functional_calculus():
    rng = np.random.default_rng(106)

    worst_oracle = 0.0
    for i in range(100):
        f = random_pencil(rng, 2, int(rng.integers(1, 4)), int(rng.integers(0, 5)))
        t, v, eigs = random_diagonalizable_accretive_pair(rng, int(rng.integers(2, 7)))
        lhs = calc_realized(f, t)
        rhs = pointwise_diagonal_oracle(f, v, eigs)
        worst_oracle = max(worst_oracle, float(np.linalg.norm(lhs - rhs, 2) /
                                               (1 + np.linalg.norm(rhs, 2))))

    worst_series = 0.0
    for i in range(10):
        f = random_pencil(rng, 2, int(rng.integers(1, 3)), int(rng.integers(0, 4)))
        view = DiskFunctionView(f)
        sch = taylor_from_function(view.eval_double_cayley, 2, f.dim_u, degree=45)
        sup_pts = 0.9 * disk_grid(2, 16, seed=i)
        sup = 2.0 * float(np.max(np.linalg.norm(view.eval_F(sup_pts), ord=2, axis=(1, 2))))
        fco = herglotz_taylor_from_schur(sch, sup_bound=sup, sup_radius=0.9)
        for _ in range(5):
            t = random_contraction_tuple(rng, 2, int(rng.integers(2, 5)), target_norm=0.35)
            sval, tail = calc_series(fco, t)
            rval = calc_realized(f, operator_cayley(t))
            gap = float(np.linalg.norm(sval - rval, 2))
            worst_series = max(worst_series, gap - tail - 1e-9 * (1 + np.linalg.norm(rval, 2)))

    failures = 0
    for i in range(25):
        f = random_pencil(rng, 2, int(rng.integers(1, 4)), int(rng.integers(0, 6)),
                          rank_deficient=True)
        for _ in range(20):
            r = random_accretive_tuple(rng, 2, int(rng.integers(2, 7)))
            if not accretive_positivity_check(f, r)[0]:
                failures += 1
    ok = worst_oracle <= 1e-10 and worst_series <= 0.0 and failures == 0
    report(6, ok, f"oracle {worst_oracle:.1e} (tol 1e-10) on 100 pairs; series-vs-realized "
                  f"excess {worst_series:.1e} <= 0 on 50 tuples; positivity failures "
                  f"{failures}/500")


def test_07_von_neumann_controls():
    rng = np.random.default_rng(107)
    worst_excess = -np.inf
    violations = 0
    for i in range(5):
        f = random_pencil(rng, 2, int(rng.integers(1, 3)), int(rng.integers(1, 4)))
        view = DiskFunctionView(f)
        sch = taylor_from_function(view.eval_double_cayley, 2, f.dim_u, degree=45)
        for _ in range(100):
            t = random_contraction_tuple(rng, 2, 4,
                                         target_norm=float(0.15 + 0.25 * rng.random()))
            norm, tail, violation = von_neumann_check(sch, t)
            violations += int(violation)
            worst_excess = max(worst_excess, norm - (1 + tail + 1e-9))
    ok = violations == 0 and worst_excess <= 0.0
    report(7, ok, f"500 contraction pairs: violations {violations}, "
                  f"worst norm excess over 1+tail+1e-9: {worst_excess:.2e}")


def test_08_domain_predicate():
    rng = np.random.default_rng(108)
    total = agree = 0
    remaining = 100_000
    while remaining > 0:
        batch = min(remaining, 20_000)
        nv = int(rng.integers(1, 6))
        pts = rng.standard_normal((batch, nv)) + 1j * rng.standard_normal((batch, nv))
        remaining -= batch
        args = np.sort(np.angle(pts), axis=1)
        gaps = np.diff(args, axis=1, append=(args[:, :1] + 2 * np.pi))
        margin_ok = np.abs(np.max(gaps, axis=1) - np.pi) > 1e-3
        sel = pts[margin_ok]
        fast = in_omega_oracle_batch(sel, 100_000)
        direct = np.fromiter((in_omega(z) for z in sel), dtype=bool, count=len(sel))
        total += len(sel)
        agree += int(np.sum(fast == direct))
    # the batch oracle must equal the literal theta scan bit for bit
    sub = rng.standard_normal((300, 3)) + 1j * rng.standard_normal((300, 3))
    literal = np.array([in_omega_oracle(z, 100_000) for z in sub])
    batch_equal = np.array_equal(in_omega_oracle_batch(sub, 100_000), literal)

    witness = np.array([1.0, np.exp(2j * np.pi / 3), np.exp(4j * np.pi / 3)])
    witness_rejected = (not in_omega(witness)) and (not in_omega_oracle(witness, 100_000))
    ok = total > 90_000 and agree == total and batch_equal and witness_rejected
    report(8, ok, f"oracle agreement {agree}/{total} outside 1e-3 margin; literal-scan "
                  f"equality on 300 points: {batch_equal}; spread-arguments witness "
                  f"rejected: {witness_rejected}")


def test_09_dehomogenization_roundtrip():
    rng = np.random.default_rng(109)
    worst_rt = worst_sym = 0.0
    for i in range(50):
        nv = int(rng.integers(2, 5))
        f = random_pencil(rng, nv, int(rng.integers(1, 4)), int(rng.integers(0, 6)),
                          rank_deficient=True)
        lam = np.exp(1j * (rng.random() - 0.5) * 2.8)  # rotation keeping e-grid inside
        pts = lam * halfplane_grid(nv, 50, seed=int(rng.integers(1 << 30)))
        h = homogenize(dehomogenize(f), nv)
        vals, expect = h(pts), f(pts)
        err = np.linalg.norm(vals - expect, axis=(1, 2)) / (1 + np.linalg.norm(expect, axis=(1, 2)))
        worst_rt = max(worst_rt, float(np.max(err)))

        g = dehomogenize(f)
        zp = halfplane_grid(nv - 1, 10, seed=int(rng.integers(1 << 30)))
        gv = g(zp)
        gsym = np.linalg.norm(g(zp.conj()) - gv.conj().transpose(0, 2, 1), axis=(1, 2))
        worst_sym = max(worst_sym, float(np.max(gsym / (1 + np.linalg.norm(gv, axis=(1, 2))))))
    ok = worst_rt <= 1e-10 and worst_sym <= 1e-9
    report(9, ok, f"50 pencils: homogenize(dehomogenize(f)) error {worst_rt:.1e} "
                  f"(tol 1e-10); g conjugate-symmetry {worst_sym:.1e}")


def test_10_real_chain():
    rng = np.random.default_rng(110)
    iota1 = AntiUnitaryInvolution.conjugation(1)

    chain_ok = True
    worst_taylor = 0.0
    for i in range(10):
        nv = int(rng.integers(2, 4))
        f = random_pencil(rng, nv, int(rng.integers(1, 3)), int(rng.integers(0, 4)), real=True)
        iu = AntiUnitaryInvolution.conjugation(f.dim_u)
        ih = AntiUnitaryInvolution.conjugation(f.dim_h)
        chain_ok &= check_real_pencil(f, iu, ih)
        pts = halfplane_grid(nv, 10, seed=int(rng.integers(1 << 30)))
        chain_ok &= is_iota_real_function(lambda q: f(q), iu, pts)
        ws = disk_grid(nv, 16, seed=int(rng.integers(1 << 30)))  # conjugate-closed
        dk = DiskKernelEvaluator(f)
        syn = build_colligation(ws, dk.theta_table(ws), DiskFunctionView(f).eval_double_cayley(ws))
        ix = AntiUnitaryInvolution.conjugation(syn.colligation.dim_state)
        chain_ok &= check_real_colligation(syn.colligation, ix, iu)
        worst_taylor = max(worst_taylor, taylor_realness_residual(f))

    e2 = np.array([[1.0, 1j], [-1j, 1.0]])
    counter = realize([np.eye(2), e2], 2)
    iota2 = AntiUnitaryInvolution.conjugation(2)
    cpts = halfplane_grid(2, 10, seed=7)
    counter_fails = not is_iota_real_function(lambda q: counter(q), iota2, cpts)

    ok = chain_ok and counter_fails and worst_taylor <= 1e-6
    report(10, ok, f"real chain on 10 real pencils: {chain_ok}; complex counterexample "
                   f"detected: {counter_fails}; taylor realness {worst_taylor:.1e} (tol 1e-6)")


def test_11_negative_controls(parallel):
    from posreal.colligation import AglerColligation

    # indefinite coefficient: PSD certification must flag it hard
    coeffs = [a.copy() for a in parallel.pencil.coeffs]
    coeffs[0][0, 1] += 2.0
    coeffs[0][1, 0] += 2.0
    lo = float(np.linalg.eigvalsh(hermitian_part(coeffs[0]))[0])
    psd_detect = -lo >= 10 * 1e-10 * (1 + np.linalg.norm(coeffs[0], 2))

    # perturbed kernel: identity residual must exceed 10x its tolerance
    grid = halfplane_grid(2, 5, seed=3)
    ev = KernelEvaluator(parallel)
    worst_ker = 0.0
    for z in grid:
        fz = eval_schur(parallel, z)
        for zeta in grid:
            phis = [ev.phi(k, z, zeta) for k in range(2)]
            phis[0] = phis[0] + 0.1
            lhs = phis[0] * z[0] + phis[1] * z[1]
            worst_ker = max(worst_ker, float(np.linalg.norm(lhs - fz) / (1 + np.linalg.norm(fz))))
    kernel_detect = worst_ker >= 10 * 1e-9

    # non-unitary colligation operator
    u = np.array([[0.0, 1.0], [1.0, 0.0]])
    u[0, 1] += 1e-2
    broken = AglerColligation((1,), 1, u, selfadjoint=True)
    unit_detect = broken.unitarity_residual() >= 10 * 1e-9
    rp, rm = agler_identity_residual(broken, disk_grid(1, 8, seed=4))
    identity_detect = max(rp, rm) >= 1e-3

    ok = psd_detect and kernel_detect and unit_detect and identity_detect
    report(11, ok, f"indefinite coefficient min-eig {lo:.2f} flagged: {psd_detect}; "
                   f"perturbed kernel residual {worst_ker:.2e} flagged: {kernel_detect}; "
                   f"non-unitary U residual flagged: {unit_detect}; identity residual "
                   f"{max(rp, rm):.1e} >= 1e-3: {identity_detect}")
