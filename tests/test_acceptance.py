"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.  Every
tolerance is pinned here; nothing is deferred to later calibration.
"""

import time

import numpy as np

from sprayform import expr as ex
from sprayform.algebroid import (
    cotangent_algebroid,
    default_spray,
    jacobi_cocycle,
    transport_weight,
)
from sprayform.expr import BivectorField, FormField, parse
from sprayform.groupoid import (
    MultFormEvaluator,
    SprayGroupoid,
    differentiate_at_units,
    discover_validity_box,
    integrate_cocycle,
    linearization_check,
    multiply_poisson,
)
from sprayform.imform import linear_form, poisson_im_pair
from sprayform.scenarios import (
    NijenhuisPair,
    Numerics,
    build_gcs,
    build_symplectic_groupoid,
    convergence_study,
    holomorphic_check,
    omega_L,
    omega_L2,
    omega_L2_pair,
    run_checks,
    sigma_pullback,
    torsion_identity_check,
)
from sprayform import tensor as tn

from conftest import XS2, XS3, constant_bivector_r2
from exact_pairs import exact_im_pair, tau_pullback
from rng_oracle import ScalarSplitMix64

_T0 = time.perf_counter()


def _report(cid, ok, detail):
    print(f"ACCEPTANCE {cid} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {cid}: {detail}"


def test_criterion_1_zero_poisson_identity():
    t0 = time.perf_counter()
    pi0 = BivectorField(2, {}, XS2)
    A = cotangent_algebroid(pi0, [[-1, 1]] * 2)
    G = SprayGroupoid(A, default_spray(A), n_quad=16)
    discover_validity_box(G)
    ev = MultFormEvaluator(G, linear_form(poisson_im_pair(A)))
    pts = G.sample_validity_points(50, seed=101)
    W = ev.omega_full(pts)
    W0 = np.zeros((4, 4))
    W0[0, 2] = W0[1, 3] = 1.0
    W0 -= W0.T
    omega_err = float(np.max(np.abs(W - W0)))

    rng = ScalarSplitMix64(102)
    b = G.sample_validity_points(20, seed=103, fiber_scale=0.5)
    a = b.copy()
    for i in range(20):
        a[i, 2:] = 0.4 * rng.direction(2)
    a[:, :2] = G.tau(b)
    mu = multiply_poisson(G, ev, a, b, max_sweeps=8)
    want = b.copy()
    want[:, 2:] += a[:, 2:]
    mu_err = float(np.max(np.abs(mu - want)))
    elapsed = time.perf_counter() - t0
    ok = omega_err < 1e-12 and mu_err < 1e-10 and elapsed < 1.0
    _report(1, ok, f"|omega - omega0| = {omega_err:.2e} (tol 1e-12), "
                   f"|mu - (a+b)| = {mu_err:.2e} (tol 1e-10), "
                   f"runtime {elapsed:.2f}s (< 1s)")


def test_criterion_2_constant_pi_closed_form():
    # oracle (derived by hand before the build): pulling the canonical
    # 2-form through the affine flow (x, p) -> (x + t pi# p, p) and
    # integrating in t gives  omega = omega_0 + sum_{i<j} pi^{ij} dp_i^dp_j
    A = cotangent_algebroid(constant_bivector_r2(), [[-1, 1]] * 2)
    G = SprayGroupoid(A, default_spray(A), n_quad=64)
    discover_validity_box(G)
    ev = MultFormEvaluator(G, linear_form(poisson_im_pair(A)))
    pts = G.sample_validity_points(100, seed=201)
    W = ev.omega_full(pts)
    Wexp = np.zeros((4, 4))
    Wexp[0, 2] = Wexp[1, 3] = 1.0
    Wexp[2, 3] = 1.0
    Wexp -= Wexp.T
    err = float(np.max(np.abs(W - Wexp)))
    ok = err < 1e-8
    _report(2, ok, f"closed-form residual {err:.2e} at 100 points, "
                   f"N=64 (tol 1e-8)")


def test_criterion_3_so3_pipeline(so3_scenario):
    rep = so3_scenario.report
    rs = rep["realization_source"].residual
    rt = rep["realization_target"].residual
    mult = rep["multiplicativity"].residual
    assoc = rep["associativity"].residual
    units = rep["units_formula"].residual
    elapsed = so3_scenario.build_seconds
    ok = (rs < 1e-6 and rt < 1e-6 and mult < 1e-6 and assoc < 1e-6
          and units < 1e-8 and elapsed < 30.0)
    _report(3, ok,
            f"realization {rs:.2e}/{rt:.2e} (tol 1e-6, 100 pts), "
            f"multiplicativity {mult:.2e} (tol 1e-6, 100 pairs), "
            f"associativity {assoc:.2e} (tol 1e-6, 50 triples), "
            f"units {units:.2e} (tol 1e-8), runtime {elapsed:.1f}s (< 30s)")


def test_criterion_4_round_trips(so3_scenario, dirac_twisted_scenario,
                                 jacobi_line_scenario):
    resids = {}
    resids["poisson_l"] = so3_scenario.report["units_recover_l"].residual
    resids["poisson_nu"] = so3_scenario.report["units_recover_nu"].residual
    resids["dirac_l"] = dirac_twisted_scenario.report["units_recover_l"].residual
    resids["dirac_nu"] = dirac_twisted_scenario.report["units_recover_nu"].residual

    A = so3_scenario.chart
    G = so3_scenario.groupoid
    varpi = FormField(XS3, 2, {(0, 1): parse("x1", XS3)})
    pair = exact_im_pair(A, varpi)
    evE = MultFormEvaluator(G, linear_form(pair))
    rr = differentiate_at_units(G, evE, pair,
                                A.sample_base_points(10, 401, scale=0.5),
                                tol=1e-7)
    resids["exact_l"] = rr["units_recover_l"].residual
    resids["exact_nu"] = rr["units_recover_nu"].residual

    point = G.sample_validity_points(1, 402, fiber_scale=0.8)[0]
    slope_so3, _ = linearization_check(G, so3_scenario.evaluator, point)
    GJ = jacobi_line_scenario.groupoid
    pj = GJ.sample_validity_points(1, 403, fiber_scale=0.8)[0]
    slope_jac, _ = linearization_check(GJ, jacobi_line_scenario.evaluator, pj)

    worst = max(resids.values())
    ok = worst < 1e-7 and 0.8 <= slope_so3 <= 1.2 and 0.8 <= slope_jac <= 1.2
    _report(4, ok,
            f"recovery residuals max {worst:.2e} over "
            f"{sorted(resids)} (tol 1e-7); slopes so3 {slope_so3:.3f}, "
            f"jacobi {slope_jac:.3f} (window [0.8, 1.2])")


def test_criterion_5_chain_map_closedness(so3_scenario,
                                          dirac_twisted_scenario):
    # closed IM inputs: the canonical Poisson pair on so(3)* and on R^2,
    # and a conformal closed pair on R^2
    ds = []
    pts3 = so3_scenario.groupoid.sample_validity_points(20, 501,
                                                        fiber_scale=0.6)
    ds.append(float(np.max(np.abs(
        so3_scenario.evaluator.domega_full(pts3)))))

    pi = constant_bivector_r2()
    nm = Numerics(n_quad=64, samples=20, seed=502, mult_pairs=0)
    scen2 = build_symplectic_groupoid(pi, [[-1, 1]] * 2, numerics=nm)
    g = parse("1 + x1/2", XS2)
    evL = omega_L(NijenhuisPair(pi, [[g, ex.ZERO], [ex.ZERO, g]]), scen2)
    pts2 = scen2.groupoid.sample_validity_points(20, 503, fiber_scale=0.6)
    ds.append(float(np.max(np.abs(evL.domega_full(pts2)))))
    closed_worst = max(ds)

    G = dirac_twisted_scenario.groupoid
    ptsd = G.sample_validity_points(100, 504, fiber_scale=0.7)
    dW = dirac_twisted_scenario.evaluator.domega_full(ptsd)
    H = dirac_twisted_scenario.H
    rhs = tau_pullback(G, H, ptsd) - sigma_pullback(G, H, ptsd)
    dirac_res = float(np.max(np.abs(dW - rhs)))
    ok = closed_worst < 1e-7 and dirac_res < 1e-6
    _report(5, ok, f"closed-input |d omega| max {closed_worst:.2e} "
                   f"(tol 1e-7); twisted |d omega - (tau*H - sigma*H)| = "
                   f"{dirac_res:.2e} at 100 points (tol 1e-6)")


def test_criterion_6_nijenhuis_holomorphic():
    pi = constant_bivector_r2()
    J0 = [[ex.ZERO, ex.const(-1.0)], [ex.ONE, ex.ZERO]]
    nm = Numerics(n_quad=64, samples=50, seed=601, mult_pairs=0)
    scen = build_symplectic_groupoid(pi, [[-1, 1]] * 2, numerics=nm)
    pair = NijenhuisPair(pi, J0)
    holo = holomorphic_check(scen, pair, nm)
    evL2 = omega_L2(pair, scen)
    tors_rep = torsion_identity_check(scen, pair, omega_L(pair, scen), evL2,
                                      samples=10, seed=602, tol=1e-6)
    marius = tors_rep["torsion_identity"].residual
    pair2 = omega_L2_pair(pair, scen.chart)
    rr = differentiate_at_units(scen.groupoid, evL2, pair2,
                                scen.chart.sample_base_points(10, 603,
                                                              scale=0.5),
                                tol=1e-6)
    rec = max(rr["units_recover_l"].residual, rr["units_recover_nu"].residual)
    ok = holo < 1e-6 and marius < 1e-6 and rec < 1e-6
    _report(6, ok, f"|omega_J2 + omega| = {holo:.2e}, torsion identity "
                   f"{marius:.2e}, (-l^2,-T_l) recovery {rec:.2e} "
                   f"(all tol 1e-6)")


def test_criterion_7_generalized_complex_identity():
    s = 0.5
    pi = constant_bivector_r2()
    lmat = [[ex.ZERO, ex.const(-s)], [ex.const(s), ex.ZERO]]
    varpi = FormField(XS2, 2, {(0, 1): ex.const(1 - s * s)})
    nm = Numerics(n_quad=64, samples=100, seed=701, mult_pairs=0)
    rep = run_checks(build_gcs(pi, lmat, varpi, [[-1, 1]] * 2, numerics=nm))
    res = rep["gcs_identity"].residual
    ok = (rep["gcs_algebraic_relation"].passed
          and rep["gcs_torsion_relation"].passed and res < 1e-6)
    _report(7, ok, f"|omega + omega_L2 - (tau* - sigma*) varpi| = "
                   f"{res:.2e} at 100 points (tol 1e-6)")


def test_criterion_8_dirac_robustness_forward(dirac_twisted_scenario):
    rep = dirac_twisted_scenario.report
    margin = float(rep["robustness_margin"].note.split(":")[-1])
    angles = rep["forward_dirac_angles"].residual
    ok = margin > 1e-3 and angles < 1e-5
    _report(8, ok, f"robustness margin {margin:.3e} (> 1e-3) and forward "
                   f"image angles {angles:.2e} (tol 1e-5) at 100 points")


def test_criterion_9_jacobi_line(jacobi_line_scenario):
    rep = jacobi_line_scenario.report
    closed = rep["closed_form"].residual

    ev = jacobi_line_scenario.evaluator
    G = jacobi_line_scenario.groupoid
    origin = np.zeros(3)
    om = ev.omega_full(origin[None, :])[0]
    dom = ev.domega_full(origin[None, :])[0]
    top = tn.wedge_batch(om[None], tn.full_to_comps_batch(dom[None], 3, 2),
                         3, 1, 2)
    margin = float(np.max(np.abs(top)))

    pts = G.sample_validity_points(30, 901)
    f = integrate_cocycle(G, jacobi_cocycle(jacobi_line_scenario.chart), pts)
    w = transport_weight(G, pts)
    consistency = float(np.max(np.abs(np.exp(-f) - w[:, -1])))
    ok = closed < 1e-8 and margin >= 0.1 and consistency < 1e-10
    _report(9, ok, f"closed form {closed:.2e} (tol 1e-8), contact margin "
                   f"|omega ^ d omega| = {margin:.3f} at the origin "
                   f"(>= 0.1), cocycle/weight {consistency:.2e} (tol 1e-10)")


def test_criterion_10_convergence_orders(so3_scenario):
    ev = so3_scenario.evaluator
    pts = so3_scenario.groupoid.sample_validity_points(8, 1001)
    _, order_combined = convergence_study(
        ev, pts, [(16, 1), (32, 1), (64, 1), (128, 1)])
    _, order_quad = convergence_study(
        ev, pts, [(16, 8), (32, 4), (64, 2), (128, 1)])
    _, order_ode = convergence_study(
        ev, pts, [(128, 1), (128, 2), (128, 4), (128, 8)])
    suite_elapsed = time.perf_counter() - _T0
    ok = (order_combined >= 3.5 and order_quad >= 3.5 and order_ode >= 3.5)
    _report(10, ok,
            f"fitted orders: combined ladder {order_combined:.2f}, "
            f"quadrature axis {order_quad:.2f}, flow axis {order_ode:.2f} "
            f"(all >= 3.5); acceptance module elapsed {suite_elapsed:.0f}s")
