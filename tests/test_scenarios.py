"""End-to-end scenario pipelines and their family-specific identities."""

import numpy as np
import pytest

from sprayform import expr as ex
from sprayform import scenarios
from sprayform.algebroid import cotangent_algebroid, default_spray
from sprayform.errors import CompatibilityError, DomainExitError
from sprayform.expr import BivectorField, FormField, parse
from sprayform.groupoid import SprayGroupoid, discover_validity_box
from sprayform.imform import linear_form, poisson_im_pair
from sprayform.scenarios import (
    NijenhuisPair,
    Numerics,
    build_dirac,
    build_gcs,
    build_jacobi,
    build_nijenhuis,
    build_symplectic_groupoid,
    convergence_study,
    holomorphic_check,
    nijenhuis_torsion,
    omega_L,
    omega_L2,
    omega_Lk_two_ways,
    pi_pushforwards_residual,
    run_checks,
    sigma_pullback,
    tau_pullback,
    torsion_identity_check,
)

from conftest import (XS2, XS3, checked, constant_bivector_r2, so3_bivector,
                      twisted_dirac_sections)
from expr_oracle import tree_eval

BOX2 = [[-1.0, 1.0]] * 2
BOX3 = [[-1.0, 1.0]] * 3

LIGHT = Numerics(n_quad=32, mu_steps=16, samples=25, seed=6, mult_pairs=6,
                 assoc_triples=4)


# ---------------------------------------------------------------------------
# poisson


def test_flat_scenario_everything_tiny():
    nm = Numerics(n_quad=16, mu_steps=8, samples=30, seed=2, mult_pairs=6,
                  assoc_triples=4)
    scen = checked(build_symplectic_groupoid(BivectorField(2, {}, XS2), BOX2,
                                             numerics=nm))
    assert scen.report.all_passed
    for name in ("realization_source", "multiplicativity", "associativity"):
        assert scen.report[name].residual < 1e-9


def test_linear_pi_r2_realization():
    pi = BivectorField(2, {(0, 1): parse("x1", XS2)}, XS2)
    scen = checked(build_symplectic_groupoid(pi, BOX2, numerics=LIGHT))
    assert scen.report.all_passed
    assert scen.report["realization_source"].residual < 1e-6


def test_so3_report_passes(so3_scenario):
    rep = so3_scenario.report
    assert rep.all_passed
    assert rep["realization_source"].residual < 1e-6
    assert rep["realization_target"].residual < 1e-6
    assert rep["multiplicativity"].residual < 1e-6
    assert rep["associativity"].residual < 1e-6
    assert rep["units_formula"].residual < 1e-8


def test_poisson_gate_rejects_non_poisson():
    bad = BivectorField(3, {(0, 1): ex.const(-1.0), (1, 2): parse("x2", XS3)},
                        XS3)
    with pytest.raises(CompatibilityError):
        build_symplectic_groupoid(bad, BOX3, numerics=LIGHT)


# ---------------------------------------------------------------------------
# nijenhuis


@pytest.fixture(scope="module")
def conformal_pair_scenario():
    pi = constant_bivector_r2()
    g = parse("1 + x1/2", XS2)
    lmat = [[g, ex.ZERO], [ex.ZERO, g]]
    return checked(build_nijenhuis(pi, lmat, BOX2, numerics=LIGHT))


def test_identity_pair_gives_same_form(so3_scenario):
    pair = NijenhuisPair(so3_scenario.pi,
                         [[ex.ONE if i == j else ex.ZERO for j in range(3)]
                          for i in range(3)])
    evL = omega_L(pair, so3_scenario, k=1)
    pts = so3_scenario.groupoid.sample_validity_points(8, seed=3)
    assert np.max(np.abs(evL.omega_matrices(pts) -
                         so3_scenario.evaluator.omega_matrices(pts))) < 1e-13


def test_scalar_pair_scales_form(so3_scenario):
    c = 0.7
    pair = NijenhuisPair(so3_scenario.pi,
                         [[ex.const(c) if i == j else ex.ZERO
                           for j in range(3)] for i in range(3)])
    evL = omega_L(pair, so3_scenario, k=1)
    pts = so3_scenario.groupoid.sample_validity_points(8, seed=4)
    assert np.max(np.abs(evL.omega_matrices(pts) -
                         c * so3_scenario.evaluator.omega_matrices(pts))) < 1e-13


def test_conformal_pair_full_report(conformal_pair_scenario):
    assert conformal_pair_scenario.report.all_passed


def test_omega_L_closed_form_constant_rotation():
    """Route the (-l, 0) form through the exact affine flow by hand."""
    pi = constant_bivector_r2()
    s = 0.5
    lmat = [[ex.ZERO, ex.const(-s)], [ex.const(s), ex.ZERO]]
    nmat = np.array([[0.0, -s], [s, 0.0]])
    scen = build_symplectic_groupoid(pi, BOX2, numerics=LIGHT)
    pair = NijenhuisPair(pi, lmat)
    evL = omega_L(pair, scen, k=1)
    # oracle: ell(x,p) = (x, N p); J_t = [[I, tS],[0,I]], S = [[0,-1],[1,0]];
    # d ell o J_t = [[I, tS],[0, N]]; integrand (d ell J)^T W0 (d ell J) is
    # quadratic in t, so Simpson with 2 panels on the exact matrices is exact.
    S = np.array([[0.0, -1.0], [1.0, 0.0]])
    W0 = np.zeros((4, 4))
    W0[:2, 2:] = np.eye(2)
    W0[2:, :2] = -np.eye(2)
    acc = np.zeros((4, 4))
    for t, wgt in ((0.0, 1 / 6), (0.5, 4 / 6), (1.0, 1 / 6)):
        M = np.zeros((4, 4))
        M[:2, :2] = np.eye(2)
        M[:2, 2:] = t * S
        M[2:, 2:] = nmat
        acc += wgt * (M.T @ W0 @ M)
    pts = scen.groupoid.sample_validity_points(6, seed=5)
    assert np.max(np.abs(evL.omega_matrices(pts) - acc)) < 1e-12


def test_nijenhuis_torsion_constant_is_zero():
    lmat = [[ex.const(2.0), ex.ONE], [ex.ZERO, ex.const(-1.0)]]
    T = nijenhuis_torsion(lmat, XS2)
    env = {"x1": 0.7, "x2": -0.3}
    assert all(abs(tree_eval(T[i][a][b], env)) == 0.0
               for i in range(2) for a in range(2) for b in range(2))


def test_nijenhuis_torsion_diagonal_hand_value():
    """l = diag(x1, x2) acting on vectors: T(e1, e2) = [x1 e1, x2 e2]
    - l([x1 e1, e2] + [e1, x2 e2]) = 0 - l(0 + 0)... expand by hand instead:
    [l e1, l e2] = [x1 d1, x2 d2] = x1 d1(x2) d2 - x2 d2(x1) d1 = 0;
    [l e1, e2] = [x1 d1, d2] = 0; [e1, l e2] = [d1, x2 d2] = 0; so T = 0 --
    the nonzero case needs off-diagonal dependence: use l = [[x2, 0],[0, x1]]:
    [x2 d1, x1 d2] = x2 d1(x1) d2 - x1 d2(x2) d1 = x2 d2 - x1 d1;
    [x2 d1, d2] = -d2(x2) d1 = -d1; [d1, x1 d2] = d1(x1) d2 = d2;
    l([l e1, e2] + [e1, l e2]) = l(d2 - d1) = x1 d2 - x2 d1.
    T(e1,e2) = (x2 d2 - x1 d1) - (x1 d2 - x2 d1) = (x2-x1)(d1 + d2)... sign:
    = -x1 d1 + x2 d2 - x1 d2 + x2 d1 = (x2 - x1)(d1 + d2)."""
    lv_on_vectors = [[parse("x2", XS2), ex.ZERO], [ex.ZERO, parse("x1", XS2)]]
    # nijenhuis_torsion takes the covector matrix; its transpose acts on
    # vectors, and this lmat is diagonal, so both agree.
    T = nijenhuis_torsion(lv_on_vectors, XS2)
    env = {"x1": 1.0, "x2": 2.0}
    want = (2.0 - 1.0)
    assert tree_eval(T[0][0][1], env) == pytest.approx(want)
    assert tree_eval(T[1][0][1], env) == pytest.approx(want)


def test_conformal_factor_is_not_an_im_pair_in_3d(so3_scenario):
    """A conformal multiple of the identity satisfies the covariance
    equation only in dimension two; on so(3)* the residual check must
    flag it (the analogous 2d pair passes, see the conformal fixture)."""
    from sprayform.imform import im_pair_from_covector_map, im_residuals
    g = parse("1 + x1/4", XS3)
    lmat = [[g if i == j else ex.ZERO for j in range(3)] for i in range(3)]
    data = im_pair_from_covector_map(so3_scenario.chart, lmat)
    rep = im_residuals(so3_scenario.chart, data, samples=20, seed=12)
    assert not rep.all_passed


def test_pushforwards_and_two_ways(conformal_pair_scenario):
    scen = conformal_pair_scenario
    pair = scen.pair
    assert pi_pushforwards_residual(scen, pair, omega_L(pair, scen),
                                    samples=10, seed=3) < 1e-6
    assert omega_Lk_two_ways(scen, pair, 1, samples=6, seed=4) < 1e-7
    assert omega_Lk_two_ways(scen, pair, 2, samples=6, seed=5) < 1e-7


def test_invertible_pair_transported_spray_cross_check():
    """For invertible constant l, the transported spray's groupoid satisfies
    l^* omega' = omega_L: a full-pipeline validation with zero new machinery."""
    pi = constant_bivector_r2()
    s = 0.5
    lmat = [[ex.ZERO, ex.const(-s)], [ex.const(s), ex.ZERO]]
    N = np.array([[0.0, -s], [s, 0.0]])
    scen = build_symplectic_groupoid(pi, BOX2, numerics=LIGHT)
    pair = NijenhuisPair(pi, lmat)
    evL = omega_L(pair, scen, k=1)

    # pi_{l^{-1}} has matrix (N^{-T}) P
    P = np.array([[0.0, 1.0], [-1.0, 0.0]])
    P2 = np.linalg.inv(N).T @ P
    pi2 = BivectorField(2, {(0, 1): ex.const(P2[0, 1])}, XS2)
    scen2 = build_symplectic_groupoid(pi2, BOX2, numerics=LIGHT)
    pts = scen.groupoid.sample_validity_points(8, seed=6, fiber_scale=0.5)
    # ell(x, p) = (x, N p); pullback through d ell = diag(I, N)
    mapped = pts.copy()
    mapped[:, 2:] = pts[:, 2:] @ N.T
    W2 = scen2.evaluator.omega_matrices(mapped)
    D = np.zeros((4, 4))
    D[:2, :2] = np.eye(2)
    D[2:, 2:] = N
    pulled = D.T @ W2 @ D
    WL = evL.omega_matrices(pts)
    assert np.max(np.abs(pulled - WL)) < 1e-6


# ---------------------------------------------------------------------------
# holomorphic / gcs


def test_holomorphic_identity_on_r2():
    pi = constant_bivector_r2()
    J0 = [[ex.ZERO, ex.const(-1.0)], [ex.ONE, ex.ZERO]]
    scen = build_symplectic_groupoid(pi, BOX2, numerics=LIGHT)
    pair = NijenhuisPair(pi, J0)
    assert holomorphic_check(scen, pair, LIGHT) < 1e-6
    rep = torsion_identity_check(scen, pair, omega_L(pair, scen),
                                 omega_L2(pair, scen), samples=6, seed=7,
                                 tol=1e-6)
    assert rep.all_passed


def test_torsion_identity_L_solve_is_one_complex_step(monkeypatch):
    """The L field is differentiated along Lu, Lv, u and v by one call of
    L_tensor on 4 x samples complex rows, with no centre rows."""
    pi = constant_bivector_r2()
    J0 = [[ex.ZERO, ex.const(-1.0)], [ex.ONE, ex.ZERO]]
    scen = build_symplectic_groupoid(pi, BOX2, numerics=LIGHT)
    pair = NijenhuisPair(pi, J0)
    calls, original = [], scenarios.L_tensor

    def counted(scenario, evL, Q):
        calls.append((Q.shape, Q.dtype))
        return original(scenario, evL, Q)

    monkeypatch.setattr(scenarios, "L_tensor", counted)
    rep = torsion_identity_check(scen, pair, omega_L(pair, scen),
                                 omega_L2(pair, scen), samples=6, seed=7)
    assert rep.all_passed
    assert calls == [((4 * 6, 4), np.complex128)]


def test_nijenhuis_gate_rejects_non_symmetric_pair():
    pi = constant_bivector_r2()
    J0 = [[ex.ZERO, ex.const(-1.0)], [ex.ONE, ex.ZERO]]
    with pytest.raises(CompatibilityError):
        build_nijenhuis(pi, J0, BOX2, numerics=LIGHT)


def test_gcs_identity_constant_triple():
    s = 0.5
    pi = constant_bivector_r2()
    lmat = [[ex.ZERO, ex.const(-s)], [ex.const(s), ex.ZERO]]
    varpi = FormField(XS2, 2, {(0, 1): ex.const(1 - s * s)})
    rep = run_checks(build_gcs(pi, lmat, varpi, BOX2, numerics=LIGHT))
    assert rep["gcs_algebraic_relation"].passed
    assert rep["gcs_torsion_relation"].passed
    assert rep["gcs_identity"].residual < 1e-6


def test_gcs_specialization_l_zero_symplectic():
    pi = constant_bivector_r2()
    lmat = [[ex.ZERO, ex.ZERO], [ex.ZERO, ex.ZERO]]
    varpi = FormField(XS2, 2, {(0, 1): ex.ONE})
    rep = run_checks(build_gcs(pi, lmat, varpi, BOX2, numerics=LIGHT))
    assert rep.all_passed


def test_gcs_specialization_varpi_zero_is_holomorphic():
    """l^2 = -Id with varpi = 0 reduces the identity to omega_L2 = -omega."""
    pi = constant_bivector_r2()
    J0 = [[ex.ZERO, ex.const(-1.0)], [ex.ONE, ex.ZERO]]
    varpi = FormField(XS2, 2, {})
    rep = run_checks(build_gcs(pi, J0, varpi, BOX2, numerics=LIGHT))
    assert rep["gcs_algebraic_relation"].passed
    assert rep["gcs_torsion_relation"].passed
    assert rep["gcs_identity"].residual < 1e-6


def test_gcs_negative_control_skips_main_check():
    pi = constant_bivector_r2()
    lmat = [[ex.ZERO, ex.const(-0.5)], [ex.const(0.5), ex.ZERO]]
    varpi = FormField(XS2, 2, {(0, 1): ex.const(3.0)})   # wrong varpi
    scen = build_gcs(pi, lmat, varpi, BOX2, numerics=LIGHT)
    rep = run_checks(scen)
    assert not rep["gcs_algebraic_relation"].passed
    assert scen.groupoid is None
    with pytest.raises(KeyError):
        rep["gcs_identity"]


# ---------------------------------------------------------------------------
# dirac


def test_dirac_graph_of_constant_form_exactness():
    """L = graph of a constant closed 2-form: omega = sigma* - tau* varpi."""
    c = 0.6
    W = np.array([[0.0, c], [-c, 0.0]])
    sections = []
    for i in range(2):
        v = [ex.ONE if a == i else ex.ZERO for a in range(2)]
        alpha = [ex.const(W[i, a]) for a in range(2)]
        sections.append((v, alpha))
    from sprayform.scenarios import build_dirac
    nm = Numerics(n_quad=32, samples=20, seed=21)
    ds = checked(build_dirac(sections, FormField(XS2, 3, {}), BOX2,
                             numerics=nm))
    assert ds.report.all_passed
    G = ds.groupoid
    varpi = FormField(XS2, 2, {(0, 1): ex.const(c)})
    pts = G.sample_validity_points(10, seed=22, fiber_scale=0.6)
    om = ds.evaluator.omega_matrices(pts)
    want = sigma_pullback(G, varpi, pts) - tau_pullback(G, varpi, pts)
    assert np.max(np.abs(om - want)) < 1e-7


def test_dirac_graph_of_so3_matches_poisson_pipeline(so3_scenario):
    """Cross-pipeline comparison through the frame-transport map a -> (pi#a, a)."""
    pi = so3_bivector()
    sections = []
    for i in range(3):
        v = [pi.entry(i, a) for a in range(3)]
        alpha = [ex.ONE if a == i else ex.ZERO for a in range(3)]
        sections.append((v, alpha))
    from sprayform.scenarios import build_dirac
    nm = Numerics(n_quad=64, samples=30, seed=23)
    ds = checked(build_dirac(sections, FormField(XS3, 3, {}), BOX3,
                             numerics=nm))
    assert ds.report.all_passed
    assert ds.report["relative_H_closedness"].residual < 1e-7


def test_dirac_twisted_full_report(dirac_twisted_scenario):
    rep = dirac_twisted_scenario.report
    assert rep.all_passed
    assert rep["relative_H_closedness"].residual < 1e-6
    assert rep["forward_dirac_angles"].residual < 1e-5
    # robustness margin is strictly positive on the reported box
    note = rep["robustness_margin"].note
    assert float(note.split(":")[-1]) > 1e-3


# ---------------------------------------------------------------------------
# jacobi


def test_dirac_twisted_makes_no_lstsq_call(monkeypatch):
    """The fitted Dirac structure solves batched normal equations: a
    dirac_twisted build and check make no least-squares call."""
    calls = []
    monkeypatch.setattr(np.linalg, "lstsq",
                        lambda *args, **kwargs: calls.append(args))
    H = FormField(XS3, 3, {(0, 1, 2): ex.const(-1.0)})
    scen = checked(build_dirac(twisted_dirac_sections(), H, BOX3,
                               numerics=LIGHT))
    assert scen.report.all_passed
    assert not calls


def test_jacobi_line_full_report(jacobi_line_scenario):
    rep = jacobi_line_scenario.report
    assert rep.all_passed
    assert rep["closed_form"].residual < 1e-8
    assert rep["cocycle_weight_consistency"].residual < 1e-10


def test_jacobi_contact_r3():
    pi = BivectorField(3, {(0, 1): ex.const(-1.0), (1, 2): parse("x2", XS3)},
                       XS3)
    nm = Numerics(n_quad=32, samples=15, seed=25)
    js = checked(build_jacobi(pi, [ex.ZERO, ex.ZERO, ex.ONE],
                              [[-0.6, 0.6]] * 3, numerics=nm))
    assert js.report.all_passed


def test_jacobi_r_zero_reduces_to_poisson_channel(so3_scenario):
    """With R = 0: weight is 1, the u-component of omega is constantly 1,
    and d omega embeds the Poisson quadrature form on the T*M block."""
    pi = so3_bivector()
    nm = Numerics(n_quad=64, samples=15, seed=26)
    js = checked(build_jacobi(pi, [ex.ZERO] * 3, BOX3, numerics=nm))
    assert js.report.all_passed
    G = js.groupoid
    pts = G.sample_validity_points(6, seed=27, fiber_scale=0.4)
    om = js.evaluator.omega_full(pts)
    assert np.max(np.abs(om[:, 3] - 1.0)) < 1e-12      # du channel
    # weights are identically one
    from sprayform.algebroid import transport_weight
    w = transport_weight(G, pts)
    assert np.max(np.abs(w - 1.0)) < 1e-14
    # d omega on the (x, p) block matches the Poisson form at the matching
    # cotangent point (strip the u coordinate; u is inert for this spray)
    dom = js.evaluator.domega_full(pts)
    keep = [0, 1, 2, 4, 5, 6]
    block = dom[:, keep][:, :, keep]
    pp = pts[:, keep]
    W = so3_scenario.evaluator.omega_matrices(pp)
    assert np.max(np.abs(block - W)) < 1e-5


# ---------------------------------------------------------------------------
# convergence


def test_convergence_orders_all_axes(so3_scenario):
    A = so3_scenario.chart
    V = so3_scenario.groupoid.spray
    lf = so3_scenario.evaluator.form
    pts = so3_scenario.groupoid.sample_validity_points(8, seed=28)
    _, order_combined = convergence_study(A, V, lf, pts)
    assert order_combined >= 3.5
    rows, order_quad = convergence_study(
        A, V, lf, pts, levels=[(16, 8), (32, 4), (64, 2), (128, 1)])
    assert order_quad >= 3.5
    # doubling the node count divides the omega error by 16 +- 25%
    for a, b in zip(rows[:-2], rows[1:-1]):
        assert 12.0 <= a["error"] / b["error"] <= 20.0
    _, order_ode = convergence_study(
        A, V, lf, pts, levels=[(128, 1), (128, 2), (128, 4), (128, 8)])
    assert order_ode >= 3.5


def test_convergence_jacobi_line_against_closed_form(jacobi_line_scenario):
    """The weighted (transport) quadrature is also fourth order."""
    js = jacobi_line_scenario
    from sprayform.algebroid import jacobi_cocycle
    from sprayform.imform import jacobi_linear_form
    G = js.groupoid
    pts = G.sample_validity_points(6, seed=31)
    p = pts[:, 2]
    ref = np.zeros((len(pts), 3))
    ref[:, 1] = (2 - 2 * np.exp(-p) - p * np.exp(-p)) / p
    ref[:, 0] = -(1 - np.exp(-p))
    rows, order = convergence_study(js.chart, G.spray,
                                    jacobi_linear_form(js.chart), pts,
                                    weight_cocycle=jacobi_cocycle(js.chart),
                                    reference=ref)
    assert order >= 3.5
    assert rows[-1]["error"] < 1e-11


def test_convergence_flat_case_roundoff():
    A = cotangent_algebroid(BivectorField(2, {}, XS2), BOX2)
    V = default_spray(A)
    G = SprayGroupoid(A, V, n_quad=16)
    discover_validity_box(G)
    pts = G.sample_validity_points(4, seed=29)
    lf = linear_form(poisson_im_pair(A))
    rows, order = convergence_study(A, V, lf, pts,
                                    levels=[(16, 1), (32, 1), (64, 1)])
    assert all(r["error"] < 1e-14 for r in rows)
    assert order == float("inf")


def test_convergence_error_names_the_rung():
    """A flow that leaves the box on a rung names that rung."""
    A = cotangent_algebroid(BivectorField(2, {}, XS2), BOX2)
    lf = linear_form(poisson_im_pair(A))
    with pytest.raises(DomainExitError) as got:
        convergence_study(A, default_spray(A), lf, np.array([[5.0, 0, 0, 0]]),
                          levels=[(8, 2), (16, 1), (32, 1)])
    assert str(got.value).startswith(
        "convergence rung 8x2: trajectory left the domain box at t=0")
