"""Algebroid charts, sprays, and the three family builders."""

import numpy as np
import pytest

from sprayform import expr as ex
from sprayform.algebroid import (
    AlgebroidChart,
    SymbolicStructure,
    check_algebroid,
    check_spray,
    cotangent_algebroid,
    default_spray,
    dirac_algebroid,
    jacobi_algebroid,
    transport_weight,
)
from sprayform.errors import (
    CompatibilityError,
    DimensionError,
    EvalDomainError,
    NotInvolutiveError,
    NotLagrangianError,
)
from sprayform.expr import BivectorField, FormField, parse
from sprayform.groupoid import SprayGroupoid

from conftest import XS2, XS3, constant_bivector_r2, so3_bivector

BOX3 = [[-1.0, 1.0]] * 3
BOX2 = [[-1.0, 1.0]] * 2


# ---------------------------------------------------------------------------
# check_algebroid


def test_abelian_algebroid_all_residuals_zero():
    pi0 = BivectorField(2, {}, XS2)
    A = cotangent_algebroid(pi0, BOX2)
    rep = check_algebroid(A, samples=20)
    assert rep.all_passed
    assert all(c.residual == 0.0 for c in rep.checks)


def test_overflowing_coefficient_raises_instead_of_passing():
    """pi^{12} = x3^120 overflows on most of the box: the check must raise,
    not report residual 0 for points whose values are inf or NaN."""
    pi = BivectorField(3, {(0, 1): parse("x3^120", XS3)}, XS3)
    A = cotangent_algebroid(pi, [[-1e3, 1e3]] * 3)
    with pytest.raises(EvalDomainError):
        check_algebroid(A)


def test_so3_cotangent_structure_functions_and_residuals():
    A = cotangent_algebroid(so3_bivector(), BOX3)
    # linear pi: c_ij^k = d pi^ij / d x_k are the so(3) constants
    c = A.structure.values(np.array([[0.3, -0.2, 0.9]]))[0]
    want = np.zeros((3, 3, 3))
    want[0, 1, 2] = 1.0
    want[1, 0, 2] = -1.0
    want[0, 2, 1] = -1.0
    want[2, 0, 1] = 1.0
    want[1, 2, 0] = 1.0
    want[2, 1, 0] = -1.0
    assert np.allclose(c, want)
    rep = check_algebroid(A, samples=100)
    assert rep.all_passed
    assert rep.worst().residual < 1e-10


def test_corrupted_structure_function_flagged():
    A = cotangent_algebroid(so3_bivector(), BOX3)
    table = [[[A.structure.entry(i, j, k) for k in range(3)]
              for j in range(3)] for i in range(3)]
    table[0][1][0] = ex.add(table[0][1][0], ex.ONE)   # c_12^1 += 1
    bad = AlgebroidChart(n=3, r=3, box=np.array(BOX3),
                         anchor=A.anchor,
                         structure=SymbolicStructure(3, 3, table))
    rep = check_algebroid(bad, samples=40)
    assert not rep.all_passed
    worst = max(c.residual for c in rep.checks)
    assert worst > 0.1


# ---------------------------------------------------------------------------
# sprays


def test_default_spray_of_zero_bivector_is_zero():
    A = cotangent_algebroid(BivectorField(2, {}, XS2), BOX2)
    V = default_spray(A)
    assert all(c.is_zero for c in V.components)


def test_default_spray_constant_pi():
    A = cotangent_algebroid(constant_bivector_r2(), BOX2)
    V = default_spray(A)
    env = {"x1": 0.0, "x2": 0.0, "y1": 0.3, "y2": -0.5}
    vals = [c.eval(env) for c in V.components]
    # (pi# p)^j = sum_i p_i pi^{ij}: (p2*pi^{21}, p1*pi^{12}) = (0.5, 0.3)
    assert vals == pytest.approx([0.5, 0.3, 0.0, 0.0])


def test_check_spray_accepts_default_and_flags_corruption():
    A = cotangent_algebroid(so3_bivector(), BOX3)
    V = default_spray(A)
    rep = check_spray(V, A, samples=12)
    assert rep.all_passed
    assert rep["anchor_condition"].residual < 1e-14
    assert rep["flow_scaling"].residual < 1e-8

    from sprayform.algebroid import Spray
    # a fiber term linear in y breaks the quadratic fiber scaling of sprays
    bad_fiber = [parse("y1", A.total_vars), ex.ZERO, ex.ZERO]
    bad = Spray(A, V.base_part, bad_fiber)
    rep2 = check_spray(bad, A, samples=12)
    assert rep2["flow_scaling"].residual > 1e-3

    # a quadratic fiber term is 2-homogeneous, hence still a genuine spray:
    # the scaling identity must keep holding
    quad_fiber = [parse("y1*y1", A.total_vars), ex.ZERO, ex.ZERO]
    still_spray = Spray(A, V.base_part, quad_fiber)
    rep3 = check_spray(still_spray, A, samples=12)
    assert rep3["flow_scaling"].residual < 1e-8


def test_christoffel_spray_keeps_homogeneity():
    A = cotangent_algebroid(so3_bivector(), BOX3)
    gamma = [[[ex.const(0.1) if (k + i + j) % 2 else ex.ZERO
               for j in range(3)] for i in range(3)] for k in range(3)]
    V = default_spray(A, christoffel=gamma)
    rep = check_spray(V, A, samples=8)
    assert rep.all_passed


# ---------------------------------------------------------------------------
# dirac builder


def test_dirac_graph_of_so3_matches_cotangent_in_transported_frame():
    pi = so3_bivector()
    sections = []
    for i in range(3):
        v = [pi.entry(i, a) for a in range(3)]
        alpha = [ex.ONE if a == i else ex.ZERO for a in range(3)]
        sections.append((v, alpha))
    AD = dirac_algebroid(sections, FormField(XS3, 3, {}), BOX3)
    AC = cotangent_algebroid(pi, BOX3)
    X = np.random.default_rng(12).uniform(-0.8, 0.8, (5, 3))
    assert np.max(np.abs(AD.structure.values(X) - AC.structure.values(X))) < 1e-8
    rep = check_algebroid(AD, samples=30)
    assert rep.all_passed


def test_dirac_graph_of_constant_closed_two_form():
    # L = graph of varpi: e_i = d_i + varpi-flat(d_i); constant frame, c = 0
    varpi12 = 0.7
    sections = []
    for i in range(3):
        v = [ex.ONE if a == i else ex.ZERO for a in range(3)]
        alpha_vals = np.zeros(3)
        W = np.array([[0.0, varpi12, 0.0], [-varpi12, 0.0, 0.0], [0, 0, 0]])
        alpha_vals = W.T[:, i]  # (varpi-flat e_i)_j = W[i, j]
        alpha = [ex.const(val) for val in alpha_vals]
        sections.append((v, alpha))
    AD = dirac_algebroid(sections, FormField(XS3, 3, {}), BOX3)
    X = np.array([[0.1, 0.2, 0.3]])
    assert np.max(np.abs(AD.structure.values(X))) < 1e-12


def test_dirac_rejects_non_lagrangian():
    secs = [([ex.ONE, ex.ZERO, ex.ZERO], [ex.ONE, ex.ZERO, ex.ZERO])]
    with pytest.raises(NotLagrangianError) as err:
        dirac_algebroid(secs, FormField(XS3, 3, {}), BOX3)
    assert err.value.residual == pytest.approx(2.0)


def test_dirac_rejects_non_involutive():
    # untwisted graph of a non-Poisson bivector is not involutive
    pi = BivectorField(3, {(0, 1): ex.const(-1.0), (1, 2): parse("x2", XS3)}, XS3)
    sections = []
    for i in range(3):
        v = [pi.entry(i, a) for a in range(3)]
        alpha = [ex.ONE if a == i else ex.ZERO for a in range(3)]
        sections.append((v, alpha))
    with pytest.raises(NotInvolutiveError):
        dirac_algebroid(sections, FormField(XS3, 3, {}), BOX3)


def test_dirac_rejects_nonclosed_H():
    # a 3-form with x4-dependence on R^4 is not closed
    xs4 = ["x1", "x2", "x3", "x4"]
    H4 = FormField(xs4, 3, {(0, 1, 2): parse("x4", xs4)})
    secs = [([ex.ONE, ex.ZERO, ex.ZERO, ex.ZERO],
             [ex.ZERO] * 4)]
    with pytest.raises(CompatibilityError):
        dirac_algebroid(secs, H4, [[-1, 1]] * 4)


def test_dirac_twisted_example_builds(dirac_twisted_scenario):
    assert dirac_twisted_scenario.report.all_passed


# ---------------------------------------------------------------------------
# jacobi builder


def test_jacobi_line_anchor():
    pi0 = BivectorField(1, {}, ["x1"])
    A = jacobi_algebroid(pi0, [ex.ONE], [[-1, 1]])
    # rho(u, p) = -u d/dx
    assert np.allclose(A.anchor_at(np.array([[0.3]])), [[[-1.0, 0.0]]])
    assert check_algebroid(A, samples=20).all_passed


def test_jacobi_abelian():
    pi0 = BivectorField(2, {}, XS2)
    A = jacobi_algebroid(pi0, [ex.ZERO, ex.ZERO], BOX2)
    X = np.array([[0.2, -0.6]])
    assert np.max(np.abs(A.structure.values(X))) == 0.0
    assert np.max(np.abs(A.anchor_at(X))) == 0.0


def test_jacobi_embeds_poisson_with_central_extension():
    """With R = 0 the T*M block matches the cotangent chart; the brackets
    with the jet-of-1 section vanish; the extension column is -pi^{ij}."""
    pi = so3_bivector()
    AJ = jacobi_algebroid(pi, [ex.ZERO] * 3, BOX3)
    AC = cotangent_algebroid(pi, BOX3)
    X = np.array([[0.25, -0.5, 0.75]])
    cJ = AJ.structure.values(X)[0]
    assert np.max(np.abs(cJ[1:, 1:, 1:] - AC.structure.values(X)[0])) < 1e-14
    assert np.max(np.abs(cJ[0, :, :])) == 0.0
    assert np.max(np.abs(cJ[:, 0, :])) == 0.0
    assert np.max(np.abs(cJ[1:, 1:, 0] + pi.values(X)[0])) < 1e-14
    assert check_algebroid(AJ, samples=30).all_passed


def test_jacobi_contact_r3_compatibility_and_axioms():
    pi = BivectorField(3, {(0, 1): ex.const(-1.0), (1, 2): parse("x2", XS3)}, XS3)
    A = jacobi_algebroid(pi, [ex.ZERO, ex.ZERO, ex.ONE], [[-0.8, 0.8]] * 3)
    assert check_algebroid(A, samples=30).all_passed


def test_jacobi_rejects_incompatible_pair():
    pi = BivectorField(3, {(0, 1): ex.const(-1.0), (1, 2): parse("x2", XS3)}, XS3)
    with pytest.raises(CompatibilityError):
        jacobi_algebroid(pi, [ex.ZERO, ex.ZERO, ex.ZERO], BOX3)  # R = 0 breaks it


# ---------------------------------------------------------------------------
# transport weights


def _jacobi_line_groupoid():
    pi0 = BivectorField(1, {}, ["x1"])
    A = jacobi_algebroid(pi0, [ex.ONE], [[-1, 1]])
    G = SprayGroupoid(A, default_spray(A), n_quad=32)
    G.validity_fiber_radius = 0.5
    return A, G


def test_transport_weight_zero_cocycle_is_one():
    pi0 = BivectorField(2, {}, XS2)
    A = jacobi_algebroid(pi0, [ex.ZERO, ex.ZERO], BOX2)
    G = SprayGroupoid(A, default_spray(A), n_quad=16)
    pts = np.array([[0.1, -0.2, 0.4, 0.2, -0.1]])
    w = transport_weight(G, pts)
    assert w.shape == (1, 17)
    assert np.allclose(w, 1.0)


def test_transport_weight_closed_form_and_composition():
    A, G = _jacobi_line_groupoid()
    pts = np.array([[0.0, 0.4, 0.7], [0.2, -0.3, -0.5]])
    w = transport_weight(G, pts)
    # p is constant along the flow: w(t) = exp(-t p)
    for b in range(2):
        p = pts[b, 2]
        assert np.max(np.abs(w[b] - np.exp(-G.rule.nodes * p))) < 1e-10
    # additivity: w(1) = w(t_k) * exp(-int_{t_k}^1 <R, p_s> ds), the second
    # factor known analytically since the integrand is the constant p
    k = 16
    t_k = G.rule.nodes[k]
    p = pts[:, 2]
    assert np.max(np.abs(w[:, -1] - w[:, k] * np.exp(-(1 - t_k) * p))) < 1e-10
    # the cumulative rule needs uniform nodes: Gauss nodes are refused
    Gg = SprayGroupoid(A, default_spray(A), n_quad=16, quad_kind="gauss")
    with pytest.raises(DimensionError, match="Simpson"):
        transport_weight(Gg, pts)
