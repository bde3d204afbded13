"""Algebroid charts, sprays, and the three family builders."""

import itertools
from types import SimpleNamespace

import numpy as np
import pytest

from sprayform import expr as ex
from sprayform.algebroid import (
    AlgebroidChart,
    SymbolicStructure,
    _courant_bracket,
    _sample_box,
    base_vars,
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
    EvalDomainError,
    NotInvolutiveError,
    NotLagrangianError,
)
from sprayform.expr import BivectorField, FormField, parse
from sprayform.groupoid import SprayGroupoid

from conftest import (XS2, XS3, constant_bivector_r2, so3_bivector,
                      twisted_dirac_sections)
from expr_oracle import tree_eval

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
    vals = [tree_eval(c, env) for c in V.components]
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


def _so3_graph_sections():
    pi = so3_bivector()
    return [([pi.entry(i, a) for a in range(3)],
             [ex.ONE if a == i else ex.ZERO for a in range(3)]) for i in range(3)]


def test_dirac_graph_of_so3_matches_cotangent_in_transported_frame():
    AD = dirac_algebroid(_so3_graph_sections(), FormField(XS3, 3, {}), BOX3)
    AC = cotangent_algebroid(so3_bivector(), BOX3)
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


def test_dirac_gate_residuals_match_the_pair_loops():
    """The residuals NotLagrangianError and NotInvolutiveError carry are the
    worst, over the 25 gate points, of a closed form of the pairings and of
    one least-squares fit per point and bracket (to roundoff: the gates
    sum in another order)."""
    grid = _sample_box(np.asarray(BOX3), 25, 4242, 0.9)
    x1, x2, x3 = (parse(v, XS3) for v in XS3)
    # alpha_i(v_j) + alpha_j(v_i): 2 x1, x2 + x1 x3 and 0
    secs = [([x1, ex.ZERO, ex.ZERO], [ex.ONE, x2, ex.ZERO]),
            ([ex.ZERO, ex.ONE, ex.ZERO], [x3, ex.ZERO, ex.ZERO])]
    with pytest.raises(NotLagrangianError) as err:
        dirac_algebroid(secs, FormField(XS3, 3, {}), BOX3)
    x = grid.T
    want = np.max(np.abs([2 * x[0], x[1] + x[0] * x[2]]))
    assert err.value.residual == pytest.approx(want, rel=1e-15)

    # the untwisted graph of a bivector that is not Poisson
    pi = BivectorField(3, {(0, 1): ex.const(-1.0), (1, 2): x2}, XS3)
    fr = SimpleNamespace(vectors=[[pi.entry(i, a) for a in range(3)] for i in range(3)],
                         covectors=[[ex.ONE if a == i else ex.ZERO for a in range(3)]
                                    for i in range(3)],
                         H=FormField(XS3, 3, {}))
    with pytest.raises(NotInvolutiveError) as err:
        dirac_algebroid(list(zip(fr.vectors, fr.covectors)), fr.H, BOX3)
    frames = ex.compile_exprs([e for v, a in zip(fr.vectors, fr.covectors)
                               for e in v + a], XS3)(grid).reshape(25, 3, 6)
    resid = np.zeros(25)
    for i, j in itertools.product(range(3), repeat=2):
        lie_vw, form = _courant_bracket(fr, i, j, XS3)
        b = ex.compile_exprs(lie_vw + [form.component((a,)) for a in range(3)],
                             XS3)(grid)
        for p in range(25):
            c = np.linalg.lstsq(frames[p].T, b[p], rcond=None)[0]
            resid[p] = max(resid[p], np.max(np.abs(frames[p].T @ c - b[p])))
    assert err.value.residual == pytest.approx(resid.max(), rel=1e-12)
    assert np.array_equal(err.value.worst_point, grid[np.argmax(resid)])


@pytest.mark.parametrize("sections,H,bound", [
    (twisted_dirac_sections, {(0, 1, 2): ex.const(-1.0)}, 0.0),
    (_so3_graph_sections, {}, 2.5e-14),
], ids=["twisted", "so3_graph"])
def test_dirac_fit_matches_per_bracket_lstsq(sections, H, bound):
    """The fitted structure functions, from the batched normal equations,
    agree with one single-column least-squares solve per point and bracket
    (the oracle) to roundoff: measured 0 on the twisted frame and 7.4e-15
    on so3_graph at scale 1."""
    AD = dirac_algebroid(sections(), FormField(XS3, 3, H), BOX3)
    fr, r = AD.frame, AD.r
    X = np.random.default_rng(16).uniform(-0.9, 0.9, (50, 3))
    frames = ex.compile_exprs(
        [e for i in range(r) for e in fr.vectors[i] + fr.covectors[i]],
        XS3)(X).reshape(len(X), r, 6)
    want = np.empty((len(X), r, r, r))
    for i in range(r):
        for j in range(r):
            lie_vw, form = _courant_bracket(fr, i, j, base_vars(3))
            b = ex.compile_exprs(
                lie_vw + [form.component((a,)) for a in range(3)], XS3)(X)
            for p in range(len(X)):
                want[p, i, j] = np.linalg.lstsq(frames[p].T, b[p], rcond=None)[0]
    assert np.max(np.abs(AD.structure.values(X) - want)) <= bound


def test_dirac_fit_derivative_matches_cotangent_symbolic():
    """The complex step of the fitted structure functions on the graph of
    the Poisson bivector x3^2 d1^d2 (pi^{3j} = 0, and d3 c is not zero)
    equals the exact derivative of the cotangent algebroid's symbolic ones:
    2.2e-16 at scale 2."""
    pi = BivectorField(3, {(0, 1): parse("x3*x3", XS3)}, XS3)
    sections = [([pi.entry(i, a) for a in range(3)],
                 [ex.ONE if a == i else ex.ZERO for a in range(3)])
                for i in range(3)]
    AD = dirac_algebroid(sections, FormField(XS3, 3, {}), BOX3)
    AC = cotangent_algebroid(pi, BOX3)
    rng = np.random.default_rng(5)
    X = rng.uniform(-0.9, 0.9, (20, 3))
    V = rng.uniform(-1, 1, (20, 4, 3))
    want = AC.structure.directional_derivative(X, V)
    assert np.max(np.abs(want)) > 1.0
    got = AD.structure.directional_derivative(X, V)
    assert got.dtype == np.float64
    assert np.max(np.abs(got - want)) < 1e-14


def test_dirac_rank_deficient_point_is_named():
    # e1 = x1 d1 drops rank on the plane x1 = 0, which no fit sample hits
    sections = [([parse("x1", XS3), ex.ZERO, ex.ZERO], [ex.ZERO] * 3),
                ([ex.ZERO, ex.ONE, ex.ZERO], [ex.ZERO] * 3),
                ([ex.ZERO, ex.ZERO, ex.ONE], [ex.ZERO] * 3)]
    AD = dirac_algebroid(sections, FormField(XS3, 3, {}), BOX3)
    X = np.random.default_rng(3).uniform(0.1, 0.9, (8, 3))
    assert np.all(AD.structure.values(X) == 0.0)
    X[5, 0] = X[6, 0] = 0.0
    with pytest.raises(NotInvolutiveError) as err:
        AD.structure.values(X)
    assert err.value.residual == float("inf")
    assert np.array_equal(err.value.worst_point, X[5])


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
