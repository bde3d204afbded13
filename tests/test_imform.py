"""IM pairs, linear forms, the coordinate correspondence, residual checks."""

import numpy as np
import pytest

from sprayform import expr as ex
from sprayform.algebroid import (
    cotangent_algebroid,
    default_spray,
    dirac_algebroid,
    jacobi_algebroid,
)
from sprayform.expr import BivectorField, FormField, VectorField, parse
from sprayform.imform import (
    IMFormData,
    ScalarSpencer,
    d_IM,
    dirac_im_pair,
    exact_im_pair,
    im_residuals,
    jacobi_linear_form,
    linear_form,
    poisson_im_pair,
)

from conftest import XS2, XS3, so3_bivector, twisted_dirac_sections
from expr_oracle import tree_eval
from form_oracle import evaluate, pullback

BOX3 = [[-1.0, 1.0]] * 3


@pytest.fixture(scope="module")
def so3_chart():
    return cotangent_algebroid(so3_bivector(), BOX3)


def _rand_total(rng, n, r):
    return np.concatenate([rng.uniform(-1, 1, n), rng.uniform(-1, 1, r)])


# ---------------------------------------------------------------------------
# linear forms


def test_poisson_pair_linear_form_is_canonical_symplectic(so3_chart):
    lf = linear_form(poisson_im_pair(so3_chart))
    # Lambda = sum_i dx^i ^ dy^i |-> components {(i, n+i): 1}
    assert set(lf.components) == {(0, 3), (1, 4), (2, 5)}
    for e in lf.components.values():
        assert isinstance(e, ex.Const) and e.value == 1.0
    # closed pair: d Lambda = 0 identically
    assert not lf.d().components


def test_sign_convention_at_units(so3_chart):
    """Lambda(horizontal w, vertical b) = <b | w> pins every other sign."""
    lf = linear_form(poisson_im_pair(so3_chart))
    rng = np.random.default_rng(0)
    z = _rand_total(rng, 3, 3)
    lam = lf.values(z[None, :])[0]
    w = rng.uniform(-1, 1, 3)
    b = rng.uniform(-1, 1, 3)
    horizontal = np.concatenate([w, np.zeros(3)])
    vertical = np.concatenate([np.zeros(3), b])
    assert evaluate(lam, horizontal, vertical) == pytest.approx(b @ w, abs=1e-14)


def test_nu_only_pair_has_no_dy_terms(so3_chart):
    n = 3
    nus = [FormField(XS3, 2, {(0, 1): ex.ONE}) for _ in range(n)]
    ls = [FormField(XS3, 1, {}) for _ in range(n)]
    data = IMFormData(so3_chart, 2, ls, nus)
    lf = linear_form(data)
    assert all(max(I) < n + 3 for I in lf.components)  # all indices
    assert all(all(i < n for i in I) for I in lf.components)  # dx only


def _recover_im_pair(A, form):
    """Invert ``linear_form``: (l, nu) from a linear form on chart A,
    symbolically.

    l(e_j) is the interior product with the constant vertical e_j restricted
    to the zero section; D(e_j) is the pullback of Lambda along the constant
    section e_j, and nu(e_j) = D(e_j) - d l(e_j).
    """
    k = form.degree
    n, r = A.n, A.r
    zero_fiber = {A.ys[j]: ex.ZERO for j in range(r)}
    ls, nus = [], []
    for j in range(r):
        # i_{e_j} Lambda restricted to y = 0, keeping only dx-components
        lcomp = {}
        for I, e in form.components.items():
            if n + j in I:
                pos = I.index(n + j)
                J = I[:pos] + I[pos + 1:]
                if any(idx >= n for idx in J):
                    continue
                coeff = ex.subst(ex.mul(ex.Const((-1.0) ** pos), e), zero_fiber)
                lcomp[J] = ex.add(lcomp.get(J, ex.ZERO), coeff)
        ls.append(ex.FormField(A.xs, k - 1, lcomp))
        # pullback along the constant section y = e_j: dy -> 0, y_m -> delta_mj
        sub = {A.ys[m]: (ex.ONE if m == j else ex.ZERO) for m in range(r)}
        Dcomp = {}
        for I, e in form.components.items():
            if any(idx >= n for idx in I):
                continue
            Dcomp[I] = ex.add(Dcomp.get(I, ex.ZERO), ex.subst(e, sub))
        Dj = ex.FormField(A.xs, k, Dcomp)
        nus.append(Dj - ls[-1].d())
    return IMFormData(A, k, ls, nus)


def test_round_trip_lemma(so3_chart):
    rng = np.random.default_rng(3)
    ls, nus = [], []
    for j in range(3):
        ls.append(FormField(XS3, 1, {(a,): parse(f"x{a+1}*x{j+1}", XS3)
                                     for a in range(3)}))
        nus.append(FormField(XS3, 2, {(0, 1): parse(f"sin(x{j+1})", XS3),
                                      (1, 2): parse("x1 + 2", XS3)}))
    data = IMFormData(so3_chart, 2, ls, nus)
    rec = _recover_im_pair(so3_chart, linear_form(data))
    X = rng.uniform(-1, 1, (20, 3))
    for j in range(3):
        assert np.max(np.abs((rec.l[j] - data.l[j]).values(X))) < 1e-10
        assert np.max(np.abs((rec.nu[j] - data.nu[j]).values(X))) < 1e-10


def test_linear_form_fiber_scaling(so3_chart):
    """m_t-pullback of Lambda equals t Lambda, checked numerically."""
    varpi = FormField(XS3, 2, {(0, 1): parse("x1", XS3)})
    lf = linear_form(exact_im_pair(so3_chart, varpi))
    rng = np.random.default_rng(5)
    for t in (0.5, 2.0):
        z = _rand_total(rng, 3, 3)
        zt = z.copy()
        zt[3:] *= t
        D = np.diag([1.0, 1, 1, t, t, t])
        lhs = pullback(lf.values(zt[None, :])[0], 2, D)
        rhs = lf.values(z[None, :])[0] * t
        assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_exact_pair_linear_form_is_lie_derivative_of_pullback(so3_chart):
    """Lambda of the exact pair equals L_V (q* varpi), by the Cartan formula."""
    A = so3_chart
    varpi = FormField(XS3, 2, {(0, 1): parse("x1", XS3),
                               (1, 2): parse("sin(x3)", XS3)})
    pair = exact_im_pair(A, varpi)
    lf = linear_form(pair)
    V = default_spray(A)
    total = A.total_vars
    Vfield = ex.VectorField(total, V.components)
    # q* varpi: same components, injected into the total space
    qvarpi = FormField(total, 2, dict(varpi.components))
    lie = qvarpi.lie(Vfield)
    rng = np.random.default_rng(9)
    Z = np.stack([_rand_total(rng, 3, 3) for _ in range(10)])
    assert np.max(np.abs(lf.values(Z) - lie.values(Z))) < 1e-12


# ---------------------------------------------------------------------------
# residual checks


def test_poisson_pair_residuals(so3_chart):
    rep = im_residuals(so3_chart, poisson_im_pair(so3_chart), samples=60)
    assert rep.all_passed
    assert rep.worst().residual < 1e-9


def test_dirac_pair_residuals():
    H = FormField(XS3, 3, {(0, 1, 2): ex.const(-1.0)})
    AD = dirac_algebroid(twisted_dirac_sections(), H, BOX3)
    rep = im_residuals(AD, dirac_im_pair(AD), samples=40, tol=1e-8)
    assert rep.all_passed


def test_corrupted_l_flagged(so3_chart):
    data = poisson_im_pair(so3_chart)
    data.l[0] = data.l[0].scale(-1.0)   # sign flip
    rep = im_residuals(so3_chart, data, samples=30)
    assert not rep.all_passed
    assert rep.worst().residual > 0.1


# ---------------------------------------------------------------------------
# the differential on pairs


def test_d_IM_of_closed_pair_is_zero(so3_chart):
    out = d_IM(poisson_im_pair(so3_chart))
    assert all(not f.components for f in out.l)
    assert all(not f.components for f in out.nu)


def test_d_IM_exact_pair(so3_chart):
    varpi = FormField(XS3, 2, {(0, 1): parse("x1", XS3)})
    pair = exact_im_pair(so3_chart, varpi)
    out = d_IM(pair)
    # (l, nu) -> (nu, 0); nu(e_j) = i_{rho e_j} d varpi here
    X = np.random.default_rng(1).uniform(-1, 1, (5, 3))
    for j in range(3):
        assert np.max(np.abs((out.l[j] - pair.nu[j]).values(X))) < 1e-14
        assert not out.nu[j].components


def test_d_IM_twice_zero(so3_chart):
    varpi = FormField(XS3, 2, {(0, 1): parse("x1*x2", XS3)})
    pair = exact_im_pair(so3_chart, varpi)
    out = d_IM(d_IM(pair))
    assert all(not f.components for f in out.l + out.nu)


def test_chain_map_d_of_linear_form(so3_chart):
    """d Lambda_{(l,nu)} = Lambda_{d_IM(l,nu)}, exactly at the symbol level."""
    varpi = FormField(XS3, 2, {(0, 1): parse("x1", XS3),
                               (0, 2): parse("x2*x3", XS3)})
    pair = exact_im_pair(so3_chart, varpi)
    lhs = linear_form(pair).d()
    rhs = linear_form(d_IM(pair))
    rng = np.random.default_rng(2)
    Z = np.stack([_rand_total(rng, 3, 3) for _ in range(10)])
    assert np.max(np.abs(lhs.values(Z) - rhs.values(Z))) < 1e-13


# ---------------------------------------------------------------------------
# jacobi Spencer data


def test_jacobi_linear_form_components():
    pi0 = BivectorField(1, {}, ["x1"])
    A = jacobi_algebroid(pi0, [ex.ONE], [[-1, 1]])
    lf = jacobi_linear_form(A)
    # Lambda = du - p dx on (x; u, p)
    comps = {I: ex.to_source(e) for I, e in lf.components.items()}
    assert comps == {(1,): "1", (0,): "-y2"}


def test_jacobi_linear_form_matches_coordinate_recipe():
    """The contact form agrees with the generic (l, D) coordinate formula."""
    pi0 = BivectorField(2, {}, XS2)
    A = jacobi_algebroid(pi0, [ex.ZERO, ex.ZERO], [[-1, 1]] * 2)
    lf = jacobi_linear_form(A)
    # build by hand: y-part sum_j y^j D_j with D(e_0) = 0, D(e_i) = -dx^i;
    # l-part only from l(e_0) = 1
    want = {(2,): "1", (0,): "-y2", (1,): "-y3"}
    got = {I: ex.to_source(e) for I, e in lf.components.items()}
    assert got == want


def test_jacobi_recovers_pr_via_interior():
    pi0 = BivectorField(1, {}, ["x1"])
    A = jacobi_algebroid(pi0, [ex.ONE], [[-1, 1]])
    lf = jacobi_linear_form(A)
    # i_{e_0} Lambda at the zero section recovers l = pr (value 1 on e_0)
    lam = lf.values(np.array([[0.3, 0.0, 0.0]]))[0]
    assert evaluate(lam, np.array([0.0, 1.0, 0.0])) == pytest.approx(1.0)
    assert evaluate(lam, np.array([0.0, 0.0, 1.0])) == pytest.approx(0.0)


def test_scalar_spencer_leibniz():
    pi0 = BivectorField(2, {}, XS2)
    A = jacobi_algebroid(pi0, [ex.ZERO, ex.ZERO], [[-1, 1]] * 2)
    assert ScalarSpencer(A).leibniz_residual() < 1e-14


def test_scaling_symbolic_by_fiber_degree(so3_chart):
    """Symbolic linearity: dy-components are fiber-free, dx-components have
    vanishing second fiber derivatives and vanish on the zero section."""
    varpi = FormField(XS3, 2, {(0, 1): parse("x1", XS3)})
    lf = linear_form(exact_im_pair(so3_chart, varpi))
    n = 3
    zero_fiber = {y: ex.ZERO for y in so3_chart.ys}
    rng = np.random.default_rng(13)
    env_samples = [dict(zip(so3_chart.total_vars, _rand_total(rng, 3, 3)))
                   for _ in range(5)]
    for I, e in lf.components.items():
        if any(i >= n for i in I):
            for y in so3_chart.ys:
                d = ex.partial(e, y)
                assert all(abs(tree_eval(d, env)) < 1e-14 for env in env_samples)
        else:
            at0 = ex.subst(e, zero_fiber)
            assert all(abs(tree_eval(at0, env)) < 1e-14 for env in env_samples)
            for y1 in so3_chart.ys:
                for y2 in so3_chart.ys:
                    d2 = ex.partial(ex.partial(e, y1), y2)
                    assert all(abs(tree_eval(d2, env)) < 1e-14 for env in env_samples)
