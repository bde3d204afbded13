"""Groupoid structure maps, the quadrature form, multiplication, round trips."""

import numpy as np
import pytest

from sprayform import expr as ex
from sprayform.algebroid import (
    cotangent_algebroid,
    default_spray,
    jacobi_algebroid,
    jacobi_cocycle,
)
from sprayform.errors import (
    ComposabilityError,
    DegenerateFormError,
    NonlinearCocycleError,
)
from sprayform.expr import BivectorField, FormField, parse
from sprayform.groupoid import (
    MultFormEvaluator,
    SprayGroupoid,
    composable_tangents_batch,
    differential_of_multiplication,
    differentiate_at_units,
    discover_validity_box,
    integrate_cocycle,
    linearization_check,
    multiply_poisson,
    units_form_predictor,
)
from sprayform.imform import (
    LinearForm,
    exact_im_pair,
    jacobi_linear_form,
    linear_form,
    poisson_im_pair,
)
from sprayform.report import SplitMix64

from conftest import XS2, XS3, constant_bivector_r2, so3_bivector

BOX2 = [[-1.0, 1.0]] * 2
BOX3 = [[-1.0, 1.0]] * 3


@pytest.fixture(scope="module")
def flat_groupoid():
    A = cotangent_algebroid(BivectorField(2, {}, XS2), BOX2)
    G = SprayGroupoid(A, default_spray(A), n_quad=16)
    discover_validity_box(G)
    ev = MultFormEvaluator(G, linear_form(poisson_im_pair(A)))
    return A, G, ev


@pytest.fixture(scope="module")
def const_groupoid():
    A = cotangent_algebroid(constant_bivector_r2(), BOX2)
    G = SprayGroupoid(A, default_spray(A), n_quad=64)
    discover_validity_box(G)
    ev = MultFormEvaluator(G, linear_form(poisson_im_pair(A)))
    return A, G, ev


@pytest.fixture(scope="module")
def so3_groupoid():
    A = cotangent_algebroid(so3_bivector(), BOX3)
    G = SprayGroupoid(A, default_spray(A), n_quad=64)
    discover_validity_box(G)
    ev = MultFormEvaluator(G, linear_form(poisson_im_pair(A)))
    return A, G, ev


@pytest.fixture(scope="module")
def jacobi_line_groupoid():
    pi0 = BivectorField(1, {}, ["x1"])
    A = jacobi_algebroid(pi0, [ex.ONE], [[-1, 1]])
    G = SprayGroupoid(A, default_spray(A), n_quad=64)
    discover_validity_box(G)
    ev = MultFormEvaluator(G, jacobi_linear_form(A),
                           weight_cocycle=jacobi_cocycle(A))
    return A, G, ev


# ---------------------------------------------------------------------------
# structure maps


def test_units_and_projections(so3_groupoid):
    A, G, _ = so3_groupoid
    x = np.array([0.2, -0.4, 0.1])
    u = G.unit(x)
    assert np.allclose(G.sigma(u)[0], x)
    assert np.allclose(G.tau(u)[0], x)


def test_inverse_is_an_involution(so3_groupoid):
    A, G, _ = so3_groupoid
    pts = G.sample_validity_points(6, seed=42, fiber_scale=0.6)
    double = G.inverse(G.inverse(pts))
    assert np.max(np.abs(double - pts)) < 1e-9


def test_inverse_swaps_source_and_target(so3_groupoid):
    A, G, _ = so3_groupoid
    pts = G.sample_validity_points(6, seed=43, fiber_scale=0.6)
    inv = G.inverse(pts)
    assert np.max(np.abs(G.sigma(inv) - G.tau(pts))) < 1e-10
    assert np.max(np.abs(G.tau(inv) - G.sigma(pts))) < 1e-9


# ---------------------------------------------------------------------------
# the quadrature form


def test_omega_flat_case_is_canonical(flat_groupoid):
    _, G, ev = flat_groupoid
    pts = G.sample_validity_points(20, seed=1)
    W = ev.omega_matrices(pts)
    W0 = np.zeros((4, 4))
    W0[0, 2] = W0[1, 3] = 1.0
    W0 -= W0.T
    assert np.max(np.abs(W - W0)) < 1e-12


def test_omega_constant_pi_closed_form(const_groupoid):
    """Hand oracle: pull the canonical form through the affine flow and
    integrate; omega = omega_0 + sum_{i<j} pi^{ij} dp_i ^ dp_j."""
    _, G, ev = const_groupoid
    pts = G.sample_validity_points(30, seed=2)
    W = ev.omega_matrices(pts)
    Wexp = np.zeros((4, 4))
    Wexp[0, 2] = Wexp[1, 3] = 1.0
    Wexp[2, 3] = 1.0
    Wexp -= Wexp.T
    assert np.max(np.abs(W - Wexp)) < 1e-12


def test_omega_jacobi_line_closed_form(jacobi_line_groupoid):
    _, G, ev = jacobi_line_groupoid
    pts = G.sample_validity_points(25, seed=3)
    om = ev.omega_full(pts)
    p = pts[:, 2]
    du = (2 - 2 * np.exp(-p) - p * np.exp(-p)) / p
    dx = -(1 - np.exp(-p))
    resid = max(np.max(np.abs(om[:, 1] - du)), np.max(np.abs(om[:, 0] - dx)),
                np.max(np.abs(om[:, 2])))
    assert resid < 1e-8


def test_domega_poisson_is_zero(so3_groupoid):
    _, G, ev = so3_groupoid
    pts = G.sample_validity_points(5, seed=4, fiber_scale=0.5)
    assert np.max(np.abs(ev.domega_full(pts))) < 1e-15


def test_domega_fd_cross_check(so3_groupoid):
    A, G, _ = so3_groupoid
    varpi = FormField(XS3, 2, {(0, 1): parse("x1", XS3)})
    evE = MultFormEvaluator(G, linear_form(exact_im_pair(A, varpi)))
    pts = G.sample_validity_points(4, seed=5, fiber_scale=0.5)
    exact = evE.domega_full(pts)
    fd = evE._domega_fd(pts)
    assert np.max(np.abs(exact - fd)) < 1e-5


def test_omega_gauss_rule_agrees_with_simpson():
    A = cotangent_algebroid(so3_bivector(), BOX3)
    Gs = SprayGroupoid(A, default_spray(A), n_quad=64)
    discover_validity_box(Gs)
    Gg = SprayGroupoid(A, default_spray(A), n_quad=24, quad_kind="gauss")
    Gg.validity_fiber_radius = Gs.validity_fiber_radius
    lf = linear_form(poisson_im_pair(A))
    evs = MultFormEvaluator(Gs, lf)
    evg = MultFormEvaluator(Gg, lf)
    pts = Gs.sample_validity_points(5, seed=6, fiber_scale=0.5)
    assert np.max(np.abs(evs.omega_matrices(pts) -
                         evg.omega_matrices(pts))) < 1e-8
    # the structure maps use the endpoint flow regardless of the rule's nodes
    assert np.max(np.abs(Gs.tau(pts) - Gg.tau(pts))) < 1e-8
    assert np.max(np.abs(Gs.inverse(pts) - Gg.inverse(pts))) < 1e-8


# ---------------------------------------------------------------------------
# multiplication


def test_multiply_flat_is_fiberwise_addition(flat_groupoid):
    _, G, ev = flat_groupoid
    a = np.array([0.3, -0.1, 0.2, 0.4])
    b = np.array([0.3, -0.1, -0.3, 0.1])
    mu = multiply_poisson(G, ev, a, b, n_steps=8)
    assert np.max(np.abs(mu - [0.3, -0.1, -0.1, 0.5])) < 1e-10


def test_multiply_unit_laws(so3_groupoid):
    _, G, ev = so3_groupoid
    b = G.sample_validity_points(4, seed=7, fiber_scale=0.4)
    tau_b = G.tau(b)
    units = np.hstack([tau_b, np.zeros((4, 3))])
    left = multiply_poisson(G, ev, units, b, n_steps=32)
    assert np.max(np.abs(left - b)) < 1e-8
    a = b
    sig_a = G.sigma(a)
    units2 = np.hstack([sig_a, np.zeros((4, 3))])
    right = multiply_poisson(G, ev, a, units2, n_steps=32)
    assert np.max(np.abs(right - a)) < 1e-8


def test_multiply_rejects_noncomposable(flat_groupoid):
    _, G, ev = flat_groupoid
    a = np.array([0.5, 0.0, 0.1, 0.0])
    b = np.array([0.0, 0.0, 0.1, 0.0])
    with pytest.raises(ComposabilityError):
        multiply_poisson(G, ev, a, b)


def test_composability_error_names_the_worst_row(flat_groupoid):
    _, G, ev = flat_groupoid
    b = np.array([[0.1, 0.2, 0.1, 0.0], [0.0, -0.1, 0.2, 0.1],
                  [0.3, 0.0, -0.1, 0.2]])
    a = b.copy()
    a[2, 0] += 0.4   # sigma(a) misses tau(b) in row 2 only
    with pytest.raises(ComposabilityError, match="row 2"):
        multiply_poisson(G, ev, a, b, n_steps=2)


def test_degenerate_form_in_product_names_row_and_point(flat_groupoid):
    A, G, _ = flat_groupoid
    b = np.array([[0.3, 0.1, 0.1, 0.0], [0.0, 0.2, 0.2, 0.1],
                  [-0.4, 0.0, -0.1, 0.2]])
    a = b.copy()
    a[:, 2:] = 0.1
    zero = MultFormEvaluator(G, LinearForm(A, 2, FormField(A.total_vars, 2)))
    with pytest.raises(DegenerateFormError) as err:
        multiply_poisson(G, zero, a, b, n_steps=2)
    assert err.value.smallest_singular_value == 0.0
    assert err.value.row == 0
    # Lambda = x1 dx1^dy1 + dx2^dy2 is degenerate exactly where x1 = 0; for
    # pi = 0 the flow is the identity, so omega = Lambda
    form = FormField(A.total_vars, 2, {(0, 2): parse("x1", A.total_vars),
                                       (1, 3): ex.ONE})
    ev = MultFormEvaluator(G, LinearForm(A, 2, form))
    with pytest.raises(DegenerateFormError) as err:
        multiply_poisson(G, ev, a, b, n_steps=2)
    assert err.value.row == 1
    assert np.array_equal(err.value.point, b[1])   # first stage: k = b
    assert "row 1" in str(err.value)
    assert "point (0, 0.2, 0.2, 0.1)" in str(err.value)


def test_constant_pi_associativity(const_groupoid):
    _, G, ev = const_groupoid
    rng = SplitMix64(99)
    c = G.sample_validity_points(6, seed=9, fiber_scale=0.3)
    tau_c = G.tau(c)
    b = np.hstack([tau_c, 0.3 * np.stack([rng.direction(2) for _ in range(6)])])
    tau_b = G.tau(b)
    a = np.hstack([tau_b, 0.3 * np.stack([rng.direction(2) for _ in range(6)])])
    ab = multiply_poisson(G, ev, a, b, n_steps=32)
    bc = multiply_poisson(G, ev, b, c, n_steps=32)
    left = multiply_poisson(G, ev, ab, c, n_steps=32, composability_tol=1e-8)
    right = multiply_poisson(G, ev, a, bc, n_steps=32, composability_tol=1e-8)
    assert np.max(np.abs(left - right)) < 1e-6


def test_differential_of_multiplication_flat(flat_groupoid):
    """For pi = 0, mu = fiberwise addition, so d mu(v, w) = v + w restricted
    to the right slots: base from b, fibers added."""
    _, G, ev = flat_groupoid
    a = np.array([[0.2, 0.1, 0.15, -0.2], [-0.1, 0.3, 0.0, 0.1]])
    b = np.array([[0.2, 0.1, 0.05, 0.3], [-0.1, 0.3, 0.2, -0.1]])
    rng = SplitMix64(15)
    v = np.array([[0.3, -0.2, 0.5, 0.7], [-0.4, 0.1, 0.2, 0.0]])
    w = composable_tangents_batch(G, b, v[:, :2], rng)
    mu, (dmu,) = differential_of_multiplication(G, ev, a, b, [(v, w)],
                                                n_steps=8)
    assert np.max(np.abs(mu - np.hstack([b[:, :2], a[:, 2:] + b[:, 2:]]))) < 1e-12
    want = np.hstack([w[:, :2], v[:, 2:] + w[:, 2:]])
    assert np.max(np.abs(dmu - want)) < 1e-8


# ---------------------------------------------------------------------------
# cocycles


def test_cocycle_zero(so3_groupoid):
    _, G, _ = so3_groupoid
    pts = G.sample_validity_points(5, seed=10)
    vals = integrate_cocycle(G, ex.ZERO, pts)
    assert np.allclose(vals, 0.0)


def test_cocycle_abelian_is_pointwise_value():
    A = cotangent_algebroid(BivectorField(2, {}, XS2), BOX2)
    G = SprayGroupoid(A, default_spray(A), n_quad=16)
    G.validity_fiber_radius = 0.5
    delta = parse("x1*y1 + y2", A.total_vars)
    pts = np.array([[0.3, -0.2, 0.4, 0.1]])
    vals = integrate_cocycle(G, delta, pts)
    assert vals[0] == pytest.approx(0.3 * 0.4 + 0.1, abs=1e-12)


def test_cocycle_rejects_nonlinear(so3_groupoid):
    _, G, _ = so3_groupoid
    with pytest.raises(NonlinearCocycleError):
        integrate_cocycle(G, parse("y1*y1", G.spray.variables),
                          G.sample_validity_points(1, seed=11))
    with pytest.raises(NonlinearCocycleError):
        integrate_cocycle(G, parse("x1", G.spray.variables),
                          G.sample_validity_points(1, seed=12))


def test_cocycle_jacobi_consistency(jacobi_line_groupoid):
    A, G, _ = jacobi_line_groupoid
    pts = G.sample_validity_points(10, seed=13)
    f = integrate_cocycle(G, jacobi_cocycle(A), pts)
    # p is constant along this flow: f = p exactly
    assert np.max(np.abs(f - pts[:, 2])) < 1e-12


def test_cocycle_additivity_on_so3(so3_groupoid):
    """f(mu(a,b)) = f(a) + f(b) for the rotational algebroid cocycle."""
    _, G, ev = so3_groupoid
    delta = parse("-x2*y1 + x1*y2", G.spray.variables)
    rng = SplitMix64(77)
    b = G.sample_validity_points(6, seed=14, fiber_scale=0.35)
    tau_b = G.tau(b)
    a = np.hstack([tau_b, 0.3 * np.stack([rng.direction(3) for _ in range(6)])])
    mu = multiply_poisson(G, ev, a, b, n_steps=32)
    lhs = integrate_cocycle(G, delta, mu)
    rhs = integrate_cocycle(G, delta, a) + integrate_cocycle(G, delta, b)
    assert np.max(np.abs(lhs - rhs)) < 1e-6


# ---------------------------------------------------------------------------
# differentiation round trips and the units formula


def test_differentiate_at_units_poisson(so3_groupoid):
    A, G, ev = so3_groupoid
    data = poisson_im_pair(A)
    pts = A.sample_base_points(10, seed=15, scale=0.5)
    rep = differentiate_at_units(G, ev, data, pts, tol=1e-7)
    assert rep.all_passed


def test_differentiate_at_units_exact_pair(so3_groupoid):
    A, G, _ = so3_groupoid
    varpi = FormField(XS3, 2, {(0, 1): parse("x1", XS3)})
    pair = exact_im_pair(A, varpi)
    evE = MultFormEvaluator(G, linear_form(pair))
    pts = A.sample_base_points(10, seed=16, scale=0.5)
    rep = differentiate_at_units(G, evE, pair, pts, tol=1e-7)
    assert rep.all_passed


def test_linearization_exact_for_flat(flat_groupoid):
    _, G, ev = flat_groupoid
    point = G.sample_validity_points(1, seed=17)[0]
    slope, resids = linearization_check(G, ev, point)
    assert slope is None
    assert max(resids) < 1e-12


def test_linearization_slope_so3(so3_groupoid):
    _, G, ev = so3_groupoid
    point = G.sample_validity_points(1, seed=18, fiber_scale=0.8)[0]
    slope, _ = linearization_check(G, ev, point)
    assert 0.8 <= slope <= 1.2


def test_linearization_slope_jacobi(jacobi_line_groupoid):
    _, G, ev = jacobi_line_groupoid
    point = G.sample_validity_points(1, seed=19, fiber_scale=0.8)[0]
    slope, _ = linearization_check(G, ev, point)
    assert 0.8 <= slope <= 1.2


def test_units_form_predictor_poisson(so3_groupoid):
    A, G, ev = so3_groupoid
    data = poisson_im_pair(A)
    rng = SplitMix64(20)
    pi = so3_bivector()
    X = np.concatenate([
        A.sample_base_points(1, seed=rng.next_u64() % 10**6, scale=0.5)
        for _ in range(5)])
    v, a, w, b = (np.stack([rng.direction(3) for _ in range(5)])
                  for _ in range(4))
    pred = units_form_predictor(A, data.l, X, [(v, a), (w, b)])
    P = pi.values(X)
    for q in range(5):
        want = b[q] @ v[q] - a[q] @ w[q] + a[q] @ (P[q] @ b[q])
        assert pred[q] == pytest.approx(want, abs=1e-12)


def test_units_form_predictor_pure_tangent_vanishes(so3_groupoid):
    A, _, _ = so3_groupoid
    data = poisson_im_pair(A)
    rng = SplitMix64(21)
    X = np.array([[0.2, 0.1, -0.3]])
    v, w = rng.direction(3)[None, :], rng.direction(3)[None, :]
    zero = np.zeros((1, 3))
    assert units_form_predictor(A, data.l, X, [(v, zero), (w, zero)])[0] == 0.0
