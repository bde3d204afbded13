"""Groupoid structure maps, the quadrature form, multiplication, round trips."""

import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from sprayform import expr as ex
from sprayform import tensor as tn
from sprayform.algebroid import (
    cotangent_algebroid,
    default_spray,
    jacobi_algebroid,
    jacobi_cocycle,
)
from sprayform import groupoid
from sprayform.errors import (
    ComposabilityError,
    DegenerateFormError,
    DimensionError,
    DomainExitError,
    EvalDomainError,
    NonlinearCocycleError,
)
from sprayform.expr import BivectorField, FormField, parse
from sprayform.flow import COMPLEX_STEP, FlowEngine
from sprayform.groupoid import (
    MultFormEvaluator,
    SprayGroupoid,
    _left_factors,
    composable_tangents_batch,
    differentiate_at_units,
    discover_validity_box,
    integrate_cocycle,
    linearization_check,
    multiply_poisson,
    product_residuals,
    sample_composable_pairs,
    units_form_predictor,
)
from sprayform.imform import (
    exact_im_pair,
    jacobi_linear_form,
    linear_form,
    poisson_im_pair,
)
from sprayform.report import SplitMix64

from conftest import XS2, XS3, constant_bivector_r2, so3_bivector
from product_oracle import (central_difference, differential_of_multiplication,
                            stencil_differential)

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
    X = np.array([[0.2, -0.4, 0.1], [-0.3, 0.0, 0.5]])
    U = G.units(X)
    assert U.shape == (2, G.dim)
    assert np.array_equal(U[:, G.n:], np.zeros((2, G.r)))
    assert np.allclose(G.sigma(U), X)
    assert np.allclose(G.tau(U), X)


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


def test_batched_evaluation_is_row_invariant(so3_groupoid, jacobi_line_groupoid):
    """Row b of a batched omega, flow, (tau, dtau), component gather, wedge
    or evaluation on vectors equals the one-row call on row b, and a stacked
    product equals its blocks multiplied apart, bit for bit, so a check may
    evaluate its whole sample set in one call without moving a residual's
    last digit."""
    A, G3, ev3 = so3_groupoid
    varpi = FormField(XS3, 2, {(0, 1): parse("x1 * x3", XS3)})
    evE = MultFormEvaluator(G3, linear_form(exact_im_pair(A, varpi)))
    _, GJ, evJ = jacobi_line_groupoid
    for G, ev in ((G3, ev3), (G3, evE), (GJ, evJ)):
        pts = np.concatenate([
            G.sample_validity_points(6, seed=9, fiber_scale=0.8),
            G.units(G.chart.sample_base_points(3, 10, scale=0.5))])
        batched = ev.omega_full(pts)
        grids = [(G.rule.nodes, G.substeps), (np.linspace(0.0, 0.5, 9), 4)]
        states = [_grid_states(G, pts, nodes, sub) for nodes, sub in grids]
        tau, dtau = G.tau_with_jacobian(pts)
        d, k = G.dim, ev.degree
        comps = tn.full_to_comps_batch(batched, d, k)
        V = np.random.default_rng(11).uniform(-1, 1, (len(pts), d, k))
        values = tn.evaluate_batch(comps, V)
        wedged = tn.wedge_batch(comps, comps, d, k, k)
        for b in range(len(pts)):
            row = pts[b:b + 1]
            assert np.array_equal(batched[b], ev.omega_full(row)[0])
            one = tn.full_to_comps_batch(batched[b:b + 1], d, k)
            assert np.array_equal(comps[b], one[0])
            assert np.array_equal(values[b],
                                  tn.evaluate_batch(one, V[b:b + 1])[0])
            assert np.array_equal(wedged[b], tn.wedge_batch(one, one, d, k, k)[0])
            for (nodes, sub), S in zip(grids, states):
                assert np.array_equal(S[b], _grid_states(G, row, nodes, sub)[0])
            tau_b, dtau_b = G.tau_with_jacobian(row)
            assert np.array_equal(tau[b], tau_b[0])
            assert np.array_equal(dtau[b], dtau_b[0])
    # the product: a stacked batch equals its blocks computed separately
    a, b = sample_composable_pairs(G3, 5, seed=24)
    stacked = multiply_poisson(G3, ev3, a, b, n_steps=4)
    for block in (slice(0, 2), slice(2, 5)):
        assert np.array_equal(stacked[block],
                              multiply_poisson(G3, ev3, a[block], b[block],
                                               n_steps=4))


def _grid_states(G, P, nodes, substeps):
    """(B, T+1, d) states of one flow_on_grid solve, collected per node."""
    seen = []
    G.engine.flow_on_grid(P, nodes, substeps,
                          lambda k, node: seen.append(node.z.T.copy()))
    return np.stack(seen, axis=1)


def _stored_quadrature(G, form_sum, P):
    """Two-pass oracle: store copies of the live flow state (which holds the
    Jacobians) at every quadrature node through a collecting consumer, then
    feed the stored nodes, in order, through the fresh consumer
    ``form_sum``."""
    seen = []
    G.flow_end(P, lambda j, node: seen.append(
        (j, SimpleNamespace(X=node.X.copy(), F=node.F.copy()))))
    for j, node in seen:
        form_sum(j, node)
    return form_sum.value


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(
        np.asarray(a, dtype=np.float64).view(np.uint64),
        np.asarray(b, dtype=np.float64).view(np.uint64))


def test_streamed_quadrature_matches_stored_trajectory(so3_groupoid,
                                                       jacobi_line_groupoid):
    """omega_full and domega_full accumulate node by node without storing a
    trajectory; they equal, bit for bit, the same sum fed from copies of the
    node states stored by a first pass (tests/test_flow_oracle.py compares
    both with the matmul pullback, to roundoff)."""
    A, G3, ev3 = so3_groupoid
    varpi = FormField(XS3, 2, {(0, 1): parse("x1 * x3", XS3)})
    evE = MultFormEvaluator(G3, linear_form(exact_im_pair(A, varpi)))
    _, GJ, evJ = jacobi_line_groupoid
    cases = [(ev3, False), (ev3, True), (evE, False), (evE, True),
             (evJ, False)]
    for ev, d in cases:
        G = ev.groupoid
        pts = np.concatenate([
            G.sample_validity_points(7, seed=21, fiber_scale=0.8),
            G.units(G.chart.sample_base_points(2, 22, scale=0.5))])
        got = ev.domega_full(pts) if d else ev.omega_full(pts)
        want = _stored_quadrature(
            G, ev.domega_sum() if d else ev.omega_sum(), pts)
        assert _same_bits(got, want)
        if ev is evE and d:   # the degree-3 d Lambda is far from zero
            assert np.max(np.abs(got)) > 1e-3


def _peak_bytes(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_omega_full_stores_no_trajectory(so3_groupoid):
    """On 900 rows, omega_full peaks below one stored (B, 65, d, d) Jacobian
    trajectory (16 MiB) and tau below one stored (B, 65, d) state
    trajectory (2.7 MiB)."""
    _, G, ev = so3_groupoid
    pts = G.sample_validity_points(900, seed=23, fiber_scale=0.8)
    state_bytes = 900 * len(G.rule.nodes) * G.dim * 8
    ev.omega_full(pts[:2])          # warm up lazy allocations
    G.tau(pts[:2])
    assert _peak_bytes(ev.omega_full, pts) < state_bytes * G.dim
    assert _peak_bytes(G.tau, pts) < state_bytes


def test_domega_poisson_is_zero(so3_groupoid, monkeypatch):
    """d Lambda of the canonical Poisson form is the constant zero, so
    d omega is exactly zero and needs no tangent-flow solve."""
    _, G, ev = so3_groupoid
    pts = G.sample_validity_points(5, seed=4, fiber_scale=0.5)
    solves = []
    monkeypatch.setattr(FlowEngine, "flow_with_jacobian",
                        lambda *args: solves.append(args))
    dW = ev.domega_full(pts)
    assert dW.shape == (5, G.dim, G.dim, G.dim)
    assert not dW.any() and not solves


def test_domega_complex_step_matches_symbolic(so3_groupoid):
    """On an unweighted evaluator, the complex step of omega that weighted
    ones use agrees with the quadrature of the symbolic d Lambda to
    roundoff (1.3e-15 at scale 0.5)."""
    A, G, _ = so3_groupoid
    varpi = FormField(XS3, 2, {(0, 1): parse("x3", XS3)})
    evE = MultFormEvaluator(G, linear_form(exact_im_pair(A, varpi)))
    pts = G.sample_validity_points(4, seed=5, fiber_scale=0.5)
    exact = evE.domega_full(pts)
    stepped = evE._domega_complex_step(pts)
    assert np.max(np.abs(exact)) > 0.1
    assert np.max(np.abs(exact - stepped)) < 1e-13


def test_weighted_domega_matches_stencil(jacobi_line_groupoid):
    """jacobi_line's weighted d omega, a complex step of omega, agrees with
    the 4th-order stencil of omega at h = 1e-3 to the stencil's error
    (4.3e-13 at scale 1.2)."""
    _, G, ev = jacobi_line_groupoid
    P = G.sample_validity_points(6, seed=31, fiber_scale=0.8)
    d = G.dim
    _, partials = central_difference(ev.omega_full, P,
                                     np.broadcast_to(np.eye(d), (len(P), d, d)),
                                     1e-3)
    want = partials - np.swapaxes(partials, 1, 2)
    got = ev.domega_full(P)
    assert np.max(np.abs(got)) > 1.0
    assert np.max(np.abs(got - want)) < 5e-12


def test_omega_simpson_rule_converges():
    """omega, tau and the inverse at n = 64 agree with n = 512 (measured
    1.5e-10 for omega and 1.5e-11 for tau and the inverse on so(3)*)."""
    A = cotangent_algebroid(so3_bivector(), BOX3)
    Gs = SprayGroupoid(A, default_spray(A), n_quad=64)
    discover_validity_box(Gs)
    Gf = SprayGroupoid(A, default_spray(A), n_quad=512)
    Gf.validity_fiber_radius = Gs.validity_fiber_radius
    lf = linear_form(poisson_im_pair(A))
    evs = MultFormEvaluator(Gs, lf)
    evf = MultFormEvaluator(Gf, lf)
    pts = Gs.sample_validity_points(5, seed=6, fiber_scale=0.5)
    assert np.max(np.abs(evs.omega_matrices(pts) -
                         evf.omega_matrices(pts))) < 1e-8
    assert np.max(np.abs(Gs.tau(pts) - Gf.tau(pts))) < 1e-8
    assert np.max(np.abs(Gs.inverse(pts) - Gf.inverse(pts))) < 1e-8


# ---------------------------------------------------------------------------
# multiplication


def test_multiply_flat_is_fiberwise_addition(flat_groupoid):
    _, G, ev = flat_groupoid
    a = np.array([[0.3, -0.1, 0.2, 0.4]])
    b = np.array([[0.3, -0.1, -0.3, 0.1]])
    mu = multiply_poisson(G, ev, a, b, n_steps=8)
    assert np.max(np.abs(mu - [[0.3, -0.1, -0.1, 0.5]])) < 1e-10
    with pytest.raises(DimensionError, match=r"\(B, d\) batches"):
        multiply_poisson(G, ev, a[0], b[0], n_steps=8)


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
    a = np.array([[0.5, 0.0, 0.1, 0.0]])
    b = np.array([[0.0, 0.0, 0.1, 0.0]])
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
    _degenerate_rows_are_named(flat_groupoid, 0.0)


def test_degenerate_complex_rows_are_named_by_real_parts(flat_groupoid):
    # a step this large makes the complex omega at row 1 well conditioned
    # (s_min ~ 1e-3): the guard must read the real part, as for any step
    _degenerate_rows_are_named(flat_groupoid, 1e-3j)


def test_complex_rows_in_node_sum_raise_the_real_domain_error(const_groupoid):
    """A coefficient singular at the real part of a complex row raises the
    real row's EvalDomainError: at x1 = i h, y1 = 0 the denominator is
    -h^2, whose reciprocal numpy computes without error."""
    A, G, _ = const_groupoid
    form = FormField(A.total_vars, 2, {
        (0, 2): parse("1/(y1*y1 + x1*x1)", A.total_vars), (1, 3): ex.ONE})
    ev = MultFormEvaluator(G, form)
    P = np.array([[0.0, 0.1, 0.0, 0.0]])
    with pytest.raises(EvalDomainError) as real:
        ev.omega_full(P)
    with pytest.raises(EvalDomainError) as cplx:
        ev.omega_full(P + [COMPLEX_STEP * 1j, 0, 0, 0])
    assert str(cplx.value) == str(real.value)


def test_real_and_complex_rows_share_one_kernel():
    """One generated right-hand side per solve kind and one node sum per
    degree serve real and complex rows alike."""
    A = cotangent_algebroid(constant_bivector_r2(), BOX2)
    G = SprayGroupoid(A, default_spray(A), n_quad=16)
    form = FormField(A.total_vars, 2, {(0, 2): parse("1 + x1 * y2", A.total_vars),
                                       (1, 3): ex.ONE})
    ev = MultFormEvaluator(G, form)
    P = np.array([[0.1, 0.2, 0.1, -0.1], [-0.2, 0.1, 0.0, 0.2]])
    for rows in (P, P + COMPLEX_STEP * 1j):
        G.tau(rows)
        ev.omega_full(rows)
    assert G.engine._rhs.cache_info().currsize == 2     # grid and tangent
    assert list(ev._codes) == [2]


def _degenerate_rows_are_named(flat_groupoid, step):
    """Rows a + step v (complex for step != 0, judged and named by their
    real parts) whose omega is degenerate raise at their row and point."""
    A, G, _ = flat_groupoid
    b = np.array([[0.3, 0.1, 0.1, 0.0], [0.0, 0.2, 0.2, 0.1],
                  [-0.4, 0.0, -0.1, 0.2]]) + step * np.array([1, 2, 3, 4])
    a = b.copy()
    a[:, 2:] = 0.1
    zero = MultFormEvaluator(G, FormField(A.total_vars, 2))
    with pytest.raises(DegenerateFormError) as err:
        multiply_poisson(G, zero, a, b, n_steps=2)
    assert err.value.smallest_singular_value == 0.0
    assert err.value.row == 0
    # Lambda = x1 dx1^dy1 + dx2^dy2 is degenerate exactly where x1 = 0; for
    # pi = 0 the flow is the identity, so omega = Lambda
    form = FormField(A.total_vars, 2, {(0, 2): parse("x1", A.total_vars),
                                       (1, 3): ex.ONE})
    ev = MultFormEvaluator(G, form)
    with pytest.raises(DegenerateFormError) as err:
        multiply_poisson(G, ev, a, b, n_steps=2)
    assert err.value.row == 1
    assert np.array_equal(err.value.point, b[1].real)   # first stage: k = b
    assert "row 1" in str(err.value)
    assert "point (0, 0.2, 0.2, 0.1)" in str(err.value)


def test_condition_guard_is_per_row(flat_groupoid, monkeypatch):
    """Each row's omega is checked against COND_BOUND on its own: rows that
    are each well conditioned pass together even when the batch's largest
    singular value over its smallest exceeds the bound, and get the bits of
    one-row calls."""
    A, G, _ = flat_groupoid
    # Lambda = x1 (dx1^dy1 + dx2^dy2): omega = x1 J for pi = 0, condition
    # number 1 at every row; over rows x1 = 0.1 and 0.5 the batch ratio is 5
    x1 = parse("x1", A.total_vars)
    ev = MultFormEvaluator(G, FormField(A.total_vars, 2,
                                        {(0, 2): x1, (1, 3): x1}))
    b = np.array([[0.1, 0.2, 0.1, 0.0], [0.5, -0.1, 0.2, 0.1]])
    a = b.copy()
    a[:, 2:] = 0.05
    monkeypatch.setattr(groupoid, "COND_BOUND", 2.0)
    got = multiply_poisson(G, ev, a, b, n_steps=2)
    for r in range(2):
        one = multiply_poisson(G, ev, a[r:r + 1], b[r:r + 1], n_steps=2)
        assert np.array_equal(got[r], one[0])


def test_condition_guard_names_the_row_over_its_own_bound(flat_groupoid,
                                                          monkeypatch):
    A, G, _ = flat_groupoid
    # Lambda = x1 dx1^dy1 + dx2^dy2: condition number 1/|x1| for |x1| < 1
    form = FormField(A.total_vars, 2, {(0, 2): parse("x1", A.total_vars),
                                       (1, 3): ex.ONE})
    ev = MultFormEvaluator(G, form)
    b = np.array([[0.5, 0.2, 0.1, 0.0], [0.05, -0.1, 0.2, 0.1],
                  [0.02, 0.1, 0.0, 0.1]])
    a = b.copy()
    a[:, 2:] = 0.05
    monkeypatch.setattr(groupoid, "COND_BOUND", 10.0)
    with pytest.raises(DegenerateFormError) as err:
        multiply_poisson(G, ev, a, b, n_steps=2)
    assert err.value.row == 1
    assert err.value.smallest_singular_value == pytest.approx(0.05)


def test_composability_tolerance_per_row(flat_groupoid):
    """A scalar or per-row composability tolerance; the error names the
    worst row among those over their own tolerance."""
    _, G, ev = flat_groupoid
    b = np.array([[0.1, 0.2, 0.1, 0.0], [0.0, -0.1, 0.2, 0.1],
                  [0.3, 0.0, -0.1, 0.2]])
    a = b.copy()
    a[0, 0] += 5e-9
    a[1, 0] += 2e-9
    with pytest.raises(ComposabilityError, match="row 0"):
        multiply_poisson(G, ev, a, b, n_steps=2)
    with pytest.raises(ComposabilityError, match="row 1: violation 2"):
        multiply_poisson(G, ev, a, b, n_steps=2,
                         composability_tol=np.array([1e-8, 1e-9, 1e-9]))
    multiply_poisson(G, ev, a, b, n_steps=2,
                     composability_tol=np.array([1e-8, 1e-8, 1e-9]))


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
    (w,) = composable_tangents_batch(G.tau_with_jacobian(b)[1], [v[:, :2]], rng)
    mu, (dmu,) = differential_of_multiplication(G, ev, a, b, [(v, w)],
                                                n_steps=8)
    assert np.max(np.abs(mu - np.hstack([b[:, :2], a[:, 2:] + b[:, 2:]]))) < 1e-12
    want = np.hstack([w[:, :2], v[:, 2:] + w[:, 2:]])
    assert np.max(np.abs(dmu - want)) < 1e-13


def _tangent_pairs(G, b, count, seed):
    """``count`` composable tangent pairs (v, w) at the right factors b."""
    rng = SplitMix64(seed)
    vs = [np.array([[rng.uniform(-1, 1) for _ in range(G.dim)] for _ in b])
          for _ in range(count)]
    ws = composable_tangents_batch(G.tau_with_jacobian(b)[1],
                                   [v[:, : G.n] for v in vs], rng)
    return list(zip(vs, ws))


def test_complex_step_dmu_matches_the_stencil(so3_groupoid):
    """The complex-step d mu on so(3)* agrees with the 4th-order stencil
    along Newton-corrected composable curves, whose own error is ~1e-10."""
    _, G, ev = so3_groupoid
    a, b = sample_composable_pairs(G, 3, 21)
    pairs = _tangent_pairs(G, b, 2, 22)
    mu, dmu = differential_of_multiplication(G, ev, a, b, pairs, n_steps=8)
    mu_fd, dmu_fd = stencil_differential(G, ev, a, b, pairs, n_steps=8)
    assert np.max(np.abs(mu - mu_fd)) < 1e-14
    assert max(np.max(np.abs(x - y)) for x, y in zip(dmu, dmu_fd)) < 1e-8


def test_complex_step_rows_are_tangent_composable(so3_groupoid):
    """The imaginary part of sigma(a) - tau(b) over h on the sampled rows,
    dsigma(v) - dtau(w), vanishes to roundoff: the complex rows lie on the
    tangent of the composable set, with no Newton correction."""
    _, G, _ = so3_groupoid
    a, b = sample_composable_pairs(G, 6, 23)
    rows = groupoid._complex_step_rows(a, b, _tangent_pairs(G, b, 2, 24))
    gap = (rows.a[:, : G.n] - G.tau(rows.b)).imag / COMPLEX_STEP
    assert np.max(np.abs(gap)) < 1e-12


def test_multiplicativity_residual_solves_each_batch_once(const_groupoid,
                                                         monkeypatch):
    """dtau and omega at the right factors b, and the inverse and omega at
    the left factors a, each come from one tangent-flow solve in the product
    schedule."""
    _, G, ev = const_groupoid
    solved, original = [], FlowEngine.flow_with_jacobian

    def counted(self, P, *args):
        solved.append(P.copy())
        return original(self, P, *args)

    monkeypatch.setattr(FlowEngine, "flow_with_jacobian", counted)
    out = product_residuals(G, ev, 4, 2, 2718, 5, n_steps=4)
    for P in out["pairs"]:
        assert sum(S.shape == P.shape and np.array_equal(S, P)
                   for S in solved) == 1
    assert np.isfinite(out["multiplicativity"])
    assert out["inversion_antisymmetry"] < 1e-12


def test_product_schedule_equals_separate_products(so3_groupoid, monkeypatch):
    """The schedule's two product calls give, bit for bit, the residuals
    built from separate products: the complex d mu rows in one call of
    their own and each associativity product in its own complex call."""
    _, G, ev = so3_groupoid
    n_pairs, n_triples, n_steps, d = 3, 2, 4, G.dim
    calls, original = [], groupoid.multiply_poisson

    def counted(G_, ev_, a, b, **kwargs):
        calls.append(len(a))
        return original(G_, ev_, a, b, **kwargs)

    monkeypatch.setattr(groupoid, "multiply_poisson", counted)
    out = product_residuals(G, ev, n_pairs, n_triples, 11, 12, n_steps=n_steps)
    # 2 complex rows per pair, 2 rows per triple and stage
    assert calls == [4 + 3, 4 + 3]
    monkeypatch.undo()

    rng = SplitMix64(11)
    a, b = sample_composable_pairs(G, n_pairs, 11)
    v1 = np.array([[rng.uniform(-1, 1) for _ in range(d)] for _ in range(n_pairs)])
    v2 = np.array([[rng.uniform(-1, 1) for _ in range(d)] for _ in range(n_pairs)])
    w1, w2 = composable_tangents_batch(G.tau_with_jacobian(b)[1],
                                       [v1[:, : G.n], v2[:, : G.n]], rng)

    step = 1j * COMPLEX_STEP
    products = multiply_poisson(G, ev, np.vstack([a + step * v1, a + step * v2]),
                                np.vstack([b + step * w1, b + step * w2]),
                                n_steps=n_steps)
    mu = products[:n_pairs].real
    dmu1, dmu2 = np.split(products.imag / COMPLEX_STEP, 2)
    W_a, W_b, W_mu = (ev.omega_matrices(P) for P in (a, b, mu))
    lhs = np.einsum("bi,bij,bj->b", dmu1, W_mu, dmu2)
    rhs = np.einsum("bi,bij,bj->b", v1, W_a, v2) + \
        np.einsum("bi,bij,bj->b", w1, W_b, w2)
    assert out["multiplicativity"] == float(np.max(np.abs(lhs - rhs)))
    assert np.array_equal(out["mu"], mu)
    inv_a, dinv = G.inverse_with_jacobian(a)
    pulled = np.einsum("bji,bjk,bkl->bil", dinv, ev.omega_matrices(inv_a), dinv)
    assert out["inversion_antisymmetry"] == float(np.max(np.abs(pulled + W_a)))

    rng = SplitMix64(12)
    c = G.sample_validity_points(n_triples, 12, fiber_scale=0.4)
    bb = _left_factors(G, c, rng, 0.4)
    aa = _left_factors(G, bb, rng, 0.4)
    aa, bb, c = (P.astype(complex) for P in (aa, bb, c))
    ab = multiply_poisson(G, ev, aa, bb, n_steps=n_steps)
    bc = multiply_poisson(G, ev, bb, c, n_steps=n_steps)
    left = multiply_poisson(G, ev, ab, c, n_steps=n_steps, composability_tol=1e-8)
    right = multiply_poisson(G, ev, aa, bc, n_steps=n_steps,
                             composability_tol=1e-8)
    assoc = float(np.max(np.abs((left - right).real)))
    assert out["associativity"] == assoc


def _edit_rows(monkeypatch, check, row, edit):
    """Wrap the one product-packing seam, ``groupoid._multiply_rows``, so
    that ``edit(block, i)`` changes row ``row`` of ``check``'s own batch
    (local row ``i = row - first_row`` of the block that holds it) before
    the rows are packed."""
    original = groupoid._multiply_rows

    def packed(G, evaluator, blocks, n_steps):
        for blk in blocks:
            i = row - blk.first_row
            if blk.check == check and 0 <= i < len(blk.a):
                edit(blk, i)
        return original(G, evaluator, blocks, n_steps)

    monkeypatch.setattr(groupoid, "_multiply_rows", packed)


def _shift(by):
    def edit(blk, i):
        blk.a[i, 0] += by
    return edit


def test_packed_product_error_names_check_and_its_row(const_groupoid,
                                                       monkeypatch):
    """An error at a packed product row names the check that owns the row
    and the row's index in that check's own batch."""
    _, G, ev = const_groupoid

    def run():
        # 2 pairs, 3 triples: 2 + 2 complex rows, 6 stage rows per call
        return product_residuals(G, ev, 2, 3, 1, 2, n_steps=2)

    _edit_rows(monkeypatch, "associativity stage 1", 4, _shift(0.3))
    with pytest.raises(ComposabilityError) as err:
        run()
    assert err.value.row == 4
    assert str(err.value) == ("associativity stage 1: sigma(a) != tau(b) at "
                              "batch row 4: violation 3.000e-01 > 1.0e-09")
    monkeypatch.undo()

    def leave_box(blk, i):
        blk.b[i, 0] = 3.0   # outside the chart box [-1, 1]

    _edit_rows(monkeypatch, "associativity stage 2", 1, leave_box)
    with pytest.raises(DomainExitError) as err:
        run()
    assert err.value.row == 1
    assert str(err.value).startswith(
        "associativity stage 2: trajectory left the domain box at t=0, "
        "batch row 1, point (3, ")
    monkeypatch.undo()

    # row 6 + 1 of the second call is row 2 + 1 of the 4 complex rows
    _edit_rows(monkeypatch, "multiplicativity", 3, _shift(0.3))
    with pytest.raises(ComposabilityError) as err:
        run()
    assert err.value.row == 3
    assert str(err.value).startswith(
        "multiplicativity: sigma(a) != tau(b) at batch row 3: ")


def test_packed_rows_keep_their_check_tolerance(const_groupoid, monkeypatch):
    """Stage 2 rows are checked at 1e-8 and complex d mu rows at 1e-9 in the
    same packed call."""
    _, G, ev = const_groupoid
    _edit_rows(monkeypatch, "associativity stage 2", 0, _shift(5e-9))
    out = product_residuals(G, ev, 2, 3, 1, 2, n_steps=2)
    assert np.isfinite(out["associativity"])
    monkeypatch.undo()
    _edit_rows(monkeypatch, "multiplicativity", 2, _shift(5e-9))
    with pytest.raises(ComposabilityError,
                       match="^multiplicativity: .* row 2: violation 5"):
        product_residuals(G, ev, 2, 3, 1, 2, n_steps=2)


@pytest.mark.parametrize("fixture, solves", [("so3_groupoid", 1),
                                              ("jacobi_line_groupoid", None)])
def test_omega_and_domega_share_one_solve(fixture, solves, request,
                                          monkeypatch):
    """Unweighted evaluators get omega and d omega from one tangent-flow
    solve; weighted ones take omega's complex step.  Both equal the
    separate calls bit for bit."""
    _, G, ev = request.getfixturevalue(fixture)
    P = np.vstack([G.units(np.array([[0.1, -0.2, 0.3][:G.n]])),
                   G.sample_validity_points(3, seed=44, fiber_scale=0.5)])
    want = ev.omega_full(P), ev.domega_full(P)
    counted, original = [], FlowEngine.flow_with_jacobian

    def count(self, *args):
        counted.append(1)
        return original(self, *args)

    monkeypatch.setattr(FlowEngine, "flow_with_jacobian", count)
    got = ev.omega_and_domega_full(P)
    assert all(np.array_equal(g, w) for g, w in zip(got, want))
    if solves is not None:
        assert len(counted) == solves


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
