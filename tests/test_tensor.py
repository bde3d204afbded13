"""Pointwise multilinear algebra."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sprayform import expr as ex
from sprayform.algebroid import cotangent_algebroid, default_spray
from sprayform.errors import DegenerateFormError, DimensionError
from sprayform.groupoid import MultFormEvaluator, SprayGroupoid
from sprayform.imform import LinearForm
from sprayform.tensor import AltTensor, index_list, interior, pullback, wedge


def _e(d, i):
    v = np.zeros(d)
    v[i] = 1.0
    return v


def _rand_tensor(rng, d, k):
    n = len(list(__import__("itertools").combinations(range(d), k)))
    return AltTensor(d, k, rng.uniform(-1, 1, n))


# ---------------------------------------------------------------------------
# wedge


def test_wedge_determinant_convention():
    dx1 = AltTensor.basis_covector(2, 0)
    dx2 = AltTensor.basis_covector(2, 1)
    w = wedge(dx1, dx2)
    assert w(_e(2, 0), _e(2, 1)) == pytest.approx(1.0)


def test_wedge_self_is_zero():
    dx1 = AltTensor.basis_covector(2, 0)
    assert wedge(dx1, dx1).norm_max() == 0.0


def test_wedge_sum_brute_force():
    # (dx1 + dx2) ^ dx2 on (e1, e2) -> 1, via the evaluation-side
    # antisymmetrization sum as independent oracle
    a = AltTensor(2, 1, np.array([1.0, 1.0]))
    b = AltTensor.basis_covector(2, 1)
    w = wedge(a, b)
    v1, v2 = _e(2, 0), _e(2, 1)
    brute = a(v1) * b(v2) - a(v2) * b(v1)
    assert w(v1, v2) == pytest.approx(brute) == pytest.approx(1.0)


def test_wedge_degree_overflow():
    a = AltTensor(2, 1, np.array([1.0, 0.0]))
    b = AltTensor(2, 2, np.array([1.0]))
    with pytest.raises(DimensionError):
        wedge(a, b)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**9))
def test_wedge_graded_commutative(seed):
    rng = np.random.default_rng(seed)
    d = 4
    p, q = rng.integers(1, 3), rng.integers(1, 2)
    a = _rand_tensor(rng, d, int(p))
    b = _rand_tensor(rng, d, int(q))
    lhs = wedge(a, b)
    rhs = wedge(b, a) * ((-1.0) ** (a.degree * b.degree))
    assert np.allclose(lhs.comps, rhs.comps, atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**9))
def test_wedge_associative(seed):
    rng = np.random.default_rng(seed)
    d = 5
    a = _rand_tensor(rng, d, 1)
    b = _rand_tensor(rng, d, 1)
    c = _rand_tensor(rng, d, 2)
    lhs = wedge(wedge(a, b), c)
    rhs = wedge(a, wedge(b, c))
    assert np.allclose(lhs.comps, rhs.comps, atol=1e-12)


# ---------------------------------------------------------------------------
# evaluation antisymmetry


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**9))
def test_evaluation_fully_antisymmetric(seed):
    rng = np.random.default_rng(seed)
    a = _rand_tensor(rng, 4, 3)
    v = [rng.uniform(-1, 1, 4) for _ in range(3)]
    base = a(*v)
    swapped = a(v[1], v[0], v[2])
    assert swapped == pytest.approx(-base, abs=1e-12)


# ---------------------------------------------------------------------------
# interior product


def test_interior_basis():
    w = wedge(AltTensor.basis_covector(2, 0), AltTensor.basis_covector(2, 1))
    assert np.allclose(interior(_e(2, 0), w).comps, [0.0, 1.0])
    assert np.allclose(interior(_e(2, 1), w).comps, [-1.0, 0.0])


def test_interior_twice_zero():
    rng = np.random.default_rng(5)
    a = _rand_tensor(rng, 5, 3)
    v = rng.uniform(-1, 1, 5)
    assert interior(v, interior(v, a)).norm_max() < 1e-14


def test_interior_degree_zero_rejected():
    with pytest.raises(DimensionError):
        interior(np.zeros(3), AltTensor(3, 0, np.array([1.0])))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**9))
def test_interior_leibniz_over_wedge(seed):
    rng = np.random.default_rng(seed)
    d = 4
    a = _rand_tensor(rng, d, 2)
    b = _rand_tensor(rng, d, 1)
    v = rng.uniform(-1, 1, d)
    lhs = interior(v, wedge(a, b))
    rhs = wedge(interior(v, a), b) + wedge(a, interior(v, b)) * ((-1.0) ** a.degree)
    assert np.allclose(lhs.comps, rhs.comps, atol=1e-12)


# ---------------------------------------------------------------------------
# pullback


def test_pullback_identity():
    rng = np.random.default_rng(1)
    a = _rand_tensor(rng, 3, 2)
    assert np.allclose(pullback(a, np.eye(3)).comps, a.comps)


def test_pullback_diagonal_scaling():
    w = wedge(AltTensor.basis_covector(2, 0), AltTensor.basis_covector(2, 1))
    out = pullback(w, np.diag([2.0, 3.0]))
    assert out.comps == pytest.approx([6.0])


def test_pullback_rectangular_brute_force():
    rng = np.random.default_rng(2)
    J = rng.uniform(-1, 1, (3, 2))
    a = _rand_tensor(rng, 3, 2)
    out = pullback(a, J)
    want = a(J[:, 0], J[:, 1])
    assert out.comps == pytest.approx([want])


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**9))
def test_pullback_functorial(seed):
    rng = np.random.default_rng(seed)
    a = _rand_tensor(rng, 4, 2)
    J1 = rng.uniform(-1, 1, (4, 3))
    J2 = rng.uniform(-1, 1, (3, 3))
    lhs = pullback(pullback(a, J1), J2)
    rhs = pullback(a, J1 @ J2)
    assert np.allclose(lhs.comps, rhs.comps, atol=1e-12)


# ---------------------------------------------------------------------------
# inversion of 2-forms (MultFormEvaluator.inverse_matrices)


def _inverse_matrix(W):
    """``inverse_matrices`` of the constant 2-form with matrix W.

    With pi = 0 the default spray vanishes, so the flow is the identity and
    the quadrature form equals the constant linear form up to the roundoff
    of the quadrature weights.
    """
    d = W.shape[0]
    n = d // 2
    A = cotangent_algebroid(ex.BivectorField(n, {}), [[-1.0, 1.0]] * n)
    G = SprayGroupoid(A, default_spray(A), n_quad=2)
    comps = {I: ex.const(W[I]) for I in index_list(d, 2) if W[I] != 0.0}
    lform = LinearForm(A, 2, ex.FormField(A.total_vars, 2, comps))
    return MultFormEvaluator(G, lform).inverse_matrices(np.zeros((1, d)))[0]


def test_invert_canonical():
    W = AltTensor.from_components(2, 2, {(0, 1): 1.0}).to_full()
    Q = _inverse_matrix(W)
    assert np.allclose(Q @ W, np.eye(2))
    # sharp-after-flat is the identity: Q-sharp(W-flat(v)) = v
    v = np.array([0.3, -0.7])
    flat_v = W.T @ v
    assert np.allclose(Q.T @ flat_v, v, atol=1e-14)


def test_invert_scaling():
    W = AltTensor.from_components(2, 2, {(0, 1): 1.0}).to_full()
    assert np.allclose(_inverse_matrix(2.0 * W), 0.5 * _inverse_matrix(W))


def test_invert_random_4d_against_direct_inverse():
    rng = np.random.default_rng(7)
    M = rng.uniform(-1, 1, (4, 4))
    W = M - M.T
    Q = _inverse_matrix(W)
    assert np.max(np.abs(Q @ W - np.eye(4))) < 1e-12
    assert np.allclose(Q, np.linalg.inv(W))


def test_invert_degenerate_reports_singular_value():
    with pytest.raises(DegenerateFormError) as err:
        _inverse_matrix(np.zeros((4, 4)))  # zero form
    assert err.value.smallest_singular_value == 0.0
    assert err.value.row == 0


def test_dimension_cap():
    with pytest.raises(DimensionError):
        AltTensor(9, 2)
