"""Batched form helpers, checked against the determinant oracle."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from form_oracle import comps_to_full, evaluate, pullback
from sprayform import expr as ex
from sprayform import tensor as tn
from sprayform.algebroid import cotangent_algebroid, default_spray
from sprayform.cli import main
from sprayform.errors import DegenerateFormError, DimensionError
from sprayform.groupoid import MultFormEvaluator, SprayGroupoid
from sprayform.tensor import index_list

CANONICAL = np.array([[0.0, 1.0], [-1.0, 0.0]])   # dx1 ^ dx2 on R^2


def _rand_comps(rng, d, k, rows=3):
    return rng.uniform(-1, 1, (rows, len(index_list(d, k))))


def _pull(a, degree, J):
    """``pullback_full_batch`` on component rows, back to components."""
    d_out, d_in = J.shape[-2:]
    full = tn.comps_to_full_batch(a, d_out, degree)
    return tn.full_to_comps_batch(tn.pullback_full_batch(J, full, degree),
                                  d_in, degree)


# ---------------------------------------------------------------------------
# dense layout


@pytest.mark.parametrize("lead", [(), (4,), (3, 5)])
@pytest.mark.parametrize("dim,degree", [(d, k) for d in range(1, 7)
                                        for k in range(min(3, d) + 1)])
def test_comps_to_full_batch_matches_permutation_loop(dim, degree, lead):
    """The cached scatter gives the loop's bits, signed zeros included."""
    rng = np.random.default_rng(100 * dim + degree)
    comps = rng.uniform(-1, 1, lead + (len(index_list(dim, degree)),))
    flat = comps.reshape(-1)
    flat[::3] = -0.0
    flat[1::5] = 0.0
    got = tn.comps_to_full_batch(comps, dim, degree)
    want = comps_to_full(comps, dim, degree)
    assert got.shape == want.shape == lead + (dim,) * degree
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


# ---------------------------------------------------------------------------
# wedge


def test_wedge_determinant_convention():
    w = tn.wedge_batch(np.eye(2)[:1], np.eye(2)[1:], 2, 1, 1)   # dx1 ^ dx2
    assert evaluate(w[0], *np.eye(2)) == pytest.approx(1.0)
    assert tn.evaluate_batch(w, np.eye(2)[None]) == pytest.approx([1.0])


def test_wedge_self_is_zero():
    a = _rand_comps(np.random.default_rng(3), 4, 1)
    assert np.max(np.abs(tn.wedge_batch(a, a, 4, 1, 1))) == 0.0


def test_wedge_sum_brute_force():
    # a ^ b on (v1, v2) against the evaluation-side antisymmetrization sum
    rng = np.random.default_rng(4)
    a, b = _rand_comps(rng, 3, 1), _rand_comps(rng, 3, 1)
    V = rng.uniform(-1, 1, (3, 3, 2))
    got = tn.evaluate_batch(tn.wedge_batch(a, b, 3, 1, 1), V)
    for r in range(3):
        v1, v2 = V[r, :, 0], V[r, :, 1]
        brute = evaluate(a[r], v1) * evaluate(b[r], v2) - \
            evaluate(a[r], v2) * evaluate(b[r], v1)
        assert got[r] == pytest.approx(brute, abs=1e-14)
    one = tn.wedge_batch(np.array([[1.0, 1.0]]), np.array([[0.0, 1.0]]), 2, 1, 1)
    assert tn.evaluate_batch(one, np.eye(2)[None]) == pytest.approx([1.0])


def test_wedge_degree_overflow():
    with pytest.raises(DimensionError):
        tn.wedge_batch(np.array([[1.0, 0.0]]), np.array([[1.0]]), 2, 1, 2)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**9))
def test_wedge_graded_commutative(seed):
    rng = np.random.default_rng(seed)
    d = 4
    p, q = int(rng.integers(1, 3)), int(rng.integers(1, 2))
    a, b = _rand_comps(rng, d, p), _rand_comps(rng, d, q)
    lhs = tn.wedge_batch(a, b, d, p, q)
    rhs = tn.wedge_batch(b, a, d, q, p) * ((-1.0) ** (p * q))
    assert np.allclose(lhs, rhs, atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**9))
def test_wedge_associative(seed):
    rng = np.random.default_rng(seed)
    d = 5
    a, b, c = _rand_comps(rng, d, 1), _rand_comps(rng, d, 1), \
        _rand_comps(rng, d, 2)
    lhs = tn.wedge_batch(tn.wedge_batch(a, b, d, 1, 1), c, d, 2, 2)
    rhs = tn.wedge_batch(a, tn.wedge_batch(b, c, d, 1, 2), d, 1, 3)
    assert np.allclose(lhs, rhs, atol=1e-12)


# ---------------------------------------------------------------------------
# evaluation


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**9))
def test_evaluation_fully_antisymmetric(seed):
    rng = np.random.default_rng(seed)
    a = _rand_comps(rng, 4, 3)
    V = rng.uniform(-1, 1, (3, 4, 3))
    base = tn.evaluate_batch(a, V)
    swapped = tn.evaluate_batch(a, V[:, :, [1, 0, 2]])
    assert np.allclose(swapped, -base, atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**9))
def test_evaluate_batch_matches_det_oracle(seed):
    """Row by row, the batched evaluation equals the determinant sum; zero
    components, which it skips, included."""
    rng = np.random.default_rng(seed)
    d = int(rng.integers(3, 7))
    k = int(rng.integers(1, 4))
    a = _rand_comps(rng, d, k, rows=4)
    a[rng.uniform(size=a.shape) < 0.3] = 0.0
    a[0] = 0.0
    V = rng.uniform(-1, 1, (4, d, k))
    got = tn.evaluate_batch(a, V)
    for r in range(4):
        assert got[r] == pytest.approx(evaluate(a[r], *V[r].T), abs=1e-13)


# ---------------------------------------------------------------------------
# components and pullback


def test_pullback_identity():
    a = _rand_comps(np.random.default_rng(1), 3, 2)
    assert np.allclose(_pull(a, 2, np.eye(3)), a)


def test_pullback_diagonal_scaling():
    w = np.ones((1, 1))   # dx1 ^ dx2
    assert _pull(w, 2, np.diag([2.0, 3.0])) == pytest.approx(np.array([[6.0]]))


def test_pullback_rectangular_brute_force():
    rng = np.random.default_rng(2)
    J = rng.uniform(-1, 1, (3, 2))
    a = _rand_comps(rng, 3, 2, rows=1)
    want = evaluate(a[0], J[:, 0], J[:, 1])
    assert _pull(a, 2, J)[0] == pytest.approx([want])
    assert pullback(a[0], 2, J) == pytest.approx([want])


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**9))
def test_pullback_functorial(seed):
    rng = np.random.default_rng(seed)
    a = _rand_comps(rng, 4, 2)
    J1 = rng.uniform(-1, 1, (4, 3))
    J2 = rng.uniform(-1, 1, (3, 3))
    lhs = _pull(_pull(a, 2, J1), 2, J2)
    rhs = _pull(a, 2, J1 @ J2)
    assert np.allclose(lhs, rhs, atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**9))
def test_pullback_full_batch_matches_det_oracle(seed):
    """Batched Jacobians of any shape d_out x d_in, degrees 1..3."""
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, 4))
    d_out, d_in = int(rng.integers(3, 6)), int(rng.integers(3, 6))
    a = _rand_comps(rng, d_out, k)
    J = rng.uniform(-1, 1, (3, d_out, d_in))
    got = _pull(a, k, J)
    for r in range(3):
        assert np.allclose(got[r], pullback(a[r], k, J[r]), atol=1e-12)


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
    form = ex.FormField(A.total_vars, 2, comps)
    return MultFormEvaluator(G, form).inverse_matrices(np.zeros((1, d)))[0]


def test_invert_canonical():
    W = CANONICAL
    Q = _inverse_matrix(W)
    assert np.allclose(Q @ W, np.eye(2))
    # sharp-after-flat is the identity: Q-sharp(W-flat(v)) = v
    v = np.array([0.3, -0.7])
    flat_v = W.T @ v
    assert np.allclose(Q.T @ flat_v, v, atol=1e-14)


def test_invert_scaling():
    W = CANONICAL
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


def test_dimension_cap(tmp_path):
    """The chart dimension cap of the config schema (8) is the only one: the
    helpers work on any total dimension, and a 9-dim chart is a config
    error."""
    a = _rand_comps(np.random.default_rng(8), 10, 1)
    top = tn.wedge_batch(a, tn.wedge_batch(a, a, 10, 1, 1), 10, 1, 2)
    assert top.shape == (3, 120) and np.max(np.abs(top)) < 1e-15
    cfg = {"schema_version": 1, "kind": "poisson",
           "chart": {"dim": 9, "box": [[-1.0, 1.0]] * 9},
           "coefficients": {"pi": {"12": "1"}}}
    path = tmp_path / "dim9.json"
    path.write_text(json.dumps(cfg))
    assert main(["check", "--config", str(path), "--out-dir",
                 str(tmp_path)]) == 2
