"""Spray flows, variational flow, quadrature, finite differences."""

import numpy as np
import pytest

from sprayform import expr as ex
from sprayform.errors import DomainExitError, NonFiniteStateError
from sprayform.expr import parse
from sprayform.flow import (FlowEngine, QuadratureRule, central_difference,
                            cumulative_integral, quad)

XS2 = ["x1", "x2"]
XYP = ["x1", "x2", "y1", "y2"]   # (x, p) on the cotangent space of R^2
JVARS = ["x1", "y1", "y2"]       # jacobi line: (x; u, p)


def _const_pi_engine():
    # V(x, p) = (pi# p, 0) for pi = d1^d2: (pi# p)^1 = -p2, (pi# p)^2 = p1
    comps = [parse("-y2", XYP), parse("y1", XYP), ex.ZERO, ex.ZERO]
    return FlowEngine(comps, XYP)


def _endpoint(eng, z0, t, substeps=64):
    """phi^t(z0) by fixed-step RK4 with ``substeps`` steps."""
    nodes = np.linspace(0.0, t, 2)
    return eng.flow_on_grid(np.asarray(z0)[None, :], nodes, substeps)[0, -1]


def test_zero_field_flow_is_identity():
    eng = FlowEngine([ex.ZERO, ex.ZERO], XS2)
    out = _endpoint(eng, np.array([0.4, -0.2]), 0.73)
    assert np.allclose(out, [0.4, -0.2])


def test_constant_pi_flow_closed_form():
    eng = _const_pi_engine()
    z0 = np.array([0.1, 0.2, 0.3, -0.4])
    t = 0.8
    out = _endpoint(eng, z0, t)
    want = z0 + t * np.array([-z0[3], z0[2], 0.0, 0.0])
    assert np.max(np.abs(out - want)) < 1e-12


def test_jacobi_spray_flow_closed_form():
    # V(x; u, p) = (-u, 0, 0): phi^t(x,u,p) = (x - t u, u, p)
    eng = FlowEngine([parse("-y1", JVARS), ex.ZERO, ex.ZERO], JVARS)
    z0 = np.array([0.2, 0.5, -0.3])
    out = _endpoint(eng, z0, 1.0)
    assert np.allclose(out, [0.2 - 0.5, 0.5, -0.3], atol=1e-14)


def test_flow_with_jacobian_identity_field():
    eng = FlowEngine([ex.ZERO, ex.ZERO], XS2)
    traj = eng.flow_with_jacobian(np.array([[0.1, 0.2]]), np.linspace(0, 1, 5))
    assert np.allclose(traj.jacobians[0, -1], np.eye(2))


def test_constant_pi_jacobian_block_structure():
    # J_t = [[I, t S], [0, I]] with S = [[0,-1],[1,0]]
    eng = _const_pi_engine()
    traj = eng.flow_with_jacobian(np.array([[0.1, 0.2, 0.3, -0.4]]),
                                  np.linspace(0, 1, 9))
    J = traj.jacobians[0, -1]
    S = np.array([[0.0, -1.0], [1.0, 0.0]])
    want = np.eye(4)
    want[:2, 2:] = S
    assert np.max(np.abs(J - want)) < 1e-12


def test_jacobian_group_property_nonlinear():
    xs = ["x1", "x2"]
    eng = FlowEngine([parse("sin(x2)", xs), parse("x1*x1/4", xs)], xs)
    z = np.array([[0.3, -0.2]])
    t, s = 0.4, 0.3
    grid_t = np.linspace(0, t, 33)
    tr1 = eng.flow_with_jacobian(z, grid_t)
    z_t = tr1.states[:, -1]
    tr2 = eng.flow_with_jacobian(z_t, np.linspace(0, s, 33))
    tr3 = eng.flow_with_jacobian(z, np.linspace(0, t + s, 65))
    lhs = tr2.jacobians[0, -1] @ tr1.jacobians[0, -1]
    assert np.max(np.abs(lhs - tr3.jacobians[0, -1])) < 1e-8
    # flow group property
    assert np.max(np.abs(tr2.states[0, -1] - tr3.states[0, -1])) < 1e-9
    # det J stays nonzero along the trajectory
    dets = np.linalg.det(tr3.jacobians[0])
    assert np.all(np.abs(dets) > 1e-6)


def test_rk4_observed_order_on_so3():
    xs = ["x1", "x2", "x3", "y1", "y2", "y3"]
    # so(3)* spray: base = pi#(x) y, fiber = 0
    comps = [parse("-y2*x3 + y3*x2", xs), parse("y1*x3 - y3*x1", xs),
             parse("-y1*x2 + y2*x1", xs), ex.ZERO, ex.ZERO, ex.ZERO]
    eng = FlowEngine(comps, xs)
    z = np.array([[0.4, -0.3, 0.5, 0.3, 0.2, -0.4]])
    ref = eng.flow_on_grid(z, np.linspace(0, 1, 2), substeps=512)[0, -1]
    errs = []
    for sub in (16, 32):
        out = eng.flow_on_grid(z, np.linspace(0, 1, 2), substeps=sub)[0, -1]
        errs.append(np.max(np.abs(out - ref)))
    factor = errs[0] / errs[1]
    assert 12.0 <= factor <= 20.0   # 16 +- 25%


def test_domain_exit_raises_with_time():
    box = np.array([[-1.0, 1.0], [-1.0, 1.0]])
    eng = FlowEngine([ex.ONE, ex.ZERO], XS2, box=box)
    with pytest.raises(DomainExitError) as err:
        eng.flow_on_grid(np.array([[0.9, 0.0]]), np.linspace(0, 1, 17))
    assert 0.0 < err.value.exit_time <= 0.2


def test_domain_exit_names_batch_row():
    box = np.array([[-1.0, 1.0], [-1.0, 1.0]])
    eng = FlowEngine([ex.ONE, ex.ZERO], XS2, box=box)
    P = np.array([[0.0, 0.0], [-0.5, 0.3], [0.95, -0.2], [0.1, 0.1]])
    for solve in (eng.flow_on_grid, eng.flow_with_jacobian):
        with pytest.raises(DomainExitError, match="batch row 2, point") as err:
            solve(P, np.linspace(0, 1, 17))
        assert err.value.row == 2
        assert err.value.point[1] == -0.2


def test_exponential_flow_single_point():
    # x' = x: phi^1(1) = e; the RK4 error at 256 steps is ~5e-12
    eng = FlowEngine([parse("x1", ["x1"])], ["x1"])
    out = _endpoint(eng, np.array([1.0]), 1.0, substeps=256)
    assert out[0] == pytest.approx(np.e, rel=1e-10)


@pytest.mark.parametrize("box", [None, [[-np.inf, np.inf]] * 2])
def test_rk4_overflow_raises_with_time(box):
    # compiled evaluation returns 1e308; the RK4 combination k1 + 2 k2 + ..
    # overflows to inf outside it, and the step's box check must catch it
    eng = FlowEngine([ex.const(1e308), ex.ZERO], XS2, box=box)
    nodes = np.linspace(0.0, 1.0, 5)
    for solve in (eng.flow_on_grid, eng.flow_with_jacobian):
        with np.errstate(over="ignore"), \
                pytest.raises(NonFiniteStateError, match="t=0.25") as err:
            solve(np.array([[0.0, 0.0]]), nodes)
        assert err.value.time == 0.25
        assert err.value.row == 0
        assert np.isinf(err.value.point[0])


@pytest.mark.parametrize("box", [None, [[-1.0, 1.0]] * 2])
def test_nan_state_raises_with_time(box):
    # NaN compares false against every bound, so it must not pass as inside
    eng = FlowEngine([parse("x2", XS2), ex.ZERO], XS2, box=box)
    with pytest.raises(NonFiniteStateError, match="t=0") as err:
        eng.flow_on_grid(np.array([[0.1, np.nan]]), np.linspace(0, 1, 5))
    assert err.value.time == 0.0


# ---------------------------------------------------------------------------
# quadrature


def test_simpson_weights_sum_to_one():
    for n in (2, 16, 64):
        rule = QuadratureRule.simpson(n)
        assert abs(rule.weights.sum() - 1.0) < 1e-15


def test_gauss_weights_sum_to_one():
    rule = QuadratureRule.gauss_legendre(12)
    assert abs(rule.weights.sum() - 1.0) < 1e-14


@pytest.mark.parametrize("deg", [0, 1, 2, 3])
def test_simpson_exact_on_low_degree_polynomials(deg):
    rule = QuadratureRule.simpson(8)
    vals = rule.nodes ** deg
    assert quad(vals, rule) == pytest.approx(1.0 / (deg + 1), abs=1e-15)


def test_gauss_exact_up_to_rule_degree():
    rule = QuadratureRule.gauss_legendre(6)   # exact through degree 11
    for deg in range(12):
        vals = rule.nodes ** deg
        assert quad(vals, rule) == pytest.approx(1.0 / (deg + 1), abs=1e-13)


def test_quad_constant_tensor():
    rule = QuadratureRule.simpson(16)
    A = np.array([[1.0, 2.0], [3.0, 4.0]])
    vals = np.broadcast_to(A, (17, 2, 2))
    assert np.allclose(quad(vals, rule), A)


def test_quad_linear_in_t():
    rule = QuadratureRule.simpson(4)
    A = np.array([2.0, -1.0])
    vals = rule.nodes[:, None] * A
    assert np.allclose(quad(vals, rule), A / 2.0)


def test_quad_exponential_against_antiderivative():
    # composite Simpson truncation at n=64 is ~(1/64)^4 (1-1/e)/180 ~ 2.1e-10
    rule = QuadratureRule.simpson(64)
    vals = np.exp(-rule.nodes)
    want = 1.0 - np.exp(-1.0)
    assert quad(vals, rule) == pytest.approx(want, abs=1e-9)
    assert quad(np.exp(-QuadratureRule.simpson(128).nodes),
                QuadratureRule.simpson(128)) == pytest.approx(want, abs=1e-10)


def test_simpson_observed_order():
    # quadrature error of a smooth integrand drops ~16x when doubling n
    f = lambda t: np.exp(np.sin(3.0 * t))
    exact = quad(f(QuadratureRule.simpson(4096).nodes),
                 QuadratureRule.simpson(4096))
    errs = []
    for n in (16, 32):
        rule = QuadratureRule.simpson(n)
        errs.append(abs(quad(f(rule.nodes), rule) - exact))
    assert 12.0 <= errs[0] / errs[1] <= 20.0


def test_cumulative_integral_matches_simpson_total():
    # same rule mathematically; summation order differs by ulps only
    rule = QuadratureRule.simpson(32)
    vals = np.exp(-rule.nodes)
    cum = cumulative_integral(vals, rule.nodes)
    assert cum[-1] == pytest.approx(quad(vals, rule), abs=1e-14)
    # additivity: increments are consistent prefix sums
    assert np.all(np.diff(cum) > 0)


# ---------------------------------------------------------------------------
# finite differences


def _quartic(P):
    """(N, 2) -> (N, 2, 2): polynomial entries of degree <= 4."""
    x, y = P[:, 0], P[:, 1]
    return np.stack([np.stack([x**4 - 2 * x**2 * y, y**3 + x], axis=-1),
                     np.stack([x * y**3, 0.5 * y**4 - x * y], axis=-1)], axis=1)


def _quartic_derivative(P, V):
    """sum_m V^m d_m _quartic at P, (B, D, 2, 2)."""
    x, y = P[:, 0, None], P[:, 1, None]
    vx, vy = V[..., 0], V[..., 1]
    d00 = (4 * x**3 - 4 * x * y) * vx - 2 * x**2 * vy
    d01 = vx + 3 * y**2 * vy
    d10 = y**3 * vx + 3 * x * y**2 * vy
    d11 = -y * vx + (2 * y**3 - x) * vy
    return np.stack([np.stack([d00, d01], axis=-1),
                     np.stack([d10, d11], axis=-1)], axis=-2)


def test_central_difference_exact_on_quartic():
    """The 4th-order stencil is exact for degree <= 4, up to roundoff; f is
    called once, on the centre rows and every offset row."""
    rng = np.random.default_rng(2)
    X = rng.uniform(-1, 1, (5, 2))
    V = rng.uniform(-1, 1, (5, 3, 2))
    calls = []

    def f(P):
        calls.append(P.shape)
        return _quartic(P)

    value, deriv = central_difference(f, X, V, 1e-2)
    assert calls == [(5 * (1 + 4 * 3), 2)]
    assert np.array_equal(value, _quartic(X))
    assert deriv.shape == (5, 3, 2, 2)
    assert np.max(np.abs(deriv - _quartic_derivative(X, V))) < 1e-12
