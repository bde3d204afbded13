"""Spray flows, variational flow, quadrature, complex steps."""

import numpy as np
import pytest

from sprayform import expr as ex
from sprayform.errors import (DomainExitError, EvalDomainError,
                              NonFiniteStateError)
from sprayform.expr import parse
from sprayform.flow import (COMPLEX_STEP, FlowEngine, QuadratureRule,
                            complex_step, cumulative_integral)

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
    return eng.flow_on_grid(np.asarray(z0)[None, :], nodes, substeps)[0]


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
    _, J = eng.flow_with_jacobian(np.array([[0.1, 0.2]]), np.linspace(0, 1, 5))
    assert np.allclose(J[0], np.eye(2))


def test_constant_pi_jacobian_block_structure():
    # J_t = [[I, t S], [0, I]] with S = [[0,-1],[1,0]]
    eng = _const_pi_engine()
    _, J = eng.flow_with_jacobian(np.array([[0.1, 0.2, 0.3, -0.4]]),
                                  np.linspace(0, 1, 9))
    J = J[0]
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
    z_t, J1 = eng.flow_with_jacobian(z, grid_t)
    z2, J2 = eng.flow_with_jacobian(z_t, np.linspace(0, s, 33))
    dets = []
    z3, J3 = eng.flow_with_jacobian(
        z, np.linspace(0, t + s, 65),
        at_node=lambda k, node: dets.append(np.linalg.det(node.J[..., 0])))
    lhs = J2[0] @ J1[0]
    assert np.max(np.abs(lhs - J3[0])) < 1e-8
    # flow group property
    assert np.max(np.abs(z2[0] - z3[0])) < 1e-9
    # det J stays nonzero along the trajectory
    assert len(dets) == 65
    assert np.all(np.abs(dets) > 1e-6)


def test_rk4_observed_order_on_so3():
    xs = ["x1", "x2", "x3", "y1", "y2", "y3"]
    # so(3)* spray: base = pi#(x) y, fiber = 0
    comps = [parse("-y2*x3 + y3*x2", xs), parse("y1*x3 - y3*x1", xs),
             parse("-y1*x2 + y2*x1", xs), ex.ZERO, ex.ZERO, ex.ZERO]
    eng = FlowEngine(comps, xs)
    z = np.array([[0.4, -0.3, 0.5, 0.3, 0.2, -0.4]])
    ref = eng.flow_on_grid(z, np.linspace(0, 1, 2), substeps=512)[0]
    errs = []
    for sub in (16, 32):
        out = eng.flow_on_grid(z, np.linspace(0, 1, 2), substeps=sub)[0]
        errs.append(np.max(np.abs(out - ref)))
    factor = errs[0] / errs[1]
    assert 12.0 <= factor <= 20.0   # 16 +- 25%


def test_domain_exit_raises_with_time():
    box = np.array([[-1.0, 1.0], [-1.0, 1.0]])
    eng = FlowEngine([ex.ONE, ex.ZERO], XS2, box=box)
    with pytest.raises(DomainExitError) as err:
        eng.flow_on_grid(np.array([[0.9, 0.0]]), np.linspace(0, 1, 17))
    assert 0.0 < err.value.exit_time <= 0.2


def _streamed(eng):
    """flow_with_jacobian with a node consumer that reads the full state,
    so that it is written out at every node."""
    def solve(points, nodes, substeps=1):
        return eng.flow_with_jacobian(points, nodes, substeps,
                                      at_node=lambda k, node: node.J)
    return solve


def test_streamed_nodes_equal_truncated_solves():
    """Both consumers see, node by node, exactly the end state of the solve
    stopped at that node, and each solve returns the last node's state."""
    eng = FlowEngine([parse("x2 * x2 - y1", XYP), parse("x1 * y2", XYP),
                      parse("-y1 * y2", XYP), parse("y1 * y1", XYP)], XYP)
    P = np.array([[0.1, 0.2, 0.3, -0.4], [-0.3, 0.1, 0.2, 0.5],
                  [0.0, -0.2, -0.1, 0.3]])
    nodes = np.linspace(0.0, 1.0, 9)
    seen, seen_z = [], []
    z_end, J_end = eng.flow_with_jacobian(
        P, nodes, 2, at_node=lambda k, node: seen.append(
            (k, node.z.T.copy(), node.J.transpose(2, 0, 1).copy())))
    grid_end = eng.flow_on_grid(
        P, nodes, 2, at_node=lambda k, node: seen_z.append((k, node.z.T.copy())))
    assert [k for k, _, _ in seen] == [k for k, _ in seen_z] == \
        list(range(len(nodes)))
    for (k, z, J), (_, zg) in zip(seen, seen_z):
        z_k, J_k = eng.flow_with_jacobian(P, nodes[:k + 1], 2)
        assert np.array_equal(z, z_k) and np.array_equal(zg, z_k)
        assert np.array_equal(J, J_k)
    assert np.array_equal(z_end, seen[-1][1])
    assert np.array_equal(J_end, seen[-1][2])
    assert np.array_equal(grid_end, z_end)


def test_domain_exit_names_batch_row():
    box = np.array([[-1.0, 1.0], [-1.0, 1.0]])
    eng = FlowEngine([ex.ONE, ex.ZERO], XS2, box=box)
    P = np.array([[0.0, 0.0], [-0.5, 0.3], [0.95, -0.2], [0.1, 0.1]])
    for solve in (eng.flow_on_grid, eng.flow_with_jacobian, _streamed(eng)):
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
    for solve in (eng.flow_on_grid, eng.flow_with_jacobian, _streamed(eng)):
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


@pytest.mark.parametrize("deg", [0, 1, 2, 3])
def test_simpson_exact_on_low_degree_polynomials(deg):
    rule = QuadratureRule.simpson(8)
    vals = rule.nodes ** deg
    assert vals @ rule.weights == pytest.approx(1.0 / (deg + 1), abs=1e-15)


def test_quad_constant_tensor():
    rule = QuadratureRule.simpson(16)
    A = np.array([[1.0, 2.0], [3.0, 4.0]])
    vals = np.broadcast_to(A[..., None], (2, 2, 17))
    assert np.allclose(vals @ rule.weights, A)


def test_quad_linear_in_t():
    rule = QuadratureRule.simpson(4)
    A = np.array([2.0, -1.0])
    vals = A[:, None] * rule.nodes
    assert np.allclose(vals @ rule.weights, A / 2.0)


def test_quad_exponential_against_antiderivative():
    # composite Simpson truncation at n=64 is ~(1/64)^4 (1-1/e)/180 ~ 2.1e-10
    rule = QuadratureRule.simpson(64)
    vals = np.exp(-rule.nodes)
    want = 1.0 - np.exp(-1.0)
    assert vals @ rule.weights == pytest.approx(want, abs=1e-9)
    fine = QuadratureRule.simpson(128)
    assert np.exp(-fine.nodes) @ fine.weights == pytest.approx(want, abs=1e-10)


def test_simpson_observed_order():
    # quadrature error of a smooth integrand drops ~16x when doubling n
    f = lambda t: np.exp(np.sin(3.0 * t))
    ref = QuadratureRule.simpson(4096)
    exact = f(ref.nodes) @ ref.weights
    errs = []
    for n in (16, 32):
        rule = QuadratureRule.simpson(n)
        errs.append(abs(f(rule.nodes) @ rule.weights - exact))
    assert 12.0 <= errs[0] / errs[1] <= 20.0


def test_cumulative_integral_matches_simpson_total():
    # same rule mathematically; summation order differs by ulps only
    rule = QuadratureRule.simpson(32)
    vals = np.exp(-rule.nodes)
    cum = cumulative_integral(vals, rule.nodes)
    assert cum[-1] == pytest.approx(vals @ rule.weights, abs=1e-14)
    # additivity: increments are consistent prefix sums
    assert np.all(np.diff(cum) > 0)


# ---------------------------------------------------------------------------
# complex steps


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


def test_complex_step_exact_on_quartic():
    """The complex step is the exact derivative up to roundoff; f is called
    once, on one complex row per point and direction, direction-major."""
    rng = np.random.default_rng(2)
    X = rng.uniform(-1, 1, (5, 2))
    V = rng.uniform(-1, 1, (5, 3, 2))
    calls = []

    def f(P):
        calls.append(P)
        return _quartic(P)

    deriv = complex_step(f, X, V)
    assert [P.shape for P in calls] == [(5 * 3, 2)]
    assert np.array_equal(calls[0][5:10], X + 1j * COMPLEX_STEP * V[:, 1])
    assert deriv.shape == (5, 3, 2, 2)
    assert np.max(np.abs(deriv - _quartic_derivative(X, V))) < 1e-14


# ---------------------------------------------------------------------------
# error paths of the live-row engine: the messages of the dense [z | J]
# engine it replaced


def _solves(eng):
    return (eng.flow_on_grid, eng.flow_with_jacobian, _streamed(eng))


def test_domain_error_in_rhs_is_eval_domain_error():
    # x1 = 0.5 - t reaches 0 exactly at the last stage of the second step,
    # where dx2/dt = 1/x1 divides by zero
    eng = FlowEngine([ex.const(-1.0), parse("1/x1", XS2)], XS2)
    P = np.array([[0.9, 0.0], [0.5, 0.0]])
    for solve in _solves(eng):
        with pytest.raises(EvalDomainError) as err:
            solve(P, np.linspace(0.0, 1.0, 5))
        assert str(err.value) == ("domain violation during evaluation: "
                                  "divide by zero encountered in divide")


def test_rk4_overflow_names_time_and_row():
    # dx1/dt = x2 with x2 = 1e308 in row 2 only: the RK4 sum overflows in
    # the first step, and its box check names row 2 at t = 0.25
    eng = FlowEngine([parse("x2", XS2), ex.ZERO], XS2)
    P = np.array([[0.1, 0.2], [0.0, -0.5], [0.0, 1e308], [0.3, 1e308]])
    for solve in _solves(eng):
        with np.errstate(over="ignore"), \
                pytest.raises(NonFiniteStateError) as err:
            solve(P, np.linspace(0.0, 1.0, 5))
        assert str(err.value) == ("flow state is not finite at t=0.25, "
                                  "batch row 2, point (inf, 1e+308)")
        assert err.value.row == 2


def test_frozen_coordinate_outside_box_at_start():
    # x2 has no velocity and no partials: it is frozen and checked at t = 0
    box = np.array([[-1.0, 1.0], [-1.0, 1.0]])
    eng = FlowEngine([parse("x2", XS2), ex.ZERO], XS2, box=box)
    assert eng.frozen == (1,)
    P = np.array([[0.0, 0.5], [0.1, 1.5], [0.2, -2.0]])
    for solve in _solves(eng):
        with pytest.raises(DomainExitError) as err:
            solve(P, np.linspace(0.0, 1.0, 5))
        assert str(err.value) == ("trajectory left the domain box at t=0, "
                                  "batch row 1, point (0.1, 1.5)")


def test_tangent_overflow_leaves_the_state_alone():
    # dx1/dt = x1 x2 with x1 = 0 and x2 frozen: z stays put while
    # dJ_11/dt = x2 J_11 overflows in row 1 only, in the first step.  The
    # step is redone with errors ignored, and the non-finite J names its
    # row and end time, under any error state of the caller; the point is
    # the row's z, which is finite
    eng = FlowEngine([parse("x1 * x2", XS2), ex.ZERO], XS2)
    P = np.array([[0.0, 1.0], [0.0, 1e308]])
    nodes = np.linspace(0.0, 1.0, 5)
    for over in ("ignore", "raise"):
        with np.errstate(over=over), \
                pytest.raises(NonFiniteStateError) as err:
            eng.flow_with_jacobian(P, nodes)
        assert str(err.value) == ("flow state is not finite at t=0.25, "
                                  "batch row 1, point (0, 1e+308)")
        assert err.value.row == 1
    # row 0 alone stays finite: J_11 = e^t
    z, J = eng.flow_with_jacobian(P[:1], nodes)
    assert np.array_equal(z, P[:1])
    assert abs(J[0, 0, 0] - np.e) < 1e-3 and np.isfinite(J).all()


def test_consumers_run_under_the_callers_error_state():
    eng = FlowEngine([parse("x2", XS2), ex.ZERO], XS2)
    P = np.array([[0.1, 0.2]])
    nodes = np.linspace(0.0, 1.0, 3)
    seen = []
    with np.errstate(over="ignore", divide="warn", invalid="print"):
        eng.flow_on_grid(P, nodes,
                         at_node=lambda k, node: seen.append(np.geterr()))
        eng.flow_with_jacobian(P, nodes,
                               at_node=lambda k, node: seen.append(np.geterr()))
    assert len(seen) == 6
    assert all((s["over"], s["divide"], s["invalid"]) == ("ignore", "warn", "print")
               for s in seen)


# ---------------------------------------------------------------------------
# complex rows (the complex step of d mu)


def test_complex_step_of_the_flow_is_its_tangent_map():
    """Im phi(z + i h v) / h is J v to roundoff, and the real part is the
    real flow; the box check reads the real part."""
    comps = [parse("x2 * x2 - y1", XYP), parse("sqrt(x1 + 2) * y2", XYP),
             parse("-y1 * y2 / (1 + x1 * x1)", XYP), parse("log(2 + y1)", XYP)]
    box = [[-1.5, 1.5]] * 2 + [[-np.inf, np.inf]] * 2
    eng = FlowEngine(comps, XYP, box=box)
    P = np.array([[0.1, 0.2, 0.3, -0.2], [-0.3, 0.1, -0.1, 0.4]])
    V = np.array([[0.5, -1.0, 0.2, 0.3], [1.0, 0.0, -0.7, 0.1]])
    h = 1e-20
    nodes = np.linspace(0.0, 1.0, 9)
    z, J = eng.flow_with_jacobian(P, nodes)
    for solve in _solves(eng):
        out = solve(P + 1j * h * V, nodes)
        zc = out[0] if isinstance(out, tuple) else out
        assert zc.dtype == np.complex128
        assert np.max(np.abs(zc.real - z)) < 1e-15
        assert np.max(np.abs(zc.imag / h - np.einsum("bij,bj->bi", J, V))) < 1e-14


@pytest.mark.parametrize("field, start", [("1/x1", 0.5), ("sqrt(x1)", 0.3),
                                          ("log(x1)", 0.3), ("1/(x1*x1)", 0.5)])
def test_complex_rows_in_rhs_raise_the_real_domain_error(field, start):
    # x1 = start - t: its real part leaves the field's domain, where the
    # complex sqrt, log and division of numpy raise nothing; at x1 = i h,
    # x1 * x1 is -h^2, not 0, so only the real row's value divides by zero
    eng = FlowEngine([ex.const(-1.0), parse(field, XS2)], XS2)
    P = np.array([[0.9, 0.0], [start, 0.0]])
    nodes = np.linspace(0.0, 1.0, 5)
    for solve in _solves(eng):
        with pytest.raises(EvalDomainError) as real:
            solve(P, nodes)
        with pytest.raises(EvalDomainError) as cplx:
            solve(P + 1e-20j, nodes)
        assert str(cplx.value) == str(real.value)


def test_complex_rows_in_rhs_raise_the_first_real_error():
    # V_1 = exp(x1) overflows before V_2 = 1/x2 divides by zero, on the real
    # row and on the complex row alike
    eng = FlowEngine([parse("exp(x1)", XS2), parse("1/x2", XS2)], XS2)
    P = np.array([[1000.0, 0.0]])
    nodes = np.linspace(0.0, 1.0, 5)
    for solve in _solves(eng):
        with pytest.raises(EvalDomainError,
                           match="overflow encountered in exp") as real:
            solve(P, nodes)
        with pytest.raises(EvalDomainError) as cplx:
            solve(P + 1e-20j, nodes)
        assert str(cplx.value) == str(real.value)


def test_nonfinite_imaginary_part_raises():
    # the imaginary part of x1 overflows in the RK4 sum of the first step
    # in row 1 (and turns its real part NaN: numpy's complex product
    # inf * 0), or is infinite at the start where the real part is finite
    eng = FlowEngine([parse("x2", XS2), ex.ZERO], XS2)
    nodes = np.linspace(0.0, 1.0, 5)
    P = np.array([[0.1, 0.2], [0.0, -0.5 + 1e308j]])
    for solve in _solves(eng):
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(NonFiniteStateError) as err:
            solve(P, nodes)
        assert (err.value.time, err.value.row) == (0.25, 1)
        with pytest.raises(NonFiniteStateError,
                           match=r"t=0, batch row 0, point \(0.1, 0.2\)"):
            solve(np.array([[complex(0.1, np.inf), 0.2]]), nodes)
