"""FlowEngine against the dense [z | J] flow of tests/flow_oracle.py, on the
spray of every bundled config, a spray whose fiber rows are live, a chart
with a frozen base coordinate and a field whose live rows are not
consecutive; and tau and the product on so(3)* against their closed
forms."""

from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

from sprayform import expr as ex
from sprayform import scenarios
from sprayform.algebroid import cotangent_algebroid, default_spray
from sprayform.cli import load_config, parse_config
from sprayform.expr import BivectorField, parse
from sprayform.flow import FlowEngine
from sprayform.groupoid import (MultFormEvaluator, SprayGroupoid,
                                discover_validity_box, multiply_poisson,
                                sample_composable_pairs)
from sprayform.imform import linear_form, poisson_im_pair

import flow_oracle
from conftest import XS3, so3_bivector

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
BUNDLED = sorted(p.stem for p in CONFIGS.glob("*.json"))
BOX3 = [[-1.0, 1.0]] * 3


def _poisson_case(pi, box, christoffel=None):
    """Groupoid and evaluator of a Poisson chart built without the gates."""
    A = cotangent_algebroid(pi, box)
    G = SprayGroupoid(A, default_spray(A, christoffel))
    discover_validity_box(G)
    return G, MultFormEvaluator(G, linear_form(poisson_im_pair(A)))


@lru_cache(maxsize=None)
def _case(name):
    if name == "christoffel":
        # so(3)* with a connection: the fiber rows are live
        table = [[[ex.ZERO] * 3 for _ in range(3)] for _ in range(3)]
        table[0][1][2] = parse("x2", XS3)
        table[1][2][0] = ex.const(0.5)
        table[2][0][1] = parse("-x1 * x3", XS3)
        return _poisson_case(so3_bivector(), BOX3, table)
    if name == "frozen_base":
        # pi = x1 x3 d1^d2 is Poisson with a zero anchor row: x3 is frozen
        # but appears in the other rows' velocities
        return _poisson_case(
            BivectorField(3, {(0, 1): parse("x1 * x3", XS3)}, XS3), BOX3)
    kind, nm, inputs = parse_config(load_config(CONFIGS / f"{name}.json"))
    if name == "bad_poisson":    # its Poisson gate fails before any groupoid
        return _poisson_case(inputs["pi"], inputs["box"])
    scen = scenarios.build(kind, nm, inputs)
    return scen.groupoid, scen.evaluator


def test_live_rows_come_from_the_symbolic_partials():
    assert _case("so3")[0].engine.live == (0, 1, 2)
    assert _case("christoffel")[0].engine.live == tuple(range(6))
    assert _case("frozen_base")[0].engine.frozen == (2, 3, 4, 5)
    assert _case("jacobi_line")[0].engine.live == (0,)


@pytest.mark.parametrize("B", [1, 7, 550])
@pytest.mark.parametrize("name", BUNDLED + ["christoffel", "frozen_base"])
def test_engine_matches_dense_oracle(name, B):
    """End z equals the oracle's bit for bit (z never reads J); end J,
    omega and d omega agree to roundoff: 16 ulps of the largest entry (6.4
    measured, on christoffel).  Points at half the validity radius, where
    every config's flows stay in the box."""
    G, ev = _case(name)
    P = G.sample_validity_points(B, seed=31, fiber_scale=0.5)
    z, J = G.engine.flow_with_jacobian(P, G._grid, G.substeps)
    z0, J0 = flow_oracle.flow_with_jacobian(G.spray.components,
                                            G.spray.variables, P, G._grid,
                                            G.substeps)
    assert np.array_equal(z, z0)
    assert np.array_equal(G.engine.flow_on_grid(P, G._grid, G.substeps), z0)
    errs = [flow_oracle.roundoff(J, J0), flow_oracle.roundoff(
        ev.omega_full(P), flow_oracle.omega_full(G, ev.form, P, ev.weight_cocycle))]
    if ev.weight_cocycle is None:
        errs.append(flow_oracle.roundoff(
            ev.domega_full(P), flow_oracle.omega_full(G, ev.form.d(), P)))
    assert max(errs) <= 16.0


def test_scattered_live_rows_match_dense_oracle():
    """Live coordinates 1 and 3 between frozen ones, node by node."""
    xs = ["x1", "x2", "y1", "y2"]
    comps = [ex.ZERO, parse("x1 * y2 - sin(x2)", xs), ex.ZERO,
             parse("x2 * y1", xs)]
    eng = FlowEngine(comps, xs)
    assert eng.live == (1, 3)
    P = np.random.default_rng(3).uniform(-0.5, 0.5, (7, 4))
    nodes = np.linspace(0.0, 1.0, 9)
    seen, want = [], []
    eng.flow_with_jacobian(P, nodes, 2, lambda k, node: seen.append(
        (node.z.T.copy(), node.J.transpose(2, 0, 1).copy())))
    flow_oracle.flow_with_jacobian(comps, xs, P, nodes, 2,
                                   lambda k, z, J: want.append((z, J)))
    for (z, J), (z0, J0) in zip(seen, want, strict=True):
        assert np.array_equal(z, z0)
        assert flow_oracle.roundoff(J, J0) <= 16.0


def test_so3_tau_matches_closed_form():
    """On so(3)*, tau(x, y) = exp(-M(y)) x with M(y) v = y x v.  At 64 RK4
    steps and |y| <= 0.8 the error is the truncation error, below 1.2e-9
    (5.7e-10 measured; up to 2.2e-9 at the full radius 1), and halving the
    step divides it by about 2^4."""
    G, _ = _case("so3")
    P = G.sample_validity_points(20, seed=20240, fiber_scale=0.8)
    x, y = P[:, :3], P[:, 3:]
    theta = np.linalg.norm(y, axis=1)[:, None]
    cross = np.cross(y, x)
    want = (x - np.sin(theta) / theta * cross
            + (1.0 - np.cos(theta)) / theta ** 2 * np.cross(y, cross))
    err = np.max(np.abs(G.tau(P) - want))
    fine = SprayGroupoid(G.chart, G.spray, substeps=2)
    assert err <= 1.2e-9
    assert 12.0 <= err / np.max(np.abs(fine.tau(P) - want)) <= 20.0


def _rotation(y):
    """exp(-M(y)) by Rodrigues' formula, M(y) v = y x v, batched."""
    theta = np.linalg.norm(y, axis=1)[:, None, None]
    M = np.zeros((len(y), 3, 3))
    M[:, 0, 1], M[:, 0, 2], M[:, 1, 2] = -y[:, 2], y[:, 1], -y[:, 0]
    M -= np.swapaxes(M, 1, 2)
    return (np.eye(3) - np.sin(theta) / theta * M
            + (1.0 - np.cos(theta)) / theta ** 2 * M @ M)


def test_so3_product_composes_rotations():
    """On so(3)*, g = (x, y) acts as the rotation exp(-M(y)) (tau above),
    and the product is composition: exp(-M(y_ab)) = exp(-M(y_a))
    exp(-M(y_b)), with the base x_ab = x_b.  On 20 sampled pairs at the
    bundled numerics (64 nodes, 32 product steps) the rotations agree to
    5e-11 (2.34e-11 measured) and the bases to 2e-10 (8.46e-11 measured)."""
    G, ev = _case("so3")
    a, b = sample_composable_pairs(G, 20, 7)
    ab = multiply_poisson(G, ev, a, b, n_steps=32)
    err = _rotation(ab[:, 3:]) - _rotation(a[:, 3:]) @ _rotation(b[:, 3:])
    assert np.max(np.abs(err)) <= 5e-11
    assert np.max(np.abs(ab[:, :3] - b[:, :3])) <= 2e-10
