"""The collocation product of ``groupoid.multiply_poisson``: its accuracy
against the RK4 reference of ``product_oracle``, closed forms on the affine
constant-Poisson groupoid, and the contracts of its per-row stop rule."""

from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

from sprayform import groupoid, scenarios
from sprayform.cli import load_config, parse_config
from sprayform.errors import (
    DegenerateFormError,
    DomainExitError,
    NonFiniteStateError,
    ProductConvergenceError,
)
from sprayform.flow import COMPLEX_STEP, FlowEngine
from sprayform.groupoid import (
    PICARD_BOUND,
    PRODUCT_NODES,
    composable_tangents_batch,
    multiply_poisson,
    product_residuals,
    sample_composable_pairs,
)
from sprayform.report import SplitMix64

from product_oracle import rk4_product

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
# every product on the affine constant_poisson groupoid is exact up to the
# rounding of O(1) values (about 1e-15 measured)
ROUNDOFF = 1e-14


@lru_cache(maxsize=None)
def _case(name):
    kind, nm, inputs = parse_config(load_config(CONFIGS / f"{name}.json"))
    scen = scenarios.build(kind, nm, inputs)
    return scen.groupoid, scen.evaluator


def _dmu_rows(G, count, seed):
    """(rows, v, w, a, b): the complex d mu rows of ``count`` sampled
    composable pairs (a, b), one composable tangent pair (v, w) each."""
    a, b = sample_composable_pairs(G, count, seed)
    rng = SplitMix64(seed + 1)
    v = rng.uniform_rows([(-1, 1)] * G.dim, count)
    (w,) = composable_tangents_batch(G.tau_with_jacobian(b)[1], [v[:, : G.n]], rng)
    return groupoid._complex_step_rows(a, b, [(v, w)]), v, w, a, b


def _tangent_solves(monkeypatch):
    """The row count of each tangent-flow solve made from now on."""
    widths, original = [], FlowEngine.flow_with_jacobian

    def counted(self, P, *args):
        widths.append(len(P))
        return original(self, P, *args)

    monkeypatch.setattr(FlowEngine, "flow_with_jacobian", counted)
    return widths


@pytest.mark.parametrize("name", ["so3", "constant_poisson"])
def test_collocation_is_as_accurate_as_rk4_32(name):
    """mu and d mu (the real part and the imaginary part over h of complex
    rows) are at least as close to RK4 with 64 steps as RK4 with 32 steps
    is.  On so3 the collocation errors are 3.7e-14 (mu) and 2.1e-13 (d mu)
    against 5.5e-13 and 3.2e-12 for RK4-32.  constant_poisson is affine,
    so there all three are exact up to roundoff (1.8e-15 against 1.1e-15
    on d mu), and the gate compares rounding: it allows ROUNDOFF."""
    G, ev = _case(name)
    rows = _dmu_rows(G, 6, 31)[0]
    got = multiply_poisson(G, ev, rows.a, rows.b)
    rk32, rk64 = (rk4_product(G, ev, rows.a, rows.b, n) for n in (32, 64))
    for part in (np.real, lambda x: np.imag(x) / COMPLEX_STEP):
        error = np.max(np.abs(part(got) - part(rk64)))
        assert error <= max(np.max(np.abs(part(rk32) - part(rk64))), ROUNDOFF)


def test_fiber_flight_steps_each_gap_on_its_own(monkeypatch):
    """a flies to the Gauss nodes on a grid that gives each gap of
    [0, t_1, ..., t_6] the fewest equal steps of at most 1/64 on so3:
    3 + 9 + 14 + 16 + 14 + 9 = 65 steps, 66 nodes (16 steps in every gap
    took 96), with every t_i a node of its own."""
    grids, original = [], FlowEngine.flow_on_grid

    def recorded(self, P, nodes, *args):
        grids.append(nodes)
        return original(self, P, nodes, *args)

    monkeypatch.setattr(FlowEngine, "flow_on_grid", recorded)
    G, ev = _case("so3")
    multiply_poisson(G, ev, *sample_composable_pairs(G, 2, 5))
    grid = grids[-1]         # after the flight of tau(b)
    t, _ = groupoid._collocation(PRODUCT_NODES)
    assert len(grid) == 66 and grid[0] == 0.0
    assert np.max(np.diff(grid)) <= 1 / 64
    assert np.array_equal(grid[[3, 12, 26, 42, 56, 65]], t)


def test_constant_poisson_product_inverse_and_dmu_are_affine():
    """On constant_poisson (pi = d1 ^ d2) the flow is x + t R y with
    R = [[0, -1], [1, 0]], so tau(x, y) = x + R y, the inverse is
    (x + R y, -y), mu((x_a, y_a), (x_b, y_b)) = (x_b, y_a + y_b) and
    d mu(v, w) = (w_x, v_y + w_y).  Measured: mu 1.4e-17, d mu 2.2e-16,
    inverse 2.2e-15 (the flow's rounding)."""
    G, ev = _case("constant_poisson")
    rows, v, w, a, b = _dmu_rows(G, 8, 41)
    R = np.array([[0.0, -1.0], [1.0, 0.0]])
    got = multiply_poisson(G, ev, rows.a, rows.b)
    mu = np.hstack([b[:, :2], a[:, 2:] + b[:, 2:]])
    dmu = np.hstack([w[:, :2], v[:, 2:] + w[:, 2:]])
    assert np.max(np.abs(got.real - mu)) <= ROUNDOFF
    assert np.max(np.abs(got.imag / COMPLEX_STEP - dmu)) <= ROUNDOFF
    inverse = np.hstack([a[:, :2] + a[:, 2:] @ R.T, -a[:, 2:]])
    assert np.max(np.abs(G.inverse(a) - inverse)) <= ROUNDOFF


def test_sweep_cap_raises_a_named_row_error():
    """so3 rows need 9 to 11 sweeps: a cap of 3 raises at the first row,
    and through the product schedule the error names its check."""
    G, ev = _case("so3")
    a, b = sample_composable_pairs(G, 3, 5)
    with pytest.raises(ProductConvergenceError) as err:
        multiply_poisson(G, ev, a, b, max_sweeps=3)
    assert (err.value.row, err.value.sweeps) == (0, 3)
    assert err.value.update > PICARD_BOUND
    with pytest.raises(ProductConvergenceError) as err:
        product_residuals(G, ev, 2, 2, 1, 2, max_sweeps=3)
    assert err.value.row == 0
    assert str(err.value).startswith(
        "associativity stage 1: product did not converge in 3 sweeps "
        "(last update ")
    assert "> 1.0e-13) at batch row 0, point (" in str(err.value)


def test_rows_stop_on_their_own(monkeypatch):
    """Unit rows (a a unit, so p = 0) stop after 1 sweep and so3 pairs
    after 9.  Interleaved in one call, each row gets the bits of a call of
    its own, and the call narrows to the active rows after sweep 1."""
    G, ev = _case("so3")
    a, b = sample_composable_pairs(G, 3, 5)
    units = G.units(G.tau(b))
    A, B = np.stack([units, a], axis=1), np.stack([b, b], axis=1)
    widths = _tangent_solves(monkeypatch)
    mixed = multiply_poisson(G, ev, A.reshape(6, -1), B.reshape(6, -1))
    assert widths == [PRODUCT_NODES * 6] + [PRODUCT_NODES * 3] * 8
    widths.clear()
    alone = [multiply_poisson(G, ev, A[i, j][None], B[i, j][None])[0]
             for i in range(3) for j in range(2)]
    assert widths == [PRODUCT_NODES] * (3 * (1 + 9))
    assert all(np.array_equal(x, y) for x, y in zip(mixed, alone))
    assert np.array_equal(mixed[::2], b)


def test_complex_rows_sweep_until_their_derivative_converges(monkeypatch):
    """A unit a + i h (0, v) has a real part that converges at sweep 1, as
    the real unit does, but an imaginary part over h that needs a second
    sweep: the row keeps sweeping, and d mu agrees with RK4-32."""
    G, ev = _case("so3")
    _, b = sample_composable_pairs(G, 2, 5)
    units = G.units(G.tau(b))
    v = SplitMix64(6).uniform_rows([(-1, 1)] * G.r, 2)
    stepped = units + 1j * COMPLEX_STEP * np.hstack([np.zeros((2, G.n)), v])
    assert np.array_equal(multiply_poisson(G, ev, units, b, max_sweeps=1), b)
    with pytest.raises(ProductConvergenceError) as err:
        multiply_poisson(G, ev, stepped, b, max_sweeps=1)
    assert err.value.row == 0
    widths = _tangent_solves(monkeypatch)
    got = multiply_poisson(G, ev, stepped, b)
    assert widths == [PRODUCT_NODES * 2] * 2
    monkeypatch.undo()
    assert np.array_equal(got.real, b)
    want = rk4_product(G, ev, stepped, b, 32).imag / COMPLEX_STEP
    assert np.max(np.abs(got.imag / COMPLEX_STEP - want)) < 1e-13


@pytest.mark.parametrize("error", [DomainExitError, NonFiniteStateError,
                                   DegenerateFormError])
@pytest.mark.parametrize("width, index, row", [(6 * PRODUCT_NODES, 13, 1),
                                               (3 * PRODUCT_NODES, 7, 3)])
def test_node_row_errors_name_their_product_row(error, width, index, row,
                                                monkeypatch):
    """A row error raised at index j of a sweep's wide batch (nodes major,
    k active rows each) names product row active[j % k] and keeps its
    point.  Rows: unit, pair, unit, pair, unit, pair; the units stop after
    sweep 1, so sweep 2 has k = 3 active rows, 1, 3 and 5."""
    G, ev = _case("so3")
    a, b = sample_composable_pairs(G, 3, 5)
    A = np.stack([G.units(G.tau(b)), a], axis=1).reshape(6, -1)
    B = np.repeat(b, 2, axis=0)
    original = groupoid._check_conditioning
    seen = []

    def guard(W, points, bound):
        if len(points) == width:
            seen.append(points[index].real.copy())
            raise error(0.5, seen[0], row=index)
        return original(W, points, bound)

    monkeypatch.setattr(groupoid, "_check_conditioning", guard)
    with pytest.raises(error) as err:
        multiply_poisson(G, ev, A, B)
    assert err.value.row == row
    assert f"batch row {row}, point (" in str(err.value)
    assert np.array_equal(err.value.point, seen[0])
