"""The collocation product of ``groupoid.multiply_poisson``: its accuracy
against the RK4 reference of ``product_oracle`` and against the one-level
sweeps of ``product_oracle.collocation_product``, closed forms on the
affine constant-Poisson groupoid, and the contracts of its per-row stop
rule and of its coarse phase."""

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

import product_oracle
from product_oracle import collocation_product, rk4_product

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
# every product on the affine constant_poisson groupoid is exact up to the
# rounding of O(1) values (about 1e-15 measured)
ROUNDOFF = 1e-14


@lru_cache(maxsize=None)
def _case(name, quad_nodes=None):
    """(groupoid, evaluator) of a bundled config, at ``quad_nodes`` if given."""
    raw = load_config(CONFIGS / f"{name}.json")
    if quad_nodes is not None:
        raw["numerics"]["quad_nodes"] = quad_nodes
    kind, nm, inputs = parse_config(raw)
    scen = scenarios.build(kind, nm, inputs)
    return scen.groupoid, scen.evaluator


def _dmu_rows(G, count, seed):
    """(rows, v, w, a, b): the complex d mu rows of ``count`` sampled
    composable pairs (a, b), one composable tangent pair (v, w) each."""
    a, b = sample_composable_pairs(G, count, seed)
    rng = SplitMix64(seed + 1)
    v = rng.uniform_rows([(-1, 1)] * G.dim, count)
    (w,) = composable_tangents_batch(G.flow_end(b)[1][:, : G.n], [v[:, : G.n]], rng)
    return groupoid._complex_step_rows(a, b, [(v, w)]), v, w, a, b


def _tangent_solves(monkeypatch, steps=None):
    """The row count of each tangent-flow solve made from now on, or of
    those of ``steps`` RK4 steps alone."""
    widths, original = [], FlowEngine.flow_with_jacobian

    def counted(self, P, nodes, *args):
        if steps in (None, len(nodes) - 1):
            widths.append(len(P))
        return original(self, P, nodes, *args)

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
    got = multiply_poisson(G, ev, *rows)
    rk32, rk64 = (rk4_product(G, ev, *rows, n) for n in (32, 64))
    for part in (np.real, lambda x: np.imag(x) / COMPLEX_STEP):
        error = np.max(np.abs(part(got) - part(rk64)))
        assert error <= max(np.max(np.abs(part(rk32) - part(rk64))), ROUNDOFF)


@pytest.mark.parametrize("name, bound, quad_nodes", [
    pytest.param("so3", 1e-14, None, id="so3-1e-14"),
    pytest.param("so3", 1e-14, 8, id="so3-1e-14-quad8"),
    pytest.param("so3", 1e-14, 16, id="so3-1e-14-quad16"),
    pytest.param("constant_poisson", 0.0, None, id="constant_poisson-0.0")])
def test_two_level_sweeps_match_one_level_collocation(name, bound, quad_nodes):
    """The two-level product (phase 1 and FAS cycles) agrees with the
    one-level Picard sweeps of the same collocation equations on 40
    complex d mu rows: on so3 at 64 nodes to 9.4e-16 in mu and 1.7e-15 in
    d mu (measured), at 8 and 16 nodes, whose coarse rules have 2 and 4
    nodes, to 8.9e-16 and 1.7e-15, and bit for bit on the affine
    constant_poisson, where the coarse rule's flow and omega are the fine
    rule's."""
    G, ev = _case(name, quad_nodes)
    rows = _dmu_rows(G, 40, 77)[0]
    got, want = multiply_poisson(G, ev, *rows), collocation_product(G, ev, *rows)
    assert np.max(np.abs(got.real - want.real)) <= bound
    assert np.max(np.abs(got.imag - want.imag)) / COMPLEX_STEP <= bound


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
    got = multiply_poisson(G, ev, *rows)
    mu = np.hstack([b[:, :2], a[:, 2:] + b[:, 2:]])
    dmu = np.hstack([w[:, :2], v[:, 2:] + w[:, 2:]])
    assert np.max(np.abs(got.real - mu)) <= ROUNDOFF
    assert np.max(np.abs(got.imag / COMPLEX_STEP - dmu)) <= ROUNDOFF
    inverse = np.hstack([a[:, :2] + a[:, 2:] @ R.T, -a[:, 2:]])
    assert np.max(np.abs(product_oracle.inverse(G, a) - inverse)) <= ROUNDOFF


def test_sweep_cap_raises_a_named_row_error():
    """so3 pairs need 3 to 6 phase-1 sweeps: a cap of 3 leaves phase 1
    unconverged, so every row restarts on the fine rule alone and the
    first row raises after 3 fine sweeps, and through the product
    schedule the error names its check."""
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
    """Unit rows (a a unit, so p = 0) stop after 1 phase-1 sweep and 1
    fine sweep, and so3 pairs after 4 phase-1 sweeps and one FAS cycle:
    a fine sweep, the coarse evaluation of C, 4 corrected coarse sweeps,
    then the second fine sweep.  Interleaved in one call, each row gets
    the bits of a call of its own, and each sweep narrows to the rows
    still active; the call's first sweep flies each row once."""
    G, ev = _case("so3")
    a, b = sample_composable_pairs(G, 3, 5)
    units = G.units(G.tau(b))
    A, B = np.stack([units, a], axis=1), np.stack([b, b], axis=1)
    widths = _tangent_solves(monkeypatch)
    mixed = multiply_poisson(G, ev, A.reshape(6, -1), B.reshape(6, -1))
    assert widths == ([6] + [PRODUCT_NODES * 3] * 3 + [PRODUCT_NODES * 6]
                      + [PRODUCT_NODES * 3] * 6)
    widths.clear()
    alone = [multiply_poisson(G, ev, A[i, j][None], B[i, j][None])[0]
             for i in range(3) for j in range(2)]
    assert widths == ([1, PRODUCT_NODES] + [1] + [PRODUCT_NODES] * 10) * 3
    assert all(np.array_equal(x, y) for x, y in zip(mixed, alone))
    assert np.array_equal(mixed[::2], b)


def test_complex_rows_sweep_until_their_derivative_converges(monkeypatch):
    """A unit a + i h (0, v) has a real part that converges at sweep 1, as
    the real unit does, but an imaginary part over h that needs a second
    phase-1 sweep and a second fine sweep, after the coarse evaluation of
    C and 1 corrected coarse sweep: the row keeps sweeping, and d mu
    agrees with RK4-32."""
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
    assert widths == [2] + [PRODUCT_NODES * 2] * 5
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
    """A row error raised at index j of a fine sweep's wide batch (nodes
    major, k active rows each) names product row active[j % k] and keeps
    its point.  Rows: unit, pair, unit, pair, unit, pair; the units stop
    after their first phase-1 and first fine sweep.  The phase-1 sweeps
    are 6 rows wide (the first flies each row once), then 3 x 6; the
    first fine sweep 6 x 6.  An error at 3 x 6 first strikes phase 1's
    second sweep, a coarse one: row 3 then restarts from b on the fine
    rule alone, rows 1 and 5 sweep 2 x 6 on the coarse rule, and the
    error raised is that of the second fine sweep, 3 x 6 wide over rows
    1, 3 and 5 (k = 3), the second error seen."""
    G, ev = _case("so3")
    a, b = sample_composable_pairs(G, 3, 5)
    A = np.stack([G.units(G.tau(b)), a], axis=1).reshape(6, -1)
    B = np.repeat(b, 2, axis=0)
    original = groupoid._check_conditioning
    seen = []

    def guard(W, points, bound):
        if len(points) == width:
            seen.append(points[index].real.copy())
            raise error(0.5, seen[-1], row=index)
        return original(W, points, bound)

    monkeypatch.setattr(groupoid, "_check_conditioning", guard)
    with pytest.raises(error) as err:
        multiply_poisson(G, ev, A, B)
    coarse_too = width == 3 * PRODUCT_NODES   # a coarse sweep's width too
    assert err.value.row == row and len(seen) == 1 + coarse_too
    assert f"batch row {row}, point (" in str(err.value)
    assert np.array_equal(err.value.point, seen[-1])


# the guard calls of the call below: phase 1 (6, then 3 x 6 wide, three
# times), the first fine sweep (6 x 6), the coarse evaluation of C and the
# corrected coarse sweeps (3 x 6 each), the second fine sweep (3 x 6)
_GUARD_CALLS = {"phase1": 1, "correction": 5, "corrected": 6}
_ROW_ERRORS = [DomainExitError, NonFiniteStateError, DegenerateFormError]


def _erring_guard(error, at, monkeypatch):
    """The widths of every guard call from now on; guard call ``at``
    raises ``error`` at flat index 7, product row 3 of rows 1, 3, 5."""
    original, widths = groupoid._check_conditioning, []

    def guard(W, points, bound):
        widths.append(len(points))
        if len(widths) == at + 1:
            assert len(points) == 3 * PRODUCT_NODES
            raise error(0.5, points[7].real, row=7)
        return original(W, points, bound)

    monkeypatch.setattr(groupoid, "_check_conditioning", guard)
    return widths


def _units_and_pairs(G):
    """Rows unit, pair, unit, pair, unit, pair over 3 so3 pairs."""
    a, b = sample_composable_pairs(G, 3, 5)
    A = np.stack([G.units(G.tau(b)), a], axis=1).reshape(6, -1)
    return A, np.repeat(b, 2, axis=0)


@pytest.mark.parametrize("error, at", [
    *(pytest.param(e, "phase1", id=e.__name__) for e in _ROW_ERRORS),
    *(pytest.param(e, at, id=f"{e.__name__}-{at}") for e in _ROW_ERRORS
      for at in ("correction", "corrected"))])
def test_coarse_row_error_restarts_the_row_on_the_fine_rule(error, at,
                                                            monkeypatch):
    """An error at index 7 of a 3 x 6 coarse solve (rows unit, pair, unit,
    pair, unit, pair, as above) is row 3's, whether it strikes phase 1's
    second sweep, the coarse evaluation of C after the first fine sweep,
    or the first corrected coarse sweep: the call returns, that row is
    the one-level product's bit for bit, the coarse solve is made again
    without it (2 x 6 rows), and every other row has the bits of a call
    of its own."""
    G, ev = _case("so3")
    A, B = _units_and_pairs(G)
    alone = [multiply_poisson(G, ev, A[i][None], B[i][None])[0] for i in range(6)]
    one_level = collocation_product(G, ev, A[3][None], B[3][None])[0]
    at = _GUARD_CALLS[at]
    widths = _erring_guard(error, at, monkeypatch)
    got = multiply_poisson(G, ev, A, B)
    assert widths[at:at + 2] == [3 * PRODUCT_NODES, 2 * PRODUCT_NODES]
    assert np.array_equal(got[3], one_level)
    assert all(np.array_equal(got[i], alone[i]) for i in (0, 1, 2, 4, 5))


@pytest.mark.parametrize("error", _ROW_ERRORS)
def test_restarted_row_meets_the_fine_sweep_cap(error, monkeypatch):
    """At a cap of 5 the pairs' FAS cycle fits (4 phase-1 sweeps, 4
    corrected coarse sweeps, 2 fine sweeps), but row 3, restarted from b
    by an error at its first corrected coarse sweep, needs more than 5
    fine sweeps alone: its fine-sweep cap raises ProductConvergenceError
    naming row 3."""
    G, ev = _case("so3")
    _erring_guard(error, _GUARD_CALLS["corrected"], monkeypatch)
    with pytest.raises(ProductConvergenceError) as err:
        multiply_poisson(G, ev, *_units_and_pairs(G), max_sweeps=5)
    assert (err.value.row, err.value.sweeps) == (3, 5)
    assert err.value.update > PICARD_BOUND
    assert "> 1.0e-13) at batch row 3, point (" in str(err.value)


def test_bundled_so3_rows_take_two_fine_sweeps(monkeypatch):
    """Every row of the three product calls of the bundled so3 check (20
    real, 50 complex and 20 real rows, at the check's seeds) stops at its
    second fine sweep: each call makes two solves on the 64-node rule,
    each over every node of every row (one-level sweeps took 10, 11 and
    10; phase 1 then the fine rule, 6, 6 and 6)."""
    raw = load_config(CONFIGS / "so3.json")
    nm = parse_config(raw)[1]
    G, ev = _case("so3")
    fine, calls, product = _tangent_solves(monkeypatch, 64), [], multiply_poisson

    def counted(G, ev, a, b, **kwargs):
        start = len(fine)
        out = product(G, ev, a, b, **kwargs)
        calls.append((len(a), fine[start:]))
        return out

    monkeypatch.setattr(groupoid, "multiply_poisson", counted)
    product_residuals(G, ev, nm.mult_pairs, nm.assoc_triples, nm.seed + 11,
                      nm.seed + 12, max_sweeps=nm.mu_steps)
    assert calls == [(rows, [PRODUCT_NODES * rows] * 2) for rows in (20, 50, 20)]
