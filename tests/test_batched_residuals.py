"""Residuals come in rows.

The checks' linear algebra runs on stacks of sample rows: a stacked product
makes one small product per row, which rounds as the per-row ``@`` does, so
each batched check equals its per-row reference (``residual_oracle``) bit
for bit.  Residuals are folded by numpy reductions, so a NaN among them is
the result, and the check fails; each fold below is shown so with one value
made NaN.
"""

import functools
import gc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sprayform import groupoid, scenarios
from sprayform.cli import load_config, main, parse_config
from sprayform.expr import FormField, parse
from sprayform.flow import FlowEngine
from sprayform.imform import IMFormData, im_residuals
from sprayform.report import CheckReport
from sprayform.scenarios import (NijenhuisPair, _dot, _mv, _vm, omega_L,
                                 omega_L2, pi_pushforwards_residual,
                                 torsion_identity_check)

import residual_oracle
from conftest import same_bits

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


@functools.cache
def _built(name):
    """The scenario of a bundled config, built once; its checks not run."""
    return scenarios.build(*parse_config(load_config(CONFIGS / f"{name}.json")))


def _recorded(monkeypatch):
    """(method, name) -> the raw value that each ``CheckReport.add``,
    ``add_pointwise`` (the per-point array) and ``add_margin`` gets from
    now on."""
    values = {}
    for method in ("add", "add_pointwise", "add_margin"):
        def spy(self, name, value, *args, _real=getattr(CheckReport, method),
                _method=method, **kwargs):
            values[_method, name] = value
            return _real(self, name, value, *args, **kwargs)
        monkeypatch.setattr(CheckReport, method, spy)
    return values


# ---------------------------------------------------------------------------
# the batched idioms


_DIMS = st.integers(1, 12)
_BATCHES = st.sampled_from([1, 2, 7, 40])


@settings(max_examples=60, deadline=None)
@given(m=_DIMS, k=_DIMS, batch=_BATCHES, seed=st.integers(0, 2**32 - 1))
def test_stacked_products_round_as_the_rows_do(m, k, batch, seed):
    """Row-vector times matrix, matrix times column, row times column and
    the contraction of a (d, d, d) tensor with two rows: the stacked forms
    equal one 1-D product per row, on contiguous stacks, transposed views
    (W^T) and column slices (F[..., :n]) alike.  The contraction is held to
    the cubic tensors that the torsion identity contracts: numpy 2.4 sums a
    stack of (2, 2, 1) tensors in another order than one such tensor.

    The stacks keep one small product per row on purpose.  The all-at-once
    ``c @ forms[:, None]`` of ``im_residuals``, (B, r, r, r) @ (B, 1, r, nC),
    is one matrix-matrix product per (row, i), which a BLAS may round
    differently from the (1, r) @ (r, nC) products of each (i, j); so it is
    not used, and not tested here, since how it rounds depends on the BLAS.
    """
    rng = np.random.default_rng(seed)
    x, y = rng.standard_normal((2, batch, m))
    M = rng.standard_normal((batch, m, k))
    S = rng.standard_normal((batch, m, m))
    wide = rng.standard_normal((batch, m, k + 3))
    T = rng.standard_normal((batch, m, m, m))
    z = rng.standard_normal((batch, k))
    for mat in (M, wide[..., :k]):
        assert same_bits(_vm(x, mat), [x[b] @ mat[b] for b in range(batch)])
    for mat in (S, np.swapaxes(S, 1, 2)):
        assert same_bits(_mv(mat, y), [mat[b] @ y[b] for b in range(batch)])
    assert same_bits(_mv(np.swapaxes(M, 1, 2), x),
                     [M[b].T @ x[b] for b in range(batch)])
    assert same_bits(_mv(M, z), [M[b] @ z[b] for b in range(batch)])
    assert same_bits(_dot(x, y), [x[b] @ y[b] for b in range(batch)])
    assert same_bits(np.einsum("bijk,bi,bj->bk", T, x, y),
                     [np.einsum("ijk,i,j->k", T[b], x[b], y[b])
                      for b in range(batch)])


@settings(max_examples=60, deadline=None)
@given(rows=_DIMS, cols=_DIMS, batch=_BATCHES, seed=st.integers(0, 2**32 - 1))
def test_stacked_svd_is_the_per_row_svd(rows, cols, batch, seed):
    """One SVD of a (B, rows, cols) stack equals an SVD per row, singular
    values and full factors alike."""
    A = np.random.default_rng(seed).standard_normal((batch, rows, cols))
    assert same_bits(np.linalg.svd(A, compute_uv=False),
                     [np.linalg.svd(a, compute_uv=False) for a in A])
    for stacked, *rowwise in zip(np.linalg.svd(A),
                                 *(np.linalg.svd(a) for a in A)):
        assert same_bits(stacked, rowwise)


# ---------------------------------------------------------------------------
# each batched check against its per-row reference


@pytest.mark.parametrize("name", ["so3", "constant_poisson"])
def test_poisson_units_formula_matches_the_rows(name, monkeypatch):
    scen = _built(name)
    values = _recorded(monkeypatch)
    scenarios._poisson_checks(scen, CheckReport())
    want = residual_oracle.poisson_units_formula(scen)
    assert want > 0.0
    assert same_bits(values["add", "units_formula"], want)


def test_torsion_identity_matches_the_rows(monkeypatch):
    scen = _built("nijenhuis_r2")
    pair, seed = scen.pair, scen.numerics.seed + 24
    evL, evL2 = omega_L(pair, scen), omega_L2(pair, scen)
    values = _recorded(monkeypatch)
    torsion_identity_check(scen, pair, evL, evL2, samples=10, seed=seed)
    want = residual_oracle.torsion_identity_residuals(scen, pair, evL, evL2,
                                                      10, seed)
    assert np.all(want > 0.0)
    assert same_bits(values["add_pointwise", "torsion_identity"], want)


@pytest.mark.parametrize("name", ["dirac_twisted", "so3"])
def test_im_residuals_match_the_rows(name, monkeypatch):
    """On the scenario's IM pair, whose residuals are 0, and on a pair with
    its l shifted by one section and a non-constant nu, which fails all
    three equations at every point."""
    scen = _built(name)
    A, data, seed = scen.chart, scen.data, scen.numerics.seed + 4
    nu = [FormField(A.xs, 2, {(0, 1): parse(f"x{j + 1} * x1 + 0.3", A.xs),
                              (1, 2): parse(f"x2 * x3 / {j + 2}", A.xs)})
          for j in range(A.r)]
    values = _recorded(monkeypatch)
    for pair in (data, IMFormData(A, 2, data.l[1:] + data.l[:1], nu)):
        im_residuals(A, pair, samples=40, seed=seed)
        want = residual_oracle.im_residuals(A, pair, 40, seed)
        for check, residuals in want.items():
            assert same_bits(values["add_pointwise", check], residuals)
    assert all(np.all(residuals > 0.0) for residuals in want.values())


def test_dirac_margin_and_angles_match_the_rows(monkeypatch):
    scen = _built("dirac_twisted")
    values = _recorded(monkeypatch)
    scenarios.dirac_checks(scen, CheckReport())
    smin, angle = residual_oracle.dirac_margin_and_angles(scen)
    assert smin > 0.0 and angle > 0.0
    assert same_bits(values["add_margin", "robustness_margin"], smin)
    assert same_bits(values["add", "forward_dirac_angles"], angle)


# ---------------------------------------------------------------------------
# one NaN fails the check that folds it


def _nan_at(array, index):
    array = np.array(array)
    array[index] = np.nan
    return array


def test_nan_prediction_fails_the_poisson_units_formula(monkeypatch):
    predict = scenarios.units_form_predictor
    monkeypatch.setattr(scenarios, "units_form_predictor",
                        lambda *args: _nan_at(predict(*args), 5))
    report = CheckReport()
    scenarios._poisson_checks(_built("constant_poisson"), report)
    assert np.isnan(report["units_formula"].residual)
    assert not report["units_formula"].passed


def test_nan_omega_at_a_dirac_unit_fails_the_units_formula(monkeypatch):
    omega_full = groupoid.MultFormEvaluator.omega_full
    monkeypatch.setattr(groupoid.MultFormEvaluator, "omega_full",
                        lambda self, P: _nan_at(omega_full(self, P), (3, 0, 1)))
    report = CheckReport()
    scenarios.dirac_checks(_built("dirac_twisted"), report)
    assert np.isnan(report["units_formula"].residual)
    assert not report["units_formula"].passed


def test_nan_l_at_one_row_fails_pi_pushforwards(monkeypatch):
    scen = _built("nijenhuis_r2")
    covector_matrices = NijenhuisPair.l_covector_matrices
    monkeypatch.setattr(NijenhuisPair, "l_covector_matrices",
                        lambda self, X: _nan_at(covector_matrices(self, X),
                                                (4, 0, 0)))
    res = pi_pushforwards_residual(scen, scen.pair, omega_L(scen.pair, scen),
                                   seed=scen.numerics.seed + 25)
    assert np.isnan(res)


def test_nan_in_the_dy_columns_fails_L_sigma_related(monkeypatch):
    """A NaN in omega_L at one row makes L's dy column NaN there, and so
    the second block that L_sigma_related folds: L's first n rows must be
    [l^T, 0]."""
    scen = _built("nijenhuis_r2")
    n, flow_end = scen.chart.n, groupoid.SprayGroupoid.flow_end

    def corrupt(self, P, *consumers, rule=None):
        out = flow_end(self, P, *consumers, rule=rule)
        if len(consumers) == 3 and len(P) == 20:   # omega, omega_L, omega_L2
            consumers[1].value[3, 0, n] = np.nan
        return out

    monkeypatch.setattr(groupoid.SprayGroupoid, "flow_end", corrupt)
    report = CheckReport()
    scenarios._nijenhuis_checks(scen, report)
    assert np.isnan(report["L_sigma_related"].residual)
    assert not report["L_sigma_related"].passed


def test_nan_second_route_fails_omega_Lk_two_ways(monkeypatch):
    two_ways = scenarios.omega_Lk_two_ways
    monkeypatch.setattr(scenarios, "omega_Lk_two_ways",
                        lambda scen, pair, k, **kw:
                        np.nan if k == 2 else two_ways(scen, pair, k, **kw))
    report = CheckReport()
    scenarios._nijenhuis_checks(_built("nijenhuis_r2"), report)
    assert np.isnan(report["omega_Lk_two_ways"].residual)
    assert not report["omega_Lk_two_ways"].passed


def test_nan_rung_gives_a_nan_order_and_exit_1(monkeypatch, tmp_path, capsys):
    """A NaN error on a rung that is not the reference stays in the order
    fit: the order is NaN and ``convergence`` exits 1."""
    flow_end = groupoid.SprayGroupoid.flow_end

    def corrupt(self, P, *consumers, rule=None):
        out = flow_end(self, P, *consumers, rule=rule)
        if rule is not None and rule.n == 32:
            consumers[0].value.flat[1] = np.nan
        return out

    monkeypatch.setattr(groupoid.SprayGroupoid, "flow_end", corrupt)
    code = main(["convergence", "--config", str(CONFIGS / "jacobi_line.json"),
                 "--out-dir", str(tmp_path), "--ladder", "16,32,64,128"])
    assert "fitted order: nan" in capsys.readouterr().out
    assert code == 1


# ---------------------------------------------------------------------------
# flow engines are freed by reference counting


def test_convergence_leaves_no_flow_engine_in_cyclic_garbage(tmp_path):
    """A FlowEngine's compiled right-hand sides do not refer back to it, so
    an engine is freed when its groupoid is, without the cycle collector."""
    gc.collect()
    gc.garbage.clear()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        for name in ("so3", "jacobi_line"):
            assert main(["convergence", "--config",
                         str(CONFIGS / f"{name}.json"),
                         "--out-dir", str(tmp_path)]) == 0
        gc.collect()
        engines = [o for o in gc.garbage if isinstance(o, FlowEngine)]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert not engines
