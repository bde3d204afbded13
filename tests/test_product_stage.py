"""The work of a product sweep besides the flow: the node sum of the
quadrature forms against the per-node, per-term oracle of
tests/form_oracle.py, bit for bit, beside a consumer of the full state
too; which form sums run at nodes and where the state is written out; and
the condition guard's inverse certificate against the SVD test it stands
in for."""

import sys
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

from sprayform import expr as ex
from sprayform import flow, groupoid, scenarios
from sprayform.algebroid import jacobi_cocycle
from sprayform.cli import load_config, parse_config
from sprayform.errors import DegenerateFormError
from sprayform.expr import FormField, parse
from sprayform.groupoid import MultFormEvaluator, integrate_cocycle
from sprayform.report import CheckReport

from form_oracle import node_term_sum

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
KINDS = ["so3", "constant_poisson", "nijenhuis_r2", "gcs_r2", "dirac_twisted",
         "jacobi_line"]


@lru_cache(maxsize=None)
def _scenario(name):
    kind, nm, inputs = parse_config(load_config(CONFIGS / f"{name}.json"))
    return scenarios.build(kind, nm, inputs)


def _evaluators(name):
    """The kind's evaluator and, with a Nijenhuis pair, omega_L and
    omega_{L^2}."""
    scen = _scenario(name)
    evs = [scen.evaluator]
    if scen.pair is not None:
        evs += [scenarios.omega_L(scen.pair, scen),
                scenarios.omega_L2(scen.pair, scen)]
    return evs


def _points(G, complex_rows):
    """Validity points and units; complex rows get an imaginary part."""
    P = np.concatenate([
        G.sample_validity_points(5, seed=41, fiber_scale=0.6),
        G.units(G.chart.sample_base_points(2, 42, scale=0.5))])
    if complex_rows:
        P = P + 1e-3j * np.random.default_rng(43).uniform(-1, 1, P.shape)
    return P


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and all(
        np.array_equal(np.ascontiguousarray(x).view(np.uint64),
                       np.ascontiguousarray(y).view(np.uint64))
        for x, y in ((a.real, b.real), (a.imag, b.imag)))


def _assert_matches_oracle(ev, P):
    assert _same_bits(ev.omega_full(P),
                      node_term_sum(ev, ev._lam, ev.degree, P))
    if ev.weight_cocycle is None:
        assert _same_bits(ev.domega_full(P),
                          node_term_sum(ev, ev._dlam, ev.degree + 1, P))


@pytest.mark.parametrize("complex_rows", [False, True])
@pytest.mark.parametrize("name", KINDS)
def test_bundled_node_sums_match_per_term_oracle(name, complex_rows):
    """omega_full and domega_full of every bundled kind's evaluators equal
    the per-node, per-term sum bit for bit, on real and complex rows."""
    for ev in _evaluators(name):
        _assert_matches_oracle(ev, _points(ev.groupoid, complex_rows))


def _constant_form(G, degree, comps):
    return FormField(G.chart.total_vars, degree,
                     {I: ex.const(c) for I, c in comps.items()})


# so(3)*: coordinates 3, 4, 5 (the fibers) are frozen, 0, 1, 2 live;
# (degree, components)
SO3_FORMS = {
    "two_values": (2, {(0, 3): 0.3, (1, 4): -1.7, (2, 5): 0.3}),
    "one_value": (2, {(0, 3): -1.7, (1, 4): -1.7, (2, 5): -1.7}),
    # (0, 3) and (1, 3) write one column
    "shared_target": (2, {(0, 3): 0.3, (1, 3): -1.7, (2, 5): 0.3}),
    # two components on one live row
    "repeated_row": (2, {(0, 3): 0.3, (0, 4): 0.3, (1, 5): -1.7}),
    "degree_3": (3, {(0, 3, 4): 0.3, (1, 3, 5): -1.7, (2, 4, 5): 0.3}),
}


@pytest.mark.parametrize("complex_rows", [False, True])
@pytest.mark.parametrize("case", sorted(SO3_FORMS))
def test_grouped_constant_terms_match_per_term_oracle(case, complex_rows):
    """Non-unit constant coefficients on one live row each, some sharing a
    row or a part of the sum, equal the oracle bit for bit."""
    G = _scenario("so3").groupoid
    degree, comps = SO3_FORMS[case]
    ev = MultFormEvaluator(G, _constant_form(G, degree, comps))
    _assert_matches_oracle(ev, _points(G, complex_rows))


def test_mixed_terms_match_per_term_oracle():
    """A non-constant term and a multi-row term beside constant ones."""
    G = _scenario("so3").groupoid
    xs = G.chart.total_vars
    form = FormField(xs, 2, {(0, 3): ex.const(0.3), (1, 4): ex.const(-1.7),
                             (2, 5): parse("x1 * y2", xs),
                             (0, 1): ex.const(0.3)})
    ev = MultFormEvaluator(G, form)
    for complex_rows in (False, True):
        _assert_matches_oracle(ev, _points(G, complex_rows))


@pytest.mark.parametrize("complex_rows", [False, True])
@pytest.mark.parametrize("comps", [{(0, 1): 0.3, (0, 2): -1.7},
                                   {(0, 1): 0.3, (0, 2): 0.3}])
def test_weighted_grouped_terms_match_per_term_oracle(comps, complex_rows):
    """Constant terms under the jacobi transport weight, whose odd nodes are
    added one node late."""
    scen = _scenario("jacobi_line")
    G = scen.groupoid
    ev = MultFormEvaluator(G, _constant_form(G, 2, comps),
                           weight_cocycle=scen.evaluator.weight_cocycle)
    _assert_matches_oracle(ev, _points(G, complex_rows))


def test_zero_dlambda_makes_no_consumer(monkeypatch):
    """omega_and_domega_full on the canonical Poisson form, whose d Lambda
    is zero, makes one solve, in which the d omega sum runs at no node, and
    returns zeros for it."""
    ev = _scenario("so3").evaluator
    P = _points(ev.groupoid, False)
    W0 = ev.omega_full(P)
    runs, made = _form_sums_at_nodes(monkeypatch), []
    FormSum = groupoid._FormSum
    monkeypatch.setattr(groupoid, "_FormSum", lambda *args: (
        made.append(FormSum(*args)), made[-1])[1])
    W, dW = ev.omega_and_domega_full(P)
    assert [s.degree for s in made] == [2, 3]
    assert runs == [{id(made[0])}]
    assert _same_bits(W, W0)
    assert dW.shape == (len(P),) + (ev.groupoid.dim,) * 3 and not dW.any()


def _form_sums_at_nodes(monkeypatch):
    """For each flow_end call from now on, the set of form sums that run at
    its nodes."""
    runs = []
    flow_end, call = groupoid.SprayGroupoid.flow_end, groupoid._FormSum.__call__

    def counted_flow_end(self, P, *consumers):
        runs.append(set())
        return flow_end(self, P, *consumers)

    def counted_call(self, j, node):
        runs[-1].add(id(self))
        return call(self, j, node)

    monkeypatch.setattr(groupoid.SprayGroupoid, "flow_end", counted_flow_end)
    monkeypatch.setattr(groupoid._FormSum, "__call__", counted_call)
    return runs


def test_zero_forms_run_at_no_node(monkeypatch):
    """The torsion identity's solve runs 3 of the 5 form sums it is handed:
    d omega of the canonical form and of omega_L are zero on nijenhuis_r2.
    The gcs identity's solve runs 1 of 2: omega_{L^2} is zero on gcs_r2.
    The zero sums read as zeros."""
    nij, gcs = _scenario("nijenhuis_r2"), _scenario("gcs_r2")
    evL, evL2 = (scenarios.omega_L(nij.pair, nij),
                 scenarios.omega_L2(nij.pair, nij))
    P = nij.groupoid.sample_validity_points(3, 606, fiber_scale=0.6)
    runs = _form_sums_at_nodes(monkeypatch)
    scenarios.torsion_identity_check(nij, nij.pair, evL, evL2, samples=3)
    assert len(runs[0]) == 3
    scenarios.gcs_identity_check(gcs, CheckReport())
    assert len(runs[-1]) == 1
    zero = nij.evaluator.domega_sum()
    nij.groupoid.flow_end(P, zero)
    assert zero.value.shape == (3,) + (nij.groupoid.dim,) * 3
    assert not zero.value.any() and len(runs[-1]) == 0


def test_product_stage_nodes_write_out_no_state():
    """A product call writes the state out (``publish`` in ``flow``) 19
    times on 3 so3 pairs: z and J at the end of each of its 13 solves
    (tau(b), the flight of a and 11 tangent solves, one per collocation
    sweep or coarse evaluation), and z alone at the 6 Gauss nodes of the
    flight of a, whose consumer reads z there and nowhere else.  None at
    the nodes of a tangent solve, where only the generated omega sum
    runs."""
    scen = _scenario("so3")
    a, b = groupoid.sample_composable_pairs(scen.groupoid, 3, 5)
    publishes = _publishes(lambda: groupoid.multiply_poisson(
        scen.groupoid, scen.evaluator, a, b))
    assert len(publishes) == 19
    assert publishes.count(("z", 0)) == 6
    assert publishes.count(("_solve", None)) == 13


def test_cocycle_nodes_write_out_z_alone():
    """The cocycle integral reads z alone, so its solve writes out z alone
    at each of the 65 nodes of jacobi_line (z and J before), then z and J
    once at the end."""
    G = _scenario("jacobi_line").groupoid
    P = G.sample_validity_points(4, 9)
    publishes = _publishes(lambda: integrate_cocycle(
        G, jacobi_cocycle(G.chart), P))
    assert publishes == [("z", 0)] * 65 + [("_solve", None)]


def _publishes(run):
    """(caller, part) of each ``publish`` call in ``flow`` while ``run()``
    runs, counted with a ``sys.setprofile`` hook."""
    publishes = []

    def count(frame, event, arg):
        if event == "call" and frame.f_code.co_name == "publish" and \
                frame.f_code.co_filename == flow.__file__:
            publishes.append((frame.f_back.f_code.co_name,
                              frame.f_locals["part"]))

    sys.setprofile(count)
    try:
        run()
    finally:
        sys.setprofile(None)
    return publishes


@pytest.mark.parametrize("complex_rows", [False, True])
@pytest.mark.parametrize("name", ["so3", "jacobi_line"])
def test_form_sum_beside_a_full_view_consumer(name, complex_rows):
    """One solve that runs a generated form sum beside a consumer that
    reads the full views at every node, so that the state is written out
    there, gives the bits of separate solves: omega, the cocycle integral
    and the returned (z, J), with the form sum after or before it."""
    scen = _scenario(name)
    G, ev = scen.groupoid, scen.evaluator
    P = _points(G, complex_rows)
    delta = (jacobi_cocycle(G.chart) if name == "jacobi_line"
             else parse("x1 * y2 - x3 * y1", G.chart.total_vars))
    om = ev.omega_sum()
    f = integrate_cocycle(G, delta, P, om)
    assert _same_bits(f, integrate_cocycle(G, delta, P))
    assert _same_bits(om.value, ev.omega_full(P))
    om, seen = ev.omega_sum(), []
    end = G.flow_end(P, om, lambda j, node: seen.append(node.J[0, 0].copy()))
    assert len(seen) == len(G.rule.nodes)
    assert all(map(_same_bits, end, G.flow_end(P)))
    assert _same_bits(om.value, ev.omega_full(P))


# ---------------------------------------------------------------------------
# condition guard


def _svd_guard(W, points, cond_bound):
    """The guard as a batched SVD alone (the reference)."""
    svals = np.linalg.svd(W.real, compute_uv=False)
    smin = svals[:, -1]
    bad = (smin <= 0) | (svals[:, 0] / np.maximum(smin, 1e-300) > cond_bound)
    if bad.any():
        i = int(np.argmax(bad))
        raise DegenerateFormError(float(smin[i]), points[i].real, i)


def _outcome(guard, W, points, cond_bound):
    try:
        guard(W, points, cond_bound)
    except DegenerateFormError as exc:
        return (exc.row, exc.smallest_singular_value, exc.point.tolist(),
                str(exc))
    return None


def _matrix(cond, d=4, seed=0):
    """A d x d matrix with singular values from 1 down to 1 / cond."""
    rng = np.random.default_rng(seed)
    U, _ = np.linalg.qr(rng.standard_normal((d, d)))
    V, _ = np.linalg.qr(rng.standard_normal((d, d)))
    return (U * np.geomspace(1.0, 1.0 / cond, d)) @ V.T


def _conds(bound):
    """1 to 1e14 by decades, and cond_bound/4 to 4 cond_bound finely."""
    return sorted(set(np.geomspace(1.0, 1e14, 15))
                  | set(bound * np.geomspace(0.25, 4.0, 17)))


@pytest.mark.parametrize("bound", [1e12, 1e6, 10.0])
def test_certified_guard_decides_as_the_svd(bound):
    """On a sweep of condition numbers, one row at a time and all rows in
    one batch, the guard fails the row the SVD test fails with the same
    error, and passes what it passes."""
    W = np.stack([_matrix(c, seed=s) for s, c in enumerate(_conds(bound))])
    points = np.arange(len(W) * 2, dtype=np.float64).reshape(-1, 2)
    outcomes = []
    for r in range(len(W)):
        want = _outcome(_svd_guard, W[r:r + 1], points[r:r + 1], bound)
        assert _outcome(groupoid._check_conditioning, W[r:r + 1],
                        points[r:r + 1], bound) == want
        outcomes.append(want is None)
    assert any(outcomes) and not all(outcomes)
    for first in range(len(W)):
        assert _outcome(groupoid._check_conditioning, W[first:],
                        points[first:], bound) == \
            _outcome(_svd_guard, W[first:], points[first:], bound)


def _special_rows(kind):
    W = np.stack([_matrix(10.0, seed=s) for s in range(4)])
    if kind == "singular":
        W[2] = 0.0
    elif kind == "rank_one":
        W[2] = np.outer(np.arange(1.0, 5.0), np.ones(4))
    elif kind == "nan":
        W[2, 1, 1] = np.nan
    elif kind == "complex":
        # row 2's complex matrix is well conditioned, its real part is not
        W[2] = _matrix(1e13, seed=3)
        W = W + 1j * _matrix(2.0, seed=9)
    return W


@pytest.mark.parametrize("kind", ["singular", "rank_one", "nan", "complex"])
def test_certified_guard_on_special_rows(kind):
    """A singular, rank-one or NaN row, and complex rows judged by their
    real parts: the same outcome, row, point and message as the SVD test."""
    W = _special_rows(kind)
    points = np.arange(8.0).reshape(4, 2) + (0.5j if kind == "complex" else 0)
    for first in range(3):
        try:
            want = _outcome(_svd_guard, W[first:], points[first:], 1e12)
        except np.linalg.LinAlgError as exc:
            with pytest.raises(np.linalg.LinAlgError, match=str(exc)):
                groupoid._check_conditioning(W[first:], points[first:], 1e12)
            continue
        assert want is not None
        assert _outcome(groupoid._check_conditioning, W[first:],
                        points[first:], 1e12) == want


def test_certified_guard_returns_the_real_inverse():
    W = np.stack([_matrix(c, seed=1) for c in (1.0, 1e3)])
    got = groupoid._check_conditioning(W + 1j, np.zeros((2, 2)), 1e12)
    assert _same_bits(got, np.linalg.inv(W))


def test_inverse_matrices_factor_once(monkeypatch):
    """inverse_matrices returns the guard's inverse: one inv, no SVD, and
    the bits of inv(omega)."""
    ev = _scenario("so3").evaluator
    P = _points(ev.groupoid, False)
    want = np.linalg.inv(ev.omega_full(P))
    calls = []
    for name in ("inv", "svd"):
        fn = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, lambda *a, _f=fn, _n=name, **k: (
            calls.append(_n), _f(*a, **k))[1])
    got = ev.inverse_matrices(P)
    assert calls == ["inv"]
    assert _same_bits(got, want)
