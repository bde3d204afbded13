"""sympy as an independent oracle for the symbolic layer.

Random trees over the expression grammar are built twice, as an ``Expr``
through the package's smart constructors and as a sympy expression, and
``compile_exprs``, ``partial``, ``to_source`` and ``schouten`` are compared
with what sympy computes, at points where the compiled evaluation is defined.
The brackets are checked against their definitions on functions (the cyclic
Poisson-bracket identity and the Lie derivative of a bivector), not against
the component formulas ``schouten`` uses.  Every test is derandomized.
"""

import itertools
import operator
import random

import numpy as np
import pytest
from hypothesis import HealthCheck, Phase, given, settings, strategies as st

from sprayform import expr as ex
from sprayform.errors import EvalDomainError

sympy = pytest.importorskip("sympy")
mpmath = pytest.importorskip("mpmath")     # installed with sympy

XS = ["x1", "x2", "x3", "x4"]
SYMS = dict(zip(XS, sympy.symbols(XS)))


def oracle(examples):
    # no shrinking: sympy makes each example slow, so shrinking a failure
    # would take minutes; the unshrunk example is reported instead
    return settings(max_examples=examples, derandomize=True, database=None,
                    deadline=None, phases=(Phase.explicit, Phase.generate),
                    suppress_health_check=[HealthCheck.too_slow])


# exact binary fractions, so each constant means the same number on both sides
_CONSTS = (-2.5, -1.0, 0.5, 1.0, 2.0, 3.0)
_SYMPY_CALLS = {"sin": sympy.sin, "cos": sympy.cos, "exp": sympy.exp,
                "log": sympy.log, "sqrt": sympy.sqrt}
_SYMPY_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul,
                 "/": operator.truediv}


def _random_tree(rng, xs, depth):
    """(Expr, sympy expression) pair of one tree of at most ``depth``
    operator levels, built with ``rng`` through the smart constructors."""
    if depth == 0 or rng.random() < 0.1:
        if rng.random() < 0.6:
            v = rng.choice(xs)
            return ex.Var(v), SYMS[v]
        c = rng.choice(_CONSTS)
        return ex.Const(c), sympy.Rational(c)
    a, sa = _random_tree(rng, xs, depth - 1)
    kind = rng.choice("bbbbnpc")
    try:
        if kind == "b":
            op = rng.choice("+-*/")
            b, sb = _random_tree(rng, xs, depth - 1)
            return ex._BINARY[op].make(a, b), _SYMPY_BINARY[op](sa, sb)
        if kind == "n":
            return ex.neg(a), -sa
        if kind == "p":
            n = rng.randint(-3, 3)
            return ex.pow_int(a, n), sa ** n
    except EvalDomainError:     # a constant fold divides by zero or overflows
        return a, sa
    fn = rng.choice(ex.FUNCTIONS)
    return ex.Call(fn, a), _SYMPY_CALLS[fn](sa)


def trees(xs=XS[:3], depth=4):
    """Random trees over the grammar.  Hypothesis draws the seed of the
    tree, not its structure: its own choices favour single leaves."""
    return st.integers(0, 2 ** 32 - 1).map(
        lambda seed: _random_tree(random.Random(seed), xs, depth))


def points(n=3, count=3):
    """Points on the grid of step 1/64 in [-1.5, 1.5]^n: exact binary
    numbers, zero among them, and no subnormal coordinate whose products
    underflow and leave float evaluation nothing to agree to."""
    coord = st.integers(-96, 96).map(lambda k: k / 64)
    return st.lists(st.lists(coord, min_size=n, max_size=n),
                    min_size=count, max_size=count)


def _compiled(exprs, xs, x):
    """Compiled values at one point, or None where evaluation is undefined."""
    try:
        return ex.compile_exprs(exprs, xs)(np.asarray(x, dtype=np.float64))
    except EvalDomainError:
        return None


def _exact(s, xs):
    """sympy's value of ``s`` at a float point, to 30 digits, as a function."""
    fn = sympy.lambdify([SYMS[v] for v in xs], s, modules="mpmath")

    def at(x):
        with mpmath.workdps(30):
            return complex(fn(*map(mpmath.mpf, x)))
    return at


def _subtrees(e):
    yield e
    for child in (getattr(e, "a", None), getattr(e, "b", None)):
        if isinstance(child, ex.Expr):
            yield from _subtrees(child)


def _scale(exprs, xs, x):
    """The largest magnitude among the values of all subtrees of ``exprs``
    at ``x`` (at least 1): the roundoff of a float evaluation, where terms
    cancel, is relative to it rather than to the result."""
    subtrees = [t for e in exprs for t in _subtrees(e)]
    values = ex.compile_exprs(subtrees, xs)(np.asarray(x, dtype=np.float64))
    return max(1.0, float(np.max(np.abs(values))))


def _assert_close(got, want, scale):
    assert abs(want.imag) <= 1e-12 * max(scale, abs(want.real)), want
    assert abs(got - want.real) <= 1e-9 * abs(want.real) + 1e-12 * scale, \
        (got, want.real, scale)


# ---------------------------------------------------------------------------
# evaluation, derivatives, printing


@oracle(120)
@given(trees(), points())
def test_compiled_matches_sympy(pair, pts):
    e, s = pair
    exact = _exact(s, XS[:3])
    for x in pts:
        got = _compiled([e], XS[:3], x)
        if got is not None:
            _assert_close(got[0], exact(x), _scale([e], XS[:3], x))


@oracle(80)
@given(trees(), points())
def test_partial_matches_sympy(pair, pts):
    e, s = pair
    try:
        grad = [ex.partial(e, v) for v in XS[:3]]
    except EvalDomainError:     # d log(0) folds 0/0: e is nowhere defined
        assert all(_compiled([e], XS[:3], x) is None for x in pts)
        return
    exact = [_exact(sympy.diff(s, SYMS[v]), XS[:3]) for v in XS[:3]]
    for x in pts:
        got = _compiled(grad, XS[:3], x)
        if got is not None:
            scale = _scale(grad, XS[:3], x)
            for g, want in zip(got, exact):
                _assert_close(g, want(x), scale)


@oracle(120)
@given(trees(), points())
def test_printed_source_means_the_tree(pair, pts):
    """``to_source`` parses back to an equal tree, and sympy reads the same
    function from it (with ``^`` as ``**``: the printer parenthesizes every
    power base that carries a unary minus, so the two precedences agree)."""
    e, s = pair
    src = ex.to_source(e)
    assert ex.parse(src, XS[:3]) == e
    read = _exact(sympy.parse_expr(src.replace("^", "**"), local_dict=SYMS),
                  XS[:3])
    exact = _exact(s, XS[:3])
    for x in pts:
        if _compiled([e], XS[:3], x) is not None:
            _assert_close(read(x).real, exact(x), _scale([e], XS[:3], x))


# ---------------------------------------------------------------------------
# Schouten brackets, from their definitions on functions

# fixed test functions: nonlinear, so that brackets of them see second
# derivatives of the coefficients
_FGH = [SYMS["x1"] + SYMS["x2"] * SYMS["x3"] ** 2,
        SYMS["x2"] - SYMS["x1"] ** 2 * SYMS["x4"],
        SYMS["x3"] * SYMS["x4"] + SYMS["x1"] * SYMS["x2"] * SYMS["x3"]]
_N = len(XS)
_PAIRS = list(itertools.combinations(range(_N), 2))


def bivectors():
    """(BivectorField, full antisymmetric sympy matrix) over x1..x4."""
    return st.lists(trees(XS, depth=2), min_size=len(_PAIRS),
                    max_size=len(_PAIRS)).map(_bivector)


def _bivector(comps):
    P = sympy.zeros(_N, _N)
    for (i, j), (_, s) in zip(_PAIRS, comps):
        P[i, j], P[j, i] = s, -s
    field = ex.BivectorField(_N, {ij: e for ij, (e, _) in zip(_PAIRS, comps)},
                             XS)
    return field, P


def _grad(f):
    return [sympy.diff(f, SYMS[v]) for v in XS]


def _bracket(P, f, g):
    """{f, g}_P = sum_ij P^{ij} d_i f d_j g."""
    df, dg = _grad(f), _grad(g)
    return sum(P[i, j] * df[i] * dg[j] for i in range(_N) for j in range(_N))


_FGH_GRADS = [[_exact(d, XS) for d in _grad(f)] for f in _FGH]


def _assert_contracts_to(field, degree, x, exact):
    """The multivector field applied to the differentials of the first
    ``degree`` test functions at ``x``, sum over increasing I of
    T^I(x) det (d_I f_a)(x), equals ``exact(x)`` where T is defined."""
    try:
        values = field.values(np.asarray(x, dtype=np.float64))
    except EvalDomainError:
        return
    grads = np.array([[d(x).real for d in grad]
                      for grad in _FGH_GRADS[:degree]])
    dets = [np.linalg.det(grads[:, list(I)])
            for I in itertools.combinations(range(_N), degree)]
    scale = _scale(list(field.components.values()), XS, x) * \
        max(1.0, max(abs(d) for d in dets))
    _assert_close(float(np.dot(values, dets)), exact(x), scale)


@oracle(15)
@given(bivectors(), points(_N, 4))
def test_schouten_bivector_matches_cyclic_brackets(p, pts):
    """[pi, pi](df, dg, dh) = 2 sum_cyc {f, {g, h}}."""
    pf, P = p
    f, g, h = _FGH
    jacobiator = sum(_bracket(P, a, _bracket(P, b, c))
                     for a, b, c in ((f, g, h), (g, h, f), (h, f, g)))
    field = ex.schouten(pf, pf)
    exact = _exact(2 * jacobiator, XS)
    for x in pts:
        _assert_contracts_to(field, 3, x, exact)


@oracle(15)
@given(bivectors(), st.lists(trees(XS, depth=2), min_size=_N,
                             max_size=_N), points(_N, 4))
def test_schouten_bivector_vector_is_minus_lie_derivative(p, R, pts):
    """[pi, R](df, dg) = -(L_R pi)(df, dg)
    = -(R(pi(df, dg)) - pi(d(R f), dg) - pi(df, d(R g)))."""
    pf, P = p
    field = ex.schouten(pf, ex.VectorField(XS, [e for e, _ in R]))

    def along_R(u):
        return sum(s * d for (_, s), d in zip(R, _grad(u)))

    f, g = _FGH[:2]
    lie = (along_R(_bracket(P, f, g)) - _bracket(P, along_R(f), g)
           - _bracket(P, f, along_R(g)))
    exact = _exact(-lie, XS)
    for x in pts:
        _assert_contracts_to(field, 2, x, exact)
