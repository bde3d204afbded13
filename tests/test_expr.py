"""Expression DSL: parsing, derivatives, fields, Schouten brackets."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sprayform import expr as ex
from sprayform.errors import (
    ArityError,
    EvalDomainError,
    ExprSyntaxError,
    UnknownIdentifierError,
)
from sprayform.expr import (
    BivectorField,
    FormField,
    VectorField,
    parse,
    partial,
    schouten,
    subst,
    to_source,
    wedge_vector_bivector,
)

from expr_oracle import tree_eval

XS = ["x1", "x2", "x3"]


# ---------------------------------------------------------------------------
# parsing


def test_parse_product_plus_one():
    e = parse("x1*x2 + 1", XS)
    assert isinstance(e, ex.Add)
    assert tree_eval(e, {"x1": 2.0, "x2": 3.0}) == 7.0


def test_parse_power_precedence():
    e = parse("sin(x3)^2", XS)
    assert isinstance(e, ex.Pow)
    assert isinstance(e.a, ex.Call)
    assert tree_eval(e, {"x3": 0.7}) == pytest.approx(math.sin(0.7) ** 2, abs=1e-15)


def test_parse_unclosed_paren_is_syntax_error():
    with pytest.raises(ExprSyntaxError) as err:
        parse("x1*(x2", XS)
    assert err.value.column is not None


def test_unary_minus_binds_tighter_than_power():
    assert tree_eval(parse("-x1^2", XS), {"x1": 3.0}) == 9.0


def test_unknown_identifier_and_arity():
    with pytest.raises(UnknownIdentifierError):
        parse("x9 + 1", XS)
    with pytest.raises(UnknownIdentifierError):
        parse("tan(x1)", XS)
    with pytest.raises(ArityError):
        parse("sin + 1", XS)


def test_chained_power_rejected():
    with pytest.raises(ExprSyntaxError):
        parse("x1^2^3", XS)


def test_negative_integer_exponent():
    e = parse("x1^-2", XS)
    assert tree_eval(e, {"x1": 2.0}) == 0.25


@pytest.mark.parametrize("src", [
    "x1*x2 + 1", "sin(x3)^2", "-x1^2", "x1/(x2 - 3)*exp(x3)",
    "sqrt(x1 + 2) - log(x2 + 5)", "1.5e-3*x1 - -x2",
])
def test_printer_round_trip(src):
    e = parse(src, XS)
    assert parse(to_source(e), XS) == e


def test_structural_equality_implies_equal_evaluation():
    a = parse("x1*x2 + sin(x3)", XS)
    b = parse("x1 * x2 + sin( x3 )", XS)
    assert a == b
    env = {"x1": 0.3, "x2": -1.2, "x3": 2.0}
    assert tree_eval(a, env) == tree_eval(b, env)


# ---------------------------------------------------------------------------
# evaluation domain errors


def test_division_by_zero_raises():
    with pytest.raises(EvalDomainError):
        tree_eval(parse("1/x1", XS), {"x1": 0.0})


def test_log_domain_raises():
    with pytest.raises(EvalDomainError):
        tree_eval(parse("log(x1)", XS), {"x1": -1.0})


def test_compiled_domain_errors():
    for source, bad in (("sqrt(x1)", -2.0), ("1/x1", 0.0), ("x1^120", 900.0),
                        ("x1^-2", 0.0)):
        fn = ex.compile_exprs([parse(source, XS)], XS)
        with pytest.raises(EvalDomainError):
            fn(np.array([[0.5, 0, 0], [bad, 0, 0]]))


def test_compiled_complex_rows_keep_the_imaginary_part():
    """A complex batch is evaluated in complex arithmetic, never cast to
    float64: its imaginary part over h is the complex-step derivative, and
    its real part the real row's value."""
    e = parse("sqrt(x1) * log(x2) / (x1 + x3) + exp(sin(x3))^-2", XS)
    fn = ex.compile_exprs([e, partial(e, "x1")], XS)
    X = np.array([[0.7, 1.3, 0.2], [0.4, 2.1, -0.3]])
    h = 1e-20
    with np.errstate(all="raise"):     # a ComplexWarning would not raise
        out = fn(X + [1j * h, 0, 0])
    assert out.dtype == np.complex128
    real = fn(X)
    assert np.max(np.abs(out.real - real)) < 1e-15
    assert np.max(np.abs(out[:, 0].imag / h - real[:, 1])) < 1e-14


@pytest.mark.parametrize("source, bad", [("sqrt(x1)", -2.0), ("log(x1)", -1.0),
                                         ("log(x1)", 0.0), ("1/x1", 0.0),
                                         ("x1^-2", 0.0), ("x2/x1", 0.0)])
def test_compiled_complex_rows_test_the_real_domain(source, bad):
    """numpy's complex sqrt and log of a negative real part, and its division
    by an imaginary number, raise nothing: a complex row raises the
    EvalDomainError its real row raises."""
    fn = ex.compile_exprs([parse(source, XS)], XS)
    Z = np.array([[0.5, 1.0, 0], [bad, 1.0, 0]])
    with pytest.raises(EvalDomainError) as real:
        fn(Z)
    with pytest.raises(EvalDomainError) as cplx:
        fn(Z + [1e-20j, 1e-20j, 0])
    assert str(cplx.value) == str(real.value)


def test_compiled_complex_rows_raise_where_the_real_row_raises():
    """The real parts of a complex row run through the whole expression:
    at x1 = 1e-20 i, x1 * x1 is -1e-40 + 0i, whose reciprocal numpy
    computes without error, but the real row x1 = 0 divides by zero."""
    fn = ex.compile_exprs([parse("1/(x1*x1)", ["x1"])], ["x1"])
    with pytest.raises(EvalDomainError) as real:
        fn(np.array([[0.0]]))
    with pytest.raises(EvalDomainError) as cplx:
        fn(np.array([[1e-20j]]))
    assert str(cplx.value) == str(real.value)


def test_compiled_complex_rows_raise_the_first_real_error():
    """Each column's real pass runs right before its own statement, so a
    complex row raises the error its real row raises first: the overflow of
    exp(x1), not the division by zero of the later column 1/x2."""
    fn = ex.compile_exprs([parse("exp(x1)", XS), parse("1/x2", XS)], XS)
    with pytest.raises(EvalDomainError, match="overflow encountered in exp") \
            as real:
        fn(np.array([[1000.0, 0.0, 0.0]]))
    with pytest.raises(EvalDomainError) as cplx:
        fn(np.array([[1000.0 + 1e-20j, 0.0, 0.0]]))
    assert str(cplx.value) == str(real.value)


def test_constant_power_folds_like_evaluation():
    # C pow gives 0.026999999999999996; the evaluators' squaring rule 0.027
    assert parse("0.3^3", XS).value == 0.3 * (0.3 * 0.3)
    assert parse("0.3^-3", XS).value == 1.0 / (0.3 * (0.3 * 0.3))
    with pytest.raises(EvalDomainError, match="zero raised to a negative power"):
        parse("0^-1", XS)


@pytest.mark.parametrize("src,flow", [
    pytest.param(src, flow, id=src) for src, flow in [
        ("(1e200)^-2", "overflow"), ("(-1e200)^-3", "overflow"),
        ("x1 * (1e300)^-2", "overflow"), ("(1e-200)^-2", "underflow"),
        ("(1e-155)^-2", "overflow")]])
def test_overflowing_negative_power_fold_raises(src, flow):
    """a^-n folds as 1/a^n; when a^n overflows, underflows to zero for a
    nonzero a, or is subnormal with an overflowing reciprocal, the fold
    raises and names which, as the compiled x1^-n raises, instead of folding
    to zero or inf or blaming a zero base."""
    with pytest.raises(EvalDomainError, match=f"^{flow} in constant power"):
        parse(src, XS)
    with pytest.raises(EvalDomainError, match="overflow"):
        ex.compile_exprs([parse("x1^-2", XS)], XS)(np.full((1, len(XS)), 1e200))


@pytest.mark.parametrize("src", ["1e999", "1e308*10", "2^2000", "-1e999",
                                 "x1 + 2^2000", "1e308/1e-10"])
def test_non_finite_constant_raises(src):
    with pytest.raises(EvalDomainError, match="non-finite constant"):
        parse(src, XS)


# ---------------------------------------------------------------------------
# derivatives


def test_partial_square():
    d = partial(parse("x1*x1", XS), "x1")
    for v in (0.0, 1.7, -2.2):
        assert tree_eval(d, {"x1": v}) == pytest.approx(2 * v, abs=1e-15)


def test_partial_of_other_variable_is_zero():
    assert partial(parse("x1", XS), "x2").is_zero


def test_partial_exp_fd_cross_check():
    # frozen: d/dx exp(2x) at 0 is 2; central difference at step 1e-5
    e = parse("exp(2*x1)", XS)
    d = partial(e, "x1")
    h = 1e-5
    fd = (tree_eval(e, {"x1": h}) - tree_eval(e, {"x1": -h})) / (2 * h)
    assert abs(tree_eval(d, {"x1": 0.0}) - 2.0) < 1e-15
    assert abs(tree_eval(d, {"x1": 0.0}) - fd) < 1e-9


_exprs = st.sampled_from([
    "x1*x2 + x3", "sin(x1)*cos(x2)", "exp(x1/4)*x3", "x1^3 - x2*x3",
    "sqrt(x1 + 3)", "x1/(2 + x2*x2)", "log(x3 + 4) + x1*x1",
])
_points = st.lists(st.floats(-0.9, 0.9), min_size=3, max_size=3)


@settings(max_examples=60, deadline=None)
@given(_exprs, _points, st.sampled_from(XS), st.sampled_from(XS))
def test_mixed_partials_commute(src, pt, u, v):
    e = parse(src, XS)
    env = dict(zip(XS, pt))
    duv = tree_eval(partial(partial(e, u), v), env)
    dvu = tree_eval(partial(partial(e, v), u), env)
    assert duv == pytest.approx(dvu, abs=1e-12, rel=1e-12)


@settings(max_examples=40, deadline=None)
@given(_exprs, _points, st.sampled_from(XS))
def test_partial_agrees_with_central_differences(src, pt, u):
    e = parse(src, XS)
    env = dict(zip(XS, pt))
    x0 = env[u]
    h = 1e-4 * (1.0 + abs(x0))

    def at(s):
        env2 = dict(env)
        env2[u] = x0 + s
        return tree_eval(e, env2)

    fd = (-at(2 * h) + 8 * at(h) - 8 * at(-h) + at(-2 * h)) / (12 * h)
    exact = tree_eval(partial(e, u), env)
    assert fd == pytest.approx(exact, rel=1e-7, abs=1e-7)


def test_substitution():
    e = parse("x1*x2 + sin(x1)", XS)
    s = subst(e, {"x1": parse("x3 + 1", XS)})
    env = {"x2": 2.0, "x3": 0.5}
    assert tree_eval(s, env) == pytest.approx(1.5 * 2.0 + math.sin(1.5), abs=1e-14)


# ---------------------------------------------------------------------------
# exterior derivative


def test_d_of_x1_dx2():
    w = FormField(XS, 1, {(1,): parse("x1", XS)})
    dw = w.d()
    assert tree_eval(dw.component((0, 1)), {"x1": 0.4, "x2": 0, "x3": 0}) == 1.0


def test_dd_is_zero():
    w = FormField(XS, 1, {(0,): parse("sin(x2)*x3", XS),
                          (2,): parse("exp(x1)", XS)})
    ddw = w.d().d()
    X = np.random.default_rng(4).uniform(-1, 1, (10, 3))
    assert np.max(np.abs(ddw.values(X))) < 1e-14


def test_d_sin_coefficient():
    w = FormField(XS, 1, {(1,): parse("sin(x1)", XS)})
    dw = w.d()
    val = tree_eval(dw.component((0, 1)), {"x1": 0.0, "x2": 0.0, "x3": 0.0})
    assert val == pytest.approx(1.0, abs=1e-15)


# ---------------------------------------------------------------------------
# Schouten brackets


def _so3():
    return BivectorField(3, {(0, 1): parse("x3", XS),
                             (0, 2): parse("-x2", XS),
                             (1, 2): parse("x1", XS)}, XS)


def test_schouten_constant_bivector_vanishes():
    pi = BivectorField(3, {(0, 1): ex.ONE, (1, 2): ex.const(2.0)}, XS)
    br = schouten(pi, pi)
    assert np.max(np.abs(br.values(np.array([[0.5, -0.3, 0.8]])))) == 0.0


def test_schouten_so3_vanishes_brute_force():
    """Independent oracle: the raw component formula with numeric partials."""
    pi = _so3()
    br = schouten(pi, pi)
    rng = np.random.default_rng(11)

    def entry(x, i, j):
        return pi.values(x[None, :])[0, i, j]

    def brute(x, i, k, l):
        # 2 sum_j (pi^{ij} d_j pi^{kl} + pi^{kj} d_j pi^{li} + pi^{lj} d_j pi^{ik})
        h = 1e-6
        total = 0.0
        for j in range(3):
            dx = np.zeros(3)
            dx[j] = h
            for (a, b, c) in ((i, k, l), (k, l, i), (l, i, k)):
                d = (entry(x + dx, b, c) - entry(x - dx, b, c)) / (2 * h)
                total += entry(x, a, j) * d
        return 2.0 * total

    X = rng.uniform(-1, 1, (20, 3))
    assert np.max(np.abs(br.values(X))) < 1e-12
    for x in X:
        assert abs(brute(x, 0, 1, 2)) < 1e-9


def test_schouten_bivector_vector_hand_value():
    # [x1 d1^d2, d1] = -L_{d1}(x1 d1^d2) = -(d1^d2): component (0,1) = -1
    xs = ["x1", "x2"]
    pi = BivectorField(2, {(0, 1): parse("x1", xs)}, xs)
    R = VectorField(xs, [ex.ONE, ex.ZERO])
    br = schouten(pi, R)
    assert br.values(np.array([[1.0, 1.0]]))[0] == pytest.approx([-1.0])


def test_jacobi_compatibility_contact_example():
    """[pi,pi] = 2 R^pi holds verbatim for the contact-form structure on R^3."""
    pi = BivectorField(3, {(0, 1): ex.const(-1.0), (1, 2): parse("x2", XS)}, XS)
    R = VectorField(XS, [ex.ZERO, ex.ZERO, ex.ONE])
    br = schouten(pi, pi)
    rw = wedge_vector_bivector(R, pi)
    X = np.random.default_rng(3).uniform(-1, 1, (10, 3))
    assert np.max(np.abs(br.values(X) - 2 * rw.values(X))) < 1e-14
    assert np.max(np.abs(schouten(pi, R).values(X))) < 1e-14


def test_jacobi_bracket_jacobiator_vanishes_under_compatibility():
    """The bracket {u,v} = pi(du,dv) + <R,du>v - u<R,dv> satisfies Jacobi."""
    pi = BivectorField(3, {(0, 1): ex.const(-1.0), (1, 2): parse("x2", XS)}, XS)
    R = VectorField(XS, [ex.ZERO, ex.ZERO, ex.ONE])

    def bracket(u, v):
        out = ex.ZERO
        for i in range(3):
            for j in range(3):
                out = ex.add(out, ex.mul(pi.entry(i, j),
                                         ex.mul(partial(u, XS[i]),
                                                partial(v, XS[j]))))
        return ex.add(out, ex.sub(ex.mul(R.apply_to(u), v),
                                  ex.mul(u, R.apply_to(v))))

    u = parse("x1*x1 + sin(x2)", XS)
    v = parse("x2*x3", XS)
    w = parse("exp(x1) + x3*x3", XS)
    jac = ex.add(bracket(u, bracket(v, w)),
                 ex.add(bracket(v, bracket(w, u)),
                        bracket(w, bracket(u, v))))
    rng = np.random.default_rng(8)
    for _ in range(10):
        env = dict(zip(XS, rng.uniform(-0.8, 0.8, 3)))
        assert abs(tree_eval(jac, env)) < 1e-12


def test_schouten_dimension_mismatch():
    pi2 = BivectorField(2, {(0, 1): ex.ONE}, ["x1", "x2"])
    pi3 = _so3()
    from sprayform.errors import DimensionError
    with pytest.raises(DimensionError):
        schouten(pi3, pi2)


# ---------------------------------------------------------------------------
# compiled evaluation


# Four expressions per group: rational ones (+ - * / ^), which the compiled
# path must reproduce bit for bit, and ones with function calls, where
# numpy's and the math library's sin/exp/.. may differ in the last bit.
_EXACT = ("x1*x2 - x3/(x1 + 2)", "-x2^3 + 0.5*x1*x3",
          "x3/(x2 - 3) + (x1 + x3)^2", "x1^5*x2 - (x3 + 4)^-2")
_INEXACT = ("x1*x2 + sin(x3)", "exp(x1) - x2^3", "x3/(x1 + 2) + (x1 + x3)^2",
            "log(x1 + 2)*sqrt(x2 + 2) - cos(x3)^-2")


def _batched_cases(e, Z):
    """(batched values at Z, Expr list in the same per-point order) pairs.

    Covers ``compile_exprs`` and every batched evaluation method that is
    built on it: the field classes here, and the chart's anchor, structure
    functions and covector matrices.
    """
    from sprayform.algebroid import cotangent_algebroid
    from sprayform.expr import PolyVectorField
    from sprayform.scenarios import NijenhuisPair
    comps = {(0, 1): e[0], (0, 2): e[1], (1, 2): e[2]}
    form = FormField(XS, 2, comps)
    pi = BivectorField(3, comps, XS)
    A = cotangent_algebroid(pi, [[-1.0, 1.0]] * 3)
    lmat = [[e[(i + j) % 4] for j in range(3)] for i in range(3)]
    return [
        (ex.compile_exprs(e, XS)(Z), e),
        (VectorField(XS, e[:3]).values(Z), e[:3]),
        (form.values(Z), form.exprs_dense()),
        (pi.values(Z), [pi.entry(i, j) for i in range(3) for j in range(3)]),
        (PolyVectorField(3, 3, {(0, 1, 2): e[3]}, XS).values(Z), [e[3]]),
        (A.anchor_at(Z), [x for row in A.anchor for x in row]),
        (A.structure.values(Z),
         [A.structure.entry(i, j, k) for i in range(3) for j in range(3)
          for k in range(3)]),
        (NijenhuisPair(pi, lmat).l_covector_matrices(Z),
         [x for row in lmat for x in row]),
    ]


def test_compiled_matches_tree_eval():
    """Row b of every batched evaluation equals the tree walk at Z[b]."""
    rng = np.random.default_rng(0)
    Z = rng.uniform(-1, 1, (40, 3))
    for sources, exact in ((_EXACT, True), (_INEXACT, False)):
        exprs = [parse(s, XS) for s in sources]
        for out, flat in _batched_cases(exprs, Z):
            out = out.reshape(len(Z), -1)
            for b in range(len(Z)):
                env = dict(zip(XS, Z[b]))
                want = np.array([tree_eval(x, env) for x in flat])
                if exact:
                    assert np.array_equal(out[b], want)
                else:
                    assert out[b] == pytest.approx(want, rel=1e-14, abs=1e-14)


def test_directional_derivative_matches_tree_eval():
    """sum_m v^m d_m c in order over m, against tree-walked partials."""
    from sprayform.algebroid import cotangent_algebroid
    rng = np.random.default_rng(1)
    Z = rng.uniform(-1, 1, (10, 3))
    V = rng.uniform(-1, 1, (10, 2, 3))
    V[:, 1, 0] = 0.0
    e = [parse(s, XS) for s in _EXACT]
    pi = BivectorField(3, {(0, 1): e[0], (0, 2): e[1], (1, 2): e[3]}, XS)
    S = cotangent_algebroid(pi, [[-1.0, 1.0]] * 3).structure
    out = S.directional_derivative(Z, V)
    assert out.shape == (10, 2, 3, 3, 3)
    for b in range(10):
        env = dict(zip(XS, Z[b]))
        for d in range(2):
            want = np.zeros((3, 3, 3))
            for m in range(3):
                want += V[b, d, m] * np.array(
                    [[[tree_eval(partial(S.entry(i, j, k), XS[m]), env)
                       for k in range(3)] for j in range(3)] for i in range(3)])
            assert np.array_equal(out[b, d], want)
