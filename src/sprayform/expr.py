"""Expression DSL: parsing, exact symbolic derivatives, and coefficient fields.

All user-supplied coefficient functions (bivector components, anchor entries,
structure functions, form coefficients) are trees of this module's ``Expr``
nodes.  Derivatives are taken symbolically on the tree, so residual checks
downstream are limited only by evaluation roundoff.  The only rewriting done
at construction time is constant folding (including 0/1 absorption); there is
no canonical form, and correctness is always established by evaluation.

Expressions have one evaluator: ``compile_exprs`` turns a list of them into
one vectorized function of a point batch, and the fields' ``values`` methods
go through it.  Its code generator (``numpy_source`` and ``numpy_assign``)
also writes the rows of the flow engine's generated right-hand side.
Division by zero, log/sqrt outside their domain and overflow raise
EvalDomainError instead of producing inf or NaN.  Constant folding
applies the compiled code's rules (``a^n`` by ``_int_power``), and a constant
that is not finite, a literal such as ``1e999`` or a fold such as ``2^2000``
or ``(1e200)^-2``, raises EvalDomainError where it is made.  The package has
no tree walk: the tests compare the compiled path with one
(``tests/expr_oracle.py``) and the derivatives, printer and Schouten brackets
with sympy.

Grammar (EBNF)::

    expression := term {("+" | "-") term}
    term       := power {("*" | "/") power}
    power      := unary ["^" exponent]
    unary      := "-" unary | atom
    atom       := NUMBER | IDENT | IDENT "(" expression ")" | "(" expression ")"
    exponent   := ["-"] INTEGER

Precedence, tightest first: unary minus, "^", "*" and "/", "+" and "-";
binary operators associate to the left.  "^" takes a literal integer
exponent and does not chain ("x^2^3" is a syntax error).  The callable
functions are exactly sin, cos, exp, log, sqrt; every other identifier must
be a declared variable.

Expressions are immutable after construction and safe to share between
threads.
"""

from __future__ import annotations

import itertools
import math
import re

import numpy as np

from .errors import (
    ArityError,
    DimensionError,
    EvalDomainError,
    ExprSyntaxError,
    UnknownIdentifierError,
)
from .tensor import _merge, index_list

__all__ = [
    "Expr", "Const", "Var", "Add", "Sub", "Mul", "Div", "Neg", "Pow", "Call",
    "parse", "partial", "subst", "to_source", "compile_exprs", "batch_values",
    "VectorField", "BivectorField", "FormField",
    "PolyVectorField", "schouten", "wedge_vector_bivector",
    "ZERO", "ONE", "const", "base_vars", "fiber_vars",
]

FUNCTIONS = ("sin", "cos", "exp", "log", "sqrt")


# ---------------------------------------------------------------------------
# Expression trees

# Printing precedence of each node kind, loosest first.
_PREC = {"add": 1, "mul": 2, "pow": 3, "neg": 4, "atom": 5}


class Expr:
    """Immutable expression tree node."""

    __slots__ = ()

    def diff(self, name):
        raise NotImplementedError

    def variables(self):
        out = set()
        self._collect(out)
        return out

    def _collect(self, out):
        pass

    def __eq__(self, other):
        return type(self) is type(other) and self._key() == other._key()

    def __hash__(self):
        return hash((type(self).__name__,) + self._key())

    def _key(self):
        return ()

    def __repr__(self):
        return f"Expr({to_source(self)!r})"

    @property
    def is_zero(self):
        return isinstance(self, Const) and self.value == 0.0

    @property
    def is_one(self):
        return isinstance(self, Const) and self.value == 1.0


class Const(Expr):
    """A finite float; a literal or fold that overflows raises EvalDomainError."""

    __slots__ = ("value",)

    def __init__(self, value):
        value = float(value)
        if not math.isfinite(value):
            raise EvalDomainError(f"non-finite constant {value}")
        object.__setattr__(self, "value", value)

    def __setattr__(self, *a):
        raise AttributeError("Expr nodes are immutable")

    def diff(self, name):
        return ZERO

    def _key(self):
        return (self.value,)


class Var(Expr):
    __slots__ = ("name",)

    def __init__(self, name):
        object.__setattr__(self, "name", name)

    __setattr__ = Const.__setattr__

    def diff(self, name):
        return ONE if name == self.name else ZERO

    def _collect(self, out):
        out.add(self.name)

    def _key(self):
        return (self.name,)


ZERO = Const(0.0)
ONE = Const(1.0)


def const(value):
    return Const(value)


# Smart constructors: constant folding only (including 0/1 absorption, which
# keeps symbolic derivatives from ballooning).  No other rewriting.

def add(a, b):
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value + b.value)
    if a.is_zero:
        return b
    if b.is_zero:
        return a
    return Add(a, b)


def sub(a, b):
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value - b.value)
    if b.is_zero:
        return a
    if a.is_zero:
        return neg(b)
    return Sub(a, b)


def mul(a, b):
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value * b.value)
    if a.is_zero or b.is_zero:
        return ZERO
    if a.is_one:
        return b
    if b.is_one:
        return a
    return Mul(a, b)


def div(a, b):
    if isinstance(b, Const):
        if b.value == 0.0:
            raise EvalDomainError("division by constant zero")
        if isinstance(a, Const):
            return Const(a.value / b.value)
        if b.value == 1.0:
            return a
    if a.is_zero:
        return ZERO
    return Div(a, b)


def neg(a):
    if isinstance(a, Const):
        return Const(-a.value)
    if isinstance(a, Neg):
        return a.a
    return Neg(a)


def pow_int(a, n):
    n = int(n)
    if n == 0:
        return ONE
    if n == 1:
        return a
    if not isinstance(a, Const):
        return Pow(a, n)
    # fold by the compiled code's rule
    power = _int_power(a.value, abs(n))
    if n > 0:
        return Const(power)
    if a.value == 0.0:
        raise EvalDomainError("zero raised to a negative power")
    # the compiled a^-n raises too: a^n underflows to zero, or a^n or the
    # reciprocal of a subnormal a^n overflows
    if power == 0.0:
        raise EvalDomainError(f"underflow in constant power ({a.value!r})^{n}")
    inverse = 1.0 / power
    if inverse == 0.0 or not math.isfinite(inverse):
        raise EvalDomainError(f"overflow in constant power ({a.value!r})^{n}")
    return Const(inverse)


class _Binary(Expr):
    """Infix operator node.

    Each subclass declares its source symbol ``op``, the function ``call``
    that computes it in generated code, its precedence ``prec`` and its
    smart constructor ``make``; the parser, the printer, code generation and
    ``subst`` read them from there.
    """

    __slots__ = ("a", "b")

    def __init__(self, a, b):
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    __setattr__ = Const.__setattr__

    def _collect(self, out):
        self.a._collect(out)
        self.b._collect(out)

    def _key(self):
        return (self.a, self.b)


class Add(_Binary):
    __slots__ = ()
    op, call, prec, make = "+", "np.add", _PREC["add"], staticmethod(add)

    def diff(self, name):
        return add(self.a.diff(name), self.b.diff(name))


class Sub(_Binary):
    __slots__ = ()
    op, call, prec, make = "-", "np.subtract", _PREC["add"], staticmethod(sub)

    def diff(self, name):
        return sub(self.a.diff(name), self.b.diff(name))


class Mul(_Binary):
    __slots__ = ()
    op, call, prec, make = "*", "np.multiply", _PREC["mul"], staticmethod(mul)

    def diff(self, name):
        return add(mul(self.a.diff(name), self.b), mul(self.a, self.b.diff(name)))


class Div(_Binary):
    __slots__ = ()
    op, call, prec, make = "/", "np.divide", _PREC["mul"], staticmethod(div)

    def diff(self, name):
        # (a/b)' = a'/b - a b'/b^2
        return sub(div(self.a.diff(name), self.b),
                   div(mul(self.a, self.b.diff(name)), mul(self.b, self.b)))


_BINARY = {cls.op: cls for cls in (Add, Sub, Mul, Div)}


class Neg(Expr):
    __slots__ = ("a",)

    def __init__(self, a):
        object.__setattr__(self, "a", a)

    __setattr__ = Const.__setattr__

    def diff(self, name):
        return neg(self.a.diff(name))

    def _collect(self, out):
        self.a._collect(out)

    def _key(self):
        return (self.a,)


class Pow(Expr):
    """Integer power.  The exponent is part of the node, not a subtree."""

    __slots__ = ("a", "n")

    def __init__(self, a, n):
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "n", int(n))

    __setattr__ = Const.__setattr__

    def diff(self, name):
        da = self.a.diff(name)
        return mul(mul(Const(self.n), pow_int(self.a, self.n - 1)), da)

    def _collect(self, out):
        self.a._collect(out)

    def _key(self):
        return (self.a, self.n)


def _int_power(base, n):
    """base^n, n >= 0, by one fixed sequence of squarings and products, so
    numpy arrays and Python floats round alike (``**`` and C pow do not)."""
    power = 1.0
    while n:
        if n & 1:
            power = power * base
        n >>= 1
        if n:
            base = base * base
    return power


class Call(Expr):
    __slots__ = ("fn", "a")

    def __init__(self, fn, a):
        object.__setattr__(self, "fn", fn)
        object.__setattr__(self, "a", a)

    __setattr__ = Const.__setattr__

    def diff(self, name):
        da = self.a.diff(name)
        if self.fn == "sin":
            outer = Call("cos", self.a)
        elif self.fn == "cos":
            outer = neg(Call("sin", self.a))
        elif self.fn == "exp":
            outer = self
        elif self.fn == "log":
            return div(da, self.a)
        elif self.fn == "sqrt":
            return div(da, mul(Const(2.0), self))
        else:  # pragma: no cover
            raise ArityError(f"unknown function {self.fn}")
        return mul(outer, da)

    def _collect(self, out):
        self.a._collect(out)

    def _key(self):
        return (self.fn, self.a)


def partial(e, name):
    """Exact symbolic partial derivative of ``e`` with respect to ``name``."""
    return e.diff(name)


def subst(e, mapping):
    """Substitute expressions for variables; ``mapping`` maps name -> Expr."""
    if isinstance(e, Var):
        return mapping.get(e.name, e)
    if isinstance(e, Const):
        return e
    if isinstance(e, Neg):
        return neg(subst(e.a, mapping))
    if isinstance(e, Pow):
        return pow_int(subst(e.a, mapping), e.n)
    if isinstance(e, Call):
        return Call(e.fn, subst(e.a, mapping))
    return e.make(subst(e.a, mapping), subst(e.b, mapping))


# ---------------------------------------------------------------------------
# Printing


def _print(e):
    """Return (source, precedence)."""
    if isinstance(e, Const):
        v = e.value
        if v < 0:
            return f"-{_fmt_const(-v)}", _PREC["neg"]
        return _fmt_const(v), _PREC["atom"]
    if isinstance(e, Var):
        return e.name, _PREC["atom"]
    if isinstance(e, _Binary):
        sa, pa = _print(e.a)
        sb, pb = _print(e.b)
        if pa < e.prec:
            sa = f"({sa})"
        if pb <= e.prec:    # left-associative: an equal right operand nests
            sb = f"({sb})"
        sep = f" {e.op} " if e.prec == _PREC["add"] else e.op
        return f"{sa}{sep}{sb}", e.prec
    if isinstance(e, Neg):
        sa, pa = _print(e.a)
        if pa < _PREC["neg"]:
            sa = f"({sa})"
        return f"-{sa}", _PREC["neg"]
    if isinstance(e, Pow):
        sa, pa = _print(e.a)
        if pa < _PREC["atom"]:
            sa = f"({sa})"
        if e.n < 0:
            return f"{sa}^-{-e.n}", _PREC["pow"]
        return f"{sa}^{e.n}", _PREC["pow"]
    if isinstance(e, Call):
        sa, _ = _print(e.a)
        return f"{e.fn}({sa})", _PREC["atom"]
    raise TypeError(type(e))


def _fmt_const(v):
    if v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return repr(v)


def to_source(e):
    """Print an expression so that it parses back into an equal tree."""
    return _print(e)[0]


# ---------------------------------------------------------------------------
# Parsing

_TOKEN_RE = re.compile(
    r"""
    (?P<num>\d+(\.\d*)?([eE][+-]?\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op>[()+\-*/^])
  | (?P<ws>\s+)
  | (?P<bad>.)
    """,
    re.VERBOSE,
)


def _tokenize(source):
    tokens = []
    line, col = 1, 1
    for m in _TOKEN_RE.finditer(source):
        kind = m.lastgroup
        text = m.group()
        if kind == "bad":
            raise ExprSyntaxError(f"unexpected character {text!r}", line, col)
        if kind != "ws":
            tokens.append((kind, text, line, col))
        nl = text.count("\n")
        if nl:
            line += nl
            col = len(text) - text.rfind("\n")
        else:
            col += len(text)
    tokens.append(("end", "", line, col))
    return tokens


class _Parser:
    def __init__(self, tokens, variables):
        self.tokens = tokens
        self.pos = 0
        self.variables = frozenset(variables)

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op):
        kind, text, line, col = self.peek()
        if kind != "op" or text != op:
            raise ExprSyntaxError(f"expected {op!r}, found {text or 'end of input'!r}",
                                  line, col)
        return self.advance()

    def expression(self, ops="+-"):
        """A left-associative chain of terms joined by ``+ -``, or with
        ``ops="*/"`` a term: powers joined by ``* /``."""
        operand = self.power if ops == "*/" else lambda: self.expression("*/")
        node = operand()
        while True:
            kind, text, _, _ = self.peek()
            if kind != "op" or text not in ops:
                return node
            self.advance()
            node = _BINARY[text].make(node, operand())

    def power(self):
        base = self.unary()
        kind, text, _, _ = self.peek()
        if kind == "op" and text == "^":
            self.advance()
            n = self.exponent()
            return pow_int(base, n)
        return base

    def exponent(self):
        kind, text, line, col = self.advance()
        sign = 1
        if kind == "op" and text == "-":
            sign = -1
            kind, text, line, col = self.advance()
        if kind != "num" or any(c in text for c in ".eE"):
            raise ExprSyntaxError("exponent must be a literal integer", line, col)
        return sign * int(text)

    def unary(self):
        kind, text, _, _ = self.peek()
        if kind == "op" and text == "-":
            self.advance()
            return neg(self.unary())
        return self.atom()

    def atom(self):
        kind, text, line, col = self.advance()
        if kind == "num":
            return Const(float(text))
        if kind == "ident":
            nk, ntext, _, _ = self.peek()
            if nk == "op" and ntext == "(":
                if text not in FUNCTIONS:
                    raise UnknownIdentifierError(f"unknown function {text!r}",
                                                 line, col)
                self.advance()
                arg = self.expression()
                self.expect_op(")")
                return Call(text, arg)
            if text in FUNCTIONS:
                raise ArityError(f"{text} requires one parenthesized argument",
                                 line, col)
            if text not in self.variables:
                raise UnknownIdentifierError(f"unknown identifier {text!r}",
                                             line, col)
            return Var(text)
        if kind == "op" and text == "(":
            node = self.expression()
            self.expect_op(")")
            return node
        raise ExprSyntaxError(f"unexpected {text or 'end of input'!r}", line, col)


def parse(source, variables):
    """Parse ``source`` into an Expr over the declared ``variables``."""
    parser = _Parser(_tokenize(source), variables)
    node = parser.expression()
    kind, text, line, col = parser.peek()
    if kind != "end":
        raise ExprSyntaxError(f"unexpected trailing {text!r}", line, col)
    return node


# ---------------------------------------------------------------------------
# Compilation to vectorized numpy code
#
# ``signed``, ``numpy_source``, ``numpy_assign``, ``real_pass``, ``guard``,
# ``indent`` and ``exec_generated`` are the one code generator:
# ``compile_exprs`` below, the flow engine's right-hand side
# (``flow._compile_rhs``) and the form node sum
# (``groupoid._compile_node_sum``) write their statements with them.

# the numpy error state generated code runs under
RAISE = {"divide": "raise", "invalid": "raise", "over": "raise"}


def signed(e):
    """(sign, core) with e = sign * core, sign +-1.0.

    Negations, factors +-1 and the signs of constants move up through
    products, quotients and sums (a + (-b) becomes a - b), which IEEE
    arithmetic allows exactly: negation is exact and rounding symmetric.
    The one difference is the sign of a zero: (-a) + (-b) is +0 where
    -(a + b) is -0 when a = -b.
    """
    if isinstance(e, Neg):
        sign, core = signed(e.a)
        return -sign, core
    if isinstance(e, Const):
        return (-1.0, Const(-e.value)) if e.value < 0.0 else (1.0, e)
    if isinstance(e, (Mul, Div)):
        (sa, ca), (sb, cb) = signed(e.a), signed(e.b)
        if cb.is_one:
            return sa * sb, ca
        if ca.is_one and isinstance(e, Mul):
            return sa * sb, cb
        return sa * sb, type(e)(ca, cb)
    if isinstance(e, (Add, Sub)):
        (sa, ca), (sb, cb) = signed(e.a), signed(e.b)
        if isinstance(e, Sub):
            sb = -sb
        if sa == sb:
            return sa, Add(ca, cb)
        return (1.0, Sub(ca, cb)) if sa > 0 else (1.0, Sub(cb, ca))
    return 1.0, e


def numpy_source(e, names):
    """numpy source of ``e`` after ``signed``; ``names`` maps each variable
    to the name of its array."""
    sign, core = signed(e)
    if isinstance(core, Const):
        src = repr(core.value)
    elif isinstance(core, Var):
        src = names[core.name]
    elif isinstance(core, _Binary):
        a, b = numpy_source(core.a, names), numpy_source(core.b, names)
        src = (f"{core.call}({a}, {b})" if isinstance(core, Div)
               else f"({a} {core.op} {b})")
    elif isinstance(core, Pow):
        src = f"_int_power({numpy_source(core.a, names)}, {abs(core.n)})"
        if core.n < 0:
            src = f"np.divide(1.0, {src})"
    elif isinstance(core, Call):
        src = f"np.{core.fn}({numpy_source(core.a, names)})"
    else:
        raise TypeError(type(core))
    return src if sign > 0 else f"(-{src})"


def numpy_assign(target, e, names):
    """Statement writing ``e`` into the array ``target`` by one ufunc call
    on its operands where its top node allows."""
    sign, core = signed(e)
    if isinstance(core, Const):
        return f"{target}.fill({sign * core.value!r})"
    if sign < 0:
        return f"np.negative({numpy_source(core, names)}, out={target})"
    if isinstance(core, _Binary):
        return (f"{core.call}({numpy_source(core.a, names)}, "
                f"{numpy_source(core.b, names)}, out={target})")
    return f"np.copyto({target}, {numpy_source(core, names)})"


def real_pass(evaluations, names, test):
    """The statements of ``evaluations``, (expression, statement) pairs, in
    order; where the source ``test`` holds (a complex batch), each whose
    expression can raise at a finite real row is preceded by that
    expression on the real parts of its variables, so a complex row raises
    its real row's first EvalDomainError: numpy's complex sqrt and log of
    x < 0, and its division by i y, raise nothing.
    """
    real = {v: f"{name}.real" for v, name in names.items()}
    lines = []
    for e, line in evaluations:
        if _can_raise(e):
            lines.append(f"if {test}: {numpy_source(e, real)}")
        lines.append(line)
    return lines


def _can_raise(e):
    """Whether ``e`` can raise at a finite real row other than by overflow:
    a division by a non-constant, a log, a sqrt or a negative power."""
    if isinstance(e, (Const, Var)):
        return False
    if (isinstance(e, Div) and not isinstance(e.b, Const)
            or isinstance(e, Call) and e.fn in ("log", "sqrt")
            or isinstance(e, Pow) and e.n < 0):
        return True
    return any(map(_can_raise, (e.a, e.b) if isinstance(e, _Binary) else (e.a,)))


def guard(lines):
    """Statement ``lines`` in a try block that turns a FloatingPointError
    into EvalDomainError; no lines for none."""
    if not lines:
        return []
    return (["try:"] + [f"    {s}" for s in lines]
            + ["except FloatingPointError as exc:",
               "    raise _domain_violation(exc) from exc"])


def indent(lines, n):
    """Statement ``lines`` indented by n spaces; ``pass`` for none."""
    return [" " * n + s for s in lines or ["pass"]]


def exec_generated(lines, name):
    """The namespace left by running the generated source ``lines``, which
    sees ``np``, ``_int_power``, ``_domain_violation`` and ``RAISE``."""
    namespace = {"np": np, "_int_power": _int_power,
                 "_domain_violation": _domain_violation, "RAISE": RAISE}
    exec(compile("\n".join(lines), f"<sprayform-{name}>", "exec"), namespace)
    return namespace


def compile_exprs(exprs, variables):
    """Compile expressions into one vectorized function of a point batch.

    The result maps an array ``Z`` of shape ``(..., len(variables))`` to an
    array of shape ``(..., len(exprs))``.  Domain violations (division by
    zero, log/sqrt outside their domain, overflow) raise EvalDomainError
    instead of producing silent non-finite values.  A complex ``Z`` runs
    the same source in complex arithmetic, and ``real_pass`` evaluates each
    expression that can raise on its real parts right before its own
    statement, so it raises where, and as, its real row raises; any other
    ``Z`` is cast to float64.
    """
    variables = list(variables)
    names = {v: f"v{i}" for i, v in enumerate(variables)}
    used = used_variables(exprs, variables)
    body = [f"{names[v]} = Z[..., {i}]" for i, v in enumerate(variables)
            if v in used]
    body.append(f"out = np.zeros(Z.shape[:-1] + ({len(exprs)},), Z.dtype)")
    body += guard(real_pass([(e, numpy_assign(f"out[..., {j}]", e, names))
                             for j, e in enumerate(exprs)
                             if not e.is_zero],     # out starts zeroed
                            names, "Z.dtype.kind == 'c'"))
    body.append("return out")
    src = ["def _generated(Z):"] + [f"    {s}" for s in body]
    generated = exec_generated(src, "expr")["_generated"]

    def wrapped(Z):
        Z = np.asarray(Z)
        dtype = np.complex128 if Z.dtype.kind == "c" else np.float64
        with np.errstate(**RAISE):
            return generated(Z.astype(dtype, copy=False))

    return wrapped


def used_variables(exprs, variables):
    """The variables ``exprs`` use; UnknownIdentifierError if one is not
    among ``variables``."""
    used = set()
    for e in exprs:
        used |= e.variables()
    unknown = used - set(variables)
    if unknown:
        raise UnknownIdentifierError(f"expressions use undeclared {sorted(unknown)}")
    return used


def _domain_violation(exc):
    """The EvalDomainError of a numpy FloatingPointError raised by generated
    code."""
    return EvalDomainError(f"domain violation during evaluation: {exc}")


def batch_values(exprs, variables, P, shape):
    """Values of ``exprs`` at a point batch P (..., len(variables)) through
    one compiled function, reshaped to ``P.shape[:-1] + shape``."""
    P = np.asarray(P)
    return compile_exprs(exprs, variables)(P).reshape(P.shape[:-1] + shape)


# ---------------------------------------------------------------------------
# Coefficient fields


def base_vars(n):
    """The chart's base coordinate names x1..xn."""
    return tuple(f"x{i+1}" for i in range(n))


def fiber_vars(r):
    """The chart's fiber coordinate names y1..yr."""
    return tuple(f"y{j+1}" for j in range(r))


class VectorField:
    """Vector field with one Expr component per variable."""

    def __init__(self, variables, components):
        self.variables = tuple(variables)
        self.components = list(components)
        if len(self.components) != len(self.variables):
            raise DimensionError("vector field needs one component per variable")

    @property
    def dim(self):
        return len(self.variables)

    def values(self, P):
        """Components at a point batch: (..., dim) -> (..., dim)."""
        return batch_values(self.components, self.variables, P, (self.dim,))

    def apply_to(self, f):
        """Directional derivative X(f) as an Expr."""
        out = ZERO
        for v, c in zip(self.variables, self.components):
            out = add(out, mul(c, partial(f, v)))
        return out


class FormField:
    """Differential form with Expr coefficients on increasing multi-indices.

    Missing indices are zero.  Degree 0 is allowed (a scalar stored under the
    empty index).
    """

    def __init__(self, variables, degree, components=None):
        self.variables = tuple(variables)
        self.degree = int(degree)
        if self.degree < 0:
            raise DimensionError(f"degree {degree} out of range")
        # degree > dim is allowed and is identically zero
        comps = {}
        if components:
            for I, e in components.items():
                I = tuple(I)
                if (len(I) != self.degree or list(I) != sorted(set(I))
                        or (I and not 0 <= I[-1] < len(self.variables))):
                    raise DimensionError(f"bad multi-index {I} for degree {degree}")
                if not (isinstance(e, Const) and e.value == 0.0):
                    comps[I] = e
        self.components = comps

    @property
    def dim(self):
        return len(self.variables)

    def component(self, I):
        return self.components.get(tuple(I), ZERO)

    def map(self, fn):
        return FormField(self.variables, self.degree,
                         {I: fn(e) for I, e in self.components.items()})

    def scale(self, factor):
        if not isinstance(factor, Expr):
            factor = Const(factor)
        return self.map(lambda e: mul(factor, e))

    def __add__(self, other):
        if (other.variables != self.variables or other.degree != self.degree):
            raise DimensionError("form mismatch in addition")
        comps = dict(self.components)
        for I, e in other.components.items():
            comps[I] = add(comps.get(I, ZERO), e)
        return FormField(self.variables, self.degree, comps)

    def __sub__(self, other):
        return self + other.scale(-1.0)

    def d(self):
        """Exterior derivative, taken symbolically."""
        comps = {}
        for I, e in self.components.items():
            for j, name in enumerate(self.variables):
                de = partial(e, name)
                if de.is_zero:
                    continue
                sign, J = _merge((j,), I)
                if sign == 0:
                    continue
                term = mul(Const(sign), de)
                comps[J] = add(comps.get(J, ZERO), term)
        return FormField(self.variables, self.degree + 1, comps)

    def interior(self, X):
        """Interior product with a VectorField over the same variables."""
        if self.degree == 0:
            raise DimensionError("interior product needs degree >= 1")
        if X.variables != self.variables:
            raise DimensionError("vector field over different variables")
        comps = {}
        for I, e in self.components.items():
            for pos, i in enumerate(I):
                sign, J = (-1) ** pos, I[:pos] + I[pos + 1:]
                term = mul(Const(sign), mul(X.components[i], e))
                comps[J] = add(comps.get(J, ZERO), term)
        return FormField(self.variables, self.degree - 1, comps)

    def lie(self, X):
        """Lie derivative via the Cartan formula: d(i_X w) + i_X(dw)."""
        out = self.d().interior(X)
        if self.degree > 0:
            out = out + self.interior(X).d()
        return out

    def exprs_dense(self):
        """Dense list of component Exprs in increasing-index order."""
        idx = index_list(self.dim, self.degree)
        return [self.components.get(I, ZERO) for I in idx]

    def values(self, P):
        """Dense increasing-index components at a point batch: (..., nC)."""
        exprs = self.exprs_dense()
        return batch_values(exprs, self.variables, P, (len(exprs),))


class BivectorField:
    """Antisymmetric contravariant 2-tensor; stores only i < j components."""

    def __init__(self, dim, components=None, variables=None):
        self.dim = int(dim)
        self.variables = tuple(variables) if variables else base_vars(dim)
        comps = {}
        if components:
            for (i, j), e in components.items():
                if not 0 <= i < j < dim:
                    raise DimensionError(f"bivector index ({i},{j}) must have i<j")
                if not (isinstance(e, Const) and e.value == 0.0):
                    comps[(i, j)] = e
        self.components = comps

    def entry(self, i, j):
        """Full antisymmetric entry pi^{ij} as an Expr."""
        if i == j:
            return ZERO
        if i < j:
            return self.components.get((i, j), ZERO)
        return neg(self.components.get((j, i), ZERO))

    def matrix_exprs(self):
        return [[self.entry(i, j) for j in range(self.dim)] for i in range(self.dim)]

    def values(self, P):
        """Full antisymmetric matrices at a point batch: (..., dim, dim)."""
        exprs = [e for row in self.matrix_exprs() for e in row]
        return batch_values(exprs, self.variables, P, (self.dim, self.dim))


class PolyVectorField:
    """Antisymmetric contravariant k-tensor with Expr components (k <= 3)."""

    def __init__(self, dim, degree, components=None, variables=None):
        self.dim = int(dim)
        self.degree = int(degree)
        self.variables = tuple(variables) if variables else base_vars(dim)
        self.components = dict(components or {})

    def values(self, P):
        """Dense increasing-index components at a point batch: (..., nC)."""
        exprs = [self.components.get(I, ZERO)
                 for I in index_list(self.dim, self.degree)]
        return batch_values(exprs, self.variables, P, (len(exprs),))


# ---------------------------------------------------------------------------
# Schouten brackets
#
# Conventions, fixed once here and used verbatim by every compatibility test:
#   * brackets of functions:      {f,g} = pi(df,dg) = sum_ij pi^{ij} d_i f d_j g
#   * bivector-bivector bracket:  [pi,pi](df,dg,dh) = 2 * sum_cyc {f,{g,h}},
#     in components  [pi,pi]^{ikl} =
#         2 sum_j (pi^{ij} d_j pi^{kl} + pi^{kj} d_j pi^{li} + pi^{lj} d_j pi^{ik})
#   * bivector-vector bracket:    [pi, R] = -L_R pi
#   * wedge of vector and bivector (determinant convention):
#         (R ^ pi)(a,b,c) = a(R) pi(b,c) + b(R) pi(c,a) + c(R) pi(a,b)
# With these choices the Jacobi identity of the bracket
#   {u,v} = pi(du,dv) + <R,du> v - u <R,dv>
# is equivalent to  [pi,pi] = 2 R ^ pi  and  [pi,R] = 0, which is what the
# jacobi builder checks verbatim.


def schouten(p, q):
    """Schouten-Nijenhuis bracket [p, q].

    p is a BivectorField; q is a BivectorField (result: trivector field) or a
    VectorField (result: bivector field, equal to -L_q p).
    """
    if isinstance(q, BivectorField):
        if q.dim != p.dim:
            raise DimensionError("dimension mismatch in schouten bracket")
        n = p.dim
        xs = p.variables
        comps = {}
        for (i, k, l) in itertools.combinations(range(n), 3):
            total = ZERO
            for j, (u, w) in itertools.product(range(n), ((p, q), (q, p))):
                t1 = mul(u.entry(i, j), partial(w.entry(k, l), xs[j]))
                t2 = mul(u.entry(k, j), partial(w.entry(l, i), xs[j]))
                t3 = mul(u.entry(l, j), partial(w.entry(i, k), xs[j]))
                total = add(total, add(t1, add(t2, t3)))
            comps[(i, k, l)] = total
        return PolyVectorField(n, 3, comps, xs)
    if isinstance(q, VectorField):
        if len(q.components) != p.dim:
            raise DimensionError("dimension mismatch in schouten bracket")
        n = p.dim
        xs = p.variables
        comps = {}
        for (i, k) in itertools.combinations(range(n), 2):
            # (L_R pi)^{ik} = R(pi^{ik}) - pi^{jk} d_j R^i - pi^{ij} d_j R^k
            lie = q.apply_to(p.entry(i, k))
            for j in range(n):
                lie = sub(lie, mul(p.entry(j, k), partial(q.components[i], xs[j])))
                lie = sub(lie, mul(p.entry(i, j), partial(q.components[k], xs[j])))
            comps[(i, k)] = neg(lie)
        return PolyVectorField(n, 2, comps, xs)
    raise DimensionError(f"unsupported schouten argument {type(q)}")


def wedge_vector_bivector(R, p):
    """R ^ pi as a trivector field (determinant convention)."""
    n = p.dim
    xs = p.variables
    comps = {}
    for (i, k, l) in itertools.combinations(range(n), 3):
        t = add(mul(R.components[i], p.entry(k, l)),
                add(mul(R.components[k], p.entry(l, i)),
                    mul(R.components[l], p.entry(i, k))))
        comps[(i, k, l)] = t
    return PolyVectorField(n, 3, comps, xs)
