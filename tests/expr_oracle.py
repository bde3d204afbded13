"""Tree-walking evaluation of an Expr at one point: the reference the tests
compare the compiled path against.

It applies the same IEEE operations as the generated code (``a^n`` by the
same squarings and products, ``a^-n`` as the reciprocal), so on rational
expressions the two agree bit for bit; ``sin`` and the other functions come
from the math library, which may differ from numpy's in the last bit.
Division by zero and math domain or range errors raise EvalDomainError.
"""

import math

from sprayform import expr as ex
from sprayform.errors import EvalDomainError

_CALLS = {"sin": math.sin, "cos": math.cos, "exp": math.exp,
          "log": math.log, "sqrt": math.sqrt}


def tree_eval(e, env):
    """Value of ``e`` at ``env`` (variable name -> float)."""
    if isinstance(e, ex.Const):
        return e.value
    if isinstance(e, ex.Var):
        return env[e.name]
    if isinstance(e, ex.Neg):
        return -tree_eval(e.a, env)
    if isinstance(e, ex.Pow):
        power = ex._int_power(tree_eval(e.a, env), abs(e.n))
        if e.n >= 0:
            return power
        if power == 0.0:
            raise EvalDomainError("zero raised to a negative power")
        return 1.0 / power
    if isinstance(e, ex.Call):
        x = tree_eval(e.a, env)
        try:
            return _CALLS[e.fn](x)
        except (ValueError, OverflowError) as exc:
            raise EvalDomainError(f"{e.fn}({x!r}): {exc}") from exc
    a, b = tree_eval(e.a, env), tree_eval(e.b, env)
    if isinstance(e, ex.Add):
        return a + b
    if isinstance(e, ex.Sub):
        return a - b
    if isinstance(e, ex.Mul):
        return a * b
    if b == 0.0:
        raise EvalDomainError("division by zero")
    return a / b
