"""The coefficient expression language and its exact derivatives.

Every geometric object in this library is entered as plain-text expressions
over chart variables.  Parsing produces immutable trees; derivatives are
taken symbolically on the tree, so downstream residual checks are limited
only by evaluation roundoff.
"""

import numpy as np

from sprayform import expr as ex
from sprayform.expr import BivectorField, VectorField, parse, partial, schouten

xs = ["x1", "x2", "x3"]

# Parse.
e = parse("sin(x1)*x2 + exp(x3/2)", xs)
print("source        :", ex.to_source(e))

# Exact partial derivatives of any order.
d1 = partial(e, "x1")
d12 = partial(d1, "x2")
print("d/dx1         :", ex.to_source(d1))
print("d2/dx1 dx2    :", ex.to_source(d12))

# Evaluation: expressions are compiled into one vectorized function of a
# point batch (B, 3) -> (B, number of expressions).  Overflow, division by
# zero and log/sqrt outside their domain raise EvalDomainError.
fn = ex.compile_exprs([e, d1], xs)
print("value at point:", fn(np.array([0.3, -1.0, 0.5]))[0])
batch = np.random.default_rng(0).uniform(-1, 1, (5, 3))
print("batched values:\n", fn(batch))

# The rotational bivector field on R^3 and its Schouten square.
pi = BivectorField(3, {(0, 1): parse("x3", xs),
                       (0, 2): parse("-x2", xs),
                       (1, 2): parse("x1", xs)}, xs)
bracket = schouten(pi, pi)
# Fields evaluate through the same compiled path, on point batches.
X = np.array([[0.4, -0.2, 0.7], [-0.3, 0.9, 0.1]])
print("pi at X[0]    :\n", pi.values(X)[0])
print("[pi, pi] at X :", bracket.values(X).ravel(), " (zero: pi is Poisson)")

# The bracket with a vector field detects symmetries: rotation about the
# third axis preserves pi, translation does not.
rot = VectorField(xs, [parse("-x2", xs), parse("x1", xs), ex.ZERO])
trans = VectorField(xs, [ex.ONE, ex.ZERO, ex.ZERO])
print("[pi, rotation]   :", schouten(pi, rot).values(X)[0])
print("[pi, translation]:", schouten(pi, trans).values(X)[0])
