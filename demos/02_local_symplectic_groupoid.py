"""A local symplectic groupoid for the rotational Poisson structure.

The total space is a neighborhood of the zero section in T*R^3.  The
structure maps come from the unit-time flow of the spray V(x, p) =
(pi#(x) p, 0); the symplectic form is the time integral of flow pullbacks of
the canonical 2-form.  The source map is then a symplectic realization: it
pushes the inverse of omega down to pi.
"""

import numpy as np

from sprayform.expr import BivectorField, parse
from sprayform.scenarios import Numerics, build_symplectic_groupoid, run_checks

xs = ["x1", "x2", "x3"]
pi = BivectorField(3, {(0, 1): parse("x3", xs),
                       (0, 2): parse("-x2", xs),
                       (1, 2): parse("x1", xs)}, xs)

nm = Numerics(n_quad=64, mu_steps=32, samples=50, seed=7,
              mult_pairs=10, assoc_triples=5)
scen = build_symplectic_groupoid(pi, [[-1, 1]] * 3, numerics=nm)

print("verdicts")
for line in run_checks(scen).summary_lines():
    print(" ", line)

G = scen.groupoid
print("\ncertified validity box (base rows, then fiber rows):")
print(G.validity_box())

# Evaluate the symplectic form and its inverse at a point of the groupoid.
a = G.sample_validity_points(1, seed=3)[0]
W = scen.evaluator.omega_full(a[None, :])[0]
print("\nomega at a:\n", np.round(W, 6))
print("source of a:", a[:G.n], " target of a:", G.tau(a[None, :])[0])

# The product of two composable arrows, by the multiplication ODE.
from sprayform.groupoid import multiply_poisson, sample_composable_pairs

A, B = sample_composable_pairs(G, 1, seed=12)
mu = multiply_poisson(G, scen.evaluator, A, B, max_sweeps=32)
print("\na  =", A[0], "\nb  =", B[0], "\nab =", mu[0])
print("source(ab) == source(b):", np.allclose(mu[0][:3], B[0][:3], atol=1e-9))
