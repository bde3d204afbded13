"""A local contact groupoid for a trivialized Jacobi structure.

On the line with pi = 0 and R = d/dx, the first-jet algebroid has total
space coordinates (x; u, p) and the weighted time integral of the contact
form du - p dx has the closed form

    omega = (2 - 2 e^{-p} - p e^{-p}) / p  du  -  (1 - e^{-p}) dx .

The kernel of omega is a contact distribution; the transport weight agrees
with the exponentiated groupoid cocycle of <R, a>.
"""

import numpy as np

from sprayform.algebroid import jacobi_cocycle, transport_weight
from sprayform.expr import BivectorField, parse
from sprayform import expr as ex
from sprayform.groupoid import integrate_cocycle
from sprayform.scenarios import Numerics, build_jacobi, run_checks

pi0 = BivectorField(1, {}, ["x1"])
js = build_jacobi(pi0, [ex.ONE], [[-1, 1]],
                  numerics=Numerics(n_quad=64, samples=40, seed=13))
for line in run_checks(js).summary_lines():
    print(line)

G = js.groupoid
pts = G.sample_validity_points(3, seed=2)
om = js.evaluator.omega_full(pts)
p = pts[:, 2]
print("\nomega coefficients (dx, du, dp) vs the closed form:")
print(np.round(om, 8))
print(np.round(np.stack([-(1 - np.exp(-p)),
                         (2 - 2 * np.exp(-p) - p * np.exp(-p)) / p,
                         np.zeros_like(p)], axis=1), 8))

f = integrate_cocycle(G, jacobi_cocycle(js.chart), pts)
w = transport_weight(G, pts)
print("\nexp(-cocycle) vs transport weight at t=1:")
print(np.exp(-f), w[:, -1])

# A contact structure from a nondegenerate Jacobi pair on R^3.
xs = ["x1", "x2", "x3"]
piC = BivectorField(3, {(0, 1): ex.const(-1.0), (1, 2): parse("x2", xs)}, xs)
jsC = build_jacobi(piC, [ex.ZERO, ex.ZERO, ex.ONE], [[-0.6, 0.6]] * 3,
                   numerics=Numerics(n_quad=32, samples=15, seed=14))
reportC = run_checks(jsC)
print("\ncontact groupoid over R^3:",
      "pass" if reportC.all_passed else "fail",
      "| "+reportC["contact_margin"].note)
