"""A presymplectic groupoid for a twisted Dirac structure on R^3.

The input is a Lagrangian involutive frame inside TM + T*M (here a B-field
transform of the graph of a constant bivector, twisted by H = -dB).  The
groupoid's 2-form satisfies d omega = tau*H - sigma*H, is robust (no common
kernel with both projections), and its graph pushes forward under the source
to the input subbundle.
"""

import numpy as np

from sprayform import expr as ex
from sprayform.expr import FormField, parse
from sprayform.scenarios import Numerics, build_dirac, run_checks

xs = ["x1", "x2", "x3"]
sections = [
    ([ex.ZERO, ex.ONE, ex.ZERO], [ex.ONE, ex.ZERO, parse("x1", xs)]),
    ([ex.neg(ex.ONE), ex.ZERO, ex.ZERO], [ex.ZERO, ex.ONE, ex.ZERO]),
    ([ex.ZERO, ex.ZERO, ex.ZERO], [ex.ZERO, ex.ZERO, ex.ONE]),
]
H = FormField(xs, 3, {(0, 1, 2): ex.const(-1.0)})

ds = build_dirac(sections, H, [[-1, 1]] * 3,
                 numerics=Numerics(n_quad=64, samples=50, seed=11))
for line in run_checks(ds).summary_lines():
    print(line)

# The fitted structure functions of the frame at a batch of points (least
# squares against the frame; the fit residual gates involutivity).
X = np.array([[0.2, -0.4, 0.1]])
print("\nstructure functions at", X[0])
print(np.round(ds.chart.structure.values(X)[0], 6))
