"""Pairs of multiplicative 2-forms: the compatible tensor and its torsion.

A second closed pair (-l, 0) on a Poisson chart produces a second
multiplicative form omega_l; dividing out the symplectic form yields a
(1,1)-tensor field on the groupoid covering l.  Its torsion obstructs the
pair being a genuine symplectic-Nijenhuis structure, and enters the
generalized-complex identity through the pair (-l^2, -T_l).
"""

import numpy as np

from sprayform import expr as ex
from sprayform.expr import BivectorField, FormField, parse
from sprayform.scenarios import (
    L_tensor,
    NijenhuisPair,
    Numerics,
    build_gcs,
    build_nijenhuis,
    build_symplectic_groupoid,
    holomorphic_check,
    omega_L,
    run_checks,
)

xs = ["x1", "x2"]
pi = BivectorField(2, {(0, 1): ex.ONE}, xs)
nm = Numerics(n_quad=64, samples=30, seed=9, mult_pairs=0)

# A genuine pair on R^2: any conformal multiple of the identity.
g = parse("1 + x1/2", xs)
scen = build_nijenhuis(pi, [[g, ex.ZERO], [ex.ZERO, g]], [[-1, 1]] * 2,
                       numerics=nm)
print("conformal pair verdict:",
      "pass" if run_checks(scen).all_passed else "fail")

pts = scen.groupoid.sample_validity_points(1, seed=4, fiber_scale=0.6)
L = L_tensor(scen, omega_L(scen.pair, scen), pts)[0]
print("L at a sample point (covers l on the base):\n", np.round(L, 5))

# The rotation J0 is *not* a valid pair on R^2 (no multiple of a rotation is
# symmetric for pi), but the machinery built from the genuine pair
# (-J0^2, 0) = (Id, 0) still certifies the holomorphic-type identity:
J0 = [[ex.ZERO, ex.const(-1.0)], [ex.ONE, ex.ZERO]]
base = build_symplectic_groupoid(pi, [[-1, 1]] * 2, numerics=nm)
print("|omega_{J^2} + omega| =", holomorphic_check(base, NijenhuisPair(pi, J0), nm))

# Generalized complex triple: l = s J0 with the 2-form balancing l^2.
s = 0.5
lmat = [[ex.ZERO, ex.const(-s)], [ex.const(s), ex.ZERO]]
varpi = FormField(xs, 2, {(0, 1): ex.const(1 - s * s)})
rep = run_checks(build_gcs(pi, lmat, varpi, [[-1, 1]] * 2, numerics=nm))
print("gcs identity residual:", rep["gcs_identity"].residual)
