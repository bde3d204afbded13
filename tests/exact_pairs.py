"""Constructions that only the tests use: the exact IM pair of a base form,
the differential on IM pairs, and the pullback of a base form by tau.

The exact pair of varpi has the linear form whose multiplicative form is
tau^* varpi - sigma^* varpi, so these three give closed-form expectations
for the quadrature evaluator and the IM residuals.
"""

import numpy as np

from sprayform import expr as ex
from sprayform.imform import IMFormData
from sprayform.scenarios import _pullback_through


def d_IM(data):
    """Differential on IM pairs: (l, nu) -> (nu, 0), degree k -> k+1."""
    A = data.chart
    zero = [ex.FormField(A.xs, data.degree + 1, {}) for _ in range(A.r)]
    return IMFormData(A, data.degree + 1, list(data.nu), zero)


def exact_im_pair(A, varpi):
    """The pair (varpi-flat o rho, (d varpi)-flat o rho) for a k-form varpi."""
    k = varpi.degree
    dvarpi = varpi.d()
    ls, nus = [], []
    for i in range(A.r):
        rho_i = A.anchor_of_section(i)
        ls.append(varpi.interior(rho_i))
        nus.append(dvarpi.interior(rho_i))
    return IMFormData(A, k, ls, nus)


def tau_pullback(G, varpi, P):
    """(tau^* varpi) at points P, as full batched tensors."""
    end, J = G.flow_end(np.atleast_2d(P))
    return _pullback_through(varpi, end[:, : G.n], J[:, : G.n])
