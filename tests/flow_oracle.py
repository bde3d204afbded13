"""Dense tangent flow: the reference the tests compare ``FlowEngine`` with.

It integrates the packed state [z | J] of shape (B, d, d + 1) for every
coordinate by classical RK4, with V and DV from one compiled call and DV J
by ``np.matmul``: the layout the engine used before it stepped only its
live rows, with the same IEEE operations per element, so its z agrees with
the engine's bit for bit and its J to roundoff (``matmul`` may use fused
multiply-adds).  It has no box and no error handling.  ``omega_full``
pulls a form back through it with ``tensor.pullback_full_batch`` at every
quadrature node and reduces over the nodes in one call.
"""

import numpy as np

from sprayform import expr as ex
from sprayform import tensor as tn
from sprayform.flow import cumulative_integral


def flow_with_jacobian(components, variables, points, nodes, substeps=1,
                       at_node=None):
    """End state (z, J), (B, d) and (B, d, d); ``at_node(k, z, J)`` sees
    batch-major copies at each node k."""
    d = len(variables)
    jac = [ex.partial(c, v) for c in components for v in variables]
    vdv = ex.compile_exprs(list(components) + jac, variables)
    P = np.atleast_2d(np.asarray(points, dtype=np.float64))
    B = len(P)
    S = np.empty((B, d, d + 1))
    S[..., 0] = P
    S[..., 1:] = np.eye(d)

    def rhs(X):
        out = vdv(X[..., 0])
        K = np.empty_like(X)
        K[..., 0] = out[:, :d]
        np.matmul(out[:, d:].reshape(B, d, d), X[..., 1:], out=K[..., 1:])
        return K

    def emit(k):
        if at_node is not None:
            at_node(k, S[..., 0].copy(), S[..., 1:].copy())

    emit(0)
    for k in range(len(nodes) - 1):
        h = (nodes[k + 1] - nodes[k]) / substeps
        for _ in range(substeps):
            k1 = rhs(S)
            k2 = rhs(S + 0.5 * h * k1)
            k3 = rhs(S + 0.5 * h * k2)
            k4 = rhs(S + h * k3)
            S = S + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        emit(k + 1)
    return S[..., 0].copy(), S[..., 1:].copy()


def quadrature(G, form, states, jacs, delta=None):
    """sum_j qw_j w_j J_j^T F(z_j) J_j from the (B, T, d) states and
    (B, T, d, d) Jacobians at G's quadrature nodes; w_j = 1, or the
    transport exp(-int_0^t_j delta) by the cumulative Simpson rule."""
    comps = ex.compile_exprs(form.exprs_dense(), G.spray.variables)(states)
    full = tn.comps_to_full_batch(comps, G.dim, form.degree)
    pulled = tn.pullback_full_batch(jacs, full, form.degree)
    if delta is None:
        return np.einsum("bt...,t->b...", pulled, G.rule.weights)
    vals = ex.compile_exprs([delta], G.spray.variables)(states)[..., 0]
    w = G.rule.weights * np.exp(-cumulative_integral(vals, G.rule.nodes))
    return np.sum(pulled * w.reshape(w.shape + (1,) * form.degree), axis=1)


def omega_full(G, form, P, delta=None):
    """The quadrature of ``form`` along the oracle flow of G's spray."""
    seen = []
    flow_with_jacobian(G.spray.components, G.spray.variables, P, G._grid,
                       G.substeps, lambda k, z, J: seen.append((z, J)))
    seen = seen[G._nodes]
    return quadrature(G, form, np.stack([z for z, _ in seen], axis=1),
                      np.stack([J for _, J in seen], axis=1), delta)


def roundoff(got, want):
    """max |got - want| in units of eps * max(1, max |want|)."""
    scale = max(1.0, float(np.max(np.abs(want), initial=0.0)))
    err = float(np.max(np.abs(np.asarray(got) - want), initial=0.0))
    return err / (np.finfo(np.float64).eps * scale)
