"""Reference evaluation, pullback and dense layout of alternating forms.

A form is its component vector over strictly increasing multi-indices, in
``tensor.index_list`` order.  These loops spell out the determinant
convention and the antisymmetric layout one component at a time, apart from
the batched kernels they check.
"""

import itertools

import numpy as np

from sprayform.expr import compile_exprs
from sprayform.flow import simpson_step
from sprayform.tensor import index_list


def evaluate(a, *vectors):
    """a(v1, .., vk) = sum_I a_I det(V[I, :]) with V = [v1 .. vk]."""
    V = np.column_stack(vectors)
    return float(sum(c * np.linalg.det(V[list(I), :])
                     for c, I in zip(a, index_list(V.shape[0], len(vectors)))))


def pullback(a, degree, J):
    """Components of J^* a on R^{d_in}: (J^* a)_C = sum_R a_R det(J[R, C])."""
    d_out, d_in = J.shape
    return np.array([sum(c * np.linalg.det(J[np.ix_(R, C)])
                         for c, R in zip(a, index_list(d_out, degree)))
                     for C in index_list(d_in, degree)])


def comps_to_full(comps, dim, degree):
    """(..., nC) components -> (..., d, .., d) antisymmetric, one assignment
    per permuted multi-index, signed by the permutation matrix's determinant."""
    if degree == 0:
        return comps[..., 0]
    full = np.zeros(comps.shape[:-1] + (dim,) * degree)
    for p, I in enumerate(index_list(dim, degree)):
        for perm in itertools.permutations(range(degree)):
            sign = round(np.linalg.det(np.eye(degree)[list(perm)]))
            full[(...,) + tuple(I[k] for k in perm)] = sign * comps[..., p]
    return full


def node_term_sum(evaluator, form_terms, degree, P):
    """The quadrature sum of ``groupoid._FormSum``, one node and one term at
    a time: for each node j in order and each component I of ``form_terms``
    (``groupoid._form_terms``) in order, add c F_I J_{i_1} x .. x J_{i_k}
    with c = qw_j w_j, the outer product of full rows of J (a frozen row is
    the unit vector it is), then alternate.

    The weight w_j is 1, or for a weighted evaluator exp(-c_j) with c_j the
    cumulative Simpson integral of the cocycle to node j.  The products with
    the zero entries of frozen rows add zeros, which move no bit of a finite
    sum, so the result is the per-term sum bit for bit.
    """
    G = evaluator.groupoid
    nodes = []
    G.flow_end(P, lambda j, node: nodes.append((node.z.T.copy(),
                                                 node.J.copy())))
    terms, exprs = form_terms
    fn = compile_exprs(exprs, G.spray.variables) if exprs else None
    weights = G.rule.weights
    if evaluator.weight_cocycle is None:
        scales = list(weights)
    else:
        delta = compile_exprs([evaluator.weight_cocycle], G.spray.variables)
        f = [delta(z)[..., 0] for z, _ in nodes]
        cum = [np.zeros_like(f[0])]
        for j in range(2, len(nodes), 2):
            cum.extend(simpson_step(cum[j - 2], f[j - 2], f[j - 1], f[j],
                                    G._grid[1] - G._grid[0]))
        scales = [weights[j] * np.exp(-c) for j, c in enumerate(cum)]
    d, (_, J0) = G.dim, nodes[0]
    total = np.zeros((d,) * degree + (J0.shape[-1],), J0.dtype)
    for (z, J), scale in zip(nodes, scales):
        F = None if fn is None else fn(z)
        for I, value, col in terms:
            prod = scale * (value if col is None else F[:, col])
            for i in I:
                prod = prod[..., None, :] * J[i] if prod.ndim > 1 else J[i] * prod
            total += prod
    out = np.zeros_like(np.moveaxis(total, -1, 0))
    for perm in itertools.permutations(range(degree)):
        inversions = sum(perm[a] > perm[b] for a in range(degree)
                         for b in range(a + 1, degree))
        term = total.transpose((degree,) + perm)
        out = out + term if inversions % 2 == 0 else out - term
    return out
