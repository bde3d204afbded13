"""Reference evaluation, pullback and dense layout of alternating forms.

A form is its component vector over strictly increasing multi-indices, in
``tensor.index_list`` order.  These loops spell out the determinant
convention and the antisymmetric layout one component at a time, apart from
the batched kernels they check.
"""

import itertools

import numpy as np

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
