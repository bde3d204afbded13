"""Reference evaluation and pullback of one alternating form, by determinants.

A form is its component vector over strictly increasing multi-indices, in
``tensor.index_list`` order.  These loops spell out the determinant
convention one component at a time, apart from the batched kernels they
check.
"""

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
