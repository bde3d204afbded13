"""Alternating forms as batched arrays of components.

A k-form on R^d is carried either as its components over strictly
increasing multi-indices, shape (..., nC) with nC = C(d, k) in
``index_list`` order, or as the fully antisymmetric dense array, shape
(..., d, .., d); leading axes are batch axes.  The evaluation convention is
the determinant one (no 1/k! factors):

    (dx^1 ^ dx^2)(e1, e2) = 1

so a k-form applied to vectors v1..vk is  sum_I  a_I * det(V[I, :]),
with V the matrix whose columns are the vectors and I running over strictly
increasing multi-indices.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

import numpy as np

from .errors import DimensionError

__all__ = ["comps_to_full_batch", "full_to_comps_batch", "wedge_batch",
           "evaluate_batch", "pullback_full_batch"]


@lru_cache(maxsize=None)
def index_list(dim, degree):
    return tuple(itertools.combinations(range(dim), degree))


@lru_cache(maxsize=None)
def index_position(dim, degree):
    return {I: p for p, I in enumerate(index_list(dim, degree))}


@lru_cache(maxsize=None)
def _merge_table(dim, p, q):
    """For wedge: list of (pos_a, pos_b, pos_out, sign)."""
    out = []
    pos_out = index_position(dim, p + q)
    for ia, I in enumerate(index_list(dim, p)):
        for ib, J in enumerate(index_list(dim, q)):
            sign, K = _merge(I, J)
            if sign:
                out.append((ia, ib, pos_out[K], sign))
    return tuple(out)


def _merge(I, J):
    """Sign and sorted union of disjoint index tuples; (0, None) if they meet."""
    merged = I + J
    if len(set(merged)) != len(merged):
        return 0, None
    order = sorted(range(len(merged)), key=merged.__getitem__)
    return _perm_sign(order), tuple(sorted(merged))


def _perm_sign(order):
    order = list(order)
    seen = [False] * len(order)
    sign = 1
    for i in range(len(order)):
        if seen[i]:
            continue
        j, length = i, 0
        while not seen[j]:
            seen[j] = True
            j = order[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


# ---------------------------------------------------------------------------
# Batched kernels.  The quadrature evaluators (degrees 1..3) carry dense
# arrays, which keep the pullback inside einsum; wedge and evaluation work
# on components.


def comps_to_full_batch(comps, dim, degree):
    """(..., nC) increasing components -> (..., d, .., d) antisymmetric."""
    lead = comps.shape[:-1]
    if degree == 0:
        return comps[..., 0]
    full = np.zeros(lead + (dim,) * degree)
    for p, I in enumerate(index_list(dim, degree)):
        for perm in itertools.permutations(range(degree)):
            sign = _perm_sign(perm)
            full[(...,) + tuple(I[k] for k in perm)] = sign * comps[..., p]
    return full


def full_to_comps_batch(full, dim, degree):
    """(..., d, .., d) antisymmetric -> (..., nC) increasing components."""
    idx = np.asarray(index_list(dim, degree), dtype=np.intp).reshape(-1, degree)
    return full[(...,) + tuple(idx.T)]


def wedge_batch(a, b, dim, p, q):
    """Wedge of (..., nC) components of degrees p and q on R^dim."""
    if p + q > dim:
        raise DimensionError("wedge degree exceeds ambient dimension")
    out = np.zeros(a.shape[:-1] + (len(index_list(dim, p + q)),))
    for ia, ib, io, sign in _merge_table(dim, p, q):
        out[..., io] += sign * a[..., ia] * b[..., ib]
    return out


def evaluate_batch(comps, V):
    """Values sum_I a_I det(V[I, :]) of (..., nC) components on the columns
    of V, shape (..., d, k); zero components add nothing."""
    d, k = V.shape[-2:]
    idx = index_list(d, k)
    dets = np.linalg.det(V[..., np.asarray(idx, dtype=np.intp), :])
    total = 0.0   # summed in index order: np.sum would pair terms, rounding apart
    for p in range(len(idx)):
        a = comps[..., p]
        total = total + np.where(a != 0.0, a * dets[..., p], 0.0)
    return total


def pullback_full_batch(J, full, degree):
    """Pull back batched full tensors through batched Jacobians.

    J has shape (..., d, d) (or (..., d_out, d_in)); full has matching
    leading axes (broadcastable) and ``degree`` trailing tensor axes.
    """
    if degree == 0:
        return full
    Jt = np.swapaxes(J, -1, -2)
    if degree == 1:
        return np.matmul(Jt, full[..., None])[..., 0]
    if degree == 2:
        return np.matmul(Jt, np.matmul(full, J))
    if degree == 3:
        tmp = np.einsum("...ia,...ijk->...ajk", J, full)
        tmp = np.einsum("...jb,...ajk->...abk", J, tmp)
        return np.einsum("...kc,...abk->...abc", J, tmp)
    raise DimensionError("batched pullback supports degree <= 3")
