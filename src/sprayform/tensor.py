"""Pointwise multilinear algebra: alternating tensors and their batched kernels.

Values of differential forms at a point live here.  The evaluation
convention is the determinant one (no 1/k! factors):

    (dx^1 ^ dx^2)(e1, e2) = 1

so a k-tensor applied to vectors v1..vk is  sum_I  a_I * det(V[I, :]),
with V the matrix whose columns are the vectors and I running over strictly
increasing multi-indices.  Ambient dimensions are capped at 8, which bounds
the dense component storage at C(8,4) = 70 entries.

All values are plain immutable data; share freely between threads.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

import numpy as np

from .errors import DimensionError

__all__ = ["AltTensor", "wedge", "interior", "pullback"]

MAX_DIM = 8


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


class AltTensor:
    """Alternating covariant k-tensor on R^d, dense over increasing indices."""

    __slots__ = ("dim", "degree", "comps")

    def __init__(self, dim, degree, comps=None):
        if dim > MAX_DIM:
            raise DimensionError(f"dimension {dim} exceeds the supported cap {MAX_DIM}")
        if not 0 <= degree <= dim:
            raise DimensionError(f"degree {degree} out of range for dim {dim}")
        self.dim = int(dim)
        self.degree = int(degree)
        n = len(index_list(dim, degree))
        if comps is None:
            self.comps = np.zeros(n)
        else:
            comps = np.asarray(comps, dtype=np.float64)
            if comps.shape != (n,):
                raise DimensionError(f"expected {n} components, got {comps.shape}")
            self.comps = comps

    @classmethod
    def from_components(cls, dim, degree, mapping):
        """Build from a {multi-index tuple: value} mapping (indices 0-based)."""
        pos = index_position(dim, degree)
        comps = np.zeros(len(pos))
        for I, v in mapping.items():
            comps[pos[tuple(I)]] = v
        return cls(dim, degree, comps)

    @classmethod
    def basis_covector(cls, dim, i):
        return cls.from_components(dim, 1, {(i,): 1.0})

    def component(self, I):
        return float(self.comps[index_position(self.dim, self.degree)[tuple(I)]])

    def to_full(self):
        """Fully antisymmetric dense array of shape (d,)*k."""
        full = np.zeros((self.dim,) * self.degree)
        if self.degree == 0:
            return self.comps[0] if self.comps.size else np.zeros(())
        for p, I in enumerate(index_list(self.dim, self.degree)):
            v = self.comps[p]
            if v == 0.0:
                continue
            for perm in itertools.permutations(range(self.degree)):
                sign = _perm_sign(perm)
                full[tuple(I[k] for k in perm)] = sign * v
        return full

    @classmethod
    def from_full(cls, full, degree=None):
        full = np.asarray(full, dtype=np.float64)
        k = full.ndim if degree is None else degree
        d = full.shape[0] if k else 0
        if k == 0:
            return cls(0, 0, np.array([float(full)]))
        idx = index_list(d, k)
        comps = np.array([full[I] for I in idx])
        return cls(d, k, comps)

    def __call__(self, *vectors):
        if len(vectors) != self.degree:
            raise DimensionError(f"expected {self.degree} vectors")
        if self.degree == 0:
            return float(self.comps[0])
        V = np.column_stack([np.asarray(v, dtype=np.float64) for v in vectors])
        if V.shape[0] != self.dim:
            raise DimensionError("vector dimension mismatch")
        total = 0.0
        for p, I in enumerate(index_list(self.dim, self.degree)):
            a = self.comps[p]
            if a != 0.0:
                total += a * np.linalg.det(V[list(I), :])
        return float(total)

    def __add__(self, other):
        self._check_like(other)
        return AltTensor(self.dim, self.degree, self.comps + other.comps)

    def __sub__(self, other):
        self._check_like(other)
        return AltTensor(self.dim, self.degree, self.comps - other.comps)

    def __mul__(self, scalar):
        return AltTensor(self.dim, self.degree, self.comps * float(scalar))

    __rmul__ = __mul__

    def __neg__(self):
        return self * -1.0

    def _check_like(self, other):
        if self.dim != other.dim or self.degree != other.degree:
            raise DimensionError("tensor shape mismatch")

    def norm_max(self):
        return float(np.max(np.abs(self.comps))) if self.comps.size else 0.0

    def __repr__(self):
        return f"AltTensor(dim={self.dim}, degree={self.degree}, comps={self.comps})"


def wedge(a, b):
    """Wedge product under the determinant convention (signed shuffle sum)."""
    if a.dim != b.dim:
        raise DimensionError("wedge needs a common ambient dimension")
    if a.degree + b.degree > a.dim:
        raise DimensionError("wedge degree exceeds ambient dimension")
    out = np.zeros(len(index_list(a.dim, a.degree + b.degree)))
    for ia, ib, io, sign in _merge_table(a.dim, a.degree, b.degree):
        out[io] += sign * a.comps[ia] * b.comps[ib]
    return AltTensor(a.dim, a.degree + b.degree, out)


def interior(v, a):
    """Interior product (i_v a)(w2..wk) = a(v, w2..wk)."""
    if a.degree < 1:
        raise DimensionError("interior product needs degree >= 1")
    v = np.asarray(v, dtype=np.float64)
    pos_out = index_position(a.dim, a.degree - 1)
    out = np.zeros(len(pos_out))
    for p, I in enumerate(index_list(a.dim, a.degree)):
        c = a.comps[p]
        if c == 0.0:
            continue
        for slot, i in enumerate(I):
            J = I[:slot] + I[slot + 1:]
            out[pos_out[J]] += ((-1) ** slot) * v[i] * c
    return AltTensor(a.dim, a.degree - 1, out)


def pullback(a, J):
    """Pullback (J* a)(v1..vk) = a(J v1, .., J vk); J maps the new space in."""
    M = np.asarray(J, dtype=np.float64)
    d_out, d_in = M.shape
    if a.dim != d_out:
        raise DimensionError("pullback: form lives on the codomain of J")
    k = a.degree
    if k == 0:
        return AltTensor(d_in, 0, a.comps.copy())
    if k > d_in:
        raise DimensionError("pullback target dimension is below the form degree")
    rows = index_list(d_out, k)
    cols = index_list(d_in, k)
    out = np.zeros(len(cols))
    for pc, C in enumerate(cols):
        sub = M[:, list(C)]
        total = 0.0
        for pr, R in enumerate(rows):
            c = a.comps[pr]
            if c != 0.0:
                total += c * np.linalg.det(sub[list(R), :])
        out[pc] = total
    return AltTensor(d_in, k, out)


# ---------------------------------------------------------------------------
# Batched kernels used by the quadrature evaluators (degrees 1..3).
# Forms are carried as fully antisymmetric dense arrays with leading batch
# axes; these helpers keep the hot paths inside einsum.


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
