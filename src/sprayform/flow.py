"""Flows of sprays with tangent (variational) flow, 1-D quadrature, and the
one finite-difference stencil that every numerical derivative goes through.

The integrator is classical fixed-step RK4.  Steps are aligned with the
quadrature nodes on [0, 1]: the state is computed exactly at the nodes that
the time integral of pulled-back forms is evaluated on, so no dense-output
interpolation error enters the quadrature.  The tangent flow J_t solves the
variational equation dJ/dt = DV(phi^t) J in lockstep with the state, using
exact symbolic partials of the vector field.

Everything is batched over points (B, d), and one in-place RK4 loop serves
both solves.  Neither stores a trajectory: each returns the end state, and
an optional ``at_node`` consumer sees the state at every node as the loop
passes it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import expr as ex
from .errors import DimensionError, DomainExitError, NonFiniteStateError

__all__ = ["QuadratureRule", "FlowEngine", "cumulative_integral",
           "simpson_step", "central_difference", "stencil_rows",
           "stencil_derivatives"]

_FLOAT_MAX = np.finfo(np.float64).max


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights on [0, 1].  Weights sum to one."""

    kind: str
    n: int
    nodes: np.ndarray
    weights: np.ndarray

    @classmethod
    def simpson(cls, n=64):
        """Composite Simpson with n subintervals (n even), nodes j/n."""
        if n % 2 or n < 2:
            raise DimensionError("composite Simpson needs an even n >= 2")
        nodes = np.linspace(0.0, 1.0, n + 1)
        w = np.ones(n + 1)
        w[1:-1:2] = 4.0
        w[2:-1:2] = 2.0
        w /= 3.0 * n
        return cls("simpson", n, nodes, w)

    @classmethod
    def gauss_legendre(cls, n=32):
        x, w = np.polynomial.legendre.leggauss(n)
        return cls("gauss", n, (x + 1.0) / 2.0, w / 2.0)

    def __post_init__(self):
        object.__setattr__(self, "nodes", np.asarray(self.nodes, dtype=np.float64))
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=np.float64))


class FlowEngine:
    """Flow of a vector field given by expressions, with exact linearization.

    ``components`` are Exprs over ``variables`` (the coordinates of the total
    space).  ``box`` is an optional (d, 2) array of bounds; a trajectory that
    leaves it raises DomainExitError carrying the exit time, the batch row
    and its state.  Bounds may be +-inf for unconstrained coordinates.  A NaN
    or infinite state raises NonFiniteStateError carrying the same, with or
    without a box.
    """

    def __init__(self, components, variables, box=None):
        self.variables = tuple(variables)
        self.dim = len(self.variables)
        if len(components) != self.dim:
            raise DimensionError("vector field needs one component per coordinate")
        self.components = list(components)
        self._v = ex.compile_exprs(self.components, self.variables)
        jac_exprs = [ex.partial(c, v) for c in self.components for v in self.variables]
        self._vdv = ex.compile_exprs(self.components + jac_exprs, self.variables)
        if box is None:
            box = [[-np.inf, np.inf]] * self.dim
        # +-inf bounds become +-float max, so the one comparison per step
        # also rejects NaN and inf states
        self._lo, self._hi = np.clip(np.asarray(box, dtype=np.float64),
                                     -_FLOAT_MAX, _FLOAT_MAX).T

    def _check_box(self, Z, t):
        inside = (Z >= self._lo) & (Z <= self._hi)   # False on NaN
        if inside.all():
            return
        row = int(np.argmin(inside.all(axis=-1)))
        z = Z[row].copy()
        if not np.isfinite(z).all():
            raise NonFiniteStateError(t, z, row=row)
        raise DomainExitError(t, z, row=row)

    def flow_on_grid(self, points, nodes, substeps=1, at_node=None):
        """State at nodes[-1]; nodes[0] must be 0.

        ``at_node(k, z)``, if given, sees a view of the state at each node k.
        """
        z = np.atleast_2d(np.asarray(points, dtype=np.float64)).copy()
        for k in self._rk4(z, z, self._v, nodes, substeps):
            if at_node is not None:
                at_node(k, z)
        return z

    def flow_with_jacobian(self, points, nodes, substeps=1, at_node=None):
        """Flow and tangent map J_t as one (B, d, d+1) state [z | J].

        Returns the end state (z, J).  ``at_node(k, z, J)``, if given, sees
        views of the state at each node k.
        """
        P = np.atleast_2d(np.asarray(points, dtype=np.float64))
        B, d = P.shape
        S = np.empty((B, d, d + 1))
        S[..., 0] = P
        S[..., 1:] = np.eye(d)
        z, J = S[..., 0], S[..., 1:]
        K = np.empty_like(S)

        def rhs(X):
            # [V | DV J]: V and DV from one compiled call
            vdv = self._vdv(X[..., 0])
            K[..., 0] = vdv[:, :d]
            np.matmul(vdv[:, d:].reshape(B, d, d), X[..., 1:], out=K[..., 1:])
            return K

        for k in self._rk4(S, z, rhs, nodes, substeps):
            if at_node is not None:
                at_node(k, z, J)
        return z.copy(), J.copy()

    def _rk4(self, S, z, rhs, nodes, substeps):
        """Fixed-step RK4 on the state S in place, yielding k at each node k.

        ``z`` is the view of S holding the points, box-checked after every
        step; ``rhs(X)`` is dX/dt (it may return one buffer each call).  Each
        element gets the IEEE operations of S + (h/6) (k1 + 2 k2 + 2 k3 + k4)
        in that order.
        """
        stage = np.empty_like(S)
        acc = np.empty_like(S)
        self._check_box(z, float(nodes[0]))
        yield 0
        for k in range(len(nodes) - 1):
            h = (nodes[k + 1] - nodes[k]) / substeps
            t = nodes[k]
            for _ in range(substeps):
                K = rhs(S)
                np.copyto(acc, K)
                for i, c in enumerate((0.5 * h, 0.5 * h, h)):
                    np.multiply(K, c, out=stage)
                    stage += S
                    if i:
                        K *= 2.0
                        acc += K
                    K = rhs(stage)
                acc += K
                acc *= h / 6.0
                S += acc
                t += h
                self._check_box(z, t)
            yield k + 1


_STENCIL = ((-2, 1.0 / 12), (-1, -8.0 / 12), (1, 8.0 / 12), (2, -1.0 / 12))


def central_difference(f, X, V, h):
    """f(X) and the 4th-order central differences of f along V.

    X is (B, n) and V (B, D, n).  ``f`` maps rows to rows and is called
    once, on ``stencil_rows(X, V, h)``.  Returns f(X) (B, ...) and
    sum_c (coef_c / h) f(X + c h V) for each direction (B, D, ...).
    """
    return stencil_derivatives(f(stencil_rows(X, V, h)), len(X), h)


def stencil_rows(X, V, h):
    """X followed by every offset X + (c h) V[:, j], direction-major: the
    rows the central difference evaluates, for a caller that evaluates them
    itself and hands the values to ``stencil_derivatives``."""
    D = V.shape[1]
    return np.concatenate([X] + [X + (c * h) * V[:, j] for j in range(D)
                                 for c, _ in _STENCIL])


def stencil_derivatives(values, B, h):
    """(f(X), derivatives) of ``central_difference`` from the values of f on
    the ``stencil_rows`` of B rows."""
    D = (len(values) // B - 1) // len(_STENCIL)
    shifted = values[B:].reshape((D, len(_STENCIL), B) + values.shape[1:])
    deriv = np.zeros((B, D) + values.shape[1:])
    for k, (_, coef) in enumerate(_STENCIL):
        deriv += (coef / h) * np.swapaxes(shifted[:, k], 0, 1)
    return values[:B], deriv


def cumulative_integral(values, nodes):
    """Cumulative integral on a uniform grid, consistent with Simpson.

    For an even number of intervals the final entry equals the composite
    Simpson value exactly (see ``simpson_step``).  ``values`` has node values
    along the last axis.
    """
    values = np.asarray(values, dtype=np.float64)
    T = values.shape[-1] - 1
    h = nodes[1] - nodes[0]
    if T == 0:
        return np.zeros_like(values)
    out = np.zeros_like(values)
    for m in range(0, T - 1, 2):
        out[..., m + 1], out[..., m + 2] = simpson_step(
            out[..., m], values[..., m], values[..., m + 1], values[..., m + 2], h)
    if T % 2:  # trailing single interval: trapezoid with quadratic correction
        f0 = values[..., T - 1]
        f1 = values[..., T]
        out[..., T] = out[..., T - 1] + h * 0.5 * (f0 + f1)
    return out


def simpson_step(c0, f0, f1, f2, h):
    """Cumulative integrals at the next two nodes of a uniform grid.

    ``c0`` is the integral up to the node of value f0.  The far node adds the
    Simpson panel h (f0 + 4 f1 + f2) / 3; the middle node adds the half-panel
    integral of the local quadratic, h (5 f0 + 8 f1 - f2) / 12.
    """
    return (c0 + h * (5.0 * f0 + 8.0 * f1 - f2) / 12.0,
            c0 + h * (f0 + 4.0 * f1 + f2) / 3.0)
