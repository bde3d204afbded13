"""Flows of sprays with tangent (variational) flow, 1-D quadrature, and the
one finite-difference stencil that every numerical derivative goes through.

The integrator is classical fixed-step RK4.  Steps are aligned with the
quadrature nodes on [0, 1]: the state is computed exactly at the nodes that
the time integral of pulled-back forms is evaluated on, so no dense-output
interpolation error enters the quadrature.  The tangent flow J_t solves the
variational equation dJ/dt = DV(phi^t) J in lockstep with the state, using
exact symbolic partials of the vector field.

Everything is batched: points are arrays of shape (B, d); trajectories carry
states of shape (B, T+1, d) and Jacobians of shape (B, T+1, d, d).
Trajectory computation is pure given the field and the points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import roots_legendre

from . import expr as ex
from .errors import DimensionError, DomainExitError, NonFiniteStateError

__all__ = ["QuadratureRule", "Trajectory", "FlowEngine", "quad",
           "cumulative_integral", "central_difference"]

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
        x, w = roots_legendre(n)
        return cls("gauss", n, (x + 1.0) / 2.0, w / 2.0)

    def __post_init__(self):
        object.__setattr__(self, "nodes", np.asarray(self.nodes, dtype=np.float64))
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=np.float64))


@dataclass
class Trajectory:
    """A batch of solution curves sampled on a common time grid."""

    times: np.ndarray          # (T+1,)
    states: np.ndarray         # (B, T+1, d)
    jacobians: np.ndarray | None = None   # (B, T+1, d, d)


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
        self._dv = ex.compile_exprs(jac_exprs, self.variables)
        if box is None:
            box = [[-np.inf, np.inf]] * self.dim
        # +-inf bounds become +-float max, so the one comparison per step
        # also rejects NaN and inf states
        self._lo, self._hi = np.clip(np.asarray(box, dtype=np.float64),
                                     -_FLOAT_MAX, _FLOAT_MAX).T

    def velocity(self, Z):
        return self._v(Z)

    def velocity_jacobian(self, Z):
        out = self._dv(Z)
        return out.reshape(out.shape[:-1] + (self.dim, self.dim))

    def _check_box(self, Z, t):
        inside = (Z >= self._lo) & (Z <= self._hi)   # False on NaN
        if inside.all():
            return
        row = int(np.argmin(inside.all(axis=-1)))
        z = Z[row].copy()
        if not np.isfinite(z).all():
            raise NonFiniteStateError(t, z, row=row)
        raise DomainExitError(t, z, row=row)

    def _steps(self, nodes, substeps):
        """Sequence of (t0, h, count) covering consecutive node gaps."""
        out = []
        for a, b in zip(nodes[:-1], nodes[1:]):
            h = (b - a) / substeps
            out.append((a, h, substeps))
        return out

    def flow_on_grid(self, points, nodes, substeps=1):
        """States at the given time nodes; nodes[0] must be 0."""
        P = np.atleast_2d(np.asarray(points, dtype=np.float64))
        B = P.shape[0]
        T = len(nodes)
        states = np.empty((B, T, self.dim))
        states[:, 0] = P
        z = P.copy()
        self._check_box(z, float(nodes[0]))
        for k, (t0, h, count) in enumerate(self._steps(nodes, substeps)):
            t = t0
            for _ in range(count):
                z = self._rk4_step(z, h)
                t += h
                self._check_box(z, t)
            states[:, k + 1] = z
        return states

    def _rk4_step(self, z, h):
        k1 = self._v(z)
        k2 = self._v(z + 0.5 * h * k1)
        k3 = self._v(z + 0.5 * h * k2)
        k4 = self._v(z + h * k3)
        return z + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    def _rk4_step_jac(self, z, J, h):
        def rhs(zz, JJ):
            dv = self.velocity_jacobian(zz)
            return self._v(zz), np.matmul(dv, JJ)

        k1, K1 = rhs(z, J)
        k2, K2 = rhs(z + 0.5 * h * k1, J + 0.5 * h * K1)
        k3, K3 = rhs(z + 0.5 * h * k2, J + 0.5 * h * K2)
        k4, K4 = rhs(z + h * k3, J + h * K3)
        z2 = z + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        J2 = J + (h / 6.0) * (K1 + 2.0 * K2 + 2.0 * K3 + K4)
        return z2, J2

    def flow_with_jacobian(self, points, nodes, substeps=1):
        """Trajectory with the tangent flow integrated in lockstep."""
        P = np.atleast_2d(np.asarray(points, dtype=np.float64))
        B = P.shape[0]
        T = len(nodes)
        states = np.empty((B, T, self.dim))
        jacs = np.empty((B, T, self.dim, self.dim))
        states[:, 0] = P
        jacs[:, 0] = np.eye(self.dim)
        z = P.copy()
        J = np.broadcast_to(np.eye(self.dim), (B, self.dim, self.dim)).copy()
        self._check_box(z, float(nodes[0]))
        for k, (t0, h, count) in enumerate(self._steps(nodes, substeps)):
            t = t0
            for _ in range(count):
                z, J = self._rk4_step_jac(z, J, h)
                t += h
                self._check_box(z, t)
            states[:, k + 1] = z
            jacs[:, k + 1] = J
        return Trajectory(np.asarray(nodes, dtype=np.float64), states, jacs)


def quad(values, rule, axis=0):
    """Weighted sum of node values along ``axis`` (values at rule.nodes)."""
    values = np.asarray(values)
    return np.tensordot(rule.weights, np.moveaxis(values, axis, 0), axes=(0, 0))


_STENCIL = ((-2, 1.0 / 12), (-1, -8.0 / 12), (1, 8.0 / 12), (2, -1.0 / 12))


def central_difference(f, X, V, h):
    """f(X) and the 4th-order central differences of f along V.

    X is (B, n) and V (B, D, n).  ``f`` maps rows to rows and is called
    once, on X followed by every offset X + (c h) V.  Returns f(X) (B, ...)
    and sum_c (coef_c / h) f(X + c h V) for each direction (B, D, ...).
    """
    B, D = V.shape[:2]
    offsets = [X + (c * h) * V[:, j] for j in range(D) for c, _ in _STENCIL]
    values = f(np.concatenate([X] + offsets))
    shifted = values[B:].reshape((D, len(_STENCIL), B) + values.shape[1:])
    deriv = np.zeros((B, D) + values.shape[1:])
    for k, (_, coef) in enumerate(_STENCIL):
        deriv += (coef / h) * np.swapaxes(shifted[:, k], 0, 1)
    return values[:B], deriv


def cumulative_integral(values, nodes):
    """Cumulative integral on a uniform grid, consistent with Simpson.

    For an even number of intervals the final entry equals the composite
    Simpson value exactly.  Interior odd nodes use the half-integral of the
    local quadratic:  int_0^h = h (5 f0 + 8 f1 - f2) / 12.

    ``values`` has node values along the last axis.
    """
    values = np.asarray(values, dtype=np.float64)
    T = values.shape[-1] - 1
    h = nodes[1] - nodes[0]
    if T == 0:
        return np.zeros_like(values)
    out = np.zeros_like(values)
    for m in range(0, T - 1, 2):
        f0 = values[..., m]
        f1 = values[..., m + 1]
        f2 = values[..., m + 2]
        out[..., m + 1] = out[..., m] + h * (5.0 * f0 + 8.0 * f1 - f2) / 12.0
        out[..., m + 2] = out[..., m] + h * (f0 + 4.0 * f1 + f2) / 3.0
    if T % 2:  # trailing single interval: trapezoid with quadratic correction
        f0 = values[..., T - 1]
        f1 = values[..., T]
        out[..., T] = out[..., T - 1] + h * 0.5 * (f0 + f1)
    return out

