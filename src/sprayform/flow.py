"""Flows of sprays with tangent (variational) flow, 1-D quadrature, and the
complex step that differentiates every map that exists only numerically.

The integrator is classical fixed-step RK4.  Steps are aligned with the
quadrature nodes on [0, 1]: the state is computed exactly at the nodes that
the time integral of pulled-back forms is evaluated on, so no dense-output
interpolation error enters the quadrature.  The tangent flow J_t solves the
variational equation dJ/dt = DV(phi^t) J in lockstep with the state, using
exact symbolic partials of the vector field.

State layout.  A coordinate z_i is live when its component V_i or one of
its partials dV_i/dz_k is not the symbolic zero (``Expr.is_zero``), and
frozen otherwise: then z_i keeps its start value and the row J_i. stays
e_i, so both are held as constants, box-checked once at t = 0 and never
stepped.  A solve of B points integrates one component-major array of shape
(rows, B): z_i for each live i, then, with the tangent flow, the d entries
of J_i. for each live i.  On so(3)* the fiber coordinates are frozen, and
the state has 3 + 3 * 6 = 21 rows instead of 6 + 36.

One generated function per engine and solve kind writes the derivative of
the live rows into the stage buffer in place, emitted from the symbolic
partials: (DV J)_i. = sum_k dV_i/dz_k J_k., where a +-1 coefficient is one
in-place add or subtract of the block J_k., a frozen k contributes
dV_i/dz_k to column k alone, and rows that read only frozen coordinates are
written once per solve.  numpy floating-point errors raise for the whole
solve.  One in the evaluation of V or of a partial is EvalDomainError.  One
in the products with J or in the RK4 arithmetic redoes that step with
errors ignored: NonFiniteStateError then names the first batch row left
with a non-finite entry of z or J, and a step that leaves none stands.
Node consumers run under the caller's error state.  A complex batch (a
complex step) runs the same source in complex arithmetic, and
``expr.real_pass`` evaluates each coefficient that can raise on the real
parts right before its own statement, so it raises where, and as, its real
rows raise; the box check reads the real part of the state, and a
non-finite imaginary part is non-finite.

Neither solve stores a trajectory.  Each returns the end state batch-major,
z of shape (B, d) and J of shape (B, d, d) with J[b, i, j] = dz_i/dz_j.  An
optional ``at_node(k, node)`` consumer sees each node k as the loop passes
it (``Node``): the live rows X and frozen rows F, or the full state
component-major, z (d, B) and J (d, d, B), written from X only when read.
Batch-major views are z.T and J.transpose(2, 0, 1).  All are valid only
during the call.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from . import expr as ex
from .errors import DimensionError, DomainExitError, NonFiniteStateError

__all__ = ["QuadratureRule", "FlowEngine", "Node", "cumulative_integral",
           "simpson_step", "complex_step"]

_FLOAT_MAX = np.finfo(np.float64).max
COMPLEX_STEP = 1e-20      # the step h of ``complex_step``


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights on [0, 1].  Weights sum to one."""

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
        return cls(nodes, w)


class FlowEngine:
    """Flow of a vector field given by expressions, with exact linearization.

    ``components`` are Exprs over ``variables`` (the coordinates of the total
    space).  ``box`` is an optional (d, 2) array of bounds; a trajectory that
    leaves it raises DomainExitError carrying the exit time, the batch row
    and its state.  Bounds may be +-inf for unconstrained coordinates.  A NaN
    or infinite state raises NonFiniteStateError carrying the same, with or
    without a box.  ``live`` and ``frozen`` partition the coordinate indices
    (see the module docstring).
    """

    def __init__(self, components, variables, box=None):
        self.variables = tuple(variables)
        self.dim = len(self.variables)
        if len(components) != self.dim:
            raise DimensionError("vector field needs one component per coordinate")
        self.components = list(components)
        partials = [[ex.partial(c, v) for v in self.variables]
                    for c in self.components]
        self.live = tuple(i for i, c in enumerate(self.components)
                          if not (c.is_zero and all(p.is_zero for p in partials[i])))
        self.frozen = tuple(i for i in range(self.dim) if i not in self.live)
        self._rhs = functools.cache(lambda jacobian: _compile_rhs(
            self.components, self.variables, self.live,
            partials if jacobian else None))
        if box is None:
            box = [[-np.inf, np.inf]] * self.dim
        # +-inf bounds become +-float max, so the one comparison per step
        # also rejects NaN and inf states
        self._lo, self._hi = np.clip(np.asarray(box, dtype=np.float64),
                                     -_FLOAT_MAX, _FLOAT_MAX).T[:, :, None]

    def flow_on_grid(self, points, nodes, substeps=1, at_node=None):
        """State (B, d) at nodes[-1]; nodes[0] must be 0.

        ``at_node(k, node)``, if given, sees the ``Node`` k (no ``J``).
        """
        z, _ = self._solve(points, nodes, substeps, False, at_node)
        return z.T.copy()

    def flow_with_jacobian(self, points, nodes, substeps=1, at_node=None):
        """Flow and tangent map: the end state (z, J), (B, d) and (B, d, d).

        ``at_node(k, node)``, if given, sees the ``Node`` k.
        """
        z, J = self._solve(points, nodes, substeps, True, at_node)
        return z.T.copy(), J.transpose(2, 0, 1).copy()

    def _solve(self, points, nodes, substeps, jacobian, at_node):
        """RK4 on the live rows; the full (d, B) z and (d, d, B) J (None
        without ``jacobian``) at the last node."""
        dtype = np.result_type(np.asarray(points), np.float64)
        Z = np.atleast_2d(np.asarray(points, dtype=dtype)).T.copy()
        d, B = Z.shape
        live, frozen, m = (np.array(self.live, dtype=np.intp),
                           list(self.frozen), len(self.live))
        S = np.zeros((m * (d + 1) if jacobian else m, B), dtype)
        S[:m] = Z[live]
        J = None
        if jacobian:
            S[m:].reshape(m, d, B)[range(m), self.live] = 1.0
            J = np.zeros((d, d, B), dtype)
            J[frozen, frozen] = 1.0
        F = Z[frozen]
        K = np.zeros_like(S)     # never-written rows are zero for good
        acc, stage, T = np.empty_like(S), np.empty_like(S), np.empty((d, B), dtype)
        lo, hi = self._lo[live], self._hi[live]

        def publish(X):
            Z[live] = X[:m]
            if J is not None:
                J[live] = X[m:].reshape(m, d, B)

        def check(X, t):
            inside = _inside(X[:m], lo, hi)
            if not inside.all():
                publish(X)
                _raise_state_error(Z, inside, t)

        node = Node(F, publish, Z, J)

        def consume(k, X):
            node.X, node.stale = X, True
            with np.errstate(**caller):
                at_node(k, node)

        caller = np.geterr()
        with np.errstate(**ex.RAISE):
            inside = _inside(Z, self._lo, self._hi)
            if not inside.all():
                _raise_state_error(Z, inside, float(nodes[0]))
            bind = self._rhs(jacobian)
            # the state and the RK4 sum alternate between two buffers, so a
            # step that raises leaves its start state intact
            cur, nxt = (S, bind(S, F, K, T)), (acc, bind(acc, F, K, T))
            at_stage = bind(stage, F, K, T)
            if at_node is not None:
                consume(0, S)
            for k in range(len(nodes) - 1):
                h = (nodes[k + 1] - nodes[k]) / substeps
                t = nodes[k]
                for _ in range(substeps):
                    (X, at_X), (Y, _) = cur, nxt
                    t += h
                    try:
                        _rk4_step(X, Y, K, stage, h, at_X, at_stage)
                    except FloatingPointError:
                        # products with J or RK4 arithmetic: name the row
                        with np.errstate(all="ignore"):
                            _rk4_step(X, Y, K, stage, h, at_X, at_stage)
                        finite = np.isfinite(Y).all(axis=0)
                        if not finite.all():
                            publish(Y)
                            row = int(np.argmin(finite))
                            raise NonFiniteStateError(
                                t, Z[:, row].real.copy(), row=row) from None
                    cur, nxt = nxt, cur
                    check(Y, t)
                if at_node is not None:
                    consume(k + 1, cur[0])
            publish(cur[0])
        return Z, J


class Node:
    """A solve's state at one node: ``X`` the live rows of the RK4 state and
    ``F`` the frozen coordinates (see the module docstring); ``z`` and ``J``
    (None without the tangent flow) the full state, written from X by
    ``publish`` when first read after the solve marks X ``stale``."""

    __slots__ = ("X", "F", "stale", "_publish", "_full")

    def __init__(self, F, publish, z, J):
        self.X, self.F, self.stale = None, F, False
        self._publish, self._full = publish, (z, J)

    @property
    def z(self):
        return self._views()[0]

    @property
    def J(self):
        return self._views()[1]

    def _views(self):
        if self.stale:
            self._publish(self.X)
            self.stale = False
        return self._full


def _inside(z, lo, hi):
    """Where Re z is in [lo, hi] (not on NaN) and Im z, if any, finite."""
    inside = (z.real >= lo) & (z.real <= hi)
    return inside & np.isfinite(z.imag) if z.dtype.kind == "c" else inside


def _rk4_step(X, Y, K, stage, h, at_X, at_stage):
    """Y = X + (h/6) (k1 + 2 k2 + 2 k3 + k4), each element by these IEEE
    operations in this order; ``at_X()`` and ``at_stage()`` write the
    derivative at X and at ``stage`` into K."""
    at_X()
    np.copyto(Y, K)
    np.multiply(K, 0.5 * h, out=stage)
    stage += X
    at_stage()
    for c in (0.5 * h, h):
        np.multiply(K, 2.0, out=stage)
        Y += stage
        np.multiply(K, c, out=stage)
        stage += X
        at_stage()
    Y += K
    Y *= h / 6.0
    Y += X


def _raise_state_error(Z, inside, t):
    """NonFiniteStateError or DomainExitError at the first batch row (column
    of the (d, B) state Z) that has a coordinate outside the box; the error
    names the real part of the row's state."""
    row = int(np.argmin(inside.all(axis=0)))
    error = (DomainExitError if np.isfinite(Z[:, row]).all()
             else NonFiniteStateError)
    raise error(t, Z[:, row].real.copy(), row=row)


# ---------------------------------------------------------------------------
# Right-hand side generation


def _compile_rhs(components, variables, live, partials=None):
    """Factory of the derivative of the live rows (see the module docstring).

    ``bind(X, F, K, T)`` returns ``rhs``.  ``rhs()`` writes into
    K the derivative of the state X: V_i for each live i, then, given
    ``partials`` (the d x d symbolic dV_i/dz_k), the block (DV J)_i. of
    each live i.  F holds the frozen coordinates, one row each, and T is a
    (d, B) scratch block.  K starts zeroed: a symbolically zero row is never
    written, and ``bind`` writes the rows that read only frozen coordinates.

    Each call first evaluates V and the coefficients dV_i/dz_k, where a
    FloatingPointError raises EvalDomainError, then multiplies and adds the
    rows of J.  On complex buffers ``ex.real_pass`` evaluates each
    coefficient that can raise on the real parts right before its own
    statement.
    """
    d, m = len(variables), len(live)
    ex.used_variables(components, variables)
    pos = {i: a for a, i in enumerate(live)}
    frozen = [i for i in range(d) if i not in pos]
    fixed = {variables[i] for i in frozen}
    names = {v: f"z{i}" for i, v in enumerate(variables)}
    head = [f"z{i} = X[{pos[i]}]" if i in pos else f"z{i} = F[{frozen.index(i)}]"
            for i in range(d)]
    once, evaluate, products = [], [], []
    counter = itertools.count()

    def emit(e, line):
        """Evaluate ``e`` by ``line`` once per solve when ``e`` reads only
        frozen coordinates, else at every call."""
        (once if e.variables() <= fixed else evaluate).append((e, line))

    def coefficient(e):
        """Source of the coefficient ``e`` for a product with J: a variable
        or constant itself, any other the name of its value."""
        if isinstance(e, (ex.Var, ex.Const)):
            return ex.numpy_source(e, names)
        name = f"c{next(counter)}"
        emit(e, f"{name} = {ex.numpy_source(e, names)}")
        return name

    for a, i in enumerate(live):
        head.append(f"k{i} = K[{a}]")
        if not components[i].is_zero:
            emit(components[i], ex.numpy_assign(f"k{i}", components[i], names))
        if partials is None:
            continue
        base = m + a * d
        head.append(f"kJ{i} = K[{base}:{base + d}]")
        head.append(f"J{i} = X[{base}:{base + d}]")
        terms = [(k, *ex.signed(p)) for k, p in enumerate(partials[i])
                 if not p.is_zero]
        inner = [t for t in terms if t[0] in pos]
        outer = [t for t in terms if t[0] not in pos]
        head.extend(f"kJ{i}_{k} = K[{base + k}]" for k, _, _ in outer)
        if inner:
            products.extend(_block(f"kJ{i}", inner, coefficient))
            products.extend(_add_row(f"kJ{i}_{k}", sign, core, coefficient)
                            for k, sign, core in outer)
        else:
            for k, _, _ in outer:
                emit(partials[i][k],
                     ex.numpy_assign(f"kJ{i}_{k}", partials[i][k], names))

    def checked(evaluations):
        return ex.guard(ex.real_pass(evaluations, names,
                                     "X.dtype.kind == 'c'"))

    src = (["def _bind(X, F, K, T):"]
           + ex.indent(head + checked(once), 4)
           + ["    def rhs():"]
           + ex.indent(checked(evaluate) + products, 8)
           + ["    return rhs"])
    return ex.exec_generated(src, "rhs")["_bind"]


def _add_row(target, sign, core, coefficient):
    """Statement adding sign * core to the row ``target``."""
    if isinstance(core, ex.Const):
        return f"np.add({target}, {sign * core.value!r}, out={target})"
    op = "add" if sign > 0 else "subtract"
    return f"np.{op}({target}, {coefficient(core)}, out={target})"


def _block(target, terms, coefficient):
    """Statements writing sum_k sign_k core_k J_k. into the block ``target``
    for terms (k, sign, core) over live k.  Positive terms come first; when
    all are negative, their magnitudes are summed and negated once."""
    terms = sorted(terms, key=lambda term: term[1] < 0)
    flip = terms[0][1]
    lines = []
    for n, (k, sign, core) in enumerate(terms):
        op = "add" if sign * flip > 0 else "subtract"
        if core.is_one:
            lines.append(f"np.copyto({target}, J{k})" if n == 0 else
                         f"np.{op}({target}, J{k}, out={target})")
        elif n == 0:
            lines.append(f"np.multiply(J{k}, {coefficient(core)}, out={target})")
        else:
            lines.append(f"np.multiply(J{k}, {coefficient(core)}, out=T)")
            lines.append(f"np.{op}({target}, T, out={target})")
    if flip < 0:
        lines.append(f"np.negative({target}, out={target})")
    return lines


def complex_step(f, X, V):
    """Derivatives of the analytic map f at X along V, by a complex step.

    X is (B, n) and V (B, D, n).  ``f`` maps rows to rows and is called
    once, on the B * D rows X + i h V[:, j] at h = COMPLEX_STEP,
    direction-major.  Returns Im f / h for each direction (B, D, ...):
    exact to roundoff, since no values are subtracted (Squire and Trapp,
    SIAM Rev. 40, 1998), so the step needs no tuning.
    """
    B, D = V.shape[:2]
    values = f(np.concatenate([X + (1j * COMPLEX_STEP) * V[:, j]
                               for j in range(D)]))
    return np.swapaxes(values.imag.reshape((D, B) + values.shape[1:]),
                       0, 1) / COMPLEX_STEP


def cumulative_integral(values, nodes):
    """Cumulative integral on a uniform grid, consistent with Simpson.

    The number of intervals is even, and the final entry equals the
    composite Simpson value exactly (see ``simpson_step``).  ``values`` has
    node values along the last axis.
    """
    values = np.asarray(values, dtype=np.float64)
    T = values.shape[-1] - 1
    h = nodes[1] - nodes[0]
    out = np.zeros_like(values)
    for m in range(0, T - 1, 2):
        out[..., m + 1], out[..., m + 2] = simpson_step(
            out[..., m], values[..., m], values[..., m + 1], values[..., m + 2], h)
    return out


def simpson_step(c0, f0, f1, f2, h):
    """Cumulative integrals at the next two nodes of a uniform grid.

    ``c0`` is the integral up to the node of value f0.  The far node adds the
    Simpson panel h (f0 + 4 f1 + f2) / 3; the middle node adds the half-panel
    integral of the local quadratic, h (5 f0 + 8 f1 - f2) / 12.
    """
    return (c0 + h * (5.0 * f0 + 8.0 * f1 - f2) / 12.0,
            c0 + h * (f0 + 4.0 * f1 + f2) / 3.0)
