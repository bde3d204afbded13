"""Spray groupoid structure maps and quadrature-backed multiplicative forms.

The local groupoid sits inside the algebroid total space: units are the zero
section, the source is the bundle projection, the target is the projection
after the time-1 spray flow, and the inverse is the fiberwise negation of
the time-1 flow.  A multiplicative k-form is evaluated at a point a as

    omega_a(v_1..v_k)
        = int_0^1  w(t) * Lambda_{phi^t(a)}(J_t v_1, .., J_t v_k)  dt

discretized by the quadrature rule, with the flow computed exactly at the
quadrature nodes and J_t the tangent flow.  The scalar weight w(t) is 1 for
trivial coefficients and the line-bundle parallel transport
exp(-int_0^t <R, a_s> ds) for the trivialized jacobi case.

The quadrature streams: ``SprayGroupoid.flow_end`` hands each node of one
tangent-flow solve to consumers that accumulate as it goes, so nothing
stores a trajectory.  The omega and d omega sums of every check and
product sweep run code generated from Lambda on the live RK4 state;
cocycles and transport weights read z, written out for them.

The Poisson multiplication solves  dk/dt = -Pi#_k( dtau_k^T p_t ),  k_0 = b,
where p_t is the fiber of phi^t(a), Pi is the pointwise inverse of omega and
dtau the Jacobian of target = projection o time-1 flow.  With the sharp/flat
conventions used here this is  dk/dt = solve(W_k, dtau_k^T p_t)  for the
antisymmetric matrix W of omega, solved by Gauss collocation: each Picard
sweep is one tangent-flow solve at every node.  Everything is batched.

d mu is a complex step: the product is analytic, so on composable tangents
d mu(v, w) = Im mu(a + i h v, b + i h w) / h to roundoff at h = COMPLEX_STEP,
and the real part is mu(a, b) to O(h^2).  The product, the flow and the form
sum take the dtype of their input, and their checks read real parts.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, replace

import numpy as np

from . import expr as ex
from . import tensor as tn
from .errors import (
    BatchRowError,
    ComposabilityError,
    DegenerateFormError,
    DimensionError,
    DomainExitError,
    NonFiniteStateError,
    NonlinearCocycleError,
    ProductConvergenceError,
)
from .flow import (COMPLEX_STEP, FlowEngine, QuadratureRule, complex_step,
                   simpson_step)
from .report import CheckReport, SplitMix64

__all__ = ["SprayGroupoid", "MultFormEvaluator", "multiply_poisson",
           "product_residuals", "integrate_cocycle", "differentiate_at_units",
           "linearization_check", "units_form_predictor",
           "discover_validity_box"]

# Validity-box discovery: the base part of the box is the chart box scaled by
# VALIDITY_BASE_SCALE about its centre.  The fiber radius starts at the
# smallest chart half-width and shrinks by VALIDITY_SHRINK until
# VALIDITY_SAMPLES flows, run to time VALIDITY_MARGIN so that boundary-grazing
# trajectories are not certified, all stay in the chart box.
VALIDITY_BASE_SCALE = 0.5
VALIDITY_SAMPLES = 40
VALIDITY_SHRINK = 0.7
VALIDITY_MIN_RADIUS = 1e-4
VALIDITY_MARGIN = 1.02
COND_BOUND = 1e12  # largest condition number of omega accepted at a row
PRODUCT_NODES = 6  # Gauss-Legendre nodes of the product's collocation
PICARD_BOUND = 1e-13  # largest last update of a converged product row


@dataclass
class SprayGroupoid:
    """Structure maps of the local groupoid of a spray.

    Evaluations are batched over points; ``validity_fiber_radius`` is set by
    ``discover_validity_box``.
    """

    chart: object
    spray: object
    n_quad: int = 64
    substeps: int = 1
    validity_fiber_radius: float | None = None

    def __post_init__(self):
        A = self.chart
        base_box = np.asarray(A.box, dtype=np.float64)
        fiber_box = np.array([[-np.inf, np.inf]] * A.r)
        self.total_box = np.vstack([base_box, fiber_box])
        self.engine = FlowEngine(self.spray.components, self.spray.variables,
                                 box=self.total_box)
        # Simpson's nodes j/n hold t = 0 and 1: the end flow and the sums
        self.rule = QuadratureRule.simpson(self.n_quad)

    @property
    def n(self):
        return self.chart.n

    @property
    def r(self):
        return self.chart.r

    @property
    def dim(self):
        return self.chart.n + self.chart.r

    # -- structure maps ----------------------------------------------------

    def units(self, X):
        """Zero-section points over the base points X (B, n)."""
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        return np.concatenate([X, np.zeros((len(X), self.r))], axis=1)

    def sigma(self, P):
        P = np.atleast_2d(np.asarray(P, dtype=np.float64))
        return P[:, : self.n]

    def flow_end(self, P, *consumers):
        """(z, J) at t = 1 from one tangent-flow solve on the rule's nodes.

        Nothing is stored: each consumer (``MultFormEvaluator.omega_sum``,
        ``integrate_cocycle``, ``algebroid.transport_weight``) runs as
        ``consumer(j, node)`` at node j, with the ``flow.Node`` of
        ``FlowEngine``'s ``at_node``, valid only during the call.  A form sum
        that ``skip``s the batch runs at no node.
        """
        consumers = [c for c in consumers if not (hasattr(c, "skip") and c.skip(P))]

        def at_node(j, node):
            for consume in consumers:
                consume(j, node)

        return self.engine.flow_with_jacobian(P, self.rule.nodes, self.substeps,
                                              at_node if consumers else None)

    def tau(self, P):
        return self.engine.flow_on_grid(P, self.rule.nodes, self.substeps)[:, : self.n]

    def tau_with_jacobian(self, P, *consumers):
        end, J = self.flow_end(P, *consumers)
        return end[:, : self.n], J[:, : self.n, :]

    def inverse(self, P):
        end = self.engine.flow_on_grid(P, self.rule.nodes, self.substeps)
        end[:, self.n:] *= -1.0
        return end

    def inverse_with_jacobian(self, P, *consumers):
        end, J = self.flow_end(P, *consumers)
        end[:, self.n:] *= -1.0
        J[:, self.n:, :] *= -1.0
        return end, J

    def validity_box(self):
        """Total-space box actually certified by the discovery procedure."""
        A = self.chart
        mid = A.box.mean(axis=1)
        half = (A.box[:, 1] - A.box[:, 0]) / 2.0 * VALIDITY_BASE_SCALE
        rad = self.validity_fiber_radius
        if rad is None:
            raise DimensionError("validity box not discovered yet")
        base = np.stack([mid - half, mid + half], axis=1)
        fiber = np.array([[-rad, rad]] * A.r)
        return np.vstack([base, fiber])

    def sample_validity_points(self, count, seed, fiber_scale=1.0):
        box = self.validity_box()
        box[self.n:, :] *= fiber_scale
        return SplitMix64(seed).uniform_rows(box, count)


def discover_validity_box(G, seed=505):
    """Shrink the fiber radius until all unit-time flows stay in the chart box.

    See the VALIDITY_* constants.  Sets ``G.validity_fiber_radius`` and
    returns it.
    """
    A = G.chart
    half = (A.box[:, 1] - A.box[:, 0]) / 2.0
    radius = float(np.min(half))
    rng = SplitMix64(seed)
    mid = A.box.mean(axis=1)
    base_half = half * VALIDITY_BASE_SCALE
    grid = np.linspace(0.0, VALIDITY_MARGIN, 17)
    while radius >= VALIDITY_MIN_RADIUS:
        pts = []
        for _ in range(VALIDITY_SAMPLES):
            x = mid + base_half * np.array([rng.uniform(-1, 1) for _ in range(A.n)])
            y = radius * rng.direction(A.r)
            pts.append(np.concatenate([x, y]))
        try:
            G.engine.flow_on_grid(np.stack(pts), grid, substeps=4)
        except DomainExitError:
            radius *= VALIDITY_SHRINK
            continue
        G.validity_fiber_radius = radius
        return radius
    raise DomainExitError(0.0, None)


class MultFormEvaluator:
    """Quadrature evaluator of the multiplicative form of a linear form
    (a fiberwise-linear FormField over the total variables).

    ``weight_cocycle``: optional fiberwise-linear Expr whose cumulative
    integral along the flow produces the scalar parallel transport factor
    (trivialized line-bundle coefficients); its cumulative Simpson rule
    agrees exactly with the total quadrature.
    """

    def __init__(self, groupoid, form, weight_cocycle=None):
        self.groupoid = groupoid
        self.form = form
        self.degree = form.degree
        if self.degree > 3:
            raise DimensionError("evaluators support degree <= 3")
        self._lam, self._dlam = _form_terms(form), _form_terms(form.d())
        self._codes = {}      # degree -> _compile_node_sum
        self.weight_cocycle = weight_cocycle
        if weight_cocycle is not None:
            _assert_fiberwise_linear(weight_cocycle, groupoid.chart)

    # -- quadrature ---------------------------------------------------------

    def omega_sum(self):
        """Flow consumer accumulating omega (see ``_FormSum``)."""
        return _FormSum(self, self._lam, self.degree)

    def domega_sum(self):
        """Flow consumer accumulating d omega, for unweighted evaluators;
        weighted ones take the complex step of omega (``domega_full``)."""
        if self.weight_cocycle is not None:
            raise DimensionError("weighted evaluators differentiate omega "
                                 "numerically: use domega_full")
        return _FormSum(self, self._dlam, self.degree + 1)

    def omega_full(self, P):
        """Batched full antisymmetric arrays of omega at points P (B, d)."""
        return self._form_values(P, self.omega_sum())[0]

    def domega_full(self, P):
        """Batched full arrays of d omega.

        Trivial coefficients: the de Rham differential commutes with the
        construction, so this is the quadrature of the (symbolic) d Lambda;
        a d Lambda with no components (a constant Lambda, as for the
        canonical Poisson form) gives zeros from no solve.  Weighted
        evaluators: the complex step (``flow.complex_step``) of the omega
        coefficients, one complex row per point and coordinate.
        """
        if self.weight_cocycle is not None:
            return self._domega_complex_step(P)
        return self._form_values(P, self.domega_sum())[0]

    def omega_and_domega_full(self, P):
        """(omega_full(P), domega_full(P)), from one tangent-flow solve on
        unweighted evaluators; weighted ones take omega's complex step as
        above."""
        if self.weight_cocycle is not None:
            return self.omega_full(P), self._domega_complex_step(P)
        return tuple(self._form_values(P, self.omega_sum(), self.domega_sum()))

    def _form_values(self, P, *sums):
        """The values of the form sums ``sums`` at P, from one tangent-flow
        solve made only when some sum has components."""
        live = [s for s in sums if not s.skip(P)]
        if live:
            self.groupoid.flow_end(P, *live)
        return [s.value for s in sums]

    def _domega_complex_step(self, P):
        P = np.atleast_2d(np.asarray(P, dtype=np.float64))
        B, d = P.shape
        k = self.degree
        partials = complex_step(self.omega_full, P,
                                np.broadcast_to(np.eye(d), (B, d, d)))
        # (d omega)_{j0..jk} = sum_s (-1)^s d_{j_s} omega_{j0..^s..jk}
        return sum((-1) ** s * np.moveaxis(partials, 1, 1 + s)
                   for s in range(k + 1))

    def omega_matrices(self, P):
        """(B, d, d) antisymmetric matrices (degree-2 evaluators only)."""
        if self.degree != 2:
            raise DimensionError("omega_matrices needs a degree-2 evaluator")
        return self.omega_full(P)

    def inverse_matrices(self, P):
        W = self.omega_matrices(P)
        inv = _check_conditioning(W, P, COND_BOUND)
        # the guard's inverse is inv(W.real): W itself on real rows
        return np.linalg.inv(W) if inv is None or W.dtype.kind == "c" else inv


def _check_conditioning(W, points, cond_bound):
    """Raise DegenerateFormError at the first row b of W (B, d, d) that is
    singular or whose own condition number s_max / s_min exceeds
    ``cond_bound``, judged by real parts; rows never affect each other.

    One inverse certifies most batches: s_max / s_min <= ||W||_F ||W^-1||_F,
    so rows whose product is at most cond_bound / 4 pass.  When a row is
    not certified, or the inverse raises or is not finite, the SVD of every
    row decides, so the rows that fail and the error are the SVD's.
    Returns inv(W.real), or None when it raised.
    """
    Wr = W.real
    try:
        inv = np.linalg.inv(Wr)
    except np.linalg.LinAlgError:
        inv = None
    else:
        with np.errstate(all="ignore"):
            bound = (np.linalg.norm(Wr, axis=(1, 2))
                     * np.linalg.norm(inv, axis=(1, 2)))
        if np.all(bound <= cond_bound / 4):
            return inv
    svals = np.linalg.svd(Wr, compute_uv=False)
    smin = svals[:, -1]
    bad = (smin <= 0) | (svals[:, 0] / np.maximum(smin, 1e-300) > cond_bound)
    if bad.any():
        i = int(np.argmax(bad))
        raise DegenerateFormError(float(smin[i]), points[i].real, i)
    return inv


def _form_terms(form):
    """(terms, exprs) of a form's nonzero components for ``_FormSum``.

    One term (I, value, column) per component I in increasing order: a
    constant component carries its value, any other its column among
    ``exprs``, the non-constant components in order.
    """
    terms, exprs = [], []
    for I, e in sorted(form.components.items()):
        if isinstance(e, ex.Const):
            terms.append((I, e.value, None))
        else:
            terms.append((I, None, len(exprs)))
            exprs.append(e)
    return terms, exprs


class _FormSum:
    """Flow consumer: sum_j qw_j w_j J_j^T F(z_j) J_j, added in node order.

    F is the evaluator's Lambda or d Lambda and qw the rule weights.  The
    weight w_j is 1, or for a weighted evaluator the transport
    exp(-int_0^t_j delta), whose cumulative Simpson value at an odd node
    needs the next node: those terms are added one node late, from a copy
    of the node's live rows.  Code generated from the form
    (``_compile_node_sum``) adds, in place from the live RK4 state, the
    outer product c F_I(z) J_{i_1} x .. x J_{i_k} of rows of J for each
    component I = (i_1 < .. < i_k), c = qw_j w_j, to a component-major
    (d, .., d, B) sum.  ``value`` is its alternation, batch axis first: the
    pullback sum_I F_I det-minors of J.  ``transport`` is the last node's
    weight.  A form with no components ``skip``s: zeros, and no node.
    """

    def __init__(self, evaluator, form_terms, degree):
        self.ev, self.degree, self.terms = evaluator, degree, form_terms
        self.transport = self._value = None
        self._even = self._odd = None   # (integral, delta), (X, values)

    def skip(self, P):
        """Before a solve of P: whether the form has no components (zeros)."""
        if not self.terms[0]:
            P = np.atleast_2d(P)
            self._value = np.zeros((len(P),) + (self.ev.groupoid.dim,) * self.degree,
                                   np.result_type(P, np.float64))
        return not self.terms[0]

    def __call__(self, j, node):
        X, G = node.X, self.ev.groupoid
        if j == 0:
            if self.degree not in self.ev._codes:
                self.ev._codes[self.degree] = _compile_node_sum(
                    self.ev, *self.terms, self.degree)
            self._sum, self._finish, self._values, self._add = \
                self.ev._codes[self.degree][0](node.F, X.shape[1])
            self._value = None
        if self.ev.weight_cocycle is None:
            self._add(X, self._values(X), G.rule.weights[j])
            return
        if j % 2:
            X = X.copy()
            self._odd = (X, self._values(X))
            return
        V = self._values(X)
        c = np.zeros_like(V[:, -1])
        if j:
            (c0, f0), (X1, V1) = self._even, self._odd
            c1, c = simpson_step(c0, f0, V1[:, -1], V[:, -1], G.rule.nodes[1])
            self._add_weighted(j - 1, c1, X1, V1)
        self._add_weighted(j, c, X, V)
        self._even = (c, V[:, -1])

    @property
    def value(self):
        if self._value is None:
            self._finish()
            self._value = _alternate(self._sum, self.degree)
        return self._value

    def _add_weighted(self, j, integral, X, V):
        self.transport = np.exp(-integral)
        self._add(X, V, self.ev.groupoid.rule.weights[j] * self.transport)


def _compile_node_sum(ev, terms, exprs, degree):
    """(bind, grouped, per_node): the node sum of ``_FormSum`` for the terms
    of ``_form_terms``, and how many terms it adds in groups and one by one.

    ``bind(F, B)`` allocates the zero sum S for B rows with frozen rows F
    and returns S, ``finish()``, which copies the group sums into S,
    ``values(X)``, None or a new (B, n) array of the non-constant
    coefficients, then a weighted evaluator's cocycle, at the live rows X
    (written as ``compile_exprs`` writes its columns, complex rows through
    ``ex.real_pass``), and ``add(X, V, s)``, which adds the node with c = s.

    A frozen row J_i = e_i (see ``flow``) is a fixed index of S, not a
    factor.  Constant components with one live row whose part of S no other
    component writes are grouped: a run of them on consecutive live rows is
    one product of a block of X with their c F_I and one add into the run's
    own sum.  Each part of S gets the additions of the term-by-term sum in
    its order, so grouping moves no bit.  The other terms are added one by
    one.
    """
    G = ev.groupoid
    d, live, frozen = G.dim, G.engine.live, G.engine.frozen
    m, pos = len(live), {i: a for a, i in enumerate(live)}

    def rows_of(i, n=1):
        return f"X[{m + pos[i] * d}:{m + (pos[i] + n) * d}]"

    def index(at):
        return ", ".join(":" if isinstance(i, slice) else str(i) for i in at) or "()"

    ats = [tuple(i if i in frozen else slice(None) for i in I) for I, _, _ in terms]
    writes = np.zeros((d,) * degree, int)
    for at in ats:
        writes[at] += 1
    runs, plan = [], []
    for (I, value, col), at in zip(terms, ats):
        rows = [i for i in I if i in pos]
        if col is None and len(rows) == 1 and np.all(writes[at] == 1):
            if not runs or pos[rows[0]] != pos[runs[-1][-1][0]] + 1:
                runs.append([])
            runs[-1].append((rows[0], value, at))
        else:
            plan.append((rows, value, col, at))
    consts, head, body, finish = {}, [], [], []
    for r, run in enumerate(runs):
        n = len(run)   # K: float64, cast to complex on complex rows
        consts[f"K{r}"] = np.array([v for _, v, _ in run])[:, None, None]
        head += [f"G{r}, P{r} = np.zeros(({n}, {d}, B), F.dtype), "
                 f"np.empty(({n}, {d}, B), F.dtype)"]
        body += [f"np.multiply({rows_of(run[0][0], n)}.reshape({n}, {d}, B), "
                 f"s * K{r}, out=P{r})",
                 f"np.add(G{r}, P{r}, out=G{r})"]
        finish += [f"np.copyto(S[{index(at)}], G{r}[{g}])"
                   for g, (_, _, at) in enumerate(run)]
    depth = max((len(rows) for rows, _, _, _ in plan), default=0)
    head += [f"T{k} = np.empty({(d,) * k} + (B,), F.dtype)" for k in range(1, depth + 1)]
    for n, (rows, value, col, at) in enumerate(plan):
        head.append(f"S{n} = S[{index(at)}]")
        body.append(f"c = s * {f'V[:, {col}]' if value is None else f'({value!r})'}")
        factors = [f"np.multiply({rows_of(rows[0])}, c, out=T1)"] if rows else []
        factors += [f"np.multiply(T{k}[..., None, :], {rows_of(i)}, out=T{k + 1})"
                    for k, i in enumerate(rows[1:], start=1)]
        body += factors + [f"np.add(S{n}, {f'T{len(rows)}' if rows else 'c'}, out=S{n})"]
    columns = exprs + ([ev.weight_cocycle] if ev.weight_cocycle is not None else [])
    used = ex.used_variables(columns, G.spray.variables)
    names = {v: f"z{i}" for i, v in enumerate(G.spray.variables)}
    values = [f"z{i} = X[{pos[i]}]" if i in pos else f"z{i} = F[{frozen.index(i)}]"
              for i, v in enumerate(G.spray.variables) if v in used]
    values += [f"V = np.zeros((B, {len(columns)}), X.dtype)",
               "with np.errstate(**RAISE):"] + ex.indent(ex.guard(ex.real_pass(
                   [(e, ex.numpy_assign(f"V[:, {c}]", e, names))
                    for c, e in enumerate(columns)],
                   names, "X.dtype.kind == 'c'")), 4) if columns else ["V = None"]
    src = ([f"def _bind({', '.join(['F', 'B', *consts])}):",
            f"    S = np.zeros({(d,) * degree} + (B,), F.dtype)"]
           + ex.indent(head, 4)
           + ["    def values(X):"] + ex.indent(values + ["return V"], 8)
           + ["    def add(X, V, s):"] + ex.indent(body, 8)
           + ["    def finish():"] + ex.indent(finish, 8)
           + ["    return S, finish, values, add"])
    bind = ex.exec_generated(src, "form")["_bind"]
    return functools.partial(bind, **consts), sum(map(len, runs)), len(plan)


def _alternate(M, degree):
    """sum over permutations s of the first ``degree`` axes of M of
    sign(s) M permuted by s, with M's last (batch) axis moved first."""
    perms = itertools.permutations(range(degree))
    out = M.transpose((degree,) + next(perms)).copy()
    for perm in perms:
        add = np.add if tn._perm_sign(perm) > 0 else np.subtract
        add(out, M.transpose((degree,) + perm), out=out)
    return out


def _assert_fiberwise_linear(delta, chart):
    """delta must be linear in the fiber variables (exact symbolic check)."""
    for yi in chart.ys:
        for yj in chart.ys:
            second = ex.partial(ex.partial(delta, yi), yj)
            if not _is_zero_expr(second, chart):
                raise NonlinearCocycleError("cocycle is not fiberwise linear")
    at_zero = ex.subst(delta, {y: ex.ZERO for y in chart.ys})
    if not _is_zero_expr(at_zero, chart):
        raise NonlinearCocycleError("cocycle does not vanish on the zero section")


def _is_zero_expr(e, chart):
    """Whether ``e`` is zero to 1e-12 at 8 seeded points of [-1, 1]^d."""
    if e.is_zero:
        return True
    Z = SplitMix64(17).uniform_rows([(-1, 1)] * len(chart.total_vars), 8)
    return not np.any(np.abs(ex.compile_exprs([e], chart.total_vars)(Z)) > 1e-12)


# ---------------------------------------------------------------------------
# Poisson multiplication


def multiply_poisson(G, evaluator, a, b, max_sweeps=32, composability_tol=1e-9):
    """Groupoid product on a symplectic spray groupoid, batched.

    ``a``, ``b`` are composable (B, d) batches of points:
    sigma(a) = tau(b) within ``composability_tol``, a scalar or one
    tolerance per row (checked strictly, no silent projection).  Solves the
    multiplication ODE by Gauss collocation (``_collocation``) from k = b
    at every node.  Each Picard sweep makes one flow-with-Jacobian at every
    node of the active rows.  A row stops once its update at the nodes and
    at t = 1 is at most ``PICARD_BOUND``, in real parts and, on complex
    rows, in imaginary parts over ``COMPLEX_STEP``; a row decides alone, so
    it gets the bits of a call of its own.  A row still active after
    ``max_sweeps`` sweeps raises ProductConvergenceError.  omega must have
    condition number at most ``COND_BOUND`` at every row on its own.
    """
    A, Bp = np.asarray(a), np.asarray(b)
    dtype = np.result_type(A, Bp, np.float64)
    A, Bp = A.astype(dtype), Bp.astype(dtype)
    if A.ndim != 2 or A.shape != Bp.shape:
        raise DimensionError("a and b must be (B, d) batches of one shape")
    n, d, m = G.n, G.dim, PRODUCT_NODES
    tau_b = G.tau(Bp)
    viols = np.max(np.abs((A[:, :n] - tau_b).real), axis=1)
    tol = np.broadcast_to(np.asarray(composability_tol, dtype=np.float64),
                          viols.shape)
    over = viols > tol
    if over.any():
        worst = int(np.argmax(np.where(over, viols, -np.inf)))
        raise ComposabilityError(viols[worst], tol[worst], worst)

    # fiber of phi^t(a) at the nodes: each gap in the fewest equal steps no
    # longer than the rule's, p read at the running step counts
    t, S = _collocation(m)
    steps = np.ceil(np.diff(t, prepend=0.0) * G.n_quad * G.substeps).astype(int)
    grid = np.concatenate([[0.0]] + [np.linspace(lo, hi, k + 1)[1:] for lo, hi, k
                                     in zip(np.append(0.0, t), t, steps)])
    marks, fibers = set(np.cumsum(steps).tolist()), []

    def at_node(j, node):
        if j in marks:
            fibers.append(node.z[n:].T.copy())

    G.engine.flow_on_grid(A, grid, 1, at_node)
    p = np.stack(fibers)
    Y = np.repeat(Bp[None], m + 1, axis=0)   # k at the nodes, then at t = 1
    out, active = np.empty_like(Bp), np.arange(len(Bp))
    for _ in range(max_sweeps):
        k = len(active)
        K = Y[:m, active].reshape(m * k, d)   # node-major: row j is active[j % k]
        acc = evaluator.omega_sum()
        try:
            _, J = G.flow_end(K, acc)
            W = acc.value
            _check_conditioning(W, K, COND_BOUND)
        except (DomainExitError, NonFiniteStateError, DegenerateFormError) as exc:
            if exc.row is not None:
                exc.relocate(None, int(active[exc.row % k]))
            raise
        beta = np.einsum("baj,ba->bj", J[:, :n, :], p[:, active].reshape(m * k, n))
        F = np.linalg.solve(W, beta[..., None]).reshape(m, k, d)
        # node by node in a fixed order, so each row's sum is its own
        new = Bp[active] + sum(S[:, j, None, None] * F[j] for j in range(m))
        del J, W, acc, F     # before the next sweep's solve
        step = new - Y[:, active]
        update = np.max(np.maximum(abs(step.real), abs(step.imag) / COMPLEX_STEP),
                        axis=(0, 2))
        done = update <= PICARD_BOUND
        out[active[done]] = new[m, done]
        Y[:, active] = new
        active, update = active[~done], update[~done]
        if not len(active):
            return out
    raise ProductConvergenceError(max_sweeps, float(update[0]), PICARD_BOUND,
                                  Bp[active[0]].real, int(active[0]))


@functools.cache
def _collocation(m):
    """Gauss-Legendre collocation on [0, 1]: the m nodes t, and S whose row
    i < m holds the integrals over [0, t_i] of the Lagrange basis l_j of the
    nodes, and row m those over [0, 1], the Gauss weights.  The Legendre
    basis keeps the digits a monomial Vandermonde loses; numpy.polynomial
    is imported here, so the package's import does not pay for it."""
    from numpy.polynomial import legendre
    x, _ = legendre.leggauss(m)
    lagrange = np.linalg.inv(legendre.legvander(x, m - 1))   # l_j: column j
    S = legendre.legval(np.append(x, 1.0), legendre.legint(lagrange, lbnd=-1))
    return (x + 1.0) / 2.0, S.T / 2.0


# ---------------------------------------------------------------------------
# Batched multiplicativity / associativity checks (the expensive residuals)


def sample_composable_pairs(G, count, seed):
    """Composable (a, b) batches: sigma(a) = tau(b) exactly by construction,
    fibers at half the validity radius."""
    rng = SplitMix64(seed)
    b = G.sample_validity_points(count, seed, fiber_scale=0.5)
    return _left_factors(G, b, rng, 0.5), b


def _left_factors(G, right, rng, fiber_scale):
    """Points a with sigma(a) = tau(right), fibers drawn from ``rng``."""
    left = np.empty_like(right)
    left[:, : G.n] = G.tau(right)
    rad = G.validity_fiber_radius * fiber_scale
    for i in range(len(right)):
        left[i, G.n:] = rad * rng.uniform(0.2, 1.0) * rng.direction(G.r)
    return left


def composable_tangents_batch(dtau, v_bases, rng):
    """Batched solutions w of dtau(w) = v_base plus a random kernel
    component, one (B, d) batch per entry of ``v_bases``, drawn in order."""
    pinv = np.linalg.pinv(dtau)
    proj = np.einsum("bja,bak->bjk", pinv, dtau)
    B, _, d = dtau.shape
    out = []
    for v_base in v_bases:
        w = np.einsum("bja,ba->bj", pinv, v_base)
        rand = rng.uniform_rows([(-1, 1)] * d, B)
        w += rand - np.einsum("bjk,bk->bj", proj, rand)
        out.append(w)
    return out


@dataclass
class _ProductRows:
    """Rows of one check's product: composable (B, d) batches ``a`` and
    ``b`` (real, or the complex rows of a complex step), the composability
    tolerance the check asks for, and the index of row 0 in the check's own
    batch (a check's rows may be split across product calls)."""

    check: str
    a: np.ndarray
    b: np.ndarray
    composability_tol: float = 1e-9
    first_row: int = 0

    def split(self, k):
        """Rows [:k] and [k:], each knowing its place in the check's batch."""
        return (replace(self, a=self.a[:k], b=self.b[:k]),
                replace(self, a=self.a[k:], b=self.b[k:],
                        first_row=self.first_row + k))


def _multiply_rows(G, evaluator, blocks, max_sweeps):
    """One ``multiply_poisson`` call on the rows of ``blocks``, packed in
    order; returns each block's products.

    Each row is checked for composability against its own block's
    tolerance.  Batched evaluation is row invariant, so a block gets the
    bits a call of its own gives.  An error at a packed row names the check
    that owns it and the row's index in that check's own batch.
    """
    sizes = [len(blk.a) for blk in blocks]
    ends = np.cumsum(sizes)
    tol = np.repeat([blk.composability_tol for blk in blocks], sizes)
    try:
        out = multiply_poisson(G, evaluator,
                               np.concatenate([blk.a for blk in blocks]),
                               np.concatenate([blk.b for blk in blocks]),
                               max_sweeps=max_sweeps, composability_tol=tol)
    except BatchRowError as exc:
        if exc.row is not None:
            i = int(np.searchsorted(ends, exc.row, side="right"))
            start = ends[i] - sizes[i]
            exc.relocate(blocks[i].check,
                         blocks[i].first_row + exc.row - start)
        raise
    return np.split(out, ends[:-1])


def _complex_step_rows(a, b, tangent_pairs):
    """The product rows of d mu at (a, b) on composable tangent pairs (v, w):
    (a + i h v, b + i h w) at h = COMPLEX_STEP, one row per pair and point,
    direction-major.  Their products give mu, the real part of the first
    direction's rows, and each d mu(v, w), imaginary part over h."""
    step = 1j * COMPLEX_STEP
    return _ProductRows("multiplicativity",
                        np.concatenate([a + step * v for v, _ in tangent_pairs]),
                        np.concatenate([b + step * w for _, w in tangent_pairs]))


def product_residuals(G, evaluator, n_pairs, n_triples, mult_seed,
                      assoc_seed, max_sweeps=32):
    """Multiplicativity, inversion antisymmetry and associativity of the
    Poisson product, from two product calls of (nearly) equal size.

    Multiplicativity maximizes, over sampled composable pairs (a, b) with
    two composable tangent pairs each,
        | omega_{mu}(dmu(v,w), dmu(v',w')) - omega_a(v,v') - omega_b(w,w') |;
    inversion antisymmetry | iota^* omega + omega | over the same a-points;
    associativity || mu(mu(a,b),c) - mu(a,mu(b,c)) || over sampled
    composable triples.  Call 1 multiplies stage 1, mu(a, b) and mu(b, c),
    with the first half of the complex d mu rows (2 per pair), call 2
    stage 2 (complex rows with zero imaginary part, like stage 1) with the
    second half; the split comes from the row counts alone.  Each row gets
    the bits a call of its own gives.
    """
    rng = SplitMix64(mult_seed)
    a, b = sample_composable_pairs(G, n_pairs, mult_seed)
    d = G.dim
    v1, v2 = (rng.uniform_rows([(-1, 1)] * d, n_pairs) for _ in range(2))
    # one tangent-flow solve per batch: dtau and omega at b, the inverse
    # and omega at a
    om_b, om_a = evaluator.omega_sum(), evaluator.omega_sum()
    _, dtau = G.tau_with_jacobian(b, om_b)
    w1, w2 = composable_tangents_batch(dtau, [v1[:, : G.n], v2[:, : G.n]], rng)
    inv_a, dinv = G.inverse_with_jacobian(a, om_a)
    steps = _complex_step_rows(a, b, [(v1, w1), (v2, w2)])

    rng, fiber_scale = SplitMix64(assoc_seed), 0.4
    tc = G.sample_validity_points(n_triples, assoc_seed, fiber_scale=fiber_scale)
    tb = _left_factors(G, tc, rng, fiber_scale)
    ta = _left_factors(G, tb, rng, fiber_scale)

    head, tail = steps.split((len(steps.a) + 1) // 2)
    stage1 = _ProductRows("associativity stage 1", np.concatenate([ta, tb]),
                          np.concatenate([tb, tc]))
    first, head_products = _multiply_rows(G, evaluator, [stage1, head], max_sweeps)
    ab, bc = first[:n_triples], first[n_triples:]
    stage2 = _ProductRows("associativity stage 2", np.concatenate([ab, ta]),
                          np.concatenate([tc, bc]), composability_tol=1e-8)
    second, tail_products = _multiply_rows(G, evaluator, [stage2, tail], max_sweeps)

    products = np.concatenate([head_products, tail_products])
    mu = products[:n_pairs].real
    dmu1, dmu2 = products.imag.reshape(2, n_pairs, d) / COMPLEX_STEP
    # omega at the products and at the inverses from one solve
    W_mu, W_inv = np.split(
        evaluator.omega_matrices(np.concatenate([mu, inv_a])), [n_pairs])
    lhs = np.einsum("bi,bij,bj->b", dmu1, W_mu, dmu2)
    rhs = np.einsum("bi,bij,bj->b", v1, om_a.value, v2) + \
        np.einsum("bi,bij,bj->b", w1, om_b.value, w2)
    pulled = np.einsum("bji,bjk,bkl->bil", dinv, W_inv, dinv)
    assoc = (second[:n_triples] - second[n_triples:]).real
    return {"multiplicativity": float(np.max(np.abs(lhs - rhs))),
            "inversion_antisymmetry": float(np.max(np.abs(pulled + om_a.value))),
            "associativity": float(np.max(np.abs(assoc))),
            "mu": mu, "pairs": (a, b)}


# ---------------------------------------------------------------------------
# Cocycles


def integrate_cocycle(G, delta, points, *consumers):
    """f(g) = quadrature of delta along the spray flow of g, batched.

    ``delta`` must be fiberwise linear (checked symbolically up to sampled
    evaluation).  The flow solve also feeds ``consumers`` (see
    ``SprayGroupoid.flow_end``).
    """
    _assert_fiberwise_linear(delta, G.chart)
    fn = ex.compile_exprs([delta], G.spray.variables)
    vals = []
    G.flow_end(points, lambda j, node: vals.append(fn(node.z.T)[:, 0]),
               *consumers)
    return np.stack(vals, axis=1) @ G.rule.weights


# ---------------------------------------------------------------------------
# Differentiation and linearization round trips


def differentiate_at_units(G, evaluator, data, base_points, tol=1e-7):
    """Recover the IM pair from omega at zero-section points and compare.

    l(e_j) values come from contracting omega with the vertical frame
    directions at units; nu(e_j) from the same contraction of d omega.
    Returns a CheckReport with the worst recovery residuals.
    """
    n, r = G.n, G.r
    k = evaluator.degree
    X = np.atleast_2d(base_points)
    P = G.units(X)
    W, T = evaluator.omega_and_domega_full(P)
    res_l = np.zeros((len(X), r))
    res_nu = np.zeros((len(X), r))
    horizontal = (slice(0, n),)     # the remaining arguments
    for j in range(r):
        at = (slice(None), n + j)
        want_l = tn.comps_to_full_batch(data.l[j].values(X), n, k - 1)
        want_nu = tn.comps_to_full_batch(data.nu[j].values(X), n, k)
        res_l[:, j] = _max_per_row(W[at + horizontal * (k - 1)] - want_l)
        res_nu[:, j] = _max_per_row(T[at + horizontal * k] - want_nu)
    report = CheckReport()
    report.add_pointwise("units_recover_l", np.max(res_l, axis=1), tol, X)
    report.add_pointwise("units_recover_nu", np.max(res_nu, axis=1), tol, X)
    return report


def _max_per_row(diff):
    """max |diff[b]| over all but the batch axis (0 for empty rows)."""
    return np.max(np.abs(diff).reshape(len(diff), -1), axis=1, initial=0.0)


def linearization_check(G, evaluator, point):
    """Log-log slope of || (1/t) m_t^* omega - Lambda || along a t-ladder.

    The linear form is the fiber-scaling derivative of omega at the units,
    so the remainder vanishes to first order: the fitted slope should be
    close to 1.
    """
    point = np.asarray(point, dtype=np.float64)
    k = evaluator.degree
    lam_full = tn.comps_to_full_batch(
        evaluator.form.values(point[None, :]), G.dim, k)[0]
    ts = np.array([0.1, 0.05, 0.025, 0.0125])
    # row i of D is the fiber scaling m_t, t = ts[i], on the total space
    D = np.ones((len(ts), G.dim))
    D[:, G.n:] = ts[:, None]
    pulled = evaluator.omega_full(point * D)
    for axis in range(k):
        shape = [len(ts)] + [1] * k
        shape[1 + axis] = G.dim
        pulled = pulled * D.reshape(shape)
    resids = _max_per_row(pulled / ts.reshape((-1,) + (1,) * k)
                          - lam_full).tolist()
    if max(resids) < 1e-12:
        return None, resids  # remainder vanishes identically (exactly linear)
    logs_t = np.log(ts)
    logs_r = np.log(np.maximum(resids, 1e-300))
    slope = float(np.polyfit(logs_t, logs_r, 1)[0])
    return slope, resids


def units_form_predictor(A, l_fields, X, args):
    """Closed-form values of omega at units from l alone, batched.

    ``X`` is a (B, n) batch of base points and ``args`` a list of k pairs
    (tm_part (B, n), fiber_part (B, r)); row b of the result is omega at
    the unit over X[b] on the row-b arguments.  The value expands
    multilinearly over the splitting T(units) = TM + A and evaluates each
    pure term by the alternating-sum formula

        omega(a_1..a_j, v_1..v_{k-j})
          = (1/j) sum_i (-1)^{i-1} l(a_i)(rho a_1, .., hat i, .., rho a_j,
                                          v_1, .., v_{k-j})

    with the convention that pure-horizontal values (j = 0) vanish.
    """
    X = np.asarray(X, dtype=np.float64)
    rho = A.anchor_at(X)
    l_vals = np.stack([f.values(X) for f in l_fields], axis=1)   # (B, r, nC)
    k = len(args)

    def pure_value(fiber_list, tm_list):
        j = len(fiber_list)
        if j == 0:
            return 0.0
        total = 0.0
        for i in range(j):
            a_i = fiber_list[i]
            others = [np.matmul(rho, fiber_list[m][..., None])[..., 0]
                      for m in range(j) if m != i]
            cols = others + list(tm_list)
            V = np.stack(cols, axis=-1) if cols else np.zeros((len(X), A.n, 0))
            lt = np.zeros((len(X), l_vals.shape[2]))
            for m in range(A.r):
                lt = lt + l_vals[:, m] * a_i[:, m, None]
            total = total + ((-1.0) ** i) * tn.evaluate_batch(lt, V)
        return total / j

    out = np.zeros(len(X))
    # which arguments are fiber arguments, the first varying fastest
    for pattern in (p[::-1] for p in itertools.product((False, True), repeat=k)):
        fibers, tms, sign = [], [], 1
        for pos, take_fiber in enumerate(pattern):
            if take_fiber:
                # moving this fiber argument in front of the tm args before it
                sign *= (-1) ** len(tms)
                fibers.append(np.asarray(args[pos][1], dtype=np.float64))
            else:
                tms.append(np.asarray(args[pos][0], dtype=np.float64))
        out += sign * pure_value(fibers, tms)
    return out
