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
sweep is one tangent-flow solve at every node, first on a quarter of the
nodes (nested iteration), then in FAS cycles (the full approximation
scheme): one sweep on every node, then sweeps on the quarter corrected by
the difference of the two rules' f there, so so(3)* rows stop after two
full sweeps.  Everything is batched.

d mu is a complex step: the product is analytic, so on composable tangents
d mu(v, w) = Im mu(a + i h v, b + i h w) / h to roundoff at h = COMPLEX_STEP,
and the real part is mu(a, b) to O(h^2).  The product, the flow and the form
sum take the dtype of their input, and their checks read real parts.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from . import expr as ex
from . import tensor as tn
from .errors import (
    ComposabilityError,
    DegenerateFormError,
    DimensionError,
    DomainExitError,
    NonFiniteStateError,
    NonlinearCocycleError,
    ProductConvergenceError,
    named,
)
from .flow import COMPLEX_STEP, FlowEngine, TimeRule, complex_step
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
    """Structure maps of the local groupoid of a spray, whose flows and form
    integrals step ``rule``, the ``flow.TimeRule`` of ``n_quad``, unless a
    call is given another rule.  Evaluations are batched over points;
    ``validity_fiber_radius`` is set by ``discover_validity_box``."""

    chart: object
    spray: object
    n_quad: int = 64
    validity_fiber_radius: float | None = None

    def __post_init__(self):
        A = self.chart
        base_box = np.asarray(A.box, dtype=np.float64)
        fiber_box = np.array([[-np.inf, np.inf]] * A.r)
        self.total_box = np.vstack([base_box, fiber_box])
        self.engine = FlowEngine(self.spray.components, self.spray.variables,
                                 box=self.total_box)
        self.rule = TimeRule(self.n_quad)

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

    def flow_end(self, P, *consumers, rule=None):
        """(z, J) at t = 1 from one tangent-flow solve of ``rule`` (default
        ``self.rule``): RK4 over its nodes at its substeps.

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

        rule = rule or self.rule
        return self.engine.flow_with_jacobian(P, rule.nodes, rule.substeps,
                                              at_node if consumers else None)

    def tau(self, P):
        return self.engine.flow_on_grid(P, self.rule.nodes,
                                        self.rule.substeps)[:, : self.n]

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
    returns it, or raises the last radius's DomainExitError, named.
    """
    A = G.chart
    half = (A.box[:, 1] - A.box[:, 0]) / 2.0
    radius = float(np.min(half))
    rng = SplitMix64(seed)
    mid = A.box.mean(axis=1)
    base_half = half * VALIDITY_BASE_SCALE
    grid = np.linspace(0.0, VALIDITY_MARGIN, 17)
    exit_error = DomainExitError(0.0)
    while radius >= VALIDITY_MIN_RADIUS:
        pts = []
        for _ in range(VALIDITY_SAMPLES):
            x = mid + base_half * np.array([rng.uniform(-1, 1) for _ in range(A.n)])
            y = radius * rng.direction(A.r)
            pts.append(np.concatenate([x, y]))
        try:
            G.engine.flow_on_grid(np.stack(pts), grid, substeps=4)
        except DomainExitError as exc:
            radius, exit_error = radius * VALIDITY_SHRINK, exc
            continue
        G.validity_fiber_radius = radius
        return radius
    with named(f"validity discovery: no fiber radius >= {VALIDITY_MIN_RADIUS} "
               f"keeps the {VALIDITY_SAMPLES} sample flows in the chart box"):
        raise exit_error


class MultFormEvaluator:
    """Quadrature evaluator of the multiplicative form of a linear form
    (a fiberwise-linear FormField over the total variables).

    ``weight_cocycle``: optional fiberwise-linear Expr whose cumulative
    integral along the flow produces the scalar parallel transport factor
    (trivialized line-bundle coefficients); the rule's running integral
    agrees with its total quadrature to roundoff.
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

    def omega_sum(self, rule=None):
        """Flow consumer accumulating omega on the nodes of ``rule``
        (default the groupoid's; see ``_FormSum``)."""
        return _FormSum(self, self._lam, self.degree, rule)

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

    def inverse_matrices(self, P):
        W = self.omega_full(P)
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
    exp(-int_0^t_j delta), whose running integral completes an odd node
    at the next node: each term is added when its node completes, from a
    copy of the node's live rows.  Code generated from the form
    (``_compile_node_sum``) adds, in place from the live RK4 state, the
    outer product c F_I(z) J_{i_1} x .. x J_{i_k} of rows of J for each
    component I = (i_1 < .. < i_k), c = qw_j w_j, term by term to a
    component-major (d, .., d, B) sum.  ``value`` is its alternation, batch
    axis first: the pullback sum_I F_I det-minors of J; ``transport`` is the
    last node's weight.  A form with no components ``skip``s: no node, zeros.
    """

    def __init__(self, evaluator, form_terms, degree, rule=None):
        self.ev, self.degree, self.terms = evaluator, degree, form_terms
        self.rule = rule or evaluator.groupoid.rule
        self.transport = self._value = None

    def skip(self, P):
        """Before a solve of P: whether the form has no components (zeros)."""
        if not self.terms[0]:
            P = np.atleast_2d(P)
            self._value = np.zeros((len(P),) + (self.ev.groupoid.dim,) * self.degree,
                                   np.result_type(P, np.float64))
        return not self.terms[0]

    def __call__(self, j, node):
        X, rule = node.X, self.rule
        if j == 0:
            codes = self.ev._codes
            if self.degree not in codes:
                codes[self.degree] = _compile_node_sum(self.ev, *self.terms, self.degree)
            self._sum, self._values, self._add = codes[self.degree](node.F, X.shape[1])
            self._value = None
            self._running = rule.running()
        if self.ev.weight_cocycle is None:
            self._add(X, self._values(X), rule.weights[j])
            return
        V = self._values(X)
        for (k, Xk, Vk), c in self._running(j, V[:, -1], (j, X.copy(), V)):
            self.transport = np.exp(-c)
            self._add(Xk, Vk, rule.weights[k] * self.transport)

    @property
    def value(self):
        if self._value is None:
            self._value = _alternate(self._sum, self.degree)
        return self._value


def _compile_node_sum(ev, terms, exprs, degree):
    """The node sum of ``_FormSum`` for the terms of ``_form_terms``:
    ``bind(F, B)`` allocates the zero sum S for B rows with frozen rows F
    and returns S, ``values(X)``, None or a new (B, n) array of the
    non-constant coefficients, then a weighted evaluator's cocycle, at the
    live rows X (written as ``compile_exprs`` writes its columns, complex
    rows through ``ex.real_pass``), and ``add(X, V, s)``, which adds the
    node with c = s.

    A frozen row J_i = e_i (see ``flow``) is a fixed index of S, not a
    factor.  Each term is c = s F_I times its live rows of J, added into its
    part of S, kept contiguous by S's swapped first and last form axes when
    its live indices precede its frozen ones (as on every bundled kind).
    """
    G = ev.groupoid
    d, live, frozen = G.dim, G.engine.live, G.engine.frozen
    m = len(live)
    rows_of = {i: f"X[{m + a * d}:{m + (a + 1) * d}]" for a, i in enumerate(live)}
    head, body, depth = [], [], 0
    for n, (I, value, col) in enumerate(terms):
        rows = [i for i in I if i in live]
        depth = max(depth, len(rows))
        at = ", ".join(str(i) if i in frozen else ":" for i in I)
        head.append(f"S{n} = S[{at}]")
        body.append(f"c = s * {f'V[:, {col}]' if value is None else f'({value!r})'}")
        body += [f"np.multiply({rows_of[i]}, c, out=T1)" if k == 1 else
                 f"np.multiply(T{k - 1}[..., None, :], {rows_of[i]}, out=T{k})"
                 for k, i in enumerate(rows, start=1)]
        body.append(f"np.add(S{n}, {f'T{len(rows)}' if rows else 'c'}, out=S{n})")
    head += [f"T{k} = np.empty({(d,) * k} + (B,), F.dtype)" for k in range(1, depth + 1)]
    columns = exprs + ([ev.weight_cocycle] if ev.weight_cocycle is not None else [])
    used = ex.used_variables(columns, G.spray.variables)
    names = {v: f"z{i}" for i, v in enumerate(G.spray.variables)}
    values = [f"z{i} = X[{live.index(i)}]" if i in live
              else f"z{i} = F[{frozen.index(i)}]"
              for i, v in enumerate(G.spray.variables) if v in used]
    values += [f"V = np.zeros((B, {len(columns)}), X.dtype)",
               "with np.errstate(**RAISE):"] + ex.indent(ex.guard(ex.real_pass(
                   [(e, ex.numpy_assign(f"V[:, {c}]", e, names))
                    for c, e in enumerate(columns)],
                   names, "X.dtype.kind == 'c'")), 4) if columns else ["V = None"]
    src = (["def _bind(F, B):",
            f"    S = np.zeros({(d,) * degree} + (B,), F.dtype).swapaxes(0, -2)"]
           + ex.indent(head, 4)
           + ["    def values(X):"] + ex.indent(values + ["return V"], 8)
           + ["    def add(X, V, s):"] + ex.indent(body, 8)
           + ["    return S, values, add"])
    return ex.exec_generated(src, "form")["_bind"]


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

    ``a``, ``b`` are composable (B, d) batches of points, real or complex:
    sigma(a) = tau(b) within ``composability_tol`` at every row (checked
    strictly, no silent projection).  Solves the multiplication ODE by
    Gauss collocation (``_collocation``) from k = b at every node, by
    Picard sweeps k <- b + S (f(k) + C).  Phase 1 sweeps with C = 0 on the
    coarse rule of a quarter of ``G.rule``'s nodes, when that is a rule,
    until a row's update is at most its RK4 step^4.  Then each FAS cycle
    makes one sweep on ``G.rule``, which stops a row whose update at the
    nodes and at t = 1 is at most ``PICARD_BOUND`` (real parts and, on
    complex rows, imaginary parts over ``COMPLEX_STEP``); any other row
    takes C = f_fine - f_coarse at that sweep's nodes and sweeps on the
    coarse rule until its update is at most ``PICARD_BOUND``.  A coarse
    loop that does not converge in ``max_sweeps`` sweeps, or meets a flow
    or guard error, restarts its row from b on ``G.rule`` alone, so no
    coarse sweep raises.  A row decides alone, so it gets the bits of a
    call of its own; one still active after ``max_sweeps`` fine sweeps
    from its start raises ProductConvergenceError.  omega must have
    condition number at most ``COND_BOUND`` at every row.
    """
    A, Bp = np.asarray(a), np.asarray(b)
    dtype = np.result_type(A, Bp, np.float64)
    A, Bp = A.astype(dtype), Bp.astype(dtype)
    if A.ndim != 2 or A.shape != Bp.shape:
        raise DimensionError("a and b must be (B, d) batches of one shape")
    n, d, m = G.n, G.dim, PRODUCT_NODES
    tau_b = G.tau(Bp)
    viols = np.max(np.abs((A[:, :n] - tau_b).real), axis=1)
    over = viols > composability_tol
    if over.any():
        worst = int(np.argmax(np.where(over, viols, -np.inf)))
        raise ComposabilityError(viols[worst], composability_tol, worst)

    t, S = _collocation(m)
    p = G.rule.flight(G.engine, A, t)[..., n:]   # fiber of phi^t(a) at t
    Y = np.repeat(Bp[None], m + 1, axis=0)   # k at the nodes, then at t = 1
    C = np.zeros((m,) + Bp.shape, dtype)     # f_fine - f_coarse at the nodes
    fresh = True          # every node at b: a sweep flies each row once

    def rhs(rule, rows, fallback):
        """(rows, F, failed): f (m, k, d) at the nodes of Y's ``rows`` on
        ``rule``, from one flow-with-Jacobian solve.  A flow or guard
        error names its product row; by ``fallback`` the rows it names
        join ``failed`` and the solve is made again without them,
        otherwise it raises."""
        nonlocal fresh
        failed = []
        while len(rows):
            k = len(rows)
            # node-major: row j is rows[j % k]
            K = Y[0 if fresh else slice(m), rows].reshape(-1, d)
            acc = evaluator.omega_sum(rule)
            try:
                _, J = G.flow_end(K, acc, rule=rule)
                W = acc.value
                _check_conditioning(W, K, COND_BOUND)
            except (DomainExitError, NonFiniteStateError, DegenerateFormError) as exc:
                if exc.row is not None:
                    exc.relocate(int(rows[exc.row % k]))
                if not fallback:
                    raise
                failed.append(rows if exc.row is None else [exc.row])
                rows = np.setdiff1d(rows, failed[-1])
                continue
            if fresh:
                J, W, fresh = np.tile(J, (m, 1, 1)), np.tile(W, (m, 1, 1)), False
            beta = np.einsum("baj,ba->bj", J[:, :n, :], p[:, rows].reshape(m * k, n))
            return rows, np.linalg.solve(W, beta[..., None]).reshape(m, k, d), failed
        return rows, np.zeros((m, 0, d), dtype), failed

    def advance(rows, F):
        """b + S F at ``rows``, node by node in a fixed order, so each
        row's sum is its own, and each row's update from Y."""
        new = Bp[rows] + sum(S[:, j, None, None] * F[j] for j in range(m))
        step = new - Y[:, rows]
        return new, np.max(np.maximum(abs(step.real), abs(step.imag) / COMPLEX_STEP),
                           axis=(0, 2))

    def sweep(rows, bound):
        """Coarse sweeps of Y's ``rows`` in place until each row's update
        is at most ``bound``; returns the rows left after ``max_sweeps``
        sweeps, then those of flow or guard errors."""
        failed = []
        for _ in range(max_sweeps):
            if not len(rows):
                break
            rows, F, lost = rhs(coarse, rows, True)
            failed += lost
            new, update = advance(rows, F + C[:, rows])
            Y[:, rows] = new
            rows = rows[update > bound]
        return np.concatenate([rows, *failed]).astype(int)

    active = restart = np.arange(len(Bp))    # restart: on the fine rule alone
    sweeps, cycling = np.zeros(len(Bp), int), np.zeros(len(Bp), bool)
    coarse = TimeRule.admits(G.rule.n // 4) and TimeRule(G.rule.n // 4)
    if coarse:
        restart, cycling[:] = sweep(active, coarse.step ** 4), True
    # FAS cycles: a fine sweep, then C and the corrected coarse sweeps of
    # the cycling rows it did not stop
    while len(active):
        Y[:, restart], sweeps[restart], cycling[restart] = Bp[restart], 0, False
        _, F, _ = rhs(G.rule, active, False)
        new, update = advance(active, F)
        sweeps[active] += 1
        done = update <= PICARD_BOUND
        capped = ~done & (sweeps[active] >= max_sweeps)
        if capped.any():
            i = int(np.argmax(capped))
            raise ProductConvergenceError(max_sweeps, float(update[i]), PICARD_BOUND,
                                          Bp[active[i]].real, int(active[i]))
        C[:, active] = F
        rows, F, lost = rhs(coarse, active[~done & cycling[active]], True)
        C[:, rows] -= F       # at the fine sweep's Y
        Y[:, active] = new
        active = active[~done]
        restart = np.concatenate([sweep(rows, PICARD_BOUND), *lost]).astype(int)
    return Y[m].copy()


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


def _complex_step_rows(a, b, tangent_pairs):
    """The product rows of d mu at (a, b) on composable tangent pairs (v, w):
    (a + i h v, b + i h w) at h = COMPLEX_STEP, one row per pair and point,
    direction-major, as the pair (a rows, b rows).  Their products give mu,
    the real part of the first direction's rows, and each d mu(v, w),
    imaginary part over h."""
    step = 1j * COMPLEX_STEP
    return (np.concatenate([a + step * v for v, _ in tangent_pairs]),
            np.concatenate([b + step * w for _, w in tangent_pairs]))


def product_residuals(G, evaluator, n_pairs, n_triples, mult_seed,
                      assoc_seed, max_sweeps=32):
    """Multiplicativity, inversion antisymmetry and associativity of the
    Poisson product, from one product call per check's rows.

    Multiplicativity maximizes, over sampled composable pairs (a, b) with
    two composable tangent pairs each,
        | omega_{mu}(dmu(v,w), dmu(v',w')) - omega_a(v,v') - omega_b(w,w') |;
    inversion antisymmetry | iota^* omega + omega | over the same a-points;
    associativity || mu(mu(a,b),c) - mu(a,mu(b,c)) || over sampled
    composable triples.  The calls run in order: associativity stage 1,
    mu(a, b) and mu(b, c), on real rows; the complex d mu rows, 2 per
    pair; stage 2, real, at composability tolerance 1e-8.  An error in a
    call names its check, and stage 1 runs first, so its errors come first.
    """
    rng = SplitMix64(mult_seed)
    a, b = sample_composable_pairs(G, n_pairs, mult_seed)
    d = G.dim
    v1, v2 = (rng.uniform_rows([(-1, 1)] * d, n_pairs) for _ in range(2))
    # one tangent-flow solve per batch: dtau and omega at b, the inverse
    # (the end point with its fiber negated) and omega at a
    om_b, om_a = evaluator.omega_sum(), evaluator.omega_sum()
    dtau = G.flow_end(b, om_b)[1][:, : G.n]
    w1, w2 = composable_tangents_batch(dtau, [v1[:, : G.n], v2[:, : G.n]], rng)
    inv_a, dinv = G.flow_end(a, om_a)
    inv_a[:, G.n:] *= -1.0
    dinv[:, G.n:] *= -1.0

    rng, fiber_scale = SplitMix64(assoc_seed), 0.4
    tc = G.sample_validity_points(n_triples, assoc_seed, fiber_scale=fiber_scale)
    tb = _left_factors(G, tc, rng, fiber_scale)
    ta = _left_factors(G, tb, rng, fiber_scale)

    with named("associativity stage 1"):
        ab, bc = np.split(multiply_poisson(
            G, evaluator, np.concatenate([ta, tb]), np.concatenate([tb, tc]),
            max_sweeps=max_sweeps), 2)
    with named("multiplicativity"):
        products = multiply_poisson(
            G, evaluator, *_complex_step_rows(a, b, [(v1, w1), (v2, w2)]),
            max_sweeps=max_sweeps)
    with named("associativity stage 2"):
        stage2 = multiply_poisson(
            G, evaluator, np.concatenate([ab, ta]), np.concatenate([tc, bc]),
            max_sweeps=max_sweeps, composability_tol=1e-8)

    mu = products[:n_pairs].real
    dmu1, dmu2 = products.imag.reshape(2, n_pairs, d) / COMPLEX_STEP
    # omega at the products and at the inverses from one solve
    W_mu, W_inv = np.split(
        evaluator.omega_full(np.concatenate([mu, inv_a])), [n_pairs])
    lhs = np.einsum("bi,bij,bj->b", dmu1, W_mu, dmu2)
    rhs = np.einsum("bi,bij,bj->b", v1, om_a.value, v2) + \
        np.einsum("bi,bij,bj->b", w1, om_b.value, w2)
    pulled = np.einsum("bji,bjk,bkl->bil", dinv, W_inv, dinv)
    assoc = stage2[:n_triples] - stage2[n_triples:]
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


def units_form_predictor(A, l_fields, X, v, a, w, b):
    """Closed-form omega at units from l alone, batched: row q is omega at
    the unit over X[q] (B, n) on the tangents (v, a) and (w, b), split as
    T(units) = TM + A into (B, n) and (B, r) parts,

        l(a)(w) - l(b)(v) + (l(a)(rho b) - l(b)(rho a)) / 2,

    with l(a) = sum_m a_m l(e_m) the 1-form of l at a."""
    l_vals = [f.values(X) for f in l_fields]    # r batches (B, n)

    def l_at(s, u):       # l(s)(u), summed in index order
        ls = sum(l_vals[m] * s[:, m, None] for m in range(A.r))
        return sum(ls[:, i] * u[:, i] for i in range(A.n))

    rho = A.anchor_at(X)
    rho_a, rho_b = ((rho @ x[..., None])[..., 0] for x in (a, b))
    return l_at(a, w) - l_at(b, v) + (l_at(a, rho_b) - l_at(b, rho_a)) / 2
