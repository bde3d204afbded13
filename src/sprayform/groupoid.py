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

The Poisson multiplication solves  dk/dt = -Pi#_k( dtau_k^T p_t ),  k_0 = b,
where p_t is the fiber of phi^t(a), Pi is the pointwise inverse of omega and
dtau the Jacobian of target = projection o time-1 flow.  With the sharp/flat
conventions used here this is  dk/dt = solve(W_k, dtau_k^T p_t)  for the
antisymmetric matrix W of omega.  Everything is batched over points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import expr as ex
from . import tensor as tn
from .errors import (
    ComposabilityError,
    DegenerateFormError,
    DimensionError,
    DomainExitError,
    NonlinearCocycleError,
)
from .flow import (FlowEngine, QuadratureRule, central_difference,
                   cumulative_integral)
from .report import CheckReport, SplitMix64

__all__ = ["SprayGroupoid", "MultFormEvaluator", "multiply_poisson",
           "differential_of_multiplication", "integrate_cocycle",
           "differentiate_at_units", "linearization_check",
           "units_form_predictor", "discover_validity_box"]

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
OMEGA_FD_STEP = 1e-3      # d omega of weighted evaluators
PRODUCT_FD_STEP = 1e-4    # d mu


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
    quad_kind: str = "simpson"
    validity_fiber_radius: float | None = None

    def __post_init__(self):
        A = self.chart
        base_box = np.asarray(A.box, dtype=np.float64)
        fiber_box = np.array([[-np.inf, np.inf]] * A.r)
        self.total_box = np.vstack([base_box, fiber_box])
        self.engine = FlowEngine(self.spray.components, self.spray.variables,
                                 box=self.total_box)
        if self.quad_kind == "simpson":
            self.rule = QuadratureRule.simpson(self.n_quad)
        elif self.quad_kind == "gauss":
            self.rule = QuadratureRule.gauss_legendre(self.n_quad)
        else:
            raise DimensionError(f"unknown quadrature kind {self.quad_kind!r}")
        self._grid = self._trajectory_grid()

    @property
    def n(self):
        return self.chart.n

    @property
    def r(self):
        return self.chart.r

    @property
    def dim(self):
        return self.chart.n + self.chart.r

    def _trajectory_grid(self):
        """Quadrature nodes with t=0 and t=1 adjoined when missing.

        The structure maps need the endpoint flow; the quadrature needs the
        rule's nodes.  ``_node_slice`` recovers the node positions.
        """
        nodes = self.rule.nodes
        self._pre = 0 if nodes[0] == 0.0 else 1
        self._post = 0 if nodes[-1] == 1.0 else 1
        parts = []
        if self._pre:
            parts.append([0.0])
        parts.append(nodes)
        if self._post:
            parts.append([1.0])
        return np.concatenate(parts)

    def _node_slice(self):
        """Positions of the quadrature nodes inside the trajectory grid."""
        return slice(self._pre, len(self._grid) - self._post)

    # -- structure maps ----------------------------------------------------

    def unit(self, x):
        x = np.asarray(x, dtype=np.float64)
        return np.concatenate([x, np.zeros(self.r)])

    def sigma(self, P):
        P = np.atleast_2d(np.asarray(P, dtype=np.float64))
        return P[:, : self.n]

    def trajectory(self, P):
        """Flow with tangent Jacobians over the quadrature grid."""
        P = np.atleast_2d(np.asarray(P, dtype=np.float64))
        return self.engine.flow_with_jacobian(P, self._grid, self.substeps)

    def tau(self, P):
        P = np.atleast_2d(np.asarray(P, dtype=np.float64))
        states = self.engine.flow_on_grid(P, self._grid, self.substeps)
        return states[:, -1, : self.n]

    def tau_with_jacobian(self, P):
        traj = self.trajectory(P)
        end = traj.states[:, -1]
        return end[:, : self.n], traj.jacobians[:, -1, : self.n, :]

    def inverse(self, P):
        P = np.atleast_2d(np.asarray(P, dtype=np.float64))
        end = self.engine.flow_on_grid(P, self._grid, self.substeps)[:, -1]
        out = end.copy()
        out[:, self.n:] *= -1.0
        return out

    def inverse_with_jacobian(self, P):
        traj = self.trajectory(P)
        end = traj.states[:, -1].copy()
        J = traj.jacobians[:, -1].copy()
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
        rng = SplitMix64(seed)
        box = self.validity_box().copy()
        box[self.n:, :] *= fiber_scale
        return np.stack([rng.point_in_box(box) for _ in range(count)])


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
    """Quadrature evaluator of the multiplicative form of a linear form.

    ``weight_cocycle``: optional fiberwise-linear Expr whose cumulative
    integral along the flow produces the scalar parallel transport factor
    (trivialized line-bundle coefficients).  Requires the Simpson rule so
    that cumulative and total quadratures agree exactly.
    """

    def __init__(self, groupoid, lform, weight_cocycle=None):
        self.groupoid = groupoid
        self.lform = lform
        self.degree = lform.degree
        if self.degree > 3:
            raise DimensionError("evaluators support degree <= 3")
        self._lam = self._compile_comps(lform.exprs_dense(), self.degree)
        dform = lform.form.d()
        self._dlam = self._compile_comps(dform.exprs_dense(), self.degree + 1)
        self.weight_cocycle = weight_cocycle
        if weight_cocycle is not None:
            _assert_fiberwise_linear(weight_cocycle, groupoid.chart)
            if groupoid.quad_kind != "simpson":
                raise DimensionError("weighted evaluators need the Simpson rule")
            self._delta = ex.compile_exprs([weight_cocycle],
                                           groupoid.spray.variables)
        else:
            self._delta = None

    def _compile_comps(self, exprs, degree):
        """Compiled component function, or a precomputed constant tensor."""
        G = self.groupoid
        if all(isinstance(e, ex.Const) for e in exprs):
            comps = np.array([e.value for e in exprs])
            const_full = tn.comps_to_full_batch(comps[None, :], G.dim, degree)[0]
            return ("const", const_full)
        return ("fn", ex.compile_exprs(exprs, G.spray.variables))

    # -- core quadrature ---------------------------------------------------

    def _weights_along(self, traj):
        if self._delta is None:
            return None
        vals = self._delta(traj.states)[..., 0]
        return np.exp(-cumulative_integral(vals, traj.times))

    def _quadrature(self, traj, comp_src, degree):
        """sum_j qw_j w_j J_j^T (comp values)_j J_j, batched."""
        G = self.groupoid
        sl = G._node_slice()
        jacs = traj.jacobians[:, sl]
        kind, payload = comp_src
        if kind == "const":
            full = payload
        else:
            comps = payload(traj.states[:, sl])
            full = tn.comps_to_full_batch(comps, G.dim, degree)
        pulled = tn.pullback_full_batch(jacs, full, degree)
        w = G.rule.weights
        transport = self._weights_along(traj)
        if transport is not None:
            w = w * transport[:, sl]
            shape = w.shape + (1,) * degree
            return np.sum(pulled * w.reshape(shape), axis=1)
        return np.einsum("bt...,t->b...", pulled, w)

    def omega_full_from_traj(self, traj):
        return self._quadrature(traj, self._lam, self.degree)

    def omega_full(self, P):
        """Batched full antisymmetric arrays of omega at points P (B, d)."""
        traj = self.groupoid.trajectory(P)
        return self._quadrature(traj, self._lam, self.degree)

    def domega_full(self, P):
        """Batched full arrays of d omega.

        Trivial coefficients: the de Rham differential commutes with the
        construction, so this is the quadrature of the (symbolic) d Lambda.
        Weighted evaluators: 4th-order central differences of the omega
        coefficients at step OMEGA_FD_STEP (documented looser tolerance
        ~1e-6).
        """
        if self._delta is None:
            traj = self.groupoid.trajectory(P)
            return self._quadrature(traj, self._dlam, self.degree + 1)
        return self._domega_fd(P)

    def _domega_fd(self, P):
        P = np.atleast_2d(np.asarray(P, dtype=np.float64))
        B, d = P.shape
        k = self.degree
        _, partials = central_difference(
            self.omega_full, P, np.broadcast_to(np.eye(d), (B, d, d)),
            OMEGA_FD_STEP)
        # (d omega)_{j0..jk} = sum_s (-1)^s d_{j_s} omega_{j0..^s..jk}
        return sum((-1) ** s * np.moveaxis(partials, 1, 1 + s)
                   for s in range(k + 1))

    def omega_matrices(self, P):
        """(B, d, d) antisymmetric matrices (degree-2 evaluators only)."""
        if self.degree != 2:
            raise DimensionError("omega_matrices needs a degree-2 evaluator")
        return self.omega_full(P)

    def inverse_matrices(self, P, cond_bound=1e12):
        W = self.omega_matrices(P)
        svals = np.linalg.svd(W, compute_uv=False)
        smin = svals[:, -1]
        bad = (smin <= 0) | (svals[:, 0] / np.maximum(smin, 1e-300) > cond_bound)
        if bad.any():
            i = int(np.argmax(bad))
            raise DegenerateFormError(float(smin[i]), P[i], i)
        return np.linalg.inv(W)


def _assert_fiberwise_linear(delta, chart, samples=8, seed=17):
    """delta must be linear in the fiber variables (exact symbolic check)."""
    for yi in chart.ys:
        for yj in chart.ys:
            second = ex.partial(ex.partial(delta, yi), yj)
            if not _is_zero_expr(second, chart, samples, seed):
                raise NonlinearCocycleError("cocycle is not fiberwise linear")
    at_zero = ex.subst(delta, {y: ex.ZERO for y in chart.ys})
    if not _is_zero_expr(at_zero, chart, samples, seed):
        raise NonlinearCocycleError("cocycle does not vanish on the zero section")


def _is_zero_expr(e, chart, samples, seed):
    if e.is_zero:
        return True
    rng = SplitMix64(seed)
    Z = np.array([[rng.uniform(-1, 1) for _ in chart.total_vars]
                  for _ in range(samples)])
    return not np.any(np.abs(ex.compile_exprs([e], chart.total_vars)(Z)) > 1e-12)


# ---------------------------------------------------------------------------
# Poisson multiplication


def multiply_poisson(G, evaluator, a, b, n_steps=32, composability_tol=1e-9,
                     cond_bound=1e12):
    """Groupoid product on a symplectic spray groupoid, batched.

    ``a``, ``b`` are composable batches of points ((B, d) or single points):
    sigma(a) = tau(b) within ``composability_tol`` (checked strictly, no
    silent projection).  Solves the multiplication ODE by RK4 with
    ``n_steps`` steps; each stage evaluates omega^{-1} and dtau at the
    current solution, which costs one flow-with-Jacobian per stage.
    """
    single = np.asarray(a).ndim == 1
    A = np.atleast_2d(np.asarray(a, dtype=np.float64))
    Bp = np.atleast_2d(np.asarray(b, dtype=np.float64))
    if A.shape != Bp.shape:
        raise DimensionError("a and b batches must have the same shape")
    n = G.n
    tau_b = G.tau(Bp)
    viols = np.max(np.abs(A[:, :n] - tau_b), axis=1)
    worst = int(np.argmax(viols))
    if viols[worst] > composability_tol:
        raise ComposabilityError(
            f"sigma(a) != tau(b) at batch row {worst}: violation "
            f"{viols[worst]:.3e} > {composability_tol:.1e}")

    # fiber of phi^t(a) at the RK4 stage times: grid spacing h/2
    stage_grid = np.linspace(0.0, 1.0, 2 * n_steps + 1)
    a_states = G.engine.flow_on_grid(A, stage_grid, G.substeps)
    p_stage = a_states[:, :, n:]          # (B, 2*n_steps+1, r)

    def rhs(k_pts, stage_idx):
        # one flow-with-Jacobian serves both dtau and the omega quadrature
        traj = G.trajectory(k_pts)
        dtau = traj.jacobians[:, -1, :n, :]
        W = evaluator.omega_full_from_traj(traj)
        svals = np.linalg.svd(W, compute_uv=False)
        smin = float(np.min(svals[:, -1]))
        if smin <= 0 or float(np.max(svals[:, 0])) / max(smin, 1e-300) > cond_bound:
            row = int(np.argmin(svals[:, -1]))
            raise DegenerateFormError(smin, k_pts[row], row)
        beta = np.einsum("baj,ba->bj", dtau, p_stage[:, stage_idx])
        return np.linalg.solve(W, beta[..., None])[..., 0]

    h = 1.0 / n_steps
    k = Bp.copy()
    for step in range(n_steps):
        s0 = 2 * step
        k1 = rhs(k, s0)
        k2 = rhs(k + 0.5 * h * k1, s0 + 1)
        k3 = rhs(k + 0.5 * h * k2, s0 + 1)
        k4 = rhs(k + h * k3, s0 + 2)
        k = k + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return k[0] if single else k


# ---------------------------------------------------------------------------
# Batched multiplicativity / associativity checks (the expensive residuals)


def sample_composable_pairs(G, count, seed, fiber_scale=0.5):
    """Composable (a, b) batches: sigma(a) = tau(b) exactly by construction."""
    rng = SplitMix64(seed)
    b = G.sample_validity_points(count, seed, fiber_scale=fiber_scale)
    return _left_factors(G, b, rng, fiber_scale), b


def _left_factors(G, right, rng, fiber_scale):
    """Points a with sigma(a) = tau(right), fibers drawn from ``rng``."""
    left = np.empty_like(right)
    left[:, : G.n] = G.tau(right)
    rad = G.validity_fiber_radius * fiber_scale
    for i in range(len(right)):
        left[i, G.n:] = rad * rng.uniform(0.2, 1.0) * rng.direction(G.r)
    return left


def composable_tangents_batch(G, b, v_base, rng):
    """Batched solution of dtau(w) = v_base plus a random kernel component."""
    _, dtau = G.tau_with_jacobian(b)
    pinv = np.linalg.pinv(dtau)
    w = np.einsum("bja,ba->bj", pinv, v_base)
    proj = np.einsum("bja,bak->bjk", pinv, dtau)
    B, d = b.shape
    rand = np.array([[rng.uniform(-1, 1) for _ in range(d)] for _ in range(B)])
    w += rand - np.einsum("bjk,bk->bj", proj, rand)
    return w


def _newton_composable(G, a_base, b_guess, iters=3, tol=1e-13):
    """Correct b so that tau(b) = a_base, batched (correction is O(s^2))."""
    b = b_guess.copy()
    for _ in range(iters):
        tau_b, dtau = G.tau_with_jacobian(b)
        res = a_base - tau_b
        if float(np.max(np.abs(res))) < tol:
            break
        pinv = np.linalg.pinv(dtau)
        b = b + np.einsum("bja,ba->bj", pinv, res)
    return b


def differential_of_multiplication(G, evaluator, a, b, tangent_pairs,
                                   n_steps=32):
    """mu(a, b) and d mu at (a, b) on composable tangent pairs, batched.

    ``tangent_pairs`` lists (v, w) batches with dtau(w) = dsigma(v).  Each
    derivative is a 4th-order central difference (step PRODUCT_FD_STEP) of
    ``multiply_poisson`` along exactly composable curves: a_s = a + s v, and
    b_s Newton-corrected so that tau(b_s) = sigma(a_s) to machine precision
    (the correction is O(s^2), so it does not disturb the derivative).  The
    central product and every stencil offset of every pair go through one
    Newton correction (a no-op on composable rows) and one
    ``multiply_poisson`` call.  Returns (mu, [d mu(v, w) for each pair]).
    """
    d = G.dim

    def product(rows):
        a_s, b_s = rows[:, :d], rows[:, d:]
        return multiply_poisson(G, evaluator, a_s,
                                _newton_composable(G, a_s[:, : G.n], b_s),
                                n_steps=n_steps)

    V = np.stack([np.concatenate([v, w], axis=1) for v, w in tangent_pairs],
                 axis=1)
    mu, dmu = central_difference(product, np.concatenate([a, b], axis=1), V,
                                 PRODUCT_FD_STEP)
    return mu, list(np.swapaxes(dmu, 0, 1))


def multiplicativity_residual(G, evaluator, n_pairs=100, seed=2718, n_steps=32,
                              fiber_scale=0.5):
    """Max residual of the product compatibility over sampled composable data.

    For each pair, two composable tangent pairs are pushed through
    ``differential_of_multiplication`` and

        | omega_{mu}(dmu(v,w), dmu(v',w')) - omega_a(v,v') - omega_b(w,w') |

    is maximized.  Also returns the inversion-antisymmetry residual
    | (iota^* omega + omega) | over the same a-points.
    """
    rng = SplitMix64(seed)
    a, b = sample_composable_pairs(G, n_pairs, seed, fiber_scale)
    d = G.dim
    v1 = np.array([[rng.uniform(-1, 1) for _ in range(d)] for _ in range(n_pairs)])
    v2 = np.array([[rng.uniform(-1, 1) for _ in range(d)] for _ in range(n_pairs)])
    w1 = composable_tangents_batch(G, b, v1[:, : G.n], rng)
    w2 = composable_tangents_batch(G, b, v2[:, : G.n], rng)
    mu, dmu = differential_of_multiplication(
        G, evaluator, a, b, [(v1, w1), (v2, w2)], n_steps=n_steps)

    W_mu = evaluator.omega_matrices(mu)
    W_a = evaluator.omega_matrices(a)
    W_b = evaluator.omega_matrices(b)
    lhs = np.einsum("bi,bij,bj->b", dmu[0], W_mu, dmu[1])
    rhs = np.einsum("bi,bij,bj->b", v1, W_a, v2) + \
        np.einsum("bi,bij,bj->b", w1, W_b, w2)
    mult_res = float(np.max(np.abs(lhs - rhs)))

    inv_a, dinv = G.inverse_with_jacobian(a)
    W_inv = evaluator.omega_matrices(inv_a)
    pulled = np.einsum("bji,bjk,bkl->bil", dinv, W_inv, dinv)
    inv_res = float(np.max(np.abs(pulled + W_a)))
    return {"multiplicativity": mult_res, "inversion_antisymmetry": inv_res,
            "mu": mu, "pairs": (a, b)}


def associativity_residual(G, evaluator, n_triples=50, seed=424242, n_steps=32,
                           fiber_scale=0.4):
    """max || mu(mu(a,b),c) - mu(a,mu(b,c)) || over sampled composable triples."""
    rng = SplitMix64(seed)
    c = G.sample_validity_points(n_triples, seed, fiber_scale=fiber_scale)
    b = _left_factors(G, c, rng, fiber_scale)
    a = _left_factors(G, b, rng, fiber_scale)

    first = multiply_poisson(G, evaluator, np.concatenate([a, b]),
                             np.concatenate([b, c]), n_steps=n_steps)
    ab = first[:n_triples]
    bc = first[n_triples:]
    second = multiply_poisson(
        G, evaluator, np.concatenate([ab, a]), np.concatenate([c, bc]),
        n_steps=n_steps, composability_tol=1e-8)
    left = second[:n_triples]
    right = second[n_triples:]
    return float(np.max(np.abs(left - right)))


# ---------------------------------------------------------------------------
# Cocycles


def integrate_cocycle(G, delta, points):
    """f(g) = quadrature of delta along the spray flow of g.

    ``delta`` must be fiberwise linear (checked symbolically up to sampled
    evaluation); returns an array of values over the batch.
    """
    _assert_fiberwise_linear(delta, G.chart)
    fn = ex.compile_exprs([delta], G.spray.variables)
    P = np.atleast_2d(np.asarray(points, dtype=np.float64))
    traj = G.trajectory(P)
    vals = fn(traj.states[:, G._node_slice()])[..., 0]
    return vals @ G.rule.weights


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
    P = np.stack([G.unit(x) for x in X])
    W = evaluator.omega_full(P)
    T = evaluator.domega_full(P)
    res_l = np.zeros((len(X), r))
    res_nu = np.zeros((len(X), r))
    for j in range(r):
        slot = n + j
        l_vals = data.l[j].values(X)
        want_l = tn.comps_to_full_batch(l_vals, n, k - 1)
        want_nu = tn.comps_to_full_batch(data.nu[j].values(X), n, k)
        for idx in range(len(X)):
            if k == 1:
                res_l[idx, j] = abs(float(W[idx][slot]) - float(l_vals[idx, 0]))
            else:
                got = _restrict_horizontal(W[idx], slot, k - 1, n)
                res_l[idx, j] = np.max(np.abs(got - want_l[idx]), initial=0.0)
            got_nu = _restrict_horizontal(T[idx], slot, k, n)
            res_nu[idx, j] = np.max(np.abs(got_nu - want_nu[idx]), initial=0.0)
    report = CheckReport()
    report.add_pointwise("units_recover_l", np.max(res_l, axis=1), tol, X)
    report.add_pointwise("units_recover_nu", np.max(res_nu, axis=1), tol, X)
    return report


def _restrict_horizontal(full, slot, deg, n):
    """full(slot, . , .., .) with the remaining arguments horizontal."""
    contracted = full[slot] if full.ndim >= 1 else full
    # take the leading (deg) axes restricted to indices < n
    slicer = (slice(0, n),) * deg
    return contracted[slicer] if deg else contracted


def linearization_check(G, evaluator, point, ladder=(0.1, 0.05, 0.025, 0.0125)):
    """Log-log slope of || (1/t) m_t^* omega - Lambda || along a t-ladder.

    The linear form is the fiber-scaling derivative of omega at the units,
    so the remainder vanishes to first order: the fitted slope should be
    close to 1.
    """
    point = np.asarray(point, dtype=np.float64)
    n, r = G.n, G.r
    k = evaluator.degree
    lam_full = tn.comps_to_full_batch(
        evaluator.lform.form.values(point[None, :]), G.dim, k)[0]
    resids = []
    for t in ladder:
        scaled = point.copy()
        scaled[n:] *= t
        W = evaluator.omega_full(scaled[None, :])[0]
        D = np.ones(G.dim)
        D[n:] = t
        pulled = W.copy()
        for axis in range(k):
            shape = [1] * k
            shape[axis] = G.dim
            pulled = pulled * D.reshape(shape)
        resids.append(float(np.max(np.abs(pulled / t - lam_full))))
    if max(resids) < 1e-12:
        return None, resids  # remainder vanishes identically (exactly linear)
    logs_t = np.log(np.asarray(ladder))
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
    degree = l_fields[0].degree
    k = len(args)

    def pure_value(b, ls, fiber_list, tm_list):
        j = len(fiber_list)
        if j == 0:
            return 0.0
        total = 0.0
        for i in range(j):
            a_i = fiber_list[i]
            others = [rho[b] @ fiber_list[m] for m in range(j) if m != i]
            vectors = others + list(tm_list)
            lt = sum((a_i[m] * ls[m] for m in range(A.r)),
                     tn.AltTensor(A.n, degree))
            total += ((-1.0) ** i) * lt(*vectors)
        return total / j

    out = np.zeros(len(X))
    for b in range(len(X)):
        ls = [tn.AltTensor(A.n, degree, l_vals[b, m]) for m in range(A.r)]
        for pattern in _binary_patterns(k):
            fibers, tms, sign = [], [], 1
            moved = 0
            for pos, take_fiber in enumerate(pattern):
                if take_fiber:
                    # moving this fiber argument in front of the tm args before it
                    sign *= (-1) ** (pos - moved)
                    fibers.append(np.asarray(args[pos][1][b], dtype=np.float64))
                    moved += 1
                else:
                    tms.append(np.asarray(args[pos][0][b], dtype=np.float64))
            out[b] += sign * pure_value(b, ls, fibers, tms)
    return out


def _binary_patterns(k):
    for mask in range(1 << k):
        yield [bool(mask & (1 << pos)) for pos in range(k)]
