"""Lie algebroid charts, sprays, and builders for the three input families.

A chart presents a Lie algebroid over a coordinate box: base coordinates
x1..xn, fiber coordinates y1..yr for a chosen frame e_1..e_r, an anchor
matrix rho (n x r of expressions in x), and structure functions c_{ij}^k with
[e_i, e_j] = sum_k c_{ij}^k e_k.  Structure functions are symbolic whenever
the builder can produce them in closed form; the Dirac builder instead fits
them pointwise by least squares against the frame (with a residual gate that
doubles as the involutivity check) and differentiates them by a complex
step, since the fit is analytic in the point.

Builders:

* ``cotangent_algebroid``: T*M of a Poisson bivector, Koszul bracket on the
  coordinate coframe.
* ``dirac_algebroid``: a Lagrangian involutive frame inside TM + T*M for the
  H-twisted Courant bracket.
* ``jacobi_algebroid``: first jets of a trivialized line bundle; fiber
  coordinates are (y1; y2..y_{n+1}) = (u; p), the frame is e_0 = j^1(1),
  e_i = (0, dx^i), and the bracket relations in that frame are

      [e_0, e_i] = - sum_k d_k R^i e_k
      [e_i, e_j] = -pi^{ij} e_0
                   + sum_k (d_k pi^{ij} + R^i delta_jk - R^j delta_ik) e_k

  derived from [j^1 u, j^1 v] = j^1 {u, v} and the Leibniz rule.  Note the
  u-column of the bracket carries the central-extension term -pi^{ij}; only
  the brackets *with* e_0 are inert when R = 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import expr as ex
from .errors import (
    CompatibilityError,
    DimensionError,
    NotInvolutiveError,
    NotLagrangianError,
)
from .expr import base_vars, fiber_vars
from .flow import FlowEngine, complex_step
from .report import CheckReport, SplitMix64

__all__ = [
    "AlgebroidChart", "Spray", "SymbolicStructure", "FittedStructure",
    "check_algebroid", "default_spray", "check_spray",
    "cotangent_algebroid", "dirac_algebroid", "jacobi_algebroid",
    "transport_weight",
]


def _sample_box(box, count, seed, scale):
    """``count`` uniform points of the box (n, 2) scaled by ``scale`` about
    its centre."""
    mid = box.mean(axis=1)
    half = (box[:, 1] - box[:, 0]) / 2.0 * scale
    return mid + half * SplitMix64(seed).uniform_rows([(-1, 1)] * len(box), count)


class SymbolicStructure:
    """Structure functions as expressions; exact directional derivatives."""

    def __init__(self, n, r, table):
        self.n, self.r = n, r
        self.xs = base_vars(n)
        self.table = table  # table[i][j][k] -> Expr

    def values(self, X):
        """c_{ij}^k at a point batch: (B, n) -> (B, r, r, r)."""
        r = self.r
        flat = [self.table[i][j][k]
                for i in range(r) for j in range(r) for k in range(r)]
        return ex.batch_values(flat, self.xs, X, (r, r, r))

    def directional_derivative(self, X, V):
        """sum_m V^m d_m c for D directions V (B, D, n) at X: (B, D, r, r, r).

        The partials are taken and compiled once; the sum runs over m in order.
        """
        n, r = self.n, self.r
        partials = [ex.partial(self.table[i][j][k], self.xs[m]) for m in range(n)
                    for i in range(r) for j in range(r) for k in range(r)]
        dc = ex.batch_values(partials, self.xs, X, (n, r, r, r))
        out = np.zeros(np.shape(V)[:2] + (r, r, r))
        for m in range(n):
            out += V[:, :, m, None, None, None] * dc[:, None, m]
        return out


class FittedStructure:
    """Structure functions solved pointwise; derivatives by a complex step.

    ``solve`` maps a point batch (B, n), real or complex, to c (B, r, r, r)
    by a computation analytic in the point.  The fit residual, the
    non-involutivity of the frame, is gated at construction time, so
    calling ``values`` on a gated chart is safe anywhere in the box.
    Derivatives are ``flow.complex_step`` of ``values``.
    """

    def __init__(self, solve):
        self._solve = solve

    def values(self, X):
        """c_{ij}^k at a point batch: (B, n) -> (B, r, r, r)."""
        return self._solve(np.asarray(X, dtype=np.result_type(X, np.float64)))

    def directional_derivative(self, X, V):
        """sum_m V^m d_m c for D directions V (B, D, n) at X: (B, D, r, r, r)."""
        return complex_step(self.values, X, V)


@dataclass
class AlgebroidChart:
    """A Lie algebroid over a coordinate box."""

    n: int
    r: int
    box: np.ndarray                      # (n, 2)
    anchor: list                         # n x r nested list of Expr in x
    structure: object                    # SymbolicStructure | FittedStructure
    frame: object = None                 # builder-specific frame metadata

    def __post_init__(self):
        self.box = np.asarray(self.box, dtype=np.float64)
        if self.box.shape != (self.n, 2):
            raise DimensionError("box must be (n, 2)")
        self.xs = base_vars(self.n)
        self.ys = fiber_vars(self.r)

    @property
    def total_vars(self):
        return self.xs + self.ys

    def anchor_at(self, X):
        """Anchor matrices rho at a point batch: (B, n) -> (B, n, r)."""
        flat = [e for row in self.anchor for e in row]
        return ex.batch_values(flat, self.xs, X, (self.n, self.r))

    def anchor_of_section(self, i):
        """rho(e_i) as a VectorField on the base."""
        return ex.VectorField(self.xs, [self.anchor[a][i] for a in range(self.n)])

    def sample_base_points(self, count, seed, scale=1.0):
        return _sample_box(self.box, count, seed, scale)


@dataclass
class Spray:
    """One-homogeneous vector field on the total space covering the anchor."""

    chart: AlgebroidChart
    base_part: list        # n Exprs in (x, y)
    fiber_part: list       # r Exprs in (x, y)

    @property
    def components(self):
        return list(self.base_part) + list(self.fiber_part)

    @property
    def variables(self):
        return self.chart.total_vars


# ---------------------------------------------------------------------------
# Checks


def check_algebroid(A, samples=100, seed=2024):
    """Residuals of the Lie algebroid axioms at sampled base points.

    Checks antisymmetry of the structure functions, the anchor-morphism
    identity and the Jacobi identity of the bracket on frame sections.  The
    bracket of other sections is defined from (rho, c) by the Leibniz rule,
    so that rule holds by construction and is not checked.
    """
    report = CheckReport(environment={"samples": samples, "seed": seed})
    pts = A.sample_base_points(samples, seed, scale=0.9)
    n, r = A.n, A.r
    xs = A.xs
    tol = 1e-9

    c = A.structure.values(pts)      # (B, r, r, r)
    rho = A.anchor_at(pts)           # (B, n, r)
    report.add_pointwise(
        "antisymmetry", np.max(np.abs(c + np.swapaxes(c, 1, 2)), axis=(1, 2, 3)),
        tol, pts)

    # rho([e_i,e_j])^a = sum_k c_ij^k rho^a_k  vs  [rho e_i, rho e_j]^a,
    # with [X, Y]^a = X^b d_b Y^a - Y^b d_b X^a.
    # D[:, a, j, b] = d rho^a_j / d x_b (exact)
    danchor = [ex.partial(A.anchor[a][i], xs[b])
               for a in range(n) for i in range(r) for b in range(n)]
    D = ex.batch_values(danchor, xs, pts, (n, r, n))
    lhs = np.einsum("zijk,zak->zija", c, rho)
    comm = np.einsum("zbi,zajb->zija", rho, D) - \
        np.einsum("zbj,zaib->zija", rho, D)
    report.add_pointwise("anchor_morphism",
                         np.max(np.abs(lhs - comm), axis=(1, 2, 3)), tol, pts)
    # Jacobi: sum_cyc [ sum_m c_jk^m c_im^p + rho(e_i)(c_jk^p) ] = 0, with
    # rho_dc[:, i, j, k, p] = rho(e_i)(c_jk^p)
    rho_dc = A.structure.directional_derivative(pts, np.swapaxes(rho, 1, 2))
    term = np.einsum("zjkm,zimp->zijkp", c, c) + rho_dc
    jac = term + np.einsum("zijkp->zjkip", term) + \
        np.einsum("zijkp->zkijp", term)
    report.add_pointwise("jacobi_identity",
                         np.max(np.abs(jac), axis=(1, 2, 3, 4)), tol, pts)
    return report


def default_spray(A, christoffel=None):
    """Horizontal-lift spray for the flat chart connection.

    V(x, y) = (rho(x) y, 0).  With an optional connection-coefficient table
    C[k][i][j] (Exprs in x) the fiber part becomes
    sum_ij C^k_ij (rho y)^i y_j, which stays one-homogeneous; the table
    default (flat connection) is zero.
    """
    xs, ys = A.xs, A.ys
    base = []
    for a in range(A.n):
        total = ex.ZERO
        for i in range(A.r):
            total = ex.add(total, ex.mul(A.anchor[a][i], ex.Var(ys[i])))
        base.append(total)
    if christoffel is None:
        fiber = [ex.ZERO] * A.r
    else:
        fiber = []
        for k in range(A.r):
            total = ex.ZERO
            for i in range(A.n):
                for j in range(A.r):
                    coef = christoffel[k][i][j]
                    if coef.is_zero:
                        continue
                    total = ex.add(total, ex.mul(coef,
                                                 ex.mul(base[i], ex.Var(ys[j]))))
            fiber.append(total)
    return Spray(A, base, fiber)


def check_spray(V, A, samples=40, seed=77):
    """Residuals of the anchor condition and the flow-scaling identity.

    The scaling identity phi^s(t a) = t phi^{st}(a) (fiberwise scaling) is the
    operational form of one-homogeneity and is checked along actual flows for
    t in {0.5, 2} and s in {0.25, 0.5}.
    """
    report = CheckReport(environment={"samples": samples, "seed": seed})

    # (i) base part equals rho(x) y, evaluated at random total-space points
    pts = np.hstack([A.sample_base_points(samples, seed, scale=0.8),
                     SplitMix64(seed).uniform_rows([(-0.5, 0.5)] * A.r, samples)])
    rho = A.anchor_at(pts[:, :A.n])
    vbase = ex.compile_exprs(V.base_part, A.total_vars)(pts)
    res = np.max(np.abs(vbase - (rho @ pts[:, A.n:, None])[..., 0]), axis=1)
    report.add_pointwise("anchor_condition", res, 1e-10, pts)

    # (ii) flow scaling on a subset of points
    engine = FlowEngine(V.components, V.variables)
    Z = pts[: min(8, len(pts))]
    res = np.empty((len(Z), 2, 2))
    for i, t in enumerate((0.5, 2.0)):
        Za = Z.copy()
        Za[:, A.n:] *= t
        for j, s in enumerate((0.25, 0.5)):
            left = engine.flow_on_grid(Za, np.linspace(0.0, s, 9), substeps=4)
            right = engine.flow_on_grid(Z, np.linspace(0.0, s * t, 9),
                                        substeps=4)
            right[:, A.n:] *= t
            res[:, i, j] = np.max(np.abs(left - right), axis=1)
    report.add_pointwise("flow_scaling", res.reshape(-1), 1e-8,
                         np.repeat(Z, 4, axis=0))
    return report


# ---------------------------------------------------------------------------
# Builders


def cotangent_algebroid(pi, box):
    """Cotangent algebroid of a bivector: rho = pi-sharp, Koszul bracket.

    In the coordinate coframe e_j = dx^j the structure functions are
    c_{ij}^k = d pi^{ij} / d x_k.  (Whether pi is Poisson is not assumed
    here; check it separately with the Schouten bracket.)
    """
    n = pi.dim
    xs = base_vars(n)
    anchor = [[pi.entry(i, a) for i in range(n)] for a in range(n)]
    # rho^a_i = (pi# e_i)^a = pi^{ia}
    table = [[[ex.partial(pi.entry(i, j), xs[k]) for k in range(n)]
              for j in range(n)] for i in range(n)]
    return AlgebroidChart(n=n, r=n, box=box, anchor=anchor,
                          structure=SymbolicStructure(n, n, table),
                          frame={"kind": "coordinate-coframe", "pi": pi})


@dataclass
class DiracFrame:
    """Frame sections v_i + alpha_i of a candidate Dirac structure."""

    vectors: list      # r entries, each an n-list of Exprs
    covectors: list    # r entries, each an n-list of Exprs
    H: ex.FormField    # closed 3-form (may be zero form field)


def _courant_bracket(fr, i, j, xs):
    """H-twisted Courant bracket of frame sections i, j (symbolic)."""
    n = len(xs)
    v = ex.VectorField(xs, fr.vectors[i])
    w = ex.VectorField(xs, fr.vectors[j])
    alpha = ex.FormField(xs, 1, {(a,): fr.covectors[i][a] for a in range(n)})
    beta = ex.FormField(xs, 1, {(a,): fr.covectors[j][a] for a in range(n)})
    # vector part [v, w]
    lie_vw = [ex.sub(v.apply_to(w.components[a]), w.apply_to(v.components[a]))
              for a in range(n)]
    # form part L_v beta - i_w d alpha + i_w i_v H
    form = beta.lie(v) - alpha.d().interior(w) + fr.H.interior(v).interior(w)
    return lie_vw, form


def dirac_algebroid(sections, H, box, seed=4242):
    """Build the Lie algebroid of an H-twisted Dirac structure.

    ``sections`` is a list of (v_exprs, alpha_exprs) pairs spanning the
    candidate subbundle; ``H`` is a closed 3-form (FormField).  The frame
    must be pointwise independent and Lagrangian; structure functions are
    fitted pointwise by least squares and the fit residual gates
    involutivity.  The fit solves the normal equations, which are analytic,
    so a complex point batch gives the complex step of the fit.
    """
    r = len(sections)
    n = len(sections[0][0])
    xs = base_vars(n)
    if H.variables != xs or H.degree != 3:
        raise DimensionError("H must be a 3-form over the base variables")
    dH = H.d()
    fr = DiracFrame([list(v) for v, _ in sections],
                    [list(a) for _, a in sections], H)

    box = np.asarray(box, dtype=np.float64)
    grid = _sample_box(box, 25, seed, 0.9)

    frame_fn = ex.compile_exprs(
        [e for i in range(r) for e in fr.vectors[i] + fr.covectors[i]], xs)
    if np.any(np.abs(dH.values(grid)) > 1e-12):
        raise CompatibilityError("H is not closed")
    # Lagrangian gate: <e_i, e_j>_+ = alpha_i(v_j) + alpha_j(v_i) == 0
    F = frame_fn(grid).reshape(len(grid), r, 2 * n)
    pairing = F[..., n:] @ np.swapaxes(F[..., :n], 1, 2)    # alpha_i(v_j)
    res = float(np.max(np.abs(pairing + np.swapaxes(pairing, 1, 2))))
    if not res <= 1e-10:  # a NaN fails too
        raise NotLagrangianError(res)

    cols = []
    for i in range(r):
        for j in range(r):
            lie_vw, form = _courant_bracket(fr, i, j, xs)
            cols += lie_vw + [form.component((a,)) for a in range(n)]
    bracket_fn = ex.compile_exprs(cols, xs)

    def fit(X):
        """Structure functions (B, r, r, r) at X, with the frames and brackets
        they were fitted to: one rank SVD of the real frames per batch, then
        one batched solve of the normal equations F^T F c = F^T b for all
        r^2 brackets (a plain transpose, so complex rows stay analytic)."""
        frames = frame_fn(X).reshape(len(X), r, 2 * n)
        brackets = bracket_fn(X).reshape(len(X), r, r, 2 * n)
        F = np.swapaxes(frames, 1, 2)   # (B, 2n, r)
        # matrix_rank(F[p].real, tol=1e-10) at every point
        rank = np.count_nonzero(
            np.linalg.svd(F.real, compute_uv=False) > 1e-10, axis=-1)
        deficient = np.flatnonzero(rank < r)
        if deficient.size:
            raise NotInvolutiveError(float("inf"), X[deficient[0]].real)
        rhs = brackets.reshape(len(X), r * r, 2 * n)
        cmat = np.linalg.solve(frames @ F, frames @ np.swapaxes(rhs, 1, 2))
        return np.swapaxes(cmat, 1, 2).reshape(len(X), r, r, r), F, brackets

    # involutivity gate: the worst fit residual over the fit samples
    cmat, F, brackets = fit(grid)
    resid = np.max(np.abs(np.einsum("pak,pijk->pija", F, cmat) - brackets),
                   axis=(1, 2, 3))
    worst = int(np.argmax(resid))
    if not resid[worst] <= 1e-8:
        raise NotInvolutiveError(float(resid[worst]), grid[worst])

    anchor = [[fr.vectors[i][a] for i in range(r)] for a in range(n)]
    return AlgebroidChart(n=n, r=r, box=box, anchor=anchor,
                          structure=FittedStructure(lambda X: fit(X)[0]),
                          frame=fr)


def jacobi_algebroid(pi, R, box, seed=99):
    """First-jet algebroid of a trivialized Jacobi structure (pi, R).

    Compatibility ([pi,pi] = 2 R^pi and [pi,R] = 0) is residual-checked
    before building.  Fiber coordinate y1 is the line coordinate u; y_{1+i}
    are the covector coordinates p_i.  Anchor: rho(u, a) = pi#(a) - u R.
    """
    n = pi.dim
    xs = base_vars(n)
    Rfield = R if isinstance(R, ex.VectorField) else ex.VectorField(xs, R)

    br = ex.schouten(pi, pi)
    rw = ex.wedge_vector_bivector(Rfield, pi)
    br_pr = ex.schouten(pi, Rfield)
    box = np.asarray(box, dtype=np.float64)
    X = SplitMix64(seed).uniform_rows(box, 40)
    res = max(float(np.max(np.abs(v), initial=0.0))
              for v in (br.values(X) - 2.0 * rw.values(X), br_pr.values(X)))
    if res > 1e-9:
        raise CompatibilityError(
            f"(pi, R) fails the Jacobi compatibility equations (residual {res:.3e})")

    r = n + 1
    anchor = [[ex.ZERO] * r for _ in range(n)]
    for a in range(n):
        anchor[a][0] = ex.neg(Rfield.components[a])          # rho(e_0) = -R
        for i in range(n):
            anchor[a][1 + i] = pi.entry(i, a)                # rho(e_i) = pi# dx^i
    table = [[[ex.ZERO] * r for _ in range(r)] for _ in range(r)]
    for i in range(n):
        # [e_0, e_i] = - sum_k d_k R^i e_k
        for k in range(n):
            d = ex.partial(Rfield.components[i], xs[k])
            table[0][1 + i][1 + k] = ex.neg(d)
            table[1 + i][0][1 + k] = d
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            table[1 + i][1 + j][0] = ex.neg(pi.entry(i, j))
            for k in range(n):
                t = ex.partial(pi.entry(i, j), xs[k])
                if k == j:
                    t = ex.add(t, Rfield.components[i])
                if k == i:
                    t = ex.sub(t, Rfield.components[j])
                table[1 + i][1 + j][1 + k] = t
    return AlgebroidChart(n=n, r=r, box=box, anchor=anchor,
                          structure=SymbolicStructure(n, r, table),
                          frame={"kind": "first-jet", "pi": pi, "R": Rfield})


def jacobi_cocycle(A):
    """The fiberwise-linear cocycle <R, a> on a jacobi chart, as an Expr."""
    Rfield = A.frame["R"]
    total = ex.ZERO
    for i in range(A.n):
        total = ex.add(total, ex.mul(Rfield.components[i], ex.Var(A.ys[1 + i])))
    return total


def transport_weight(G, P):
    """Scalar parallel transport weights along the jacobi-spray flows of P.

    w(t) = exp(-int_0^t <R(x_s), p_s> ds) at the quadrature nodes of the
    spray groupoid G on a jacobi chart, by the rule's running integral,
    whose total is the rule's quadrature to roundoff.  Returns an array
    shaped like (batch, nodes).
    """
    fn = ex.compile_exprs([jacobi_cocycle(G.chart)], G.chart.total_vars)
    running, out = G.rule.running(), []
    G.flow_end(P, lambda j, node: out.extend(
        c for _, c in running(j, fn(node.z.T)[:, 0])))
    return np.exp(-np.stack(out, axis=1))
