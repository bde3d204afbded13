"""Infinitesimally multiplicative form data and associated linear forms.

An IM pair of degree k on an algebroid chart assigns to each frame section
e_j a (k-1)-form l(e_j) and a k-form nu(e_j) on the base, subject to three
compatibility equations (checked by ``im_residuals``, never assumed):

    nu([a,b]) = L_{rho(a)} nu(b) - i_{rho(b)} d nu(a)
    l([a,b])  = L_{rho(a)} l(b)  - i_{rho(b)} d l(a) - i_{rho(b)} nu(a)
    i_{rho(a)} l(b) = - i_{rho(b)} l(a)

The associated fiberwise-linear k-form on the total space is, in chart
coordinates (x; y) with D_j := d(l(e_j)) + nu(e_j),

    Lambda = sum_j y^j (D_j)_I dx^I  +  sum_j (l(e_j))_{I'} dy^j ^ dx^{I'}

and the pair is recovered from Lambda by restricting the interior product
with the constant vertical e_j to the zero section (giving l) and by pulling
Lambda back along the section (giving D); tests/test_imform.py checks that
round trip.

Sign convention, fixed here once: the canonical 2-form built from the
Poisson pair (l, nu) = (-id, 0) is Lambda = sum_i dx^i ^ dy^i, i.e. at a
point of the zero section  Lambda(v + a, w + b) = <b | v> - <a | w>
for horizontal v, w and vertical a, b.  Every sign-sensitive identity in the
package references this convention.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import expr as ex
from .errors import DimensionError
from .report import CheckReport

__all__ = ["IMFormData", "ScalarSpencer", "linear_form",
           "im_residuals", "d_IM", "jacobi_linear_form",
           "poisson_im_pair", "dirac_im_pair", "exact_im_pair",
           "im_pair_from_covector_map"]


@dataclass
class IMFormData:
    """Degree-k IM pair on a chart: per-frame-section forms (l, nu)."""

    chart: object
    degree: int
    l: list      # r FormFields of degree k-1 over the base variables
    nu: list     # r FormFields of degree k over the base variables

    def __post_init__(self):
        r = self.chart.r
        if len(self.l) != r or len(self.nu) != r:
            raise DimensionError("need one (l, nu) pair per frame section")
        if any(f.degree != self.degree - 1 for f in self.l):
            raise DimensionError("l must have degree k-1")
        if any(f.degree != self.degree for f in self.nu):
            raise DimensionError("nu must have degree k")


def linear_form(data):
    """Associated linear form of an IM pair, by the coordinate formula: a
    fiberwise-linear FormField over the chart's total variables."""
    A = data.chart
    k = data.degree
    total = A.total_vars
    n = A.n
    comps = {}
    for j in range(A.r):
        Dj = data.l[j].d() + data.nu[j]
        yj = ex.Var(A.ys[j])
        for I, e in Dj.components.items():
            comps[I] = ex.add(comps.get(I, ex.ZERO), ex.mul(yj, e))
        sign = ex.Const((-1.0) ** (k - 1))
        for I, e in data.l[j].components.items():
            K = tuple(I) + (n + j,)
            comps[K] = ex.add(comps.get(K, ex.ZERO), ex.mul(sign, e))
    return ex.FormField(total, k, comps)


def d_IM(data):
    """Differential on IM pairs: (l, nu) -> (nu, 0), degree k -> k+1."""
    A = data.chart
    zero = [ex.FormField(A.xs, data.degree + 1, {}) for _ in range(A.r)]
    return IMFormData(A, data.degree + 1, list(data.nu), zero)


def im_residuals(A, data, samples=60, seed=313, tol=1e-8):
    """Pointwise residuals of the three compatibility equations on frame pairs.

    Lie derivatives are taken symbolically through the Cartan formula, so the
    residual floor is set by evaluation roundoff, not differencing.
    """
    report = CheckReport(environment={"samples": samples, "seed": seed})
    r = A.r
    k = data.degree
    pts = A.sample_base_points(samples, seed, scale=0.9)

    rho = [A.anchor_of_section(i) for i in range(r)]
    dl = [f.d() for f in data.l]
    dnu = [f.d() for f in data.nu]

    # Symbolic pieces independent of the bracket
    eq1_pieces = [[data.nu[j].lie(rho[i]) - dnu[i].interior(rho[j])
                   for j in range(r)] for i in range(r)]
    eq2_pieces = [[data.l[j].lie(rho[i]) - dl[i].interior(rho[j])
                   - data.nu[i].interior(rho[j])
                   for j in range(r)] for i in range(r)]
    eq3_pieces = [[data.l[j].interior(rho[i]) + data.l[i].interior(rho[j])
                   for j in range(r)] for i in range(r)] if k >= 2 else []

    B = len(pts)
    c = A.structure.values(pts)                                   # (B, r, r, r)
    # every form's values from one compiled function, in the order used below
    dense = [f.exprs_dense() for f in list(data.nu) + sum(eq1_pieces, [])
             + list(data.l) + sum(eq2_pieces, []) + sum(eq3_pieces, [])]
    flat = ex.batch_values(sum(dense, []), A.xs, pts, (sum(map(len, dense)),))
    vals = iter(np.split(flat, np.cumsum(list(map(len, dense)))[:-1], axis=-1))
    res = {name: np.zeros((B, r, r))
           for name in ("covariance_nu", "covariance_l", "anchor_antisymmetry")}
    for name in ("covariance_nu", "covariance_l"):
        forms = np.stack([next(vals) for _ in range(r)], axis=1)  # (B, r, nC)
        for i in range(r):
            for j in range(r):
                want = next(vals)
                for b in range(B):
                    res[name][b, i, j] = np.max(
                        np.abs(c[b, i, j] @ forms[b] - want[b]), initial=0.0)
    for i in range(len(eq3_pieces)):
        for j in range(r):
            res["anchor_antisymmetry"][:, i, j] = np.max(
                np.abs(next(vals)), axis=1, initial=0.0)
    for name, m in res.items():
        report.add_pointwise(name, np.max(m, axis=(1, 2)), tol, pts)
    return report


# ---------------------------------------------------------------------------
# Ready-made pairs


def im_pair_from_covector_map(A, lmat):
    """Degree-2 pair (-l, 0) from an n x n Expr matrix acting on covectors.

    ``lmat[i][j]`` is the coefficient of dx^i in l(dx^j); the frame of A must
    be the coordinate coframe (cotangent chart).
    """
    n = A.n
    ls = []
    for j in range(n):
        comps = {(i,): ex.mul(ex.Const(-1.0), lmat[i][j]) for i in range(n)
                 if not lmat[i][j].is_zero}
        ls.append(ex.FormField(A.xs, 1, comps))
    nus = [ex.FormField(A.xs, 2, {}) for _ in range(n)]
    return IMFormData(A, 2, ls, nus)


def poisson_im_pair(A):
    """The canonical closed pair (-id, 0) on a cotangent chart."""
    n = A.n
    ident = [[ex.ONE if i == j else ex.ZERO for j in range(n)] for i in range(n)]
    return im_pair_from_covector_map(A, ident)


def dirac_im_pair(A):
    """The canonical pair on a Dirac chart: l(v+alpha) = -alpha, nu = i_v H."""
    fr = A.frame
    n, r = A.n, A.r
    ls, nus = [], []
    for i in range(r):
        ls.append(ex.FormField(A.xs, 1,
                               {(a,): ex.neg(fr.covectors[i][a]) for a in range(n)
                                if not fr.covectors[i][a].is_zero}))
        v = ex.VectorField(A.xs, fr.vectors[i])
        nus.append(fr.H.interior(v))
    return IMFormData(A, 2, ls, nus)


def exact_im_pair(A, varpi):
    """The pair (varpi-flat o rho, (d varpi)-flat o rho) for a k-form varpi."""
    k = varpi.degree
    dvarpi = varpi.d()
    ls, nus = [], []
    for i in range(A.r):
        rho_i = A.anchor_of_section(i)
        ls.append(varpi.interior(rho_i))
        nus.append(dvarpi.interior(rho_i))
    return IMFormData(A, k, ls, nus)


# ---------------------------------------------------------------------------
# Jacobi (trivialized line bundle) Spencer data


@dataclass
class ScalarSpencer:
    """Canonical first-jet Spencer data on a trivialized-line jacobi chart.

    l = pr (the u-component) and D(u, a) = du - a; the transport cocycle
    delta(u, a) = <R, a> is ``algebroid.jacobi_cocycle``.  The Leibniz
    identity D(f s) = f D(s) + df ^ l(s) is checked on coordinate multiples
    by ``leibniz_residual``.
    """

    chart: object

    def l_of_section(self, f, alpha):
        return f

    def D_of_section(self, f, alpha):
        """D(f, alpha) = df - alpha as a 1-FormField; inputs are Exprs."""
        xs = self.chart.xs
        return ex.FormField(xs, 1, {(a,): ex.sub(ex.partial(f, name), alpha[a])
                                    for a, name in enumerate(xs)})

    def leibniz_residual(self, seed=11):
        """max | D(f s) - f D(s) - df ^ l(s) | on coordinate multiples, at
        25 base points."""
        A = self.chart
        xs = A.xs
        pts = A.sample_base_points(25, seed, scale=0.9)
        # frame sections: e_0 = (1, 0), e_i = (0, dx^i)
        frames = [(ex.ONE, [ex.ZERO] * A.n)]
        for i in range(A.n):
            frames.append((ex.ZERO, [ex.ONE if a == i else ex.ZERO
                                     for a in range(A.n)]))
        exprs = []
        for b in range(A.n):
            f = ex.Var(xs[b])
            df = ex.FormField(xs, 1, {(b,): ex.ONE})
            for (u, alpha) in frames:
                fu = ex.mul(f, u)
                falpha = [ex.mul(f, a) for a in alpha]
                lhs = self.D_of_section(fu, falpha)
                rhs = self.D_of_section(u, alpha).scale(f) + \
                    df.scale(self.l_of_section(u, alpha))
                exprs += (lhs - rhs).exprs_dense()
        vals = ex.batch_values(exprs, xs, pts, (len(exprs),))
        return float(np.max(np.abs(vals), initial=0.0))


def jacobi_linear_form(A):
    """The trivialized contact form Lambda = du - sum_i p_i dx^i."""
    n = A.n
    total = A.total_vars
    comps = {(n,): ex.ONE}  # du  (u is the first fiber coordinate)
    for i in range(n):
        comps[(i,)] = ex.neg(ex.Var(A.ys[1 + i]))
    return ex.FormField(total, 1, comps)
