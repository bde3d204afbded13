"""Per-row references for the batched residual checks.

Each function recomputes a check's residuals from the same seeds and solves
as the check, looping over the sample rows with 1-D numpy products, as the
checks did before their products were batched.  The tests compare the
batched checks with these bit for bit.
"""

import numpy as np

from sprayform import expr as ex
from sprayform.flow import complex_step
from sprayform.groupoid import units_form_predictor
from sprayform.report import SplitMix64
from sprayform.scenarios import L_tensor, _max_angle


def poisson_units_formula(scen):
    """The Poisson units-formula residual, one (v, a, w, b) row at a time."""
    G, nm = scen.groupoid, scen.numerics
    xu = G.chart.sample_base_points(10, nm.seed + 10, scale=0.5)
    Wu = scen.evaluator.omega_full(G.units(xu))
    X = np.repeat(xu, 4, axis=0)
    v, a, w, b = SplitMix64(nm.seed + 9).rows(len(X), G.n, G.n, G.n, G.n)
    P = scen.pi.values(X)
    pred = units_form_predictor(G.chart, scen.data.l, X, v, a, w, b)
    res = 0.0
    for q in range(len(X)):
        got = np.concatenate([v[q], a[q]]) @ Wu[q // 4] @ \
            np.concatenate([w[q], b[q]])
        want = b[q] @ v[q] - a[q] @ w[q] + a[q] @ (P[q] @ b[q])
        res = max(res, abs(got - want), abs(pred[q] - want))
    return res


def torsion_identity_residuals(scen, pair, evL, evL2, samples, seed):
    """The per-point residuals of ``torsion_identity_check``."""
    G, ev = scen.groupoid, scen.evaluator
    pts = G.sample_validity_points(samples, seed, fiber_scale=0.6)
    sums = (ev.omega_sum(), evL.omega_sum(), ev.domega_sum(),
            evL.domega_sum(), evL2.domega_sum())
    G.flow_end(pts, *sums)
    W, WL, dW, dWL, dWL2 = (s.value for s in sums)
    Lmats = np.linalg.solve(W, WL)
    uv = SplitMix64(seed).rows(len(pts), G.dim, G.dim)
    dirs = np.array([(L @ u, L @ v, u, v) for L, u, v in zip(Lmats, *uv)])
    dL = complex_step(lambda Q: L_tensor(scen, evL, Q), pts, dirs)
    resid = np.empty(len(pts))
    for b in range(len(pts)):
        L = Lmats[b]
        Lu, Lv, u, v = dirs[b]
        dLu, dLv, du_, dv_ = dL[b]
        TL = dLu @ v - dLv @ u - L @ (du_ @ v - dv_ @ u)
        lhs = W[b].T @ TL
        rhs = (np.einsum("ijk,i,j->k", dWL[b], Lu, v)
               + np.einsum("ijk,i,j->k", dWL[b], u, Lv)
               - np.einsum("ijk,i,j->k", dW[b], Lu, Lv)
               - np.einsum("ijk,i,j->k", dWL2[b], u, v))
        resid[b] = np.max(np.abs(lhs - rhs))
    return resid


def im_residuals(A, data, samples, seed):
    """The per-point residuals of ``imform.im_residuals``, by name, with one
    ``c[b, i, j] @ forms[b]`` product per row and frame pair."""
    r = A.r
    pts = A.sample_base_points(samples, seed, scale=0.9)
    rho = [A.anchor_of_section(i) for i in range(r)]
    dl = [f.d() for f in data.l]
    dnu = [f.d() for f in data.nu]
    eq1 = [data.nu[j].lie(rho[i]) - dnu[i].interior(rho[j])
           for i in range(r) for j in range(r)]
    eq2 = [data.l[j].lie(rho[i]) - dl[i].interior(rho[j])
           - data.nu[i].interior(rho[j]) for i in range(r) for j in range(r)]
    eq3 = [data.l[j].interior(rho[i]) + data.l[i].interior(rho[j])
           for i in range(r) for j in range(r)] if data.degree >= 2 else []
    c = A.structure.values(pts)
    # the forms' values from one compiled function, as the check takes them
    dense = [f.exprs_dense() for f in
             list(data.nu) + eq1 + list(data.l) + eq2 + eq3]
    flat = ex.batch_values(sum(dense, []), A.xs, pts, (sum(map(len, dense)),))
    vals = iter(np.split(flat, np.cumsum(list(map(len, dense)))[:-1], axis=-1))
    res = {name: np.zeros((len(pts), r, r))
           for name in ("covariance_nu", "covariance_l", "anchor_antisymmetry")}
    for name in ("covariance_nu", "covariance_l"):
        forms = np.stack([next(vals) for _ in range(r)], axis=1)
        for i in range(r):
            for j in range(r):
                want = next(vals)
                for b in range(len(pts)):
                    res[name][b, i, j] = np.max(
                        np.abs(c[b, i, j] @ forms[b] - want[b]), initial=0.0)
    for k in range(len(eq3)):
        res["anchor_antisymmetry"][:, k // r, k % r] = np.max(
            np.abs(next(vals)), axis=1, initial=0.0)
    return {name: np.max(m, axis=(1, 2)) for name, m in res.items()}


def dirac_margin_and_angles(scen):
    """The robustness margin and the forward-image angle of ``dirac_checks``,
    with one SVD of [omega-flat; dsigma; dtau] and one of [omega-flat,
    -dsigma^T] per row."""
    nm, G, A = scen.numerics, scen.groupoid, scen.chart
    n, d = G.n, G.dim
    pts = G.sample_validity_points(nm.samples, nm.seed + 55, fiber_scale=0.7)
    dW, W = scen.evaluator.domega_sum(), scen.evaluator.omega_sum()
    _, J = G.flow_end(pts, dW, W)
    W, dtau, dsig = W.value, J[:, :n, :], np.eye(n, d)
    frames = A.frame.values(pts[:, :n])
    smin, angle = np.inf, 0.0
    for b in range(len(pts)):
        s = np.linalg.svd(np.vstack([W[b].T, dsig, dtau[b]]), compute_uv=False)
        smin = min(smin, float(s[-1]))
        _, sv, vt = np.linalg.svd(np.hstack([W[b].T, -dsig.T]))
        K = vt[int(np.sum(sv > 1e-10 * sv[0])):].T
        angle = max(angle, _max_angle(np.vstack([dsig @ K[:d], K[d:]]),
                                      frames[b].T))
    return smin, angle
