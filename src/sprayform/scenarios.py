"""End-to-end constructions and quantitative checks for the input families.

Each builder assembles a spray groupoid, the multiplicative-form evaluator
for the family's canonical infinitesimal data, and a CheckReport of named
residuals.  The reports re-run the module-level round trips (recovery of the
infinitesimal pair at units, fiber-scaling linearization slope) so every
scenario certifies the same invariants plus its family-specific identities:

* poisson: nondegeneracy margin, symplectic realization through the source
  and target, multiplicativity and inversion antisymmetry of the product,
  the closed-form value at units, closedness.
* nijenhuis: the (1,1)-tensor built from two multiplicative forms, its
  torsion, the interior-product identity relating the three differentials,
  and the family of bivector pushforwards.
* generalized complex: the algebraic prechecks of the defining triple and
  the two-form identity omega + omega_{L^2} = tau* varpi - sigma* varpi.
* dirac: relative closedness d omega = tau* H - sigma* H, the robustness
  condition, and the forward image of graph(omega) under the source.
* jacobi: the contact condition, the at-units kernel, the transport/cocycle
  consistency, and (for the flat line example) a closed-form comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from . import expr as ex
from . import tensor as tn
from .algebroid import (
    AlgebroidChart,
    check_algebroid,
    check_spray,
    cotangent_algebroid,
    default_spray,
    dirac_algebroid,
    jacobi_algebroid,
    jacobi_cocycle,
)
from .errors import CompatibilityError
from .flow import central_difference
from .groupoid import (
    VALIDITY_BASE_SCALE,
    MultFormEvaluator,
    SprayGroupoid,
    associativity_residual,
    differentiate_at_units,
    discover_validity_box,
    integrate_cocycle,
    linearization_check,
    multiplicativity_residual,
    units_form_predictor,
)
from .imform import (
    IMFormData,
    ScalarSpencer,
    dirac_im_pair,
    im_pair_from_covector_map,
    im_residuals,
    jacobi_linear_form,
    linear_form,
    poisson_im_pair,
)
from .report import CheckReport, SplitMix64

__all__ = [
    "Numerics", "PoissonScenario", "NijenhuisPair", "DiracScenario",
    "JacobiScenario", "build_symplectic_groupoid", "omega_L", "omega_L2_pair",
    "L_tensor", "nijenhuis_torsion", "torsion_nu_fields",
    "torsion_identity_check", "holomorphic_check", "gcs_identity_check",
    "dirac_checks", "jacobi_checks", "build_nijenhuis", "build_dirac",
    "build_jacobi", "sigma_pullback", "tau_pullback",
    "pi_pushforwards_residual", "omega_Lk_two_ways", "convergence_study",
]


@dataclass
class Numerics:
    """Resolution and sampling knobs shared by the scenario builders."""

    n_quad: int = 64
    mu_steps: int = 32
    samples: int = 100
    seed: int = 20240
    quad_kind: str = "simpson"
    mult_pairs: int = 100
    assoc_triples: int = 50
    nondegeneracy_margin: float = 1e-3
    tolerances: dict = field(default_factory=dict)

    def tol(self, name, default):
        return float(self.tolerances.get(name, default))


# ---------------------------------------------------------------------------
# Shared helpers


def _pullback_through(varpi, X, DX):
    """varpi at the base points X (B, n) pulled back through DX (B, n, d)."""
    full = tn.comps_to_full_batch(varpi.values(X), X.shape[1], varpi.degree)
    return tn.pullback_full_batch(DX, full, varpi.degree)


def sigma_pullback(G, varpi, P):
    """(sigma^* varpi) at points P, as full batched tensors."""
    P = np.atleast_2d(P)
    dsig = np.zeros((P.shape[0], G.n, G.dim))
    dsig[:, :, : G.n] = np.eye(G.n)
    return _pullback_through(varpi, P[:, : G.n], dsig)


def tau_pullback(G, varpi, P):
    """(tau^* varpi) at points P, as full batched tensors."""
    return _pullback_through(varpi, *G.tau_with_jacobian(np.atleast_2d(P)))


def _roundtrip_checks(report, G, evaluator, data, numerics, slope_window=(0.8, 1.2)):
    base_pts = G.chart.sample_base_points(
        min(20, numerics.samples), numerics.seed + 6,
        scale=VALIDITY_BASE_SCALE)
    rt = differentiate_at_units(G, evaluator, data, base_pts,
                                tol=numerics.tol("units_recovery", 1e-7))
    report.merge(rt)
    point = G.sample_validity_points(1, numerics.seed + 7, fiber_scale=0.8)[0]
    slope, resids = linearization_check(G, evaluator, point)
    lo, hi = slope_window
    if slope is None:
        report.add("linearization_slope", 0.0, max(1.0 - lo, hi - 1.0),
                   note="remainder vanishes identically (form already linear)")
    else:
        report.add("linearization_slope", abs(slope - 1.0),
                   max(1.0 - lo, hi - 1.0),
                   note=f"fitted slope {slope:.4f}, window [{lo}, {hi}]")
    return slope


# ---------------------------------------------------------------------------
# Poisson


@dataclass
class PoissonScenario:
    pi: ex.BivectorField
    chart: AlgebroidChart
    groupoid: SprayGroupoid
    evaluator: MultFormEvaluator
    data: IMFormData
    report: CheckReport
    numerics: Numerics


def _poisson_identity_gate(pi, box, samples, seed, tol):
    br = ex.schouten(pi, pi)
    rng = SplitMix64(seed)
    X = np.array([[rng.uniform(lo, hi) for lo, hi in np.asarray(box, float)]
                  for _ in range(samples)])
    res = float(np.max(np.abs(br.values(X)), initial=0.0))
    if res > tol:
        raise CompatibilityError(
            f"poisson_identity: [pi,pi] residual {res:.3e} exceeds {tol:.1e}")
    return res


def build_symplectic_groupoid(pi, box, numerics=None, christoffel=None,
                              full_checks=True):
    """Local symplectic groupoid of a Poisson bivector, with its report."""
    nm = numerics or Numerics()
    res_pi = _poisson_identity_gate(pi, box, min(50, nm.samples), nm.seed,
                                    nm.tol("poisson_identity", 1e-9))
    A = cotangent_algebroid(pi, box)
    report = CheckReport(environment={
        "kind": "poisson", "n_quad": nm.n_quad, "mu_steps": nm.mu_steps,
        "samples": nm.samples, "seed": nm.seed})
    report.add("poisson_identity", res_pi, nm.tol("poisson_identity", 1e-9))
    report.merge(check_algebroid(A, samples=min(100, nm.samples),
                                 seed=nm.seed + 1), prefix="algebroid_")
    V = default_spray(A, christoffel=christoffel)
    report.merge(check_spray(V, A, seed=nm.seed + 2), prefix="spray_")

    G = SprayGroupoid(A, V, n_quad=nm.n_quad, quad_kind=nm.quad_kind)
    discover_validity_box(G, seed=nm.seed + 3)
    data = poisson_im_pair(A)
    report.merge(im_residuals(A, data, samples=min(60, nm.samples),
                              seed=nm.seed + 4,
                              tol=nm.tol("im_residuals", 1e-9)), prefix="im_")
    evaluator = MultFormEvaluator(G, linear_form(data))

    # nondegeneracy margin, with fiber-radius auto-shrink; the solve that
    # gives omega also gives (tau, dtau) for the realization check
    margin_floor = nm.nondegeneracy_margin
    for _ in range(30):
        pts = G.sample_validity_points(nm.samples, nm.seed + 8)
        acc = evaluator.omega_sum()
        end, J = G.flow_end(pts, acc)
        W = acc.value
        margin = float(np.min(np.linalg.svd(W, compute_uv=False)[:, -1]))
        if margin >= margin_floor:
            break
        G.validity_fiber_radius *= 0.7
    report.add_margin("nondegeneracy_margin", margin, margin_floor,
                      note=f"min singular value {margin:.3e} on the validity box")
    report.environment["h"] = 1.0 / nm.n_quad
    report.environment["validity_box"] = G.validity_box().tolist()

    # realization: source pushes omega^{-1} to pi, target to -pi
    Q = np.linalg.inv(W)
    tau, dtau = end[:, : G.n], J[:, : G.n, :]
    dsig = np.zeros((G.n, G.dim))
    dsig[:, : G.n] = np.eye(G.n)
    push_s = np.einsum("ai,bij,cj->bac", dsig, Q, dsig)
    push_t = np.einsum("bai,bij,bcj->bac", dtau, Q, dtau)
    pi_s = pi.values(pts[:, : G.n])
    pi_t = pi.values(tau)
    tol_real = nm.tol("realization", 1e-6)
    report.add("realization_source", float(np.max(np.abs(push_s - pi_s))), tol_real)
    report.add("realization_target", float(np.max(np.abs(push_t + pi_t))), tol_real)

    # closedness (the canonical linear form is constant, d Lambda = 0)
    dW = evaluator.domega_full(pts[: min(20, len(pts))])
    report.add("closedness", float(np.max(np.abs(dW))), nm.tol("closedness", 1e-7))

    # units formula
    rng = SplitMix64(nm.seed + 9)
    xu = G.chart.sample_base_points(10, nm.seed + 10, scale=0.5)
    Wu = evaluator.omega_matrices(G.units(xu))
    # four draws of (v, a, w, b) per unit, in sampling order
    X = np.repeat(xu, 4, axis=0)
    v, a, w, b = np.moveaxis(np.array(
        [[rng.direction(G.n) for _ in range(4)] for _ in X]), 1, 0)
    P = pi.values(X)
    pred = units_form_predictor(A, data.l, X, [(v, a), (w, b)])
    res_units = 0.0
    for q in range(len(X)):
        got = np.concatenate([v[q], a[q]]) @ Wu[q // 4] @ np.concatenate([w[q], b[q]])
        want = b[q] @ v[q] - a[q] @ w[q] + a[q] @ (P[q] @ b[q])
        res_units = max(res_units, abs(got - want), abs(pred[q] - want))
    report.add("units_formula", res_units, nm.tol("units_formula", 1e-8))

    if full_checks:
        out = multiplicativity_residual(
            G, evaluator, n_pairs=nm.mult_pairs, seed=nm.seed + 11,
            n_steps=nm.mu_steps)
        report.add("multiplicativity", out["multiplicativity"],
                   nm.tol("multiplicativity", 1e-6))
        report.add("inversion_antisymmetry", out["inversion_antisymmetry"],
                   nm.tol("inversion_antisymmetry", 1e-6))
        assoc = associativity_residual(G, evaluator, n_triples=nm.assoc_triples,
                                       seed=nm.seed + 12, n_steps=nm.mu_steps)
        report.add("associativity", assoc, nm.tol("associativity", 1e-6))

    _roundtrip_checks(report, G, evaluator, data, nm)
    return PoissonScenario(pi, A, G, evaluator, data, report, nm)


# ---------------------------------------------------------------------------
# Nijenhuis pairs and the L-tensor


@dataclass
class NijenhuisPair:
    """Poisson bivector plus a closed IM 2-form given by a covector map.

    ``lmat[i][j]`` is the dx^i coefficient of l(dx^j); the same matrix acts
    on tangent vectors through its transpose.  The pair must satisfy
    pi(l a, b) = pi(a, l b) and the bracket-covariance equation; both are
    checked by ``im_residuals`` of the pair (-l, 0).
    """

    pi: ex.BivectorField
    lmat: list

    @property
    def dim(self):
        return self.pi.dim

    def l_covector_matrices(self, X):
        """lmat at a point batch: (B, n) -> (B, n, n)."""
        flat = [e for row in self.lmat for e in row]
        return ex.batch_values(flat, self.pi.variables, X, (self.dim, self.dim))

    def lmat_power(self, k):
        n = self.dim
        out = [[ex.ONE if i == j else ex.ZERO for j in range(n)] for i in range(n)]
        for _ in range(k):
            out = _expr_matmul(self.lmat, out)
        return out


def _expr_matmul(Amat, Bmat):
    n = len(Amat)
    return [[_expr_dot([Amat[i][m] for m in range(n)],
                       [Bmat[m][j] for m in range(n)])
             for j in range(n)] for i in range(n)]


def _expr_dot(row, col):
    total = ex.ZERO
    for a, b in zip(row, col):
        total = ex.add(total, ex.mul(a, b))
    return total


def omega_L(pair, scenario, k=1):
    """Evaluator of the multiplicative form of the pair (-l^k, 0)."""
    data = im_pair_from_covector_map(scenario.chart, pair.lmat_power(k),
                                     negate=True)
    return MultFormEvaluator(scenario.groupoid, linear_form(data))


def nijenhuis_torsion(lmat, variables):
    """Symbolic torsion of the covector map's transpose acting on vectors.

    Returns T[i][a][b]: the dx_i-component of T(e_a, e_b) as Exprs, with
    T(u,v) = [lu, lv] - l([lu, v] + [u, lv]) + l^2([u,v]).
    """
    n = len(variables)
    lv = [[lmat[j][i] for j in range(n)] for i in range(n)]  # vector action

    def d(e, b):
        return ex.partial(e, variables[b])

    T = [[[ex.ZERO] * n for _ in range(n)] for _ in range(n)]
    for a in range(n):
        for b in range(n):
            # X = l(e_a), Y = l(e_b) as vector fields
            lie = []
            for i in range(n):
                total = ex.ZERO
                for j in range(n):
                    total = ex.add(total, ex.mul(lv[j][a], d(lv[i][b], j)))
                    total = ex.sub(total, ex.mul(lv[j][b], d(lv[i][a], j)))
                lie.append(total)
            # [l e_a, e_b]^j = -d_b (lv[j][a]);  [e_a, l e_b]^j = d_a (lv[j][b])
            for i in range(n):
                corr = ex.ZERO
                for j in range(n):
                    inner = ex.sub(d(lv[j][b], a), d(lv[j][a], b))
                    corr = ex.add(corr, ex.mul(lv[i][j], inner))
                T[i][a][b] = ex.sub(lie[i], corr)
    return T


def torsion_nu_fields(lmat, variables):
    """The 2-form fields nu(e_m) = -<dx^m, T(.,.)> of the pair (-l^2, -T)."""
    n = len(variables)
    T = nijenhuis_torsion(lmat, variables)
    out = []
    for m in range(n):
        comps = {}
        for a in range(n):
            for b in range(a + 1, n):
                e = ex.neg(T[m][a][b])
                if not e.is_zero:
                    comps[(a, b)] = e
        out.append(ex.FormField(tuple(variables), 2, comps))
    return out


def omega_L2_pair(pair, chart):
    """The IM pair (-l^2, -T_l) integrated by omega_{L^2}."""
    l2 = pair.lmat_power(2)
    base = im_pair_from_covector_map(chart, l2, negate=True)
    nus = torsion_nu_fields(pair.lmat, chart.xs)
    return IMFormData(chart, 2, base.l, nus)


L_FD_STEP = 2e-3    # finite-difference step of the L field (torsion identity)


def L_tensor(scenario, ev_omega_L, P):
    """L with omega(L u, v) = omega_L(u, v), batched: L = W^{-1} W_L."""
    P = np.atleast_2d(P)
    W = scenario.evaluator.omega_matrices(P)
    WL = ev_omega_L.omega_matrices(P)
    return np.linalg.solve(W, WL)


def torsion_identity_check(scenario, pair, samples=10, seed=606, tol=1e-6):
    """Residual of the interior-product torsion identity on the groupoid.

    With Omega = omega and A = L (both quadrature-backed), checks

      i_{T_L(u,v)} omega = (i_v i_{Lu} + i_{Lv} i_u) d omega_L
                           - i_{Lv} i_{Lu} d omega - i_v i_u d omega_{L^2}

    at sampled points and random vectors; T_L comes from 4th-order finite
    differences of the L field at step L_FD_STEP (documented looser floor
    ~ L-accuracy / step).  Also reports || d omega_{L^2} || when the symbolic
    torsion vanishes.
    """
    G = scenario.groupoid
    evL = omega_L(pair, scenario, k=1)
    evL2 = MultFormEvaluator(G, linear_form(omega_L2_pair(pair, scenario.chart)))
    rng = SplitMix64(seed)
    pts = G.sample_validity_points(samples, seed, fiber_scale=0.6)
    W = scenario.evaluator.omega_matrices(pts)
    dW = scenario.evaluator.domega_full(pts)
    dWL = evL.domega_full(pts)
    dWL2 = evL2.domega_full(pts)
    Lmats = L_tensor(scenario, evL, pts)

    report = CheckReport(environment={"samples": samples, "seed": seed})
    uv = [(rng.direction(G.dim), rng.direction(G.dim)) for _ in pts]
    dirs = np.array([(L @ u, L @ v, u, v) for L, (u, v) in zip(Lmats, uv)])
    # directional derivatives of L along Lu, Lv, u, v: (B, 4, d, d)
    _, dL = central_difference(lambda Q: L_tensor(scenario, evL, Q), pts,
                               dirs, L_FD_STEP)
    resid = np.empty(len(pts))
    for b in range(len(pts)):
        L = Lmats[b]
        Lu, Lv, u, v = dirs[b]
        dLu, dLv, du_, dv_ = dL[b]
        TL = dLu @ v - dLv @ u - L @ (du_ @ v - dv_ @ u)
        # i_{T} omega as a covector: omega(T, w) = T^T W w, so lhs = W^T T
        lhs = W[b].T @ TL
        rhs = (np.einsum("ijk,i,j->k", dWL[b], Lu, v)
               + np.einsum("ijk,i,j->k", dWL[b], u, Lv)
               - np.einsum("ijk,i,j->k", dW[b], Lu, Lv)
               - np.einsum("ijk,i,j->k", dWL2[b], u, v))
        resid[b] = np.max(np.abs(lhs - rhs))
    report.add_pointwise("torsion_identity", resid, tol, pts)

    torsion_syms = nijenhuis_torsion(pair.lmat, scenario.chart.xs)
    flat = [e for row in torsion_syms for col in row for e in col]
    tmax = float(np.max(np.abs(
        ex.compile_exprs(flat, scenario.chart.xs)(pts[:, : G.n]))))
    if tmax < 1e-12:
        report.add("torsion_free_closedness", float(np.max(np.abs(dWL2))),
                   tol, note="symbolic torsion vanishes; d omega_{L^2} must too")
    return report, evL, evL2


def pi_pushforwards_residual(scenario, pair, samples=30, seed=717, kmax=2):
    """max over k <= kmax of || dsigma Pi_{L^k} dsigma^T - pi_{l^k} || (and tau)."""
    G = scenario.groupoid
    evL = omega_L(pair, scenario, k=1)
    pts = G.sample_validity_points(samples, seed, fiber_scale=0.7)
    W = scenario.evaluator.omega_matrices(pts)
    Q = np.linalg.inv(W)
    Lmats = L_tensor(scenario, evL, pts)
    tau, dtau = G.tau_with_jacobian(pts)
    dsig = np.zeros((G.n, G.dim))
    dsig[:, : G.n] = np.eye(G.n)
    base = pts[:, : G.n]
    l_s, l_t = pair.l_covector_matrices(base), pair.l_covector_matrices(tau)
    pi_s, pi_t = scenario.pi.values(base), scenario.pi.values(tau)
    res = 0.0
    for k in range(kmax + 1):
        Lk = np.linalg.matrix_power(Lmats, k) if k else \
            np.broadcast_to(np.eye(G.dim), Lmats.shape)
        Pk = np.matmul(Lk, Q)
        push_s = np.einsum("ai,bij,cj->bac", dsig, Pk, dsig)
        push_t = np.einsum("bai,bij,bcj->bac", dtau, Pk, dtau)
        for b in range(len(pts)):
            want_s = np.linalg.matrix_power(l_s[b].T, k) @ pi_s[b]
            res = max(res, float(np.max(np.abs(push_s[b] - want_s))))
            want_t = np.linalg.matrix_power(l_t[b].T, k) @ pi_t[b]
            res = max(res, float(np.max(np.abs(push_t[b] + want_t))))
    return res


def omega_Lk_two_ways(scenario, pair, k, samples=15, seed=808):
    """Compare the Lambda-route and the pointwise-pullback route for omega_{L^k}.

    Route A integrates the linear form of (-l^k, 0).  Route B pulls the
    canonical 2-form back through the numeric Jacobian of the bundle map
    (x, y) -> (x, l^k y) composed with the flow, sharing no form machinery
    with route A.
    """
    G = scenario.groupoid
    evA = omega_L(pair, scenario, k=k)
    pts = G.sample_validity_points(samples, seed, fiber_scale=0.7)
    WA = evA.omega_matrices(pts)

    n = G.n
    lk = pair.lmat_power(k)
    lk_flat = [lk[i][j] for i in range(n) for j in range(n)]
    dlk_flat = [ex.partial(lk[i][j], scenario.chart.xs[bv])
                for i in range(n) for j in range(n)
                for bv in range(n)]
    lk_fn = ex.compile_exprs(lk_flat, scenario.chart.xs)
    dlk_fn = ex.compile_exprs(dlk_flat, scenario.chart.xs)

    W0 = np.zeros((2 * n, 2 * n))
    W0[:n, n:] = np.eye(n)
    W0[n:, :n] = -np.eye(n)

    B = len(pts)
    WB = np.zeros((B, 2 * n, 2 * n))

    def route_b(j, z, J):
        # d(ell^k): [[I, 0], [sum_j dM_ij y_j, M]]
        Dmap = np.zeros((B, 2 * n, 2 * n))
        Dmap[:, :n, :n] = np.eye(n)
        Dmap[:, n:, :n] = np.einsum("bijc,bj->bic",
                                    dlk_fn(z[:, :n]).reshape(B, n, n, n),
                                    z[:, n:])
        Dmap[:, n:, n:] = lk_fn(z[:, :n]).reshape(B, n, n)
        pulled = tn.pullback_full_batch(np.matmul(Dmap, J), W0, 2)
        WB[...] += G.rule.weights[j] * pulled

    G.flow_end(pts, route_b)
    return float(np.max(np.abs(WA - WB)))


def build_nijenhuis(pi, lmat, box, numerics=None):
    """Symplectic-Nijenhuis scenario: base Poisson scenario plus pair checks.

    The pair must be genuinely infinitesimally multiplicative: the bivector
    symmetry pi(l a, b) = pi(a, l b) and the bracket covariance are gated
    here, since every downstream claim (the L tensor covering l, the
    pushforward family) is a theorem only for valid pairs.  Use the
    standalone ``omega_L`` / ``torsion_identity_check`` / ``holomorphic_check``
    helpers to exercise the machinery on raw covector maps.
    """
    nm = numerics or Numerics()
    scenario = build_symplectic_groupoid(pi, box, numerics=nm, full_checks=False)
    pair = NijenhuisPair(pi, lmat)
    report = scenario.report
    data_l = im_pair_from_covector_map(scenario.chart, lmat, negate=True)
    pair_rep = im_residuals(scenario.chart, data_l,
                            samples=min(60, nm.samples), seed=nm.seed + 21,
                            tol=nm.tol("pair_im_residuals", 1e-8))
    report.merge(pair_rep, prefix="pair_")
    if not pair_rep.all_passed:
        worst = pair_rep.worst()
        raise CompatibilityError(
            f"nijenhuis pair invariant {worst.name} fails "
            f"(residual {worst.residual:.3e})")

    evL = omega_L(pair, scenario, k=1)
    # L at units is block-diagonal (vector action, covector action)
    xu = scenario.chart.sample_base_points(8, nm.seed + 22, scale=0.5)
    n = scenario.chart.n
    Lu = L_tensor(scenario, evL, scenario.groupoid.units(xu))
    lm = pair.l_covector_matrices(xu)
    want = np.zeros_like(Lu)
    want[:, :n, :n] = np.swapaxes(lm, 1, 2)
    want[:, n:, n:] = lm
    report.add("L_units_block", float(np.max(np.abs(Lu - want))),
               nm.tol("L_units_block", 1e-7))

    pts = scenario.groupoid.sample_validity_points(20, nm.seed + 23,
                                                   fiber_scale=0.7)
    Lm = L_tensor(scenario, evL, pts)
    # dsigma o L = l o dsigma reduces to the first n rows of L
    lv = np.swapaxes(pair.l_covector_matrices(pts[:, :n]), 1, 2)
    res_sigma = max(float(np.max(np.abs(Lm[:, :n, :n] - lv))),
                    float(np.max(np.abs(Lm[:, :n, n:]))))
    report.add("L_sigma_related", res_sigma, nm.tol("L_sigma_related", 1e-6))

    tors, evL1, evL2 = torsion_identity_check(
        scenario, pair, samples=min(10, nm.samples), seed=nm.seed + 24,
        tol=nm.tol("torsion_identity", 1e-6))
    report.merge(tors)

    report.add("pi_pushforwards",
               pi_pushforwards_residual(scenario, pair, seed=nm.seed + 25),
               nm.tol("pi_pushforwards", 1e-6))
    report.add("omega_Lk_two_ways",
               max(omega_Lk_two_ways(scenario, pair, 1, seed=nm.seed + 26),
                   omega_Lk_two_ways(scenario, pair, 2, seed=nm.seed + 27)),
               nm.tol("omega_Lk_two_ways", 1e-7))

    # recovery of (-l^2, -T_l) at units from omega_{L^2}
    pair2 = omega_L2_pair(pair, scenario.chart)
    rt = differentiate_at_units(
        scenario.groupoid, evL2, pair2,
        scenario.chart.sample_base_points(10, nm.seed + 28, scale=0.5),
        tol=nm.tol("L2_units_recovery", 1e-6))
    report.merge(rt, prefix="L2_")

    # pointwise agreement omega_{L^2}(u, v) = omega(L^2 u, v)
    WL2 = evL2.omega_matrices(pts)
    W = scenario.evaluator.omega_matrices(pts)
    res_pw = float(np.max(np.abs(WL2 - np.matmul(
        np.swapaxes(np.matmul(Lm, Lm), -1, -2), W))))
    report.add("omega_L2_pointwise", res_pw, nm.tol("omega_L2_pointwise", 1e-6))
    return scenario, pair, evL1, evL2


def holomorphic_check(scenario, pair, numerics=None):
    """|| omega_{J^2} + omega || for a pair with j^2 = -Id (numeric gate)."""
    nm = numerics or scenario.numerics
    evJ2 = omega_L(pair, scenario, k=2)
    pts = scenario.groupoid.sample_validity_points(min(50, nm.samples),
                                                   nm.seed + 31, fiber_scale=0.8)
    WJ2 = evJ2.omega_matrices(pts)
    W = scenario.evaluator.omega_matrices(pts)
    return float(np.max(np.abs(WJ2 + W)))


# ---------------------------------------------------------------------------
# Generalized complex


def gcs_identity_check(pi, lmat, varpi, box, numerics=None):
    """Prechecks plus the identity omega + omega_{L^2} = tau* - sigma* varpi."""
    nm = numerics or Numerics()
    n = pi.dim
    xs = tuple(f"x{i+1}" for i in range(n))
    report = CheckReport(environment={"kind": "gcs", "n_quad": nm.n_quad,
                                      "samples": nm.samples, "seed": nm.seed})
    rng = SplitMix64(nm.seed + 40)
    boxa = np.asarray(box, dtype=np.float64)
    dvarpi = varpi.d()
    T = nijenhuis_torsion(lmat, xs)
    res_alg = res_tors = res_commute = res_dcyc = 0.0
    # varpi_l(u, v) = varpi(l u, v); on frames (varpi_l)_{ab} =
    # sum_i lv[i][a] varpi_{ib} with lv[i][a] = lmat[a][i]
    varpi_l_comps = {}
    for a in range(n):
        for b in range(a + 1, n):
            total = ex.ZERO
            for i in range(n):
                if i == b:
                    continue
                W_ib = varpi.component((i, b)) if i < b else \
                    ex.neg(varpi.component((b, i)))
                total = ex.add(total, ex.mul(lmat[a][i], W_ib))
            varpi_l_comps[(a, b)] = total
    varpi_l = ex.FormField(xs, 2, varpi_l_comps)
    dvarpi_l = varpi_l.d()

    X = np.array([[rng.uniform(lo, hi) for lo, hi in boxa]
                  for _ in range(min(30, nm.samples))])
    Ls = NijenhuisPair(pi, lmat).l_covector_matrices(X)
    Ts = ex.batch_values([T[i][a][b] for i in range(n) for a in range(n)
                          for b in range(n)], xs, X, (n, n, n))
    Ps = pi.values(X)
    Wvs = tn.comps_to_full_batch(varpi.values(X), n, 2)
    dWs = tn.comps_to_full_batch(dvarpi.values(X), n, 3)
    dWls = tn.comps_to_full_batch(dvarpi_l.values(X), n, 3)
    for L, P, Wv, dW, dWl, Tv in zip(Ls, Ps, Wvs, dWs, dWls, Ts):
        res_alg = max(res_alg, float(np.max(np.abs(L @ L + Wv @ P + np.eye(n)))))
        res_commute = max(res_commute,
                          float(np.max(np.abs(L @ Wv - Wv @ L.T))))
        for a in range(n):
            for b in range(n):
                want = P.T @ dW[a, b]
                res_tors = max(res_tors, float(np.max(np.abs(Tv[:, a, b] - want))))
        lv = L.T
        cyc = (np.einsum("ia,ibc->abc", lv, dW)
               + np.einsum("jb,ajc->abc", lv, dW)
               + np.einsum("kc,abk->abc", lv, dW))
        res_dcyc = max(res_dcyc, float(np.max(np.abs(dWl - cyc))))

    tol_pre = nm.tol("gcs_prechecks", 1e-9)
    # The two-form identity is equivalent to the first two relations; the
    # commutation and cyclic conditions complete the definition of the
    # triple but do not gate the identity.
    gate1 = report.add("gcs_algebraic_relation", res_alg, tol_pre)
    gate2 = report.add("gcs_torsion_relation", res_tors, tol_pre)
    report.add("gcs_l_varpi_commute", res_commute, tol_pre)
    report.add("gcs_dvarpi_cyclic", res_dcyc, tol_pre)
    if not (gate1.passed and gate2.passed):
        report.note("algebraic prechecks failed; main identity skipped")
        return report, None

    scenario = build_symplectic_groupoid(pi, box, numerics=nm, full_checks=False)
    pair = NijenhuisPair(pi, lmat)
    evL2 = MultFormEvaluator(scenario.groupoid,
                             linear_form(omega_L2_pair(pair, scenario.chart)))
    G = scenario.groupoid
    pts = G.sample_validity_points(nm.samples, nm.seed + 41, fiber_scale=0.7)
    W = scenario.evaluator.omega_matrices(pts)
    WL2 = evL2.omega_matrices(pts)
    lhs = W + WL2
    rhs = tau_pullback(G, varpi, pts) - sigma_pullback(G, varpi, pts)
    res = float(np.max(np.abs(lhs - rhs)))
    report.add("gcs_identity", res, nm.tol("gcs_identity", 1e-6))
    report.environment["h"] = 1.0 / nm.n_quad
    report.environment["validity_box"] = G.validity_box().tolist()
    report.merge(scenario.report, prefix="base_")
    return report, scenario


# ---------------------------------------------------------------------------
# Dirac


@dataclass
class DiracScenario:
    chart: AlgebroidChart
    H: ex.FormField
    groupoid: SprayGroupoid
    evaluator: MultFormEvaluator
    data: IMFormData
    report: CheckReport
    numerics: Numerics


def build_dirac(sections, H, box, numerics=None):
    nm = numerics or Numerics()
    A = dirac_algebroid(sections, H, box, seed=nm.seed + 50)
    report = CheckReport(environment={"kind": "dirac", "n_quad": nm.n_quad,
                                      "samples": nm.samples, "seed": nm.seed})
    report.merge(check_algebroid(A, samples=min(60, nm.samples),
                                 seed=nm.seed + 51), prefix="algebroid_")
    V = default_spray(A)
    report.merge(check_spray(V, A, seed=nm.seed + 52), prefix="spray_")
    G = SprayGroupoid(A, V, n_quad=nm.n_quad, quad_kind=nm.quad_kind)
    discover_validity_box(G, seed=nm.seed + 53)
    report.environment["h"] = 1.0 / nm.n_quad
    report.environment["validity_box"] = G.validity_box().tolist()
    data = dirac_im_pair(A)
    report.merge(im_residuals(A, data, samples=min(40, nm.samples),
                              seed=nm.seed + 54,
                              tol=nm.tol("im_residuals", 1e-8)), prefix="im_")
    evaluator = MultFormEvaluator(G, linear_form(data))
    scenario = DiracScenario(A, H, G, evaluator, data, report, nm)
    report.merge(dirac_checks(scenario, samples=nm.samples, seed=nm.seed + 55,
                              numerics=nm))
    _roundtrip_checks(report, G, evaluator, data, nm)
    return scenario


def dirac_checks(scenario, samples=100, seed=1234, numerics=None):
    """Relative H-closedness, robustness margin, forward-Dirac image."""
    nm = numerics or scenario.numerics
    G = scenario.groupoid
    A = scenario.chart
    report = CheckReport()
    pts = G.sample_validity_points(samples, seed, fiber_scale=0.7)

    n, d = G.n, G.dim
    # one tangent-flow solve serves d omega, omega and (tau, dtau)
    dW, W = scenario.evaluator.domega_sum(), scenario.evaluator.omega_sum()
    end, J = G.flow_end(pts, dW, W)
    dW, W = dW.value, W.value
    tau, dtau = end[:, :n], J[:, :n, :]
    rhs = _pullback_through(scenario.H, tau, dtau) - \
        sigma_pullback(G, scenario.H, pts)
    report.add("relative_H_closedness", float(np.max(np.abs(dW - rhs))),
               nm.tol("relative_H_closedness", 1e-6))

    dsig = np.zeros((n, d))
    dsig[:, :n] = np.eye(n)
    smin = np.inf
    res_angle = 0.0
    frame_fn = ex.compile_exprs(
        [e for i in range(A.r)
         for e in (A.frame.vectors[i] + A.frame.covectors[i])], A.xs)

    def frames(X):
        return frame_fn(X).reshape(len(X), A.r, 2 * n)

    L_pts = frames(pts[:, :n])
    for b in range(len(pts)):
        stack = np.vstack([W[b].T, dsig, dtau[b]])
        s = np.linalg.svd(stack, compute_uv=False)
        smin = min(smin, float(s[-1]))
        # forward image of graph(omega) under sigma
        Mker = np.hstack([W[b].T, -dsig.T])
        _, sv, vt = np.linalg.svd(Mker)
        rank = int(np.sum(sv > 1e-10 * sv[0]))
        K = vt[rank:].T                      # (d + n, dim ker)
        img = np.vstack([dsig @ K[:d], K[d:]])   # (2n, dim ker)
        ang = scipy.linalg.subspace_angles(img, L_pts[b].T)
        res_angle = max(res_angle, float(np.max(ang)) if ang.size else 0.0)
    report.add_margin("robustness_margin", smin,
                      nm.tol("robustness_margin", 1e-3),
                      note=f"min singular value of [omega-flat; dsigma; dtau]: {smin:.3e}")
    report.add("forward_dirac_angles", res_angle,
               nm.tol("forward_dirac_angles", 1e-5))

    # at-units closed-form value
    rng = SplitMix64(seed + 1)
    res_units = 0.0
    xu = A.sample_base_points(8, seed + 2, scale=0.5)
    for Wu, F in zip(scenario.evaluator.omega_matrices(G.units(xu)), frames(xu)):
        for _ in range(4):
            v1, lam1 = rng.direction(n), rng.direction(A.r)
            v2, lam2 = rng.direction(n), rng.direction(A.r)
            w1, a1 = lam1 @ F[:, :n], lam1 @ F[:, n:]
            w2, a2 = lam2 @ F[:, :n], lam2 @ F[:, n:]
            got = np.concatenate([v1, lam1]) @ Wu @ np.concatenate([v2, lam2])
            want = a2 @ v1 - a1 @ (v2 + w2)
            res_units = max(res_units, abs(got - want))
    report.add("units_formula", res_units, nm.tol("units_formula", 1e-8))
    return report


# ---------------------------------------------------------------------------
# Jacobi


@dataclass
class JacobiScenario:
    pi: ex.BivectorField
    R: ex.VectorField
    chart: AlgebroidChart
    groupoid: SprayGroupoid
    evaluator: MultFormEvaluator
    spencer: ScalarSpencer
    report: CheckReport
    numerics: Numerics


def build_jacobi(pi, R, box, numerics=None):
    nm = numerics or Numerics()
    A = jacobi_algebroid(pi, R, box, seed=nm.seed + 60)
    report = CheckReport(environment={"kind": "jacobi", "n_quad": nm.n_quad,
                                      "samples": nm.samples, "seed": nm.seed})
    report.merge(check_algebroid(A, samples=min(60, nm.samples),
                                 seed=nm.seed + 61), prefix="algebroid_")
    V = default_spray(A)
    report.merge(check_spray(V, A, seed=nm.seed + 62), prefix="spray_")
    G = SprayGroupoid(A, V, n_quad=nm.n_quad, quad_kind="simpson")
    discover_validity_box(G, seed=nm.seed + 63)
    report.environment["h"] = 1.0 / nm.n_quad
    report.environment["validity_box"] = G.validity_box().tolist()
    spencer = ScalarSpencer(A)
    report.add("spencer_leibniz", spencer.leibniz_residual(seed=nm.seed + 64),
               nm.tol("spencer_leibniz", 1e-12))
    evaluator = MultFormEvaluator(G, jacobi_linear_form(A),
                                  weight_cocycle=jacobi_cocycle(A))
    scenario = JacobiScenario(pi, R if isinstance(R, ex.VectorField)
                              else ex.VectorField(A.xs, R),
                              A, G, evaluator, spencer, report, nm)
    report.merge(jacobi_checks(scenario, samples=min(40, nm.samples),
                               seed=nm.seed + 65, numerics=nm))
    report.note("general Spencer compatibility for nontrivial coefficients "
                "is assumed for the canonical first-jet operator")
    return scenario


def _jacobi_closed_form(scenario, pts):
    """Closed-form omega for n = 1, pi = 0, R = c d/dx; None otherwise."""
    A = scenario.chart
    if A.n != 1 or scenario.pi.components:
        return None
    Rc = scenario.R.components[0]
    if not isinstance(Rc, ex.Const):
        return None
    c = Rc.value
    p = pts[:, 2]
    q = c * p
    small = np.abs(q) < 1e-8
    qs = np.where(small, 1.0, q)
    f_du = np.where(small, 1.0 - q * q / 6.0,
                    (2.0 - 2.0 * np.exp(-qs) - qs * np.exp(-qs)) / qs)
    f_dx = np.where(small, -p * (1.0 - q / 2.0),
                    -(1.0 - np.exp(-qs)) / (c if c != 0.0 else 1.0))
    out = np.zeros_like(pts)
    out[:, 1] = f_du
    out[:, 0] = f_dx
    return out


def jacobi_checks(scenario, samples=40, seed=909, numerics=None):
    """Contact margin, units kernel, transport consistency, closed form."""
    nm = numerics or scenario.numerics
    G = scenario.groupoid
    A = scenario.chart
    n = A.n
    report = CheckReport()
    pts = G.sample_validity_points(samples, seed, fiber_scale=0.7)

    # one tangent-flow solve serves omega, the cocycle and the transport
    om = scenario.evaluator.omega_sum()
    cocycle = integrate_cocycle(G, jacobi_cocycle(A), pts, om)
    transport_end, om = om.transport, om.value
    closed = _jacobi_closed_form(scenario, pts)
    if closed is not None:
        report.add("closed_form", float(np.max(np.abs(om - closed))),
                   nm.tol("closed_form", 1e-8))

    # contact margin: | omega ^ (d omega)^n | over the box
    dom = tn.full_to_comps_batch(scenario.evaluator.domega_full(pts), G.dim, 2)
    top = om
    for i in range(n):
        top = tn.wedge_batch(top, dom, G.dim, 1 + 2 * i, 2)
    margin = float(np.min(np.max(np.abs(top), axis=1)))
    report.add_margin("contact_margin", margin, nm.tol("contact_margin", 0.1),
                      note=f"min |omega ^ (d omega)^{n}| = {margin:.3e}")

    # kernel at units: ker(omega_x) = TM + ker(pr)
    res_ker = 0.0
    res_l = 0.0
    basis = np.zeros((G.dim, G.dim - 1))
    cols = [i for i in range(G.dim) if i != n]  # everything except the u slot
    for c_, i in enumerate(cols):
        basis[i, c_] = 1.0
    xu = A.sample_base_points(8, seed + 3, scale=0.5)
    for omu in scenario.evaluator.omega_full(G.units(xu)):
        res_l = max(res_l, abs(omu[n] - 1.0),
                    float(np.max(np.abs(np.delete(omu, n)))))
        null = scipy.linalg.null_space(omu[None, :])
        ang = scipy.linalg.subspace_angles(null, basis)
        res_ker = max(res_ker, float(np.max(ang)) if ang.size else 0.0)
    report.add("units_kernel_angles", res_ker, nm.tol("units_kernel", 1e-5))
    report.add("units_recover_pr", res_l, nm.tol("units_recover_pr", 1e-8))

    # transport/cocycle consistency on the quadrature grid
    report.add("cocycle_weight_consistency",
               float(np.max(np.abs(np.exp(-cocycle) - transport_end))),
               nm.tol("cocycle_weight", 1e-10))

    point = G.sample_validity_points(1, seed + 4, fiber_scale=0.8)[0]
    slope, _ = linearization_check(G, scenario.evaluator, point)
    if slope is None:
        report.add("linearization_slope", 0.0, 0.2,
                   note="remainder vanishes identically (form already linear)")
    else:
        report.add("linearization_slope", abs(slope - 1.0), 0.2,
                   note=f"fitted slope {slope:.4f}, window [0.8, 1.2]")
    return report


# ---------------------------------------------------------------------------
# Convergence studies


def convergence_study(chart, spray, lform, points, levels=None,
                      weight_cocycle=None, reference=None):
    """Errors and fitted order of the quadrature form along a resolution ladder.

    ``levels`` is a list of (n_quad, substeps) pairs; the effective step is
    h = 1 / (n_quad * substeps).  Errors are measured against ``reference``
    values (same shape as the form output) when given, else against the
    finest ladder level, which is then excluded from the order fit.  Returns
    a list of rows {n_quad, substeps, h, error} plus the fitted order.
    """
    levels = levels or [(16, 1), (32, 1), (64, 1), (128, 1)]
    points = np.atleast_2d(points)
    values = []
    for n_quad, substeps in levels:
        G = SprayGroupoid(chart, spray, n_quad=n_quad, substeps=substeps)
        ev = MultFormEvaluator(G, lform, weight_cocycle=weight_cocycle)
        values.append(ev.omega_full(points))
    if reference is None:
        ref = values[-1]
        fit_slice = slice(0, len(levels) - 1)
    else:
        ref = reference
        fit_slice = slice(0, len(levels))
    rows = []
    for (n_quad, substeps), val in zip(levels, values):
        err = float(np.max(np.abs(val - ref)))
        rows.append({"n_quad": n_quad, "substeps": substeps,
                     "h": 1.0 / (n_quad * substeps), "error": err})
    errs = np.array([r["error"] for r in rows])[fit_slice]
    hs = np.array([r["h"] for r in rows])[fit_slice]
    if np.ptp(hs) < 1e-15 * np.max(hs):
        # pure quadrature ladder (step held fixed): fit against the node count
        hs = 1.0 / np.array([r["n_quad"] for r in rows])[fit_slice]
    good = errs > 1e-15
    if int(np.sum(good)) >= 2:
        order = float(np.polyfit(np.log(hs[good]), np.log(errs[good]), 1)[0])
    else:
        order = float("inf")  # errors at roundoff on every level
    return rows, order
