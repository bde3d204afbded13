"""End-to-end scenarios: build the local groupoid of an input, then check it.

A ``build_*`` function returns a :class:`Scenario`: chart, spray groupoid with
its validity radius, and the evaluator of the family's multiplicative form.
It also runs the construction gates that decide whether the scenario exists
(the Poisson identity, the Nijenhuis pair invariants, the generalized-complex
prechecks; the Dirac and Jacobi algebroid constructors gate their inputs),
and for Poisson inputs the nondegeneracy margin, which sets the radius.
``run_checks`` runs the ordered named checks of the ``_*_CHECKS`` tuples into
one CheckReport, with the gate results in their places.  Each check draws
from its own seed; a library error raised in one is prefixed with its name.
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager
from dataclasses import dataclass, field, replace

import numpy as np

from . import expr as ex
from . import tensor as tn
from .algebroid import (
    AlgebroidChart,
    base_vars,
    check_algebroid,
    check_spray,
    cotangent_algebroid,
    default_spray,
    dirac_algebroid,
    jacobi_algebroid,
    jacobi_cocycle,
)
from .errors import CompatibilityError, SprayformError
from .flow import complex_step
from .groupoid import (
    PRODUCT_NODES,
    VALIDITY_BASE_SCALE,
    MultFormEvaluator,
    SprayGroupoid,
    differentiate_at_units,
    discover_validity_box,
    integrate_cocycle,
    linearization_check,
    product_residuals,
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
    "Numerics", "Scenario", "build", "run_checks", "NijenhuisPair",
    "build_symplectic_groupoid", "build_nijenhuis", "build_gcs",
    "build_dirac", "build_jacobi", "build_raw_algebroid", "omega_L",
    "omega_L2", "omega_L2_pair", "L_tensor", "nijenhuis_torsion",
    "torsion_nu_fields", "torsion_identity_check", "holomorphic_check",
    "gcs_identity_check", "dirac_checks", "jacobi_checks", "sigma_pullback",
    "tau_pullback", "pi_pushforwards_residual", "omega_Lk_two_ways",
    "convergence_study",
]

# Floor of the smallest singular value of omega on the Poisson validity sample.
NONDEGENERACY_MARGIN = 1e-3
CONVERGENCE_ROUNDOFF = 100.0  # order-fit error floor, in eps x max |omega_ref|


# The names ``Numerics.tol`` reads, and so the keys ``numerics.tolerances``
# accepts; several differ from the report line they bound.
TOLERANCE_NAMES = (
    "im_residuals", "units_recovery", "poisson_identity", "realization",
    "closedness", "units_formula", "multiplicativity", "inversion_antisymmetry",
    "associativity", "pair_im_residuals", "L_units_block", "L_sigma_related",
    "torsion_identity", "pi_pushforwards", "omega_Lk_two_ways",
    "L2_units_recovery", "omega_L2_pointwise", "gcs_prechecks", "gcs_identity",
    "relative_H_closedness", "robustness_margin", "forward_dirac_angles",
    "closed_form", "contact_margin", "units_kernel", "units_recover_pr",
    "cocycle_weight", "spencer_leibniz",
)


@dataclass
class Numerics:
    """Resolution and sampling knobs; a config key left out gets the default."""

    n_quad: int = 64
    mu_steps: int = 32
    samples: int = 100
    seed: int = 20240
    mult_pairs: int = 25
    assoc_triples: int = 10
    tolerances: dict = field(default_factory=dict)

    def tol(self, name, default):
        return float(self.tolerances.get(name, default))


@dataclass
class Scenario:
    """A built scenario: what ``run_checks`` checks and ``eval`` evaluates.

    ``gates`` holds the CheckReports the build measured, by the check that
    reports them; ``run_checks`` runs each ``(name, check, *args)`` of
    ``checks`` as ``check(scenario, report, *args)``.  Later fields are the
    family's inputs and what its checks share.  A generalized-complex triple
    that fails its prechecks has no chart, groupoid or evaluator.
    """

    numerics: Numerics
    chart: AlgebroidChart | None
    groupoid: SprayGroupoid | None
    evaluator: MultFormEvaluator | None
    environment: dict
    gates: dict
    checks: tuple
    data: IMFormData | None = None
    pi: ex.BivectorField | None = None
    pair: NijenhuisPair | None = None
    varpi: ex.FormField | None = None
    H: ex.FormField | None = None
    # (points, tau, dtau, omega) of the Poisson nondegeneracy sample
    sample: tuple | None = None


@contextmanager
def _named(name):
    """Put ``name: `` in front of the message of a library error raised inside."""
    try:
        yield
    except SprayformError as exc:
        exc.args = (f"{name}: {exc}",)
        raise


def run_checks(scenario):
    """The scenario's report: its environment, then each named check in order."""
    report = CheckReport(environment=dict(scenario.environment))
    for name, check, *args in scenario.checks:
        with _named(name):
            check(scenario, report, *args)
    return report


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


def _relative_pullback(G, varpi, P, end, J):
    """tau^* varpi - sigma^* varpi at P, from the flow's ``end`` and ``J``."""
    return _pullback_through(varpi, end[:, : G.n], J[:, : G.n, :]) - \
        sigma_pullback(G, varpi, P)


def _pushforwards(Pi, dtau, n):
    """The bivectors Pi (B, d, d) pushed forward by sigma and by tau, whose
    Jacobian is dtau (B, n, d)."""
    dsig = np.eye(n, Pi.shape[-1])
    return (np.einsum("ai,bij,cj->bac", dsig, Pi, dsig),
            np.einsum("bai,bij,bcj->bac", dtau, Pi, dtau))


def _svd_rank(s, shape):
    """Number of singular values above max(s) * eps * max(M, N)."""
    tol = np.amax(s, initial=0.0) * (np.finfo(np.float64).eps * max(shape))
    return int(np.sum(s > tol))


def _orth(A):
    """Orthonormal basis of the column space of A (M, N), as (M, rank).

    Fortran order, like LAPACK's U: the layout selects the BLAS kernel of
    the products in ``_subspace_angles``, and with it their last bits.
    """
    u, s, _ = np.linalg.svd(A, full_matrices=False)
    return np.asfortranarray(u[:, :_svd_rank(s, A.shape)])


def _null_space(A):
    """Orthonormal basis of the null space of A (M, N), as (N, N - rank)."""
    _, s, vh = np.linalg.svd(A, full_matrices=True)
    return vh[_svd_rank(s, A.shape):].T


def _subspace_angles(A, B):
    """Principal angles between the column spaces of A and B, descending.

    Bjorck-Golub: the cosines are the singular values of QA^T QB.  Where a
    cosine^2 >= 1/2 the angle comes from the sines instead, the singular
    values of the wider basis minus its projection on the other.  Same
    operations, in the same order, as ``scipy.linalg.subspace_angles``.
    """
    QA, QB = _orth(A), _orth(B)
    QA_QB = np.dot(QA.T, QB)
    sigma = np.linalg.svd(QA_QB, compute_uv=False)
    if QA.shape[1] >= QB.shape[1]:
        R = QB - np.dot(QA, QA_QB)
    else:
        R = QA - np.dot(QB, QA_QB.T)
    mask = sigma ** 2 >= 0.5
    mu = np.arcsin(np.clip(np.linalg.svd(R, compute_uv=False), -1.0, 1.0)) \
        if mask.any() else 0.0
    return np.where(mask, mu, np.arccos(np.clip(sigma[::-1], -1.0, 1.0)))


def _groupoid(A, nm, seed_offset, christoffel=None):
    """Groupoid of the default spray on A, with its validity radius."""
    G = SprayGroupoid(A, default_spray(A, christoffel=christoffel),
                      n_quad=nm.n_quad)
    discover_validity_box(G, seed=nm.seed + seed_offset)
    return G


def _environment(kind, nm, G, **between):
    """The report environment, in report order."""
    return {"kind": kind, "n_quad": nm.n_quad, **between,
            "samples": nm.samples, "seed": nm.seed, "h": 1.0 / nm.n_quad,
            "validity_box": G.validity_box().tolist()}


def _gate(name):
    """Check slot that reports the results the build measured under ``name``."""
    return name, lambda scen, report: report.merge(scen.gates[name])


def _axioms(scen, report, cap, seed_offset, im_cap=None, im_tol=None):
    """Algebroid axioms, spray conditions and (for a family with an IM pair)
    its equations, at seed offsets +0, +1 and +3; +2 found the radius."""
    nm = scen.numerics
    report.merge(check_algebroid(scen.chart, samples=min(cap, nm.samples),
                                 seed=nm.seed + seed_offset), prefix="algebroid_")
    report.merge(check_spray(scen.groupoid.spray, scen.chart,
                             seed=nm.seed + seed_offset + 1), prefix="spray_")
    if scen.data is not None:
        report.merge(im_residuals(scen.chart, scen.data,
                                  samples=min(im_cap, nm.samples),
                                  seed=nm.seed + seed_offset + 3,
                                  tol=nm.tol("im_residuals", im_tol)), prefix="im_")


def _roundtrip(scen, report, seed_offset, tol):
    """Recovery of the IM pair at units (if any) and the fiber-scaling
    linearization slope; ``tol`` bounds |slope - 1|."""
    G, nm = scen.groupoid, scen.numerics
    if scen.data is not None:
        base_pts = scen.chart.sample_base_points(
            min(20, nm.samples), nm.seed + 6, scale=VALIDITY_BASE_SCALE)
        report.merge(differentiate_at_units(
            G, scen.evaluator, scen.data, base_pts,
            tol=nm.tol("units_recovery", 1e-7)))
    point = G.sample_validity_points(1, nm.seed + seed_offset,
                                     fiber_scale=0.8)[0]
    slope, _ = linearization_check(G, scen.evaluator, point)
    if slope is None:
        report.add("linearization_slope", 0.0, tol,
                   note="remainder vanishes identically (form already linear)")
    else:
        report.add("linearization_slope", abs(slope - 1.0), tol,
                   note=f"fitted slope {slope:.4f}, window [0.8, 1.2]")


# The Jacobi report states the slope tolerance as 0.2, the others as
# 1.0 - 0.8 (0.19999999999999996).
_ROUNDTRIP = (("roundtrip", _roundtrip, 7, 1.0 - 0.8),)


# ---------------------------------------------------------------------------
# Poisson


def build_symplectic_groupoid(pi, box, numerics=None, christoffel=None):
    """Local symplectic groupoid of a Poisson bivector, gated on [pi, pi] = 0,
    its fiber radius shrunk until omega is nondegenerate on the sample."""
    nm = numerics or Numerics()
    tol = nm.tol("poisson_identity", 1e-9)
    X = SplitMix64(nm.seed).uniform_rows(box, min(50, nm.samples))
    res = float(np.max(np.abs(ex.schouten(pi, pi).values(X)), initial=0.0))
    if res > tol:
        raise CompatibilityError(
            f"poisson_identity: [pi,pi] residual {res:.3e} exceeds {tol:.1e}")
    gates = {"poisson_identity": CheckReport(),
             "nondegeneracy_margin": CheckReport()}
    gates["poisson_identity"].add("poisson_identity", res, tol)
    A = cotangent_algebroid(pi, box)
    G = _groupoid(A, nm, 3, christoffel=christoffel)
    data = poisson_im_pair(A)
    evaluator = MultFormEvaluator(G, linear_form(data))
    # the solve that gives omega also gives (tau, dtau) for the realization
    for _ in range(30):
        pts = G.sample_validity_points(nm.samples, nm.seed + 8)
        acc = evaluator.omega_sum()
        end, J = G.flow_end(pts, acc)
        margin = float(np.min(np.linalg.svd(acc.value, compute_uv=False)[:, -1]))
        if margin >= NONDEGENERACY_MARGIN:
            break
        G.validity_fiber_radius *= 0.7
    gates["nondegeneracy_margin"].add_margin(
        "nondegeneracy_margin", margin, NONDEGENERACY_MARGIN,
        note=f"min singular value {margin:.3e} on the validity box")
    return Scenario(
        nm, A, G, evaluator,
        _environment("poisson", nm, G, mu_steps=nm.mu_steps,
                     mu_nodes=PRODUCT_NODES), gates,
        _POISSON_CHECKS, data=data, pi=pi,
        sample=(pts, end[:, : G.n], J[:, : G.n, :], acc.value))


def _poisson_checks(scen, report):
    """Symplectic realization, closedness and the closed form at units."""
    G, nm = scen.groupoid, scen.numerics
    # the source pushes omega^{-1} to pi, the target to -pi
    pts, tau, dtau, W = scen.sample
    push_s, push_t = _pushforwards(np.linalg.inv(W), dtau, G.n)
    pi_s = scen.pi.values(pts[:, : G.n])
    pi_t = scen.pi.values(tau)
    tol_real = nm.tol("realization", 1e-6)
    report.add("realization_source", float(np.max(np.abs(push_s - pi_s))), tol_real)
    report.add("realization_target", float(np.max(np.abs(push_t + pi_t))), tol_real)

    # closedness (the canonical linear form is constant, d Lambda = 0)
    dW = scen.evaluator.domega_full(pts[: min(20, len(pts))])
    report.add("closedness", float(np.max(np.abs(dW))), nm.tol("closedness", 1e-7))

    # units formula
    xu = G.chart.sample_base_points(10, nm.seed + 10, scale=0.5)
    Wu = scen.evaluator.omega_matrices(G.units(xu))
    # four draws of (v, a, w, b) per unit, in sampling order
    X = np.repeat(xu, 4, axis=0)
    v, a, w, b = np.moveaxis(SplitMix64(nm.seed + 9).directions(
        len(X) * 4, G.n).reshape(len(X), 4, G.n), 1, 0)
    P = scen.pi.values(X)
    pred = units_form_predictor(G.chart, scen.data.l, X, [(v, a), (w, b)])
    res_units = 0.0
    for q in range(len(X)):
        got = np.concatenate([v[q], a[q]]) @ Wu[q // 4] @ np.concatenate([w[q], b[q]])
        want = b[q] @ v[q] - a[q] @ w[q] + a[q] @ (P[q] @ b[q])
        res_units = max(res_units, abs(got - want), abs(pred[q] - want))
    report.add("units_formula", res_units, nm.tol("units_formula", 1e-8))


def _product(scen, report):
    """Multiplicativity and inversion antisymmetry of omega; associativity."""
    G, ev, nm = scen.groupoid, scen.evaluator, scen.numerics
    out = product_residuals(G, ev, nm.mult_pairs, nm.assoc_triples,
                            nm.seed + 11, nm.seed + 12, max_sweeps=nm.mu_steps)
    for name in ("multiplicativity", "inversion_antisymmetry", "associativity"):
        report.add(name, out[name], nm.tol(name, 1e-6))


# The Poisson checks before the product; nijenhuis and gcs run them too.
_POISSON_CORE = (
    _gate("poisson_identity"),
    ("axioms", _axioms, 100, 1, 60, 1e-9),
    _gate("nondegeneracy_margin"),
    ("poisson_checks", _poisson_checks),
)
_POISSON_CHECKS = _POISSON_CORE + (("product", _product),) + _ROUNDTRIP


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
    out = [[ex.ZERO] * n for _ in range(n)]
    for i, j, m in itertools.product(range(n), repeat=3):
        out[i][j] = ex.add(out[i][j], ex.mul(Amat[i][m], Bmat[m][j]))
    return out


def omega_L(pair, scenario, k=1):
    """Evaluator of the multiplicative form of the pair (-l^k, 0)."""
    data = im_pair_from_covector_map(scenario.chart, pair.lmat_power(k))
    return MultFormEvaluator(scenario.groupoid, linear_form(data))


def nijenhuis_torsion(lmat, variables):
    """Symbolic torsion of the covector map's transpose acting on vectors.

    Returns T[i][a][b]: the dx_i-component of T(e_a, e_b) as Exprs, with
    T(u,v) = [lu, lv] - l([lu, v] + [u, lv]) + l^2([u,v]).
    """
    n = len(variables)
    lv = [[lmat[j][i] for j in range(n)] for i in range(n)]  # vector action
    le = [ex.VectorField(variables, lmat[a]) for a in range(n)]  # l e_a
    T = [[[ex.ZERO] * n for _ in range(n)] for _ in range(n)]
    for a in range(n):
        for b in range(n):
            for i in range(n):
                lie = ex.sub(le[a].apply_to(lv[i][b]), le[b].apply_to(lv[i][a]))
                # [l e_a, e_b]^j = -d_b (lv[j][a]);  [e_a, l e_b]^j = d_a (lv[j][b])
                corr = ex.ZERO
                for j in range(n):
                    inner = ex.sub(ex.partial(lv[j][b], variables[a]),
                                   ex.partial(lv[j][a], variables[b]))
                    corr = ex.add(corr, ex.mul(lv[i][j], inner))
                T[i][a][b] = ex.sub(lie, corr)
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
    base = im_pair_from_covector_map(chart, l2)
    nus = torsion_nu_fields(pair.lmat, chart.xs)
    return IMFormData(chart, 2, base.l, nus)


def omega_L2(pair, scenario):
    """Evaluator of omega_{L^2}, the form of the pair (-l^2, -T_l)."""
    return MultFormEvaluator(scenario.groupoid,
                             linear_form(omega_L2_pair(pair, scenario.chart)))


def L_tensor(scenario, ev_omega_L, P):
    """L with omega(L u, v) = omega_L(u, v): W^{-1} W_L from one solve."""
    W, WL = scenario.evaluator.omega_sum(), ev_omega_L.omega_sum()
    scenario.groupoid.flow_end(P, W, WL)
    return np.linalg.solve(W.value, WL.value)


def torsion_identity_check(scenario, pair, evL, evL2, samples=10, seed=606,
                           tol=1e-6):
    """Residual of the interior-product torsion identity on the groupoid.

    With Omega = omega and A = L (both quadrature-backed; ``evL`` and
    ``evL2`` evaluate omega_L and omega_{L^2} of ``pair``), checks

      i_{T_L(u,v)} omega = (i_v i_{Lu} + i_{Lv} i_u) d omega_L
                           - i_{Lv} i_{Lu} d omega - i_v i_u d omega_{L^2}

    at sampled points and random vectors; T_L comes from the complex step
    (``flow.complex_step``) of the L field, which is analytic: two
    quadratures and a solve.  Also reports || d omega_{L^2} || when the
    symbolic torsion vanishes.  The forms at the sample come from one
    tangent-flow solve, the L field along all four directions from one more,
    on 4 x samples complex rows.
    """
    G, ev = scenario.groupoid, scenario.evaluator
    pts = G.sample_validity_points(samples, seed, fiber_scale=0.6)
    sums = (ev.omega_sum(), evL.omega_sum(), ev.domega_sum(),
            evL.domega_sum(), evL2.domega_sum())
    G.flow_end(pts, *sums)
    W, WL, dW, dWL, dWL2 = (s.value for s in sums)
    Lmats = np.linalg.solve(W, WL)

    report = CheckReport()
    uv = SplitMix64(seed).directions(len(pts) * 2, G.dim).reshape(
        len(pts), 2, G.dim)
    dirs = np.array([(L @ u, L @ v, u, v) for L, (u, v) in zip(Lmats, uv)])
    # directional derivatives of L along Lu, Lv, u, v: (B, 4, d, d)
    dL = complex_step(lambda Q: L_tensor(scenario, evL, Q), pts, dirs)
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
    return report


def pi_pushforwards_residual(scenario, pair, evL, samples=30, seed=717):
    """max over k <= 2 of || dsigma Pi_{L^k} dsigma^T - pi_{l^k} || (and tau).

    ``evL`` evaluates omega_L; omega, L and (tau, dtau) come from one solve.
    """
    G = scenario.groupoid
    pts = G.sample_validity_points(samples, seed, fiber_scale=0.7)
    om, omL = scenario.evaluator.omega_sum(), evL.omega_sum()
    end, J = G.flow_end(pts, om, omL)
    Q = np.linalg.inv(om.value)
    Lmats = np.linalg.solve(om.value, omL.value)
    tau, dtau = end[:, : G.n], J[:, : G.n, :]
    base = pts[:, : G.n]
    l_s, l_t = pair.l_covector_matrices(base), pair.l_covector_matrices(tau)
    pi_s, pi_t = scenario.pi.values(base), scenario.pi.values(tau)
    res = 0.0
    for k in range(3):
        Lk = np.linalg.matrix_power(Lmats, k)
        push_s, push_t = _pushforwards(np.matmul(Lk, Q), dtau, G.n)
        want_s = np.linalg.matrix_power(np.swapaxes(l_s, 1, 2), k) @ pi_s
        want_t = np.linalg.matrix_power(np.swapaxes(l_t, 1, 2), k) @ pi_t
        res = max(res, float(np.max(np.abs(push_s - want_s))),
                  float(np.max(np.abs(push_t + want_t))))
    return res


def omega_Lk_two_ways(scenario, pair, k, samples=15, seed=808):
    """Compare the Lambda-route and the pointwise-pullback route for omega_{L^k}.

    Route A integrates the linear form of (-l^k, 0).  Route B pulls the
    canonical 2-form back through the numeric Jacobian of the bundle map
    (x, y) -> (x, l^k y) composed with the flow, sharing no form machinery
    with route A.  Both routes read one tangent-flow solve.
    """
    G = scenario.groupoid
    evA = omega_L(pair, scenario, k=k)
    pts = G.sample_validity_points(samples, seed, fiber_scale=0.7)

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

    def route_b(j, node):
        z, J = node.z.T, node.J.transpose(2, 0, 1)
        # d(ell^k): [[I, 0], [sum_j dM_ij y_j, M]]
        Dmap = np.zeros((B, 2 * n, 2 * n))
        Dmap[:, :n, :n] = np.eye(n)
        Dmap[:, n:, :n] = np.einsum("bijc,bj->bic",
                                    dlk_fn(z[:, :n]).reshape(B, n, n, n),
                                    z[:, n:])
        Dmap[:, n:, n:] = lk_fn(z[:, :n]).reshape(B, n, n)
        pulled = tn.pullback_full_batch(np.matmul(Dmap, J), W0, 2)
        WB[...] += G.rule.weights[j] * pulled

    route_a = evA.omega_sum()
    G.flow_end(pts, route_a, route_b)
    return float(np.max(np.abs(route_a.value - WB)))


def build_nijenhuis(pi, l, box, numerics=None):
    """Symplectic-Nijenhuis scenario: the Poisson scenario plus the pair.

    The pair must be genuinely infinitesimally multiplicative: the bivector
    symmetry pi(l a, b) = pi(a, l b) and the bracket covariance are gated
    here, since every downstream claim (the L tensor covering l, the
    pushforward family) is a theorem only for valid pairs.  Use the
    standalone ``omega_L`` / ``torsion_identity_check`` / ``holomorphic_check``
    helpers to exercise the machinery on raw covector maps.
    """
    scen = build_symplectic_groupoid(pi, box, numerics=numerics)
    nm = scen.numerics
    gate = im_residuals(scen.chart,
                        im_pair_from_covector_map(scen.chart, l),
                        samples=min(60, nm.samples), seed=nm.seed + 21,
                        tol=nm.tol("pair_im_residuals", 1e-8))
    if not gate.all_passed:
        worst = gate.worst()
        raise CompatibilityError(
            f"nijenhuis pair invariant {worst.name} fails "
            f"(residual {worst.residual:.3e})")
    return replace(scen, environment={**scen.environment, "kind": "nijenhuis"},
                   gates={**scen.gates, "pair_invariants":
                          CheckReport().merge(gate, prefix="pair_")},
                   checks=_NIJENHUIS_CHECKS, pair=NijenhuisPair(pi, l))


def _nijenhuis_checks(scen, report):
    """The L tensor covering l, its torsion identity, the pushforward family
    and omega_{L^2}, with one tangent-flow solve per sample set."""
    G, nm, pair, n = scen.groupoid, scen.numerics, scen.pair, scen.chart.n
    evL, evL2 = omega_L(pair, scen), omega_L2(pair, scen)
    # L at units is block-diagonal (vector action, covector action)
    xu = scen.chart.sample_base_points(8, nm.seed + 22, scale=0.5)
    Lu = L_tensor(scen, evL, G.units(xu))
    lm = pair.l_covector_matrices(xu)
    want = np.zeros_like(Lu)
    want[:, :n, :n] = np.swapaxes(lm, 1, 2)
    want[:, n:, n:] = lm
    report.add("L_units_block", float(np.max(np.abs(Lu - want))),
               nm.tol("L_units_block", 1e-7))

    # dsigma o L = l o dsigma reduces to the first n rows of L; the same
    # solve serves omega_L2_pointwise below
    pts = G.sample_validity_points(20, nm.seed + 23, fiber_scale=0.7)
    sums = (scen.evaluator.omega_sum(), evL.omega_sum(), evL2.omega_sum())
    G.flow_end(pts, *sums)
    W, WL, WL2 = (s.value for s in sums)
    Lm = np.linalg.solve(W, WL)
    lv = np.swapaxes(pair.l_covector_matrices(pts[:, :n]), 1, 2)
    res_sigma = max(float(np.max(np.abs(Lm[:, :n, :n] - lv))),
                    float(np.max(np.abs(Lm[:, :n, n:]))))
    report.add("L_sigma_related", res_sigma, nm.tol("L_sigma_related", 1e-6))

    report.merge(torsion_identity_check(
        scen, pair, evL, evL2, samples=min(10, nm.samples),
        seed=nm.seed + 24, tol=nm.tol("torsion_identity", 1e-6)))
    report.add("pi_pushforwards",
               pi_pushforwards_residual(scen, pair, evL, seed=nm.seed + 25),
               nm.tol("pi_pushforwards", 1e-6))
    report.add("omega_Lk_two_ways",
               max(omega_Lk_two_ways(scen, pair, 1, seed=nm.seed + 26),
                   omega_Lk_two_ways(scen, pair, 2, seed=nm.seed + 27)),
               nm.tol("omega_Lk_two_ways", 1e-7))

    # recovery of (-l^2, -T_l) at units from omega_{L^2}
    report.merge(differentiate_at_units(
        G, evL2, omega_L2_pair(pair, scen.chart),
        scen.chart.sample_base_points(10, nm.seed + 28, scale=0.5),
        tol=nm.tol("L2_units_recovery", 1e-6)), prefix="L2_")

    # pointwise agreement omega_{L^2}(u, v) = omega(L^2 u, v)
    res_pw = float(np.max(np.abs(WL2 - np.matmul(
        np.swapaxes(np.matmul(Lm, Lm), -1, -2), W))))
    report.add("omega_L2_pointwise", res_pw, nm.tol("omega_L2_pointwise", 1e-6))


_NIJENHUIS_CHECKS = _POISSON_CORE + _ROUNDTRIP + (
    _gate("pair_invariants"), ("nijenhuis_checks", _nijenhuis_checks))


def holomorphic_check(scenario, pair, numerics=None):
    """|| omega_{J^2} + omega || for a pair with j^2 = -Id (numeric gate)."""
    nm = numerics or scenario.numerics
    G = scenario.groupoid
    pts = G.sample_validity_points(min(50, nm.samples), nm.seed + 31,
                                   fiber_scale=0.8)
    om, omJ2 = scenario.evaluator.omega_sum(), omega_L(pair, scenario, k=2).omega_sum()
    G.flow_end(pts, om, omJ2)
    return float(np.max(np.abs(omJ2.value + om.value)))


# ---------------------------------------------------------------------------
# Generalized complex


def build_gcs(pi, l, varpi, box, numerics=None):
    """Generalized-complex scenario of the triple (pi, l, varpi); if the
    prechecks the identity rests on fail, only they are reported."""
    nm = numerics or Numerics()
    n = pi.dim
    xs = base_vars(n)
    dvarpi = varpi.d()
    T = nijenhuis_torsion(l, xs)
    # varpi_l(u, v) = varpi(l u, v); on frames (varpi_l)_{ab} =
    # sum_i lv[i][a] varpi_{ib} with lv[i][a] = l[a][i]
    varpi_l_comps = {}
    for a in range(n):
        for b in range(a + 1, n):
            total = ex.ZERO
            for i in range(n):
                if i == b:
                    continue
                W_ib = varpi.component((i, b)) if i < b else \
                    ex.neg(varpi.component((b, i)))
                total = ex.add(total, ex.mul(l[a][i], W_ib))
            varpi_l_comps[(a, b)] = total
    varpi_l = ex.FormField(xs, 2, varpi_l_comps)
    dvarpi_l = varpi_l.d()

    X = SplitMix64(nm.seed + 40).uniform_rows(box, min(30, nm.samples))
    L = NijenhuisPair(pi, l).l_covector_matrices(X)
    lv = np.swapaxes(L, 1, 2)
    Tv = ex.batch_values([T[i][a][b] for i in range(n) for a in range(n)
                          for b in range(n)], xs, X, (n, n, n))
    P = pi.values(X)
    Wv = tn.comps_to_full_batch(varpi.values(X), n, 2)
    dW = tn.comps_to_full_batch(dvarpi.values(X), n, 3)
    dWl = tn.comps_to_full_batch(dvarpi_l.values(X), n, 3)
    res_alg = float(np.max(np.abs(L @ L + Wv @ P + np.eye(n))))
    res_commute = float(np.max(np.abs(L @ Wv - Wv @ lv)))
    # T(e_a, e_b) against P^T dW[a, b], both indexed (row, a, b, i)
    want = (np.swapaxes(P, 1, 2)[:, None, None] @ dW[..., None])[..., 0]
    res_tors = float(np.max(np.abs(np.moveaxis(Tv, 1, 3) - want)))
    cyc = (np.einsum("zia,zibc->zabc", lv, dW)
           + np.einsum("zjb,zajc->zabc", lv, dW)
           + np.einsum("zkc,zabk->zabc", lv, dW))
    res_dcyc = float(np.max(np.abs(dWl - cyc)))

    tol_pre = nm.tol("gcs_prechecks", 1e-9)
    # The two-form identity is equivalent to the first two relations; the
    # commutation and cyclic conditions complete the definition of the
    # triple but do not gate the identity.
    prechecks = CheckReport()
    gate1 = prechecks.add("gcs_algebraic_relation", res_alg, tol_pre)
    gate2 = prechecks.add("gcs_torsion_relation", res_tors, tol_pre)
    prechecks.add("gcs_l_varpi_commute", res_commute, tol_pre)
    prechecks.add("gcs_dvarpi_cyclic", res_dcyc, tol_pre)
    gates = {"gcs_prechecks": prechecks}
    if not (gate1.passed and gate2.passed):
        prechecks.note("algebraic prechecks failed; main identity skipped")
        env = {"kind": "gcs", "n_quad": nm.n_quad, "samples": nm.samples,
               "seed": nm.seed}
        return Scenario(nm, None, None, None, env, gates, _GCS_CHECKS[:1])
    scen = build_symplectic_groupoid(pi, box, numerics=nm)
    return replace(scen, environment=_environment("gcs", nm, scen.groupoid),
                   gates={**scen.gates, **gates}, checks=_GCS_CHECKS,
                   pair=NijenhuisPair(pi, l), varpi=varpi)


def gcs_identity_check(scenario, report):
    """max |omega + omega_{L^2} - (tau* varpi - sigma* varpi)| at the
    validity sample; every form and tau come from one tangent-flow solve."""
    G, nm = scenario.groupoid, scenario.numerics
    pts = G.sample_validity_points(nm.samples, nm.seed + 41, fiber_scale=0.7)
    om = scenario.evaluator.omega_sum()
    omL2 = omega_L2(scenario.pair, scenario).omega_sum()
    end, J = G.flow_end(pts, om, omL2)
    lhs = om.value + omL2.value
    rhs = _relative_pullback(G, scenario.varpi, pts, end, J)
    report.add("gcs_identity", float(np.max(np.abs(lhs - rhs))),
               nm.tol("gcs_identity", 1e-6))


# ``base`` reports the Poisson checks without the product as ``base_*``
_GCS_CHECKS = (_gate("gcs_prechecks"), ("gcs_identity", gcs_identity_check),
               ("base", lambda scen, report: report.merge(run_checks(
                   replace(scen, checks=_POISSON_CORE + _ROUNDTRIP)),
                   prefix="base_")))


# ---------------------------------------------------------------------------
# Dirac


def build_dirac(sections, H, box, numerics=None):
    """Presymplectic groupoid of the Dirac structure spanned by ``sections``,
    twisted by the closed 3-form H; ``run_checks`` checks it."""
    nm = numerics or Numerics()
    A = dirac_algebroid(sections, H, box, seed=nm.seed + 50)
    G = _groupoid(A, nm, 53)
    data = dirac_im_pair(A)
    return Scenario(nm, A, G, MultFormEvaluator(G, linear_form(data)),
                    _environment("dirac", nm, G), {}, _DIRAC_CHECKS,
                    data=data, H=H)


def dirac_checks(scenario, report):
    """Relative H-closedness, robustness margin, forward-Dirac image."""
    nm, G, A = scenario.numerics, scenario.groupoid, scenario.chart
    seed = nm.seed + 55
    pts = G.sample_validity_points(nm.samples, seed, fiber_scale=0.7)

    n, d = G.n, G.dim
    # one tangent-flow solve serves d omega, omega and (tau, dtau)
    dW, W = scenario.evaluator.domega_sum(), scenario.evaluator.omega_sum()
    end, J = G.flow_end(pts, dW, W)
    dW, W = dW.value, W.value
    dtau = J[:, :n, :]
    rhs = _relative_pullback(G, scenario.H, pts, end, J)
    report.add("relative_H_closedness", float(np.max(np.abs(dW - rhs))),
               nm.tol("relative_H_closedness", 1e-6))

    dsig = np.eye(n, d)
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
        ang = _subspace_angles(img, L_pts[b].T)
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


_DIRAC_CHECKS = (
    ("axioms", _axioms, 60, 51, 40, 1e-8),
    ("dirac_checks", dirac_checks),
) + _ROUNDTRIP


# ---------------------------------------------------------------------------
# Jacobi


def build_jacobi(pi, R, box, numerics=None):
    """Contact groupoid of the trivialized Jacobi structure (pi, R), with the
    transport-weighted form; ``run_checks`` checks it."""
    nm = numerics or Numerics()
    A = jacobi_algebroid(pi, R, box, seed=nm.seed + 60)
    G = _groupoid(A, nm, 63)
    evaluator = MultFormEvaluator(G, jacobi_linear_form(A),
                                  weight_cocycle=jacobi_cocycle(A))
    return Scenario(nm, A, G, evaluator,
                    _environment("jacobi", nm, G), {}, _JACOBI_CHECKS, pi=pi)


def _jacobi_closed_form(scenario, pts):
    """Closed-form omega for n = 1, pi = 0, R = c d/dx; None otherwise."""
    A = scenario.chart
    if A.n != 1 or scenario.pi.components:
        return None
    Rc = A.frame["R"].components[0]
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


def jacobi_checks(scenario, report):
    """Spencer Leibniz rule, closed form, contact margin, units kernel and
    transport consistency."""
    nm, G, A = scenario.numerics, scenario.groupoid, scenario.chart
    n = A.n
    report.add("spencer_leibniz",
               ScalarSpencer(A).leibniz_residual(seed=nm.seed + 64),
               nm.tol("spencer_leibniz", 1e-12))
    report.note("general Spencer compatibility for nontrivial coefficients "
                "is assumed for the canonical first-jet operator")
    seed = nm.seed + 65
    pts = G.sample_validity_points(min(40, nm.samples), seed, fiber_scale=0.7)

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
    res_ker = res_l = 0.0
    basis = np.delete(np.eye(G.dim), n, axis=1)   # all but the u slot
    xu = A.sample_base_points(8, seed + 3, scale=0.5)
    for omu in scenario.evaluator.omega_full(G.units(xu)):
        res_l = max(res_l, abs(omu[n] - 1.0),
                    float(np.max(np.abs(np.delete(omu, n)))))
        ang = _subspace_angles(_null_space(omu[None, :]), basis)
        res_ker = max(res_ker, float(np.max(ang)) if ang.size else 0.0)
    report.add("units_kernel_angles", res_ker, nm.tol("units_kernel", 1e-5))
    report.add("units_recover_pr", res_l, nm.tol("units_recover_pr", 1e-8))

    # transport/cocycle consistency on the quadrature grid
    report.add("cocycle_weight_consistency",
               float(np.max(np.abs(np.exp(-cocycle) - transport_end))),
               nm.tol("cocycle_weight", 1e-10))


_JACOBI_CHECKS = (
    ("axioms", _axioms, 60, 61),
    ("jacobi_checks", jacobi_checks),
    ("roundtrip", _roundtrip, 69, 0.2),
)


# ---------------------------------------------------------------------------
# Raw algebroids


def build_raw_algebroid(chart, numerics=None):
    """Spray groupoid of an algebroid given by its anchor and structure
    functions; ``run_checks`` checks the algebroid and the spray."""
    nm = numerics or Numerics()
    G = _groupoid(chart, nm, 3)
    env = {"kind": "raw_algebroid", "seed": nm.seed, "n_quad": nm.n_quad,
           "validity_box": G.validity_box().tolist()}
    return Scenario(nm, chart, G, None, env, {},
                    (("axioms", _axioms, 100, 1),))


# Each config kind's builder, required and optional coefficients: the one
# source of the config schema's kind clauses, whose coefficients are exactly
# these, and of the coefficients ``cli.parse_config`` reads.
KINDS = {"poisson": (build_symplectic_groupoid, ["pi"], ["christoffel"]),
         "nijenhuis": (build_nijenhuis, ["pi", "l"], []),
         "gcs": (build_gcs, ["pi", "l", "varpi"], []),
         "dirac": (build_dirac, ["sections"], ["H"]),
         "jacobi": (build_jacobi, ["pi", "R"], []),
         "raw_algebroid": (build_raw_algebroid, ["rank", "anchor", "c"], [])}


def build(kind, numerics, inputs):
    """Scenario of a config kind from its builder's keyword inputs."""
    return KINDS[kind][0](numerics=numerics, **inputs)


# ---------------------------------------------------------------------------
# Convergence studies


def convergence_study(chart, spray, form, points, levels=None,
                      weight_cocycle=None, reference=None):
    """Errors and fitted order of the quadrature form along a resolution ladder.

    ``levels`` is a list of (n_quad, substeps) pairs; the effective step is
    h = 1 / (n_quad * substeps).  Errors are measured against ``reference``
    values (same shape as the form output) when given, else against the
    finest ladder level, which is then excluded from the order fit, as is
    every level whose error is roundoff (see CONVERGENCE_ROUNDOFF).  Returns
    a list of rows {n_quad, substeps, h, error} plus the fitted order.  A
    library error raised on a rung names the rung.
    """
    levels = levels or [(16, 1), (32, 1), (64, 1), (128, 1)]
    points = np.atleast_2d(points)
    values = []
    for n_quad, substeps in levels:
        with _named(f"convergence rung {n_quad}x{substeps}"):
            G = SprayGroupoid(chart, spray, n_quad=n_quad, substeps=substeps)
            ev = MultFormEvaluator(G, form, weight_cocycle=weight_cocycle)
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
    floor = CONVERGENCE_ROUNDOFF * np.finfo(np.float64).eps * np.max(np.abs(ref))
    good = errs > floor
    if int(np.sum(good)) >= 2:
        order = float(np.polyfit(np.log(hs[good]), np.log(errs[good]), 1)[0])
    else:
        order = float("inf")  # errors at roundoff on every level
    return rows, order
