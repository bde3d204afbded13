"""The product by a second method, and d mu two ways: the complex step of
``groupoid.product_residuals`` on its own, and the 4th-order stencil that
the tests compare it with.  The stencil, ``central_difference``, is also the
reference for the package's other complex steps (``flow.complex_step``).

``rk4_product`` solves the multiplication ODE by classical RK4 with a fixed
step count, one tangent-flow solve per stage: the reference that the
collocation product of ``groupoid.multiply_poisson`` is measured against.
``collocation_product`` solves the same collocation equations as
``multiply_poisson`` on one level: Picard sweeps on the groupoid's own time
rule from b at every node, each flying every node of every active row.

``differential_of_multiplication`` builds the complex-step rows with
``groupoid._complex_step_rows`` and multiplies them in one
``multiply_poisson`` call, as ``product_residuals`` does.

The stencil is the independent reference.
Each offset runs along an exactly composable curve: a_s = a + s v, and b_s
Newton-corrected so that tau(b_s) = sigma(a_s) to machine precision (the
correction is O(s^2), so it does not disturb the derivative; on the already
composable centre rows it is a no-op).  Its error is the stencil's own,
O(h^4) truncation plus roundoff amplified by 1/h.
"""

import numpy as np

from sprayform import groupoid
from sprayform.flow import COMPLEX_STEP
from sprayform.groupoid import multiply_poisson

STEP = 1e-4
_STENCIL = ((-2, 1.0 / 12), (-1, -8.0 / 12), (1, 8.0 / 12), (2, -1.0 / 12))


def central_difference(f, X, V, h):
    """f(X) and the 4th-order central differences of f along V.

    X is (B, n) and V (B, D, n).  ``f`` maps rows to rows and is called
    once, on X followed by every offset X + (c h) V[:, j], direction-major.
    Returns f(X) (B, ...) and sum_c (coef_c / h) f(X + c h V) for each
    direction (B, D, ...).  Its error is about h^4 |f^(5)| from truncation
    plus eps |f| / h from roundoff.
    """
    B, D = V.shape[:2]
    values = f(np.concatenate([X] + [X + (c * h) * V[:, j] for j in range(D)
                                     for c, _ in _STENCIL]))
    shifted = values[B:].reshape((D, len(_STENCIL), B) + values.shape[1:])
    deriv = np.zeros((B, D) + values.shape[1:])
    for k, (_, coef) in enumerate(_STENCIL):
        deriv += (coef / h) * np.swapaxes(shifted[:, k], 0, 1)
    return values[:B], deriv


def rk4_product(G, evaluator, a, b, n_steps):
    """mu(a, b) by RK4 with ``n_steps`` steps on the multiplication ODE
    dk/dt = solve(W_k, dtau_k^T p_t), k_0 = b, for composable (B, d)
    batches; p_t, the fiber of phi^t(a), comes from one flow of a on the
    stage grid (spacing 1 / (2 n_steps)), and each stage makes one
    tangent-flow solve at the current k, real or complex."""
    a, b = np.asarray(a), np.asarray(b)
    n = G.n
    stage_grid = np.linspace(0.0, 1.0, 2 * n_steps + 1)
    p_stage = []
    G.engine.flow_on_grid(a, stage_grid, G.rule.substeps,
                          lambda k, node: p_stage.append(node.z[n:].T.copy()))

    def rhs(k_pts, stage_idx):
        acc = evaluator.omega_sum()
        _, J = G.flow_end(k_pts, acc)
        groupoid._check_conditioning(acc.value, k_pts, groupoid.COND_BOUND)
        beta = np.einsum("baj,ba->bj", J[:, :n, :], p_stage[stage_idx])
        return np.linalg.solve(acc.value, beta[..., None])[..., 0]

    h = 1.0 / n_steps
    k = b.astype(np.result_type(a, b, np.float64))
    for step in range(n_steps):
        s0 = 2 * step
        k1 = rhs(k, s0)
        k2 = rhs(k + 0.5 * h * k1, s0 + 1)
        k3 = rhs(k + 0.5 * h * k2, s0 + 1)
        k4 = rhs(k + h * k3, s0 + 2)
        k = k + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return k


def collocation_product(G, evaluator, a, b, max_sweeps=32):
    """mu(a, b) by Picard sweeps of the Gauss collocation equations
    k_i = b + sum_j S_ij f(k_j, t_j) on ``G.rule`` alone, for composable
    (B, d) batches: each row sweeps until its update at the nodes and at
    t = 1 is at most ``PICARD_BOUND`` (real parts, and imaginary parts
    over ``COMPLEX_STEP``), and a row still active after ``max_sweeps``
    sweeps raises AssertionError."""
    a, b = np.asarray(a), np.asarray(b)
    dtype = np.result_type(a, b, np.float64)
    a, b = a.astype(dtype), b.astype(dtype)
    n, d = G.n, G.dim
    t, S = groupoid._collocation(groupoid.PRODUCT_NODES)
    m = len(t)
    p = G.rule.flight(G.engine, a, t)[..., n:]
    Y = np.repeat(b[None], m + 1, axis=0)
    active = np.arange(len(b))
    for _ in range(max_sweeps):
        k = len(active)
        K = Y[:m, active].reshape(m * k, d)
        acc = evaluator.omega_sum()
        _, J = G.flow_end(K, acc)
        groupoid._check_conditioning(acc.value, K, groupoid.COND_BOUND)
        beta = np.einsum("baj,ba->bj", J[:, :n, :],
                         p[:, active].reshape(m * k, n))
        F = np.linalg.solve(acc.value, beta[..., None]).reshape(m, k, d)
        new = b[active] + sum(S[:, j, None, None] * F[j] for j in range(m))
        step = new - Y[:, active]
        update = np.max(np.maximum(abs(step.real),
                                   abs(step.imag) / COMPLEX_STEP), axis=(0, 2))
        Y[:, active] = new
        active = active[update > groupoid.PICARD_BOUND]
        if not len(active):
            return Y[m]
    raise AssertionError(f"rows {active} did not converge in {max_sweeps} sweeps")


def differential_of_multiplication(G, evaluator, a, b, tangent_pairs,
                                   max_sweeps=32):
    """mu(a, b) and [d mu(v, w) for each pair] at (a, b) on composable
    tangent pairs (v, w), dtau(w) = dsigma(v): one complex row per pair and
    point, all in one ``multiply_poisson`` call."""
    products = multiply_poisson(
        G, evaluator, *groupoid._complex_step_rows(a, b, tangent_pairs),
        max_sweeps=max_sweeps)
    dmu = products.imag.reshape(-1, len(a), G.dim) / COMPLEX_STEP
    return products[: len(a)].real, list(dmu)


def inverse(G, P):
    """The groupoid inverse of the points P: the end of the time-1 flow
    with its fiber negated."""
    end = G.engine.flow_on_grid(P, G.rule.nodes, G.rule.substeps)
    end[:, G.n:] *= -1.0
    return end


def newton_composable(G, a_base, b_guess, iters=3, tol=1e-13):
    """Correct b so that tau(b) = a_base, batched."""
    b = b_guess.copy()
    for _ in range(iters):
        end, J = G.flow_end(b)
        res = a_base - end[:, : G.n]
        if float(np.max(np.abs(res))) < tol:
            break
        b = b + np.einsum("bja,ba->bj", np.linalg.pinv(J[:, : G.n]), res)
    return b


def stencil_differential(G, evaluator, a, b, tangent_pairs, max_sweeps=32,
                         h=STEP):
    """mu(a, b) and [d mu(v, w) for each pair] by the central difference."""
    d = G.dim

    def product(rows):
        a_s = rows[:, :d]
        return multiply_poisson(
            G, evaluator, a_s, newton_composable(G, a_s[:, : G.n], rows[:, d:]),
            max_sweeps=max_sweeps)

    V = np.stack([np.hstack([v, w]) for v, w in tangent_pairs], axis=1)
    mu, dmu = central_difference(product, np.hstack([a, b]), V, h)
    return mu, list(np.swapaxes(dmu, 0, 1))
