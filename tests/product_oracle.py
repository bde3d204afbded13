"""d mu two ways: the complex step of ``groupoid.product_residuals`` on its
own, and the 4th-order stencil that the tests compare it with.  The stencil,
``central_difference``, is also the reference for the package's other
complex steps (``flow.complex_step``).

``differential_of_multiplication`` builds the complex-step rows with
``groupoid._complex_step_rows`` and multiplies them in one
``groupoid._multiply_rows`` call, as ``product_residuals`` does.

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


def differential_of_multiplication(G, evaluator, a, b, tangent_pairs,
                                   n_steps=32):
    """mu(a, b) and [d mu(v, w) for each pair] at (a, b) on composable
    tangent pairs (v, w), dtau(w) = dsigma(v): one complex row per pair and
    point, all in one ``multiply_poisson`` call."""
    (products,) = groupoid._multiply_rows(
        G, evaluator, [groupoid._complex_step_rows(a, b, tangent_pairs)],
        n_steps)
    dmu = products.imag.reshape(-1, len(a), G.dim) / COMPLEX_STEP
    return products[: len(a)].real, list(dmu)


def newton_composable(G, a_base, b_guess, iters=3, tol=1e-13):
    """Correct b so that tau(b) = a_base, batched."""
    b = b_guess.copy()
    for _ in range(iters):
        tau_b, dtau = G.tau_with_jacobian(b)
        res = a_base - tau_b
        if float(np.max(np.abs(res))) < tol:
            break
        b = b + np.einsum("bja,ba->bj", np.linalg.pinv(dtau), res)
    return b


def stencil_differential(G, evaluator, a, b, tangent_pairs, n_steps=32,
                         h=STEP):
    """mu(a, b) and [d mu(v, w) for each pair] by the central difference."""
    d = G.dim

    def product(rows):
        a_s = rows[:, :d]
        return multiply_poisson(
            G, evaluator, a_s, newton_composable(G, a_s[:, : G.n], rows[:, d:]),
            n_steps=n_steps)

    V = np.stack([np.hstack([v, w]) for v, w in tangent_pairs], axis=1)
    mu, dmu = central_difference(product, np.hstack([a, b]), V, h)
    return mu, list(np.swapaxes(dmu, 0, 1))
