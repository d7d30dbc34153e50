"""Finite-difference Riemann curvature of a metric given pointwise.

Central differences with one Richardson extrapolation at step 1e-3,
which balances truncation against cancellation at double precision for
curvature tolerances around 1e-4.  The oracle is validated on the round
sphere and the hyperbolic plane before being trusted on any pulled-back
or rescaled metric.

Every `metric` argument is a callable from the coordinate point x (a
float ndarray of length n) to the raw (n, n) ndarray of components, as
`spacetime.chart_metric` gives; a 3-D fit calls it 169 times, so it
should check only its domain.  A DomainError it raises propagates.
"""

from __future__ import annotations

import numpy as np


def _richardson_diff(f, x, k, h):
    """d f / d x_k by central differences, Richardson-extrapolated once."""
    def central(step):
        xp, xm = np.array(x, dtype=float), np.array(x, dtype=float)
        xp[k] += step
        xm[k] -= step
        return (f(xp) - f(xm)) / (2.0 * step)

    d1 = central(h)
    d2 = central(h / 2.0)
    return (4.0 * d2 - d1) / 3.0


def metric_derivatives(metric, x, h=1e-3):
    """dg[k, i, j] = d g_ij / d x_k."""
    x = np.asarray(x, dtype=float)
    n = len(x)
    return np.array([_richardson_diff(metric, x, k, h) for k in range(n)])


def _centre(metric, x):
    """g = metric(x), evaluated once per fit and passed down."""
    return np.asarray(metric(np.asarray(x, dtype=float)), dtype=float)


def christoffel(metric, x, h=1e-3, _g=None):
    """Gamma^k_{ij} of the metric at x; _g is metric(x), if already known."""
    g = _centre(metric, x) if _g is None else _g
    ginv = np.linalg.inv(g)
    dg = metric_derivatives(metric, x, h)
    # Gamma^k_ij = 1/2 g^{kl} (d_i g_lj + d_j g_li - d_l g_ij)
    term = np.einsum("ilj->lij", dg) + np.einsum("jli->lij", dg) - dg
    return 0.5 * np.einsum("kl,lij->kij", ginv, term)


def riemann(metric, x, h=1e-3, _g=None):
    """Lowered tensor R[i, j, k, l] = <R(e_i, e_j) e_k, e_l>.

    Convention: R(X, Y) = nabla_X nabla_Y - nabla_Y nabla_X -
    nabla_[X, Y]; constant curvature kappa means
    R_{ijkl} = kappa (g_{jk} g_{il} - g_{ik} g_{jl}).  _g is metric(x),
    if already known.
    """
    x = np.asarray(x, dtype=float)
    n = len(x)
    g = _centre(metric, x) if _g is None else _g
    gam = christoffel(metric, x, h, _g=g)
    dgam = np.array([_richardson_diff(lambda y: christoffel(metric, y, h), x, k, h)
                     for k in range(n)])
    # R^l_{kij} = d_i Gamma^l_{jk} - d_j Gamma^l_{ik}
    #             + Gamma^l_{im} Gamma^m_{jk} - Gamma^l_{jm} Gamma^m_{ik}
    # as r_up[l, k, i, j]; the Gamma Gamma terms are one matrix product,
    # whose sums over m are bitwise those of per-entry np.dot (einsum's are not)
    prod = (gam.reshape(n * n, n) @ gam.reshape(n, n * n)).reshape(n, n, n, n)
    r_up = (dgam.transpose(1, 3, 0, 2) - dgam.transpose(1, 3, 2, 0)
            + prod.transpose(0, 3, 1, 2) - prod.transpose(0, 3, 2, 1))
    # lower: R_{ijkl} = g_{lm} R^m_{kij}
    r = np.einsum("lm,mkij->ijkl", g, r_up)
    return r


def sectional_curvature(metric, x, plane=(0, 1), h=1e-3):
    """Sectional curvature of the coordinate plane (i, j) at x."""
    i, j = plane
    g = _centre(metric, x)
    r = riemann(metric, x, h, _g=g)
    denom = g[i, i] * g[j, j] - g[i, j] ** 2
    return r[i, j, j, i] / denom


def constant_curvature_fit(metric, x, h=1e-3):
    """(kappa, residual): least-squares constant-curvature coefficient
    and the relative misfit of the full Riemann tensor."""
    g = _centre(metric, x)
    r = riemann(metric, x, h, _g=g)
    pattern = np.einsum("jk,il->ijkl", g, g) - np.einsum("ik,jl->ijkl", g, g)
    num = float(np.sum(r * pattern))
    den = float(np.sum(pattern * pattern))
    kappa = num / den
    resid = float(np.max(np.abs(r - kappa * pattern)) /
                  max(np.max(np.abs(pattern)), 1e-30))
    return kappa, resid


def sphere_metric(x):
    """Round unit sphere, coordinates (theta, phi)."""
    th = x[0]
    return np.diag([1.0, np.sin(th) ** 2])


def hyperbolic_metric(x):
    """Upper half-plane, coordinates (x, y)."""
    y = x[1]
    return np.diag([1.0 / y ** 2, 1.0 / y ** 2])
