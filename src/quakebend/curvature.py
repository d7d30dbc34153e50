"""Constant-curvature fit of a metric given pointwise, from its
finite-difference Riemann tensor.

Central differences with one Richardson extrapolation at step STEP,
which balances truncation against cancellation at double precision for
curvature tolerances around 1e-4.  The tests validate the fit on the
round sphere and the hyperbolic plane before trusting it on any
pulled-back or rescaled metric; the Riemann tensor and the sectional
curvature themselves are read only by the tests (tests/oracles.py).

Every `metric` argument is a callable from the coordinate point x (a
float ndarray of length n) to the raw (n, n) ndarray of components, as
`spacetime.chart_metric` gives; a 3-D fit calls it once per distinct
stencil point (at most 169), so it should check only its domain.  A
DomainError it raises propagates.
"""

from __future__ import annotations

import numpy as np

STEP = 1e-3


def _neighbours(pts, h):
    """p + s e_k for s in (h, -h, h/2, -h/2), as out[p, k, s]."""
    m, n = pts.shape
    out = np.broadcast_to(pts[:, None, None, :], (m, n, 4, n)).copy()
    # step coordinate k alone: adding 0.0 elsewhere would turn -0.0 into +0.0
    k = np.arange(n)
    out[:, k, :, k] += np.array([h, -h, h / 2.0, -h / 2.0])
    return out


def _diff(f, h):
    """d f / d x_k from f[:, k, s] at _neighbours: central differences at
    h and h/2, Richardson-extrapolated once."""
    d1 = (f[:, :, 0] - f[:, :, 1]) / (2.0 * h)
    d2 = (f[:, :, 2] - f[:, :, 3]) / (2.0 * (h / 2.0))
    return (4.0 * d2 - d1) / 3.0


def _stencil(metric, x):
    """(g, R) at x, with the lowered tensor R[i, j, k, l] =
    <R(e_i, e_j) e_k, e_l> for R(X, Y) = nabla_X nabla_Y - nabla_Y nabla_X
    - nabla_[X, Y]: constant curvature kappa means
    R_{ijkl} = kappa (g_{jk} g_{il} - g_{ik} g_{jl}).

    The stencil is x, its 4n neighbours, where Gamma is differenced, and
    theirs, where g is; points with equal bytes (-0.0 and +0.0 differ)
    are evaluated once, in order of first use."""
    x = np.asarray(x, dtype=float)
    n = len(x)
    near = _neighbours(x[None], STEP).reshape(4 * n, n)
    pts = np.concatenate([x[None], near, _neighbours(near, STEP).reshape(-1, n)])
    slot, vals, idx = {}, [], []
    for p in pts:
        key = p.tobytes()
        if key not in slot:
            slot[key] = len(vals)
            vals.append(metric(p))
        idx.append(slot[key])
    gs = np.asarray(vals, dtype=float)[idx]
    # Gamma^k_ij = 1/2 g^{kl} (d_i g_lj + d_j g_li - d_l g_ij) at x and the
    # near points, from dg[., k, i, j] = d g_ij / d x_k over their neighbours
    dg = _diff(gs[1:].reshape(1 + 4 * n, n, 4, n, n), STEP)
    term = np.einsum("...ilj->...lij", dg) + np.einsum("...jli->...lij", dg) - dg
    gam = 0.5 * np.einsum("...kl,...lij->...kij", np.linalg.inv(gs[:1 + 4 * n]),
                          term)
    dgam, gam = _diff(gam[1:].reshape(1, n, 4, n, n, n), STEP)[0], gam[0]
    # R^l_{kij} = d_i Gamma^l_{jk} - d_j Gamma^l_{ik}
    #             + Gamma^l_{im} Gamma^m_{jk} - Gamma^l_{jm} Gamma^m_{ik}
    # as r_up[l, k, i, j]; the Gamma Gamma terms are one matrix product,
    # whose sums over m are bitwise those of per-entry np.dot (einsum's are not)
    prod = (gam.reshape(n * n, n) @ gam.reshape(n, n * n)).reshape(n, n, n, n)
    r_up = (dgam.transpose(1, 3, 0, 2) - dgam.transpose(1, 3, 2, 0)
            + prod.transpose(0, 3, 1, 2) - prod.transpose(0, 3, 2, 1))
    # lower: R_{ijkl} = g_{lm} R^m_{kij}
    return gs[0], np.einsum("lm,mkij->ijkl", gs[0], r_up)


def constant_curvature_fit(metric, x):
    """(kappa, residual): least-squares constant-curvature coefficient
    and the relative misfit of the full Riemann tensor."""
    g, r = _stencil(metric, x)
    pattern = np.einsum("jk,il->ijkl", g, g) - np.einsum("ik,jl->ijkl", g, g)
    num = float(np.sum(r * pattern))
    den = float(np.sum(pattern * pattern))
    kappa = num / den
    resid = float(np.max(np.abs(r - kappa * pattern)) /
                  max(np.max(np.abs(pattern)), 1e-30))
    return kappa, resid
