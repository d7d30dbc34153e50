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
`spacetime.chart_metric` gives; `constant_curvature_fit` calls it once
per distinct stencil point (at most 157 in a 3-D fit), so it should
check only its domain; a non-finite point is refused with a DomainError
before the first call.  `constant_curvature_fits` fits many points from
one call on the (N, n) stack of all their stencil points, which needs a
metric that also maps such a stack to the (N, n, n) one, as
`chart_metric`'s does.  A DomainError the metric raises propagates.
"""

from __future__ import annotations

import numpy as np

from quakebend.errors import DomainError

STEP = 1e-3


def _finite_points(xs):
    """xs as a float array, refused if any coordinate is not finite:
    checked once, before any stencil is built."""
    xs = np.asarray(xs, dtype=float)
    if not np.isfinite(xs).all():
        raise DomainError("a curvature fit needs finite points")
    return xs


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


def _stencils(xs):
    """The stencils of the points xs (m, n) as (m, 1 + 4n + 16n^2, n):
    x, its 4n neighbours, where Gamma is differenced, and theirs, where
    g is."""
    m, n = xs.shape
    near = _neighbours(xs, STEP).reshape(m, 4 * n, n)
    far = _neighbours(near.reshape(-1, n), STEP).reshape(m, -1, n)
    return np.concatenate([xs[:, None], near, far], axis=1)


def _riemann(gs):
    """(g, R) at the centres of m stencils from the metric there, gs
    (m, 1 + 4n + 16n^2, n, n) in the order of `_stencils`, with the
    lowered tensor R[i, j, k, l] = <R(e_i, e_j) e_k, e_l> for
    R(X, Y) = nabla_X nabla_Y - nabla_Y nabla_X - nabla_[X, Y]: constant
    curvature kappa means R_{ijkl} = kappa (g_{jk} g_{il} - g_{ik} g_{jl}).

    Index permutations are transposes, views with no arithmetic.  The
    inverse metric stays np.linalg.inv: a closed-form 3x3 inverse rounds
    differently and would change the fitted curvatures' bits."""
    m, n = len(gs), gs.shape[-1]
    c = 1 + 4 * n  # the points where Gamma is, over the stencils
    # Gamma^k_ij = 1/2 g^{kl} (d_i g_lj + d_j g_li - d_l g_ij) at x and the
    # near points, from dg[., k, i, j] = d g_ij / d x_k over their neighbours;
    # term[., l, i, j] = d_i g_lj + d_j g_li - d_l g_ij
    dg = _diff(gs[:, 1:].reshape(m * c, n, 4, n, n), STEP)
    term = dg.transpose(0, 2, 1, 3) + dg.transpose(0, 2, 3, 1) - dg
    gam = 0.5 * np.einsum("...kl,...lij->...kij",
                          np.linalg.inv(gs[:, :c].reshape(m * c, n, n)), term)
    gam = gam.reshape(m, c, n, n, n)
    dgam = _diff(gam[:, 1:].reshape(m, n, 4, n, n, n), STEP)
    gam = gam[:, 0]
    # R^l_{kij} = d_i Gamma^l_{jk} - d_j Gamma^l_{ik}
    #             + Gamma^l_{im} Gamma^m_{jk} - Gamma^l_{jm} Gamma^m_{ik}
    # as r_up[., l, k, i, j]; the Gamma Gamma terms are one matrix product,
    # whose sums over m are bitwise those of per-entry np.dot (einsum's are not)
    prod = (gam.reshape(m, n * n, n) @ gam.reshape(m, n, n * n)).reshape(
        m, n, n, n, n)
    r_up = (dgam.transpose(0, 2, 4, 1, 3) - dgam.transpose(0, 2, 4, 3, 1)
            + prod.transpose(0, 1, 4, 2, 3) - prod.transpose(0, 1, 4, 3, 2))
    # lower: R_{ijkl} = g_{lm} R^m_{kij}
    return gs[:, 0], np.einsum("...lm,...mkij->...ijkl", gs[:, 0], r_up)


def _evaluate(metric, x):
    """metric over the stencil of x as (1, 1 + 4n + 16n^2, n, n), with one
    call per distinct point (equal bytes: -0.0 and +0.0 differ), in
    order of first use."""
    pts = _stencils(np.asarray(x, dtype=float)[None])[0]
    slot, vals, idx = {}, [], []
    for p in pts:
        key = p.tobytes()
        if key not in slot:
            slot[key] = len(vals)
            vals.append(metric(p))
        idx.append(slot[key])
    return np.asarray(vals, dtype=float)[idx][None]


def _fits(gs):
    """(kappa, residual) per stencil of gs, as `_riemann` takes them."""
    g, r = _riemann(gs)
    m = len(g)
    # g_jk g_il - g_ik g_jl, the tensor R of curvature 1, a row per stencil
    pattern = (g[:, None, :, :, None] * g[:, :, None, None, :]
               - g[:, :, None, :, None] * g[:, None, :, None, :]).reshape(m, -1)
    r = r.reshape(m, -1)
    kappa = np.sum(r * pattern, axis=1) / np.sum(pattern * pattern, axis=1)
    worst = np.max(np.abs(r - kappa[:, None] * pattern), axis=1)
    scale = np.maximum(np.max(np.abs(pattern), axis=1), 1e-30)
    return list(zip(kappa.tolist(), (worst / scale).tolist()))


def constant_curvature_fit(metric, x):
    """(kappa, residual): least-squares constant-curvature coefficient
    and the relative misfit of the full Riemann tensor."""
    return _fits(_evaluate(metric, _finite_points(x)))[0]


def constant_curvature_fits(metric, xs):
    """[constant_curvature_fit(metric, x) for x in xs], bitwise, from one
    call of metric on the (N, n) stack of the points of all the
    stencils, repeats included."""
    xs = _finite_points(xs)
    if not len(xs):
        return []
    pts = _stencils(xs)
    m, size, n = pts.shape
    gs = np.asarray(metric(pts.reshape(-1, n)), dtype=float)
    return _fits(gs.reshape(m, size, n, n))
