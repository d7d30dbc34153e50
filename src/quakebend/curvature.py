"""Constant-curvature fit of a metric given pointwise, from its
finite-difference Riemann tensor.

Central differences with one Richardson extrapolation at step STEP,
which balances truncation against cancellation at double precision for
curvature tolerances around 1e-4.  The tests validate the fit on the
round sphere and the hyperbolic plane before trusting it on any
pulled-back or rescaled metric; the Riemann tensor and the sectional
curvature themselves are read only by the tests (tests/oracles.py).

Every `metric` argument is a callable from the coordinate point x (a
float ndarray of length n >= 2) to the raw (n, n) ndarray of
components, as `spacetime.chart_metric` gives; `constant_curvature_fit`
calls it once per distinct stencil point (at most 157 in a 3-D fit), so
it should check only its domain.  `constant_curvature_fits` fits many
points from one call on the (N, n) stack of all their stencil points,
which needs a metric that also maps such a stack to the (N, n, n) one,
as `chart_metric`'s does.

The input is checked at this boundary: a point of the wrong rank, of
fewer than 2 coordinates or with a non-finite coordinate is refused
with a DomainError before the first metric call, a metric value of the
wrong shape with a StructureError, and a singular sample with a
DomainError.  A DomainError the metric raises propagates.  The stencil
rows come from index tables built once per dimension
(`_stencil_tables`).
"""

from __future__ import annotations

import functools

import numpy as np

from quakebend.errors import DomainError, StructureError

STEP = 1e-3


def _finite_points(xs, ndim):
    """xs as a float array of ndim axes (1: a point, 2: a stack of
    points; [] is the empty stack), refused with a DomainError unless
    the points have one dimension n >= 2 and finite coordinates:
    checked once, before any stencil is built."""
    what = "a point" if ndim == 1 else "a list of points"
    try:
        xs = np.asarray(xs, dtype=float)
    except (TypeError, ValueError):
        raise DomainError(f"a curvature fit needs {what} as an array "
                          "of numbers") from None
    if ndim == 2 and xs.shape == (0,):
        return xs.reshape(0, 2)
    if xs.ndim != ndim:
        raise DomainError(f"a curvature fit needs {what}, "
                          f"not an array of shape {xs.shape}")
    if xs.shape[-1] < 2:
        raise DomainError("a curvature fit needs points of at least 2 "
                          "coordinates")
    if not np.isfinite(xs).all():
        raise DomainError("a curvature fit needs finite points")
    return xs


def _metric_values(gs, shape):
    """The metric's values gs as a float array of the given shape, or a
    StructureError."""
    try:
        gs = np.asarray(gs, dtype=float)
    except (TypeError, ValueError):
        raise StructureError("the metric did not give arrays of numbers "
                             "of one shape") from None
    if gs.shape != shape:
        raise StructureError(f"the metric gave values of shape {gs.shape} "
                             f"where {shape} was due")
    return gs


def _diff(f, h):
    """d f / d x_k from f[:, k, s] at the points x + steps[s] e_k of
    `_stencils`: central differences at h and h/2, Richardson-extrapolated
    once."""
    d1 = (f[:, :, 0] - f[:, :, 1]) / (2.0 * h)
    d2 = (f[:, :, 2] - f[:, :, 3]) / (2.0 * (h / 2.0))
    return (4.0 * d2 - d1) / 3.0


@functools.cache
def _stencil_tables(n):
    """(size, first, second) of an n-D stencil: its size = 1 + 4n + 16n^2
    rows and two (flat index, step) tables into its size * n coordinates,
    for steps = (h, -h, h/2, -h/2), h = STEP.  Near row 1 + 4k + s steps
    coordinate k by steps[s]; far row 1 + 4n + 4n r + 4k + s takes near
    row r's step (first), then steps coordinate k by steps[s] (second).
    The tables are read-only."""
    steps = np.array([STEP, -STEP, STEP / 2.0, -STEP / 2.0])
    near_k, near_s = np.repeat(np.arange(n), 4), np.tile(steps, n)
    near = 1 + np.arange(4 * n)
    far = 1 + 4 * n + np.arange(16 * n * n)
    r = np.arange(16 * n * n) // (4 * n)  # the near row of each far row
    first = (np.concatenate([near * n + near_k, far * n + near_k[r]]),
             np.concatenate([near_s, near_s[r]]))
    second = (far * n + np.tile(near_k, 4 * n), np.tile(near_s, 4 * n))
    for table in first + second:
        table.flags.writeable = False
    return 1 + 4 * n + 16 * n * n, first, second


def _stencils(xs):
    """The stencils of the points xs (m, n) as (m, 1 + 4n + 16n^2, n):
    x, its 4n near points x + steps[s] e_k, where Gamma is differenced,
    and the 4n far points of each near point, where g is.

    Each row is a copy of x plus the steps of `_stencil_tables`, the
    first table before the second, so a coordinate stepped twice is
    (x_k + s) + t.  A coordinate left unstepped is copied, never summed
    with 0.0, which would turn -0.0 into +0.0."""
    m, n = xs.shape
    size, (i1, s1), (i2, s2) = _stencil_tables(n)
    pts = np.repeat(xs, size, axis=0)
    flat = pts.reshape(m, size * n)
    flat[:, i1] += s1
    flat[:, i2] += s2
    return pts.reshape(m, size, n)


def _riemann(gs):
    """(g, R) at the centres of m stencils from the metric there, gs
    (m, 1 + 4n + 16n^2, n, n) in the order of `_stencils`, with the
    lowered tensor R[i, j, k, l] = <R(e_i, e_j) e_k, e_l> for
    R(X, Y) = nabla_X nabla_Y - nabla_Y nabla_X - nabla_[X, Y]: constant
    curvature kappa means R_{ijkl} = kappa (g_{jk} g_{il} - g_{ik} g_{jl}).
    A singular g where Gamma is raises a DomainError.

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
    try:
        g_inv = np.linalg.inv(gs[:, :c].reshape(m * c, n, n))
    except np.linalg.LinAlgError:
        raise DomainError("a curvature fit needs a nondegenerate metric "
                          "on its stencil") from None
    gam = 0.5 * np.einsum("...kl,...lij->...kij", g_inv, term)
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
    """metric over the stencil of the point x as (1, 1 + 4n + 16n^2, n, n),
    with one call per distinct point (equal bytes: -0.0 and +0.0 differ),
    in order of first use."""
    pts = _stencils(x[None])[0]
    slot, vals, idx = {}, [], []
    for p in pts:
        key = p.tobytes()
        if key not in slot:
            slot[key] = len(vals)
            vals.append(metric(p))
        idx.append(slot[key])
    n = len(x)
    return _metric_values(vals, (len(vals), n, n))[idx][None]


def _pattern(g):
    """g_jk g_il - g_ik g_jl, the tensor R of curvature 1, as a row of n^4
    per metric of the stack g (m, n, n).

    It comes from the one outer product o[., a, b, c, d] = g_ab g_cd,
    read through two transposes: the products that four broadcasts
    would take, and so the same bits, whether or not g is exactly
    symmetric."""
    o = g[:, :, :, None, None] * g[:, None, None]
    return (o.transpose(0, 3, 1, 2, 4)
            - o.transpose(0, 1, 3, 2, 4)).reshape(len(g), -1)


def _fits(gs):
    """(kappa, residual) per stencil of gs, as `_riemann` takes them:
    kappa fits R to kappa `_pattern`(g) by least squares, and the
    residual is the largest misfit over the largest entry of the
    pattern."""
    g, r = _riemann(gs)
    pattern = _pattern(g)
    r = r.reshape(len(g), -1)
    kappa = np.sum(r * pattern, axis=1) / np.sum(pattern * pattern, axis=1)
    worst = np.max(np.abs(r - kappa[:, None] * pattern), axis=1)
    scale = np.maximum(np.max(np.abs(pattern), axis=1), 1e-30)
    return list(zip(kappa.tolist(), (worst / scale).tolist()))


def constant_curvature_fit(metric, x):
    """(kappa, residual): least-squares constant-curvature coefficient
    and the relative misfit of the full Riemann tensor."""
    return _fits(_evaluate(metric, _finite_points(x, 1)))[0]


def constant_curvature_fits(metric, xs):
    """[constant_curvature_fit(metric, x) for x in xs], bitwise, from one
    call of metric on the (N, n) stack of the points of all the
    stencils, repeats included."""
    xs = _finite_points(xs, 2)
    if not len(xs):
        return []
    pts = _stencils(xs)
    m, size, n = pts.shape
    gs = _metric_values(metric(pts.reshape(-1, n)), (m * size, n, n))
    return _fits(gs.reshape(m, size, n, n))
