"""Bending cocycles: PSL(2, C)-valued for H3, PSL(2, R)^2-valued for AdS.

Both are the quake module's ``cocycle_products`` of exp(c a D) over the
leaves that the context's realization (``lamination.realize``: the
``HexagonWalk`` of a multicurve, the ``TriangleWalk`` of a
triangulation lamination, or the full ``LiftFamily``) finds crossing a
segment, D the displacement generator of each leaf:
c = i for H3, the earthquake at imaginary weight (exp(i a D) rotates
by angle a around the leaf), and the pair c = (+1, -1) for AdS, the
left and right quake cocycles in one pass -- with leaves oriented per
the base-point-on-the-left convention the first component lifts the
*left* earthquake, the calibration asserted by the cross-oracle tests.

The bent surface is pleated: B(x0, z) depends only on the ordered
leaves that [x0, z] crosses, so the bent map is one isometry per
crossing sequence.  `bend_points` finds every point's sequence and
checks the base point in one crossings query, builds all sequences'
cocycles in one `cocycle_products` call and applies them to all
crossed points in one stacked action; a point whose segment from x0
crosses no leaf, x0 included, maps by the inclusion.

H3 points travel as unit timelike Minkowski-4 vectors (one row each in
a stack); the totally geodesic copy of H2 is the slice x3 = 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from quakebend import isometry as iso
from quakebend import teich
from quakebend import lamination as lm
from quakebend import earthquake as eq
from quakebend.errors import DomainError

HYPERBOLIC = "hyperbolic"
ADS = "ads"
#: `bend_points` checks the base point for weighted leaves on the segments
#: to it plus each step: a leaf through it runs along at most one of them
BASE_CHECK_STEPS = (1e-3, 1e-3j)


# ---------------------------------------------------------------------------
# H3 as unit timelike vectors of Minkowski 4-space
# ---------------------------------------------------------------------------

def mink4_from_h2(z):
    """Inclusion H2 -> H3 as the slice x3 = 0, of a point or an array of
    points (one row each)."""
    out = np.zeros(np.shape(z) + (4,))
    out[..., 0], out[..., 1], out[..., 2] = iso.h2_to_hyperboloid(z)
    return out


def hermitian_from_mink4(v):
    """(..., 4) Minkowski-4 points to (..., 2, 2) Hermitian matrices."""
    x0, x1, x2, x3 = v[..., 0], v[..., 1], v[..., 2], v[..., 3]
    p = np.empty(v.shape[:-1] + (2, 2), complex)
    p[..., 0, 0], p[..., 0, 1] = x0 + x2, x1 + 1j * x3
    p[..., 1, 0], p[..., 1, 1] = x1 - 1j * x3, x0 - x2
    return p


def mink4_from_hermitian(p):
    """(..., 2, 2) Hermitian matrices to (..., 4) Minkowski-4 points."""
    a, d, b = p[..., 0, 0].real, p[..., 1, 1].real, p[..., 0, 1]
    v = np.empty(b.shape + (4,))
    v[..., 0], v[..., 1] = (a + d) / 2.0, b.real
    v[..., 2], v[..., 3] = (a - d) / 2.0, b.imag
    return v


def apply_psl2c(a, v):
    """Isometry action of PSL(2, C) on Minkowski-4 points, P -> A P A*,
    of one matrix on a point or on a (..., 4) stack of points, or of a
    (..., 2, 2) stack on a stack matrix by matrix, bit for bit."""
    p = hermitian_from_mink4(v)
    return mink4_from_hermitian(a @ p @ a.conj().swapaxes(-1, -2))


# ---------------------------------------------------------------------------
# context
# ---------------------------------------------------------------------------

@dataclass
class BendContext:
    """Realized lifts (`lamination.realize`) and target geometry of the
    bent maps from `earthquake.BASE_POINT`, which `bend_points` checks."""

    family: lm.LiftFamily | lm.TriangleWalk | lm.HexagonWalk
    target: str = HYPERBOLIC

    def __post_init__(self):
        if self.target not in (HYPERBOLIC, ADS):
            raise DomainError(f"unknown bending target {self.target!r}")


def make_context(point, lam, depth=8, target=HYPERBOLIC, pd=None,
                 walk=False):
    """Realize `lam` on the holonomy of `point` for the bent maps
    (`lamination.realize`): with `walk`, by a walk where one applies;
    else, or on a cusped Fenchel-Nielsen surface, as the full
    `LiftFamily`.  Every realization answers every point."""
    h = teich.holonomy_of(point, pd)
    return BendContext(lm.realize(lam, h, depth, walk), target), h


def bend_points(ctx: BendContext, zs):
    """The bent images B(x0, z) . z of the points zs in the target of
    `ctx`: an (n, 4) array of unit timelike Minkowski-4 vectors in H3, an
    (n, 2, 2) array of matrices in AdS.

    B(x0, z) depends only on the ordered leaves that [x0, z] crosses,
    which one `crossings_from` query at the base point x0 finds for the
    check points x0 + BASE_CHECK_STEPS and zs: a leaf through x0 raises
    BasePointOnLeafError, one through a check point counts at half
    weight in a row that is dropped.  One pass over the rows gives each
    point the index of its crossing sequence, whose cocycles one
    `cocycle_products` call builds; the crossed points take them in one
    stacked action.  A point that crosses no leaf, x0 among them, maps
    by the inclusion (the slice x3 = 0 of H3, the plane P(Id) of AdS),
    which pins the global post-composition freedom.
    """
    zs = np.asarray(zs, dtype=complex).reshape(-1)
    hyp = ctx.target == HYPERBOLIC
    out = mink4_from_h2(zs) if hyp else iso.ads_embed(zs)
    ys = np.concatenate([eq.BASE_POINT + np.array(BASE_CHECK_STEPS), zs])
    crossed = ctx.family.crossings_from(eq.BASE_POINT, ys, on_leaf="end")
    # keyed by leaf identity: a query gives each distinct leaf one object
    groups, group = {}, np.full(len(zs), -1)
    for i, (leaves, _) in enumerate(crossed[len(BASE_CHECK_STEPS):]):
        if leaves:
            group[i] = groups.setdefault(tuple(map(id, leaves)),
                                         (len(groups), leaves))[0]
    products = eq.cocycle_products([leaves for _, leaves in groups.values()],
                                   (1j,) if hyp else (1.0, -1.0))
    idx = np.flatnonzero(group >= 0)
    if len(idx):
        b = [np.array(factors)[group[idx]] for factors in zip(*products)]
        out[idx] = (apply_psl2c(b[0], out[idx]) if hyp
                    else iso.ads_act(b, out[idx]))
    return out


# ---------------------------------------------------------------------------
# bent maps and deformed holonomies
# ---------------------------------------------------------------------------

def bend_map_hyp(ctx: BendContext, x):
    """F(x) = B(x0, x) . x, a point of H3: `bend_points` at one point of
    a hyperbolic context."""
    if ctx.target != HYPERBOLIC:
        raise DomainError("bend_map_hyp needs a hyperbolic context")
    return bend_points(ctx, [x])[0]


def hyp_holonomy(point, lam, depth=8, pd=None):
    """h_H(gamma) = B(x0, gamma x0) gamma in PSL(2, C), the deformed
    holonomy at c = i with meta['converged']; the empty lamination
    gives the Fuchsian inclusion."""
    return eq.deformed_holonomies(point, lam, (1j,), depth, pd)[0]


def bend_map_ads(ctx: BendContext, x):
    """phi_lambda(x) = B(x0, x) . x on the embedded copy of H2 in X_{-1}:
    `bend_points` at one point of an AdS context."""
    if ctx.target != ADS:
        raise DomainError("bend_map_ads needs an AdS context")
    return bend_points(ctx, [x])[0]


def ads_holonomy(point, lam, depth=8, pd=None):
    """(h_L, h_R): the PSL(2,R) x PSL(2,R) holonomy of the AdS spacetime,
    the deformed holonomies at c = (+1, -1), conjugate to the left and
    right earthquake holonomies of (F, lam); both carry meta['converged']."""
    return tuple(eq.deformed_holonomies(point, lam, (1.0, -1.0), depth, pd))
