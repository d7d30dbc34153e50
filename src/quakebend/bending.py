"""Bending cocycles: PSL(2, C)-valued for H3, PSL(2, R)^2-valued for AdS.

Both are the quake module's ``cocycle_product`` of exp(c a D) over the
leaves ``LiftFamily.crossings`` returns, D the displacement generator of
each leaf: c = i for H3, the earthquake at imaginary weight (exp(i a D)
rotates by angle a around the leaf), and the pair c = (+1, -1) for AdS,
the left and right quake cocycles -- with leaves oriented per the
base-point-on-the-left convention the first component lifts the *left*
earthquake, the calibration asserted by the cross-oracle tests.

H3 points travel as unit timelike Minkowski-4 vectors; the totally
geodesic copy of H2 is the slice x3 = 0.
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


# ---------------------------------------------------------------------------
# H3 as unit timelike vectors of Minkowski 4-space
# ---------------------------------------------------------------------------

def mink4_from_h2(z):
    """Inclusion H2 -> H3 as the slice x3 = 0."""
    y = iso.h2_to_hyperboloid(z)
    return np.array([y[0], y[1], y[2], 0.0])


def hermitian_from_mink4(v):
    x0, x1, x2, x3 = v
    return np.array([[x0 + x2, x1 + 1j * x3], [x1 - 1j * x3, x0 - x2]])


def mink4_from_hermitian(p):
    return np.array([(p[0, 0].real + p[1, 1].real) / 2.0,
                     p[0, 1].real,
                     (p[0, 0].real - p[1, 1].real) / 2.0,
                     p[0, 1].imag])


def apply_psl2c(a, v):
    """Isometry action of PSL(2, C) on Minkowski-4 points, P -> A P A*."""
    p = hermitian_from_mink4(v)
    return mink4_from_hermitian(a @ p @ a.conj().T)


# ---------------------------------------------------------------------------
# context
# ---------------------------------------------------------------------------

@dataclass
class BendContext:
    """Realized lift family and target geometry of the bent maps, which
    start at the base point `earthquake.BASE_POINT`."""

    family: lm.LiftFamily
    target: str = HYPERBOLIC

    def __post_init__(self):
        if self.target not in (HYPERBOLIC, ADS):
            raise DomainError(f"unknown bending target {self.target!r}")
        # the base point itself must be off the weighted leaves
        self.family.crossings(eq.BASE_POINT, eq.BASE_POINT + 1e-3j)


def make_context(point, lam, depth=8, target=HYPERBOLIC, pd=None):
    """Realize `lam` on the holonomy of `point` for the bent maps."""
    h = teich.holonomy_of(point, pd)
    fam = lm.LiftFamily(lam, h, depth=depth)
    return BendContext(fam, target), h


def bend_points(ctx: BendContext, zs, target):
    """The bent images B(x0, z) . z of the points zs in `target`: unit
    timelike Minkowski-4 vectors in H3, 2x2 matrices in AdS.

    One `crossings_from` query at the base point x0 serves all of zs.
    Pinned normalization: the base point maps to its isometric
    inclusion, eliminating the global post-composition freedom.
    """
    crossed = ctx.family.crossings_from(eq.BASE_POINT, zs, on_leaf="include")
    out = []
    for z, (leaves, _) in zip(zs, crossed):
        moved = abs(z - eq.BASE_POINT) >= 1e-14
        if target == HYPERBOLIC:
            p = mink4_from_h2(z)
            if moved:
                p = apply_psl2c(bend_cocycle_hyp_from_lifts(leaves), p)
        else:
            p = iso.ads_embed(z)
            if moved:
                p = iso.ads_act(bend_cocycle_ads_from_lifts(leaves), p)
        out.append(p)
    return out


# ---------------------------------------------------------------------------
# hyperbolic bending
# ---------------------------------------------------------------------------

def bend_cocycle_hyp_from_lifts(lifts):
    """B_lambda(x, y) in PSL(2, C) from the leaves crossing [x, y]:
    product of exp(i a_k D_k)."""
    return eq.cocycle_product(lifts, 1j).astype(complex)


def bend_map_hyp(ctx: BendContext, x):
    """F(x) = B(x0, x) . x, a point of H3: `bend_points` at one point."""
    return bend_points(ctx, [x], HYPERBOLIC)[0]


def hyp_holonomy(point, lam, depth=8, pd=None):
    """h_H(gamma) = B(x0, gamma x0) gamma in PSL(2, C).

    Returns the deformed holonomy with meta['converged'] flagging lift
    convergence; the empty lamination reproduces the Fuchsian inclusion.
    """
    def deform(m, leaves):
        b = bend_cocycle_hyp_from_lifts(leaves)
        return iso.normalize(b @ m.astype(complex))

    h, letters, converged = eq.deform_letters(
        point, lam, deform, include=lambda m: m.astype(complex),
        depth=depth, pd=pd)
    out = h.map(lambda name, _: letters[name])
    out.meta["converged"] = converged
    return out


# ---------------------------------------------------------------------------
# AdS bending
# ---------------------------------------------------------------------------

def bend_cocycle_ads_from_lifts(lifts):
    """The pair (B^-, B^+) of the left and right quake cocycles over the
    leaves crossing [x, y].

    The first component composed with gamma gives the left-earthquake
    holonomy h_L, the second the right one.
    """
    return (eq.quake_cocycle(lifts, eq.LEFT),
            eq.quake_cocycle(lifts, eq.RIGHT))


def bend_map_ads(ctx: BendContext, x):
    """phi_lambda(x) = B(x0, x) . x on the embedded copy of H2 in X_{-1}:
    `bend_points` at one point."""
    return bend_points(ctx, [x], ADS)[0]


def ads_holonomy(point, lam, depth=8, pd=None):
    """(h_L, h_R): the PSL(2,R) x PSL(2,R) holonomy of the AdS spacetime.

    h_L is conjugate to the left-earthquake holonomy of (F, lam) and
    h_R to the right one; both carry meta['converged'].
    """
    def deform(m, leaves):
        return tuple(iso.normalize(b @ m) for b in
                     bend_cocycle_ads_from_lifts(leaves))

    h, pairs, converged = eq.deform_letters(
        point, lam, deform, include=lambda m: (m, m), depth=depth, pd=pd)
    out_l = h.map(lambda name, _: pairs[name][0])
    out_r = h.map(lambda name, _: pairs[name][1])
    out_l.meta["converged"] = out_r.meta["converged"] = converged
    return out_l, out_r
