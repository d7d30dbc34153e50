"""Reference code that only the tests read.

Closed forms and brute-force checks that the package itself never
calls, kept next to the tests that compare the package against them:

* `causal_type_grid`, the brute-force form of `isometry.causal_type`;
* `mink4_inner` and `dist_h3` on H3 as unit timelike Minkowski-4
  vectors;
* `bend_points_per_vertex`, the bent map built one cocycle per point,
  the reference of the grouped `bending.bend_points`;
* `ads_inner`, `ads_spacelike_distance`, `positive_rotation` and
  `dual_point`, the duality of X_{-1} in the conventions of
  `quakebend.isometry`;
* `dist_h2`, the distance of the upper half-plane, and
  `reversed_geodesic`, a geodesic of H2 with its orientation reversed;
* `translation` along an oriented geodesic of H2;
* `rotation_generator`, `leaf_normal_toward` and `iota`, the per-leaf
  formulas that the displacement generator
  (`isometry.Geodesic.displacement_generator`) replaced: the H3
  rotation generator written from the leaf's frame, the leaf's unit
  normal in R^{2,1} from the null vectors of its endpoints, and the
  map sl(2, R) -> R^{2,1} written out;
* `sphere_metric` and `hyperbolic_metric`, the reference metrics of the
  curvature fit, and `stencil`, `riemann` and `sectional_curvature`
  from its stencil at one point;
* `limit_set_samples` and `sampled_side`, the side rule of
  `blackhole.peripheral_rectangle` from the limit set sampled at every
  reduced word up to a depth, which the one-point rule replaced;
* `cylinder_samples`, `circle_arc` and `arcs_invariant`, the limit-set
  cylinders sampled per first letter and the arc containments of the
  certificate `lamination.limit_arcs`, in the circle coordinate of
  `blackhole.circle_angle` rather than the certificate's own;
* fixture surfaces: the pant decompositions of the three- and
  four-punctured spheres and an ideal triangulation of the first.
"""

from __future__ import annotations

import math

import numpy as np

from quakebend import bending as bd
from quakebend import blackhole as bh
from quakebend import curvature as cv
from quakebend import earthquake as eq
from quakebend import isometry as iso
from quakebend import teich
from quakebend.errors import DomainError


def causal_type_grid(p, q, tol=iso.TAU_CLASS, samples=720):
    """`isometry.causal_type` from the sign structure of det(s P + t Q)
    on unit directions (s, t)."""
    if iso.proj_equal(p, q):
        return "coincident"
    has_pos = has_neg = has_zero = False
    for k in range(samples):
        ang = math.pi * k / samples
        s, t = math.cos(ang), math.sin(ang)
        v = iso.det(s * p + t * q)
        if v > tol:
            has_pos = True
        elif v < -tol:
            has_neg = True
        else:
            has_zero = True
    if has_pos and has_neg:
        return "spacelike"
    if has_zero:
        return "lightlike"
    return "timelike"


# -- H3 -----------------------------------------------------------------------

def mink4_inner(v, w):
    return -v[0] * w[0] + v[1] * w[1] + v[2] * w[2] + v[3] * w[3]


def dist_h3(v, w):
    return math.acosh(max(-mink4_inner(v, w), 1.0))


def bend_points_per_vertex(ctx, zs, target):
    """`bending.bend_points` one point at a time: the cocycle B(x0, z)
    of the leaves [x0, z] crosses, built and applied for every z but
    the base point, which maps to its inclusion."""
    crossed = ctx.family.crossings_from(eq.BASE_POINT, zs, on_leaf="include")
    out = []
    for z, (leaves, _) in zip(zs, crossed):
        moved = abs(z - eq.BASE_POINT) >= 1e-14
        if target == bd.HYPERBOLIC:
            p = bd.mink4_from_h2(z)
            if moved:
                p = bd.apply_psl2c(bd.bend_cocycle_hyp_from_lifts(leaves), p)
        else:
            p = iso.ads_embed(z)
            if moved:
                p = iso.ads_act(bd.bend_cocycle_ads_from_lifts(leaves), p)
        out.append(p)
    return out


# -- X_{-1} duality -----------------------------------------------------------

def ads_inner(p, q):
    """<P, Q> = -tr(P Q^{-1}) / 2 for unit-determinant representatives."""
    return -iso.tr(p @ iso.inv(q)) / 2.0


def ads_spacelike_distance(p, q):
    """Distance along the spacelike geodesic joining p and q."""
    ip = ads_inner(p, q)
    if abs(ip) < 1.0:
        raise DomainError("points are not spacelike separated")
    return math.acosh(abs(ip))


def positive_rotation(geo, t):
    """Positive rotation by parameter t around the oriented geodesic of
    P(Id) over `geo`: the pair (exp(-tX), exp(tX))."""
    x = 2.0 * geo.displacement_generator()
    return iso.expm2(-t * x), iso.expm2(t * x)


def dual_point(geo, s):
    """Point at signed arc length s from Id on the dual geodesic l* of l
    (the points whose dual plane contains l, the orbit of Id under the
    hyperbolic one-parameter group of l).

    The parametrization is chosen so the positive rotation by t > 0
    moves dual points by +2t.
    """
    return iso.expm2(-s * 2.0 * geo.displacement_generator())


# -- H2 -----------------------------------------------------------------------

def dist_h2(z, w):
    """Hyperbolic distance in the upper half-plane."""
    return math.acosh(1.0 + (abs(z - w) ** 2) / (2.0 * z.imag * w.imag))


def reversed_geodesic(geo):
    return iso.Geodesic(geo.p_plus, geo.p_minus)


def translation(geo, length):
    """Hyperbolic translating by `length` along the oriented geodesic."""
    m = geo.map_from_standard()
    a = np.array([[math.exp(length / 2.0), 0.0],
                  [0.0, math.exp(-length / 2.0)]])
    return m @ a @ iso.inv(m)


# -- per-leaf references for the displacement generator ----------------------

def rotation_generator(geo):
    """Generator X in sl(2, C) of the rotation of H3 around `geo`, from
    the leaf's frame: exp(2 pi X) is projectively the identity."""
    m = geo.map_from_standard().astype(complex)
    x0 = np.array([[0.5j, 0.0], [0.0, -0.5j]])
    return m @ x0 @ iso.inv(m)


def leaf_normal_toward(geo, target):
    """Unit spacelike normal in R^{2,1} of the plane of `geo`, pointing
    to the side of the H2 point `target`: the Minkowski cross product of
    the null vectors of its endpoints, normalized."""
    eta = np.diag([-1.0, 1.0, 1.0])

    def null_vec(b):
        if b == iso.INF:
            return np.array([1.0, 0.0, 1.0])
        return np.array([1.0 + b * b, 2.0 * b, b * b - 1.0]) / 2.0

    w = eta @ np.cross(null_vec(geo.p_minus), null_vec(geo.p_plus))
    w = w / math.sqrt(abs(w @ eta @ w))
    side = float(w @ eta @ iso.h2_to_hyperboloid(target))
    return w if side > 0 else -w


def iota(x):
    """sl(2, R) -> R^{2,1} in hyperboloid coordinates (y0, y1, y2):
    [[a, b], [c, -a]] -> ((c - b) / 2, a, -(b + c) / 2)."""
    a, b, c = x[0, 0], x[0, 1], x[1, 0]
    return np.array([(c - b) / 2.0, a, -(b + c) / 2.0])


# -- reference metrics of the curvature fit -----------------------------------

def sphere_metric(x):
    """Round unit sphere, coordinates (theta, phi)."""
    th = x[0]
    return np.diag([1.0, np.sin(th) ** 2])


def hyperbolic_metric(x):
    """Upper half-plane, coordinates (x, y)."""
    y = x[1]
    return np.diag([1.0 / y ** 2, 1.0 / y ** 2])


def stencil(metric, x):
    """(g, R) at x, in the convention of `curvature._riemann`."""
    g, r = cv._riemann(cv._evaluate(metric, x))
    return g[0], r[0]


def riemann(metric, x):
    """The lowered Riemann tensor of the curvature fit at x, in the
    convention of `stencil`."""
    return stencil(metric, x)[1]


def sectional_curvature(metric, x, plane=(0, 1)):
    """Sectional curvature of the coordinate plane (i, j) at x."""
    i, j = plane
    g, r = stencil(metric, x)
    return r[i, j, j, i] / (g[i, i] * g[j, j] - g[i, j] ** 2)


# -- sampled side rule of the black-hole rectangles ---------------------------

def limit_set_samples(h, depth):
    """Limit-set points at the reduced words up to `depth`: the
    attracting fixed point of each hyperbolic word and the fixed point
    of each parabolic one.  The inverse of every word is enumerated as
    well, so both fixed points of a hyperbolic word are sampled."""
    words = np.concatenate([m for m, _ in h.word_levels(depth)])
    return limit_points(words)


def limit_points(words):
    """The attracting fixed point of each hyperbolic matrix of a stack,
    and the fixed point of each parabolic one (elliptic ones and the
    identity are dropped)."""
    (a, b), (c, d) = words[:, 0].T, words[:, 1].T
    tr, p = a + d, a - d
    det = a * d - b * c
    # fixed points solve c x^2 - p x - b = 0; the attracting one has the
    # larger |c x + d| = |tr +- disc| / 2, so x = (p + s disc) / 2c with s
    # the sign of the trace.  Of that and the equal -2b / (p - s disc),
    # take the one free of cancellation (the second when the first is
    # 0/0, a parabolic fixing infinity).
    s = np.where(tr < 0, -1.0, 1.0)
    disc = np.sqrt(np.maximum(tr * tr - 4.0 * det, 0.0))
    plus, minus = p + s * disc, p - s * disc
    with np.errstate(divide="ignore", invalid="ignore"):
        first, second = plus / (2.0 * c), -2.0 * b / minus
    att = np.where(np.abs(plus) >= np.abs(minus), first, second)
    att = np.where(np.isnan(att), second, att)
    # as in `isometry.classify`, elliptic words have no boundary fixed
    # point (words are products of unimodular generators, so det = 1:
    # the computed a d - b c cancels, even below 0); the empty word gives
    # 0/0 in both forms
    return att[(np.abs(tr) >= 2.0 - iso.TAU_CLASS) & ~np.isnan(att)]


#: a limit-set sample inhabits an arc ARC_MARGIN radians inside it
ARC_MARGIN = 1e-7


def arc_contains(arc, x, tol=0.0):
    """Whether each boundary value of the array x lies in `arc`, at
    least tol radians inside it."""
    a, b = bh.circle_angle(arc.start), bh.circle_angle(arc.end)
    x = np.asarray(x, dtype=float)
    theta = np.where(np.isinf(x), math.pi, 2.0 * np.arctan(x))
    t = (theta - a) % (2.0 * math.pi)
    w = (b - a) % (2.0 * math.pi)
    return (tol < t) & (t < w - tol)


def sampled_side(g, samples):
    """The side of g: its fixed point if parabolic, else the arc between
    its fixed points that no limit-set sample inhabits."""
    k = iso.classify(g)
    if k.kind == "parabolic":
        return k.fixed_points[0]
    if k.kind != "hyperbolic":
        raise DomainError("peripheral holonomy must be hyperbolic or parabolic")
    att, rep = k.fixed_points
    arc1, arc2 = bh.CircleArc(att, rep), bh.CircleArc(rep, att)
    inhabited1 = bool(arc_contains(arc1, samples, tol=ARC_MARGIN).any())
    inhabited2 = bool(arc_contains(arc2, samples, tol=ARC_MARGIN).any())
    if inhabited1 and inhabited2:
        raise DomainError(
            "both candidate arcs meet the sampled limit set; increase depth")
    if not inhabited1 and not inhabited2:
        raise DomainError(
            "no limit-set samples landed near either arc; increase depth")
    return arc1 if inhabited2 else arc2


# -- limit-set arcs of the pruned lift families --------------------------------

def cylinder_samples(h, depth):
    """Per letter g, in the order of `teich.Holonomy.letter_matrices`,
    the `limit_points` of the reduced words up to `depth` that begin
    with g: each level of `word_levels` lists them as its g-th block."""
    n = 2 * len(h.gens)
    levels = [m for m, _ in h.word_levels(depth)][1:]
    return [limit_points(np.concatenate(
                [m[g * len(m) // n:(g + 1) * len(m) // n] for m in levels]))
            for g in range(n)]


def boundary_value(vec):
    """The ideal point a / b of an endpoint vector (a, b), or oo."""
    return iso.INF if vec[1] == 0 else float(vec[0] / vec[1])


def circle_arc(ends):
    """The `blackhole.CircleArc` of a (start, end) pair of endpoint
    vectors of `lamination.limit_arcs`.  Those arcs run counterclockwise
    in the angle of (a, b), which falls as a / b grows, so in
    `blackhole.circle_angle` the arc runs from end to start."""
    return bh.CircleArc(boundary_value(ends[1]), boundary_value(ends[0]))


def arc_holds(outer, inner, tol):
    """Whether the arc `inner` lies in the arc `outer` (both
    `blackhole.CircleArc`), to tol radians of `circle_angle`, read off
    the arc ends."""
    a = bh.circle_angle(outer.start)
    width = (bh.circle_angle(outer.end) - a) % (2.0 * math.pi)
    s, e = ((bh.circle_angle(x) - a + tol) % (2.0 * math.pi)
            for x in (inner.start, inner.end))
    return s <= e <= width + 2.0 * tol


def arcs_invariant(arcs, gens, tol=1e-12):
    """Whether g A_h lies in A_g for each letter g of `gens` and each
    letter h != g^-1 (letter i ^ 1 is the inverse of letter i): a
    Moebius map takes the arc from s to t to the arc from g s to g t."""
    for g, m in enumerate(gens):
        for k, ends in enumerate(arcs):
            if k == g ^ 1:
                continue
            arc = circle_arc(ends)
            image = bh.CircleArc(iso.apply_boundary(m, arc.start),
                                 iso.apply_boundary(m, arc.end))
            if not arc_holds(circle_arc(arcs[g]), image, tol):
                return False
    return True


# -- fixture surfaces ---------------------------------------------------------

def pants_three_punctured_sphere():
    return teich.PantDecomposition(1, (), ((0, 0), (0, 1), (0, 2)))


def pants_four_punctured_sphere():
    return teich.PantDecomposition(2, (((0, 2), (1, 2)),),
                                   ((0, 0), (0, 1), (1, 0), (1, 1)))


def triangulation_three_punctured_sphere():
    return teich.IdealTriangulation(
        2, (((0, 0), (1, 2)), ((0, 1), (1, 1)), ((0, 2), (1, 0))))
