"""Reference code that only the tests read.

Closed forms and brute-force checks that the package itself never
calls, kept next to the tests that compare the package against them:

* `causal_type_grid`, the brute-force form of `isometry.causal_type`;
* `mink4_inner` and `dist_h3` on H3 as unit timelike Minkowski-4
  vectors;
* `bend_points_per_vertex`, the bent map built one cocycle per point,
  and `bend_points_per_group`, one cocycle per crossing sequence, each
  the left fold of its own factors: the references of
  `bending.bend_points`, which checks the base point in its one query
  and builds each crossed prefix once for all sequences;
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
* `stencils_reference`, the stencils of the curvature fit built as the
  neighbours of the neighbours, and `fit_pattern_reference`, its
  curvature-1 tensor from four broadcast products, which the cached
  index tables of `curvature._stencils` and the one outer product of
  `curvature._fits` replaced;
* `limit_set_samples` and `sampled_side`, the side rule of
  `blackhole.peripheral_rectangle` from the limit set sampled at every
  reduced word up to a depth, which the one-point rule replaced;
* `limit_arcs_reference`, the limit-set arcs A_g with g A_h inside A_g,
  and `reach_family`, the lift family that the queries between a set
  of points can cross, its word tree pruned on those arcs
  (`reach_keep`, `prune_beyond`, `pruned_word_levels`): the depth-10
  reference of the hexagon walk where the full tree is over
  `teich.MAX_WORDS`, which `lamination.LiftFamily` built until the
  walks left no input that reaches it;
* `cylinder_samples`, `circle_arc` and `arcs_invariant`, the limit-set
  cylinders sampled per first letter and the arc containments of
  `limit_arcs_reference`, in the circle coordinate of
  `blackhole.circle_angle` rather than the arcs' own;
* `pant_frames_reference`, the cuff frames of a pant with each cuff
  classified and each axis mapped from (0, oo) anew at every use,
  which `teich._pant_frames` replaced;
* `local_model_ct`, the cosmological time of the one-geodesic local
  model, from the Minkowski coordinates of a point;
* `regular_domain_direct`, the sampled regular-domain membership with
  s(x) found at every orbit point by its own crossings query, which
  the affine words of `spacetime.regular_domain_contains` replaced,
  and `crossing_midpoints`, the midpoints it samples, with
  s there from a query of its own rather than the prefix of the
  segment's leaves;
* `affine_word`, a word of `spacetime.flat_holonomy`'s letter stack
  composed one letter at a time, as the per-letter affine holonomy did,
  rather than level by level through `word_levels`;
* `wick_records_reference`, the records of `cli.cmd_wick` with one
  metric sample and one curvature fit per grid point, and a fallback
  fit per point, which the one sample and one fit per (T, zeta) column
  replaced;
* `kernel_cases` and the 2x2 formulas that one matrix at a time
  wrote out before the stacked kernels replaced them:
  `adjugate_formula` (`isometry.inv`), `moebius_formula`
  (`isometry.apply_h2`), `pull_back_formula` (the hexagon walk's
  `lamination._pull_back`) and `side_ends_formula` (the triangle
  walk's side ends, now `lamination._mul` of its corner-pair table);
* `expm2_reference`, `isometry.expm2` as it was written before it
  kept one identity and one dtype test per call;
* `corner_fans`, the corner fans of a shear holonomy walked one corner
  at a time, which the stacked walk of `teich.holonomy_from_shear`
  replaced;
* `wick_rotate_reference`, `spacetime.wick_rotate` as two numpy
  4-vectors, chd * base + shd * normal, which the plain-float
  components replaced;
* fixture surfaces: the pant decompositions of the three- and
  four-punctured spheres and an ideal triangulation of the first.
"""

from __future__ import annotations

import cmath
import functools
import math

import numpy as np

from quakebend import bending as bd
from quakebend import blackhole as bh
from quakebend import cli
from quakebend import curvature as cv
from quakebend import earthquake as eq
from quakebend import isometry as iso
from quakebend import lamination as lm
from quakebend import spacetime as sp
from quakebend import teich
from quakebend.errors import DomainError, StructureError


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
                p = bd.apply_psl2c(eq.cocycle_product(leaves, (1j,))[0], p)
        else:
            p = iso.ads_embed(z)
            if moved:
                p = iso.ads_act(eq.cocycle_product(leaves, (1.0, -1.0)), p)
        out.append(p)
    return out


def cocycle_fold(leaves, c):
    """The cocycle at c of the leaves on its own: the normalized left
    fold of the factors exp(c a D)."""
    return iso.normalize(functools.reduce(np.matmul, [
        iso.expm2(c * leaf.weight * leaf.geodesic.displacement_generator())
        for leaf in leaves]))


def bend_points_per_group(ctx, zs):
    """`bending.bend_points` one crossing sequence at a time: the points
    grouped by the leaves of a query of zs alone, each group's cocycle
    folded on its own (`cocycle_fold`) and applied to the group as one
    stacked product; a point that crosses no leaf maps by the
    inclusion."""
    zs = np.asarray(zs, dtype=complex).reshape(-1)
    hyp = ctx.target == bd.HYPERBOLIC
    out = bd.mink4_from_h2(zs) if hyp else iso.ads_embed(zs)
    groups = {}
    crossed = ctx.family.crossings_from(eq.BASE_POINT, zs, on_leaf="include")
    for i, (leaves, _) in enumerate(crossed):
        if leaves:
            groups.setdefault(tuple(map(id, leaves)), (leaves, []))[1].append(i)
    for leaves, idx in groups.values():
        if hyp:
            out[idx] = bd.apply_psl2c(cocycle_fold(leaves, 1j), out[idx])
        else:
            pair = [cocycle_fold(leaves, c) for c in (1.0, -1.0)]
            out[idx] = iso.ads_act(pair, out[idx])
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
    g, r = cv._riemann(cv._evaluate(metric, cv._finite_points(x, 1)))
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


def neighbours(pts, h):
    """p + s e_k for s in (h, -h, h/2, -h/2), as out[p, k, s]."""
    m, n = pts.shape
    out = np.broadcast_to(pts[:, None, None, :], (m, n, 4, n)).copy()
    # step coordinate k alone: adding 0.0 elsewhere would turn -0.0 into +0.0
    k = np.arange(n)
    out[:, k, :, k] += np.array([h, -h, h / 2.0, -h / 2.0])
    return out


def stencils_reference(xs):
    """`curvature._stencils` of the points xs (m, n): x, its `neighbours`
    and theirs, (m, 1 + 4n + 16n^2, n)."""
    m, n = xs.shape
    near = neighbours(xs, cv.STEP).reshape(m, 4 * n, n)
    far = neighbours(near.reshape(-1, n), cv.STEP).reshape(m, -1, n)
    return np.concatenate([xs[:, None], near, far], axis=1)


def fit_pattern_reference(g):
    """g_jk g_il - g_ik g_jl per metric of the stack g (m, n, n), as
    (m, n^4) rows, from four broadcast products."""
    return (g[:, None, :, :, None] * g[:, :, None, None, :]
            - g[:, :, None, :, None] * g[:, None, :, None, :]).reshape(
                len(g), -1)


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


# -- per-point regular-domain membership -------------------------------------

def local_model_ct(q, alpha0=1.0):
    """Cosmological time of a Minkowski point over the segment
    [0, alpha0 v0], v0 = (0, 0, 1): its Lorentzian distance from the
    nearest point of the segment."""
    q = np.asarray(q, dtype=float)
    s = min(max(q[2], 0.0), alpha0)
    d = q - np.array([0.0, 0.0, s])
    val = -(-d[0] ** 2 + d[1] ** 2 + d[2] ** 2)
    if val <= 0 or d[0] <= 0:
        raise DomainError("point is not in the open future of the segment")
    return math.sqrt(val)


def regular_domain_direct(q, fam, h, depth=4):
    """`spacetime.regular_domain_contains` with s(x) at each sampled
    point from one crossings query at the base point and the sum of the
    crossed leaves' normals: the orbit points of the 2x2 reduced words
    to `depth`, and the `crossing_midpoints` of the segments to the
    first 15 of them."""
    q = np.asarray(q, dtype=float)
    x0 = eq.BASE_POINT
    words = np.concatenate([m for m, _ in h.word_levels(depth)])
    (a, b), (c, d) = words[:, 0].T, words[:, 1].T
    samples = ((a * x0 + b) / (c * x0 + d)).tolist()
    points = samples + crossing_midpoints(fam, x0, samples[1:16])
    for x, (leaves, _) in zip(points, fam.crossings_from(x0, points)):
        gap = float((q - sp._normal_sum(leaves)) @ sp.ETA
                    @ iso.h2_to_hyperboloid(x))
        if gap >= 0:
            return False
    return True


def crossing_midpoints(fam, x0, ys):
    """The hyperbolic midpoints between consecutive leaf crossings along
    each segment [x0, y], y in `ys`, segment by segment."""
    mids = []
    for frame, (leaves, _) in zip(lm.segment_frames(x0, ys),
                                  fam.crossings_from(x0, ys)):
        fi = iso.inv(frame)
        heights = sorted(
            math.sqrt(abs(iso.apply_boundary(fi, leaf.geodesic.p_minus)
                          * iso.apply_boundary(fi, leaf.geodesic.p_plus)))
            for leaf in leaves)
        for h1, h2 in zip(heights, heights[1:]):
            mids.append(iso.apply_h2(frame, 1j * math.sqrt(h1 * h2)))
    return mids


def affine_word(letters, word):
    """The product of the letters of a (2k, 4, 4) affine letter stack
    indexed by `word`, left to right (the identity for an empty word)."""
    out = np.eye(4)
    for i in word:
        out = out @ letters[i]
    return out


# -- limit-set arcs ------------------------------------------------------------

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
    vectors of `limit_arcs_reference`.  Those arcs run counterclockwise
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


#: the arcs start from the attracting fixed points of the reduced words
#: up to this length ...
ARC_SEED_DEPTH = 4
#: ... widened by this angle (of endpoint vectors, mod pi) at each end
ARC_WIDEN = 1e-6
#: passes of growth by the letters' images before the arcs are refused
ARC_PASSES = 8


def arc_angle(v):
    """Angle mod pi of endpoint vectors (..., 2), their point on RP^1.
    Twice it is the visual angle at i, so PSL(2, R) keeps its cyclic
    order, and an arc is the counterclockwise run between two angles."""
    return np.arctan2(v[..., 1], v[..., 0]) % np.pi


def arc_offset(p, s):
    """Counterclockwise angle from s to p, in [0, pi]."""
    return (p - s) % np.pi


def attracting(w):
    """Attracting fixed points, as endpoint vectors, of a stack of
    matrices (..., 2, 2)."""
    (a, b), (c, d) = np.moveaxis(w, (-2, -1), (0, 1))
    tr = a + d
    lam = 0.5 * (tr + np.sign(tr)
                 * np.sqrt(np.maximum(tr * tr - 4.0 * (a * d - b * c), 0.0)))
    # of the two forms of the eigenvector, the one free of cancellation
    big = np.hypot(b, lam - a) >= np.hypot(lam - d, c)
    return np.where(big[..., None], np.stack([b, lam - a], -1),
                    np.stack([lam - d, c], -1))


def limit_arcs_reference(h):
    """Arcs A_g of the boundary, one per letter g of
    `teich.Holonomy.letter_matrices`, with g A_h inside A_g for every
    h != g^-1: a (2k, 2, 2) array of endpoint vectors (start, end), or
    None when no such arcs were found.

    By induction on the word, A_g then holds the limit-set cylinder of
    g (the limit points of the reduced words that begin with g).  Each
    arc is kept off the repelling fixed point of g, where the circle is
    cut open.  It starts as the hull of the attracting fixed points of
    the words up to ARC_SEED_DEPTH that begin with g, widened by
    ARC_WIDEN, and grows by the images g A_h until a pass moves no arc;
    a Moebius map keeps the cyclic order, so a pass reads the arc ends
    only.  Letters off the orientation-preserving group, an arc or image
    over a cut point, arcs that together would cover the circle, or no
    fixed point after ARC_PASSES refuse the arcs (a cusped surface,
    whose limit set is the whole circle, is refused so).
    """
    gens = h.letter_matrices()
    n = len(gens)
    if not n or np.any(np.linalg.det(gens) <= 0):
        return None
    rows = np.arange(n)
    # each level of `h.word_levels` lists the words that begin with g as
    # its g-th block, and level 1 the letters: the circle is cut at
    # att(g^-1)
    seed = list(h.word_levels(ARC_SEED_DEPTH))[1:]
    words = np.concatenate([m.reshape(n, -1, 2, 2) for m, _ in seed], 1)
    att = arc_angle(attracting(words))
    cut = att[rows ^ 1, 0]
    x = arc_offset(att, cut[:, None])
    lo, hi = x.min(axis=1) - ARC_WIDEN, x.max(axis=1) + ARC_WIDEN
    other = rows[None, :] != (rows[:, None] ^ 1)
    for _ in range(ARC_PASSES):
        if (np.any(lo <= 0.0) or np.any(hi >= np.pi)
                or np.sum(hi - lo) >= np.pi):
            return None
        ends = cut[:, None] + np.stack([lo, hi], 1)
        arcs = np.stack([np.cos(ends), np.sin(ends)], -1)
        img = arc_offset(arc_angle(np.einsum("gij,hej->ghei", gens, arcs)),
                         cut[:, None, None])
        if np.any(other & (img[..., 0] > img[..., 1])):
            return None
        new_lo = np.minimum(lo, np.where(other, img[..., 0], np.pi).min(1))
        new_hi = np.maximum(hi, np.where(other, img[..., 1], 0.0).max(1))
        if np.array_equal(new_lo, lo) and np.array_equal(new_hi, hi):
            return arcs
        lo, hi = new_lo, new_hi
    return None


# -- cuff frames of a pant, one classification per use -----------------------

def _axis_or_point(c):
    """Axis of a hyperbolic cuff matrix, or its ideal fixed point if
    parabolic, classifying it anew."""
    k = iso.classify(c)
    if k.kind == "hyperbolic":
        return iso.axis(c)
    if k.kind == "parabolic":
        return k.fixed_points[0]
    raise StructureError("pant cuff holonomy is neither hyperbolic nor parabolic")


def pant_frames_reference(cuffs, lengths):
    """The frames of `teich._pant_frames` for a pant's cuff matrices and
    lengths, as first written: the chirality check and each frame take
    the axes from `iso.axis` and `_axis_or_point` and their
    `map_from_standard` at each use."""
    axes = [_axis_or_point(c) for c in cuffs]
    for i, ax in enumerate(axes):
        if not isinstance(ax, iso.Geodesic):
            continue
        for j, other in enumerate(axes):
            if i == j or not isinstance(other, iso.Geodesic):
                continue
            z = iso.apply_h2(other.map_from_standard(), 1j)
            if ax.side(z) >= 0:
                raise StructureError("pant normal form lost its chirality")
    frames = []
    for k, length in enumerate(lengths):
        if length <= 0:
            frames.append(None)
            continue
        ax = iso.axis(cuffs[k])
        frames.append(ax.map_from_standard() @ teich._a_mat(math.log(
            _foot_height(ax, _axis_or_point(cuffs[(k + 1) % 3])))))
    return frames


def _foot_height(axis, target):
    """Height h such that M(i h), M = axis.map_from_standard(), is the
    foot on `axis` of the perpendicular toward `target`."""
    minv = iso.inv(axis.map_from_standard())
    if isinstance(target, iso.Geodesic):
        u = iso.apply_boundary(minv, target.p_minus)
        v = iso.apply_boundary(minv, target.p_plus)
        if u == iso.INF or v == iso.INF or u * v <= 0:
            raise StructureError("cuff axes are not disjoint")
        return math.sqrt(u * v)
    u = iso.apply_boundary(minv, target)
    if u == iso.INF or u == 0.0:
        raise StructureError("ideal point lies on the cuff axis")
    return abs(u)


# -- the reach lift family: the word tree pruned on the limit-set arcs -------

#: a subtree is dropped only beyond the reach cut times 1 + PRUNE_SLACK:
#: room for the rounding of the leaf keys against the half-plane test
PRUNE_SLACK = 1e-6
LIFT_ROWS = ("ends_minus", "ends_plus", "weights", "levels", "sinh_dist")


def arcs_hold(arcs, gens, ends, letters):
    """Whether u e lies in A_u for each endpoint vector e of `ends` and
    each letter index u of `letters`."""
    start, end = arc_angle(arcs[letters, 0]), arc_angle(arcs[letters, 1])
    img = np.einsum("uij,ej->uei", gens[letters], ends)
    return bool(np.all(arc_offset(arc_angle(img), start[:, None])
                       <= arc_offset(end, start)[:, None]))


def prune_beyond(arcs, cut):
    """`pruned_word_levels` keep test: the child p of a prefix P is built
    unless all of its subtree lies farther than sinh^-1(cut) from i.

    When the last letters' images of the base leaf's ends lie in their
    arcs, every leaf P p U l of the subtree has both ends in P A_p, so
    lies in the closed half-plane over that arc.  With a = P s_p and
    b = P t_p, the arc spans under pi / 2 in `arc_angle` (under half
    the circle seen from i, which is then outside the half-plane)
    exactly when (a . b) det[a | b] > 0, and the distance from i to the
    half-plane's side has sinh |a . b| / |det[a | b]|.
    """
    s, t = arcs[:, 0].T, arcs[:, 1].T

    def keep(mats):
        a, b = mats @ s, mats @ t
        dot = a[:, 0] * b[:, 0] + a[:, 1] * b[:, 1]
        det = a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0]
        return ~(dot * det > cut * det * det)
    return keep


def reach_keep(leaves, h, cut):
    """The `prune_beyond` test of the family of `leaves` (as
    `lamination._lift_leaves` gives them) within `cut`, or None where
    the arcs do not cover it.  They cover it when u e lies in A_u for
    each end e of each base leaf and each last letter u that the leaf
    allows.  They are sought only when a letter stabilizes every base
    leaf (the multicurve family): the triangulation family's leaves end
    at fixed points of peripheral words, whose first letter the last
    letter can cancel, so that the check fails for them."""
    if not all(forbidden for _, _, forbidden in leaves):
        return None
    arcs, gens = limit_arcs_reference(h), h.letter_matrices()
    if arcs is None or not all(
            arcs_hold(arcs, gens, ends, [u for u in range(len(gens))
                                         if u not in forbidden])
            for ends, _, forbidden in leaves):
        return None
    return prune_beyond(arcs, cut)


def pruned_word_levels(h, depth, keep):
    """`teich.Holonomy.word_levels` with its tree pruned: `keep`, called
    on each level's stack, returns an (n, 2k) mask of the (prefix,
    letter) children to build, and a child left out is never extended.
    The products are `word_levels`' own per-letter einsum, whose rows do
    not depend on the other rows of the stack, so the words kept are
    bitwise those of the full tree, in its order; the same
    `teich.MAX_WORDS` budget holds for the products a level builds."""
    gens = h.letter_matrices()
    idx = np.arange(len(gens))
    mats, last = np.eye(2)[None], np.array([-1])
    yield mats, last
    for level in range(1, depth + 1):
        if len(mats) * len(gens) > teich.MAX_WORDS:
            raise DomainError(f"depth {depth} builds {len(mats) * len(gens)} "
                              f"words at level {level}")
        prod = np.empty((len(gens),) + mats.shape)
        for g in idx:
            np.einsum("nij,jk->nik", mats, gens[g], out=prod[g])
        prefix, last = np.nonzero((idx != (last[:, None] ^ 1)) & keep(mats))
        mats = prod.reshape(-1, 2, 2)[last * len(mats) + prefix]
        yield mats, last


class _ReachFamily(lm.LiftFamily):
    """See `reach_family`."""

    def __init__(self, lam, h, depth, reach):
        self.depth = depth
        self.cut = float(np.max(lm.reach_cut(reach), initial=0.0)) \
            * (1.0 + PRUNE_SLACK)
        leaves = lm._lift_leaves(lam, h)
        self.empty = not leaves
        if self.empty:
            return
        keep = reach_keep(leaves, h, self.cut)
        levels = list(h.word_levels(depth) if keep is None
                      else pruned_word_levels(h, depth, keep))
        rows = {name: [] for name in LIFT_ROWS}
        for (vm, vp), w, forbidden in leaves:
            for level, (block, last) in enumerate(levels):
                block = block[~np.isin(last, forbidden)]
                em, ep = block @ vm, block @ vp
                rows["ends_minus"].append(em)
                rows["ends_plus"].append(ep)
                rows["weights"].append(np.full(len(block), w))
                rows["levels"].append(np.full(len(block), level))
                rows["sinh_dist"].append(lm._sinh_dist_from_i(em, ep))
        for name, v in rows.items():
            setattr(self, name, np.concatenate(v))

    def _candidates(self, x, y):
        if np.maximum(lm.reach_cut(x), lm.reach_cut(y)).max() > self.cut:
            raise StructureError("a segment reaches beyond the points the "
                                 "lift family was built for")
        yield from super()._candidates(x, y)


def reach_family(lam, h, depth, reach):
    """The lift family of `lam` on `h` to `depth` that holds every leaf
    within sinh distance `cut` of i, the largest `lamination.reach_cut`
    of the points `reach` times 1 + PRUNE_SLACK: a
    `lamination.LiftFamily` whose word tree is pruned on the
    `limit_arcs_reference` certificate (`reach_keep`) from its first
    level on, so that a subtree all of whose leaves lie in a half-plane
    beyond the cut is never built.  Where the arcs do not cover the
    family, the tree is the full one.  Its rows are the full family's
    within the cut, bit for bit and in its order, and each level is
    drawn to `depth`, empty or not.  It answers `crossings_from` as the
    full family does, and refuses with StructureError a segment that
    reaches beyond the cut.  The depth-10 reference of the hexagon walk
    on rank-3 surfaces, whose full tree is over `teich.MAX_WORDS`."""
    return _ReachFamily(lam, h, depth, reach)


# -- wick records point by point ---------------------------------------------

def wick_records_reference(args):
    """The records of `cli.cmd_wick` for the parsed `wick` arguments
    args, each grid point sampled and fitted on its own: the records up
    to the first point that fails, then its exception; if the one
    stacked fit raises, each point is fitted alone as its record goes
    out."""
    grid = cli.parse_grid(args.grid, ("T", "u", "zeta"))
    a0 = args.alpha0
    chart = sp.chart_metric("wick", a0)
    recs, images, fitted, error = [], [], {}, None
    try:
        for T in grid["T"]:
            for u in grid["u"]:
                for z in grid["zeta"]:
                    p = sp.LocalPoint(float(T), float(u), float(z), a0)
                    g = sp.wick_metric(p).components
                    images.append([float(c) for c in sp.wick_rotate(p)])
                    recs.append({"T": float(T), "u": float(u),
                                 "zeta": float(z), "image": images[-1],
                                 "metric": [[float(c) for c in row]
                                            for row in g]})
                    if min(abs(z), abs(z - a0 / T)) > 0.05:
                        fitted[len(recs) - 1] = (T, z, u)
    except Exception as exc:
        error = exc
    try:
        fits = dict(zip(fitted, cv.constant_curvature_fits(
            chart, list(fitted.values()))))
    except Exception:
        fits = None
    worst = 0.0
    for i, rec in enumerate(recs):
        if i in fitted:
            kappa, _ = (cv.constant_curvature_fit(chart, fitted[i])
                        if fits is None else fits[i])
            worst = max(worst, abs(kappa + 1.0))
            rec["curvature"] = float(kappa)
            rec["curvature_residual"] = float(abs(kappa + 1.0))
        yield rec
    if error is not None:
        raise error
    yield {"max_curvature_residual": worst}
    if args.mesh_out:
        nu, nz = len(grid["u"]), len(grid["zeta"])
        cli.write_mesh(args.mesh_out, images[:nu * nz],
                       cli.grid_faces(nu, nz))
        yield {"mesh": args.mesh_out, "level": float(grid["T"][0])}


def wick_rotate_reference(p):
    """The Wick image of the `spacetime.LocalPoint` p as the base point
    and the normal of the model, two numpy 4-vectors, combined as
    cosh(d) * base + sinh(d) * normal."""
    T, u, z, a0 = p.T, p.u, p.zeta, p.alpha0
    d = sp.hyperbolic_boundary_distance(T)
    chd, shd = math.cosh(d), math.sinh(d)
    if p.regime == 2:
        ang = z * T
        base = np.array([math.cosh(u), math.sinh(u), 0.0, 0.0])
        normal = np.array([0.0, 0.0, math.sin(ang), math.cos(ang)])
    else:
        w, ang = (z, 0.0) if p.regime == 1 else (z - a0 / T, a0)
        base = np.array([math.cosh(w) * math.cosh(u),
                         math.cosh(w) * math.sinh(u),
                         math.sinh(w) * math.cos(ang),
                         -math.sinh(w) * math.sin(ang)])
        normal = np.array([0.0, 0.0, math.sin(ang), math.cos(ang)])
    return chd * base + shd * normal


# -- fixture surfaces ---------------------------------------------------------

def pants_three_punctured_sphere():
    return teich.PantDecomposition(1, (), ((0, 0), (0, 1), (0, 2)))


def pants_four_punctured_sphere():
    return teich.PantDecomposition(2, (((0, 2), (1, 2)),),
                                   ((0, 0), (0, 1), (1, 0), (1, 1)))


def triangulation_three_punctured_sphere():
    return teich.IdealTriangulation(
        2, (((0, 0), (1, 2)), ((0, 1), (1, 1)), ((0, 2), (1, 0))))


# -- the 2x2 kernels, one matrix at a time ---------------------------------

def kernel_cases(rng, n=40):
    """(2, 2) matrices for the bitwise tests of the stacked 2x2 kernels,
    by name: an (n, 2, 2) stack with entries over seven decades, one
    (2, 2) matrix, a complex stack, a strided and transposed view into
    a larger stack, and a stack holding -0.0 and +0.0 entries."""
    stack = rng.normal(size=(n, 2, 2)) * 10.0 ** rng.uniform(-3, 4, (n, 1, 1))
    zeros = stack.copy()
    zeros[:, 0, 1], zeros[:, 1, 0] = np.where(np.arange(n)[:, None] % 2,
                                              [0.0, -0.0], [-0.0, 0.0]).T
    zeros[::3, 1, 1], zeros[1::3, 1, 1], zeros[2::5, 0, 0] = 0.0, -0.0, -0.0
    return {"stack": stack, "single": stack[0],
            "complex": stack + 1j * rng.normal(size=stack.shape),
            "strided": rng.normal(size=(n, 3, 2, 2))[:, 1].swapaxes(1, 2),
            "signed_zeros": zeros}


def kernel_points(rng, m):
    """A point of the upper half-plane per matrix of `m`, or one complex
    point for a single matrix."""
    if m.ndim == 2:
        return complex(rng.normal(), rng.uniform(0.1, 3.0))
    return rng.normal(size=len(m)) + 1j * rng.uniform(0.1, 3.0, len(m))


def adjugate_formula(m):
    """[[d, -b], [-c, a]] per matrix."""
    def one(x):
        return np.array([[x[1, 1], -x[0, 1]], [-x[1, 0], x[0, 0]]],
                        dtype=x.dtype)
    return one(m) if m.ndim == 2 else np.array([one(x) for x in m])


def _per_matrix(formula, m, z):
    """`formula` of a point per matrix: of a real stack matrix by matrix
    in numpy scalars, as `spacetime.regular_domain_contains` applied
    each segment frame; of a complex stack all at once, as the walks
    wrote it (numpy's complex array product may round a multiply-add
    once where its scalar product rounds twice)."""
    if m.ndim == 2 or np.iscomplexobj(m):
        return np.asarray(formula(m, z))
    return np.array([formula(x, w) for x, w in zip(m, z)])


def moebius_formula(m, z):
    """(a z + b) / (c z + d) per matrix and point."""
    def one(x, w):
        (a, b), (c, d) = np.moveaxis(x, (-2, -1), (0, 1))
        return (a * w + b) / (c * w + d)
    return _per_matrix(one, m, z)


def pull_back_formula(m, z):
    """(d z - b) / (a - c z) per matrix and point."""
    def one(x, w):
        (a, b), (c, d) = np.moveaxis(x, (-2, -1), (0, 1))
        return (d * w - b) / (a - c * w)
    return _per_matrix(one, m, z)


def side_ends_formula(g, k):
    """The endpoint vectors, (2, n) each, of side k_i of the triangle of
    chart g_i: g_i times corners k_i and k_i + 1 of the standard
    triangle, one column product at a time."""
    return [(g[:, :, 0] * v[:, :1] + g[:, :, 1] * v[:, 1:]).T
            for v in (lm._CORNERS[k], lm._CORNERS[(k + 1) % 3])]


def corner_fans(charts):
    """The (n, 3, 2, 2) corner fans of `TriangleCharts`, one corner at a
    time: the product of the chart changes `step` once around corner c
    of triangle t, through the triangles `across` and the sides `entry`,
    starting from the identity."""
    def fan(t, c):
        mat, start = np.eye(2), (t, c)
        while True:
            mat = mat @ charts.step[t, c]
            t, c = charts.across[t, c], (charts.entry[t, c] + 1) % 3
            if (t, c) == start:
                return mat
    return np.array([[fan(t, c) for c in range(3)]
                     for t in range(len(charts.step))])


def expm2_reference(a):
    """exp of a 2x2 matrix in closed form, with an identity of the
    matrix's dtype built at each use."""
    a = np.asarray(a, dtype=complex if np.iscomplexobj(a) else float)
    half_tr = iso.tr(a) / 2.0
    a0 = a - half_tr * np.eye(2, dtype=a.dtype)
    mu2 = -iso.det(a0)
    if abs(mu2) < 1e-30:
        e0 = np.eye(2, dtype=a.dtype) + a0
    else:
        mu = cmath.sqrt(mu2) if (np.iscomplexobj(a) or mu2 < 0) \
            else math.sqrt(mu2)
        c = cmath.cosh(mu) if isinstance(mu, complex) else math.cosh(mu)
        s = cmath.sinh(mu) / mu if isinstance(mu, complex) \
            else math.sinh(mu) / mu
        e0 = c * np.eye(2, dtype=complex if isinstance(mu, complex)
                        else float) + s * a0
    scale = cmath.exp(half_tr) if np.iscomplexobj(a) else math.exp(half_tr)
    out = scale * e0
    if not np.iscomplexobj(a) and np.iscomplexobj(out):
        out = out.real
    return out
