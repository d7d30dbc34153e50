"""Finite measured geodesic laminations in the two combinatorial families.

A ``MultiCurveLam`` weights the pant curves of a decomposition; a
``TriangulationLam`` weights the edges of an ideal triangulation and
records the per-puncture spiraling signature.  Arbitrary finite
laminations occur only as realized lifts (``realize``: the walks
across hexagons and ideal triangles, or the full word family
``LiftFamily`` where no walk applies), never as user input, which keeps
disjointness decidable.

Peripheral spectra use the same star convention as the shear length
formula: every corner incidence of an edge at the puncture counts.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from quakebend import isometry as iso
from quakebend import teich
from quakebend.errors import DomainError, StructureError, QuakebendError

#: a leaf within END_TOL of a segment end (in the crossing parameter) meets it
END_TOL = 1e-9
#: two leaves with a |cross-ratio| below SHARED_END_TOL share an endpoint
SHARED_END_TOL = 1e-8


class BasePointOnLeafError(QuakebendError):
    """A segment endpoint, such as the base point of the deformed
    holonomies, lies on a weighted leaf (a domain error, exit 3)."""


class UnsupportedCurveError(QuakebendError):
    """Curve outside the pant-decomposition dictionary."""


@dataclass(frozen=True)
class MultiCurveLam:
    """Weights w_j >= 0 on the interior curves z_j of a decomposition."""

    weights: tuple

    def __post_init__(self):
        if any(w < 0 for w in self.weights):
            raise DomainError("multicurve weights must be >= 0")


@dataclass(frozen=True)
class TriangulationLam:
    """Weights w_E > 0 on the edges of an ideal triangulation, plus the
    per-puncture spiraling signature."""

    triangulation: teich.IdealTriangulation
    weights: tuple
    signature: tuple  # sigma_i per puncture

    def __post_init__(self):
        if len(self.weights) != self.triangulation.num_edges:
            raise StructureError("one weight per edge")
        if any(w <= 0 for w in self.weights):
            raise DomainError("triangulation-family weights must be > 0")
        if len(self.signature) != self.triangulation.num_punctures:
            raise StructureError("one spiraling sign per puncture")
        if any(s not in (-1, 1) for s in self.signature):
            raise DomainError("signature entries must be +-1")

    @classmethod
    def from_shear(cls, sp: teich.ShearPoint, weights):
        """Lamination of the triangulation edges realized on F(s).

        The spiraling signature is opposite to the shear sign at each
        opened boundary (+1 at cusps): the left quake from the all-cusp
        point opens boundaries with negative spiraling, and F(s) is by
        definition that left-quake image for s > 0.
        """
        sig = []
        for i in range(sp.triangulation.num_punctures):
            s = sp.puncture_sum(i)
            sig.append(1 if s == 0.0 else (-1 if s > 0 else 1))
        return cls(sp.triangulation, tuple(weights), tuple(sig))


@dataclass(frozen=True)
class EnhancedLam:
    """Lamination with a relaxed signature eta.

    eta_i must agree with sigma_i except at cusps entered by the
    lamination, where it is free; `kinds` records the per-puncture type
    of the underlying surface.
    """

    lam: object
    eta: tuple
    kinds: tuple

    def __post_init__(self):
        if len(self.eta) != len(self.kinds):
            raise StructureError("one eta sign per puncture")
        spec = peripheral_spectrum(self.lam, len(self.kinds))
        sig = signature(self.lam, len(self.kinds))
        for i, (e, s, k, I) in enumerate(zip(self.eta, sig, self.kinds, spec)):
            if e not in (-1, 1):
                raise DomainError("eta entries must be +-1")
            free = (k == teich.CUSP and I != 0.0)
            if not free and e != s:
                raise StructureError(
                    f"eta must equal the spiraling signature at puncture {i}")


@dataclass(frozen=True)
class WeightedGeodesic:
    geodesic: iso.Geodesic
    weight: float


# ---------------------------------------------------------------------------
# spectra
# ---------------------------------------------------------------------------

def peripheral_spectrum(lam, num_punctures):
    """(I_{C_1}, ..., I_{C_r}): transverse mass of the peripheral loops."""
    if isinstance(lam, MultiCurveLam):
        return tuple(0.0 for _ in range(num_punctures))
    if isinstance(lam, TriangulationLam):
        out = []
        for i in range(num_punctures):
            counts = lam.triangulation.star_counts(i)
            out.append(float(sum(c * w for c, w in zip(counts, lam.weights))))
        return tuple(out)
    raise StructureError(f"unsupported lamination {type(lam)!r}")


def signature(lam, num_punctures):
    if isinstance(lam, MultiCurveLam):
        return tuple(1 for _ in range(num_punctures))
    return tuple(lam.signature)


def intersection_spectrum(curve, lam: MultiCurveLam, pd: teich.PantDecomposition):
    """I_curve(lam) for curves of the decomposition dictionary.

    Pant curves and boundary curves are disjoint from the lamination;
    each transversal z'_j, z''_j crosses z_j twice.
    """
    if not isinstance(lam, MultiCurveLam):
        raise StructureError("intersection spectrum dictionary is for multicurves")
    if curve.startswith("C"):
        idx = int(curve[1:])
        if not 0 <= idx < pd.num_boundary:
            raise UnsupportedCurveError(curve)
        return 0.0
    for prefix, crossings in (("zpp", 2), ("zp", 2), ("z", 0)):
        if curve.startswith(prefix):
            idx = int(curve[len(prefix):])
            if not 0 <= idx < pd.num_interior:
                raise UnsupportedCurveError(curve)
            return float(crossings * lam.weights[idx])
    raise UnsupportedCurveError(curve)


def enhanced_spectrum(elam: EnhancedLam, i):
    """Signed peripheral spectrum I#_{C_i} = eta_i I_{C_i}."""
    return elam.eta[i] * peripheral_spectrum(elam.lam, len(elam.kinds))[i]


# ---------------------------------------------------------------------------
# geometric realization
# ---------------------------------------------------------------------------

def segment_frames(x, ys):
    """(S, 2, 2) array of the matrices F with F^{-1} x = i and
    F^{-1} y = i e^{d(x, y)}, one per y of `ys`.

    F = A K: A = [[sqrt(b), a / sqrt(b)], [0, 1 / sqrt(b)]] takes i to
    x = a + ib, and the rotation K = [[c, -s], [s, c]] about i turns the
    upward ray from i toward w = A^{-1} y.  In the disk model at i, w is
    zeta = (y - x) / (y - conj(x)) and K multiplies by e^{-2i alpha}
    with e^{i alpha} = c + is, so e^{2i alpha} = conj(zeta) / |zeta|.
    The half angle is taken from whichever of |zeta| + conj(zeta) and
    i (|zeta| - conj(zeta)) is the longer, so no step cancels, on
    vertical segments (zeta real) or anywhere else.
    """
    y = np.asarray(ys, dtype=complex).reshape(-1)
    if np.any(np.abs(x - y) < 1e-14):
        raise DomainError("segment endpoints coincide")
    if not (x.imag > 0 and np.all(y.imag > 0)):
        raise DomainError("segment endpoints must lie in the upper half-plane")
    v = np.conj((y - x) / (y - np.conj(x)))
    rho = np.abs(v)
    half = np.where(v.real >= 0, rho + v, 1j * (rho - v))
    half = half / np.abs(half)
    c, s = half.real, half.imag
    root = math.sqrt(x.imag)
    f = np.array([root * c + x.real * s / root, x.real * c / root - root * s,
                  s / root, c / root])
    return f.T.reshape(-1, 2, 2)


def _base_leaves(lam, h: teich.Holonomy):
    """(geodesic, weight, letter) per weighted leaf, the letter generating
    its setwise stabilizer (None when that is trivial, as for the
    cusp-to-cusp / spiraling leaves of the triangulation family)."""
    if isinstance(lam, MultiCurveLam):
        return [(iso.axis(h.curve(f"z{j}")), float(w), f"z{j}")
                for j, w in enumerate(lam.weights) if w > 0]
    if isinstance(lam, TriangulationLam):
        charts = h.meta.get("triangle_charts")
        if charts is None:
            raise StructureError("holonomy lacks the placed edge geodesics; "
                                 "build it with holonomy_from_shear")
        return [(g, float(w), None)
                for g, w in zip(charts.geodesics, lam.weights)]
    raise StructureError(f"unsupported lamination {type(lam)!r}")


def _proj_vec(p):
    return (1.0, 0.0) if p == iso.INF else (float(p), 1.0)


def _det(a, b):
    """det[a | b] of endpoint vectors: pairs, or (2, n) arrays of them."""
    return a[0] * b[1] - a[1] * b[0]


def _sinh_dist_from_i(a, b):
    """sinh d(i, leaf) = |a1 b1 + a2 b2| / |a1 b2 - a2 b1| for rows of
    endpoint vectors a, b; +inf where not finite (a degenerate leaf)."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        key = np.abs(np.sum(a * b, axis=1) / _det(a.T, b.T))
    return np.where(np.isfinite(key), key, np.inf)


def reach_cut(zs):
    """sinh R(z), R(z) = d(i, z) + 2 END_TOL, for each point z.

    Distance to i is convex along a segment, so the leaves crossing it
    lie within the larger R of its ends; R is padded by one END_TOL for
    the near-end window of `LiftFamily.crossings_from` and one for
    rounding.  sinh(d / 2) = |z - i| / (2 sqrt(Im z)).
    """
    z = np.asarray(zs, dtype=complex)
    half = np.abs(z - 1j) / (2.0 * np.sqrt(z.imag))
    return np.sinh(2.0 * np.arcsinh(half) + 2.0 * END_TOL)


def _segment_lengths(x, ys):
    """Hyperbolic length d(x, y) of each segment [x, y], y of `ys`."""
    return 2.0 * np.arcsinh(np.abs(ys - x) / (2.0 * np.sqrt(x.imag * ys.imag)))


def _frame_test(frames, seg_len, si, em, ep, on_leaf):
    """The one crossing rule, on candidate (segment, leaf) pairs: the
    segment of row si of `frames` (see `segment_frames`) and `seg_len`,
    and the leaf with endpoint vectors em, ep, (2, P) arrays.

    In the segment frame (x = i, y = i e^L) a leaf crosses the segment's
    line where its frame endpoints have opposite signs, at the
    parameter t with e^{2t} = -(product of the endpoints).  A leaf
    within END_TOL of x or y (in t) raises BasePointOnLeafError, or
    with on_leaf='include' counts at half its weight, so that
    B(x, y) B(y, z) = B(x, z) holds for every y; with on_leaf='end'
    one at x raises and one at y counts at half.  Returns the indices
    of the crossing pairs, ordered by segment and then along it, and
    per crossing pair whether it meets an end and whether its negative
    frame endpoint comes from em (it then runs from ep to em, which
    puts x on its left).
    """
    # frame coordinates F^{-1} e of the endpoints, F^{-1} = [[d, -b], [-c, a]]
    a, b, c, d = (frames[si, i, j] for i in (0, 1) for j in (0, 1))
    dm, dp = a * em[1] - c * em[0], a * ep[1] - c * ep[0]
    with np.errstate(divide="ignore", invalid="ignore"):
        vm = (d * em[0] - b * em[1]) / dm
        vp = (d * ep[0] - b * ep[1]) / dp
        finite = np.isfinite(vm) & np.isfinite(vp) & (dm != 0) & (dp != 0)
        prod = np.where(finite, vm * vp, 1.0)
    hit = np.flatnonzero(finite & (prod < 0))
    t = 0.5 * np.log(-prod[hit])
    length = seg_len[si[hit]]
    at_x, at_y = np.abs(t) <= END_TOL, np.abs(t - length) <= END_TOL
    if (at_x.any() and on_leaf != "include") or \
            (at_y.any() and on_leaf == "raise"):
        raise BasePointOnLeafError(
            "a segment endpoint lies on a weighted leaf")
    near_end = at_x | at_y
    inside = ((t > 0) & (t < length)) | near_end
    # along each segment in t order; np.lexsort is stable
    order = np.flatnonzero(inside)[np.lexsort((t[inside], si[hit[inside]]))]
    return hit[order], near_end[order], vm[hit[order]] < 0


def _endpoints(vecs):
    """Ideal endpoints of rows of endpoint vectors, as floats."""
    with np.errstate(divide="ignore", invalid="ignore"):
        p = vecs[:, 0] / vecs[:, 1]
    return np.where(np.abs(vecs[:, 1]) < 1e-13 * np.abs(vecs[:, 0]),
                    iso.INF, p).tolist()


def _crossings(x, ys, on_leaf, candidates):
    """(leaves, converged) for each segment [x, y], y in `ys`, from the
    blocks (segment, ends_minus, ends_plus, weight, deep) of candidate
    pairs, end vectors as (2, P) arrays, that `candidates(x, y)` yields
    for the y apart from x.  A pair that `_frame_test` finds crossing
    is run with x on its left, at half weight at an end; a `deep` one
    clears converged.  Equal crossed leaves are one object.  An unknown
    `on_leaf` raises StructureError."""
    if on_leaf not in ("raise", "include", "end"):
        raise StructureError("on_leaf must be 'raise', 'include' or 'end', "
                             f"not {on_leaf!r}")
    ys = np.asarray(ys, dtype=complex).reshape(-1)
    leaves, converged = [[] for _ in ys], np.ones(len(ys), bool)
    seg = np.flatnonzero(np.abs(x - ys) >= 1e-14)
    if not len(seg):
        return [(crossed, True) for crossed in leaves]
    y = ys[seg]
    frames, seg_len = segment_frames(x, y), _segment_lengths(x, y)
    # one leaf object per distinct (start, end, weight) of the query
    leaf = functools.cache(
        lambda p, q, wk: WeightedGeodesic(iso.Geodesic(p, q), wk))
    for si, em, ep, w, deep in candidates(x, y):
        hit, near_end, reverse = _frame_test(frames, seg_len, si, em, ep,
                                             on_leaf)
        start = np.where(reverse, ep[:, hit], em[:, hit]).T
        end = np.where(reverse, em[:, hit], ep[:, hit]).T
        keys = zip(_endpoints(start), _endpoints(end),
                   (np.where(near_end, 0.5, 1.0) * w[hit]).tolist())
        segs = seg[si[hit]]
        converged[segs[deep[hit]]] = False
        for s, key in zip(segs.tolist(), keys):
            leaves[s].append(leaf(*key))
    return list(zip(leaves, converged.tolist()))


def _lift_leaves(lam, h: teich.Holonomy):
    """The base leaves of `lam` on `h`, each as (its endpoint vectors,
    its weight, the last letters it forbids: its stabilizer's letter
    and inverse, or none)."""
    names = list(h.gens)
    leaves = []
    for geo, w, stab_name in _base_leaves(lam, h):
        gi = 2 * names.index(stab_name) if stab_name in names else None
        leaves.append((np.array([_proj_vec(geo.p_minus),
                                 _proj_vec(geo.p_plus)]), w,
                       () if gi is None else (gi, gi + 1)))
    return leaves


class LiftFamily:
    """The translates of a finite lamination's leaves up to a word depth.

    Enumerates the reduced words of the free generating set once with
    `teich.Holonomy.word_levels` and answers segment-crossing queries
    cheaply, so cocycles along many segments share one realization.
    Leaves are indexed by canonical coset representatives of their
    stabilizers (words not ending in the stabilizing letter), so
    distinct entries are distinct geodesics and every leaf is produced
    by its shortest word; the rows come base leaf, then level, then
    prefix-major.  `sinh_dist` holds sinh d(i, leaf), so a query tests
    only the leaves within the `reach_cut` of its segment.  The family
    answers a query of any reach; a crossing from the deepest level
    clears `converged`.  It answers what no walk does (see `realize`):
    a multicurve on a cusped Fenchel-Nielsen surface, the fallback of
    `TriangleWalk`, and the full families of `regular_domain_contains`,
    the benchmark's check of `bend` and the tests.
    """

    #: (segment, leaf) pairs tested at once by `crossings_from` (bounds memory)
    PAIRS_PER_BLOCK = 1 << 15

    def __init__(self, lam, h: teich.Holonomy, depth=12):
        if depth < 1:
            raise DomainError("depth must be >= 1")
        self.depth = depth
        leaves = _lift_leaves(lam, h)
        self.empty = not leaves
        if self.empty:
            return
        words = list(h.word_levels(depth))
        ends_m, ends_p, sizes = [], [], []
        for (vm, vp), _, forbidden in leaves:
            for block, bl in words:
                if forbidden:
                    block = block[(bl != forbidden[0]) & (bl != forbidden[1])]
                ends_m.append(block @ vm)
                ends_p.append(block @ vp)
                sizes.append(len(block))
        del words, block, bl  # free the word stack before concatenating
        self.ends_minus = np.concatenate(ends_m)
        self.ends_plus = np.concatenate(ends_p)
        del ends_m, ends_p  # the key is elementwise: one pass for all levels
        self.sinh_dist = _sinh_dist_from_i(self.ends_minus, self.ends_plus)
        sizes = np.reshape(sizes, (len(leaves), -1))
        self.weights = np.repeat([w for _, w, _ in leaves], sizes.sum(1))
        self.levels = np.repeat(np.indices(sizes.shape)[1], sizes.ravel())

    def crossings(self, x, y, on_leaf="raise"):
        """Leaves crossing [x, y], ordered along it, and the
        depth-convergence flag: `crossings_from` for one segment."""
        return self.crossings_from(x, [y], on_leaf)[0]

    def crossings_from(self, x, ys, on_leaf="raise"):
        """(leaves, converged) for each segment [x, y], y in `ys`: the
        leaves crossing it as `_frame_test` decides, ordered along it
        and with x on their left, and whether none of them comes from
        the deepest word level.  A leaf through x or y raises
        BasePointOnLeafError, or with on_leaf='include' comes back at
        half its weight; with on_leaf='end' only one through y does.  A
        y equal to x gives no leaves.  The walks share this query and
        `crossings`, each with its own `_candidates`.
        """
        return _crossings(x, ys, on_leaf, self._candidates)

    def _candidates(self, x, y):
        """`_crossings` blocks: the (segment, leaf) pairs within the
        reach cut of each segment, PAIRS_PER_BLOCK at a time."""
        if self.empty:
            return
        # the index is cut once at the largest `reach_cut`; each
        # segment then keeps the leaves within its own
        cut = np.maximum(reach_cut(x), reach_cut(y))
        rows = np.flatnonzero(self.sinh_dist <= cut.max())
        dist = self.sinh_dist[rows]
        em, ep = self.ends_minus[rows].T, self.ends_plus[rows].T
        w, deep = self.weights[rows], self.levels[rows] >= self.depth
        step = max(1, self.PAIRS_PER_BLOCK // max(1, len(rows)))
        for lo in range(0, len(y), step):
            si, ci = np.nonzero(dist <= cut[lo:lo + step, None])
            yield si + lo, em[:, ci], ep[:, ci], w[ci], deep[ci]


# ---------------------------------------------------------------------------
# the walk across the ideal triangles of a triangulation lamination
# ---------------------------------------------------------------------------

#: a query whose walk takes this many steps is answered by the word family
WALK_STEPS = 64
#: a point beyond a wall, or nearer to it than this (sinh of the
#: distance), leaves the convex core
WALL_TOL = 1e-9
#: corners 0, 1, 2 of the standard triangle (0, oo, -1) as endpoint vectors
_CORNERS = np.array([[0.0, 1.0], [1.0, 0.0], [-1.0, 1.0]])
#: per side k of the standard triangle, its endpoint vectors, corners k
#: and k + 1, as the columns of a matrix
_SIDE_ENDS = np.stack([_CORNERS, np.roll(_CORNERS, -1, 0)], -1)
#: (A, B, C) per side k of the standard triangle: A |w|^2 + B Re w + C > 0
#: beyond it, that is Re w > 0, Re w < -1 and |w + 1/2| < 1/2
_SIDES = np.array([[0.0, 1.0, 0.0], [0.0, -1.0, -1.0], [-1.0, -1.0, 0.0]])
#: a point inside the standard triangle
_INSIDE = complex(-0.5, math.sqrt(3.0) / 2.0)


def _planes(p, q):
    """(..., 3) coefficients (A, B, C) of the geodesics between the
    endpoint vectors p and q, (..., 2) arrays, with (A |w|^2 + B Re w +
    C) / Im w the sinh of the signed distance of w from each.

    The geodesic between p and q is the zero set of
    p1 q1 |w|^2 - (p0 q1 + p1 q0) Re w + p0 q0, which is
    det[p | q] Im w times the signed sinh distance to it.  Mapping p and
    q by a matrix M of determinant +-1 maps the signs with the points,
    as z -> M z, or z -> M conj(z) when det M = -1 (a reflection).
    """
    p0, p1, q0, q1 = p[..., 0], p[..., 1], q[..., 0], q[..., 1]
    return np.stack([p1 * q1, -(p0 * q1 + p1 * q0), p0 * q0], -1) \
        / np.abs(p0 * q1 - p1 * q0)[..., None]


def _walls(charts: teich.TriangleCharts):
    """(n, 3, 3) coefficients (A, B, C) of `_planes`, per triangle and
    corner, of the half-plane beyond the wall at the corner, in the
    triangle's chart.  A boundary corner's wall is the axis of its
    peripheral element, which fixes the corner; (0, 0, -inf), no wall,
    at a cusp."""
    out = np.tile([0.0, 0.0, -np.inf], charts.boundary.shape + (1,))
    for t, c in zip(*np.nonzero(charts.boundary)):
        (a, b), (g, d) = charts.fan[t, c]
        # the other fixed point of [[a, b], [g, d]] given corner c
        q = ((a - d, g), (b, d - a), (a - d + g, g))[c]
        coef = _planes(_CORNERS[c], np.array(q))
        if coef @ [abs(_INSIDE) ** 2, _INSIDE.real, 1.0] > 0:
            coef = -coef
        out[t, c] = coef
    return out


def _mul(g, s):
    """Products g_i s_i of two (n, 2, 2) stacks, entry by entry, so that
    each product is bitwise the same in any stack."""
    return g[:, :, :1] * s[:, None, 0] + g[:, :, 1:] * s[:, None, 1]


class TriangleWalk:
    """Crossing queries of a triangulation lamination, answered by walking
    its ideal triangles (Devillers-Pion-Teillaud's straight walk, in the
    shear charts of `teich.TriangleCharts`).

    The lifted edges tile the convex core, so the leaves crossing [x, y]
    are the edges that separate x from y.  In the chart of a triangle,
    (0, oo, -1), its complement is three disjoint half-planes, so y
    lies beyond at most one side; the walk crosses that side and
    repeats until y lies inside a triangle.  Each crossed side separates
    x from y, and they come in order along the segment.  There is no
    depth, and `converged` is true by construction.  The walk proposes
    the crossed edges and the sides of its first and last triangles
    (for an end on a leaf); `_frame_test`, the rule of `LiftFamily`,
    decides them.  All segments of a query walk together, one stacked
    step per crossing.

    At a corner whose puncture is a geodesic boundary the edges spiral
    onto it: the lift of the boundary, the axis of the corner's
    peripheral element (a wall), bounds the core.  A start x beyond a
    wall is refused with DomainError.  A target beyond a wall of a
    triangle the walk enters, or a walk of WALK_STEPS steps, sends the
    whole query to the depth-capped `LiftFamily` (built once, on first
    need), whose candidates it yields in place of its own.
    """

    def __init__(self, lam: TriangulationLam, h: teich.Holonomy, depth=12):
        if depth < 1:
            raise DomainError("depth must be >= 1")
        charts = h.meta.get("triangle_charts")
        if charts is None:
            raise StructureError("holonomy lacks the triangle charts; "
                                 "build it with holonomy_from_shear")
        self.lam, self.h, self.depth = lam, h, depth
        self.charts = charts
        self.planes = np.concatenate(
            [np.broadcast_to(_SIDES, charts.boundary.shape + (3,)),
             _walls(charts)], 1)
        self.edge_weight = np.asarray(lam.weights)[charts.edge]
        self.fallback = None

    crossings = LiftFamily.crossings
    crossings_from = LiftFamily.crossings_from

    def _candidates(self, x, y):
        """`_crossings` blocks: the walk's proposals, or on a fallback
        the blocks of the word family."""
        proposed = self._propose(x, y)
        if proposed is None:
            if self.fallback is None:
                self.fallback = LiftFamily(self.lam, self.h, self.depth)
            yield from self.fallback._candidates(x, y)
        else:
            yield proposed

    def _propose(self, x, ys):
        """The `_crossings` block of the leaves proposed for each [x, y],
        or None if the query falls back.  An x whose own walk stops at
        a wall raises DomainError."""
        ch = self.charts
        # the triangle of x, from the base lift of triangle 0; a walk
        # that stops before WALK_STEPS steps stopped at a wall
        steps = []
        found = self._walk(np.zeros(1, int), ch.placement[:1],
                           iso.apply_h2(iso.inv(ch.placement[:1]), x), steps)
        if found is None and len(steps) < WALK_STEPS:
            raise DomainError("the base point lies beyond the convex core")
        if found is None:
            return None
        (t0,), g0, _ = found
        n = len(ys)
        crossed = []
        found = self._walk(np.full(n, t0), np.repeat(g0, n, 0),
                           iso.apply_h2(iso.inv(g0), ys), crossed)
        if found is None:
            return None
        tri, g, entry = found
        # (segments, charts, sides, triangles): the sides of the first
        # triangle, the later crossings (the first is one of those
        # sides) and the sides of the last triangle but the one the
        # walk came in by
        last, k = np.nonzero((entry >= 0)[:, None]
                             & (np.arange(3) != entry[:, None]))
        parts = [(np.repeat(np.arange(n), 3), np.repeat(g0, 3 * n, 0),
                  np.tile(np.arange(3), n), np.full(3 * n, t0)),
                 *crossed[1:], (last, g[last], k, tri[last])]
        si, gs, k, t = (np.concatenate(c) for c in zip(*parts))
        ends = _mul(gs, _SIDE_ENDS[k])
        return si, ends[:, :, 0].T, ends[:, :, 1].T, self.edge_weight[t, k], \
            np.zeros(len(si), bool)

    def _walk(self, tri, g, w, crossed):
        """Walk each target into its triangle: w_i, in the chart g_i of
        triangle tri_i, until it lies in none of the half-planes beyond
        the sides.  Appends (segments, charts, sides, triangles) of each
        step's crossings to the list `crossed`, and returns the final
        (tri, g, side entered by or -1), or None when a target lies
        beyond a wall or a walk reaches WALK_STEPS."""
        tri, g, w = tri.copy(), g.copy(), w.copy()
        entry = np.full(len(w), -1)
        live = np.arange(len(w))
        ch = self.charts
        for _ in range(WALK_STEPS):
            t, z = tri[live], w[live]
            u, v = z.real, z.imag
            q = self.planes[t]
            val = q[..., 0] * (u * u + v * v)[:, None] \
                + q[..., 1] * u[:, None] + q[..., 2]
            if np.any(val[:, 3:] > -WALL_TOL * v[:, None]):
                return None
            beyond = (val[:, :3] > 0) & (np.arange(3) != entry[live][:, None])
            moving = beyond.any(1)
            live, t = live[moving], t[moving]
            if not len(live):
                return tri, g, entry
            k = beyond[moving].argmax(1)
            crossed.append((live, g[live], k, t))
            g[live] = _mul(g[live], ch.step[t, k])
            w[live] = iso.apply_h2(ch.step_inv[t, k], w[live])
            entry[live], tri[live] = ch.entry[t, k], ch.across[t, k]
        return None


# ---------------------------------------------------------------------------
# the walk across the right-angled hexagons of a Fenchel-Nielsen surface
# ---------------------------------------------------------------------------

#: a hexagon walk of this many steps is a fault of the walk, not of its input
HEX_STEPS = 1000
#: a walk crosses a side only when its target lies farther beyond it than
#: this (sinh of the distance), so that no rounding takes it back
HEX_TOL = 1e-12
#: a seam step along a cuff shorter than this jumps along the cuff to the
#: hexagon that holds the target's foot on it: the hexagons there are
#: l / 2 long, so a walk past a short cuff would cross ~1 / l seams
JUMP_LENGTH = 0.25
#: z -> M(conj z) reflects in the unit circle, the seam of a cuff frame
_MIRROR = np.array([[0.0, 1.0], [1.0, 0.0]])
#: the midpoint of hexagon D0's or D1's side on cuff k, in its cuff frame,
#: in units of the coordinate sign * l / 2 where D0's side ends: D1's
#: sides are D0's reflected in the feet of seam 0 (at 0 on cuff 0 and at
#: the end on cuff 1) and, on cuff 2, in the foot of seam 2
_MIDPOINT = np.array([[0.5, 0.5, 0.5], [-0.5, 1.5, -0.5]])
#: per side k of a hexagon, the sides whose proposal flags a step across
#: it keeps: seam k - 3 keeps its two cuffs, side 6 (stay) keeps all, and
#: a cuff keeps none, unless it is a wall (where the walk stays)
_KEEP = np.zeros((7, 7), bool)
_KEEP[6] = True
_KEEP[[3, 3, 4, 4, 5, 5], [0, 1, 1, 2, 2, 0]] = True


def _pull_back(g, z):
    """The points g^-1 z, for a chart g or a (..., 2, 2) stack of them,
    elementwise as `iso.apply_h2`, with the adjugate of g written into
    the quotient: `iso.apply_h2(iso.inv(g), z)` differs from it in the
    sign of a zero."""
    return (g[..., 1, 1] * z - g[..., 0, 1]) / (g[..., 0, 0] - g[..., 1, 0] * z)


class HexagonWalk:
    """Crossing queries of a multicurve on a Fenchel-Nielsen surface whose
    boundaries are all geodesic, answered by walking the right-angled
    hexagons that tile its pants (Buser, *Geometry and Spectra of
    Compact Riemann Surfaces*, ch. 3), in the charts of
    `teich.PantCharts`.

    Each pant is two hexagons, D0 and its mirror D1 = R(D0) in the seam
    from cuff 0 to cuff 1, with alternate sides on the cuff axes (sides
    0-2) and on the seams, their common perpendiculars (sides 3-5, seam
    k from cuff k to cuff k + 1).  In the frame N of cuff k the cuff is
    (0, oo), D0's side on it runs from N(i), the foot of seam k, to the
    foot of seam k - 1 at height e^(+-l/2), and seam k is the unit
    circle, so z -> M(conj z), M = N [[0, 1], [1, 0]] N^-1, reflects in
    it.  A tile is a hexagon, 2 pant + (0 for D0, 1 for D1), and a
    chart that maps its pant's normal form onto the lift.  The chart
    changes across the sides are tables, as in `TriangleWalk`: across a
    seam lies the same pant's mirror hexagon; across a cuff half, the
    hexagon of the neighbouring pant that holds the half's midpoint,
    picked by the midpoint's coordinate along the cuff, after the
    twist, mod the cuff length.

    The lifted cuffs cut the convex core into lifts of pants, the
    regions, whose adjacency is a tree; inside a region the seams cut
    the hexagons apart, so theirs is a tree too.  The leaves crossing
    [x, y] are the lifted weighted cuffs that separate x from y.  y lies
    beyond at most one cuff and at most one seam of a hexagon (its
    non-adjacent sides are ultraparallel); the walk crosses that cuff,
    else that seam, so each step crosses a line that separates the
    hexagon from y, and the walk stops in the hexagon of y.  A side is
    crossed only when y lies more than HEX_TOL beyond it, so no
    rounding takes the walk back.  Along a cuff shorter than
    JUMP_LENGTH a seam step becomes a jump (`_jump`), so a walk past a
    short cuff takes a few steps, not ~1 / l.  A boundary cuff is a
    wall: the funnel beyond it holds no leaf, so a walk stops there
    with its crossings complete, and an x beyond a wall starts the
    walks from the hexagon at the wall.  There is no depth, and `converged` is true
    by construction.  A walk of HEX_STEPS steps raises RuntimeError.

    The walk proposes the weighted cuffs of the first hexagon, the
    later crossings and the cuffs of the last hexagon that no proposal
    holds yet (for an end on a leaf); `_frame_test`, the rule of
    `LiftFamily`, decides them.  All segments of a query walk together,
    one stacked step per side crossed.
    """

    def __init__(self, lam: MultiCurveLam, h: teich.Holonomy, depth=12):
        if depth < 1:
            raise DomainError("depth must be >= 1")
        ch = h.meta.get("pant_charts")
        if ch is None or not _geodesic_boundaries(ch):
            raise StructureError("the hexagon walk needs the pant charts of "
                                 "holonomy_from_fn and geodesic boundaries")
        self.charts = ch
        n = ch.decomposition.num_pants
        # per slot: the slot (q, m) glued to it, with the twist and the
        # weight of its curve, or a wall
        q, m = np.zeros((2, n, 3), int)
        twist, weight = np.zeros((n, 3)), np.zeros((n, 7))
        stop = np.ones((n, 7), bool)  # the walls, and side 6
        stop[:, 3:6] = False
        for j, (a, b) in enumerate(ch.decomposition.interior):
            for (p, k), other in ((a, b), (b, a)):
                (q[p, k], m[p, k]), stop[p, k] = other, False
                twist[p, k], weight[p, k] = ch.twists[j], lam.weights[j]
        wall = stop[:, :3]
        frame = np.array(ch.frames)                    # (n, 3, 2, 2)
        inv = iso.inv(frame)
        mirror = frame @ _MIRROR @ inv                 # the seam reflections
        # D0 across seam k is (M_k M_0) D1, and D1 across seam k is
        # (M_0 M_k) D0: deck transformations of the pant
        seam = mirror @ mirror[:, :1]
        seam[:, 0] = np.eye(2)
        # D0's side on cuff k ends at the foot of seam k - 1, at height
        # e^(sign l / 2) in the cuff's frame
        foot = inv @ frame[:, [2, 0, 1]] @ [1.0, 1.0]
        sign = np.where(np.abs(foot[..., 0]) > np.abs(foot[..., 1]), 1, -1)
        # the sides of D0 as endpoint vectors, the cuffs N(oo), N(0) and
        # the seams N(1), N(-1), and those of D1, their images under M_0.
        # D0 lies right of its cuffs, Re N^-1 z > 0, and outside the unit
        # circle of a seam k, |N^-1 z| > 1, where sign > 0
        ends = np.concatenate([frame, frame @ [[1.0, -1.0], [1.0, 1.0]]],
                              1).swapaxes(-1, -2)
        ends = np.stack([ends, ends @ mirror[:, None, 0].swapaxes(-1, -2)], 1)
        planes = np.zeros((n, 2, 7, 3))
        planes[:, :, :6] = _planes(ends[..., 0, :], ends[..., 1, :])
        planes[:, :, 3:6] *= -sign[:, None, :, None]
        planes[:, :, 6, 2] = np.inf  # side 6: stay, beyond which y always is
        self.planes = planes.reshape(2 * n, 7, 3).swapaxes(1, 2).copy()
        # the cuff frames of each hexagon: D1's cuff 2 is (M_0 M_2) axis 2
        frames = np.stack([frame, frame], 1)
        frames[:, 1, 2] = iso.inv(seam[:, 2]) @ frame[:, 2]
        # the coordinate of each side's midpoint on the cuff of the slot
        # (q, m) across, after the twist t, puts it in C^j D0 or in
        # C^j (D0's mirror in seam m), C = N A(l) N^-1
        half = np.array(ch.lengths) / 2.0
        sq, hq, t = sign[q, m][:, None], half[q, m][:, None], twist[:, None]
        j = np.floor((-_MIDPOINT * (sign * half)[:, None] - t) / hq
                     + (sq < 0)).astype(int)
        odd = j & 1
        shift = np.exp((t + (j + sq * odd) * hq) / 2.0)[..., None, None] \
            ** [[1.0, 0.0], [0.0, -1.0]] * np.eye(2)
        # the charts into D0 and into D0's mirror in seam k of each slot
        self.enter = np.stack([inv, inv @ seam], 2)    # (n, 3, odd, 2, 2)
        enter = self.enter[q, m]
        # per hexagon and side: the chart change, the hexagon across, and
        # what a step does to the flags of the cuffs whose axes a
        # proposal holds (a seam keeps those of its two cuffs, a cuff sets
        # that of its slot in the hexagon across); a wall or side 6 stays
        step = np.tile(np.eye(2), (n, 2, 7, 1, 1))
        step[:, :, :3] = np.where(wall[:, None, :, None, None], np.eye(2),
                                  frames @ teich.J_FLIP @ shift @ enter[
                                      np.arange(n)[:, None, None],
                                      np.arange(3), odd])
        step[:, 0, 3:6], step[:, 1, 3:6] = seam, iso.inv(seam)
        tiles = 2 * np.arange(n)[:, None, None] + np.arange(2)[:, None]
        across = np.repeat(tiles, 7, 2)
        across[:, :, :3] = np.where(wall[:, None], tiles, 2 * q[:, None] + odd)
        across[:, :, 3:6] ^= 1
        keep = np.tile(_KEEP, (n, 2, 1, 1))
        keep[:, :, :3] = wall[:, None, :, None]
        entry = np.zeros((n, 2, 7, 7), bool)
        entry[:, :, :3] = (np.eye(7, dtype=bool)[m]
                           & ~wall[..., None])[:, None]
        self.step = step.reshape(2 * n, 7, 2, 2)
        self.across = across.reshape(2 * n, 7)
        self.keep = keep.reshape(2 * n, 7, 7)
        self.entry = entry.reshape(2 * n, 7, 7)
        self.cuff = frames.reshape(2 * n, 3, 2, 2)
        self.half, self.sign = half, sign
        # the jumps: a seam step may run along either of its two cuffs
        # that is short, and the index of each hexagon's side on a cuff,
        # in units of l / 2 from the foot N(i) in the hexagon's frame
        self.short = 2 * half < JUMP_LENGTH
        self.jump = None  # per hexagon and side, if any cuff is short
        if self.short.any():
            self.jump = np.zeros((2 * n, 7), bool)
            self.jump[:, 3:6] = np.repeat(
                self.short | np.roll(self.short, -1, 1), 2, 0)
        self.chain_index = np.floor(_MIDPOINT * sign[:, None]).astype(
            int).reshape(2 * n, 3)
        self.stop = np.repeat(stop, 2, 0)
        self.weight = np.repeat(weight, 2, 0)

    crossings = LiftFamily.crossings
    crossings_from = LiftFamily.crossings_from

    def _candidates(self, x, ys):
        """The one `_crossings` block of the leaves proposed for each
        [x, y]."""
        n = len(ys)
        lines = np.zeros((n, 7), bool)
        lines[:, :3] = True
        (t0,), g0, _ = self._walk(np.zeros(1, int),
                                  self.charts.placement[0][None],
                                  np.array([x]), lines[:1], [])
        k0 = np.flatnonzero(self.weight[t0] > 0)
        proposed = [(np.repeat(np.arange(n), len(k0)),
                     np.repeat(g0, n * len(k0), 0), np.full(n * len(k0), t0),
                     np.tile(k0, n))]
        tile, g, lines = self._walk(np.full(n, t0), np.repeat(g0, n, 0), ys,
                                    lines, proposed)
        last, k = np.nonzero(~lines & (self.weight[tile] > 0))
        proposed.append((last, g[last], tile[last], k))
        si, gs, ts, ks = (np.concatenate(c) for c in zip(*proposed))
        ends = _mul(gs, self.cuff[ts, ks])
        yield si, ends[:, :, 0].T, ends[:, :, 1].T, self.weight[ts, ks], \
            np.zeros(len(si), bool)

    def _walk(self, t, g, ys, lines, proposed):
        """Walk each target ys_i from the hexagon t_i of chart g_i into its
        hexagon, or up to a wall beyond which it lies; lines_i flags the
        sides of its hexagon whose axes a proposal holds already.
        Appends (segments, charts, hexagons, cuffs) of the new weighted
        cuffs each step crosses to the list `proposed`, and returns the
        final (t, g, lines).  A walk that has stopped steps across side
        6, or its wall, which leaves it where it is."""
        flat = 7 * np.arange(len(ys))
        for _ in range(HEX_STEPS):
            w = _pull_back(g, ys)
            u, v = w.real[:, None], w.imag[:, None]
            q = self.planes[t]
            k = (q[:, 0] * (u * u + v * v) + q[:, 1] * u + q[:, 2]
                 > HEX_TOL * v).argmax(1)  # a cuff before a seam
            if self.stop[t, k].all():
                return t, g, lines
            new = (self.weight[t, k] > 0) > lines.take(flat + k)
            if new.any():
                proposed.append((np.flatnonzero(new), g[new], t[new], k[new]))
            step = (_mul(g, self.step[t, k]), self.across[t, k],
                    (lines & self.keep[t, k]) | self.entry[t, k])
            if self.jump is not None:
                jump = np.flatnonzero(self.jump[t, k])
                if len(jump):
                    self._jump(jump, t, k, g, ys, *step)
            g, t, lines = step
        raise RuntimeError(f"a hexagon walk took {HEX_STEPS} steps")

    def _jump(self, rows, t, k, g, ys, to_g, to_t, to_lines):
        """Replace the steps of the walks `rows` across seam k of their
        hexagons t (charts g) by jumps along one of the seam's two cuffs
        c, a short one, to the hexagon that holds the foot of y on c,
        where that is two or more hexagons on (the farther of the two
        cuffs): the hexagon, chart and proposal flags go to to_t, to_g
        and to_lines.  The path of the walk to y leaves the chain of
        hexagons along c at that hexagon, as a hexagon's two seams on c
        are perpendicular to it; after a jump the hexagon shares only c
        with the one left."""
        t = np.repeat(t[rows], 2)
        c = ((np.repeat(k[rows], 2) - 3) + np.tile([0, 1], len(rows))) % 3
        p = t >> 1
        hmat = _mul(np.repeat(g[rows], 2, 0), self.cuff[t, c])
        half, sign = self.half[p, c], self.sign[p, c]
        u = np.log(np.abs(_pull_back(hmat, np.repeat(ys[rows], 2))))
        j = np.floor(u / half + (sign < 0)).astype(int)
        reach = (np.abs(j - self.chain_index[t, c]) * self.short[p, c]) \
            .reshape(-1, 2)
        pick = 2 * np.arange(len(rows)) + reach.argmax(1)
        far = reach.max(1) >= 2
        if not far.any():
            return
        rows, pick = rows[far], pick[far]
        c, p, j, hmat = c[pick], p[pick], j[pick], hmat[pick]
        odd = j & 1
        e = np.exp((j + sign[pick] * odd) * half[pick] / 2.0)[:, None]
        hmat[:, :, 0] *= e
        hmat[:, :, 1] /= e
        to_g[rows] = _mul(hmat, self.enter[p, c, odd])
        to_t[rows] = 2 * p + odd
        to_lines[rows] &= np.eye(7, dtype=bool)[c]


def _geodesic_boundaries(charts):
    """Whether every cuff of the `teich.PantCharts` is a closed geodesic
    (no boundary length 0, a cusp)."""
    return all(length > 0 for row in charts.lengths for length in row)


def realize(lam, h: teich.Holonomy, depth=12, walk=False):
    """What answers the crossing queries of `lam` on `h`.  With `walk`
    (`quake`, `bend`, `deform_letters` and the `verify` quake and AdS
    suites ask for it): a `TriangleWalk` for a triangulation
    lamination, a `HexagonWalk` for a multicurve on a Fenchel-Nielsen
    surface whose boundaries are all geodesic.  Both walks answer any
    query exactly, with `converged` true by construction, and `depth`
    bounds nothing there.  Otherwise, on a cusped Fenchel-Nielsen
    surface (a boundary length of 0) or without `walk`, the full
    `LiftFamily` to `depth`, which answers any query too and holds its
    leaves as arrays (`ends_minus`, `ends_plus`, `weights`)."""
    if walk and isinstance(lam, TriangulationLam):
        return TriangleWalk(lam, h, depth)
    charts = h.meta.get("pant_charts")
    if walk and isinstance(lam, MultiCurveLam) and \
            charts is not None and _geodesic_boundaries(charts):
        return HexagonWalk(lam, h, depth)
    return LiftFamily(lam, h, depth)


def leaves_pairwise_disjoint(leaves):
    """Whether leaves ordered along a segment are pairwise disjoint.

    Consecutive leaves suffice: each bounds a half-plane holding all the
    leaves before it.  Leaves (a, b), (c, d) cross iff the cross-ratio
    det[a|c] det[b|d] / (det[a|d] det[b|c]) of their endpoint vectors is
    negative; a |cross-ratio| (or its inverse) below SHARED_END_TOL
    counts as a shared endpoint, as of two lifts spiraling into one
    point.
    """
    ends = [(_proj_vec(l.geodesic.p_minus), _proj_vec(l.geodesic.p_plus))
            for l in leaves]
    for (a, b), (c, d) in zip(ends, ends[1:]):
        num, den = _det(a, c) * _det(b, d), _det(a, d) * _det(b, c)
        if num * den < 0 and min(abs(num), abs(den)) > \
                SHARED_END_TOL * max(abs(num), abs(den)):
            return False
    return True
