"""Finite measured geodesic laminations in the two combinatorial families.

A ``MultiCurveLam`` weights the pant curves of a decomposition; a
``TriangulationLam`` weights the edges of an ideal triangulation and
records the per-puncture spiraling signature.  Arbitrary finite
laminations occur only as realized lift families (``LiftFamily``),
never as user input, which keeps disjointness decidable.

Peripheral spectra use the same star convention as the shear length
formula: every corner incidence of an edge at the puncture counts.
"""

from __future__ import annotations

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
        geos = h.meta.get("edge_geodesics")
        if geos is None:
            raise StructureError("holonomy lacks the placed edge geodesics; "
                                 "build it with holonomy_from_shear")
        return [(g, float(w), None) for g, w in zip(geos, lam.weights)]
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


# ---------------------------------------------------------------------------
# limit-set arcs: the certificate that prunes the word tree
# ---------------------------------------------------------------------------

#: the arcs start from the attracting fixed points of the reduced words
#: up to this length ...
ARC_SEED_DEPTH = 4
#: ... widened by this angle (of endpoint vectors, mod pi) at each end
ARC_WIDEN = 1e-6
#: passes of growth by the letters' images before the arcs are refused
ARC_PASSES = 8
#: a subtree is dropped only beyond the reach cut times 1 + PRUNE_SLACK:
#: room for the rounding of the leaf keys against the half-plane test
PRUNE_SLACK = 1e-6


def _angle(v):
    """Angle mod pi of endpoint vectors (..., 2), their point on RP^1.
    Twice it is the visual angle at i, so PSL(2, R) keeps its cyclic
    order, and an arc is the counterclockwise run between two angles."""
    return np.arctan2(v[..., 1], v[..., 0]) % np.pi


def _offset(p, s):
    """Counterclockwise angle from s to p, in [0, pi]."""
    return (p - s) % np.pi


def _attracting(w):
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


def limit_arcs(h: teich.Holonomy):
    """Arcs A_g of the boundary, one per letter g of
    `teich.Holonomy.letter_matrices`, with g A_h inside A_g for every
    h != g^-1: a (2k, 2, 2) array of endpoint vectors (start, end), or
    None when no such arcs were found.

    By induction on the word, A_g then holds the limit-set cylinder of
    g (the limit points of the reduced words that begin with g).  Each
    arc is kept off the repelling fixed point of g, where the circle is
    cut open.  It starts as the hull of the attracting fixed points of
    the words up to ARC_SEED_DEPTH that begin with g, widened by
    ARC_WIDEN, and grows by the images g A_h until a pass moves no arc.
    A Moebius map keeps the cyclic order, so g [s, t] = [g s, g t] and
    the check reads the arc ends only.  Letters off the
    orientation-preserving group, an arc or image over a cut point,
    arcs that together would cover the circle, or no fixed point after
    ARC_PASSES refuse the certificate (a cusped surface, whose limit
    set is the whole circle, is refused so).
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
    att = _angle(_attracting(words))
    cut = att[rows ^ 1, 0]
    x = _offset(att, cut[:, None])
    lo, hi = x.min(axis=1) - ARC_WIDEN, x.max(axis=1) + ARC_WIDEN
    other = rows[None, :] != (rows[:, None] ^ 1)  # the pairs h != g^-1
    for _ in range(ARC_PASSES):
        if (np.any(lo <= 0.0) or np.any(hi >= np.pi)
                or np.sum(hi - lo) >= np.pi):
            return None
        ends = cut[:, None] + np.stack([lo, hi], 1)
        arcs = np.stack([np.cos(ends), np.sin(ends)], -1)
        img = _offset(_angle(np.einsum("gij,hej->ghei", gens, arcs)),
                      cut[:, None, None])
        if np.any(other & (img[..., 0] > img[..., 1])):
            return None
        new_lo = np.minimum(lo, np.where(other, img[..., 0], np.pi).min(1))
        new_hi = np.maximum(hi, np.where(other, img[..., 1], 0.0).max(1))
        if np.array_equal(new_lo, lo) and np.array_equal(new_hi, hi):
            return arcs
        lo, hi = new_lo, new_hi
    return None


def _arcs_hold(arcs, gens, ends, letters):
    """Whether u e lies in A_u for each endpoint vector e of `ends` and
    each letter index u of `letters`."""
    start, end = _angle(arcs[letters, 0]), _angle(arcs[letters, 1])
    img = np.einsum("uij,ej->uei", gens[letters], ends)
    return bool(np.all(_offset(_angle(img), start[:, None])
                       <= _offset(end, start)[:, None]))


def _prune_beyond(arcs, cut):
    """`word_levels` keep test: the child p of a prefix P is built unless
    all of its subtree lies farther than sinh^-1(cut) from i.

    When the last letters' images of the base leaf's ends lie in their
    arcs, every leaf P p U l of the subtree has both ends in P A_p, so
    lies in the closed half-plane over that arc.  With a = P s_p and
    b = P t_p, the arc spans under pi / 2 in `_angle` (under half the
    circle seen from i, which is then outside the half-plane) exactly
    when (a . b) det[a | b] > 0, and the distance from i to the
    half-plane's side has sinh |a . b| / |det[a | b]|.
    """
    s, t = arcs[:, 0].T, arcs[:, 1].T

    def keep(mats):
        a, b = mats @ s, mats @ t
        dot = a[:, 0] * b[:, 0] + a[:, 1] * b[:, 1]
        det = a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0]
        return ~(dot * det > cut * det * det)
    return keep


class LiftFamily:
    """The translates of a finite lamination's leaves up to a word depth
    that queries from the points of `reach` can cross.

    Enumerates the reduced words of the free generating set once with
    `teich.Holonomy.word_levels` (the expensive part) and answers
    segment-crossing queries cheaply, so cocycles along many segments
    share one realization.  Leaves are indexed by canonical coset
    representatives of their stabilizers (words not ending in the
    stabilizing letter), so distinct entries are distinct geodesics and
    every leaf is produced by its shortest word.  `sinh_dist` holds
    sinh d(i, leaf), so a query tests only the leaves near its segment.

    With `reach`, the points that the queries' segments join, the
    family holds every leaf with sinh_dist <= `cut`, the largest
    `reach_cut` of them (times 1 + PRUNE_SLACK), and `crossings_from`
    refuses a segment that reaches farther.  The word tree is then
    pruned on the `limit_arcs` certificate from its first level on: a
    subtree all of whose leaves lie in a half-plane beyond the cut is
    never built.  The certificate covers the family when u e lies in
    A_u for each end e of each base leaf and each last letter u that
    the leaf allows.  It is sought only when a letter stabilizes every
    base leaf (the multicurve family).  The triangulation family's
    leaves end at fixed points of peripheral words, whose first letter
    the last letter can cancel, so that the check fails for them.  A
    family the certificate does not cover is enumerated in full.  The
    rows within the cut are bitwise those of the full family, in its
    order: base leaf, then level, then prefix-major.  Without `reach`
    the family is the full one and answers any query.
    """

    #: (segment, leaf) pairs tested at once by `crossings_from` (bounds memory)
    PAIRS_PER_BLOCK = 1 << 15

    def __init__(self, lam, h: teich.Holonomy, depth=12, reach=None):
        if depth < 1:
            raise DomainError("depth must be >= 1")
        self.depth = depth
        self.cut = math.inf if reach is None else (
            float(np.max(reach_cut(reach), initial=0.0)) * (1.0 + PRUNE_SLACK))
        base = _base_leaves(lam, h)
        self.empty = not base
        if self.empty:
            return
        names = list(h.gens)
        leaves = []  # (end vectors, weight, last letters it forbids)
        for geo, w, stab_name in base:
            gi = 2 * names.index(stab_name) if stab_name in names else None
            leaves.append((np.array([_proj_vec(geo.p_minus),
                                     _proj_vec(geo.p_plus)]), w,
                           () if gi is None else (gi, gi + 1)))
        keep = None
        # leaves that no letter stabilizes fail the certificate (see the
        # class notes)
        if reach is not None and all(forbidden for _, _, forbidden in leaves):
            arcs = limit_arcs(h)
            gens = h.letter_matrices()
            if arcs is not None and all(
                    _arcs_hold(arcs, gens, ends, [u for u in range(len(gens))
                                                  if u not in forbidden])
                    for ends, _, forbidden in leaves):
                keep = _prune_beyond(arcs, self.cut)
        words = list(h.word_levels(depth, keep))
        ends_m, ends_p, ws, lv, keys = [], [], [], [], []
        for (vm, vp), w, forbidden in leaves:
            for level, (block, bl) in enumerate(words):
                if forbidden:
                    block = block[(bl != forbidden[0]) & (bl != forbidden[1])]
                ends_m.append(block @ vm)
                ends_p.append(block @ vp)
                keys.append(_sinh_dist_from_i(ends_m[-1], ends_p[-1]))
                ws.append(np.full(len(block), w))
                lv.append(np.full(len(block), level))
        del words, block, bl  # free the word stack before concatenating
        self.ends_minus = np.concatenate(ends_m)
        self.ends_plus = np.concatenate(ends_p)
        self.weights = np.concatenate(ws)
        self.levels = np.concatenate(lv)
        self.sinh_dist = np.concatenate(keys)

    def crossings(self, x, y, on_leaf="raise"):
        """Leaves crossing [x, y], ordered along it, and the
        depth-convergence flag: `crossings_from` for one segment."""
        return self.crossings_from(x, [y], on_leaf)[0]

    def crossings_from(self, x, ys, on_leaf="raise"):
        """(leaves, converged) for each segment [x, y], y in `ys`: the
        leaves crossing it, ordered along it, and whether none of them
        comes from the deepest word level.  The one place that decides
        how a leaf meets a segment.  A segment whose `reach_cut` exceeds
        the family's `cut` raises StructureError.

        In the segment frame (x = i, y = i e^L) a crossed leaf runs from
        its positive frame endpoint to its negative one, which puts x on
        its left.  A leaf within END_TOL of x or y (in the crossing
        parameter t) raises BasePointOnLeafError, or with
        on_leaf='include' comes back at half its weight, so that
        B(x, y) B(y, z) = B(x, z) holds for every y.  A y equal to x
        gives no leaves.
        """
        ys = np.asarray(ys, dtype=complex).reshape(-1)
        out = [([], True) for _ in ys]
        seg = np.flatnonzero(np.abs(x - ys) >= 1e-14)
        if self.empty or not len(seg):
            return out
        # the index is cut once at the largest `reach_cut`; each
        # segment then keeps the leaves within its own
        y = ys[seg]
        frames = segment_frames(x, y)
        cut = np.maximum(reach_cut(x), reach_cut(y))
        if cut.max() > self.cut:
            raise StructureError("a segment reaches beyond the points the "
                                 "lift family was built for")
        rows = np.flatnonzero(self.sinh_dist <= cut.max())
        if not len(rows):
            return out
        seg_len = 2.0 * np.arcsinh(np.abs(y - x)
                                   / (2.0 * np.sqrt(x.imag * y.imag)))
        dist = self.sinh_dist[rows]
        em, ep = self.ends_minus[rows].T, self.ends_plus[rows].T
        step = max(1, self.PAIRS_PER_BLOCK // len(rows))
        for lo in range(0, len(y), step):
            # frame coordinates F^{-1} e of the endpoints of every
            # (segment, leaf) pair of the block, F^{-1} = [[d, -b], [-c, a]]
            a, b, c, d = (frames[lo:lo + step, i, j, None]
                          for i in (0, 1) for j in (0, 1))
            dm, dp = a * em[1] - c * em[0], a * ep[1] - c * ep[0]
            with np.errstate(divide="ignore", invalid="ignore"):
                vm = (d * em[0] - b * em[1]) / dm
                vp = (d * ep[0] - b * ep[1]) / dp
            finite = ((dist <= cut[lo:lo + step, None]) & np.isfinite(vm)
                      & np.isfinite(vp) & (dm != 0) & (dp != 0))
            prod = np.where(finite, vm * vp, 1.0)
            si, ci = np.nonzero(finite & (prod < 0))
            if not len(si):
                continue
            t = 0.5 * np.log(-prod[si, ci])
            length = seg_len[lo + si]
            near_end = (np.abs(t) <= END_TOL) | (np.abs(t - length) <= END_TOL)
            if near_end.any() and on_leaf == "raise":
                raise BasePointOnLeafError(
                    "a segment endpoint lies on a weighted leaf")
            inside = ((t > 0) & (t < length)) | near_end
            # along each segment in t order; np.lexsort is stable
            order = np.flatnonzero(inside)[np.lexsort((t[inside], si[inside]))]
            si, ci, near_end = si[order], ci[order], near_end[order]
            idx = rows[ci]
            reverse = (vm[si, ci] < 0).tolist()
            weight = (np.where(near_end, 0.5, 1.0) * self.weights[idx]).tolist()
            p_minus = self._endpoints(self.ends_minus[idx])
            p_plus = self._endpoints(self.ends_plus[idx])
            deep = self.levels[idx] >= self.depth
            for k, s in enumerate(seg[lo + si].tolist()):
                leaves = out[s][0]
                geo = (iso.Geodesic(p_plus[k], p_minus[k]) if reverse[k]
                       else iso.Geodesic(p_minus[k], p_plus[k]))
                leaves.append(WeightedGeodesic(geo, weight[k]))
                if deep[k]:
                    out[s] = (leaves, False)
        return out

    @staticmethod
    def _endpoints(vecs):
        """Ideal endpoints of rows of endpoint vectors, as floats."""
        with np.errstate(divide="ignore", invalid="ignore"):
            p = vecs[:, 0] / vecs[:, 1]
        return np.where(np.abs(vecs[:, 1]) < 1e-13 * np.abs(vecs[:, 0]),
                        iso.INF, p).tolist()


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
