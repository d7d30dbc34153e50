"""Flat regular domains, the one-geodesic local model, and the
Wick-rotation / rescaling maps to H3, de Sitter and anti-de Sitter.

The local model is the future of the spacelike segment [0, a0 v0] in
Minkowski 3-space, charted by cosmological time T, the level-surface
arc coordinates (u, zeta); the chart is C^{1,1} with three regimes
(hyperboloid wing, flat band over the singular segment, rotated wing),
with the band at 0 <= zeta <= a0 / T.  All metric samples are reported
in the (T-or-tau, zeta, u) coordinate order of this chart; inside the
band the literal chart components pick up the T zeta cross terms of
zeta = arc/T.  These vanish on the inner seam zeta = 0 only: on the
outer seam zeta = a0 / T they equal a0, and the rotated wing keeps that
constant a0 cross term, being a warped product only in its adapted
coordinate zeta' = zeta - a0 / T.

Setting a0 = +inf drops the third regime (the boundary-ray model).

Rescalings directed by the cosmological-time gradient are implemented
as tensor operations g = alpha h + (alpha +- beta) dT x dT, exact in
any chart where |dT|_h = -1; the universal function pairs are
(1/(T^2-1), 1/(T^2-1)^2) for the Wick rotation to H3 (T > 1),
(1/(1-T^2), 1/(1-T^2)^2) to de Sitter (T < 1) and
(1/(1+T^2), 1/(1+T^2)^2) to anti-de Sitter (any T > 0).

`chart_metric` gives these metrics as raw functions (T, zeta, u) ->
ndarray for the curvature oracle, also over an (N, 3) stack of points;
the public metric functions return the same components checked once as
a `MetricSample`.

The flat translation part of (F, lambda) is the derivative of the quake
cocycle in the weights: each crossed leaf adds its weight times its unit
normal 2 iota(D), D its displacement generator (`isometry.lie_vector`).
It is equivariant under the affine holonomy (`flat_holonomy`), so
regular-domain membership takes s at the orbit points of the base point
from the translation columns of the affine words, not from a query per
point.  A midpoint between crossings k and k + 1 of a segment [x0, y]
sums the normals of its first k + 1 leaves: [x0, mid] crosses exactly
those, with the same orientation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from quakebend import isometry as iso
from quakebend import teich
from quakebend import lamination as lm
from quakebend import earthquake as eq
from quakebend.errors import DomainError, StructureError

INF = math.inf
#: the Minkowski form of R^{2,1}, signature (-, +, +)
ETA = np.diag([-1.0, 1.0, 1.0])


def regime(T, zeta, alpha0):
    """Chart regime of (T, zeta) in the model of weight alpha0:
    1 hyperboloid wing, 2 band, 3 rotated wing."""
    if zeta < 0:
        return 1
    if alpha0 == INF or zeta <= alpha0 / T:
        return 2
    return 3


@dataclass(frozen=True)
class LocalPoint:
    """Point (T, u, zeta) of the one-geodesic local model with weight a0."""

    T: float
    u: float
    zeta: float
    alpha0: float = 1.0

    def __post_init__(self):
        if not self.T > 0:
            raise DomainError("cosmological time must be positive")
        if not (self.T < INF and abs(self.u) < INF and abs(self.zeta) < INF):
            raise DomainError("the chart coordinates must be finite")
        if not (self.alpha0 > 0):
            raise DomainError("the model weight must be positive (inf allowed)")

    @property
    def regime(self):
        return regime(self.T, self.zeta, self.alpha0)


def _close(m, n):
    """iso.allclose's rule for one entry m against n (NaN is never close)."""
    return m == n or (abs(m - n) <= 1e-12 + 1e-5 * abs(n) and math.isfinite(n))


def _symmetric(rows):
    """iso.allclose(g, g.T, 1e-12) on the rows of a 3x3 g: each
    off-diagonal pair in both orders, and each diagonal entry against
    itself, which refuses NaN."""
    (a, p, q), (d, b, r), (e, f, c) = rows
    return (a == a and b == b and c == c
            and (p == d or (_close(p, d) and _close(d, p)))
            and (q == e or (_close(q, e) and _close(e, q)))
            and (r == f or (_close(r, f) and _close(f, r))))


def _negative_count(rows):
    """Negative eigenvalues of the lower triangle of `rows` (the part
    eigvalsh reads), or None where eigvalsh must decide.  The signs of
    trace, minors' sum and det fix the count (Descartes' rule; the roots
    are real); past the cut every eigenvalue is about 1e-9 s or more
    from 0, far beyond the rounding of either method.  An infinite
    entry raises StructureError."""
    (a, _, _), (d, b, _), (e, f, c) = rows
    s = max(abs(a), abs(b), abs(c), abs(d), abs(e), abs(f))
    if not s < math.inf:
        raise StructureError("metric sample entries must be finite")
    if s == 0.0:
        return None
    # scaled to s = 1, so that det neither overflows nor underflows
    a, b, c, d, e, f = a / s, b / s, c / s, d / s, e / s, f / s
    e1 = a + b + c
    e2 = a * b - d * d + a * c - e * e + b * c - f * f
    e3 = a * (b * c - f * f) - d * (d * c - f * e) + e * (d * f - b * e)
    if e3 > 1e-8:
        return 0 if e1 > 0 and e2 > 0 else 2
    if e3 < -1e-8:
        return 3 if e1 < 0 and e2 > 0 else 1
    return None


@dataclass(frozen=True)
class MetricSample:
    """Checked symmetric 3x3 metric in the (T-or-tau, zeta, u) frame.

    Symmetry is the rule of iso.allclose(g, g.T, 1e-12), applied entry
    by entry in plain floats, and every entry must be finite.  The
    signature is the number of negative eigenvalues, read from the
    signs of the trace, the principal minors' sum and the determinant;
    np.linalg.eigvalsh decides only when the determinant is within
    1e-8 s^3 of 0 (s the largest |entry|).
    """

    components: np.ndarray
    signature: str  # 'lorentzian' | 'riemannian'

    def __post_init__(self):
        g = np.asarray(self.components, dtype=float)
        rows = g.tolist()
        if g.shape != (3, 3) or not _symmetric(rows):
            raise StructureError("metric sample must be symmetric 3x3")
        negs = _negative_count(rows)
        if negs is None:
            negs = int(np.sum(np.linalg.eigvalsh(g) < 0))
        want = 1 if self.signature == "lorentzian" else 0
        if negs != want:
            raise StructureError(
                f"{self.signature} sample has {negs} negative directions")


# ---------------------------------------------------------------------------
# chart metrics: raw components, one flat chart and one rescaling step
# ---------------------------------------------------------------------------

def _by_value(f, v):
    """f (a function of one float) over the array v, called once per
    distinct value: numpy's own cosh and its array ** 2 (that is, v * v)
    are not libm's cosh and pow, and differ in the last bit.

    The distinct values come from one sort, a change mask and a
    searchsorted.  -0.0 and +0.0 compare equal, so they are one value
    and f runs on whichever the sort put first: every caller passes an
    even f or values T > 0.  (A bare np.unique(v) would import numpy.ma
    at its first call, about 12 ms and 1 MB once per process.)"""
    s = np.sort(v)
    keep = np.empty(len(s), dtype=bool)
    keep[:1] = True
    np.not_equal(s[1:], s[:-1], out=keep[1:])
    levels = s[keep]
    return np.array([f(w) for w in levels.tolist()])[
        np.searchsorted(levels, v)]


def _cosh2(x):
    """cosh(x) ** 2 by libm, for a float or elementwise over an array."""
    if isinstance(x, np.ndarray):
        return _by_value(_cosh2, x)
    return math.cosh(x) ** 2


def _pow2(x):
    """x ** 2 by libm's pow, for a float or elementwise over an array."""
    if isinstance(x, np.ndarray):
        return _by_value(_pow2, x)
    return x ** 2


def wick_functions(T):
    if T <= 1.0:
        raise DomainError("the Wick rotation needs T > 1")
    return 1.0 / (T * T - 1.0), 1.0 / (T * T - 1.0) ** 2


def ds_functions(T):
    if not 0.0 < T < 1.0:
        raise DomainError("the de Sitter rescaling needs 0 < T < 1")
    return 1.0 / (1.0 - T * T), 1.0 / (1.0 - T * T) ** 2


def ads_functions(T):
    if T <= 0.0:
        raise DomainError("the AdS rescaling needs T > 0")
    return 1.0 / (1.0 + T * T), 1.0 / (1.0 + T * T) ** 2


# kind -> (universal functions, signature); the flat metric is the
# Lorentzian rescaling alpha = beta = 1
_RESCALINGS = {"flat": (lambda T: (1.0, 1.0), "lorentzian"),
               "wick": (wick_functions, "riemannian"),
               "ds": (ds_functions, "lorentzian"),
               "ads": (ads_functions, "lorentzian")}


# the flat chart per regime: (g_TT, g_Tzeta, g_zetazeta, g_uu) at one
# point; _chart_stack writes the same formulas as columns

def _wing(T, z, alpha0):
    return -1.0, 0.0, T * T, T * T * _cosh2(z)


def _band(T, z, alpha0):
    return -1.0 + z * z, T * z, T * T, T * T


def _rotated_wing(T, z, alpha0):
    a = alpha0 / T
    return -1.0 + _pow2(a), alpha0, T * T, T * T * _cosh2(z - a)


_REGIMES = {1: _wing, 2: _band, 3: _rotated_wing}


def _chart_point(kind, alpha0, T, z):
    """The `kind` metric at the point (T, z) of the model of weight alpha0."""
    T, z = float(T), float(z)
    if T <= 0:
        raise DomainError("cosmological time must be positive")
    functions, signature = _RESCALINGS[kind]
    g00, g01, g11, g22 = _REGIMES[regime(T, z, alpha0)](T, z, alpha0)
    alpha, beta = functions(T)
    # alpha times every flat component, its zeros too, as the stack has it
    g01, zero = alpha * g01, alpha * 0.0
    return np.array([
        alpha * g00 + (alpha + beta if signature == "riemannian"
                       else alpha - beta), g01, zero,
        g01, alpha * g11, zero,
        zero, zero, alpha * g22]).reshape(3, 3)


def _chart_stack(kind, alpha0, xs):
    """The `kind` metric at the rows (T, z, ...) of xs, as _chart_point
    gives it row by row.

    The flat components are built as columns, each formula of
    _REGIMES on the rows of its regime only, from three libm passes:
    the universal functions over T, _pow2(alpha0 / T) over the rotated
    wing, and one _cosh2 over the wing coordinate of both wings (zeta,
    or zeta - alpha0 / T).  Each of the five nonzero entries of the
    stack is then written once, times alpha; the zeros are alpha * 0.0,
    +0.0 for the finite alpha >= 0 of every rescaling."""
    T, z = xs[:, 0], xs[:, 1]
    functions, signature = _RESCALINGS[kind]
    try:
        if np.any(T <= 0):
            raise DomainError("cosmological time must be positive")
        # the universal functions depend on T alone
        alpha, beta = _by_value(functions, T).T
    except DomainError:
        for x in xs:
            _chart_point(kind, alpha0, x[0], x[1])  # raises at the first row
    wing = z < 0
    band = ~wing if alpha0 == INF else ~wing & (z <= alpha0 / T)
    rotated, wings = ~(wing | band), ~band
    TT = T * T
    a, zb = alpha0 / T[rotated], z[band]
    # g_TT and g_Tzeta are -1 and 0 on the wing, g_uu is T T on the band
    g00 = np.full(len(xs), -1.0)
    g00[band] = -1.0 + zb * zb
    g00[rotated] = -1.0 + _pow2(a)
    g01 = np.where(rotated, alpha0, 0.0)
    g01[band] = T[band] * zb
    w = z[wings]
    w[rotated[wings]] -= a
    g22 = TT.copy()
    g22[wings] *= _cosh2(w)
    g = np.zeros((len(xs), 3, 3))
    g[:, 0, 0] = alpha * g00 + (alpha + beta if signature == "riemannian"
                                else alpha - beta)
    g[:, 0, 1] = g[:, 1, 0] = alpha * g01
    g[:, 1, 1] = alpha * TT
    g[:, 2, 2] = alpha * g22
    return g


def chart_metric(kind, alpha0=1.0):
    """The `kind` metric ('flat', 'wick', 'ds' or 'ads') of the model of
    weight alpha0 as a raw function, the form the curvature oracle
    evaluates: a point x = (T, zeta, u) gives the (3, 3) ndarray, an
    (N, 3) ndarray of points the (N, 3, 3) stack, bitwise equal to the
    pointwise calls.  Only the domain checks of T run per call (that of
    alpha0 runs once, here); a stack out of the domain raises the error
    of its first such row.  The metrics never read x[2] (u): the model
    is invariant under translation along the leaf, so the value at
    (T, zeta, u) is bitwise that at any other u."""
    if not (alpha0 > 0):
        raise DomainError("the model weight must be positive (inf allowed)")

    def metric(x):
        if isinstance(x, np.ndarray) and x.ndim == 2:
            return _chart_stack(kind, alpha0, x)
        return _chart_point(kind, alpha0, x[0], x[1])

    return metric


def _sample(kind, p: LocalPoint):
    """The `kind` metric at p, checked once."""
    return MetricSample(_chart_point(kind, p.alpha0, p.T, p.zeta),
                        _RESCALINGS[kind][1])


def flat_metric(p: LocalPoint):
    """Flat spacetime metric in the chart, continuous across the seams.

    On the hyperboloid wing the classical warped form
    diag(-1, T^2, T^2 ch^2 zeta).  Inside the band the zeta = arc/T chart
    adds the cross terms (zeta^2) dT^2 + 2 T zeta dT dzeta; they vanish on
    the seam zeta = 0 only, and on the seam zeta = a0/T they give
    g_{T,zeta} = a0 and g_TT = -1 + (a0/T)^2.  The rotated wing keeps
    these constant values; it is diag(-1, T^2, T^2 ch^2 zeta') only in
    the adapted chart (T, zeta', u), zeta' = zeta - a0/T.
    """
    return _sample("flat", p)


# ---------------------------------------------------------------------------
# flat local model
# ---------------------------------------------------------------------------

def flat_embedding(p: LocalPoint):
    """Minkowski 3-space point of the chart (T, u, zeta): the nearest
    point s v0 of the segment plus T times the unit normal there."""
    s = {1: 0.0, 2: p.T * p.zeta, 3: p.alpha0}[p.regime]
    return p.T * flat_gauss_map(p) + np.array([0.0, 0.0, s])


def flat_gauss_map(p: LocalPoint):
    """Unit normal direction N(T, u, zeta): depends only on (u, zeta)."""
    if p.regime == 2:
        return np.array([math.cosh(p.u), math.sinh(p.u), 0.0])
    w = p.zeta if p.regime == 1 else p.zeta - p.alpha0 / p.T  # wing coordinate
    return np.array([math.cosh(p.u) * math.cosh(w),
                     math.sinh(p.u) * math.cosh(w), math.sinh(w)])


# ---------------------------------------------------------------------------
# Wick rotation into H3
# ---------------------------------------------------------------------------

def wick_rotate(p: LocalPoint):
    """The C^1 developing map into H3 (unit timelike Minkowski-4
    vectors); T > 1 required.  Each component is chd * b + shd * n of
    the base point b and the normal n, in plain floats: the same
    products and sum as those arrays' chd * base + shd * normal."""
    T, u, z, a0 = p.T, p.u, p.zeta, p.alpha0
    d = hyperbolic_boundary_distance(T)
    chd, shd = math.cosh(d), math.sinh(d)
    if p.regime == 2:
        ang = z * T  # z / tanh(d)
        base = (math.cosh(u), math.sinh(u), 0.0, 0.0)
    else:
        # a wing, the rotated one turned by the band's full angle a0
        w, ang = (z, 0.0) if p.regime == 1 else (z - a0 / T, a0)
        cw, sw = math.cosh(w), math.sinh(w)
        base = (cw * math.cosh(u), cw * math.sinh(u),
                sw * math.cos(ang), -sw * math.sin(ang))
    normal = (0.0, 0.0, math.sin(ang), math.cos(ang))
    return np.array([chd * b + shd * n for b, n in zip(base, normal)])


def wick_metric(p: LocalPoint):
    """Expected pulled-back metric of the Wick map: the flat metric
    rescaled by the universal functions."""
    return _sample("wick", p)


def hyperbolic_boundary_distance(T):
    """Distance from the bent boundary of the H3 image at level T."""
    if T <= 1.0:
        raise DomainError("the Wick rotation needs T > 1")
    return math.atanh(1.0 / T)


# ---------------------------------------------------------------------------
# de Sitter rescaling
# ---------------------------------------------------------------------------

def rescale_ds(p: LocalPoint):
    """De Sitter metric sample at p (0 < T < 1): constant curvature +1."""
    return _sample("ds", p)


# ---------------------------------------------------------------------------
# anti-de Sitter map
# ---------------------------------------------------------------------------

_P0 = np.array([[0.0, -1.0], [1.0, 0.0]])   # embedded point of l0 at u = 0
_V0 = np.array([[1.0, 0.0], [0.0, -1.0]])   # unit tangent of l0 there
_X0 = np.array([[0.0, 1.0], [1.0, 0.0]])    # translation generator along l0


def _leaf_point(u):
    return math.cosh(u) * _P0 + math.sinh(u) * _V0


def ads_map(p: LocalPoint):
    """The C^1 developing map into X_{-1} = PSL(2, R), any T > 0.

    Join formula cos(tau) x^- + sin(tau) x^+ with tau = arctan T and a
    future-directed unit-determinant lift, asserted at runtime.
    """
    T, u, z, a0 = p.T, p.u, p.zeta, p.alpha0
    tau = math.atan(T)
    c, s = math.cos(tau), math.sin(tau)
    if p.regime == 1:
        x_plus = math.cosh(z) * _leaf_point(u) - math.sinh(z) * _X0
        x_minus = np.eye(2)
    elif p.regime == 2:
        x_plus = _leaf_point(u)
        x_minus = iso.expm2(-z * T * _X0)
    else:
        zp = z - a0 / T
        half = iso.expm2(-0.5 * a0 * _X0)
        wing = math.cosh(zp) * _leaf_point(u) - math.sinh(zp) * _X0
        x_plus = half @ wing @ half
        x_minus = iso.expm2(-a0 * _X0)
    out = c * x_minus + s * x_plus
    if abs(iso.det(out) - 1.0) > 1e-10:
        raise DomainError("join of the lifted pair left SL(2, R)")
    if iso.tr(x_minus) <= 0:
        raise DomainError("x^- lift must have positive trace")
    v = -s * x_minus + c * x_plus
    if not iso.is_future_directed(out, v):
        raise DomainError("the lifted segment is not future-directed")
    return out


def ads_metric(p: LocalPoint):
    """Expected pulled-back metric of the AdS map: constant curvature -1."""
    return _sample("ads", p)


# ---------------------------------------------------------------------------
# flat translation cocycle and regular domains
# ---------------------------------------------------------------------------

def _normal(leaf):
    """The weighted unit normal 2 iota(D) of a leaf as `crossings`
    orients it: the far end of the segment is on its right, where its
    normal points."""
    return 2.0 * leaf.weight \
        * iso.lie_vector(leaf.geodesic.displacement_generator())


def _normal_sum(leaves):
    """Sum of the `_normal`s of `leaves`, added in order."""
    return sum(map(_normal, leaves), np.zeros(3))


def translation_part(fam, x0, y):
    """s(y) relative to s(x0) = 0: sum of weighted unit normals of the
    leaves of `fam` (a `lamination.realize` realization) crossing
    [x0, y], each pointing toward y (the derivative in the weights of
    the left quake cocycle B(x0, y), through iota)."""
    leaves, converged = fam.crossings(x0, y)
    return _normal_sum(leaves), converged


def flat_holonomy(fam, h: teich.Holonomy, crossed=None):
    """(letters, converged): the affine holonomy of the flat spacetime
    of (F, lambda), the (2k, 4, 4) stack of [[A_g, t_g], [0, 1]] in
    `teich.Holonomy.letter_matrices` order that `word_levels(letters=)`
    composes.  A_g = psl2r_to_so21(g) and t_g = s(g x0), from one
    crossings query of `fam` at the base point x0, for each generator
    g, then its exact inverse [[A_g^-1, -A_g^-1 t_g], [0, 1]];
    converged ANDs the query's flags.  `fam` is a `lamination.realize`
    realization.  `crossed`, if given, is that query's answer, the
    (leaves, converged) of [x0, g x0] for each generator g in order,
    from a larger query of the caller (`regular_domain_contains`), and
    `fam` is not queried.
    """
    if crossed is None:
        x0 = eq.BASE_POINT
        crossed = fam.crossings_from(
            x0, [iso.apply_h2(g, x0) for g in h.gens.values()])
    letters = np.zeros((2 * len(h.gens), 4, 4))
    letters[:, 3, 3] = 1.0
    for i, (g, (leaves, _)) in enumerate(zip(h.gens.values(), crossed)):
        a, ai = iso.psl2r_to_so21(g), iso.psl2r_to_so21(iso.inv(g))
        t = _normal_sum(leaves)
        letters[2 * i, :3, :3], letters[2 * i, :3, 3] = a, t
        letters[2 * i + 1, :3, :3], letters[2 * i + 1, :3, 3] = ai, -ai @ t
    return letters, all(ok for _, ok in crossed)


def regular_domain_contains(q, fam: lm.LiftFamily, h: teich.Holonomy,
                            depth=4):
    """Sampled membership test of the regular domain of (F, lambda).

    True iff q lies strictly in the future of s(x) + x-perp for every
    sampled stratum point x (orbit points of the base point under the
    reduced words of `teich.Holonomy.word_levels` to the given depth,
    plus midpoints between consecutive leaf crossings on the segments
    to the first 15 of them); conservative and monotone in depth.

    The call makes one crossings query of `fam`, on the segments from
    the base point x0 to those first 15 orbit points.  They are images
    of x0 under words of length <= 2 (a rank >= 2 group has at least 16
    of them), the first 2k under the letters in `letter_matrices`
    order, so every other one a generator's image; the same query thus
    gives the `flat_holonomy` letters, bit for bit.  s is equivariant
    under the affine holonomy, s(g x) = A_g s(x) + t_g, so s at the
    orbit points is the translation column of the affine words that
    `word_levels` composes from those letters.  This is exact: the
    leaves are disjoint complete geodesics, so signed crossing sums do
    not depend on the path, and the lamination is pi_1-invariant.  A
    midpoint between crossings k and k + 1 of a segment takes s = the
    sum of the `_normal`s of the segment's first k + 1 leaves, a running
    sum along the segment: the sub-segment [x0, mid] crosses exactly
    those leaves, with the same orientation.
    """
    q = np.asarray(q, dtype=float)
    x0 = eq.BASE_POINT
    # the first 15 orbit points, in word order after the base point
    # (the empty word); a depth below 1 samples none of them, but still
    # builds the letters from the generators' segments
    w = np.concatenate([m for m, _ in
                        h.word_levels(min(max(depth, 1), 2))])[1:16]
    ends = iso.apply_h2(w, x0).tolist()
    crossed = fam.crossings_from(x0, ends)
    letters, _ = flat_holonomy(fam, h, crossed[:2 * len(h.gens):2])
    # orbit points on the hyperboloid and s there, in word order, the
    # base point first
    words = np.concatenate([m for m, _ in h.word_levels(depth,
                                                        letters=letters)])
    ys = words[:, :3, :3] @ iso.h2_to_hyperboloid(x0)
    if not _in_future(q, words[:, :3, 3], ys):
        return False
    # midpoints between consecutive crossings along the segments, each
    # with the running sum of the normals of the leaves before it
    frames = lm.segment_frames(x0, ends[:len(words) - 1])
    mids, s = [], []
    for frame, fi, (leaves, _) in zip(frames, iso.inv(frames), crossed):
        # the leaves come ordered along the segment, heights rising
        heights = [
            math.sqrt(abs(iso.apply_boundary(fi, leaf.geodesic.p_minus)
                          * iso.apply_boundary(fi, leaf.geodesic.p_plus)))
            for leaf in leaves]
        total = np.zeros(3)
        for leaf, h1, h2 in zip(leaves, heights, heights[1:]):
            total = total + _normal(leaf)
            mids.append(iso.apply_h2(frame, 1j * math.sqrt(h1 * h2)))
            s.append(total)
    if not mids:
        return True
    return _in_future(q, np.array(s), iso.h2_to_hyperboloid(np.array(mids)).T)


def _in_future(q, s, ys):
    """Whether q lies strictly in the future of s_n + ys_n-perp for
    every row n: each Minkowski product <q - s_n, ys_n> is negative."""
    return bool((np.einsum("ni,ij,nj->n", q - s, ETA, ys) < 0).all())
