"""Projective 2x2 matrix algebra for Isom(H2), Isom(H3) and Isom(X_{-1}).

Conventions fixed here and used by every other module:

* Upper half-plane model of H2; the circle at infinity is the extended
  real line R u {oo} (``INF``).
* A hyperbolic element ``diag(e^{L/2}, e^{-L/2})`` translates by ``L``
  along the geodesic (0, oo), upward.
* An oriented geodesic has one generator, its displacement generator
  D (``Geodesic.displacement_generator``), which every cocycle reads.
* The anti-de Sitter space X_{-1} is PSL(2, R) with the quadratic form
  q(X) = -det X on M(2, R); <P, Q> = -tr(P adj Q) / 2, so unit-det
  representatives satisfy <P, P> = -1 and <P, Q> = -tr(P Q^{-1}) / 2.
* The copy of H2 inside X_{-1} is the dual plane P(Id) of traceless
  unit-determinant matrices (order-two rotations); ``ads_embed`` below
  realizes z -> R_z equivariantly for the diagonal action.
* Positive rotation around an oriented spacelike geodesic l of P(Id) is
  the pair (exp(-2tD), exp(2tD)), D the displacement generator of l.
* Time orientation of X_{-1}: at Id the future cone contains the
  rotation generator [[0, -1], [1, 0]]; transported by left translation.
"""

from __future__ import annotations

import math
import cmath
from dataclasses import dataclass

import numpy as np

from quakebend.errors import MalformedMatrixError, WrongClassError, DomainError

INF = math.inf

#: tolerance on | |tr| - 2 | separating the conjugacy classes
TAU_CLASS = 1e-9
#: a tangent vector of X_{-1} is timelike when <v, v> < -TIMELIKE_TOL
TIMELIKE_TOL = 1e-12
#: bound on the rounding of (a - d)^2 + 4bc, relative to max|m|^2: the
#: two products and the sum each round at about eps times 4 max|m|^2
DISC_ROUNDING = 8.0 * np.finfo(float).eps


def normalize(mat):
    """Scale a 2x2 array to unit determinant.

    Real input with negative determinant and complex input are
    normalized with the principal square root; the result is only
    defined projectively (up to sign).
    """
    a = np.asarray(mat, dtype=complex if np.iscomplexobj(mat) else float)
    if a.shape != (2, 2):
        raise MalformedMatrixError(f"expected 2x2 matrix, got shape {a.shape}")
    d = a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
    if abs(d) < 1e-14:
        raise MalformedMatrixError("matrix is singular")
    if np.iscomplexobj(a):
        return a / cmath.sqrt(d)
    if d < 0:
        raise MalformedMatrixError("real matrix with negative determinant "
                                   "is orientation-reversing")
    return a / math.sqrt(d)


def det(m):
    return m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]


def tr(m):
    return m[0, 0] + m[1, 1]


def inv(m):
    """Inverse of a unit-determinant matrix, or of each matrix of a
    (..., 2, 2) stack: the adjugate [[d, -b], [-c, a]], C-ordered.  Off
    unit determinant it is the inverse up to scale, which no Moebius
    map or endpoint vector sees."""
    if m.ndim == 2:  # in scalars: the stack's slice assignments cost 2x
        return np.array([[m[1, 1], -m[0, 1]], [-m[1, 0], m[0, 0]]],
                        dtype=m.dtype)
    out = np.empty(m.shape, m.dtype)
    out[..., 0, 0], out[..., 1, 1] = m[..., 1, 1], m[..., 0, 0]
    out[..., 0, 1], out[..., 1, 0] = -m[..., 0, 1], -m[..., 1, 0]
    return out


def allclose(m, n, tol):
    """np.allclose(m, n, atol=tol) evaluated directly: every entry of m
    within tol + 1e-5 |n| of n; NaN is never close, equal infinities are."""
    # an infinite entry of n has infinite slack, which only == may use
    with np.errstate(invalid="ignore"):
        return bool((((np.abs(m - n) <= tol + 1e-5 * np.abs(n)) & np.isfinite(n))
                     | (m == n)).all())


def proj_equal(m, n, tol=1e-9):
    """Projective equality: m == n or m == -n entrywise, by the rule of
    allclose."""
    return allclose(m, n, tol) or allclose(m, -n, tol)


def is_identity(m, tol=TAU_CLASS):
    return proj_equal(m, np.eye(2, dtype=m.dtype), tol=tol)


#: the identity of expm2, which numpy casts to complex for a complex a
_EYE = np.eye(2)


def expm2(a):
    """exp of a 2x2 matrix in closed form.

    Splits off the trace and uses A0^2 = -det(A0) Id for the traceless
    part A0: exp(A0) = cosh(mu) Id + sinh(mu)/mu A0, mu = sqrt(-det A0).
    """
    cplx = np.iscomplexobj(a)
    a = np.asarray(a, dtype=complex if cplx else float)
    half_tr = tr(a) / 2.0
    a0 = a - half_tr * _EYE
    mu2 = -det(a0)
    if abs(mu2) < 1e-30:
        e0 = _EYE + a0
    elif cplx or mu2 < 0:
        mu = cmath.sqrt(mu2)
        e0 = cmath.cosh(mu) * _EYE + cmath.sinh(mu) / mu * a0
    else:
        mu = math.sqrt(mu2)
        e0 = math.cosh(mu) * _EYE + math.sinh(mu) / mu * a0
    out = (cmath.exp(half_tr) if cplx else math.exp(half_tr)) * e0
    return out if cplx else out.real


# ---------------------------------------------------------------------------
# boundary circle and H2
# ---------------------------------------------------------------------------

def apply_boundary(m, x):
    """Moebius action of a real matrix on R u {oo}."""
    a, b, c, d = m[0, 0], m[0, 1], m[1, 0], m[1, 1]
    if x == INF:
        return a / c if c != 0 else INF
    den = c * x + d
    if den == 0:
        return INF
    return (a * x + b) / den


def apply_h2(m, z):
    """Moebius action on a point of the open upper half-plane; of a
    (..., 2, 2) stack of matrices, or on an array of points, elementwise
    by broadcasting."""
    a, b, c, d = m[..., 0, 0], m[..., 0, 1], m[..., 1, 0], m[..., 1, 1]
    return (a * z + b) / (c * z + d)


@dataclass(frozen=True)
class Geodesic:
    """Oriented geodesic of H2 with ideal endpoints (p_minus, p_plus)."""

    p_minus: float
    p_plus: float

    def __post_init__(self):
        if self.p_minus == self.p_plus:
            raise DomainError("degenerate geodesic: equal ideal endpoints")

    def side(self, z):
        """Signed side of z: positive on the left of the orientation.

        For the geodesic (0, oo) the left side is Re z < 0; the value is
        a smooth defining function, not a distance.
        """
        p, q = self.p_minus, self.p_plus
        if p == INF:
            return z.real - q
        if q == INF:
            return -(z.real - p)
        c = 0.5 * (p + q)
        r = 0.5 * abs(q - p)
        val = abs(z - c) ** 2 - r * r
        # travelling p -> q over the arc, the left side is outside the
        # half-disk when p < q
        return val if p < q else -val

    def map_from_standard(self):
        """Matrix sending the oriented geodesic (0, oo) to this one.

        Normalized so the pullback of i is a definite point ("foot");
        any two choices differ by a translation along (0, oo).
        """
        p, q = self.p_minus, self.p_plus
        if p == INF:
            return normalize(np.array([[q, -1.0], [1.0, 0.0]]))
        if q == INF:
            return normalize(np.array([[1.0, p], [0.0, 1.0]]))
        if p < q:
            return normalize(np.array([[q, p], [1.0, 1.0]]))
        return normalize(np.array([[q, -p], [1.0, -1.0]]))

    def displacement_generator(self):
        """D in sl(2, R): exp(a D) translates by a along the geodesic,
        exp(i a D) rotates H3 by angle a around it, and 2 lie_vector(D)
        is its unit spacelike normal in R^{2,1}, pointing to its right."""
        return displacement_generators(self.map_from_standard())


def displacement_generators(frames):
    """M diag(1/2, -1/2) M^-1 of a `Geodesic.map_from_standard` frame M
    or of each of a (..., 2, 2) stack of them, bit for bit."""
    return frames @ np.diag([0.5, -0.5]) @ inv(frames)


def transform_geodesic(m, g):
    """Image of an oriented geodesic under a real matrix."""
    return Geodesic(apply_boundary(m, g.p_minus), apply_boundary(m, g.p_plus))


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IsomClass:
    kind: str  # 'hyperbolic' | 'parabolic' | 'elliptic' | 'identity'
    translation_length: float = 0.0
    rotation_angle: float = 0.0
    fixed_points: tuple = ()


def classify(m, tol=TAU_CLASS):
    """Conjugacy class of a real unit-determinant matrix.

    Hyperbolic iff |tr| > 2, parabolic iff |tr| = 2 (and not the
    identity), elliptic iff |tr| < 2, all at tolerance `tol`.  The
    elliptic rotation angle is reported unsigned as 2 arccos(|tr|/2) in
    (0, pi].  The determinant is checked at 1e-9 relative to the
    square of the largest entry, the scale of its rounding.
    """
    a, b, c, d = m[0, 0], m[0, 1], m[1, 0], m[1, 1]
    big = max(1.0, abs(a), abs(b), abs(c), abs(d))
    if abs(abs(a * d - b * c) - 1.0) > 1e-9 * big * big:
        raise MalformedMatrixError("matrix is not normalized to det 1")
    t = abs(a + d)
    if t > 2.0 + tol:
        att, rep = fixed_points(m, _checked=False)
        return IsomClass("hyperbolic",
                         translation_length=2.0 * math.acosh(t / 2.0),
                         fixed_points=(att, rep))
    if t >= 2.0 - tol:
        if is_identity(m):
            return IsomClass("identity")
        fp = INF if abs(c) < 1e-14 else (a - d) / (2.0 * c)
        return IsomClass("parabolic", fixed_points=(fp,))
    return IsomClass("elliptic", rotation_angle=2.0 * math.acos(t / 2.0))


def translation_length(m):
    """Translation length of a hyperbolic element (0 for the identity)."""
    k = classify(m)
    if k.kind == "identity":
        return 0.0
    if k.kind != "hyperbolic":
        raise WrongClassError(f"translation length undefined for {k.kind} element")
    return k.translation_length


def fixed_points(m, _checked=True):
    """(attracting, repelling) boundary fixed points of a hyperbolic element."""
    if _checked and classify(m).kind != "hyperbolic":
        raise WrongClassError("fixed points on the boundary require a hyperbolic element")
    a, b, c, d = m[0, 0], m[0, 1], m[1, 0], m[1, 1]
    if abs(c) < 1e-14:
        # one fixed point at infinity; attracting iff |a| > |d|
        other = b / (d - a)
        return (INF, other) if abs(a) > abs(d) else (other, INF)
    # (a - d)^2 + 4bc = tr^2 - 4 at unit determinant: a value not above
    # its rounding bound, negative ones included, leaves no two fixed
    # points to tell apart
    disc2 = (a - d) ** 2 + 4.0 * b * c
    big = max(abs(a), abs(b), abs(c), abs(d))
    if not disc2 > DISC_ROUNDING * big * big:
        raise DomainError("hyperbolic element too close to parabolic for "
                          "its entries: the fixed points are lost to "
                          "rounding")
    disc = math.sqrt(disc2)
    r1 = (a - d + disc) / (2.0 * c)
    r2 = (a - d - disc) / (2.0 * c)
    # attracting fixed point has Moebius derivative 1/(c x + d)^2 < 1
    if (c * r1 + d) ** 2 > 1.0:
        return r1, r2
    return r2, r1


def axis(m):
    """Invariant geodesic, oriented from repelling to attracting point."""
    att, rep = fixed_points(m)
    return Geodesic(rep, att)


# ---------------------------------------------------------------------------
# X_{-1} = PSL(2, R): points, causal structure, duality
# ---------------------------------------------------------------------------

def ads_embed(z):
    """Point of the plane P(Id) dual to Id realizing z in H2.

    Returns the order-two rotation about z; the map intertwines the
    Moebius action with the diagonal action g . X = g X g^{-1}.  One
    point gives a (2, 2) matrix, an array of points a (..., 2, 2) one.
    """
    x, y = z.real, z.imag
    if np.any(y <= 0):
        raise DomainError("ads_embed expects a point of the open upper half-plane")
    out = np.empty(np.shape(z) + (2, 2))
    out[..., 0, 0], out[..., 0, 1] = x / y, -(x * x + y * y) / y
    out[..., 1, 0], out[..., 1, 1] = 1.0 / y, -x / y
    return out


def h2_to_hyperboloid(z):
    """Upper half-plane to the hyperboloid {-y0^2 + y1^2 + y2^2 = -1}."""
    x, y = z.real, z.imag
    n = x * x + y * y
    return np.array([(n + 1.0) / (2.0 * y), x / y, (n - 1.0) / (2.0 * y)])


def causal_type(p, q, tol=TAU_CLASS):
    """Causal class of the projective line through two points of X_{-1}:
    |tr(P Q^{-1})| against 2.  The brute-force oracle, the sign of
    det(sP + tQ) over a direction grid, is `causal_type_grid` in the
    test tree (tests/oracles.py).
    """
    if proj_equal(p, q):
        return "coincident"
    t = abs(tr(p @ inv(q)))
    if t < 2.0 - tol:
        return "timelike"
    if t <= 2.0 + tol:
        return "lightlike"
    return "spacelike"


def ads_act(pair, x):
    """(alpha, beta) . x = alpha x beta^{-1}; stacks act matrix by matrix."""
    alpha, beta = pair
    return alpha @ x @ inv(beta)


def is_future_directed(p, v):
    """Whether the tangent vector v at the point p of X_{-1} is future
    timelike, with the future cone at Id spanned toward [[0,-1],[1,0]]:
    <v, v> = -det v below -TIMELIKE_TOL."""
    if -det(v) >= -TIMELIKE_TOL:
        return False
    w = inv(p) @ v
    # at Id a timelike tangent is a multiple of a rotation generator
    return (w[1, 0] - w[0, 1]) > 0


def _unsym(s):
    """y of the symmetric matrix S(y) = [[y0 + y2, y1], [y1, y0 - y2]];
    of a stack of n of them, the (3, n) array of their columns y."""
    return np.array([(s[..., 0, 0] + s[..., 1, 1]) / 2.0, s[..., 0, 1],
                     (s[..., 0, 0] - s[..., 1, 1]) / 2.0])


#: S(e_k) of the basis vectors e_0, e_1, e_2
_SYM_BASIS = np.array([[[1.0, 0.0], [0.0, 1.0]], [[0.0, 1.0], [1.0, 0.0]],
                       [[1.0, 0.0], [0.0, -1.0]]])


def psl2r_to_so21(m):
    """Linear part in SO+(2,1) acting on (y0, y1, y2) hyperboloid
    coordinates, from the symmetric-matrix model S(y) -> m S(y) m^T:
    column k is y of m S(e_k) m^T."""
    return _unsym(m @ _SYM_BASIS @ m.T)


def lie_vector(x):
    """iota: sl(2, R) -> R^{2,1}, X -> unsym(X J^-1), J = [[0, -1], [1, 0]];
    g X g^-1 J^-1 = g (X J^-1) g^T gives iota(g X g^-1) =
    psl2r_to_so21(g) iota(X)."""
    return _unsym(x @ np.array([[0.0, 1.0], [-1.0, 0.0]]))
