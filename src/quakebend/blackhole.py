"""The causal AdS extension Omega(h): membership, peripheral rectangles,
horizon invariants, extremal meridians, and the BTZ metric.

Boundary-circle arcs use the angle chart theta = 2 arctan(x) (infinity
at pi), which keeps interval arithmetic free of special cases.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from quakebend import isometry as iso
from quakebend import teich
from quakebend.spacetime import MetricSample
from quakebend.errors import DomainError, QuakebendError, WrongClassError


class DegenerateHorizonError(QuakebendError):
    """A parabolic side leaves the horizon without a size."""


class IncreaseDepthError(QuakebendError):
    """Limit-set sampling too shallow to select the rectangle sides."""


class CoordinateSingularityError(QuakebendError):
    """BTZ chart breaks down where f(r) = 0."""

    def __init__(self, radius_name):
        super().__init__(f"f vanishes at the horizon radius {radius_name}")
        self.radius_name = radius_name


def circle_angle(x):
    """Monotone coordinate on the boundary circle, infinity at pi."""
    return math.pi if x == iso.INF else 2.0 * math.atan(x)


@dataclass(frozen=True)
class CircleArc:
    """Open arc swept counterclockwise from start to end."""

    start: float  # boundary values (extended reals)
    end: float

    def contains(self, x, tol=0.0):
        """Whether the boundary value x (or each entry of an array of
        them) lies in the arc, at least tol radians inside it."""
        a, b = circle_angle(self.start), circle_angle(self.end)
        x = np.asarray(x, dtype=float)
        theta = np.where(np.isinf(x), math.pi, 2.0 * np.arctan(x))
        t = (theta - a) % (2.0 * math.pi)
        w = (b - a) % (2.0 * math.pi)
        return (tol < t) & (t < w - tol)


@dataclass(frozen=True)
class Rectangle:
    """R(gamma) = I_L x I_R with the two horizon vertices."""

    left: object   # CircleArc or a single boundary point
    right: object
    vertices: tuple = ()

    @property
    def degenerate(self):
        return not (isinstance(self.left, CircleArc)
                    and isinstance(self.right, CircleArc))


@dataclass(frozen=True)
class HorizonData:
    size: float
    momentum: float
    # peripheral lengths come from traces of depth-d cocycle products:
    # equal ones land ~1e-12 apart, so |momentum| <= 1e-9 size is zero
    EXTREMAL_RTOL = 1e-9

    def __post_init__(self):
        if not self.size > abs(self.momentum):
            raise DomainError("horizon data requires size > |momentum|")

    @property
    def extremal(self):
        """r+ = r-: zero momentum up to EXTREMAL_RTOL relative to size."""
        return abs(self.momentum) <= self.EXTREMAL_RTOL * self.size


@dataclass(frozen=True)
class BTZParams:
    r_plus: float
    r_minus: float

    def __post_init__(self):
        # r+ = r- is the extremal hole, M = |J|
        if not (self.r_plus >= self.r_minus >= 0.0) or self.r_plus <= 0:
            raise DomainError("BTZ radii must satisfy r+ >= r- >= 0, r+ > 0")

    @property
    def mass(self):
        return self.r_plus ** 2 + self.r_minus ** 2

    @property
    def angular_momentum(self):
        return 2.0 * self.r_plus * self.r_minus

    @classmethod
    def from_horizon(cls, data: HorizonData):
        """Inversion of s = r+ + r-, m = r+ - r- (with m >= 0 enforced by
        taking |m|: the radii do not see the momentum sign)."""
        m = abs(data.momentum)
        return cls((data.size + m) / 2.0, (data.size - m) / 2.0)


# ---------------------------------------------------------------------------
# horizon invariants
# ---------------------------------------------------------------------------

def horizon_invariants(g_left, g_right):
    """size = (l_L + l_R)/2, momentum = (l_L - l_R)/2."""
    try:
        ll = iso.translation_length(g_left)
        lr = iso.translation_length(g_right)
    except WrongClassError as exc:
        raise DegenerateHorizonError(
            "parabolic peripheral side: the horizon degenerates") from exc
    if ll == 0.0 or lr == 0.0:
        raise DegenerateHorizonError(
            "parabolic peripheral side: the horizon degenerates")
    return HorizonData((ll + lr) / 2.0, (ll - lr) / 2.0)


# ---------------------------------------------------------------------------
# rectangles
# ---------------------------------------------------------------------------

def limit_set_samples(h: teich.Holonomy, depth):
    """Limit-set points at the reduced words up to `depth`: the
    attracting fixed point of each hyperbolic word and the fixed point
    of each parabolic one.  The inverse of every word is enumerated as
    well, so both fixed points of a hyperbolic word are sampled."""
    words = np.concatenate([m for m, _ in h.word_levels(depth)])
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


def _select_side(g, samples):
    k = iso.classify(g)
    if k.kind == "parabolic":
        return k.fixed_points[0]
    if k.kind != "hyperbolic":
        raise DomainError("peripheral holonomy must be hyperbolic or parabolic")
    att, rep = k.fixed_points
    arc1, arc2 = CircleArc(att, rep), CircleArc(rep, att)
    inhabited1 = bool(arc1.contains(samples, tol=ARC_MARGIN).any())
    inhabited2 = bool(arc2.contains(samples, tol=ARC_MARGIN).any())
    if inhabited1 and inhabited2:
        raise IncreaseDepthError(
            "both candidate arcs meet the sampled limit set; increase depth")
    if not inhabited1 and not inhabited2:
        raise IncreaseDepthError(
            "no limit-set samples landed near either arc; increase depth")
    return arc1 if inhabited2 else arc2


def peripheral_rectangle(g_left, g_right, samples_left, samples_right):
    """R(gamma): per side, the fixed point (parabolic) or the arc between
    the fixed points missing the limit set, given by its samples
    (`limit_set_samples` of h_L and h_R, taken once for all punctures).

    The two vertices spanning the horizon geodesic pair the attracting
    point of one side with the repelling point of the other.
    """
    side_l = _select_side(g_left, samples_left)
    side_r = _select_side(g_right, samples_right)
    vertices = ()
    if isinstance(side_l, CircleArc) and isinstance(side_r, CircleArc):
        att_l, rep_l = iso.fixed_points(g_left)
        att_r, rep_r = iso.fixed_points(g_right)
        vertices = ((att_l, rep_r), (rep_l, att_r))
    return Rectangle(side_l, side_r, vertices)


# ---------------------------------------------------------------------------
# Omega(h) membership
# ---------------------------------------------------------------------------

def _adj(m):
    """Adjugates of a stack of 2x2 matrices (inverses at unit determinant)."""
    out = np.empty_like(m)
    out[:, 0, 0], out[:, 1, 1] = m[:, 1, 1], m[:, 0, 0]
    out[:, 0, 1], out[:, 1, 0] = -m[:, 0, 1], -m[:, 1, 0]
    return out


def omega_contains(x, h_left: teich.Holonomy, h_right: teich.Holonomy,
                   depth=8):
    """Whether no translate of x by a reduced word of length <= depth is
    causally related to x.  Conservative: deeper tests only shrink the
    domain.

    The words come from `teich.Holonomy.word_levels`, the same word in
    both components; each length is tested in one batch with the trace
    test of `isometry.causal_type`: y = W_L x W_R^{-1} fails when
    |tr(x y^{-1})| <= 2 + TAU_CLASS and y is not projectively equal to x.
    """
    if depth < 1:
        raise DomainError("depth must be >= 1")
    levels = zip(h_left.word_levels(depth), h_right.word_levels(depth))
    next(levels)  # the empty word fixes x
    for (wl, _), (wr, _) in levels:
        y = wl @ x @ _adj(wr)
        t = np.abs(np.einsum("ij,nji->n", x, _adj(y)))
        # fixed points of the action (e.g. the dual point of an invariant
        # plane) are fine, by the np.allclose rule of `isometry.proj_equal`
        slack = 1e-9 + 1e-5 * np.abs(y)
        coincident = (np.all(np.abs(x - y) <= slack, axis=(1, 2))
                      | np.all(np.abs(x + y) <= slack, axis=(1, 2)))
        if np.any((t <= 2.0 + iso.TAU_CLASS) & ~coincident):
            return False
    return True


# ---------------------------------------------------------------------------
# extremal meridians
# ---------------------------------------------------------------------------

LOWER = "lower"
UPPER = "upper"


@dataclass(frozen=True)
class MeridianChoice:
    """Per non-degenerate rectangle, an upper or lower extremal arc."""

    choices: tuple

    @property
    def is_future_convex_core_boundary(self):
        return all(c == LOWER for c in self.choices)

    @property
    def is_past_convex_core_boundary(self):
        return all(c == UPPER for c in self.choices)


def extremal_meridians(rectangles):
    """All 2^k assignments over the non-degenerate orbit representatives.

    k = 0 gives the single meridian of a globally hyperbolic Omega(h).
    """
    k = sum(1 for r in rectangles if not r.degenerate)
    return [MeridianChoice(c) for c in itertools.product((LOWER, UPPER),
                                                         repeat=k)]


# ---------------------------------------------------------------------------
# BTZ metric
# ---------------------------------------------------------------------------

def btz_f(r, params: BTZParams):
    m, j = params.mass, params.angular_momentum
    return -m + r * r + j * j / (4.0 * r * r)


def btz_chart_metric(params: BTZParams):
    """The BTZ metric as a raw function x = (v, r, phi) -> (3, 3) ndarray
    of Kerr-like components, the form the curvature oracle evaluates;
    fails on the horizons."""
    m, j = params.mass, params.angular_momentum

    def metric(x):
        r = x[1]
        if r <= 0:
            raise DomainError("the BTZ chart needs r > 0")
        f = btz_f(r, params)
        if abs(f) < 1e-12:
            # at the extremal double root the one horizon is r+
            name = "r+" if abs(r - params.r_plus) <= abs(r - params.r_minus) else "r-"
            raise CoordinateSingularityError(name)
        return np.array([[m - r * r, 0.0, -j / 2.0],
                         [0.0, 1.0 / f, 0.0],
                         [-j / 2.0, 0.0, r * r]])

    return metric


def btz_metric(v, r, phi, params: BTZParams):
    """The BTZ metric at (v, r, phi), checked once; fails on the horizons."""
    return MetricSample(btz_chart_metric(params)((v, r, phi)), "lorentzian")
