"""The causal AdS extension Omega(h): membership, peripheral rectangles,
horizon invariants, extremal meridians, and the BTZ metric.

Each hyperbolic side of a peripheral rectangle is the arc between the
fixed points of a boundary element g that misses the limit set.  The
axis of g bounds the Nielsen region, so the limit set lies on one side
of it (Katok, *Fuchsian Groups*, 1992; Beardon 1983), and one limit
point that g does not fix picks the arc.

Boundary-circle arcs use the angle chart theta = 2 arctan(x) (infinity
at pi), which keeps interval arithmetic free of special cases.
"""

from __future__ import annotations

import functools
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

    def contains(self, x):
        """Whether the boundary value x lies in the arc."""
        a = circle_angle(self.start)
        t = (circle_angle(x) - a) % (2.0 * math.pi)
        return 0.0 < t < (circle_angle(self.end) - a) % (2.0 * math.pi)


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
    # on shear surfaces peripheral lengths come from traces of depth-d
    # cocycle products, where equal ones land ~1e-12 apart (FN surfaces
    # take them from the coordinates, with momentum exactly 0.0):
    # |momentum| <= 1e-9 size is zero
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

    # the radii are frozen, so M and J are computed once, at first use
    @functools.cached_property
    def mass(self):
        return self.r_plus ** 2 + self.r_minus ** 2

    @functools.cached_property
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

def _select_side(k: iso.IsomClass, h: teich.Holonomy):
    """The side of a boundary element of class k (see
    `peripheral_rectangle`)."""
    if k.kind == "parabolic":
        return k.fixed_points[0]
    if k.kind != "hyperbolic":
        raise DomainError("peripheral holonomy must be hyperbolic or parabolic")
    ends = [circle_angle(x) for x in k.fixed_points]

    def gap(x):
        """Angle from x to the nearer fixed point of g."""
        return min(abs(math.remainder(circle_angle(x) - e, 2.0 * math.pi))
                   for e in ends)

    x = max((x for m in h.gens.values() for x in iso.classify(m).fixed_points),
            key=gap)
    att, rep = k.fixed_points
    arc = CircleArc(att, rep)
    return CircleArc(rep, att) if arc.contains(x) else arc


def peripheral_rectangle(g_left, g_right, h_left, h_right):
    """R(gamma): per side, the fixed point (parabolic) or the arc between
    the fixed points that misses the limit set of h_L or h_R.

    The whole limit set lies in one of the two arcs between the fixed
    points of a boundary element g (see the module docstring), so one
    limit point that g does not fix settles which: of the fixed points
    of the free generators, the one farthest in angle from g's fixed
    points.  The side is the other arc.

    The two vertices spanning the horizon geodesic pair the attracting
    point of one side with the repelling point of the other.
    """
    k_l = iso.classify(g_left)
    side_l = _select_side(k_l, h_left)
    k_r = iso.classify(g_right)
    side_r = _select_side(k_r, h_right)
    vertices = ()
    if isinstance(side_l, CircleArc) and isinstance(side_r, CircleArc):
        (att_l, rep_l), (att_r, rep_r) = k_l.fixed_points, k_r.fixed_points
        vertices = ((att_l, rep_r), (rep_l, att_r))
    return Rectangle(side_l, side_r, vertices)


# ---------------------------------------------------------------------------
# Omega(h) membership
# ---------------------------------------------------------------------------

def omega_contains(x, h_left: teich.Holonomy, h_right: teich.Holonomy,
                   depth=8):
    """Whether no translate of x by a reduced word of length <= depth is
    causally related to x.  Conservative: deeper tests only shrink the
    domain.

    The words come from `teich.Holonomy.word_levels`, the same word in
    both components; a Fuchsian pair (h_right is h_left) enumerates them
    once for both.  Each length is tested in one batch with the trace
    test of `isometry.causal_type`: y = W_L x W_R^{-1} fails when
    |tr(x y^{-1})| <= 2 + TAU_CLASS and y is not projectively equal to x,
    which is tested only on the rows that pass the trace test.  The
    first failing length returns False before a longer one is built.
    """
    if depth < 1:
        raise DomainError("depth must be >= 1")
    if h_right is h_left:
        levels = ((w, w) for w, _ in h_left.word_levels(depth))
    else:
        levels = ((wl, wr) for (wl, _), (wr, _) in
                  zip(h_left.word_levels(depth), h_right.word_levels(depth)))
    next(levels)  # the empty word fixes x
    for wl, wr in levels:
        y = wl @ x @ iso.inv(wr)
        t = np.abs(np.einsum("ij,nji->n", x, iso.inv(y)))
        y = y[t <= 2.0 + iso.TAU_CLASS]
        if not len(y):
            continue
        # fixed points of the action (e.g. the dual point of an invariant
        # plane) are fine, by the np.allclose rule of `isometry.proj_equal`
        slack = 1e-9 + 1e-5 * np.abs(y)
        if not (np.all(np.abs(x - y) <= slack, axis=(1, 2))
                | np.all(np.abs(x + y) <= slack, axis=(1, 2))).all():
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


def _btz_components(r, params: BTZParams):
    """The (3, 3) ndarray of Kerr-like BTZ components at radius r (they
    do not depend on v and phi); fails on the horizons and at r <= 0."""
    r = float(r)
    if r <= 0:
        raise DomainError("the BTZ chart needs r > 0")
    f = btz_f(r, params)
    if abs(f) < 1e-12:
        # at the extremal double root the one horizon is r+
        name = "r+" if abs(r - params.r_plus) <= abs(r - params.r_minus) else "r-"
        raise CoordinateSingularityError(name)
    m, j = params.mass, params.angular_momentum
    return np.array([m - r * r, 0.0, -j / 2.0,
                     0.0, 1.0 / f, 0.0,
                     -j / 2.0, 0.0, r * r]).reshape(3, 3)


def btz_chart_metric(params: BTZParams):
    """The BTZ metric as a raw function, the form the curvature oracle
    evaluates: a point x = (v, r, phi) gives the (3, 3) ndarray of
    Kerr-like components (`_btz_components`), an (N, 3) ndarray of
    points the (N, 3, 3) stack, bitwise equal to the pointwise calls.
    It fails on the horizons; a stack raises the error of its first row
    there."""
    m, j = params.mass, params.angular_momentum

    def metric(x):
        if isinstance(x, np.ndarray) and x.ndim == 2:
            r = x[:, 1]
            with np.errstate(divide="ignore", invalid="ignore"):
                f = btz_f(r, params)
            if not np.all((r > 0) & (np.abs(f) >= 1e-12)):
                for row in x:
                    metric(row)  # raises at the first row off the chart
            g = np.zeros((len(x), 3, 3))
            g[:, 0, 0], g[:, 1, 1], g[:, 2, 2] = m - r * r, 1.0 / f, r * r
            g[:, 0, 2] = g[:, 2, 0] = -j / 2.0
            return g
        return _btz_components(x[1], params)

    return metric


def btz_metric(v, r, phi, params: BTZParams):
    """The BTZ metric at (v, r, phi), checked once; fails on the horizons."""
    return MetricSample(_btz_components(r, params), "lorentzian")
