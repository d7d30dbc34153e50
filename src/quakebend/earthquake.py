"""Left/right earthquakes: coordinate form, quake cocycle, flow.

Every cocycle of the package comes from ``cocycle_products(sequences,
coefficients)``: one pass over the crossed leaves that a
``lamination.realize`` realization returns (the ``HexagonWalk`` of a
multicurve, the ``TriangleWalk`` of a triangulation lamination, or a
``LiftFamily``) gives the ordered
product of exp(c a D) for each coefficient c, a the weight and D the
displacement generator of each leaf: c = +1 is the left quake and -1
the right one, c = i is H3 bending and (+1, -1) the AdS pair; the flat
translation part is its derivative in the weights.  Both orient each
leaf with the segment's start on its left (the sign convention the
cross-oracle tests calibrate against the twist rule of the holonomy
builder) and halve the weight of a leaf through a segment endpoint.

Every deformed holonomy is gamma -> B(x0, gamma x0) gamma at the base
point ``BASE_POINT``: ``deformed_holonomies`` at the c above, over the
leaves ``deform_letters`` finds; a letter crossing none stays undeformed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from quakebend import isometry as iso
from quakebend import teich
from quakebend import lamination as lm
from quakebend.errors import DomainError, StructureError, QuakebendError

LEFT = "left"
RIGHT = "right"

#: x0 of every deformed holonomy; a generic point, off the weighted leaves
#: of the scenarios in scope (one on a leaf is a BasePointOnLeafError)
BASE_POINT = complex(0.137, 1.03)


class InvalidLaminationError(QuakebendError):
    """Input leaves cross each other."""


def _side_sign(side):
    if side == LEFT:
        return 1.0
    if side == RIGHT:
        return -1.0
    raise DomainError(f"side must be {LEFT!r} or {RIGHT!r}")


# ---------------------------------------------------------------------------
# earthquakes in coordinates
# ---------------------------------------------------------------------------

def quake_coordinates(fn: teich.FNPoint, lam: lm.MultiCurveLam, side):
    """Earthquake along a weighted multicurve: twists move by +-w."""
    if len(lam.weights) != len(fn.interior_lengths):
        raise StructureError("lamination does not match the decomposition")
    s = _side_sign(side)
    return fn.with_twists(tuple(t + s * w for t, w in
                                zip(fn.twists, lam.weights)))


def quake_shear(sp: teich.ShearPoint, lam: lm.TriangulationLam, side):
    """Earthquake along a weighted triangulation: shears move by +-w."""
    if lam.triangulation is not sp.triangulation and \
            lam.triangulation != sp.triangulation:
        raise StructureError("lamination lives on a different triangulation")
    s = _side_sign(side)
    return sp.with_shears(tuple(x + s * w for x, w in
                                zip(sp.shears, lam.weights)))


# ---------------------------------------------------------------------------
# quake cocycle
# ---------------------------------------------------------------------------

def cocycle_products(sequences, coefficients):
    """For each list of `sequences`, oriented, weighted leaves as
    `crossings` returns them: the ordered products of exp(c a D), c in
    `coefficients`, a the weight and D the displacement generator of
    each leaf.  A crossed prefix (of leaves by identity) is built once,
    as its parent's product times its last factors: the left fold; the
    generators of all last leaves are one `iso.displacement_generators`
    stack."""
    prefixes, ends = {}, []  # (parent, leaf id) -> (prefix, parent, leaf)
    for lifts in sequences:
        if not lm.leaves_pairwise_disjoint(lifts):
            raise InvalidLaminationError("crossing leaves in the lift family")
        node = -1
        for leaf in lifts:
            node = prefixes.setdefault((node, id(leaf)),
                                       (len(prefixes), node, leaf))[0]
        ends.append(node)
    gens = iso.displacement_generators(np.array(
        [leaf.geodesic.map_from_standard() for _, _, leaf in
         prefixes.values()]).reshape(-1, 2, 2))
    prods = []
    for (_, parent, leaf), d in zip(prefixes.values(), gens):
        f = [iso.expm2(c * leaf.weight * d) for c in coefficients]
        prods.append(f if parent < 0 else
                     [p @ g for p, g in zip(prods[parent], f)])
    return [[np.eye(2) for _ in coefficients] if end < 0 else
            [iso.normalize(p) for p in prods[end]] for end in ends]


def cocycle_product(lifts, coefficients):
    """`cocycle_products` of the one sequence `lifts`."""
    return cocycle_products([lifts], coefficients)[0]


def quake_cocycle(lifts, side):
    """B(x, y): ordered product of exp(+-a D) over the crossed leaves.

    `lifts` must come ordered along the segment and oriented with x on
    the left, a leaf through x or y at half its weight (the
    `crossings` convention).
    """
    return cocycle_product(lifts, (_side_sign(side),))[0]


def deform_letters(point, lam, depth=8, pd=None, h=None):
    """(h, {letter: leaves}, converged): the holonomy h of `point` (an
    FNPoint over `pd`, or a ShearPoint; built here unless given) and,
    per alphabet letter m, the leaves of `lam` that cross [x0, m x0],
    x0 = BASE_POINT, from one `crossings_from` query at x0 of its
    `lamination.realize` realization (the hexagon or the triangle
    walk, or a word family capped at `depth` on a cusped FN surface); a
    base point on a weighted leaf raises BasePointOnLeafError, and
    converged ANDs the per-letter flags."""
    if h is None:
        h = teich.holonomy_of(point, pd)
    ys = [iso.apply_h2(m, BASE_POINT) for m in h.alphabet.values()]
    lifts = lm.realize(lam, h, depth, walk=True)
    crossed = lifts.crossings_from(BASE_POINT, ys)
    leaves = {name: lv for name, (lv, _) in zip(h.alphabet, crossed)}
    return h, leaves, all(ok for _, ok in crossed)


def deformed_holonomies(point, lam, coefficients, depth=8, pd=None, h=None):
    """gamma -> B(x0, gamma x0) gamma for each c in `coefficients`, B the
    `cocycle_product` at c of the leaves `deform_letters` finds (on the
    holonomy h of `point`, if given), each holonomy with
    meta['converged'].  The letters are complex exactly when c is; one
    that crosses no leaf (every letter of an empty lamination) stays
    undeformed: the inclusion into the target group."""
    h, crossed, converged = deform_letters(point, lam, depth, pd, h)
    h.meta["converged"] = converged
    products = {name: cocycle_product(leaves, coefficients)
                for name, leaves in crossed.items() if leaves}

    def deformed(k, c):
        dt = complex if np.iscomplexobj(c) else float
        return h.map(lambda name, m: iso.normalize(
            products[name][k].astype(dt) @ m.astype(dt))
            if name in products else m.astype(dt))
    return [deformed(k, c) for k, c in enumerate(coefficients)]


def quake_holonomy(point, lam, side, depth=8, pd=None, h=None):
    """The `side` quake holonomy gamma -> B(x0, gamma x0) gamma of an
    FNPoint (over `pd`) or a ShearPoint, with meta['converged'], from
    the holonomy h of `point` if given."""
    return deformed_holonomies(point, lam, (_side_sign(side),), depth, pd,
                               h)[0]


# ---------------------------------------------------------------------------
# the (enhanced) quake flow
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FlowState:
    """State of the enhanced left-quake flow.

    Stores the initial enhanced surface and lamination plus elapsed
    time; all peripheral scalars derive from them, which keeps the flow
    law exact.
    """

    surface: teich.EnhancedPoint
    lam: lm.EnhancedLam
    time: float = 0.0

    def __post_init__(self):
        if self.time < 0:
            raise DomainError("flow time must be >= 0; "
                              "run the right flow for negative times")

    @property
    def punctures(self):
        return len(self.surface.eps)

    def enhanced_spectrum(self, i):
        """I#_{C_i}: constant along the flow."""
        return lm.enhanced_spectrum(self.lam, i)

    def enhanced_length(self, i):
        """l#_{C_i}(t) = l#_{C_i}(0) - t I#_{C_i}(0)."""
        return teich.enhanced_length(self.surface, i) - \
            self.time * self.enhanced_spectrum(i)

    def plain_length(self, i):
        return abs(self.enhanced_length(i))

    def _flip(self, i):
        # common sign factor of eps and eta; +1 at t = 0, flips when the
        # enhanced length crosses zero (their product stays constant)
        return self.surface.eps[i] * \
            teich.sign_of_enhanced(self.enhanced_length(i))

    def eps(self, i):
        """Boundary-orientation sign: the sign of l#, with sign(0)=+1."""
        return self.surface.eps[i] * self._flip(i)

    def eta(self, i):
        return self.lam.eta[i] * self._flip(i)

    def sigma(self, i):
        """Spiraling sign of the flowed lamination.

        Follows the bounce rule: flips when the boundary length passes
        through a cusp; reported as +1 at the cusp instant itself
        (flagged by `at_cusp`, a convention the source text leaves
        open).
        """
        if self.at_cusp(i):
            return 1
        return self.surface.eps[i] * self.eta(i)

    def at_cusp(self, i):
        return self.enhanced_length(i) == 0.0

    def critical_time(self, i):
        """Time at which C_i degenerates to a cusp, if ever."""
        l0 = teich.enhanced_length(self.surface, i)
        I0 = self.enhanced_spectrum(i)
        if I0 == 0 or (l0 / I0) < 0:
            return None
        return l0 / I0

    def record(self):
        return {
            "t": self.time,
            "l_sharp": tuple(self.enhanced_length(i) for i in range(self.punctures)),
            "I_sharp": tuple(self.enhanced_spectrum(i) for i in range(self.punctures)),
            "eps": tuple(self.eps(i) for i in range(self.punctures)),
            "eta": tuple(self.eta(i) for i in range(self.punctures)),
            "sigma": tuple(self.sigma(i) for i in range(self.punctures)),
            "cusp": tuple(self.at_cusp(i) for i in range(self.punctures)),
        }


def quake_flow(state: FlowState, t):
    """Advance the enhanced left-quake flow by time t >= 0."""
    if t < 0:
        raise DomainError("t must be >= 0; negative times are the right flow")
    return FlowState(state.surface, state.lam, state.time + t)

