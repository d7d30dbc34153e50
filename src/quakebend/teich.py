"""Teichmueller spaces of finite-type surfaces in two coordinate systems.

Fenchel-Nielsen (length/twist) coordinates over a pant decomposition and
shear coordinates over an ideal triangulation, both with explicit
holonomy construction into PSL(2, R).

Holonomy conventions
--------------------
Each hyperbolic pant is realized by the trace normal form

    C1 = [[x1, -1], [1, 0]],   C2 = [[0, xi], [-1/xi, x2]],   C3 = (C1 C2)^{-1}

with x_i = -2 cosh(l_i / 2) and xi = -exp(l_3 / 2), so C1 C2 C3 = Id
holds exactly and cusps (l_i = 0) come out parabolic with trace -2.  The
pant interior lies on the *right* of each boundary element's translation
direction (asserted at build time).  A cuff frame N maps the oriented
geodesic (0, oo) onto the cuff axis, repelling to attracting fixed
point, with N(i) at the foot of the perpendicular toward the cyclically
next cuff; gluing two cuffs with twist t composes

    N . A(-t) . J . N'^{-1},      J = [[0, -1], [1, 0]],

which realizes the rule that for t > 0 the two sides of the curve
translate to the *left* relative to each other.  Zero twist matches the
perpendicular feet.

Shear holonomy follows the ideal-triangulation developing recipe with
turn matrix L = [[-1, -1], [1, 0]] (cyclic rotation of the standard
triangle (0, oo, -1)) and edge matrix F(s) = [[0, -e^{s/2}], [e^{-s/2}, 0]].
The chart change across side k of a triangle into side m of its
neighbour, L^k F(s) L^{-m}, is built once per side; the placements,
letters, peripheral elements, placed edge geodesics and the
`TriangleCharts` of the triangle walk are all read from that one table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from quakebend import isometry as iso
from quakebend.errors import DomainError, StructureError

J_FLIP = np.array([[0.0, -1.0], [1.0, 0.0]])


def _a_mat(s):
    return np.array([[math.exp(s / 2.0), 0.0], [0.0, math.exp(-s / 2.0)]])


def _union_roots(items, pairs):
    """Root of every item once the pairs (a, b) are joined in order, the
    root of a hooked under the root of b (union-find, path halving)."""
    parent = {x: x for x in items}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairs:
        parent[find(a)] = find(b)
    return {x: find(x) for x in items}


def _spanning_tree(gluing):
    """The tree edges of a gluing graph, by breadth-first search from
    node 0: (edge, src, dst) per node first reached, in search order.

    `gluing` lists ((node, slot), (node, slot)) per edge; node dst[0] is
    first reached across edge j from the placed node src[0].
    """
    reached, order, queue = {0}, [], [0]
    while queue:
        p = queue.pop(0)
        for j, (a, b) in enumerate(gluing):
            for src, dst in ((a, b), (b, a)):
                if src[0] == p and dst[0] not in reached:
                    reached.add(dst[0])
                    order.append((j, src, dst))
                    queue.append(dst[0])
    return order


def _placements(order, transition):
    """Placements of the nodes along the tree `order` of `_spanning_tree`:
    node 0 at the identity, dst[0] at placement[src[0]] @
    transition(j, src, dst)."""
    placement = {0: np.eye(2)}
    for j, src, dst in order:
        placement[dst[0]] = iso.normalize(
            placement[src[0]] @ transition(j, src, dst))
    return placement


# ---------------------------------------------------------------------------
# surface data
# ---------------------------------------------------------------------------

CUSP = "cusp"
BOUNDARY = "boundary"


@dataclass(frozen=True)
class SurfaceType:
    genus: int
    kinds: tuple  # per-puncture: CUSP or BOUNDARY

    @property
    def punctures(self):
        return len(self.kinds)

    def __post_init__(self):
        if 2 - 2 * self.genus - self.punctures >= 0:
            raise StructureError("surface must have non-Abelian fundamental group")


@dataclass(frozen=True)
class PantDecomposition:
    """Combinatorics of a pant decomposition.

    Pants are numbered 0..num_pants-1 with cuff slots 0, 1, 2.  Interior
    curves z_j occupy two slots, boundary curves C_i one; every slot is
    used exactly once.
    """

    num_pants: int
    interior: tuple  # ((pant, slot), (pant, slot)) per z_j
    boundary: tuple  # (pant, slot) per C_i

    def __post_init__(self):
        slots = [s for pair in self.interior for s in pair] + list(self.boundary)
        expected = {(p, k) for p in range(self.num_pants) for k in range(3)}
        if sorted(slots) != sorted(expected):
            raise StructureError("every cuff slot must be used exactly once")
        n_p, r = self.num_pants, len(self.boundary)
        if (n_p - r + 2) % 2 != 0 or n_p - r + 2 < 0:
            raise StructureError("pant count incompatible with a closed-up surface")
        roots = _union_roots(range(n_p), [(p, q) for (p, _), (q, _)
                                          in self.interior])
        if len(set(roots.values())) != 1:
            raise StructureError("gluing graph is not connected")

    @property
    def genus(self):
        return (self.num_pants - len(self.boundary) + 2) // 2

    @property
    def num_interior(self):
        return len(self.interior)

    @property
    def num_boundary(self):
        return len(self.boundary)

    def slot_curve(self, pant, slot):
        """('z', j) or ('C', i) occupying the given cuff slot."""
        for j, pair in enumerate(self.interior):
            if (pant, slot) in pair:
                return ("z", j)
        return ("C", self.boundary.index((pant, slot)))

    @classmethod
    def once_punctured_torus(cls):
        return cls(1, (((0, 0), (0, 1)),), ((0, 2),))


#: the shortest geodesic boundary whose cuff classifies as hyperbolic:
#: |tr| - 2 = 2 cosh(l / 2) - 2 must exceed iso.TAU_CLASS
MIN_BOUNDARY = 2.0 * math.acosh(1.0 + iso.TAU_CLASS / 2.0)


def _too_short(what):
    return DomainError(f"{what} lengths in (0, {MIN_BOUNDARY:.3g}) are too "
                       "short to tell from a cusp (length 0)")


@dataclass(frozen=True)
class FNPoint:
    """Fenchel-Nielsen coordinates over a pant decomposition.

    Boundary length 0 encodes a cusp; a positive boundary length and
    every interior length is at least MIN_BOUNDARY (about 6.3e-5).
    """

    boundary_lengths: tuple
    interior_lengths: tuple
    twists: tuple

    def __post_init__(self):
        if any(l < 0 for l in self.boundary_lengths):
            raise DomainError("boundary lengths must be >= 0")
        if any(0 < l < MIN_BOUNDARY for l in self.boundary_lengths):
            raise _too_short("boundary")
        if any(l <= 0 for l in self.interior_lengths):
            raise DomainError("interior curve lengths must be > 0")
        if any(l < MIN_BOUNDARY for l in self.interior_lengths):
            raise _too_short("interior curve")
        if len(self.twists) != len(self.interior_lengths):
            raise StructureError("one twist per interior curve")

    def check(self, pd: PantDecomposition):
        """Refuse a decomposition the point does not fit, and one of
        genus >= 2, whose curve words fail the quake cross-oracle (a
        closed decomposition has at least 2 pants, so genus >= 2)."""
        if (len(self.boundary_lengths) != pd.num_boundary
                or len(self.interior_lengths) != pd.num_interior):
            raise StructureError("FN point does not match the pant decomposition")
        if pd.genus >= 2:
            raise DomainError("Fenchel-Nielsen surfaces of genus >= 2 are not "
                              "supported: their curve words fail the quake "
                              "cross-oracle")

    def with_twists(self, twists):
        return FNPoint(self.boundary_lengths, self.interior_lengths, tuple(twists))


@dataclass(frozen=True)
class IdealTriangulation:
    """Ideal triangulation of (S-hat, V): triangles with glued sides.

    Side k of a triangle joins its corners k and k+1 (mod 3); gluing
    reverses orientation, matching corner k with corner k'+1.
    """

    num_triangles: int
    gluing: tuple  # ((tri, side), (tri, side)) per edge

    def __post_init__(self):
        slots = [s for pair in self.gluing for s in pair]
        expected = {(t, k) for t in range(self.num_triangles) for k in range(3)}
        if sorted(slots) != sorted(expected):
            raise StructureError("every triangle side must be glued exactly once")
        object.__setattr__(self, "_corner_orbits", self._compute_corners())

    @property
    def num_edges(self):
        return len(self.gluing)

    @property
    def num_punctures(self):
        return len(set(self._corner_orbits.values()))

    @property
    def genus(self):
        """From the Euler characteristic V - E + F = 2 - 2g."""
        return (2 - self.num_punctures + self.num_edges - self.num_triangles) // 2

    def _compute_corners(self):
        corners = [(t, c) for t in range(self.num_triangles) for c in range(3)]
        pairs = []
        for (t, k), (u, m) in self.gluing:
            pairs += [((t, k), (u, (m + 1) % 3)), ((t, (k + 1) % 3), (u, m))]
        roots = _union_roots(corners, pairs)
        index = {r: i for i, r in enumerate(sorted(set(roots.values())))}
        return {c: index[r] for c, r in roots.items()}

    def puncture_of_corner(self, tri, corner):
        return self._corner_orbits[(tri, corner)]

    def edge_endpoints(self, j):
        """Puncture indices at the two ends of edge j (may coincide)."""
        (t, k), _ = self.gluing[j]
        return (self.puncture_of_corner(t, k),
                self.puncture_of_corner(t, (k + 1) % 3))

    def star_counts(self, puncture):
        """Per-edge incidence count of the puncture (0, 1 or 2)."""
        out = []
        for j in range(self.num_edges):
            a, b = self.edge_endpoints(j)
            out.append(int(a == puncture) + int(b == puncture))
        return out

    @classmethod
    def once_punctured_torus(cls):
        return cls(2, (((0, 0), (1, 0)), ((0, 1), (1, 1)), ((0, 2), (1, 2))))


@dataclass(frozen=True)
class ShearPoint:
    triangulation: IdealTriangulation
    shears: tuple

    def __post_init__(self):
        if len(self.shears) != self.triangulation.num_edges:
            raise StructureError("one shear per triangulation edge")

    def puncture_sum(self, i):
        """s(p_i): sum of shears over the star of the puncture, counted
        with corner multiplicity."""
        counts = self.triangulation.star_counts(i)
        return float(sum(c * s for c, s in zip(counts, self.shears)))

    def with_shears(self, shears):
        return ShearPoint(self.triangulation, tuple(shears))


@dataclass(frozen=True)
class EnhancedPoint:
    """Surface point decorated with boundary-orientation signs.

    eps_i = +1 is forced at cusps.
    """

    point: object  # FNPoint or ShearPoint
    eps: tuple

    def __post_init__(self):
        lengths = boundary_lengths(self.point)
        if len(self.eps) != len(lengths):
            raise StructureError("one eps sign per puncture")
        for i, e in enumerate(self.eps):
            if e not in (-1, 1):
                raise DomainError("signs must be +-1")
            if lengths[i] == 0.0 and e != 1:
                raise StructureError(f"eps must be +1 at the cusp {i}")


def boundary_lengths(point):
    """Per-puncture boundary lengths l_i of a coordinate point (0 at
    cusps): the FN boundary lengths, or |s(p_i)| of a shear point."""
    if isinstance(point, FNPoint):
        return tuple(float(l) for l in point.boundary_lengths)
    if isinstance(point, ShearPoint):
        return tuple(abs(point.puncture_sum(i))
                     for i in range(point.triangulation.num_punctures))
    raise StructureError(f"unsupported coordinate point {type(point)!r}")


def enhanced_length(fp: EnhancedPoint, i):
    """Signed boundary length l#_i = eps_i * l_i (0 at cusps)."""
    return fp.eps[i] * boundary_lengths(fp.point)[i]


def sign_of_enhanced(value):
    """Sign convention for enhanced lengths: the sign of 0 is +1."""
    return -1 if value < 0 else 1


# ---------------------------------------------------------------------------
# pants in normal form
# ---------------------------------------------------------------------------

def pants_matrices(l1, l2, l3):
    """Boundary holonomies (C1, C2, C3) of a hyperbolic pant.

    C1 C2 C3 = Id exactly; |tr C_k| = 2 cosh(l_k / 2), parabolic at
    cusps.  Lengths must be >= 0.
    """
    if min(l1, l2, l3) < 0:
        raise DomainError("pant boundary lengths must be >= 0")
    x1 = -2.0 * math.cosh(l1 / 2.0)
    x2 = -2.0 * math.cosh(l2 / 2.0)
    xi = -math.exp(l3 / 2.0)
    c1 = np.array([[x1, -1.0], [1.0, 0.0]])
    c2 = np.array([[0.0, xi], [-1.0 / xi, x2]])
    c3 = iso.inv(c1 @ c2)
    return c1, c2, c3


def _axis_or_point(k: iso.IsomClass):
    """Axis (repelling to attracting) of a hyperbolic cuff of class k,
    or the ideal fixed point of a parabolic one."""
    if k.kind == "hyperbolic":
        att, rep = k.fixed_points
        return iso.Geodesic(rep, att)
    if k.kind == "parabolic":
        return k.fixed_points[0]
    raise StructureError("pant cuff holonomy is neither hyperbolic nor parabolic")


def _foot_height(m, target):
    """Height h such that M(i h) is the foot on the axis M(0, oo) of the
    perpendicular toward `target` (a Geodesic or an ideal point)."""
    minv = iso.inv(m)
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


def _pant_frames(axes):
    """Frames of a pant's cuffs from their `_axis_or_point`s: N with
    N^{-1} C_k N = A(l_k) and N(i) at the foot of the perpendicular
    toward the next cuff, None at a cusp.  Each axis's map M from (0, oo)
    is taken once; the pant interior lies on the right of every axis, so
    each foot M(i) must lie on the right of the other axes."""
    maps = [ax.map_from_standard() if isinstance(ax, iso.Geodesic) else None
            for ax in axes]
    feet = [(k, iso.apply_h2(m, 1j)) for k, m in enumerate(maps) if m is not None]
    if any(axes[i].side(z) >= 0 for i, _ in feet for j, z in feet if j != i):
        raise StructureError("pant normal form lost its chirality")
    return [None if m is None
            else m @ _a_mat(math.log(_foot_height(m, axes[(k + 1) % 3])))
            for k, m in enumerate(maps)]


# ---------------------------------------------------------------------------
# holonomy container
# ---------------------------------------------------------------------------

#: products one level of `Holonomy.word_levels` may build (bounds memory)
MAX_WORDS = 6_000_000


class Holonomy:
    """Representation of pi_1(S) into PSL(2, R) (or PSL(2, C), or pairs).

    `gens` is a free generating set used for reduced-word enumeration;
    `alphabet` extends it with derived letters so curve words stay
    short.  Words are tuples of (letter, +-1).
    """

    def __init__(self, gens, alphabet, curve_words, peripheral, meta=None):
        self.gens = dict(gens)
        self.alphabet = dict(alphabet)
        self.curve_words = dict(curve_words)
        self.peripheral = tuple(peripheral)  # curve names of C_0..C_{r-1}
        self.meta = dict(meta or {})
        if not set(self.gens) <= set(self.alphabet):
            raise StructureError("every generator must be an alphabet letter")

    def letter_matrices(self):
        """(2k, 2, 2) stack of the letters g0, g0^-1, g1, g1^-1, ...:
        the inverse of letter i is letter i ^ 1."""
        return np.array([m for g in self.gens.values()
                         for m in (g, iso.inv(g))]).reshape(-1, 2, 2)

    def word_levels(self, depth, letters=None):
        """Reduced words of the free generators, one length at a time.

        Letters are ordered as in `letter_matrices`, so level 1 lists
        them in that order.  Yields, for each length 0..depth, the
        (n, 2, 2) stack of word matrices (unnormalized) and the index of
        each word's last letter (-1 for the empty word).  Each level
        lists the words of the previous one in turn, each extended by
        every letter but the inverse of its last one (prefix-major
        order).  This is the one reduced-word enumeration of the
        package.

        `letters`, if given, is a (2k, d, d) stack that replaces the
        2x2 letters, in the same order (the inverse of letter i is
        letter i ^ 1): an affine letter stack, say, enumerates the same
        words as (d, d) products.

        A level whose n prefixes would build more than MAX_WORDS
        products (n 2k) raises DomainError before it allocates them.
        """
        gens = self.letter_matrices() if letters is None else letters
        idx = np.arange(len(gens))
        mats = np.eye(gens.shape[-1], dtype=gens.dtype)[None]
        last = np.array([-1])
        yield mats, last
        for level in range(1, depth + 1):
            if len(mats) * len(gens) > MAX_WORDS:
                raise DomainError(
                    f"depth {depth} builds {len(mats) * len(gens)} words at "
                    f"level {level} on a rank-{len(self.gens)} group; "
                    "reduce the depth")
            # every (letter, prefix) product, one einsum per letter (a
            # fixed right factor is the fast kernel, and its rows do not
            # depend on which other rows are in the stack), then the
            # pairs that do not backtrack, gathered in prefix-major order
            prod = np.empty((len(gens),) + mats.shape, dtype=gens.dtype)
            for g in idx:
                np.einsum("nij,jk->nik", mats, gens[g], out=prod[g])
            prefix, last = np.nonzero(idx != (last[:, None] ^ 1))
            mats = prod.reshape(-1, *gens.shape[1:])[last * len(mats) + prefix]
            yield mats, last

    def word(self, letters):
        """Evaluate a word: iterable of (letter, exponent)."""
        out = np.eye(2)
        for name, e in letters:
            m = self.alphabet[name]
            if e < 0:
                m = iso.inv(m)
            for _ in range(abs(e)):
                out = out @ m
        return iso.normalize(out)

    def curve(self, name):
        """Holonomy matrix of a dictionary curve (C_i, z_j, zp_j, zpp_j)."""
        return self.word(self.curve_words[name])

    def curve_names(self):
        return tuple(self.curve_words)

    def peripheral_matrix(self, i):
        return self.curve(self.peripheral[i])

    def map(self, fn):
        """New holonomy with every letter transformed by fn (e.g. a
        conjugation or a deformation), once per alphabet letter; words
        are preserved and each generator is its transformed letter."""
        alphabet = {k: fn(k, m) for k, m in self.alphabet.items()}
        return Holonomy({k: alphabet[k] for k in self.gens}, alphabet,
                        self.curve_words, self.peripheral, self.meta)


def holonomy_of(point, pd=None):
    """Holonomy of an FNPoint (over its decomposition `pd`) or a
    ShearPoint."""
    if isinstance(point, FNPoint):
        if pd is None:
            raise StructureError("FN holonomy needs the pant decomposition")
        return holonomy_from_fn(pd, point)
    if isinstance(point, ShearPoint):
        return holonomy_from_shear(point)
    raise StructureError(f"unsupported point {type(point)!r}")


def boundary_length(h: Holonomy, i):
    """Geodesic boundary length read from the peripheral holonomy."""
    m = h.peripheral_matrix(i)
    k = iso.classify(m)
    if k.kind == "hyperbolic":
        return k.translation_length
    if k.kind == "parabolic":
        return 0.0
    raise StructureError(
        f"peripheral holonomy of C_{i} is {k.kind}: not a structure in scope")


def puncture_kinds(point):
    """Per-puncture cusp/boundary kinds of a coordinate point."""
    return tuple(CUSP if l == 0.0 else BOUNDARY for l in boundary_lengths(point))


def surface_type(h: Holonomy, point=None):
    """Partition of the punctures into cusps and geodesic boundaries:
    from the coordinates of `point` when given (`puncture_kinds`), else
    classified from the peripheral holonomy, where a boundary shorter
    than MIN_BOUNDARY (|tr| - 2 under iso.TAU_CLASS) reads as a cusp."""
    kinds = (puncture_kinds(point) if point is not None else
             tuple(CUSP if boundary_length(h, i) == 0.0 else BOUNDARY
                   for i in range(len(h.peripheral))))
    return SurfaceType(h.meta.get("genus", 0), kinds)


# ---------------------------------------------------------------------------
# Fenchel-Nielsen holonomy
# ---------------------------------------------------------------------------

def _curve_length(pd, fn, pant, slot):
    kind, idx = pd.slot_curve(pant, slot)
    return (fn.interior_lengths[idx] if kind == "z"
            else fn.boundary_lengths[idx])


@dataclass(frozen=True, eq=False)
class PantCharts:
    """The pants of a Fenchel-Nielsen holonomy, for walks across their
    hexagons, as the holonomy's gluing builds them.

    Pant p's chart is its normal form (`pants_matrices`), placed by
    `placement[p]`, with the frame N of the cuff in each slot k,
    `frames[p][k]` (`_pant_frames`, None at a cusp).  The slots (p, k)
    and (q, m) of interior curve j are glued with `twists[j]`: the chart
    of pant q, seen from pant p, is N_pk A(-t) J N_qm^-1 either way
    round.
    """

    decomposition: PantDecomposition
    placement: dict  # pant -> the chart of its normal form
    frames: list     # [pant][slot] the frame of its cuff
    lengths: list    # [pant][slot] the length of its cuff, 0 at a cusp
    twists: tuple    # per interior curve


class _FNSetup:
    """What a Fenchel-Nielsen holonomy takes from the lengths and the
    decomposition alone: the pants in normal form (each cuff classified
    once, for the too-short check and for its axis, which
    `_pant_frames` maps once), the spanning tree of the gluing, the slot
    words, the free basis and the curve words.  `glue` adds the twists."""

    def __init__(self, pd: PantDecomposition, fn: FNPoint):
        fn.check(pd)
        self.pd, self.lengths = pd, (fn.boundary_lengths, fn.interior_lengths)
        self.cuffs, self.frames, lengths = [], [], []
        for p in range(pd.num_pants):
            ls = [_curve_length(pd, fn, p, k) for k in range(3)]
            lengths.append(ls)
            cuffs = pants_matrices(*ls)
            kinds = [iso.classify(c) for c in cuffs]
            # a length just above MIN_BOUNDARY can still round to a cuff
            # with |tr| - 2 under iso.TAU_CLASS
            for k in range(3):
                if ls[k] > 0 and kinds[k].kind != "hyperbolic":
                    raise _too_short("boundary" if pd.slot_curve(p, k)[0] == "C"
                                     else "interior curve")
            self.cuffs.append(cuffs)
            self.frames.append(_pant_frames([_axis_or_point(c) for c in kinds]))
        self.slot_lengths = lengths
        self.order = _spanning_tree(pd.interior)
        self.tree_edges = {j for j, _, _ in self.order}

        # primary/secondary slot per edge, spreading secondaries so every
        # pant keeps an eliminable letter for its product relation
        secondary_count = [0] * pd.num_pants
        self.edge_sides = []
        for a, b in pd.interior:
            if secondary_count[a[0]] < secondary_count[b[0]]:
                a, b = b, a
            self.edge_sides.append((a, b))
            secondary_count[b[0]] += 1

        # derived words: secondary slot of edge j is b_j^{-1} z_j^{-1} b_j
        slot_word = {}
        for j, (a, b) in enumerate(self.edge_sides):
            slot_word[a] = ((f"z{j}", +1),)
            if j in self.tree_edges:
                slot_word[b] = ((f"z{j}", -1),)
            else:
                slot_word[b] = ((f"b{j}", -1), (f"z{j}", -1), (f"b{j}", +1))
        for i, (p, k) in enumerate(pd.boundary):
            slot_word[(p, k)] = ((f"C{i}", +1),)

        # free generators: eliminate one letter per pant via C1 C2 C3 = Id
        self.eliminated = set()
        for p in range(pd.num_pants):
            candidates = []
            for k in (2, 1, 0):
                lw = slot_word[(p, k)]
                if len(lw) == 1 and lw[0][1] == +1 and \
                        lw[0][0] not in self.eliminated:
                    candidates.append(lw[0][0])
            boundary_first = sorted(candidates,
                                    key=lambda n: (not n.startswith("C"), n))
            if not boundary_first:
                raise StructureError("pant decomposition admits no free basis here")
            self.eliminated.add(boundary_first[0])

        def inverse_word(w):
            return tuple((n, -e) for n, e in reversed(w))

        self.curve_words = curve_words = {}
        for i in range(pd.num_boundary):
            curve_words[f"C{i}"] = ((f"C{i}", +1),)
        for j in range(pd.num_interior):
            curve_words[f"z{j}"] = ((f"z{j}", +1),)
        # z'_j crosses z_j exactly twice (two seam arcs glued across the
        # curve); z''_j is its image under a Dehn twist along z_j, i.e. a
        # z_j letter inserted at each crossing, on the a side of the
        # connector b_j of a non-tree edge (z_j is placed in a's pant)
        for j, (a, b) in enumerate(self.edge_sides):
            zj, bj = (f"z{j}", +1), (f"b{j}", +1)
            if a[0] == b[0]:
                # self-gluing: both crossings have the same sign
                curve_words[f"zp{j}"] = (zj, bj, bj)
                curve_words[f"zpp{j}"] = (zj, bj, zj, bj, zj)
            else:
                u = slot_word[(a[0], (a[1] + 1) % 3)]
                v = slot_word[(b[0], (b[1] + 1) % 3)]
                cross = (bj,) if j not in self.tree_edges else ()
                back = inverse_word(cross)
                curve_words[f"zp{j}"] = u + cross + v + back
                curve_words[f"zpp{j}"] = (u + (zj,) + cross + v + back
                                          + ((f"z{j}", -1),))

    def glue(self, fn: FNPoint) -> Holonomy:
        """The holonomy at the twists of `fn`, whose lengths must be
        those of the set-up: the edge transitions, the placements, the
        placed and connector letters and the `PantCharts`."""
        pd, frames = self.pd, self.frames
        if (fn.boundary_lengths, fn.interior_lengths) != self.lengths:
            raise StructureError("FN points of one set-up share their lengths")

        def edge_transition(j, src, dst):
            t = fn.twists[j]
            (p, k) = src
            (q, m) = dst
            return iso.normalize(frames[p][k] @ _a_mat(-t) @ J_FLIP
                                 @ iso.inv(frames[q][m]))

        placement = _placements(self.order, edge_transition)

        def placed(p, mat):
            g = placement[p]
            return iso.normalize(g @ mat @ iso.inv(g))

        # letters: one per interior curve (primary slot), one per boundary
        # curve, one connector per non-tree edge
        alphabet = {}
        for j, (a, b) in enumerate(self.edge_sides):
            alphabet[f"z{j}"] = placed(a[0], self.cuffs[a[0]][a[1]])
        for i, (p, k) in enumerate(pd.boundary):
            alphabet[f"C{i}"] = placed(p, self.cuffs[p][k])
        for j, (a, b) in enumerate(self.edge_sides):
            if j in self.tree_edges:
                continue
            alphabet[f"b{j}"] = iso.normalize(
                placement[a[0]] @ edge_transition(j, a, b)
                @ iso.inv(placement[b[0]]))
        gens = {n: alphabet[n] for n in alphabet if n not in self.eliminated}
        peripheral = tuple(f"C{i}" for i in range(pd.num_boundary))
        return Holonomy(gens, alphabet, self.curve_words, peripheral,
                        meta={"genus": pd.genus, "pant_charts": PantCharts(
                            pd, placement, self.frames, self.slot_lengths,
                            fn.twists)})


def holonomies_from_fn(pd: PantDecomposition, points) -> list:
    """`holonomy_from_fn(pd, fn)` for each FNPoint fn of `points`, which
    share their lengths and differ in their twists (a quake moves only
    the twists): one `_FNSetup`, then a gluing per point."""
    setup = _FNSetup(pd, points[0])
    return [setup.glue(fn) for fn in points]


def holonomy_from_fn(pd: PantDecomposition, fn: FNPoint) -> Holonomy:
    """Holonomy of F(l, t): normalized pants glued along the interior
    curves with the stated twist convention, on the surfaces
    `FNPoint.check` accepts.  The meta holds the genus and the
    `PantCharts` of the hexagon walk."""
    return holonomies_from_fn(pd, [fn])[0]


# ---------------------------------------------------------------------------
# shear holonomy
# ---------------------------------------------------------------------------

_L_TURN = np.array([[-1.0, -1.0], [1.0, 0.0]])  # 0 -> oo -> -1 -> 0
_TURNS = np.array([np.linalg.matrix_power(_L_TURN, k) for k in range(3)])


def _f_edge(s):
    return np.array([[0.0, -math.exp(s / 2.0)], [math.exp(-s / 2.0), 0.0]])


@dataclass(frozen=True, eq=False)
class TriangleCharts:
    """The ideal triangles of a shear holonomy, for walks across them.

    Triangle t's chart maps the standard triangle (0, oo, -1), corners
    0, 1, 2, onto one of its lifts; side k joins corners k and k + 1.
    The arrays are indexed by (triangle, side) or (triangle, corner);
    `geodesics` by edge.
    """

    placement: np.ndarray  # (n, 2, 2) chart of the base lift of each triangle
    step: np.ndarray       # (n, 3, 2, 2) chart change across each side ...
    step_inv: np.ndarray   # (n, 3, 2, 2) ... and its inverse
    across: np.ndarray     # (n, 3) the triangle across each side ...
    entry: np.ndarray      # (n, 3) ... and the side of it glued there
    edge: np.ndarray       # (n, 3) the edge index of each side
    fan: np.ndarray        # (n, 3, 2, 2) peripheral element of each corner
    boundary: np.ndarray   # (n, 3) whether a corner's puncture is a boundary
    geodesics: tuple       # per edge j, its lift on the side gluing[j][0]


def holonomy_from_shear(sp: ShearPoint) -> Holonomy:
    """Holonomy of F(s): ideal triangles glued with shears.

    One table, per (triangle, side), of the edge, the triangle and side
    across it and the chart change there, step[t, k] = L^k F(s_j) L^-m,
    gives everything else: the placements (a spanning tree of the
    gluing), a generator per edge off the tree, the fans of chart changes
    around the corners (one stacked walk), whose product at the first
    corner of puncture i is C_i, and the placed edge geodesics.

    Boundary lengths satisfy l_{C_i} = |s(p_i)| with s(p_i) the shear
    sum over the star of p_i counted with corner multiplicity; cusps
    occur exactly at s(p_i) = 0.  The meta holds the genus and the
    `TriangleCharts`, whose corner kinds come from these sums.
    """
    tri = sp.triangulation
    n = tri.num_triangles
    side = {}
    for j, (a, b) in enumerate(tri.gluing):
        side[a], side[b] = (j, *b), (j, *a)
    # (edge, triangle across, side across) per (triangle, side)
    sides = [[side[(t, k)] for k in range(3)] for t in range(n)]
    edge, across, entry = np.array(sides).transpose(2, 0, 1).copy()
    step = np.array([[iso.normalize(_TURNS[k] @ _f_edge(sp.shears[j])
                                    @ _TURNS[-m % 3])
                      for k, (j, _, m) in enumerate(row)] for row in sides])

    order = _spanning_tree(tri.gluing)
    placed = _placements(order, lambda j, src, dst: step[src])
    tree_edges = {j for j, _, _ in order}
    placement = np.array([placed[t] for t in range(n)])
    alphabet = {f"g{j}": iso.normalize(placement[a] @ step[a, k]
                                       @ iso.inv(placement[b]))
                for j, ((a, k), (b, _)) in enumerate(tri.gluing)
                if j not in tree_edges}
    gens = dict(alphabet)

    # the fan of corner 3 t + c, in t's chart: every corner steps across
    # the table at once, each until it is back at its start
    turn = (3 * across + (entry + 1) % 3).ravel()
    fans = np.broadcast_to(np.eye(2), (3 * n, 2, 2)).copy()
    live = at = np.arange(3 * n)
    while len(live):
        fans[live] = fans[live] @ step.reshape(-1, 2, 2)[at]
        at = turn[at]
        moving = at != live
        live, at = live[moving], at[moving]
    fans = fans.reshape(n, 3, 2, 2)
    # the puncture of each corner, (triangle, corner) in row-major order
    puncture = [tri.puncture_of_corner(t, c)
                for t in range(n) for c in range(3)]
    for i in range(tri.num_punctures):
        t, c = divmod(puncture.index(i), 3)
        alphabet[f"C{i}"] = iso.normalize(placement[t] @ fans[t, c]
                                          @ iso.inv(placement[t]))
    curve_words = {f"C{i}": ((f"C{i}", +1),)
                   for i in range(tri.num_punctures)}

    kinds = puncture_kinds(sp)
    charts = TriangleCharts(
        placement=placement, step=step,
        step_inv=iso.inv(step),
        across=across, entry=entry, edge=edge, fan=fans,
        boundary=np.array([kinds[p] == BOUNDARY
                           for p in puncture]).reshape(n, 3),
        geodesics=tuple(iso.transform_geodesic(
            iso.normalize(placement[t] @ _TURNS[k]), iso.Geodesic(0.0, iso.INF))
            for (t, k), _ in tri.gluing))
    return Holonomy(gens, alphabet, curve_words, tuple(curve_words),
                    meta={"genus": tri.genus, "triangle_charts": charts})
