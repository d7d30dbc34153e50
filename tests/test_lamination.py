import itertools
import math
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quakebend import bending as bd
from quakebend import earthquake as eq
from quakebend import isometry as iso
from quakebend import teich
from quakebend import lamination as lm
from quakebend import scenario
from quakebend.errors import DomainError, StructureError

import oracles

TRI_1PT = teich.IdealTriangulation.once_punctured_torus()
TRI_3PS = oracles.triangulation_three_punctured_sphere()


class TestSpectra:
    def test_punctured_torus_star(self):
        # each edge meets the single puncture twice
        lam = lm.TriangulationLam(TRI_1PT, (1.0, 2.0, 3.0), (1,))
        assert lm.peripheral_spectrum(lam, 1) == (12.0,)

    def test_three_punctured_sphere_star(self):
        lam = lm.TriangulationLam(TRI_3PS, (1.0, 2.0, 3.0), (1, 1, 1))
        spec = lm.peripheral_spectrum(lam, 3)
        assert sum(spec) == pytest.approx(2 * 6.0)
        for v in spec:
            assert v > 0

    def test_multicurve_peripheral_zero(self):
        lam = lm.MultiCurveLam((1.0, 2.0))
        assert lm.peripheral_spectrum(lam, 3) == (0.0, 0.0, 0.0)

    @given(st.floats(0.1, 10.0))
    @settings(max_examples=40, deadline=None)
    def test_ray_scaling(self, t):
        lam = lm.TriangulationLam(TRI_1PT, (1.0, 2.0, 3.0), (1,))
        spec0 = lm.peripheral_spectrum(lam, 1)
        scaled = lm.TriangulationLam(TRI_1PT, (t, 2.0 * t, 3.0 * t), (1,))
        spec1 = lm.peripheral_spectrum(scaled, 1)
        assert spec1[0] == pytest.approx(t * spec0[0], rel=1e-12)


class TestIntersectionSpectrum:
    PD = teich.PantDecomposition.once_punctured_torus()

    def test_pant_curves_disjoint(self):
        lam = lm.MultiCurveLam((1.0,))
        assert lm.intersection_spectrum("z0", lam, self.PD) == 0.0

    def test_transversal_crosses_twice(self):
        lam = lm.MultiCurveLam((1.0,))
        assert lm.intersection_spectrum("zp0", lam, self.PD) == 2.0
        assert lm.intersection_spectrum("zpp0", lam, self.PD) == 2.0

    def test_additive_in_weights(self):
        l1 = lm.MultiCurveLam((1.0,))
        l2 = lm.MultiCurveLam((2.5,))
        v = lm.intersection_spectrum("zp0", l1, self.PD)
        assert lm.intersection_spectrum("zp0", l2, self.PD) == pytest.approx(2.5 * v)

    def test_unknown_curve(self):
        with pytest.raises(lm.UnsupportedCurveError):
            lm.intersection_spectrum("w3", lm.MultiCurveLam((1.0,)), self.PD)
        with pytest.raises(lm.UnsupportedCurveError):
            lm.intersection_spectrum("z5", lm.MultiCurveLam((1.0,)), self.PD)


class TestEnhancedLam:
    def test_signed_spectrum(self):
        lam = lm.TriangulationLam(TRI_1PT, (1.0, 2.0, 3.0), (1,))
        el = lm.EnhancedLam(lam, (-1,), (teich.CUSP,))
        assert lm.enhanced_spectrum(el, 0) == -12.0

    def test_zero_spectrum_any_eta(self):
        lam = lm.MultiCurveLam((1.0,))
        el = lm.EnhancedLam(lam, (1,), (teich.BOUNDARY,))
        assert lm.enhanced_spectrum(el, 0) == 0.0

    def test_magnitude_preserved(self):
        lam = lm.TriangulationLam(TRI_3PS, (1.0, 0.5, 2.0), (1, -1, 1))
        kinds = (teich.BOUNDARY,) * 3
        el = lm.EnhancedLam(lam, (1, -1, 1), kinds)
        for i in range(3):
            assert abs(lm.enhanced_spectrum(el, i)) == \
                lm.peripheral_spectrum(lam, 3)[i]

    def test_eta_constrained_at_boundary(self):
        lam = lm.TriangulationLam(TRI_3PS, (1.0, 0.5, 2.0), (1, -1, 1))
        with pytest.raises(StructureError):
            lm.EnhancedLam(lam, (-1, -1, 1), (teich.BOUNDARY,) * 3)

    def test_eta_free_at_entered_cusp(self):
        lam = lm.TriangulationLam(TRI_1PT, (1.0, 1.0, 1.0), (1,))
        lm.EnhancedLam(lam, (-1,), (teich.CUSP,))
        lm.EnhancedLam(lam, (1,), (teich.CUSP,))


class TestRealizeLifts:
    PD = teich.PantDecomposition.once_punctured_torus()
    FN = teich.FNPoint((1.0,), (2.0,), (0.3,))

    def setup_method(self):
        self.h = teich.holonomy_from_fn(self.PD, self.FN)

    def test_empty_lamination(self):
        fam = lm.LiftFamily(lm.MultiCurveLam((0.0,)), self.h, depth=4)
        leaves, conv = fam.crossings(0.2 + 1.0j, 0.5 + 2.0j)
        assert leaves == [] and conv

    @pytest.mark.parametrize("curve,expected", [
        ("z0", 0), ("C0", 0), ("zp0", 2), ("zpp0", 2)])
    def test_crossings_match_intersection_numbers(self, curve, expected):
        # segment along the curve's own axis, one full period
        lam = lm.MultiCurveLam((1.0,))
        fam = lm.LiftFamily(lam, self.h, depth=8)
        g = self.h.curve(curve)
        if abs(iso.tr(g)) > 2.0:
            x0 = iso.apply_h2(iso.axis(g).map_from_standard(), 1j)
        else:
            x0 = 0.9 + 1.3j
        y = iso.apply_h2(g, x0)
        leaves, conv = fam.crossings(x0, y)
        assert conv
        assert len(leaves) == expected
        assert lm.intersection_spectrum(curve, lam, self.PD) == float(expected)
        assert lm.leaves_pairwise_disjoint(leaves)

    def test_output_ordered_and_oriented(self):
        lam = lm.MultiCurveLam((1.0,))
        g = self.h.curve("zp0")
        x0 = iso.apply_h2(iso.axis(g).map_from_standard(), 1j)
        y = iso.apply_h2(g, x0)
        leaves, _ = lm.LiftFamily(lam, self.h, depth=8).crossings(x0, y)
        for leaf in leaves:
            assert leaf.geodesic.side(x0) > 0  # x on the left

    def test_equivariance(self):
        lam = lm.MultiCurveLam((1.0,))
        fam = lm.LiftFamily(lam, self.h, depth=8)
        x0, y = 0.9 + 1.3j, iso.apply_h2(self.h.curve("zp0"), 0.9 + 1.3j)
        g = self.h.gens["b0"]
        l1, _ = fam.crossings(x0, y)
        l2, _ = fam.crossings(iso.apply_h2(g, x0), iso.apply_h2(g, y))
        assert len(l1) == len(l2)
        for a, b in zip(l1, l2):
            pm = iso.apply_boundary(g, a.geodesic.p_minus)
            if pm == iso.INF or b.geodesic.p_minus == iso.INF:
                assert pm == b.geodesic.p_minus
            else:
                assert pm == pytest.approx(b.geodesic.p_minus, abs=1e-8)

    def test_base_point_on_leaf_rejected(self):
        lam = lm.MultiCurveLam((1.0,))
        ax = iso.axis(self.h.curve("z0"))
        x_on = iso.apply_h2(ax.map_from_standard(), 1j)
        far = iso.apply_h2(self.h.curve("zp0"), 0.9 + 1.3j)
        with pytest.raises(lm.BasePointOnLeafError):
            lm.LiftFamily(lam, self.h, depth=6).crossings(x_on, far)

    def test_misspelt_on_leaf_is_refused(self):
        # the far end is on the z0 axis, where 'end' gives the leaf at
        # half weight; a misspelt value is refused before any candidate
        # block is drawn
        fam = lm.LiftFamily(lm.MultiCurveLam((0.8,)), self.h, depth=6)
        frame = iso.axis(self.h.curve("z0")).map_from_standard()
        on = iso.apply_h2(frame, 1j)
        off = iso.apply_h2(frame, complex(math.cos(1.1), math.sin(1.1)))
        assert [l.weight for l in fam.crossings(off, on, on_leaf="end")[0]] \
            == [0.4]
        fam._candidates = lambda x, y: pytest.fail("candidates drawn")
        for y in (on, off):
            with pytest.raises(StructureError,
                               match="'raise', 'include' or 'end'"):
                fam.crossings(off, y, on_leaf="rasie")

    def test_triangulation_family_peripheral_mass(self):
        # a peripheral loop pushed into the collar on the interior side
        # crosses each spiraling leaf end exactly once per period
        sp = teich.ShearPoint(TRI_3PS, (1.5, 0.8, 1.2))
        hs = teich.holonomy_from_shear(sp)
        lam = lm.TriangulationLam.from_shear(sp, (0.5, 0.25, 1.0))
        fam = lm.LiftFamily(lam, hs, depth=10)
        spec = lm.peripheral_spectrum(lam, 3)
        for i in range(3):
            g = hs.peripheral_matrix(i)
            m = iso.axis(g).map_from_standard()
            masses = {}
            for side in (+1, -1):
                th = math.pi / 2 - side * 0.3
                x0 = iso.apply_h2(m, complex(math.cos(th), math.sin(th)))
                leaves, conv = fam.crossings(x0, iso.apply_h2(g, x0))
                assert conv
                assert lm.leaves_pairwise_disjoint(leaves)
                masses[side] = sum(l.weight for l in leaves)
            # interior side sees the full transverse mass, the other none
            assert sorted(masses.values()) == pytest.approx([0.0, spec[i]])

    def test_depth_guard(self):
        with pytest.raises(DomainError):
            lm.LiftFamily(lm.MultiCurveLam((1.0,)), self.h, depth=0)


class TestWeights:
    def test_negative_weight_rejected(self):
        with pytest.raises(DomainError):
            lm.MultiCurveLam((-1.0,))
        with pytest.raises(DomainError):
            lm.TriangulationLam(TRI_1PT, (1.0, -1.0, 1.0), (1,))


# ---------------------------------------------------------------------------
# distance index of the lift family
# ---------------------------------------------------------------------------

def endpoint(vec):
    """Ideal point of an endpoint vector (a, b): a / b, or oo."""
    if abs(vec[1]) < 1e-13 * abs(vec[0]):
        return iso.INF
    return float(vec[0] / vec[1])


def crossings_scan(fam, x, y, tol=1e-9, on_leaf="raise"):
    """Reference: `LiftFamily.crossings` as a test of every leaf of the
    family, without the distance index.  A leaf runs from its positive
    frame endpoint to its negative one; one through x or y comes back
    at half its weight."""
    if fam.empty or abs(x - y) < 1e-14:
        return [], True
    fi = iso.inv(lm.segment_frames(x, [y])[0])
    seg_len = math.log(iso.apply_h2(fi, y).imag)
    um = fam.ends_minus @ fi.T
    up = fam.ends_plus @ fi.T
    with np.errstate(divide="ignore", invalid="ignore"):
        vm = um[:, 0] / um[:, 1]
        vp = up[:, 0] / up[:, 1]
    finite = np.isfinite(vm) & np.isfinite(vp) & (um[:, 1] != 0) & (up[:, 1] != 0)
    prod = np.where(finite, vm * vp, 1.0)
    cross = finite & (prod < 0)
    if not cross.any():
        return [], True
    t = 0.5 * np.log(-prod[cross])
    near_end = (np.abs(t) <= tol) | (np.abs(t - seg_len) <= tol)
    if near_end.any() and on_leaf == "raise":
        raise lm.BasePointOnLeafError("a segment endpoint lies on a weighted leaf")
    inside = ((t > 0) & (t < seg_len)) | near_end
    idx = np.flatnonzero(cross)[inside]
    leaves = []
    for k in np.argsort(t[inside], kind="stable"):
        i = idx[k]
        geo = iso.Geodesic(endpoint(fam.ends_minus[i]),
                           endpoint(fam.ends_plus[i]))
        if vm[i] < 0:
            geo = oracles.reversed_geodesic(geo)
        w = float(fam.weights[i])
        if near_end[inside][k]:
            w = w / 2.0
        leaves.append(lm.WeightedGeodesic(geo, w))
    return leaves, bool(np.all(fam.levels[idx] < fam.depth))


def seeded_surface(kind, rng):
    """(lamination, holonomy) of a seeded FN torus with a weighted pant
    curve, or of a seeded shear torus with its triangulation."""
    if kind == "fn":
        pd = teich.PantDecomposition.once_punctured_torus()
        fn = teich.FNPoint((rng.uniform(0.6, 2.0),), (rng.uniform(0.8, 2.4),),
                           (rng.uniform(-0.5, 0.5),))
        h = teich.holonomy_from_fn(pd, fn)
        lam = lm.MultiCurveLam((rng.uniform(0.1, 0.9),))
    else:
        sp = teich.ShearPoint(TRI_1PT, tuple(rng.uniform(-0.6, -0.1, 3)))
        h = teich.holonomy_from_shear(sp)
        lam = lm.TriangulationLam.from_shear(sp, tuple(rng.uniform(0.05, 0.6, 3)))
    return lam, h


def seeded_family(kind, depth, seed):
    rng = np.random.default_rng(seed)
    lam, h = seeded_surface(kind, rng)
    return lm.LiftFamily(lam, h, depth=depth), rng


def point_at(dist, th):
    """The point at hyperbolic distance `dist` from i in direction th."""
    rot = np.array([[math.cos(th / 2), math.sin(th / 2)],
                    [-math.sin(th / 2), math.cos(th / 2)]])
    return iso.apply_h2(rot, 1j * math.exp(dist))


def point_on_leaf(leaf, s):
    """The point of the leaf at signed arc length s from its foot."""
    return iso.apply_h2(leaf.geodesic.map_from_standard(), 1j * math.exp(s))


FAMILIES = [(kind, depth) for kind in ("fn", "shear") for depth in (6, 8, 10)]


class TestDistanceIndex:
    @pytest.mark.parametrize("kind,depth", FAMILIES)
    def test_random_segments_match_full_scan(self, kind, depth):
        fam, rng = seeded_family(kind, depth, seed=depth)
        crossed = 0
        for _ in range(40):
            x = complex(rng.uniform(-3, 3), rng.uniform(0.1, 4.0))
            y = complex(rng.uniform(-3, 3), rng.uniform(0.1, 4.0))
            got = fam.crossings(x, y, on_leaf="include")
            assert got == crossings_scan(fam, x, y, on_leaf="include")
            crossed += bool(got[0])
        assert crossed >= 4

    @pytest.mark.parametrize("kind,depth", FAMILIES)
    def test_far_segments_match_full_scan(self, kind, depth):
        fam, rng = seeded_family(kind, depth, seed=100 + depth)
        crossed = 0
        for _ in range(30):
            # a segment of length 2-5 at distance 3-6 from i
            r, th = rng.uniform(3.0, 6.0), rng.uniform(0.0, 2.0 * math.pi)
            x = point_at(r, th)
            y = point_at(r, th + rng.uniform(2.0, 5.0) / math.sinh(r))
            got = fam.crossings(x, y, on_leaf="include")
            assert got == crossings_scan(fam, x, y, on_leaf="include")
            crossed += bool(got[0])
        assert crossed >= 4

    @pytest.mark.parametrize("kind,depth", FAMILIES)
    def test_endpoint_on_leaf(self, kind, depth):
        fam, rng = seeded_family(kind, depth, seed=200 + depth)
        tried = 0
        while tried < 8:
            x = complex(rng.uniform(-1.5, 1.5), rng.uniform(0.3, 2.5))
            y = complex(rng.uniform(-1.5, 1.5), rng.uniform(0.3, 2.5))
            leaves, _ = crossings_scan(fam, x, y, on_leaf="include")
            if not leaves:
                continue
            tried += 1
            on = point_on_leaf(leaves[rng.integers(len(leaves))],
                               rng.uniform(-1.0, 1.0))
            for seg in ((on, y), (x, on)):
                got = fam.crossings(*seg, on_leaf="include")
                assert got == crossings_scan(fam, *seg, on_leaf="include")
                assert got[0]
                with pytest.raises(lm.BasePointOnLeafError):
                    fam.crossings(*seg)
                with pytest.raises(lm.BasePointOnLeafError):
                    crossings_scan(fam, *seg)
            # on_leaf='end' refuses a leaf through the start only
            with pytest.raises(lm.BasePointOnLeafError):
                fam.crossings(on, y, on_leaf="end")
            assert fam.crossings(x, on, on_leaf="end") == \
                crossings_scan(fam, x, on, on_leaf="include")

    def test_index_prunes(self):
        fam, _ = seeded_family("fn", 8, seed=8)
        reach = max(oracles.dist_h2(1j, z) for z in (-1.5 + 0.3j, 1.5 + 2.5j))
        assert np.count_nonzero(fam.sinh_dist <= math.sinh(reach)) \
            < 0.01 * len(fam.sinh_dist)

    @pytest.mark.parametrize("kind", ["fn", "shear"])
    def test_key_matches_sampled_distance(self, kind):
        fam, rng = seeded_family(kind, 6, seed=3)
        at_inf = np.flatnonzero((fam.ends_minus[:, 1] == 0)
                                | (fam.ends_plus[:, 1] == 0))
        rows = np.concatenate([at_inf[:5], rng.choice(len(fam.sinh_dist), 40)])
        if kind == "shear":
            assert len(at_inf) > 0
        s = np.linspace(-14.0, 14.0, 280_001)
        for k in rows:
            geo = iso.Geodesic(endpoint(fam.ends_minus[k]),
                               endpoint(fam.ends_plus[k]))
            z = iso.apply_h2(geo.map_from_standard(), 1j * np.exp(s))
            d = np.arccosh(1.0 + np.abs(z - 1j) ** 2 / (2.0 * z.imag)).min()
            assert math.asinh(fam.sinh_dist[k]) == pytest.approx(d, abs=1e-6)

    def test_key_of_degenerate_leaf_is_infinite(self):
        a = np.array([[1.0, 0.0], [np.nan, 1.0]])
        b = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert np.all(np.isposinf(lm._sinh_dist_from_i(a, b)))


class TestDisjointness:
    def test_nested_leaves(self):
        leaves = [lm.WeightedGeodesic(iso.Geodesic(p, q), 1.0)
                  for p, q in ((iso.INF, -3.0), (5.0, -2.0), (4.0, -1.0))]
        assert lm.leaves_pairwise_disjoint(leaves)
        assert lm.leaves_pairwise_disjoint(leaves[:1])
        assert lm.leaves_pairwise_disjoint([])

    def test_crossing_leaves(self):
        leaves = [lm.WeightedGeodesic(iso.Geodesic(p, q), 1.0)
                  for p, q in ((iso.INF, -3.0), (5.0, -2.0), (0.0, 6.0))]
        assert not lm.leaves_pairwise_disjoint(leaves)

    def test_asymptotic_lifts_landing_apart(self):
        # the leaves `crossings` realizes at depth 8 on the segment from the
        # base point to -1.5988+0.3844i of the recorded shear sphere:
        # lifts spiraling into infinity land anywhere from 5e7 to 2e12
        ends = [(iso.INF, 0.0), (iso.INF, -1.0), (iso.INF, -1.205692653005097),
                (iso.INF, -1.2776307711307242), (iso.INF, -1.2924279135001784),
                (iso.INF, -1.2976030063396349), (iso.INF, -1.2986674849153308),
                (iso.INF, -1.2990397713553266),
                (1849161912104.6746, -1.2991163479408474),
                (1849161912104.6746, -1.2991431295267444),
                (133021921720.89972, -1.2991486383021993),
                (133021921720.89972, -1.299150564919089),
                (9569329606.667505, -1.2991509612100285),
                (9569329606.667505, -1.299151099807222),
                (49522161.005323954, -1.2991511403369098),
                (49522161.005323954, -1.2991511410541632),
                (688399473.875199, -1.2991511283156463),
                (688399473.875199, -1.2991511382860677)]
        leaves = [lm.WeightedGeodesic(iso.Geodesic(p, q), 0.5) for p, q in ends]
        assert lm.leaves_pairwise_disjoint(leaves)


# ---------------------------------------------------------------------------
# the batched query from one start point
# ---------------------------------------------------------------------------

X0 = eq.BASE_POINT
GRID = [complex(a, b) for b in np.linspace(0.3, 2.5, 13)
        for a in np.linspace(-1.5, 1.5, 13)]
BATCHED = [(kind, depth) for kind in ("fn", "shear") for depth in (8, 10)]


def scan_all(fam, x, ys, on_leaf="raise"):
    return [crossings_scan(fam, x, y, on_leaf=on_leaf) for y in ys]


def first_crossed_arc(results):
    """A crossed leaf with both ideal endpoints finite (not vertical)."""
    return next(leaf for leaves, _ in results for leaf in leaves
                if iso.INF not in (leaf.geodesic.p_minus, leaf.geodesic.p_plus))


class TestBatchedQuery:
    @pytest.mark.parametrize("kind,depth,n", [
        ("fn", 8, 13), ("fn", 10, 5), ("shear", 8, 13), ("shear", 10, 5)])
    def test_grid_matches_per_segment_scan(self, kind, depth, n):
        fam, _ = seeded_family(kind, depth, seed=300 + depth)
        xs = np.linspace(-1.5, 1.5, n)
        grid = [complex(a, b) for b in np.linspace(0.3, 2.5, n) for a in xs]
        # the grid, then y == x, then the vertical column Re y = Re x
        ys = grid + [X0] + [complex(X0.real, v) for v in np.linspace(0.2, 3, 8)]
        want, on = [], []
        for y in ys:
            try:
                want.append(crossings_scan(fam, X0, y))
            except lm.BasePointOnLeafError:
                want.append(crossings_scan(fam, X0, y, on_leaf="include"))
                on.append(y)
        assert fam.crossings_from(X0, ys, on_leaf="include") == want
        assert want[len(grid)] == ([], True)
        assert sum(bool(leaves) for leaves, _ in want) >= 5
        # the shear tori have lifts on the grid columns Re y = 0 and -1:
        # the query raises exactly when one of its segments does
        assert len(on) == (0 if kind == "fn" else
                           n * np.isin(xs, (0.0, -1.0)).sum())
        off = [(y, w) for y, w in zip(ys, want) if y not in on]
        assert fam.crossings_from(X0, [y for y, _ in off]) == [w for _, w in off]
        for y in on:
            with pytest.raises(lm.BasePointOnLeafError):
                fam.crossings_from(X0, [X0 + 0.1, y])

    @pytest.mark.parametrize("kind,depth", BATCHED)
    def test_vertical_column_through_a_leaf(self, kind, depth):
        fam, _ = seeded_family(kind, depth, seed=300 + depth)
        p = point_on_leaf(first_crossed_arc(
            fam.crossings_from(X0, GRID, on_leaf="include")), 0.0)
        # straight down from above the leaf, across it and short of it
        x = complex(p.real, 1.7 * p.imag)
        col = [complex(p.real, f * p.imag) for f in (0.2, 0.5, 0.9, 1.3, 4.0)]
        got = fam.crossings_from(x, col, on_leaf="include")
        assert got == scan_all(fam, x, col, "include")
        assert all(got[k][0] for k in range(3))

    @pytest.mark.parametrize("kind,depth", BATCHED)
    def test_grid_point_on_a_lift(self, kind, depth):
        fam, rng = seeded_family(kind, depth, seed=300 + depth)
        leaf = first_crossed_arc(
            fam.crossings_from(X0, GRID, on_leaf="include"))
        on = point_on_leaf(leaf, rng.uniform(-0.5, 0.5))
        ys = [X0 + 0.1, on, X0 + 0.2j]
        got = fam.crossings_from(X0, ys, on_leaf="include")
        assert got == scan_all(fam, X0, ys, "include")
        assert leaf.weight / 2 in [l.weight for l in got[1][0]]
        crossings_scan(fam, X0, ys[0]), crossings_scan(fam, X0, ys[2])
        with pytest.raises(lm.BasePointOnLeafError):
            crossings_scan(fam, X0, on)
        with pytest.raises(lm.BasePointOnLeafError):
            fam.crossings_from(X0, ys)

    def test_blocks_of_pairs(self, monkeypatch):
        # a block holding fewer (segment, leaf) pairs than one segment has
        # candidates tests one segment at a time, with the same result
        fam, _ = seeded_family("shear", 8, seed=308)
        want = fam.crossings_from(X0, GRID, on_leaf="include")
        monkeypatch.setattr(lm.LiftFamily, "PAIRS_PER_BLOCK", 1)
        assert fam.crossings_from(X0, GRID, on_leaf="include") == want


#: Re y - Re x of near-vertical segments, across the old 1e-13 cut-off
NEAR_VERTICAL = (0.0, 1e-15, 9e-14, 1.1e-13, -2e-13, 1e-12, -1e-9, 1e-6)


class TestSegmentFrames:
    # largest residuals measured over 200k segments (half near-vertical,
    # |Re| <= 5, e^-3 <= Im <= e^2): 2.4e-14, 7.6e-14 and 7.1e-15
    TOL = 1e-12

    @given(st.floats(-5.0, 5.0), st.floats(-3.0, 2.0),
           st.lists(st.tuples(st.floats(-5.0, 5.0), st.floats(-3.0, 2.0),
                              st.sampled_from((None,) + NEAR_VERTICAL)),
                    min_size=1, max_size=12))
    @settings(max_examples=200, deadline=None)
    def test_frame_maps_x_to_i_and_y_up_the_axis(self, a, lb, rows):
        x = complex(a, math.exp(lb))
        ys = np.array([complex(re if off is None else x.real + off,
                               math.exp(l)) for re, l, off in rows])
        ys = ys[np.abs(ys - x) >= 1e-14]
        f = lm.segment_frames(x, ys)
        assert f.shape == (len(ys), 2, 2)
        for frame, y in zip(f, ys):
            fi = iso.inv(frame)
            length = 2.0 * math.asinh(abs(y - x)
                                      / (2.0 * math.sqrt(x.imag * y.imag)))
            assert abs(iso.apply_h2(fi, x) - 1j) <= self.TOL
            assert abs(iso.apply_h2(fi, y) / math.exp(length) - 1j) <= self.TOL
            assert abs(iso.det(frame) - 1.0) <= self.TOL

    def test_one_row_is_the_scalar_frame(self):
        ys = [0.5 + 2.0j, 0.137 + 0.2j, -1.0 + 0.7j]
        f = lm.segment_frames(X0, ys)
        for frame, y in zip(f, ys):
            assert np.array_equal(lm.segment_frames(X0, [y])[0], frame)

    @pytest.mark.parametrize("y", [X0, 0.3 - 0.1j, 0.3 + 0.0j])
    def test_rejected_endpoints(self, y):
        with pytest.raises(DomainError):
            lm.segment_frames(X0, [1.0 + 1.0j, y])


# ---------------------------------------------------------------------------
# lift families for a reach: the pruned oracle against the full family

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scripts" / "scenarios"
SCENARIOS = ("torus_multicurve", "torus_flow", "sphere_shear",
             "torus_two_boundary")
GRID = [complex(x, y) for y in np.linspace(0.3, 2.5, 7)
        for x in np.linspace(-1.5, 1.5, 7)]
PD_TWO_BOUNDARY = teich.PantDecomposition(
    2, (((0, 0), (1, 0)), ((0, 1), (1, 1))), ((0, 2), (1, 2)))
PD_FOUR_HOLED = teich.PantDecomposition(
    2, (((0, 0), (1, 0)),), ((0, 1), (0, 2), (1, 1), (1, 2)))


def scenario_surface(name):
    data = scenario.load(str(SCENARIO_DIR / f"{name}.json"))
    point, pd = scenario.surface_point(data)
    return scenario.lamination(data, point), teich.holonomy_of(point, pd)


def letter_orbit(h):
    """m x0 for each alphabet letter m: the far ends of the segments
    that `earthquake.deform_letters` queries."""
    return [iso.apply_h2(m, eq.BASE_POINT) for m in h.alphabet.values()]


def bits(a):
    return np.ascontiguousarray(a).view(np.int64)


def assert_reach_family_is_full_family(lam, h, depth, ys):
    """The reach family of the oracle for the segments [x0, y], y in
    `ys`, against the full one: the same rows within its cut, bit for
    bit (-0.0 apart from 0.0) and in the same order, and the same
    answers to the queries.  Returns both families."""
    x0 = eq.BASE_POINT
    full = lm.LiftFamily(lam, h, depth)
    fam = oracles.reach_family(lam, h, depth, [x0, *ys])
    assert fam.cut < math.inf
    for name in ("ends_minus", "ends_plus", "weights", "levels", "sinh_dist"):
        assert np.array_equal(bits(getattr(full, name)[full.sinh_dist <= fam.cut]),
                              bits(getattr(fam, name)[fam.sinh_dist <= fam.cut]))
    got = fam.crossings_from(x0, ys, on_leaf="include")
    assert got == full.crossings_from(x0, ys, on_leaf="include")
    return full, fam


class TestReachFamily:
    @pytest.mark.parametrize("name,depth",
                             [(n, d) for n in SCENARIOS for d in (6, 8, 10)
                              if (n, d) != ("torus_two_boundary", 10)]
                             + [("torus_multicurve", 12)])
    def test_scenarios(self, name, depth):
        # the full torus_two_boundary family is over teich.MAX_WORDS at
        # depth 10 (the pruned one is not)
        lam, h = scenario_surface(name)
        for ys in (letter_orbit(h), GRID):
            full, fam = assert_reach_family_is_full_family(lam, h, depth, ys)
        multicurve = isinstance(lam, lm.MultiCurveLam)
        # the multicurve trees are pruned, the triangulation trees are not
        assert (len(fam.weights) < len(full.weights)) == multicurve
        if not multicurve:
            assert np.array_equal(bits(fam.ends_minus), bits(full.ends_minus))

    @pytest.mark.parametrize("kind", ["fn", "shear"])
    def test_seeded_tori(self, kind):
        rng = np.random.default_rng(18)
        for _ in range(20):
            lam, h = seeded_surface(kind, rng)
            assert_reach_family_is_full_family(lam, h, 8, letter_orbit(h))
            grid = [complex(rng.uniform(-2, 2), rng.uniform(0.2, 3.0))
                    for _ in range(30)]
            assert_reach_family_is_full_family(lam, h, 8, grid)

    def test_converged_flags_follow_the_full_family(self):
        # segments of length 1-5 from the base point: at depth 5 some
        # cross a leaf of the deepest level
        lam, h = scenario_surface("torus_multicurve")
        rng = np.random.default_rng(5)
        ys = [point_at(r, th) for r, th in zip(rng.uniform(1.0, 5.0, 300),
                                               rng.uniform(0.0, 6.3, 300))]
        for depth in (5, 6):
            full, fam = assert_reach_family_is_full_family(lam, h, depth, ys)
            flags = [ok for _, ok in fam.crossings_from(eq.BASE_POINT, ys,
                                                        on_leaf="include")]
            assert len(fam.weights) < len(full.weights)
            assert not all(flags) or depth == 6


class TestReachGuard:
    def test_query_beyond_the_reach_raises(self):
        lam, h = scenario_surface("torus_multicurve")
        x0, y = eq.BASE_POINT, 0.4 + 1.6j
        fam = oracles.reach_family(lam, h, 10, [x0, y])
        # the build and the query cut with the same helper
        assert fam.cut == \
            max(lm.reach_cut([x0, y])) * (1 + oracles.PRUNE_SLACK)
        fam.crossings_from(x0, [y, 0.3 + 1.2j])
        with pytest.raises(StructureError):
            fam.crossings_from(x0, [y, 3.0 + 0.2j])
        with pytest.raises(StructureError):
            fam.crossings(x0, 3.0 + 0.2j)

    def test_word_budget_refuses_the_full_tree_only(self, monkeypatch):
        # 432 = 108 x 4 products: the full rank-2 tree stops at level 6
        lam, h = scenario_surface("torus_multicurve")
        reach = [eq.BASE_POINT, *letter_orbit(h)]
        fam = oracles.reach_family(lam, h, 8, reach)
        monkeypatch.setattr(teich, "MAX_WORDS", 432)
        with pytest.raises(DomainError, match="level 6"):
            lm.LiftFamily(lam, h, 8)
        again = oracles.reach_family(lam, h, 8, reach)
        for name in ("ends_minus", "ends_plus", "weights", "levels",
                     "sinh_dist"):
            assert np.array_equal(bits(getattr(again, name)),
                                  bits(getattr(fam, name)))

    def test_full_family_answers_any_query(self):
        lam, h = scenario_surface("torus_multicurve")
        fam = lm.LiftFamily(lam, h, 6)
        fam.crossings_from(eq.BASE_POINT, [30.0 + 0.01j])

    @pytest.mark.parametrize("name,walk", [
        ("torus_multicurve", lm.HexagonWalk), ("sphere_shear", lm.TriangleWalk)])
    def test_default_realization_is_the_word_family(self, name, walk):
        # without walk, realize and make_context give the full
        # LiftFamily, whose leaf arrays the benchmark's check of bend
        # reads; with it, the surface's walk
        data = scenario.load(str(SCENARIO_DIR / f"{name}.json"))
        point, pd = scenario.surface_point(data)
        lam = scenario.lamination(data, point)
        ctx, h = bd.make_context(point, lam, depth=4, pd=pd)
        for fam in (ctx.family, lm.realize(lam, h, 4)):
            assert type(fam) is lm.LiftFamily
            assert fam.ends_minus.shape == (len(fam.weights), 2)
        assert type(lm.realize(lam, h, 4, walk=True)) is walk

    def test_walked_bend_context_answers_points_off_its_grid(self):
        # neither the hexagon walk of torus_multicurve nor the full word
        # family of its cusped copy is bound to the points of its first
        # query: after the grid, a point off it bends as in a fresh
        # context
        for name, kind in (("torus_multicurve", lm.HexagonWalk),
                           ("torus_cusp", lm.LiftFamily)):
            data = scenario.load(str(SCENARIO_DIR / f"{name}.json"))
            point, pd = scenario.surface_point(data)
            lam, far = scenario.lamination(data, point), [5.0 + 0.1j]
            ctx, _ = bd.make_context(point, lam, depth=8, pd=pd, walk=True)
            own, _ = bd.make_context(point, lam, depth=8, pd=pd, walk=True)
            bd.bend_points(ctx, GRID)
            assert type(ctx.family) is kind
            assert np.array_equal(bd.bend_points(ctx, far),
                                  bd.bend_points(own, far))


class TestLimitArcs:
    @pytest.mark.parametrize("name", SCENARIOS)
    def test_scenario_arcs(self, name):
        _, h = scenario_surface(name)
        self.check(h)

    @pytest.mark.parametrize("kind", ["fn", "shear"])
    def test_seeded_arcs(self, kind):
        rng = np.random.default_rng(7)
        for _ in range(10):
            self.check(seeded_surface(kind, rng)[1])

    @staticmethod
    def check(h):
        arcs = oracles.limit_arcs_reference(h)
        assert arcs is not None
        assert oracles.arcs_invariant(arcs, h.letter_matrices())
        for ends, points in zip(arcs, oracles.cylinder_samples(h, 8)):
            assert oracles.arc_contains(oracles.circle_arc(ends), points).all()

    def test_cusped_torus_is_refused_and_built_in_full(self):
        # the oracle's reach family on a cusped torus: the certificate
        # refuses, so it draws the full tree
        pd = teich.PantDecomposition.once_punctured_torus()
        h = teich.holonomy_from_fn(pd, teich.FNPoint((0.0,), (1.5,), (0.2,)))
        assert oracles.limit_arcs_reference(h) is None
        lam = lm.MultiCurveLam((0.5,))
        full, fam = assert_reach_family_is_full_family(lam, h, 8,
                                                       letter_orbit(h))
        assert np.array_equal(bits(fam.ends_plus), bits(full.ends_plus))

    @pytest.mark.parametrize("pd", [
        teich.PantDecomposition.once_punctured_torus(), PD_TWO_BOUNDARY,
        PD_FOUR_HOLED], ids=["torus", "two_boundary", "four_holed"])
    def test_cusped_surfaces_are_refused_and_built_in_full(self, pd):
        # every pattern of cusped boundaries, two seeded surfaces each
        # (lengths U(0.05, 5), twists U(-3, 3)): the limit set is the
        # whole circle, so no arcs prune the tree, and realize gives the
        # full family for a reach, bit for bit
        rng = np.random.default_rng(33)
        r, s = pd.num_boundary, pd.num_interior
        for cusps in itertools.product((False, True), repeat=r):
            if not any(cusps):
                continue
            for _ in range(2):
                bounds = rng.uniform(0.05, 5.0, r)
                fn = teich.FNPoint(tuple(np.where(cusps, 0.0, bounds)),
                                   tuple(rng.uniform(0.05, 5.0, s)),
                                   tuple(rng.uniform(-3.0, 3.0, s)))
                lam = lm.MultiCurveLam(tuple(rng.uniform(0.1, 0.9, s)))
                h = teich.holonomy_from_fn(pd, fn)
                assert oracles.limit_arcs_reference(h) is None
                fam = lm.realize(lam, h, 8, walk=True)
                full = lm.LiftFamily(lam, h, 8)
                assert type(fam) is lm.LiftFamily
                for name in oracles.LIFT_ROWS:
                    assert np.array_equal(bits(getattr(fam, name)),
                                          bits(getattr(full, name)))

    @pytest.mark.parametrize("name", ["torus_flow", "sphere_shear"])
    def test_triangulation_leaves_fail_the_leaf_check(self, name):
        # each leaf has an end e and a letter u with u e outside A_u, so
        # the certificate would not cover it (the family skips it)
        lam, h = scenario_surface(name)
        arcs, gens = oracles.limit_arcs_reference(h), h.letter_matrices()
        for geo, _, _ in lm._base_leaves(lam, h):
            assert not all(
                oracles.circle_arc(arcs[u]).contains(iso.apply_boundary(m, e))
                for u, m in enumerate(gens) for e in (geo.p_minus, geo.p_plus))


# ---------------------------------------------------------------------------
# the triangle walk against the word family
# ---------------------------------------------------------------------------

def seeded_shear(kind, rng):
    """(lamination, holonomy) of a shear torus with perfbench's ranges,
    or of a shear three-punctured sphere."""
    tri, lo, hi = ((TRI_1PT, -0.6, -0.1) if kind == "torus"
                   else (TRI_3PS, 0.3, 2.0))
    sp = teich.ShearPoint(tri, tuple(rng.uniform(lo, hi, 3)))
    lam = lm.TriangulationLam.from_shear(sp, tuple(rng.uniform(0.05, 0.6, 3)))
    return lam, teich.holonomy_from_shear(sp)


def walked(walk, ys):
    """The points y of `ys` whose segment [x0, y] the walk answers
    itself, without its word family (a base point beyond the convex
    core raises DomainError)."""
    return [y for y in ys
            if walk._propose(eq.BASE_POINT, np.array([y])) is not None]


def angle_gap(p, q):
    """Distance of two ideal points as angles 2 arctan on the circle."""
    a, b = (math.pi if v == iso.INF else 2.0 * math.atan(v) for v in (p, q))
    return abs(math.remainder(a - b, 2.0 * math.pi))


def assert_walk_is_family(lam, h, *point_sets):
    """On the segments [x0, y], y in each of `point_sets`, that the walk
    answers, every one that the depth-10 family marks converged has the
    same leaves: weights in the same order, endpoints within 1e-12 rad.
    Returns the numbers of walked and of converged walked segments, per
    point set."""
    x0 = eq.BASE_POINT
    fam = lm.LiftFamily(lam, h, 10)
    counts = []
    for points in point_sets:
        walk = lm.TriangleWalk(lam, h, 10)
        inside = walked(walk, points)
        got = walk.crossings_from(x0, inside, on_leaf="include")
        assert walk.fallback is None  # walked, as one stacked query
        converged = 0
        for (leaves, ok), (want, want_ok) in zip(
                got, fam.crossings_from(x0, inside, on_leaf="include")):
            assert ok
            if not want_ok:
                continue
            converged += 1
            assert [l.weight for l in leaves] == [l.weight for l in want]
            for a, b in zip(leaves, want):
                assert angle_gap(a.geodesic.p_minus,
                                 b.geodesic.p_minus) <= 1e-12
                assert angle_gap(a.geodesic.p_plus,
                                 b.geodesic.p_plus) <= 1e-12
        counts.append((len(inside), converged))
    return counts


class TestTriangleWalk:
    @pytest.mark.parametrize("kind", ["torus", "sphere"])
    def test_seeded_surfaces_match_the_family(self, kind):
        rng = np.random.default_rng(21)
        orbits = grids = 0
        for _ in range(20):
            lam, h = seeded_shear(kind, rng)
            (n, ok), (_, on_grid) = assert_walk_is_family(
                lam, h, letter_orbit(h), GRID)
            # x0 in the core puts its orbit there, and x0 beyond it is
            # refused: all of the orbit walks
            assert n == len(h.alphabet)
            orbits += ok > 0
            grids += on_grid
        # the walk answered and agreed on most surfaces
        assert orbits >= (20 if kind == "torus" else 10)
        assert grids >= (20 if kind == "torus" else 10) * 20

    @pytest.mark.parametrize("name", ["torus_flow", "sphere_shear"])
    def test_scenarios_match_the_family(self, name):
        lam, h = scenario_surface(name)
        for n, ok in assert_walk_is_family(lam, h, letter_orbit(h), GRID):
            assert ok == n > 0

    @pytest.mark.parametrize("name", ["torus_flow", "sphere_shear"])
    def test_end_on_an_edge(self, name):
        # y on the last leaf the segment to -1.5 + 0.3i crosses, at the
        # foot of the perpendicular from x0 (in the core, as x0 and the
        # leaf are): half its weight with on_leaf='include', an error
        # with 'raise', as the family gives
        lam, h = scenario_surface(name)
        x0 = eq.BASE_POINT
        probe = lm.TriangleWalk(lam, h, 10)
        leaves, _ = probe.crossings(x0, -1.5 + 0.3j)
        assert probe.fallback is None and len(leaves) >= 3
        leaf = leaves[-1]
        frame = leaf.geodesic.map_from_standard()
        y = iso.apply_h2(frame, 1j * abs(iso.apply_h2(iso.inv(frame), x0)))
        walk = lm.TriangleWalk(lam, h, 10)
        fam = lm.LiftFamily(lam, h, 10)
        got, ok = walk.crossings(x0, y, on_leaf="include")
        want, _ = fam.crossings(x0, y, on_leaf="include")
        assert walk.fallback is None and ok
        assert [l.weight for l in got] == [l.weight for l in want]
        assert got[-1].weight == leaf.weight / 2.0
        for lifts in (walk, fam):
            with pytest.raises(lm.BasePointOnLeafError):
                lifts.crossings(x0, y)
            with pytest.raises(StructureError,
                               match="'raise', 'include' or 'end'"):
                lifts.crossings(x0, y, on_leaf="rasie")

    def test_fallback_answers_as_the_family(self):
        # ROADMAP defect 1's Random(23) sphere: points of its 12 x 13
        # grid lie beyond the core, so the query takes the candidates of
        # the word family, and its answer is the family's, bit for bit
        sp = teich.ShearPoint(TRI_3PS, (1.872270927764107, 1.912629822588401,
                                        1.817136684882585))
        lam = lm.TriangulationLam.from_shear(sp, (
            0.09595287225687599, 0.37561497478715433, 0.28306107452922874))
        h, x0 = teich.holonomy_from_shear(sp), eq.BASE_POINT
        zs = [complex(x, y) for y in np.linspace(0.298, 2.156, 13)
              for x in np.linspace(-1.048, 1.108, 12)]
        walk = lm.TriangleWalk(lam, h, 8)
        got = walk.crossings_from(x0, zs, on_leaf="include")
        assert walk.fallback is not None
        want = lm.LiftFamily(lam, h, 8).crossings_from(x0, zs,
                                                       on_leaf="include")
        assert got == want

        def ends(crossed):
            return np.array([(l.geodesic.p_minus, l.geodesic.p_plus)
                             for leaves, _ in crossed for l in leaves])
        assert np.array_equal(bits(ends(got)), bits(ends(want)))

    def test_base_point_beyond_the_core_is_refused(self, monkeypatch):
        # the first 118 spheres of random.Random(3), shears U(0.3, 2.5)
        # and weights U(0.05, 1.5) rounded to 0.01: a query from x0 is
        # refused exactly when the walk of x0 itself, without the step
        # cap, stops at a wall
        rnd, refused = random.Random(3), 0
        for _ in range(118):
            s = tuple(round(rnd.uniform(0.3, 2.5), 2) for _ in range(3))
            w = tuple(round(rnd.uniform(0.05, 1.5), 2) for _ in range(3))
            sp = teich.ShearPoint(TRI_3PS, s)
            lam = lm.TriangulationLam.from_shear(sp, w)
            h = teich.holonomy_from_shear(sp)
            ys = letter_orbit(h)
            walk = lm.TriangleWalk(lam, h, 8)
            with monkeypatch.context() as m:
                m.setattr(lm, "WALK_STEPS", 10_000)
                ch = walk.charts
                beyond = walk._walk(np.zeros(1, int), ch.placement[:1],
                                    iso.apply_h2(iso.inv(ch.placement[:1]),
                                                 eq.BASE_POINT), []) is None
            if beyond:
                refused += 1
                with pytest.raises(DomainError, match="beyond the convex"):
                    walk.crossings_from(eq.BASE_POINT, ys)
                assert walk.fallback is None
            else:
                walk.crossings_from(eq.BASE_POINT, ys)
        assert refused == 6

    def test_walls_send_points_beyond_the_core_to_the_family(self,
                                                             monkeypatch):
        # the golden bend grid of sphere_shear: 1 + 0.5i and 1 + i lie
        # beyond the core.  Without the step cap, the walk still stops at
        # their walls within a few steps; the other points walk
        lam, h = scenario_surface("sphere_shear")
        monkeypatch.setattr(lm, "WALK_STEPS", 10_000)
        walk = lm.TriangleWalk(lam, h, 10)
        ch = walk.charts
        (t0,), g0, _ = walk._walk(np.zeros(1, int), ch.placement[:1],
                                  np.array([eq.BASE_POINT]), [])
        for y in (complex(x, v) for v in (0.5, 1.0, 1.5) for x in (-1, 0, 1)):
            crossed = []
            end = walk._walk(np.array([t0]), g0, iso.apply_h2(
                iso.inv(g0), np.array([y])), crossed)
            assert (end is None) == (y in (1 + 0.5j, 1 + 1j))
            assert len(crossed) < 10


# ---------------------------------------------------------------------------
# the hexagon walk against the word family
# ---------------------------------------------------------------------------

#: a 7 x 7 grid that reaches into the funnels beyond the walls of most of
#: the surfaces below, near the real axis
WALL_GRID = [complex(x, y) for y in np.linspace(0.05, 2.5, 7)
             for x in np.linspace(-3.0, 3.0, 7)]


def seeded_rank_three(i, rng):
    """(lamination, holonomy) of a two-boundary torus (even i) or of a
    four-holed sphere (odd i): lengths U(0.5, 2.5), twists U(-1, 1) and
    weights U(0.1, 0.9)."""
    r, s = (2, 2) if i % 2 == 0 else (4, 1)
    fn = teich.FNPoint(tuple(rng.uniform(0.5, 2.5, r)),
                       tuple(rng.uniform(0.5, 2.5, s)),
                       tuple(rng.uniform(-1.0, 1.0, s)))
    pd = PD_TWO_BOUNDARY if i % 2 == 0 else PD_FOUR_HOLED
    return (lm.MultiCurveLam(tuple(rng.uniform(0.1, 0.9, s))),
            teich.holonomy_from_fn(pd, fn))


def beyond_a_wall(walk, z):
    """Whether the point z lies beyond a wall (in a funnel): its walk from
    the base hexagon stops at a wall that z lies beyond."""
    t, g, _ = walk._walk(np.zeros(1, int), walk.charts.placement[0][None],
                         np.array([z]), np.zeros((1, 7), bool), [])
    (a, b), (c, d) = g[0]
    w = (d * z - b) / (a - c * z)
    q = walk.planes[t[0]]
    beyond = q[0] * abs(w) ** 2 + q[1] * w.real + q[2] > 0
    return bool((beyond & walk.stop[t[0]])[:3].any())


def relative_gap(p, q):
    """|p - q| / max(1, |q|) of two ideal points (0 for two infinities)."""
    if iso.INF in (p, q):
        return 0.0 if p == q else math.inf
    return abs(p - q) / max(1.0, abs(q))


#: how far (relative) the walk's leaf endpoints may lie from the family's.
#: Against a 50-digit evaluation of the same surfaces the walk's lie
#: within 2e-15, while the family's, word products applied to the axis
#: of a placed letter, lie up to 1.6e-12 off (the fifth rank-3 surface)
ENDPOINT_TOL = 1e-11


def assert_hexagon_walk_is_family(lam, h, *point_sets):
    """On the segments [x0, y], y in each of `point_sets`, the walk's
    crossings are those of the oracle's depth-10 reach family, which
    converges on every one: the same weights in the same order, halved
    at an end, and endpoints within ENDPOINT_TOL relative.  Returns the
    number of segments."""
    x0, count = eq.BASE_POINT, 0
    walk = lm.realize(lam, h, 10, walk=True)
    assert isinstance(walk, lm.HexagonWalk)
    for ys in point_sets:
        fam = oracles.reach_family(lam, h, 10, [x0, *ys])
        for (got, ok), (want, want_ok) in zip(
                walk.crossings_from(x0, ys, on_leaf="include"),
                fam.crossings_from(x0, ys, on_leaf="include")):
            assert ok and want_ok
            assert [l.weight for l in got] == [l.weight for l in want]
            for a, b in zip(got, want):
                assert relative_gap(a.geodesic.p_minus,
                                    b.geodesic.p_minus) <= ENDPOINT_TOL
                assert relative_gap(a.geodesic.p_plus,
                                    b.geodesic.p_plus) <= ENDPOINT_TOL
            count += 1
    return count


#: the cases of the stacked 2x2 kernels (see oracles.kernel_cases)
KERNEL_CASES = oracles.kernel_cases(np.random.default_rng(38))


class TestWalkKernels:
    """The walks' 2x2 kernels, bit for bit the per-matrix formulas they
    replaced."""

    @pytest.mark.parametrize("name", sorted(KERNEL_CASES))
    def test_pull_back_is_the_adjugate_map(self, name):
        g = KERNEL_CASES[name]
        z = oracles.kernel_points(np.random.default_rng(39), g)
        # a zero row of the adjugate divides by zero, to the same bits
        with np.errstate(divide="ignore", invalid="ignore"):
            got, want = lm._pull_back(g, z), oracles.pull_back_formula(g, z)
        assert got.dtype == want.dtype
        assert np.array_equal(bits(got), bits(want))

    @pytest.mark.parametrize("name", sorted(KERNEL_CASES))
    def test_side_ends_from_the_corner_table(self, name):
        g = np.reshape(KERNEL_CASES[name], (-1, 2, 2))
        k = np.random.default_rng(40).integers(0, 3, len(g))
        ends = lm._mul(g, lm._SIDE_ENDS[k])
        for col, want in enumerate(oracles.side_ends_formula(g, k)):
            assert np.array_equal(bits(ends[:, :, col].T), bits(want))


class TestHexagonWalk:
    @pytest.mark.parametrize("kind", ["torus", "rank3"])
    def test_seeded_surfaces_match_the_family(self, kind):
        # 20 one-holed tori over perfbench's ranges, or 10 rank-3
        # surfaces; the quake reach (the letter orbit of x0) and the
        # wall grid.  x0 lies in the convex core of all of them (one
        # beyond a wall is tested below); the grid leaves it on most
        rng = np.random.default_rng(32)
        segments = funnels = 0
        for i in range(20 if kind == "torus" else 10):
            lam, h = (seeded_surface("fn", rng) if kind == "torus"
                      else seeded_rank_three(i, rng))
            walk = lm.HexagonWalk(lam, h)
            assert not beyond_a_wall(walk, eq.BASE_POINT)
            funnels += sum(beyond_a_wall(walk, z) for z in WALL_GRID)
            segments += assert_hexagon_walk_is_family(
                lam, h, letter_orbit(h), WALL_GRID)
        # every letter orbit and grid point was compared
        assert segments == (20 * (3 + 49) if kind == "torus"
                            else 10 * (5 + 49))
        assert funnels == {"torus": 16, "rank3": 87}[kind]

    @pytest.mark.parametrize("name", ["torus_multicurve",
                                      "torus_two_boundary"])
    def test_scenarios_match_the_family(self, name):
        lam, h = scenario_surface(name)
        assert assert_hexagon_walk_is_family(
            lam, h, letter_orbit(h), WALL_GRID, GRID) == \
            len(h.alphabet) + 2 * 49

    def test_base_point_beyond_a_wall(self, capsys):
        # a long boundary puts x0 in its funnel: the walks start at the
        # wall, and the answers are the family's and exact
        pd = teich.PantDecomposition.once_punctured_torus()
        h = teich.holonomy_from_fn(pd, teich.FNPoint((6.0,), (1.0,), (0.3,)))
        lam = lm.MultiCurveLam((0.5,))
        assert beyond_a_wall(lm.HexagonWalk(lam, h), eq.BASE_POINT)
        assert_hexagon_walk_is_family(lam, h, letter_orbit(h), WALL_GRID)
        hq = eq.quake_holonomy(teich.FNPoint((6.0,), (1.0,), (0.3,)), lam,
                               eq.LEFT, pd=pd)
        hf = teich.holonomy_from_fn(pd, teich.FNPoint((6.0,), (1.0,), (0.8,)))
        for name in hf.curve_names():
            assert abs(iso.tr(hq.curve(name))) == pytest.approx(
                abs(iso.tr(hf.curve(name))), rel=1e-12)

    @pytest.mark.parametrize("name", ["torus_multicurve",
                                      "torus_two_boundary"])
    def test_end_on_a_leaf(self, name):
        # y on the last leaf that the segment to -1.5 + 0.3i crosses, at
        # the foot of the perpendicular from x0: half its weight with
        # on_leaf='include', an error with 'raise', as the family gives;
        # x0 on it raises either way
        lam, h = scenario_surface(name)
        x0 = eq.BASE_POINT
        walk = lm.HexagonWalk(lam, h)
        leaves, _ = walk.crossings(x0, -1.5 + 0.3j)
        leaf = leaves[-1]
        frame = leaf.geodesic.map_from_standard()
        y = iso.apply_h2(frame, 1j * abs(iso.apply_h2(iso.inv(frame), x0)))
        fam = oracles.reach_family(lam, h, 10, [x0, y])
        got, ok = walk.crossings(x0, y, on_leaf="include")
        want, _ = fam.crossings(x0, y, on_leaf="include")
        assert ok and [l.weight for l in got] == [l.weight for l in want]
        assert got[-1].weight == leaf.weight / 2.0
        for lifts in (walk, fam):
            with pytest.raises(lm.BasePointOnLeafError):
                lifts.crossings(x0, y)
            with pytest.raises(lm.BasePointOnLeafError):
                lifts.crossings(y, x0)

    def test_step_cap_raises(self, monkeypatch):
        # a fault of the walk, not a domain error; the cap of the walk
        # is far above the longest walk of these tests
        lam, h = scenario_surface("torus_two_boundary")
        walk = lm.HexagonWalk(lam, h)
        monkeypatch.setattr(lm, "HEX_STEPS", 2)
        with pytest.raises(RuntimeError, match="2 steps"):
            walk.crossings_from(eq.BASE_POINT, letter_orbit(h))

    def test_longest_walk_is_far_below_the_cap(self, monkeypatch):
        # every walk of the rank-3 surfaces, letter orbits and wall grid
        # ends within 40 steps, far below the cap
        assert lm.HEX_STEPS > 40
        monkeypatch.setattr(lm, "HEX_STEPS", 40)
        rng = np.random.default_rng(32)
        for i in range(10):
            lam, h = seeded_rank_three(i, rng)
            lm.HexagonWalk(lam, h).crossings_from(
                eq.BASE_POINT, letter_orbit(h) + WALL_GRID, on_leaf="include")

    @pytest.mark.parametrize("lengths", ["short", "tiny"])
    def test_short_cuffs_jump(self, monkeypatch, lengths):
        # hexagons along a cuff of length l are l / 2 long: the walks jump
        # along short cuffs, so each ends within 40 steps (without the
        # jumps, tens of thousands on the tiny ones), and match the family
        # where it converges.  One-holed tori: interior length U(0.05,
        # 0.25), or both lengths 10^U(-4, -2) with twists U(-10, 10)
        monkeypatch.setattr(lm, "HEX_STEPS", 40)
        rng = np.random.default_rng(33 if lengths == "short" else 34)
        pd = teich.PantDecomposition.once_punctured_torus()
        compared = 0
        for _ in range(10):
            if lengths == "short":
                fn = teich.FNPoint((rng.uniform(0.6, 2.0),),
                                   (rng.uniform(0.05, 0.25),),
                                   (rng.uniform(-0.5, 0.5),))
            else:
                fn = teich.FNPoint((10 ** rng.uniform(-4, -2),),
                                   (10 ** rng.uniform(-4, -2),),
                                   (rng.uniform(-10, 10),))
            lam = lm.MultiCurveLam((rng.uniform(0.1, 0.9),))
            h = teich.holonomy_from_fn(pd, fn)
            walk = lm.HexagonWalk(lam, h)
            assert walk.jump is not None
            for ys in (letter_orbit(h), WALL_GRID):
                fam = oracles.reach_family(lam, h, 10, [eq.BASE_POINT, *ys])
                for (got, ok), (want, want_ok) in zip(
                        walk.crossings_from(eq.BASE_POINT, ys,
                                            on_leaf="include"),
                        fam.crossings_from(eq.BASE_POINT, ys,
                                           on_leaf="include")):
                    assert ok
                    if want_ok:
                        compared += 1
                        assert [l.weight for l in got] == \
                            [l.weight for l in want]
                        for a, b in zip(got, want):
                            assert relative_gap(a.geodesic.p_minus,
                                                b.geodesic.p_minus) <= 1e-12
                            assert relative_gap(a.geodesic.p_plus,
                                                b.geodesic.p_plus) <= 1e-12
        assert compared >= 10 * (3 + 49) - 2
