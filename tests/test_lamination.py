import math
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
# lift families built for a reach

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scripts" / "scenarios"
SCENARIOS = ("torus_multicurve", "torus_flow", "sphere_shear",
             "torus_two_boundary")
GRID = [complex(x, y) for y in np.linspace(0.3, 2.5, 7)
        for x in np.linspace(-1.5, 1.5, 7)]


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
    """The family built for the segments [x0, y], y in `ys`, against the
    full one: the same rows within its cut, bit for bit (-0.0 apart from
    0.0) and in the same order, and the same answers to the queries.
    Returns both families."""
    x0 = eq.BASE_POINT
    full = lm.LiftFamily(lam, h, depth)
    fam = lm.LiftFamily(lam, h, depth, reach=[x0, *ys])
    assert math.isinf(full.cut) and fam.cut < math.inf
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
        fam = lm.LiftFamily(lam, h, 10, reach=[x0, y])
        # the build and the query cut with the same helper
        assert fam.cut == max(lm.reach_cut([x0, y])) * (1 + lm.PRUNE_SLACK)
        fam.crossings_from(x0, [y, 0.3 + 1.2j])
        with pytest.raises(StructureError):
            fam.crossings_from(x0, [y, 3.0 + 0.2j])
        with pytest.raises(StructureError):
            fam.crossings(x0, 3.0 + 0.2j)

    def test_word_budget_refuses_the_full_tree_only(self, monkeypatch):
        # 432 = 108 x 4 products: the full rank-2 tree stops at level 6
        lam, h = scenario_surface("torus_multicurve")
        reach = [eq.BASE_POINT, *letter_orbit(h)]
        fam = lm.LiftFamily(lam, h, 8, reach=reach)
        monkeypatch.setattr(teich, "MAX_WORDS", 432)
        with pytest.raises(DomainError, match="level 6"):
            lm.LiftFamily(lam, h, 8)
        again = lm.LiftFamily(lam, h, 8, reach=reach)
        for name in ("ends_minus", "ends_plus", "weights", "levels",
                     "sinh_dist"):
            assert np.array_equal(bits(getattr(again, name)),
                                  bits(getattr(fam, name)))

    def test_full_family_answers_any_query(self):
        lam, h = scenario_surface("torus_multicurve")
        fam = lm.LiftFamily(lam, h, 6)
        assert fam.cut == math.inf
        fam.crossings_from(eq.BASE_POINT, [30.0 + 0.01j])

    def test_bend_context_refuses_points_off_its_grid(self):
        data = scenario.load(str(SCENARIO_DIR / "torus_multicurve.json"))
        point, pd = scenario.surface_point(data)
        ctx, _ = bd.make_context(point, scenario.lamination(data, point),
                                 depth=8, pd=pd, reach=GRID)
        bd.bend_points(ctx, GRID)
        with pytest.raises(StructureError):
            bd.bend_points(ctx, [5.0 + 0.1j])


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
        arcs = lm.limit_arcs(h)
        assert arcs is not None
        assert oracles.arcs_invariant(arcs, h.letter_matrices())
        for ends, points in zip(arcs, oracles.cylinder_samples(h, 8)):
            assert oracles.arc_contains(oracles.circle_arc(ends), points).all()

    def test_cusped_torus_is_refused_and_built_in_full(self):
        pd = teich.PantDecomposition.once_punctured_torus()
        h = teich.holonomy_from_fn(pd, teich.FNPoint((0.0,), (1.5,), (0.2,)))
        assert lm.limit_arcs(h) is None
        lam = lm.MultiCurveLam((0.5,))
        full, fam = assert_reach_family_is_full_family(lam, h, 8,
                                                       letter_orbit(h))
        assert np.array_equal(bits(fam.ends_plus), bits(full.ends_plus))

    @pytest.mark.parametrize("name", ["torus_flow", "sphere_shear"])
    def test_triangulation_leaves_fail_the_leaf_check(self, name):
        # each leaf has an end e and a letter u with u e outside A_u, so
        # the certificate would not cover it (the family skips it)
        lam, h = scenario_surface(name)
        arcs, gens = lm.limit_arcs(h), h.letter_matrices()
        for geo, _, _ in lm._base_leaves(lam, h):
            assert not all(
                oracles.circle_arc(arcs[u]).contains(iso.apply_boundary(m, e))
                for u, m in enumerate(gens) for e in (geo.p_minus, geo.p_plus))
