import math
from pathlib import Path

import numpy as np
import pytest

from quakebend import isometry as iso
from quakebend import scenario
from quakebend import teich
from quakebend import lamination as lm
from quakebend import earthquake as eq
from quakebend import bending as bd
from quakebend.errors import DomainError

import oracles

PD = teich.PantDecomposition.once_punctured_torus()
FN = teich.FNPoint((1.0,), (2.0,), (0.3,))
RNG = np.random.default_rng(42)


def crossed(ctx, x, y):
    """The leaves the bending cocycles B(x, y) of `ctx` take."""
    return ctx.family.crossings(x, y, on_leaf="include")[0]


def random_h2(rng, spread=2.0):
    return complex(rng.normal(scale=spread), math.exp(rng.normal(scale=0.8)))


@pytest.fixture(scope="module")
def ctx_hyp():
    ctx, h = bd.make_context(FN, lm.MultiCurveLam((0.6,)), depth=8, pd=PD)
    return ctx, h


class TestMink4:
    def test_unit_timelike(self):
        v = bd.mink4_from_h2(0.4 + 1.7j)
        assert oracles.mink4_inner(v, v) == pytest.approx(-1.0, abs=1e-12)

    def test_distance_matches_h2(self):
        z, w = 0.3 + 1.2j, -0.8 + 0.5j
        assert oracles.dist_h3(bd.mink4_from_h2(z), bd.mink4_from_h2(w)) == \
            pytest.approx(oracles.dist_h2(z, w), abs=1e-12)

    def test_action_extends_moebius(self):
        g = iso.normalize(np.array([[2.0, 1.0], [1.0, 1.0]])).astype(complex)
        z = 0.7 + 0.9j
        v = bd.apply_psl2c(g, bd.mink4_from_h2(z))
        assert np.allclose(v, bd.mink4_from_h2(iso.apply_h2(g.real, z)), atol=1e-12)

    def test_rotation_moves_off_slice(self):
        geo = iso.Geodesic(0.0, iso.INF)
        rot = iso.expm2(0.5j * geo.displacement_generator())
        v = bd.apply_psl2c(rot, bd.mink4_from_h2(2.0 + 1.0j))
        assert abs(v[3]) > 1e-3
        assert oracles.mink4_inner(v, v) == pytest.approx(-1.0, abs=1e-10)


class TestHypCocycle:
    def test_identity_at_coincident_points(self, ctx_hyp):
        ctx, _ = ctx_hyp
        x = 0.9 + 1.3j
        b = bd.bend_cocycle_hyp_from_lifts(crossed(ctx, x, x))
        assert iso.proj_equal(b, np.eye(2, dtype=complex), tol=1e-12)

    def test_single_leaf_half_weight_on_leaf(self):
        # a leaf through the start or the end of the segment comes back
        # from crossings at half its weight
        h = teich.holonomy_from_fn(PD, FN)
        fam = lm.LiftFamily(lm.MultiCurveLam((0.8,)), h, depth=6)
        frame = iso.axis(h.curve("z0")).map_from_standard()
        on = iso.apply_h2(frame, 1j)
        off = iso.apply_h2(frame, complex(math.cos(1.1), math.sin(1.1)))
        for seg in ((on, off), (off, on)):
            leaves, _ = fam.crossings(*seg, on_leaf="include")
            assert [l.weight for l in leaves] == [0.4]
            b = bd.bend_cocycle_hyp_from_lifts(leaves)
            expected = iso.expm2(
                0.4j * leaves[0].geodesic.displacement_generator())
            assert iso.proj_equal(b, expected, tol=1e-12)

    def test_composition(self, ctx_hyp):
        ctx, h = ctx_hyp
        rng = np.random.default_rng(3)
        for _ in range(200):
            x, y, z = (random_h2(rng) for _ in range(3))
            bxy = bd.bend_cocycle_hyp_from_lifts(crossed(ctx, x, y))
            byz = bd.bend_cocycle_hyp_from_lifts(crossed(ctx, y, z))
            bxz = bd.bend_cocycle_hyp_from_lifts(crossed(ctx, x, z))
            assert iso.proj_equal(bxy @ byz, bxz, tol=1e-9)

    def test_stratum_constancy(self, ctx_hyp):
        ctx, _ = ctx_hyp
        x = eq.BASE_POINT
        # nearby points in the same stratum (no leaf between them)
        y1, y2 = x + 0.001, x + 0.001j
        if not ctx.family.crossings(y1, y2)[0]:
            b1 = bd.bend_cocycle_hyp_from_lifts(crossed(ctx, x, y1))
            b2 = bd.bend_cocycle_hyp_from_lifts(crossed(ctx, x, y2))
            assert iso.proj_equal(b1, b2, tol=1e-10)

    def test_equivariance(self, ctx_hyp):
        ctx, h = ctx_hyp
        rng = np.random.default_rng(5)
        g = h.gens["b0"]
        for _ in range(50):
            x, y = random_h2(rng), random_h2(rng)
            gx, gy = iso.apply_h2(g, x), iso.apply_h2(g, y)
            lhs = bd.bend_cocycle_hyp_from_lifts(crossed(ctx, gx, gy))
            rhs = g @ bd.bend_cocycle_hyp_from_lifts(crossed(ctx, x, y)) \
                @ iso.inv(g)
            assert iso.proj_equal(lhs, rhs, tol=1e-8)


class TestHypBendMap:
    def test_empty_lamination_is_inclusion(self):
        ctx, _ = bd.make_context(FN, lm.MultiCurveLam((0.0,)), depth=4, pd=PD)
        for z in (0.3 + 0.8j, -1.0 + 2.0j):
            assert np.allclose(bd.bend_map_hyp(ctx, z), bd.mink4_from_h2(z),
                               atol=1e-12)

    def test_one_stratum_isometric(self, ctx_hyp):
        ctx, _ = ctx_hyp
        x = eq.BASE_POINT
        y = x + 0.002 + 0.001j
        if not ctx.family.crossings(x, y)[0]:
            d3 = oracles.dist_h3(bd.bend_map_hyp(ctx, x),
                                 bd.bend_map_hyp(ctx, y))
            assert d3 == pytest.approx(oracles.dist_h2(x, y), abs=1e-9)

    def test_one_lipschitz(self, ctx_hyp):
        ctx, _ = ctx_hyp
        rng = np.random.default_rng(7)
        for _ in range(100):
            x, y = random_h2(rng), random_h2(rng)
            d3 = oracles.dist_h3(bd.bend_map_hyp(ctx, x),
                                 bd.bend_map_hyp(ctx, y))
            assert d3 <= oracles.dist_h2(x, y) + 1e-9

    def test_image_unit_timelike(self, ctx_hyp):
        ctx, _ = ctx_hyp
        rng = np.random.default_rng(9)
        for _ in range(20):
            v = bd.bend_map_hyp(ctx, random_h2(rng))
            assert oracles.mink4_inner(v, v) == pytest.approx(-1.0, abs=1e-10)


class TestHypHolonomy:
    def test_empty_recovers_fuchsian(self):
        h0 = teich.holonomy_from_fn(PD, FN)
        hh = bd.hyp_holonomy(FN, lm.MultiCurveLam((0.0,)), pd=PD)
        for n in h0.gens:
            assert iso.proj_equal(hh.gens[n], h0.gens[n].astype(complex))

    def test_homomorphism(self):
        hh = bd.hyp_holonomy(FN, lm.MultiCurveLam((0.7,)), depth=8, pd=PD)
        a, b = hh.word((("z0", 1),)), hh.word((("b0", 1),))
        ab = hh.word((("z0", 1), ("b0", 1)))
        assert iso.proj_equal(a @ b, ab, tol=1e-9)

    def test_traces_converge_to_fuchsian(self):
        h0 = teich.holonomy_from_fn(PD, FN)
        t0 = abs(iso.tr(h0.word((("b0", 1),))))
        gaps = []
        for a in (0.4, 0.2, 0.1, 0.05):
            hh = bd.hyp_holonomy(FN, lm.MultiCurveLam((a,)), depth=8, pd=PD)
            gaps.append(abs(abs(iso.tr(hh.word((("b0", 1),)))) - t0))
        assert all(g1 > g2 for g1, g2 in zip(gaps, gaps[1:]))
        assert gaps[-1] < 0.05

    def test_traces_move_into_complex(self):
        hh = bd.hyp_holonomy(FN, lm.MultiCurveLam((0.7,)), depth=8, pd=PD)
        assert abs(iso.tr(hh.word((("b0", 1),))).imag) > 1e-6


class TestAdsCocycle:
    def test_identity_pair(self, ctx_hyp):
        ctx, _ = ctx_hyp
        x = 0.9 + 1.3j
        bl, br = bd.bend_cocycle_ads_from_lifts(crossed(ctx, x, x))
        assert iso.is_identity(bl) and iso.is_identity(br)

    def test_single_leaf_is_positive_rotation(self):
        # with the leaf oriented away from x the pair is the positive
        # rotation by parameter a/2, i.e. by angle a
        geo = iso.Geodesic(0.0, iso.INF)
        leaf = lm.WeightedGeodesic(geo, 0.9)
        pair = bd.bend_cocycle_ads_from_lifts([leaf])
        rot = oracles.positive_rotation(oracles.reversed_geodesic(geo), 0.45)
        assert iso.proj_equal(pair[0], rot[0], tol=1e-12)
        assert iso.proj_equal(pair[1], rot[1], tol=1e-12)
        # plane angle between P(Id) and its image equals the weight
        img = iso.ads_act(pair, np.eye(2))
        assert oracles.ads_spacelike_distance(np.eye(2), img) == \
            pytest.approx(0.9, abs=1e-12)

    def test_weight_negation_swaps_components(self):
        leaves = [lm.WeightedGeodesic(iso.Geodesic(0.0, iso.INF), 0.5),
                  lm.WeightedGeodesic(iso.Geodesic(-3.0, -1.0), 0.3)]
        neg = [lm.WeightedGeodesic(l.geodesic, -l.weight) for l in leaves]
        pl, pr = bd.bend_cocycle_ads_from_lifts(leaves)
        nl, nr = bd.bend_cocycle_ads_from_lifts(neg)
        assert iso.proj_equal(pl, nr, tol=1e-12)
        assert iso.proj_equal(pr, nl, tol=1e-12)

    def test_translation_length_exceeds_mass(self, ctx_hyp):
        ctx, _ = ctx_hyp
        rng = np.random.default_rng(11)
        checked = 0
        while checked < 40:
            x, y = random_h2(rng), random_h2(rng)
            leaves = crossed(ctx, x, y)
            mass = sum(l.weight for l in leaves)
            if mass == 0:
                continue
            _, bp = bd.bend_cocycle_ads_from_lifts(leaves)
            k = iso.classify(bp)
            assert k.kind == "hyperbolic"
            assert k.translation_length >= mass - 1e-9
            checked += 1

    def test_cocycle_laws(self, ctx_hyp):
        ctx, _ = ctx_hyp
        rng = np.random.default_rng(13)
        for _ in range(200):
            x, y, z = (random_h2(rng) for _ in range(3))
            for comp in (0, 1):
                bxy, byz, bxz = (
                    bd.bend_cocycle_ads_from_lifts(crossed(ctx, a, b))[comp]
                    for a, b in ((x, y), (y, z), (x, z)))
                assert iso.proj_equal(bxy @ byz, bxz, tol=1e-9)


class TestAdsBendMap:
    def test_empty_is_plane_inclusion(self):
        ctx, _ = bd.make_context(FN, lm.MultiCurveLam((0.0,)), depth=4,
                                 target=bd.ADS, pd=PD)
        z = 0.4 + 1.1j
        assert iso.proj_equal(bd.bend_map_ads(ctx, z), iso.ads_embed(z))

    def test_image_achronal(self):
        ctx, _ = bd.make_context(FN, lm.MultiCurveLam((0.8,)), depth=8,
                                 target=bd.ADS, pd=PD)
        rng = np.random.default_rng(17)
        pts = [bd.bend_map_ads(ctx, random_h2(rng)) for _ in range(25)]
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                assert iso.causal_type(pts[i], pts[j]) in (
                    "spacelike", "lightlike", "coincident")

    def test_single_leaf_two_half_planes(self):
        # image points on either side of the leaf lie in the two planes
        # P(Id) and its rotated copy
        pd3 = teich.PantDecomposition.once_punctured_torus()
        ctx, h = bd.make_context(FN, lm.MultiCurveLam((0.8,)), depth=8,
                                 target=bd.ADS, pd=pd3)
        base = eq.BASE_POINT
        img_near = bd.bend_map_ads(ctx, base + 0.001)
        assert abs(iso.tr(img_near)) < 1e-9  # still in P(Id)


class TestAdsHolonomy:
    def test_empty_gives_fuchsian_pair(self):
        hl, hr = bd.ads_holonomy(FN, lm.MultiCurveLam((0.0,)), pd=PD)
        h0 = teich.holonomy_from_fn(PD, FN)
        for n in h0.gens:
            assert iso.proj_equal(hl.gens[n], h0.gens[n])
            assert iso.proj_equal(hr.gens[n], h0.gens[n])

    @pytest.mark.parametrize("a", [0.1, 0.5, 1.0, 2.0])
    def test_components_are_left_right_earthquakes(self, a):
        lam = lm.MultiCurveLam((a,))
        hl, hr = bd.ads_holonomy(FN, lam, depth=8, pd=PD)
        assert hl.meta["converged"]
        h_left = teich.holonomy_from_fn(PD, eq.quake_coordinates(FN, lam, eq.LEFT))
        h_right = teich.holonomy_from_fn(PD, eq.quake_coordinates(FN, lam, eq.RIGHT))
        words = {"a": (("z0", 1),), "b": (("b0", 1),),
                 "ab": (("z0", 1), ("b0", 1)),
                 "comm": (("z0", 1), ("b0", 1), ("z0", -1), ("b0", -1))}
        for w in words.values():
            assert abs(iso.tr(hl.word(w))) == pytest.approx(
                abs(iso.tr(h_left.word(w))), abs=1e-8)
            assert abs(iso.tr(hr.word(w))) == pytest.approx(
                abs(iso.tr(h_right.word(w))), abs=1e-8)

    def test_peripheral_lengths_follow_length_spectrum_law(self):
        # l(h_L(C)) and l(h_R(C)) equal the shear-coordinate left/right
        # quake lengths |s(p) +- w(p)|, i.e. l - sigma I and l + sigma I
        sp = teich.ShearPoint(teich.IdealTriangulation.once_punctured_torus(),
                              (1.0, 1.0, 1.0))  # l_C = 6
        w = 0.2  # I_C = 6w = 1.2 < 6
        lam = lm.TriangulationLam.from_shear(sp, (w, w, w))
        hl, hr = bd.ads_holonomy(sp, lam, depth=8)
        I = lm.peripheral_spectrum(lam, 1)[0]
        l0 = teich.boundary_length(teich.holonomy_from_shear(sp), 0)
        sigma = lam.signature[0]
        left = teich.holonomy_from_shear(eq.quake_shear(sp, lam, eq.LEFT))
        right = teich.holonomy_from_shear(eq.quake_shear(sp, lam, eq.RIGHT))
        assert teich.boundary_length(left, 0) == pytest.approx(
            l0 - sigma * I, abs=1e-12)
        assert teich.boundary_length(hl, 0) == pytest.approx(
            teich.boundary_length(left, 0), abs=1e-6)
        assert teich.boundary_length(hr, 0) == pytest.approx(
            teich.boundary_length(right, 0), abs=1e-6)
        # size/momentum combination: mean recovers l, half-gap recovers I
        assert 0.5 * (teich.boundary_length(hl, 0)
                      + teich.boundary_length(hr, 0)) == pytest.approx(l0, abs=1e-6)
        assert 0.5 * abs(teich.boundary_length(hl, 0)
                         - teich.boundary_length(hr, 0)) == pytest.approx(I, abs=1e-6)


def on_lift_family(name):
    """The FN torus (l_C = 1, l_z = 2, t = 0.3, weight 0.5) or the shear
    torus s = (-0.4, -0.3, -0.2), weights (0.3, 0.2, 0.25), at depth 8."""
    if name == "fn":
        return lm.LiftFamily(lm.MultiCurveLam((0.5,)),
                             teich.holonomy_from_fn(PD, FN), depth=8)
    sp = teich.ShearPoint(teich.IdealTriangulation.once_punctured_torus(),
                          (-0.4, -0.3, -0.2))
    return lm.LiftFamily(lm.TriangulationLam.from_shear(sp, (0.3, 0.2, 0.25)),
                         teich.holonomy_from_shear(sp), depth=8)


class TestCocycleLawOnLift:
    """B(x, y) B(y, z) = B(x, z) with the middle point y on a lift."""

    @staticmethod
    def cocycles(leaves):
        return (eq.quake_cocycle(leaves, eq.LEFT),
                bd.bend_cocycle_hyp_from_lifts(leaves),
                *bd.bend_cocycle_ads_from_lifts(leaves))

    @staticmethod
    def residual(a, b):
        a, b = iso.normalize(a), iso.normalize(b)
        gap = min(np.max(np.abs(a - b)), np.max(np.abs(a + b)))
        return gap / max(1.0, np.max(np.abs(a)), np.max(np.abs(b)))

    @pytest.mark.parametrize("name", ["fn", "shear"])
    def test_middle_point_on_a_lift(self, name):
        fam = on_lift_family(name)
        x = eq.BASE_POINT
        probes, worst = 0, 0.0
        ends = zip(fam._endpoints(fam.ends_minus), fam._endpoints(fam.ends_plus))
        for p_minus, p_plus in ends:
            geo = iso.Geodesic(p_minus, p_plus)
            if iso.INF not in (geo.p_minus, geo.p_plus) and \
                    abs(geo.p_plus - geo.p_minus) <= 0.4:
                continue  # the whole leaf lies below Im z = 0.2
            frame = geo.map_from_standard()
            for height in (0.3, 0.5, 1.0, 2.0, 3.0):
                y = iso.apply_h2(frame, 1j * height)
                if not (0.2 < y.imag < 5.0 and abs(y.real) < 5.0):
                    continue
                z = complex(y.real + 0.37, 1.3 * y.imag)
                bxy, byz, bxz = (
                    self.cocycles(fam.crossings(a, b, on_leaf="include")[0])
                    for a, b in ((x, y), (y, z), (x, z)))
                probes += 1
                worst = max(worst, max(self.residual(bxy[k] @ byz[k], bxz[k])
                                       for k in range(4)))
        assert probes >= (20 if name == "fn" else 150)
        assert worst < 1e-9


SCENARIOS = Path(__file__).resolve().parent.parent / "scripts" / "scenarios"
SCENARIO_NAMES = ("torus_multicurve", "torus_flow", "sphere_shear",
                  "torus_two_boundary")


@pytest.fixture(scope="module", params=SCENARIO_NAMES)
def scenario_ctx(request):
    """The bending contexts `bend` builds (depth 8) for a checked-in
    scenario, one per target, sharing one lift family."""
    data = scenario.load(SCENARIOS / f"{request.param}.json")
    point, pd = scenario.surface_point(data)
    ctx, _ = bd.make_context(point, scenario.lamination(data, point),
                             depth=8, pd=pd)
    return {target: bd.BendContext(ctx.family, target)
            for target in (bd.HYPERBOLIC, bd.ADS)}


def grid(n):
    """The n x n version of the default grid of `bend`."""
    return [complex(x, y) for y in np.linspace(0.3, 2.5, n)
            for x in np.linspace(-1.5, 1.5, n)]


def crossing_groups(ctx, zs):
    """Indices of zs grouped by the leaves [x0, z] crosses."""
    groups = {}
    crossed = ctx.family.crossings_from(eq.BASE_POINT, zs, on_leaf="include")
    for i, (leaves, _) in enumerate(crossed):
        key = tuple((l.geodesic.p_minus, l.geodesic.p_plus, l.weight)
                    for l in leaves)
        groups.setdefault(key, []).append(i)
    return groups


class TestPiecewiseIsometricBendMap:
    """`bend_points` applies one isometry per crossing sequence."""

    @pytest.mark.parametrize("target", [bd.HYPERBOLIC, bd.ADS])
    def test_isometric_on_each_crossing_group(self, scenario_ctx, target):
        zs = grid(12)
        pts = bd.bend_points(scenario_ctx[target], zs)
        dist = oracles.dist_h3 if target == bd.HYPERBOLIC else \
            oracles.ads_spacelike_distance
        groups = crossing_groups(scenario_ctx[target], zs)
        assert len(groups) > 1
        worst = 0.0
        for idx in groups.values():
            for k, i in enumerate(idx):
                for j in idx[k + 1:]:
                    worst = max(worst, abs(dist(pts[i], pts[j])
                                           - oracles.dist_h2(zs[i], zs[j])))
        assert worst <= 1e-12

    @pytest.mark.parametrize("target", [bd.HYPERBOLIC, bd.ADS])
    def test_uncrossed_points_map_by_inclusion(self, scenario_ctx, target):
        # the grid of 12 x 12 points plus the base point itself
        zs = grid(12) + [eq.BASE_POINT]
        pts = bd.bend_points(scenario_ctx[target], zs)
        include = bd.mink4_from_h2 if target == bd.HYPERBOLIC else \
            iso.ads_embed
        uncrossed = crossing_groups(scenario_ctx[target], zs)[()]
        assert len(zs) - 1 in uncrossed
        for i in uncrossed:
            assert pts[i].tobytes() == include(zs[i]).tobytes()

    @pytest.mark.parametrize("target", [bd.HYPERBOLIC, bd.ADS])
    def test_one_disjointness_check_per_sequence(self, scenario_ctx, target,
                                                 monkeypatch):
        checked = []
        check = lm.leaves_pairwise_disjoint
        monkeypatch.setattr(lm, "leaves_pairwise_disjoint",
                            lambda leaves: checked.append(leaves) or
                            check(leaves))
        zs = grid(12)
        bd.bend_points(scenario_ctx[target], zs)
        sequences = set(crossing_groups(scenario_ctx[target], zs)) - {()}
        # the AdS pair checks each sequence once per component
        assert len(checked) == len(sequences) * (1 if target == bd.HYPERBOLIC
                                                 else 2)

    @pytest.mark.parametrize("target", [bd.HYPERBOLIC, bd.ADS])
    def test_matches_per_vertex_reference(self, scenario_ctx, target):
        zs = grid(24)
        pts = bd.bend_points(scenario_ctx[target], zs)
        ref = oracles.bend_points_per_vertex(scenario_ctx[target], zs, target)
        assert pts.shape == (len(zs),) + ref[0].shape
        assert np.max(np.abs(pts - np.array(ref))) <= 1e-14


class TestTargetFromContext:
    """The bent maps take their target from the context, which checks it."""

    def test_unknown_target_is_a_domain_error(self):
        with pytest.raises(DomainError):
            bd.make_context(FN, lm.MultiCurveLam((0.6,)), depth=4,
                            target="hyperbolc", pd=PD)

    @pytest.mark.parametrize("target,shape", [(bd.HYPERBOLIC, (4,)),
                                              (bd.ADS, (2, 2))])
    def test_points_in_the_context_target(self, target, shape):
        ctx, _ = bd.make_context(FN, lm.MultiCurveLam((0.6,)), depth=4,
                                 target=target, pd=PD)
        assert bd.bend_points(ctx, grid(3)).shape == (9,) + shape

    def test_one_point_maps_check_the_target(self):
        for target, other in ((bd.HYPERBOLIC, bd.bend_map_ads),
                              (bd.ADS, bd.bend_map_hyp)):
            ctx, _ = bd.make_context(FN, lm.MultiCurveLam((0.6,)), depth=4,
                                     target=target, pd=PD)
            with pytest.raises(DomainError):
                other(ctx, 0.5 + 1j)


class TestStackedMink4:
    def test_stack_matches_rows(self):
        rng = np.random.default_rng(19)
        zs = np.array([random_h2(rng) for _ in range(7)])
        geo = iso.Geodesic(-0.3, 1.9)
        a = iso.expm2(0.7j * geo.displacement_generator())
        stack = bd.apply_psl2c(a, bd.mink4_from_h2(zs))
        assert stack.shape == (7, 4)
        for z, row in zip(zs, stack):
            assert row.tobytes() == \
                bd.apply_psl2c(a, bd.mink4_from_h2(z)).tobytes()
