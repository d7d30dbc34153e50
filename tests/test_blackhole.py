import json
import math
import random
from pathlib import Path

import numpy as np
import pytest

from quakebend import isometry as iso
from quakebend import teich
from quakebend import lamination as lm
from quakebend import bending as bd
from quakebend import blackhole as bh
from quakebend import curvature as cv
from quakebend import scenario
from quakebend import cli
from quakebend.errors import DomainError

import oracles

PD = teich.PantDecomposition.once_punctured_torus()
FN = teich.FNPoint((1.5,), (2.0,), (0.3,))
SCENARIOS = Path(__file__).resolve().parent.parent / "scripts" / "scenarios"
SPHERE_SHEAR = str(SCENARIOS / "sphere_shear.json")


def hyperbolic_of_length(l, conj=None):
    g = np.diag([math.exp(l / 2.0), math.exp(-l / 2.0)])
    if conj is not None:
        g = conj @ g @ iso.inv(conj)
    return g


class TestHorizonInvariants:
    def test_arithmetic(self):
        d = bh.horizon_invariants(hyperbolic_of_length(2.0),
                                  hyperbolic_of_length(1.0))
        assert d.size == pytest.approx(1.5)
        assert d.momentum == pytest.approx(0.5)

    def test_equal_lengths_zero_momentum(self):
        d = bh.horizon_invariants(hyperbolic_of_length(1.3),
                                  hyperbolic_of_length(1.3))
        assert d.momentum == pytest.approx(0.0, abs=1e-12)
        assert d.extremal

    def test_extremal_tolerance_is_relative(self):
        assert bh.HorizonData(1.2, 7.6e-13).extremal
        assert bh.HorizonData(1.2e6, -7.6e-7).extremal
        assert not bh.HorizonData(1.2, 1e-6).extremal
        assert not bh.HorizonData(1.5, 0.5).extremal

    def test_swap_negates_momentum(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            c = iso.normalize(np.array([[1.0 + abs(rng.normal()), rng.normal()],
                                        [rng.normal() * 0.1, 1.0]]) @ np.eye(2))
            l1, l2 = 0.5 + abs(rng.normal()), 0.5 + abs(rng.normal())
            g1 = hyperbolic_of_length(l1, c)
            g2 = hyperbolic_of_length(l2)
            d = bh.horizon_invariants(g1, g2)
            ds = bh.horizon_invariants(g2, g1)
            assert ds.size == pytest.approx(d.size, abs=1e-12)
            assert ds.momentum == pytest.approx(-d.momentum, abs=1e-12)

    def test_parabolic_side_degenerate(self):
        par = iso.normalize(np.array([[1.0, 1.0], [0.0, 1.0]]))
        with pytest.raises(bh.DegenerateHorizonError):
            bh.horizon_invariants(par, hyperbolic_of_length(1.0))


class TestBTZ:
    def test_static_parameters(self):
        p = bh.BTZParams(1.0, 0.0)
        assert p.mass == 1.0 and p.angular_momentum == 0.0

    def test_mass_dominates_momentum(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            rm = abs(rng.normal())
            rp = rm + 0.1 + abs(rng.normal())
            p = bh.BTZParams(rp, rm)
            assert p.mass >= p.angular_momentum

    def test_identities_with_horizon_data(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            l1, l2 = 0.3 + abs(rng.normal()), 0.3 + abs(rng.normal())
            d = bh.horizon_invariants(hyperbolic_of_length(l1),
                                      hyperbolic_of_length(l2))
            p = bh.BTZParams.from_horizon(d)
            assert p.mass + p.angular_momentum == pytest.approx(
                d.size ** 2, abs=1e-12)
            assert p.mass - p.angular_momentum == pytest.approx(
                d.momentum ** 2, abs=1e-12)
            # round trip
            assert p.r_plus + p.r_minus == pytest.approx(d.size, abs=1e-12)
            assert p.r_plus - p.r_minus == pytest.approx(abs(d.momentum), abs=1e-12)

    def test_ordering_violation(self):
        with pytest.raises(DomainError):
            bh.BTZParams(0.5, 0.7)

    def test_f_vanishes_at_horizons(self):
        p = bh.BTZParams(1.2, 0.4)
        assert bh.btz_f(p.r_plus, p) == pytest.approx(0.0, abs=1e-12)
        assert bh.btz_f(p.r_minus, p) == pytest.approx(0.0, abs=1e-12)

    def test_singularity_error_names_radius(self):
        # at the extremal double root r+ = r- the one horizon is r+
        for p in (bh.BTZParams(1.2, 0.4), bh.BTZParams(1.0, 1.0)):
            with pytest.raises(bh.CoordinateSingularityError) as ei:
                bh.btz_metric(0.0, p.r_plus, 0.0, p)
            assert ei.value.radius_name == "r+"

    def test_public_metric_is_the_chart_point(self):
        # r-/r+ from 0 (Schwarzschild-like) to 1 (extremal), radii inside
        # r-, between the horizons and outside r+
        rng = np.random.default_rng(61)
        for ratio in np.linspace(0.0, 1.0, 6):
            rp = rng.uniform(0.8, 2.0)
            params = bh.BTZParams(rp, rp * ratio)
            chart = bh.btz_chart_metric(params)
            for r in rp * rng.uniform(0.05, 3.0, 60):
                if min(abs(r - params.r_plus), abs(r - params.r_minus)) < 1e-3:
                    continue
                v, phi = rng.uniform(-1, 1), rng.uniform(0, 6)
                public = bh.btz_metric(v, r, phi, params).components
                assert public.tobytes() == chart((v, r, phi)).tobytes()
                assert public.tobytes() == \
                    chart(np.array([v, r, phi])).tobytes()

    @pytest.mark.parametrize("rp,rm", [(1.2, 0.4), (1.0, 1.0), (1.0, 0.0)])
    def test_horizon_errors_are_the_chart_point_errors(self, rp, rm):
        params = bh.BTZParams(rp, rm)
        chart = bh.btz_chart_metric(params)
        for r in (rp, rm, 0.0, -0.5):
            with pytest.raises((DomainError, bh.CoordinateSingularityError)) \
                    as public:
                bh.btz_metric(0.2, r, 0.3, params)
            with pytest.raises(type(public.value)) as point:
                chart((0.2, r, 0.3))
            assert str(public.value) == str(point.value)

    def test_static_components(self):
        p = bh.BTZParams(1.0, 0.0)
        g = bh.btz_metric(0.0, 3.0, 0.0, p).components
        assert np.allclose(g, np.diag([1.0 - 9.0, 1.0 / (9.0 - 1.0), 9.0]))

    def test_curvature_minus_one(self):
        # the extremal hole (1, 1) is sampled at three radii r > r+
        for (rp, rm), radii in [((1.0, 0.0), (2.0,)), ((1.2, 0.4), (2.4,)),
                                ((2.0, 1.1), (4.0,)),
                                ((1.0, 1.0), (1.5, 2.0, 3.0))]:
            p = bh.BTZParams(rp, rm)
            fn = lambda x: bh.btz_metric(x[0], x[1], x[2], p).components
            for r in radii:
                k, resid = cv.constant_curvature_fit(fn, (0.0, r, 0.3))
                assert abs(k + 1.0) < 1e-4 and resid < 1e-4


class TestStackedBTZMetric:
    def test_bitwise_equal_to_pointwise(self):
        # radii off both horizons, on either side of them, including the
        # extremal hole, and every r the verify suite's stencils reach
        rng = np.random.default_rng(32)
        for rp, rm in [(1.0, 0.0), (1.2, 0.4), (2.0, 1.1), (1.0, 1.0)]:
            params = bh.BTZParams(rp, rm)
            metric = bh.btz_chart_metric(params)
            r = np.concatenate([rng.uniform(1.05, 3.0, 500) * rp,
                                rng.uniform(0.05, 0.95, 200) * max(rm, 0.1)])
            rows = np.column_stack([rng.uniform(-1, 1, len(r)), r,
                                    rng.uniform(0, 6, len(r))])
            stack = metric(rows)
            assert stack.shape == (len(rows), 3, 3)
            want = np.array([metric(x) for x in rows])
            assert np.array_equal(stack.view(np.int64), want.view(np.int64))
            assert np.array_equal(stack.view(np.int64), np.array(
                [metric(tuple(x.tolist())) for x in rows]).view(np.int64))

    def test_fits_equal_the_pointwise_fit(self):
        params = bh.BTZParams(1.2, 0.4)
        metric = bh.btz_chart_metric(params)
        points = [(0.0, 2.4, 0.3), (0.5, 3.1, 1.0)]
        assert cv.constant_curvature_fits(metric, points) == \
            [cv.constant_curvature_fit(metric, x) for x in points]

    @pytest.mark.parametrize("bad,error", [
        (0.0, DomainError), (-0.5, DomainError),
        (1.2, bh.CoordinateSingularityError),
        (0.4, bh.CoordinateSingularityError)])
    def test_first_bad_row_raises(self, bad, error):
        # the pointwise error of the first row off the chart, and no
        # floating-point warning on the way
        import warnings
        metric = bh.btz_chart_metric(bh.BTZParams(1.2, 0.4))
        rows = np.array([(0.0, 2.0, 0.0), (0.0, bad, 0.0), (0.0, 0.0, 0.0)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(error) as stacked:
                metric(rows)
        with pytest.raises(error) as pointwise:
            metric(rows[1])
        assert str(stacked.value) == str(pointwise.value)


@pytest.fixture(scope="module")
def holonomy_pair():
    lam = lm.MultiCurveLam((0.4,))
    hl, hr = bd.ads_holonomy(FN, lam, depth=6, pd=PD)
    return hl, hr


class TestRectangles:
    def test_both_parabolic_degenerate(self):
        sp0 = teich.ShearPoint(teich.IdealTriangulation.once_punctured_torus(),
                               (0.0, 0.0, 0.0))
        h = teich.holonomy_from_shear(sp0)
        g = h.peripheral_matrix(0)
        r = bh.peripheral_rectangle(g, g, h, h)
        assert r.degenerate
        assert not isinstance(r.left, bh.CircleArc)

    def test_nondegenerate_once_punctured_torus(self, holonomy_pair):
        hl, hr = holonomy_pair
        gl, gr = hl.peripheral_matrix(0), hr.peripheral_matrix(0)
        r = bh.peripheral_rectangle(gl, gr, hl, hr)
        assert not r.degenerate
        (v1l, v1r), (v2l, v2r) = r.vertices
        att_l, rep_l = iso.fixed_points(gl)
        att_r, rep_r = iso.fixed_points(gr)
        assert (v1l, v1r) == (att_l, rep_r)
        assert (v2l, v2r) == (rep_l, att_r)
        # the arcs span exactly the fixed points of the sides
        assert {r.left.start, r.left.end} == {att_l, rep_l}
        assert {r.right.start, r.right.end} == {att_r, rep_r}

    def test_each_boundary_element_is_classified_once(self, holonomy_pair,
                                                      monkeypatch):
        # the side and the horizon vertices come from one class per side
        hl, hr = holonomy_pair
        gl, gr = hl.peripheral_matrix(0), hr.peripheral_matrix(0)
        want = bh.peripheral_rectangle(gl, gr, hl, hr)
        seen, classify = [], iso.classify
        monkeypatch.setattr(iso, "classify", lambda m, *a: seen.append(m)
                            or classify(m, *a))
        assert bh.peripheral_rectangle(gl, gr, hl, hr) == want
        assert sum(m is gl for m in seen) == 1
        assert sum(m is gr for m in seen) == 1

    def test_sides_invariant_under_peripheral_pair(self, holonomy_pair):
        hl, hr = holonomy_pair
        gl = hl.peripheral_matrix(0)
        r = bh.peripheral_rectangle(gl, hr.peripheral_matrix(0), hl, hr)
        # interior points of the side arc stay inside under g
        arc = r.left
        for t in (0.25, 0.5, 0.75):
            a = bh.circle_angle(arc.start)
            w = (bh.circle_angle(arc.end) - a) % (2 * math.pi)
            x = math.tan((a + t * w) / 2.0)
            assert arc.contains(x)
            assert arc.contains(iso.apply_boundary(gl, x))

    def test_deeper_sampling_keeps_the_arcs(self):
        # the limit set misses the free arcs at every depth; the chosen
        # limit point must not drift into them as the letters deepen
        data = scenario.load(SPHERE_SHEAR)
        point, _ = scenario.surface_point(data)
        lam = scenario.lamination(data, point)
        rects = {}
        for depth in (6, 8):
            hl, hr = bd.ads_holonomy(point, lam, depth=depth)
            rects[depth] = [bh.peripheral_rectangle(
                hl.peripheral_matrix(i), hr.peripheral_matrix(i), hl, hr)
                for i in range(3)]
        assert rects[8] == rects[6]
        assert not any(r.degenerate for r in rects[6])

    def test_elliptic_side_raises(self, holonomy_pair):
        hl, hr = holonomy_pair
        quarter_turn = np.array([[0.0, -1.0], [1.0, 0.0]])
        with pytest.raises(DomainError):
            bh.peripheral_rectangle(hl.peripheral_matrix(0), quarter_turn,
                                    hl, hr)

    def test_contains_with_an_endpoint_at_infinity(self):
        # puncture 0 of the two-boundary torus: a side arc from or to oo
        data = scenario.load(SCENARIOS / "torus_two_boundary.json")
        point, pd = scenario.surface_point(data)
        lam = scenario.lamination(data, point)
        hl, hr = bd.ads_holonomy(point, lam, depth=4, pd=pd)
        r = bh.peripheral_rectangle(hl.peripheral_matrix(0),
                                    hr.peripheral_matrix(0), hl, hr)
        arc = r.left
        assert iso.INF in (arc.start, arc.end)
        other = bh.CircleArc(arc.end, arc.start)

        def midpoint(c):
            a = bh.circle_angle(c.start)
            return math.tan((a + (bh.circle_angle(c.end) - a) % (2 * math.pi)
                             / 2.0) / 2.0)

        assert not arc.contains(iso.INF)  # an endpoint, not in the open arc
        assert arc.contains(midpoint(arc))
        assert not arc.contains(midpoint(other))
        assert other.contains(midpoint(other))
        assert bh.CircleArc(1.0, -1.0).contains(iso.INF)  # oo inside


def seeded_shear_sphere(seed):
    """The sphere_shear scenario with its shears drawn from U(0.3, 2) and
    its lamination weights from U(0.05, 0.6), by random.Random(seed)."""
    rng = random.Random(seed)
    data = scenario.load(SPHERE_SHEAR)
    data["shear"]["s"] = [rng.uniform(0.3, 2.0) for _ in range(3)]
    data["lamination"]["weights"] = [rng.uniform(0.05, 0.6) for _ in range(3)]
    return data


def farthest_generator_point(g, h):
    """Angle from g's fixed points to the farthest fixed point of a
    free generator of h."""
    ends = [bh.circle_angle(x) for x in iso.fixed_points(g)]
    return max(min(abs(math.remainder(bh.circle_angle(x) - e, 2 * math.pi))
                   for e in ends)
               for m in h.gens.values() for x in iso.classify(m).fixed_points)


SIDE_CASES = ([(scen, depth, None)
               for scen in ("torus_multicurve", "torus_flow", "sphere_shear",
                            "torus_two_boundary")
               for depth in range(2, 9)]
              + [("sphere_shear", 6, seed) for seed in range(30)])


class TestSideRuleAgainstSampling:
    @pytest.mark.parametrize("scen,depth,seed", SIDE_CASES)
    def test_same_sides_as_sampled_limit_set(self, scen, depth, seed):
        # the chosen limit point lies far from g's fixed points: at least
        # 1.18 rad on the scenarios, 0.936 rad on the seeded spheres
        # (seed 15, the shear 0.32)
        if seed is None:
            data, min_angle = scenario.load(SCENARIOS / f"{scen}.json"), 1.0
        else:
            data, min_angle = seeded_shear_sphere(seed), 0.9
        point, pd = scenario.surface_point(data)
        lam = scenario.lamination(data, point)
        hl, hr = bd.ads_holonomy(point, lam, depth=depth, pd=pd)
        samples = (oracles.limit_set_samples(hl, depth),
                   oracles.limit_set_samples(hr, depth))
        for i in range(len(teich.puncture_kinds(point))):
            gl, gr = hl.peripheral_matrix(i), hr.peripheral_matrix(i)
            r = bh.peripheral_rectangle(gl, gr, hl, hr)
            assert r.left == oracles.sampled_side(gl, samples[0])
            assert r.right == oracles.sampled_side(gr, samples[1])
            for g, h, side in ((gl, hl, r.left), (gr, hr, r.right)):
                if isinstance(side, bh.CircleArc):
                    assert farthest_generator_point(g, h) > min_angle


def first_failing_length(x, h_left, h_right, depth):
    """Word-by-word reference for omega_contains: the loop it replaced,
    one isometry.causal_type per reduced word, breadth first.  Returns
    the first word length whose translate of x is causally related to
    x, or depth + 1 when none is."""
    names = list(h_left.gens)
    frontier = [(None, np.eye(2), np.eye(2))]
    for length in range(1, depth + 1):
        nxt = []
        for last, ml, mr in frontier:
            for n in names:
                for e in (1, -1):
                    if last == (n, -e):
                        continue
                    gl = h_left.gens[n] if e > 0 else iso.inv(h_left.gens[n])
                    gr = h_right.gens[n] if e > 0 else iso.inv(h_right.gens[n])
                    ml2, mr2 = iso.normalize(ml @ gl), iso.normalize(mr @ gr)
                    y = ml2 @ x @ iso.inv(mr2)
                    if iso.causal_type(x, y) in ("timelike", "lightlike"):
                        return length
                    nxt.append(((n, e), ml2, mr2))
        frontier = nxt
    return depth + 1


class TestOmega:
    @pytest.mark.parametrize("seed", range(20))
    def test_batched_levels_match_word_loop(self, seed):
        # two points of the Fuchsian plane and two random points of
        # X_{-1}, on a seeded bent torus (hl, hr) and on its Fuchsian
        # pair (h, h), one object on both sides
        rng = np.random.default_rng(seed)
        fn = teich.FNPoint((rng.uniform(0.5, 2.0),), (rng.uniform(1.0, 3.0),),
                           (rng.uniform(-1.0, 1.0),))
        lam = lm.MultiCurveLam((rng.uniform(0.1, 0.6),))
        hl, hr = bd.ads_holonomy(fn, lam, depth=4, pd=PD)
        h = teich.holonomy_from_fn(PD, fn)
        points = [iso.ads_embed(complex(rng.uniform(-1, 1), rng.uniform(0.5, 2)))
                  for _ in range(2)]
        while len(points) < 4:
            m = rng.normal(size=(2, 2))
            d = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
            if d > 1e-3:
                points.append(m / math.sqrt(d))
        for x in points:
            for left, right in ((hl, hr), (h, h)):
                first = first_failing_length(x, left, right, 6)
                for depth in (1, 3, 6):
                    assert (bh.omega_contains(x, left, right, depth=depth)
                            == (first > depth))

    def test_fuchsian_pair_enumerates_the_words_once(self, monkeypatch):
        # one word_levels enumeration for (h, h), one per side for a
        # pair of distinct holonomies
        h = teich.holonomy_from_fn(PD, FN)
        hl, hr = bd.ads_holonomy(FN, lm.MultiCurveLam((0.4,)), depth=4, pd=PD)
        word_levels, calls = teich.Holonomy.word_levels, []

        def counted(self, *args, **kwargs):
            calls.append(self)
            return word_levels(self, *args, **kwargs)
        monkeypatch.setattr(teich.Holonomy, "word_levels", counted)
        assert bh.omega_contains(np.eye(2), h, h, depth=5)
        assert calls == [h]
        calls.clear()
        assert bh.omega_contains(np.eye(2), hl, hr, depth=5)
        assert calls == [hl, hr]

    def test_outside_point_stops_before_the_word_budget(self, monkeypatch):
        # a point timelike-related to a translate by a letter fails at
        # length 1, so it returns False under a word budget that the
        # depth-6 levels exceed, where an inside point is refused
        h = teich.holonomy_from_fn(PD, FN)
        rng = np.random.default_rng(3)
        x = None
        while x is None:
            m = rng.normal(size=(2, 2))
            d = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
            if d > 1e-3 and first_failing_length(m / math.sqrt(d),
                                                 h, h, 1) == 1:
                x = m / math.sqrt(d)
        monkeypatch.setattr(teich, "MAX_WORDS", 144)
        with pytest.raises(DomainError):
            list(h.word_levels(6))
        assert not bh.omega_contains(x, h, h, depth=6)
        with pytest.raises(DomainError):
            bh.omega_contains(np.eye(2), h, h, depth=6)

    def test_element_fixed_by_its_powers(self):
        # b0^k x b0^-k = x for x = b0: with |b0^6| large the translate
        # matches x only to the relative tolerance of proj_equal
        h = teich.holonomy_from_fn(PD, teich.FNPoint((4.0,), (2.0,), (0.3,)))
        x = h.gens["b0"]
        assert first_failing_length(x, h, h, 6) == 7
        assert bh.omega_contains(x, h, h, depth=6)

    def test_fuchsian_identity_inside(self):
        h = teich.holonomy_from_fn(PD, FN)
        assert bh.omega_contains(np.eye(2), h, h, depth=5)

    def test_bent_surface_points_inside(self):
        lam = lm.MultiCurveLam((0.4,))
        ctx, _ = bd.make_context(FN, lam, depth=6, target=bd.ADS, pd=PD)
        hl, hr = bd.ads_holonomy(FN, lam, depth=6, pd=PD)
        rng = np.random.default_rng(11)
        for _ in range(5):
            z = complex(rng.normal(), math.exp(rng.normal(scale=0.5)))
            x = bd.bend_map_ads(ctx, z)
            assert bh.omega_contains(x, hl, hr, depth=4)

    def test_timelike_translate_outside(self):
        # points causally related to a translate of themselves are
        # rejected; random sampling finds plenty outside the domain
        h = teich.holonomy_from_fn(PD, FN)
        rng = np.random.default_rng(0)
        found = 0
        for _ in range(60):
            m = rng.normal(size=(2, 2))
            d = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
            if d <= 1e-3:
                continue
            if not bh.omega_contains(m / math.sqrt(d), h, h, depth=4):
                found += 1
        assert found > 0

    def test_equivariance(self):
        lam = lm.MultiCurveLam((0.4,))
        hl, hr = bd.ads_holonomy(FN, lam, depth=6, pd=PD)
        x = iso.ads_embed(0.21 + 0.83j)
        g = (hl.gens["b0"], hr.gens["b0"])
        a = bh.omega_contains(x, hl, hr, depth=4)
        b = bh.omega_contains(iso.ads_act(g, x), hl, hr, depth=4)
        assert a == b


class TestMeridians:
    def make_rects(self, k, deg=0):
        rects = []
        for i in range(k):
            arc = bh.CircleArc(float(i), float(i) + 0.5)
            rects.append(bh.Rectangle(arc, arc, ((0.0, 1.0), (2.0, 3.0))))
        for _ in range(deg):
            rects.append(bh.Rectangle(0.0, 1.0))
        return rects

    def test_counts(self):
        for k in (0, 1, 2, 3):
            ms = bh.extremal_meridians(self.make_rects(k))
            assert len(ms) == 2 ** k

    def test_unique_all_lower(self):
        ms = bh.extremal_meridians(self.make_rects(3))
        lows = [m for m in ms if m.is_future_convex_core_boundary]
        ups = [m for m in ms if m.is_past_convex_core_boundary]
        assert len(lows) == 1 and len(ups) == 1

    def test_globally_hyperbolic_single_meridian(self):
        ms = bh.extremal_meridians(self.make_rects(0, deg=2))
        assert len(ms) == 1

    def test_vertex_records(self, tmp_path, capsys):
        # the arcs `blackhole` prints, one per puncture, on the torus
        # with two boundaries with one puncture made a cusp (the boundary
        # lengths come first in "l")
        data = json.loads((SCENARIOS / "torus_two_boundary.json").read_text())
        path = tmp_path / "cusp.json"
        for cusp in (0, 1):
            data["fn"]["l"] = [0.0 if i == cusp else 1.0 for i in (0, 1)] \
                + [1.0, 1.2]
            path.write_text(json.dumps(data))
            assert cli.main(["blackhole", str(path), "--depth", "6"]) == 0
            recs = [json.loads(line)
                    for line in capsys.readouterr().out.splitlines()]
            arcs = [r["arcs"] for r in recs if "meridian" in r]
            assert len(arcs) == 2
            for arc, side in zip(arcs, (bh.LOWER, bh.UPPER)):
                assert arc[cusp] == {"degenerate": True}
                assert arc[1 - cusp]["side"] == side
                assert len(arc[1 - cusp]["vertices"]) == 2


class TestSizeMomentumVsEarthquake:
    def test_bent_surface_boundary_data(self):
        # size = boundary length of the bent surface, |momentum| = its
        # transverse mass, in the V_c regime
        sp0 = teich.ShearPoint(teich.IdealTriangulation.once_punctured_torus(),
                               (1.0, 1.0, 1.0))
        w = 0.15
        lam = lm.TriangulationLam.from_shear(sp0, (w, w, w))
        # the V_c regime: I_C < l_C at the one geodesic boundary
        assert lm.peripheral_spectrum(lam, 1)[0] < teich.boundary_lengths(sp0)[0]
        hl, hr = bd.ads_holonomy(sp0, lam, depth=8)
        d = bh.horizon_invariants(hl.peripheral_matrix(0),
                                  hr.peripheral_matrix(0))
        l0 = teich.boundary_length(teich.holonomy_from_shear(sp0), 0)
        I = lm.peripheral_spectrum(lam, 1)[0]
        assert d.size == pytest.approx(l0, abs=1e-6)
        assert abs(d.momentum) == pytest.approx(I, abs=1e-6)
