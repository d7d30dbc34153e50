import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quakebend import isometry as iso
from quakebend import teich
from quakebend import lamination as lm
from quakebend import earthquake as eq
from quakebend.errors import DomainError

import oracles

PD = teich.PantDecomposition.once_punctured_torus()
FN = teich.FNPoint((1.0,), (2.0,), (0.3,))
TRI = teich.IdealTriangulation.once_punctured_torus()


def trace_dict(h):
    words = {"a": (("z0", 1),), "b": (("b0", 1),),
             "ab": (("z0", 1), ("b0", 1)),
             "comm": (("z0", 1), ("b0", 1), ("z0", -1), ("b0", -1))}
    return {k: abs(iso.tr(h.word(w))) for k, w in words.items()}


class TestQuakeCoordinates:
    def test_zero_weight_fixes(self):
        assert eq.quake_coordinates(FN, lm.MultiCurveLam((0.0,)), eq.LEFT) == FN

    def test_left_from_origin(self):
        fn0 = FN.with_twists((0.0,))
        out = eq.quake_coordinates(fn0, lm.MultiCurveLam((0.8,)), eq.LEFT)
        assert out.twists == (0.8,)
        assert out.interior_lengths == fn0.interior_lengths

    def test_left_right_inverse(self):
        lam = lm.MultiCurveLam((0.45,))
        out = eq.quake_coordinates(
            eq.quake_coordinates(FN, lam, eq.LEFT), lam, eq.RIGHT)
        assert out == FN


class TestQuakeShear:
    def test_left_from_origin(self):
        sp0 = teich.ShearPoint(TRI, (0.0, 0.0, 0.0))
        lam = lm.TriangulationLam.from_shear(sp0, (0.2, 0.3, 0.4))
        out = eq.quake_shear(sp0, lam, eq.LEFT)
        assert out.shears == (0.2, 0.3, 0.4)

    def test_boundary_length_after(self):
        sp = teich.ShearPoint(TRI, (0.1, 0.2, -0.1))
        lam = lm.TriangulationLam.from_shear(sp, (0.2, 0.3, 0.4))
        out = eq.quake_shear(sp, lam, eq.LEFT)
        h = teich.holonomy_from_shear(out)
        target = abs(sp.puncture_sum(0) + 2 * (0.2 + 0.3 + 0.4))
        assert teich.boundary_length(h, 0) == pytest.approx(target, abs=1e-9)

    def test_type_change_opens_cusp(self):
        sp0 = teich.ShearPoint(TRI, (0.0, 0.0, 0.0))
        lam = lm.TriangulationLam.from_shear(sp0, (0.5, 0.5, 0.5))
        out = eq.quake_shear(sp0, lam, eq.LEFT)
        h = teich.holonomy_from_shear(out)
        assert teich.boundary_length(h, 0) > 0


class TestQuakeCocycle:
    def test_empty_is_identity(self):
        assert iso.is_identity(eq.quake_cocycle([], eq.LEFT))

    def test_single_leaf_left(self):
        # axis (0, oo), x on the left: exp(a X^), translation length a
        leaf = lm.WeightedGeodesic(iso.Geodesic(0.0, iso.INF), 0.7)
        b = eq.quake_cocycle([leaf], eq.LEFT)
        assert iso.translation_length(b) == pytest.approx(0.7, abs=1e-12)
        expected = iso.expm2(0.7 * iso.Geodesic(0.0, iso.INF).displacement_generator())
        assert iso.proj_equal(b, expected, tol=1e-12)

    def test_half_weight_on_leaf(self):
        # crossings returns a leaf through the start or the end of the
        # segment at half its weight, oriented as across the whole leaf
        h = teich.holonomy_from_fn(PD, FN)
        fam = lm.LiftFamily(lm.MultiCurveLam((0.8,)), h, depth=6)
        frame = iso.axis(h.curve("z0")).map_from_standard()
        on = iso.apply_h2(frame, 1j)
        left, right = (iso.apply_h2(frame, complex(math.cos(a), math.sin(a)))
                       for a in (2.0, 1.1))
        across, _ = fam.crossings(left, right)
        for seg, a in (((on, right), 0.4), ((left, on), 0.4),
                       ((left, right), 0.8)):
            leaves, _ = fam.crossings(*seg, on_leaf="include")
            assert [l.weight for l in leaves] == [a]
            assert leaves[0].geodesic == across[0].geodesic
            b = eq.quake_cocycle(leaves, eq.LEFT)
            assert iso.translation_length(b) == pytest.approx(a, abs=1e-12)

    def test_cocycle_inversion_per_side(self):
        # B(x, y) B(y, x) = Id: the return data is the same leaves in
        # reversed order with reversed orientation
        leaves = [lm.WeightedGeodesic(iso.Geodesic(0.0, iso.INF), 0.5),
                  lm.WeightedGeodesic(iso.Geodesic(-3.0, -1.0), 0.3)]
        from_y = [lm.WeightedGeodesic(oracles.reversed_geodesic(l.geodesic),
                                      l.weight) for l in reversed(leaves)]
        for side in (eq.LEFT, eq.RIGHT):
            fwd = eq.quake_cocycle(leaves, side)
            back = eq.quake_cocycle(from_y, side)
            assert iso.proj_equal(fwd @ back, np.eye(2), tol=1e-10)

    def test_crossing_leaves_rejected(self):
        leaves = [lm.WeightedGeodesic(iso.Geodesic(0.0, iso.INF), 0.5),
                  lm.WeightedGeodesic(iso.Geodesic(-1.0, 1.0), 0.3)]
        with pytest.raises(eq.InvalidLaminationError):
            eq.quake_cocycle(leaves, eq.LEFT)

    def test_composition_over_split_segment(self):
        h = teich.holonomy_from_fn(PD, FN)
        lam = lm.MultiCurveLam((0.6,))
        fam = lm.LiftFamily(lam, h, depth=8)
        x = 0.9 + 1.3j
        z = iso.apply_h2(h.curve("zpp0"), x)
        y = 0.5 * (x + z) + 0.1j
        lx_y, _ = fam.crossings(x, y)
        ly_z, _ = fam.crossings(y, z)
        lx_z, _ = fam.crossings(x, z)
        bxy = eq.quake_cocycle(lx_y, eq.LEFT)
        byz = eq.quake_cocycle(ly_z, eq.LEFT)
        bxz = eq.quake_cocycle(lx_z, eq.LEFT)
        assert iso.proj_equal(bxy @ byz, bxz, tol=1e-9)


class TestQuakeHolonomy:
    def test_empty_lamination_returns_original(self):
        h0 = teich.holonomy_from_fn(PD, FN)
        h1 = eq.quake_holonomy(FN, lm.MultiCurveLam((0.0,)), eq.LEFT, pd=PD)
        for n in h0.gens:
            assert iso.proj_equal(h0.gens[n], h1.gens[n])

    @pytest.mark.parametrize("a", [0.1, 0.5, 1.0])
    def test_matches_fn_twist(self, a):
        # the module's central cross-check
        lam = lm.MultiCurveLam((a,))
        hq = eq.quake_holonomy(FN, lam, eq.LEFT, depth=8, pd=PD)
        assert hq.meta["converged"]
        hfn = teich.holonomy_from_fn(PD, eq.quake_coordinates(FN, lam, eq.LEFT))
        t1, t2 = trace_dict(hq), trace_dict(hfn)
        for k in t1:
            assert t1[k] == pytest.approx(t2[k], abs=1e-8)

    def test_left_then_right_restores(self):
        lam = lm.MultiCurveLam((0.7,))
        h1 = eq.quake_holonomy(FN, lam, eq.LEFT, depth=8, pd=PD)
        fn1 = eq.quake_coordinates(FN, lam, eq.LEFT)
        h2 = eq.quake_holonomy(fn1, lam, eq.RIGHT, depth=8, pd=PD)
        h0 = teich.holonomy_from_fn(PD, FN)
        t0, t2 = trace_dict(h0), trace_dict(h2)
        for k in t0:
            assert t0[k] == pytest.approx(t2[k], abs=1e-8)

    def test_four_punctured_sphere_cross_oracle(self):
        pd4 = oracles.pants_four_punctured_sphere()
        fn4 = teich.FNPoint((0.8, 1.2, 0.6, 2.0), (1.5,), (0.4,))
        lam = lm.MultiCurveLam((0.9,))
        hq = eq.quake_holonomy(fn4, lam, eq.LEFT, depth=5, pd=pd4)
        assert hq.meta["converged"]
        hf = teich.holonomy_from_fn(pd4, eq.quake_coordinates(fn4, lam, eq.LEFT))
        words = [((n, 1),) for n in hq.gens]
        words += [(("z0", 1), ("C0", 1)), (("C0", 1), ("C2", 1)),
                  (("z0", 1), ("C2", 1), ("C0", -1))]
        for w in words:
            assert abs(iso.tr(hq.word(w))) == pytest.approx(
                abs(iso.tr(hf.word(w))), abs=1e-8)


class TestQuakeFlow:
    def make_state(self, l0, I, sigma=1, eta=None):
        # 1PT-style single puncture with prescribed (l0, I)
        if l0 > 0:
            kinds = (teich.BOUNDARY,)
            sp = _shear_for_length(l0, sigma)
        else:
            kinds = (teich.CUSP,)
            sp = teich.ShearPoint(TRI, (0.0, 0.0, 0.0))
        w = I / 6.0
        lam = lm.TriangulationLam.from_shear(sp, (w, w, w))
        eta = lam.signature[0] if eta is None else eta
        el = lm.EnhancedLam(lam, (eta,), kinds)
        fp = teich.EnhancedPoint(sp, (1,))
        return eq.FlowState(fp, el)

    def test_lemma_ray_quake_arithmetic(self):
        # l(0)=2, sigma=+1, I=1, t=3 -> l=1, sign flipped, t0=2
        st_ = self.make_state(2.0, 1.0, sigma=1)
        assert st_.sigma(0) == 1 and st_.plain_length(0) == pytest.approx(2.0)
        out = eq.quake_flow(st_, 3.0)
        assert out.plain_length(0) == pytest.approx(1.0)
        assert out.sigma(0) == -1
        assert st_.critical_time(0) == pytest.approx(2.0)

    def test_cusp_opens_negative(self):
        st_ = self.make_state(0.0, 3.0, eta=1)
        out = eq.quake_flow(st_, 0.5)
        assert out.plain_length(0) == pytest.approx(1.5)
        assert out.sigma(0) == -1
        assert out.eta(0) == -1

    def test_flow_law(self):
        st_ = self.make_state(2.0, 1.0)
        one_two = eq.quake_flow(eq.quake_flow(st_, 1.0), 2.0)
        three = eq.quake_flow(st_, 3.0)
        assert one_two.record() == three.record()

    def test_spectrum_constant(self):
        st_ = self.make_state(2.0, 1.5)
        for t in (0.0, 0.7, 2.9):
            assert eq.quake_flow(st_, t).enhanced_spectrum(0) == \
                st_.enhanced_spectrum(0)

    def test_enhanced_length_linear(self):
        # three-point finite difference of l# has zero second difference
        st_ = self.make_state(2.0, 1.5)
        vals = [eq.quake_flow(st_, t).enhanced_length(0)
                for t in (0.5, 1.0, 1.5)]
        assert abs(vals[0] - 2 * vals[1] + vals[2]) < 1e-9
        slope = (vals[2] - vals[0]) / 1.0
        assert slope == pytest.approx(-st_.enhanced_spectrum(0), abs=1e-9)

    def test_eps_eta_product_constant(self):
        st_ = self.make_state(2.0, 1.0)
        for t in (0.0, 1.0, 3.0):
            out = eq.quake_flow(st_, t)
            assert out.eps(0) * out.eta(0) == st_.eps(0) * st_.eta(0)

    def test_negative_time_rejected(self):
        st_ = self.make_state(2.0, 1.0)
        with pytest.raises(DomainError):
            eq.quake_flow(st_, -1.0)

    def test_bounce_shape(self):
        # piecewise linear with slope magnitude I on both sides of t0
        st_ = self.make_state(2.0, 1.0)
        t0 = st_.critical_time(0)
        for t, expect in ((t0 - 0.5, 0.5), (t0, 0.0), (t0 + 0.5, 0.5)):
            assert eq.quake_flow(st_, t).plain_length(0) == pytest.approx(expect)
        assert eq.quake_flow(st_, t0).at_cusp(0)
        assert eq.quake_flow(st_, t0).sigma(0) == 1  # convention at the instant


def _shear_for_length(l, sigma):
    # spiraling sign is opposite to the shear sign for from_shear
    s = -sigma * l / 6.0
    return teich.ShearPoint(TRI, (s, s, s))

