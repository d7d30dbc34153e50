import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quakebend import isometry as iso
from quakebend.errors import DomainError, MalformedMatrixError, WrongClassError

import oracles

RNG = np.random.default_rng(7)


def random_psl2r(rng=RNG, scale=1.0):
    while True:
        m = rng.normal(size=(2, 2), scale=scale)
        d = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
        if d > 1e-3:
            return m / math.sqrt(d)


def random_hyperbolic(rng=RNG):
    while True:
        m = random_psl2r(rng)
        if abs(iso.tr(m)) > 2.0 + 1e-6:
            return m


class TestClassify:
    def test_parabolic_boundary_case(self):
        g = iso.normalize([[1.0, 1.0], [0.0, 1.0]])
        assert iso.classify(g).kind == "parabolic"

    def test_trace_three_is_hyperbolic(self):
        # oracle: diagonalize; eigenvalue lam moves axis points by 2 log lam
        g = iso.normalize([[2.5, 1.0], [0.25, 0.5]])
        assert abs(iso.tr(g) - 3.0) < 1e-12
        lam = max(abs(np.linalg.eigvals(g)))
        expected = 2.0 * math.log(lam)
        k = iso.classify(g)
        assert k.kind == "hyperbolic"
        assert k.translation_length == pytest.approx(expected, abs=1e-12)
        assert k.translation_length == pytest.approx(2.0 * math.acosh(1.5), abs=1e-7)

    def test_trace_one_is_elliptic(self):
        th = math.pi / 3.0
        g = np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
        assert abs(iso.tr(g) - 1.0) < 1e-12
        assert iso.classify(g).kind == "elliptic"

    def test_identity(self):
        assert iso.classify(np.eye(2)).kind == "identity"
        assert iso.classify(-np.eye(2)).kind == "identity"

    def test_singular_matrix_rejected(self):
        with pytest.raises(MalformedMatrixError):
            iso.normalize([[1.0, 1.0], [1.0, 1.0]])

    def test_unnormalized_rejected(self):
        with pytest.raises(MalformedMatrixError):
            iso.classify(np.array([[2.0, 0.0], [0.0, 2.0]]))

    def test_conjugation_invariance(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            g = random_psl2r(rng)
            h = random_psl2r(rng)
            ghg = h @ g @ iso.inv(h)
            k1, k2 = iso.classify(g), iso.classify(ghg)
            assert k1.kind == k2.kind
            if k1.kind == "hyperbolic":
                assert abs(k1.translation_length - k2.translation_length) < 1e-10


class TestTranslationLength:
    def test_unit_generator_scaling(self):
        # translation length of exp(tX) is 2t for X = 2D, D the
        # displacement generator
        geo = iso.Geodesic(0.0, iso.INF)
        g = iso.expm2(0.7 * 2.0 * geo.displacement_generator())
        assert iso.translation_length(g) == pytest.approx(1.4, abs=1e-12)

    def test_identity_is_zero(self):
        assert iso.translation_length(np.eye(2)) == 0.0

    def test_diag_e(self):
        # displacement of i -> e^2 i along the imaginary axis
        g = np.diag([math.e, 1.0 / math.e])
        d = oracles.dist_h2(1j, iso.apply_h2(g, 1j))
        assert iso.translation_length(g) == pytest.approx(d, abs=1e-12)
        assert iso.translation_length(g) == pytest.approx(2.0, abs=1e-12)

    def test_wrong_class(self):
        with pytest.raises(WrongClassError):
            iso.translation_length(iso.normalize([[1.0, 1.0], [0.0, 1.0]]))


class TestFixedPoints:
    def test_diagonal(self):
        g = np.diag([2.0, 0.5])
        att, rep = iso.fixed_points(g)
        assert att == iso.INF and rep == 0.0

    def test_equivariance(self):
        g = np.diag([2.0, 0.5])
        h = iso.normalize([[1.0, 2.0], [3.0, 7.0]])
        att, rep = iso.fixed_points(h @ g @ iso.inv(h))
        assert att == pytest.approx(iso.apply_boundary(h, iso.INF), abs=1e-10)
        assert rep == pytest.approx(iso.apply_boundary(h, 0.0), abs=1e-10)

    def test_fixed_by_action(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            g = random_hyperbolic(rng)
            for p in iso.fixed_points(g):
                if p == iso.INF:
                    assert iso.apply_boundary(g, p) == iso.INF
                else:
                    assert abs(iso.apply_boundary(g, p) - p) < 1e-8 * (1 + abs(p))

    def test_wrong_class(self):
        with pytest.raises(WrongClassError):
            iso.fixed_points(np.eye(2))


class TestAxis:
    def test_diagonal(self):
        ax = iso.axis(np.diag([2.0, 0.5]))
        assert (ax.p_minus, ax.p_plus) == (0.0, iso.INF)

    def test_invariant(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            g = random_hyperbolic(rng)
            ax = iso.axis(g)
            ax2 = iso.transform_geodesic(g, ax)
            for a, b in ((ax.p_minus, ax2.p_minus), (ax.p_plus, ax2.p_plus)):
                if a == iso.INF or b == iso.INF:
                    assert a == b
                else:
                    assert abs(a - b) < 1e-7 * (1 + abs(a))

    def test_displacement_on_axis_equals_length(self):
        # distance-formula oracle for points on the axis
        rng = np.random.default_rng(9)
        for _ in range(100):
            g = random_hyperbolic(rng)
            m = iso.axis(g).map_from_standard()
            for y in (0.5, 1.0, 3.0):
                x = iso.apply_h2(m, complex(0.0, y))
                d = oracles.dist_h2(x, iso.apply_h2(g, x))
                assert abs(d - iso.translation_length(g)) < 1e-10


class TestGeodesic:
    def test_degenerate_rejected(self):
        with pytest.raises(DomainError):
            iso.Geodesic(1.0, 1.0)

    def test_translation_matches_unit_generator(self):
        geo = iso.Geodesic(-2.0, 5.0)
        t1 = oracles.translation(geo, 1.3)
        t2 = iso.expm2(1.3 * geo.displacement_generator())
        assert iso.proj_equal(t1, t2, tol=1e-10)

    def test_side_convention(self):
        # left of (0, oo) travelling upward is Re < 0
        geo = iso.Geodesic(0.0, iso.INF)
        assert geo.side(-1.0 + 1j) > 0
        assert geo.side(1.0 + 1j) < 0
        # sides are swapped by reversal
        assert oracles.reversed_geodesic(geo).side(-1.0 + 1j) < 0

    @given(p=st.floats(-50, 50), q=st.floats(-50, 50),
           x=st.floats(-50, 50), y=st.floats(0.01, 50))
    @settings(max_examples=300, deadline=None)
    def test_side_equivariant(self, p, q, x, y):
        if abs(p - q) < 1e-3:
            return
        geo = iso.Geodesic(p, q)
        z = complex(x, y)
        if abs(geo.side(z)) < 1e-6:
            return
        m = iso.normalize([[3.0, 1.0], [1.0, 2.0]])
        s1 = geo.side(z)
        s2 = iso.transform_geodesic(m, geo).side(iso.apply_h2(m, z))
        assert s1 * s2 > 0

    def test_rotation_generator_full_turn(self):
        for geo in (iso.Geodesic(0.0, iso.INF), iso.Geodesic(-1.0, 3.0),
                    iso.Geodesic(2.0, -7.0), iso.Geodesic(iso.INF, 0.5)):
            g = iso.expm2(2.0j * math.pi * geo.displacement_generator())
            assert iso.proj_equal(g, np.eye(2, dtype=complex), tol=1e-10)


class TestCausalType:
    def test_coincident(self):
        p = random_psl2r()
        assert iso.causal_type(p, p) == "coincident"
        assert iso.causal_type(p, -p) == "coincident"

    def test_elliptic_is_timelike_vs_grid(self):
        th = 0.7
        q = np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
        assert iso.causal_type(np.eye(2), q) == "timelike"
        assert oracles.causal_type_grid(np.eye(2), q) == "timelike"

    def test_hyperbolic_is_spacelike_vs_grid(self):
        q = iso.expm2(0.9 * np.diag([1.0, -1.0]))
        assert iso.causal_type(np.eye(2), q) == "spacelike"
        assert oracles.causal_type_grid(np.eye(2), q) == "spacelike"

    def test_trace_criterion_matches_grid_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            p, q = random_psl2r(rng), random_psl2r(rng)
            a = iso.causal_type(p, q, tol=1e-7)
            if a == "lightlike":
                continue  # grid oracle is not exact on the boundary cone
            assert a == oracles.causal_type_grid(p, q, tol=1e-7)

    def test_isometry_invariance(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            p, q = random_psl2r(rng), random_psl2r(rng)
            a, b = random_psl2r(rng), random_psl2r(rng)
            t1 = iso.causal_type(p, q)
            t2 = iso.causal_type(iso.ads_act((a, b), p), iso.ads_act((a, b), q))
            assert t1 == t2


class TestDuality:
    def test_embed_equivariant(self):
        rng = np.random.default_rng(29)
        for _ in range(100):
            g = random_psl2r(rng)
            z = complex(rng.normal(), abs(rng.normal()) + 0.1)
            lhs = iso.ads_embed(iso.apply_h2(g, z))
            rhs = g @ iso.ads_embed(z) @ iso.inv(g)
            assert iso.proj_equal(lhs, rhs, tol=1e-8)

    def test_embed_lands_in_plane_of_id(self):
        z = 0.3 + 1.7j
        p = iso.ads_embed(z)
        assert abs(iso.tr(p)) < 1e-12
        assert abs(iso.det(p) - 1.0) < 1e-12
        assert abs(oracles.ads_inner(np.eye(2), p)) < 1e-12

    def test_rotation_translates_dual_points(self):
        # (exp(-tX), exp(tX)) moves Id along l* by 2t
        geo = iso.Geodesic(0.0, iso.INF)
        for t in (0.2, 1.0, 2.5):
            img = iso.ads_act(oracles.positive_rotation(geo, t), np.eye(2))
            assert iso.proj_equal(img, oracles.dual_point(geo, 2.0 * t), tol=1e-10)

    def test_zero_rotation_fixes_dual_line(self):
        geo = iso.Geodesic(-1.0, 4.0)
        pair = oracles.positive_rotation(geo, 0.0)
        for s in (-1.0, 0.0, 2.0):
            p = oracles.dual_point(geo, s)
            assert iso.proj_equal(iso.ads_act(pair, p), p)

    def test_plane_angle_equals_dual_distance(self):
        # angle between P(Id) and its image = translation distance on l*
        geo = iso.Geodesic(0.0, iso.INF)
        for t in (0.3, 0.9, 1.7):
            img = iso.ads_act(oracles.positive_rotation(geo, t), np.eye(2))
            d = oracles.ads_spacelike_distance(np.eye(2), img)
            assert d == pytest.approx(2.0 * t, abs=1e-10)

    def test_dual_points_fix_line_in_their_plane(self):
        # every point of l* has l inside its dual plane
        geo = iso.Geodesic(-2.0, 3.0)
        for s in (-1.5, 0.4, 2.0):
            x = oracles.dual_point(geo, s)
            for u in (-1.0, 0.0, 2.0):
                m = geo.map_from_standard()
                z = iso.apply_h2(m, complex(0, math.exp(u)))
                assert abs(oracles.ads_inner(x, iso.ads_embed(z))) < 1e-9


class TestProjectiveEquality:
    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=50, deadline=None)
    def test_sign_flip(self, seed):
        g = random_psl2r(np.random.default_rng(seed))
        assert iso.proj_equal(g, -g)

    @staticmethod
    def allclose_form(m, n, tol):
        """The reference rule: two np.allclose calls."""
        return bool(np.allclose(m, n, atol=tol) or np.allclose(m, -n, atol=tol))

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_matches_allclose_form(self, dtype):
        rng = np.random.default_rng(11)
        specials = [np.nan, np.inf, -np.inf]
        cases = 0
        for _ in range(60):
            n = rng.normal(size=(2, 2)) * 10.0 ** rng.integers(-3, 4)
            if dtype is complex:
                n = n + 1j * rng.normal(size=(2, 2))
            tol = float(rng.choice([0.0, 1e-12, 1e-9, 1e-6]))
            slack = tol + 1e-5 * np.abs(n)
            # m at, just inside and just outside the tolerance boundary,
            # of either sign, or far off
            near = [n + slack, n - slack, -n + slack,
                    n + np.nextafter(slack, np.inf),
                    n + np.nextafter(slack, 0.0),
                    n + 2.0 * slack * rng.uniform(size=(2, 2)),
                    n + 1e-3 * rng.normal(size=(2, 2))]
            if dtype is float:
                near += [np.nextafter(n + slack, np.inf),
                         np.nextafter(n + slack, -np.inf)]
            for m in near:
                variants = [(m, n)]
                # NaN and +-inf in one entry of m, of n, or of both
                i, j = rng.integers(0, 2, size=2)
                for v in specials:
                    for who in ("m", "n", "both"):
                        mm, nn = m.copy(), n.copy()
                        if who in ("m", "both"):
                            mm[i, j] = v
                        if who in ("n", "both"):
                            nn[i, j] = v
                        variants.append((mm, nn))
                    mm, nn = m.copy(), n.copy()
                    mm[i, j], nn[i, j] = v, -v   # opposite infinities
                    variants.append((mm, nn))
                for mm, nn in variants:
                    assert iso.proj_equal(mm, nn, tol=tol) == \
                        self.allclose_form(mm, nn, tol), (mm, nn, tol)
                    cases += 1
        assert cases > 1000


class TestSO21:
    def test_preserves_minkowski_form(self):
        eta = np.diag([-1.0, 1.0, 1.0])
        rng = np.random.default_rng(31)
        for _ in range(50):
            L = iso.psl2r_to_so21(random_psl2r(rng))
            assert np.allclose(L.T @ eta @ L, eta, atol=1e-10)

    def test_matches_moebius_action(self):
        rng = np.random.default_rng(37)
        for _ in range(50):
            g = random_psl2r(rng)
            z = complex(rng.normal(), abs(rng.normal()) + 0.2)
            v = iso.h2_to_hyperboloid(z)
            assert np.allclose(iso.psl2r_to_so21(g) @ v,
                               iso.h2_to_hyperboloid(iso.apply_h2(g, z)), atol=1e-9)
