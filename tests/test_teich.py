import math
import itertools
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quakebend import blackhole as bh
from quakebend import isometry as iso
from quakebend import lamination as lm
from quakebend import scenario
from quakebend import spacetime as sp
from quakebend import teich
from quakebend.errors import DomainError, StructureError

import oracles

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scripts" / "scenarios"


class TestPantsMatrices:
    def test_product_is_identity(self):
        c1, c2, c3 = teich.pants_matrices(2.0, 1.0, 3.0)
        assert iso.proj_equal(c1 @ c2 @ c3, np.eye(2), tol=1e-12)

    def test_symmetric_pant_traces(self):
        # right-angled hexagon trace oracle: |tr| = 2 cosh(l/2)
        c1, c2, c3 = teich.pants_matrices(2.0, 2.0, 2.0)
        for c in (c1, c2, c3):
            assert abs(iso.tr(c)) == pytest.approx(2.0 * math.cosh(1.0), abs=1e-12)
            assert abs(abs(iso.tr(c)) - 3.0861613) < 1e-6

    def test_cusp_is_parabolic(self):
        c1, _, _ = teich.pants_matrices(0.0, 1.0, 2.0)
        assert iso.classify(c1).kind == "parabolic"

    # lengths far below ~1e-4 are numerically parabolic at the class
    # tolerance, so draw either exact cusps or macroscopic lengths
    length = st.one_of(st.just(0.0), st.floats(1e-3, 4.0))

    @given(st.tuples(length, st.floats(1e-3, 4.0), length))
    @settings(max_examples=80, deadline=None)
    def test_lengths_roundtrip(self, ls):
        cs = teich.pants_matrices(*ls)
        for c, l in zip(cs, ls):
            k = iso.classify(c)
            if l == 0.0:
                assert k.kind == "parabolic"
            else:
                assert k.translation_length == pytest.approx(l, abs=1e-9)

    def test_negative_length_rejected(self):
        with pytest.raises(DomainError):
            teich.pants_matrices(-1.0, 1.0, 1.0)


class TestPantDecomposition:
    def test_once_punctured_torus(self):
        pd = teich.PantDecomposition.once_punctured_torus()
        assert pd.genus == 1 and pd.num_boundary == 1 and pd.num_interior == 1

    def test_four_punctured_sphere(self):
        pd = oracles.pants_four_punctured_sphere()
        assert pd.genus == 0 and pd.num_boundary == 4

    def test_slot_reuse_rejected(self):
        with pytest.raises(StructureError):
            teich.PantDecomposition(1, (((0, 0), (0, 0)),), ((0, 1), (0, 2)))

    def test_disconnected_rejected(self):
        with pytest.raises(StructureError):
            teich.PantDecomposition(
                2, (((0, 0), (0, 1)), ((1, 0), (1, 1))),
                ((0, 2), (1, 2)))


# genus 1 with two boundaries: two pants glued along z0 (a tree edge)
# and z1 (a non-tree edge joining the two pants)
TWO_BOUNDARY = teich.PantDecomposition(
    2, (((0, 0), (1, 0)), ((0, 1), (1, 1))), ((0, 2), (1, 2)))


class TestFNHolonomy:
    def test_punctured_torus_cusp_commutator(self):
        pd = teich.PantDecomposition.once_punctured_torus()
        fn = teich.FNPoint((0.0,), (2.0,), (0.0,))
        h = teich.holonomy_from_fn(pd, fn)
        a, b = (h.alphabet[n] for n in ("z0", "b0"))
        comm = a @ b @ iso.inv(a) @ iso.inv(b)
        assert abs(abs(iso.tr(comm)) - 2.0) < 1e-9
        # Fricke branch: commutator trace is -2 for the cusp
        assert iso.tr(h.peripheral_matrix(0)) == pytest.approx(-2.0, abs=1e-9)

    def test_min_boundary_is_the_class_tolerance(self):
        # a cuff just above the bound is hyperbolic, one just below reads
        # as parabolic; FNPoint refuses the latter
        for scale, kind in ((1.0 + 1e-4, "hyperbolic"),
                            (1.0 - 1e-4, "parabolic")):
            c1, _, _ = teich.pants_matrices(teich.MIN_BOUNDARY * scale,
                                            1.0, 1.0)
            assert iso.classify(c1).kind == kind
        with pytest.raises(DomainError, match="too short"):
            teich.FNPoint((teich.MIN_BOUNDARY * (1.0 - 1e-4),), (2.0,), (0.3,))

    def test_single_pant_traces(self):
        pd = oracles.pants_three_punctured_sphere()
        fn = teich.FNPoint((2.0, 2.0, 2.0), (), ())
        h = teich.holonomy_from_fn(pd, fn)
        for i in range(3):
            assert abs(iso.tr(h.peripheral_matrix(i))) == pytest.approx(
                2.0 * math.cosh(1.0), abs=1e-9)

    @pytest.mark.parametrize("pd,fn", [
        (teich.PantDecomposition.once_punctured_torus(),
         teich.FNPoint((1.3,), (2.2,), (0.7,))),
        (teich.PantDecomposition.once_punctured_torus(),
         teich.FNPoint((0.0,), (1.1,), (-1.9,))),
        (oracles.pants_four_punctured_sphere(),
         teich.FNPoint((0.8, 1.2, 0.0, 2.0), (1.5,), (0.7,))),
    ])
    def test_lengths_roundtrip(self, pd, fn):
        h = teich.holonomy_from_fn(pd, fn)
        for i, l in enumerate(fn.boundary_lengths):
            assert teich.boundary_length(h, i) == pytest.approx(l, abs=1e-9)
        for j, l in enumerate(fn.interior_lengths):
            assert iso.translation_length(h.curve(f"z{j}")) == pytest.approx(l, abs=1e-9)

    def test_remarking_invariance(self):
        # permuted pant labeling yields the same length spectrum
        pd1 = oracles.pants_four_punctured_sphere()
        pd2 = teich.PantDecomposition(2, (((1, 2), (0, 2)),),
                                      ((1, 0), (1, 1), (0, 0), (0, 1)))
        fn = teich.FNPoint((0.9, 1.1, 1.3, 1.7), (2.1,), (0.5,))
        h1 = teich.holonomy_from_fn(pd1, fn)
        h2 = teich.holonomy_from_fn(pd2, fn)
        for i in range(4):
            assert teich.boundary_length(h1, i) == pytest.approx(
                teich.boundary_length(h2, i), abs=1e-9)
        assert iso.translation_length(h1.curve("z0")) == pytest.approx(
            iso.translation_length(h2.curve("z0")), abs=1e-9)

    def test_mirrored_pant_is_refused(self, monkeypatch):
        # each cuff conjugated by diag(1, -1): the same traces, but the
        # pant interior on the left of the cuff axes
        flip, normal = np.diag([1.0, -1.0]), teich.pants_matrices
        monkeypatch.setattr(teich, "pants_matrices", lambda *ls: tuple(
            flip @ c @ flip for c in normal(*ls)))
        pd = teich.PantDecomposition.once_punctured_torus()
        with pytest.raises(StructureError, match="lost its chirality"):
            teich.holonomy_from_fn(pd, teich.FNPoint((1.0,), (2.0,), (0.3,)))
        # unmirrored, a cusp (a parabolic cuff, with no frame) passes
        monkeypatch.undo()
        h = teich.holonomy_from_fn(pd, teich.FNPoint((0.0,), (1.5,), (0.2,)))
        assert iso.classify(h.peripheral_matrix(0)).kind == "parabolic"

    @staticmethod
    def fn_pants():
        """(cuffs, lengths) of every pant of the FN scenarios, 20 seeded
        tori, the cusped torus and the three- and four-punctured
        spheres."""
        cases = []
        for name in ("torus_multicurve", "torus_two_boundary"):
            data = scenario.load(str(SCENARIO_DIR / f"{name}.json"))
            point, pd = scenario.surface_point(data)
            cases.append((pd, point))
        torus = teich.PantDecomposition.once_punctured_torus()
        rng = np.random.default_rng(29)
        cases += [(torus, teich.FNPoint((rng.uniform(0.6, 2.0),),
                                        (rng.uniform(0.8, 2.4),),
                                        (rng.uniform(-0.5, 0.5),)))
                  for _ in range(20)]
        cases += [(torus, teich.FNPoint((0.0,), (1.5,), (0.2,))),
                  (oracles.pants_three_punctured_sphere(),
                   teich.FNPoint((0.0, 0.0, 0.0), (), ())),
                  (oracles.pants_four_punctured_sphere(),
                   teich.FNPoint((0.0, 1.0, 0.5, 0.0), (1.5,), (-0.8,)))]
        for pd, fn in cases:
            for p in range(pd.num_pants):
                ls = [teich._curve_length(pd, fn, p, k) for k in range(3)]
                yield teich.pants_matrices(*ls), ls

    def test_pant_frames_bits(self):
        # one classification and one map per cuff against a fresh one
        # at each use: the same frames, bit for bit, and None at a cusp
        cusps = 0
        for cuffs, ls in self.fn_pants():
            got = teich._pant_frames(
                [teich._axis_or_point(iso.classify(c)) for c in cuffs])
            want = oracles.pant_frames_reference(cuffs, ls)
            for g, w in zip(got, want):
                assert (g is None) == (w is None)
                cusps += g is None
                assert g is None or np.array_equal(g.view(np.int64),
                                                   w.view(np.int64))
        # the cusped torus, two cusps of the four-punctured sphere and
        # the three of the thrice-punctured sphere
        assert cusps == 6

    def test_dimension_mismatch(self):
        pd = teich.PantDecomposition.once_punctured_torus()
        with pytest.raises(StructureError):
            teich.holonomy_from_fn(pd, teich.FNPoint((1.0, 1.0), (2.0,), (0.0,)))

    def test_nonpositive_interior_rejected(self):
        with pytest.raises(DomainError):
            teich.FNPoint((1.0,), (0.0,), (0.0,))

    # a Dehn twist along z_j shifts t_j by l_{z_j} and maps z'_j to
    # z''_j, so tr zpp_j(t) = tr zp_j(t - l_{z_j}); coordinates only
    @pytest.mark.parametrize("pd,fn", [
        (TWO_BOUNDARY, teich.FNPoint(ls, lz, t))
        for ls, lz in (((1.0, 1.2), (1.0, 1.0)), ((0.7, 0.0), (1.3, 0.8)))
        for t in ((0.0, 0.0), (0.3, -0.2), (-0.5, 0.7))] + [
        (teich.PantDecomposition.once_punctured_torus(),
         teich.FNPoint((1.0,), (2.0,), (0.3,))),
        (oracles.pants_four_punctured_sphere(),
         teich.FNPoint((0.0, 1.0, 0.5, 0.0), (1.5,), (-0.8,))),
    ])
    def test_dehn_twist_maps_zp_to_zpp(self, pd, fn):
        h = teich.holonomy_from_fn(pd, fn)
        for j, l in enumerate(fn.interior_lengths):
            t = list(fn.twists)
            t[j] -= l
            shifted = teich.holonomy_from_fn(pd, fn.with_twists(t))
            want = abs(iso.tr(shifted.curve(f"zp{j}")))
            assert abs(iso.tr(h.curve(f"zpp{j}"))) == pytest.approx(
                want, rel=1e-8)

    def test_free_generators_free(self):
        # no nontrivial short word evaluates to the identity
        pd = teich.PantDecomposition.once_punctured_torus()
        h = teich.holonomy_from_fn(pd, teich.FNPoint((1.0,), (2.0,), (0.3,)))
        names = list(h.gens)
        for w in itertools.product([(n, e) for n in names for e in (1, -1)],
                                   repeat=3):
            reduced = []
            for let in w:
                if reduced and reduced[-1] == (let[0], -let[1]):
                    reduced.pop()
                else:
                    reduced.append(let)
            if not reduced:
                continue
            assert not iso.is_identity(h.word(reduced), tol=1e-6)


def _shear_surfaces():
    """(id, ShearPoint): the shear scenarios, then 10 once-punctured tori
    and 10 three-punctured spheres with shears U(-2, 2)."""
    out = []
    for name in ("torus_flow", "sphere_shear"):
        data = scenario.load(str(Path(__file__).resolve().parent.parent
                                 / "scripts" / "scenarios" / f"{name}.json"))
        out.append((name, scenario.surface_point(data)[0]))
    rnd = random.Random(11)
    for kind, tri in (
            ("torus", teich.IdealTriangulation.once_punctured_torus()),
            ("sphere", oracles.triangulation_three_punctured_sphere())):
        out += [(f"{kind}-{i}", teich.ShearPoint(
            tri, tuple(rnd.uniform(-2.0, 2.0) for _ in range(3))))
            for i in range(10)]
    return out


SHEAR_SURFACES = _shear_surfaces()


def _on_circle(x):
    """An ideal point of R u {oo} on the unit circle: (x - i) / (x + i)."""
    return 1.0 if x == iso.INF else (x - 1j) / (x + 1j)


#: the one table of chart changes that `holonomy_from_shear` builds, read
#: back through its `TriangleCharts`, on each of SHEAR_SURFACES
ON_SHEAR_SURFACES = pytest.mark.parametrize(
    "sp", [s for _, s in SHEAR_SURFACES], ids=[n for n, _ in SHEAR_SURFACES])


class TestShearHolonomy:
    @ON_SHEAR_SURFACES
    def test_steps_invert(self, sp):
        ch = teich.holonomy_from_shear(sp).meta["triangle_charts"]
        eye = np.eye(2)
        for t, k in itertools.product(range(len(ch.step)), range(3)):
            # across the side and back is F(s) F(s) = -I, up to sign
            back = ch.step[t, k] @ ch.step[ch.across[t, k], ch.entry[t, k]]
            assert min(np.abs(back - eye).max(),
                       np.abs(back + eye).max()) < 1e-12
            assert np.abs(ch.step_inv[t, k] @ ch.step[t, k]
                          - eye).max() < 1e-12

    @ON_SHEAR_SURFACES
    def test_sides_match_the_gluing(self, sp):
        ch = teich.holonomy_from_shear(sp).meta["triangle_charts"]
        for j, (a, b) in enumerate(sp.triangulation.gluing):
            for (t, k), (u, m) in ((a, b), (b, a)):
                assert (ch.across[t, k], ch.entry[t, k], ch.edge[t, k]) \
                    == (u, m, j)
                assert (ch.across[u, m], ch.entry[u, m]) == (t, k)

    @ON_SHEAR_SURFACES
    def test_fans_are_the_peripheral_elements(self, sp):
        h = teich.holonomy_from_shear(sp)
        ch, tri = h.meta["triangle_charts"], sp.triangulation
        kinds = teich.surface_type(h).kinds
        for t, c in itertools.product(range(tri.num_triangles), range(3)):
            i = tri.puncture_of_corner(t, c)
            assert abs(iso.tr(ch.fan[t, c])) == pytest.approx(
                abs(iso.tr(h.peripheral_matrix(i))), rel=1e-12)
            assert ch.boundary[t, c] == (kinds[i] == teich.BOUNDARY)

    @ON_SHEAR_SURFACES
    def test_fans_are_the_per_corner_walks(self, sp):
        # the stacked walk of all corners, whose cycles differ in length
        # on the spheres, bit for bit one corner at a time
        ch = teich.holonomy_from_shear(sp).meta["triangle_charts"]
        assert ch.fan.tobytes() == oracles.corner_fans(ch).tobytes()

    @ON_SHEAR_SURFACES
    def test_edge_geodesics_join_the_corners(self, sp):
        ch = teich.holonomy_from_shear(sp).meta["triangle_charts"]
        corners = (0.0, iso.INF, -1.0)
        for geo, ((t, k), _) in zip(ch.geodesics, sp.triangulation.gluing):
            for end, corner in ((geo.p_minus, corners[k]),
                                (geo.p_plus, corners[(k + 1) % 3])):
                want = iso.apply_boundary(ch.placement[t], corner)
                assert abs(_on_circle(end) - _on_circle(want)) < 1e-12

    def test_all_zero_shears_give_cusps(self):
        for tri in (teich.IdealTriangulation.once_punctured_torus(),
                    oracles.triangulation_three_punctured_sphere()):
            sp = teich.ShearPoint(tri, (0.0,) * tri.num_edges)
            h = teich.holonomy_from_shear(sp)
            for i in range(tri.num_punctures):
                assert abs(iso.tr(h.peripheral_matrix(i))) == pytest.approx(2.0, abs=1e-12)

    def test_punctured_torus_star_sum(self):
        # every edge hits the single puncture at both ends
        tri = teich.IdealTriangulation.once_punctured_torus()
        sp = teich.ShearPoint(tri, (1.0, 1.0, 1.0))
        assert sp.puncture_sum(0) == pytest.approx(6.0)
        h = teich.holonomy_from_shear(sp)
        assert teich.boundary_length(h, 0) == pytest.approx(6.0, abs=1e-9)

    @given(st.tuples(st.floats(-2, 2), st.floats(-2, 2), st.floats(-2, 2)))
    @settings(max_examples=100, deadline=None)
    def test_boundary_length_is_star_sum(self, s):
        sp = teich.ShearPoint(teich.IdealTriangulation.once_punctured_torus(),
                              tuple(float(v) for v in s))
        if 0.0 < abs(sp.puncture_sum(0)) < 1e-4:
            return  # below the parabolic classification tolerance
        h = teich.holonomy_from_shear(sp)
        assert teich.boundary_length(h, 0) == pytest.approx(
            abs(sp.puncture_sum(0)), abs=1e-9)

    def test_sign_flips_preserve_unsigned_lengths(self):
        tri = oracles.triangulation_three_punctured_sphere()
        s1 = teich.ShearPoint(tri, (0.7, -0.3, 0.4))
        s2 = teich.ShearPoint(tri, (-0.7, 0.3, -0.4))
        h1, h2 = (teich.holonomy_from_shear(s) for s in (s1, s2))
        for i in range(3):
            assert teich.boundary_length(h1, i) == pytest.approx(
                teich.boundary_length(h2, i), abs=1e-9)

    def test_malformed_triangulation(self):
        with pytest.raises(StructureError):
            teich.IdealTriangulation(2, (((0, 0), (1, 0)), ((0, 1), (1, 1)),
                                         ((0, 2), (0, 2))))


class TestSurfaceType:
    def test_shear_all_cusps(self):
        tri = oracles.triangulation_three_punctured_sphere()
        sp = teich.ShearPoint(tri, (0.0, 0.0, 0.0))
        st_ = teich.surface_type(teich.holonomy_of(sp))
        assert st_.kinds == (teich.CUSP,) * 3

    def test_fn_all_boundary(self):
        pd = oracles.pants_three_punctured_sphere()
        fn = teich.FNPoint((1.0, 2.0, 3.0), (), ())
        assert teich.surface_type(teich.holonomy_of(fn, pd)).kinds == (
            teich.BOUNDARY,) * 3

    def test_mixed(self):
        pd = oracles.pants_four_punctured_sphere()
        fn = teich.FNPoint((1.0, 0.0, 2.0, 0.0), (1.0,), (0.0,))
        assert teich.surface_type(teich.holonomy_of(fn, pd)).kinds == (
            teich.BOUNDARY, teich.CUSP, teich.BOUNDARY, teich.CUSP)

    def test_fn_needs_decomposition(self):
        # the holonomy, and with it the genus, comes from the decomposition
        fn = teich.FNPoint((1.0,), (2.0,), (0.3,))
        with pytest.raises(StructureError, match="needs the pant decomposition"):
            teich.surface_type(teich.holonomy_of(fn))

    def test_from_holonomy(self):
        pd = teich.PantDecomposition.once_punctured_torus()
        h = teich.holonomy_from_fn(pd, teich.FNPoint((1.5,), (2.0,), (0.1,)))
        assert teich.surface_type(h).kinds == (teich.BOUNDARY,)

    def test_elementary_rejected(self):
        with pytest.raises(StructureError):
            teich.SurfaceType(0, (teich.CUSP, teich.CUSP))


class TestEnhanced:
    def test_enhanced_length_sign(self):
        pd = teich.PantDecomposition.once_punctured_torus()
        fn = teich.FNPoint((2.0,), (1.0,), (0.0,))
        fp = teich.EnhancedPoint(fn, (-1,))
        assert teich.enhanced_length(fp, 0) == -2.0

    def test_cusp_forces_plus(self):
        fn = teich.FNPoint((0.0,), (1.0,), (0.0,))
        with pytest.raises(StructureError):
            teich.EnhancedPoint(fn, (-1,))
        fp = teich.EnhancedPoint(fn, (1,))
        assert teich.enhanced_length(fp, 0) == 0.0
        assert teich.sign_of_enhanced(teich.enhanced_length(fp, 0)) == 1

    def test_plus_sign_is_plain_length(self):
        fn = teich.FNPoint((2.0,), (1.0,), (0.0,))
        assert teich.enhanced_length(teich.EnhancedPoint(fn, (1,)), 0) == 2.0

    def test_conjugation_invariance_of_boundary_length(self):
        pd = teich.PantDecomposition.once_punctured_torus()
        h = teich.holonomy_from_fn(pd, teich.FNPoint((1.4,), (2.0,), (0.6,)))
        g = iso.normalize(np.array([[2.0, 1.0], [1.0, 1.0]]))
        h2 = h.map(lambda _, m: iso.normalize(g @ m @ iso.inv(g)))
        assert teich.boundary_length(h2, 0) == pytest.approx(
            teich.boundary_length(h, 0), abs=1e-10)


def _word_holonomies():
    pd1 = teich.PantDecomposition.once_punctured_torus()
    pd4 = oracles.pants_four_punctured_sphere()
    tri = oracles.triangulation_three_punctured_sphere()
    return {
        "fn-torus": teich.holonomy_from_fn(
            pd1, teich.FNPoint((1.0,), (2.0,), (0.3,))),
        "fn-four-holed-sphere": teich.holonomy_from_fn(
            pd4, teich.FNPoint((1.0, 0.0, 1.5, 0.5), (2.0,), (0.4,))),
        "shear-sphere": teich.holonomy_from_shear(
            teich.ShearPoint(tri, (1.5, 0.8, 1.2))),
    }


WORD_HOLONOMIES = _word_holonomies()


class TestWordLevels:
    DEPTH = 5

    def levels_and_words(self, h):
        """Levels of the engine plus each row's letter sequence, read off
        the prefix-major order: row r of level d extends row r // 2k of
        level 0 (d = 1) or row r // (2k - 1) of level d - 1 (d >= 2)."""
        levels = list(h.word_levels(self.DEPTH))
        two_k = 2 * len(h.gens)
        words = [[()]]
        for d, (_, last) in enumerate(levels[1:], start=1):
            branch = two_k if d == 1 else two_k - 1
            words.append([words[-1][r // branch] + (int(i),)
                          for r, i in enumerate(last)])
        return levels, words

    @pytest.mark.parametrize("name", sorted(WORD_HOLONOMIES))
    def test_level_sizes(self, name):
        h = WORD_HOLONOMIES[name]
        k = len(h.gens)
        levels, _ = self.levels_and_words(h)
        assert len(levels) == self.DEPTH + 1
        assert levels[0][0].shape == (1, 2, 2)
        for d, (mats, last) in enumerate(levels[1:], start=1):
            n = 2 * k * (2 * k - 1) ** (d - 1)
            assert mats.shape == (n, 2, 2) and last.shape == (n,)

    @pytest.mark.parametrize("name", sorted(WORD_HOLONOMIES))
    def test_words_are_reduced_and_distinct(self, name):
        _, words = self.levels_and_words(WORD_HOLONOMIES[name])
        for level in words:
            assert len(set(level)) == len(level)
            for w in level:
                assert all(b != a ^ 1 for a, b in zip(w, w[1:]))

    @pytest.mark.parametrize("name", sorted(WORD_HOLONOMIES))
    def test_rows_evaluate_their_words(self, name):
        h = WORD_HOLONOMIES[name]
        names = list(h.gens)
        levels, words = self.levels_and_words(h)
        for (mats, last), level in zip(levels, words):
            for r in range(0, len(level), 7):
                w = level[r]
                letters = [(names[i // 2], -1 if i % 2 else 1) for i in w]
                expected = h.word(letters)
                assert np.allclose(mats[r], expected,
                                   atol=1e-12 * np.abs(expected).max())
                if w:
                    assert last[r] == w[-1]

    def test_letter_order(self):
        h = WORD_HOLONOMIES["fn-torus"]
        (_, root), (letters, last) = list(h.word_levels(1))
        assert list(root) == [-1] and list(last) == [0, 1, 2, 3]
        for i, name in enumerate(h.gens):
            assert np.array_equal(letters[2 * i], h.gens[name])
            assert np.array_equal(letters[2 * i + 1], iso.inv(h.gens[name]))


class TestAffineLetters:
    """`word_levels` on a (2k, 4, 4) stack of affine letters [[A, t],
    [0, 1]], A = psl2r_to_so21 of the 2x2 letter and each inverse the
    exact affine inverse, enumerates the words of the 2x2 tree."""

    DEPTH = 4

    @staticmethod
    def affine_stack(h, rng):
        letters = []
        for g in h.gens.values():
            a, ai = iso.psl2r_to_so21(g), iso.psl2r_to_so21(iso.inv(g))
            t = rng.normal(size=3)
            for lin, tr in ((a, t), (ai, -ai @ t)):
                m = np.eye(4)
                m[:3, :3], m[:3, 3] = lin, tr
                letters.append(m)
        return np.array(letters)

    @pytest.mark.parametrize("name", sorted(WORD_HOLONOMIES))
    def test_same_tree_as_the_2x2_letters(self, name):
        # the linear blocks within 1e-12 of the rounding scale of a
        # product, the same product of the letters' entrywise |.|: the
        # four-holed sphere's letters reach 2.8e3 and cancel in words
        h = WORD_HOLONOMIES[name]
        aff = self.affine_stack(h, np.random.default_rng(5))
        for (m2, last2), (m4, last4), (scale, _) in zip(
                h.word_levels(self.DEPTH),
                h.word_levels(self.DEPTH, letters=aff),
                h.word_levels(self.DEPTH, letters=np.abs(aff)), strict=True):
            assert np.array_equal(last2, last4)
            assert m4.shape == (len(m2), 4, 4)
            assert (m4[:, 3] == [0.0, 0.0, 0.0, 1.0]).all()
            lin = np.array([iso.psl2r_to_so21(w) for w in m2])
            assert (np.abs(m4[:, :3, :3] - lin)
                    <= 1e-12 * scale[:, :3, :3]).all()


class TestWordBudget:
    """`word_levels` refuses a level whose prefixes would build more than
    `teich.MAX_WORDS` products; on the rank-2 torus 144 = 36 x 4 builds
    levels 1-4 and refuses level 5 (108 prefixes)."""

    BUDGET = 144

    @staticmethod
    def bits(levels):
        return [(m.tobytes(), last.tobytes()) for m, last in levels]

    def test_levels_up_to_the_budget_then_refused(self, monkeypatch):
        h = WORD_HOLONOMIES["fn-torus"]
        full = self.bits(h.word_levels(6))
        monkeypatch.setattr(teich, "MAX_WORDS", self.BUDGET)
        tree = h.word_levels(6)
        assert self.bits(itertools.islice(tree, 5)) == full[:5]
        with pytest.raises(DomainError, match="level 5 on a rank-2 group"):
            next(tree)

    def test_pruned_tree_passes_the_same_depth(self, monkeypatch):
        # the pruned loop of the oracle's reach family, letters 0 and 2
        # only (g0 and g1, never an inverse): 2^d words at level d, so
        # level 6 builds 32 x 4 products
        h = WORD_HOLONOMIES["fn-torus"]

        def keep(mats):
            return np.broadcast_to(np.arange(4) % 2 == 0, (len(mats), 4))
        full = self.bits(oracles.pruned_word_levels(h, 6, keep))
        monkeypatch.setattr(teich, "MAX_WORDS", self.BUDGET)
        assert self.bits(oracles.pruned_word_levels(h, 6, keep)) == full
        assert [len(m) for m, _ in oracles.pruned_word_levels(h, 6, keep)] \
            == [2 ** d for d in range(7)]

    def test_word_loops_are_refused(self, monkeypatch):
        h = WORD_HOLONOMIES["fn-torus"]
        empty = lm.LiftFamily(lm.MultiCurveLam((0.0,)), h, depth=4)
        q = np.array([2.0, 0.1, -0.3])
        # inside at every depth, so neither test stops before the budget
        assert bh.omega_contains(np.eye(2), h, h, depth=6)
        assert sp.regular_domain_contains(q, empty, h, depth=6)
        monkeypatch.setattr(teich, "MAX_WORDS", self.BUDGET)
        with pytest.raises(DomainError):
            bh.omega_contains(np.eye(2), h, h, depth=6)
        with pytest.raises(DomainError):
            sp.regular_domain_contains(q, empty, h, depth=6)


class TestHolonomyMap:
    def test_generators_must_be_letters(self):
        h = WORD_HOLONOMIES["fn-torus"]
        with pytest.raises(StructureError):
            teich.Holonomy({**h.gens, "x": np.eye(2)}, h.alphabet,
                           h.curve_words, h.peripheral)

    def test_generators_are_mapped_letters(self):
        h = WORD_HOLONOMIES["fn-torus"]
        seen = []
        out = h.map(lambda name, m: seen.append(name) or 2.0 * m)
        assert seen == list(h.alphabet)
        for name in h.gens:
            assert out.gens[name] is out.alphabet[name]

    def test_one_crossings_query_per_letter(self, monkeypatch):
        # FN once-punctured torus: letters z0, C0, b0; generators z0, b0
        from quakebend import bending as bd
        from quakebend import earthquake as eq
        from quakebend import lamination as lm
        pd = teich.PantDecomposition.once_punctured_torus()
        fn = teich.FNPoint((1.0,), (2.0,), (0.3,))
        lam = lm.MultiCurveLam((0.5,))
        # one crossings_from query at the base point, one segment per
        # letter, of the hexagon walk
        calls = []
        crossings_from = lm.HexagonWalk.crossings_from

        def counted(self, x, ys, *args, **kwargs):
            calls.append(len(ys))
            return crossings_from(self, x, ys, *args, **kwargs)
        monkeypatch.setattr(lm.HexagonWalk, "crossings_from", counted)
        for deformed in (lambda: eq.quake_holonomy(fn, lam, eq.LEFT, depth=6,
                                                   pd=pd),
                         lambda: bd.hyp_holonomy(fn, lam, depth=6, pd=pd),
                         lambda: bd.ads_holonomy(fn, lam, depth=6, pd=pd)):
            calls.clear()
            deformed()
            assert calls == [3]
