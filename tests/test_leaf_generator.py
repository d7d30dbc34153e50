"""One leaf generator behind every cocycle.

Every cocycle reads the displacement generator D of each crossed leaf:
exp(c a D) is the quake factor for c = +-1 and the H3 bending factor for
c = i, and the flat translation part is the derivative of the left quake
cocycle, each leaf giving the normal 2 iota(D).  The per-leaf formulas
D replaced are kept in `oracles` as references.
"""

import math

import numpy as np
import pytest

from quakebend import isometry as iso
from quakebend import teich
from quakebend import lamination as lm
from quakebend import earthquake as eq
from quakebend import spacetime as sp

import oracles

EPS = 1e-6


def random_geodesic(rng):
    """An oriented geodesic, one in ten with an endpoint at infinity."""
    p, q = rng.normal(scale=3.0, size=2)
    if rng.random() < 0.1:
        return iso.Geodesic(iso.INF, q) if rng.random() < 0.5 \
            else iso.Geodesic(p, iso.INF)
    return iso.Geodesic(p, q)


#: geodesics on each branch of `Geodesic.map_from_standard` (from oo, to
#: oo, p < q and p > q), with +0.0 and -0.0 endpoints
BRANCH_GEODESICS = [iso.Geodesic(p, q) for p, q in (
    (iso.INF, 0.0), (iso.INF, -0.0), (iso.INF, -1.7), (0.0, iso.INF),
    (-0.0, iso.INF), (2.3, iso.INF), (0.0, 1.3), (-0.0, 1.3), (-2.1, 0.0),
    (-2.1, -0.0), (1.3, 0.0), (1.3, -0.0), (0.0, -0.7), (-0.0, -0.7),
    (0.4, 1e-300), (-3.0e5, 2.0e-4))]


def random_h2(rng):
    return complex(rng.normal(scale=1.5), math.exp(rng.normal(scale=0.8)))


def fn_torus():
    pd = teich.PantDecomposition.once_punctured_torus()
    h = teich.holonomy_from_fn(pd, teich.FNPoint((1.0,), (2.0,), (0.3,)))
    return lm.LiftFamily(lm.MultiCurveLam((0.5,)), h, depth=8)


def shear_torus():
    point = teich.ShearPoint(teich.IdealTriangulation.once_punctured_torus(),
                             (-0.4, -0.3, -0.2))
    lam = lm.TriangulationLam.from_shear(point, (0.3, 0.2, 0.25))
    return lm.LiftFamily(lam, teich.holonomy_from_shear(point), depth=8)


@pytest.fixture(scope="module", params=[fn_torus, shear_torus],
                ids=["fn", "shear"])
def segments(request):
    """(family, [(y, leaves crossing [x0, y])]) for seeded y, x0 the base
    point; segments that cross no leaf are dropped."""
    fam = request.param()
    rng = np.random.default_rng(5)
    ys = [random_h2(rng) for _ in range(300)]
    crossed = fam.crossings_from(eq.BASE_POINT, ys)
    return fam, [(y, leaves) for y, (leaves, _) in zip(ys, crossed) if leaves]


def test_h3_factor_is_the_rotation_factor():
    # exp(i a D) is the rotation by angle a around the leaf, bit for bit
    rng = np.random.default_rng(7)
    for _ in range(2000):
        geo, a = random_geodesic(rng), rng.uniform(-3.0, 3.0)
        old = a * oracles.rotation_generator(geo)
        new = 1j * a * geo.displacement_generator()
        assert np.array_equal(new, old)
        assert np.array_equal(iso.expm2(new), iso.expm2(old))


def test_stacked_generators_are_the_per_leaf_generators():
    # the one stack of frames that cocycle_products takes its
    # generators from, bit for bit each leaf's own generator and the
    # per-frame product that it was written as
    rng = np.random.default_rng(23)
    geos = BRANCH_GEODESICS + [random_geodesic(rng) for _ in range(200)]
    frames = np.array([g.map_from_standard() for g in geos])
    stacked = iso.displacement_generators(frames)
    for geo, m, d in zip(geos, frames, stacked):
        assert d.tobytes() == geo.displacement_generator().tobytes()
        assert d.tobytes() == (m @ np.diag([0.5, -0.5]) @ iso.inv(m)).tobytes()
    # the -0.0 endpoints reach the frames
    assert np.signbit(frames[frames == 0]).any()


def test_lie_vector_is_iota():
    rng = np.random.default_rng(9)
    for _ in range(200):
        d = random_geodesic(rng).displacement_generator()
        assert np.allclose(iso.lie_vector(d), oracles.iota(d),
                           rtol=1e-15, atol=0.0)


def test_normal_is_the_endpoint_normal(segments):
    # 2 iota(D) points to the far end of the segment, as the normal built
    # from the endpoints' null vectors does
    _, segs = segments
    assert len(segs) > 50
    for y, leaves in segs:
        for leaf in leaves:
            geo = leaf.geodesic
            new = 2.0 * iso.lie_vector(geo.displacement_generator())
            old = oracles.leaf_normal_toward(geo, y)
            assert np.linalg.norm(new - old) <= 1e-12 * np.linalg.norm(old)


def test_translation_part_is_the_quake_derivative(segments):
    # s(y) = 2 iota(d/de B_e(x0, y) at e = 0), B_e the left quake cocycle
    # with every weight scaled by e
    fam, segs = segments
    for y, leaves in segs:
        plus, minus = ([lm.WeightedGeodesic(l.geodesic, e * l.weight)
                        for l in leaves] for e in (EPS, -EPS))
        slope = (eq.quake_cocycle(plus, eq.LEFT)
                 - eq.quake_cocycle(minus, eq.LEFT)) / (2.0 * EPS)
        s, _ = sp.translation_part(fam, eq.BASE_POINT, y)
        assert np.abs(2.0 * oracles.iota(slope) - s).max() <= 1e-8
