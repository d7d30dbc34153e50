"""The one per-letter pass of the deformed holonomies.

`earthquake.deform_letters` builds the quake, H3-bending and AdS-pair
holonomies; `spacetime.flat_holonomy` builds the flat affine letter
stack from one query of its own.  The reference below keeps one
per-letter loop for each, over the realization the pass queries
(`lamination.realize` between X0 and the letter orbit: a word family
for a multicurve, the triangle walk for a triangulation); the pass must
reproduce them bit for bit.  The walk is checked against the word
family in test_lamination.py.
"""

import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from quakebend import isometry as iso
from quakebend import teich
from quakebend import lamination as lm
from quakebend import earthquake as eq
from quakebend import bending as bd
from quakebend import spacetime as sp
from quakebend import cli
from quakebend import scenario

X0 = complex(0.137, 1.03)
PD = teich.PantDecomposition.once_punctured_torus()
TRI = teich.IdealTriangulation.once_punctured_torus()


# ---------------------------------------------------------------------------
# reference: one loop per deformed holonomy, base point X0
# ---------------------------------------------------------------------------

def realization(lam, h, depth):
    """The lifts the pass queries: walked where a walk applies."""
    return lm.realize(lam, h, depth, walk=True)


def ref_quake(point, lam, side, depth, pd):
    h = teich.holonomy_of(point, pd)
    if isinstance(lam, lm.MultiCurveLam) and not any(lam.weights):
        h.meta["converged"] = True
        return h
    fam = realization(lam, h, depth)
    converged = True

    def deform(name, m):
        nonlocal converged
        y = iso.apply_h2(m, X0)
        leaves, ok = fam.crossings(X0, y)
        converged = converged and ok
        return iso.normalize(eq.quake_cocycle(leaves, side) @ m)

    out = h.map(deform)
    out.meta["converged"] = converged
    return out


def ref_hyp(point, lam, depth, pd):
    h = teich.holonomy_of(point, pd)
    fam = realization(lam, h, depth)
    if not any(lam.weights):
        out = h.map(lambda _, m: m.astype(complex))
        out.meta["converged"] = True
        return out
    converged = True

    def deform(name, m):
        nonlocal converged
        y = iso.apply_h2(m, X0)
        leaves, ok = fam.crossings(X0, y, on_leaf="include")
        converged = converged and ok
        b = eq.cocycle_product(leaves, (1j,))[0]
        return iso.normalize(b @ m.astype(complex))

    out = h.map(deform)
    out.meta["converged"] = converged
    return out


def ref_ads(point, lam, depth, pd):
    h = teich.holonomy_of(point, pd)
    fam = realization(lam, h, depth)
    if not any(lam.weights):
        h.meta["converged"] = True
        return h, h
    converged = True

    def deform(m):
        nonlocal converged
        y = iso.apply_h2(m, X0)
        leaves, ok = fam.crossings(X0, y, on_leaf="include")
        converged = converged and ok
        bl, br = eq.cocycle_product(leaves, (1.0, -1.0))
        return iso.normalize(bl @ m), iso.normalize(br @ m)

    pairs = {name: deform(m) for name, m in h.alphabet.items()}
    out_l = h.map(lambda name, _: pairs[name][0])
    out_r = h.map(lambda name, _: pairs[name][1])
    out_l.meta["converged"] = out_r.meta["converged"] = converged
    return out_l, out_r


def ref_flat(h, fam):
    """The affine letter stack of `h`: per generator g, t = s(g X0)
    from one `translation_part`, then the letter [[A_g, t], [0, 1]] and
    its exact inverse."""
    letters = []
    flags = []
    for m in h.gens.values():
        s, ok = sp.translation_part(fam, X0, iso.apply_h2(m, X0))
        flags.append(ok)
        a, ai = iso.psl2r_to_so21(m), iso.psl2r_to_so21(iso.inv(m))
        for lin, t in ((a, s), (ai, -ai @ s)):
            letters.append(np.vstack([np.column_stack([lin, t]),
                                      [0.0, 0.0, 0.0, 1.0]]))
    return np.array(letters), all(flags)


# ---------------------------------------------------------------------------
# seeded surfaces
# ---------------------------------------------------------------------------

def fn_torus(rng):
    fn = teich.FNPoint((rng.uniform(0.6, 2.0),), (rng.uniform(0.8, 2.4),),
                       (rng.uniform(-0.5, 0.5),))
    return fn, lm.MultiCurveLam((rng.uniform(0.1, 0.9),)), PD


def shear_torus(rng):
    point = teich.ShearPoint(TRI, tuple(rng.uniform(-0.6, -0.1, size=3)))
    lam = lm.TriangulationLam.from_shear(point,
                                         tuple(rng.uniform(0.05, 0.6, size=3)))
    return point, lam, None


def empty_torus(rng):
    fn, _, pd = fn_torus(rng)
    return fn, lm.MultiCurveLam((0.0,)), pd


def same_bits(a, b):
    return (a.dtype == b.dtype and a.shape == b.shape
            and a.tobytes() == b.tobytes())


def assert_same_holonomy(got, want):
    assert list(got.alphabet) == list(want.alphabet)
    for name in want.alphabet:
        assert same_bits(got.alphabet[name], want.alphabet[name]), name
    for name in want.gens:
        assert same_bits(got.gens[name], want.gens[name]), name
    assert got.meta["converged"] == want.meta["converged"]


@pytest.mark.parametrize("depth", [6, 7, 8])
@pytest.mark.parametrize("surface", [fn_torus, shear_torus, empty_torus])
def test_pass_matches_reference_loops(surface, depth):
    rng = np.random.default_rng(depth)
    for _ in range(3):
        point, lam, pd = surface(rng)
        for side in (eq.LEFT, eq.RIGHT):
            assert_same_holonomy(
                eq.quake_holonomy(point, lam, side, depth=depth, pd=pd),
                ref_quake(point, lam, side, depth, pd))
        assert_same_holonomy(bd.hyp_holonomy(point, lam, depth=depth, pd=pd),
                             ref_hyp(point, lam, depth, pd))
        for got, want in zip(bd.ads_holonomy(point, lam, depth=depth, pd=pd),
                             ref_ads(point, lam, depth, pd)):
            assert_same_holonomy(got, want)
        h = teich.holonomy_of(point, pd)
        fam = realization(lam, h, depth)
        letters, ok = sp.flat_holonomy(fam, h)
        want, want_ok = ref_flat(h, fam)
        assert ok == want_ok
        assert same_bits(letters, want)


def test_base_point_on_leaf_raises(monkeypatch, tmp_path, capsys):
    fn = teich.FNPoint((1.0,), (2.0,), (0.3,))
    lam = lm.MultiCurveLam((0.5,))
    h = teich.holonomy_from_fn(PD, fn)
    on_leaf = iso.apply_h2(iso.axis(h.curve("z0")).map_from_standard(), 1j)
    monkeypatch.setattr(eq, "BASE_POINT", on_leaf)
    for build in (lambda: eq.quake_holonomy(fn, lam, eq.LEFT, depth=6, pd=PD),
                  lambda: bd.hyp_holonomy(fn, lam, depth=6, pd=PD),
                  lambda: bd.ads_holonomy(fn, lam, depth=6, pd=PD),
                  lambda: sp.flat_holonomy(lm.LiftFamily(lam, h, depth=6),
                                           h)):
        with pytest.raises(lm.BasePointOnLeafError):
            build()
    # a domain error at the command line
    path = tmp_path / "torus.json"
    path.write_text(json.dumps({
        "version": 1, "surface": {"g": 1, "r": 1},
        "pants": {"num_pants": 1, "interior": [[[0, 0], [0, 1]]],
                  "boundary": [[0, 2]]},
        "fn": {"l": [1.0, 2.0], "t": [0.3]},
        "lamination": {"family": "multicurve", "weights": [0.5]}}))
    assert cli.main(["quake", str(path), "--depth", "6"]) == cli.EXIT_DOMAIN
    capsys.readouterr()
    # bend, to both targets, on the z0 axis and on each placed edge of
    # torus_flow: edges 0 (0, oo) and 1 (oo, -1) run vertically through
    # the base point, along the segment to x0 + 1e-3i
    flow = SCENARIOS / "torus_flow.json"
    point, _ = scenario.surface_point(scenario.load(flow))
    edges = teich.holonomy_of(point).meta["triangle_charts"].geodesics
    cases = [(path, on_leaf)] + [
        (flow, iso.apply_h2(edges[k].map_from_standard(), 1.03j))
        for k in range(3)]
    for scen, x0 in cases:
        monkeypatch.setattr(eq, "BASE_POINT", x0)
        for target in (bd.HYPERBOLIC, bd.ADS):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code = cli.main(["bend", str(scen), "--target", target])
            out, err = capsys.readouterr()
            assert (code, out, caught) == (cli.EXIT_DOMAIN, "", [])
            assert err == ("domain error: a segment endpoint lies on a "
                           "weighted leaf\n")


# ---------------------------------------------------------------------------
# the inclusion: a letter that crosses no leaf stays undeformed
# ---------------------------------------------------------------------------

FN = teich.FNPoint((1.0,), (2.0,), (0.3,))
# quake left and right, H3, AdS left and right
DTYPES = (float, float, complex, float, float)


def deformed(lam):
    """The quake, H3 and AdS holonomies and the flat letter stack of
    the FN torus under `lam`, depth 8."""
    hols = [eq.quake_holonomy(FN, lam, side, depth=8, pd=PD)
            for side in (eq.LEFT, eq.RIGHT)]
    hols.append(bd.hyp_holonomy(FN, lam, depth=8, pd=PD))
    hols.extend(bd.ads_holonomy(FN, lam, depth=8, pd=PD))
    h = teich.holonomy_from_fn(PD, FN)
    return hols, sp.flat_holonomy(realization(lam, h, 8), h)


def test_uncrossed_letters_are_the_inclusion():
    lam = lm.MultiCurveLam((0.5,))
    h0 = teich.holonomy_from_fn(PD, FN)
    _, crossed, _ = eq.deform_letters(FN, lam, depth=8, pd=PD)
    assert not crossed["z0"] and not crossed["C0"] and crossed["b0"]
    hols, (letters, _) = deformed(lam)
    for h, dt in zip(hols, DTYPES):
        for name in ("z0", "C0"):
            assert same_bits(h.alphabet[name], h0.alphabet[name].astype(dt))
        assert not iso.proj_equal(h.alphabet["b0"], h0.alphabet["b0"])
    # the flat stack holds the generators z0, b0 and their inverses;
    # C0 is no generator, so its flat letter is not in it
    z0, b0 = (2 * list(h0.gens).index(name) for name in ("z0", "b0"))
    assert not np.any(letters[z0:z0 + 2, :3, 3])
    assert np.all(np.any(letters[b0:b0 + 2, :3, 3], axis=1))


def test_zero_weights_give_the_undeformed_holonomy():
    h0 = teich.holonomy_from_fn(PD, FN)
    hols, (letters, ok) = deformed(lm.MultiCurveLam((0.0,)))
    for h, dt in zip(hols, DTYPES):
        assert h.meta["converged"] is True
        for name, m in h0.alphabet.items():
            assert same_bits(h.alphabet[name], m.astype(dt)), name
    assert ok is True
    assert not np.any(letters[:, :3, 3])


# ---------------------------------------------------------------------------
# one cocycle pass for every coefficient
# ---------------------------------------------------------------------------

SCENARIOS = Path(__file__).resolve().parent.parent / "scripts" / "scenarios"


@pytest.mark.parametrize("name", ["torus_multicurve", "torus_flow",
                                  "sphere_shear", "torus_two_boundary"])
def test_products_of_one_pass_are_the_single_products(name):
    data = scenario.load(SCENARIOS / f"{name}.json")
    point, pd = scenario.surface_point(data)
    _, crossed, _ = eq.deform_letters(point, scenario.lamination(data, point),
                                      depth=8, pd=pd)
    assert any(crossed.values())
    for leaves in crossed.values():
        got = eq.cocycle_product(leaves, (1.0, -1.0, 1j))
        assert len(got) == 3
        for b, c in zip(got, (1.0, -1.0, 1j)):
            assert same_bits(b, eq.cocycle_product(leaves, (c,))[0])
