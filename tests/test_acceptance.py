"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them
on success).  All tolerances are pinned here, none deferred.
"""

import math
import time

import numpy as np
import pytest

from quakebend import isometry as iso
from quakebend import teich
from quakebend import lamination as lm
from quakebend import earthquake as eq
from quakebend import bending as bd
from quakebend import spacetime as sp
from quakebend import blackhole as bh
from quakebend import curvature as cv

import oracles

PD_1PT = teich.PantDecomposition.once_punctured_torus()
FN_1PT = teich.FNPoint((1.0,), (2.0,), (0.3,))
TRI_3PS = oracles.triangulation_three_punctured_sphere()
SP_3PS = teich.ShearPoint(TRI_3PS, (1.5, 0.8, 1.2))


def report(num, name, ok, detail):
    line = f"ACCEPTANCE {num} [{name}]: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def proj_residual(a, b):
    """Projective distance relative to the matrix scale."""
    a = iso.normalize(a)
    b = iso.normalize(b)
    gap = min(float(np.max(np.abs(a - b))), float(np.max(np.abs(a + b))))
    return gap / max(1.0, float(np.max(np.abs(a))), float(np.max(np.abs(b))))


def random_point(rng, spread=1.6):
    return complex(rng.normal(scale=spread),
                   math.exp(rng.normal(scale=0.7)))


class TestCriterion1CocycleAlgebra:
    def test_cocycle_laws(self):
        t0 = time.monotonic()
        worst = 0.0
        cases = [
            ("torus", teich.holonomy_from_fn(PD_1PT, FN_1PT),
             lm.MultiCurveLam((0.6,))),
            ("sphere", teich.holonomy_from_shear(SP_3PS),
             lm.TriangulationLam.from_shear(SP_3PS, (0.4, 0.7, 0.3))),
        ]
        rng = np.random.default_rng(2024)
        n_equiv = 0
        for label, h, lam in cases:
            fam = lm.LiftFamily(lam, h, depth=8)
            g_eq = h.gens[list(h.gens)[0]]

            def leaves_of(x, y):
                return fam.crossings(x, y, on_leaf="include")[0]

            def representable(*families):
                # segments through deep spiral fans produce leaf
                # endpoints beyond double-precision resolution; those
                # triples are resampled
                for leaves in families:
                    for l in leaves:
                        for p in (l.geodesic.p_minus, l.geodesic.p_plus):
                            if p != iso.INF and abs(p) > 1e4:
                                return False
                return True

            def cocycles(leaves):
                return (eq.quake_cocycle(leaves, eq.LEFT),
                        eq.cocycle_product(leaves, (1j,))[0],
                        *eq.cocycle_product(leaves, (1.0, -1.0)))

            n_done = 0
            while n_done < 150:
                x, y, z = (random_point(rng, spread=1.2) for _ in range(3))
                lxy, lyz, lxz = leaves_of(x, y), leaves_of(y, z), leaves_of(x, z)
                if not representable(lxy, lyz, lxz):
                    continue
                n_done += 1
                bxy, byz, bxz = cocycles(lxy), cocycles(lyz), cocycles(lxz)
                for k in range(4):
                    # composition
                    worst = max(worst, proj_residual(bxy[k] @ byz[k], bxz[k]))
                    # identity
                    worst = max(worst, proj_residual(
                        cocycles(leaves_of(x, x))[k], np.eye(2)))
                # equivariance over the translated leaf family (the
                # realized family is equivariant only up to the word
                # depth, which the lamination suite tests separately)
                lg = [lm.WeightedGeodesic(
                    iso.transform_geodesic(g_eq, l.geodesic), l.weight)
                    for l in lxy]
                if representable(lg):
                    n_equiv += 1
                    bg = cocycles(lg)
                    for k in (0, 2, 3):
                        worst = max(worst, proj_residual(
                            bg[k], g_eq @ bxy[k] @ iso.inv(g_eq)))
                    worst = max(worst, proj_residual(
                        bg[1], g_eq.astype(complex) @ bxy[1]
                        @ iso.inv(g_eq).astype(complex)))
                # stratum constancy: nudge y within its stratum
                y2 = y + 0.002 + 0.001j
                between, _ = fam.crossings(y, y2)
                if not between:
                    b2 = cocycles(leaves_of(x, y2))
                    for k in range(4):
                        worst = max(worst, proj_residual(bxy[k], b2[k]))
        assert n_equiv >= 200, n_equiv
        dt = time.monotonic() - t0
        report(1, "cocycle algebra", worst < 1e-9 and dt < 30.0,
               f"residual={worst:.2e}, {dt:.1f}s, 300 triples")


class TestCriterion2EarthquakeAdsOracle:
    def test_trace_agreement(self):
        t0 = time.monotonic()
        words = {"a": (("z0", 1),), "b": (("b0", 1),),
                 "ab": (("z0", 1), ("b0", 1)),
                 "comm": (("z0", 1), ("b0", 1), ("z0", -1), ("b0", -1))}
        worst = 0.0
        converged = True
        for a in (0.1, 0.5, 1.0, 2.0):
            lam = lm.MultiCurveLam((a,))
            hl, hr = bd.ads_holonomy(FN_1PT, lam, depth=8, pd=PD_1PT)
            converged = converged and hl.meta["converged"]
            h_left = teich.holonomy_from_fn(
                PD_1PT, eq.quake_coordinates(FN_1PT, lam, eq.LEFT))
            h_right = teich.holonomy_from_fn(
                PD_1PT, eq.quake_coordinates(FN_1PT, lam, eq.RIGHT))
            for w in words.values():
                worst = max(worst, abs(abs(iso.tr(hl.word(w)))
                                       - abs(iso.tr(h_left.word(w)))))
                worst = max(worst, abs(abs(iso.tr(hr.word(w)))
                                       - abs(iso.tr(h_right.word(w)))))
        dt = time.monotonic() - t0
        report(2, "earthquake<->AdS oracle",
               worst < 1e-8 and converged and dt < 10.0,
               f"trace residual={worst:.2e}, converged={converged}, {dt:.1f}s")


class TestCriterion3WickRotation:
    def test_grid(self):
        t0 = time.monotonic()
        Ts = np.linspace(1.15, 2.95, 10)
        us = np.linspace(-0.9, 0.9, 10)
        zs = np.linspace(-1.3, 1.7, 10)
        eta4 = np.diag([-1.0, 1.0, 1.0, 1.0])
        worst_pull = worst_curv = worst_seam = 0.0
        pull_regimes, curv_regimes = set(), set()
        # a0 = 8 keeps the grid in the wing and the band; a0 = 1 puts
        # zeta > a0/T samples in the rotated wing
        for a0 in (8.0, 1.0):
            for T in Ts:
                for u in us:
                    for z in zs:
                        p = sp.LocalPoint(float(T), float(u), float(z), a0)
                        pull_regimes.add(p.regime)
                        x = np.array([T, z, u])
                        cols = []
                        for k in range(3):
                            xp, xm = x.copy(), x.copy()
                            xp[k] += 1e-6
                            xm[k] -= 1e-6
                            cols.append((sp.wick_rotate(
                                sp.LocalPoint(xp[0], xp[2], xp[1], a0))
                                - sp.wick_rotate(
                                    sp.LocalPoint(xm[0], xm[2], xm[1], a0)))
                                / 2e-6)
                        J = np.stack(cols, axis=1)
                        g_num = J.T @ eta4 @ J
                        g_exp = sp.wick_metric(p).components
                        rel = np.max(np.abs(g_num - g_exp)) / np.max(np.abs(g_exp))
                        worst_pull = max(worst_pull, float(rel))
            # curvature on a seam-safe subsample (chart is C^{1,1} on seams)
            fn = sp.chart_metric("wick", a0)
            for T in Ts[::3]:
                for u in us[::4]:
                    for z in zs[::3]:
                        if abs(z) < 0.05 or abs(z - a0 / T) < 0.05:
                            continue
                        curv_regimes.add(sp.LocalPoint(T, u, z, a0).regime)
                        kappa, _ = cv.constant_curvature_fit(fn, (T, z, u))
                        worst_curv = max(worst_curv, abs(kappa + 1.0))

            # seam C^1 residuals (second-order one-sided differences)
            def one_sided(xx, side, h=1e-5):
                def f(y):
                    return sp.wick_rotate(sp.LocalPoint(y[0], y[2], y[1], a0))
                cols = []
                for k in range(3):
                    x1, x2 = xx.copy(), xx.copy()
                    x1[k] += side * h
                    x2[k] += side * 2 * h
                    cols.append((-3.0 * f(xx) + 4.0 * f(x1) - f(x2))
                                / (side * 2 * h))
                return np.stack(cols, axis=1)

            for T in (1.3, 2.0, 2.8):
                for zseam in (0.0, a0 / T):
                    x = np.array([T, zseam, 0.3])
                    worst_seam = max(worst_seam, float(np.max(np.abs(
                        one_sided(x, -1) - one_sided(x, +1)))))
        dt = time.monotonic() - t0
        ok = worst_pull < 1e-6 and worst_curv < 1e-4 and worst_seam < 1e-6 \
            and pull_regimes == curv_regimes == {1, 2, 3} and dt < 60.0
        report(3, "Wick rotation", ok,
               f"pullback={worst_pull:.2e}, curvature={worst_curv:.2e}, "
               f"seam={worst_seam:.2e}, regimes={sorted(curv_regimes)}, "
               f"{dt:.1f}s")


class TestCriterion4Rescalings:
    def test_ds_and_ads(self):
        t0 = time.monotonic()
        worst_ds = 0.0
        regimes = set()
        fn_ds = sp.chart_metric("ds", 1.0)
        for T in np.linspace(0.12, 0.88, 6):
            for z in (-0.8, -0.3, 0.4):
                if abs(z) < 0.05 or abs(z - 1.0 / T) < 0.05:
                    continue
                kappa, _ = cv.constant_curvature_fit(fn_ds, (T, z, 0.25))
                worst_ds = max(worst_ds, abs(kappa - 1.0))
        # the rotated wing, zeta > a0/T
        T, z, u = 0.5, 2.945, -0.5
        regimes.add(sp.LocalPoint(T, u, z, 1.0).regime)
        kappa, _ = cv.constant_curvature_fit(fn_ds, (T, z, u))
        worst_ds = max(worst_ds, abs(kappa - 1.0))

        # AdS: band-regime pullback display and curvature
        worst_band = worst_ads = 0.0
        for (T, z, u) in [(1.5, 0.1, 0.2), (0.8, 0.3, -0.4), (2.2, 0.25, 0.6)]:
            p = sp.LocalPoint(T, u, z, 1.0)
            assert p.regime == 2
            x = np.array([T, z, u])
            cols = []
            for k in range(3):
                xp, xm = x.copy(), x.copy()
                xp[k] += 1e-6
                xm[k] -= 1e-6
                cols.append((sp.ads_map(
                    sp.LocalPoint(xp[0], xp[2], xp[1], 1.0)).flatten()
                    - sp.ads_map(
                        sp.LocalPoint(xm[0], xm[2], xm[1], 1.0)).flatten())
                    / 2e-6)
            G = np.zeros((3, 3))
            for i in range(3):
                for j in range(3):
                    a, b = cols[i].reshape(2, 2), cols[j].reshape(2, 2)
                    G[i, j] = -0.5 * (iso.det(a + b) - iso.det(a) - iso.det(b))
            # -dtau^2 + sin^2(tau)(dzeta^2 + du^2) read in the chart
            # through tau = arctan T and the band arc s = zeta T
            tau = math.atan(T)
            dT = 1.0 / math.cos(tau) ** 2
            A = np.array([[dT, 0.0, 0.0],
                          [-(z * T / T ** 2) * dT, 1.0 / T, 0.0],
                          [0.0, 0.0, 1.0]])
            display = np.diag([-1.0, math.cos(tau) ** 2, math.sin(tau) ** 2])
            worst_band = max(worst_band,
                             float(np.max(np.abs(A.T @ G @ A - display))))
        fn_ads = sp.chart_metric("ads", 1.0)
        for (T, z, u) in [(0.5, -0.6, 0.2), (1.4, 0.3, 0.1), (2.0, -0.9, -0.5),
                          (2.2, 1.4, -0.5)]:
            regimes.add(sp.LocalPoint(T, u, z, 1.0).regime)
            kappa, _ = cv.constant_curvature_fit(fn_ads, (T, z, u))
            worst_ads = max(worst_ads, abs(kappa + 1.0))
        dt = time.monotonic() - t0
        ok = worst_ds < 1e-4 and worst_band < 1e-6 and worst_ads < 1e-4 \
            and 3 in regimes and dt < 60.0
        report(4, "dS/AdS rescalings", ok,
               f"dS curvature={worst_ds:.2e}, band display={worst_band:.2e}, "
               f"AdS curvature={worst_ads:.2e}, regimes={sorted(regimes)}, "
               f"{dt:.1f}s")


class TestCriterion5QuakeFlow:
    def test_flow_dynamics(self):
        t0 = time.monotonic()
        tri = teich.IdealTriangulation.once_punctured_torus()
        sp2 = teich.ShearPoint(tri, (-1.0 / 3,) * 3)  # l=2, sigma=+1
        lam = lm.TriangulationLam.from_shear(sp2, (1.0 / 6,) * 3)  # I=1
        el = lm.EnhancedLam(lam, lam.signature, teich.puncture_kinds(sp2))
        state = eq.FlowState(teich.EnhancedPoint(sp2, (1,)), el)
        # flow law exact on all scalar fields
        ok = eq.quake_flow(eq.quake_flow(state, 1.0), 2.0).record() == \
            eq.quake_flow(state, 3.0).record()
        # bounce |l0 - t sigma I| with flip at t0 = 2
        ls = [eq.quake_flow(state, t).plain_length(0) for t in (0, 1, 2, 3)]
        ok = ok and ls == [2.0, 1.0, 0.0, 1.0]
        ok = ok and eq.quake_flow(state, 3.0).sigma(0) == -1
        ok = ok and eq.quake_flow(state, 2.0).at_cusp(0)
        # cusp opening with sigma = -1
        cusp = teich.ShearPoint(tri, (0.0, 0.0, 0.0))
        clam = lm.TriangulationLam.from_shear(cusp, (0.5,) * 3)  # I = 3
        cel = lm.EnhancedLam(clam, (1,), (teich.CUSP,))
        cstate = eq.FlowState(teich.EnhancedPoint(cusp, (1,)), cel)
        out = eq.quake_flow(cstate, 0.4)
        ok = ok and out.plain_length(0) == pytest.approx(1.2, abs=1e-15)
        ok = ok and out.sigma(0) == -1
        # enhanced length linear, slope -I#, by finite differences
        worst = 0.0
        for t in (0.5, 1.3, 2.7):
            h = 0.125
            vals = [eq.quake_flow(state, t + k * h).enhanced_length(0)
                    for k in (-1, 0, 1)]
            worst = max(worst, abs(vals[0] - 2 * vals[1] + vals[2]))
            slope = (vals[2] - vals[0]) / (2 * h)
            worst = max(worst, abs(slope + state.enhanced_spectrum(0)))
        # the spectrum itself never moves
        for t in (0.7, 1.9, 3.3):
            worst = max(worst, abs(eq.quake_flow(state, t).enhanced_spectrum(0)
                                   - state.enhanced_spectrum(0)))
        dt = time.monotonic() - t0
        report(5, "quake-flow dynamics", ok and worst < 1e-9 and dt < 5.0,
               f"linearity residual={worst:.2e}, {dt:.1f}s")


class TestCriterion6BlackHoleInvariants:
    def test_invariants(self):
        t0 = time.monotonic()
        rng = np.random.default_rng(77)
        worst_id = 0.0
        ok = True
        for _ in range(100):
            l1, l2 = 0.2 + abs(rng.normal()), 0.2 + abs(rng.normal())
            c = iso.normalize(np.array([[1.0, rng.normal() * 0.3],
                                        [rng.normal() * 0.3, 1.0 + abs(rng.normal())]]))
            g1 = c @ np.diag([math.exp(l1 / 2), math.exp(-l1 / 2)]) @ iso.inv(c)
            g2 = np.diag([math.exp(l2 / 2), math.exp(-l2 / 2)])
            d = bh.horizon_invariants(g1, g2)
            ok = ok and d.size == pytest.approx((l1 + l2) / 2, abs=1e-9)
            ok = ok and d.momentum == pytest.approx((l1 - l2) / 2, abs=1e-9)
            ds = bh.horizon_invariants(g2, g1)
            ok = ok and abs(ds.size - d.size) < 1e-9
            ok = ok and abs(ds.momentum + d.momentum) < 1e-9
            rp, rm = (d.size + abs(d.momentum)) / 2, (d.size - abs(d.momentum)) / 2
            M, J = rp * rp + rm * rm, 2 * rp * rm
            worst_id = max(worst_id, abs(M + J - d.size ** 2),
                           abs(M - J - d.momentum ** 2))
        params = bh.BTZParams(1.2, 0.4)
        worst_id = max(worst_id, abs(bh.btz_f(params.r_plus, params)),
                       abs(bh.btz_f(params.r_minus, params)))
        worst_curv = 0.0
        for (rp, rm) in [(1.0, 0.0), (1.2, 0.4)]:
            prm = bh.BTZParams(rp, rm)
            fn = lambda x: bh.btz_metric(x[0], x[1], x[2], prm).components
            kappa, _ = cv.constant_curvature_fit(fn, (0.0, 2.0 * rp, 0.3))
            worst_curv = max(worst_curv, abs(kappa + 1.0))
        counts = []
        for k in (0, 1, 2, 3):
            arc = bh.CircleArc(0.0, 1.0)
            rects = [bh.Rectangle(arc, arc, ((0, 1), (2, 3)))] * k
            counts.append(len(bh.extremal_meridians(rects)))
        ok = ok and counts == [1, 2, 4, 8]
        dt = time.monotonic() - t0
        report(6, "black-hole invariants",
               ok and worst_id < 1e-12 and worst_curv < 1e-4 and dt < 20.0,
               f"identities={worst_id:.2e}, curvature={worst_curv:.2e}, "
               f"meridians={counts}, {dt:.1f}s")


class TestCriterion7FlatHolonomy:
    def test_homomorphism_and_path_independence(self):
        t0 = time.monotonic()
        lam = lm.MultiCurveLam((0.7,))
        h = teich.holonomy_from_fn(PD_1PT, FN_1PT)
        fam = lm.LiftFamily(lam, h, depth=8)
        letters, conv = sp.flat_holonomy(fam, h)
        # words index the letter stack, whose letter i ^ 1 inverts i:
        # w1 w2 against w1 then w2, and w1 w1^-1 against the identity
        rng = np.random.default_rng(5)
        worst = 0.0
        for _ in range(200):
            w1 = rng.integers(len(letters), size=rng.integers(1, 4)).tolist()
            w2 = rng.integers(len(letters), size=rng.integers(1, 4)).tolist()
            g12 = oracles.affine_word(letters, w1 + w2)
            g1g2 = (oracles.affine_word(letters, w1)
                    @ oracles.affine_word(letters, w2))
            unit = oracles.affine_word(letters,
                                       w1 + [i ^ 1 for i in reversed(w1)])
            worst = max(worst, float(np.max(np.abs(g12 - g1g2))),
                        float(np.max(np.abs(unit - np.eye(4)))))
        # path independence over three homotopic two-leg paths
        x0 = complex(0.137, 1.03)
        y = iso.apply_h2(h.curve("zpp0"), x0)
        direct, _ = sp.translation_part(fam, x0, y)
        worst_path = 0.0
        for mid in (0.5 * (x0 + y) + 0.4j, x0 + 0.2 + 0.9j, y - 0.1 + 0.5j):
            s1, _ = sp.translation_part(fam, x0, mid)
            s2, _ = sp.translation_part(fam, mid, y)
            worst_path = max(worst_path,
                             float(np.max(np.abs(direct - (s1 + s2)))))
        dt = time.monotonic() - t0
        report(7, "flat affine holonomy",
               conv and worst < 1e-8 and worst_path < 1e-9 and dt < 10.0,
               f"homomorphism={worst:.2e}, paths={worst_path:.2e}, {dt:.1f}s")


class TestCriterion8ShearTypeLaw:
    def test_fifty_random_shear_points(self):
        t0 = time.monotonic()
        tri = teich.IdealTriangulation.once_punctured_torus()
        rng = np.random.default_rng(13)
        worst = 0.0
        ok = True
        count = 0
        while count < 50:
            s = tuple(float(v) for v in rng.uniform(-1.5, 1.5, size=3))
            spt = teich.ShearPoint(tri, s)
            total = spt.puncture_sum(0)
            if 0.0 < abs(total) < 1e-4:
                continue  # below the parabolic classification tolerance
            h = teich.holonomy_from_shear(spt)
            worst = max(worst, abs(teich.boundary_length(h, 0) - abs(total)))
            count += 1
        # cusp detection exactly at s(p) = 0
        for s in [(0.0, 0.0, 0.0), (1.0, -1.0, 0.0), (0.5, 0.25, -0.75)]:
            spt = teich.ShearPoint(tri, s)
            h = teich.holonomy_from_shear(spt)
            is_cusp = iso.classify(h.peripheral_matrix(0)).kind == "parabolic"
            ok = ok and (is_cusp == (spt.puncture_sum(0) == 0.0))
        dt = time.monotonic() - t0
        report(8, "shear/type law", ok and worst < 1e-9,
               f"length residual={worst:.2e}, cusp detection exact, {dt:.1f}s")
