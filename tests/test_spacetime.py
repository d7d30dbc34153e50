import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from quakebend import isometry as iso
from quakebend import teich
from quakebend import lamination as lm
from quakebend import earthquake as eq
from quakebend import spacetime as sp
from quakebend import curvature as cv
from quakebend import blackhole as bh
from quakebend import cli
from quakebend import scenario
from quakebend.errors import DomainError, StructureError

import oracles

GOLDEN = Path(__file__).parent / "golden"
ETA3 = np.diag([-1.0, 1.0, 1.0])
ETA4 = np.diag([-1.0, 1.0, 1.0, 1.0])


def numeric_pullback(f, x, eta, h=1e-6):
    """J^T eta J for a map given on (T, zeta, u) coordinates."""
    x = np.asarray(x, dtype=float)
    cols = []
    for k in range(3):
        xp, xm = x.copy(), x.copy()
        xp[k] += h
        xm[k] -= h
        cols.append((f(xp) - f(xm)) / (2 * h))
    J = np.stack(cols, axis=1)
    return J.T @ eta @ J


def one_sided_jac(f, x, side, h=1e-7):
    x = np.asarray(x, dtype=float)
    cols = []
    for k in range(3):
        xp = x.copy()
        xp[k] += side * h
        cols.append((f(xp) - f(x)) / (side * h))
    return np.stack(cols, axis=1)


def pt(T, z, u, a0=1.0):
    return sp.LocalPoint(T, u, z, a0)


class TestCurvatureOracle:
    # contract: validated on analytic metrics before use
    @pytest.mark.parametrize("metric,x,expect", [
        (oracles.sphere_metric, (1.0, 0.5), 1.0),
        (oracles.sphere_metric, (2.2, 1.3), 1.0),
        (oracles.hyperbolic_metric, (0.3, 1.0), -1.0),
        (oracles.hyperbolic_metric, (2.0, 0.4), -1.0),
    ])
    def test_reference_metrics(self, metric, x, expect):
        k, resid = cv.constant_curvature_fit(metric, x)
        assert abs(k - expect) < 1e-5 and resid < 1e-5
        assert abs(oracles.sectional_curvature(metric, x) - expect) < 1e-5


# -- the scalar curvature oracle: one metric call per use of a point (169
# in a 3-D fit), the reference that the stencil form of `cv` must match
# bit for bit

def scalar_diff(f, x, k, h):
    """d f / d x_k by central differences, Richardson-extrapolated once."""
    def central(step):
        xp, xm = np.array(x, dtype=float), np.array(x, dtype=float)
        xp[k] += step
        xm[k] -= step
        return (f(xp) - f(xm)) / (2.0 * step)

    d1 = central(h)
    d2 = central(h / 2.0)
    return (4.0 * d2 - d1) / 3.0


def scalar_christoffel(metric, x, h=1e-3, g=None):
    """Gamma^k_{ij} at x; g is metric(x), if already known."""
    x = np.asarray(x, dtype=float)
    g = np.asarray(metric(x), dtype=float) if g is None else g
    ginv = np.linalg.inv(g)
    dg = np.array([scalar_diff(metric, x, k, h) for k in range(len(x))])
    term = np.einsum("ilj->lij", dg) + np.einsum("jli->lij", dg) - dg
    return 0.5 * np.einsum("kl,lij->kij", ginv, term)


def riemann_loop(metric, x, h=1e-3, g=None):
    """Loop transcription of the lowered Riemann tensor, the reference
    that the array form of `oracles.riemann` must match bit for bit; g is
    metric(x), if already known."""
    x = np.asarray(x, dtype=float)
    n = len(x)
    g = np.asarray(metric(x), dtype=float) if g is None else g
    gam = scalar_christoffel(metric, x, h, g)
    dgam = np.array([scalar_diff(
        lambda y: scalar_christoffel(metric, y, h), x, k, h) for k in range(n)])
    r_up = np.zeros((n, n, n, n))
    for l in range(n):
        for k in range(n):
            for i in range(n):
                for j in range(n):
                    val = dgam[i, l, j, k] - dgam[j, l, i, k]
                    val += np.dot(gam[l, i, :], gam[:, j, k])
                    val -= np.dot(gam[l, j, :], gam[:, i, k])
                    r_up[l, k, i, j] = val
    return np.einsum("lm,mkij->ijkl", g, r_up)


def sectional_reference(metric, x, plane=(0, 1), h=1e-3):
    i, j = plane
    g = np.asarray(metric(np.asarray(x, dtype=float)), dtype=float)
    r = riemann_loop(metric, x, h, g)
    return r[i, j, j, i] / (g[i, i] * g[j, j] - g[i, j] ** 2)


# chart kind -> (public checked function, an open T-range inside its domain)
CHARTS = {"flat": (sp.flat_metric, (0.3, 3.0)),
          "wick": (sp.wick_metric, (1.1, 3.0)),
          "ds": (sp.rescale_ds, (0.1, 0.9)),
          "ads": (sp.ads_metric, (0.2, 3.0))}


class TestRiemannArrayForm:
    def test_bitwise_equal_to_loop(self):
        rng = np.random.default_rng(11)
        cases = []
        for kind, (_, (lo, hi)) in CHARTS.items():
            for a0 in (1.0, sp.INF):
                metric = sp.chart_metric(kind, a0)
                cases += [(metric, (rng.uniform(lo, hi), rng.uniform(-1.0, 2.0),
                                    rng.uniform(-1.0, 1.0))) for _ in range(4)]
        for _ in range(4):
            rp = rng.uniform(0.8, 2.0)
            params = bh.BTZParams(rp, rp * rng.uniform(0.0, 0.6))
            cases.append((bh.btz_chart_metric(params),
                          (rng.uniform(-1, 1), rp * rng.uniform(1.5, 3.0),
                           rng.uniform(0, 6))))
        cases += [(oracles.sphere_metric, (1.0, 0.5)),
                  (oracles.hyperbolic_metric, (0.3, 1.0))]
        for metric, x in cases:
            assert np.array_equal(oracles.riemann(metric, x), riemann_loop(metric, x))


class TestChartMetric:
    @pytest.mark.parametrize("a0", [1.0, 8.0, sp.INF])
    @pytest.mark.parametrize("kind", sorted(CHARTS))
    def test_equals_public_components(self, kind, a0):
        public, (lo, hi) = CHARTS[kind]
        T = 0.5 * (lo + hi)
        zetas = [-0.5, 0.5 * a0 / T if a0 != sp.INF else 3.0]
        if a0 != sp.INF:
            zetas.append(a0 / T + 0.5)
        regimes = []
        for z in zetas:
            p = pt(T, z, 0.3, a0)
            regimes.append(p.regime)
            raw = sp.chart_metric(kind, a0)((T, z, 0.3))
            assert np.array_equal(raw, public(p).components)
        assert regimes == [1, 2, 3][:len(zetas)]

    @pytest.mark.parametrize("kind,T", [
        ("flat", 0.0), ("flat", -0.5), ("wick", 1.0), ("wick", 0.5),
        ("ds", 0.0), ("ds", 1.0), ("ads", 0.0), ("ads", -0.5)])
    def test_domain(self, kind, T):
        with pytest.raises(DomainError):
            sp.chart_metric(kind)((T, 0.2, 0.3))

    @pytest.mark.parametrize("kind,a0", [("wick", 0.0), ("ds", -1.0),
                                         ("ads", math.nan)])
    def test_weight_checked_at_construction(self, kind, a0):
        with pytest.raises(DomainError):
            sp.chart_metric(kind, a0)


class TestSampleChecks:
    @pytest.fixture
    def checks(self, monkeypatch):
        count = [0]
        check = sp.MetricSample.__post_init__

        def counted(self):
            count[0] += 1
            check(self)
        monkeypatch.setattr(sp.MetricSample, "__post_init__", counted)
        return count

    @pytest.mark.parametrize("kind", sorted(CHARTS))
    def test_one_check_per_public_call(self, checks, kind):
        public, (lo, hi) = CHARTS[kind]
        for z in (-0.5, 0.1, 3.0):
            before = checks[0]
            public(pt(0.5 * (lo + hi), z, 0.3))
            assert checks[0] - before == 1

    def test_wick_grid_samples_and_fits_each_column_once(
            self, checks, monkeypatch, capsys):
        # 3 T by 3 zeta columns, each off the seams, over 3 values of u
        fits, stacked = [], cv.constant_curvature_fits

        def counted(metric, xs):
            fits.append(len(xs))
            return stacked(metric, xs)
        monkeypatch.setattr(cv, "constant_curvature_fits", counted)
        # and no point is fitted on its own
        monkeypatch.setattr(cv, "constant_curvature_fit", None)
        assert cli.main(["wick", "--grid", WICK_GRID]) == 0
        out = capsys.readouterr().out
        assert out == (GOLDEN / "wick-3x3x3.jsonl").read_text()
        assert checks[0] == 9
        assert fits == [9]

    def test_no_check_inside_fits(self, checks):
        for kind, (_, (lo, hi)) in CHARTS.items():
            cv.constant_curvature_fit(sp.chart_metric(kind),
                                      (0.5 * (lo + hi), 0.2, 0.3))
        cv.constant_curvature_fit(bh.btz_chart_metric(bh.BTZParams(1.2, 0.4)),
                                  (0.0, 2.4, 0.3))
        assert checks[0] == 0
        bh.btz_metric(0.0, 2.4, 0.3, bh.BTZParams(1.2, 0.4))
        assert checks[0] == 1


def fit_reference(metric, x, h=1e-3):
    """`constant_curvature_fit` on the scalar oracle, with its calls of
    metric in their order: x, then 12 + 12 x 13 in a 3-D fit."""
    x = np.asarray(x, dtype=float)
    g = np.asarray(metric(x), dtype=float)
    r = riemann_loop(metric, x, h, g)
    pattern = np.einsum("jk,il->ijkl", g, g) - np.einsum("ik,jl->ijkl", g, g)
    kappa = float(np.sum(r * pattern)) / float(np.sum(pattern * pattern))
    resid = float(np.max(np.abs(r - kappa * pattern)) /
                  max(np.max(np.abs(pattern)), 1e-30))
    return kappa, resid


def evaluated(fit, metric, x):
    """The points at which fit(metric, x) calls metric, as bytes, in
    call order."""
    points = []

    def recorded(p):
        points.append(np.array(p, dtype=float).tobytes())
        return metric(p)
    fit(recorded, x)
    return points


def oracle_cases(rng, per_chart):
    """Seeded (metric, point) pairs: the four charts at a0 = 1, 8 and inf,
    BTZ (extremal included), the sphere and H^2."""
    cases = []
    for kind, (_, (lo, hi)) in CHARTS.items():
        for a0 in (1.0, 8.0, sp.INF):
            cases += [(sp.chart_metric(kind, a0),
                       (rng.uniform(lo, hi), rng.uniform(-1.0, 2.0),
                        rng.uniform(-1.0, 1.0))) for _ in range(per_chart)]
    for ratio in (0.0, 0.3, 0.6, 1.0):
        rp = rng.uniform(0.8, 2.0)
        cases.append((bh.btz_chart_metric(bh.BTZParams(rp, rp * ratio)),
                      (rng.uniform(-1, 1), rp * rng.uniform(1.5, 3.0),
                       rng.uniform(0, 6))))
    for _ in range(per_chart):
        cases += [(oracles.sphere_metric, (rng.uniform(0.3, 2.8), rng.uniform(-3, 3))),
                  (oracles.hyperbolic_metric, (rng.uniform(-3, 3), rng.uniform(0.2, 3)))]
    return cases


class TestFitCentre:
    def test_evaluations_per_fit(self):
        for kind, x in (("ads", (1.3, 0.2, 0.3)), ("flat", (0.5, 0.0, -0.0)),
                        ("wick", (1.5, -0.0, 0.0))):
            chart = sp.chart_metric(kind)
            new = evaluated(cv.constant_curvature_fit, chart, x)
            ref = evaluated(fit_reference, chart, x)
            # 1 centre + 12 stencil points for Gamma there + 12 x 13 for dGamma
            assert len(ref) == 169
            # no point twice, and the points of the reference in its order
            # of first use; -0.0 and +0.0 are different points
            assert len(set(new)) == len(new) < 169
            assert set(new) == set(ref)
            assert new == list(dict.fromkeys(ref))

    def test_bitwise_equal_to_reference(self):
        rng = np.random.default_rng(5)
        cases = []
        for kind, (_, (lo, hi)) in CHARTS.items():
            for a0 in (1.0, 8.0, sp.INF):
                cases += [(sp.chart_metric(kind, a0),
                           (rng.uniform(lo, hi), rng.uniform(-1.0, 2.0),
                            rng.uniform(-1.0, 1.0))) for _ in range(2)]
        for _ in range(3):
            rp = rng.uniform(0.8, 2.0)
            params = bh.BTZParams(rp, rp * rng.uniform(0.0, 0.6))
            cases.append((bh.btz_chart_metric(params),
                          (rng.uniform(-1, 1), rp * rng.uniform(1.5, 3.0),
                           rng.uniform(0, 6))))
        for metric, x in cases:
            assert cv.constant_curvature_fit(metric, x) == fit_reference(metric, x)


class TestStencil:
    def test_bitwise_equal_to_scalar_oracle(self):
        for metric, x in oracle_cases(np.random.default_rng(23), 3):
            assert cv.constant_curvature_fit(metric, x) == fit_reference(metric, x)
            assert np.array_equal(oracles.riemann(metric, x), riemann_loop(metric, x))
            planes = [(0, 1)] if len(x) == 2 else [(0, 1), (0, 2), (1, 2)]
            for plane in planes:
                assert oracles.sectional_curvature(metric, x, plane) == \
                    sectional_reference(metric, x, plane)

    def test_domain_edge_raises_at_reference_point(self):
        # the stencil of a point 4e-4 above T = 1 leaves the Wick domain
        chart = sp.chart_metric("wick")
        x = (1.0 + 4e-4, 0.2, 0.3)
        seen = []
        for fit in (cv.constant_curvature_fit, fit_reference):
            points = []

            def recorded(p):
                points.append(np.array(p, dtype=float).tobytes())
                return chart(p)
            with pytest.raises(DomainError) as err:
                fit(recorded, x)
            seen.append((str(err.value), points[-1]))
        assert seen[0] == seen[1]

    @pytest.mark.parametrize("a0", [1.0, 8.0, sp.INF])
    def test_public_wrapper_equals_raw_chart(self, a0):
        # the checked form the benchmark fits: LocalPoint(T, u, zeta, a0)
        def public(x):
            return sp.rescale_ds(sp.LocalPoint(x[0], x[2], x[1], a0)).components
        rng = np.random.default_rng(3)
        raw = sp.chart_metric("ds", a0)
        for _ in range(3):
            x = (rng.uniform(0.25, 0.85), rng.uniform(-0.9, 2.0),
                 rng.uniform(-0.8, 0.8))
            assert cv.constant_curvature_fit(public, x) == \
                cv.constant_curvature_fit(raw, x)


def bits(a):
    """The bytes of a float array: -0.0 and +0.0 differ, as do the last
    bits of the components."""
    return np.asarray(a, dtype=float).tobytes()


def seeded_rows(rng, kind, a0, n):
    """3n seeded (T, zeta, u) rows in the domain of `kind`, n in each
    regime (none in the third for a0 = inf), then rows on the seams
    zeta = +0.0, -0.0 and (for finite a0) zeta = a0 / T."""
    lo, hi = CHARTS[kind][1]
    T = rng.uniform(lo, hi, 3 * n)
    seam = a0 / T[n:2 * n] if a0 != sp.INF else 3.0
    zeta = np.concatenate([rng.uniform(-1.0, 0.0, n),
                           rng.uniform(0.0, 1.0, n) * seam,
                           a0 / T[2 * n:] + rng.uniform(0.0, 1.5, n)])
    rows = np.column_stack([T, zeta, rng.uniform(-1.0, 1.0, 3 * n)])
    T = rng.uniform(lo, hi, 4)
    seams = [(t, z, 0.3) for t in T for z in (0.0, -0.0)]
    if a0 != sp.INF:
        seams += [(t, a0 / t, 0.3) for t in T]
    return np.concatenate([rows, seams])


class TestLocalPointDomain:
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("axis", [0, 1, 2])
    @pytest.mark.parametrize("a0", [1.0, sp.INF])
    def test_non_finite_coordinate_refused(self, a0, axis, value):
        coords = [1.5, 0.1, 0.2]
        coords[axis] = value
        with pytest.raises(DomainError):
            sp.LocalPoint(*coords, a0)

    @pytest.mark.parametrize("T", [0.0, -0.5, -math.inf, math.nan])
    def test_time_not_positive(self, T):
        with pytest.raises(DomainError, match="must be positive"):
            sp.LocalPoint(T, 0.1, 0.2)

    @pytest.mark.parametrize("a0", [1.0, 8.0, sp.INF])
    def test_finite_point_in_every_weight(self, a0):
        p = sp.LocalPoint(1.5, -3.0, 40.0, a0)
        assert np.isfinite(sp.wick_rotate(p)).all()
        assert sp.flat_metric(p).signature == "lorentzian"


class TestStackedChartMetric:
    @pytest.mark.parametrize("a0", [1.0, 8.0, sp.INF])
    @pytest.mark.parametrize("kind", sorted(CHARTS))
    def test_bitwise_equal_to_pointwise(self, kind, a0):
        # 2000 draws per regime: numpy's array x ** 2 is x * x, which
        # differs from the pointwise pow in the last bit on about 1 draw
        # in 1000
        rows = seeded_rows(np.random.default_rng(31), kind, a0, 2000)
        chart = sp.chart_metric(kind, a0)
        stack = chart(rows)
        assert stack.shape == (len(rows), 3, 3)
        assert bits(stack) == bits([chart(x) for x in rows])
        assert bits(stack) == bits([chart(tuple(x.tolist())) for x in rows])
        regimes = {sp.regime(T, z, a0) for T, z, _ in rows}
        assert regimes == ({1, 2} if a0 == sp.INF else {1, 2, 3})

    @pytest.mark.parametrize("a0", [1.0, 8.0, sp.INF])
    @pytest.mark.parametrize("kind", sorted(CHARTS))
    def test_never_reads_u(self, kind, a0):
        # the model is invariant along the leaf, which `wick` relies on
        # to sample and fit each (T, zeta) column once
        rng = np.random.default_rng(43)
        rows = seeded_rows(rng, kind, a0, 200)
        moved = rows.copy()
        moved[:, 2] = rng.uniform(-40.0, 40.0, len(rows))
        chart = sp.chart_metric(kind, a0)
        assert np.array_equal(chart(rows), chart(moved))
        assert bits(chart(rows)) == bits(chart(moved))

    def test_squares_and_cosh_by_libm(self):
        # numpy's array x ** 2 (x * x) differs from pow on about 180 of
        # 200,000 such draws, and its SIMD cosh may differ from libm's;
        # then the shapes of a stencil's columns: long runs of one value,
        # a value back after others, +0.0 and -0.0 in one run, one value
        # and one entry
        for v in (np.random.default_rng(37).uniform(-3.0, 3.0, 200_000),
                  np.repeat([0.7, -1.9, 0.7, 2.4, -1.9], [40, 1, 3, 200, 12]),
                  np.array([0.0, -0.0, -0.0, 0.0, 1.5, -0.0, 0.0]),
                  np.full(25, -1.25), np.array([-0.0])):
            assert bits(sp._pow2(v)) == bits([x ** 2 for x in v.tolist()])
            assert bits(sp._cosh2(v)) == bits([math.cosh(x) ** 2
                                               for x in v.tolist()])
        # the universal functions over the T column of stencil stacks,
        # over one value and over one entry
        for kind, (_, (lo, hi)) in CHARTS.items():
            functions, mid = sp._RESCALINGS[kind][0], 0.5 * (lo + hi)
            stencils = cv._stencils(np.array([(mid, 0.2, 0.1),
                                              (lo + 0.01, -0.3, 0.0),
                                              (hi - 0.01, 0.4, -0.0)]))
            for T in (stencils[..., 0].ravel(), np.full(30, mid),
                      np.array([mid])):
                assert bits(sp._by_value(functions, T)) == bits(
                    [functions(t) for t in T.tolist()])

    @pytest.mark.parametrize("kind,rows,message", [
        ("wick", [(1.5, 0.2, 0.3), (0.5, 0.2, 0.3), (-1.0, 0.2, 0.3)],
         "the Wick rotation needs T > 1"),
        ("wick", [(1.5, 0.2, 0.3), (0.0, 0.2, 0.3), (0.5, 0.2, 0.3)],
         "cosmological time must be positive"),
        ("ds", [(0.5, 0.2, 0.3), (1.0, 1.5, 0.3)],
         "the de Sitter rescaling needs 0 < T < 1"),
        ("flat", [(0.5, 0.2, 0.3), (-0.5, 0.2, 0.3)],
         "cosmological time must be positive"),
    ])
    def test_error_of_the_first_failing_row(self, kind, rows, message):
        chart = sp.chart_metric(kind)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError) as err:
                chart(np.array(rows))
        assert str(err.value) == message
        # the error of the pointwise calls, row by row
        with pytest.raises(DomainError) as err:
            for x in rows:
                chart(x)
        assert str(err.value) == message


class TestStackedFits:
    @pytest.mark.parametrize("a0", [1.0, 8.0, sp.INF])
    @pytest.mark.parametrize("kind", sorted(CHARTS))
    def test_bitwise_equal_to_reference(self, kind, a0):
        rng = np.random.default_rng(41)
        lo, hi = CHARTS[kind][1]
        xs = [(rng.uniform(lo, hi), rng.uniform(-1.0, 2.0),
               rng.uniform(-1.0, 1.0)) for _ in range(3)]
        xs += [(0.5 * (lo + hi), -0.0, 0.0), (0.5 * (lo + hi), 0.0, -0.0)]
        chart = sp.chart_metric(kind, a0)
        fits = cv.constant_curvature_fits(chart, xs)
        assert fits == [fit_reference(chart, x) for x in xs]
        assert fits == [cv.constant_curvature_fit(chart, x) for x in xs]

    def test_no_points(self):
        assert cv.constant_curvature_fits(sp.chart_metric("wick"), []) == []

    def test_one_metric_call_for_all_stencils(self):
        chart = sp.chart_metric("ads")
        calls = []

        def recorded(xs):
            calls.append(xs.shape)
            return chart(xs)
        cv.constant_curvature_fits(recorded, [(1.3, 0.2, 0.3), (0.6, -0.4, 0.1)])
        # 2 stencils of 1 + 12 + 144 points each, repeats included
        assert calls == [(2 * 157, 3)]


def stencil_points(rng, m, n):
    """m seeded points of n coordinates: values over three decades down
    to the step, where (x + s) + t and (x + t) + s often differ in the
    last bit, +0.0 and -0.0, values so large that x + STEP == x, and
    tiny ones, drawn coordinate by coordinate."""
    pool = np.array([0.0, -0.0, 1e20, -3e17, 1e-300, -5e-324, 2e-9])
    xs = rng.uniform(-3.0, 3.0, (m, n)) * 10.0 ** rng.uniform(-3, 0, (m, n))
    special = rng.random((m, n)) < 0.5
    xs[special] = rng.choice(pool, special.sum())
    xs[0, :2] = -0.0, 1e20  # at least one of each kind in every case
    if m > 1:
        xs[1, :2] = 0.0, 1e-300
    return xs


class TestStencilTables:
    """`_stencils` from the cached index tables and `_pattern` from one
    outer product, bit for bit against the forms they replaced."""

    @pytest.mark.parametrize("m", [1, 3, 9])
    @pytest.mark.parametrize("n", [2, 3])
    def test_stencils_equal_the_reference(self, n, m):
        rng = np.random.default_rng(100 * n + m)
        for _ in range(5):
            xs = stencil_points(rng, m, n)
            new = cv._stencils(xs)
            assert new.shape == (m, 1 + 4 * n + 16 * n * n, n)
            assert bits(new) == bits(oracles.stencils_reference(xs))

    def test_tables_are_cached_and_read_only(self):
        assert cv._stencil_tables(3) is cv._stencil_tables(3)
        size, first, second = cv._stencil_tables(3)
        assert size == 157
        for table in first + second:
            with pytest.raises(ValueError):
                table[0] = 0

    @pytest.mark.parametrize("m", [1, 3, 9])
    @pytest.mark.parametrize("n", [2, 3])
    def test_pattern_equals_the_reference(self, n, m):
        rng = np.random.default_rng(7 * n + m)
        g = rng.normal(size=(m, n, n)) * 10.0 ** rng.uniform(-3, 3, (m, 1, 1))
        sym = g + g.transpose(0, 2, 1)
        # one ulp off symmetric, and entries of -0.0 and +0.0
        skew = sym.copy()
        skew[:, 0, 1] = np.nextafter(skew[:, 0, 1], np.inf)
        zeros = sym.copy()
        zeros[:, 0, 1], zeros[:, 1, 0] = -0.0, 0.0
        for case in (sym, skew, g, zeros):
            assert bits(cv._pattern(case)) == \
                bits(oracles.fit_pattern_reference(case))


class TestFitDomain:
    """A point of the wrong rank, of one coordinate or not finite is
    refused before the metric is evaluated, by the pointwise and by the
    stacked fit; metric values of the wrong shape are a StructureError,
    and a singular sample a DomainError."""

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_non_finite_point_refused(self, axis, value):
        calls = []

        def recorded(xs):
            calls.append(xs)
            return sp.chart_metric("ads")(xs)
        x = [1.5, 0.2, 0.3]
        x[axis] = value
        with pytest.raises(DomainError, match="finite points"):
            cv.constant_curvature_fit(recorded, x)
        with pytest.raises(DomainError, match="finite points"):
            cv.constant_curvature_fits(recorded, [(1.3, 0.2, 0.3), x])
        assert calls == []

    @staticmethod
    def recorded(metric):
        """metric, and the list of the points it was called on."""
        calls = []

        def call(x):
            calls.append(x)
            return metric(x)
        return call, calls

    @pytest.mark.parametrize("xs", [(0.5, 0.2, 0.1), 0.5, [[[0.5, 0.2]]],
                                    [(0.5, 0.2, 0.1), (0.5, 0.2)]])
    def test_stack_of_another_rank_refused(self, xs):
        # one point where a list is due, a number, a deeper nesting, and
        # points of two dimensions
        metric, calls = self.recorded(sp.chart_metric("ds"))
        with pytest.raises(DomainError, match="a list of points"):
            cv.constant_curvature_fits(metric, xs)
        assert calls == []

    @pytest.mark.parametrize("x", [[[0.5, 0.2, 0.1]], 0.5, "abc"])
    def test_point_of_another_rank_refused(self, x):
        metric, calls = self.recorded(sp.chart_metric("ds"))
        with pytest.raises(DomainError, match="a point"):
            cv.constant_curvature_fit(metric, x)
        assert calls == []

    def test_one_dimension_refused(self):
        # the fit of a 1-D metric divided 0 by 0 into (nan, nan)
        metric, calls = self.recorded(lambda x: np.array([[1.0]]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="at least 2 coordinates"):
                cv.constant_curvature_fit(metric, (0.3,))
            with pytest.raises(DomainError, match="at least 2 coordinates"):
                cv.constant_curvature_fits(metric, [(0.3,), (0.4,)])
        assert calls == []

    def test_metric_of_another_dimension(self):
        # 2-D points fed to a 3-D metric: its (3, 3) values are refused
        chart = sp.chart_metric("ds")
        with pytest.raises(StructureError, match=r"3, 3\) where .*2, 2\)"):
            cv.constant_curvature_fit(chart, (0.5, 0.2))
        with pytest.raises(StructureError,
                           match=r"\(73, 3, 3\) where \(73, 2, 2\)"):
            cv.constant_curvature_fits(chart, [(0.5, 0.2)])
        # and values of no one shape
        ragged = iter([np.eye(2)] + [np.eye(3)] * 100)
        with pytest.raises(StructureError, match="one shape"):
            cv.constant_curvature_fit(lambda x: next(ragged), (0.5, 0.2))

    def test_singular_sample(self):
        g = np.diag([0.0, 1.0, 1.0])
        with pytest.raises(DomainError, match="nondegenerate"):
            cv.constant_curvature_fit(lambda x: g, (0.5, 0.2, 0.1))
        with pytest.raises(DomainError, match="nondegenerate"):
            cv.constant_curvature_fits(
                lambda xs: np.broadcast_to(g, (len(xs), 3, 3)),
                [(0.5, 0.2, 0.1), (0.6, 0.2, 0.1)])


# the grids of the golden wick streams, and one whose second point's
# stencil reaches below T = 1
WICK_GRID = "T=1.2:2.8:3,u=-0.8:0.8:3,zeta=-0.9:1.3:3"
EDGE_GRID = "T=2:1.0015:2,u=0:0:1,zeta=-0.5:-0.5:1"


def grid_points(spec):
    grid = cli.parse_grid(spec, ("T", "u", "zeta"))
    return [(T, z, u) for T in grid["T"] for u in grid["u"]
            for z in grid["zeta"]]


class TestStackedWarnings:
    """The stacked metric evaluates no formula on a row it rejects, nor a
    regime's formula on the rows of another: no RuntimeWarning."""

    @pytest.mark.parametrize("a0", [1.0, 8.0, sp.INF])
    def test_golden_grids(self, a0):
        chart = sp.chart_metric("wick", a0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fits = cv.constant_curvature_fits(chart, grid_points(WICK_GRID))
        assert len(fits) == 27

    def test_grid_leaving_the_domain(self):
        chart = sp.chart_metric("wick")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="needs T > 1"):
                cv.constant_curvature_fits(chart, grid_points(EDGE_GRID))
            with pytest.raises(DomainError, match="must be positive"):
                cv.constant_curvature_fits(sp.chart_metric("flat"),
                                           [(1.0, 0.2, 0.3), (1e-3, 0.2, 0.3)])


class TestFlatMetric:
    def test_band_components(self):
        g = sp.flat_metric(pt(2.0, 0.2, 0.3)).components
        T, z = 2.0, 0.2
        assert g[1, 1] == pytest.approx(T * T)
        assert g[2, 2] == pytest.approx(T * T)
        # the chart zeta = arc/T carries cross terms inside the band;
        # they vanish on the seam zeta = 0 only and equal a0 (g_{T,zeta})
        # and (a0/T)^2 (in g_TT) on the seam zeta = a0/T
        assert g[0, 1] == pytest.approx(T * z)
        assert g[0, 0] == pytest.approx(-1.0 + z * z)

    def test_wing_components(self):
        g = sp.flat_metric(pt(2.0, -0.7, 0.3)).components
        assert np.allclose(g, np.diag([-1.0, 4.0, 4.0 * math.cosh(0.7) ** 2]))

    def test_continuity_across_seams(self):
        for z0 in (0.0, 0.5):
            lo = sp.flat_metric(pt(2.0, z0 - 1e-12, 0.3)).components
            hi = sp.flat_metric(pt(2.0, z0 + 1e-12, 0.3)).components
            assert np.allclose(lo, hi, atol=1e-9)

    def test_metric_is_embedding_pullback(self):
        for (T, z, u) in [(2.0, -0.5, 0.3), (2.0, 0.2, 0.3), (2.0, 0.9, 0.3)]:
            g1 = numeric_pullback(
                lambda x: sp.flat_embedding(pt(x[0], x[1], x[2])),
                (T, z, u), ETA3)
            g2 = sp.flat_metric(pt(T, z, u)).components
            assert np.allclose(g1, g2, atol=1e-8)

    def test_flat_curvature(self):
        for x in [(2.0, -0.5, 0.3), (2.0, 0.2, 0.3), (1.5, 0.6, 0.1)]:
            k, resid = cv.constant_curvature_fit(
                lambda y: sp.flat_metric(pt(*y)).components, x)
            assert abs(k) < 1e-5 and resid < 1e-5

    def test_infinite_weight_drops_third_regime(self):
        p = pt(2.0, 100.0, 0.0, a0=sp.INF)
        assert p.regime == 2

    def test_gauss_map_constant_along_ct_rays(self):
        # wings/band: rays are (u, zeta) = const; third regime rays keep
        # zeta' = zeta - a0/T constant
        for z, u in [(-0.4, 0.2), (0.1, 0.5)]:
            n1 = sp.flat_gauss_map(pt(2.0, z, u))
            n2 = sp.flat_gauss_map(pt(3.7, z, u))
            assert np.allclose(n1, n2, atol=1e-12)
        zp, u = 0.3, -0.2
        n1 = sp.flat_gauss_map(pt(2.0, zp + 0.5, u))
        n2 = sp.flat_gauss_map(pt(4.0, zp + 0.25, u))
        assert np.allclose(n1, n2, atol=1e-12)


class TestWick:
    def test_unit_hyperboloid(self):
        for x in [(2.0, -0.5, 0.3), (2.0, 0.2, 0.3), (2.0, 0.9, 0.3)]:
            v = sp.wick_rotate(pt(*x))
            assert v @ ETA4 @ v == pytest.approx(-1.0, abs=1e-12)

    def test_out_of_domain(self):
        with pytest.raises(DomainError):
            sp.wick_rotate(pt(0.9, 0.0, 0.0))

    @pytest.mark.parametrize("a0", [1.0, 8.0, sp.INF])
    def test_plain_floats_are_the_array_form(self, a0):
        # seeded_rows' third block is at zeta = inf when a0 = inf
        rows = seeded_rows(np.random.default_rng(53), "wick", a0, 300)
        points = [pt(T, z, u, a0) for T, z, u in rows.tolist()
                  if z < sp.INF]
        points += [pt(1.7, z, u, a0) for z in (0.0, -0.0, -0.6, 0.4, 9.0)
                   for u in (0.0, -0.0, 0.8)]
        assert {p.regime for p in points} == (
            {1, 2} if a0 == sp.INF else {1, 2, 3})
        assert bits([sp.wick_rotate(p) for p in points]) == bits(
            [oracles.wick_rotate_reference(p) for p in points])

    def test_pullback_matches_universal_functions(self):
        # horizontal x 1/(T^2-1), vertical x 1/(T^2-1)^2
        for (T, z, u) in [(2.0, -0.5, 0.3), (2.0, 0.2, 0.3), (1.3, 0.9, -0.4)]:
            g1 = numeric_pullback(
                lambda x: sp.wick_rotate(pt(x[0], x[1], x[2])), (T, z, u), ETA4)
            g2 = sp.wick_metric(pt(T, z, u)).components
            assert np.max(np.abs(g1 - g2)) / np.max(np.abs(g2)) < 1e-6

    def test_seam_c1(self):
        f = lambda x: sp.wick_rotate(pt(x[0], x[1], x[2]))
        for z0 in (0.0, 0.5):
            x = (2.0, z0, 0.3)
            j1 = one_sided_jac(f, x, -1)
            j2 = one_sided_jac(f, x, +1)
            assert np.max(np.abs(j1 - j2)) < 1e-6

    def test_image_curvature(self):
        for x in [(2.0, -0.5, 0.3), (2.0, 0.2, 0.3), (1.5, 0.8, 0.1)]:
            k, resid = cv.constant_curvature_fit(
                lambda y: sp.wick_metric(pt(*y)).components, x)
            assert abs(k + 1.0) < 1e-4 and resid < 1e-4

    def test_boundary_distance(self):
        # distance from the bent boundary satisfies arctanh(1/T)
        T, z, u = 2.0, -0.5, 0.3
        v = sp.wick_rotate(pt(T, z, u))
        boundary = np.array([math.cosh(z) * math.cosh(u),
                             math.cosh(z) * math.sinh(u), math.sinh(z), 0.0])
        assert oracles.dist_h3(v, boundary) == pytest.approx(
            sp.hyperbolic_boundary_distance(T), abs=1e-12)


class TestDeSitter:
    def test_curvature_plus_one(self):
        for x in [(0.3, -0.5, 0.3), (0.5, 0.2, 0.4), (0.85, 0.9, 0.1),
                  (0.5, 2.945, -0.5)]:
            k, resid = cv.constant_curvature_fit(
                lambda y: sp.rescale_ds(pt(*y)).components, x)
            assert abs(k - 1.0) < 1e-4 and resid < 1e-4

    def test_out_of_domain(self):
        with pytest.raises(DomainError):
            sp.rescale_ds(pt(1.2, 0.0, 0.0))

    def test_cosmological_time_by_quadrature(self):
        # the proper time of the rescaled metric along the gradient line
        # (the T-line through a wing point, orthogonal to the levels) is
        # the de Sitter cosmological time arctanh(T)
        T = 0.8
        ts = np.linspace(1e-9, T, 20001)
        xs = np.column_stack([ts, np.full_like(ts, -0.5), np.zeros_like(ts)])
        g = sp.chart_metric("ds")(xs)
        assert np.all(g[:, 0, 1] == 0.0)
        tau = np.trapezoid(np.sqrt(-g[:, 0, 0]), ts)
        assert tau == pytest.approx(math.atanh(T), abs=1e-8)

    def test_small_T_limit(self):
        # alpha -> 1: the rescaled horizontal block matches the flat one
        p = pt(1e-5, 0.2, 0.4)
        g = sp.rescale_ds(p).components
        h = sp.flat_metric(p).components
        assert np.allclose(g[1:, 1:], h[1:, 1:], rtol=1e-9)


class TestAdsMap:
    def test_unit_determinant(self):
        for x in [(2.0, -0.5, 0.3), (1.5, 0.1, 0.2), (2.0, 0.9, 0.3),
                  (0.4, 0.2, -0.6)]:
            m = sp.ads_map(pt(*x))
            assert iso.det(m) == pytest.approx(1.0, abs=1e-10)

    def test_pullback_matches_universal_functions(self):
        for (T, z, u) in [(2.0, -0.5, 0.3), (1.5, 0.1, 0.2), (0.4, 0.2, -0.6),
                          (2.2, 1.4, -0.5)]:
            def f(x):
                return sp.ads_map(pt(x[0], x[1], x[2])).flatten()

            x = np.asarray((T, z, u))
            cols = []
            for k in range(3):
                xp, xm = x.copy(), x.copy()
                xp[k] += 1e-6
                xm[k] -= 1e-6
                cols.append((f(xp) - f(xm)) / 2e-6)
            G = np.zeros((3, 3))
            for i in range(3):
                for j in range(3):
                    a = cols[i].reshape(2, 2)
                    b = cols[j].reshape(2, 2)
                    # polarization of q(A) = -det A
                    G[i, j] = -0.5 * (iso.det(a + b) - iso.det(a) - iso.det(b))
            expected = sp.ads_metric(pt(T, z, u)).components
            assert np.max(np.abs(G - expected)) < 1e-6

    def test_band_display_in_adapted_chart(self):
        # -dtau^2 + sin^2 tau (dzeta^2 + du^2), band chart s = zeta T
        T, z, u = 1.5, 0.1, 0.2
        tau = math.atan(T)
        g = sp.ads_metric(pt(T, z, u)).components
        dT = 1.0 / math.cos(tau) ** 2
        s = z * T
        A = np.array([[dT, 0.0, 0.0],
                      [-(s / T ** 2) * dT, 1.0 / T, 0.0],
                      [0.0, 0.0, 1.0]])
        gg = A.T @ g @ A
        expected = np.diag([-1.0, math.cos(tau) ** 2, math.sin(tau) ** 2])
        assert np.max(np.abs(gg - expected)) < 1e-12

    def test_seam_c1(self):
        def f(x):
            return sp.ads_map(pt(x[0], x[1], x[2])).flatten()
        for z0 in (0.0, 0.5):
            x = (2.0, z0, 0.3)
            j1 = one_sided_jac(f, x, -1)
            j2 = one_sided_jac(f, x, +1)
            assert np.max(np.abs(j1 - j2)) < 1e-6

    def test_image_curvature(self):
        for x in [(2.0, -0.5, 0.3), (1.5, 0.1, 0.2), (0.7, 0.3, 0.4),
                  (2.2, 1.4, -0.5)]:
            k, resid = cv.constant_curvature_fit(
                lambda y: sp.ads_metric(pt(*y)).components, x)
            assert abs(k + 1.0) < 1e-4 and resid < 1e-4

    def test_ct_relation(self):
        # the AdS cosmological time is arctan(T): the proper time of the
        # metric along the gradient line, and the timelike distance from
        # x^- = 1 of the image of a wing point (trace 2 cos tau)
        for T, tau in ((1.0, math.pi / 4), (math.tan(0.3), 0.3)):
            ts = np.linspace(1e-9, T, 20001)
            xs = np.column_stack([ts, np.full_like(ts, -0.4),
                                  np.zeros_like(ts)])
            g = sp.chart_metric("ads")(xs)
            assert np.trapezoid(np.sqrt(-g[:, 0, 0]), ts) == \
                pytest.approx(tau, abs=1e-8)
            m = sp.ads_map(pt(T, -0.4, 0.2))
            assert math.acos(iso.tr(m) / 2.0) == pytest.approx(tau, abs=1e-12)


class TestWingWarpedProducts:
    # each wing metric is a pure warped product in the wing's own
    # coordinate: zeta on the hyperboloid wing, zeta' = zeta - a0/T on the
    # rotated wing, where the (T, zeta, u) chart keeps the cross term a0
    @pytest.mark.parametrize("T,z,u", [(2.0, -0.7, 0.3), (2.2, 1.4, -0.5)])
    def test_no_cross_terms(self, T, z, u):
        a0 = 1.0
        regime = pt(T, z, u, a0).regime
        assert regime in (1, 3)
        zw = z - a0 / T if regime == 3 else z

        def adapted(metric_of, T):
            # components in (T, zeta', u); the same wing point at level T
            zeta = zw + a0 / T if regime == 3 else zw
            p = pt(T, zeta, u, a0)
            assert p.regime == regime
            A = np.eye(3)
            if regime == 3:
                A[1, 0] = -a0 / T ** 2  # dzeta = dzeta' - (a0/T^2) dT
            return A.T @ metric_of(p).components @ A

        for metric_of, domain in ((sp.wick_metric, T > 1),
                                  (sp.ads_metric, True)):
            if not domain:
                continue
            g = adapted(metric_of, T)
            off = g - np.diag(np.diag(g))
            assert np.max(np.abs(off)) < 1e-8
        gd = adapted(sp.rescale_ds, 0.5)
        assert np.max(np.abs(gd - np.diag(np.diag(gd)))) < 1e-8


class TestCtLevelGeometry:
    """The level surface of the cosmological time at a is
    scale * Gr_{lambda / graft}(F): scale a and graft a in the flat
    model, sinh a and tanh a after the de Sitter rescaling (T = tanh a),
    sin a and tan a after the AdS one (T = tan a)."""

    LEVEL_T = {0: lambda a: a, 1: math.tanh, -1: math.tan}
    KIND = {0: "flat", 1: "ds", -1: "ads"}

    @classmethod
    def level_geometry(cls, a, kappa, alpha0=0.8):
        """(scale, 1 / graft) of the level at a, read off the chart
        metric: the wing is scale^2 (dzeta^2 + cosh^2 zeta du^2), and the
        band across zeta in [0, alpha0 / T] is alpha0 * scale / graft
        wide."""
        T, z = cls.LEVEL_T[kappa](a), -0.5
        metric = sp.chart_metric(cls.KIND[kappa], alpha0)
        wing = metric((T, z, 0.0))
        band = metric((T, 0.5 * alpha0 / T, 0.0))
        scale = math.sqrt(wing[1, 1])
        assert wing[2, 2] == pytest.approx(scale ** 2 * math.cosh(z) ** 2,
                                           rel=1e-14)
        width = math.sqrt(band[1, 1]) * (alpha0 / T)
        return scale, width / (alpha0 * scale)

    def test_flat_unit(self):
        assert self.level_geometry(1.0, 0) == (1.0, 1.0)

    def test_flat_band_width_constant(self):
        # width of the Euclidean band at level a is alpha0 regardless of a
        a0 = 0.8
        for a in (0.5, 1.0, 3.0):
            g = sp.flat_metric(sp.LocalPoint(a, 0.0, 0.4 * a0 / a, a0))
            # arc length of the zeta-line across the band at fixed T
            width = math.sqrt(g.components[1, 1]) * (a0 / a)
            assert width == pytest.approx(a0, abs=1e-12)

    def test_ads_limit(self):
        scale, graft = self.level_geometry(math.pi / 2 - 1e-9, -1)
        assert scale == pytest.approx(1.0, abs=1e-9)
        assert graft == pytest.approx(0.0, abs=1e-8)

    def test_ds_scaling(self):
        scale, graft = self.level_geometry(0.7, 1)
        assert scale == pytest.approx(math.sinh(0.7))
        assert graft == pytest.approx(1.0 / math.tanh(0.7))

    def test_range_violation(self):
        # past a = pi / 2 the AdS level has T = tan a < 0, off the chart
        with pytest.raises(DomainError):
            self.level_geometry(2.0, -1)


PD = teich.PantDecomposition.once_punctured_torus()
FN = teich.FNPoint((1.0,), (2.0,), (0.3,))


class TestFlatHolonomy:
    def setup_method(self):
        self.h = teich.holonomy_from_fn(PD, FN)

    def test_empty_lamination_zero_translation(self):
        fam = lm.LiftFamily(lm.MultiCurveLam((0.0,)), self.h, depth=8)
        letters, conv = sp.flat_holonomy(fam, self.h)
        assert conv
        for g in letters:
            assert np.allclose(g[:3, 3], 0.0)

    def test_single_leaf_translation_vector(self):
        fam = lm.LiftFamily(lm.MultiCurveLam((0.7,)), self.h, depth=6)
        ax = iso.axis(self.h.curve("z0"))
        x0 = complex(0.137, 1.03)
        # pick a target across exactly the base leaf
        y = None
        for cand in (x0 + 3.0, x0 - 3.0, 1 / x0.real + 2j):
            leaves, _ = fam.crossings(x0, cand)
            if len(leaves) == 1:
                y = cand
                break
        assert y is not None
        s, _ = sp.translation_part(fam, x0, y)
        norm = s @ ETA3 @ s
        assert norm == pytest.approx(0.7 ** 2, abs=1e-10)
        # orthogonal to the leaf tangent and to the crossing point
        leaves, _ = fam.crossings(x0, y)
        geo = leaves[0].geodesic
        m = geo.map_from_standard()
        p1 = iso.h2_to_hyperboloid(iso.apply_h2(m, 1j))
        p2 = iso.h2_to_hyperboloid(iso.apply_h2(m, 2j))
        tangent = p2 - p1
        assert abs(s @ ETA3 @ p1) < 1e-9 or abs(s @ ETA3 @ (p1 / 0.7)) < 1e-9
        assert abs((s / 0.7) @ ETA3 @ tangent) < 1e-8

    def test_homomorphism(self):
        fam = lm.LiftFamily(lm.MultiCurveLam((0.7,)), self.h, depth=8)
        letters, conv = sp.flat_holonomy(fam, self.h)
        assert conv
        # every linear part preserves the Minkowski form
        for g in letters:
            a = g[:3, :3]
            scale = max(1.0, float(np.sum(a * a)))
            assert np.abs(a.T @ ETA3 @ a - ETA3).max() <= 1e-10 * scale
        # words are index lists into the stack; letter i ^ 1 inverts i
        rng = np.random.default_rng(2)
        for _ in range(200):
            w1 = rng.integers(len(letters), size=rng.integers(1, 3)).tolist()
            w2 = rng.integers(len(letters), size=rng.integers(1, 3)).tolist()
            g12 = oracles.affine_word(letters, w1 + w2)
            g1g2 = (oracles.affine_word(letters, w1)
                    @ oracles.affine_word(letters, w2))
            assert np.allclose(g12[:3, :3], g1g2[:3, :3], atol=1e-8)
            assert np.allclose(g12[:3, 3], g1g2[:3, 3], atol=1e-8)
            inverse = [i ^ 1 for i in reversed(w1)]
            assert np.allclose(oracles.affine_word(letters, w1 + inverse),
                               np.eye(4), atol=1e-8)

    def test_path_independence(self):
        fam = lm.LiftFamily(lm.MultiCurveLam((0.7,)), self.h, depth=8)
        x0 = complex(0.137, 1.03)
        y = iso.apply_h2(self.h.curve("zpp0"), x0)
        direct, _ = sp.translation_part(fam, x0, y)
        for mid in (0.5 * (x0 + y) + 0.4j, x0 + 0.2 + 0.9j, y - 0.1 + 0.5j):
            s1, _ = sp.translation_part(fam, x0, mid)
            s2, _ = sp.translation_part(fam, mid, y)
            assert np.allclose(direct, s1 + s2, atol=1e-9)


class TestRegularDomain:
    def setup_method(self):
        self.h = teich.holonomy_from_fn(PD, FN)
        self.empty = lm.LiftFamily(lm.MultiCurveLam((0.0,)), self.h, depth=4)
        self.fam = lm.LiftFamily(lm.MultiCurveLam((0.7,)), self.h, depth=5)

    def test_future_cone_point(self):
        # lamination empty: U contains the cone over H
        q = np.array([2.0, 0.1, -0.3])
        assert sp.regular_domain_contains(q, self.empty, self.h, depth=3)

    def test_past_point_outside(self):
        q = np.array([-1.0, 0.0, 0.0])
        assert not sp.regular_domain_contains(q, self.empty, self.h, depth=2)

    def test_level_point_of_local_model(self):
        # CT level point of the one-geodesic model: inside, with the
        # cosmological time recomputed from coordinates
        a0 = 0.7
        p = sp.LocalPoint(1.3, 0.2, 0.15, a0)
        q = sp.flat_embedding(p)
        assert oracles.local_model_ct(q, a0) == pytest.approx(1.3, abs=1e-12)
        samples = []
        for z in (-1.0, -0.4, -0.01):
            samples.append((sp.flat_gauss_map(sp.LocalPoint(1.0, 0.0, z, a0)),
                            np.zeros(3)))
        for z in (0.01, 0.4, 1.0):
            x = sp.flat_gauss_map(sp.LocalPoint(1.0, 0.0, z + a0, a0))
            samples.append((x, np.array([0.0, 0.0, a0])))
        for x, s in samples:
            assert (q - s) @ ETA3 @ x < 0

    def test_matches_the_per_point_rule(self):
        # seeded FN tori: s at the orbit points from the affine words
        # against translation_part, and the decision against the rule
        # that queries s at every sampled point, on points s(x) + T x
        # plus noise with |T| small, near the boundary of the domain; x
        # anywhere, an orbit point, or on a segment to one of the first
        # 15 orbit points, where the midpoints are sampled
        rng = np.random.default_rng(43)
        x0 = eq.BASE_POINT
        decisions = []
        for _ in range(20):
            fn = teich.FNPoint((rng.uniform(0.6, 2.0),),
                               (rng.uniform(0.8, 2.4),),
                               (rng.uniform(-0.5, 0.5),))
            h = teich.holonomy_from_fn(PD, fn)
            lam = lm.MultiCurveLam((rng.uniform(0.1, 0.9),))
            fam = lm.LiftFamily(lam, h, depth=5)
            words = np.concatenate([m for m, _ in h.word_levels(3)])
            aff = np.concatenate([m for m, _ in h.word_levels(
                3, letters=sp.flat_holonomy(fam, h)[0])])
            orbit = [iso.apply_h2(m, x0) for m in words]
            assert (aff[0, :3, 3] == 0.0).all()
            # relative to |s|, or to the weights' scale 1 where the
            # segment crosses no leaf and s = 0
            for x, w in zip(orbit[1:], aff[1:]):
                s, _ = sp.translation_part(fam, x0, x)
                err = np.abs(w[:3, 3] - s).max()
                assert err <= 1e-9 * max(1.0, np.abs(s).max())
            frames = lm.segment_frames(x0, orbit[1:16])
            for k in range(10):
                if k % 3 == 0:
                    x = complex(rng.uniform(-1.0, 1.0), rng.uniform(0.5, 2.0))
                elif k % 3 == 1:
                    x = orbit[rng.integers(1, len(orbit))]
                else:
                    # F^-1 takes the segment to [i, i e^d]
                    j = rng.integers(15)
                    top = iso.apply_h2(iso.inv(frames[j]), orbit[1 + j]).imag
                    x = iso.apply_h2(frames[j], 1j * top ** rng.uniform())
                s, _ = sp.translation_part(fam, x0, x)
                q = (s + rng.uniform(-0.05, 0.05) * iso.h2_to_hyperboloid(x)
                     + rng.normal(scale=0.01, size=3))
                depth = int(rng.integers(2, 5))
                want = oracles.regular_domain_direct(q, fam, h, depth)
                assert sp.regular_domain_contains(q, fam, h, depth) == want
                decisions.append(want)
        assert 40 <= sum(decisions) <= len(decisions) - 40

    def test_midpoints_on_triangulation_laminations(self):
        # plaques of a triangulation lamination are ideal triangles, and
        # many crossed by the segments hold no orbit point: the sample at
        # a midpoint alone refuses a point just past its support plane
        rng = np.random.default_rng(47)
        x0 = eq.BASE_POINT
        for tri in (teich.IdealTriangulation.once_punctured_torus(),
                    oracles.triangulation_three_punctured_sphere()) * 2:
            pt = teich.ShearPoint(tri, tuple(rng.uniform(0.0, 1.5, 3)))
            h = teich.holonomy_from_shear(pt)
            lam = lm.TriangulationLam.from_shear(
                pt, tuple(rng.uniform(0.05, 0.6, 3)))
            fam = lm.LiftFamily(lam, h, depth=7)
            words = np.concatenate([m for m, _ in h.word_levels(3)])
            mids = oracles.crossing_midpoints(
                fam, x0, [iso.apply_h2(m, x0) for m in words[1:16]])
            assert len(mids) > 10
            for m in mids:
                s, _ = sp.translation_part(fam, x0, m)
                y = iso.h2_to_hyperboloid(m)
                assert not sp.regular_domain_contains(s - 0.01 * y, fam, h, 3)
                q = (s + rng.uniform(-0.05, 0.05) * y
                     + rng.normal(scale=0.01, size=3))
                assert (sp.regular_domain_contains(q, fam, h, 3)
                        == oracles.regular_domain_direct(q, fam, h, 3))

    @staticmethod
    def surfaces():
        # FN once-punctured torus (word family and hexagon walk), the
        # rank-3 two-boundary torus of the scenarios (hexagon walk), and
        # a shear torus (triangle walk)
        x0 = eq.BASE_POINT
        h = teich.holonomy_from_fn(PD, FN)
        lam = lm.MultiCurveLam((0.7,))
        yield h, lm.LiftFamily(lam, h, depth=6)
        yield h, lm.realize(lam, h, 8, walk=True)
        data = scenario.load(Path(__file__).parents[1] / "scripts"
                             / "scenarios" / "torus_two_boundary.json")
        point, pd = scenario.surface_point(data)
        h = teich.holonomy_of(point, pd)
        yield h, lm.realize(scenario.lamination(data, point), h, 8,
                            walk=True)
        pt = teich.ShearPoint(teich.IdealTriangulation.once_punctured_torus(),
                              (-0.3, -0.5, -0.4))
        h = teich.holonomy_from_shear(pt)
        lam = lm.TriangulationLam.from_shear(pt, (0.2, 0.4, 0.3))
        yield h, lm.realize(lam, h, 8, walk=True)

    def test_one_crossings_query_per_call(self, monkeypatch):
        # the segments to the first 15 orbit points (the 2k letters' at
        # depth 1, words of length <= 2 beyond) are the call's one
        # crossings query, and their generator rows give letters bitwise
        # those of flat_holonomy; the decisions are the per-point rule's
        rng = np.random.default_rng(53)
        x0 = eq.BASE_POINT
        for h, fam in self.surfaces():
            want = sp.flat_holonomy(fam, h)[0]
            words = np.concatenate([m for m, _ in h.word_levels(2)])
            orbit = [iso.apply_h2(m, x0) for m in words]
            points = []
            for x in orbit[1:4] + [complex(rng.uniform(-1, 1),
                                           rng.uniform(0.5, 2))]:
                s, _ = sp.translation_part(fam, x0, x)
                y = iso.h2_to_hyperboloid(x)
                points += [s + 0.05 * y, s - 0.01 * y,
                           s + rng.normal(scale=0.02, size=3)]
            cases = [(q, d, oracles.regular_domain_direct(q, fam, h, d))
                     for q in points for d in (1, 2, 3)]
            queries, letters = [], []
            crossings_from = fam.crossings_from
            flat_holonomy = sp.flat_holonomy

            def counted(x, ys, *args):
                queries.append(len(ys))
                return crossings_from(x, ys, *args)

            def kept(*args):
                letters.append(flat_holonomy(*args)[0])
                return letters[-1], True
            monkeypatch.setattr(fam, "crossings_from", counted)
            monkeypatch.setattr(sp, "flat_holonomy", kept)
            for q, depth, decision in cases:
                queries.clear()
                assert sp.regular_domain_contains(q, fam, h, depth) == decision
                assert queries == [2 * len(h.gens) if depth == 1 else 15]
                assert letters.pop().tobytes() == want.tobytes()
            assert 0 < sum(c[2] for c in cases) < len(cases)
            monkeypatch.undo()


class TestMetricSampleType:
    def test_signature_enforced(self):
        with pytest.raises(Exception):
            sp.MetricSample(np.diag([1.0, 1.0, 1.0]), "lorentzian")
        sp.MetricSample(np.diag([-1.0, 1.0, 1.0]), "lorentzian")
        sp.MetricSample(np.diag([2.0, 1.0, 1.0]), "riemannian")

    def test_symmetry_rule_matches_allclose_form(self):
        rng = np.random.default_rng(17)
        cases = 0
        for _ in range(40):
            a = rng.normal(size=(3, 3))
            g = (a @ a.T + np.eye(3)) * 10.0 ** rng.integers(-3, 4)
            i, j = rng.choice(3, size=2, replace=False)
            slack = 1e-12 + 1e-5 * abs(g[j, i])
            # g[i, j] at, just inside and just outside the tolerance
            # boundary around g[j, i], of either sign, or well off
            variants = []
            for off in (slack, -slack, np.nextafter(slack, np.inf),
                        np.nextafter(slack, 0.0), 2.0 * slack * rng.uniform(),
                        10.0 * slack):
                m = g.copy()
                m[i, j] = g[j, i] + off
                variants.append(m)
            # NaN and +-inf off the diagonal, on both sides, opposite, or
            # on the diagonal
            for v in (np.nan, np.inf, -np.inf):
                for cells in ([(i, j)], [(i, j), (j, i)], [(i, i)]):
                    m = g.copy()
                    for c in cells:
                        m[c] = v
                    variants.append(m)
                m = g.copy()
                m[i, j], m[j, i] = v, -v
                variants.append(m)
            for m in variants:
                symmetric = bool(np.allclose(m, m.T, atol=1e-12))
                assert iso.allclose(m, m.T, 1e-12) == symmetric, m
                if not symmetric:
                    with pytest.raises(StructureError, match="symmetric"):
                        sp.MetricSample(m, "riemannian")
                elif np.isfinite(m).all():
                    sp.MetricSample(m, "riemannian")
                cases += 1
        assert cases > 600

    @staticmethod
    def _by_eigvalsh(g, signature):
        """The signature rule with np.linalg.eigvalsh deciding every
        sample, as MetricSample decided before its closed form."""
        negs = int(np.sum(np.linalg.eigvalsh(g) < 0))
        if negs != (1 if signature == "lorentzian" else 0):
            raise StructureError(f"{signature} sample has {negs} negative "
                                 "directions")

    def _outcome(self, check, g, signature):
        try:
            with np.errstate(invalid="ignore"):
                check(g, signature)
        except Exception as exc:
            return type(exc), str(exc)
        return None

    def test_signature_decision_matches_eigvalsh(self):
        rng = np.random.default_rng(29)
        samples = []
        # every inertia, eigenvalues from 1e-6 to 1e6 in a random frame;
        # every other sample has one eigenvalue shrunk by 1e-18 to 1e-6,
        # which puts it on either side of the closed form's 1e-8 cut
        for negs in range(4):
            for k in range(400):
                q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
                lam = 10.0 ** rng.uniform(-6.0, 6.0, 3)
                lam[:negs] *= -1.0
                if k % 2:
                    lam[rng.integers(3)] *= 10.0 ** rng.uniform(-18.0, -6.0)
                samples.append(q @ np.diag(rng.permutation(lam)) @ q.T)
        decided = []
        for g in samples:
            count = sp._negative_count(g.tolist())
            if count is not None:
                decided.append(count)
                assert count == int(np.sum(np.linalg.eigvalsh(g) < 0)), g
            for signature in ("lorentzian", "riemannian"):
                assert (self._outcome(sp.MetricSample, g, signature)
                        == self._outcome(self._by_eigvalsh, g, signature)), g
        # both sides of the cut are sampled, and every inertia is decided
        assert 400 < len(decided) < len(samples) - 400
        assert set(decided) == {0, 1, 2, 3}
        # symmetric samples with an infinite entry, in every cell and of
        # either sign, are refused for both signatures, with no numpy
        # error leaking (eigvalsh does not converge on some of them)
        base = np.array([[-1.0, 0.2, 0.1], [0.2, 2.0, 0.3], [0.1, 0.3, 1.5]])
        samples = [np.diag([v, 1.0, 1.0]) for v in (np.inf, -np.inf)]
        samples.append(np.diag([1.0, np.inf, -1.0]))
        for v in (np.inf, -np.inf):
            for i in range(3):
                for j in range(i, 3):
                    m = base.copy()
                    m[i, j] = m[j, i] = v
                    samples += [m, -m]
        for g in samples:
            for signature in ("lorentzian", "riemannian"):
                with pytest.raises(StructureError, match="finite"):
                    sp.MetricSample(g, signature)
