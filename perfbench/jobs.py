"""Seeded scenarios and job lists of the three workloads.

A job is one in-process call of ``quakebend.cli.main(argv)`` with its
stdout captured in memory, or one call of a public library function
that the CLI does not reach.  The seed fixes every input: the program
sees only the scenario files written here and the arguments of each
call.

A round holds the same number of jobs (INSTANCES) of every kind the
workload covers, no kind weighted over another; a kind is one command
or library call with its depth, target or suite.  Job sizes (grid shapes, depths, point counts)
do not depend on the seed, so every seed gives a round of the same
cost profile.

Library calls look their function up as a module attribute at call
time (``blackhole.omega_contains``), so the traced run's patches see
them.  Building the holonomies, lift families and points these calls
and the checks take is set-up, not job time.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass, field

import numpy as np

from quakebend import bending, blackhole, curvature, isometry, lamination
from quakebend import scenario, spacetime, teich

BASE_POINT = complex(0.137, 1.03)  # the library's default base point

PANTS_TORUS = {"num_pants": 1, "interior": [[[0, 0], [0, 1]]],
               "boundary": [[0, 2]]}
GLUING_TORUS = [[[0, 0], [1, 0]], [[0, 1], [1, 1]], [[0, 2], [1, 2]]]

# Generation ranges (README.md lists them too).
FN_BOUNDARY = (0.6, 2.0)      # l_C of the FN once-punctured torus
FN_INTERIOR = (0.8, 2.4)      # l_z
FN_TWIST = (-0.5, 0.5)        # t
FN_WEIGHT = (0.1, 0.9)        # multicurve weight on z
TORUS_SHEAR = (-0.6, -0.1)    # shear once-punctured torus, per edge
TRI_WEIGHT = (0.05, 0.6)      # triangulation lamination, per edge


@dataclass
class Job:
    """One timed operation and what its check needs.

    Exactly one of ``argv`` (a CLI call) and ``call`` (a zero-argument
    library call) is set.  ``expect`` holds the inputs the check
    recomputes its oracle from; callables in it run outside the timer.
    """

    kind: str
    argv: list | None = None
    call: object = None
    expect: dict = field(default_factory=dict)


def _u(rng, lo_hi):
    return rng.uniform(*lo_hi)


def fn_torus(rng):
    return {"version": 1, "surface": {"g": 1, "r": 1}, "pants": PANTS_TORUS,
            "fn": {"l": [_u(rng, FN_BOUNDARY), _u(rng, FN_INTERIOR)],
                   "t": [_u(rng, FN_TWIST)]},
            "lamination": {"family": "multicurve",
                           "weights": [_u(rng, FN_WEIGHT)]}}


def shear_torus(rng):
    return {"version": 1, "surface": {"g": 1, "r": 1},
            "shear": {"tri": {"num_triangles": 2, "gluing": GLUING_TORUS},
                      "s": [_u(rng, TORUS_SHEAR) for _ in range(3)]},
            "lamination": {"family": "triangulation",
                           "weights": [_u(rng, TRI_WEIGHT) for _ in range(3)]}}


SURFACES = {"fn_torus": fn_torus, "shear_torus": shear_torus}


class Scenarios:
    """Writes numbered scenario files into one directory."""

    def __init__(self, workdir):
        self.workdir = workdir
        self.count = 0

    def write(self, data):
        path = os.path.join(self.workdir, f"s{self.count:03d}.json")
        self.count += 1
        with open(path, "w") as fh:
            json.dump(data, fh)
        return path


def _fn_objects(data):
    pd = teich.PantDecomposition.once_punctured_torus()
    l, t = data["fn"]["l"], data["fn"]["t"]
    fn = teich.FNPoint((l[0],), (l[1],), tuple(t))
    lam = lamination.MultiCurveLam(tuple(data["lamination"]["weights"]))
    return pd, fn, lam


# ---------------------------------------------------------------------------
# bend_grid
# ---------------------------------------------------------------------------

# Both targets on both surface kinds.  The shear three-punctured sphere
# is left out: on some seeds its lifts make `bend` exit 3 ("crossing
# leaves in the lift family"; see CHANGES.md).
BEND_KINDS = [("fn_torus", "hyperbolic"), ("shear_torus", "ads"),
              ("shear_torus", "hyperbolic"), ("fn_torus", "ads")]
BEND_GRID = (14, 14)    # 196 points
BEND_DEPTH = 8


def _leaves(path, target):
    """(ends_minus, ends_plus, weights) of the leaves `bend` realizes for
    the scenario at `path`: the lift family the CLI builds, rebuilt by
    the check of the bent map so that no family is held between jobs."""
    data = scenario.load(path)
    point, pd = scenario.surface_point(data)
    ctx, _ = bending.make_context(point, scenario.lamination(data, point),
                                  depth=BEND_DEPTH, target=target, pd=pd)
    fam = ctx.family
    return fam.ends_minus, fam.ends_plus, fam.weights


def bend_grid(rng, scen):
    jobs = []
    nx, ny = BEND_GRID
    for kind, target in BEND_KINDS:
        path = scen.write(SURFACES[kind](rng))
        cx = rng.uniform(-0.5, 0.5)
        half = rng.uniform(1.0, 1.6)
        y0, y1 = rng.uniform(0.25, 0.5), rng.uniform(1.8, 2.6)
        grid = f"x={cx - half!r}:{cx + half!r}:{nx},y={y0!r}:{y1!r}:{ny}"
        jobs.append(Job(f"bend_{kind}_{target}",
                        argv=["bend", path, "--target", target,
                              "--depth", str(BEND_DEPTH), "--grid", grid],
                        expect={"target": target,
                                "x": (cx - half, cx + half, nx),
                                "y": (y0, y1, ny),
                                "leaves": lambda p=path, t=target:
                                    _leaves(p, t)}))
    return jobs


# ---------------------------------------------------------------------------
# deep_words
# ---------------------------------------------------------------------------

OMEGA_DEPTH = 6
REGULAR_DEPTH = 4


def _quake(rng, scen, depth):
    data = fn_torus(rng)
    side = rng.choice(["left", "right"])
    return Job(f"quake_d{depth}",
               argv=["quake", scen.write(data), "--side", side,
                     "--depth", str(depth)],
               expect={"fn": data["fn"], "weights": data["lamination"]["weights"],
                       "side": side})


def _blackhole(rng, scen, depth):
    data = fn_torus(rng)
    return Job(f"blackhole_d{depth}",
               argv=["blackhole", scen.write(data), "--depth", str(depth)],
               expect={"boundary_length": data["fn"]["l"][0]})


def _random_h2(rng):
    return complex(rng.uniform(-1.0, 1.0), rng.uniform(0.5, 2.0))


def _generators(h):
    return [g for n in h.gens for g in (h.gens[n], isometry.inv(h.gens[n]))]


def _timelike_to_a_translate(rng, h):
    """A point X of AdS (a matrix of SL(2, R)) timelike-related to its
    translate g X g^-1 by a generator g of h, |tr(X^-1 g X g^-1)| < 1.5:
    it lies outside Omega(h, h) at every depth >= 1.  Drawn by seeded
    rejection sampling; random matrices hit within a few dozen draws."""
    for _ in range(5000):
        a = np.array([[rng.uniform(-1, 1), rng.uniform(-1, 1)],
                      [rng.uniform(-1, 1), rng.uniform(-1, 1)]])
        d = a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
        if d < 0.1:
            continue
        x = a / math.sqrt(d)
        xi = np.linalg.inv(x)
        if min(abs(np.trace(xi @ g @ x @ np.linalg.inv(g)))
               for g in _generators(h)) < 1.5:
            return x
    raise RuntimeError("no point timelike-related to a translate was drawn")


def _omega(rng):
    """omega_contains for the Fuchsian pair (h, h): on a point of the
    Fuchsian plane (inside) and, in the check, on a point timelike-related
    to one of its translates (outside)."""
    pd, fn, _ = _fn_objects(fn_torus(rng))
    h = teich.holonomy_from_fn(pd, fn)
    x = isometry.ads_embed(_random_h2(rng))
    out = _timelike_to_a_translate(rng, h)
    return Job("omega",
               call=lambda: blackhole.omega_contains(x, h, h,
                                                     depth=OMEGA_DEPTH),
               expect={"shallower": lambda: blackhole.omega_contains(
                           x, h, h, depth=OMEGA_DEPTH - 1),
                       "outside": lambda: blackhole.omega_contains(
                           out, h, h, depth=OMEGA_DEPTH)})


def _regular(rng):
    """regular_domain_contains on a point s(x) + T x, T > 0, of a
    cosmological-time level surface (inside) and, in the check, on
    s(x1) + T' x1, T' < 0, in the past of the support plane at the orbit
    point x1 = g x0 that every depth samples (outside)."""
    pd, fn, lam = _fn_objects(fn_torus(rng))
    h = teich.holonomy_from_fn(pd, fn)
    fam = lamination.LiftFamily(lam, h, depth=8)

    def level_point(x, T):
        s, _ = spacetime.translation_part(fam, BASE_POINT, x)
        return T * isometry.h2_to_hyperboloid(x) + s
    q = level_point(_random_h2(rng), rng.uniform(0.3, 3.0))
    x1 = isometry.apply_h2(_generators(h)[0], BASE_POINT)
    q_out = level_point(x1, rng.uniform(-3.0, -0.3))
    return Job("regular_domain",
               call=lambda: spacetime.regular_domain_contains(
                   q, fam, h, depth=REGULAR_DEPTH),
               expect={"shallower": lambda: spacetime.regular_domain_contains(
                           q, fam, h, depth=REGULAR_DEPTH - 1),
                       "outside": lambda: spacetime.regular_domain_contains(
                           q_out, fam, h, depth=REGULAR_DEPTH)})


def deep_words(rng, scen):
    return [_quake(rng, scen, 12), _omega(rng), _blackhole(rng, scen, 8),
            _quake(rng, scen, 10), _regular(rng), _blackhole(rng, scen, 7)]


# ---------------------------------------------------------------------------
# metric_oracle
# ---------------------------------------------------------------------------

WICK_ALPHA0 = (1.0, 8.0, math.inf)
VERIFY_SUITES = ("wick", "ds", "ads-model", "btz")


def regime(T, zeta, alpha0):
    """Chart regime of the local model: 1 wing, 2 band, 3 rotated wing."""
    if zeta < 0:
        return 1
    return 2 if zeta <= alpha0 / T else 3


def _wick(rng, alpha0):
    """A 3x3x3 grid whose zeta rows lie in the wing, in the band and (for
    alpha0 = 1) in the rotated wing at every T, each at least 0.05 from
    the seams, so that every point gets its curvature fit."""
    T = (rng.uniform(1.2, 1.5), rng.uniform(2.2, 2.8))
    u = (rng.uniform(-0.9, -0.5), rng.uniform(0.5, 0.9))
    mid, hi = rng.uniform(0.1, 0.3), rng.uniform(0.95, 1.4)
    zeta = (2.0 * mid - hi, hi)
    grid = ",".join(f"{k}={lo!r}:{hi!r}:3" for k, (lo, hi) in
                    (("T", T), ("u", u), ("zeta", zeta)))
    a0 = "inf" if alpha0 == math.inf else repr(alpha0)
    return Job(f"wick_a{a0}", argv=["wick", "--grid", grid, "--alpha0", a0],
               expect={"alpha0": alpha0, "T": T + (3,), "u": u + (3,),
                       "zeta": zeta + (3,)})


CHART_ALPHA0 = 1.0   # model weight of the chart fits


def _chart_points(rng, T_range):
    """One (T, u, zeta) in each chart regime, at least 0.1 from both
    seams so that the curvature stencil stays inside one regime."""
    points = []
    for reg in (1, 2, 3):
        T = rng.uniform(*T_range)
        if reg == 1:
            zeta = rng.uniform(-0.9, -0.1)
        elif reg == 2:
            zeta = rng.uniform(0.1, CHART_ALPHA0 / T - 0.1)
        else:
            zeta = CHART_ALPHA0 / T + rng.uniform(0.1, 0.9)
        points.append((T, rng.uniform(-0.8, 0.8), zeta))
    return points


def _fit_chart(rng, name, metric_fn, T_range, kappa):
    """Curvature fits of a chart metric, one in each regime."""
    points = _chart_points(rng, T_range)

    def metric(x):
        return metric_fn(
            spacetime.LocalPoint(x[0], x[2], x[1], CHART_ALPHA0)).components
    expect = {"kappa": kappa, "points": points, "alpha0": CHART_ALPHA0}
    if name == "ads":
        expect["pullback_alpha0"] = CHART_ALPHA0
    return Job(f"fit_{name}",
               call=lambda: [curvature.constant_curvature_fit(
                   metric, (T, zeta, u)) for T, u, zeta in points],
               expect=expect)


def _fit_btz(rng):
    rp = rng.uniform(0.8, 2.0)
    params = blackhole.BTZParams(rp, rp * rng.uniform(0.0, 0.6))
    point = (rng.uniform(-1, 1), rp * rng.uniform(1.5, 3.0), rng.uniform(0, 6))

    def metric(x):
        return blackhole.btz_metric(x[0], x[1], x[2], params).components
    return Job("fit_btz",
               call=lambda: [curvature.constant_curvature_fit(metric, point)],
               expect={"kappa": -1.0, "points": [point]})


def metric_oracle(rng, scen):
    wick = [_wick(rng, a0) for a0 in WICK_ALPHA0]
    verify = [Job(f"verify_{s}", argv=["verify", "--suite", s],
                  expect={"suite": s}) for s in VERIFY_SUITES]
    fits = [_fit_chart(rng, "ds", spacetime.rescale_ds, (0.25, 0.85), 1.0),
            _fit_chart(rng, "ads", spacetime.ads_metric, (0.4, 2.5), -1.0),
            _fit_btz(rng)]
    return [wick[0], fits[0], verify[0], wick[1], fits[1], verify[1],
            verify[2], wick[2], fits[2], verify[3]]


def describe(round_):
    """Jobs per kind in a round and, over the wick grids and the chart
    fits, points per chart regime."""
    kinds, regimes = {}, {1: 0, 2: 0, 3: 0}
    for job in round_:
        kinds[job.kind] = kinds.get(job.kind, 0) + 1
        e = job.expect
        if job.kind.startswith("wick"):
            for T in np.linspace(*e["T"]):
                for zeta in np.linspace(*e["zeta"]):
                    regimes[regime(T, zeta, e["alpha0"])] += e["u"][2]
        elif "alpha0" in e and "points" in e:
            for T, _, zeta in e["points"]:
                regimes[regime(T, zeta, e["alpha0"])] += 1
    text = ", ".join(f"{n} {k}" for k, n in kinds.items())
    if any(regimes.values()):
        text += "; points per chart regime " + ", ".join(
            f"{r}: {n}" for r, n in regimes.items())
    return text


ROUNDS = {"bend_grid": bend_grid, "deep_words": deep_words,
          "metric_oracle": metric_oracle}


#: seeded instances of every kind in a round: the cost of one surface or
#: grid varies by 10-20 % with the seed, and a round averages over three
INSTANCES = 3


def build(workload, seed, workdir):
    """The round of jobs of `workload` for `seed`; scenario files go to
    `workdir`."""
    rng = random.Random(f"{workload}:{seed}")
    scen = Scenarios(workdir)
    return [job for _ in range(INSTANCES)
            for job in ROUNDS[workload](rng, scen)]
