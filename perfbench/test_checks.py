"""Each output check passes on real output and fails on corrupted output.

    python3 -m pytest -q perfbench/test_checks.py
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

import perfbench

perfbench.use_source_tree()

from quakebend import cli, isometry, spacetime  # noqa: E402
from perfbench import checks, jobs  # noqa: E402
from perfbench.worker import Runner  # noqa: E402


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """The first job of every kind of every workload, with its output."""
    runner = Runner(cli, checks)
    out = {}
    for workload in perfbench.WORKLOADS:
        workdir = str(tmp_path_factory.mktemp(workload))
        for job in jobs.build(workload, 7, workdir):
            if job.kind not in out:
                out[job.kind] = (job, runner.execute(job))
    return out


def edit(result, fn):
    """Apply fn to the list of records of a CLI result."""
    rc, text = result
    recs = checks.records(text)
    fn(recs)
    return rc, "".join(json.dumps(r, sort_keys=True) + "\n" for r in recs)


def vertices(recs):
    return [r for r in recs if "vertex" in r]


def test_every_kind_passes_on_real_output(outputs):
    kinds = {job.kind.split("_")[0] for job, _ in outputs.values()}
    assert kinds == {"bend", "quake", "blackhole", "omega", "regular", "wick",
                     "verify", "fit"}
    for job, result in outputs.values():
        assert checks.check(job, result) == [], job.kind


def scale_vertex(recs, k=3, factor=1.01):
    v = vertices(recs)[k]
    v["vertex"] = [c * factor for c in v["vertex"]]


def swap_far_vertices(recs):
    v = vertices(recs)
    v[0]["vertex"], v[-1]["vertex"] = v[-1]["vertex"], v[0]["vertex"]


def drop_vertex(recs):
    recs.remove(vertices(recs)[-1])


def timelike_neighbour(recs):
    """Replace vertex 1 by vertex 0 moved along a timelike direction."""
    v = vertices(recs)
    p = np.array(v[0]["vertex"]).reshape(2, 2)
    t = 0.3
    rot = np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]])
    v[1]["vertex"] = (p @ rot).flatten().tolist()


BEND_KINDS = ["bend_fn_torus_hyperbolic", "bend_fn_torus_ads",
              "bend_shear_torus_hyperbolic", "bend_shear_torus_ads"]


@pytest.mark.parametrize("kind,corrupt", [
    (kind, corrupt) for kind in BEND_KINDS
    for corrupt in (scale_vertex, swap_far_vertices, drop_vertex)]
    + [(kind, timelike_neighbour) for kind in BEND_KINDS if "ads" in kind])
def test_bend_check_fails_on_corruption(outputs, kind, corrupt):
    job, result = outputs[kind]
    assert checks.check(job, edit(result, corrupt))


def grid_points(expect):
    xs, ys = (np.linspace(*expect[k]) for k in ("x", "y"))
    return [complex(x, y) for y in ys for x in xs]


@pytest.mark.parametrize("kind", BEND_KINDS)
def test_bend_check_fails_on_unbent_embedding(outputs, kind):
    job, result = outputs[kind]
    e = job.expect

    def corrupt(recs):
        for rec, z in zip(vertices(recs), grid_points(e)):
            rec["vertex"] = (list(checks._hyperboloid(z)) + [0.0]
                             if e["target"] == "hyperbolic"
                             else isometry.ads_embed(z).flatten().tolist())
    # the seed's grid does cross leaves, so the bent map is not the plane
    xs = len(np.linspace(*e["x"]))
    z = np.array(grid_points(e))
    a = np.arange(len(z) - 1)[(np.arange(1, len(z)) % xs) != 0]
    eps = 1.0 if e["target"] == "hyperbolic" else -1.0
    bent = checks.bent_cosh(z, a, a + 1, e["leaves"](), eps)
    assert (np.abs(bent - np.cosh(checks.dist_h2(z[a], z[a + 1])))
            > 1e-6).any()
    problems = checks.check(job, edit(result, corrupt))
    assert any("not bent along the leaves" in p for p in problems)


def curve(name, key, delta):
    def fn(recs):
        r = next(r for r in recs if r.get("curve") == name)
        r[key] += delta
    return fn


def shift_twist(recs):
    next(r for r in recs if "twists" in r)["twists"][0] += 1e-6


@pytest.mark.parametrize("corrupt", [
    curve("zp0", "trace_cocycle", 1e-6),
    curve("zpp0", "trace_coordinates", 1e-6),
    curve("z0", "trace_coordinates", 1e-6),
    shift_twist,
    lambda recs: recs.pop(),
    lambda recs: next(r for r in recs if r.get("curve") == "C0").update(
        converged=None),
    lambda recs: [r.update(converged=False) for r in recs if "curve" in r],
])
def test_quake_check_fails_on_corruption(outputs, corrupt):
    job, result = outputs["quake_d12"]
    assert checks.check(job, edit(result, corrupt))


def puncture(key, delta):
    def fn(recs):
        next(r for r in recs if "puncture" in r)[key] += delta
    return fn


@pytest.mark.parametrize("corrupt", [
    puncture("size", 1e-6),
    puncture("momentum", 1e-6),
    puncture("M", 1e-9),
    puncture("J", 1e-9),
    puncture("r_plus", 1e-9),
    lambda recs: next(r for r in recs if "meridians" in r).update(meridians=1),
])
def test_blackhole_check_fails_on_corruption(outputs, corrupt):
    job, result = outputs["blackhole_d7"]
    assert checks.check(job, edit(result, corrupt))


def answers(job, inside=True, shallower=True, outside=False):
    """The job with its membership answers replaced."""
    return jobs.Job(job.kind, expect=dict(
        job.expect, shallower=lambda: shallower,
        outside=lambda: outside)), inside


@pytest.mark.parametrize("kind", ["omega", "regular_domain"])
def test_membership_check_fails_on_corruption(outputs, kind):
    job, result = outputs[kind]
    assert result is True
    assert not checks.check(*answers(job))
    assert checks.check(*answers(job, inside=False))
    assert checks.check(*answers(job, shallower=False))
    # a test that accepts every point
    assert checks.check(*answers(job, outside=True))


def point(k, fn):
    def corrupt(recs):
        fn([r for r in recs if "metric" in r][k])
    return corrupt


def bump_metric(r):
    r["metric"][1][1] += 1e-3


def bump_image(r):
    r["image"] = [c * 1.001 for c in r["image"]]


def bump_curvature(r):
    r["curvature"] += 1e-3
    r["curvature_residual"] = abs(r["curvature"] + 1.0)


def bump_summary(recs):
    next(r for r in recs if "max_curvature_residual" in r)[
        "max_curvature_residual"] += 1e-12


@pytest.mark.parametrize("kind", ["wick_a1.0", "wick_a8.0", "wick_ainf"])
@pytest.mark.parametrize("corrupt", [
    point(0, bump_metric), point(-1, bump_metric), point(4, bump_image),
    point(0, bump_curvature), bump_summary, lambda recs: recs.pop(0)])
def test_wick_check_fails_on_corruption(outputs, kind, corrupt):
    job, result = outputs[kind]
    assert checks.check(job, edit(result, corrupt))


@pytest.mark.parametrize("corrupt", [
    lambda recs: recs[0].update(ok=False),
    lambda recs: recs[0].update(residual=recs[0]["tolerance"] * 2),
    lambda recs: recs[0].update(suite="quake"),
])
def test_verify_check_fails_on_corruption(outputs, corrupt):
    job, result = outputs["verify_ds"]
    assert checks.check(job, edit(result, corrupt))


def test_nonzero_exit_fails(outputs):
    job, (_, text) = outputs["verify_wick"]
    assert checks.check(job, (4, text))


@pytest.mark.parametrize("kind", ["fit_ds", "fit_ads", "fit_btz"])
def test_fit_check_fails_on_wrong_curvature(outputs, kind):
    job, fits = outputs[kind]
    kappa, resid = fits[-1]
    assert checks.check(job, fits[:-1] + [(kappa + 1e-3, resid)])
    assert checks.check(job, fits[:-1])


def test_fit_check_fails_when_metric_is_not_the_map_pullback(outputs,
                                                             monkeypatch):
    job, result = outputs["fit_ads"]
    real = spacetime.ads_metric

    def off(p):
        return spacetime.MetricSample(real(p).components * 1.001,
                                      "lorentzian")
    monkeypatch.setattr(spacetime, "ads_metric", off)
    assert checks.check(job, result)
