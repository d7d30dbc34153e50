"""Checks of each job's output, run after its timer stops.

Every check compares against an oracle computed apart from the program
or against a property the method must have; none compares against a
stored copy of earlier output.  A check returns a list of problems, and
an empty list means the output passed.

* bend: H3 vertices lie on the unit hyperboloid and AdS vertices have
  determinant 1; the bent map is 1-Lipschitz between grid neighbours;
  the distance between the images of grid neighbours equals the one
  recomputed here by bending the segment between them along the leaves
  it crosses (so an unbent map fails wherever an edge crosses a leaf);
  there is one record per grid point.
* quake: the twists moved by the weight, every curve record is
  converged, its cocycle trace matches the trace of the Fenchel-Nielsen
  twist rebuild, and the rebuild's traces of z0 and C0 equal 2 cosh(l/2).
* blackhole: for a multicurve the horizon size is the boundary length
  and the momentum is 0; r+, r-, M and J follow from size and momentum.
* omega_contains / regular_domain_contains: true on a point the theory
  puts inside, still true one depth lower (monotone in depth), and false
  on a point the theory puts outside.
* wick and the AdS fits: the metric equals a central-difference pullback
  of the program's map, computed here; curvature is within 1e-4 of the
  constant the model must have.
* verify: every record says ok with a residual under its tolerance.
"""

from __future__ import annotations

import json
import math

import numpy as np

from quakebend import spacetime

TOL_UNIT = 1e-9        # |<v, v> + 1| and |det - 1|, relative to the entries
TOL_LIPSCHITZ = 1e-9   # d_H3(F x, F y) <= d_H2(x, y) + this
TOL_BENT = 1e-9        # cosh of bent edge lengths vs the recomputed ones
TOL_TRACE = 1e-8       # cocycle vs twist-rebuild traces
TOL_CURVATURE = 1e-4
TOL_PULLBACK = 1e-5    # relative to the largest metric entry
FD_STEP = 1e-6

ETA4 = np.diag([-1.0, 1.0, 1.0, 1.0])
ETA3 = np.diag([-1.0, 1.0, 1.0])


def records(text):
    return [json.loads(line) for line in text.splitlines() if line.strip()]


def _cli(result):
    """(problems, records) of a CLI result (exit code, stdout)."""
    rc, text = result
    if rc != 0:
        return [f"exit code {rc}"], []
    try:
        return [], records(text)
    except json.JSONDecodeError as exc:
        return [f"stdout is not line-delimited JSON: {exc}"], []


def _grid(lo, hi, n):
    return np.linspace(lo, hi, n)


def dist_h2(z, w):
    """Hyperbolic distance in the upper half-plane."""
    return np.arccosh(1.0 + np.abs(z - w) ** 2 / (2.0 * z.imag * w.imag))


def _hyperboloid(z):
    """Upper half-plane points to the hyperboloid of R^{2,1}."""
    z = np.asarray(z, dtype=complex)
    x, y = z.real, z.imag
    r = x * x + y * y
    return np.stack([(r + 1.0) / (2.0 * y), x / y, (r - 1.0) / (2.0 * y)],
                    axis=-1)


def leaf_normals(ends_minus, ends_plus, weights):
    """(normals, weights) of geodesics of H2 given by their ideal
    endpoints, projective 2-vectors (p, q) for p/q.

    A normal is the unit spacelike vector of R^{2,1} orthogonal to the
    null vectors of both endpoints.  Leaves whose endpoints coincide in
    floating point have no normal and are dropped: they cross nothing.
    """
    def null(e):
        p, q = e[:, 0], e[:, 1]
        r = p * p + q * q
        return np.stack([r / 2.0, p * q, (p * p - q * q) / 2.0], axis=1) \
            / r[:, None]
    n = np.cross(null(ends_minus), null(ends_plus)) @ ETA3
    norm2 = np.einsum("li,ij,lj->l", n, ETA3, n)
    keep = norm2 > 1e-24
    return n[keep] / np.sqrt(norm2[keep])[:, None], weights[keep]


LEAF_CHUNK = 256    # leaves per block of the crossing test (bounds memory)


def bent_cosh(z, a, b, leaves, eps):
    """cosh of the distance between the bent images of z[a[k]] and z[b[k]].

    `leaves` is (ends_minus, ends_plus, weights) as in leaf_normals.  The
    segment from x = z[a[k]] to y = z[b[k]] is bent along every leaf
    that separates them, in the order the segment crosses them: H2 is
    the slice of R^{2,1} in R^{3,1} (eps = +1, target H3) or R^{2,2}
    (eps = -1, target AdS), and crossing a leaf of weight w rotates
    (H3) or boosts (AdS) the far side by w in the plane of the leaf's
    normal, pointed toward y, and the extra axis.  The distance does
    not depend on the base point or on the global sign of the bending.
    """
    v = _hyperboloid(z)
    cosh = -np.einsum("ei,ij,ej->e", v[a], ETA3, v[b])
    hits = []    # (edge, normal, weight, side of x, side of y) per crossing
    for lo in range(0, len(leaves[2]), LEAF_CHUNK):
        n, w = leaf_normals(*(c[lo:lo + LEAF_CHUNK] for c in leaves))
        side = v @ ETA3 @ n.T
        e, l = np.nonzero(side[a] * side[b] < 0.0)
        hits.append((e, n[l], w[l], side[a[e], l], side[b[e], l]))
    if not hits:
        return cosh
    e, n, w, sx, sy = (np.concatenate(c) for c in zip(*hits))
    # along the segment a leaf is crossed earlier the smaller sy / sx is
    order = np.lexsort((sy / sx, e))
    e, n, w, sy = e[order], n[order], w[order], sy[order]
    form = np.diag([-1.0, 1.0, 1.0, eps])
    for k in np.unique(e):
        pick = np.flatnonzero(e == k)
        y = np.append(v[b[k]], 0.0)
        for i in pick[::-1]:
            ni = n[i] * np.sign(sy[i])
            an, ae = y[:3] @ ETA3 @ ni, y[3]
            if eps > 0:
                c, s = math.cos(w[i]), math.sin(w[i])
                bn, be = c * an - s * ae, s * an + c * ae
            else:
                c, s = math.cosh(w[i]), math.sinh(w[i])
                bn, be = c * an + s * ae, s * an + c * ae
            y[:3] += (bn - an) * ni
            y[3] = be
        cosh[k] = -(np.append(v[a[k]], 0.0) @ form @ y)
    return cosh


def check_bend(expect, result):
    problems, recs = _cli(result)
    if problems:
        return problems
    xs, ys = _grid(*expect["x"]), _grid(*expect["y"])
    n = len(xs) * len(ys)
    verts = [r["vertex"] for r in recs if "vertex" in r]
    heads = [r for r in recs if "points" in r]
    if len(heads) != 1 or heads[0]["points"] != n:
        problems.append(f"header does not report {n} points")
    if len(verts) != n:
        return problems + [f"{len(verts)} vertex records for {n} grid points"]
    # cli order: rows of constant y, x varying fastest
    z = np.array([complex(x, y) for y in ys for x in xs])
    right = [(i, i + 1) for i in range(n) if (i + 1) % len(xs)]
    up = [(i, i + len(xs)) for i in range(n - len(xs))]
    a, b = np.array(right + up).T
    v = np.array(verts, dtype=float)
    if v.shape != (n, 4):
        return problems + ["vertices must have 4 coordinates"]
    if expect["target"] == "hyperbolic":
        norm = np.einsum("ni,ij,nj->n", v, ETA4, v)
        bad = np.abs(norm + 1.0) > TOL_UNIT * np.maximum(1.0, v[:, 0] ** 2)
        if bad.any() or (v[:, 0] <= 0).any():
            problems.append(f"{int(bad.sum())} H3 vertices off the unit "
                            "hyperboloid")
        cosh = -np.einsum("ni,ij,nj->n", v[a], ETA4, v[b])
        excess = np.arccosh(np.maximum(cosh, 1.0)) - dist_h2(z[a], z[b])
        if (excess > TOL_LIPSCHITZ).any():
            problems.append(f"bent map stretches a grid edge by "
                            f"{excess.max():.3g} (not 1-Lipschitz)")
        eps = 1.0
    else:
        m = v.reshape(n, 2, 2)
        det = m[:, 0, 0] * m[:, 1, 1] - m[:, 0, 1] * m[:, 1, 0]
        if (np.abs(det - 1.0) > TOL_UNIT * np.maximum(
                1.0, np.abs(v).max(axis=1) ** 2)).any():
            problems.append("AdS vertices do not have determinant 1")
        # -<P, Q> = tr(P^-1 Q) / 2, up to the sign PSL(2, R) leaves free
        p, q = m[a], m[b]
        cosh = np.abs(p[:, 1, 1] * q[:, 0, 0] - p[:, 0, 1] * q[:, 1, 0]
                      - p[:, 1, 0] * q[:, 0, 1] + p[:, 0, 0] * q[:, 1, 1]) / 2
        eps = -1.0
    want = bent_cosh(z, a, b, expect["leaves"](), eps)
    off = np.abs(cosh - want) > TOL_BENT * np.maximum(1.0, want)
    if off.any():
        k = int(np.argmax(np.abs(cosh - want)))
        problems.append(f"{int(off.sum())} grid edges are not bent along the "
                        f"leaves they cross: cosh distance {cosh[k]} at edge "
                        f"{(int(a[k]), int(b[k]))}, recomputed {want[k]}")
    return problems


def check_quake(expect, result):
    problems, recs = _cli(result)
    if problems:
        return problems
    (l_c, l_z), (t,), (w,) = expect["fn"]["l"], expect["fn"]["t"], \
        expect["weights"]
    sign = 1.0 if expect["side"] == "left" else -1.0
    heads = [r for r in recs if "twists" in r]
    if len(heads) != 1 or len(heads[0]["twists"]) != 1 or \
            abs(heads[0]["twists"][0] - (t + sign * w)) > 1e-12:
        problems.append(f"twist did not move from {t} by {sign * w}")
    curves = {r["curve"]: r for r in recs if "curve" in r}
    if sorted(curves) != ["C0", "z0", "zp0", "zpp0"]:
        return problems + [f"curve records {sorted(curves)}"]
    for name, length in (("C0", l_c), ("z0", l_z)):
        want = 2.0 * math.cosh(length / 2.0)
        if abs(curves[name]["trace_coordinates"] - want) > TOL_TRACE * want:
            problems.append(f"{name} trace is not 2 cosh(l/2) = {want}")
    for name, r in curves.items():
        # at the depths the benchmark uses every lift has converged
        if r.get("converged") is not True:
            problems.append(f"{name}: converged is {r.get('converged')!r}")
        if "trace_cocycle" not in r:
            problems.append(f"{name} has no cocycle trace")
        elif abs(r["trace_cocycle"] - r["trace_coordinates"]) > TOL_TRACE:
            problems.append(f"{name}: cocycle trace {r['trace_cocycle']} vs "
                            f"twist rebuild {r['trace_coordinates']}")
    return problems


def check_blackhole(expect, result):
    problems, recs = _cli(result)
    if problems:
        return problems
    punctures = [r for r in recs if "puncture" in r]
    if len(punctures) != 1:
        return [f"{len(punctures)} puncture records on a once-punctured torus"]
    r = punctures[0]
    if r.get("degenerate") is not False or "size" not in r:
        return ["geodesic boundary reported as a degenerate horizon"]
    length = expect["boundary_length"]
    if abs(r["size"] - length) > 1e-8 * max(1.0, length):
        problems.append(f"horizon size {r['size']} != boundary length {length}")
    if abs(r["momentum"]) > 1e-9:
        problems.append(f"momentum {r['momentum']} != 0 for a multicurve")
    m = abs(r["momentum"])
    rp, rm = (r["size"] + m) / 2.0, (r["size"] - m) / 2.0
    for key, want in (("r_plus", rp), ("r_minus", rm),
                      ("M", rp * rp + rm * rm), ("J", 2.0 * rp * rm)):
        if abs(r[key] - want) > 1e-12 * max(1.0, abs(want)):
            problems.append(f"{key} = {r[key]}, recomputed {want}")
    counts = [x["meridians"] for x in recs if "meridians" in x]
    merids = [x for x in recs if "meridian" in x]
    if counts != [2] or len(merids) != 2:
        problems.append("one non-degenerate rectangle must give 2 meridians")
    return problems


def _is(value, want):
    return isinstance(value, (bool, np.bool_)) and bool(value) is want


def check_membership(expect, value):
    """Membership jobs: true on a point that lies inside by construction,
    still true one depth lower (a shallower test may only be less
    strict), and false on a point that lies outside by construction."""
    problems = []
    if not _is(value, True):
        problems.append(f"returned {value!r} on a point that lies inside")
    elif not _is(expect["shallower"](), True):
        problems.append("not monotone in depth: the shallower test "
                        "excludes the point")
    if not _is(expect["outside"](), False):
        problems.append("accepted a point that lies outside")
    return problems


def pullback(fmap, x, form):
    """Metric pulled back by `fmap` at chart point x = (T, zeta, u), by
    central differences; `form(a, b)` is the target's bilinear form."""
    cols = []
    for k in range(3):
        xp, xm = list(x), list(x)
        xp[k] += FD_STEP
        xm[k] -= FD_STEP
        cols.append((np.asarray(fmap(xp)) - np.asarray(fmap(xm)))
                    / (2.0 * FD_STEP))
    return np.array([[form(a, b) for b in cols] for a in cols])


def minkowski4(a, b):
    return float(a @ ETA4 @ b)


def ads_form(a, b):
    """Polarization of q(X) = -det X on 2x2 tangent matrices."""
    def det(m):
        return m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    return -(det(a + b) - det(a) - det(b)) / 2.0


def _pullback_problem(got, want, where):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    err = np.abs(got - want).max()
    if not err <= TOL_PULLBACK * max(1.0, np.abs(want).max()):
        return [f"metric at {where} differs from the pullback by {err:.3g}"]
    return []


def check_wick(expect, result):
    problems, recs = _cli(result)
    if problems:
        return problems
    a0 = expect["alpha0"]
    points = [r for r in recs if "metric" in r]
    n = expect["T"][2] * expect["u"][2] * expect["zeta"][2]
    if len(points) != n:
        return [f"{len(points)} point records for a grid of {n}"]
    grid = {(T, u, z) for T in _grid(*expect["T"]) for u in _grid(*expect["u"])
            for z in _grid(*expect["zeta"])}
    worst = 0.0
    for r in points:
        T, u, z = r["T"], r["u"], r["zeta"]
        if (T, u, z) not in grid:
            problems.append(f"record at {(T, u, z)} is not a grid point")
            continue
        v = np.array(r["image"])
        if abs(minkowski4(v, v) + 1.0) > TOL_UNIT * max(1.0, v[0] ** 2):
            problems.append(f"image at {(T, u, z)} is off the hyperboloid")
        want = pullback(lambda x: spacetime.wick_rotate(
            spacetime.LocalPoint(x[0], x[2], x[1], a0)), (T, z, u), minkowski4)
        problems += _pullback_problem(r["metric"], want, (T, u, z))
        if "curvature" in r:
            res = abs(r["curvature"] + 1.0)
            if res > TOL_CURVATURE or r["curvature_residual"] != res:
                problems.append(f"curvature {r['curvature']} at {(T, u, z)}")
            worst = max(worst, res)
    summary = [r for r in recs if "max_curvature_residual" in r]
    if len(summary) != 1 or summary[0]["max_curvature_residual"] != worst:
        problems.append("summary residual is not the worst point residual")
    return problems


def check_verify(expect, result):
    problems, recs = _cli(result)
    if problems:
        return problems
    if len(recs) != 1 or recs[0].get("suite") != expect["suite"]:
        return [f"expected one record of suite {expect['suite']}"]
    r = recs[0]
    if r.get("ok") is not True or not r["residual"] < r["tolerance"]:
        return [f"suite {r['suite']} residual {r['residual']} over "
                f"{r['tolerance']}"]
    return []


def check_fit(expect, value):
    """Fit jobs return one (curvature, residual) per fitted point."""
    if len(value) != len(expect["points"]):
        return [f"{len(value)} fits for {len(expect['points'])} points"]
    problems = []
    for (kappa, _), point in zip(value, expect["points"]):
        if not abs(kappa - expect["kappa"]) <= TOL_CURVATURE:
            problems.append(f"curvature {kappa} at {point}, expected "
                            f"{expect['kappa']}")
        if "pullback_alpha0" in expect:
            T, u, z = point
            a0 = expect["pullback_alpha0"]
            want = pullback(lambda x: spacetime.ads_map(spacetime.LocalPoint(
                x[0], x[2], x[1], a0)), (T, z, u), ads_form)
            got = spacetime.ads_metric(
                spacetime.LocalPoint(T, u, z, a0)).components
            problems += _pullback_problem(got, want, (T, u, z))
    return problems


def check(job, result):
    """Problems with `result`, the output of `job`: (exit code, stdout)
    for a CLI job, the return value for a library call."""
    kind = job.kind
    if kind.startswith("bend"):
        return check_bend(job.expect, result)
    if kind.startswith("quake"):
        return check_quake(job.expect, result)
    if kind.startswith("blackhole"):
        return check_blackhole(job.expect, result)
    if kind in ("omega", "regular_domain"):
        return check_membership(job.expect, result)
    if kind.startswith("wick"):
        return check_wick(job.expect, result)
    if kind.startswith("verify"):
        return check_verify(job.expect, result)
    if kind.startswith("fit"):
        return check_fit(job.expect, result)
    raise ValueError(f"no check for job kind {kind!r}")
