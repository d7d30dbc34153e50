"""Batch front-end: scenario files in, line-delimited JSON records out.

Exit codes: 0 success, 2 parse error, 3 domain error, 4 verification
failure, 141 stdout closed by its reader.  Records are emitted with
sorted keys so identical scenarios produce byte-identical streams.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from functools import cache, partial

import numpy as np

from quakebend import isometry as iso
from quakebend import teich
from quakebend import lamination as lm
from quakebend import earthquake as eq
from quakebend import bending as bd
from quakebend import spacetime as sp
from quakebend import blackhole as bh
from quakebend import curvature as cv
from quakebend import scenario
from quakebend.errors import (DomainError, ParseError, QuakebendError,
                              VerificationError)

EXIT_PARSE = 2
EXIT_DOMAIN = 3
EXIT_VERIFY = 4
#: 128 + SIGPIPE, what a shell reports for a writer the signal ended
EXIT_PIPE = 141


def _jsonable(v):
    if isinstance(v, (np.floating, np.integer)):
        return float(v)
    if isinstance(v, np.bool_):
        return bool(v)
    if isinstance(v, np.ndarray):
        return v.tolist()
    raise TypeError(f"cannot serialize {type(v)!r}")


# the encoder json.dumps(record, sort_keys=True, default=_jsonable) builds,
# refusing the non-finite numbers that JSON does not have
_ENCODER = json.JSONEncoder(sort_keys=True, default=_jsonable,
                            allow_nan=False)


#: vertex rows that `emit` formats per write (bounds memory)
EMIT_ROWS = 4096


def emit(command, record):
    """Write the record {"command": command, **record} as one JSON line.

    An (n, 4) float array in place of the dict is `bend`'s vertex
    stream, the records {"command": command, "vertex": row}: written
    EMIT_ROWS rows at a time with one template whose %r is the
    float.__repr__ that json writes floats with, so the bytes are those
    of one record at a time.  The rows before the first one that holds a
    non-finite number are written, and that row then takes the
    one-record path, which refuses it.
    """
    if isinstance(record, np.ndarray):
        bad = np.flatnonzero(~np.isfinite(record).all(axis=1))
        stop = bad[0] if len(bad) else len(record)
        template = ('{"command": %s, "vertex": [%%r, %%r, %%r, %%r]}\n'
                    % json.dumps(command))
        for lo in range(0, stop, EMIT_ROWS):
            rows = record[lo:min(lo + EMIT_ROWS, stop)]
            sys.stdout.write(template * len(rows)
                             % tuple(rows.ravel().tolist()))
        if stop == len(record):
            return
        record = {"vertex": record[stop].tolist()}
    try:
        line = _ENCODER.encode({"command": command, **record})
    except ValueError as exc:
        raise DomainError(f"a record holds a non-finite number ({exc})")
    sys.stdout.write(line + "\n")


def _load_surface(args):
    data = scenario.load(args.scenario)
    point, pd = scenario.surface_point(data)
    return data, point, pd


def _load_laminated(args):
    """_load_surface plus the lamination section the command needs."""
    data, point, pd = _load_surface(args)
    lam = scenario.lamination(data, point)
    if lam is None:
        raise ParseError(f"{args.command} needs a lamination section")
    return data, point, pd, lam


def parse_grid(spec, axes):
    """'T=1.1:3:10,u=-1:1:5,zeta=-1:1.5:8' -> dict of 1d arrays, one per
    name of `axes`: each axis exactly once, finite bounds, n >= 1."""
    out = {}
    for part in spec.split(","):
        try:
            key, rng = part.split("=")
            lo, hi, n = rng.split(":")
            key, lo, hi, n = key.strip(), float(lo), float(hi), int(n)
        except ValueError as exc:
            raise ParseError(f"bad grid component {part!r}") from exc
        if key not in axes:
            raise ParseError(f"unknown grid axis {key!r}; expected "
                             f"{', '.join(axes)}")
        if key in out:
            raise ParseError(f"grid axis {key!r} given twice")
        if not (math.isfinite(lo) and math.isfinite(hi)) or n < 1:
            raise ParseError(f"grid axis {key!r} needs finite bounds and "
                             "n >= 1")
        out[key] = np.linspace(lo, hi, n)
    missing = [a for a in axes if a not in out]
    if missing:
        raise ParseError(f"grid lacks the axis {', '.join(missing)}")
    return out


def write_mesh(path, vertices, faces):
    """Geomview nOFF vertex/face text format with 4-coordinate vertices
    (Minkowski-4 points or flattened 2x2 matrices)."""
    with open(path, "w") as fh:
        fh.write("nOFF\n4\n")
        fh.write(f"{len(vertices)} {len(faces)} 0\n")
        for v in vertices:
            fh.write(" ".join(f"{c:.12g}" for c in v) + "\n")
        for f in faces:
            fh.write(str(len(f)) + " " + " ".join(map(str, f)) + "\n")


def grid_faces(n_rows, n_cols):
    faces = []
    for i in range(n_rows - 1):
        for j in range(n_cols - 1):
            a = i * n_cols + j
            faces.append((a, a + 1, a + n_cols + 1, a + n_cols))
    return faces


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_classify(args):
    entries = [float(v) for v in args.matrix.split(",")]
    if len(entries) != 4:
        raise ParseError("--matrix expects a,b,c,d")
    g = iso.normalize(np.array(entries).reshape(2, 2))
    k = iso.classify(g, tol=args.tol)
    rec = {"kind": k.kind, "trace": abs(float(iso.tr(g)))}
    if k.kind == "hyperbolic":
        rec["translation_length"] = k.translation_length
        rec["fixed_points"] = [_num(p) for p in k.fixed_points]
    elif k.kind == "elliptic":
        rec["rotation_angle"] = k.rotation_angle
    elif k.kind == "parabolic":
        rec["fixed_points"] = [_num(p) for p in k.fixed_points]
    yield rec


def _num(x):
    return "inf" if x == iso.INF else float(x)


def cmd_holonomy(args):
    _, point, pd = _load_surface(args)
    h = teich.holonomy_of(point, pd)
    st = teich.surface_type(h, point)
    lengths = teich.boundary_lengths(point)
    # every record is built before the first is written: a curve word
    # whose product fails (ROADMAP defect 3) leaves stdout empty
    recs = []
    for name in h.curve_names():
        m = h.curve(name)
        k = iso.classify(m)
        kind, length = k.kind, (k.translation_length
                                if k.kind == "hyperbolic" else 0.0)
        if name in h.peripheral:
            # the coordinates know a boundary too short for classify
            i = h.peripheral.index(name)
            if st.kinds[i] == teich.CUSP:
                kind, length = "parabolic", 0.0
            elif kind != "hyperbolic":
                kind, length = "hyperbolic", lengths[i]
        recs.append({"curve": name, "trace": abs(float(iso.tr(m))),
                     "kind": kind, "length": length})
    yield from recs
    yield {"types": list(st.kinds), "genus": st.genus}


def cmd_spectrum(args):
    data, point, pd, lam = _load_laminated(args)
    kinds = teich.puncture_kinds(point)
    elam = scenario.eta(data, lam, point)
    spec = lm.peripheral_spectrum(lam, len(kinds))
    for i in range(len(kinds)):
        yield {"puncture": i, "I": spec[i],
               "I_sharp": lm.enhanced_spectrum(elam, i),
               "sigma": lm.signature(lam, len(kinds))[i],
               "eta": elam.eta[i], "kind": kinds[i]}
    if isinstance(lam, lm.MultiCurveLam) and pd is not None:
        for name in sorted(["z%d" % j for j in range(pd.num_interior)]
                           + ["zp%d" % j for j in range(pd.num_interior)]
                           + ["zpp%d" % j for j in range(pd.num_interior)]
                           + ["C%d" % i for i in range(pd.num_boundary)]):
            yield {"curve": name, "I": lm.intersection_spectrum(name, lam, pd)}


def cmd_quake(args):
    data, point, pd, lam = _load_laminated(args)
    side = args.side
    if isinstance(point, teich.FNPoint):
        # the quake moves only the twists: one set-up for both holonomies
        moved = eq.quake_coordinates(point, lam, side)
        coords = {"twists": list(moved.twists)}
        h, h2 = teich.holonomies_from_fn(pd, [point, moved])
    else:
        moved = eq.quake_shear(point, lam, side)
        coords = {"shears": list(moved.shears)}
        h, h2 = teich.holonomy_of(point), teich.holonomy_of(moved)
    hq = eq.quake_holonomy(point, lam, side, depth=args.depth, pd=pd, h=h)
    # every record is built before the first is written: a curve word
    # whose product fails (ROADMAP defect 3) leaves stdout empty
    recs = [{"side": side, **coords}]
    for name in h2.curve_names():
        tc = abs(float(iso.tr(h2.curve(name))))
        tq = abs(float(iso.tr(hq.curve(name)))) if name in hq.curve_words else None
        rec = {"curve": name, "trace_coordinates": tc, "depth": args.depth,
               "converged": hq.meta.get("converged")}
        if tq is not None:
            rec["trace_cocycle"] = tq
            rec["residual"] = abs(tc - tq)
        recs.append(rec)
    yield from recs


def cmd_flow(args):
    data, point, pd, lam = _load_laminated(args)
    state = eq.FlowState(scenario.enhanced_point(data, point),
                         scenario.eta(data, lam, point))
    times = (list(parse_grid(args.grid, ("t",))["t"]) if args.grid
             else scenario.times(data))
    if not times:
        raise ParseError("flow needs 'times' in the scenario or --grid t=...")
    for t in times:
        out = eq.quake_flow(state, float(t))
        rec = out.record()
        rec["l"] = [abs(v) for v in rec["l_sharp"]]
        yield rec


def cmd_bend(args):
    """`bend_points` of the grid, one complex array filled row by row."""
    grid = parse_grid(args.grid, ("x", "y"))
    xs, ys = grid["x"], grid["y"]
    if not np.all(ys > 0):
        raise DomainError("bend grid points must lie in the upper "
                          "half-plane (y > 0)")
    zs = np.empty((len(ys), len(xs)), complex)
    zs.real, zs.imag = xs, ys[:, None]
    # a point whose reach or hyperboloid lift overflows is refused before
    # any record or lift family
    with np.errstate(over="ignore", invalid="ignore"):
        far = lm.reach_cut(zs), iso.h2_to_hyperboloid(zs)
    if not all(np.isfinite(a).all() for a in far):
        raise DomainError("bend grid points lie too far from i: their "
                          "reach or hyperboloid lift overflows")
    data, point, pd, lam = _load_laminated(args)
    ctx, _ = bd.make_context(point, lam, depth=args.depth, target=args.target,
                             pd=pd, walk=True)
    points = bd.bend_points(ctx, zs)
    # Minkowski-4 points, or 2x2 matrices flattened row by row
    vertices = points.reshape(len(points), 4)
    yield {"target": args.target, "points": len(vertices), "depth": args.depth}
    if args.mesh_out:
        write_mesh(args.mesh_out, vertices.tolist(),
                   grid_faces(len(ys), len(xs)))
        yield {"mesh": args.mesh_out}
    else:
        # the whole vertex stream, which `emit` writes as one block
        yield vertices


def cmd_wick(args):
    grid = parse_grid(args.grid, ("T", "u", "zeta"))
    a0 = args.alpha0
    chart = sp.chart_metric("wick", a0)
    # the chart metrics never read u: each (T, zeta) column, keyed by its
    # grid indices (the floats -0.0 and 0.0 are one dict key), is sampled
    # and fitted once; the records up to the first point that fails, each
    # with its column, and that point's exception
    recs, images, metrics, fitted, error = [], [], {}, {}, None
    Ts, us, zetas = (grid[a].tolist() for a in ("T", "u", "zeta"))
    try:
        for i, T in enumerate(Ts):
            for u in us:
                for k, z in enumerate(zetas):
                    p = sp.LocalPoint(T, u, z, a0)
                    if (i, k) not in metrics:
                        metrics[i, k] = sp.wick_metric(p).components.tolist()
                        # the chart is only C^{1,1} on the seams: curvature
                        # is reported away from them
                        if min(abs(z), abs(z - a0 / T)) > 0.05:
                            fitted[i, k] = (T, z, u)
                    images.append(sp.wick_rotate(p).tolist())
                    recs.append(((i, k), {
                        "T": T, "u": u, "zeta": z,
                        "image": images[-1], "metric": metrics[i, k]}))
    except Exception as exc:
        error = exc
    try:
        fits = dict(zip(fitted, cv.constant_curvature_fits(
            chart, list(fitted.values()))))
    except Exception:
        # a stencil fails, say by leaving the domain: fit column by column
        # at first use, so that the records before the failing point go
        # out and its exception is raised
        fits = {}
    worst = 0.0
    for key, rec in recs:
        if key in fitted:
            if key not in fits:
                fits[key] = cv.constant_curvature_fit(chart, fitted[key])
            kappa, _ = fits[key]
            worst = max(worst, abs(kappa + 1.0))
            rec["curvature"] = float(kappa)
            rec["curvature_residual"] = float(abs(kappa + 1.0))
        yield rec
    if error is not None:
        raise error
    yield {"max_curvature_residual": worst}
    if args.mesh_out:
        # the first level T[0] is the first len(u) * len(zeta) images
        nu, nz = len(us), len(zetas)
        write_mesh(args.mesh_out, images[:nu * nz], grid_faces(nu, nz))
        yield {"mesh": args.mesh_out, "level": Ts[0]}


def cmd_btz(args):
    params = bh.BTZParams(args.rp, args.rm)
    yield {"r_plus": params.r_plus, "r_minus": params.r_minus,
           "M": params.mass, "J": params.angular_momentum,
           "f_at_r_plus": bh.btz_f(params.r_plus, params),
           "f_at_r_minus": bh.btz_f(params.r_minus, params)
           if params.r_minus > 0 else 0.0}


def cmd_blackhole(args):
    """Rectangles, horizon invariants and meridians of the AdS pair
    (h_L, h_R).  On an FN surface the pair is exact: the quakes move only
    the twists, to t +- w, so each side is the holonomy of its quaked
    coordinates and `converged` is true, and both sides of puncture i
    have the boundary length l_i, so its horizon has size l_i and
    momentum 0.0 from the coordinates.  A shear surface takes them from
    the traces of its cocycle pair (`bending.ads_holonomy`), the only
    thing --depth bounds."""
    data, point, pd, lam = _load_laminated(args)
    if args.depth < 1:
        raise DomainError("depth must be >= 1")
    if isinstance(point, teich.FNPoint):
        hl, hr = teich.holonomies_from_fn(
            pd, [eq.quake_coordinates(point, lam, side)
                 for side in (eq.LEFT, eq.RIGHT)])
        hl.meta["converged"] = True
        lengths = teich.boundary_lengths(point)
    else:
        hl, hr = bd.ads_holonomy(point, lam, depth=args.depth, pd=pd)
        lengths = None
    rects = []
    for i in range(len(hl.peripheral)):
        gl, gr = hl.peripheral_matrix(i), hr.peripheral_matrix(i)
        rect = bh.peripheral_rectangle(gl, gr, hl, hr)
        rects.append(rect)
        rec = {"puncture": i, "degenerate": rect.degenerate,
               "depth": args.depth, "converged": hl.meta.get("converged")}
        if not rect.degenerate:
            d = (bh.horizon_invariants(gl, gr) if lengths is None
                 else bh.HorizonData(lengths[i], 0.0))
            params = bh.BTZParams.from_horizon(d)
            rec.update({"size": d.size, "momentum": d.momentum,
                        "r_plus": params.r_plus, "r_minus": params.r_minus,
                        "M": params.mass, "J": params.angular_momentum,
                        "extremal": d.extremal})
        yield rec
    meridians = bh.extremal_meridians(rects)
    yield {"meridians": len(meridians)}
    for n, choice in enumerate(meridians):
        # one side per non-degenerate rectangle, in order
        sides = iter(choice.choices)
        yield {"meridian": n,
               "future_core": choice.is_future_convex_core_boundary,
               "past_core": choice.is_past_convex_core_boundary,
               "arcs": [
                   {"degenerate": True} if r.degenerate else
                   {"side": next(sides),
                    "vertices": [[_num(a), _num(b)] for a, b in r.vertices]}
                   for r in rects]}


# ---------------------------------------------------------------------------
# verification suites
# ---------------------------------------------------------------------------

def _verify_fn_torus(ads):
    """Worst |trace| gap on the FN torus, over three multicurve weights,
    of the quake (or both AdS) holonomies to their FN coordinate rebuilds."""
    pd = teich.PantDecomposition.once_punctured_torus()
    fn = teich.FNPoint((1.0,), (2.0,), (0.3,))
    worst = 0.0
    for a in (0.1, 0.5, 1.0):
        lam = lm.MultiCurveLam((a,))
        if ads:
            sides = zip((eq.LEFT, eq.RIGHT),
                        bd.ads_holonomy(fn, lam, depth=8, pd=pd))
        else:
            sides = [(eq.LEFT,
                      eq.quake_holonomy(fn, lam, eq.LEFT, depth=8, pd=pd))]
        for side, h in sides:
            hf = teich.holonomy_from_fn(pd, eq.quake_coordinates(fn, lam, side))
            for name in hf.curve_names():
                worst = max(worst, abs(abs(iso.tr(h.curve(name)))
                                       - abs(iso.tr(hf.curve(name)))))
    return worst


# chart-metric suites: kind, target curvature, sample points (T, zeta, u)
# in the wing, the band and the rotated wing of the a0 = 1 model
CHART_SUITES = {
    "wick": ("wick", -1.0, [(1.5, -0.5, 0.2), (2.0, 0.2, 0.3), (2.5, 0.9, -0.4)]),
    "ds": ("ds", 1.0, [(0.3, -0.5, 0.2), (0.6, 0.2, 0.3), (0.85, 0.9, -0.4)]),
    "ads-model": ("ads", -1.0,
                  [(0.4, -0.5, 0.2), (1.5, 0.1, 0.3), (2.0, 0.9, -0.4)]),
}


def _verify_chart(suite):
    kind, kappa_want, points = CHART_SUITES[suite]
    worst = 0.0
    for kappa, resid in cv.constant_curvature_fits(sp.chart_metric(kind),
                                                   points):
        worst = max(worst, abs(kappa - kappa_want), resid)
    return worst


def _verify_btz():
    worst = 0.0
    for (rp, rm) in [(1.0, 0.0), (1.2, 0.4)]:
        params = bh.BTZParams(rp, rm)
        (kappa, resid), = cv.constant_curvature_fits(
            bh.btz_chart_metric(params), [(0.0, 2.0 * rp, 0.3)])
        worst = max(worst, abs(kappa + 1.0), resid)
        worst = max(worst, abs(bh.btz_f(params.r_plus, params)))
    return worst


# suite -> (its worst residual, the tolerance it passes under by default)
VERIFY_SUITES = {
    "quake": (partial(_verify_fn_torus, ads=False), 1e-8),
    "ads": (partial(_verify_fn_torus, ads=True), 1e-8),
    **{name: (partial(_verify_chart, name), 1e-4) for name in CHART_SUITES},
    "btz": (_verify_btz, 1e-4),
}


def cmd_verify(args):
    suites = list(VERIFY_SUITES) if args.suite == "all" else [args.suite]
    failed = False
    for name in suites:
        suite, default = VERIFY_SUITES[name]
        tol = default if args.tol is None else args.tol
        worst = suite()
        ok = worst < tol
        failed = failed or not ok
        yield {"suite": name, "residual": worst, "tolerance": tol, "ok": ok}
    if failed:
        raise VerificationError("verification residual above tolerance")


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

SCENARIO = dict(help="scenario JSON file")
DEPTH = dict(type=int, default=8, help=(
    "word depth (>= 1) of a lift family, where one remains: the queries "
    "walk, with converged true by construction and no depth, on a "
    "Fenchel-Nielsen surface whose boundaries are geodesic and on a "
    "shear surface; the depth bounds the family of a cusped "
    "Fenchel-Nielsen surface and of a shear target beyond the convex "
    "core (default: %(default)s)"))
# command -> (handler, help, the flags it reads and nothing else); a
# handler yields its records (`bend` its vertices as one array) and
# `main` has `emit` stamp and write them
COMMANDS = {
    "classify": (cmd_classify, "classify a PSL(2,R) matrix", {
        "--matrix": dict(required=True, help="a,b,c,d entries"),
        "--tol": dict(type=float, default=iso.TAU_CLASS)}),
    "holonomy": (cmd_holonomy, "curve holonomies", {"scenario": SCENARIO}),
    "spectrum": (cmd_spectrum, "intersection spectra", {"scenario": SCENARIO}),
    "quake": (cmd_quake, "earthquake coordinates against the cocycle", {
        "scenario": SCENARIO,
        "--side": dict(choices=[eq.LEFT, eq.RIGHT], default=eq.LEFT),
        "--depth": DEPTH}),
    "flow": (cmd_flow, "enhanced quake flow records", {
        "scenario": SCENARIO,
        "--grid": dict(help="t=lo:hi:n (default: the scenario's times)")}),
    "bend": (cmd_bend, "bent grid vertices in H3 or AdS", {
        "scenario": SCENARIO,
        "--target": dict(choices=[bd.HYPERBOLIC, bd.ADS],
                         default=bd.HYPERBOLIC),
        "--depth": DEPTH,
        "--grid": dict(default="x=-1.5:1.5:12,y=0.3:2.5:12",
                       help="x=lo:hi:n,y=lo:hi:n (default: %(default)s)"),
        "--mesh-out": dict(default=None)}),
    "blackhole": (cmd_blackhole, "black-hole rectangles and meridians", {
        "scenario": SCENARIO, "--depth": DEPTH}),
    "wick": (cmd_wick, "Wick-rotation grid records", {
        "--grid": dict(default="T=1.2:2.8:5,u=-0.8:0.8:5,zeta=-0.8:1.2:5",
                       help="T=lo:hi:n,u=lo:hi:n,zeta=lo:hi:n "
                            "(default: %(default)s)"),
        "--alpha0": dict(type=float, default=1.0),
        "--mesh-out": dict(default=None)}),
    "btz": (cmd_btz, "BTZ invariants from the horizon radii", {
        "--rp": dict(type=float, required=True),
        "--rm": dict(type=float, required=True)}),
    "verify": (cmd_verify, "run the cross-oracle suites", {
        "--suite": dict(choices=["all"] + sorted(VERIFY_SUITES),
                        default="all"),
        "--tol": dict(type=float, default=None)}),
}


# built once per process, as parsing leaves no state in the parser: prog
# is fixed, no default is mutable and help reads the terminal width when
# it is formatted
@cache
def build_parser():
    ap = argparse.ArgumentParser(
        prog="quakebend",
        description="earthquakes, bending, Wick rotations and AdS "
                    "black-hole invariants")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (handler, help_text, flags) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag, kwargs in flags.items():
            p.add_argument(flag, **kwargs)
        p.set_defaults(func=handler)
    return ap


def _run(args):
    """Write the records of the command's handler; its exit code."""
    try:
        # records already written stay written when the handler fails
        for rec in args.func(args):
            emit(args.command, rec)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except VerificationError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except QuakebendError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except OverflowError as exc:
        # float arithmetic of the math module past the largest double
        print(f"domain error: overflow: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    return 0


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        code = _run(args)
        # a closed pipe fails here, not in the flush at exit
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout (`| head`, say): stdout goes to devnull,
        # so that the flush at exit cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_PIPE
    return code


if __name__ == "__main__":
    sys.exit(main())
