"""Scenario files: versioned JSON descriptions of surfaces, laminations
and command parameters consumed by the CLI.

Layout::

    {
      "version": 1,
      "surface": {"g": 1, "r": 1},
      "pants":  {"num_pants": 1, "interior": [[[0,0],[0,1]]],
                 "boundary": [[0,2]]},
      "fn":     {"l": [1.0, 2.0], "t": [0.3]},      # boundary then interior
      "shear":  {"tri": {"num_triangles": 2,
                         "gluing": [[[0,0],[1,0]], ...]}, "s": [1,1,1]},
      "lamination": {"family": "multicurve", "weights": [0.7],
                     "signature": [1], "eta": [1]},
      "eps": [1], "times": [0.0, 1.0]                  # flow only
    }

Exactly one of "fn" (with "pants") or "shear" describes the structure.
"""

from __future__ import annotations

import json
import math

from quakebend import teich
from quakebend import lamination as lm
from quakebend.errors import ParseError, StructureError

VERSION = 1


def load(path):
    try:
        with open(path) as fh:
            data = json.load(fh)
    except FileNotFoundError as exc:
        raise ParseError(f"scenario file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(str(exc), line=exc.lineno) from exc
    if not isinstance(data, dict):
        raise ParseError("scenario must be a JSON object")
    if data.get("version") != VERSION:
        raise ParseError(f"unsupported scenario version {data.get('version')!r}")
    return data


def _values(kind, sec, key, default=None):
    """The entries of the list sec[key] (`default` when absent) as a
    tuple of `kind`; anything else is a ParseError."""
    try:
        return tuple(kind(v) for v in sec.get(key, default))
    except (AttributeError, TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"malformed {key!r} entries: {exc}") from exc


def _sign(v):
    """A sign entry as an int: a bool or a fraction is not one."""
    if isinstance(v, bool) or v != int(v):
        raise ValueError(f"{v!r} is not an integer")
    return int(v)


def _finite(v):
    """A real entry as a float: NaN and the infinities are not one."""
    if not math.isfinite(float(v)):
        raise ValueError(f"{v!r} is not a finite number")
    return float(v)


def _require(data, key):
    if key not in data:
        raise ParseError(f"missing scenario section {key!r}")
    return data[key]


def pant_decomposition(data):
    sec = _require(data, "pants")
    try:
        interior = tuple((tuple(map(tuple, pair))) for pair in sec["interior"])
        boundary = tuple(map(tuple, sec["boundary"]))
        return teich.PantDecomposition(int(sec["num_pants"]), interior, boundary)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed pants section: {exc}") from exc
    except StructureError as exc:
        raise ParseError(f"inconsistent pants section: {exc}") from exc


def triangulation(data):
    sec = _require(data, "shear")
    try:
        tri = sec["tri"]
        gluing = tuple((tuple(map(tuple, pair))) for pair in tri["gluing"])
        return teich.IdealTriangulation(int(tri["num_triangles"]), gluing)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed shear section: {exc}") from exc
    except StructureError as exc:
        raise ParseError(f"inconsistent triangulation: {exc}") from exc


def _check_surface_section(data, genus, punctures):
    sec = data.get("surface", {})
    try:
        g, r = int(sec.get("g", genus)), int(sec.get("r", punctures))
    except (AttributeError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed surface section: {exc}") from exc
    if g != genus:
        raise ParseError(f"surface.g = {g} but the structure has genus {genus}")
    if r != punctures:
        raise ParseError(f"surface.r = {r} but the structure has "
                         f"{punctures} punctures")


def surface_point(data):
    """(point, pd-or-None): the FN or shear structure of the scenario."""
    if "fn" in data:
        pd = pant_decomposition(data)
        l, t = (_values(_finite, data["fn"], key) for key in ("l", "t"))
        nb = pd.num_boundary
        if len(l) != nb + pd.num_interior:
            raise ParseError(
                f"fn.l must list {nb} boundary then {pd.num_interior} "
                "interior lengths")
        fn = teich.FNPoint(l[:nb], l[nb:], t)
        _check_surface_section(data, pd.genus, pd.num_boundary)
        fn.check(pd)
        return fn, pd
    if "shear" in data:
        tri = triangulation(data)
        s = _values(_finite, data["shear"], "s")
        if len(s) != tri.num_edges:
            raise ParseError(f"shear.s must list {tri.num_edges} values")
        _check_surface_section(data, tri.genus, tri.num_punctures)
        return teich.ShearPoint(tri, s), None
    raise ParseError("scenario has neither an 'fn' nor a 'shear' section")


def lamination(data, point):
    sec = data.get("lamination")
    if sec is None:
        return None
    weights = _values(_finite, sec, "weights")
    family = sec.get("family")
    if family == "multicurve":
        if not isinstance(point, teich.FNPoint):
            raise ParseError("multicurve laminations need an fn surface")
        if len(weights) != len(point.interior_lengths):
            raise ParseError("multicurve weights must list one value per "
                             "interior curve")
        return lm.MultiCurveLam(weights)
    if family == "triangulation":
        if not isinstance(point, teich.ShearPoint):
            raise ParseError("triangulation laminations need a shear surface")
        try:
            if "signature" in sec:
                return lm.TriangulationLam(point.triangulation, weights,
                                           _values(_sign, sec, "signature"))
            return lm.TriangulationLam.from_shear(point, weights)
        except StructureError as exc:
            raise ParseError(f"inconsistent lamination: {exc}") from exc
    raise ParseError(f"unknown lamination family {family!r}")


def eta(data, lam, point):
    """Enhancement signs for the lamination, defaulting to its signature."""
    kinds = teich.puncture_kinds(point)
    values = _values(_sign, data["lamination"], "eta",
                     lm.signature(lam, len(kinds)))
    try:
        return lm.EnhancedLam(lam, values, kinds)
    except StructureError as exc:
        raise ParseError(f"inconsistent lamination.eta: {exc}") from exc


def enhanced_point(data, point):
    """The point with the boundary-orientation signs `eps`, +1 by default."""
    eps = _values(_sign, data, "eps", (1,) * len(teich.puncture_kinds(point)))
    try:
        return teich.EnhancedPoint(point, eps)
    except StructureError as exc:
        raise ParseError(f"inconsistent eps: {exc}") from exc


def times(data):
    """The flow times, none by default."""
    return _values(_finite, data, "times", ())
