import contextlib
import io
import json
import math
import os
import random
import subprocess
import sys
import warnings
from importlib.metadata import EntryPoint
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from quakebend import bending as bd
from quakebend import blackhole as bh
from quakebend import cli
from quakebend import earthquake as eq
from quakebend import isometry as iso
from quakebend import lamination as lm
from quakebend import scenario
from quakebend import teich
from quakebend.errors import DomainError

import oracles


# a numpy overflow or invalid value on a CLI path fails the run
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


TORUS_SCENARIO = {
    "version": 1,
    "surface": {"g": 1, "r": 1},
    "pants": {"num_pants": 1, "interior": [[[0, 0], [0, 1]]],
              "boundary": [[0, 2]]},
    "fn": {"l": [1.0, 2.0], "t": [0.3]},
    "lamination": {"family": "multicurve", "weights": [0.5]},
}

# l_C = 2, I_C = 1, spiraling +1 (negative shears make sigma positive)
FLOW_SCENARIO = {
    "version": 1,
    "surface": {"g": 1, "r": 1},
    "shear": {"tri": {"num_triangles": 2,
                      "gluing": [[[0, 0], [1, 0]], [[0, 1], [1, 1]],
                                 [[0, 2], [1, 2]]]},
              "s": [-1.0 / 3.0, -1.0 / 3.0, -1.0 / 3.0]},
    "lamination": {"family": "triangulation",
                   "weights": [1.0 / 6.0, 1.0 / 6.0, 1.0 / 6.0]},
    "times": [0.0, 1.0, 2.0, 3.0],
}

# shear three-punctured sphere whose depth-8 lifts spiral into shared
# ideal points, realized up to 5.7e-8 rad apart
SPIRAL_SPHERE = {
    "version": 1,
    "surface": {"g": 0, "r": 3},
    "shear": {"tri": {"num_triangles": 2,
                      "gluing": [[[0, 0], [1, 2]], [[0, 1], [1, 1]],
                                 [[0, 2], [1, 0]]]},
              "s": [1.0505768, 1.5813722, 0.6571415]},
    "lamination": {"family": "triangulation",
                   "weights": [0.5934013, 0.1410365, 0.3577207]},
}

# ROADMAP defect 1's case: random.Random(23) shears from U(0.3, 2), then
# weights from U(0.05, 0.6), on the triangulation of sphere_shear.json
RANDOM_23_SPHERE = {
    **SPIRAL_SPHERE,
    "shear": {**SPIRAL_SPHERE["shear"],
              "s": [1.872270927764107, 1.912629822588401, 1.817136684882585]},
    "lamination": {"family": "triangulation",
                   "weights": [0.09595287225687599, 0.37561497478715433,
                               0.28306107452922874]},
}

# ROADMAP defect 1's base-point case, the 58th of random.Random(3)'s
# spheres (shears U(0.3, 2.5), weights U(0.05, 1.5), rounded to 0.01):
# the base point lies beyond the convex core
BEYOND_CORE_SPHERE = {
    **SPIRAL_SPHERE,
    "shear": {**SPIRAL_SPHERE["shear"], "s": [2.44, 1.21, 1.94]},
    "lamination": {"family": "triangulation", "weights": [0.28, 1.05, 1.15]},
}

SCENARIOS = Path(__file__).resolve().parent.parent / "scripts" / "scenarios"

# genus 1 with two geodesic boundaries of equal length 1.2 at puncture 1
TWO_BOUNDARY_TORUS = json.loads(
    (SCENARIOS / "torus_two_boundary.json").read_text())

# closed genus 2: two pants glued along three curves, weight on z0
GENUS_TWO = {
    "version": 1,
    "surface": {"g": 2, "r": 0},
    "pants": {"num_pants": 2,
              "interior": [[[0, 0], [1, 0]], [[0, 1], [1, 1]], [[0, 2], [1, 2]]],
              "boundary": []},
    "fn": {"l": [1.0, 1.2, 1.4], "t": [0.1, 0.2, 0.3]},
    "lamination": {"family": "multicurve", "weights": [0.5, 0.0, 0.0]},
}

# genus 2 with one boundary: three pants, weight on z1.  Its curve words
# fail the quake cross-oracle (z3 with residual 15, zpp3 with 4e5), so
# the surface is refused
GENUS_TWO_ONE_BOUNDARY = {
    "version": 1,
    "surface": {"g": 2, "r": 1},
    "pants": {"num_pants": 3,
              "interior": [[[0, 0], [0, 1]], [[0, 2], [1, 0]],
                           [[1, 1], [2, 0]], [[2, 1], [2, 2]]],
              "boundary": [[1, 2]]},
    "fn": {"l": [1.0, 1.1, 1.3, 1.5, 1.2], "t": [0.1, 0.2, 0.3, 0.4]},
    "lamination": {"family": "multicurve", "weights": [0.0, 0.5, 0.0, 0.0]},
}


def run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, [json.loads(line) for line in out.splitlines() if line]


def read_noff(path):
    """Strict reader of the Geomview nOFF text format: header, vertex
    dimension, counts, one line of finite coordinates per vertex, one
    line per face with in-range indices, nothing after the faces."""
    lines = Path(path).read_text().splitlines()
    assert lines[0] == "nOFF"
    dim = int(lines[1])
    nv, nf, ne = map(int, lines[2].split())
    assert ne == 0 and len(lines) == 3 + nv + nf
    vertices = [[float(c) for c in line.split()] for line in lines[3:3 + nv]]
    assert all(len(v) == dim and all(map(math.isfinite, v))
               for v in vertices)
    faces = []
    for line in lines[3 + nv:]:
        k, *idx = map(int, line.split())
        assert k >= 3 and len(idx) == k
        assert all(0 <= i < nv for i in idx)
        faces.append(idx)
    return dim, vertices, faces


def write_scenario(tmp_path, data, name="sc.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


class TestClassify:
    def test_hyperbolic(self, capsys):
        code, recs = run(capsys, ["classify", "--matrix",
                                  f"{math.e},0,0,{1/math.e}"])
        assert code == 0
        assert recs[0]["kind"] == "hyperbolic"
        assert recs[0]["translation_length"] == pytest.approx(2.0)

    def test_bad_matrix_exit_code(self, capsys):
        code, _ = run(capsys, ["classify", "--matrix", "1,1,1,1"])
        assert code == cli.EXIT_DOMAIN

    def test_parse_error_exit_code(self, capsys):
        code, _ = run(capsys, ["classify", "--matrix", "1,2,3"])
        assert code == cli.EXIT_PARSE


class TestEntryPoint:
    """The console script that an install of the package puts on PATH."""

    def test_resolves_to_main(self, capsys):
        tomllib = pytest.importorskip("tomllib")
        with open(Path(__file__).resolve().parent.parent / "pyproject.toml",
                  "rb") as fh:
            scripts = tomllib.load(fh)["project"]["scripts"]
        main = EntryPoint("quakebend", scripts["quakebend"],
                          "console_scripts").load()
        assert main(["verify", "--suite", "btz"]) == 0
        assert json.loads(capsys.readouterr().out)["ok"] is True
        assert main(["classify", "--matrix", "1,2,3"]) == cli.EXIT_PARSE


class TestOneParser:
    """main parses with one parser per process, built on the first call."""

    SEQUENCE = [["--help"], ["bend", "--help"], ["no-such-command"],
                ["classify"], ["classify", "--matrix", "1,1,1,1"],
                ["verify", "--suite", "btz"], ["classify"],
                ["classify", "--matrix", f"{math.e},0,0,{1 / math.e}"]]

    @staticmethod
    def outcome(capsys, argv):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = ("SystemExit", exc.code)
        out, err = capsys.readouterr()
        return code, out, err

    def test_calls_in_one_process_match_calls_alone(self, capsys):
        alone = []
        for argv in self.SEQUENCE:
            cli.build_parser.cache_clear()
            alone.append(self.outcome(capsys, argv))
        cli.build_parser.cache_clear()
        assert [self.outcome(capsys, argv) for argv in self.SEQUENCE] == alone
        assert cli.build_parser.cache_info().misses == 1
        assert cli.build_parser() is cli.build_parser()
        assert [code for code, _, _ in alone] == [
            ("SystemExit", 0), ("SystemExit", 0), ("SystemExit", 2),
            ("SystemExit", 2), cli.EXIT_DOMAIN, 0, ("SystemExit", 2), 0]


class TestScenarios:
    def test_holonomy_lengths(self, tmp_path, capsys):
        path = write_scenario(tmp_path, TORUS_SCENARIO)
        code, recs = run(capsys, ["holonomy", path])
        assert code == 0
        by_curve = {r["curve"]: r for r in recs if "curve" in r}
        assert by_curve["C0"]["length"] == pytest.approx(1.0, abs=1e-9)
        assert by_curve["z0"]["length"] == pytest.approx(2.0, abs=1e-9)

    def test_missing_file(self, capsys):
        code, _ = run(capsys, ["holonomy", "/nonexistent.json"])
        assert code == cli.EXIT_PARSE

    def test_bad_version(self, tmp_path, capsys):
        path = write_scenario(tmp_path, {"version": 99})
        code, _ = run(capsys, ["holonomy", path])
        assert code == cli.EXIT_PARSE

    def test_determinism(self, tmp_path, capsys):
        path = write_scenario(tmp_path, TORUS_SCENARIO)
        cli.main(["quake", path, "--depth", "6"])
        out1 = capsys.readouterr().out
        cli.main(["quake", path, "--depth", "6"])
        out2 = capsys.readouterr().out
        assert out1 == out2

    def test_spectrum(self, tmp_path, capsys):
        path = write_scenario(tmp_path, FLOW_SCENARIO)
        code, recs = run(capsys, ["spectrum", path])
        assert code == 0
        p0 = next(r for r in recs if r.get("puncture") == 0)
        assert p0["I"] == pytest.approx(1.0)

    @pytest.mark.parametrize("s0,length", [(5e-6, 1e-5), (4e-5, 8e-5)])
    def test_short_boundary_is_a_boundary(self, tmp_path, capsys, s0,
                                          length):
        # boundary lengths 1e-5 and 8e-5 on either side of classify's cut
        # (|tr| - 2 = l^2 / 4 against iso.TAU_CLASS, l ~ 6.3e-5): holonomy
        # takes the kind from the shear sums, as spectrum does
        data = json.loads((SCENARIOS / "torus_flow.json").read_text())
        data["shear"]["s"] = [s0, 0.5, -0.5]
        path = write_scenario(tmp_path, data)
        code, recs = run(capsys, ["holonomy", path])
        assert code == 0
        c0 = next(r for r in recs if r.get("curve") == "C0")
        assert c0["kind"] == "hyperbolic"
        assert c0["length"] == pytest.approx(length, rel=1e-6)
        assert recs[-1]["types"] == ["boundary"]
        code, recs = run(capsys, ["spectrum", path])
        assert code == 0
        assert [r["kind"] for r in recs if "puncture" in r] == ["boundary"]


# flags these commands do not read
IGNORED_FLAGS = [(cmd, flag) for cmd, flags in [
    ("holonomy", ("--depth", "--tol", "--mesh-out", "--grid")),
    ("spectrum", ("--depth", "--tol", "--mesh-out", "--grid")),
    ("quake", ("--tol", "--mesh-out", "--grid")),
    ("flow", ("--depth", "--tol", "--mesh-out")),
    ("bend", ("--tol",)),
    ("blackhole", ("--tol", "--mesh-out", "--grid")),
    ("wick", ("--depth", "--tol"))] for flag in flags]
FLAG_VALUES = {"--depth": "6", "--tol": "1e-6", "--mesh-out": "m.off",
               "--grid": "x=0:1:2"}


class TestFlags:
    @pytest.mark.parametrize("cmd,flag", IGNORED_FLAGS)
    def test_unread_flag_is_a_parse_error(self, tmp_path, capsys, cmd, flag):
        argv = [cmd] if cmd == "wick" else \
            [cmd, write_scenario(tmp_path, TORUS_SCENARIO)]
        with pytest.raises(SystemExit) as exc:
            cli.main(argv + [flag, FLAG_VALUES[flag]])
        assert exc.value.code == cli.EXIT_PARSE
        assert capsys.readouterr().out == ""


class TestTwoBoundaryTorus:
    """z1 of this surface is a non-tree edge joining its two pants."""

    def test_quake_matches_coordinates(self, capsys):
        path = str(SCENARIOS / "torus_two_boundary.json")
        code, recs = run(capsys, ["quake", path, "--depth", "8"])
        assert code == 0
        curves = [r for r in recs if "curve" in r]
        assert len(curves) == 8
        for r in curves:
            assert r["converged"] is True
            assert r["residual"] <= 1e-8 * r["trace_coordinates"], r

    def test_quake_at_depth_10_matches_the_depth_8_golden(self, capsys):
        # the hexagon walk has no depth (the full word tree would be over
        # the word budget at depth 10)
        path = str(SCENARIOS / "torus_two_boundary.json")
        code, recs = run(capsys, ["quake", path, "--side", "left",
                                  "--depth", "10"])
        assert code == 0
        golden = Path(__file__).resolve().parent / "golden"
        d8 = [json.loads(line) for line in
              (golden / "torus_two_boundary-quake-left-d8.jsonl")
              .read_text().splitlines()]
        assert len(recs) == len(d8)
        for r, g in zip(recs, d8):
            assert r.pop("depth", 10) == 10 and g.pop("depth", 8) == 8
            assert r == g
        assert all(r["converged"] is True for r in recs if "curve" in r)


class TestDomainErrors:
    """A domain error exits 3 and leaves stdout empty."""

    @pytest.mark.parametrize("argv", [
        ["holonomy"], ["quake", "--depth", "8"],
        ["bend", "--target", "hyperbolic", "--depth", "6"],
        ["spectrum"], ["flow", "--grid", "t=0:1:2"]])
    def test_closed_surface_rejected(self, tmp_path, capsys, argv):
        # a closed FN surface has at least two pants, so genus >= 2
        path = write_scenario(tmp_path, GENUS_TWO)
        code = cli.main([argv[0], path] + argv[1:])
        assert code == cli.EXIT_DOMAIN
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("argv", [
        ["holonomy"], ["quake", "--depth", "6"],
        ["bend", "--target", "hyperbolic", "--depth", "6"],
        ["blackhole", "--depth", "6"], ["spectrum"],
        ["flow", "--grid", "t=0:1:2"]])
    def test_genus_two_surface_rejected(self, tmp_path, capsys, argv):
        path = write_scenario(tmp_path, GENUS_TWO_ONE_BOUNDARY)
        code = cli.main([argv[0], path] + argv[1:])
        assert code == cli.EXIT_DOMAIN
        assert capsys.readouterr().out == ""

    def test_quake_base_point_on_leaf(self, tmp_path, capsys, monkeypatch):
        # the scenario's point: boundary length 1, l_z0 = 2, t = 0.3
        h = teich.holonomy_of(teich.FNPoint((1.0,), (2.0,), (0.3,)),
                              teich.PantDecomposition.once_punctured_torus())
        monkeypatch.setattr(eq, "BASE_POINT", iso.apply_h2(
            iso.axis(h.curve("z0")).map_from_standard(), 1j))
        path = write_scenario(tmp_path, TORUS_SCENARIO)
        assert cli.main(["quake", path, "--depth", "6"]) == cli.EXIT_DOMAIN
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("argv", [
        ["quake", "--depth", "8"], ["blackhole", "--depth", "1"],
        ["bend", "--target", "hyperbolic"], ["bend", "--target", "ads"]])
    def test_base_point_beyond_the_core(self, tmp_path, capsys, argv):
        path = write_scenario(tmp_path, BEYOND_CORE_SPHERE)
        code = cli.main([argv[0], path] + argv[1:])
        out, err = capsys.readouterr()
        assert code == cli.EXIT_DOMAIN and out == ""
        assert err == "domain error: the base point lies beyond the convex core\n"

    @pytest.mark.parametrize("length", [5e-5, 1e-9])
    @pytest.mark.parametrize("argv", [
        ["holonomy"], ["quake", "--depth", "6"],
        ["bend", "--target", "hyperbolic", "--depth", "6"],
        ["blackhole", "--depth", "6"], ["spectrum"]])
    def test_fn_boundary_too_short(self, tmp_path, capsys, argv, length):
        # |tr| - 2 of such a cuff is under iso.TAU_CLASS: it is neither a
        # cusp nor a boundary the pant normal form can frame
        path = write_scenario(tmp_path, {**TORUS_SCENARIO, "fn": {
            "l": [length, 2.0], "t": [0.3]}})
        code = cli.main([argv[0], path] + argv[1:])
        out, err = capsys.readouterr()
        assert code == cli.EXIT_DOMAIN and out == ""
        assert err.startswith("domain error: boundary lengths in (0, ")

    @pytest.mark.parametrize("length", [5e-5, 1e-9])
    @pytest.mark.parametrize("argv", [
        ["holonomy"], ["quake", "--depth", "6"],
        ["bend", "--target", "hyperbolic", "--depth", "6"],
        ["blackhole", "--depth", "6"], ["spectrum"]])
    def test_fn_interior_too_short(self, tmp_path, capsys, argv, length):
        path = write_scenario(tmp_path, {**TORUS_SCENARIO, "fn": {
            "l": [1.0, length], "t": [0.3]}})
        code = cli.main([argv[0], path] + argv[1:])
        out, err = capsys.readouterr()
        assert code == cli.EXIT_DOMAIN and out == ""
        assert err.startswith("domain error: interior curve lengths in (0, ")

    # just above MIN_BOUNDARY, lengths whose cuffs still round to
    # |tr| - 2 under iso.TAU_CLASS: the boundary length is the largest
    # such one, found by bisection (the next double is hyperbolic)
    @pytest.mark.parametrize("l,kind", [
        ([6.32455645944225e-05, 2.0], "boundary"),
        ([1.0, teich.MIN_BOUNDARY * (1.0 + 1e-7)], "interior curve")])
    @pytest.mark.parametrize("argv", [
        ["holonomy"], ["quake", "--depth", "6"],
        ["bend", "--target", "hyperbolic", "--depth", "6"],
        ["blackhole", "--depth", "6"]])
    def test_fn_length_in_the_rounding_sliver(self, tmp_path, capsys, argv,
                                              l, kind):
        assert min(l) > teich.MIN_BOUNDARY
        path = write_scenario(tmp_path, {**TORUS_SCENARIO, "fn": {
            "l": l, "t": [0.3]}})
        code = cli.main([argv[0], path] + argv[1:])
        out, err = capsys.readouterr()
        assert code == cli.EXIT_DOMAIN and out == ""
        assert err.startswith(f"domain error: {kind} lengths in (0, ")

    def test_fn_boundary_above_the_sliver(self, tmp_path, capsys):
        path = write_scenario(tmp_path, {**TORUS_SCENARIO, "fn": {
            "l": [float(np.nextafter(6.32455645944225e-05, 1.0)), 2.0],
            "t": [0.3]}})
        code, recs = run(capsys, ["holonomy", path])
        assert code == 0
        assert [r["kind"] for r in recs if r.get("curve") == "C0"] \
            == ["hyperbolic"]

    def test_fn_boundary_above_the_bound(self, tmp_path, capsys):
        path = write_scenario(tmp_path, {**TORUS_SCENARIO, "fn": {
            "l": [7e-5, 2.0], "t": [0.3]}})
        code, recs = run(capsys, ["holonomy", path])
        assert code == 0
        assert [r["kind"] for r in recs if r.get("curve") == "C0"] \
            == ["hyperbolic"]


class TestNonFiniteOutput:
    """Input the parser accepts but whose numbers overflow exits 3 with a
    domain error: no traceback, and no Infinity or NaN, which are not
    JSON, on stdout."""

    @pytest.mark.parametrize("argv", [
        ["bend", str(SCENARIOS / "torus_multicurve.json"),
         "--grid", "x=-1e200:1e200:2,y=0.5:1:2"],
        # a finite reach, but an infinite hyperboloid point
        ["bend", str(SCENARIOS / "torus_multicurve.json"),
         "--grid", "x=-1:1:2,y=1e300:2e300:2"],
        ["wick", "--grid", "T=1.2:2:1,u=0:0:1,zeta=-400:-400:1"],
        ["btz", "--rp", "1e200", "--rm", "0"]])
    def test_exits_3(self, capsys, argv):
        # bend refuses its grid before any record, and without a numpy
        # overflow warning (the module makes one an error)
        code = cli.main(argv)
        out, err = capsys.readouterr()
        assert code == cli.EXIT_DOMAIN
        assert err.startswith("domain error: ")
        assert out == ""


class TestClosedPipe:
    """A reader that closes stdout before the end of the stream (`| head`)
    ends the run with EXIT_PIPE and an empty stderr, not a
    BrokenPipeError traceback."""

    @pytest.mark.parametrize("argv", [
        # both streams overfill the pipe before the reader closes it
        ["bend", str(SCENARIOS / "torus_multicurve.json"),
         "--grid", "x=-1.5:1.5:60,y=0.3:2.5:60"],
        ["wick", "--grid", "T=1.2:2.8:12,u=-0.8:0.8:12,zeta=-0.8:1.2:12"]])
    def test_exit_code_and_quiet_stderr(self, argv):
        src = str(Path(cli.__file__).resolve().parent.parent)
        proc = subprocess.Popen(
            [sys.executable, "-m", "quakebend.cli", *argv],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env=dict(os.environ, PYTHONPATH=src))
        try:
            first = proc.stdout.readline()
            proc.stdout.close()
            code = proc.wait(timeout=60)
            err = proc.stderr.read()
        finally:
            proc.kill()
            proc.wait()
            proc.stderr.close()
        assert json.loads(first)["command"] == argv[0]
        assert code == cli.EXIT_PIPE
        assert err == b""


# the floats whose shortest repr is easy to get wrong, then any finite one
TRICKY_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e16, 1e22, -1e22,
                     0.1 + 0.2, 1.7976931348623157e308]),
    st.floats(allow_nan=False, allow_infinity=False))
VERTICES = arrays(np.float64, st.tuples(st.integers(0, 12), st.just(4)),
                  elements=TRICKY_FLOATS)


class TestVertexBlock:
    """`emit` writes the vertex array of `bend` as one block, with the
    bytes that one json encoding per record gives, and refuses a row
    with a non-finite entry after the rows before it."""

    ARGV = ["bend", str(SCENARIOS / "torus_multicurve.json"),
            "--grid", "x=-1:1:2,y=0.5:1.5:2"]

    @staticmethod
    def per_record(rows):
        return "".join(json.dumps({"command": "bend", "vertex": row},
                                  sort_keys=True, allow_nan=False) + "\n"
                       for row in rows.tolist())

    def bend(self, vertices):
        """(exit code, stdout after the header record, stderr) of `bend`
        with `bending.bend_points` giving `vertices`, written three rows
        per block."""
        out, err = io.StringIO(), io.StringIO()
        with pytest.MonkeyPatch.context() as mp, \
                contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            mp.setattr(bd, "bend_points", lambda ctx, zs: vertices)
            mp.setattr(cli, "EMIT_ROWS", 3)
            code = cli.main(self.ARGV)
        head = json.dumps({"command": "bend", "depth": 8,
                           "points": len(vertices), "target": "hyperbolic"})
        lines = out.getvalue().split("\n", 1)
        assert lines[0] == head
        return code, lines[1], err.getvalue()

    @settings(max_examples=60, deadline=None)
    @given(VERTICES)
    def test_bytes_of_one_record_per_row(self, vertices):
        code, out, err = self.bend(vertices)
        assert (code, err) == (0, "")
        assert out == self.per_record(vertices)

    @settings(max_examples=30, deadline=None)
    @given(VERTICES.filter(len), st.data())
    def test_non_finite_row(self, vertices, data):
        k = data.draw(st.integers(0, len(vertices) - 1))
        vertices[k, data.draw(st.integers(0, 3))] = data.draw(
            st.sampled_from([math.nan, math.inf, -math.inf]))
        with pytest.raises(ValueError) as exc:
            self.per_record(vertices[k:k + 1])
        code, out, err = self.bend(vertices)
        assert code == cli.EXIT_DOMAIN
        assert out == self.per_record(vertices[:k])
        assert err == ("domain error: a record holds a non-finite number "
                       f"({exc.value})\n")


def scenario_with(name, **sections):
    """scripts/scenarios/<name>.json with the given sections replaced."""
    return {**json.loads((SCENARIOS / f"{name}.json").read_text()),
            **sections}


FLOW_LAM = scenario_with("torus_flow")["lamination"]
SPHERE_LAM = scenario_with("sphere_shear")["lamination"]

# (id, scenario, replaced sections, command): scenario sections that the
# parser rejects (exit 2) before any record is written
BAD_SECTIONS = [
    ("surface-g", "torus_multicurve", {"surface": {"g": "x"}}, "holonomy"),
    ("surface-number", "torus_multicurve", {"surface": 5}, "holonomy"),
    ("lamination-list", "torus_multicurve", {"lamination": [1, 2]},
     "spectrum"),
    *[(f"eta-{label}-{cmd}", "torus_flow",
       {"lamination": {**FLOW_LAM, "eta": eta}}, cmd)
      for label, eta in (("text", ["x"]), ("empty", []), ("extra", [1, 1]))
      for cmd in ("spectrum", "flow")],
    ("eps-text", "torus_flow", {"eps": ["x"]}, "flow"),
    ("eps-empty", "torus_flow", {"eps": []}, "flow"),
    ("eps-fraction", "torus_flow", {"eps": [1.7]}, "flow"),
    ("eps-bool", "torus_flow", {"eps": [True]}, "flow"),
    ("eps-infinite", "torus_flow", {"eps": [float("inf")]}, "flow"),
    ("eta-fraction", "torus_flow", {"lamination": {**FLOW_LAM, "eta": [1.2]}},
     "spectrum"),
    ("signature-bool", "sphere_shear", {"lamination": {
        **SPHERE_LAM, "signature": [True, 1, 1]}}, "spectrum"),
    ("signature-count", "sphere_shear", {"lamination": {
        **SPHERE_LAM, "signature": [1, 1]}}, "spectrum"),
    ("triangulation-weight-count", "sphere_shear", {"lamination": {
        **SPHERE_LAM, "weights": [0.4, 0.7]}}, "spectrum"),
    ("times-text", "torus_flow", {"times": ["x"]}, "flow"),
    ("times-number", "torus_flow", {"times": 3}, "flow"),
    # non-finite numbers: JSON NaN and Infinity parse, but are no value
    ("times-nan", "torus_flow", {"times": [math.nan]}, "flow"),
    ("weights-nan", "torus_flow", {"lamination": {
        **FLOW_LAM, "weights": [math.nan] * 3}}, "quake"),
    ("shear-infinite", "torus_flow", {"shear": {
        **scenario_with("torus_flow")["shear"],
        "s": [math.inf, -0.3, -0.3]}}, "flow"),
    *[(f"fn-t-nan-{cmd}", "torus_multicurve",
       {"fn": {"l": [1.0, 2.0], "t": [math.nan]}}, cmd)
      for cmd in ("quake", "bend")],
    ("fn-l-infinite", "torus_multicurve",
     {"fn": {"l": [math.inf, 2.0], "t": [0.3]}}, "quake"),
    *[(f"multicurve-on-shear-{cmd}", "sphere_shear",
       {"lamination": {"family": "multicurve", "weights": [0.5]}}, cmd)
      for cmd in ("spectrum", "quake", "flow", "bend", "blackhole")],
    *[(f"multicurve-extra-weight-{cmd}", "torus_multicurve",
       {"lamination": {"family": "multicurve", "weights": [0.5, 0.2]}}, cmd)
      for cmd in ("spectrum", "quake")],
]


class TestScenarioSections:
    @pytest.mark.parametrize("name,sections,cmd",
                             [case[1:] for case in BAD_SECTIONS],
                             ids=[case[0] for case in BAD_SECTIONS])
    def test_parse_error(self, tmp_path, capsys, name, sections, cmd):
        path = write_scenario(tmp_path, scenario_with(name, **sections))
        assert cli.main([cmd, path]) == cli.EXIT_PARSE
        assert capsys.readouterr().out == ""

    def test_integral_float_sign(self, tmp_path, capsys):
        # a sign written 1.0 is the sign 1
        runs = [run(capsys, ["flow", write_scenario(
            tmp_path, scenario_with("torus_flow", eps=eps))])
                for eps in ([1], [1.0])]
        assert runs[0][0] == 0 and runs[0] == runs[1]


class TestGridInput:
    """A grid is checked before any record is written: a malformed one is
    a parse error (exit 2), a bend grid off the upper half-plane a domain
    error (exit 3)."""

    @pytest.mark.parametrize("argv", [
        ["bend", "--grid", "y=0.3:2:3"],                     # no x axis
        ["wick", "--grid", "T=1.2:2:2,u=-0.5:0.5:2"],        # no zeta axis
        ["bend", "--grid", "x=-1:1:3,y=0.5:1:2,z=1:2:2"],    # unknown axis
        ["bend", "--grid", "x=-1:1:0,y=0.5:1:2"],            # no points
        ["bend", "--grid", "x=-1:1:2,y=0.5:1:2,x=0:1:2"],    # axis twice
        ["bend", "--grid", "x=-1:nan:2,y=0.5:1:2"],          # bound not finite
        ["flow", "--grid", "s=0:1:2"]])                     # no t axis
    def test_parse_error(self, tmp_path, capsys, argv):
        if argv[0] != "wick":
            scen = FLOW_SCENARIO if argv[0] == "flow" else TORUS_SCENARIO
            argv = argv[:1] + [write_scenario(tmp_path, scen)] + argv[1:]
        assert cli.main(argv) == cli.EXIT_PARSE
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("grid", ["x=-1:1:3,y=-1:1:3", "x=-1:1:3,y=0:1:3"])
    def test_bend_below_the_upper_half_plane(self, tmp_path, capsys, grid):
        path = write_scenario(tmp_path, TORUS_SCENARIO)
        assert cli.main(["bend", path, "--grid", grid]) == cli.EXIT_DOMAIN
        assert capsys.readouterr().out == ""

    def test_one_point_axes(self, tmp_path, capsys):
        path = write_scenario(tmp_path, TORUS_SCENARIO)
        code, recs = run(capsys, ["bend", path, "--grid", "x=0.2:0.2:1,y=1:1:1"])
        assert code == 0
        assert recs[0]["points"] == 1 and len(recs) == 2


class TestFlow:
    def test_ray_quake_bounce(self, tmp_path, capsys):
        # l(0)=2... here l(0)=2? shears sum to l=2: s=1/3 each -> l=2, I=1
        path = write_scenario(tmp_path, FLOW_SCENARIO)
        code, recs = run(capsys, ["flow", path])
        assert code == 0
        ls = [r["l"][0] for r in recs]
        assert ls == pytest.approx([2.0, 1.0, 0.0, 1.0])
        sig = [r["sigma"][0] for r in recs]
        assert sig[0] == 1 and sig[-1] == -1
        assert recs[2]["cusp"][0] is True


class TestBtz:
    def test_static(self, capsys):
        code, recs = run(capsys, ["btz", "--rp", "1", "--rm", "0"])
        assert code == 0
        assert recs[0]["M"] == 1.0 and recs[0]["J"] == 0.0

    def test_extremal(self, capsys):
        # r+ = r-: the extremal hole, M = |J|
        code, recs = run(capsys, ["btz", "--rp", "1", "--rm", "1"])
        assert code == 0
        assert recs[0]["M"] == recs[0]["J"] == 2.0
        assert recs[0]["f_at_r_plus"] == recs[0]["f_at_r_minus"] == 0.0

    def test_bad_ordering(self, capsys):
        code, _ = run(capsys, ["btz", "--rp", "0.5", "--rm", "0.7"])
        assert code == cli.EXIT_DOMAIN


class TestVerify:
    @pytest.mark.parametrize("suite", ["quake", "wick", "ds", "btz"])
    def test_suites_pass(self, capsys, suite):
        code, recs = run(capsys, ["verify", "--suite", suite])
        assert code == 0
        assert all(r["ok"] for r in recs)

    def test_wick_residual_bound(self, capsys):
        code, recs = run(capsys, ["verify", "--suite", "wick"])
        assert code == 0
        assert recs[0]["residual"] < 1e-4

    def test_failure_exit_code(self, capsys):
        code, _ = run(capsys, ["verify", "--suite", "wick", "--tol", "1e-30"])
        assert code == cli.EXIT_VERIFY


class TestWickCommand:
    def test_grid_records(self, capsys):
        code, recs = run(capsys, ["wick", "--grid",
                                  "T=1.5:2.5:2,u=0:0.5:2,zeta=-0.4:0.4:2"])
        assert code == 0
        assert recs[-1]["max_curvature_residual"] < 1e-4
        pt = recs[0]
        v = np.array(pt["image"])
        assert v @ np.diag([-1., 1., 1., 1.]) @ v == pytest.approx(-1.0, abs=1e-9)

    def test_mesh_output(self, tmp_path, capsys):
        mesh = tmp_path / "level.off"
        code, recs = run(capsys, ["wick", "--grid",
                                  "T=1.5:2.5:2,u=0:1:3,zeta=-0.5:0.5:3",
                                  "--mesh-out", str(mesh)])
        assert code == 0
        assert recs[-1] == {"command": "wick", "mesh": str(mesh), "level": 1.5}
        dim, vertices, faces = read_noff(mesh)
        assert dim == 4 and len(vertices) == 9 and len(faces) == 4
        # the mesh is the first level, T = 1.5, in the streamed order
        lines = mesh.read_text().splitlines()
        assert lines[3:12] == [" ".join(f"{c:.12g}" for c in r["image"])
                               for r in recs if r.get("T") == 1.5]


class TestWickErrorStreams:
    """A grid point that fails ends the stream: the records of the points
    before it go out whole (curvature included), then its error, exit 3."""

    def stream(self, capsys, grid):
        code = cli.main(["wick", "--grid", grid])
        out, err = capsys.readouterr()
        return code, out, err

    @pytest.mark.parametrize("grid,good,message", [
        # the second point's curvature stencil reaches below T = 1
        ("T=2:1.0015:2,u=0:0:1,zeta=-0.5:-0.5:1",
         "T=2:2:1,u=0:0:1,zeta=-0.5:-0.5:1",
         "the Wick rotation needs T > 1"),
        # the second point itself is below T = 1
        ("T=2:0.5:2,u=0:0:1,zeta=0.3:0.3:1",
         "T=2:2:1,u=0:0:1,zeta=0.3:0.3:1",
         "the Wick rotation needs T > 1"),
    ])
    def test_records_before_the_failing_point(self, capsys, grid, good,
                                              message):
        code, out, err = self.stream(capsys, grid)
        assert code == cli.EXIT_DOMAIN
        assert err == f"domain error: {message}\n"
        # byte for byte the first record of the grid of that point alone
        code, first, _ = self.stream(capsys, good)
        assert code == 0
        assert out == first.splitlines(keepends=True)[0]
        assert "curvature" in json.loads(out)

    def test_first_point_not_in_the_model(self, capsys):
        code, out, err = self.stream(capsys,
                                     "T=-1:2:2,u=0:0:1,zeta=-0.5:-0.5:1")
        assert code == cli.EXIT_DOMAIN
        assert out == ""
        assert err == "domain error: cosmological time must be positive\n"


def seeded_wick_grids(rng, n):
    """n seeded `wick` argument lists: 1 to 4 values on each axis, the
    bounds of an axis in either order, T above the stencils' reach of 1,
    zeta over the wing, the band and the rotated wing."""
    grids = []
    for k in range(n):
        bounds = {"T": rng.uniform(1.01, 3.0, 2).tolist(),
                  "u": rng.uniform(-1.5, 1.5, 2).tolist(),
                  "zeta": rng.uniform(-1.5, 2.5, 2).tolist()}
        grid = ",".join(f"{axis}={lo!r}:{hi!r}:{rng.integers(1, 5)}"
                        for axis, (lo, hi) in bounds.items())
        grids.append(["wick", "--grid", grid,
                      "--alpha0", ("1", "8", "inf", "0.5")[k % 4]])
    return grids


class TestWickColumns:
    """`wick` samples and fits each (T, zeta) column once: its stream,
    exit code and mesh are byte for byte those of every point sampled
    and fitted on its own (`oracles.wick_records_reference`)."""

    def streams(self, capsys, argv):
        code = cli.main(argv)
        out = capsys.readouterr().out
        args = cli.build_parser().parse_args(argv)
        args.func = oracles.wick_records_reference
        ref_code = cli._run(args)
        return (code, out), (ref_code, capsys.readouterr().out)

    @pytest.mark.parametrize("argv", seeded_wick_grids(
        np.random.default_rng(30), 30))
    def test_seeded_grids(self, capsys, argv):
        got, want = self.streams(capsys, argv)
        assert got == want
        assert got[0] == 0

    @pytest.mark.parametrize("grid", [
        # T = 0.5 fails after the records of T = 2 and 1.25
        "T=2:0.5:3,u=-0.5:0.5:2,zeta=-0.6:1.2:3",
        # every stencil reaches below T = 1: the stacked fit fails, and
        # the fit of the second point's column raises after the first,
        # on the seam, goes out
        "T=1.0001:1.0001:1,u=-0.5:0.5:2,zeta=0:-0.8:2",
    ])
    def test_failing_grids(self, capsys, grid):
        got, want = self.streams(capsys, ["wick", "--grid", grid])
        assert got == want
        assert got[0] == cli.EXIT_DOMAIN and got[1]

    def test_signed_zero_columns(self, capsys):
        # zeta = -0.0 and +0.0 are one dict key but two columns, whose
        # metrics differ in the sign of g_{T zeta}
        got, want = self.streams(
            capsys, ["wick", "--grid", "T=1.5:2.5:2,u=0:1:2,zeta=0:-0:2"])
        assert got == want
        recs = [json.loads(line) for line in got[1].splitlines()[:-1]]
        assert [math.copysign(1.0, r["metric"][0][1]) for r in recs] == \
            [math.copysign(1.0, r["zeta"]) for r in recs] == [1.0, -1.0] * 4

    def test_mesh(self, tmp_path, capsys):
        argv = ["wick", "--grid", "T=1.5:2.5:2,u=0:1:3,zeta=-0.5:0.5:3"]
        got, _ = self.streams(capsys, argv + ["--mesh-out",
                                              str(tmp_path / "got.off")])
        _, want = self.streams(capsys, argv + ["--mesh-out",
                                               str(tmp_path / "want.off")])
        assert got[0] == want[0] == 0
        assert (tmp_path / "got.off").read_bytes() == \
            (tmp_path / "want.off").read_bytes()


class TestBendCommand:
    def test_mesh(self, tmp_path, capsys):
        path = write_scenario(tmp_path, TORUS_SCENARIO)
        mesh = tmp_path / "bent.off"
        code, recs = run(capsys, ["bend", path, "--depth", "5",
                                  "--grid", "x=-0.5:0.5:3,y=0.7:1.5:3",
                                  "--mesh-out", str(mesh)])
        assert code == 0
        dim, vertices, faces = read_noff(mesh)
        assert dim == 4 and len(vertices) == 9 and len(faces) == 4

    @pytest.mark.parametrize("target", ["hyperbolic", "ads"])
    def test_mesh_matches_stream(self, tmp_path, capsys, target):
        # nx = 4 columns by ny = 3 rows, so a swapped stride shows
        argv = ["bend", str(SCENARIOS / "torus_multicurve.json"),
                "--target", target, "--grid", "x=-1.2:1.2:4,y=0.4:2:3"]
        code, recs = run(capsys, argv)
        assert code == 0
        streamed = [r["vertex"] for r in recs if "vertex" in r]
        mesh = tmp_path / "bent.off"
        code, recs = run(capsys, argv + ["--mesh-out", str(mesh)])
        assert code == 0
        assert recs[-1] == {"command": "bend", "mesh": str(mesh)}
        dim, vertices, faces = read_noff(mesh)
        assert dim == 4 and len(vertices) == 12
        assert sorted(faces) == sorted(
            [a, a + 1, a + 5, a + 4] for a in (0, 1, 2, 4, 5, 6))
        lines = mesh.read_text().splitlines()
        assert lines[3:15] == [" ".join(f"{c:.12g}" for c in v)
                               for v in streamed]

    @pytest.mark.parametrize("target", ["hyperbolic", "ads"])
    def test_crossing_leaves_exit_3(self, capsys, monkeypatch, target):
        # every crossing sequence goes through the disjointness check
        monkeypatch.setattr(lm, "leaves_pairwise_disjoint",
                            lambda leaves: False)
        code = cli.main(["bend", str(SCENARIOS / "torus_multicurve.json"),
                         "--target", target])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert "crossing leaves in the lift family" in captured.err

    def test_spiraling_lifts_on_shear_sphere(self, tmp_path, capsys):
        # asymptotic lifts are not crossing leaves: the bend succeeds, and
        # its image is a 1-Lipschitz map into the hyperboloid H3
        path = write_scenario(tmp_path, SPIRAL_SPHERE)
        code, recs = run(capsys, ["bend", path, "--target", "hyperbolic",
                                  "--depth", "8",
                                  "--grid", "x=-1.5988:1.5:12,y=0.3844:2.4:13"])
        assert code == 0
        v = np.array([r["vertex"] for r in recs if "vertex" in r])
        assert v.shape == (156, 4)
        assert np.allclose(np.sum(v[:, 1:] ** 2, axis=1) - v[:, 0] ** 2, -1.0,
                           atol=1e-9)
        assert np.all(v[:, 0] > 0)
        v = v.reshape(13, 12, 4)  # rows of constant y
        z = np.linspace(-1.5988, 1.5, 12)[None, :] \
            + 1j * np.linspace(0.3844, 2.4, 13)[:, None]
        for a, b, za, zb in ((v[:, :-1], v[:, 1:], z[:, :-1], z[:, 1:]),
                             (v[:-1], v[1:], z[:-1], z[1:])):
            d3 = np.arccosh(np.maximum(
                a[..., 0] * b[..., 0] - np.sum(a[..., 1:] * b[..., 1:], axis=-1),
                1.0))
            d2 = np.arccosh(1.0 + np.abs(za - zb) ** 2
                            / (2.0 * za.imag * zb.imag))
            assert np.all(d3 <= d2 + 1e-9)


    def test_grid_beyond_the_core_takes_the_word_family(self, tmp_path,
                                                        capsys):
        # 58 of the 156 points lie beyond the convex core, whose segments
        # from x0 cross walls: the query falls back to the depth-capped
        # word family, which at depth 10 finds crossing leaves (exit 3).
        # Refusing such a grid (ROADMAP defect 1) will change this.
        path = write_scenario(tmp_path, RANDOM_23_SPHERE)
        grid = "x=-1.048:1.108:12,y=0.298:2.156:13"
        code, recs = run(capsys, ["bend", path, "--depth", "10",
                                  "--grid", grid])
        assert code == 3 and recs == []
        code, _ = run(capsys, ["bend", path, "--depth", "8", "--grid", grid])
        assert code == 0
        # the first six columns above the first row lie in the core: the
        # walk decides them, the same at depths 8 and 10
        grid = "x=-1.048:-0.068:6,y=0.45283333333333337:2.156:12"
        streams = []
        for depth in ("8", "10"):
            code, recs = run(capsys, ["bend", path, "--depth", depth,
                                      "--grid", grid])
            assert code == 0
            streams.append([r for r in recs if "vertex" in r])
        assert len(streams[0]) == 72 and streams[0] == streams[1]
        data = scenario.load(path)
        point, _ = scenario.surface_point(data)
        zs = [complex(x, y)
              for y in np.linspace(0.45283333333333337, 2.156, 12)
              for x in np.linspace(-1.048, -0.068, 6)]
        ctx, _ = bd.make_context(point, scenario.lamination(data, point),
                                 depth=10, walk=True)
        bd.bend_points(ctx, zs)
        assert ctx.family.fallback is None


class TestBlackholeCommand:
    def test_records(self, tmp_path, capsys):
        path = write_scenario(tmp_path, TORUS_SCENARIO)
        code, recs = run(capsys, ["blackhole", path, "--depth", "6"])
        assert code == 0
        p0 = next(r for r in recs if r.get("puncture") == 0)
        assert not p0["degenerate"]
        assert p0["M"] + p0["J"] == pytest.approx(p0["size"] ** 2, abs=1e-9)
        assert p0["M"] - p0["J"] == pytest.approx(p0["momentum"] ** 2, abs=1e-9)
        count = next(r["meridians"] for r in recs if "meridians" in r)
        assert count == 2  # one non-degenerate rectangle

    def test_deep_sampling_on_shear_sphere(self, capsys):
        # deeper limit-set sampling selects the same rectangles
        path = str(Path(__file__).resolve().parent.parent / "scripts"
                   / "scenarios" / "sphere_shear.json")
        arcs = {}
        for depth in ("6", "8"):
            code, recs = run(capsys, ["blackhole", path, "--depth", depth])
            assert code == 0
            arcs[depth] = [r for r in recs if "meridian" in r]
        assert len(arcs["6"]) == 8  # three non-degenerate rectangles
        assert arcs["8"] == arcs["6"]

    def test_elliptic_side_stops_after_the_first_puncture(self, capsys,
                                                          monkeypatch):
        # the rectangle of puncture 1 fails, as on an elliptic side: the
        # record of puncture 0 is out, then the run stops with exit 3
        rectangle, calls = bh.peripheral_rectangle, []

        def fail_second(*args):
            calls.append(args)
            if len(calls) == 2:
                raise DomainError("an elliptic side")
            return rectangle(*args)
        monkeypatch.setattr(bh, "peripheral_rectangle", fail_second)
        code, recs = run(capsys, ["blackhole",
                                  str(SCENARIOS / "sphere_shear.json"),
                                  "--depth", "1"])
        assert code == 3
        assert [r["puncture"] for r in recs] == [0]

    def test_walked_sphere_is_exact_at_depth_one(self, capsys):
        # sphere_shear's base point lies in the core: the triangle walk
        # answers at any depth, and the right-hand sides of the depth-1
        # run are the hyperbolic ones of depth 6
        path = str(SCENARIOS / "sphere_shear.json")
        runs = {}
        for depth in ("1", "6"):
            code, recs = run(capsys, ["blackhole", path, "--depth", depth])
            assert code == 0
            runs[depth] = [{k: v for k, v in r.items() if k != "depth"}
                           for r in recs]
        assert runs["1"] == runs["6"]
        assert all(r["converged"] for r in runs["1"] if "puncture" in r)

    def test_equal_lengths_are_extremal(self, tmp_path, capsys):
        # both sides of a puncture of an FN surface have its boundary
        # length, so the momentum is exactly 0.0 (it was ~3e-15 while it
        # came from the traces of the quaked peripheral words)
        path = write_scenario(tmp_path, TWO_BOUNDARY_TORUS)
        code, recs = run(capsys, ["blackhole", path, "--depth", "6"])
        assert code == 0
        punct = [r for r in recs if "puncture" in r]
        assert len(punct) == 2
        assert all(r["momentum"] == 0.0 for r in punct)
        assert all(r["extremal"] for r in punct)

    def test_no_floating_point_warnings(self, tmp_path, capsys):
        path = write_scenario(tmp_path, TWO_BOUNDARY_TORUS)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _ = run(capsys, ["blackhole", path, "--depth", "6"])
        assert code == 0

    def test_fn_surface_builds_no_lift_family(self, tmp_path, capsys,
                                              monkeypatch):
        # the pair is the holonomy of the quaked twists: no cocycle, so no
        # lift family, at any depth
        def refuse(*args, **kwargs):
            raise AssertionError("a LiftFamily was built")
        monkeypatch.setattr(lm.LiftFamily, "__init__", refuse)
        for data in (TORUS_SCENARIO, TWO_BOUNDARY_TORUS):
            path = write_scenario(tmp_path, data)
            for depth in ("1", "8"):
                code, recs = run(capsys, ["blackhole", path, "--depth", depth])
                assert code == 0
                assert all(r["converged"] for r in recs if "puncture" in r)

    @pytest.mark.parametrize("seed", [None, *range(20)])
    def test_fn_records_match_the_cocycle_pair(self, tmp_path, capsys, seed):
        # torus_multicurve, then one-holed tori drawn over perfbench's
        # ranges: boundary U(0.6, 2), interior U(0.8, 2.4), twist
        # U(-0.5, 0.5), weight U(0.1, 0.9)
        data = json.loads((SCENARIOS / "torus_multicurve.json").read_text())
        if seed is not None:
            rng = random.Random(seed)
            data["fn"] = {"l": [rng.uniform(0.6, 2.0), rng.uniform(0.8, 2.4)],
                          "t": [rng.uniform(-0.5, 0.5)]}
            data["lamination"]["weights"] = [rng.uniform(0.1, 0.9)]
        point, pd = scenario.surface_point(data)
        hl, hr = bd.ads_holonomy(point, scenario.lamination(data, point),
                                 depth=8, pd=pd)
        code, recs = run(capsys, ["blackhole", write_scenario(tmp_path, data)])
        assert code == 0
        punct = [r for r in recs if "puncture" in r]
        arcs = next(r["arcs"] for r in recs if r.get("meridian") == 0)
        assert len(punct) == len(arcs) == len(hl.peripheral)
        for i, (rec, arc) in enumerate(zip(punct, arcs)):
            gl, gr = hl.peripheral_matrix(i), hr.peripheral_matrix(i)
            d = bh.horizon_invariants(gl, gr)
            assert rec["size"] == pytest.approx(d.size, rel=1e-9, abs=1e-9)
            assert rec["momentum"] == pytest.approx(d.momentum, abs=1e-9)
            want = bh.peripheral_rectangle(gl, gr, hl, hr).vertices
            got = [iso.INF if v == "inf" else v
                   for pair in arc["vertices"] for v in pair]
            assert got == pytest.approx([v for pair in want for v in pair],
                                        rel=1e-9, abs=1e-9)

    def test_defect_four_surfaces_are_exact(self, tmp_path, capsys):
        # ROADMAP defect 4's probe: random.Random(seed), seeds 0-99, four
        # lengths 10^U(-1, 0.7), two twists U(-2, 2), two weights
        # U(0.05, 1) on the pants of torus_two_boundary.json
        for seed in range(100):
            rng = random.Random(seed)
            data = {**TWO_BOUNDARY_TORUS,
                    "fn": {"l": [10 ** rng.uniform(-1, 0.7) for _ in range(4)],
                           "t": [rng.uniform(-2, 2) for _ in range(2)]}}
            data["lamination"] = {"family": "multicurve", "weights": [
                rng.uniform(0.05, 1) for _ in range(2)]}
            code, recs = run(capsys, ["blackhole", write_scenario(tmp_path,
                                                                  data),
                                      "--depth", "6"])
            assert code == 0, seed
            for r in recs:
                if "puncture" in r:
                    length = data["fn"]["l"][r["puncture"]]
                    assert r["size"] == length, seed

    @pytest.mark.parametrize("depth", ["0", "-3"])
    @pytest.mark.parametrize("name", ["torus_two_boundary", "sphere_shear"])
    def test_depth_below_one_is_refused(self, capsys, name, depth):
        code = cli.main(["blackhole", str(SCENARIOS / f"{name}.json"),
                         "--depth", depth])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert "depth must be >= 1" in captured.err

    # ROADMAP defect 5's surface with the weights of torus_two_boundary,
    # and the two-boundary tori of random.Random(seed) (four lengths
    # 10^U(-4, 1), two twists U(-10, 10), two weights U(0.05, 1)) on
    # which a discriminant of iso.fixed_points rounds negative
    @pytest.mark.parametrize("seed", [None, 10, 28, 39, 52, 81, 93, 98, 117,
                                      138])
    def test_rounded_discriminant_is_a_domain_error(self, tmp_path, capsys,
                                                    seed):
        if seed is None:
            fn = {"l": [1.2553e-4, 0.019237, 0.0052293, 0.013881],
                  "t": [-1.8891, -6.6078]}
            weights = TWO_BOUNDARY_TORUS["lamination"]["weights"]
        else:
            rng = random.Random(seed)
            fn = {"l": [10 ** rng.uniform(-4, 1) for _ in range(4)],
                  "t": [rng.uniform(-10, 10) for _ in range(2)]}
            weights = [rng.uniform(0.05, 1) for _ in range(2)]
        data = {**TWO_BOUNDARY_TORUS, "fn": fn,
                "lamination": {"family": "multicurve", "weights": weights}}
        code = cli.main(["blackhole", write_scenario(tmp_path, data),
                         "--depth", "6"])
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("domain error:")
        assert "Traceback" not in err


def seeded_fn_scenarios():
    """torus_multicurve, torus_two_boundary, 20 one-holed tori over
    perfbench's ranges and 10 rank-3 surfaces, two-boundary tori and
    four-holed spheres in turn, with the ranges of `TestHexagonWalk`
    (lengths U(0.5, 2.5), twists U(-1, 1), weights U(0.1, 0.9))."""
    data = [TORUS_SCENARIO, TWO_BOUNDARY_TORUS]
    rng = random.Random(32)
    for _ in range(20):
        data.append({**TORUS_SCENARIO,
                     "fn": {"l": [rng.uniform(0.6, 2.0), rng.uniform(0.8, 2.4)],
                            "t": [rng.uniform(-0.5, 0.5)]},
                     "lamination": {"family": "multicurve",
                                    "weights": [rng.uniform(0.1, 0.9)]}})
    for i in range(10):
        r, s = (2, 2) if i % 2 == 0 else (4, 1)
        pants = (TWO_BOUNDARY_TORUS["pants"] if i % 2 == 0 else
                 {"num_pants": 2, "interior": [[[0, 0], [1, 0]]],
                  "boundary": [[0, 1], [0, 2], [1, 1], [1, 2]]})
        data.append({"version": 1, "surface": {"g": 1 - i % 2, "r": r},
                     "pants": pants,
                     "fn": {"l": [rng.uniform(0.5, 2.5) for _ in range(r + s)],
                            "t": [rng.uniform(-1.0, 1.0) for _ in range(s)]},
                     "lamination": {"family": "multicurve", "weights": [
                         rng.uniform(0.1, 0.9) for _ in range(s)]}})
    return data


class TestHexagonWalkCommands:
    """`quake` and `bend` on Fenchel-Nielsen surfaces with geodesic
    boundaries take their crossings from the hexagon walk."""

    def test_no_lift_family(self, tmp_path, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a LiftFamily was built")
        monkeypatch.setattr(lm.LiftFamily, "__init__", refuse)
        for i, data in enumerate(seeded_fn_scenarios()):
            path = write_scenario(tmp_path, data, f"s{i}.json")
            code, recs = run(capsys, ["quake", path, "--depth", "12"])
            assert code == 0
            # the cross-oracle bound of TestTwoBoundaryTorus (defect 6
            # of ROADMAP.md keeps the cocycle column from 1e-12 there)
            assert all(r["converged"] is True and
                       r["residual"] <= 1e-8 * r["trace_coordinates"]
                       for r in recs if "curve" in r)
            for target in ("hyperbolic", "ads"):
                code, recs = run(capsys, ["bend", path, "--target", target])
                assert code == 0 and len(recs) == 1 + 144

    @pytest.mark.parametrize("argv", [
        ["quake", "--side", "right"],
        ["bend", "--grid", "x=-3:3:9,y=0.05:2.5:9"],
        ["bend", "--target", "ads"]])
    def test_depth_bounds_nothing(self, capsys, argv):
        # depth 1 and depth 14 give the same records, up to the depth key
        path = str(SCENARIOS / "torus_two_boundary.json")
        runs = []
        for depth in ("1", "14"):
            code, recs = run(capsys, [argv[0], path, *argv[1:],
                                      "--depth", depth])
            assert code == 0
            runs.append([{k: v for k, v in r.items() if k != "depth"}
                         for r in recs])
        assert runs[0] == runs[1]


    @pytest.mark.parametrize("length", [6.35e-5, 1e-4, 3e-4])
    def test_failing_curve_word_leaves_stdout_empty(self, tmp_path, capsys,
                                                    length):
        # ROADMAP defect 3's short interior lengths: a curve word's product
        # fails iso.normalize or iso.classify; quake and holonomy build
        # every record before the first goes out, so each exits 3 with
        # no record (quake wrote 3 before, holonomy 2 or 3)
        data = {**TORUS_SCENARIO, "fn": {"l": [1.0, length], "t": [0.3]}}
        path = write_scenario(tmp_path, data)
        for argv in (["quake", path, "--depth", "6"], ["holonomy", path]):
            code, recs = run(capsys, argv)
            assert code == cli.EXIT_DOMAIN and recs == []


class TestFNSetUp:
    @pytest.mark.parametrize("command", ["quake", "blackhole"])
    def test_one_set_up_per_run(self, capsys, monkeypatch, command):
        # both holonomies of a run (the point and the quaked twists, or
        # t + w and t - w) share one set-up: each pant's frames once
        calls = []
        frames = teich._pant_frames

        def counted(axes):
            calls.append(1)
            return frames(axes)
        monkeypatch.setattr(teich, "_pant_frames", counted)
        for name, pants in (("torus_multicurve", 1), ("torus_two_boundary", 2)):
            calls.clear()
            code, _ = run(capsys, [command, str(SCENARIOS / f"{name}.json")])
            assert code == 0 and len(calls) == pants

    def test_points_of_one_set_up_share_lengths(self):
        pd = teich.PantDecomposition.once_punctured_torus()
        fn = teich.FNPoint((1.0,), (2.0,), (0.3,))
        with pytest.raises(teich.StructureError):
            teich.holonomies_from_fn(pd, [fn, teich.FNPoint((1.0,), (2.5,),
                                                            (0.3,))])

    def test_letters_are_the_one_point_builds(self):
        pd = teich.PantDecomposition(
            2, (((0, 0), (1, 0)), ((0, 1), (1, 1))), ((0, 2), (1, 2)))
        fn = teich.FNPoint((1.0, 1.2), (1.0, 1.0), (0.0, 0.0))
        points = [fn, fn.with_twists((0.5, 0.3)), fn.with_twists((-0.5, -0.3))]
        for h, p in zip(teich.holonomies_from_fn(pd, points), points):
            alone = teich.holonomy_from_fn(pd, p)
            assert h.curve_words == alone.curve_words
            for name, m in h.alphabet.items():
                assert np.array_equal(m.view(np.int64),
                                      alone.alphabet[name].view(np.int64))
