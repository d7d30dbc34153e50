import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from quakebend import cli
from quakebend import earthquake as eq
from quakebend import isometry as iso
from quakebend import lamination as lm
from quakebend import teich


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
        # the full tree is over the word budget at depth 10; the pruned
        # one is not, and every crossed leaf is already within depth 8
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
        ["bend", "--target", "hyperbolic", "--depth", "6"]])
    def test_closed_surface_rejected(self, tmp_path, capsys, argv):
        # the word engine needs a free group; the closed surface's is not
        path = write_scenario(tmp_path, GENUS_TWO)
        code = cli.main([argv[0], path] + argv[1:])
        assert code == cli.EXIT_DOMAIN
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("argv", [
        ["holonomy"], ["quake", "--depth", "6"],
        ["bend", "--target", "hyperbolic", "--depth", "6"],
        ["blackhole", "--depth", "6"]])
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

    def test_elliptic_side_stops_after_the_first_puncture(self, capsys):
        # at depth 1 the right-hand side of puncture 1 is elliptic: the
        # record of puncture 0 is out, then the run stops with exit 3
        path = str(Path(__file__).resolve().parent.parent / "scripts"
                   / "scenarios" / "sphere_shear.json")
        code, recs = run(capsys, ["blackhole", path, "--depth", "1"])
        assert code == 3
        assert [r["puncture"] for r in recs] == [0]

    def test_equal_lengths_are_extremal(self, tmp_path, capsys):
        # puncture 1 has momentum ~1e-12, not 0.0: zero up to the
        # stated relative tolerance
        path = write_scenario(tmp_path, TWO_BOUNDARY_TORUS)
        code, recs = run(capsys, ["blackhole", path, "--depth", "6"])
        assert code == 0
        punct = [r for r in recs if "puncture" in r]
        assert len(punct) == 2
        assert punct[1]["momentum"] != 0.0
        assert all(r["extremal"] for r in punct)

    def test_no_floating_point_warnings(self, tmp_path, capsys):
        path = write_scenario(tmp_path, TWO_BOUNDARY_TORUS)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _ = run(capsys, ["blackhole", path, "--depth", "6"])
        assert code == 0
