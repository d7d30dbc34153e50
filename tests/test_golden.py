"""Byte-for-byte regression oracle for the command-line front end.

The README promises byte-identical record streams for identical
scenarios.  Each case below runs one command in-process and compares its
stdout with ``golden/<case>.jsonl`` and its exit code with
``golden/exit_codes.json``.  A refactor must leave every stream
unchanged.  Regenerate the files only for an intended output change:

    PYTHONPATH=src python tests/test_golden.py --regen

which prints the name of each file whose bytes changed and how many of
its lines differ.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import sys
from pathlib import Path

import pytest

from quakebend import cli
from quakebend import earthquake as eq

# a numpy overflow or invalid value on a CLI path fails the run
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
SCENARIOS = ("torus_multicurve", "torus_flow", "sphere_shear",
             "torus_two_boundary")
BEND_GRID = "x=-1:1:3,y=0.5:1.5:3"
# a grid whose last column is Re x0 = 0.137 (segments [x0, z] there are
# vertical in the upper half-plane) and whose last point is the base
# point x0 = 0.137 + 1.03i itself
BASE_POINT_GRID = "x=-1.5:0.137:5,y=0.3:1.03:5"


def _cases():
    cases = {}
    for scen in SCENARIOS:
        path = str(ROOT / "scripts" / "scenarios" / f"{scen}.json")
        cases[f"{scen}-holonomy"] = ["holonomy", path]
        cases[f"{scen}-spectrum"] = ["spectrum", path]
        cases[f"{scen}-quake-left-d8"] = ["quake", path, "--side", "left",
                                          "--depth", "8"]
        cases[f"{scen}-blackhole-d6"] = ["blackhole", path, "--depth", "6"]
        for target in ("ads", "hyperbolic"):
            cases[f"{scen}-bend-{target}"] = ["bend", path, "--target", target,
                                              "--grid", BEND_GRID]
    path = str(ROOT / "scripts" / "scenarios" / "torus_multicurve.json")
    for target in ("ads", "hyperbolic"):
        cases[f"torus_multicurve-bend-{target}-base-point-grid"] = [
            "bend", path, "--target", target, "--grid", BASE_POINT_GRID]
    # the depths at which most of the word tree lies far from the queries
    cases["torus_multicurve-quake-right-d12"] = ["quake", path, "--side",
                                                 "right", "--depth", "12"]
    cases["torus_multicurve-quake-left-d10"] = ["quake", path, "--side",
                                                "left", "--depth", "10"]
    cases["torus_multicurve-bend-hyperbolic-d10"] = [
        "bend", path, "--target", "hyperbolic", "--grid", BEND_GRID,
        "--depth", "10"]
    # depth 8: the rank-3 group of the two-boundary torus at its deepest
    # blackhole run
    path = str(ROOT / "scripts" / "scenarios" / "torus_two_boundary.json")
    cases["torus_two_boundary-blackhole-d8"] = ["blackhole", path, "--depth",
                                                "8"]
    cases["verify-all"] = ["verify", "--suite", "all"]
    # T, zeta chosen so the grid visits zeta < 0, the band 0 <= zeta <=
    # a0/T and the rotated wing zeta > a0/T
    wick_grid = "T=1.2:2.8:3,u=-0.8:0.8:3,zeta=-0.9:1.3:3"
    cases["wick-3x3x3"] = ["wick", "--grid", wick_grid, "--alpha0", "1"]
    # the a0 = inf chart (no rotated wing) and a wide band (a0 = 8)
    cases["wick-3x3x3-a0inf"] = ["wick", "--grid", wick_grid,
                                 "--alpha0", "inf"]
    cases["wick-3x3x3-a08"] = ["wick", "--grid", wick_grid, "--alpha0", "8"]
    # torus_flow.json passes through a cusp at t = 2
    cases["torus_flow-flow"] = [
        "flow", str(ROOT / "scripts" / "scenarios" / "torus_flow.json")]
    for kind, matrix in [("hyperbolic", "2.7182,0,0,0.3678"),
                         ("parabolic", "1,1,0,1"), ("elliptic", "0,-1,1,0"),
                         ("identity", "1,0,0,1")]:
        cases[f"classify-{kind}"] = ["classify", "--matrix", matrix]
    # non-rotating, rotating and extremal
    for rp, rm in [("1", "0"), ("1.2", "0.4"), ("1", "1")]:
        cases[f"btz-{rp}-{rm}"] = ["btz", "--rp", rp, "--rm", rm]
    return cases


CASES = _cases()


def run_case(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return out.getvalue(), code


@pytest.mark.parametrize("name", sorted(CASES))
def test_stream_matches_golden(name):
    stdout, code = run_case(CASES[name])
    codes = json.loads((GOLDEN / "exit_codes.json").read_text())
    assert code == codes[name]
    assert stdout == (GOLDEN / f"{name}.jsonl").read_text()


def test_base_point_grid_hits_the_base_point_column():
    grid = cli.parse_grid(BASE_POINT_GRID, ("x", "y"))
    assert eq.BASE_POINT.real in grid["x"].tolist()
    assert eq.BASE_POINT in [complex(x, y) for y in grid["y"]
                             for x in grid["x"]]


def write_golden(path, text):
    """Write `text` to `path`; if that changes the file's bytes, return
    the report line "<file name>: <n> changed lines", n the number of
    line positions at which the old and the new text differ."""
    old = path.read_bytes().decode() if path.exists() else None
    if old == text:
        return None
    path.write_text(text)
    changed = sum(a != b for a, b in itertools.zip_longest(
        (old or "").splitlines(), text.splitlines()))
    return f"{path.name}: {changed} changed lines"


def test_regen_reports_changed_files(tmp_path):
    path = tmp_path / "case.jsonl"
    assert write_golden(path, "a\nb\n") == "case.jsonl: 2 changed lines"
    assert write_golden(path, "a\nb\n") is None
    assert write_golden(path, "a\nc\nd\n") == "case.jsonl: 2 changed lines"
    assert path.read_text() == "a\nc\nd\n"


def regenerate():
    GOLDEN.mkdir(exist_ok=True)
    codes = {}
    files = {}
    for name, argv in sorted(CASES.items()):
        files[f"{name}.jsonl"], codes[name] = run_case(argv)
    files["exit_codes.json"] = json.dumps(codes, indent=1, sort_keys=True) + "\n"
    for name, text in files.items():
        report = write_golden(GOLDEN / name, text)
        if report:
            print(report)


if __name__ == "__main__":
    if sys.argv[1:] != ["--regen"]:
        sys.exit(__doc__)
    regenerate()
