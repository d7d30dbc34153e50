"""Static checks with `ast` (neither pyflakes nor ruff is a dependency).

* Every name a package module imports is used in that module: it must
  appear as a name in the module body, or be re-exported through
  `__all__`.
* Every public entry point of the package (top-level function, or
  method of a top-level class) is named somewhere in src/, scripts/ or
  perfbench/ outside its own definition, or is on `UNREACHED` with the
  ROADMAP direction that will wire it.  A method counts as named only
  as an attribute or a string, since a bare name (the builtin
  `reversed`, say) cannot reach it.
* Every (owner, attribute) that perfbench/spans.py patches by name
  exists, and the benchmark's job lists build.
* The metric path (`wick`, `verify --suite all`, a curvature fit)
  imports no numpy submodule after `quakebend.cli` is imported.
"""

import ast
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import quakebend

MODULES = sorted(Path(quakebend.__file__).parent.glob("*.py"))
ROOT = Path(__file__).resolve().parent.parent
SEARCHED = sorted(p for d in ("src", "scripts", "perfbench")
                  for p in (ROOT / d).rglob("*.py"))

# entry points no caller reaches yet: qualified name -> the ROADMAP
# direction that wires them
UNREACHED = {}


def unused_imports(source):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used |= {e.value for e in node.value.elts
                     if isinstance(e, ast.Constant)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_modules_found():
    assert {p.name for p in MODULES} >= {"earthquake.py", "teich.py", "cli.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_detects_unused_import():
    src = ("from __future__ import annotations\n"
           "import math\nimport numpy as np\n"
           "from os import path, sep\n"
           "__all__ = ['sep']\n"
           "x = np.pi\n")
    assert unused_imports(src) == [(2, "math"), (4, "path")]


def named(tree, bare=True):
    """How often a syntax tree names each identifier: as an attribute or
    an identifier-like string (spans.py of perfbench patches attributes
    given by name) and, if `bare`, as a variable or an imported name."""
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier():
            out[node.value] += 1
        elif bare and isinstance(node, ast.Name):
            out[node.id] += 1
        elif bare and isinstance(node, ast.alias):
            out[node.name.rsplit(".", 1)[-1]] += 1
    return out


def public_defs(tree):
    """(qualified name, node) of the public top-level functions and the
    public methods of the top-level classes."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield f"{node.name}.{item.name}", item


def unreached(modules, searched):
    """Qualified names of the public entry points of `modules` (module
    name -> source) that no source of `searched` names outside the
    entry point's own definition (a method: as an attribute or a
    string)."""
    trees = [ast.parse(src) for src in searched]
    total = {bare: sum((named(t, bare) for t in trees), Counter())
             for bare in (True, False)}
    return sorted(f"{mod}.{qual}" for mod, src in modules.items()
                  for qual, node in public_defs(ast.parse(src))
                  if not node.name.startswith("_")
                  and total["." not in qual][node.name]
                  <= named(node, "." not in qual)[node.name])


def test_every_entry_point_is_reached():
    found = unreached({p.stem: p.read_text() for p in MODULES},
                      [p.read_text() for p in SEARCHED])
    assert [name for name in found if name not in UNREACHED] == []
    # an entry that a caller now reaches leaves the list
    assert [name for name in UNREACHED if name not in found] == []


def test_detects_unreached_entry_point():
    # the builtin sorted() does not reach the method K.sorted
    mod = ("def used():\n    return sorted([1])\n"
           "def dead(n):\n    return dead(n - 1)\n"
           "def _private():\n    pass\n"
           "class K:\n"
           "    def patched(self):\n        return self.called()\n"
           "    def called(self):\n        pass\n"
           "    def unused(self):\n        pass\n"
           "    def sorted(self):\n        pass\n"
           "    def __repr__(self):\n        return ''\n")
    other = "from m import used\nPATCHED = [(K, 'patched')]\n"
    assert unreached({"m": mod}, [mod, other]) == ["m.K.sorted", "m.K.unused",
                                                   "m.dead"]


def test_perfbench_patched_names_exist(monkeypatch):
    # the Tracer looks up every patched entry point as owner.__dict__[attr]
    # when it is built and installs nothing; a deleted or renamed one
    # breaks a `perfbench/run.py --trace 1` run.  Every missing entry of
    # its LAYERS and COUNTED tables is named here, not only the first
    monkeypatch.syspath_prepend(str(ROOT))
    from perfbench import spans
    entries = [e for es in spans.LAYERS.values() for e in es] + \
        list(spans.COUNTED)
    assert [f"{owner.__name__}.{attr}" for owner, attr in entries
            if attr not in vars(owner)] == []
    spans.Tracer()


@pytest.mark.parametrize("workload", ["bend_grid", "deep_words",
                                      "metric_oracle"])
def test_perfbench_jobs_build(workload, tmp_path, monkeypatch):
    # set-up only, nothing timed: the library calls the job lists make
    # (holonomies, lift families, translation parts, bend contexts)
    # still fit the signatures of src/
    monkeypatch.syspath_prepend(str(ROOT))
    from perfbench import jobs
    round_ = jobs.build(workload, 1, tmp_path)
    assert round_
    if workload == "bend_grid":
        for target in ("hyperbolic", "ads"):
            job = next(j for j in round_ if j.expect["target"] == target)
            ends_minus, ends_plus, weights = jobs._leaves(job.argv[1], target)
            assert len(ends_minus) == len(ends_plus) == len(weights) > 0


# `wick`, every verify suite and one curvature fit in a fresh process,
# its stdout discarded; prints the numpy modules they import first
METRIC_PATH = """
import contextlib, io, sys
from quakebend import cli, curvature, spacetime


def numpy_modules():
    return {m for m in sys.modules if m.split(".")[0] == "numpy"}


before = numpy_modules()
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(["wick"]), cli.main(["verify", "--suite", "all"])]
curvature.constant_curvature_fit(spacetime.chart_metric("ads"),
                                 (1.3, 0.2, 0.3))
print(codes, sorted(numpy_modules() - before))
"""


def test_metric_path_imports_no_numpy_module_lazily():
    # a bare np.unique imports numpy.ma at its first call, about 12 ms
    # and 1 MB once per process: the chart metrics must not pay that
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    run = subprocess.run([sys.executable, "-c", METRIC_PATH], env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[0, 0] []"
