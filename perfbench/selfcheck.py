"""Self-check: run every workload repeatedly and report each metric's spread.

    python3 perfbench/selfcheck.py --runs 10 --sets 2

Runs ``run.py`` once per (set, seed, workload), each time with another
seed, interleaving the workloads so that host drift reaches all of them
alike.  For every end-to-end metric it prints the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread, the distance
between the quartiles as a share of the median, next to the metric's
bound in BENCHMARK.json.  A spread above the bound (``setup_s`` aside)
makes the benchmark unsteady; the bounds were set from these spreads.
With two sets it also reports how far the second set's median moved
from the first in the metric's worse direction, and the share of failed
jobs per set.  It checks that every run reports exactly the metric
names BENCHMARK.json lists.  The report also goes to
``perfbench/out/selfcheck.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, ROOT)

from perfbench.run import budget_s  # noqa: E402


def run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True,
        timeout=budget_s(seconds) + 30)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n"
                         f"{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, (q3 - q1) / med if med else 0.0


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, choices=(1, 2), default=1)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--workloads", default=",".join(
        w["name"] for w in bench["workloads"]))
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args(argv)
    workloads = args.workloads.split(",")
    e2e = {m["name"]: m for m in bench["end_to_end"]}
    names = set(e2e)

    values = {}   # (set, workload, metric) -> [values]
    fails = {}    # (set, workload) -> [failed, attempted]
    seed = args.first_seed
    for s in range(args.sets):
        for _ in range(args.runs):
            for w in workloads:
                res = run(w, seed, args.seconds, 0)
                got = set(res["metrics"])
                if got != names:
                    raise SystemExit(f"{w} seed {seed} reports {sorted(got)}, "
                                     f"BENCHMARK.json lists {sorted(names)}")
                f = fails.setdefault((s, w), [0, 0])
                f[0] += res["failed"]
                f[1] += res["attempted"]
                for k, m in res["metrics"].items():
                    values.setdefault((s, w, k), []).append(m["value"])
                print(f"set {s + 1} seed {seed} {w}: "
                      + " ".join(f"{k}={m['value']:.4g}"
                                 for k, m in sorted(res["metrics"].items())),
                      file=sys.stderr, flush=True)
            seed += 1

    report = []
    print(f"{'set':>3} {'workload':14} {'metric':16} {'median':>10} "
          f"{'q1':>10} {'q3':>10} {'spread':>7} {'bound':>6} {'moved':>7}")
    for s in range(args.sets):
        for w in workloads:
            for k in sorted(names):
                med, q1, q3, sp = spread(values[(s, w, k)])
                moved = None
                if s == 1:
                    first = statistics.median(values[(0, w, k)])
                    sign = -1.0 if e2e[k]["better"] == "higher" else 1.0
                    moved = sign * (med - first) / first
                report.append({"set": s + 1, "workload": w, "metric": k,
                               "median": med, "q1": q1, "q3": q3,
                               "spread": sp, "bound": e2e[k]["bound"],
                               "worse_by": moved,
                               "values": values[(s, w, k)]})
                print(f"{s + 1:>3} {w:14} {k:16} {med:10.4g} {q1:10.4g} "
                      f"{q3:10.4g} {sp:7.3f} {e2e[k]['bound']:6.3f} "
                      + (f"{moved:7.3f}" if moved is not None else ""))
            failed, attempted = fails[(s, w)]
            print(f"{s + 1:>3} {w:14} failed {failed} of {attempted}")
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(os.path.join(HERE, "out", "selfcheck.json"), "w") as fh:
        json.dump({"runs": args.runs, "seconds": args.seconds,
                   "failed": {f"{s + 1}:{w}": v for (s, w), v in fails.items()},
                   "metrics": report}, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
