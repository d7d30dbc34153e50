"""Launcher of the quakebend benchmark.

    python3 perfbench/run.py --workload bend_grid --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Run from the root of a checkout.  Each workload runs in its own
single-threaded worker process (worker.py) with BLAS and OpenMP pinned
to one thread.  ``setup_s`` is the time from starting a worker process
to its first timed job; the launcher starts ``SETUPS - 1`` workers that
stop after set-up, then the measuring worker, and reports the median of
the three set-up times.  The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

from perfbench import WORKLOADS  # noqa: E402

WORKER = os.path.join(HERE, "worker.py")
SETUPS = 3
SETUP_ALLOW_S = 20    # per worker: imports, scenarios, oracle, warm-up
ROUND_ALLOW_S = 60    # the measuring loop's overrun: one round past --seconds
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class WorkerError(Exception):
    pass


def budget_s(seconds):
    """Longest a run of one workload may take before its worker is
    stopped: every set-up, the measured seconds and one more round
    (150 s for 30 s; a run of today's code takes about 35 s)."""
    return SETUPS * SETUP_ALLOW_S + seconds + ROUND_ALLOW_S


def worker(workload, seed, seconds, trace, setup_only, deadline):
    """Start one worker, wait for it and return its last stdout line."""
    env = dict(os.environ, **{v: "1" for v in THREAD_VARS})
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--t0", repr(time.monotonic())]
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, text=True)
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise WorkerError(f"{workload}: worker timed out")
    if proc.returncode != 0:
        raise WorkerError(f"{workload}: worker exited {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise WorkerError(f"{workload}: worker printed no result")
    return json.loads(lines[-1])


def run_workload(workload, seed, seconds, trace, deadline):
    if trace:
        return worker(workload, seed, seconds, 1, False, deadline)
    setups = [worker(workload, seed, seconds, 0, True, deadline)["setup_s"]
              for _ in range(SETUPS - 1)]
    result = worker(workload, seed, seconds, 0, False, deadline)
    setups.append(result["metrics"]["setup_s"]["value"])
    result["metrics"]["setup_s"]["value"] = statistics.median(setups)
    return result


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds,
                                         args.trace, time.monotonic()
                                         + budget_s(args.seconds))
    except WorkerError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if args.workload != "all":
        print(json.dumps(results[args.workload]))
        return 0
    for name, res in results.items():
        print(f"{name}: attempted {res['attempted']}, failed {res['failed']}, "
              f"correct {res['correct']}")
        for key, m in res["metrics"].items():
            print(f"  {key:34s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
