"""One benchmark run of one workload, in this single-threaded process.

Started by run.py, which pins BLAS and OpenMP to one thread first.  The
run is a closed loop: one client, one job at a time.  It repeats whole
rounds of the seed's job list, at least one, until the next round would
end after ``--seconds``; each job is preceded by ``gc.collect()`` (GC stays on),
timed alone, followed by the reference kernel of calib.py, and checked
after its timer stops.  The last line of stdout is one JSON object.

With ``--trace 1`` every job runs twice, untraced and traced, in
alternating order; the per-layer metrics come from the traced copies,
and the tracing overhead is the median of traced minus untraced job
time.  The traced copy must give the same output as the untraced one.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, ".work")
OUT = os.path.join(HERE, "out")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True,
                    help="time.monotonic() when the launcher started us")
    ap.add_argument("--setup-only", action="store_true",
                    help="stop after set-up and report its time")
    return ap.parse_args(argv)


def validate_curvature_oracle(curvature):
    """The finite-difference oracle must give +1 on the round sphere and
    -1 on the hyperbolic plane before any metric job is trusted."""
    import numpy as np
    cases = [(lambda x: np.diag([1.0, np.sin(x[0]) ** 2]), (1.1, 0.4), 1.0),
             (lambda x: np.eye(2) / x[1] ** 2, (0.3, 1.7), -1.0)]
    for metric, point, want in cases:
        kappa, _ = curvature.constant_curvature_fit(metric, point)
        if abs(kappa - want) > 1e-6:
            raise SystemExit(f"perfbench: curvature oracle gives {kappa} "
                             f"where the curvature is {want}")


class Runner:
    """Runs, times and checks jobs, and tallies the outcomes.

    A job fails when it raises, exits nonzero or fails its check; only
    the last makes the run incorrect, since ``correct`` speaks of the
    jobs that ran to their end.
    """

    def __init__(self, cli, checks):
        self.cli, self.checks = cli, checks
        self.attempted = self.failed = self.wrong = 0

    def execute(self, job):
        """(exit code, stdout) of a CLI job, else the call's value."""
        if job.argv is None:
            return job.call()
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            try:
                rc = self.cli.main(job.argv)
            except SystemExit as exc:   # argparse rejecting the arguments
                rc = exc.code if isinstance(exc.code, int) else 2
        return rc, out.getvalue()

    def timed(self, job, wrap=None):
        """(ms, result, error) of one run of `job`; `wrap` runs it traced."""
        gc.collect()
        t0 = time.perf_counter()
        try:
            result = (wrap or (lambda f: f()))(lambda: self.execute(job))
        except Exception as exc:  # a job that raises is a failed job
            return (time.perf_counter() - t0) * 1e3, None, repr(exc)
        ms = (time.perf_counter() - t0) * 1e3
        if job.argv is not None and result[0] != 0:
            return ms, result, f"exit code {result[0]}"
        return ms, result, None

    def record(self, job, result, error, extra=()):
        """Check `result` and count the job; True when it passed."""
        self.attempted += 1
        problems = [error] if error else \
            self.checks.check(job, result) + list(extra)
        if problems:
            self.failed += 1
            self.wrong += error is None
            if self.failed <= 5:
                print(f"perfbench: {job.kind} failed: {problems[:3]} "
                      f"argv={job.argv}", file=sys.stderr)
        return not problems

    def line(self, metrics):
        return {"correct": self.wrong == 0, "attempted": self.attempted,
                "failed": self.failed,
                "metrics": {k: {"value": v, "unit": u}
                            for k, (v, u) in sorted(metrics.items())}}


SETUP_REFS = 9   # reference-kernel runs that calibrate the set-up time


def run_rounds(seconds, one_round):
    """Run whole rounds, at least one, until the next one would end
    after `seconds`."""
    deadline = time.perf_counter() + seconds
    while True:
        r0 = time.perf_counter()
        one_round()
        now = time.perf_counter()
        if now + (now - r0) > deadline:
            return


def geomean(values):
    return math.exp(statistics.fmean(math.log(v) for v in values))


def timed_run(seconds, runner, calib, round_, setup_s):
    """End-to-end metrics.  Job times are reported with host-speed drift
    taken out (calib.py); the raw wall-time figures go to stderr only,
    because on a shared host their run-to-run spread reaches 0.25."""
    raw, cal = defaultdict(list), defaultdict(list)   # kind -> ms

    def one_round():
        for job in round_:
            ms, result, error = runner.timed(job)
            ref = calib.ref_ms()
            raw[job.kind].append(ms)
            cal[job.kind].append(ms * calib.REF_MS / ref)
            runner.record(job, result, error)

    run_rounds(seconds, one_round)
    done = runner.attempted - runner.failed

    def summary(times):
        """(jobs per second, geometric mean over kinds of each kind's
        median job time in ms)"""
        total = sum(sum(v) for v in times.values())
        return done / (total / 1e3), geomean(
            statistics.median(v) for v in times.values())

    rate, typical = summary(raw)
    print(f"perfbench: raw wall time: {rate:.4g} jobs/s, geometric mean "
          f"of kind medians {typical:.4g} ms over "
          f"{sum(len(v) for v in raw.values())} jobs", file=sys.stderr)
    print("perfbench: median calibrated ms per kind: " + ", ".join(
        f"{k} {statistics.median(v):.4g}" for k, v in cal.items()),
        file=sys.stderr)
    rate, typical = summary(cal)
    return {
        "jobs_per_s_cal": (rate, "1/s"),
        "job_geomean_cal_ms": (typical, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }


def traced_run(seconds, runner, round_, trace_path):
    from perfbench.spans import Tracer
    tracer = Tracer()
    pairs = []

    def one_round():
        for job in round_:
            # alternate which copy runs first, so drift hits both alike
            first = len(pairs) % 2 == 1
            runs = {}
            for traced in (first, not first):
                runs[traced] = runner.timed(
                    job, tracer.run_job if traced else None)
            (ms_t, res_t, err_t), (ms_p, res_p, err_p) = runs[True], runs[False]
            runner.record(job, res_p, err_p)
            runner.record(job, res_t, err_t, extra=[] if res_t == res_p else
                          ["traced output differs from untraced output"])
            if job.argv is not None and res_t is not None:
                tracer.counts["cli.bytes_out"] += len(res_t[1])
            pairs.append((ms_t, ms_p))

    run_rounds(seconds, one_round)
    metrics = tracer.metrics()
    metrics["trace.overhead_ms"] = (
        statistics.median(t - p for t, p in pairs), "ms")
    metrics["trace.job_ms"] = (statistics.median(t for t, _ in pairs), "ms")
    metrics["trace.untraced_job_ms"] = (
        statistics.median(p for _, p in pairs), "ms")
    tracer.save(trace_path)
    return metrics


def main(argv=None):
    args = parse_args(argv)
    sys.path.insert(0, ROOT)
    import perfbench
    perfbench.use_source_tree()
    from quakebend import cli, curvature
    from perfbench import calib, checks, jobs

    if args.workload not in perfbench.WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}")
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=WORK, prefix=f"{args.workload}-")
    try:
        round_ = jobs.build(args.workload, args.seed, workdir)
        if args.workload == "metric_oracle":
            validate_curvature_oracle(curvature)
        runner = Runner(cli, checks)
        # untimed warm-up; every round repeats this job and checks it
        runner.timed(round_[0])
        setup_raw = time.monotonic() - args.t0
        setup_s = setup_raw * calib.REF_MS / statistics.median(
            calib.ref_ms() for _ in range(SETUP_REFS))
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        print(f"perfbench: raw set-up time {setup_raw:.4g} s", file=sys.stderr)
        print(f"perfbench: {args.workload} seed {args.seed}: "
              f"{jobs.describe(round_)}", file=sys.stderr)
        if args.trace:
            os.makedirs(OUT, exist_ok=True)
            metrics = traced_run(args.seconds, runner, round_, os.path.join(
                OUT, f"trace-{args.workload}-{args.seed}.npz"))
        else:
            metrics = timed_run(args.seconds, runner, calib, round_, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(runner.line(metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
