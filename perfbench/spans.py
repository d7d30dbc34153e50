"""Span recording for the traced run.

The tracer wraps the layer entry points of quakebend by patching module
attributes and class methods while a traced job runs, and restores them
afterwards; no file under ``src/`` changes.  Each span records its
layer, start, end, parent span and job.  Spans stay in memory (compact
arrays) and are written out when the run ends.  A layer's self time is
its spans' duration minus the time their direct child spans cover.
Counts are taken at the same boundaries.  A layer's ``calls`` counts
entries from outside the layer, so a layer function that calls another
one of the same layer counts once.
"""

from __future__ import annotations

import time
from array import array
from collections import defaultdict

import numpy as np

from quakebend import (bending, blackhole, cli, curvature, earthquake,
                       isometry, lamination, scenario, spacetime, teich)

JOB = "job"

# layer -> entry points, as (owner, attribute)
LAYERS = {
    "teich.holonomy": [(teich, "holonomy_from_fn"),
                       (teich, "holonomy_from_shear")],
    "lamination.lift_build": [(lamination.LiftFamily, "__init__")],
    "lamination.crossings": [(lamination.LiftFamily, "crossings")],
    "lamination.disjoint_check": [(lamination, "leaves_pairwise_disjoint")],
    "earthquake.cocycle": [(earthquake, "cocycle_product"),
                           (earthquake, "quake_cocycle")],
    "bending.bend_map": [(bending, "bend_map_hyp"), (bending, "bend_map_ads")],
    "bending.holonomy": [(bending, "ads_holonomy"), (bending, "hyp_holonomy")],
    "blackhole.rectangle": [(blackhole, "peripheral_rectangle")],
    "blackhole.omega": [(blackhole, "omega_contains")],
    "spacetime.regular_domain": [(spacetime, "regular_domain_contains")],
    "spacetime.metric": [(spacetime, "flat_metric"), (spacetime, "wick_metric"),
                         (spacetime, "rescale_ds"), (spacetime, "ads_metric")],
    "spacetime.sample_check": [(spacetime.MetricSample, "__post_init__")],
    "spacetime.map": [(spacetime, "wick_rotate"), (spacetime, "ads_map"),
                      (spacetime, "flat_embedding")],
    "curvature.fit": [(curvature, "constant_curvature_fit")],
    "scenario.load": [(scenario, "load"), (scenario, "surface_point"),
                      (scenario, "lamination")],
    "cli.emit": [(cli, "emit")],
}

# counted calls without a span: (owner, attribute) -> counter name
COUNTED = {
    (isometry, "normalize"): "isometry.normalize_calls",
    (isometry, "expm2"): "isometry.expm2_calls",
    (isometry, "causal_type"): "isometry.causal_type_calls",
    (spacetime, "translation_part"): "spacetime.translation_parts",
}


class Tracer:
    """Records spans and counts of the layers while installed."""

    def __init__(self):
        self.layers = [JOB] + list(LAYERS)
        self.layer_id = {name: i for i, name in enumerate(self.layers)}
        self.start, self.end = array("d"), array("d")
        self.layer, self.parent, self.job = array("i"), array("i"), array("i")
        self.stack = [-1]
        self.active = [0] * len(self.layers)   # open spans per layer
        self.calls = [0] * len(self.layers)
        self.counts = defaultdict(int)
        self.job_index = -1
        self.jobs = 0
        self._patches = []
        for name, entries in LAYERS.items():
            for owner, attr in entries:
                self._patches.append(
                    (owner, attr, self._wrap(name, owner.__dict__[attr])))
        for (owner, attr), counter in COUNTED.items():
            self._patches.append(
                (owner, attr, self._count(counter, owner.__dict__[attr])))
        self._originals = [(o, a, o.__dict__[a]) for o, a, _ in self._patches]

    # -- patching ----------------------------------------------------------

    def install(self):
        for owner, attr, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in self._originals:
            setattr(owner, attr, original)

    def run_job(self, fn):
        """Run fn() as one traced job under a root span."""
        self.job_index = self.jobs
        self.jobs += 1
        self.install()
        try:
            return self._wrap(JOB, fn)()
        finally:
            self.uninstall()

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, name, fn):
        lid = self.layer_id[name]
        start, end, layer, parent, job = (self.start, self.end, self.layer,
                                          self.parent, self.job)
        stack, active, calls = self.stack, self.active, self.calls
        after = _AFTER.get(name)
        before = _BEFORE.get(name)
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(layer)
            layer.append(lid)
            parent.append(stack[-1])
            job.append(self.job_index)
            start.append(0.0)
            end.append(0.0)
            if not active[lid]:
                calls[lid] += 1
            active[lid] += 1
            stack.append(idx)
            if before is not None:
                args = before(self, args)
            t0 = perf()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                active[lid] -= 1
                start[idx] = t0
                end[idx] = t1
            if after is not None:
                after(self, args, out)
            return out

        return wrapper

    def _count(self, counter, fn):
        counts = self.counts
        active, omega = self.active, self.layer_id["blackhole.omega"]
        # causal types tested inside omega_contains give words_per_omega
        inside = counter == "isometry.causal_type_calls"

        def wrapper(*args, **kwargs):
            counts[counter] += 1
            if inside and active[omega]:
                counts["causal_type_in_omega"] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- results -----------------------------------------------------------

    def self_times(self):
        """Self time in seconds of every recorded span."""
        start = np.frombuffer(self.start, dtype=float)
        dur = np.frombuffer(self.end, dtype=float) - start
        parent = np.frombuffer(self.parent, dtype=np.int32)
        child = np.zeros_like(dur)
        has = parent >= 0
        np.add.at(child, parent[has], dur[has])
        return dur - child

    def metrics(self):
        """Per-layer metrics: self time per job in ms, counts per job."""
        n = max(self.jobs, 1)
        self_t = self.self_times()
        layer = np.frombuffer(self.layer, dtype=np.int32)
        ms = np.bincount(layer, weights=self_t,
                         minlength=len(self.layers)) * 1e3 / n
        c = self.counts

        def calls(name):
            return self.calls[self.layer_id[name]]

        def ratio(a, b):
            return a / b if b else 0.0

        out = {f"{name}_ms": (float(ms[i]), "ms")
               for i, name in enumerate(self.layers) if name != JOB}
        out["trace.unattributed_ms"] = (float(ms[0]), "ms")
        for key, name in (("teich.holonomy_calls", "teich.holonomy"),
                          ("lamination.crossings_calls", "lamination.crossings"),
                          ("earthquake.cocycle_calls", "earthquake.cocycle"),
                          ("bending.bend_map_calls", "bending.bend_map"),
                          ("blackhole.rectangles", "blackhole.rectangle"),
                          ("blackhole.omega_calls", "blackhole.omega"),
                          ("spacetime.metric_evals", "spacetime.metric"),
                          ("spacetime.sample_checks", "spacetime.sample_check"),
                          ("spacetime.map_calls", "spacetime.map"),
                          ("curvature.fits", "curvature.fit"),
                          ("cli.records", "cli.emit")):
            out[key] = (calls(name) / n, "count")
        for key in ("lamination.leaves_built", "lamination.leaves_scanned",
                    "lamination.leaves_crossed", "earthquake.factors",
                    "spacetime.translation_parts", "isometry.normalize_calls",
                    "isometry.expm2_calls", "isometry.causal_type_calls",
                    "cli.bytes_out"):
            out[key] = (c[key] / n, "count")
        out["lamination.crossing_yield"] = (
            ratio(c["lamination.leaves_crossed"],
                  c["lamination.leaves_scanned"]), "ratio")
        out["blackhole.words_per_omega"] = (
            ratio(c["causal_type_in_omega"], calls("blackhole.omega")), "count")
        out["curvature.evals_per_fit"] = (
            ratio(c["fit_metric_evals"], calls("curvature.fit")), "count")
        out["trace.spans"] = (len(self.layer) / n, "count")
        return out

    def save(self, path):
        np.savez_compressed(
            path, layers=np.array(self.layers),
            start=np.frombuffer(self.start, dtype=float),
            end=np.frombuffer(self.end, dtype=float),
            layer=np.frombuffer(self.layer, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            job=np.frombuffer(self.job, dtype=np.int32))


# -- counts taken at the span boundaries -------------------------------------

def _after_lift_build(tracer, args, out):
    fam = args[0]
    if not fam.empty:
        tracer.counts["lamination.leaves_built"] += len(fam.weights)


def _after_crossings(tracer, args, out):
    fam = args[0]
    if not fam.empty:
        tracer.counts["lamination.leaves_scanned"] += len(fam.ends_minus)
    tracer.counts["lamination.leaves_crossed"] += len(out[0])


def _after_cocycle(tracer, args, out):
    # quake_cocycle passes its lifts on to cocycle_product: count once
    if args and tracer.active[tracer.layer_id["earthquake.cocycle"]] == 0:
        tracer.counts["earthquake.factors"] += len(args[0])


def _before_fit(tracer, args):
    """Count the metric evaluations one curvature fit makes."""
    metric, rest = args[0], args[1:]
    counts = tracer.counts

    def counted(x):
        counts["fit_metric_evals"] += 1
        return metric(x)

    return (counted,) + tuple(rest)


_AFTER = {"lamination.lift_build": _after_lift_build,
          "lamination.crossings": _after_crossings,
          "earthquake.cocycle": _after_cocycle}
_BEFORE = {"curvature.fit": _before_fit}
