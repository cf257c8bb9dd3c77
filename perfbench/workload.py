"""One workload in one process: set-up, timed closed loop, oracle checks.

Started by run.py with the thread-pool variables pinned to 1 and the
checkout's src on PYTHONPATH.  Prints a human-readable report, then the
result as one JSON object on the last line.

Timed mode (--trace 0): whole passes over the workload's instances, as
many as --seconds allows at the nominal pass time, and at least
MIN_SAMPLES instances; more only if the timed phase is still under half
of --seconds, up to MAX_PASS_FACTOR times the planned passes.  One
caller, closed loop: an instance is handed to the library only after
the previous one returned.  A pass is generated before its clock
starts, and every result is checked after the timed phase, so neither
generation nor the oracle is timed.

Traced mode (--trace 1): every instance of the same first passes runs
once untraced and once traced, side by side in alternating order; the
ratio of the two summed wall times is the tracing overhead, and the
traced runs give every per-layer figure.  They are a fixed set of
instances, so the counts repeat exactly for a seed.

Timed mode interleaves host-speed probes with the instances and scales
every time it reports to a reference host speed; see hostspeed.py.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import itertools
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import traceback
from time import perf_counter

import gen
import oracle
from hostspeed import HostSpeed
from spans import LAYERS, ROOT, Tracer

SETUP_REPEATS = 3
IMPORT_REPEATS = 5
MIN_SAMPLES = 40  # latency samples a timed run collects at the least
# Cap on the passes a run adds when the library outpaces the nominal
# pass time, which bounds the oracle's share of the run's wall time.
MAX_PASS_FACTOR = 8
# Past MIN_SAMPLES, a run adds no pass once its timed phase has reached
# this many times --seconds, so a slow host cannot stretch the run
# without bound.
MAX_TIMED_FACTOR = 1.5
IMPORT_PROBE = ("import time; t = time.perf_counter(); import graveropt; "
                "print(time.perf_counter() - t)")


def lib(module: str, name: str):
    """A library entry point, looked up at call time so tracing sees it."""
    return getattr(importlib.import_module("graveropt." + module), name)


def _optimal():
    from graveropt import SolveStatus
    return SolveStatus.OPTIMAL


class _Pool:
    """Workload over a shape stream: each pass takes the stream's next
    ``per_pass`` shapes and draws one instance on each, in seeded order."""

    def setup(self, tracer):
        return self.shapes()

    def draw(self, stream, rng):
        shapes = list(itertools.islice(stream, self.per_pass))
        rng.shuffle(shapes)
        return [self.build(self.instance(shape, rng)) for shape in shapes]

    def build(self, spec):
        return spec, gen.build_cip(spec)

    def check(self, state, spec, result):
        return oracle.check_cip(spec, result, _optimal())


class GraverLift(_Pool):
    """compute_test_set(A, C) then an unbounded solve, per instance."""

    nominal_pass_s = 7.0
    shapes, instance = staticmethod(gen.lift_shapes), staticmethod(gen.lift_instance)
    per_pass = gen.LIFT_POOL[1]

    def build(self, spec):
        return spec, (gen.build_cip(spec),) + gen.composition_rows(spec)

    def run(self, stream, spec, args):
        inst, a, c = args
        t_set = lib("testset", "compute_test_set")(a, c)
        return lib("augment", "solve")(inst, t_set, spec.start, best=spec.best)


class BoundedQp(_Pool):
    """instance_test_set(inst) then a bounded solve: the CLI's solve path."""

    nominal_pass_s = 3.0
    shapes, instance = staticmethod(gen.qp_shapes), staticmethod(gen.qp_instance)
    per_pass = gen.QP_POOL[1]

    def run(self, stream, spec, inst):
        t_set = lib("augment", "instance_test_set")(inst)
        return lib("augment", "solve")(inst, t_set, spec.start, best=spec.best)


class QapN3(_Pool):
    """solve_qap on three-facility Koopmans-Beckmann data."""

    nominal_pass_s = 4.0
    shapes, instance = staticmethod(gen.qap_shapes), staticmethod(gen.qap_instance)
    per_pass = gen.QAP_POOL[1]

    def build(self, spec):
        return spec, gen.build_qap(spec)

    def run(self, stream, spec, q):
        return lib("qap", "solve_qap")(q)

    def check(self, state, spec, result):
        perm, value, report = result
        if report.status is not _optimal():
            return "status %s" % report.status
        return oracle.check_qap(spec, perm, value)


class WalkDense:
    """One fixed family whose direction set is built once in set-up."""

    nominal_pass_s = 0.75

    def setup(self, tracer):
        a, c = gen.walk_family()
        compute = lib("testset", "compute_test_set")
        if tracer is None:
            return compute(a, c)
        return tracer.span(ROOT, compute, a, c)

    def draw(self, t_set, rng):
        items = []
        for k in range(gen.WALK_PASS):
            spec = gen.walk_instance(rng, k)
            items.append((spec, gen.build_cip(spec)))
        return items

    def run(self, t_set, spec, inst):
        return lib("augment", "solve")(inst, t_set, spec.start, best=spec.best)

    def check(self, state, spec, result):
        return oracle.check_cip(spec, result, _optimal())


WORKLOADS = {
    "graver-lift": GraverLift,
    "bounded-qp": BoundedQp,
    "qap-n3": QapN3,
    "walk-dense": WalkDense,
}


class Loop:
    """Runs passes, keeping every instance's latency and result; the
    results are checked afterwards, so the oracle's memory stays out of
    the peak taken at the end of the timed phase."""

    def __init__(self, workload, state, host=None):
        self.workload = workload
        self.state = state
        self.host = host
        self.latencies: list[float] = []
        self.results: list = []
        self.failures: list[str] = []
        self.timed = 0.0

    def run_pass(self, items, tracer=None) -> float:
        run = self.workload.run
        # Earlier passes' results and this pass's inputs go to the
        # permanent generation, so a full collection in the pass scans
        # only what the library allocates, not what the run has kept.
        gc.collect()
        gc.freeze()
        host = self.host
        probing = 0.0
        start = perf_counter()
        for spec, args in items:
            if host is not None and host.due():
                probing += host.sample()
            t0 = perf_counter()
            try:
                if tracer is None:
                    out = run(self.state, spec, args)
                else:
                    out = tracer.span(ROOT, run, self.state, spec, args)
            except Exception as exc:  # counted as a failed instance
                out = exc
                traceback.print_exc(file=sys.stderr)
            self.latencies.append(perf_counter() - t0)
            self.results.append((spec, out))
        if host is not None:
            probing += host.sample()
        wall = perf_counter() - start - probing
        self.timed += wall
        return wall

    @property
    def attempted(self) -> int:
        return len(self.results)

    def check(self) -> None:
        for index, (spec, out) in enumerate(self.results):
            if isinstance(out, Exception):
                reason = "raised %r" % out
            else:
                try:
                    reason = self.workload.check(self.state, spec, out)
                except Exception as exc:  # a result the oracle cannot read
                    reason = "unreadable result: %r" % exc
            if reason is not None:
                self.failures.append("instance %d: %s" % (index, reason))


def tail(latencies):
    """Highest integer percentile with at least ten samples beyond it
    (nearest rank), as (percentile, value)."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= 10:
        return 100, xs[-1]
    pct = math.floor(100 * (n - 10) / n)
    rank = max(1, math.ceil(pct * n / 100))
    return pct, xs[rank - 1]


def import_seconds(host: HostSpeed) -> float:
    """Median wall time of importing the package in a fresh interpreter."""
    times = []
    for _ in range(IMPORT_REPEATS):
        host.sample()
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=os.environ,
                             capture_output=True, text=True, timeout=60, check=True)
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def host_facts(args) -> dict:
    import numpy
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "threads": {k: os.environ.get(k) for k in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def metric(value, unit):
    return {"value": value, "unit": unit}


def timed_run(args, workload, facts):
    # Set-up and the timed phase each get their own probe blocks, and
    # every time they report is scaled by their own host-speed factor.
    setup_host = HostSpeed()
    import_s = import_seconds(setup_host)
    prep = []
    for _ in range(SETUP_REPEATS):
        setup_host.sample()
        t0 = perf_counter()
        rng = random.Random("%s:%d" % (args.workload, args.seed))
        state = workload.setup(None)
        items = workload.draw(state, rng)
        prep.append(perf_counter() - t0)
    setup_host.sample()
    raw_setup_s = import_s + statistics.median(prep)

    host = HostSpeed()
    loop = Loop(workload, state, host)
    passes = [loop.run_pass(items)]
    least = math.ceil(MIN_SAMPLES / len(items))
    planned = max(least, round(args.seconds / workload.nominal_pass_s))
    while len(passes) < least or (
            loop.timed < MAX_TIMED_FACTOR * args.seconds and (
                len(passes) < planned or (loop.timed < args.seconds / 2 and
                                          len(passes) < MAX_PASS_FACTOR * planned))):
        passes.append(loop.run_pass(workload.draw(state, rng)))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    loop.check()
    solved = loop.attempted - len(loop.failures)
    pct, raw_tail_s = tail(loop.latencies)
    raw_p50_s = statistics.median(loop.latencies)
    f = host.factor()
    facts.update({
        "instances": loop.attempted, "passes": len(passes),
        "pass_s": [round(p, 4) for p in passes],
        "timed_s": loop.timed, "import_s": import_s, "prepare_s": prep,
        "tail_percentile": pct, "latency_samples": len(loop.latencies),
        "fail_share": len(loop.failures) / loop.attempted,
        "failures": loop.failures[:20],
        "host_timed": host.facts(), "host_setup": setup_host.facts(),
        "unscaled": {"setup_s": raw_setup_s, "solved_per_s": solved / loop.timed,
                     "latency_p50_s": raw_p50_s, "latency_tail_s": raw_tail_s},
    })
    metrics = {
        "setup_s": metric(raw_setup_s * setup_host.factor(), "s"),
        "solved_per_s": metric(solved / (loop.timed * f), "1/s"),
        "latency_p50_s": metric(raw_p50_s * f, "s"),
        "latency_tail_s": metric(raw_tail_s * f, "s"),
        "peak_rss_mb": metric(rss_mb, "MB"),
    }
    return loop, metrics


# Layers on every workload's path; the rest run on some workloads only,
# where a zero self time would carry no measurement, so only their call
# counts are reported as per-layer metrics.
SELF_TIME_LAYERS = (
    "core.kernel_lattice_basis", "graver.compute_graver", "graver.project_first_n",
    "testset.compute_test_set", "augment.solve", "augment.find_improving",
    "augment.line_search", "objective.value",
)


def traced_run(args, workload, facts):
    tracer = Tracer()
    rng = random.Random("%s:%d" % (args.workload, args.seed))
    tracer.install()
    try:
        state = workload.setup(tracer)
    finally:
        tracer.uninstall()
    items = workload.draw(state, rng)

    for _ in range(max(1, round(args.seconds / 2 / workload.nominal_pass_s)) - 1):
        items += workload.draw(state, rng)

    # Each instance runs once untraced and once traced, the two runs next
    # to each other and in alternating order, so warm caches and the
    # host's drifting speed weigh on both sides of the overhead alike.
    loop = Loop(workload, state)
    plain = traced = 0.0
    for index, item in enumerate(items):
        for with_trace in ((False, True) if index % 2 == 0 else (True, False)):
            if not with_trace:
                plain += loop.run_pass([item])
                continue
            tracer.install()
            try:
                traced += loop.run_pass([item], tracer)
            finally:
                tracer.uninstall()
    loop.check()

    c = tracer.counts
    calls = tracer.calls

    def share(num, den):
        return num / den if den else 0.0

    metrics = {"trace.overhead": metric(traced / plain, "ratio"),
               "trace.instances": metric(len(items), "count")}
    for name, _, _ in LAYERS:
        metrics[name + ".calls"] = metric(calls[name], "count")
    for name in SELF_TIME_LAYERS:
        metrics[name + ".self_s"] = metric(tracer.self_s[name], "s")
    metrics.update({
        "testset.compute_test_set.directions":
            metric(c.get("testset.compute_test_set.directions", 0), "count"),
        "graver.compute_graver.basis_size":
            metric(c.get("graver.compute_graver.basis_size", 0), "count"),
        "graver.project_first_n.in": metric(c.get("graver.project_first_n.in", 0), "count"),
        "graver.project_first_n.out_share": metric(share(
            c.get("graver.project_first_n.out", 0),
            c.get("graver.project_first_n.in", 0)), "share"),
        "qap.applicable_directions.in":
            metric(c.get("qap.applicable_directions.in", 0), "count"),
        "qap.applicable_directions.kept_share": metric(share(
            c.get("qap.applicable_directions.out", 0),
            c.get("qap.applicable_directions.in", 0)), "share"),
        "qap.relabeling_symmetries.group_order": metric(share(
            c.get("qap.relabeling_symmetries.group_order", 0),
            calls["qap.relabeling_symmetries"]), "count"),
        "augment.solve.steps": metric(c.get("augment.solve.steps", 0), "count"),
        "augment.line_search.improving_share": metric(share(
            c.get("augment.line_search.improving", 0),
            calls["augment.line_search"]), "share"),
    })
    facts.update({
        "instances": loop.attempted, "untraced_s": plain, "traced_s": traced,
        "fail_share": len(loop.failures) / loop.attempted,
        "failures": loop.failures[:20], "counter_errors": tracer.errors,
        "layers": {name: {"calls": calls[name], "self_s": tracer.self_s[name],
                          "total_s": tracer.total[name]} for name in tracer.names},
        "edges": ["%s > %s: %d" % (p, ch, n) for (p, ch), n in sorted(
            tracer.edges.items(), key=lambda kv: (str(kv[0][0]), kv[0][1]))],
        "counts": dict(sorted(c.items())),
    })
    return loop, metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    import graveropt  # noqa: F401  (imported before any timing starts)
    facts = host_facts(args)
    workload = WORKLOADS[args.workload]()
    run = traced_run if args.trace else timed_run
    loop, metrics = run(args, workload, facts)

    print("details " + json.dumps(facts, sort_keys=True))
    for name, m in metrics.items():
        print("%-48s %14.6g %s" % (name, m["value"], m["unit"]))
    print(json.dumps({
        "correct": not loop.failures,
        "attempted": loop.attempted,
        "failed": len(loop.failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
