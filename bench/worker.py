"""One workload in its own process: set up, then measure or trace.

Started by run.py, never by hand. `--t0` is the parent's perf_counter
reading just before the spawn (a system-wide monotonic clock on Linux), so
setup_s covers interpreter start, importing geninv, writing the inputs and
the warm-up pass. The warm-up runs every call of the mix once, fills lazy
caches, records each CLI call's stdout and checks every answer. The result
is one JSON line on stdout.
"""

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

from run import THREAD_VARS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
TRACE_SHARE = 2 / 3          # of --seconds spent alternating untraced/traced passes
PROBE_REPEATS = 3


def digest(obj):
    h = hashlib.blake2b(digest_size=16)
    _feed(h, obj)
    return h.digest()


def _feed(h, obj):
    if hasattr(obj, "dtype") and hasattr(obj, "tobytes"):
        h.update(b"a%s%r" % (obj.dtype.str.encode(), obj.shape))
        h.update(obj.tobytes())
    elif isinstance(obj, (list, tuple)):
        h.update(b"[%d" % len(obj))
        for x in obj:
            _feed(h, x)
    elif isinstance(obj, str):
        h.update(b"s%d" % len(obj))
        h.update(obj.encode())
    else:
        h.update(repr(obj).encode())


class Runner:
    """Runs the mix as one closed-loop client and checks every answer.

    A verdict is cached per (call, output digest): an output byte-equal to
    one already checked gets the same verdict without re-running the oracle.
    """

    def __init__(self, calls):
        self.calls = calls
        self.tracer = None
        self.stdout_ref = {}          # call index -> digest of warm-up stdout
        self.verdicts = {}
        self.problems = {}            # "kind: what" -> count

    def note(self, kind, what):
        key = "%s: %s" % (kind, what)
        self.problems[key] = self.problems.get(key, 0) + 1

    def call(self, i):
        """Run call i once; returns (seconds, ok)."""
        call = self.calls[i]
        t0 = time.perf_counter()
        try:
            raw = call.run()
        except Exception as e:        # a raising call is a failed call, not a crash
            self.note(call.kind, "raised %s" % type(e).__name__)
            return time.perf_counter() - t0, False
        dt = time.perf_counter() - t0
        tracer = self.tracer
        if tracer is not None and tracer.mode == "time":
            tracer.counters["pseudo_inverse.targets"] += call.targets
            if call.cli:
                tracer.counters["cli.stdout_bytes"] += len(raw[1].encode())
        return dt, self.verify(i, call, raw)

    def verify(self, i, call, raw):
        try:
            if call.cli:
                out = digest(raw[1])
                if self.stdout_ref.setdefault(i, out) != out:
                    self.note(call.kind, "stdout differs from the warm-up")
                    return False
            data = call.view(raw)
            key = (i, digest(data))
            if key not in self.verdicts:
                self.verdicts[key] = bool(call.check(data))
            ok = self.verdicts[key]
        except Exception as e:        # malformed output fails the check
            self.note(call.kind, "check raised %s" % type(e).__name__)
            return False
        if not ok:
            self.note(call.kind, "failed its oracle")
        return ok

    def run_pass(self):
        times, failed = [], 0
        for i in range(len(self.calls)):
            if self.tracer is not None:
                self.tracer.call_id += 1
            dt, ok = self.call(i)
            times.append(dt)
            failed += not ok
        return times, failed

    def by_kind(self, times):
        """Median milliseconds per call kind, from whole passes of timings."""
        kinds = {}
        for i, dt in enumerate(times):
            kinds.setdefault(self.calls[i % len(self.calls)].kind, []).append(1000 * dt)
        return {k: statistics.median(v) for k, v in kinds.items()}

    def warm_up(self):
        self.run_pass()
        self.problems.clear()


def known_defects(calls):
    """Run and check the calls that exercise a known library defect, once
    each, after the timed passes. Their failures are reported on their own
    and do not count as failed calls of the mix."""
    runner = Runner(calls)
    out = {}                          # kind -> [failed, checked]
    for i, call in enumerate(calls):
        _, ok = runner.call(i)
        counts = out.setdefault(call.kind, [0, 0])
        counts[0] += not ok
        counts[1] += 1
    return out


def environment(np, args):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = "%s %s" % (blas.get("name"), blas.get("version"))
    except (TypeError, KeyError):
        blas = "unknown"
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "machine": platform.machine(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas,
            "threads": {v: os.environ.get(v) for v in THREAD_VARS},
            "workload": args.workload, "seed": args.seed}


def measure(runner, args, geninv, tracing):
    """Whole passes of the mix until --seconds have passed.

    ops_per_s is calls per pass over the sum of each call's median time;
    call_ms_p50/p90 are quantiles of all timings of the run. A shared
    machine speeds up and slows down in bursts; medians over the whole run
    are the statistics those bursts move least.
    """
    deadline = time.perf_counter() + args.seconds
    passes, failed = [], 0
    while True:
        t, f = runner.run_pass()
        passes.append(t)
        failed += f
        if time.perf_counter() >= deadline:
            break
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    problems = dict(runner.problems)
    pooled = [1000 * dt for p in passes for dt in p]
    deciles = statistics.quantiles(pooled, n=10, method="inclusive")
    ops = len(runner.calls) / sum(statistics.median(t) for t in zip(*passes))
    # one traced pass after the measurement, for the tracing overhead
    tracer = runner.tracer = tracing.Tracer(geninv)
    tracer.install("time")
    try:
        t, _ = runner.run_pass()
    finally:
        tracer.uninstall()
    untraced_pass = statistics.median(sum(p) for p in passes)
    attempted = len(passes) * len(runner.calls)
    return {"attempted": attempted, "failed": failed, "passes": len(passes),
            "calls_per_pass": len(runner.calls), "problems": problems,
            "samples": len(pooled), "beyond_p90": sum(x > deciles[8] for x in pooled),
            "kind_ms": runner.by_kind([dt for p in passes for dt in p]),
            "metrics": {"ops_per_s": ops, "call_ms_p50": deciles[4],
                        "call_ms_p90": deciles[8], "peak_rss_mb": rss_mb,
                        "pass_rate": 1.0 - failed / attempted},
            "trace_overhead": {"untraced_pass_s": untraced_pass, "traced_pass_s": sum(t),
                               "slowdown": sum(t) / untraced_pass}}


def trace(runner, args, geninv, tracing, np):
    """Untraced and traced passes alternate for TRACE_SHARE of --seconds,
    then one pass under tracemalloc. Self times come from the traced pass
    of median duration, so they add up with bench.self_s to its time;
    counts are per pass."""
    import tracemalloc
    tracer = runner.tracer = tracing.Tracer(geninv)
    failed, attempted, ratios, traced = 0, 0, [], []
    deadline = time.perf_counter() + TRACE_SHARE * args.seconds
    while True:                           # alternate, so drift hits both sides
        t, f = runner.run_pass()
        untraced_s = sum(t)
        failed += f
        before = (list(tracer.self_s), tracer.top_s)
        tracer.install("time")
        w0 = time.perf_counter()
        try:
            t, f = runner.run_pass()
        finally:
            window = time.perf_counter() - w0
            tracer.uninstall()
        failed += f
        attempted += 2 * len(t)
        ratios.append(sum(t) / untraced_s)
        traced.append((window, [a - b for a, b in zip(tracer.self_s, before[0])],
                       tracer.top_s - before[1]))
        if time.perf_counter() >= deadline:
            break
    problems = dict(runner.problems)
    tracemalloc.start()
    tracer.install("mem")
    try:
        runner.run_pass()
    finally:
        tracer.uninstall()
        tracemalloc.stop()

    spans = Path(args.spans)
    spans.parent.mkdir(parents=True, exist_ok=True)
    tracer.save(spans)

    n = len(traced)
    window, self_s, top_s = sorted(traced, key=lambda x: x[0])[(n - 1) // 2]
    m = {}
    for k, layer in enumerate(tracing.LAYERS):
        m[layer + ".self_s"] = (self_s[k], "s")
        m[layer + ".calls"] = (tracer.calls[k] / n, "count")
        m[layer + ".peak_mb"] = (tracer.peak[k] / 2 ** 20, "MB")
    m["bench.self_s"] = (window - top_s, "s")
    m["bench.traced_pass_s"] = (window, "s")
    m["bench.trace_slowdown"] = (statistics.median(ratios), "ratio")
    c = {k: v / n for k, v in tracer.counters.items()}
    for key, unit in (("endofunction.chain_ids", "count"), ("vanishing.poly_degree_sum", "count"),
                      ("cli.stdout_bytes", "B"), ("applied.haar_matrix_bytes", "B"),
                      ("applied.qp_iterations", "count"), ("pseudo_inverse.targets", "count"),
                      ("pseudo_inverse.grid_points", "count"),
                      ("structured_inverse.dykstra_sweeps", "count"),
                      ("structured_inverse.dykstra_cap_hits", "count")):
        m[key] = (c[key], unit)
    m["applied.qp_optimal_ratio"] = (c["applied.qp_optimal"] / max(c["applied.qp_solves"], 1),
                                     "ratio")
    m.update(probes(geninv, np, args.seed))
    return {"attempted": attempted, "failed": failed, "passes": n,
            "calls_per_pass": len(runner.calls), "problems": problems,
            "spans": len(tracer.fid),
            "accounting_error_s": abs(sum(self_s) + (window - top_s) - window),
            "metrics": m,
            "trace_overhead": {"slowdown": m["bench.trace_slowdown"][0],
                               "traced_passes": n}}


def probes(g, np, seed):
    """Per-call times of the ROADMAP baseline cases, tracing off."""
    rng = np.random.default_rng([seed, 1])
    A6, A7 = rng.integers(0, 65521, (6, 6)), rng.integers(0, 65521, (7, 7))
    F = g.vanishing.FpVectorOperator(2, 7, rng.permutation(2 ** 7))
    T = g.core_ops.FiniteOperator(20_000, 15_000, tuple(int(x) for x in
                                                        rng.integers(0, 15_000, 20_000)))
    cases = {"probe.fp_char_poly_n6_ms": lambda: g.numerics.fp_char_poly(A6, 65521),
             "probe.fp_char_poly_n7_ms": lambda: g.numerics.fp_char_poly(A7, 65521),
             "probe.haar_basis_1024_ms": lambda: g.applied.haar_basis(1024),
             "probe.find_vanishing_poly_f2_7_ms": lambda: g.vanishing.find_vanishing_poly(F),
             "probe.build_one_two_inverse_2e4_ms":
                 lambda: g.set_inverse.build_one_two_inverse(T)}
    out = {}
    for name, fn in cases.items():
        times = []
        for _ in range(PROBE_REPEATS):
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
        out[name] = (1000 * statistics.median(times), "ms")
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--role", choices=["setup", "measure", "trace"], required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--spans")
    args = ap.parse_args()

    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True)
    os.chdir(workdir)                 # inputs and outputs use short relative names
    try:
        import numpy as np
        import geninv
        import geninv.cli             # noqa: F401  (not imported by the package)
        import tracing
        import workloads

        calls = workloads.build(args.workload, np.random.default_rng(args.seed), geninv)
        runner = Runner([c for c in calls if not c.defect])
        runner.warm_up()
        gc.collect()
        setup_s = time.perf_counter() - args.t0
        if args.role == "setup":
            result = {}
        elif args.role == "measure":
            result = measure(runner, args, geninv, tracing)
        else:
            result = trace(runner, args, geninv, tracing, np)
        result["setup_s"] = setup_s
        if args.role != "setup":
            result["known_defects"] = known_defects([c for c in calls if c.defect])
        if args.role == "trace":
            result["metrics"]["numerics.fp.p31_failures"] = (
                result["known_defects"].get("cayley-hamilton-p31", [0, 0])[0], "count")
        result["environment"] = environment(np, args)
    finally:
        os.chdir(ROOT)
        shutil.rmtree(workdir, ignore_errors=True)
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
