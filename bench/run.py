"""geninv benchmark: three workloads, end-to-end metrics, traced per-layer breakdown.

    python3 bench/run.py --workload exact_large --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25 --trace 0

One closed-loop client: one process per workload, one thread, each call
starts after the previous one returned and was checked, BLAS pinned to one
thread. With --trace 0 it reports the end-to-end metrics: setup_s is the
median over at least SETUP_SAMPLES fresh processes (more when set-up is
cheap), the rest come from the measuring process. With --trace 1 it
reports the per-layer metrics from a separate traced process.
Human-readable lines come first; the last stdout line is the JSON result.
Exit code 2 when the geninv sources are missing, 1 when a worker process
fails.

The mix runs in whole passes for --seconds: ops_per_s is calls per pass
over the sum of each call's median time, call_ms_p50/p90 are quantiles
of all timings of the run. The oracle checks run between calls and are
not timed. pass_rate is 1 - error_rate, where error_rate = failed /
attempted calls; a call fails when it raises, exits non-zero, fails its
oracle or prints other stdout than in the warm-up. Calls that exercise
a known library defect (Cayley-Hamilton inverses at p = 2^31-1,
verify-suite on any seed) are left out of the timed mix; each run checks
them once afterwards and reports their failures on their own lines, and
the traced run reports the first as numerics.fp.p31_failures.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
WORKLOADS = ("exact_large", "real_large", "small_calls")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_SAMPLES = 3           # at least, the measuring process included
SETUP_BUDGET_S = 3.0        # cheap set-ups are sampled until they add up to this
RUN_LIMIT_S = 170
END_TO_END = (("setup_s", "s"), ("ops_per_s", "1/s"), ("call_ms_p50", "ms"),
              ("call_ms_p90", "ms"), ("peak_rss_mb", "MB"), ("pass_rate", "fraction"))


class WorkerFailed(Exception):
    pass


def spawn(role, args, workload, run_dir, deadline):
    workdir = run_dir / ("%s-%d" % (role, len(list(run_dir.iterdir()))))
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONHASHSEED="0",
               **{v: "1" for v in THREAD_VARS})
    cmd = [sys.executable, str(BENCH / "worker.py"), "--role", role,
           "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--workdir", str(workdir),
           "--spans", str(WORK / "spans" / (workload + ".npz")),
           "--t0", repr(time.perf_counter())]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise WorkerFailed("%s worker exceeded the %d s run limit" % (role, RUN_LIMIT_S))
    if proc.returncode != 0:
        raise WorkerFailed("%s worker exited with %d:\n%s"
                           % (role, proc.returncode, proc.stderr[-4000:]))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(workload, args):
    deadline = time.monotonic() + RUN_LIMIT_S
    run_dir = WORK / ("run-%d" % os.getpid())
    run_dir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            res = spawn("trace", args, workload, run_dir, deadline)
            metrics = {k: {"value": v, "unit": u} for k, (v, u) in res["metrics"].items()}
        else:
            setups = []
            while len(setups) < SETUP_SAMPLES - 1 or sum(setups) < SETUP_BUDGET_S:
                setups.append(spawn("setup", args, workload, run_dir, deadline)["setup_s"])
            res = spawn("measure", args, workload, run_dir, deadline)
            setups.append(res["setup_s"])
            res["metrics"]["setup_s"] = statistics.median(setups)
            res["setup_samples"] = setups
            metrics = {k: {"value": res["metrics"][k], "unit": u} for k, u in END_TO_END}
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    env = dict(res["environment"], trace_overhead=res["trace_overhead"],
               known_defects=res["known_defects"])
    result = {"correct": res["failed"] == 0, "attempted": res["attempted"],
              "failed": res["failed"], "metrics": metrics}
    report(workload, args, res, result, env)
    return result


def report(workload, args, res, result, env):
    print("workload %s  seed %d  %g s  trace %d: %d timed calls (%d passes of %d), %d failed"
          % (workload, args.seed, args.seconds, args.trace, res["attempted"], res["passes"],
             res["calls_per_pass"], res["failed"]))
    for name, m in result["metrics"].items():
        print("  %-40s %14.6g %s" % (name, m["value"], m["unit"]))
    if not args.trace:
        print("  error_rate %.6g (%d failed / %d attempted)"
              % (res["failed"] / res["attempted"], res["failed"], res["attempted"]))
        print("  p50/p90 over %d samples (%d passes), %d beyond p90; setup_s samples %s"
              % (res["samples"], res["passes"], res["beyond_p90"],
                 ", ".join("%.4f" % s for s in res["setup_samples"])))
    else:
        print("  %d spans; self times + bench.self_s differ from the traced pass time by %.3g s"
              % (res["spans"], res["accounting_error_s"]))
    if "kind_ms" in res:
        print("  median ms by call kind: " + ", ".join(
            "%s %.3g" % kv for kv in sorted(res["kind_ms"].items())))
    for problem, count in sorted(res["problems"].items()):
        print("  failed: %s (x%d)" % (problem, count))
    for kind, (failed, checked) in sorted(res["known_defects"].items()):
        print("  known defect, checked apart from the mix and not counted above:"
              " %s failed %d of %d calls" % (kind, failed, checked))
    print(json.dumps({"environment": env}, sort_keys=True))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    # on SIGTERM, unwind so that subprocess.run kills and reaps the worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "geninv" / "__init__.py").is_file():
        sys.stderr.write("bench: no geninv sources under %s\n" % (ROOT / "src"))
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {name: run_workload(name, args) for name in names}
    except WorkerFailed as e:
        sys.stderr.write("bench: %s\n" % e)
        return 1
    finally:
        try:
            WORK.rmdir()                  # only when nothing else is kept there
        except OSError:
            pass
    last = results[names[0]] if len(names) == 1 else results
    print(json.dumps(last))
    return 0


if __name__ == "__main__":
    sys.exit(main())
