"""Run one ggeval benchmark workload and print its metrics.

    python3 perfbench/run.py --workload score_2k --seed 3 --seconds 30 --trace 0

Run from the root of a ggeval source tree; ggeval is imported from its
``src/`` directory. The workload seed makes the inputs; ggeval only sees
the generated inputs. One caller runs the ops back to back (closed loop).

With ``--trace 0`` the end-to-end metrics are printed: ``run_s`` (median
wall time of one pass over the workload's ops), ``op_s_p50`` (median op
latency), ``setup_s`` (median time to build the inputs), ``peak_rss_mb``
and the failed-op count. With ``--trace 1`` the set-up and one pass
are traced, a warm-up pass and one more pass are not, and the per-layer
metrics come from spans recorded around the calls into each ggeval module
(see tracer.py); the spans are written to ``perfbench/traces/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is
0 when every output check held, 1 when one failed, 2 on a usage error or
when no ggeval source tree is found.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
BASELINE = os.path.join(HERE, "baseline.json")
TRACE_DIR = os.path.join(HERE, "traces")
WORKLOAD_NAMES = ("reproduce_seed", "score_2k", "sweep_lobster")
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "NUMEXPR_NUM_THREADS")
END_TO_END_UNITS = {"run_s": "s", "op_s_p50": "s", "setup_s": "s", "peak_rss_mb": "MiB"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ns = parser.parse_args(argv)
    if not ns.seconds > 0:
        parser.error("--seconds must be > 0")
    if ns.seed < 0:
        parser.error("--seed must be >= 0")
    return ns


def pin_blas_threads():
    """Cap BLAS threads at nproc, as ``ggeval --threads`` does; before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    try:
        wanted = int(os.environ.get("OPENBLAS_NUM_THREADS", nproc))
    except ValueError:
        wanted = nproc
    threads = max(1, min(wanted, nproc))
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(threads)


def environment():
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = "unknown"
    commit = "unknown"  # the benchmark may run from a plain source copy
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], check=True,
                                    capture_output=True, text=True,
                                    timeout=10).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {"nproc": len(os.sched_getaffinity(0)),
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__, "blas": blas,
            "commit": commit}


def baseline_digest(workload, seed):
    """The digest recorded for (workload, seed) at the baseline commit, if any.

    Multithreaded BLAS sums in another order, so a digest only compares
    under the BLAS thread count it was recorded with.
    """
    try:
        with open(BASELINE, encoding="utf-8") as fh:
            baseline = json.load(fh)
        if baseline["digest_blas_threads"] != os.environ.get("OPENBLAS_NUM_THREADS"):
            return None
        return baseline["digests"][workload][str(seed)]
    except (OSError, KeyError, ValueError):
        return None


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def measure(workload, seed, seconds):
    """Untraced run: set-up, then whole passes; end-to-end metrics."""
    from workloads import run_passes, timed_setup

    inputs, setup_s = timed_setup(workload, seed)
    passes = run_passes(workload, inputs, seconds)
    op_s = [t for p in passes for t in p.op_s]
    metrics = {
        "run_s": statistics.median(p.run_s for p in passes),
        "op_s_p50": statistics.median(op_s),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(),
    }
    return passes, metrics, {"passes": len(passes), "ops": len(op_s)}


def measure_traced(workload, seed):
    """Traced set-up, then a warm-up, an untraced and a traced pass.

    The warm-up pass takes the first-call costs (lazy imports, first
    allocations), so the overhead compares two warm passes.
    """
    from tracer import Tracer
    from workloads import run_pass

    tracer = Tracer()
    tracer.install()
    try:
        inputs = workload.setup(seed)
    finally:
        tracer.uninstall()
    warmup = run_pass(workload, inputs)
    untraced = run_pass(workload, inputs)
    tracer.install()
    try:
        traced = run_pass(workload, inputs, tracer=tracer)
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics(traced.run_s, untraced.run_s)
    os.makedirs(TRACE_DIR, exist_ok=True)
    spans_path = os.path.join(TRACE_DIR, f"{workload.name}-seed{seed}.jsonl")
    tracer.write_spans(spans_path)
    extra = {"spans_file": os.path.relpath(spans_path, ROOT), "missing_wraps": tracer.missing}
    if traced.digest != untraced.digest:
        traced.problems.append("traced pass digest differs from the untraced pass")
        traced.failed += 1
    return [warmup, untraced, traced], metrics, extra


def run_workload(workload, seed, seconds, trace):
    """Measure one workload, print its metrics; the exit code."""
    import tracer

    env = environment()
    if trace:
        passes, metrics, extra = measure_traced(workload, seed)
        units = {name: unit for name, (unit, _) in tracer.PER_LAYER_METRICS.items()}
    else:
        passes, metrics, extra = measure(workload, seed, seconds)
        units = END_TO_END_UNITS

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    problems = [line for p in passes for line in p.problems]
    digests = sorted({p.digest for p in passes})
    if len(digests) > 1:
        problems.append(f"passes of one seed gave different digests: {digests}")
    digest = digests[0]
    expected = baseline_digest(workload.name, seed)
    matches = None if expected is None else expected == digest
    correct = failed == 0 and not problems

    for line in problems:
        print(f"check failed: {line}", file=sys.stderr)
    print(f"workload {workload.name}  seed {seed}  trace {trace}")
    for name, value in metrics.items():
        print(f"  {name:<38} {value:>16.6g} {units[name]}")
    print(f"  {'fail_ratio':<38} {failed / attempted:>16.6g} ({failed} of {attempted} ops)")
    print(f"  digest {digest}  baseline "
          + {None: "unknown", True: "match", False: "MISMATCH"}[matches])
    print(json.dumps({"env": env, "digest": digest, "digest_matches_baseline": matches,
                      "fail_ratio": failed / attempted, **extra}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": value, "unit": units[name]}
                                  for name, value in metrics.items()}}))
    return 0 if correct else 1


def main(argv=None):
    ns = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "ggeval", "__init__.py")):
        print(f"error: no ggeval source tree at {SRC}", file=sys.stderr)
        return 2
    pin_blas_threads()  # before anything imports numpy
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    return run_workload(WORKLOADS[ns.workload], ns.seed, ns.seconds, ns.trace)


if __name__ == "__main__":
    sys.exit(main())
