"""Run the benchmark over many seeds and record the baseline.

    python3 perfbench/baseline.py --workloads score_2k --seeds 1-10
    python3 perfbench/baseline.py --seeds 11-20 --repeat-check
    python3 perfbench/baseline.py --traced-seed 1

Each run is a separate ``perfbench/run.py`` process, one after another,
from the root of the source tree. For every end-to-end metric the median,
the quartiles (``statistics.quantiles(values, n=4)``) and the spread
(interquartile distance over the median) are written to
``perfbench/baseline.json`` with each seed's output digest. With
``--repeat-check`` a second set is recorded beside the first, with the
shift of its medians. ``--traced-seed`` runs the traced run twice on one
seed per workload, records its per-layer table and whether the exact
counts repeated.
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
BASELINE = os.path.join(HERE, "baseline.json")


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{workload} seed {seed} trace {trace} exited "
                         f"{proc.returncode}:\n{proc.stdout}\n{proc.stderr}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def measure_set(workload, seeds, seconds, bounds):
    runs = {}
    for seed in seeds:
        detail, result = run_once(workload, seed, seconds, trace=0)
        runs[seed] = (detail, result)
        shown = "  ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
        print(f"{workload} seed {seed}: {shown}", flush=True)
    names = list(next(iter(runs.values()))[1]["metrics"])
    metrics = {}
    for name in names:
        stats = summarize([runs[s][1]["metrics"][name]["value"] for s in seeds])
        stats["unit"] = runs[seeds[0]][1]["metrics"][name]["unit"]
        metrics[name] = stats
        print(f"  {name:<12} median {stats['median']:.4g}  spread {stats['spread']:.4f}"
              f"  (bound/3 = {bounds[name] / 3:.4f})")
    return {
        "seeds": seeds,
        "attempted": sum(runs[s][1]["attempted"] for s in seeds),
        "failed": sum(runs[s][1]["failed"] for s in seeds),
        "end_to_end": metrics,
        "digests": {str(s): runs[s][0]["digest"] for s in seeds},
        "env": runs[seeds[0]][0]["env"],
    }


def traced(workload, seed, seconds, from_module):
    first, second = (run_once(workload, seed, seconds, trace=1) for _ in range(2))
    values = [{k: v["value"] for k, v in result["metrics"].items()}
              for _, result in (first, second)]
    counts = [{k: v[k] for k in from_module.EXACT_COUNTS} for v in values]
    print(f"{workload} traced seed {seed}: exact counts {counts[0]}, "
          f"repeat {counts[0] == counts[1]}, overhead {values[0]['trace.overhead_s']:.3g} s",
          flush=True)
    return {"seed": seed, "runs": 2, "exact_counts": counts[0],
            "exact_counts_repeat": counts[0] == counts[1],
            "metrics": first[1]["metrics"]}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default="reproduce_seed,score_2k,sweep_lobster")
    parser.add_argument("--seeds", type=seed_list, default=None, help="e.g. 1-10")
    parser.add_argument("--traced-seed", type=int, default=None)
    parser.add_argument("--repeat-check", action="store_true")
    ns = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    whys = {w["name"]: w["why"] for w in spec["workloads"]}
    try:
        with open(BASELINE, encoding="utf-8") as fh:
            baseline = json.load(fh)
    except FileNotFoundError:
        baseline = {}
    sys.path.insert(0, HERE)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import tracer
    from workloads import WORKLOADS

    baseline.setdefault("run_seconds", spec["run_seconds"])
    for name in ns.workloads.split(","):
        entry = baseline.setdefault("workloads", {}).setdefault(name, {})
        entry["why"] = whys[name]
        workload = WORKLOADS[name]
        constants = {k: getattr(workload, k)
                     for k in ("setup_repeats", "ratios", "kinds") if hasattr(workload, k)}
        entry["definition"] = f"{workload.__doc__} {workload!r} {constants}"
        if ns.seeds:
            result = measure_set(name, ns.seeds, spec["run_seconds"], bounds)
            baseline.setdefault("digests", {}).setdefault(name, {}).update(
                result.pop("digests"))
            baseline["digest_blas_threads"] = result["env"]["blas_threads"]
            if ns.repeat_check:
                first = entry["end_to_end"]
                result["median_shift"] = {
                    k: v["median"] / first[k]["median"] - 1.0
                    for k, v in result["end_to_end"].items()}
                print(f"  median shift vs first set: {result['median_shift']}")
                entry["repeat_set"] = result
            else:
                entry.update(result)
        if ns.traced_seed is not None:
            entry["traced"] = traced(name, ns.traced_seed, spec["run_seconds"], tracer)
        with open(BASELINE, "w", encoding="utf-8") as fh:
            json.dump(baseline, fh, indent=1, sort_keys=True)
            fh.write("\n")


if __name__ == "__main__":
    main()
