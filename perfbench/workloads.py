"""The benchmark's workloads, their output checks and the harness loop.

A workload builds its inputs from the workload seed (``setup``), then
hands ggeval one op at a time (``ops``), closed loop: one caller, each op
started when the previous one returned. Every op's result goes through
``check``, whose rules hold whatever the numerics, and into the output
digest, which pins the numerics themselves.

Sizes live in the workload objects so that the benchmark's own test can
run a tiny configuration of each one through the same code.
"""

from __future__ import annotations

import bisect
import hashlib
import math
import os
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from functools import partial
from time import perf_counter

import ggeval.benchmark as benchmark
import ggeval.encoder as encoder
import ggeval.generators as generators
import ggeval.metrics as metrics
import ggeval.reproduce as reproduce

# ---------------------------------------------------------------------------
# output checks: each returns a list of problems, empty when the output holds


def check_report(report, where):
    values = report.as_dict()
    problems = [f"{where}: {name} = {value!r} is not finite"
                for name, value in values.items() if not math.isfinite(value)]
    for name in ("precision", "recall", "coverage"):
        if not 0.0 <= values[name] <= 1.0:
            problems.append(f"{where}: {name} = {values[name]!r} outside [0, 1]")
    if not values["fd"] >= 0.0:
        problems.append(f"{where}: fd = {values['fd']!r} is negative")
    return problems


def check_curve(curve, where):
    problems = []
    for r, report in zip(curve.ratios, curve.reports):
        problems += check_report(report, f"{where} r={r:g}")
    for name, rho in curve.rhos.items():
        if not -1.0 <= rho <= 1.0:
            problems.append(f"{where}: rho[{name}] = {rho!r} outside [-1, 1]")
    return problems


def check_losses(losses, where):
    return [f"{where}: epoch {i} loss {loss!r} is not finite"
            for i, loss in enumerate(losses) if not math.isfinite(loss)]


# ---------------------------------------------------------------------------
# digest inputs: floats at full repr, in a fixed order


def report_items(report):
    return [(name, float(value)) for name, value in report.as_dict().items()]


def curve_items(curve):
    items = [("kind", curve.kind), ("seed", curve.seed)]
    items += [("rho", name, float(curve.rhos[name])) for name in sorted(curve.rhos)]
    for r, report in zip(curve.ratios, curve.reports):
        items += [("r", float(r))] + report_items(report)
    return items


# ---------------------------------------------------------------------------
# workloads


@dataclass(frozen=True)
class ReproduceSeed:
    """One seed of the default reproduction: train, then two mix-random sweeps."""

    name = "reproduce_seed"
    setup_repeats = 5  # one set-up takes ~1 s on a 2-CPU box
    config: dict = field(default_factory=dict)  # ReproduceConfig overrides

    def setup(self, seed):
        # run_reproduction builds its own dataset inside the op, so the
        # set-up a user pays first is a fresh interpreter importing it
        src = os.path.dirname(os.path.dirname(reproduce.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        subprocess.run([sys.executable, "-c", "import ggeval.reproduce"],
                       env=env, check=True, timeout=60)
        return reproduce.ReproduceConfig(**{**self.config, "dataset_seed": seed,
                                            "seeds": (seed,)})

    def ops(self, config):
        return [("seed", partial(reproduce.run_reproduction, config))]

    def check(self, label, report):
        problems = []
        for run in report.runs:
            where = f"seed {run.seed}"
            problems += check_losses(run.epoch_losses, where)
            problems += check_curve(run.trained_curve, f"{where} trained")
            problems += check_curve(run.random_curve, f"{where} random")
        return problems

    def digest_items(self, label, report):
        items = []
        for run in report.runs:
            items += [("seed", run.seed)]
            items += [("loss", float(x)) for x in run.epoch_losses]
            items += curve_items(run.trained_curve) + curve_items(run.random_curve)
        return items


@dataclass(frozen=True)
class Score2k:
    """Score generated sets against a 2000-graph reference, random-init GIN."""

    name = "score_2k"
    # one set-up takes ~9 s on a 2-CPU box; repeating it would not fit the
    # run budget of the whole benchmark
    setup_repeats = 1
    # ratio 0 leaves the reference as it is; check() tests that op exactly
    ratios = (0.0, 0.5)
    count: int = 2000

    def setup(self, seed):
        ref = generators.gen_dataset("community", self.count, seed=seed)
        generated = [
            benchmark.perturb_mix_random(ref, r, generators.substream(seed, 7, i))
            for i, r in enumerate(self.ratios)
        ]
        params = encoder.init_random(encoder.EncoderConfig(), seed=seed)
        return ref, generated, params

    def ops(self, inputs):
        ref, generated, params = inputs
        return [(f"ratio={r:g}", partial(_score, params, ref, gen))
                for r, gen in zip(self.ratios, generated)]

    def check(self, label, report):
        problems = check_report(report, label)
        if label == "ratio=0":
            # identical sets: every ball is hit and the distributions coincide
            for name in ("precision", "recall", "coverage"):
                if report[name] != 1.0:
                    problems.append(f"{label}: {name} = {report[name]!r}, expected 1")
            if not report.fd <= 1e-6 * max(1.0, report.rbf_sigma ** 2):
                problems.append(f"{label}: fd = {report.fd!r}, expected ~0")
        return problems

    def digest_items(self, label, report):
        return [("op", label)] + report_items(report)


def _score(params, ref, gen):
    h_ref, h_gen = encoder.embed_union(params, ref, gen)
    return metrics.evaluate(h_ref, h_gen)


@dataclass(frozen=True)
class SweepLobster:
    """Rewire, mode-collapse and mode-drop sweeps over small sparse trees."""

    name = "sweep_lobster"
    setup_repeats = 3  # one set-up takes ~3 s on a 2-CPU box
    # (kind, perturbation seeds): a one-seed mode sweep takes ~4 s, short
    # enough for the box's timing noise to swamp its latency, so the mode
    # sweeps draw two seeds each and share one WL clustering
    kinds = (("rewire", 1), ("mode_collapse", 2), ("mode_drop", 2))
    count: int = 100
    pool: int = 200
    # node-count deciles of gen_dataset("lobster"), from 2000 draws
    size_deciles: tuple = (17, 24, 33, 42, 51, 60, 70, 81, 90)
    step: float = 0.04
    num_clusters: int = benchmark.DEFAULT_NUM_CLUSTERS

    def setup(self, seed):
        # The sweeps' cost grows with graph size, and a plain 100-graph draw
        # of lobsters (10..100 nodes) changes its work by up to +-20% from
        # seed to seed. Taking an equal share of a larger draw from each
        # size decile keeps the size mix, and so the work, nearly fixed
        # while the graphs themselves still vary with the seed.
        pool = generators.gen_dataset("lobster", self.pool, seed=seed)
        bins = len(self.size_deciles) + 1
        quota = [self.count // bins] * bins
        taken = []
        for i, graph in enumerate(pool):
            b = bisect.bisect_right(self.size_deciles, graph.num_nodes)
            if quota[b]:
                quota[b] -= 1
                taken.append(i)
        # a decile the pool left short is filled with the next graphs in order
        chosen = set(taken)
        taken += [i for i in range(len(pool)) if i not in chosen][:self.count - len(taken)]
        ref = pool.replace([pool[i] for i in sorted(taken)],
                           name=f"{pool.name}/stratified{self.count}")
        cfg = encoder.EncoderConfig(feature_config="degree+clustering")
        return ref, encoder.init_random(cfg, seed=seed), seed

    def ops(self, inputs):
        ref, params, seed = inputs
        return [(kind, partial(self._sweep, ref, params, kind, range(seed, seed + n)))
                for kind, n in self.kinds]

    def _sweep(self, ref, params, kind, seeds):
        # embed_union is looked up at call time, so a traced pass sees it
        embed = partial(encoder.embed_union, params)
        return benchmark.run_benchmark(ref, embed, kind, seeds=tuple(seeds), step=self.step,
                                       num_clusters=self.num_clusters)

    def check(self, label, curves):
        return [p for curve in curves for p in check_curve(curve, f"{label} seed {curve.seed}")]

    def digest_items(self, label, curves):
        return [item for curve in curves for item in curve_items(curve)]


WORKLOADS = {w.name: w for w in (ReproduceSeed(), Score2k(), SweepLobster())}


# ---------------------------------------------------------------------------
# harness


@dataclass
class PassResult:
    run_s: float          # summed op latencies: the timed part of the pass
    op_s: list
    attempted: int
    failed: int
    problems: list
    digest: str


def timed_setup(workload, seed):
    """Build the inputs several times; (last inputs, median seconds)."""
    times = []
    inputs = None
    for _ in range(workload.setup_repeats):
        inputs = None  # free the previous inputs before building again
        start = perf_counter()
        inputs = workload.setup(seed)
        times.append(perf_counter() - start)
    return inputs, statistics.median(times)


def run_pass(workload, inputs, tracer=None):
    """Run every op once, back to back; check and digest each output."""
    op_s, problems = [], []
    failed = 0
    digest = hashlib.sha256()
    ops = workload.ops(inputs)
    for label, op in ops:
        if tracer is not None:
            tracer.op = label
        start = perf_counter()
        try:
            result = op()
        except Exception:  # an op that raises is a failed op, not a crash
            op_s.append(perf_counter() - start)
            failed += 1
            problems.append(f"{label}: raised\n{traceback.format_exc()}")
            continue
        op_s.append(perf_counter() - start)
        found = workload.check(label, result)
        if found:
            failed += 1
            problems += found
        for item in workload.digest_items(label, result):
            digest.update(repr(item).encode())
            digest.update(b"\n")
    if tracer is not None:
        tracer.op = None
    return PassResult(run_s=sum(op_s), op_s=op_s, attempted=len(ops), failed=failed,
                      problems=problems, digest=digest.hexdigest())


def run_passes(workload, inputs, seconds):
    """Repeat whole passes while the next one is expected to fit in ``seconds``.

    At least one pass runs, so a pass longer than ``seconds`` is measured
    once rather than cut.
    """
    passes = [run_pass(workload, inputs)]
    elapsed = passes[0].run_s
    while elapsed + passes[-1].run_s <= seconds:
        passes.append(run_pass(workload, inputs))
        elapsed += passes[-1].run_s
    return passes
