"""Outside-in span recorder for the benchmark's traced run.

Wrappers are installed from here into the namespaces where ggeval looks
its functions up (``ggeval.training.spectral_norm``,
``ggeval.reproduce.embed_union``, ``ggeval.metrics.cdist``, the ``Graph``
constructor, ...), so nothing under ``src/`` changes. Each wrapped call
records a span (name, start, end, parent, op) in memory; the per-layer
metrics are derived from the spans and a few counters once the traced
pass is over. A layer is a ggeval module, named by the span prefix.
"""

from __future__ import annotations

import functools
import json
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("graphs", "generators", "features", "encoder", "training",
          "benchmark", "metrics", "reproduce")

# Counts that must repeat exactly across traced runs of one seed, so that
# later changes can cite them as counts.
EXACT_COUNTS = ("graphs.builds", "encoder.spectral_norm_calls",
                "features.structural_features_calls", "benchmark.perturb_calls",
                "metrics.pairwise_matrices")


# name -> (unit, better); the order is the order of the per_layer list
PER_LAYER_METRICS = {
    "graphs.builds": ("count", "lower"),
    "graphs.build_s": ("s", "lower"),
    "graphs.edges_in": ("count", "lower"),
    "graphs.self_s": ("s", "lower"),
    "generators.gen_er_calls": ("count", "lower"),
    "generators.gen_er_s": ("s", "lower"),
    "generators.dataset_s": ("s", "lower"),
    "generators.self_s": ("s", "lower"),
    "features.structural_features_calls": ("count", "lower"),
    "features.structural_features_s": ("s", "lower"),
    "features.unique_ratio": ("ratio", "higher"),
    "features.wl_gram_s": ("s", "lower"),
    "features.self_s": ("s", "lower"),
    "encoder.pack_calls": ("count", "lower"),
    "encoder.pack_s": ("s", "lower"),
    "encoder.packed_nodes": ("count", "lower"),
    "encoder.packed_edges": ("count", "lower"),
    "encoder.forward_s": ("s", "lower"),
    "encoder.embed_union_s": ("s", "lower"),
    "encoder.spectral_norm_calls": ("count", "lower"),
    "encoder.spectral_norm_s": ("s", "lower"),
    "encoder.clip_ratio": ("ratio", "lower"),
    "encoder.self_s": ("s", "lower"),
    "training.train_s": ("s", "lower"),
    "training.steps": ("count", "lower"),
    "training.step_s": ("s", "lower"),
    "training.augment_calls": ("count", "lower"),
    "training.augment_s": ("s", "lower"),
    "training.augment_redraw_ratio": ("ratio", "lower"),
    "training.backward_s": ("s", "lower"),
    "training.nt_xent_s": ("s", "lower"),
    "training.adam_s": ("s", "lower"),
    "training.self_s": ("s", "lower"),
    "benchmark.sweep_s": ("s", "lower"),
    "benchmark.perturb_calls": ("count", "lower"),
    "benchmark.perturb_s": ("s", "lower"),
    "benchmark.perturb_unique_ratio": ("ratio", "higher"),
    "benchmark.cluster_wl_s": ("s", "lower"),
    "benchmark.self_s": ("s", "lower"),
    "metrics.evaluate_calls": ("count", "lower"),
    "metrics.evaluate_s": ("s", "lower"),
    "metrics.evaluate_rows": ("count", "lower"),
    "metrics.pairwise_matrices": ("count", "lower"),
    "metrics.pairwise_bytes": ("bytes", "lower"),
    "metrics.self_s": ("s", "lower"),
    "reproduce.seed_s": ("s", "lower"),
    "reproduce.dataset_s": ("s", "lower"),
    "reproduce.self_s": ("s", "lower"),
    "trace.run_s": ("s", "lower"),
    "trace.untraced_run_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.spans": ("count", "lower"),
}


class Tracer:
    """In-memory span recorder plus the wrappers that feed it.

    ``install`` patches the ggeval namespaces, ``uninstall`` restores every
    original object. Only one thread may run traced code at a time: the
    span stack is not shared-safe, and the benchmark is a single caller.
    """

    def __init__(self):
        self.spans = []        # (name, start, end, parent index, op label)
        self.op = None         # label of the op being run, set by the harness
        self.counts = Counter()
        self.missing = []      # wrap targets not found in this ggeval version
        self._stack = []
        self._patches = []
        self._feature_keys = set()
        self._perturb_keys = set()

    # -- recording -------------------------------------------------------

    def wrap(self, owner, attr, name, after=None, before=None):
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``before(tracer, args, kwargs)`` runs ahead of the call and
        ``after(tracer, args, kwargs, result)`` once it returned; neither
        is inside the span's interval.
        """
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        spans = self.spans
        stack = self._stack

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(self, args, kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op)
            if after is not None:
                after(self, args, kwargs, result)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def install(self):
        import ggeval.benchmark as benchmark
        import ggeval.encoder as encoder
        import ggeval.generators as generators
        import ggeval.graphs as graphs
        import ggeval.metrics as metrics
        import ggeval.reproduce as reproduce
        import ggeval.training as training

        self.missing = []
        # every workload projects with the default bound
        self.clip_bound = encoder.EncoderConfig().lipschitz_bound
        self.wrap(graphs.Graph, "__post_init__", "graphs.build", before=_count_edges_in)
        for module in (generators, benchmark):
            self.wrap(module, "gen_er", "generators.gen_er")
        self.wrap(generators, "gen_dataset", "generators.gen_dataset")
        for module in (encoder, training):
            self.wrap(module, "structural_features", "features.structural_features",
                      before=_note_feature_graph)
        self.wrap(benchmark, "wl_kernel_gram", "features.wl_kernel_gram")
        for module in (encoder, training):
            self.wrap(module, "pack_graphs", "encoder.pack_graphs", after=_count_packed)
            self.wrap(module, "forward_batch", "encoder.forward_batch")
            self.wrap(module, "spectral_norm", "encoder.spectral_norm", after=_count_clip)
        for module in (encoder, reproduce):
            self.wrap(module, "embed_union", "encoder.embed_union")
        self.wrap(reproduce, "train_graphcl", "training.train_graphcl")
        self.wrap(training, "train_step", "training.train_step")
        self.wrap(training, "augment", "training.augment")
        self.wrap(training, "apply_augmentation", "training.apply_augmentation")
        self.wrap(training, "encoder_backward", "training.backward")
        self.wrap(training, "head_backward", "training.backward")
        self.wrap(training, "nt_xent", "training.nt_xent")
        self.wrap(training.AdamState, "update", "training.adam")
        for module in (benchmark, reproduce):
            self.wrap(module, "run_benchmark", "benchmark.run_benchmark")
        for kind in ("mix_random", "rewire", "mode_collapse", "mode_drop"):
            self.wrap(benchmark, f"perturb_{kind}", "benchmark.perturb",
                      before=functools.partial(_note_perturbation, kind))
        self.wrap(benchmark, "cluster_wl", "benchmark.cluster_wl")
        for module in (metrics, benchmark):
            self.wrap(module, "evaluate", "metrics.evaluate", before=_count_rows)
        self.wrap(metrics, "cdist", "metrics.cdist", before=_count_pairwise)
        self.wrap(reproduce, "run_reproduction", "reproduce.run_reproduction",
                  before=_count_seeds)
        self.wrap(reproduce, "desk_community_set", "reproduce.dataset")

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reporting -------------------------------------------------------

    def span_totals(self):
        """(call count, inclusive seconds) per span name."""
        calls = Counter()
        seconds = defaultdict(float)
        for name, start, end, _, _ in self.spans:
            calls[name] += 1
            seconds[name] += end - start
        return calls, seconds

    def self_seconds(self):
        """Per layer: span time minus the time its direct children cover."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out = dict.fromkeys(LAYERS, 0.0)
        for (name, start, end, _, _), child_time in zip(self.spans, covered):
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + (end - start - child_time)
        return out

    def layer_metrics(self, run_s, untraced_run_s):
        """Every per-layer metric; a layer the workload never calls reads 0."""
        calls, sec = self.span_totals()
        c = self.counts

        def ratio(num, den):
            return num / den if den else 0.0

        out = {
            "graphs.builds": calls["graphs.build"],
            "graphs.build_s": sec["graphs.build"],
            "graphs.edges_in": c["edges_in"],
            "generators.gen_er_calls": calls["generators.gen_er"],
            "generators.gen_er_s": sec["generators.gen_er"],
            "generators.dataset_s": sec["generators.gen_dataset"],
            "features.structural_features_calls": calls["features.structural_features"],
            "features.structural_features_s": sec["features.structural_features"],
            "features.unique_ratio": ratio(len(self._feature_keys),
                                           calls["features.structural_features"]),
            "features.wl_gram_s": sec["features.wl_kernel_gram"],
            "encoder.pack_calls": calls["encoder.pack_graphs"],
            "encoder.pack_s": sec["encoder.pack_graphs"],
            "encoder.packed_nodes": c["packed_nodes"],
            "encoder.packed_edges": c["packed_edges"],
            "encoder.forward_s": sec["encoder.forward_batch"],
            "encoder.embed_union_s": sec["encoder.embed_union"],
            "encoder.spectral_norm_calls": calls["encoder.spectral_norm"],
            "encoder.spectral_norm_s": sec["encoder.spectral_norm"],
            "encoder.clip_ratio": ratio(c["clipped"], calls["encoder.spectral_norm"]),
            "training.train_s": sec["training.train_graphcl"],
            "training.steps": calls["training.train_step"],
            "training.step_s": sec["training.train_step"],
            "training.augment_calls": calls["training.augment"],
            "training.augment_s": sec["training.augment"],
            "training.augment_redraw_ratio": ratio(calls["training.apply_augmentation"],
                                                   calls["training.augment"]),
            "training.backward_s": sec["training.backward"],
            "training.nt_xent_s": sec["training.nt_xent"],
            "training.adam_s": sec["training.adam"],
            "benchmark.sweep_s": sec["benchmark.run_benchmark"],
            "benchmark.perturb_calls": calls["benchmark.perturb"],
            "benchmark.perturb_s": sec["benchmark.perturb"],
            "benchmark.perturb_unique_ratio": ratio(len(self._perturb_keys),
                                                    calls["benchmark.perturb"]),
            "benchmark.cluster_wl_s": sec["benchmark.cluster_wl"],
            "metrics.evaluate_calls": calls["metrics.evaluate"],
            "metrics.evaluate_s": sec["metrics.evaluate"],
            "metrics.evaluate_rows": c["evaluate_rows"],
            "metrics.pairwise_matrices": calls["metrics.cdist"],
            "metrics.pairwise_bytes": c["pairwise_bytes"],
            "reproduce.seed_s": ratio(sec["reproduce.run_reproduction"], c["seeds"]),
            "reproduce.dataset_s": sec["reproduce.dataset"],
            "trace.run_s": run_s,
            "trace.untraced_run_s": untraced_run_s,
            "trace.overhead_s": run_s - untraced_run_s,
            "trace.spans": len(self.spans),
        }
        for layer, seconds in self.self_seconds().items():
            out[f"{layer}.self_s"] = seconds
        return {name: out[name] for name in PER_LAYER_METRICS}

    def write_spans(self, path):
        """Spans as JSON lines: name, start, end (seconds), parent index, op."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps([name, start, end, parent, op]) + "\n")


# -- per-call counters ------------------------------------------------------


def _count_edges_in(tracer, args, kwargs):
    graph = args[0]
    tracer.counts["edges_in"] += len(graph.edges)


def _note_feature_graph(tracer, args, kwargs):
    graph = args[0]
    # Graph hashes by (num_nodes, edges)
    tracer._feature_keys.add(hash(graph))


def _count_packed(tracer, args, kwargs, batch):
    nodes = int(batch.features.shape[0])
    tracer.counts["packed_nodes"] += nodes
    # agg is A + I with both directions of every undirected edge stored
    tracer.counts["packed_edges"] += (int(batch.agg.nnz) - nodes) // 2


def _count_clip(tracer, args, kwargs, sigma):
    if sigma > tracer.clip_bound:
        tracer.counts["clipped"] += 1


def _note_perturbation(kind, tracer, args, kwargs):
    graph_set, r, rng = args[:3]
    state = rng.bit_generator.state["state"]
    tracer._perturb_keys.add((graph_set.name, kind, float(r), repr(state)))


def _count_seeds(tracer, args, kwargs):
    config = args[0] if args else kwargs["config"]
    tracer.counts["seeds"] += len(config.seeds)


def _count_rows(tracer, args, kwargs):
    real, gen = args[:2]
    tracer.counts["evaluate_rows"] += len(real) + len(gen)


def _count_pairwise(tracer, args, kwargs):
    a, b = args[:2]
    # computed from the shapes, not measured
    tracer.counts["pairwise_bytes"] += len(a) * len(b) * 8
