"""Evaluation toolkit for graph generative models.

Embeds graph sets with a contrastively trained GIN encoder, compares the
embedding distributions (Frechet distance, k-NN precision/recall,
density/coverage, MMD), and scores the metrics themselves by how well
they track controlled perturbations of a reference set. Also ships local
graph statistics (clustering, 4-node orbit census, WL refinement/kernel)
and executable checks of where local statistics and message passing
disagree.

Submodules are imported lazily so that entry points can configure the
environment (e.g. BLAS thread counts) before numpy loads.
"""

__version__ = "0.1.0"

# public name -> defining submodule
_EXPORTS = {
    "Graph": "graphs",
    "GraphSet": "graphs",
    "load_graphs": "graphs",
    "save_graphs": "graphs",
    "adjacency": "graphs",
    "degrees": "features",
    "clustering": "features",
    "orbit_census_4": "features",
    "OrbitCensus": "features",
    "wl_first_separation": "features",
    "wl_kernel_gram": "features",
    "structural_features": "features",
    "gen_er": "generators",
    "gen_community": "generators",
    "gen_grid": "generators",
    "gen_lobster": "generators",
    "gen_cycle_pair": "generators",
    "gen_dataset": "generators",
    "substream": "generators",
    "EncoderConfig": "encoder",
    "EncoderParams": "encoder",
    "init_random": "encoder",
    "spectral_norm": "encoder",
    "embed_set": "encoder",
    "embed_union": "encoder",
    "save_params": "encoder",
    "load_params": "encoder",
    "AugmentationConfig": "training",
    "TrainConfig": "training",
    "TrainResult": "training",
    "augment": "training",
    "nt_xent": "training",
    "train_graphcl": "training",
    "MetricReport": "metrics",
    "frechet_distance": "metrics",
    "prdc": "metrics",
    "f1_score": "metrics",
    "evaluate": "metrics",
    "BenchmarkCurve": "benchmark",
    "perturb_mix_random": "benchmark",
    "perturb_rewire": "benchmark",
    "perturb_mode_collapse": "benchmark",
    "perturb_mode_drop": "benchmark",
    "cluster_wl": "benchmark",
    "spearman": "benchmark",
    "run_benchmark": "benchmark",
    "verify_local_equivalence": "distinguishability",
    "verify_wl_separation": "distinguishability",
    "verify_cycle_pair": "distinguishability",
    "verify_gnn_ceiling": "distinguishability",
    "ReproduceConfig": "reproduce",
    "run_reproduction": "reproduce",
    "GGEvalError": "errors",
}

__all__ = sorted(_EXPORTS) + ["__version__"]


def __getattr__(name):
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    module = importlib.import_module(f".{module_name}", __name__)
    value = getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return __all__
