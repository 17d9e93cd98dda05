"""GIN graph encoder in plain numpy.

Layer k update: h_v <- MLP_k(h_v + sum of neighbor states), i.e. sum
aggregation with epsilon = 0. Each MLP is mlp_depth linear maps with batch
normalization and ReLU after every hidden layer. The graph readout sums
node states per layer and concatenates the per-layer sums, so the
embedding dimension is num_layers * hidden.

Normalization: every pass, training or embedding, normalizes with the
mean and variance over all nodes of the batch it runs on. Comparing two
sets is done by embedding their union so both live on a common scale.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from numbers import Integral

import numpy as np
import scipy.sparse as sp

from .errors import FeatureMismatchError, ParseError
from .features import FEATURE_CONFIGS, feature_dim, structural_features
from .graphs import Graph, atomic_write_text

BN_EPS = 1e-5

# feature selectors accepted by the encoder: the structural ones, plus
# "provided" for datasets whose files carry their own node features
ENCODER_FEATURE_CONFIGS = FEATURE_CONFIGS + ("provided",)


@dataclass(frozen=True)
class EncoderConfig:
    num_layers: int = 3
    hidden: int = 32
    lipschitz_bound: float = 1.0
    feature_config: str = "none"
    mlp_depth: int = 2
    input_dim: int | None = None  # set iff feature_config == "provided"

    def __post_init__(self):
        for name in ("num_layers", "hidden", "mlp_depth", "input_dim"):
            value = getattr(self, name)
            if value is not None and not isinstance(value, Integral):
                raise TypeError(f"{name} must be an integer, got {value!r}")
        if self.num_layers < 1:
            raise ValueError("num_layers must be >= 1")
        if self.hidden < 1:
            raise ValueError("hidden must be >= 1")
        # an infinite bound would make the projection a silent no-op
        if not 0 < self.lipschitz_bound < float("inf"):
            raise ValueError("lipschitz_bound must be finite and > 0")
        if self.mlp_depth < 1:
            raise ValueError("mlp_depth must be >= 1")
        if self.feature_config not in ENCODER_FEATURE_CONFIGS:
            raise ValueError(f"unknown feature_config {self.feature_config!r}")
        if (self.feature_config == "provided") != (self.input_dim is not None):
            raise ValueError("input_dim is set iff feature_config is 'provided'")
        if self.input_dim is not None and self.input_dim < 1:
            raise ValueError("input_dim must be >= 1")

    @property
    def in_dim(self) -> int:
        if self.feature_config == "provided":
            return int(self.input_dim)
        return feature_dim(self.feature_config)

    @property
    def embedding_dim(self) -> int:
        return self.num_layers * self.hidden


@dataclass
class EncoderParams:
    """Trainable weights of an encoder.

    weights maps "l{k}.m{m}.W" / ".b" for every linear and
    "l{k}.m{m}.gamma" / ".beta" for every hidden-layer normalization.
    """

    config: EncoderConfig
    weights: dict = field(default_factory=dict)

    def weight_matrices(self):
        """(name, matrix) pairs for the linear weights, layer order."""
        return [(name, w) for name, w in sorted(self.weights.items()) if name.endswith(".W")]


def orthogonal_matrix(rng, rows: int, cols: int) -> np.ndarray:
    """Haar-orthogonal (rows, cols): tall gives W'W = I, wide gives WW' = I."""
    flat = rng.standard_normal((max(rows, cols), min(rows, cols)))
    q, r = np.linalg.qr(flat)
    q = q * np.sign(np.diag(r))
    if rows < cols:
        q = q.T
    return np.ascontiguousarray(q)


def weight_count(config: EncoderConfig) -> int:
    """Number of arrays weight_shapes(config) yields, without building them."""
    return config.num_layers * (4 * config.mlp_depth - 2)


def weight_shapes(config: EncoderConfig):
    """(name, shape) of every trainable array, in init_random's draw order."""
    d_in = config.in_dim
    for k in range(config.num_layers):
        dims = [d_in] + [config.hidden] * config.mlp_depth
        for m in range(config.mlp_depth):
            yield f"l{k}.m{m}.W", (dims[m], dims[m + 1])
            yield f"l{k}.m{m}.b", (dims[m + 1],)
            if m < config.mlp_depth - 1:
                yield f"l{k}.m{m}.gamma", (dims[m + 1],)
                yield f"l{k}.m{m}.beta", (dims[m + 1],)
        d_in = config.hidden


def init_random(config: EncoderConfig, seed: int = 0) -> EncoderParams:
    """Orthogonally initialized encoder; deterministic per seed."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    weights = {}
    for name, shape in weight_shapes(config):
        if name.endswith(".W"):
            weights[name] = orthogonal_matrix(rng, *shape)
        else:
            weights[name] = np.ones(shape) if name.endswith(".gamma") else np.zeros(shape)
    return EncoderParams(config=config, weights=weights)


def spectral_norm(matrix: np.ndarray) -> float:
    """Largest singular value, from LAPACK's SVD."""
    w = np.asarray(matrix, dtype=np.float64)
    if w.ndim != 2:
        raise ValueError("spectral_norm expects a matrix")
    if not np.all(np.isfinite(w)):
        raise ValueError("spectral_norm expects finite entries")
    if w.size == 0:
        return 0.0
    return float(np.linalg.svd(w, compute_uv=False)[0])


def project_lipschitz_inplace(params: EncoderParams) -> None:
    """Scale every linear weight whose spectral norm exceeds the config's
    lipschitz_bound down to that bound.

    Replaces the offending matrices in params.weights. Matrices already
    inside the ball are untouched; biases and normalization parameters
    are never modified.
    """
    lam = params.config.lipschitz_bound
    for name, w in params.weight_matrices():
        sigma = spectral_norm(w)
        if sigma > lam:
            params.weights[name] = w * (lam / sigma)


@dataclass
class BatchedGraphs:
    """Block-diagonal packing of a graph collection for one forward pass."""

    features: np.ndarray       # (total_nodes, d_in)
    agg: sp.csr_matrix         # A + I over the packed nodes
    pool: sp.csr_matrix        # (num_graphs, total_nodes) sum-pooling


def graph_features(graph: Graph, config: EncoderConfig) -> np.ndarray:
    """Node feature matrix for one graph under the encoder's selector.

    Graphs that already carry node features (e.g. augmented views with
    carried-over structural features, or datasets with intrinsic features)
    must match the configured input dimension.
    """
    if graph.node_features is not None:
        if graph.node_features.shape[1] != config.in_dim:
            raise FeatureMismatchError(
                f"graph carries {graph.node_features.shape[1]}-dim node features, "
                f"config expects {config.in_dim}"
            )
        return graph.node_features
    if config.feature_config == "provided":
        raise FeatureMismatchError("config expects provided node features, graph has none")
    return structural_features(graph, config.feature_config)


def pack_graphs(graphs, config: EncoderConfig) -> BatchedGraphs:
    feats = []
    for i, g in enumerate(graphs):
        try:
            feats.append(graph_features(g, config))
        except FeatureMismatchError as exc:
            raise FeatureMismatchError(f"graph {i}: {exc}") from exc
    sizes = np.array([g.num_nodes for g in graphs], dtype=np.int64)
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    total = int(offsets[-1])
    x = np.vstack(feats) if total else np.zeros((0, config.in_dim))

    edges = np.concatenate([np.zeros((2, 0), np.int64)] + [g.edges.T for g in graphs],
                           axis=1)
    # shift each graph's edges by the index of its first packed node
    edges += np.repeat(offsets[:-1], [g.num_edges for g in graphs])
    diag = np.arange(total)  # the +I part
    # Each graph's edges are sorted (u, v) pairs with u < v, so this order
    # (the (v, u) entries, the diagonal, then the (u, v) entries) fills
    # every CSR row in ascending column order and scipy skips its per-row
    # sort. Any order gives the same canonical matrix.
    rows = np.concatenate((edges[1], diag, edges[0]))
    cols = np.concatenate((edges[0], diag, edges[1]))
    del edges  # not held through the CSR conversion, where memory peaks
    agg = sp.csr_matrix((np.ones(rows.size), (rows, cols)), shape=(total, total))
    pool = sp.csr_matrix((np.ones(total), diag, offsets), shape=(len(graphs), total))
    return BatchedGraphs(features=x, agg=agg, pool=pool)


def forward_batch(params: EncoderParams, batch: BatchedGraphs,
                  collect_cache: bool = False):
    """Run the encoder over a packed batch; params are only read.

    Returns (embeddings, cache); cache holds the intermediates needed for
    the reverse pass when collect_cache is set.
    """
    cfg = params.config
    w = params.weights
    h = batch.features
    readouts = []
    cache = {"batch": batch, "layers": []} if collect_cache else None
    for k in range(cfg.num_layers):
        z = batch.agg @ h
        steps = []
        for m in range(cfg.mlp_depth):
            lin_in = z
            z = z @ w[f"l{k}.m{m}.W"]
            z += w[f"l{k}.m{m}.b"]
            step = {"lin_in": lin_in}
            if m < cfg.mlp_depth - 1:
                # same operations, in the same order, as z.mean and z.var
                n = z.shape[0]
                mean = z.mean(axis=0)
                z -= mean
                var = np.square(z).sum(axis=0) / n
                inv_std = 1.0 / np.sqrt(var + BN_EPS)
                z *= inv_std
                if collect_cache:
                    # the reverse pass reads normed and pre_relu, so keep both
                    normed = z
                    z = normed * w[f"l{k}.m{m}.gamma"]
                    z += w[f"l{k}.m{m}.beta"]
                    step.update(normed=normed, inv_std=inv_std, pre_relu=z)
                    z = np.maximum(z, 0.0)
                else:
                    z *= w[f"l{k}.m{m}.gamma"]
                    z += w[f"l{k}.m{m}.beta"]
                    np.maximum(z, 0.0, out=z)
            if collect_cache:
                steps.append(step)
        if collect_cache:
            cache["layers"].append({"steps": steps})
        h = z
        readouts.append(batch.pool @ h)
    return np.hstack(readouts), cache


def embed_set(params: EncoderParams, graphs) -> np.ndarray:
    """Embed a collection of graphs; row i corresponds to graphs[i].

    The normalization statistics come from this collection's nodes, so
    embedding the union of two sets places them on one scale.
    """
    graphs = list(graphs)
    if not graphs:
        raise ValueError("cannot embed an empty collection")
    batch = pack_graphs(graphs, params.config)
    emb, _ = forward_batch(params, batch)
    if not np.all(np.isfinite(emb)):
        bad = np.flatnonzero(~np.isfinite(emb).all(axis=1))
        raise FeatureMismatchError(f"non-finite embedding for graph indices {bad.tolist()}")
    return emb


def embed_union(params: EncoderParams, set_a, set_b):
    """Embed two sets in one pass with shared statistics; returns (H_a, H_b)."""
    graphs_a, graphs_b = list(set_a), list(set_b)
    emb = embed_set(params, graphs_a + graphs_b)
    return emb[: len(graphs_a)], emb[len(graphs_a):]


CHECKPOINT_VERSION = 2


def save_params(params: EncoderParams, path) -> None:
    """Versioned JSON checkpoint with the config embedded."""
    payload = {
        "version": CHECKPOINT_VERSION,
        "config": asdict(params.config),
        "weights": {k: v.tolist() for k, v in params.weights.items()},
    }
    atomic_write_text(path, json.dumps(payload))


def load_params(path) -> EncoderParams:
    """Read a checkpoint written by save_params.

    The payload must carry this version and the weight_shapes(config)
    layout: every name, every shape, and finite values. Anything else
    raises ParseError. The layout is checked without drawing weights, and
    the array count before any name is built, so a config that claims a
    huge encoder costs nothing to reject.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise ParseError(f"invalid checkpoint JSON ({exc})") from exc
    if not isinstance(payload, dict):
        raise ParseError("checkpoint is not a JSON object")
    version = payload.get("version")
    if version != CHECKPOINT_VERSION:
        raise ParseError(f"unsupported checkpoint version {version!r}")
    try:
        config = EncoderConfig(**payload["config"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"invalid checkpoint config ({exc!r})") from exc
    stored = payload.get("weights")
    if not isinstance(stored, dict):
        raise ParseError("checkpoint 'weights' is missing or not an object")
    count = weight_count(config)
    if len(stored) != count:
        what = "missing" if len(stored) < count else "unexpected"
        raise ParseError(f"checkpoint 'weights' holds {len(stored)} arrays, its config "
                         f"needs {count}: {abs(count - len(stored))} {what}")
    layout = dict(weight_shapes(config))
    missing = sorted(set(layout) - set(stored))
    extra = sorted(set(stored) - set(layout))
    if missing or extra:
        raise ParseError(f"checkpoint 'weights' keys: missing {missing}, unexpected {extra}")
    weights = {}
    for key, shape in layout.items():
        try:
            arr = np.asarray(stored[key], dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise ParseError(f"checkpoint weights[{key!r}] is not a numeric array") from exc
        if arr.shape != shape:
            raise ParseError(f"checkpoint weights[{key!r}] has shape {arr.shape}, "
                             f"expected {shape}")
        if not np.all(np.isfinite(arr)):
            raise ParseError(f"checkpoint weights[{key!r}] has non-finite values")
        weights[key] = arr
    return EncoderParams(config=config, weights=weights)
