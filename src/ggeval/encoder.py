"""GIN graph encoder in plain numpy.

Layer k update: h_v <- MLP_k(h_v + sum of neighbor states), i.e. sum
aggregation with epsilon = 0. Every MLP is the same fixed block: linear,
batch normalization, ReLU, linear. The first linear has no bias, since
batch norm subtracts each column's mean and would cancel it. weight_shapes
is the one statement of the block's arrays. The graph readout sums node
states per layer and concatenates the per-layer sums, so the embedding
dimension is num_layers * hidden.

Normalization: training normalizes with the statistics of its batch.
calibrate(params, reference) stores the batch statistics of a reference's
nodes, and embed_set applies them, so a graph's embedding depends on no
other graph; embed_union takes them from its reference in the same pass.

Memory: an uncached pass works through each layer in runs of BLOCK_NODES
rows. It holds two (nodes, hidden) arrays and, beside them, temporaries of
at most one run.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import asdict, dataclass, field, replace

import numpy as np
import scipy.sparse as sp

from .errors import DegenerateSetError, FeatureMismatchError, ParseError, require_integer
from .features import FEATURE_CONFIGS, feature_dim, structural_features
from .graphs import Graph, atomic_write_text

BN_EPS = 1e-5

# rows per run of an uncached pass: a run's (rows, hidden) temporaries stay cache-sized
BLOCK_NODES = 4096

# feature selectors accepted by the encoder: the structural ones, plus
# "provided" for datasets whose files carry their own node features
ENCODER_FEATURE_CONFIGS = FEATURE_CONFIGS + ("provided",)


@dataclass(frozen=True)
class EncoderConfig:
    num_layers: int = 3
    hidden: int = 32
    lipschitz_bound: float = 1.0
    feature_config: str = "none"
    input_dim: int | None = None  # set iff feature_config == "provided"

    def __post_init__(self):
        # only input_dim may be None: a layer count or width must be a count
        for name in ("num_layers", "hidden", "input_dim"):
            if name != "input_dim" or self.input_dim is not None:
                object.__setattr__(self, name, require_integer(name, getattr(self, name), 1))
        # an infinite bound would make the projection a silent no-op
        if not 0 < self.lipschitz_bound < float("inf"):
            raise ValueError("lipschitz_bound must be finite and > 0")
        if self.feature_config not in ENCODER_FEATURE_CONFIGS:
            raise ValueError(f"unknown feature_config {self.feature_config!r}")
        if (self.feature_config == "provided") != (self.input_dim is not None):
            raise ValueError("input_dim is set iff feature_config is 'provided'")

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

    weights maps "l{k}.m0.W" / ".gamma" / ".beta" for layer k's first
    linear and its normalization, and "l{k}.m1.W" / ".b" for its second
    linear, in weight_shapes' order. stats is the (num_layers, 2, hidden)
    batch-norm mean and inv_std that calibrate stores, None before.
    """

    config: EncoderConfig
    weights: dict = field(default_factory=dict)
    stats: np.ndarray | None = None

    def weight_matrices(self):
        """(name, matrix) pairs for the linear weights, layer order."""
        return [(name, w) for name, w in self.weights.items() if name.endswith(".W")]


def orthogonal_matrix(rng, rows: int, cols: int) -> np.ndarray:
    """Haar-orthogonal (rows, cols): tall gives W'W = I, wide gives WW' = I."""
    flat = rng.standard_normal((max(rows, cols), min(rows, cols)))
    q, r = np.linalg.qr(flat)
    q = q * np.sign(np.diag(r))
    if rows < cols:
        q = q.T
    return np.ascontiguousarray(q)


def weight_shapes(config: EncoderConfig):
    """(name, shape) of every trainable array, in init_random's draw order."""
    d_in, hidden = config.in_dim, config.hidden
    for k in range(config.num_layers):
        yield f"l{k}.m0.W", (d_in, hidden)
        yield f"l{k}.m0.gamma", (hidden,)
        yield f"l{k}.m0.beta", (hidden,)
        yield f"l{k}.m1.W", (hidden, hidden)
        yield f"l{k}.m1.b", (hidden,)
        d_in = hidden


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
    must match the configured input dimension. Otherwise the rows are
    ``structural_features``' read-only matrix, computed once per graph and
    selector, so re-embedding a graph costs no recomputation.
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
            raise FeatureMismatchError(exc.reason, graph=i) from exc
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
    del edges  # freed before the CSR build, the scoring path's transient peak
    agg = sp.csr_matrix((np.ones(rows.size), (rows, cols)), shape=(total, total))
    pool = sp.csr_matrix((np.ones(total), diag, offsets), shape=(len(graphs), total))
    return BatchedGraphs(features=x, agg=agg, pool=pool)


def _csr_rows(m, rows: slice):
    """Rows rows.start:rows.stop of a CSR matrix, built from slices of its
    arrays; scipy copies slices under half the matrix, so a run's rows cost
    a copy of the run's entries and nothing more."""
    indptr = m.indptr[rows.start:rows.stop + 1]
    lo, hi = indptr[0], indptr[-1]
    return sp.csr_matrix((m.data[lo:hi], m.indices[lo:hi], indptr - lo),
                         shape=(len(indptr) - 1, m.shape[1]))


def _gemm(a, b, out):
    """a @ b into out, every row through gemm: numpy multiplies a single row
    with gemv, which rounds unlike gemm, so one row goes in as two copies."""
    if len(a) == 1:
        out[:] = (np.vstack((a, a)) @ b)[:1]
    else:
        np.matmul(a, b, out=out)


def forward_batch(params: EncoderParams, batch: BatchedGraphs, collect_cache: bool = False,
                  stats=None, stat_nodes=None):
    """Run the encoder over a packed batch; params and batch are only read.

    Batch norm applies stats, each layer's (mean, inv_std), if given, and
    else the statistics of the first stat_nodes node rows (default: all),
    each column centered on its first row so equal rows give exact zeros;
    a row under stored statistics is its row in the pass that took them.
    An uncached pass works through each layer in runs of BLOCK_NODES rows.

    Returns (embeddings of the packed graphs, the statistics applied,
    cache). When collect_cache is set, which runs each layer as one run,
    cache holds the batch and, per layer, what the reverse pass reads: the
    aggregated input lin_in, normed, inv_std, pre_relu and relu.
    """
    w = params.weights
    hidden = params.config.hidden
    nodes = batch.features.shape[0]
    run = max(nodes, 1) if collect_cache else BLOCK_NODES
    runs = [slice(a, min(a + run, nodes)) for a in range(0, nodes, run)] or [slice(0, 0)]
    count = nodes if stat_nodes is None else stat_nodes
    stat_runs = [slice(r.start, min(r.stop, count)) for r in runs]
    applied = []

    readouts = []
    cache = {"batch": batch, "layers": []} if collect_cache else None
    z = h = None
    for k in range(params.config.num_layers):
        x = batch.features if k == 0 else h
        for r in runs:
            lin_in = _csr_rows(batch.agg, r) @ x
            if collect_cache:
                # the cache keeps z, so each layer takes new arrays; h goes
                # first so that z can reuse its memory, where a z made beside
                # it lands on fresh pages at every training step
                z = h = x = None
            if z is None:
                z = np.empty((nodes, hidden))
            _gemm(lin_in, w[f"l{k}.m0.W"], z[r])
        layer = {"lin_in": lin_in} if collect_cache else None
        del lin_in, x
        # the first linear has no bias: batch norm's mean subtraction would cancel it
        if stats is None:
            shift = z[0] if count else 0.0
            mean = shift + sum(np.add.reduce(z[r] - shift, axis=0) for r in stat_runs) / count
            z -= mean
            var = sum(np.add.reduce(np.square(z[r]), axis=0) for r in stat_runs) / count
            inv_std = 1.0 / np.sqrt(var + BN_EPS)
        else:
            mean, inv_std = stats[k]
            z -= mean
        applied.append((mean, inv_std))
        if h is None:
            h = np.empty((nodes, hidden))
        for r in runs:
            zr, hr = z[r], h[r]
            zr *= inv_std
            # the reverse pass reads normed and pre_relu, so a cached pass
            # writes each op to a new array; an uncached one writes in place
            out = None if collect_cache else zr
            normed, zr = zr, np.multiply(zr, w[f"l{k}.m0.gamma"], out=out)
            zr += w[f"l{k}.m0.beta"]
            pre_relu, zr = zr, np.maximum(zr, 0.0, out=out)
            _gemm(zr, w[f"l{k}.m1.W"], hr)
            hr += w[f"l{k}.m1.b"]
        readouts.append(batch.pool @ h)
        if collect_cache:
            layer.update(normed=normed, inv_std=inv_std, pre_relu=pre_relu, relu=zr)
            cache["layers"].append(layer)
    return np.hstack(readouts), np.array(applied), cache


def _embed(params: EncoderParams, graphs: list, stat_graphs=None):
    """(embeddings, statistics) of graphs from one pack and one pass, under
    params' stored statistics or, given stat_graphs, under the statistics
    of the first stat_graphs graphs' nodes."""
    if not graphs:
        raise ValueError("cannot embed an empty collection")
    if stat_graphs is None and params.stats is None:
        raise ValueError("params hold no batch-norm statistics: calibrate them first")
    batch = pack_graphs(graphs, params.config)
    nodes = None if stat_graphs is None else int(batch.pool.indptr[stat_graphs])
    if nodes == 0:
        raise DegenerateSetError("batch-norm statistics need a reference with a node")
    emb, stats, _ = forward_batch(params, batch, stats=None if nodes else params.stats,
                                  stat_nodes=nodes)
    bad = np.flatnonzero(~np.isfinite(emb).all(axis=1))
    if bad.size:
        raise FeatureMismatchError(f"non-finite embedding for graph indices {bad.tolist()}")
    return emb, stats


def embed_set(params: EncoderParams, graphs) -> np.ndarray:
    """Embed graphs under params' stored batch-norm statistics; row i is
    graphs[i]'s embedding and depends on no other graph."""
    return _embed(params, list(graphs))[0]


def calibrate(params: EncoderParams, reference):
    """(params storing the batch-norm statistics of reference's nodes, as
    batch norm does for inference (Ioffe & Szegedy 2015), and reference's
    embedding under them)."""
    reference = list(reference)
    emb, stats = _embed(params, reference, len(reference))
    return replace(params, stats=stats), emb


def embed_union(params: EncoderParams, reference, generated):
    """(H_reference, H_generated) under the reference's batch-norm statistics:
    calibrate's reference rows, from one pack and one pass of the reference and
    the generated graphs that are not reference objects (by id)."""
    reference, generated = list(reference), list(generated)
    row = {id(g): i for i, g in enumerate(reference)}
    extra = list({id(g): g for g in generated if id(g) not in row}.values())
    row.update((id(g), i) for i, g in enumerate(extra, len(reference)))
    emb = _embed(params, reference + extra, len(reference))[0]
    return emb[:len(reference)], emb[[row[id(g)] for g in generated]]


CHECKPOINT_VERSION = 4


def save_params(params: EncoderParams, path) -> None:
    """Versioned JSON checkpoint with the config and the stored statistics."""
    if params.stats is None:
        raise ValueError("params hold no batch-norm statistics: calibrate them first")
    payload = {
        "version": CHECKPOINT_VERSION,
        "config": asdict(params.config),
        "weights": {k: v.tolist() for k, v in params.weights.items()},
        "stats": params.stats.tolist(),
    }
    atomic_write_text(path, json.dumps(payload))


def load_params(path) -> EncoderParams:
    """Read a checkpoint written by save_params.

    The payload must carry this version, the weight_shapes(config) layout
    (every name, every shape, and finite values) and finite statistics of
    shape (num_layers, 2, hidden). Anything else raises ParseError. The
    layout is checked without drawing weights, and only its first
    len(weights) + 1 names are built, so a config that claims a huge encoder
    costs nothing to reject.
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
    # one name past the stored count shows a config that needs more arrays
    layout = dict(itertools.islice(weight_shapes(config), len(stored) + 1))
    missing = sorted(set(layout) - set(stored))
    extra = sorted(set(stored) - set(layout))
    if missing or extra:
        raise ParseError(f"checkpoint 'weights' keys: missing {missing}, unexpected {extra}")
    weights = {}
    for key, shape in [*layout.items(), ("stats", (config.num_layers, 2, config.hidden))]:
        try:
            arr = np.asarray(payload["stats"] if key == "stats" else stored[key], np.float64)
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"checkpoint {key!r} is missing or not a numeric array") from exc
        if arr.shape != shape:
            raise ParseError(f"checkpoint {key!r} has shape {arr.shape}, expected {shape}")
        if not np.all(np.isfinite(arr)):
            raise ParseError(f"checkpoint {key!r} has non-finite values")
        weights[key] = arr
    stats = weights.pop("stats")
    return EncoderParams(config=config, weights=weights, stats=stats)
