"""GIN graph encoder in plain numpy.

Layer k update: h_v <- MLP_k(h_v + sum of neighbor states), i.e. sum
aggregation with epsilon = 0. Every MLP is the same fixed block: linear,
batch normalization, ReLU, linear. The graph readout sums node states per
layer and concatenates the per-layer sums, so the embedding dimension is
num_layers * hidden.

Normalization: every pass, training or embedding, normalizes with the
mean and variance over all nodes of the batch it runs on. Comparing two
sets is done by embedding their union so both live on a common scale.
A graph object that occurs more than once in a collection is run through
the encoder once, and the sums weight its node rows by its count. A
cached pass, and an embedding of a collection without repeats that fits
in one run, give the bits of z.mean and z.var over one pack of the
collection; others center each column on its first row, so equal rows
normalize to exact zeros, and agree with one pack up to rounding.

Memory: the distinct graphs are packed once, and an uncached pass works
through each layer in runs of about BLOCK_NODES rows. It holds two
(nodes, hidden) arrays and, beside them, temporaries of at most one run.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

import numpy as np
import scipy.sparse as sp

from .errors import FeatureMismatchError, ParseError, require_integer
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

    weights maps "l{k}.m0.W" / ".b" / ".gamma" / ".beta" for layer k's
    first linear and its normalization, and "l{k}.m1.W" / ".b" for its
    second linear.
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
    return 6 * config.num_layers


def weight_shapes(config: EncoderConfig):
    """(name, shape) of every trainable array, in init_random's draw order."""
    d_in, hidden = config.in_dim, config.hidden
    for k in range(config.num_layers):
        yield f"l{k}.m0.W", (d_in, hidden)
        yield f"l{k}.m0.b", (hidden,)
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


def _weighted_sum(z, weight, runs, square=False):
    """Column sums of z, or of z**2 if square, with its rows weighted if
    weight is given: one run at a time, the runs' totals added. Unweighted
    runs reduce along axis 0 as z.mean does; weighted ones go through
    BLAS's gemv, which takes no weighted copy of the run."""
    parts = []
    for r in runs:
        part = np.square(z[r]) if square else z[r]
        parts.append(np.add.reduce(part, axis=0) if weight is None else weight[r] @ part)
    return sum(parts[1:], parts[0])


def forward_batch(params: EncoderParams, batch: BatchedGraphs, collect_cache: bool = False,
                  counts=None):
    """Run the encoder over a packed batch; params and batch are only read.

    counts[g] is how often packed graph g occurs in the collection being
    embedded (None: once each, summed as z.mean does); the batch-norm mean
    and variance weight each node row by its graph's count. An uncached
    pass works through each layer in runs of about BLOCK_NODES rows.

    Returns (embeddings of the packed graphs, cache); cache holds the
    intermediates needed for the reverse pass when collect_cache is set,
    which takes no counts and runs each layer as one run.
    """
    w = params.weights
    hidden = params.config.hidden
    nodes = batch.features.shape[0]
    if collect_cache and counts is not None:
        raise ValueError("a cached pass takes no counts")
    weight = None if counts is None else np.repeat(counts, np.diff(batch.pool.indptr))
    rows = nodes if weight is None else weight.sum()  # node rows of the collection
    run = max(nodes, 1) if collect_cache else BLOCK_NODES
    shifted = weight is not None or nodes > run
    runs = [slice(a, min(a + run, nodes)) for a in range(0, nodes, run)] or [slice(0, 0)]
    if run > 1 and len(runs) > 1 and runs[-1].stop - runs[-1].start == 1:
        # numpy multiplies one row with gemv, which rounds unlike gemm: a
        # one-row tail joins the run before it, so equal rows stay equal
        runs[-2:] = [slice(runs[-2].start, nodes)]

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
            np.matmul(lin_in, w[f"l{k}.m0.W"], out=z[r])
        first = {"lin_in": lin_in} if collect_cache else None
        del lin_in, x
        if shifted:  # batch norm cancels the bias, and equal rows give exact zeros
            z -= z[:1].copy()
        else:
            z += w[f"l{k}.m0.b"]
        # unshifted, the operations of z.mean and z.var in their order
        z -= _weighted_sum(z, weight, runs) / rows
        inv_std = 1.0 / np.sqrt(_weighted_sum(z, weight, runs, square=True) / rows + BN_EPS)
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
            np.matmul(zr, w[f"l{k}.m1.W"], out=hr)
            hr += w[f"l{k}.m1.b"]
        readouts.append(batch.pool @ h)
        if collect_cache:
            first.update(normed=normed, inv_std=inv_std, pre_relu=pre_relu)
            cache["layers"].append({"steps": [first, {"lin_in": zr}]})
    return np.hstack(readouts), cache


def embed_set(params: EncoderParams, graphs) -> np.ndarray:
    """Embed a collection of graphs; row i corresponds to graphs[i].

    The normalization statistics come from this collection's nodes, so
    embedding the union of two sets places them on one scale. A graph
    object that occurs more than once is embedded once, and the statistics
    weight its rows by its number of occurrences.
    """
    graphs = list(graphs)
    if not graphs:
        raise ValueError("cannot embed an empty collection")
    slot = {}  # distinct graphs are numbered in order of first occurrence
    which = np.array([slot.setdefault(id(g), len(slot)) for g in graphs])
    _, firsts, counts = np.unique(which, return_index=True, return_counts=True)
    try:
        batch = pack_graphs([graphs[i] for i in firsts], params.config)
    except FeatureMismatchError as exc:
        raise FeatureMismatchError(exc.reason, graph=int(firsts[exc.graph])) from exc
    emb, _ = forward_batch(params, batch, counts=counts if counts.max() > 1 else None)
    emb = emb[which]
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
    layout: every name, every shape, and finite values; a stored
    "mlp_depth" must be 2. Anything else raises ParseError. The layout is
    checked without drawing weights, and the array count before any name
    is built, so a config that claims a huge encoder costs nothing to
    reject.
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
    fields = payload.get("config")
    if isinstance(fields, dict) and "mlp_depth" in fields:
        # files written before the layer block was fixed hold "mlp_depth": 2
        depth = fields.pop("mlp_depth")
        if type(depth) is not int or depth != 2:
            raise ParseError(f"checkpoint config mlp_depth {depth!r} is not 2")
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
