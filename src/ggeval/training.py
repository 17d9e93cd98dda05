"""Contrastive training of the graph encoder.

Each step draws two augmented views per graph, embeds both view sets in a
single forward pass (so normalization statistics are shared), pushes the
embeddings through a two-layer projection head, and minimizes NT-Xent.
Gradients are computed by a hand-written reverse pass in float64; see
finite_difference_check for the validation harness.

After every optimizer update the encoder weight matrices are projected
back into the configured spectral-norm ball. The projection head is
trained but never projected, and it is dropped after training: embeddings
for evaluation come from the encoder readout.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .encoder import (
    EncoderConfig,
    EncoderParams,
    forward_batch,
    graph_features,
    init_random,
    orthogonal_matrix,
    pack_graphs,
    project_lipschitz_inplace,
)
# unused here (attach_features goes through graph_features, the projection
# through project_lipschitz_inplace), but the benchmark's tracer
# (perfbench/tracer.py) wraps these names in this module
from .encoder import spectral_norm  # noqa: F401
from .errors import DegenerateBatchError, FeatureMismatchError, NonFiniteGradientError
from .features import structural_features  # noqa: F401
from .generators import substream
from .graphs import Graph


# ---------------------------------------------------------------------------
# augmentations


def induced_subgraph(graph: Graph, nodes) -> Graph:
    """Subgraph on the given node subset, relabeled to 0..len(nodes)-1.

    Node feature rows follow their nodes.
    """
    nodes = np.sort(np.fromiter(nodes, dtype=np.int64))
    relabel = np.full(graph.num_nodes, -1, dtype=np.int64)
    relabel[nodes] = np.arange(len(nodes))
    # the relabeling is monotone, so the surviving edges stay canonical
    edges = relabel[graph.edges]
    keep = (edges >= 0).all(axis=1)
    nf = graph.node_features[nodes] if graph.node_features is not None else None
    return Graph(len(nodes), edges[keep], node_features=nf)


def node_drop(graph: Graph, p: float, rng) -> Graph:
    """Remove each node independently with probability p."""
    keep = rng.random(graph.num_nodes) >= p
    return induced_subgraph(graph, np.flatnonzero(keep))


def edge_drop(graph: Graph, p: float, rng) -> Graph:
    """Remove each edge independently with probability p; nodes unchanged."""
    keep = rng.random(graph.num_edges) >= p
    return Graph(graph.num_nodes, graph.edges[keep], node_features=graph.node_features)


def subgraph_walk(graph: Graph, length: int, rng) -> Graph:
    """Induced subgraph on the nodes visited by one random walk.

    The walk starts at a uniform node and takes up to `length` steps to a
    uniform neighbor; it stops early at a node with no neighbors.
    """
    indptr, indices = graph.neighbors()
    cur = int(rng.integers(graph.num_nodes))
    visited = {cur}
    for _ in range(length):
        start, stop = int(indptr[cur]), int(indptr[cur + 1])
        if start == stop:
            break
        cur = int(indices[start + int(rng.integers(stop - start))])
        visited.add(cur)
    return induced_subgraph(graph, visited)


AUGMENTATION_KINDS = ("node_drop", "edge_drop", "subgraph")
WALK_LENGTH = 10  # steps of the random walk behind a subgraph view


@dataclass(frozen=True)
class AugmentationConfig:
    node_drop_p: float = 0.1
    edge_drop_p: float = 0.1
    enabled: tuple = AUGMENTATION_KINDS

    def __post_init__(self):
        for kind in self.enabled:
            if kind not in AUGMENTATION_KINDS:
                raise ValueError(f"unknown augmentation {kind!r}")
        if not self.enabled:
            raise ValueError("at least one augmentation must be enabled")
        for name in ("node_drop_p", "edge_drop_p"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")


def apply_augmentation(graph: Graph, kind: str, config: AugmentationConfig, rng) -> Graph:
    if kind == "node_drop":
        return node_drop(graph, config.node_drop_p, rng)
    if kind == "edge_drop":
        return edge_drop(graph, config.edge_drop_p, rng)
    if kind == "subgraph":
        return subgraph_walk(graph, WALK_LENGTH, rng)
    raise ValueError(f"unknown augmentation {kind!r}")


def augment(graph: Graph, config: AugmentationConfig, rng) -> Graph:
    """One view: a uniformly chosen enabled augmentation applied once.

    Node features are expected to be attached to the input graph already
    (computed on the original topology) and are carried through, never
    recomputed on the perturbed topology. A view that lost every node is
    redrawn once; if it is empty again the original graph is returned.
    """
    kind = config.enabled[int(rng.integers(len(config.enabled)))]
    view = apply_augmentation(graph, kind, config, rng)
    if view.num_nodes == 0:
        view = apply_augmentation(graph, kind, config, rng)
        if view.num_nodes == 0:
            return graph
    return view


# ---------------------------------------------------------------------------
# NT-Xent


def nt_xent(z1: np.ndarray, z2: np.ndarray, tau: float = 0.2):
    """NT-Xent loss over N positive pairs, with gradients.

    Rows i of z1 and z2 are the two views of the same graph. Cosine
    similarities over the stacked 2N rows, temperature tau; row i's
    softmax runs over the other 2N-1 rows with its own twin as the
    positive. Returns (loss, dloss/dz1, dloss/dz2).
    """
    z1 = np.asarray(z1, dtype=np.float64)
    z2 = np.asarray(z2, dtype=np.float64)
    if z1.shape != z2.shape or z1.ndim != 2:
        raise DegenerateBatchError("view batches must share a 2-D shape")
    n = z1.shape[0]
    if n < 2:
        raise DegenerateBatchError("contrastive loss needs at least 2 pairs")
    if not (np.isfinite(tau) and tau > 0):
        raise ValueError(f"tau must be finite and > 0, got {tau}")

    z = np.vstack([z1, z2])
    norms = np.maximum(np.linalg.norm(z, axis=1, keepdims=True), 1e-12)
    u = z / norms
    sims = (u @ u.T) / tau
    np.fill_diagonal(sims, -np.inf)

    pos = np.concatenate([np.arange(n, 2 * n), np.arange(0, n)])
    row_max = sims.max(axis=1, keepdims=True)
    ex = np.exp(sims - row_max)
    denom = ex.sum(axis=1)
    log_prob_pos = sims[np.arange(2 * n), pos] - (row_max[:, 0] + np.log(denom))
    loss = float(-log_prob_pos.mean())

    # d loss / d sims: softmax minus the positive indicator, averaged
    g = ex / denom[:, None]
    g[np.arange(2 * n), pos] -= 1.0
    g /= 2 * n
    # sims is symmetric in u, so both orientations contribute
    du = ((g + g.T) @ u) / tau
    # back through row normalization
    dz = (du - u * np.sum(u * du, axis=1, keepdims=True)) / norms
    return loss, dz[:n], dz[n:]


# ---------------------------------------------------------------------------
# projection head


def init_head(dim: int, rng) -> dict:
    """Two-layer MLP (dim -> dim -> dim) used only inside the loss."""
    return {
        "head.m0.W": orthogonal_matrix(rng, dim, dim),
        "head.m0.b": np.zeros(dim),
        "head.m1.W": orthogonal_matrix(rng, dim, dim),
        "head.m1.b": np.zeros(dim),
    }


def head_forward(head: dict, h: np.ndarray):
    a = h @ head["head.m0.W"] + head["head.m0.b"]
    r = np.maximum(a, 0.0)
    out = r @ head["head.m1.W"] + head["head.m1.b"]
    return out, (h, a, r)


def head_backward(head: dict, cache, d_out: np.ndarray):
    h, a, r = cache
    grads = {
        "head.m1.W": r.T @ d_out,
        "head.m1.b": d_out.sum(axis=0),
    }
    d_r = d_out @ head["head.m1.W"].T
    d_a = d_r * (a > 0.0)
    grads["head.m0.W"] = h.T @ d_a
    grads["head.m0.b"] = d_a.sum(axis=0)
    d_h = d_a @ head["head.m0.W"].T
    return d_h, grads


# ---------------------------------------------------------------------------
# encoder reverse pass


def encoder_backward(params: EncoderParams, cache, d_emb: np.ndarray) -> dict:
    """Gradients of every trainable encoder array given d loss / d embedding.

    Follows the forward cache from forward_batch(collect_cache=True).
    Batch-norm backward uses the batch statistics, matching the forward.
    """
    cfg = params.config
    w = params.weights
    batch = cache["batch"]
    grads = {}
    per_layer = np.split(d_emb, cfg.num_layers, axis=1)
    carry = None
    for k in reversed(range(cfg.num_layers)):
        lc = cache["layers"][k]
        d_h = batch.pool.T @ per_layer[k]
        if carry is not None:
            d_h = d_h + carry
        for m in reversed(range(cfg.mlp_depth)):
            step = lc["steps"][m]
            if m < cfg.mlp_depth - 1:
                d_h = d_h * (step["pre_relu"] > 0.0)
                normed = step["normed"]
                gamma = w[f"l{k}.m{m}.gamma"]
                grads[f"l{k}.m{m}.gamma"] = np.sum(d_h * normed, axis=0)
                grads[f"l{k}.m{m}.beta"] = np.sum(d_h, axis=0)
                d_norm = d_h * gamma
                nrows = d_norm.shape[0]
                d_h = (step["inv_std"] / nrows) * (
                    nrows * d_norm
                    - d_norm.sum(axis=0)
                    - normed * np.sum(d_norm * normed, axis=0)
                )
            lin_in = step["lin_in"]
            grads[f"l{k}.m{m}.W"] = lin_in.T @ d_h
            grads[f"l{k}.m{m}.b"] = d_h.sum(axis=0)
            d_h = d_h @ w[f"l{k}.m{m}.W"].T
        # aggregation matrix is symmetric, so its transpose is itself
        carry = batch.agg @ d_h
    return grads


# ---------------------------------------------------------------------------
# optimizer


@dataclass
class AdamState:
    lr: float = 0.01
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)

    def update(self, trainables: dict, grads: dict) -> None:
        """One in-place Adam step over every array present in grads."""
        self.step += 1
        bc1 = 1.0 - self.beta1 ** self.step
        bc2 = 1.0 - self.beta2 ** self.step
        for name, g in grads.items():
            arr = trainables[name]
            m = self.m.setdefault(name, np.zeros_like(arr))
            v = self.v.setdefault(name, np.zeros_like(arr))
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            arr -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)


# ---------------------------------------------------------------------------
# training loop


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 100
    batch_size: int = 32
    lr: float = 0.01
    tau: float = 0.2
    seed: int = 0
    lipschitz_enabled: bool = True
    augmentations: AugmentationConfig = AugmentationConfig()

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 2:
            raise ValueError("batch_size must be >= 2")
        if not (np.isfinite(self.lr) and self.lr > 0):
            raise ValueError(f"lr must be finite and > 0, got {self.lr}")
        if not (np.isfinite(self.tau) and self.tau > 0):
            raise ValueError(f"tau must be finite and > 0, got {self.tau}")


def variant_no_lipschitz(config: TrainConfig) -> TrainConfig:
    """Ablation: identical run without the spectral-norm projection."""
    return replace(config, lipschitz_enabled=False)


def variant_light_aug(config: TrainConfig) -> TrainConfig:
    """Ablation: subgraph view removed, drop probabilities halved."""
    aug = replace(
        config.augmentations,
        enabled=tuple(k for k in config.augmentations.enabled if k != "subgraph"),
        node_drop_p=config.augmentations.node_drop_p / 2,
        edge_drop_p=config.augmentations.edge_drop_p / 2,
    )
    return replace(config, augmentations=aug)


TRAIN_VARIANTS = {
    "graphcl": lambda cfg: cfg,
    "graphcl-nolip": variant_no_lipschitz,
    "graphcl-lightaug": variant_light_aug,
}


@dataclass
class TrainResult:
    params: EncoderParams
    head: dict
    epoch_losses: list
    config: TrainConfig


def attach_features(graphs, encoder_config: EncoderConfig):
    """Graphs with node features fixed on the original topology.

    Views produced later carry these rows, so perturbed topologies keep
    the statistics of the unperturbed graph. Graphs that already carry
    features come back unchanged.
    """
    out = []
    for i, g in enumerate(graphs):
        try:
            feats = graph_features(g, encoder_config)
        except FeatureMismatchError as exc:
            raise FeatureMismatchError(f"graph {i}: {exc}") from exc
        if feats is not g.node_features:
            g = Graph(g.num_nodes, g.edges, node_features=feats)
        out.append(g)
    return out


def loss_and_grads(params: EncoderParams, head: dict, views1, views2, tau: float):
    """NT-Xent loss of one prepared batch and its gradient for every trainable.

    Returns (loss, grads) with grads keyed like params.weights and head.
    """
    batch = pack_graphs(list(views1) + list(views2), params.config)
    emb, cache = forward_batch(params, batch, collect_cache=True)
    proj, head_cache = head_forward(head, emb)
    n = len(views1)
    loss, d1, d2 = nt_xent(proj[:n], proj[n:], tau)
    d_emb, head_grads = head_backward(head, head_cache, np.vstack([d1, d2]))
    return loss, {**encoder_backward(params, cache, d_emb), **head_grads}


def train_step(params: EncoderParams, head: dict, views1, views2, tau: float,
               optimizer: AdamState, lipschitz: bool) -> float:
    """One optimizer update from two prepared view lists; returns the loss."""
    loss, grads = loss_and_grads(params, head, views1, views2, tau)
    for name, g in grads.items():
        if not np.all(np.isfinite(g)):
            raise NonFiniteGradientError(f"non-finite gradient in {name}")
    trainables = {**params.weights, **head}
    optimizer.update(trainables, grads)
    if lipschitz:
        project_lipschitz_inplace(params)
    return loss


def train_graphcl(graphs, encoder_config: EncoderConfig,
                  train_config: TrainConfig = TrainConfig()) -> TrainResult:
    """Contrastive pretraining; deterministic for a fixed seed.

    Randomness is split into named substreams keyed by (epoch, graph
    index, view), so augmentation draws do not depend on batch layout.
    Trailing batches smaller than 2 graphs are skipped.
    """
    graphs = attach_features(list(graphs), encoder_config)
    if len(graphs) < 2:
        raise DegenerateBatchError("training needs at least 2 graphs")
    seed = train_config.seed
    params = init_random(encoder_config, seed=seed)
    head_rng = substream(seed, 3)
    head = init_head(encoder_config.embedding_dim, head_rng)
    optimizer = AdamState(lr=train_config.lr)
    if train_config.lipschitz_enabled:
        project_lipschitz_inplace(params)

    epoch_losses = []
    for epoch in range(train_config.epochs):
        order = substream(seed, 1, epoch).permutation(len(graphs))
        losses = []
        for start in range(0, len(order), train_config.batch_size):
            idx = order[start:start + train_config.batch_size]
            if idx.size < 2:
                continue
            views1, views2 = [], []
            for i in idx:
                g = graphs[int(i)]
                for view, sink in ((0, views1), (1, views2)):
                    rng = substream(seed, 2, epoch, int(i), view)
                    sink.append(augment(g, train_config.augmentations, rng))
            losses.append(
                train_step(params, head, views1, views2, train_config.tau, optimizer,
                           train_config.lipschitz_enabled)
            )
        epoch_losses.append(float(np.mean(losses)))
    return TrainResult(params=params, head=head, epoch_losses=epoch_losses,
                       config=train_config)


# ---------------------------------------------------------------------------
# gradient validation


def training_loss(params: EncoderParams, head: dict, views1, views2, tau: float):
    """Loss of one prepared batch without any parameter mutation."""
    batch = pack_graphs(list(views1) + list(views2), params.config)
    emb, _ = forward_batch(params, batch)
    proj, _ = head_forward(head, emb)
    n = len(views1)
    loss, _, _ = nt_xent(proj[:n], proj[n:], tau)
    return loss


def finite_difference_check(params: EncoderParams, head: dict, views1, views2,
                            tau: float, step: float = 1e-5) -> float:
    """Worst error between analytic and central-difference gradients.

    Perturbs every coordinate of every trainable array and scores
    |a - b| / (1e-3 + max(|a|, |b|)): a composite criterion that compares
    sizeable gradients relatively while letting vanishing gradients absorb
    the float64 loss-evaluation noise (a few hundred ulps per evaluation,
    about 1e-9 at this step size) without registering as error.
    """
    _, grads = loss_and_grads(params, head, views1, views2, tau)
    trainables = {**params.weights, **head}
    worst = 0.0
    for name, arr in sorted(trainables.items()):
        flat = arr.reshape(-1)
        gflat = grads[name].reshape(-1)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + step
            up = training_loss(params, head, views1, views2, tau)
            flat[j] = orig - step
            down = training_loss(params, head, views1, views2, tau)
            flat[j] = orig
            numeric = (up - down) / (2.0 * step)
            err = abs(numeric - gflat[j]) / (1e-3 + max(abs(numeric), abs(gflat[j])))
            worst = max(worst, err)
    return worst
