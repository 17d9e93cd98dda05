"""Independent brute-force oracles used to cross-check the library.

Everything here is written the slow, obvious way (explicit loops, direct
enumeration, scipy/numpy reference routines) and deliberately avoids the
code paths under test. Dual implementations are compared in the unit and
acceptance tests.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from fractions import Fraction

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.stats
from scipy.spatial.distance import cdist

from ggeval.encoder import BN_EPS, BatchedGraphs, graph_features
from ggeval.errors import EndpointOutOfRangeError, SelfLoopError
from ggeval.features import ORBIT4_CLASSES
from ggeval.generators import (
    COMMUNITY_INTER_FRAC,
    COMMUNITY_P,
    LOBSTER_BACKBONE,
    LOBSTER_NODE_RANGE,
    LOBSTER_P,
)
from ggeval.graphs import Graph
from ggeval.metrics import f1_score, frechet_distance


def canonical_edges_slow(num_nodes: int, edges):
    """Canonical edge tuple, one edge at a time.

    Raises the library's error, with the library's message, at the first
    self-loop or out-of-range endpoint in input order.
    """
    raw = [(int(u), int(v)) for u, v in edges]
    for u, v in raw:
        if u == v:
            raise SelfLoopError(f"self-loop at node {u}")
        if not (0 <= u < num_nodes and 0 <= v < num_nodes):
            raise EndpointOutOfRangeError(f"edge ({u},{v}) outside [0,{num_nodes})")
    canonical = []
    for pair in sorted((min(u, v), max(u, v)) for u, v in raw):
        if not canonical or canonical[-1] != pair:
            canonical.append(pair)
    return tuple(canonical)


def adjacency_slow(graph: Graph):
    """Per-node ascending neighbor lists from the edge tuples."""
    neigh = [[] for _ in range(graph.num_nodes)]
    for u, v in graph.edges.tolist():
        neigh[u].append(v)
        neigh[v].append(u)
    for lst in neigh:
        lst.sort()
    return neigh


def induced_subgraph_slow(graph: Graph, nodes) -> Graph:
    """Induced subgraph through a relabel dict, edge by edge."""
    nodes = sorted(int(v) for v in nodes)
    relabel = {old: new for new, old in enumerate(nodes)}
    edges = [(relabel[u], relabel[v]) for u, v in graph.edges.tolist()
             if u in relabel and v in relabel]
    nf = graph.node_features[nodes] if graph.node_features is not None else None
    return Graph(len(nodes), edges, node_features=nf)


def edge_drop_slow(graph: Graph, p: float, rng) -> Graph:
    """Edge dropping over the edge tuples, with the library's RNG draws."""
    keep = rng.random(graph.num_edges) >= p
    edges = [e for e, k in zip(graph.edges.tolist(), keep) if k]
    return Graph(graph.num_nodes, edges, node_features=graph.node_features)


def subgraph_walk_slow(graph: Graph, length: int, rng) -> Graph:
    """Random-walk subgraph over Python neighbor lists, same RNG draws."""
    neigh = adjacency_slow(graph)
    cur = int(rng.integers(graph.num_nodes))
    visited = {cur}
    for _ in range(length):
        options = neigh[cur]
        if not options:
            break
        cur = options[int(rng.integers(len(options)))]
        visited.add(cur)
    return induced_subgraph_slow(graph, visited)


def neighbor_sets(graph: Graph):
    nbrs = [set() for _ in range(graph.num_nodes)]
    for u, v in graph.edges.tolist():
        nbrs[u].add(v)
        nbrs[v].add(u)
    return nbrs


def triangle_clustering_slow(graph: Graph) -> np.ndarray:
    """Per-node triangle clustering by enumerating neighbor pairs."""
    nbrs = neighbor_sets(graph)
    out = np.zeros(graph.num_nodes, dtype=np.float64)
    for v in range(graph.num_nodes):
        nv = sorted(nbrs[v])
        if len(nv) < 2:
            continue
        closed = 0
        pairs = 0
        for u, w in itertools.combinations(nv, 2):
            pairs += 1
            if w in nbrs[u]:
                closed += 1
        out[v] = closed / pairs
    return out


def square_clustering_slow(graph: Graph) -> np.ndarray:
    """Per-node square clustering by enumerating common neighbors directly."""
    nbrs = neighbor_sets(graph)
    out = np.zeros(graph.num_nodes, dtype=np.float64)
    for v in range(graph.num_nodes):
        nv = sorted(nbrs[v])
        if len(nv) < 2:
            continue
        num = 0.0
        den = 0.0
        for u, w in itertools.combinations(nv, 2):
            q = len((nbrs[u] & nbrs[w]) - {v})
            num += q
            den += len(nbrs[u]) + len(nbrs[w]) - q - 2.0 * (w in nbrs[u])
        if den > 0:
            out[v] = num / den
    return out


# One representative edge list per 4-node isomorphism class, keyed by the
# same letters the library uses.
_CENSUS_REPS = {
    "a": [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)],
    "b": [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)],
    "c": [(0, 1), (1, 2), (2, 3), (0, 3)],
    "d": [(0, 1), (0, 2), (1, 2), (2, 3)],
    "e": [(0, 1), (0, 2), (1, 2)],
    "f": [(0, 1), (0, 2), (0, 3)],
    "g": [(0, 1)],
    "h": [(0, 1), (2, 3)],
    "i": [(0, 1), (1, 2)],
    "j": [(0, 1), (1, 2), (2, 3)],
    "k": [],
}


def _adj4(edge_list):
    a = np.zeros((4, 4), dtype=bool)
    for u, v in edge_list:
        a[u, v] = a[v, u] = True
    return a


def _isomorphic4(a, b):
    """Brute-force isomorphism test for 4x4 adjacency matrices."""
    for perm in itertools.permutations(range(4)):
        p = list(perm)
        if np.array_equal(a[np.ix_(p, p)], b):
            return True
    return False


def orbit_census_slow(graph: Graph) -> dict:
    """Classify every 4-subset by explicit isomorphism matching."""
    reps = {name: _adj4(edges) for name, edges in _CENSUS_REPS.items()}
    nbrs = neighbor_sets(graph)
    counts = dict.fromkeys(_CENSUS_REPS, 0)
    for quad in itertools.combinations(range(graph.num_nodes), 4):
        sub = np.zeros((4, 4), dtype=bool)
        for i, j in itertools.combinations(range(4), 2):
            if quad[j] in nbrs[quad[i]]:
                sub[i, j] = sub[j, i] = True
        for name, rep in reps.items():
            if _isomorphic4(sub, rep):
                counts[name] += 1
                break
    return counts


def orbit4_lut_by_permutation() -> np.ndarray:
    """6-bit induced-edge mask -> index into ORBIT4_CLASSES.

    Canonical form = minimum mask over all 24 vertex permutations; the 11
    canonical masks are then identified by inspecting one representative.
    Bit i of a mask is the i-th pair of (0,1), (0,2), (0,3), (1,2), (1,3), (2,3).
    """
    pairs = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
    perms = list(itertools.permutations(range(4)))
    pair_index = {p: i for i, p in enumerate(pairs)}

    def permute_mask(mask, perm):
        out = 0
        for i, (u, v) in enumerate(pairs):
            if mask >> i & 1:
                pu, pv = perm[u], perm[v]
                out |= 1 << pair_index[(min(pu, pv), max(pu, pv))]
        return out

    def classify(mask):
        edges = [pairs[i] for i in range(6) if mask >> i & 1]
        deg = [0, 0, 0, 0]
        for u, v in edges:
            deg[u] += 1
            deg[v] += 1
        key = (len(edges), tuple(sorted(deg)))
        return {
            (6, (3, 3, 3, 3)): "a",
            (5, (2, 2, 3, 3)): "b",
            (4, (2, 2, 2, 2)): "c",
            (4, (1, 2, 2, 3)): "d",
            (3, (0, 2, 2, 2)): "e",
            (3, (1, 1, 1, 3)): "f",
            (1, (0, 0, 1, 1)): "g",
            (2, (1, 1, 1, 1)): "h",
            (2, (0, 1, 1, 2)): "i",
            (3, (1, 1, 2, 2)): "j",
            (0, (0, 0, 0, 0)): "k",
        }[key]

    lut = np.empty(64, dtype=np.int64)
    cache = {}
    for mask in range(64):
        canon = min(permute_mask(mask, p) for p in perms)
        if canon not in cache:
            cache[canon] = ORBIT4_CLASSES.index(classify(canon))
        lut[mask] = cache[canon]
    return lut


def spectral_norm_svd(matrix: np.ndarray) -> float:
    return float(np.linalg.svd(matrix, compute_uv=False)[0])


def max_spectral_norm(params) -> float:
    """Largest spectral norm over an encoder's linear weights."""
    return max(spectral_norm_svd(w) for _, w in params.weight_matrices())


def frechet_distance_slow(real: np.ndarray, gen: np.ndarray) -> float:
    """Gaussian Frechet distance via scipy's matrix square root."""
    mu_r = real.mean(axis=0)
    mu_g = gen.mean(axis=0)
    cov_r = np.cov(real, rowvar=False, ddof=1)
    cov_g = np.cov(gen, rowvar=False, ddof=1)
    cov_r = np.atleast_2d(cov_r)
    cov_g = np.atleast_2d(cov_g)
    root = scipy.linalg.sqrtm(cov_r @ cov_g)
    if np.iscomplexobj(root):
        root = root.real
    diff = mu_r - mu_g
    return float(diff @ diff + np.trace(cov_r + cov_g - 2.0 * root))


def prdc_slow(real: np.ndarray, gen: np.ndarray, k: int = 5) -> dict:
    """Precision/recall/density/coverage with explicit loops."""

    def radii(points):
        out = np.zeros(len(points))
        for i, p in enumerate(points):
            dists = sorted(np.linalg.norm(points[j] - p) for j in range(len(points)) if j != i)
            out[i] = dists[k - 1]
        return out

    rad_real = radii(real)
    rad_gen = radii(gen)
    n_real, n_gen = len(real), len(gen)

    precision_hits = 0
    density_sum = 0
    coverage_hits = 0
    for j in range(n_gen):
        inside = 0
        for i in range(n_real):
            if np.linalg.norm(gen[j] - real[i]) <= rad_real[i]:
                inside += 1
        if inside > 0:
            precision_hits += 1
        density_sum += inside
    for i in range(n_real):
        if any(np.linalg.norm(gen[j] - real[i]) <= rad_real[i] for j in range(n_gen)):
            coverage_hits += 1

    recall_hits = 0
    for i in range(n_real):
        if any(np.linalg.norm(real[i] - gen[j]) <= rad_gen[j] for j in range(n_gen)):
            recall_hits += 1

    return {
        "precision": precision_hits / n_gen,
        "recall": recall_hits / n_real,
        "density": density_sum / (k * n_gen),
        "coverage": coverage_hits / n_real,
    }


def _kernel_value(x, y, kernel, sigma):
    if kernel == "linear":
        return float(x @ y)
    if kernel == "rbf":
        d2 = float(np.sum((x - y) ** 2))
        return float(np.exp(-d2 / (2.0 * sigma**2)))
    raise ValueError(kernel)


def mmd_slow(real, gen, kernel="linear", sigma=1.0) -> float:
    """Unbiased squared MMD with quadruple-explicit loops."""
    m, n = len(real), len(gen)
    kxx = 0.0
    for i in range(m):
        for j in range(m):
            if i != j:
                kxx += _kernel_value(real[i], real[j], kernel, sigma)
    kxx /= m * (m - 1)
    kyy = 0.0
    for i in range(n):
        for j in range(n):
            if i != j:
                kyy += _kernel_value(gen[i], gen[j], kernel, sigma)
    kyy /= n * (n - 1)
    kxy = 0.0
    for i in range(m):
        for j in range(n):
            kxy += _kernel_value(real[i], gen[j], kernel, sigma)
    kxy /= m * n
    return kxx + kyy - 2.0 * kxy


def mean_ranks_slow(values) -> np.ndarray:
    """1-based ranks with ties sharing their mean rank, one tie run at a time.

    Every NaN is its own run and ranks after every number, in input order.
    """
    order = np.argsort(values, kind="stable")
    ranks = np.empty(values.size, dtype=np.float64)
    i = 0
    while i < values.size:
        j = i
        while j + 1 < values.size and values[order[j + 1]] == values[order[i]]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def spearman_scipy(x, y) -> float:
    rho, _ = scipy.stats.spearmanr(x, y)
    return float(rho)


def wl_subtree_kernel_slow(graph_a: Graph, graph_b: Graph, h: int) -> int:
    """WL subtree kernel from nested-tuple colors and Counter dot products.

    A node's color starts as its degree; each round replaces it with (own
    color, sorted neighbor colors). Nested tuples need no shared palette,
    so the two graphs are refined independently.
    """
    def colors_per_round(graph):
        neigh = adjacency_slow(graph)
        colors = [len(nv) for nv in neigh]
        rounds = [Counter(colors)]
        for _ in range(h):
            colors = [(colors[v], tuple(sorted(colors[u] for u in neigh[v])))
                      for v in range(graph.num_nodes)]
            rounds.append(Counter(colors))
        return rounds

    total = 0
    for ha, hb in zip(colors_per_round(graph_a), colors_per_round(graph_b)):
        total += sum(count * hb.get(color, 0) for color, count in ha.items())
    return total


def cluster_wl_slow(kernel, num_clusters: int):
    """Complete-linkage clustering that rescans every cluster pair each round.

    kernel is a square nested list of kernel values. Each round computes
    every pair's largest member-to-member distance
    sqrt(k_ii + k_jj - 2 k_ij) from the member lists and merges the
    smallest pair, ties broken by (distance, a, b) over clusters ordered
    by smallest member. Returns (labels, medoids) in that order; a medoid
    is the first member with the highest mean kernel row over its cluster.
    """
    n = len(kernel)

    def dist(i, j):
        return math.sqrt(max(0.0, float(kernel[i][i] + kernel[j][j] - 2 * kernel[i][j])))

    clusters = [[i] for i in range(n)]
    while len(clusters) > num_clusters:
        _, a, b = min(
            (max(dist(i, j) for i in clusters[a] for j in clusters[b]), a, b)
            for a in range(len(clusters)) for b in range(a + 1, len(clusters))
        )
        clusters[a] = sorted(clusters[a] + clusters.pop(b))
    labels = np.empty(n, dtype=np.int64)
    medoids = []
    for c, members in enumerate(clusters):
        labels[members] = c
        medoids.append(max(members, key=lambda i: sum(kernel[i][j] for j in members)
                           / len(members)))
    return labels, medoids


def random_graph(rng: np.random.Generator, n: int, p: float) -> Graph:
    """Erdos-Renyi graph drawn with plain loops, for oracle-side inputs."""
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                edges.append((u, v))
    return Graph(num_nodes=n, edges=tuple(edges))


def gen_er_slow(n: int, p: float, rng) -> Graph:
    """ER G(n, p) over np.triu_indices: one draw per pair, row-major."""
    if n < 2:
        return Graph(n)
    iu, iv = np.triu_indices(n, k=1)
    keep = rng.random(iu.size) < p
    return Graph(n, edges=np.column_stack((iu[keep], iv[keep])))


def gen_community_slow(num_nodes: int, rng) -> Graph:
    """Two-block community graph built from two whole gen_er_slow graphs."""
    half = num_nodes // 2
    num_inter = int(round(COMMUNITY_INTER_FRAC * num_nodes))
    blocks = [gen_er_slow(half, COMMUNITY_P, rng).edges + offset for offset in (0, half)]
    cross = rng.choice(half * half, size=num_inter, replace=False)
    blocks.append(np.column_stack((cross // half, half + cross % half)))
    return Graph(num_nodes, edges=np.concatenate(blocks))


def gen_lobster_slow(rng) -> Graph:
    """Lobster rejection sampling with one scalar rng.random() per decision.

    Builds the edge list of every attempt, accepted or not, and reads
    exactly the draws it uses.
    """
    lo, hi = LOBSTER_NODE_RANGE
    for _ in range(10_000):
        backbone = int(2 * rng.random() * LOBSTER_BACKBONE + 0.5)
        backbone = max(backbone, 2)
        edges = [(i, i + 1) for i in range(backbone - 1)]
        total = backbone
        for node in range(backbone):
            while rng.random() < LOBSTER_P:
                first = total
                total += 1
                edges.append((node, first))
                while rng.random() < LOBSTER_P:
                    edges.append((first, total))
                    total += 1
        if lo <= total <= hi:
            return Graph(total, edges=edges)
    raise RuntimeError("lobster sampling failed to land in the size range")


def rewire_graph_slow(graph: Graph, r: float, rng) -> Graph:
    """Edge rewiring that lists every candidate target, same RNG draws."""
    n = graph.num_nodes
    nbrs = [set(neighbors) for neighbors in graph.neighbors()]
    edges = graph.edges.tolist()
    for idx in range(len(edges)):
        if rng.random() >= r:
            continue
        u, v = edges[idx]
        stable, moved = (u, v) if rng.integers(2) == 0 else (v, u)
        candidates = [w for w in range(n) if w != stable and w not in nbrs[stable]]
        if not candidates:
            continue
        target = candidates[int(rng.integers(len(candidates)))]
        nbrs[stable].discard(moved)
        nbrs[moved].discard(stable)
        nbrs[stable].add(target)
        nbrs[target].add(stable)
        edges[idx] = [min(stable, target), max(stable, target)]
    return Graph(n, edges)


# ---------------------------------------------------------------------------
# the scoring path with one fresh array per operation: the reference for
# the in-place forward and reverse passes, the one-pass packing and the
# blockwise distances


def pack_graphs_slow(graphs, config) -> BatchedGraphs:
    """Packing with per-graph edge offsets and a COO-built pooling matrix."""
    feats = [graph_features(g, config) for g in graphs]
    sizes = np.array([g.num_nodes for g in graphs], dtype=np.int64)
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    total = int(offsets[-1])
    x = np.vstack(feats) if total else np.zeros((0, config.in_dim))
    rows, cols = [np.arange(total)], [np.arange(total)]
    for g, off in zip(graphs, offsets):
        e = g.edges + off
        rows.extend([e[:, 0], e[:, 1]])
        cols.extend([e[:, 1], e[:, 0]])
    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    agg = sp.csr_matrix((np.ones(rows.size), (rows, cols)), shape=(total, total))
    gidx = np.repeat(np.arange(len(graphs)), sizes)
    pool = sp.csr_matrix(
        (np.ones(total), (gidx, np.arange(total))), shape=(len(graphs), total)
    )
    return BatchedGraphs(features=x, agg=agg, pool=pool)


def gemm(a, b):
    """a @ b through BLAS's gemm even for one row: a row stacked on itself,
    because numpy multiplies a single row with gemv, which rounds unlike gemm."""
    return (np.vstack((a, a)) @ b)[:len(a)]


def forward_batch_slow(params, batch, collect_cache=False, stats=None):
    """Forward pass with a new array for every step.

    Batch norm applies stats when given; otherwise it takes the batch's
    mean, each column centered on its first row, and the mean square of
    z - mean. Returns (embeddings, statistics applied, cache)."""
    w = params.weights
    h = batch.features
    readouts, applied = [], []
    cache = {"batch": batch, "layers": []} if collect_cache else None
    for k in range(params.config.num_layers):
        lin_in = batch.agg @ h
        z = gemm(lin_in, w[f"l{k}.m0.W"])
        if stats is None:
            shift = z[0] if len(z) else np.zeros(z.shape[1])
            mean = shift + (z - shift).sum(axis=0) / len(z)
            inv_std = 1.0 / np.sqrt(np.square(z - mean).sum(axis=0) / len(z) + BN_EPS)
        else:
            mean, inv_std = stats[k]
        applied.append((mean, inv_std))
        normed = (z - mean) * inv_std
        pre_relu = normed * w[f"l{k}.m0.gamma"] + w[f"l{k}.m0.beta"]
        hidden = np.maximum(pre_relu, 0.0)
        h = gemm(hidden, w[f"l{k}.m1.W"]) + w[f"l{k}.m1.b"]
        if collect_cache:
            cache["layers"].append({"lin_in": lin_in, "normed": normed, "inv_std": inv_std,
                                    "pre_relu": pre_relu, "relu": hidden})
        readouts.append(batch.pool @ h)
    return np.hstack(readouts), np.array(applied), cache


def encoder_backward_slow(params, cache, d_emb):
    """encoder_backward with a new array for every step and the readout
    gradient spread to the nodes by the transposed pooling matrix.

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
        layer = cache["layers"][k]
        d_h = batch.pool.T @ per_layer[k]
        if carry is not None:
            d_h = d_h + carry
        # second linear
        grads[f"l{k}.m1.W"] = layer["relu"].T @ d_h
        grads[f"l{k}.m1.b"] = d_h.sum(axis=0)
        d_h = d_h @ w[f"l{k}.m1.W"].T
        # ReLU, then the batch norm's affine map and its normalization
        d_h = d_h * (layer["pre_relu"] > 0.0)
        normed = layer["normed"]
        grads[f"l{k}.m0.gamma"] = np.sum(d_h * normed, axis=0)
        grads[f"l{k}.m0.beta"] = np.sum(d_h, axis=0)
        d_norm = d_h * w[f"l{k}.m0.gamma"]
        nrows = d_norm.shape[0]
        d_h = (layer["inv_std"] / nrows) * (
            nrows * d_norm
            - d_norm.sum(axis=0)
            - normed * np.sum(d_norm * normed, axis=0)
        )
        # first linear
        grads[f"l{k}.m0.W"] = layer["lin_in"].T @ d_h
        if k:  # nothing reads layer 0's input gradient
            # aggregation matrix is symmetric, so its transpose is itself
            carry = batch.agg @ (d_h @ w[f"l{k}.m0.W"].T)
    return grads


def pooled_sq(real, gen):
    """One squared-distance matrix over the pooled rows, real rows first."""
    pooled = np.vstack([real, gen])
    return cdist(pooled, pooled, "sqeuclidean")


def prdc_pooled(real, gen, k=5) -> dict:
    sq = pooled_sq(real, gen)
    m = len(real)

    def radii(block):
        d = block.copy()
        np.fill_diagonal(d, np.inf)
        d.partition(k - 1, axis=1)
        return np.sqrt(d[:, k - 1])

    rad_real = radii(sq[:m, :m])
    rad_gen = radii(sq[m:, m:])
    cross = np.sqrt(sq[:m, m:])
    in_real_ball = cross <= rad_real[:, None]
    in_gen_ball = cross <= rad_gen[None, :]
    return {
        "precision": float(in_real_ball.any(axis=0).mean()),
        "recall": float(in_gen_ball.any(axis=1).mean()),
        "density": float(in_real_ball.sum(axis=0).mean() / k),
        "coverage": float(in_real_ball.any(axis=1).mean()),
    }


def median_sigma_pooled(real, gen) -> float:
    """Median over the strict upper triangle of the pooled matrix."""
    sq = pooled_sq(real, gen)
    vals = np.sqrt(sq[np.triu(np.ones(sq.shape, dtype=bool), k=1)])
    med = float(np.median(vals, overwrite_input=True)) if vals.size else 0.0
    if not np.isfinite(med) or med <= 0.0:
        return 1.0
    return med


def mmd_pooled(real, gen, kernel, sigma=None) -> float:
    """Unbiased squared MMD, the rbf kernel at bandwidth sigma read from
    the pooled matrix."""
    m = len(real)
    if kernel != "rbf":
        raise ValueError(kernel)
    sq = pooled_sq(real, gen)
    with np.errstate(over="ignore"):
        k_rr, k_gg, k_rg = (np.exp(-block / (2.0 * sigma * sigma))
                            for block in (sq[:m, :m], sq[m:, m:], sq[:m, m:]))
    n = len(gen)
    term_r = (k_rr.sum() - np.trace(k_rr)) / (m * (m - 1))
    term_g = (k_gg.sum() - np.trace(k_gg)) / (n * (n - 1))
    return float(term_r + term_g - 2.0 * k_rg.sum() / (m * n))


def mmd_linear_exact(real, gen) -> float:
    """Unbiased squared MMD of the linear kernel over every pair of rows, in
    exact rational arithmetic on the float inputs, rounded once."""
    x, y = ([[Fraction(v) for v in row] for row in s.tolist()] for s in (real, gen))
    m, n = len(x), len(y)

    def pairs(a, b, skip_diagonal):
        return sum(sum(p * q for p, q in zip(a[i], b[j]))
                   for i in range(len(a)) for j in range(len(b))
                   if not (skip_diagonal and i == j))

    return float(pairs(x, x, True) / (m * (m - 1)) + pairs(y, y, True) / (n * (n - 1))
                 - 2 * pairs(x, y, False) / (m * n))


def evaluate_pooled(real, gen, knn_k=5) -> dict:
    """Every MetricReport field, each metric read from the pooled matrix."""
    scores = prdc_pooled(real, gen, knn_k)
    sigma = median_sigma_pooled(real, gen)
    return {
        "fd": frechet_distance(real, gen),
        **scores,
        "f1_pr": f1_score(scores["precision"], scores["recall"]),
        "f1_dc": f1_score(scores["density"], scores["coverage"]),
        "mmd_linear": mmd_linear_exact(real, gen),
        "mmd_rbf": mmd_pooled(real, gen, "rbf", sigma),
        "k": knn_k,
        "rbf_sigma": sigma,
    }
