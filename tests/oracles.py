"""Independent brute-force oracles used to cross-check the library.

Everything here is written the slow, obvious way (explicit loops, direct
enumeration, scipy/numpy reference routines) and deliberately avoids the
code paths under test. Dual implementations are compared in the unit and
acceptance tests.
"""

from __future__ import annotations

import itertools

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.stats
from scipy.spatial.distance import cdist

from ggeval.encoder import BN_EPS, BN_MOMENTUM, BatchedGraphs, graph_features
from ggeval.errors import EndpointOutOfRangeError, InvariantViolationError, SelfLoopError
from ggeval.graphs import Graph, adjacency
from ggeval.metrics import f1_score, frechet_distance


def canonical_edges_slow(num_nodes: int, edges, has_edge_features: bool = False):
    """(canonical edge tuple, input row kept for each edge), one edge at a time.

    Raises the library's error, with the library's message, at the first
    self-loop or out-of-range endpoint in input order, then at the smallest
    duplicated pair when edge features are present.
    """
    raw = [(int(u), int(v)) for u, v in edges]
    for u, v in raw:
        if u == v:
            raise SelfLoopError(f"self-loop at node {u}")
        if not (0 <= u < num_nodes and 0 <= v < num_nodes):
            raise EndpointOutOfRangeError(f"edge ({u},{v}) outside [0,{num_nodes})")
    normalized = [(min(u, v), max(u, v)) for u, v in raw]
    order = sorted(range(len(normalized)), key=lambda i: normalized[i])
    canonical = []
    kept = []
    for i in order:
        if canonical and canonical[-1] == normalized[i]:
            if has_edge_features:
                raise InvariantViolationError(
                    f"duplicate edge {normalized[i]} with edge features present"
                )
            continue
        canonical.append(normalized[i])
        kept.append(i)
    return tuple(canonical), kept


def adjacency_slow(graph: Graph):
    """Per-node ascending neighbor lists from the edge tuples."""
    neigh = [[] for _ in range(graph.num_nodes)]
    for u, v in graph.edges:
        neigh[u].append(v)
        neigh[v].append(u)
    for lst in neigh:
        lst.sort()
    return neigh


def induced_subgraph_slow(graph: Graph, nodes) -> Graph:
    """Induced subgraph through a relabel dict, edge by edge."""
    nodes = sorted(int(v) for v in nodes)
    relabel = {old: new for new, old in enumerate(nodes)}
    keep_mask = []
    edges = []
    for u, v in graph.edges:
        inside = u in relabel and v in relabel
        keep_mask.append(inside)
        if inside:
            edges.append((relabel[u], relabel[v]))
    nf = graph.node_features[nodes] if graph.node_features is not None else None
    ef = None
    if graph.edge_features is not None:
        ef = graph.edge_features[np.asarray(keep_mask, dtype=bool)]
    return Graph(len(nodes), edges, node_features=nf, edge_features=ef)


def edge_drop_slow(graph: Graph, p: float, rng) -> Graph:
    """Edge dropping over the edge tuples, with the library's RNG draws."""
    keep = rng.random(graph.num_edges) >= p
    edges = [e for e, k in zip(graph.edges, keep) if k]
    ef = graph.edge_features[keep] if graph.edge_features is not None else None
    return Graph(graph.num_nodes, edges, node_features=graph.node_features,
                 edge_features=ef)


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
    for u, v in graph.edges:
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


def spectral_norm_svd(matrix: np.ndarray) -> float:
    return float(np.linalg.svd(matrix, compute_uv=False)[0])


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
    if kernel == "poly":
        return float((x @ y + 1.0) ** 3)
    raise ValueError(kernel)


def mmd_slow(real, gen, kernel="linear", unbiased=True, sigma=1.0) -> float:
    """Squared MMD with quadruple-explicit loops."""
    m, n = len(real), len(gen)
    kxx = 0.0
    for i in range(m):
        for j in range(m):
            if unbiased and i == j:
                continue
            kxx += _kernel_value(real[i], real[j], kernel, sigma)
    kxx /= m * (m - 1) if unbiased else m * m
    kyy = 0.0
    for i in range(n):
        for j in range(n):
            if unbiased and i == j:
                continue
            kyy += _kernel_value(gen[i], gen[j], kernel, sigma)
    kyy /= n * (n - 1) if unbiased else n * n
    kxy = 0.0
    for i in range(m):
        for j in range(n):
            kxy += _kernel_value(real[i], gen[j], kernel, sigma)
    kxy /= m * n
    return kxx + kyy - 2.0 * kxy


def spearman_scipy(x, y) -> float:
    rho, _ = scipy.stats.spearmanr(x, y)
    return float(rho)


def random_graph(rng: np.random.Generator, n: int, p: float) -> Graph:
    """Erdos-Renyi graph drawn with plain loops, for oracle-side inputs."""
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                edges.append((u, v))
    return Graph(num_nodes=n, edges=tuple(edges))


def rewire_graph_slow(graph: Graph, r: float, rng) -> Graph:
    """Edge rewiring that lists every candidate target, same RNG draws."""
    n = graph.num_nodes
    nbrs = [set(neighbors) for neighbors in adjacency(graph)]
    edges = graph.edge_array().tolist()
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
# the in-place forward, the one-pass packing and the blockwise distances


def pack_graphs_slow(graphs, config) -> BatchedGraphs:
    """Packing with per-graph edge offsets and a COO-built pooling matrix."""
    feats = [graph_features(g, config) for g in graphs]
    sizes = np.array([g.num_nodes for g in graphs], dtype=np.int64)
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    total = int(offsets[-1])
    x = np.vstack(feats) if total else np.zeros((0, config.in_dim))
    rows, cols = [np.arange(total)], [np.arange(total)]
    for g, off in zip(graphs, offsets):
        e = g.edge_array() + off
        rows.extend([e[:, 0], e[:, 1]])
        cols.extend([e[:, 1], e[:, 0]])
    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    agg = sp.csr_matrix((np.ones(rows.size), (rows, cols)), shape=(total, total))
    gidx = np.repeat(np.arange(len(graphs)), sizes)
    pool = sp.csr_matrix(
        (np.ones(total), (gidx, np.arange(total))), shape=(len(graphs), total)
    )
    return BatchedGraphs(features=x, agg=agg, pool=pool, sizes=sizes)


def forward_batch_slow(params, batch, mode="eval", collect_cache=False):
    """Forward pass with z.mean / z.var and a new array for every step."""
    cfg = params.config
    w = params.weights
    h = batch.features
    readouts = []
    cache = {"batch": batch, "layers": []} if collect_cache else None
    for k in range(cfg.num_layers):
        lc = {"h_in": h} if collect_cache else None
        z = batch.agg @ h
        if collect_cache:
            lc["agg_out"] = z
        steps = []
        for m in range(cfg.mlp_depth):
            lin_in = z
            z = z @ w[f"l{k}.m{m}.W"] + w[f"l{k}.m{m}.b"]
            step = {"lin_in": lin_in}
            if m < cfg.mlp_depth - 1:
                mean = z.mean(axis=0)
                var = z.var(axis=0)
                if mode == "train":
                    n = z.shape[0]
                    unbiased = var * (n / (n - 1)) if n > 1 else var
                    params.running[f"l{k}.m{m}.mean"] *= 1 - BN_MOMENTUM
                    params.running[f"l{k}.m{m}.mean"] += BN_MOMENTUM * mean
                    params.running[f"l{k}.m{m}.var"] *= 1 - BN_MOMENTUM
                    params.running[f"l{k}.m{m}.var"] += BN_MOMENTUM * unbiased
                inv_std = 1.0 / np.sqrt(var + BN_EPS)
                normed = (z - mean) * inv_std
                z = normed * w[f"l{k}.m{m}.gamma"] + w[f"l{k}.m{m}.beta"]
                pre_relu = z
                z = np.maximum(z, 0.0)
                step.update(normed=normed, inv_std=inv_std, pre_relu=pre_relu)
            steps.append(step)
        if collect_cache:
            lc["steps"] = steps
            lc["h_out"] = z
            cache["layers"].append(lc)
        h = z
        readouts.append(batch.pool @ h)
    emb = np.hstack(readouts)
    if collect_cache:
        cache["embedding"] = emb
    return emb, cache


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


def mmd_pooled(real, gen, kernel="rbf", unbiased=True, sigma=None) -> float:
    """Squared MMD with the rbf kernel read from the pooled matrix."""
    m = len(real)
    if kernel == "rbf":
        sq = pooled_sq(real, gen)
        if sigma is None:
            sigma = median_sigma_pooled(real, gen)
        with np.errstate(over="ignore"):
            k_rr, k_gg, k_rg = (np.exp(-block / (2.0 * sigma * sigma))
                                for block in (sq[:m, :m], sq[m:, m:], sq[:m, m:]))
    else:
        pairs = ((real, real), (gen, gen), (real, gen))
        if kernel == "linear":
            k_rr, k_gg, k_rg = (a @ b.T for a, b in pairs)
        else:
            k_rr, k_gg, k_rg = ((a @ b.T + 1.0) ** 3 for a, b in pairs)
    n = len(gen)
    if unbiased:
        term_r = (k_rr.sum() - np.trace(k_rr)) / (m * (m - 1))
        term_g = (k_gg.sum() - np.trace(k_gg)) / (n * (n - 1))
    else:
        term_r = k_rr.sum() / (m * m)
        term_g = k_gg.sum() / (n * n)
    return float(term_r + term_g - 2.0 * k_rg.sum() / (m * n))


def evaluate_pooled(real, gen, knn_k=5, mmd_unbiased=True, rbf_sigma=None) -> dict:
    """Every MetricReport field, each metric read from the pooled matrix."""
    scores = prdc_pooled(real, gen, knn_k)
    sigma = median_sigma_pooled(real, gen) if rbf_sigma is None else rbf_sigma
    return {
        "fd": frechet_distance(real, gen),
        **scores,
        "f1_pr": f1_score(scores["precision"], scores["recall"]),
        "f1_dc": f1_score(scores["density"], scores["coverage"]),
        "mmd_linear": mmd_pooled(real, gen, "linear", mmd_unbiased),
        "mmd_rbf": mmd_pooled(real, gen, "rbf", mmd_unbiased, sigma),
        "k": knn_k,
        "rbf_sigma": sigma,
    }
