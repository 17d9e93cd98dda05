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
import scipy.stats

from ggeval.errors import EndpointOutOfRangeError, InvariantViolationError, SelfLoopError
from ggeval.graphs import Graph


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
