"""Local graph statistics: degrees, triangle and square clustering, 4-node
orbit census, Weisfeiler-Lehman color refinement, and the WL subtree kernel.

These are the "traditional" descriptors used three ways: as encoder input
features, as baselines in benchmarks, and as the local-metric side of the
distinguishability checks.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import CensusTooLargeError
from .graphs import Graph, adjacency

# Induced 4-node subgraph classes. Letters f..k are pinned down by how the
# cycle-pair counting argument uses them (claw, 1-edge, 2 disjoint edges,
# 2-edge path, 3-edge path, empty); a..e is the triangle/C4 group in
# descending edge count.
ORBIT4_CLASSES = (
    "a",  # complete K4
    "b",  # diamond (K4 minus one edge)
    "c",  # 4-cycle
    "d",  # paw (triangle plus pendant edge)
    "e",  # triangle plus isolated node
    "f",  # claw / star K1,3
    "g",  # single edge plus two isolated nodes
    "h",  # two disjoint edges
    "i",  # 2-edge path plus isolated node
    "j",  # 3-edge path
    "k",  # empty
)

# Bit positions for the 6 vertex pairs of a 4-node subset, in this order.
_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


def _build_orbit4_lut():
    """Map every 6-bit induced-edge mask to its isomorphism class index.

    Canonical form = minimum mask over all 24 vertex permutations; the 11
    canonical masks are then identified by inspecting one representative.
    """
    perms = list(itertools.permutations(range(4)))
    pair_index = {p: i for i, p in enumerate(_PAIRS)}

    def permute_mask(mask, perm):
        out = 0
        for i, (u, v) in enumerate(_PAIRS):
            if mask >> i & 1:
                pu, pv = perm[u], perm[v]
                out |= 1 << pair_index[(min(pu, pv), max(pu, pv))]
        return out

    def classify(mask):
        edges = [_PAIRS[i] for i in range(6) if mask >> i & 1]
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


_ORBIT4_LUT = _build_orbit4_lut()

# Direct enumeration of all 4-subsets; graphs above this size are refused.
ORBIT_CENSUS_MAX_NODES = 60


@dataclass(frozen=True)
class OrbitCensus:
    """Counts of the 11 induced 4-node subgraph classes."""

    counts: dict

    def total(self) -> int:
        return sum(self.counts.values())

    def as_vector(self) -> np.ndarray:
        return np.array([self.counts[c] for c in ORBIT4_CLASSES], dtype=np.int64)

    def __eq__(self, other):
        if not isinstance(other, OrbitCensus):
            return NotImplemented
        return self.counts == other.counts


def degrees(graph: Graph) -> np.ndarray:
    """Per-node degrees; sums to 2|E|."""
    return np.bincount(graph.edge_array().ravel(), minlength=graph.num_nodes)


def _adjacency_matrix(graph: Graph) -> np.ndarray:
    a = np.zeros((graph.num_nodes, graph.num_nodes), dtype=np.float64)
    e = graph.edge_array()
    a[e[:, 0], e[:, 1]] = 1.0
    a[e[:, 1], e[:, 0]] = 1.0
    return a


def _clustering(graph: Graph):
    """(triangle, square) clustering vectors as closed forms on A and A @ A.

    Every sum here is a sum of small nonnegative integers, which float64
    holds exactly in any summation order, so each coefficient is a single
    rounding of an exact integer ratio: the same bits as enumerating the
    neighbor pairs one by one.
    """
    a = _adjacency_matrix(graph)
    a2 = a @ a
    deg = a.sum(axis=1)
    pairs = deg * (deg - 1.0) / 2.0
    # over unordered neighbor pairs (u, w) of v: [u adjacent to w] sums to
    # the edges among v's neighbors, a2[u, w] sums to
    # (sum_x a2[v, x]^2 - sum_u deg(u)) / 2, and each deg(u) is in
    # deg(v) - 1 pairs
    links = (a2 * a).sum(axis=1) / 2.0
    nbr_deg = a @ deg
    num = ((a2 * a2).sum(axis=1) - nbr_deg) / 2.0 - pairs
    den = (deg - 1.0) * nbr_deg - num - 2.0 * links
    c3 = np.zeros(graph.num_nodes, dtype=np.float64)
    c4 = np.zeros(graph.num_nodes, dtype=np.float64)
    np.divide(links, pairs, out=c3, where=deg >= 2)
    np.divide(num, den, out=c4, where=den > 0)
    return c3, c4


def clustering_coefficient(graph: Graph, v: int) -> float:
    """Triangle density among pairs of neighbors of v; 0 when deg(v) < 2."""
    return float(clustering_vector(graph)[v])


def clustering_vector(graph: Graph) -> np.ndarray:
    return _clustering(graph)[0]


def four_node_clustering(graph: Graph, v: int) -> float:
    """Square-clustering ratio of node v.

    Over unordered neighbor pairs (u, w) of v, the numerator sums
    q_v(u, w) = |common neighbors of u and w, excluding v| and the
    denominator sums deg(u) + deg(w) - q_v(u, w) - 2*[u adjacent to w].
    Nodes whose denominator is 0 (fewer than two neighbors, or isolated
    pairs) get value 0.
    """
    return float(four_node_clustering_vector(graph)[v])


def four_node_clustering_vector(graph: Graph) -> np.ndarray:
    return _clustering(graph)[1]


def orbit_census_4(graph: Graph) -> OrbitCensus:
    """Classify every 4-node subset by induced-subgraph isomorphism class.

    Counts sum to C(n, 4). Restricted to n <= ORBIT_CENSUS_MAX_NODES since
    the enumeration is direct.
    """
    n = graph.num_nodes
    if n > ORBIT_CENSUS_MAX_NODES:
        raise CensusTooLargeError(
            f"orbit census capped at {ORBIT_CENSUS_MAX_NODES} nodes, got {n}"
        )
    counts = dict.fromkeys(ORBIT4_CLASSES, 0)
    if n < 4:
        return OrbitCensus(counts)
    quads = np.array(list(itertools.combinations(range(n), 4)), dtype=np.int64)
    adj = _adjacency_matrix(graph).astype(bool)
    mask = np.zeros(len(quads), dtype=np.int64)
    for bit, (i, j) in enumerate(_PAIRS):
        mask |= adj[quads[:, i], quads[:, j]].astype(np.int64) << bit
    hist = np.bincount(_ORBIT4_LUT[mask], minlength=len(ORBIT4_CLASSES))
    for idx, name in enumerate(ORBIT4_CLASSES):
        counts[name] = int(hist[idx])
    return OrbitCensus(counts)


@dataclass(frozen=True)
class WLColoring:
    """Result of iterated color refinement on one graph."""

    iteration: int
    colors: tuple
    histogram: dict


def _joint_refinement(graphs, max_iter):
    """Run WL refinement jointly over several graphs with a shared palette.

    Yields (iteration, per-graph color lists) for iterations 0..max_iter,
    stopping early once the joint partition reaches a fixed point. Initial
    colors are node degrees.
    """
    neighs = [adjacency(g) for g in graphs]
    colors = []
    palette = {}
    for g, neigh in zip(graphs, neighs):
        cs = []
        for v in range(g.num_nodes):
            key = ("deg", len(neigh[v]))
            if key not in palette:
                palette[key] = len(palette)
            cs.append(palette[key])
        colors.append(cs)
    yield 0, colors
    num_classes = len(palette)
    for it in range(1, max_iter + 1):
        palette = {}
        new_colors = []
        for cs, neigh in zip(colors, neighs):
            ns = []
            for v in range(len(cs)):
                key = (cs[v], tuple(sorted(cs[u] for u in neigh[v])))
                if key not in palette:
                    palette[key] = len(palette)
                ns.append(palette[key])
            new_colors.append(ns)
        colors = new_colors
        yield it, colors
        if len(palette) == num_classes:
            return  # fixed point: partition no longer refines
        num_classes = len(palette)


def wl_refine(graph: Graph, max_iter: int) -> WLColoring:
    """Refine node colors up to max_iter rounds, stopping at a fixed point."""
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    last = None
    for it, per_graph in _joint_refinement([graph], max_iter):
        colors = per_graph[0]
        last = WLColoring(iteration=it, colors=tuple(colors), histogram=dict(Counter(colors)))
    return last


def wl_distinguish(graph_a: Graph, graph_b: Graph, max_iter: int) -> bool:
    """True iff the two graphs' color histograms differ within max_iter rounds."""
    sep, _ = wl_first_separation(graph_a, graph_b, max_iter)
    return sep


def wl_first_separation(graph_a: Graph, graph_b: Graph, max_iter: int):
    """(separated, first iteration at which histograms differ or None)."""
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    for it, (ca, cb) in _joint_refinement([graph_a, graph_b], max_iter):
        if Counter(ca) != Counter(cb):
            return True, it
    return False, None


WL_KERNEL_DEPTH_DEFAULT = 3


def wl_histogram_features(graphs, h: int = WL_KERNEL_DEPTH_DEFAULT):
    """Per-iteration color histograms over a shared palette.

    Returns a list of length h+1; element t maps graph index -> Counter of
    colors at iteration t. No early stop: at a fixed point the partition is
    stable, so extra rounds only rename colors and every pairwise histogram
    dot product is unchanged.
    """
    out = []
    seen_iter = -1
    for it, colors in _joint_refinement(graphs, h):
        out.append([Counter(cs) for cs in colors])
        seen_iter = it
    # refinement stopped early; repeat the stable histograms
    while seen_iter < h:
        out.append(out[-1])
        seen_iter += 1
    return out


def wl_subtree_kernel(graph_a: Graph, graph_b: Graph, h: int = WL_KERNEL_DEPTH_DEFAULT) -> float:
    """Sum over iterations 0..h of color-histogram dot products."""
    if h < 0:
        raise ValueError(f"h must be >= 0, got {h}")
    hists = wl_histogram_features([graph_a, graph_b], h)
    total = 0
    for ha, hb in hists:
        total += sum(count * hb.get(color, 0) for color, count in ha.items())
    return float(total)


def wl_kernel_gram(graphs, h: int = WL_KERNEL_DEPTH_DEFAULT) -> np.ndarray:
    """Gram matrix of the WL subtree kernel over a list of graphs.

    Computed from joint-refinement histogram vectors, so it is positive
    semidefinite by construction.
    """
    hists = wl_histogram_features(graphs, h)
    s = len(graphs)
    gram = np.zeros((s, s), dtype=np.float64)
    for level in hists:
        colors = sorted({c for hist in level for c in hist})
        index = {c: i for i, c in enumerate(colors)}
        feats = np.zeros((s, len(colors)), dtype=np.float64)
        for gi, hist in enumerate(level):
            for color, count in hist.items():
                feats[gi, index[color]] = count
        gram += feats @ feats.T
    return gram


FEATURE_CONFIGS = ("none", "degree", "degree+clustering")


def structural_features(graph: Graph, config: str = "none") -> np.ndarray:
    """Node feature matrix built from local statistics.

    none               -> [1.0]
    degree             -> [1.0, deg]
    degree+clustering  -> [1.0, deg, triangle clustering, square clustering]
    """
    if config not in FEATURE_CONFIGS:
        raise ValueError(f"unknown feature config {config!r}, expected one of {FEATURE_CONFIGS}")
    n = graph.num_nodes
    ones = np.ones((n, 1), dtype=np.float64)
    if config == "none":
        return ones
    deg = degrees(graph).astype(np.float64)[:, None]
    if config == "degree":
        return np.hstack([ones, deg])
    c3, c4 = _clustering(graph)
    return np.hstack([ones, deg, c3[:, None], c4[:, None]])


def feature_dim(config: str) -> int:
    return {"none": 1, "degree": 2, "degree+clustering": 4}[config]
