"""Local graph statistics: degrees, triangle and square clustering, 4-node
orbit census, and Weisfeiler-Lehman color refinement with its subtree-kernel
Gram matrix.

These are the "traditional" descriptors used three ways: as encoder input
features, as the WL-kernel clustering behind the mode perturbations, and as
the local-metric side of the distinguishability checks.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .errors import CensusTooLargeError, require_integer
from .graphs import Graph

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

# The sorted degree sequence alone names each of the 11 classes (it also
# fixes the edge count, as half its sum).
_CLASS_BY_DEGREES = {
    (3, 3, 3, 3): "a",
    (2, 2, 3, 3): "b",
    (2, 2, 2, 2): "c",
    (1, 2, 2, 3): "d",
    (0, 2, 2, 2): "e",
    (1, 1, 1, 3): "f",
    (0, 0, 1, 1): "g",
    (1, 1, 1, 1): "h",
    (0, 1, 1, 2): "i",
    (1, 1, 2, 2): "j",
    (0, 0, 0, 0): "k",
}


def _mask_degrees(mask):
    deg = [0, 0, 0, 0]
    for bit, (u, v) in enumerate(_PAIRS):
        if mask >> bit & 1:
            deg[u] += 1
            deg[v] += 1
    return tuple(sorted(deg))


# 6-bit induced-edge mask -> isomorphism class index.
_ORBIT4_LUT = np.array(
    [ORBIT4_CLASSES.index(_CLASS_BY_DEGREES[_mask_degrees(m)]) for m in range(64)],
    dtype=np.int64,
)

# Direct enumeration of all 4-subsets; graphs above this size are refused.
ORBIT_CENSUS_MAX_NODES = 60


@dataclass(frozen=True)
class OrbitCensus:
    """Counts of the 11 induced 4-node subgraph classes."""

    class_counts: tuple  # in ORBIT4_CLASSES order

    @property
    def counts(self) -> MappingProxyType:
        """Read-only mapping of class letter -> count."""
        return MappingProxyType(dict(zip(ORBIT4_CLASSES, self.class_counts)))


def degrees(graph: Graph) -> np.ndarray:
    """Per-node degrees; sums to 2|E|."""
    return np.bincount(graph.edges.ravel(), minlength=graph.num_nodes)


def _adjacency_matrix(graph: Graph) -> np.ndarray:
    a = np.zeros((graph.num_nodes, graph.num_nodes), dtype=np.float64)
    e = graph.edges
    a[e[:, 0], e[:, 1]] = 1.0
    a[e[:, 1], e[:, 0]] = 1.0
    return a


def clustering(graph: Graph):
    """(triangle, square) clustering vectors, as closed forms on A and A @ A.

    Triangle clustering of v is the density of edges among pairs of v's
    neighbors; 0 when deg(v) < 2. Square clustering of v sums, over
    unordered neighbor pairs (u, w) of v, the numerator
    q_v(u, w) = |common neighbors of u and w, excluding v| and the
    denominator deg(u) + deg(w) - q_v(u, w) - 2*[u adjacent to w]; nodes
    whose denominator is 0 (fewer than two neighbors, or isolated pairs)
    get value 0.

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
    if n < 4:
        return OrbitCensus((0,) * len(ORBIT4_CLASSES))
    quads = np.array(list(itertools.combinations(range(n), 4)), dtype=np.int64)
    adj = _adjacency_matrix(graph).astype(bool)
    mask = np.zeros(len(quads), dtype=np.int64)
    for bit, (i, j) in enumerate(_PAIRS):
        mask |= adj[quads[:, i], quads[:, j]].astype(np.int64) << bit
    hist = np.bincount(_ORBIT4_LUT[mask], minlength=len(ORBIT4_CLASSES))
    return OrbitCensus(tuple(hist.tolist()))


def _joint_refinement(graphs, max_iter):
    """Run WL refinement jointly over several graphs with a shared palette.

    Yields (iteration, per-graph color lists) for iterations 0..max_iter,
    stopping early once the joint partition reaches a fixed point. Initial
    colors are node degrees.
    """
    neighs = [g.neighbors() for g in graphs]
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


def wl_first_separation(graph_a: Graph, graph_b: Graph, max_iter: int):
    """(separated, first iteration at which histograms differ or None)."""
    max_iter = require_integer("max_iter", max_iter, 1)
    for it, (ca, cb) in _joint_refinement([graph_a, graph_b], max_iter):
        if Counter(ca) != Counter(cb):
            return True, it
    return False, None


WL_KERNEL_DEPTH_DEFAULT = 3


def wl_kernel_gram(graphs, h: int = WL_KERNEL_DEPTH_DEFAULT) -> np.ndarray:
    """Gram matrix of the WL subtree kernel over a list of graphs.

    Sums, over iterations 0..h, the Gram matrix of per-graph color
    histograms over the joint refinement's shared palette, so it is
    positive semidefinite by construction. Once refinement reaches a fixed
    point, further rounds only rename colors and leave every histogram dot
    product unchanged, so the last level is counted for the rounds left.
    """
    h = require_integer("h", h, 0)
    s = len(graphs)
    owner = np.repeat(np.arange(s), [g.num_nodes for g in graphs])
    gram = np.zeros((s, s), dtype=np.float64)
    for it, colors in _joint_refinement(graphs, h):
        # palette ids are dense, 0..P-1 at every level
        flat = np.fromiter(itertools.chain.from_iterable(colors), dtype=np.int64,
                           count=len(owner))
        p = int(flat.max()) + 1 if flat.size else 0
        feats = np.bincount(owner * p + flat, minlength=s * p).reshape(s, p).astype(np.float64)
        level = feats @ feats.T
        gram += level
    for _ in range(h - it):
        gram += level
    return gram


FEATURE_CONFIGS = ("none", "degree", "degree+clustering")


def structural_features(graph: Graph, config: str = "none") -> np.ndarray:
    """Read-only node feature matrix built from local statistics.

    none               -> [1.0]
    degree             -> [1.0, deg]
    degree+clustering  -> [1.0, deg, triangle clustering, square clustering]

    Computed once per graph and selector and cached on the graph, like
    ``Graph.neighbors()``: every later call returns the same array.
    """
    if config not in FEATURE_CONFIGS:
        raise ValueError(f"unknown feature config {config!r}, expected one of {FEATURE_CONFIGS}")
    cache = graph.__dict__.setdefault("_structural_features", {})
    feats = cache.get(config)
    if feats is None:
        columns = [np.ones(graph.num_nodes)]
        if config != "none":
            columns.append(degrees(graph).astype(np.float64))
        if config == "degree+clustering":
            columns.extend(clustering(graph))
        feats = np.column_stack(columns)
        feats.flags.writeable = False
        cache[config] = feats
    return feats


def feature_dim(config: str) -> int:
    return {"none": 1, "degree": 2, "degree+clustering": 4}[config]
