"""Synthetic graph generators: ER, two-block community, 2D grid, lobster,
and the bridged cycle-pair construction, plus whole-dataset recipes.

Reproducibility contract: all randomness flows through numpy Generators
seeded from a SeedSequence. substream(seed, *key) derives independent,
platform-stable streams; dataset recipes use key (graph_index,) per graph,
so generation is order-independent and parallelizable.
"""

from __future__ import annotations

import numpy as np

from .graphs import Graph, GraphSet

COMMUNITY_NODE_RANGE = (60, 160)
GRID_NODE_RANGE = (100, 400)
GRID_SIDE_RANGE = (10, 20)
LOBSTER_NODE_RANGE = (10, 100)
# edge probability inside each community block, and cross edges per node
COMMUNITY_P = 0.3
COMMUNITY_INTER_FRAC = 0.05
# mean backbone length, and the continue probability of each pendant level
LOBSTER_BACKBONE = 80
LOBSTER_P1 = 0.7
LOBSTER_P2 = 0.7
DATASET_COUNTS = {"lobster": 100, "grid": 100, "community": 500}


def substream(seed, *key) -> np.random.Generator:
    """Independent generator for (seed, key); same inputs -> same stream."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=key)))


def rng_from(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))


def gen_er(n: int, p: float, rng) -> Graph:
    """Erdos-Renyi G(n, p): each of the C(n,2) edges kept with probability p."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"edge probability must be in [0,1], got {p}")
    rng = rng_from(rng)
    if n < 2:
        return Graph(n)
    iu, iv = np.triu_indices(n, k=1)
    keep = rng.random(iu.size) < p
    return Graph(n, edges=np.column_stack((iu[keep], iv[keep])))


def gen_community(num_nodes: int, rng=0) -> Graph:
    """Two disjoint ER(n/2, COMMUNITY_P) blocks joined by cross edges.

    The round(COMMUNITY_INTER_FRAC * n) cross edges are distinct pairs drawn
    uniformly from the (n/2)^2 block pairs; for every even n there are at
    least that many pairs.
    """
    if num_nodes % 2 != 0:
        raise ValueError(f"num_nodes must be even, got {num_nodes}")
    rng = rng_from(rng)
    half = num_nodes // 2
    num_inter = int(round(COMMUNITY_INTER_FRAC * num_nodes))
    blocks = [gen_er(half, COMMUNITY_P, rng).edges + offset for offset in (0, half)]
    cross = rng.choice(half * half, size=num_inter, replace=False)
    blocks.append(np.column_stack((cross // half, half + cross % half)))
    return Graph(num_nodes, edges=np.concatenate(blocks))


def gen_grid(rows: int, cols: int) -> Graph:
    """2D lattice with rows*cols nodes and rows*(cols-1)+cols*(rows-1) edges."""
    if rows < 1 or cols < 1:
        raise ValueError("grid dimensions must be >= 1")
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1))
            if r + 1 < rows:
                edges.append((v, v + cols))
    return Graph(rows * cols, edges=edges)


def gen_lobster(rng=0) -> Graph:
    """Stochastic lobster: path backbone with two levels of pendant nodes.

    Backbone length is uniform with mean LOBSTER_BACKBONE; each backbone
    node gains a geometric number of first-level pendants (continue with
    probability LOBSTER_P1), each of which gains second-level pendants
    likewise with LOBSTER_P2. Every node ends within 2 hops of the
    backbone. Draws are rejected until the node count lands in
    LOBSTER_NODE_RANGE, matching the size-capped recipes these graphs are
    usually built with.
    """
    lo, hi = LOBSTER_NODE_RANGE
    # the pendant loops draw once per node; locals are read faster than globals
    p_first, p_second = LOBSTER_P1, LOBSTER_P2
    rng = rng_from(rng)
    for _ in range(10_000):
        backbone = int(2 * rng.random() * LOBSTER_BACKBONE + 0.5)
        backbone = max(backbone, 2)
        edges = [(i, i + 1) for i in range(backbone - 1)]
        total = backbone
        for node in range(backbone):
            while rng.random() < p_first:
                first = total
                total += 1
                edges.append((node, first))
                while rng.random() < p_second:
                    edges.append((first, total))
                    total += 1
        if lo <= total <= hi:
            return Graph(total, edges=edges)
    raise RuntimeError("lobster sampling failed to land in the size range")


def gen_cycle_pair(a: int, b: int) -> Graph:
    """An a-cycle and a b-cycle joined by a single bridge edge.

    Nodes 0..a-1 form the first cycle, a..a+b-1 the second; the bridge
    connects node 0 to node a. The result has a+b nodes, a+b+1 edges, and
    exactly two nodes of degree 3.
    """
    if a < 3 or b < 3:
        raise ValueError(f"cycle sizes must be >= 3, got ({a},{b})")
    edges = [(i, (i + 1) % a) for i in range(a)]
    edges += [(a + i, a + (i + 1) % b) for i in range(b)]
    edges.append((0, a))
    return Graph(a + b, edges=edges)


def _sample_even(rng, lo, hi):
    """Uniform over even integers in [lo, hi]."""
    lo_half = (lo + 1) // 2
    hi_half = hi // 2
    if lo_half > hi_half:
        raise ValueError(f"node range [{lo}, {hi}] holds no even node count")
    return 2 * int(rng.integers(lo_half, hi_half + 1))


def gen_dataset(recipe: str, count: int | None = None, seed: int = 0) -> GraphSet:
    """Generate a named dataset; sizes are sampled inside the recipe ranges.

    recipe in {"lobster", "grid", "community"}. Each graph draws from its
    own substream keyed by index, so the set is deterministic per seed.
    """
    if recipe not in DATASET_COUNTS:
        raise ValueError(f"unknown recipe {recipe!r}, expected one of {sorted(DATASET_COUNTS)}")
    if count is None:
        count = DATASET_COUNTS[recipe]
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    graphs = []
    for i in range(count):
        rng = substream(seed, i)
        if recipe == "community":
            n = _sample_even(rng, *COMMUNITY_NODE_RANGE)
            graphs.append(gen_community(n, rng=rng))
        elif recipe == "grid":
            lo, hi = GRID_SIDE_RANGE
            while True:
                rows = int(rng.integers(lo, hi + 1))
                cols = int(rng.integers(lo, hi + 1))
                if GRID_NODE_RANGE[0] <= rows * cols <= GRID_NODE_RANGE[1]:
                    break
            graphs.append(gen_grid(rows, cols))
        else:
            graphs.append(gen_lobster(rng=rng))
    return GraphSet(f"{recipe}-seed{seed}", tuple(graphs))
