"""Synthetic graph generators: ER, two-block community, 2D grid, lobster,
and the bridged cycle-pair construction, plus whole-dataset recipes.

Reproducibility contract: every generator that draws takes a numpy
Generator, never an integer seed. substream(seed, *key) derives independent,
platform-stable streams; dataset recipes use key (graph_index,) per graph,
so generation is order-independent and parallelizable. A graph depends only
on the draws it uses, in the order it uses them, not on how many doubles
are read from the stream per call: rng.random(size) returns the doubles
that as many scalar rng.random() calls would. gen_lobster reads ahead in
blocks, so it may leave rng further advanced than the draws it used; give
each lobster a fresh substream, as gen_dataset does.
"""

from __future__ import annotations

import numpy as np

from .errors import require_integer
from .graphs import Graph, GraphSet

COMMUNITY_NODE_RANGE = (60, 160)
GRID_NODE_RANGE = (100, 400)
GRID_SIDE_RANGE = (10, 20)
LOBSTER_NODE_RANGE = (10, 100)
# edge probability inside each community block, and cross edges per node
COMMUNITY_P = 0.3
COMMUNITY_INTER_FRAC = 0.05
# mean backbone length, and the continue probability of both pendant levels
LOBSTER_BACKBONE = 80
LOBSTER_P = 0.7
# doubles gen_lobster reads from rng per call; an attempt uses about 900
LOBSTER_BLOCK = 4096
DATASET_COUNTS = {"lobster": 100, "grid": 100, "community": 500}


def substream(seed, *key) -> np.random.Generator:
    """Independent generator for (seed, key); same inputs -> same stream."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=key)))


def gen_er(n: int, p: float, rng) -> Graph:
    """Erdos-Renyi G(n, p): each of the C(n,2) edges kept with probability p.

    One draw per pair (i, j), i < j, in row-major order.
    """
    n = require_integer("n", n, 0)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"edge probability must be in [0,1], got {p}")
    return Graph(n, edges=_er_edges(n, p, rng))


def _er_edges(n: int, p: float, rng) -> np.ndarray:
    """gen_er's edge array, already canonical: its kept pairs in row-major order."""
    if n < 2:
        return np.empty((0, 2), dtype=np.int64)
    kept = np.flatnonzero(rng.random(n * (n - 1) // 2) < p)
    # row i holds the pairs (i, i+1..n-1) and starts at flat index starts[i]
    rows = np.arange(n - 1)
    starts = rows * (2 * n - rows - 1) // 2
    iu = np.searchsorted(starts, kept, side="right") - 1
    return np.column_stack((iu, kept - starts[iu] + iu + 1))


def gen_community(num_nodes: int, rng) -> Graph:
    """Two disjoint ER(n/2, COMMUNITY_P) blocks joined by cross edges.

    The blocks draw as gen_er does, the first block first. The
    round(COMMUNITY_INTER_FRAC * n) cross edges are distinct pairs drawn
    uniformly from the (n/2)^2 block pairs; for every even n there are at
    least that many pairs.
    """
    num_nodes = require_integer("num_nodes", num_nodes, 0)
    if num_nodes % 2 != 0:
        raise ValueError(f"num_nodes must be even, got {num_nodes}")
    half = num_nodes // 2
    num_inter = int(round(COMMUNITY_INTER_FRAC * num_nodes))
    blocks = [_er_edges(half, COMMUNITY_P, rng) + offset for offset in (0, half)]
    cross = rng.choice(half * half, size=num_inter, replace=False)
    blocks.append(np.column_stack((cross // half, half + cross % half)))
    return Graph(num_nodes, edges=np.concatenate(blocks))


def gen_grid(rows: int, cols: int) -> Graph:
    """2D lattice with rows*cols nodes and rows*(cols-1)+cols*(rows-1) edges."""
    rows = require_integer("rows", rows, 1)
    cols = require_integer("cols", cols, 1)
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1))
            if r + 1 < rows:
                edges.append((v, v + cols))
    return Graph(rows * cols, edges=edges)


def gen_lobster(rng) -> Graph:
    """Stochastic lobster: path backbone with two levels of pendant nodes.

    Backbone length is uniform with mean LOBSTER_BACKBONE; each backbone
    node gains a geometric number of first-level pendants (continue with
    probability LOBSTER_P), each of which gains second-level pendants
    likewise. Every node ends within 2 hops of the backbone. Draws are
    rejected until the node count lands in LOBSTER_NODE_RANGE, matching
    the size-capped recipes these graphs are usually built with.

    Each attempt uses one draw for the backbone length, then one draw per
    pendant decision; draw u continues the current level when
    u < LOBSTER_P. A draw is in backbone state when it is the attempt's
    first pendant draw or the draw before it failed; a failure there
    closes the current backbone node, so the attempt ends at its
    backbone-th such failure. Draws are read LOBSTER_BLOCK at a time and
    the unused tail carries on to the next attempt, so the graph is the
    one that one scalar draw per decision gives, but rng may end further
    advanced (see the module docstring). Edges are built only for the
    accepted attempt.
    """
    lo, hi = LOBSTER_NODE_RANGE
    draws = np.empty(0)
    for _ in range(10_000):
        if draws.size == 0:
            draws = rng.random(LOBSTER_BLOCK)
        backbone = max(int(2 * draws[0] * LOBSTER_BACKBONE + 0.5), 2)
        draws = draws[1:]
        while True:
            fails = draws >= LOBSTER_P
            closes = fails.copy()
            closes[1:] &= fails[:-1]
            closed = np.cumsum(closes)
            if closed.size and closed[-1] >= backbone:
                break
            # grow geometrically, so a small block still reads in linear time
            draws = np.concatenate((draws, rng.random(max(LOBSTER_BLOCK, draws.size))))
        end = int(np.searchsorted(closed, backbone)) + 1
        fails, closed = fails[:end], closed[:end]
        draws = draws[end:]
        total = backbone + end - int(np.count_nonzero(fails))
        if lo <= total <= hi:
            return _lobster_graph(backbone, total, fails, closed)
    raise RuntimeError("lobster sampling failed to land in the size range")


def _lobster_graph(backbone, total, fails, closed) -> Graph:
    """The accepted attempt's lobster from its per-draw failure flags.

    Each success is a new node, numbered in draw order after the backbone.
    A success in backbone state hangs off the current backbone node, the
    count of backbone-state failures up to it (closed); any other success
    hangs off the latest first-level node.
    """
    succeeds = ~fails
    in_backbone = np.ones_like(fails)
    in_backbone[1:] = fails[:-1]
    node = backbone - 1 + np.cumsum(succeeds)
    first = np.maximum.accumulate(np.where(succeeds & in_backbone, node, 0))
    parent = np.where(in_backbone, closed, first)
    path = np.arange(backbone - 1)
    edges = np.concatenate((np.column_stack((path, path + 1)),
                            np.column_stack((parent[succeeds], node[succeeds]))))
    return Graph(total, edges=edges)


def gen_cycle_pair(a: int, b: int) -> Graph:
    """An a-cycle and a b-cycle joined by a single bridge edge.

    Nodes 0..a-1 form the first cycle, a..a+b-1 the second; the bridge
    connects node 0 to node a. The result has a+b nodes, a+b+1 edges, and
    exactly two nodes of degree 3.
    """
    a = require_integer("a", a, 3)
    b = require_integer("b", b, 3)
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
    count = require_integer("count", count, 1)
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
