import numpy as np
import oracles
import pytest

import ggeval.generators as generators
from ggeval.features import degrees
from ggeval.generators import (
    COMMUNITY_NODE_RANGE,
    DATASET_COUNTS,
    GRID_NODE_RANGE,
    LOBSTER_NODE_RANGE,
    gen_community,
    gen_cycle_pair,
    gen_dataset,
    gen_er,
    gen_grid,
    gen_lobster,
    substream,
)


def test_substream_deterministic_and_independent():
    a = substream(7, 1, 2).random(4)
    b = substream(7, 1, 2).random(4)
    c = substream(7, 1, 3).random(4)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


def test_er_extremes():
    assert gen_er(6, 0.0, substream(0)).num_edges == 0
    assert gen_er(6, 1.0, substream(0)).num_edges == 15
    assert gen_er(1, 0.5, substream(0)).num_edges == 0
    assert gen_er(0, 0.5, substream(0)).num_nodes == 0


def test_er_probability_validated():
    with pytest.raises(ValueError):
        gen_er(5, 1.5, substream(0))


@pytest.mark.parametrize("p", [0.0, 0.05, 0.3, 1.0])
def test_er_matches_triu_oracle(p):
    for n in [*range(40), 61, 100, 160]:
        assert gen_er(n, p, substream(4, n)) == oracles.gen_er_slow(n, p, substream(4, n))


@pytest.mark.parametrize("size, error", [(True, TypeError), (4.0, TypeError), (-2, ValueError)])
def test_er_and_community_sizes_checked(size, error):
    # gen_er(True, ...) used to return a 1-node graph, and gen_community(4.0)
    # to name the half in "num_nodes must be an integer, got 2.0"
    with pytest.raises(error, match="^n must be "):
        gen_er(size, 0.5, substream(0))
    with pytest.raises(error, match="^num_nodes must be "):
        gen_community(size, substream(0))


def test_er_edge_count_near_expectation():
    g = gen_er(60, 0.3, substream(1))
    expected = 0.3 * 60 * 59 / 2
    assert abs(g.num_edges - expected) < 4 * np.sqrt(expected)


def test_community_structure():
    n = 40
    g = gen_community(n, rng=substream(2))
    half = n // 2
    inter = [(u, v) for u, v in g.edges.tolist() if u < half <= v]
    assert len(inter) == round(0.05 * n)
    assert len(set(inter)) == len(inter)


def test_community_odd_nodes_rejected():
    with pytest.raises(ValueError):
        gen_community(41, substream(0))


def test_community_matches_block_graph_oracle():
    # sizes 0 and 2 have blocks too small to draw from
    for n in range(0, 201, 2):
        for key in (0, 1, 2):
            rng, rng_slow = substream(9, n, key), substream(9, n, key)
            assert gen_community(n, rng) == oracles.gen_community_slow(n, rng_slow), (n, key)
            assert rng.random() == rng_slow.random()  # the same draws were consumed


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_community_dataset_matches_block_graph_oracle(seed):
    expected = []
    for i in range(200):
        rng = substream(seed, i)
        n = generators._sample_even(rng, *COMMUNITY_NODE_RANGE)
        expected.append(oracles.gen_community_slow(n, rng))
    assert tuple(gen_dataset("community", 200, seed=seed)) == tuple(expected)


def test_grid_shape_and_degrees():
    g = gen_grid(3, 5)
    assert g.num_nodes == 15
    assert g.num_edges == 3 * 4 + 5 * 2
    deg = degrees(g)
    assert sorted(np.unique(deg).tolist()) == [2, 3, 4]
    assert (deg == 2).sum() == 4  # corners
    g1 = gen_grid(1, 4)
    assert g1.num_edges == 3


def test_grid_validation():
    with pytest.raises(ValueError):
        gen_grid(0, 3)


def _prune_leaves(num_nodes, edge_set):
    deg = {}
    for u, v in edge_set:
        deg[u] = deg.get(u, 0) + 1
        deg[v] = deg.get(v, 0) + 1
    leaves = {v for v in range(num_nodes) if deg.get(v, 0) <= 1}
    return {(u, v) for u, v in edge_set if u not in leaves and v not in leaves}


def test_lobster_is_lobster():
    # removing leaves twice must leave a path (possibly empty)
    for seed in range(5):
        g = gen_lobster(rng=substream(seed))
        assert LOBSTER_NODE_RANGE[0] <= g.num_nodes <= LOBSTER_NODE_RANGE[1]
        edges = _prune_leaves(g.num_nodes, {(u, v) for u, v in g.edges.tolist()})
        edges = _prune_leaves(g.num_nodes, edges)
        deg = {}
        for u, v in edges:
            deg[u] = deg.get(u, 0) + 1
            deg[v] = deg.get(v, 0) + 1
        assert all(d <= 2 for d in deg.values())
        assert len(edges) == 0 or len(edges) == len(deg) - 1  # path, not cycle


def test_lobster_connected():
    g = gen_lobster(rng=substream(9))
    neigh = g.neighbors()
    seen = {0}
    stack = [0]
    while stack:
        for u in neigh[stack.pop()]:
            if u not in seen:
                seen.add(u)
                stack.append(u)
    assert len(seen) == g.num_nodes


def test_lobster_matches_scalar_oracle():
    for seed in (0, 4, 5, 6, 7):
        for i in range(200):
            expected = oracles.gen_lobster_slow(substream(seed, i))
            assert gen_lobster(substream(seed, i)) == expected, (seed, i)


@pytest.mark.parametrize("block", [1, 7])
def test_lobster_small_blocks_match_scalar_oracle(block, monkeypatch):
    # blocks then end inside attempts and right after a backbone draw, so the
    # tail an attempt leaves unread must carry over to the next one
    monkeypatch.setattr(generators, "LOBSTER_BLOCK", block)
    for i in range(40):
        assert gen_lobster(substream(8, i)) == oracles.gen_lobster_slow(substream(8, i)), i


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_lobster_dataset_matches_scalar_oracle(seed):
    # the benchmark's sweep_lobster pools
    expected = tuple(oracles.gen_lobster_slow(substream(seed, i)) for i in range(200))
    assert tuple(gen_dataset("lobster", 200, seed=seed)) == expected


def test_cycle_pair_structure():
    g = gen_cycle_pair(5, 8)
    assert g.num_nodes == 13
    assert g.num_edges == 14
    deg = degrees(g)
    assert sorted(deg.tolist()) == [2] * 11 + [3, 3]
    assert deg[0] == 3 and deg[5] == 3
    assert [0, 5] in g.edges.tolist()


def test_cycle_pair_validation():
    with pytest.raises(ValueError):
        gen_cycle_pair(2, 5)


@pytest.mark.parametrize("recipe", sorted(DATASET_COUNTS))
def test_dataset_counts_and_sizes(recipe):
    gs = gen_dataset(recipe, count=5, seed=0)
    assert gs.name == f"{recipe}-seed0"
    assert len(gs) == 5
    lo, hi = {
        "community": COMMUNITY_NODE_RANGE,
        "grid": GRID_NODE_RANGE,
        "lobster": LOBSTER_NODE_RANGE,
    }[recipe]
    for g in gs:
        assert lo <= g.num_nodes <= hi


def test_dataset_default_counts():
    assert DATASET_COUNTS == {"lobster": 100, "grid": 100, "community": 500}


def test_dataset_deterministic():
    a = gen_dataset("lobster", count=4, seed=3)
    b = gen_dataset("lobster", count=4, seed=3)
    c = gen_dataset("lobster", count=4, seed=4)
    assert a == b
    assert a != c


def test_dataset_prefix_stable():
    # per-graph substreams: growing the set keeps earlier graphs unchanged
    small = gen_dataset("community", count=3, seed=1)
    big = gen_dataset("community", count=6, seed=1)
    assert tuple(small) == tuple(big)[:3]


def test_dataset_unknown_recipe():
    with pytest.raises(ValueError):
        gen_dataset("mystery")


@pytest.mark.parametrize("count", [0, -3, 2.5, True])
def test_dataset_count_below_one_rejected(count):
    # a float count used to fail in range(), and True to build one graph
    if type(count) is int:
        error, message = ValueError, f"count must be >= 1, got {count}"
    else:
        error, message = TypeError, "count must be an integer"
    with pytest.raises(error, match=message):
        gen_dataset("lobster", count=count)
