"""Differential tests: the array-backed graph core against the per-edge
oracles in oracles.py, which keep the loop-based implementations."""

import re

import numpy as np
import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ggeval.errors import GGEvalError
from ggeval.graphs import Graph, adjacency
from ggeval.training import edge_drop, induced_subgraph, subgraph_walk

# endpoints reach past both ends of [0, n) so that out-of-range edges and
# self-loops are drawn as well as valid ones
raw_edges = st.lists(st.tuples(st.integers(-2, 13), st.integers(-2, 13)), max_size=40)


@st.composite
def featured_graphs(draw):
    """A valid graph with node features and (sometimes) edge features."""
    n = draw(st.integers(1, 14))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          max_size=40))
    edges = sorted({(min(u, v), max(u, v)) for u, v in pairs if u != v})
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    ef = rng.normal(size=(len(edges), 2)) if draw(st.booleans()) else None
    return Graph(n, edges, node_features=rng.normal(size=(n, 3)), edge_features=ef)


@settings(max_examples=300, deadline=None)
@given(n=st.integers(0, 12), pairs=raw_edges, with_features=st.booleans())
def test_canonicalization_matches_oracle(n, pairs, with_features):
    # row i of the edge features is [i], so the kept rows name their inputs
    ef = np.arange(len(pairs), dtype=np.float64).reshape(-1, 1) if with_features else None
    try:
        edges, kept = oracles.canonical_edges_slow(n, pairs, with_features)
    except GGEvalError as exc:
        for given_edges in (pairs, np.asarray(pairs, dtype=np.int64).reshape(-1, 2)):
            with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
                Graph(n, given_edges, edge_features=ef)
        return
    for given_edges in (pairs, np.asarray(pairs, dtype=np.int64).reshape(-1, 2)):
        g = Graph(n, given_edges, edge_features=ef)
        assert g.edges == edges
        assert g.edge_array().tolist() == [list(e) for e in edges]
        assert g.num_edges == len(edges)
        if with_features:
            assert g.edge_features[:, 0].tolist() == [float(i) for i in kept]


@settings(max_examples=100, deadline=None)
@given(graph=featured_graphs())
def test_adjacency_matches_oracle(graph):
    assert adjacency(graph) == oracles.adjacency_slow(graph)
    indptr, indices = graph.neighbors()
    assert np.diff(indptr).tolist() == [len(x) for x in oracles.adjacency_slow(graph)]
    assert not indptr.flags.writeable and not indices.flags.writeable
    assert graph.neighbors()[1] is indices  # computed once


@settings(max_examples=100, deadline=None)
@given(graph=featured_graphs(), data=st.data())
def test_induced_subgraph_matches_oracle(graph, data):
    nodes = data.draw(st.sets(st.integers(0, graph.num_nodes - 1)))
    assert induced_subgraph(graph, nodes) == oracles.induced_subgraph_slow(graph, nodes)
    arr = np.asarray(sorted(nodes), dtype=np.int64)
    assert induced_subgraph(graph, arr) == oracles.induced_subgraph_slow(graph, arr)


@settings(max_examples=100, deadline=None)
@given(graph=featured_graphs(), seed=st.integers(0, 2**31 - 1),
       p=st.floats(0.0, 1.0), length=st.integers(1, 12))
def test_views_match_oracle_under_fixed_rng(graph, seed, p, length):
    for fast, slow, arg in ((edge_drop, oracles.edge_drop_slow, p),
                            (subgraph_walk, oracles.subgraph_walk_slow, length)):
        rng_fast = np.random.default_rng(seed)
        rng_slow = np.random.default_rng(seed)
        assert fast(graph, arg, rng_fast) == slow(graph, arg, rng_slow)
        # the same draws were consumed
        assert rng_fast.random() == rng_slow.random()


def test_graph_does_not_alias_caller_arrays():
    edges = np.array([[0, 1], [1, 2]], dtype=np.int64)  # already canonical
    nf = np.zeros((3, 2))
    nf_view = nf[:]
    ef = np.array([[1.0], [2.0]])
    g = Graph(3, edges, node_features=nf, edge_features=ef)
    edges[0] = (0, 2)
    nf_view[0, 0] = 5.0
    ef[1, 0] = 7.0
    assert g.edges == ((0, 1), (1, 2))
    assert g.edge_array().tolist() == [[0, 1], [1, 2]]
    assert g.node_features[0, 0] == 0.0
    assert g.edge_features[:, 0].tolist() == [1.0, 2.0]
    assert not g.edge_array().flags.writeable


def test_edges_tuple_is_built_once():
    g = Graph(4, np.array([[2, 1], [0, 3]]))
    assert "edges" not in vars(g)
    assert g.edges == ((0, 3), (1, 2))
    assert g.edges is g.edges
