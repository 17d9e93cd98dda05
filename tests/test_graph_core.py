"""Differential tests: the array-backed graph core against the per-edge
oracles in oracles.py, which keep the loop-based implementations."""

import re

import numpy as np
import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ggeval.errors import GGEvalError
from ggeval.graphs import Graph
from ggeval.training import edge_drop, induced_subgraph, subgraph_walk

# endpoints reach past both ends of [0, n) so that out-of-range edges and
# self-loops are drawn as well as valid ones
raw_edges = st.lists(st.tuples(st.integers(-2, 13), st.integers(-2, 13)), max_size=40)


@st.composite
def featured_graphs(draw):
    """A valid graph with node features."""
    n = draw(st.integers(1, 14))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          max_size=40))
    edges = sorted({(min(u, v), max(u, v)) for u, v in pairs if u != v})
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    return Graph(n, edges, node_features=rng.normal(size=(n, 3)))


def edge_forms(pairs):
    """(the pairs as the oracle reads them, the same pairs in one input form).

    The forms: a list, C- and Fortran-ordered int64 arrays, the columns
    swapped through a reversed view, and uint16 when no endpoint is negative.
    """
    arr = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    forms = [(pairs, pairs), (pairs, arr), (pairs, np.asfortranarray(arr)),
             ([(v, u) for u, v in pairs], arr[:, ::-1])]
    if (arr >= 0).all():
        forms.append((pairs, arr.astype(np.uint16)))
    return forms


@settings(max_examples=300, deadline=None)
@given(n=st.integers(0, 12), pairs=raw_edges)
def test_canonicalization_matches_oracle(n, pairs):
    for oracle_pairs, given_edges in edge_forms(pairs):
        try:
            edges = oracles.canonical_edges_slow(n, oracle_pairs)
        except GGEvalError as exc:
            with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
                Graph(n, given_edges)
            continue
        g = Graph(n, given_edges)
        assert g.edges.tolist() == [list(e) for e in edges]
        assert g.num_edges == len(edges)


@settings(max_examples=100, deadline=None)
@given(n=st.integers(0, 14), data=st.data())
def test_adjacency_matches_oracle(n, data):
    # n = 0 is the empty graph; few edges leave some nodes isolated
    pairs = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                               max_size=3 * n)) if n else []
    graph = Graph(n, [(u, v) for u, v in pairs if u != v])
    nbrs = graph.neighbors()
    assert type(nbrs) is tuple and all(type(x) is tuple for x in nbrs)
    assert nbrs == tuple(map(tuple, oracles.adjacency_slow(graph)))
    assert graph.neighbors() is nbrs  # computed once


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
    g = Graph(3, edges, node_features=nf)
    edges[0] = (0, 2)
    nf_view[0, 0] = 5.0
    assert g.edges.tolist() == [[0, 1], [1, 2]]
    assert g.node_features[0, 0] == 0.0
    assert not g.edges.flags.writeable


def test_edges_is_the_canonical_array():
    pairs = [(2, 1), (0, 3), (1, 2)]
    g = Graph(4, pairs)
    assert isinstance(g.edges, np.ndarray)
    assert g.edges.dtype == np.int64 and g.edges.shape == (2, 2)
    assert g.edges.tolist() == [[0, 3], [1, 2]]
    assert not g.edges.flags.writeable
    with pytest.raises(ValueError):
        g.edges[0, 0] = 1
    np.testing.assert_array_equal(Graph(4, np.array(pairs)).edges, g.edges)
    for empty in (Graph(4), Graph(4, []), Graph(4, np.zeros((0, 2), np.int64))):
        assert empty.edges.dtype == np.int64 and empty.edges.shape == (0, 2)
