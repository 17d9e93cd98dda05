import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ggeval.errors import (
    EndpointOutOfRangeError,
    InvariantViolationError,
    ParseError,
    SelfLoopError,
)
from ggeval.graphs import (
    Graph,
    GraphSet,
    atomic_write_text,
    load_graphs,
    save_graphs,
)


def test_edges_canonicalized():
    g = Graph(5, edges=[(3, 1), (0, 2), (1, 3), (2, 0), (4, 0)])
    assert g.edges.tolist() == [[0, 2], [0, 4], [1, 3]]
    assert g.num_edges == 3


def test_edge_array_shape():
    g = Graph(3, edges=[(0, 1)])
    assert g.edges.shape == (1, 2)
    assert Graph(3).edges.shape == (0, 2)


def test_self_loop_rejected():
    with pytest.raises(SelfLoopError):
        Graph(3, edges=[(1, 1)])


def test_out_of_range_rejected():
    with pytest.raises(EndpointOutOfRangeError):
        Graph(3, edges=[(0, 3)])
    with pytest.raises(EndpointOutOfRangeError):
        Graph(3, edges=[(-1, 2)])


def test_uint64_endpoints_reported_as_given():
    # past the int64 range the endpoints wrap to negative values, which
    # are rejected; the message still names the caller's values
    big = 2**64 - 1
    with pytest.raises(EndpointOutOfRangeError, match=rf"^edge \(0,{big}\) outside \[0,3\)$"):
        Graph(3, np.array([[0, big]], dtype=np.uint64))
    with pytest.raises(SelfLoopError, match=f"^self-loop at node {big}$"):
        Graph(3, np.array([[1, 2], [big, big]], dtype=np.uint64))


def test_negative_num_nodes_rejected():
    with pytest.raises(InvariantViolationError):
        Graph(-1)


@pytest.mark.parametrize("args", [
    (2.9,), (np.float64(3.0),), (3, [[0, 1.7]]), (3, np.array([[0, 1]], dtype=np.float64)),
    (3, [[True, False]]), (3, np.array([[0, 1]], dtype=object)),
])
def test_non_integer_input_rejected(args):
    # converting would truncate: Graph(2.9) would hold 2 nodes, [[0, 1.7]] the edge (0, 1)
    with pytest.raises(InvariantViolationError, match="integer"):
        Graph(*args)


def test_integer_and_empty_input_accepted():
    g = Graph(np.int32(3), np.array([[2, 0]], dtype=np.uint8))
    assert type(g.num_nodes) is int and g.num_nodes == 3
    assert g.edges.dtype == np.int64 and g.edges.tolist() == [[0, 2]]
    for empty in ((), [], np.empty((0, 2))):
        assert Graph(3, empty).edges.shape == (0, 2)


def test_node_feature_validation():
    Graph(2, edges=[(0, 1)], node_features=[[1.0], [2.0]])
    with pytest.raises(InvariantViolationError):
        Graph(2, node_features=[[1.0]])  # wrong row count
    with pytest.raises(InvariantViolationError):
        Graph(2, node_features=[[1.0], [np.nan]])
    with pytest.raises(InvariantViolationError):
        Graph(2, node_features=[1.0, 2.0])  # not 2-D


def test_features_are_readonly():
    g = Graph(2, node_features=[[1.0], [2.0]])
    with pytest.raises(ValueError):
        g.node_features[0, 0] = 5.0


def test_graph_equality_and_hash():
    a = Graph(3, edges=[(0, 1)])
    b = Graph(3, edges=[(1, 0)])
    assert a == b
    assert hash(a) == hash(b)
    assert a != Graph(3, edges=[(0, 2)])
    assert a != Graph(3, edges=[(0, 1)], node_features=np.ones((3, 1)))


def test_canonicalize_idempotent():
    g = Graph(4, edges=[(2, 1), (0, 3)])
    assert Graph(g.num_nodes, g.edges) == g


def test_adjacency_symmetric_and_sorted():
    g = Graph(4, edges=[(0, 2), (0, 1), (2, 3)])
    neigh = g.neighbors()
    assert neigh == ((1, 2), (0,), (0, 3), (2,))
    for u in range(4):
        for v in neigh[u]:
            assert u in neigh[v]
    assert Graph(0).neighbors() == ()
    assert Graph(4, [(3, 1)]).neighbors() == ((), (3,), (), (1,))  # isolated nodes


def test_graphset_basics():
    gs = GraphSet("s", (Graph(2), Graph(3)))
    assert len(gs) == 2
    assert gs[1].num_nodes == 3
    assert [g.num_nodes for g in gs] == [2, 3]
    replaced = gs.replace([Graph(5)])
    assert replaced.name == "s" and len(replaced) == 1


def test_graphset_rejects_empty_and_nongraph():
    with pytest.raises(InvariantViolationError):
        GraphSet("s", ())
    with pytest.raises(InvariantViolationError):
        GraphSet("s", (Graph(2), "nope"))


def test_jsonl_round_trip_exact(tmp_path):
    rng = np.random.default_rng(0)
    graphs = [
        Graph(3, edges=[(0, 1)], node_features=rng.normal(size=(3, 2))),
        Graph(4, edges=[(0, 1), (2, 3)], node_features=rng.normal(size=(4, 1))),
        Graph(1),
    ]
    gs = GraphSet("trip", tuple(graphs))
    path = tmp_path / "trip.jsonl"
    save_graphs(gs, path)
    back = load_graphs(path)
    assert back.name == "trip"
    assert len(back) == 3
    for orig, loaded in zip(gs, back):
        assert loaded == orig  # includes bit-exact feature comparison
    assert [list(json.loads(line)) for line in path.read_text().splitlines()] == [
        ["n", "edges", "x"]] * 3

    # files written before edge features were removed hold "e": null
    old = tmp_path / "old.jsonl"
    old.write_text('{"n": 3, "edges": [[1, 0]], "x": [[0.5], [1.5], [2.5]], "e": null}\n')
    loaded = load_graphs(old)
    assert loaded[0] == Graph(3, edges=[(0, 1)], node_features=[[0.5], [1.5], [2.5]])
    save_graphs(loaded, old)
    assert json.loads(old.read_text()) == {
        "n": 3, "edges": [[0, 1]], "x": [[0.5], [1.5], [2.5]]}


@pytest.mark.parametrize(
    "line",
    [
        "not json",
        '{"edges": []}',  # missing n
        '{"n": 2}',  # missing edges
        '{"n": "2", "edges": []}',
        '{"n": 2, "edges": [[0]]}',
        '{"n": 2, "edges": [[0, 1.5]]}',
        '[1, 2]',
    ],
)
def test_parse_errors(tmp_path, line):
    path = tmp_path / "bad.jsonl"
    path.write_text(line + "\n")
    with pytest.raises(ParseError):
        load_graphs(path)


MALFORMED_FEATURES = {
    "ragged x": b'{"n": 2, "edges": [[0, 1]], "x": [[1.0], [2.0, 3.0]]}',
    "non-numeric x": b'{"n": 2, "edges": [[0, 1]], "x": "ab"}',
    "object x": b'{"n": 2, "edges": [[0, 1]], "x": {"a": 1}}',
    # graphs carry no edge features; only a null "e" from older files loads
    "non-null e": b'{"n": 3, "edges": [[0, 1], [1, 2]], "e": [[1.0], [2.0]]}',
    # a misspelled key is not dropped in silence
    "unknown key X": b'{"n": 2, "edges": [[0, 1]], "X": [[1.0], [2.0]]}',
}


@pytest.mark.parametrize("case", sorted(MALFORMED_FEATURES))
def test_malformed_features_are_parse_errors(tmp_path, case):
    path = tmp_path / "bad.jsonl"
    path.write_bytes(MALFORMED_FEATURES[case] + b"\n")
    key = case.split()[-1]  # each case's name ends with the key it breaks
    with pytest.raises(ParseError, match=f"^record 1: .*'{key}'"):
        load_graphs(path)


def test_non_utf8_file_is_parse_error(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_bytes(b'\xff\xfe{"n": 2, "edges": []}\n')
    with pytest.raises(ParseError, match="not UTF-8"):
        load_graphs(path)


def test_parse_error_reports_record_index(tmp_path):
    path = tmp_path / "bad.jsonl"
    # the last four break an invariant that the Graph constructor checks
    for second in ('not json', '{"n": 3, "edges": [[0, 7]]}', '{"n": 3, "edges": [[1, 1]]}',
                   '{"n": 3, "edges": [], "x": [[1.0]]}', '{"n": -1, "edges": []}'):
        path.write_text('{"n": 2, "edges": []}\n' + second + '\n')
        with pytest.raises(ParseError, match="^record 2: "):
            load_graphs(path)


def test_empty_file_rejected(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("\n\n")
    with pytest.raises(ParseError):
        load_graphs(path)


def test_atomic_write_replaces(tmp_path):
    path = tmp_path / "out.txt"
    atomic_write_text(path, "one")
    atomic_write_text(path, "two")
    assert path.read_text() == "two"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


@settings(max_examples=50, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=12),
    pairs=st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11)), max_size=30),
)
def test_canonical_form_properties(n, pairs):
    edges = [(u % n, v % n) for u, v in pairs if u % n != v % n]
    g = Graph(n, edges=edges)
    edges = [tuple(e) for e in g.edges.tolist()]
    assert edges == sorted(set(edges))
    assert all(u < v for u, v in edges)
    assert set(edges) == {(min(u % n, v % n), max(u % n, v % n))
                          for u, v in pairs if u % n != v % n}


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_round_trip_random_graphs(tmp_path_factory, seed):
    import oracles

    rng = np.random.default_rng(seed)
    g = oracles.random_graph(rng, int(rng.integers(1, 10)), 0.4)
    path = tmp_path_factory.mktemp("rt") / "g.jsonl"
    save_graphs(GraphSet("g", (g,)), path)
    assert load_graphs(path)[0] == g


@pytest.mark.parametrize("edge", ["[true, 2]", "[0, false]"])
def test_bool_endpoint_rejected(tmp_path, edge):
    path = tmp_path / "bool.jsonl"
    path.write_text('{"n": 3, "edges": [' + edge + ']}\n')
    with pytest.raises(ParseError, match="malformed edge entry"):
        load_graphs(path)
