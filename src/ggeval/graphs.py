"""Canonical undirected graph representation and JSON-lines serialization.

A Graph stores a dense node index range 0..num_nodes-1 and a canonical edge
array: every pair as (min, max), deduplicated, sorted lexicographically.
Graphs and GraphSets are immutable after construction and safe to share
across threads.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    EndpointOutOfRangeError,
    InvariantViolationError,
    ParseError,
    SelfLoopError,
)


def _as_feature_matrix(values, num_nodes):
    """Coerce node features to a read-only float64 matrix, one row per node."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 2:
        raise InvariantViolationError(f"node_features must be a 2-D matrix, got ndim={arr.ndim}")
    if arr.shape[0] != num_nodes:
        raise InvariantViolationError(
            f"node_features has {arr.shape[0]} rows, expected {num_nodes}"
        )
    if not np.all(np.isfinite(arr)):
        raise InvariantViolationError("node_features contains non-finite values")
    if arr is values and arr.flags.writeable:
        arr = arr.copy()  # the caller can still write to its own array
    arr = np.ascontiguousarray(arr)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class Graph:
    """Undirected simple graph: its topology and an optional node feature matrix.

    Construction canonicalizes the edge list: pairs are stored as
    (min, max), duplicates removed, sorted lexicographically. Self-loops
    and out-of-range endpoints raise instead of being dropped silently.
    After construction ``edges`` is the canonical read-only
    (num_edges, 2) int64 array; an empty graph has shape (0, 2).
    ``node_features`` is None or a read-only finite float64 matrix with
    one row per node. Edges carry no features.
    """

    num_nodes: int
    edges: np.ndarray = field(default_factory=tuple)  # any (u, v) pairs until __post_init__
    node_features: np.ndarray | None = None

    def __post_init__(self):
        n = int(self.num_nodes)
        if n < 0:
            raise InvariantViolationError(f"num_nodes must be >= 0, got {n}")
        object.__setattr__(self, "num_nodes", n)

        try:
            raw = np.asarray(self.edges, dtype=np.int64)
        except OverflowError as exc:
            raise EndpointOutOfRangeError(f"edge endpoint outside [0,{n})") from exc
        if raw.size == 0:
            raw = raw.reshape(0, 2)
        if raw.ndim != 2 or raw.shape[1] != 2:
            raise InvariantViolationError(
                f"edges must be a sequence of (u, v) pairs, got shape {raw.shape}"
            )
        lo = raw.min(axis=1)
        hi = raw.max(axis=1)
        bad = (lo == hi) | (lo < 0) | (hi >= n)
        if bad.any():
            i = int(np.argmax(bad))
            a, b = int(raw[i, 0]), int(raw[i, 1])
            if a == b:
                raise SelfLoopError(f"self-loop at node {a}")
            raise EndpointOutOfRangeError(f"edge ({a},{b}) outside [0,{n})")
        # first occurrence of each pair, in (min, max) lexicographic order;
        # return_index keeps np.unique on its sorting path, which beats the
        # hash path that plain np.unique takes for these key counts
        _, kept = np.unique(lo * n + hi, return_index=True)
        # fancy indexing copies, so a caller's array is never aliased
        edges = np.column_stack((lo[kept], hi[kept]))
        edges.flags.writeable = False
        object.__setattr__(self, "edges", edges)

        if self.node_features is not None:
            object.__setattr__(self, "node_features", _as_feature_matrix(self.node_features, n))

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        if self.num_nodes != other.num_nodes or not np.array_equal(self.edges, other.edges):
            return False
        a, b = self.node_features, other.node_features
        if a is None or b is None:
            return a is b
        return np.array_equal(a, b)

    def __hash__(self):
        return hash((self.num_nodes, self.edges.tobytes()))

    def neighbors(self):
        """(indptr, indices) CSR adjacency, computed once per graph.

        Node u's neighbors are indices[indptr[u]:indptr[u + 1]], ascending;
        both arrays are read-only int64.
        """
        csr = self.__dict__.get("_csr")
        if csr is None:
            e = self.edges
            src = np.concatenate((e[:, 0], e[:, 1]))
            dst = np.concatenate((e[:, 1], e[:, 0]))
            order = np.lexsort((dst, src))
            indptr = np.zeros(self.num_nodes + 1, dtype=np.int64)
            np.cumsum(np.bincount(src, minlength=self.num_nodes), out=indptr[1:])
            indices = dst[order]
            indptr.flags.writeable = False
            indices.flags.writeable = False
            csr = (indptr, indices)
            object.__setattr__(self, "_csr", csr)
        return csr


def adjacency(graph: Graph) -> list[list[int]]:
    """Per-node sorted neighbor lists. N(u) contains v iff N(v) contains u."""
    indptr, indices = graph.neighbors()
    flat = indices.tolist()
    bounds = indptr.tolist()
    return [flat[a:b] for a, b in zip(bounds, bounds[1:])]


@dataclass(frozen=True, eq=False)
class GraphSet:
    """Named, ordered, non-empty collection of graphs."""

    name: str
    graphs: tuple = field(default_factory=tuple)

    def __post_init__(self):
        gs = tuple(self.graphs)
        if not gs:
            raise InvariantViolationError(f"graph set {self.name!r} is empty")
        for i, g in enumerate(gs):
            if not isinstance(g, Graph):
                raise InvariantViolationError(f"entry {i} of {self.name!r} is not a Graph")
        object.__setattr__(self, "graphs", gs)

    def __len__(self):
        return len(self.graphs)

    def __iter__(self):
        return iter(self.graphs)

    def __getitem__(self, i):
        return self.graphs[i]

    def __eq__(self, other):
        if not isinstance(other, GraphSet):
            return NotImplemented
        return self.name == other.name and self.graphs == other.graphs

    def replace(self, graphs, name: str | None = None) -> "GraphSet":
        return GraphSet(self.name if name is None else name, tuple(graphs))


def _graph_to_record(graph: Graph) -> dict:
    return {
        "n": graph.num_nodes,
        "edges": graph.edges.tolist(),
        "x": None if graph.node_features is None else graph.node_features.tolist(),
    }


def _graph_from_record(record: dict, index: int) -> Graph:
    if not isinstance(record, dict):
        raise ParseError("record is not a JSON object", record=index)
    for key in record:
        # files written before edge features were removed hold "e": null
        if key not in ("n", "edges", "x", "e"):
            raise ParseError(f"unknown key {key!r}", record=index)
    if record.get("e") is not None:
        raise ParseError("'e' must be null: graphs carry no edge features", record=index)
    for key in ("n", "edges"):
        if key not in record:
            raise ParseError(f"missing required key {key!r}", record=index)
    n = record["n"]
    if not isinstance(n, int) or isinstance(n, bool):
        raise ParseError(f"'n' must be an integer, got {n!r}", record=index)
    edges = record["edges"]
    if not isinstance(edges, list):
        raise ParseError("'edges' must be a list of [u, v] pairs", record=index)
    for e in edges:
        if not (isinstance(e, list) and len(e) == 2
                and all(isinstance(x, int) and not isinstance(x, bool) for x in e)):
            raise ParseError(f"malformed edge entry {e!r}", record=index)
    try:
        return Graph(n, edges, node_features=record.get("x"))
    except (TypeError, ValueError) as exc:
        # the edge entries are checked above: this is the float conversion of x
        raise ParseError(f"'x' must be a numeric matrix ({exc})", record=index) from exc
    except InvariantViolationError as exc:
        # the Graph's own checks: a negative n, a self-loop or out-of-range
        # edge, or an x with the wrong shape or non-finite values
        raise ParseError(str(exc), record=index) from exc


def save_graphs(graph_set: GraphSet, path) -> None:
    """Write a GraphSet as JSON lines, one {"n", "edges", "x"} record per graph, atomically.

    Floats are emitted with repr semantics, so load(save(S)) reproduces
    feature values bit-identically.
    """
    atomic_write_text(path, "".join(json.dumps(_graph_to_record(g)) + "\n" for g in graph_set))


def load_graphs(path) -> GraphSet:
    """Load a JSON-lines graph container written by save_graphs.

    The set is named after the file, without its extension.
    """
    graphs = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for i, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise ParseError(f"invalid JSON ({exc.msg})", record=i) from exc
                graphs.append(_graph_from_record(record, i))
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text ({exc.reason})") from exc
    if not graphs:
        raise ParseError(f"no graph records found in {path}")
    return GraphSet(os.path.splitext(os.path.basename(str(path)))[0], tuple(graphs))


def atomic_write_text(path, text: str) -> None:
    """Write text to path via a temp file + rename in the same directory."""
    path = str(path)
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=os.path.basename(path))
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
