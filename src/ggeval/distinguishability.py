"""Executable checks of the cycle-pair construction.

A pair of bridged two-cycle graphs with parameters (a, b) and (c, d),
where 4 < a < c < d < b and a + b = c + d, has identical local statistics
(degree multiset, clustering coefficients, 4-node orbit census) yet is
separated by WL refinement, hence by a sufficiently deep sum-aggregation
GNN. Conversely, a 6-cycle and two disjoint triangles differ in
clustering but are WL-equivalent, so any such GNN embeds them
identically. Both directions are verified here numerically.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .encoder import EncoderConfig, calibrate, init_random
from .errors import HypothesisViolationError, require_integer
from .features import clustering, degrees, orbit_census_4, wl_first_separation
from .generators import gen_cycle_pair
from .graphs import Graph

DEFAULT_CYCLE_TUPLES = ((5, 8, 6, 7), (5, 9, 6, 8), (5, 10, 7, 8))


def check_cycle_hypotheses(a: int, b: int, c: int, d: int) -> None:
    """Raise unless 4 < a < c < d < b and a + b = c + d."""
    a, b, c, d = (require_integer(name, size, 1) for name, size in zip("abcd", (a, b, c, d)))
    if not (4 < a < c < d < b):
        raise HypothesisViolationError(
            f"need 4 < a < c < d < b, got a={a}, c={c}, d={d}, b={b}"
        )
    if a + b != c + d:
        raise HypothesisViolationError(
            f"need a + b = c + d, got {a}+{b}={a + b} vs {c}+{d}={c + d}"
        )


def cycle_pair_graphs(a: int, b: int, c: int, d: int):
    check_cycle_hypotheses(a, b, c, d)
    return gen_cycle_pair(a, b), gen_cycle_pair(c, d)


@dataclass(frozen=True)
class LocalEquivalenceReport:
    params: tuple
    degrees_equal: bool
    clustering_all_zero: bool
    four_clustering_all_zero: bool
    census_equal: bool
    mismatch: str | None

    @property
    def passed(self) -> bool:
        return (self.degrees_equal and self.clustering_all_zero
                and self.four_clustering_all_zero and self.census_equal)


def verify_local_equivalence(a: int, b: int, c: int, d: int) -> LocalEquivalenceReport:
    """Exact comparison of every local statistic of the two graphs.

    Degree multisets are compared exactly, both clustering coefficient
    families must vanish identically (no triangles and no 4-cycles exist
    in bridged cycles longer than 4), and the 4-node orbit census must
    agree class by class as integers.
    """
    g1, g2 = cycle_pair_graphs(a, b, c, d)
    mismatch = None

    deg1 = Counter(degrees(g1).tolist())
    deg2 = Counter(degrees(g2).tolist())
    degrees_equal = deg1 == deg2
    if not degrees_equal:
        mismatch = f"degree multisets differ: {dict(deg1)} vs {dict(deg2)}"

    (c3_1, c4_1), (c3_2, c4_2) = clustering(g1), clustering(g2)
    c3 = np.concatenate([c3_1, c3_2])
    clustering_all_zero = bool(np.all(c3 == 0.0))
    if mismatch is None and not clustering_all_zero:
        mismatch = "nonzero triangle clustering coefficient found"

    c4 = np.concatenate([c4_1, c4_2])
    four_clustering_all_zero = bool(np.all(c4 == 0.0))
    if mismatch is None and not four_clustering_all_zero:
        mismatch = "nonzero four-node clustering coefficient found"

    census1 = orbit_census_4(g1)
    census2 = orbit_census_4(g2)
    census_equal = census1 == census2
    if mismatch is None and not census_equal:
        counts1, counts2 = census1.counts, census2.counts
        diff = {key: (counts1[key], counts2[key])
                for key in counts1 if counts1[key] != counts2[key]}
        mismatch = f"orbit census differs: {diff}"

    return LocalEquivalenceReport(
        params=(a, b, c, d),
        degrees_equal=degrees_equal,
        clustering_all_zero=clustering_all_zero,
        four_clustering_all_zero=four_clustering_all_zero,
        census_equal=census_equal,
        mismatch=mismatch,
    )


def verify_wl_separation(a: int, b: int, c: int, d: int):
    """Run WL refinement with budget a + b iterations.

    Returns (separated, iteration): the first iteration whose color
    histograms differ, or (False, None) if the pair stays equivalent
    for the whole budget.
    """
    g1, g2 = cycle_pair_graphs(a, b, c, d)
    return wl_first_separation(g1, g2, max_iter=a + b)


@dataclass(frozen=True)
class CyclePairReport:
    params: tuple
    local: LocalEquivalenceReport
    wl_separated: bool
    wl_iteration: int | None
    wl_budget: int

    @property
    def passed(self) -> bool:
        return (self.local.passed and self.wl_separated
                and self.wl_iteration is not None
                and self.wl_iteration <= self.wl_budget)


def verify_cycle_pair(a: int, b: int, c: int, d: int) -> CyclePairReport:
    """Full statement for one parameter tuple: locally identical, WL-separated."""
    local = verify_local_equivalence(a, b, c, d)
    separated, iteration = verify_wl_separation(a, b, c, d)
    return CyclePairReport(params=(a, b, c, d), local=local,
                           wl_separated=separated, wl_iteration=iteration,
                           wl_budget=a + b)


# ---------------------------------------------------------------------------
# the converse pair: locally different, invisible to message passing


def cycle_graph(n: int) -> Graph:
    n = require_integer("n", n, 3)
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def two_triangles() -> Graph:
    return Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])


def wl_ceiling_pair():
    """C6 and two disjoint triangles: same degrees, different clustering."""
    return cycle_graph(6), two_triangles()


DEFAULT_CEILING_CONFIG = EncoderConfig(num_layers=3, hidden=16,
                                       feature_config="degree")


@dataclass(frozen=True)
class GnnCeilingReport:
    num_inits: int
    gaps: tuple              # per-init max absolute embedding difference
    tol: float
    clustering_differs: bool
    wl_separated: bool

    @property
    def embeddings_identical(self) -> bool:
        return max(self.gaps) < self.tol

    @property
    def max_gap(self) -> float:
        return max(self.gaps)

    @property
    def passed(self) -> bool:
        return self.embeddings_identical and self.clustering_differs


def verify_gnn_ceiling(pair=None, num_inits: int = 20,
                       config: EncoderConfig = DEFAULT_CEILING_CONFIG,
                       seed: int = 0, tol: float = 1e-7) -> GnnCeilingReport:
    """Embed a WL-equivalent pair under many random encoder weights.

    For every initialization the encoder is calibrated on the pair, which
    embeds both in one pass; the report records the worst per-init gap.
    Random weights suffice because the claim is architectural: no trained
    instance of the same network can do better than its refinement ceiling.
    """
    num_inits = require_integer("num_inits", num_inits, 1)
    if pair is None:
        pair = wl_ceiling_pair()
    g1, g2 = pair
    gaps = []
    for trial in range(num_inits):
        params = init_random(config, seed=seed * 1000 + trial)
        emb = calibrate(params, [g1, g2])[1]
        gaps.append(float(np.max(np.abs(emb[0] - emb[1]))))
    separated, _ = wl_first_separation(g1, g2, max_iter=max(g1.num_nodes,
                                                            g2.num_nodes))
    differs = sorted(clustering(g1)[0].tolist()) != sorted(clustering(g2)[0].tolist())
    return GnnCeilingReport(num_inits=num_inits, gaps=tuple(gaps), tol=tol,
                            clustering_differs=differs, wl_separated=separated)
