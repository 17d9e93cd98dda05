"""Rank-correlation benchmark for embedding-based metrics.

A reference set is perturbed at increasing ratios r, the metrics are
computed between the reference and each perturbed set, and a metric's
score is the Spearman correlation between r and the metric values. Every
perturbation starts from the original set, never from the previous step.

Metric orientation is normalized so that +1 always means "tracks the
perturbation perfectly": distances (fd, mmd_*) correlate r against the
raw values, while similarity-style scores (precision, recall, density,
coverage and their harmonic means) are negated first.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AllClustersSelectedError, require_integer
from .features import wl_kernel_gram
from .generators import gen_er, substream
from .graphs import Graph, GraphSet
from .metrics import DEFAULT_KNN_K, METRIC_NAMES, REPORT_FIELDS, evaluate

# metrics that decrease under growing perturbation get their sign flipped
FLIP_METRICS = frozenset(
    {"precision", "recall", "density", "coverage", "f1_pr", "f1_dc"}
)


def _round_half_up(x: float) -> int:
    return int(np.floor(x + 0.5))


def _chosen(r: float, population: int, rng) -> np.ndarray:
    """round(r * population) distinct units of range(population), in draw order."""
    if not 0.0 <= r <= 1.0:
        raise ValueError("r must be in [0, 1]")
    return rng.choice(population, size=_round_half_up(r * population), replace=False)


# ---------------------------------------------------------------------------
# perturbations


def perturb_mix_random(graph_set: GraphSet, r: float, rng) -> GraphSet:
    """Replace round(r * |S|) graphs with edge-density-matched random ones.

    Each replacement is an Erdos-Renyi graph over the same node count with
    p = |E| / C(n, 2), so expected density is preserved. Replaced indices
    are drawn without replacement.
    """
    out = list(graph_set)
    for i in sorted(int(j) for j in _chosen(r, len(out), rng)):
        g = out[i]
        pairs = g.num_nodes * (g.num_nodes - 1) / 2
        p = g.num_edges / pairs if pairs > 0 else 0.0
        out[i] = gen_er(g.num_nodes, p, rng)
    return graph_set.replace(out, name=f"{graph_set.name}/mix_random[{r:g}]")


def _rewire_graph(graph: Graph, r: float, rng) -> Graph:
    n = graph.num_nodes
    nbrs = [set(neighbors) for neighbors in graph.neighbors()]
    edges = graph.edges.tolist()
    moved_any = False
    for idx in range(len(edges)):
        if rng.random() >= r:
            continue
        u, v = edges[idx]
        stable, moved = (u, v) if rng.integers(2) == 0 else (v, u)
        num_candidates = n - 1 - len(nbrs[stable])
        if not num_candidates:
            continue
        # the j-th node that is neither stable nor one of its neighbors:
        # step j past every excluded node at or below it, in ascending order
        target = int(rng.integers(num_candidates))
        for w in sorted(nbrs[stable] | {stable}):
            if w > target:
                break
            target += 1
        nbrs[stable].discard(moved)
        nbrs[moved].discard(stable)
        nbrs[stable].add(target)
        nbrs[target].add(stable)
        edges[idx] = [min(stable, target), max(stable, target)]
        moved_any = True
    return Graph(n, edges) if moved_any else graph


def perturb_rewire(graph_set: GraphSet, r: float, rng) -> GraphSet:
    """Rewire each edge with probability r, one endpoint held fixed.

    The moving endpoint is reattached to a uniform node that is neither
    the stable endpoint nor currently adjacent to it; adjacency is kept
    live, so later decisions see earlier rewires. Edges with no valid
    target are left in place. A graph none of whose edges moved is returned
    as the input object itself, after the same draws; every r = 0 graph is.
    """
    if not 0.0 <= r <= 1.0:
        raise ValueError("r must be in [0, 1]")
    out = [_rewire_graph(g, r, rng) for g in graph_set]
    return graph_set.replace(out, name=f"{graph_set.name}/rewire[{r:g}]")


# ---------------------------------------------------------------------------
# WL-kernel clustering for the mode perturbations


def cluster_wl(graph_set: GraphSet, num_clusters: int):
    """Complete-linkage agglomerative clustering in WL-kernel space.

    Pairwise distance is the kernel-induced d(i,j) =
    sqrt(k_ii + k_jj - 2 k_ij); the pair of clusters with the smallest
    maximum cross-distance is merged until num_clusters remain. Ties
    break toward the lexicographically smallest cluster index pair, so
    the result is deterministic.

    Returns (labels, medoids): labels[i] in [0, num_clusters) and
    medoids[c] is the index of the member with the highest mean kernel
    similarity to its own cluster (smallest index on ties).
    """
    n = len(graph_set)
    num_clusters = require_integer("num_clusters", num_clusters, 1)
    if num_clusters > n:
        raise ValueError(f"num_clusters must be in [1, {n}]")
    gram = wl_kernel_gram(list(graph_set))
    diag = np.diag(gram)
    dist = np.sqrt(np.clip(diag[:, None] + diag[None, :] - 2.0 * gram, 0.0, None))

    # cross[a, b]: maximum pairwise distance between the clusters whose
    # smallest members are a and b; inf on the diagonal and on merged-away
    # rows and columns. The matrix stays symmetric, so the first argmin in
    # row-major order is the smallest (a, b) pair with a < b.
    cross = dist.copy()
    np.fill_diagonal(cross, np.inf)
    owner = np.arange(n)  # each graph's cluster, keyed by its smallest member
    for _ in range(n - num_clusters):
        a, b = divmod(int(np.argmin(cross)), n)
        cross[a] = cross[:, a] = np.maximum(cross[a], cross[b])
        cross[b] = cross[:, b] = np.inf
        owner[owner == b] = a

    keys, labels = np.unique(owner, return_inverse=True)
    medoids = []
    for key in keys:
        members = np.flatnonzero(owner == key)
        block = gram[np.ix_(members, members)]
        medoids.append(int(members[np.argmax(block.mean(axis=1))]))
    return labels, medoids


def perturb_mode_collapse(graph_set: GraphSet, r: float, rng,
                          labels, medoids) -> GraphSet:
    """Collapse round(r * C) clusters onto their medoid graphs.

    Every member of a selected cluster is replaced by a copy of that
    cluster's medoid, shrinking within-mode diversity while keeping the
    set size and the mode locations.
    """
    picked = _chosen(r, len(medoids), rng)
    out = list(graph_set)
    for i in np.flatnonzero(np.isin(labels, picked)):
        out[i] = graph_set[medoids[labels[i]]]
    return graph_set.replace(out, name=f"{graph_set.name}/mode_collapse[{r:g}]")


def perturb_mode_drop(graph_set: GraphSet, r: float, rng,
                      labels, medoids) -> GraphSet:
    """Drop round(r * C) clusters, refilling from the surviving ones.

    Members of dropped clusters are replaced by uniform draws (with
    replacement) from the survivors' members. Selecting every cluster
    leaves nothing to refill from and raises AllClustersSelectedError.
    """
    picked = _chosen(r, len(medoids), rng)
    if len(picked) == len(medoids):
        raise AllClustersSelectedError(
            f"mode drop at r={r:g} would remove all {len(medoids)} clusters"
        )
    dropped = np.isin(labels, picked)
    survivors = np.flatnonzero(~dropped)
    out = list(graph_set)
    for i in np.flatnonzero(dropped):
        out[i] = graph_set[survivors[int(rng.integers(len(survivors)))]]
    return graph_set.replace(out, name=f"{graph_set.name}/mode_drop[{r:g}]")


# ---------------------------------------------------------------------------
# rank correlation


def spearman(x, y):
    """Spearman rank correlation with mean ranks on ties.

    Returns (rho, zero_variance). A constant input has no ranking to
    correlate; rho is reported as 0.0 with the flag set.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("spearman expects two 1-D arrays of equal length")
    if x.size < 3:
        raise ValueError("spearman needs at least 3 observations")
    rx = _mean_ranks(x)
    ry = _mean_ranks(y)
    sx = rx.std()
    sy = ry.std()
    if sx == 0.0 or sy == 0.0:
        return 0.0, True
    rho = float(np.mean((rx - rx.mean()) * (ry - ry.mean())) / (sx * sy))
    return min(1.0, max(-1.0, rho)), False


def _mean_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks; tied values share their mean rank, and every NaN is
    its own tie group, ranked after every number in input order."""
    # return_index makes np.unique sort stably, which keeps the NaNs in order
    _, _, inverse, counts = np.unique(values, return_index=True, return_inverse=True,
                                      return_counts=True, equal_nan=False)
    # a group of c ties ending at 1-based rank r has mean rank r - (c - 1) / 2
    return (np.cumsum(counts) - (counts - 1) / 2)[inverse]


# ---------------------------------------------------------------------------
# orchestration

PERTURBATION_KINDS = ("mix_random", "rewire", "mode_collapse", "mode_drop")
MODE_KINDS = ("mode_collapse", "mode_drop")  # the kinds that cluster the reference
DEFAULT_RATIO_STEP = 0.01
DEFAULT_NUM_CLUSTERS = 10


def ratio_grid(step: float = DEFAULT_RATIO_STEP):
    """Evenly spaced ratios 0..1 inclusive."""
    if not 0 < step <= 1:
        raise ValueError(f"step must be in (0, 1], got {step}")
    count = _round_half_up(1.0 / step)
    if not np.isclose(count * step, 1.0):
        raise ValueError(f"step {step} does not evenly divide [0, 1]")
    return tuple(i / count for i in range(count + 1))


def mode_grid(num_clusters: int, include_full: bool):
    """Ratios i / num_clusters; the full ratio only where it is feasible."""
    num_clusters = require_integer("num_clusters", num_clusters, 1)
    top = num_clusters + 1 if include_full else num_clusters
    return tuple(i / num_clusters for i in range(top))


def sweep_ratios(kind: str, step: float, num_clusters: int):
    """The ratio grid of a sweep: clusters for the mode kinds, step for the rest."""
    if kind in MODE_KINDS:
        return mode_grid(num_clusters, include_full=kind == "mode_collapse")
    return ratio_grid(step)


def require_three_ratios(ratios) -> None:
    """Raise ValueError unless a sweep's grid holds the 3 points spearman needs."""
    if len(ratios) < 3:
        raise ValueError(f"a sweep needs at least 3 ratios for spearman, got {ratios}")


@dataclass(frozen=True)
class BenchmarkCurve:
    kind: str
    seed: int
    ratios: tuple
    reports: tuple  # one MetricReport per ratio
    rhos: dict      # metric name -> oriented spearman rho
    zero_variance: dict

    def metric_values(self, name: str):
        return tuple(report[name] for report in self.reports)

    def to_rows(self):
        """Header row plus one row per ratio, for CSV-style output."""
        rows = [("seed", "r") + tuple(REPORT_FIELDS)]
        for r, report in zip(self.ratios, self.reports):
            rows.append((self.seed, r) + tuple(report[name] for name in REPORT_FIELDS))
        return rows


def oriented_rhos(ratios, reports):
    """Spearman rho per metric, sign-normalized so ideal behavior is +1."""
    rhos = {}
    flags = {}
    r = np.asarray(ratios, dtype=np.float64)
    for name in METRIC_NAMES:
        values = np.asarray([report[name] for report in reports])
        if name in FLIP_METRICS:
            values = -values
        rho, flag = spearman(r, values)
        rhos[name] = rho
        flags[name] = flag
    return rhos, flags


def _sweep(reference, embed_perturbed, kind, seed, ratios, labels, medoids, k):
    reports = []
    for i, r in enumerate(ratios):
        rng = substream(seed, 11, PERTURBATION_KINDS.index(kind), i)
        if kind == "mix_random":
            perturbed = perturb_mix_random(reference, r, rng)
        elif kind == "rewire":
            perturbed = perturb_rewire(reference, r, rng)
        elif kind == "mode_collapse":
            perturbed = perturb_mode_collapse(reference, r, rng, labels, medoids)
        else:
            perturbed = perturb_mode_drop(reference, r, rng, labels, medoids)
        h_ref, h_pert = embed_perturbed(perturbed)
        reports.append(evaluate(h_ref, h_pert, k))
    rhos, flags = oriented_rhos(ratios, reports)
    return BenchmarkCurve(kind=kind, seed=seed, ratios=tuple(ratios),
                          reports=tuple(reports), rhos=rhos, zero_variance=flags)


def run_benchmark(reference: GraphSet, embed, kind: str, seeds=(0,),
                  step: float = DEFAULT_RATIO_STEP,
                  num_clusters: int = DEFAULT_NUM_CLUSTERS,
                  k: int = DEFAULT_KNN_K):
    """One curve per seed for the given perturbation kind.

    embed is a callable (set_a, set_b) -> (H_a, H_b) producing embedding
    matrices in one space, such as embed_union under set_a's statistics.
    It must hold that H_a does not depend on set_b and that a graph's row
    does not depend on the other graphs, as embed_union's does. The
    reference's rows from the first embed call are then kept for every
    ratio and seed: a perturbed set holding only reference objects (by id,
    as embed_union matches them) takes its rows from them and calls no
    embed. That is every mode-collapse and mode-drop ratio, and r = 0 after
    the first seed. k is the PRDC neighborhood size of every evaluate call.

    Clustering for the mode perturbations is deterministic, so it is
    computed once and shared across seeds; only the perturbation draws
    differ per seed.
    """
    if kind not in PERTURBATION_KINDS:
        raise ValueError(f"unknown perturbation kind {kind!r}")
    seeds = [require_integer("each seed", seed, 0) for seed in seeds]
    if not seeds:
        raise ValueError("seeds is empty; a benchmark needs at least one seed")
    k = require_integer("k", k, 1)
    ratios = sweep_ratios(kind, step, num_clusters)
    require_three_ratios(ratios)
    labels, medoids = (cluster_wl(reference, num_clusters) if kind in MODE_KINDS
                       else (None, None))
    row = {id(g): i for i, g in enumerate(reference)}
    kept = None  # the reference's rows from the first embed call

    def embed_perturbed(perturbed):
        nonlocal kept
        if kept is not None and all(id(g) in row for g in perturbed):
            return kept, kept[[row[id(g)] for g in perturbed]]
        h_ref, h_pert = embed(reference, perturbed)
        if kept is None:
            kept = h_ref
        return h_ref, h_pert

    return tuple(
        _sweep(reference, embed_perturbed, kind, seed, ratios, labels, medoids, k)
        for seed in seeds
    )


def rho_summary(curves) -> dict:
    """Per-metric mean and median rho across a collection of curves."""
    out = {}
    for name in METRIC_NAMES:
        values = np.asarray([c.rhos[name] for c in curves], dtype=np.float64)
        out[name] = {"mean": float(values.mean()), "median": float(np.median(values))}
    return out


def zero_variance_names(curves) -> dict:
    """Per seed, the metrics whose curve was constant, so their rho reads 0."""
    return {str(c.seed): [name for name in METRIC_NAMES if c.zero_variance[name]]
            for c in curves}


def rows_to_csv(rows) -> str:
    return "\n".join(",".join(str(cell) for cell in row) for row in rows) + "\n"


def curves_to_csv(curves) -> str:
    """Concatenate curves into one CSV (shared header)."""
    rows = []
    for i, curve in enumerate(curves):
        curve_rows = curve.to_rows()
        rows.extend(curve_rows if i == 0 else curve_rows[1:])
    return rows_to_csv(rows)
