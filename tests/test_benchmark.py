import os
import subprocess
import sys
from functools import partial

import numpy as np
import oracles
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import ggeval
from ggeval import benchmark
from ggeval.benchmark import (
    DEFAULT_NUM_CLUSTERS,
    DEFAULT_RATIO_STEP,
    FLIP_METRICS,
    PERTURBATION_KINDS,
    _mean_ranks,
    _rewire_graph,
    _round_half_up,
    cluster_wl,
    curves_to_csv,
    mode_grid,
    oriented_rhos,
    perturb_mix_random,
    perturb_mode_collapse,
    perturb_mode_drop,
    perturb_rewire,
    ratio_grid,
    rho_summary,
    run_benchmark,
    spearman,
)
from ggeval.encoder import EncoderConfig, embed_union, init_random
from ggeval.errors import AllClustersSelectedError
from ggeval.features import WL_KERNEL_DEPTH_DEFAULT
from ggeval.generators import gen_community, gen_er, gen_grid, gen_lobster, substream
from ggeval.graphs import Graph, GraphSet
from ggeval.metrics import METRIC_NAMES, REPORT_FIELDS, MetricReport

TRIANGLE = Graph(3, edges=[(0, 1), (1, 2), (0, 2)])
P5 = Graph(5, edges=[(i, i + 1) for i in range(4)])


def small_set(count=10, seed=0):
    return GraphSet(
        "set", tuple(gen_community(16, rng=substream(seed, i)) for i in range(count))
    )


def random_embed(seed=0):
    cfg = EncoderConfig(num_layers=2, hidden=8, feature_config="degree")
    return partial(embed_union, init_random(cfg, seed=seed))


# ------------------------------------------------------------ primitives


def test_round_half_up():
    assert _round_half_up(0.49) == 0
    assert _round_half_up(0.5) == 1
    assert _round_half_up(1.5) == 2
    assert _round_half_up(2.5) == 3  # not banker's rounding
    assert _round_half_up(3.2) == 3


def test_ratio_grid():
    grid = ratio_grid(DEFAULT_RATIO_STEP)
    assert len(grid) == 101
    assert grid[0] == 0.0 and grid[-1] == 1.0
    assert ratio_grid(0.25) == (0.0, 0.25, 0.5, 0.75, 1.0)
    with pytest.raises(ValueError):
        ratio_grid(0.03)
    for step in (0.0, -0.5, 2.0, float("nan")):
        with pytest.raises(ValueError, match=r"step must be in \(0, 1\]"):
            ratio_grid(step)


def test_mode_grid():
    assert mode_grid(4, include_full=True) == (0.0, 0.25, 0.5, 0.75, 1.0)
    assert mode_grid(4, include_full=False) == (0.0, 0.25, 0.5, 0.75)


def test_orientation_partition():
    # the distances keep their sign; every other metric is flipped
    assert set(METRIC_NAMES) - FLIP_METRICS == {"fd", "mmd_linear", "mmd_rbf"}
    assert FLIP_METRICS <= set(METRIC_NAMES)


# ----------------------------------------------------------- mix random


def test_mix_random_identity_at_zero():
    gs = small_set()
    out = perturb_mix_random(gs, 0.0, substream(0))
    assert all(a is b for a, b in zip(out, gs))


def test_mix_random_replacement_count():
    gs = small_set()
    out = perturb_mix_random(gs, 0.25, substream(1))
    replaced = sum(a is not b for a, b in zip(out, gs))
    assert replaced == 3  # round-half-up of 2.5
    assert len(out) == len(gs)


def test_mix_random_preserves_node_counts():
    gs = small_set()
    out = perturb_mix_random(gs, 1.0, substream(2))
    assert all(a.num_nodes == b.num_nodes for a, b in zip(out, gs))
    assert all(a is not b for a, b in zip(out, gs))


def test_mix_random_density_roughly_preserved():
    g = gen_er(40, 0.4, substream(3))
    gs = GraphSet("one", (g,) * 4)
    out = perturb_mix_random(gs, 1.0, substream(4))
    for new in out:
        assert abs(new.num_edges - g.num_edges) < 6 * np.sqrt(g.num_edges)


def test_mix_random_validates_ratio():
    with pytest.raises(ValueError):
        perturb_mix_random(small_set(), 1.2, substream(0))


# --------------------------------------------------------------- rewire


def test_rewire_identity_at_zero():
    gs = small_set()
    out = perturb_rewire(gs, 0.0, substream(5))
    assert all(a == b for a, b in zip(out, gs))


def test_rewire_preserves_edge_and_node_counts():
    gs = small_set()
    for r in (0.3, 1.0):
        out = perturb_rewire(gs, r, substream(6))
        for a, b in zip(out, gs):
            assert a.num_nodes == b.num_nodes
            assert a.num_edges == b.num_edges  # also implies no duplicates


def test_rewire_complete_graph_unchanged():
    k5 = gen_er(5, 1.0, substream(0))
    out = perturb_rewire(GraphSet("k5", (k5,)), 1.0, substream(7))
    assert out[0] == k5  # no free endpoint exists anywhere


def test_rewire_changes_graphs_at_high_ratio():
    gs = small_set()
    out = perturb_rewire(gs, 1.0, substream(8))
    assert sum(a != b for a, b in zip(out, gs)) >= 8


@settings(max_examples=150, deadline=None)
@given(n=st.integers(0, 12), p=st.floats(0.0, 1.0), r=st.floats(0.0, 1.0),
       seed=st.integers(0, 2**31 - 1))
def test_rewire_matches_candidate_list_oracle(n, p, r, seed):
    # dense graphs included, so stable endpoints with no free target occur
    graph = gen_er(n, p, substream(seed))
    rng_fast = np.random.default_rng(seed + 1)
    rng_slow = np.random.default_rng(seed + 1)
    fast = _rewire_graph(graph, r, rng_fast)
    slow = oracles.rewire_graph_slow(graph, r, rng_slow)
    assert fast.edges.tolist() == slow.edges.tolist() and fast.num_nodes == slow.num_nodes
    # the same draws were consumed
    assert rng_fast.random() == rng_slow.random()


# ------------------------------------------------------------- spearman


def test_spearman_monotone():
    x = np.arange(10.0)
    assert spearman(x, x**3)[0] == 1.0
    assert spearman(x, -x)[0] == -1.0


def test_spearman_tied_hand_value():
    rho, flag = spearman([1.0, 2.0, 2.0, 3.0], [1.0, 2.0, 3.0, 4.0])
    assert not flag
    assert rho == pytest.approx(3.0 / np.sqrt(10.0), abs=1e-12)


def test_spearman_transform_invariance():
    rng = np.random.default_rng(9)
    x = rng.normal(size=20)
    y = rng.normal(size=20)
    base = spearman(x, y)[0]
    assert spearman(x, np.exp(y))[0] == pytest.approx(base, abs=1e-12)
    assert spearman(x, -y)[0] == pytest.approx(-base, abs=1e-12)


def test_spearman_zero_variance():
    rho, flag = spearman([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
    assert (rho, flag) == (0.0, True)


def test_spearman_matches_scipy_with_ties():
    rng = np.random.default_rng(10)
    x = rng.integers(0, 5, size=30).astype(float)  # heavy ties
    y = rng.integers(0, 5, size=30).astype(float)
    assert spearman(x, y)[0] == pytest.approx(oracles.spearman_scipy(x, y), abs=1e-12)


@settings(max_examples=300, deadline=None)
@given(values=arrays(np.float64, st.integers(1, 40),
                     elements=st.sampled_from((-np.inf, -1.0, -0.0, 0.0, 0.5, 2.0, np.inf, np.nan))
                     | st.floats(-1e3, 1e3)))
@example(values=np.array([np.nan, 1.0, np.nan, np.inf, 1.0, np.nan, -np.inf]))
def test_mean_ranks_match_loop_oracle(values):
    ranks = _mean_ranks(values)
    expected = oracles.mean_ranks_slow(values)
    assert ranks.dtype == expected.dtype and ranks.tobytes() == expected.tobytes()


def test_spearman_validation():
    with pytest.raises(ValueError):
        spearman([1.0, 2.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        spearman([1.0, 2.0, 3.0], [1.0, 2.0])


# ------------------------------------------------------------ clustering


def test_cluster_wl_separates_families():
    graphs = (TRIANGLE,) * 4 + (P5,) * 4
    labels, medoids = cluster_wl(GraphSet("mix", graphs), 2)
    assert set(labels[:4]) != set(labels[4:])
    assert len(set(labels[:4])) == 1 and len(set(labels[4:])) == 1
    assert len(medoids) == 2
    assert sorted(medoids) == [0, 4]  # smallest index wins inside equal blocks


def test_cluster_wl_singletons():
    gs = GraphSet("s", (TRIANGLE, P5, gen_grid(2, 3), gen_grid(3, 3)))
    labels, medoids = cluster_wl(gs, 4)
    assert labels.tolist() == [0, 1, 2, 3]
    assert medoids == [0, 1, 2, 3]


def test_cluster_wl_single_cluster():
    gs = GraphSet("s", (TRIANGLE, TRIANGLE, P5))
    labels, medoids = cluster_wl(gs, 1)
    assert labels.tolist() == [0, 0, 0]
    assert len(medoids) == 1


def test_cluster_wl_deterministic():
    gs = small_set(12)
    a = cluster_wl(gs, 3)
    b = cluster_wl(gs, 3)
    assert a[0].tolist() == b[0].tolist() and a[1] == b[1]


def test_cluster_wl_validates_num_clusters(monkeypatch):
    gs = small_set(4)
    want = cluster_wl(gs, 2)
    got = cluster_wl(gs, np.int64(2))
    assert got[0].tolist() == want[0].tolist() and got[1] == want[1]

    def gram(graphs):
        raise AssertionError("the WL gram ran before num_clusters was checked")

    monkeypatch.setattr(benchmark, "wl_kernel_gram", gram)
    with pytest.raises(ValueError):
        cluster_wl(gs, 0)
    with pytest.raises(ValueError):
        cluster_wl(gs, 5)
    # 2.5 used to fail after the whole gram, and True to run as 1 cluster
    for bad in (2.5, True):
        with pytest.raises(TypeError, match="num_clusters must be an integer"):
            cluster_wl(gs, bad)
        with pytest.raises(TypeError, match="num_clusters must be an integer"):
            run_benchmark(gs, random_embed(), "mode_drop", num_clusters=bad)


def _assert_linkage_matches_oracle(graphs, ks):
    kernel = [[oracles.wl_subtree_kernel_slow(a, b, WL_KERNEL_DEPTH_DEFAULT) for b in graphs]
              for a in graphs]
    for k in ks:
        labels, medoids = cluster_wl(GraphSet("s", tuple(graphs)), k)
        want_labels, want_medoids = oracles.cluster_wl_slow(kernel, k)
        assert labels.dtype == np.int64
        assert labels.tolist() == want_labels.tolist(), k
        assert medoids == want_medoids, k


@pytest.mark.parametrize("seed", range(6))
def test_cluster_wl_matches_oracle_on_tied_sets(seed):
    # small communities repeat WL colors and grids repeat whole graphs, so
    # many pairs tie on distance and the (a, b) tie rule decides the merges
    rng = np.random.default_rng(seed)
    communities = [gen_community(8, rng=substream(seed, i)) for i in range(20)]
    grids = [gen_grid(int(rng.integers(1, 4)), int(rng.integers(2, 4))) for _ in range(20)]
    for graphs in (communities, grids):
        _assert_linkage_matches_oracle(graphs, (1, 2, 3, 5, 10, len(graphs)))


def test_cluster_wl_matches_oracle_on_repeated_graphs():
    graphs = [gen_lobster(rng=substream(7, i)) for i in range(8)] * 3
    _assert_linkage_matches_oracle(graphs, range(1, len(graphs) + 1))


# ------------------------------------------------------- mode operations


def build_clustered_set():
    # distinct objects per slot so identity checks can see medoid replacement
    members = [Graph(g.num_nodes, edges=g.edges)
               for g in (TRIANGLE,) * 3 + (P5,) * 3 + (gen_grid(2, 3),) * 3]
    gs = GraphSet("mix", tuple(members))
    labels, medoids = cluster_wl(gs, 3)
    return gs, labels, medoids


def test_mode_collapse_zero_and_full():
    gs, labels, medoids = build_clustered_set()
    same = perturb_mode_collapse(gs, 0.0, substream(11), labels, medoids)
    assert all(a is b for a, b in zip(same, gs))
    full = perturb_mode_collapse(gs, 1.0, substream(12), labels, medoids)
    assert len(full) == len(gs)
    for i, g in enumerate(full):
        assert g == gs[medoids[labels[i]]]


def test_mode_collapse_partial():
    gs, labels, medoids = build_clustered_set()
    out = perturb_mode_collapse(gs, 1 / 3, substream(13), labels, medoids)
    assert len(out) == len(gs)
    # exactly one cluster is collapsed onto its medoid; in this set every
    # cluster is 3 identical graphs, so values are unchanged everywhere
    replaced = [i for i in range(len(gs)) if out[i] is not gs[i]]
    assert len({int(labels[i]) for i in replaced}) == 1
    for i in replaced:
        assert out[i] == gs[medoids[labels[i]]]


def test_mode_drop_replaces_from_survivors():
    gs, labels, medoids = build_clustered_set()
    out = perturb_mode_drop(gs, 1 / 3, substream(14), labels, medoids)
    assert len(out) == len(gs)
    dropped = {int(labels[i]) for i in range(len(gs)) if out[i] != gs[i]}
    assert len(dropped) == 1
    survivor_graphs = {gs[i] for i in range(len(gs)) if int(labels[i]) not in dropped}
    for g in out:
        assert g in survivor_graphs


def test_mode_drop_all_clusters_rejected():
    gs, labels, medoids = build_clustered_set()
    with pytest.raises(AllClustersSelectedError):
        perturb_mode_drop(gs, 1.0, substream(15), labels, medoids)


@pytest.mark.parametrize("perturb", [perturb_mode_collapse, perturb_mode_drop])
@pytest.mark.parametrize("r", [1.5, -0.5, float("nan")])
def test_mode_perturbations_reject_ratio_outside_unit_interval(perturb, r):
    gs, labels, medoids = build_clustered_set()
    with pytest.raises(ValueError, match=r"r must be in \[0, 1\]"):
        perturb(gs, r, substream(16), labels, medoids)


# ------------------------------------------------------------ orientation


def synth_report(fd, precision, mmd=0.1):
    return MetricReport(
        fd=fd, precision=precision, recall=precision, density=precision,
        coverage=precision, f1_pr=precision, f1_dc=precision,
        mmd_linear=mmd, mmd_rbf=mmd, k=5, rbf_sigma=1.0,
    )


def test_oriented_rhos_ideal_directions():
    ratios = (0.0, 0.5, 1.0)
    # quality degrades: fd rises, precision-family falls -> all +1
    reports = [synth_report(0.0, 1.0, 0.0), synth_report(1.0, 0.6, 0.5),
               synth_report(2.0, 0.1, 0.9)]
    rhos, flags = oriented_rhos(ratios, reports)
    for name in METRIC_NAMES:
        assert rhos[name] == 1.0, name
        assert not flags[name]


def test_oriented_rhos_inverted_directions():
    ratios = (0.0, 0.5, 1.0)
    reports = [synth_report(2.0, 0.1, 0.9), synth_report(1.0, 0.6, 0.5),
               synth_report(0.0, 1.0, 0.0)]
    rhos, _ = oriented_rhos(ratios, reports)
    for name in METRIC_NAMES:
        assert rhos[name] == -1.0, name


def test_oriented_rhos_constant_metric_flagged():
    ratios = (0.0, 0.5, 1.0)
    reports = [synth_report(0.0, 1.0), synth_report(1.0, 1.0), synth_report(2.0, 1.0)]
    rhos, flags = oriented_rhos(ratios, reports)
    assert flags["precision"] and rhos["precision"] == 0.0
    assert not flags["fd"] and rhos["fd"] == 1.0


# -------------------------------------------------------------- pipeline


def test_run_benchmark_all_kinds():
    gs = small_set(12)
    embed = random_embed()
    for kind in PERTURBATION_KINDS:
        # numpy integers reach the curve as a plain int k and plain float ratios
        curves = run_benchmark(gs, embed, kind, seeds=(0,), step=0.5,
                               num_clusters=np.int64(3), k=np.int64(5))
        curve = curves[0]
        assert curve.kind == kind and curve.seed == 0
        assert type(curve.reports[0].k) is int and type(curve.ratios[1]) is float
        assert len(curve.reports) == len(curve.ratios)
        assert curve.ratios[0] == 0.0
        assert set(curve.rhos) == set(METRIC_NAMES)
        assert all(np.isfinite(v) for v in curve.rhos.values())
        if kind == "mode_drop":
            assert curve.ratios[-1] < 1.0
        else:
            assert curve.ratios[-1] == 1.0


def test_run_benchmark_unknown_kind():
    with pytest.raises(ValueError):
        run_benchmark(small_set(), random_embed(), "shuffle")


def test_run_benchmark_needs_a_seed():
    with pytest.raises(ValueError, match="seeds is empty"):
        run_benchmark(small_set(), random_embed(), "mix_random", seeds=())


def test_run_benchmark_checks_k_before_any_embedding():
    def embed(set_a, set_b):
        raise AssertionError("embedded before k was checked")

    with pytest.raises(ValueError, match="k must be >= 1"):
        run_benchmark(small_set(), embed, "mix_random", k=0)
    with pytest.raises(TypeError, match="k must be an integer"):
        run_benchmark(small_set(), embed, "mix_random", k=2.5)


def test_run_benchmark_checks_seeds_before_any_embedding():
    def embed(set_a, set_b):
        raise AssertionError("embedded before the seeds were checked")

    # a float seed used to run as int(seed) and label its curve so
    for seeds in ((1.7,), (0, True)):
        with pytest.raises(TypeError, match="each seed must be an integer"):
            run_benchmark(small_set(), embed, "rewire", seeds=seeds)
    with pytest.raises(ValueError, match="each seed must be >= 0, got -1"):
        run_benchmark(small_set(), embed, "rewire", seeds=(-1,))


def test_run_benchmark_checks_grid_length_before_any_work(monkeypatch):
    def embed(set_a, set_b):
        raise AssertionError("embedded before the grid was checked")

    def gram(graphs):
        raise AssertionError("clustered before the grid was checked")

    monkeypatch.setattr(benchmark, "wl_kernel_gram", gram)
    # spearman needs 3 ratios: each of these grids holds 2
    for kind, setting in (("mix_random", {"step": 1.0}), ("rewire", {"step": 1.0}),
                          ("mode_collapse", {"num_clusters": 1}),
                          ("mode_drop", {"num_clusters": 2})):
        with pytest.raises(ValueError, match="needs at least 3 ratios"):
            run_benchmark(small_set(), embed, kind, **setting)


def test_mode_drop_sweep_computes_each_graphs_features_once(monkeypatch):
    import ggeval.features

    lobsters = GraphSet("lobsters", tuple(gen_lobster(substream(30, i)) for i in range(12)))
    cfg = EncoderConfig(num_layers=2, hidden=8, feature_config="degree+clustering")
    computed = []
    original = ggeval.features.clustering

    def spy(graph):
        computed.append(graph)
        return original(graph)

    monkeypatch.setattr(ggeval.features, "clustering", spy)
    run_benchmark(lobsters, partial(embed_union, init_random(cfg, seed=0)), "mode_drop",
                  seeds=(0, 1), num_clusters=4)
    # every set the sweep embeds holds only reference graphs: 2 seeds x 4 ratios
    # x 24 rows, of which each of the 12 graphs is computed the first time only
    assert len(computed) == len(lobsters)
    assert {id(g) for g in computed} == {id(g) for g in lobsters}


def test_benchmark_deterministic_and_seed_sensitive():
    gs = small_set(8)
    embed = random_embed()
    a = run_benchmark(gs, embed, "mix_random", seeds=(3,), step=0.5)[0]
    b = run_benchmark(gs, embed, "mix_random", seeds=(3,), step=0.5)[0]
    c = run_benchmark(gs, embed, "mix_random", seeds=(4,), step=0.5)[0]
    assert a.reports == b.reports
    assert a.reports != c.reports


def test_baseline_run_starts_at_ideal():
    # r=0 compares the set with itself: identity values by construction
    curve = run_benchmark(small_set(8), random_embed(), "mix_random", step=0.5)[0]
    first = curve.reports[0]
    assert first.fd < 1e-8
    assert first.precision == 1.0 and first.coverage == 1.0


def test_curve_rows_and_csv():
    gs = small_set(8)
    curves = run_benchmark(gs, random_embed(), "mix_random", seeds=(0, 1), step=0.5)
    rows = curves[0].to_rows()
    assert rows[0] == ("seed", "r") + tuple(REPORT_FIELDS)
    assert len(rows) == 1 + len(curves[0].ratios)
    text = curves_to_csv(curves)
    lines = text.strip().split("\n")
    assert lines[0].startswith("seed,r,fd,")
    assert len(lines) == 1 + 2 * len(curves[0].ratios)


def test_rho_summary_shape():
    gs = small_set(8)
    curves = run_benchmark(gs, random_embed(), "mix_random", seeds=(0, 1), step=0.5)
    summary = rho_summary(curves)
    assert set(summary) == set(METRIC_NAMES)
    for stats in summary.values():
        assert set(stats) == {"mean", "median"}


def test_benchmark_default_constants():
    assert DEFAULT_RATIO_STEP == 0.01
    assert DEFAULT_NUM_CLUSTERS == 10


# ------------------------------------------------------------ BLAS threads

THREAD_SCRIPT = """
from functools import partial
from ggeval.benchmark import run_benchmark
from ggeval.encoder import EncoderConfig, embed_union, init_random
from ggeval.generators import gen_dataset

reference = gen_dataset("lobster", 12, seed=0)
config = EncoderConfig(feature_config="degree+clustering")
embed = partial(embed_union, init_random(config, seed=0))
for kind in ("rewire", "mode_collapse"):
    for curve in run_benchmark(reference, embed, kind, seeds=(0,), step=0.25, num_clusters=3):
        print(kind, curve.ratios, curve.rhos, [report.as_dict() for report in curve.reports])
"""


def test_scoring_does_not_depend_on_blas_threads():
    # scoring takes no product whose rounding depends on the thread count:
    # the forward pass multiplies every row through gemm alone, and the
    # linear MMD is a closed form of column sums
    src = os.path.dirname(os.path.dirname(ggeval.__file__))
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        done = subprocess.run([sys.executable, "-c", THREAD_SCRIPT], env=env,
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        outputs.append(done.stdout)
    assert outputs[0].count("\n") == 2
    assert outputs[0] == outputs[1]
