import numpy as np
import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ggeval.errors import CensusTooLargeError
from ggeval.features import (
    FEATURE_CONFIGS,
    ORBIT4_CLASSES,
    _ORBIT4_LUT,
    clustering,
    degrees,
    feature_dim,
    orbit_census_4,
    structural_features,
    wl_first_separation,
    wl_kernel_gram,
)
from ggeval.generators import gen_cycle_pair, gen_grid
from ggeval.graphs import Graph

TRIANGLE = Graph(3, edges=[(0, 1), (1, 2), (0, 2)])
SQUARE = Graph(4, edges=[(0, 1), (1, 2), (2, 3), (0, 3)])
PATH3 = Graph(3, edges=[(0, 1), (1, 2)])
K4 = Graph(4, edges=[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])


def test_degrees():
    assert degrees(PATH3).tolist() == [1, 2, 1]
    assert degrees(Graph(3)).tolist() == [0, 0, 0]
    g = oracles.random_graph(np.random.default_rng(1), 12, 0.3)
    assert degrees(g).sum() == 2 * g.num_edges


def test_triangle_clustering_closed_forms():
    assert clustering(TRIANGLE)[0].tolist() == [1.0, 1.0, 1.0]
    assert clustering(SQUARE)[0].tolist() == [0.0, 0.0, 0.0, 0.0]
    assert clustering(PATH3)[0].tolist() == [0.0, 0.0, 0.0]
    assert clustering(K4)[0].tolist() == [1.0] * 4
    # paw: triangle 0-1-2 plus pendant 3 on node 2
    paw = Graph(4, edges=[(0, 1), (1, 2), (0, 2), (2, 3)])
    assert clustering(paw)[0].tolist() == [1.0, 1.0, 1 / 3, 0.0]


def test_square_clustering_closed_forms():
    # in C4 each node: one neighbor pair, q=1, den=2+2-1-0=3
    assert np.allclose(clustering(SQUARE)[1], 1 / 3)
    assert clustering(TRIANGLE)[1].tolist() == [0.0, 0.0, 0.0]
    assert clustering(PATH3)[1].tolist() == [0.0, 0.0, 0.0]
    # K4: every neighbor pair adjacent, q=1, den=3+3-1-2=3
    assert np.allclose(clustering(K4)[1], 1 / 3)


def test_isolated_and_degree_one_nodes_are_zero():
    c3, c4 = clustering(Graph(4, edges=[(0, 1)]))
    assert c3.tolist() == [0.0] * 4
    assert c4.tolist() == [0.0] * 4


@pytest.mark.parametrize("seed", range(10))
def test_clustering_matches_bruteforce(seed):
    rng = np.random.default_rng(seed)
    # half the draws at the 60-100 nodes of the reproduction's graphs, where
    # the closed forms sum larger integers
    lo, hi = (5, 20) if seed < 5 else (60, 101)
    g = oracles.random_graph(rng, int(rng.integers(lo, hi)), float(rng.uniform(0.1, 0.6)))
    c3, c4 = clustering(g)
    np.testing.assert_allclose(c3, oracles.triangle_clustering_slow(g), rtol=1e-12, atol=0)
    np.testing.assert_allclose(c4, oracles.square_clustering_slow(g), rtol=1e-12, atol=0)


def test_census_closed_forms():
    assert orbit_census_4(K4).counts["a"] == 1
    assert orbit_census_4(SQUARE).counts["c"] == 1
    census = orbit_census_4(Graph(4))
    assert census.counts["k"] == 1
    assert sum(census.class_counts) == 1
    # 5-cycle: every 4-subset induces a 3-edge path
    five = Graph(5, edges=[(i, (i + 1) % 5) for i in range(5)])
    assert orbit_census_4(five).counts["j"] == 5
    assert sum(orbit_census_4(five).class_counts) == 5


def test_census_total_is_binomial():
    g = oracles.random_graph(np.random.default_rng(3), 9, 0.4)
    assert sum(orbit_census_4(g).class_counts) == 9 * 8 * 7 * 6 // 24


@pytest.mark.parametrize("seed", range(8))
def test_census_matches_isomorphism_oracle(seed):
    rng = np.random.default_rng(100 + seed)
    g = oracles.random_graph(rng, int(rng.integers(4, 12)), float(rng.uniform(0.2, 0.7)))
    assert orbit_census_4(g).counts == oracles.orbit_census_slow(g)


def test_orbit_lut_matches_permutation_oracle():
    assert _ORBIT4_LUT.tolist() == oracles.orbit4_lut_by_permutation().tolist()


def test_census_small_graphs():
    assert sum(orbit_census_4(Graph(3, edges=[(0, 1)])).class_counts) == 0
    assert sum(orbit_census_4(Graph(0)).class_counts) == 0


def test_census_size_cap():
    with pytest.raises(CensusTooLargeError):
        orbit_census_4(Graph(61))


def test_census_vector_order():
    assert list(orbit_census_4(K4).class_counts) == [int(c == "a") for c in ORBIT4_CLASSES]


def test_census_equality_semantics():
    a = orbit_census_4(SQUARE)
    b = orbit_census_4(Graph(4, edges=[(1, 2), (2, 3), (0, 3), (0, 1)]))
    assert a == b
    assert a != orbit_census_4(K4)
    assert a != a.counts
    assert hash(a) == hash(b)
    with pytest.raises(TypeError):
        a.counts["c"] = 5
    a.counts.copy()["c"] = 5
    assert a.counts["c"] == 1 and a == b


def test_wl_distinguish_basic():
    # path vs star on 4 nodes: degree histograms differ at iteration 0
    path = Graph(4, edges=[(0, 1), (1, 2), (2, 3)])
    star = Graph(4, edges=[(0, 1), (0, 2), (0, 3)])
    sep, it = wl_first_separation(path, star, 3)
    assert sep and it == 0


def test_wl_distinguish_needs_iterations():
    # C6 vs C3+C3: identical degree histograms, separated by refinement
    c6 = Graph(6, edges=[(i, (i + 1) % 6) for i in range(6)])
    two_c3 = Graph(6, edges=[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    sep, it = wl_first_separation(c6, two_c3, 12)
    assert not sep and it is None  # regular pairs are a known WL blind spot


def test_wl_separates_bridged_cycle_pairs():
    sep, it = wl_first_separation(gen_cycle_pair(5, 8), gen_cycle_pair(6, 7), 13)
    assert sep and it == 3


def test_wl_kernel_symmetry_and_self():
    a = gen_grid(2, 3)
    b = Graph(6, edges=[(i, (i + 1) % 6) for i in range(6)])
    # the joint palette does not depend on the order of the graphs
    assert wl_kernel_gram([a, b])[0, 1] == wl_kernel_gram([b, a])[0, 1]
    assert wl_kernel_gram([a])[0, 0] > 0


def test_wl_kernel_negative_depth_rejected():
    with pytest.raises(ValueError, match="h must be >= 0"):
        wl_kernel_gram([TRIANGLE, PATH3], -1)
    # a float depth used to build level 0 before range() rejected it
    with pytest.raises(TypeError, match="h must be an integer"):
        wl_kernel_gram([TRIANGLE, PATH3], 2.5)
    with pytest.raises(ValueError, match="max_iter must be >= 1"):
        wl_first_separation(TRIANGLE, PATH3, 0)
    with pytest.raises(TypeError, match="max_iter must be an integer"):
        wl_first_separation(TRIANGLE, PATH3, 2.5)


def test_wl_kernel_gram_psd_and_consistent():
    graphs = [gen_grid(2, 3), gen_grid(3, 3), TRIANGLE, SQUARE, PATH3]
    gram = wl_kernel_gram(graphs, h=3)
    np.testing.assert_allclose(gram, gram.T)
    eigs = np.linalg.eigvalsh(gram)
    assert eigs.min() >= -1e-9 * max(1.0, eigs.max())


def test_wl_kernel_gram_cauchy_schwarz():
    graphs = [gen_grid(2, 3), TRIANGLE, SQUARE]
    gram = wl_kernel_gram(graphs, h=2)
    for i in range(3):
        for j in range(3):
            assert gram[i, j] ** 2 <= gram[i, i] * gram[j, j] + 1e-9


def test_wl_kernel_hand_checked_values():
    # degree colors only match at round 0 for triangle vs P3 (3 x 1); a
    # triangle is 3 same-colored nodes in every round (4 x 9); P3 keeps
    # 2 ends and 1 middle (4 x (4 + 1)). C5 reaches its fixed point at
    # round 1, so rounds past it keep counting 5 same-colored nodes
    # (11 x 25)
    five = Graph(5, edges=[(i, (i + 1) % 5) for i in range(5)])
    cases = ((TRIANGLE, PATH3, 3, 3), (TRIANGLE, TRIANGLE, 3, 36), (PATH3, PATH3, 3, 20),
             (five, five, 10, 275))
    for a, b, h, k in cases:
        assert wl_kernel_gram([a, b], h)[0, 1] == k
        assert oracles.wl_subtree_kernel_slow(a, b, h) == k


@st.composite
def small_graph_lists(draw):
    graphs = []
    for _ in range(draw(st.integers(1, 4))):
        n = draw(st.integers(0, 8))
        pairs = draw(st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)), max_size=16))
        graphs.append(Graph(n, [(u, v) for u, v in pairs if u != v and max(u, v) < n]))
    return graphs


@settings(max_examples=60, deadline=None)
@given(graphs=small_graph_lists(), h=st.integers(0, 3))
def test_wl_kernel_gram_matches_counter_oracle(graphs, h):
    gram = wl_kernel_gram(graphs, h)
    for i, a in enumerate(graphs):
        for j, b in enumerate(graphs):
            expected = oracles.wl_subtree_kernel_slow(a, b, h)
            assert gram[i, j] == expected


def test_structural_feature_columns():
    g = TRIANGLE
    f_none = structural_features(g, "none")
    assert f_none.shape == (3, 1) and np.all(f_none == 1.0)
    f_deg = structural_features(g, "degree")
    assert f_deg.shape == (3, 2)
    assert f_deg[:, 1].tolist() == [2.0, 2.0, 2.0]
    f_full = structural_features(g, "degree+clustering")
    assert f_full.shape == (3, 4)
    np.testing.assert_allclose(f_full[:, 2], 1.0)  # triangle clustering
    np.testing.assert_allclose(f_full[:, 3], 0.0)  # square clustering


def test_feature_dim_matches_configs():
    g = gen_grid(2, 3)
    for config in FEATURE_CONFIGS:
        assert structural_features(g, config).shape == (g.num_nodes, feature_dim(config))


def test_unknown_feature_config():
    with pytest.raises(ValueError):
        structural_features(TRIANGLE, "bogus")


def test_structural_features_cached_read_only_per_selector():
    g = gen_cycle_pair(5, 8)
    first = {config: structural_features(g, config) for config in FEATURE_CONFIGS}
    for config, feats in first.items():
        assert structural_features(g, config) is feats
        with pytest.raises(ValueError):
            feats[0, 0] = 7.0
        # an equal graph built afresh computes the same rows itself
        fresh = structural_features(Graph(g.num_nodes, g.edges), config)
        assert fresh is not feats
        np.testing.assert_array_equal(fresh, feats)
    assert len({id(feats) for feats in first.values()}) == len(FEATURE_CONFIGS)
