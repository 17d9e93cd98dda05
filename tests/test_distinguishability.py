"""Cycle-pair construction checks: local equivalence, WL separation, and
the embedding ceiling of message-passing encoders."""

import numpy as np
import pytest

from ggeval.distinguishability import (
    DEFAULT_CYCLE_TUPLES,
    CyclePairReport,
    GnnCeilingReport,
    LocalEquivalenceReport,
    check_cycle_hypotheses,
    cycle_graph,
    cycle_pair_graphs,
    two_triangles,
    verify_cycle_pair,
    verify_gnn_ceiling,
    verify_local_equivalence,
    verify_wl_separation,
    wl_ceiling_pair,
)
from ggeval.encoder import EncoderConfig, calibrate, init_random
from ggeval.errors import HypothesisViolationError
from ggeval.features import clustering, degrees, wl_first_separation


# --- hypothesis validation ---------------------------------------------------


@pytest.mark.parametrize("params", [
    (3, 5, 4, 4),    # a not > 4 (and c = d)
    (5, 8, 6, 8),    # d not < b
    (5, 9, 6, 7),    # sums differ
    (6, 9, 5, 10),   # a not < c
    (5, 8, 7, 6),    # c not < d
])
def test_bad_hypotheses_rejected(params):
    with pytest.raises(HypothesisViolationError):
        check_cycle_hypotheses(*params)
    with pytest.raises(HypothesisViolationError):
        cycle_pair_graphs(*params)


def test_good_hypotheses_accepted():
    for params in DEFAULT_CYCLE_TUPLES:
        check_cycle_hypotheses(*params)


def test_default_tuples_well_formed():
    assert DEFAULT_CYCLE_TUPLES == ((5, 8, 6, 7), (5, 9, 6, 8), (5, 10, 7, 8))
    for a, b, c, d in DEFAULT_CYCLE_TUPLES:
        assert 4 < a < c < d < b and a + b == c + d


# --- local equivalence -------------------------------------------------------


@pytest.mark.parametrize("params", DEFAULT_CYCLE_TUPLES)
def test_local_equivalence_exact(params):
    report = verify_local_equivalence(*params)
    assert report.passed
    assert report.mismatch is None
    assert report.degrees_equal
    assert report.clustering_all_zero
    assert report.four_clustering_all_zero
    assert report.census_equal
    assert report.params == params


def test_local_report_failure_path():
    report = LocalEquivalenceReport(
        params=(5, 8, 6, 7), degrees_equal=True, clustering_all_zero=False,
        four_clustering_all_zero=True, census_equal=True,
        mismatch="nonzero triangle clustering coefficient found",
    )
    assert not report.passed


def test_pair_graphs_structure():
    g1, g2 = cycle_pair_graphs(5, 8, 6, 7)
    # both graphs: a + b nodes, a + b + 1 edges (two cycles plus bridge)
    for g in (g1, g2):
        assert g.num_nodes == 13
        assert len(g.edges) == 14
        degs = sorted(int(x) for x in degrees(g))
        assert degs == [2] * 11 + [3, 3]


# --- WL separation -----------------------------------------------------------


@pytest.mark.parametrize("params", DEFAULT_CYCLE_TUPLES)
def test_wl_separation_within_budget(params):
    separated, iteration = verify_wl_separation(*params)
    assert separated
    assert 1 <= iteration <= sum(params[:2])


def test_wl_separation_first_tuple_iteration():
    separated, iteration = verify_wl_separation(5, 8, 6, 7)
    assert separated and iteration == 3


@pytest.mark.parametrize("params", DEFAULT_CYCLE_TUPLES)
def test_cycle_pair_report(params):
    report = verify_cycle_pair(*params)
    assert isinstance(report, CyclePairReport)
    assert report.passed
    assert report.params == params
    assert report.wl_budget == params[0] + params[1]
    assert report.local.passed
    assert report.wl_iteration <= report.wl_budget


# --- encoder separation above the WL iteration -------------------------------


def test_deep_encoder_separates_pair():
    g1, g2 = cycle_pair_graphs(5, 8, 6, 7)
    cfg = EncoderConfig(num_layers=3, hidden=16, feature_config="degree")
    for seed in range(5):
        _, emb = calibrate(init_random(cfg, seed=seed), [g1, g2])
        assert float(np.max(np.abs(emb[0] - emb[1]))) > 1e-6


def test_shallow_encoder_cannot_separate_pair():
    # separation happens at WL iteration 3, so two message passing rounds
    # see identical color statistics and the embeddings agree to noise
    g1, g2 = cycle_pair_graphs(5, 8, 6, 7)
    cfg = EncoderConfig(num_layers=2, hidden=16, feature_config="degree")
    for seed in range(5):
        _, emb = calibrate(init_random(cfg, seed=seed), [g1, g2])
        assert float(np.max(np.abs(emb[0] - emb[1]))) < 1e-9


# --- the converse pair: WL-equivalent, locally different ---------------------


def test_ceiling_pair_graphs():
    c6, tri2 = wl_ceiling_pair()
    assert c6.num_nodes == tri2.num_nodes == 6
    assert len(c6.edges) == len(tri2.edges) == 6
    assert clustering(c6)[0].tolist() == [0.0] * 6
    assert clustering(tri2)[0].tolist() == [1.0] * 6
    assert wl_first_separation(c6, tri2, max_iter=12) == (False, None)


def test_cycle_graph_validation():
    with pytest.raises(ValueError):
        cycle_graph(2)
    g = cycle_graph(4)
    assert g.num_nodes == 4 and len(g.edges) == 4
    assert two_triangles().num_nodes == 6


def test_gnn_ceiling_default():
    report = verify_gnn_ceiling(num_inits=20, seed=0)
    assert isinstance(report, GnnCeilingReport)
    assert report.passed
    assert report.embeddings_identical
    assert report.max_gap < 1e-7
    assert report.clustering_differs
    assert not report.wl_separated
    assert len(report.gaps) == 20


def test_gnn_ceiling_custom_pair_and_inits():
    # a separable pair must break the ceiling claim
    report = verify_gnn_ceiling(pair=cycle_pair_graphs(5, 8, 6, 7),
                                num_inits=3, seed=1)
    assert not report.embeddings_identical
    assert not report.passed
    assert report.wl_separated
    assert len(report.gaps) == 3
    # no inits would leave no gap for .passed to take the max of
    with pytest.raises(ValueError, match="num_inits must be >= 1"):
        verify_gnn_ceiling(num_inits=0)
    with pytest.raises(TypeError, match="num_inits must be an integer"):
        verify_gnn_ceiling(num_inits=2.5)
