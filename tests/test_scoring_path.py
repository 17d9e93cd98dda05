"""Differential tests: the in-place forward pass, the one-pass packing and
the blockwise distances against the allocating, pooled versions kept in
oracles.py. Every comparison is byte for byte, except for batch statistics
taken over more than one run, which round differently from the oracle's
one-pass sums and are held to 1e-12 of exact ones, for a graph's row when it
is embedded on its own, which the contract holds to 1e-12 of its row in the
reference, and for the linear MMD, held to 1e-12 of an exact evaluation."""

import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import oracles
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import ggeval.encoder as encoder
import ggeval.training as training
from ggeval.encoder import (
    EncoderConfig,
    calibrate,
    embed_set,
    embed_union,
    forward_batch,
    init_random,
    pack_graphs,
)
from ggeval.errors import DegenerateSetError
from ggeval.generators import gen_dataset
from ggeval.graphs import Graph
from ggeval.metrics import (
    REPORT_FIELDS,
    _expand,
    _median_sigma,
    _mmd,
    _rbf_blocks,
    _sq_dists,
    evaluate,
    prdc,
)
from ggeval.training import TrainConfig, encoder_backward, train_graphcl


def assert_same_bytes(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


def assert_rows_close(emb, expected):
    """Each row within 1e-12 of the expected row's norm."""
    assert emb.shape == expected.shape
    err = np.linalg.norm(emb - expected, axis=1)
    assert np.all(err <= 1e-12 * np.linalg.norm(expected, axis=1))


def assert_same_csr(a, b):
    assert a.shape == b.shape
    for part in ("data", "indices", "indptr"):
        assert_same_bytes(getattr(a, part), getattr(b, part))


# ------------------------------------------------------------ encoder


@st.composite
def small_graphs(draw):
    """0- to 9-node graphs, edgeless ones included."""
    n = draw(st.integers(0, 9))
    if n < 2:
        return Graph(n)
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          max_size=20))
    return Graph(n, [(u, v) for u, v in pairs if u != v])


@st.composite
def encoder_cases(draw):
    """(params with nonzero biases and affine terms, graphs, config)."""
    feature_config = draw(st.sampled_from(("none", "degree", "degree+clustering",
                                           "provided")))
    config = EncoderConfig(num_layers=draw(st.integers(1, 3)),
                           hidden=draw(st.integers(1, 6)),
                           feature_config=feature_config,
                           input_dim=3 if feature_config == "provided" else None)
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    params = init_random(config, seed=seed)
    for name, value in params.weights.items():
        params.weights[name] = value + rng.normal(scale=0.5, size=value.shape)
    graphs = draw(st.lists(small_graphs(), min_size=1, max_size=6))
    if feature_config == "provided":
        graphs = [Graph(g.num_nodes, g.edges,
                        node_features=rng.normal(size=(g.num_nodes, 3)))
                  for g in graphs]
    return params, graphs, config


@settings(max_examples=150, deadline=None)
@given(case=encoder_cases())
@example(case=(init_random(EncoderConfig()), [Graph(0)], EncoderConfig()))
@example(case=(init_random(EncoderConfig()), [Graph(1)], EncoderConfig()))
@example(case=(init_random(EncoderConfig()), [Graph(5)], EncoderConfig()))
def test_packing_matches_oracle(case):
    _, graphs, config = case
    fast = pack_graphs(graphs, config)
    slow = oracles.pack_graphs_slow(graphs, config)
    assert_same_bytes(fast.features, slow.features)
    assert_same_csr(fast.agg, slow.agg)
    assert_same_csr(fast.pool, slow.pool)


@settings(max_examples=150, deadline=None)
@given(case=encoder_cases(), collect_cache=st.booleans())
@example(case=(init_random(EncoderConfig()), [Graph(0)], EncoderConfig()), collect_cache=True)
@example(case=(init_random(EncoderConfig()), [Graph(1)], EncoderConfig()), collect_cache=True)
@example(case=(init_random(EncoderConfig()), [Graph(5)], EncoderConfig()), collect_cache=False)
def test_forward_matches_oracle(case, collect_cache):
    params, graphs, config = case
    batch = pack_graphs(graphs, config)
    d_emb = np.random.default_rng(0).normal(size=(len(graphs), config.embedding_dim))
    with warnings.catch_warnings():
        # a batch without nodes has empty normalization statistics
        warnings.simplefilter("ignore", RuntimeWarning)
        emb, stats, cache = forward_batch(params, batch, collect_cache)
        emb_slow, stats_slow, cache_slow = oracles.forward_batch_slow(params, batch,
                                                                      collect_cache)
        # the batch's statistics stored and applied give the batch's rows
        stored = forward_batch(params, batch, stats=stats)
        stored_slow = oracles.forward_batch_slow(params, batch, stats=stats)
    assert_same_bytes(emb, emb_slow)
    assert_same_bytes(stats, stats_slow)
    assert_same_bytes(stored[0], stored_slow[0])
    assert_same_bytes(stored[0], emb)
    assert_same_bytes(stored[1], stats)
    if not collect_cache:
        assert cache is None
        return
    for layer, layer_slow in zip(cache["layers"], cache_slow["layers"], strict=True):
        assert layer.keys() == layer_slow.keys()
        for key in layer:
            assert_same_bytes(layer[key], layer_slow[key])
    grads = encoder_backward(params, cache, d_emb)
    grads_slow = encoder_backward(params, cache_slow, d_emb)
    grads_oracle = oracles.encoder_backward_slow(params, cache, d_emb)
    assert grads.keys() == grads_slow.keys() == grads_oracle.keys()
    for name in grads:
        assert_same_bytes(grads[name], grads_slow[name])
        assert_same_bytes(grads[name], grads_oracle[name])


def test_training_with_oracle_backward_gives_same_parameters():
    graphs = list(gen_dataset("community", 40, seed=5))
    train_config = TrainConfig(epochs=2)
    fast = train_graphcl(graphs, EncoderConfig(), train_config)
    with mock.patch.object(training, "encoder_backward", oracles.encoder_backward_slow):
        slow = train_graphcl(graphs, EncoderConfig(), train_config)
    assert fast.epoch_losses == slow.epoch_losses
    assert fast.params.weights.keys() == slow.params.weights.keys()
    for name in fast.params.weights:
        assert_same_bytes(fast.params.weights[name], slow.params.weights[name])


@settings(max_examples=50, deadline=None)
@given(case=encoder_cases(), collect_cache=st.booleans())
def test_forward_leaves_weights_untouched(case, collect_cache):
    params, graphs, config = case
    before = {name: value.copy() for name, value in params.weights.items()}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        forward_batch(params, pack_graphs(graphs, config), collect_cache)
    assert params.weights.keys() == before.keys()
    for name, value in before.items():
        assert_same_bytes(params.weights[name], value)


@settings(max_examples=50, deadline=None)
@given(case=encoder_cases(), collect_cache=st.booleans())
def test_forward_leaves_batch_untouched(case, collect_cache):
    # the uncached pass writes in place, into arrays of its own only
    params, graphs, config = case
    batch = pack_graphs(graphs, config)
    features, agg, pool = batch.features.copy(), batch.agg.copy(), batch.pool.copy()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        forward_batch(params, batch, collect_cache)
    assert_same_bytes(batch.features, features)
    assert_same_csr(batch.agg, agg)
    assert_same_csr(batch.pool, pool)


@st.composite
def repeated_collections(draw):
    """(params, graphs, config, block_nodes): graphs repeats objects of a drawn list."""
    params, base, config = draw(encoder_cases())
    layout = draw(st.sampled_from(("leading", "interleaved", "copies", "halves")))
    if layout == "leading":  # copies of one graph before the rest
        graphs = [base[0]] * draw(st.integers(2, 4)) + base[1:]
    elif layout == "interleaved":
        picks = st.integers(0, len(base) - 1)
        graphs = [base[i] for i in draw(st.lists(picks, min_size=1, max_size=12))]
    elif layout == "copies":
        graphs = [base[0]] * draw(st.integers(1, 6))
    else:  # a union whose second half is the first
        graphs = base + base
    # runs of a few rows split the packed nodes, a 9-node graph's among them
    block_nodes = draw(st.sampled_from((1, 3, 5, 8, encoder.BLOCK_NODES)))
    return params, graphs, config, block_nodes


TWO_LAYERS = EncoderConfig(num_layers=2, hidden=4, feature_config="degree")
EMPTY, SINGLE = Graph(0), Graph(1)
NINE = Graph(9, [(i, i + 1) for i in range(8)])
TRIANGLE = Graph(3, [(0, 1), (1, 2), (0, 2)])
SQUARE = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])


def forward_exact_sums(params, batch):
    """oracles.forward_batch_slow without its rounded sums: each batch-norm
    column is centered on its first row and summed with math.fsum."""
    w = params.weights
    h = batch.features
    readouts = []
    for k in range(params.config.num_layers):
        z = oracles.gemm(batch.agg @ h, w[f"l{k}.m0.W"])
        z = z - z[:1]
        z -= np.array([math.fsum(col) for col in z.T]) / len(z)
        var = np.array([math.fsum(col) for col in np.square(z).T]) / len(z)
        normed = z / np.sqrt(var + encoder.BN_EPS)
        hidden = np.maximum(normed * w[f"l{k}.m0.gamma"] + w[f"l{k}.m0.beta"], 0.0)
        h = oracles.gemm(hidden, w[f"l{k}.m1.W"]) + w[f"l{k}.m1.b"]
        readouts.append(batch.pool @ h)
    return np.hstack(readouts)


def copies(graphs):
    """New graph objects equal to graphs, so a union packs them again."""
    return [Graph(g.num_nodes, g.edges, node_features=g.node_features) for g in graphs]


@settings(max_examples=300, deadline=None)
@given(case=repeated_collections())
@example(case=(init_random(EncoderConfig()), [EMPTY, EMPTY], EncoderConfig(), 5))
@example(case=(init_random(EncoderConfig()), [EMPTY, SINGLE], EncoderConfig(), 1))
@example(case=(init_random(TWO_LAYERS), [SINGLE, SINGLE], TWO_LAYERS, 5))
@example(case=(init_random(TWO_LAYERS), [TRIANGLE, NINE, TRIANGLE, SINGLE, NINE],
               TWO_LAYERS, 5))
@example(case=(init_random(TWO_LAYERS), [Graph(1), NINE, Graph(1)], TWO_LAYERS, 5))
# all rows equal: two copies of an edgeless graph, and a square whose last
# row is a run of its own
@example(case=(init_random(TWO_LAYERS), [Graph(5)] * 2, TWO_LAYERS, 3))
@example(case=(init_random(TWO_LAYERS), [SQUARE], TWO_LAYERS, 3))
def test_embed_set_matches_one_pack_oracle(case):
    params, graphs, config, block_nodes = case
    batch = oracles.pack_graphs_slow(graphs, config)
    with mock.patch.object(encoder, "BLOCK_NODES", block_nodes):
        if not batch.features.shape[0]:
            with pytest.raises(DegenerateSetError):
                calibrate(params, graphs)
            return
        calibrated, emb = calibrate(params, graphs)
        alone = np.vstack([embed_set(calibrated, [g]) for g in graphs])
        stored = embed_set(calibrated, graphs)
        generated = copies(graphs[::-1]) + graphs[:1]
        h_ref, h_gen = embed_union(params, graphs, generated)
    expected, stats, _ = oracles.forward_batch_slow(params, batch)
    if batch.features.shape[0] <= block_nodes:
        assert_same_bytes(calibrated.stats, stats)
        assert_same_bytes(emb, expected)
    else:
        # exact sums, not the oracle's: in a nearly constant column the
        # rounding of the oracle's mean is scaled by up to 1/sqrt(BN_EPS)
        # per layer, so its rows can miss the exact ones by more than 1e-12
        assert_rows_close(emb, forward_exact_sums(params, batch))
    # under stored statistics a row depends on no other graph
    assert_same_bytes(stored, oracles.forward_batch_slow(calibrated, batch,
                                                         stats=calibrated.stats)[0])
    assert_same_bytes(stored, emb)
    assert_rows_close(alone, emb)
    assert_same_bytes(h_ref, emb)
    assert_rows_close(h_gen, np.vstack([emb[::-1], emb[:1]]))


def test_stored_statistics_embed_a_pack_without_nodes():
    calibrated, _ = calibrate(init_random(TWO_LAYERS), [NINE, TRIANGLE])
    emb = embed_set(calibrated, [EMPTY, EMPTY])
    assert_same_bytes(emb, np.zeros((2, TWO_LAYERS.embedding_dim)))
    expected = oracles.forward_batch_slow(
        calibrated, oracles.pack_graphs_slow([EMPTY, EMPTY], TWO_LAYERS),
        stats=calibrated.stats)[0]
    assert_same_bytes(emb, expected)


def test_union_with_repeated_half_packs_only_distinct_graphs(monkeypatch):
    packed = []
    pack_graphs_ = encoder.pack_graphs

    def counting(graphs, config):
        batch = pack_graphs_(graphs, config)
        packed.append(batch.features.shape[0])
        return batch

    monkeypatch.setattr(encoder, "pack_graphs", counting)
    config = EncoderConfig(feature_config="degree+clustering")
    params = init_random(config, seed=0)
    graphs = list(gen_dataset("community", count=60, seed=0))
    h_a, h_b = embed_union(params, graphs, graphs)
    nodes = sum(g.num_nodes for g in graphs)
    assert packed == [nodes]
    _, expected = calibrate(params, graphs)
    assert_same_bytes(h_a, expected)
    assert_same_bytes(h_b, expected)


def test_orderings_of_one_multiset_embed_alike():
    # under stored statistics each row depends on its graph alone
    config = EncoderConfig(feature_config="degree+clustering")
    g = list(gen_dataset("community", count=40, seed=0))
    calibrated, _ = calibrate(init_random(config, seed=0), g)
    first = embed_set(calibrated, g[:20] + g[:20] + g[20:])
    second = embed_set(calibrated, g[:20] + g[20:] + g[:20])
    assert_same_bytes(first[20:], second[:40])
    assert_same_bytes(first[:20], second[40:])
    expected = oracles.forward_batch_slow(
        calibrated, oracles.pack_graphs_slow(g[:20] + g[:20] + g[20:], config),
        stats=calibrated.stats)[0]
    assert_same_bytes(first, expected)


def test_uncached_forward_holds_about_two_node_arrays(monkeypatch):
    # the pass keeps two (nodes, hidden) arrays, z and the second linear's
    # output, and every other temporary is at most BLOCK_NODES rows; a name
    # that keeps a whole-set array alive one op too long reads about 3. A
    # union whose generated set repeats the reference packs it once.
    config = EncoderConfig()
    params = init_random(config, seed=0)
    graphs = list(gen_dataset("community", count=300, seed=0))
    batch = pack_graphs(graphs, config)
    assert batch.features.shape[0] > 4 * encoder.BLOCK_NODES
    calibrated, _ = calibrate(params, graphs)
    # the packing is not measured here; embed_set and embed_union get it ready-made
    monkeypatch.setattr(encoder, "pack_graphs", lambda graphs, config: batch)
    for run in (lambda: forward_batch(params, batch),
                lambda: embed_set(calibrated, graphs),
                lambda: embed_union(params, graphs, graphs)):
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * batch.features.shape[0] * config.hidden * 8


# ------------------------------------------------------------ metrics


@st.composite
def embedding_pairs(draw):
    """(real, gen, k) with at least k+1 rows per set; coarse values give ties."""
    k = draw(st.integers(1, 4))
    dim = draw(st.integers(1, 4))
    values = st.integers(-6, 6).map(lambda v: v / 2.0) | st.floats(-50, 50)
    real = draw(arrays(np.float64, (draw(st.integers(k + 1, k + 8)), dim), elements=values))
    gen = draw(arrays(np.float64, (draw(st.integers(k + 1, k + 8)), dim), elements=values))
    return real, gen, k


EXACT_K_PLUS_1 = (np.arange(6.0).reshape(3, 2), np.arange(6.0).reshape(3, 2)[::-1] + 0.5, 2)


@settings(max_examples=200, deadline=None)
@given(case=embedding_pairs())
@example(case=EXACT_K_PLUS_1)
def test_evaluate_matches_pooled_oracle(case):
    real, gen, k = case
    report = evaluate(real, gen, k)
    expected = oracles.evaluate_pooled(real, gen, k)
    assert set(expected) == set(REPORT_FIELDS)
    for name in REPORT_FIELDS:
        if name != "mmd_linear":
            assert_same_bytes(report[name], expected[name])
    # each term of the closed form is at most about sum |x_i|^2 / (m - 1)
    m, n = len(real), len(gen)
    scale = np.sum(np.square(real)) / (m - 1) + np.sum(np.square(gen)) / (n - 1)
    assert abs(report.mmd_linear - expected["mmd_linear"]) <= 1e-12 * scale


@settings(max_examples=200, deadline=None)
@given(case=embedding_pairs(), sigma=st.floats(0.1, 10.0))
@example(case=EXACT_K_PLUS_1, sigma=1.0)
def test_prdc_mmd_and_sigma_match_pooled_oracle(case, sigma):
    real, gen, k = case
    scores = prdc(real, gen, k)
    expected = oracles.prdc_pooled(real, gen, k)
    assert scores.keys() == expected.keys()
    for name in scores:
        assert_same_bytes(scores[name], expected[name])
    # the rbf MMD at any bandwidth, not only the median one evaluate picks
    full = _expand(_sq_dists(real, gen))
    assert_same_bytes(_mmd(*_rbf_blocks(full, sigma)),
                      oracles.mmd_pooled(real, gen, "rbf", sigma))


@pytest.mark.parametrize("rows", [(2, 2), (2, 3), (3, 3), (3, 4), (4, 4), (5, 7), (17, 35)])
@pytest.mark.parametrize("values", ["continuous", "tied", "zero", "all zero"])
def test_median_sigma_matches_pooled_oracle(rows, values):
    # C(m + n, 2) pooled pairs: 6, 10, 15, 21, 28, 66 and 1,326, odd and even
    # counts; on the line, numpy's partition of the 1,326 leaves the lower
    # middle distance below the middle index but not next to it
    m, n = rows
    rng = np.random.default_rng(m * 10 + n)
    pooled = rng.normal(size=(m + n, 3))
    if values == "tied":  # evenly spaced points on a line repeat distances
        pooled = np.concatenate((np.arange(m), np.arange(n) + 0.5))[:, None]
    elif values == "zero":  # duplicated rows put zero distances at the low end
        pooled[1::2] = pooled[::2][:len(pooled[1::2])]
    elif values == "all zero":  # the degenerate fallback
        pooled[:] = pooled[0]
    real, gen = pooled[:m], pooled[m:]
    assert_same_bytes(_median_sigma(_sq_dists(real, gen)), oracles.median_sigma_pooled(real, gen))
