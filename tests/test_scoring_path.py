"""Differential tests: the in-place forward pass, the one-pass packing and
the blockwise distances against the allocating, pooled versions kept in
oracles.py. Every comparison is byte for byte."""

import warnings

import numpy as np
import oracles
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ggeval.encoder import (
    EncoderConfig,
    forward_batch,
    init_random,
    pack_graphs,
)
from ggeval.graphs import Graph
from ggeval.metrics import (
    REPORT_FIELDS,
    _expand,
    _mmd,
    _rbf_blocks,
    _sq_dists,
    evaluate,
    prdc,
)
from ggeval.training import encoder_backward


def assert_same_bytes(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


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
                           mlp_depth=draw(st.integers(1, 3)),
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
@example(case=(init_random(EncoderConfig(mlp_depth=3)), [Graph(0)], EncoderConfig(mlp_depth=3)))
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
@example(case=(init_random(EncoderConfig(mlp_depth=3)), [Graph(0)], EncoderConfig(mlp_depth=3)),
         collect_cache=True)
@example(case=(init_random(EncoderConfig()), [Graph(1)], EncoderConfig()), collect_cache=True)
@example(case=(init_random(EncoderConfig()), [Graph(5)], EncoderConfig()), collect_cache=False)
def test_forward_matches_oracle(case, collect_cache):
    params, graphs, config = case
    batch = pack_graphs(graphs, config)
    d_emb = np.random.default_rng(0).normal(size=(len(graphs), config.embedding_dim))
    with warnings.catch_warnings():
        # a batch without nodes has empty normalization statistics
        warnings.simplefilter("ignore", RuntimeWarning)
        emb, cache = forward_batch(params, batch, collect_cache)
        emb_slow, cache_slow = oracles.forward_batch_slow(params, batch, collect_cache)
    assert_same_bytes(emb, emb_slow)
    if not collect_cache:
        assert cache is None
        return
    for lc, lc_slow in zip(cache["layers"], cache_slow["layers"], strict=True):
        for step, step_slow in zip(lc["steps"], lc_slow["steps"], strict=True):
            assert step.keys() == step_slow.keys()
            for key in step:
                assert_same_bytes(step[key], step_slow[key])
    grads = encoder_backward(params, cache, d_emb)
    grads_slow = encoder_backward(params, cache_slow, d_emb)
    assert grads.keys() == grads_slow.keys()
    for name in grads:
        assert_same_bytes(grads[name], grads_slow[name])


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
        assert_same_bytes(report[name], expected[name])


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
                      oracles.mmd_pooled(real, gen, "rbf", True, sigma))
