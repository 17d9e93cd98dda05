import warnings

import numpy as np
import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ggeval.encoder import EncoderConfig, calibrate, embed_set, init_random
from ggeval.errors import DegenerateBatchError, DegenerateSetError, FeatureMismatchError
from ggeval.generators import gen_lobster, substream
from ggeval.graphs import Graph, GraphSet
from ggeval.training import (
    AUGMENTATION_KINDS,
    TRAIN_VARIANTS,
    AdamState,
    AugmentationConfig,
    TrainConfig,
    apply_augmentation,
    attach_features,
    augment,
    edge_drop,
    finite_difference_check,
    induced_subgraph,
    init_head,
    loss_and_grads,
    node_drop,
    nt_xent,
    subgraph_walk,
    train_graphcl,
    train_step,
    variant_light_aug,
    variant_no_lipschitz,
)

TRIANGLE = Graph(3, edges=[(0, 1), (1, 2), (0, 2)])


def featured_graph(seed=0, n=10, p=0.4):
    rng = np.random.default_rng(seed)
    g = oracles.random_graph(rng, n, p)
    return Graph(g.num_nodes, g.edges, node_features=rng.normal(size=(n, 3)))


# ---------------------------------------------------------- augmentations


def test_induced_subgraph_relabeling():
    g = featured_graph(0)
    sub = induced_subgraph(g, [2, 5, 7])
    assert sub.num_nodes == 3
    np.testing.assert_array_equal(sub.node_features, g.node_features[[2, 5, 7]])
    original = g.edges.tolist()
    back = {(2, 5): [0, 1], (2, 7): [0, 2], (5, 7): [1, 2]}
    for pair, mapped in back.items():
        assert (mapped in sub.edges.tolist()) == (list(pair) in original)


def test_node_drop_extremes():
    g = featured_graph(1)
    same = node_drop(g, 0.0, substream(0))
    assert same == g
    empty = node_drop(g, 1.0, substream(0))
    assert empty.num_nodes == 0


def test_edge_drop_extremes():
    g = featured_graph(2)
    same = edge_drop(g, 0.0, substream(0))
    assert same == g
    bare = edge_drop(g, 1.0, substream(0))
    assert bare.num_nodes == g.num_nodes
    assert bare.num_edges == 0
    np.testing.assert_array_equal(bare.node_features, g.node_features)


def test_subgraph_walk_is_connected_induced_subgraph():
    g = featured_graph(3, n=12)
    rng = substream(1)
    for _ in range(20):
        sub = subgraph_walk(g, 6, rng)
        assert 1 <= sub.num_nodes <= g.num_nodes
        # connectivity: a walk visits a connected node set
        if sub.num_nodes > 1:
            seen = {0}
            stack = [0]
            neigh = [[] for _ in range(sub.num_nodes)]
            for u, v in sub.edges.tolist():
                neigh[u].append(v)
                neigh[v].append(u)
            while stack:
                for u in neigh[stack.pop()]:
                    if u not in seen:
                        seen.add(u)
                        stack.append(u)
            assert len(seen) == sub.num_nodes


def test_subgraph_walk_triangle_covers():
    # a length-10 walk on a triangle almost surely visits every node
    rng = substream(2)
    hits = sum(subgraph_walk(TRIANGLE, 10, rng).num_nodes == 3 for _ in range(50))
    assert hits >= 45


def test_subgraph_walk_isolated_start():
    g = Graph(3, edges=[(1, 2)])
    rng = substream(3)
    outs = {subgraph_walk(g, 5, rng).num_nodes for _ in range(30)}
    assert outs <= {1, 2}  # isolated start stops immediately


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    kind=st.sampled_from(AUGMENTATION_KINDS),
)
def test_augmentations_always_yield_valid_graphs(seed, kind):
    rng = np.random.default_rng(seed)
    g = featured_graph(seed, n=int(rng.integers(2, 14)), p=0.3)
    config = AugmentationConfig(enabled=(kind,))
    out = apply_augmentation(g, kind, config, substream(seed, 8))
    assert 0 <= out.num_nodes <= g.num_nodes
    for u, v in out.edges.tolist():
        assert 0 <= u < v < out.num_nodes
    if out.node_features is not None:
        assert out.node_features.shape[0] == out.num_nodes


def test_augment_carries_original_features():
    g = featured_graph(5, n=12)
    config = AugmentationConfig(node_drop_p=0.5, enabled=("node_drop",))
    view = augment(g, config, substream(9))
    # every surviving row must be one of the original rows, unrecomputed
    original = {tuple(row) for row in g.node_features}
    for row in view.node_features:
        assert tuple(row) in original


def test_every_augmentation_keeps_a_graph_without_nodes_empty():
    # a walk has no start node there; augment's redraw rule decides the view
    for kind in AUGMENTATION_KINDS:
        config = AugmentationConfig(enabled=(kind,))
        assert apply_augmentation(Graph(0), kind, config, substream(0)).num_nodes == 0
        assert augment(Graph(0), config, substream(0)).num_nodes == 0


def test_augment_empty_view_falls_back_to_original():
    g = Graph(1, node_features=[[1.0]])
    config = AugmentationConfig(node_drop_p=1.0, enabled=("node_drop",))
    assert augment(g, config, substream(0)) == g


def test_augmentation_config_validation():
    with pytest.raises(ValueError):
        AugmentationConfig(enabled=("bogus",))
    with pytest.raises(ValueError, match="attribute_mask"):
        AugmentationConfig(enabled=("attribute_mask",))
    with pytest.raises(ValueError):
        AugmentationConfig(enabled=())
    with pytest.raises(ValueError):
        AugmentationConfig(node_drop_p=1.5)
    AugmentationConfig(edge_drop_p=1.0)  # closed interval


# ---------------------------------------------------------------- nt-xent


def test_nt_xent_closed_form():
    # two identical pairs with orthogonal cross-pairs at tau=1: every row
    # sees one positive at sim 1 and two negatives at sim 0
    z = np.array([[1.0, 0.0], [0.0, 1.0]])
    loss, d1, d2 = nt_xent(z, z.copy(), tau=1.0)
    want = np.log(2.0 + np.e) - 1.0
    assert loss == pytest.approx(want, abs=1e-12)
    assert d1.shape == z.shape and d2.shape == z.shape


def test_nt_xent_scale_invariance():
    rng = np.random.default_rng(0)
    z1, z2 = rng.normal(size=(4, 8)), rng.normal(size=(4, 8))
    base, _, _ = nt_xent(z1, z2)
    scaled, _, _ = nt_xent(5.0 * z1, 5.0 * z2)
    assert scaled == pytest.approx(base, rel=1e-12)


def test_nt_xent_view_symmetry():
    rng = np.random.default_rng(1)
    z1, z2 = rng.normal(size=(5, 6)), rng.normal(size=(5, 6))
    la, d1a, d2a = nt_xent(z1, z2)
    lb, d2b, d1b = nt_xent(z2, z1)
    assert la == pytest.approx(lb, rel=1e-12)
    np.testing.assert_allclose(d1a, d1b, atol=1e-12)


def test_nt_xent_perfect_alignment_low_loss():
    rng = np.random.default_rng(2)
    z = rng.normal(size=(6, 16))
    aligned, _, _ = nt_xent(z, z.copy(), tau=0.1)
    shuffled, _, _ = nt_xent(z, np.roll(z, 1, axis=0), tau=0.1)
    assert aligned < shuffled


def test_nt_xent_gradient_matches_finite_differences():
    rng = np.random.default_rng(3)
    z1, z2 = rng.normal(size=(4, 8)), rng.normal(size=(4, 8))
    loss, d1, d2 = nt_xent(z1, z2, tau=0.5)
    h = 1e-6
    for z, d in ((z1, d1), (z2, d2)):
        for idx in [(0, 0), (1, 3), (3, 7), (2, 4)]:
            orig = z[idx]
            z[idx] = orig + h
            up = nt_xent(z1, z2, tau=0.5)[0]
            z[idx] = orig - h
            down = nt_xent(z1, z2, tau=0.5)[0]
            z[idx] = orig
            fd = (up - down) / (2 * h)
            assert d[idx] == pytest.approx(fd, rel=1e-5, abs=1e-9)


def test_nt_xent_validation():
    z = np.ones((1, 4))
    with pytest.raises(DegenerateBatchError):
        nt_xent(z, z)
    with pytest.raises(DegenerateBatchError):
        nt_xent(np.ones((3, 4)), np.ones((2, 4)))
    for tau in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="tau must be finite and > 0"):
            nt_xent(np.ones((2, 4)), np.ones((2, 4)), tau=tau)


# -------------------------------------------------------------- optimizer


def test_adam_moves_toward_minimum():
    # quadratic bowl: Adam with hand gradients must approach the optimum
    params = {"w": np.array([4.0, -2.0])}
    opt = AdamState(lr=0.05)
    for _ in range(400):
        grads = {"w": 2.0 * params["w"]}
        opt.update(params, grads)
    assert np.abs(params["w"]).max() < 1e-2


def test_adam_is_scale_adaptive():
    # equal parameter displacement despite a 1e6 gradient-scale gap
    params = {"a": np.array([1.0]), "b": np.array([1.0])}
    opt = AdamState(lr=0.01)
    opt.update(params, {"a": np.array([1.0]), "b": np.array([1e6])})
    assert params["a"][0] == pytest.approx(params["b"][0], rel=1e-6)


# --------------------------------------------------------------- training


def lobster_set(count=8, seed=0):
    return GraphSet(
        "lobsters", tuple(gen_lobster(rng=substream(seed, i)) for i in range(count))
    )


def small_cfg():
    return EncoderConfig(num_layers=2, hidden=8, feature_config="none")


def test_train_graphcl_smoke_and_loss_decrease():
    # Per-seed epoch losses are dominated by view-resampling noise at this
    # scale, so individual seeds may end higher than they started. The
    # seed-averaged first-to-last delta is the descent signal; training is
    # bit-deterministic per seed, so the assertion cannot flake.
    cfg = EncoderConfig(num_layers=3, hidden=32, feature_config="none")
    deltas = []
    for seed in range(10):
        result = train_graphcl(
            lobster_set(20, seed=seed),
            cfg,
            TrainConfig(epochs=10, batch_size=8, lr=0.001, seed=seed),
        )
        assert len(result.epoch_losses) == 10
        assert all(np.isfinite(result.epoch_losses))
        deltas.append(result.epoch_losses[-1] - result.epoch_losses[0])
    assert np.mean(deltas) < -0.02


def test_train_deterministic_per_seed():
    gs = lobster_set(6)
    tc = TrainConfig(epochs=3, batch_size=4, lr=0.005, seed=7)
    a = train_graphcl(gs, small_cfg(), tc)
    b = train_graphcl(gs, small_cfg(), tc)
    assert a.epoch_losses == b.epoch_losses
    for k in a.params.weights:
        np.testing.assert_array_equal(a.params.weights[k], b.params.weights[k])
    c = train_graphcl(gs, small_cfg(), TrainConfig(epochs=3, batch_size=4, lr=0.005, seed=8))
    assert a.epoch_losses != c.epoch_losses


def test_training_uses_batch_statistics_on_calibrated_params():
    # stored statistics serve embedding only: the loss, its gradients and the
    # finite-difference check normalize each batch with its own statistics
    cfg = small_cfg()
    views = attach_features(list(lobster_set(4)), cfg)
    plain = init_random(cfg, seed=0)
    calibrated, _ = calibrate(plain, attach_features(list(lobster_set(6, seed=9)), cfg))
    head = init_head(cfg.embedding_dim, substream(0, 3))
    loss, grads = loss_and_grads(plain, head, views[:2], views[2:], 0.2)
    loss_cal, grads_cal = loss_and_grads(calibrated, head, views[:2], views[2:], 0.2)
    assert loss_cal == loss
    for name in grads:
        assert grads_cal[name].tobytes() == grads[name].tobytes()
    assert finite_difference_check(calibrated, head, views[:2], views[2:], 0.2) < 1e-4


def test_gradients_cover_exactly_the_trainables():
    cfg = small_cfg()
    views = attach_features(list(lobster_set(4)), cfg)
    params = init_random(cfg, seed=0)
    head = init_head(cfg.embedding_dim, substream(0, 3))
    _, grads = loss_and_grads(params, head, views[:2], views[2:], 0.2)
    assert grads.keys() == params.weights.keys() | head.keys()
    for name, g in grads.items():
        assert g.shape == {**params.weights, **head}[name].shape


def test_train_graphcl_returns_params_calibrated_on_its_graphs():
    gs = lobster_set(6)
    result = train_graphcl(gs, small_cfg(), TrainConfig(epochs=1, batch_size=4, seed=3))
    expected, rows = calibrate(result.params, gs)
    assert result.params.stats.tobytes() == expected.stats.tobytes()
    assert embed_set(result.params, gs).tobytes() == rows.tobytes()


def test_train_step_keeps_spectral_bound():
    # checked after every update, not only at the end of training
    cfg = small_cfg()
    params = init_random(cfg, seed=0)
    head = init_head(cfg.embedding_dim, substream(0, 3))
    opt = AdamState(lr=0.05)
    graphs = attach_features(list(lobster_set(8)), cfg)
    for step in range(6):
        views1, views2 = (
            [augment(g, AugmentationConfig(), substream(step, i, view))
             for i, g in enumerate(graphs)]
            for view in (0, 1)
        )
        train_step(params, head, views1, views2, 0.2, opt, lipschitz=True)
        assert oracles.max_spectral_norm(params) <= cfg.lipschitz_bound + 1e-6


def test_train_without_projection_can_exceed_bound():
    result = train_graphcl(
        lobster_set(8),
        small_cfg(),
        TrainConfig(epochs=8, batch_size=4, lr=0.05, seed=0, lipschitz_enabled=False),
    )
    assert oracles.max_spectral_norm(result.params) > 1.0 + 1e-6


def test_train_single_graph_rejected():
    gs = GraphSet("one", (gen_lobster(rng=substream(0)),))
    with pytest.raises(DegenerateBatchError):
        train_graphcl(gs, small_cfg(), TrainConfig(epochs=1, seed=0))


def test_train_set_without_a_node_rejected():
    # a lone graph with a node could be every epoch's trailing batch of one
    lone = gen_lobster(rng=substream(0))
    for graphs in ((Graph(0),) * 3, (lone,) + (Graph(0),) * 3):
        with pytest.raises(DegenerateSetError, match="2 graphs with a node"):
            train_graphcl(GraphSet("few", graphs), small_cfg(), TrainConfig(epochs=1, seed=0))


def test_train_skips_batches_without_a_node():
    graphs = GraphSet("mixed", tuple(lobster_set(8)) + (Graph(0),) * 24)
    with warnings.catch_warnings():
        # batch norm over a batch without a node would divide by a zero count
        warnings.simplefilter("error")
        result = train_graphcl(graphs, small_cfg(), TrainConfig(epochs=3, batch_size=4, seed=0))
    assert len(result.epoch_losses) == 3 and np.isfinite(result.epoch_losses).all()


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)
    with pytest.raises(ValueError):
        TrainConfig(batch_size=1)
    with pytest.raises(ValueError):
        TrainConfig(tau=-0.5)
    with pytest.raises(ValueError):
        TrainConfig(lr=0.0)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="lr must be finite"):
            TrainConfig(lr=bad)
        with pytest.raises(ValueError, match="tau must be finite"):
            TrainConfig(tau=bad)
    # a float count would fail only inside train_graphcl, a bool is not a count
    for field in ("epochs", "batch_size"):
        for bad in (2.5, True, "4"):
            with pytest.raises(TypeError, match=field):
                TrainConfig(**{field: bad})
    # a float seed would fail only inside train_graphcl, in SeedSequence
    for bad in (1.5, True):
        with pytest.raises(TypeError, match="seed"):
            TrainConfig(seed=bad)
    with pytest.raises(ValueError, match="seed must be >= 0"):
        TrainConfig(seed=-1)
    cfg = TrainConfig(epochs=np.int64(2), batch_size=np.int64(4), seed=np.uint8(3))
    assert [type(v) for v in (cfg.epochs, cfg.batch_size, cfg.seed)] == [int, int, int]


def test_variants():
    base = TrainConfig(epochs=1)
    nolip = variant_no_lipschitz(base)
    assert not nolip.lipschitz_enabled and base.lipschitz_enabled
    light = variant_light_aug(base)
    assert "subgraph" not in light.augmentations.enabled
    assert light.augmentations.node_drop_p == base.augmentations.node_drop_p / 2
    assert light.augmentations.edge_drop_p == base.augmentations.edge_drop_p / 2
    assert set(TRAIN_VARIANTS) == {"graphcl", "graphcl-nolip", "graphcl-lightaug"}
    assert TRAIN_VARIANTS["graphcl"](base) == base


def test_attach_features_shapes_and_mismatch():
    cfg = EncoderConfig(num_layers=1, hidden=4, feature_config="degree")
    graphs = attach_features([TRIANGLE, Graph(2, edges=[(0, 1)])], cfg)
    assert graphs[0].node_features.shape == (3, 2)
    assert graphs[0].node_features[:, 1].tolist() == [2.0, 2.0, 2.0]
    provided = EncoderConfig(feature_config="provided", input_dim=5)
    with pytest.raises(FeatureMismatchError, match="graph 0"):
        attach_features([featured_graph(0)], provided)  # 3-dim rows, wants 5


def test_attach_features_keeps_existing_rows():
    cfg = EncoderConfig(feature_config="provided", input_dim=3)
    g = featured_graph(6)
    out = attach_features([g], cfg)
    assert out[0] is g


# --------------------------------------------------------- gradient check


def test_finite_difference_gradient_gate():
    cfg = EncoderConfig(num_layers=2, hidden=4, feature_config="degree")
    params = init_random(cfg, seed=0)
    head = init_head(cfg.embedding_dim, substream(0, 3))
    graphs = attach_features(
        [oracles.random_graph(np.random.default_rng(i), 8, 0.4) for i in range(3)], cfg
    )
    err = finite_difference_check(params, head, graphs, graphs, 0.2)
    assert err < 1e-4


def test_zero_gated_paths_have_zero_gradient():
    # drive one head weight so its ReLU input is strictly negative: the
    # first-layer head weight gradient through that unit must be zero
    cfg = EncoderConfig(num_layers=1, hidden=3, feature_config="none")
    params = init_random(cfg, seed=1)
    head = init_head(cfg.embedding_dim, substream(1, 3))
    head["head.m0.b"][:] = 0.0
    from ggeval.encoder import calibrate
    from ggeval.training import head_backward, head_forward

    graphs = attach_features([TRIANGLE, Graph(4, edges=[(0, 1), (2, 3)])], cfg)
    _, h = calibrate(params, graphs)
    head["head.m0.W"] *= 0.0
    head["head.m0.b"][:] = -1.0  # every pre-activation is -1: ReLU closed
    out, cache = head_forward(head, h)
    _, grads = head_backward(head, cache, np.ones_like(out))
    assert np.all(grads["head.m0.W"] == 0.0)
    assert np.all(grads["head.m0.b"] == 0.0)
