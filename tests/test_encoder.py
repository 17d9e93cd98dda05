import dataclasses

import numpy as np
import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ggeval.encoder as encoder
from ggeval.encoder import (
    EncoderConfig,
    calibrate,
    embed_set,
    embed_union,
    init_random,
    load_params,
    orthogonal_matrix,
    pack_graphs,
    project_lipschitz_inplace,
    save_params,
    spectral_norm,
    weight_shapes,
)
from ggeval.errors import DegenerateSetError, FeatureMismatchError, ParseError
from ggeval.generators import gen_community, gen_cycle_pair, gen_grid, substream
from ggeval.graphs import Graph

CFG = EncoderConfig(num_layers=2, hidden=6, feature_config="degree")


def calibrated(config, seed=0):
    """init_random(config, seed), calibrated on two small graphs."""
    graphs = [gen_grid(2, 3), Graph(3, [(0, 1)])]
    if config.feature_config == "provided":
        rows = np.random.default_rng(seed).normal(size=(9, config.in_dim))
        graphs = [Graph(g.num_nodes, g.edges, node_features=rows[:g.num_nodes])
                  for g in graphs]
    return calibrate(init_random(config, seed=seed), graphs)[0]


def relabel(graph: Graph, perm) -> Graph:
    inv = list(perm)
    feats = None
    if graph.node_features is not None:
        feats = np.empty_like(graph.node_features)
        feats[inv] = graph.node_features
    return Graph(
        graph.num_nodes,
        edges=[(inv[u], inv[v]) for u, v in graph.edges.tolist()],
        node_features=feats,
    )


def test_config_validation():
    with pytest.raises(ValueError):
        EncoderConfig(num_layers=0)
    with pytest.raises(ValueError):
        EncoderConfig(hidden=0)
    with pytest.raises(ValueError):
        EncoderConfig(lipschitz_bound=0.0)
    with pytest.raises(ValueError):
        EncoderConfig(lipschitz_bound=float("nan"))
    with pytest.raises(ValueError):
        EncoderConfig(lipschitz_bound=float("inf"))
    with pytest.raises(ValueError):
        EncoderConfig(feature_config="nope")
    with pytest.raises(ValueError):
        EncoderConfig(feature_config="provided")  # needs input_dim
    with pytest.raises(ValueError):
        EncoderConfig(feature_config="provided", input_dim=0)
    with pytest.raises(ValueError, match="input_dim"):
        EncoderConfig(input_dim=3)  # would be ignored: feature_config is "none"
    for field in ("num_layers", "hidden", "input_dim"):
        for bad in (2.0, True):  # a bool is an Integral, but not a count
            with pytest.raises(TypeError, match=field):
                EncoderConfig(**{field: bad})
    for field in ("num_layers", "hidden"):
        with pytest.raises(TypeError, match=field):
            EncoderConfig(**{field: None})
    EncoderConfig(feature_config="provided", input_dim=7)


def test_config_dims():
    cfg = EncoderConfig(num_layers=3, hidden=32, feature_config="none")
    assert cfg.in_dim == 1
    assert cfg.embedding_dim == 96
    assert EncoderConfig(feature_config="degree+clustering").in_dim == 4


def test_config_dict_round_trip(tmp_path):
    import json

    cfg = EncoderConfig(num_layers=2, hidden=5, lipschitz_bound=0.7,
                        feature_config="provided", input_dim=3)
    path = tmp_path / "enc.json"
    save_params(calibrated(cfg), path)
    stored = json.loads(path.read_text())["config"]
    # every field, in declaration order
    assert list(stored.items()) == [("num_layers", 2), ("hidden", 5), ("lipschitz_bound", 0.7),
                                    ("feature_config", "provided"), ("input_dim", 3)]
    assert load_params(path).config == cfg


def test_numpy_integer_config_serializes(tmp_path):
    import json

    # the config stores plain ints, so the checkpoint is written, not a TypeError
    cfg = EncoderConfig(num_layers=np.int64(2), hidden=np.int32(8))
    assert type(cfg.num_layers) is int and type(cfg.hidden) is int
    assert json.loads(json.dumps(dataclasses.asdict(cfg)))["hidden"] == 8
    path = tmp_path / "enc.json"
    save_params(calibrated(cfg), path)
    assert load_params(path).config == EncoderConfig(num_layers=2, hidden=8)


@pytest.mark.parametrize("rows,cols", [(16, 16), (12, 4), (4, 12), (1, 5), (5, 1)])
def test_orthogonal_matrix(rows, cols):
    w = orthogonal_matrix(substream(0, 9), rows, cols)
    assert w.shape == (rows, cols)
    if rows >= cols:
        gram = w.T @ w
    else:
        gram = w @ w.T
    assert np.abs(gram - np.eye(min(rows, cols))).max() < 1e-6


def test_init_deterministic_and_orthogonal():
    a = init_random(CFG, seed=5)
    b = init_random(CFG, seed=5)
    c = init_random(CFG, seed=6)
    for (name, wa), (_, wb) in zip(sorted(a.weights.items()), sorted(b.weights.items())):
        np.testing.assert_array_equal(wa, wb)
    assert any(
        not np.array_equal(a.weights[k], c.weights[k]) for k in a.weights
    )
    for _, w in a.weight_matrices():
        assert abs(spectral_norm(w) - 1.0) < 1e-6


def test_init_bn_defaults():
    p = init_random(CFG, seed=0)
    assert np.all(p.weights["l0.m0.gamma"] == 1.0)
    assert np.all(p.weights["l0.m0.beta"] == 0.0)


def test_spectral_norm_closed_forms():
    assert spectral_norm(np.eye(8)) == pytest.approx(1.0, abs=1e-9)
    assert spectral_norm(np.diag([3.0, 1.0])) == pytest.approx(3.0, abs=1e-9)
    assert spectral_norm(np.zeros((4, 3))) == 0.0


@pytest.mark.parametrize("seed", range(12))
def test_spectral_norm_matches_svd(seed):
    rng = substream(seed, 42)
    rows = int(rng.integers(1, 65))
    cols = int(rng.integers(1, 65))
    w = rng.normal(size=(rows, cols)) * rng.uniform(0.1, 10)
    got = spectral_norm(w)
    want = oracles.spectral_norm_svd(w)
    assert abs(got - want) <= 1e-6 * max(want, 1e-12)


def test_spectral_norm_validation():
    with pytest.raises(ValueError):
        spectral_norm(np.ones(3))
    with pytest.raises(ValueError):
        spectral_norm(np.array([[np.inf, 0.0], [0.0, 1.0]]))


def test_projection_scales_only_oversized_weights():
    params = init_random(CFG, seed=1)
    params.weights["l0.m0.W"] = big = params.weights["l0.m0.W"] * 4.0
    params.weights["l1.m0.W"] = params.weights["l1.m0.W"] * 0.5
    before_small = params.weights["l1.m0.W"].copy()
    before_bias = params.weights["l0.m1.b"].copy()
    project_lipschitz_inplace(params)
    assert spectral_norm(params.weights["l0.m0.W"]) == pytest.approx(1.0, abs=1e-9)
    np.testing.assert_array_equal(params.weights["l1.m0.W"], before_small)
    np.testing.assert_array_equal(params.weights["l0.m1.b"], before_bias)
    # an oversized matrix is replaced, not written into
    assert spectral_norm(big) == pytest.approx(4.0, abs=1e-6)


def test_projection_idempotent():
    params = init_random(CFG, seed=2)
    for name in params.weights:
        if name.endswith(".W"):
            params.weights[name] = params.weights[name] * 3.0
    project_lipschitz_inplace(params)
    once = dict(params.weights)
    project_lipschitz_inplace(params)
    for name in once:
        np.testing.assert_allclose(params.weights[name], once[name], rtol=0, atol=1e-12)
    assert oracles.max_spectral_norm(params) <= 1.0 + 1e-6


def test_projection_custom_bound():
    params = init_random(dataclasses.replace(CFG, lipschitz_bound=0.25), seed=3)
    project_lipschitz_inplace(params)
    assert oracles.max_spectral_norm(params) <= 0.25 + 1e-9


def test_forward_single_node_graph():
    cfg = EncoderConfig(num_layers=2, hidden=4, feature_config="none")
    params, _ = calibrate(init_random(cfg, seed=0), [Graph(1)])
    emb = embed_set(params, [Graph(1)])[0]
    assert emb.shape == (cfg.embedding_dim,)
    assert np.all(np.isfinite(emb))


def test_permutation_invariance():
    cfg = EncoderConfig(num_layers=3, hidden=8, feature_config="degree")
    g = gen_community(20, rng=substream(0))
    params, _ = calibrate(init_random(cfg, seed=0), [g])
    base = embed_set(params, [g])[0]
    rng = substream(1)
    for _ in range(50):
        perm = rng.permutation(g.num_nodes)
        emb = embed_set(params, [relabel(g, perm)])[0]
        np.testing.assert_allclose(emb, base, rtol=0, atol=1e-9)


def test_isomorphic_graphs_equal_embeddings():
    params = calibrated(CFG, seed=4)
    a = Graph(4, edges=[(0, 1), (1, 2), (2, 3)])
    b = Graph(4, edges=[(3, 2), (2, 1), (1, 0)])
    np.testing.assert_array_equal(embed_set(params, [a])[0], embed_set(params, [b])[0])


@pytest.mark.parametrize("feature_config", ["none", "degree"])
def test_wl_equivalent_pair_identical_embeddings(feature_config):
    # C6 vs C3+C3: equal degree sequences and WL histograms, so any
    # sum-aggregation encoder must give them identical embeddings
    cfg = EncoderConfig(num_layers=3, hidden=8, feature_config=feature_config)
    c6 = Graph(6, edges=[(i, (i + 1) % 6) for i in range(6)])
    two_c3 = Graph(6, edges=[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    for seed in range(5):
        _, h = calibrate(init_random(cfg, seed=seed), [c6, two_c3])
        np.testing.assert_allclose(h[0], h[1], rtol=0, atol=1e-9)


def test_embed_set_shape_and_determinism():
    cfg = EncoderConfig(num_layers=3, hidden=32, feature_config="none")
    graphs = [gen_community(n, rng=substream(n)) for n in (12, 16, 20)]
    params, _ = calibrate(init_random(cfg, seed=0), graphs)
    h1 = embed_set(params, graphs)
    h2 = embed_set(params, graphs)
    assert h1.shape == (3, 96)
    np.testing.assert_array_equal(h1, h2)
    assert np.all(np.isfinite(h1))


def test_embed_set_empty_rejected():
    with pytest.raises(ValueError, match="empty"):
        embed_set(calibrated(CFG), [])
    with pytest.raises(ValueError, match="empty"):
        calibrate(init_random(CFG, seed=0), [])
    # no statistics to apply: the encoder is not calibrated
    with pytest.raises(ValueError, match="calibrate"):
        embed_set(init_random(CFG, seed=0), [gen_grid(2, 2)])
    with pytest.raises(DegenerateSetError):
        calibrate(init_random(CFG, seed=0), [Graph(0), Graph(0)])


def test_embed_union_matches_joint_pass():
    params = init_random(CFG, seed=0)
    set_a = [gen_grid(3, 3), gen_grid(2, 5)]
    set_b = [gen_grid(4, 3)]
    ha, hb = embed_union(params, set_a, set_b)
    # one pass with the reference's statistics: calibrate's rows, and the
    # generated rows under the statistics calibrate stores
    reference_params, reference_rows = calibrate(params, set_a)
    np.testing.assert_array_equal(ha, reference_rows)
    np.testing.assert_array_equal(hb, embed_set(reference_params, set_b))
    assert ha.shape[0] == 2 and hb.shape[0] == 1


def test_reference_rows_do_not_depend_on_generated_set():
    # stored statistics make one embedding space per reference: scoring two
    # generated sets against it leaves its rows' bytes as they are
    params = init_random(CFG, seed=0)
    reference = [gen_grid(3, 4), gen_grid(2, 2)]
    few, _ = embed_union(params, reference, [gen_grid(2, 3)])
    crowd, _ = embed_union(params, reference, [gen_community(30, rng=substream(3)),
                                               reference[1], gen_grid(5, 5)])
    assert few.tobytes() == crowd.tobytes()
    # a calibrated encoder's own statistics do not enter a union either
    other = calibrate(params, [gen_community(30, rng=substream(4))])[0]
    assert embed_union(other, reference, [])[0].tobytes() == few.tobytes()


def test_feature_mismatch_errors():
    cfg = EncoderConfig(feature_config="provided", input_dim=3)
    params = calibrated(cfg)
    with pytest.raises(FeatureMismatchError, match="graph 0"):
        embed_set(params, [Graph(2)])  # no features attached
    bad_dim = Graph(2, node_features=np.ones((2, 2)))
    with pytest.raises(FeatureMismatchError):
        embed_set(params, [bad_dim])
    # the first unfeatured graph sits at index 4
    good = [Graph(2, node_features=np.ones((2, 3))) for _ in range(3)]
    bare = Graph(2)
    with pytest.raises(FeatureMismatchError, match=r"^graph 4: config expects provided"):
        embed_set(params, [good[0], good[1], good[0], good[2], bare, good[1], bare])


def test_non_finite_embedding_lists_every_occurrence(monkeypatch):
    monkeypatch.setattr(encoder, "BLOCK_NODES", 2)
    cfg = EncoderConfig(num_layers=1, hidden=2, feature_config="provided", input_dim=1)
    ok = Graph(2, node_features=np.ones((2, 1)))
    huge = Graph(2, [(0, 1)], node_features=np.full((2, 1), 1e308))
    params, _ = calibrate(init_random(cfg, seed=0), [ok])
    # the aggregation overflows; under stored statistics the rows of the
    # other graphs stay finite, and every position of huge is reported
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            FeatureMismatchError, match=r"graph indices \[1, 3\]$"):
        embed_set(params, [ok, huge, ok, huge])


def test_provided_features_used():
    cfg = EncoderConfig(num_layers=1, hidden=4, feature_config="provided", input_dim=2)
    g1 = Graph(3, edges=[(0, 1)], node_features=np.ones((3, 2)))
    g2 = Graph(3, edges=[(0, 1)], node_features=np.full((3, 2), 2.0))
    _, h = calibrate(init_random(cfg, seed=0), [g1, g2])
    assert not np.allclose(h[0], h[1])


def test_pack_graphs_batch_layout():
    cfg = EncoderConfig(feature_config="degree")
    batch = pack_graphs([Graph(2, edges=[(0, 1)]), Graph(3)], cfg)
    assert batch.features.shape == (5, 2)
    # one pooling row per graph, holding that graph's nodes
    assert np.diff(batch.pool.indptr).tolist() == [2, 3]


def test_bounded_sensitivity_under_edge_addition():
    # adding one edge must not blow up the embedding: with projected
    # weights the per-layer growth stays moderate across many trials
    cfg = EncoderConfig(num_layers=3, hidden=8, feature_config="none")
    rng = substream(0, 77)
    ratios = []
    for trial in range(100):
        params = init_random(cfg, seed=trial)
        project_lipschitz_inplace(params)
        n = int(rng.integers(6, 16))
        g = oracles.random_graph(rng, n, 0.3)
        present = set(map(tuple, g.edges.tolist()))
        missing = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in present]
        if not missing:
            continue
        u, v = missing[int(rng.integers(len(missing)))]
        g_plus = Graph(n, edges=g.edges.tolist() + [[u, v]])
        _, h = calibrate(params, [g, g_plus])
        base = np.linalg.norm(h[0]) + 1e-9
        ratios.append(np.linalg.norm(h[0] - h[1]) / base)
    assert np.max(ratios) < 10.0**cfg.num_layers


def test_checkpoint_round_trip_exact(tmp_path):
    cfg = EncoderConfig(num_layers=2, hidden=5, feature_config="degree+clustering",
                        lipschitz_bound=0.9)
    params = calibrated(cfg, seed=11)
    path = tmp_path / "enc.json"
    save_params(params, path)
    loaded = load_params(path)
    assert loaded.config == cfg
    assert sorted(loaded.weights) == sorted(params.weights)
    for k in params.weights:
        np.testing.assert_array_equal(loaded.weights[k], params.weights[k])
    assert loaded.stats.shape == (2, 2, 5)
    assert loaded.stats.tobytes() == params.stats.tobytes()
    g = gen_grid(4, 4)
    np.testing.assert_array_equal(
        embed_set(loaded, [g]), embed_set(params, [g])
    )


def test_uncalibrated_params_are_not_saved(tmp_path):
    with pytest.raises(ValueError, match="calibrate"):
        save_params(init_random(CFG, seed=0), tmp_path / "enc.json")
    assert not (tmp_path / "enc.json").exists()


def test_checkpoint_version_guard(tmp_path):
    import json

    path = tmp_path / "enc.json"
    save_params(calibrated(EncoderConfig()), path)
    blob = json.loads(path.read_text())
    blob["version"] = 99
    path.write_text(json.dumps(blob))
    with pytest.raises(ParseError, match="version 99"):
        load_params(path)


def old_checkpoint(version):
    """A payload as versions 1 to 3 wrote it: every layer holds a first-linear
    bias "l{k}.m0.b"; versions 1 and 2 stored no statistics, and version 2
    files could also hold "mlp_depth": 2."""
    params = calibrated(EncoderConfig())
    config = dataclasses.asdict(params.config)
    if version == 2:
        config["mlp_depth"] = 2
    weights = {k: v.tolist() for k, v in params.weights.items()}
    for k in range(config["num_layers"]):
        weights[f"l{k}.m0.b"] = [0.0] * config["hidden"]
    blob = {"version": version, "config": config, "weights": weights}
    if version == 3:
        blob["stats"] = params.stats.tolist()
    return blob


def test_version_1_checkpoint_rejected(tmp_path):
    import json

    path = tmp_path / "enc.json"
    save_params(calibrated(EncoderConfig()), path)
    blob = json.loads(path.read_text())
    assert blob["version"] == 4 and set(blob) == {"version", "config", "weights", "stats"}
    assert not any(name.endswith(".m0.b") for name in blob["weights"])
    path.write_text(json.dumps(old_checkpoint(1)))
    with pytest.raises(ParseError, match="unsupported checkpoint version 1"):
        load_params(path)


def test_version_2_checkpoint_rejected(tmp_path):
    import json

    # version 2 held no statistics, so it cannot place a graph in a reference's space
    path = tmp_path / "enc.json"
    path.write_text(json.dumps(old_checkpoint(2)))
    with pytest.raises(ParseError, match="unsupported checkpoint version 2"):
        load_params(path)


def test_version_3_checkpoint_rejected(tmp_path):
    import json

    # version 3 stored the first linear's bias, which batch norm cancels
    path = tmp_path / "enc.json"
    blob = old_checkpoint(3)
    path.write_text(json.dumps(blob))
    with pytest.raises(ParseError, match="unsupported checkpoint version 3"):
        load_params(path)
    blob["version"] = 4
    path.write_text(json.dumps(blob))
    with pytest.raises(ParseError, match=r"unexpected \['l0.m0.b', 'l1.m0.b', 'l2.m0.b'\]"):
        load_params(path)


def test_weight_shapes_match_init_random():
    for cfg in (CFG, EncoderConfig(num_layers=2, feature_config="provided", input_dim=5)):
        params = init_random(cfg, seed=3)
        shapes = list(weight_shapes(cfg))
        assert len(shapes) == 5 * cfg.num_layers
        assert [(name, w.shape) for name, w in params.weights.items()] == shapes


def test_weight_matrices_follow_layer_order():
    # eleven layers: sorted names would put l10 before l2
    cfg = EncoderConfig(num_layers=11, hidden=2, feature_config="degree")
    names = [name for name, _ in init_random(cfg, seed=0).weight_matrices()]
    assert names == [name for name, _ in weight_shapes(cfg) if name.endswith(".W")]
    assert names[:4] == ["l0.m0.W", "l0.m1.W", "l1.m0.W", "l1.m1.W"]


OVERSIZED_CONFIGS = {
    # each payload carries the default encoder's names with one-element
    # arrays: the hidden claim fails on shapes, the layer claim on the first
    # name past the stored ones
    "hidden 1500": dict(hidden=1500),
    "20000 layers": dict(num_layers=20000),
}


@pytest.mark.parametrize("claim", sorted(OVERSIZED_CONFIGS))
def test_oversized_config_rejected_without_building_it(tmp_path, claim):
    import json
    import time

    path = tmp_path / "enc.json"
    names = [name for name, _ in weight_shapes(EncoderConfig())]
    path.write_text(json.dumps({"version": 4, "config": OVERSIZED_CONFIGS[claim],
                                "weights": {name: [0.0] for name in names}}))
    start = time.perf_counter()
    with pytest.raises(ParseError):
        load_params(path)
    assert time.perf_counter() - start < 1.0


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-10**6, 10**6) | st.text(max_size=4)
    | st.floats(allow_nan=True, allow_infinity=True),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner,
                                                               max_size=3),
    max_leaves=8,
)
CONFIG_VALUES = (st.integers(-10**6, 10**6) | st.floats(-1e6, 1e6) | st.sampled_from(
    ("none", "degree", "degree+clustering", "provided")) | JSON_VALUES)


@st.composite
def checkpoint_payloads(draw):
    """A saved small encoder's payload with a few keys, shapes or values changed."""
    feature_config = draw(st.sampled_from(("none", "degree", "provided")))
    cfg = EncoderConfig(num_layers=draw(st.integers(1, 2)), hidden=draw(st.integers(1, 3)),
                        feature_config=feature_config,
                        input_dim=2 if feature_config == "provided" else None)
    params = calibrated(cfg)
    blob = {"version": 4, "config": dataclasses.asdict(cfg),
            "weights": {k: v.tolist() for k, v in params.weights.items()},
            "stats": params.stats.tolist()}
    names = sorted(blob["weights"])
    fields = sorted(blob["config"])
    for _ in range(draw(st.integers(0, 3))):
        edit = draw(st.sampled_from(("drop", "add", "value", "shape", "non-finite",
                                     "config", "config field", "stats")))
        if edit == "drop":
            blob["weights"].pop(draw(st.sampled_from(names)), None)
        elif edit == "add":
            blob["weights"][draw(st.text(max_size=8))] = draw(JSON_VALUES)
        elif edit == "value":
            blob["weights"][draw(st.sampled_from(names))] = draw(JSON_VALUES)
        elif edit == "shape":
            size = draw(st.integers(0, 4))
            blob["weights"][draw(st.sampled_from(names))] = draw(st.sampled_from(
                ([0.5] * size, [[0.5] * size], [[0.5] * size] * 2, 0.5)))
        elif edit == "non-finite":
            name = draw(st.sampled_from(names))
            value = params.weights[name].copy()
            value.flat[draw(st.integers(0, value.size - 1))] = draw(
                st.sampled_from((np.nan, np.inf, -np.inf)))
            blob["weights"][name] = value.tolist()
        elif edit == "stats":
            stats = params.stats.copy()
            stats.flat[draw(st.integers(0, stats.size - 1))] = draw(
                st.sampled_from((np.nan, np.inf, 1.5)))
            blob["stats"] = draw(st.sampled_from((stats.tolist(), stats[:-1].tolist(),
                                                  stats[..., :1].tolist()))
                                 | JSON_VALUES)
        elif edit == "config":
            name = draw(st.sampled_from(fields))
            old = blob["config"].get(name)
            # the same value under another JSON type, or any value at all
            retyped = [str(old), [old]] + ([float(old)] if isinstance(old, int) else [])
            blob["config"][name] = draw(st.sampled_from(retyped) | CONFIG_VALUES)
        elif draw(st.booleans()):
            blob["config"].pop(draw(st.sampled_from(fields)), None)
        else:
            key = draw(st.text(max_size=8) | st.just("mlp_depth"))
            blob["config"][key] = draw(st.just(2) | CONFIG_VALUES)
    if draw(st.integers(0, 9)) == 0:
        blob[draw(st.sampled_from(("version", "config", "weights", "stats")))] = draw(JSON_VALUES)
    return blob


@settings(max_examples=300, deadline=None)
@given(blob=checkpoint_payloads())
def test_checkpoint_fuzz_loads_or_raises_parse_error(tmp_path_factory, blob):
    import json

    path = tmp_path_factory.mktemp("ckpt") / "enc.json"
    path.write_text(json.dumps(blob))
    try:
        params = load_params(path)
    except ParseError:
        return
    assert [(name, w.shape) for name, w in params.weights.items()] == list(
        weight_shapes(params.config))
    assert all(np.all(np.isfinite(w)) for w in params.weights.values())
    assert params.stats.shape == (params.config.num_layers, 2, params.config.hidden)
    assert np.all(np.isfinite(params.stats))


# name -> (edit of the saved JSON payload, expected message fragment)
CHECKPOINT_CORRUPTIONS = {
    "dropped bias": (lambda b: b["weights"].pop("l1.m1.b"), "missing"),
    "unexpected weight": (lambda b: b["weights"].update({"l9.m0.W": [[1.0]]}), "unexpected"),
    "wrong-shaped matrix": (lambda b: b["weights"].update({"l0.m0.W": [[0.5] * 32] * 2}),
                            "shape"),
    "non-numeric weight": (lambda b: b["weights"].update({"l0.m1.b": ["x"] * 32}), "numeric"),
    "non-finite weight": (lambda b: b["weights"].update({"l1.m0.gamma": [float("nan")] * 32}),
                          "non-finite"),
    "invalid config value": (lambda b: b["config"].update(hidden=0), "config"),
    "mlp depth 2": (lambda b: b["config"].update(mlp_depth=2), "mlp_depth"),
    "missing stats": (lambda b: b.pop("stats"), "'stats' is missing"),
    "ill-shaped stats": (lambda b: b.update(stats=b["stats"][:2]),
                         r"'stats' has shape \(2, 2, 32\)"),
    "ragged stats": (lambda b: b["stats"][0][1].pop(), "'stats' is missing or not a numeric"),
    "non-finite stats": (lambda b: b["stats"][2][1].__setitem__(0, float("inf")),
                         "'stats' has non-finite values"),
    "unknown config field": (lambda b: b["config"].update(width=3), "config"),
    "weights not an object": (lambda b: b.update(weights=[]), "not an object"),
}


@pytest.mark.parametrize("corruption", sorted(CHECKPOINT_CORRUPTIONS))
def test_corrupt_checkpoint_raises_parse_error(tmp_path, corruption):
    import json

    path = tmp_path / "enc.json"
    save_params(calibrated(EncoderConfig()), path)
    blob = json.loads(path.read_text())
    corrupt, message = CHECKPOINT_CORRUPTIONS[corruption]
    corrupt(blob)
    path.write_text(json.dumps(blob))
    with pytest.raises(ParseError, match=message):
        load_params(path)


@pytest.mark.parametrize("text", ["{not json", "[1, 2]", '{"version": 4}'],
                         ids=["invalid JSON", "not an object", "no config"])
def test_malformed_checkpoint_file_raises_parse_error(tmp_path, text):
    path = tmp_path / "enc.json"
    path.write_text(text)
    with pytest.raises(ParseError):
        load_params(path)
