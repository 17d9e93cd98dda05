import dataclasses

import numpy as np
import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ggeval.encoder import (
    EncoderConfig,
    embed_set,
    embed_union,
    init_random,
    load_params,
    orthogonal_matrix,
    pack_graphs,
    project_lipschitz_inplace,
    save_params,
    spectral_norm,
    weight_count,
    weight_shapes,
)
from ggeval.errors import FeatureMismatchError, ParseError
from ggeval.generators import gen_community, gen_cycle_pair, gen_grid, substream
from ggeval.graphs import Graph

CFG = EncoderConfig(num_layers=2, hidden=6, feature_config="degree")


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
    for field in ("num_layers", "hidden", "mlp_depth", "input_dim"):
        with pytest.raises(TypeError, match=field):
            EncoderConfig(**{field: 2.0})
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
    save_params(init_random(cfg, seed=0), path)
    stored = json.loads(path.read_text())["config"]
    # every field, in declaration order
    assert list(stored.items()) == [("num_layers", 2), ("hidden", 5), ("lipschitz_bound", 0.7),
                                    ("feature_config", "provided"), ("mlp_depth", 2),
                                    ("input_dim", 3)]
    assert load_params(path).config == cfg


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
    before_bias = params.weights["l0.m0.b"].copy()
    project_lipschitz_inplace(params)
    assert spectral_norm(params.weights["l0.m0.W"]) == pytest.approx(1.0, abs=1e-9)
    np.testing.assert_array_equal(params.weights["l1.m0.W"], before_small)
    np.testing.assert_array_equal(params.weights["l0.m0.b"], before_bias)
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
    params = init_random(cfg, seed=0)
    emb = embed_set(params, [Graph(1)])[0]
    assert emb.shape == (cfg.embedding_dim,)
    assert np.all(np.isfinite(emb))


def test_permutation_invariance():
    cfg = EncoderConfig(num_layers=3, hidden=8, feature_config="degree")
    params = init_random(cfg, seed=0)
    g = gen_community(20, rng=substream(0))
    base = embed_set(params, [g])[0]
    rng = substream(1)
    for _ in range(50):
        perm = rng.permutation(g.num_nodes)
        emb = embed_set(params, [relabel(g, perm)])[0]
        np.testing.assert_allclose(emb, base, rtol=0, atol=1e-9)


def test_isomorphic_graphs_equal_embeddings():
    params = init_random(CFG, seed=4)
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
        params = init_random(cfg, seed=seed)
        h = embed_set(params, [c6, two_c3])
        np.testing.assert_allclose(h[0], h[1], rtol=0, atol=1e-9)


def test_embed_set_shape_and_determinism():
    cfg = EncoderConfig(num_layers=3, hidden=32, feature_config="none")
    params = init_random(cfg, seed=0)
    graphs = [gen_community(n, rng=substream(n)) for n in (12, 16, 20)]
    h1 = embed_set(params, graphs)
    h2 = embed_set(params, graphs)
    assert h1.shape == (3, 96)
    np.testing.assert_array_equal(h1, h2)
    assert np.all(np.isfinite(h1))


def test_embed_set_empty_rejected():
    params = init_random(CFG, seed=0)
    with pytest.raises(ValueError):
        embed_set(params, [])


def test_embed_union_matches_joint_pass():
    params = init_random(CFG, seed=0)
    set_a = [gen_grid(3, 3), gen_grid(2, 5)]
    set_b = [gen_grid(4, 3)]
    ha, hb = embed_union(params, set_a, set_b)
    joint = embed_set(params, list(set_a) + list(set_b))
    np.testing.assert_array_equal(np.vstack([ha, hb]), joint)
    assert ha.shape[0] == 2 and hb.shape[0] == 1


def test_eval_statistics_depend_on_companion_set():
    # normalization is joint: embedding a graph next to different
    # companions shifts its row, which is the intended common-scale behavior
    params = init_random(CFG, seed=0)
    g = gen_grid(3, 4)
    alone = embed_set(params, [g, gen_grid(2, 2)])
    crowd = embed_set(params, [g, gen_community(30, rng=substream(3))])
    assert not np.allclose(alone[0], crowd[0])


def test_feature_mismatch_errors():
    cfg = EncoderConfig(feature_config="provided", input_dim=3)
    params = init_random(cfg, seed=0)
    with pytest.raises(FeatureMismatchError, match="graph 0"):
        embed_set(params, [Graph(2)])  # no features attached
    bad_dim = Graph(2, node_features=np.ones((2, 2)))
    with pytest.raises(FeatureMismatchError):
        embed_set(params, [bad_dim])


def test_provided_features_used():
    cfg = EncoderConfig(num_layers=1, hidden=4, feature_config="provided", input_dim=2)
    params = init_random(cfg, seed=0)
    g1 = Graph(3, edges=[(0, 1)], node_features=np.ones((3, 2)))
    g2 = Graph(3, edges=[(0, 1)], node_features=np.full((3, 2), 2.0))
    h = embed_set(params, [g1, g2])
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
        h = embed_set(params, [g, g_plus])
        base = np.linalg.norm(h[0]) + 1e-9
        ratios.append(np.linalg.norm(h[0] - h[1]) / base)
    assert np.max(ratios) < 10.0**cfg.num_layers


def test_checkpoint_round_trip_exact(tmp_path):
    cfg = EncoderConfig(num_layers=2, hidden=5, feature_config="degree+clustering",
                        lipschitz_bound=0.9)
    params = init_random(cfg, seed=11)
    path = tmp_path / "enc.json"
    save_params(params, path)
    loaded = load_params(path)
    assert loaded.config == cfg
    assert sorted(loaded.weights) == sorted(params.weights)
    for k in params.weights:
        np.testing.assert_array_equal(loaded.weights[k], params.weights[k])
    g = gen_grid(4, 4)
    np.testing.assert_array_equal(
        embed_set(loaded, [g]), embed_set(params, [g])
    )


def test_checkpoint_version_guard(tmp_path):
    import json

    cfg = EncoderConfig()
    params = init_random(cfg, seed=0)
    path = tmp_path / "enc.json"
    save_params(params, path)
    blob = json.loads(path.read_text())
    blob["version"] = 99
    path.write_text(json.dumps(blob))
    with pytest.raises(ParseError, match="version 99"):
        load_params(path)


def test_version_1_checkpoint_rejected(tmp_path):
    import json

    path = tmp_path / "enc.json"
    save_params(init_random(EncoderConfig(), seed=0), path)
    blob = json.loads(path.read_text())
    assert blob["version"] == 2 and set(blob) == {"version", "config", "weights"}
    blob["version"] = 1
    path.write_text(json.dumps(blob))
    with pytest.raises(ParseError, match="unsupported checkpoint version 1"):
        load_params(path)


def test_weight_shapes_match_init_random():
    for cfg in (CFG, EncoderConfig(mlp_depth=3, feature_config="provided", input_dim=5)):
        params = init_random(cfg, seed=3)
        shapes = list(weight_shapes(cfg))
        assert len(shapes) == weight_count(cfg)
        assert [(name, w.shape) for name, w in params.weights.items()] == shapes


OVERSIZED_CONFIGS = {
    # each payload carries the default encoder's names with one-element
    # arrays: the hidden claim fails on shapes, the layer claim on the count
    "hidden 1500": dict(hidden=1500),
    "20000 layers": dict(num_layers=20000),
}


@pytest.mark.parametrize("claim", sorted(OVERSIZED_CONFIGS))
def test_oversized_config_rejected_without_building_it(tmp_path, claim):
    import json
    import time

    path = tmp_path / "enc.json"
    names = [name for name, _ in weight_shapes(EncoderConfig())]
    path.write_text(json.dumps({"version": 2, "config": OVERSIZED_CONFIGS[claim],
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
                        mlp_depth=draw(st.integers(1, 2)), feature_config=feature_config,
                        input_dim=2 if feature_config == "provided" else None)
    params = init_random(cfg, seed=0)
    blob = {"version": 2, "config": dataclasses.asdict(cfg),
            "weights": {k: v.tolist() for k, v in params.weights.items()}}
    names = sorted(blob["weights"])
    fields = sorted(blob["config"])
    for _ in range(draw(st.integers(0, 3))):
        edit = draw(st.sampled_from(("drop", "add", "value", "shape", "non-finite",
                                     "config", "config field")))
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
        elif edit == "config":
            name = draw(st.sampled_from(fields))
            old = blob["config"].get(name)
            # the same value under another JSON type, or any value at all
            retyped = [str(old), [old]] + ([float(old)] if isinstance(old, int) else [])
            blob["config"][name] = draw(st.sampled_from(retyped) | CONFIG_VALUES)
        elif draw(st.booleans()):
            blob["config"].pop(draw(st.sampled_from(fields)), None)
        else:
            blob["config"][draw(st.text(max_size=8))] = draw(CONFIG_VALUES)
    if draw(st.integers(0, 9)) == 0:
        blob[draw(st.sampled_from(("version", "config", "weights")))] = draw(JSON_VALUES)
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


# name -> (edit of the saved JSON payload, expected message fragment)
CHECKPOINT_CORRUPTIONS = {
    "dropped bias": (lambda b: b["weights"].pop("l1.m1.b"), "missing"),
    "unexpected weight": (lambda b: b["weights"].update({"l9.m0.W": [[1.0]]}), "unexpected"),
    "wrong-shaped matrix": (lambda b: b["weights"].update({"l0.m0.W": [[0.5] * 32] * 2}),
                            "shape"),
    "non-numeric weight": (lambda b: b["weights"].update({"l0.m0.b": ["x"] * 32}), "numeric"),
    "non-finite weight": (lambda b: b["weights"].update({"l1.m0.gamma": [float("nan")] * 32}),
                          "non-finite"),
    "invalid config value": (lambda b: b["config"].update(hidden=0), "config"),
    "unknown config field": (lambda b: b["config"].update(width=3), "config"),
    "weights not an object": (lambda b: b.update(weights=[]), "not an object"),
}


@pytest.mark.parametrize("corruption", sorted(CHECKPOINT_CORRUPTIONS))
def test_corrupt_checkpoint_raises_parse_error(tmp_path, corruption):
    import json

    path = tmp_path / "enc.json"
    save_params(init_random(EncoderConfig(), seed=0), path)
    blob = json.loads(path.read_text())
    corrupt, message = CHECKPOINT_CORRUPTIONS[corruption]
    corrupt(blob)
    path.write_text(json.dumps(blob))
    with pytest.raises(ParseError, match=message):
        load_params(path)


@pytest.mark.parametrize("text", ["{not json", "[1, 2]", '{"version": 2}'],
                         ids=["invalid JSON", "not an object", "no config"])
def test_malformed_checkpoint_file_raises_parse_error(tmp_path, text):
    path = tmp_path / "enc.json"
    path.write_text(text)
    with pytest.raises(ParseError):
        load_params(path)
