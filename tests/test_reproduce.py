"""End-to-end pipeline wiring: dataset builder, seed runs, artifacts."""

import dataclasses
import json

import numpy as np
import pytest

from ggeval.benchmark import BenchmarkCurve
from ggeval.metrics import DEFAULT_KNN_K, METRIC_NAMES
from ggeval.reproduce import (
    ARMS,
    ReproduceConfig,
    ReproduceReport,
    desk_community_set,
    metric_chart_series,
    run_reproduction,
    write_outputs,
)


def tiny_config(**overrides):
    base = dict(
        dataset_count=12, node_range=(12, 16), dataset_seed=0,
        num_layers=2, hidden=8, epochs=2, batch_size=8, lr=0.001,
        step=0.25, seeds=(0,),
    )
    base.update(overrides)
    return ReproduceConfig(**base)


# --- dataset builder ---------------------------------------------------------


def test_desk_set_counts_and_ranges():
    gs = desk_community_set(30, (60, 100), seed=0)
    assert len(gs) == 30
    assert gs.name == "community-30-seed0"
    for g in gs:
        assert 60 <= g.num_nodes <= 100
        assert g.num_nodes % 2 == 0


def test_desk_set_odd_lower_bound():
    sizes = [g.num_nodes for g in desk_community_set(20, (15, 21), seed=0)]
    assert all(n % 2 == 0 and 16 <= n <= 20 for n in sizes)
    ReproduceConfig(node_range=(15, 21))
    with pytest.raises(ValueError, match="even"):
        ReproduceConfig(node_range=(15, 15))


def test_desk_set_without_even_count_names_range():
    with pytest.raises(ValueError, match=r"\[15, 15\] holds no even node count"):
        desk_community_set(3, (15, 15))


def test_desk_set_deterministic_and_seed_sensitive():
    a = desk_community_set(10, (20, 30), seed=4)
    b = desk_community_set(10, (20, 30), seed=4)
    c = desk_community_set(10, (20, 30), seed=5)
    assert all(x == y for x, y in zip(a, b))
    assert any(x != y for x, y in zip(a, c))


def test_desk_set_prefix_stable():
    small = desk_community_set(5, (20, 30), seed=7)
    large = desk_community_set(9, (20, 30), seed=7)
    assert all(x == y for x, y in zip(small, large))


# --- config ------------------------------------------------------------------


def test_config_validation():
    with pytest.raises(ValueError):
        ReproduceConfig(variant="nope")
    with pytest.raises(ValueError):
        ReproduceConfig(node_range=(10, 4))
    with pytest.raises(ValueError, match="seeds is empty"):
        ReproduceConfig(seeds=())
    with pytest.raises(ValueError, match="does not evenly divide"):
        ReproduceConfig(step=0.3)
    # a negative seed fails here, not once the dataset is built
    with pytest.raises(ValueError, match="dataset_seed"):
        ReproduceConfig(dataset_seed=-1)
    with pytest.raises(ValueError, match="seeds"):
        ReproduceConfig(seeds=(0, -1))
    # summary.json keys per_seed_rho by seed, so a repeated seed would drop a run
    with pytest.raises(ValueError, match="seeds must be distinct"):
        ReproduceConfig(seeds=(1, 1))
    # fields handed on to EncoderConfig and TrainConfig fail at construction
    for bad in ({"lr": float("nan")}, {"epochs": 0}, {"batch_size": 1}, {"hidden": 0}):
        with pytest.raises(ValueError, match=next(iter(bad))):
            ReproduceConfig(**bad)
    # every evaluate call needs k + 1 rows per set, k = DEFAULT_KNN_K
    for count in (0, DEFAULT_KNN_K):
        with pytest.raises(ValueError, match="dataset_count must be >= 6"):
            ReproduceConfig(dataset_count=count)
    ReproduceConfig(dataset_count=DEFAULT_KNN_K + 1)
    for bad in ({"dataset_count": 50.0}, {"dataset_count": True}, {"dataset_seed": 1.0},
                {"dataset_seed": False}, {"seeds": (0, 1.5)}, {"seeds": (True,)},
                {"epochs": 2.5}, {"batch_size": 8.0}, {"num_layers": True},
                {"node_range": (60.5, 100.0)}, {"node_range": (60, 100.0)}):
        with pytest.raises(TypeError, match="integer"):
            ReproduceConfig(**bad)


def test_config_stores_numpy_integers_as_plain_ints():
    # summary.json dumps the config: a numpy int there would lose it after every seed ran
    cfg = tiny_config(seeds=(np.int64(0), np.int32(1)), node_range=(np.int64(12), 16),
                      dataset_count=np.int64(12), hidden=np.int16(8), epochs=np.uint8(2))
    stored = json.loads(json.dumps(dataclasses.asdict(cfg)))
    assert stored["seeds"] == [0, 1] and stored["node_range"] == [12, 16]
    assert stored["dataset_count"] == 12 and stored["hidden"] == 8 and stored["epochs"] == 2


def test_config_plumbs_variants():
    cfg = tiny_config(variant="graphcl-nolip")
    tc = cfg.train_config(3)
    assert tc.seed == 3
    assert not tc.lipschitz_enabled
    default = tiny_config().train_config(0)
    assert default.lipschitz_enabled
    assert default.epochs == 2 and default.lr == 0.001
    enc = cfg.encoder_config()
    assert enc.num_layers == 2 and enc.hidden == 8


# --- full run ----------------------------------------------------------------


@pytest.fixture(scope="module")
def tiny_report():
    return run_reproduction(tiny_config(seeds=(0, 1)))


def test_report_shape(tiny_report):
    assert isinstance(tiny_report, ReproduceReport)
    assert [run.seed for run in tiny_report.runs] == [0, 1]
    assert tiny_report.elapsed_seconds > 0
    for run in tiny_report.runs:
        assert len(run.epoch_losses) == 2
        assert all(np.isfinite(run.epoch_losses))
        assert set(run.curves) == set(run.bn_scale) == set(ARMS)
        for curve in run.curves.values():
            assert isinstance(curve, BenchmarkCurve)
            assert curve.ratios[0] == 0.0
            assert curve.ratios[-1] == 1.0
            assert set(curve.rhos) == set(METRIC_NAMES)


def test_curve_properties_name_the_arms(tiny_report):
    # perfbench/workloads.py reads each seed's curves under these names
    for run in tiny_report.runs:
        assert run.trained_curve is run.curves["trained"]
        assert run.random_curve is run.curves["random_init"]


def test_mean_rhos_and_trend(tiny_report):
    means = tiny_report.mean_rhos("trained")
    assert set(means) == set(METRIC_NAMES)
    for name in METRIC_NAMES:
        per_seed = [run.curves["trained"].rhos[name] for run in tiny_report.runs]
        assert means[name] == float(np.mean(per_seed))
    wins = tiny_report.recall_trend_wins()
    expected = sum(run.curves["trained"].rhos["recall"]
                   > run.curves["random_init"].rhos["recall"]
                   for run in tiny_report.runs)
    assert wins == expected


def test_report_dict_json_round_trip(tiny_report):
    d = tiny_report.to_dict()
    blob = json.dumps(d, sort_keys=True)
    back = json.loads(blob)
    assert back["seeds"] == [0, 1]
    assert set(back["trained"]["mean_rho"]) == set(METRIC_NAMES)
    assert back["recall_trend"]["total_seeds"] == 2
    assert set(back["epoch_losses"]) == {"0", "1"}
    for arm in ARMS:
        # every arm reports the same record
        assert set(back[arm]) == {"mean_rho", "per_seed_rho", "zero_variance", "bn_scale"}
        assert back[arm]["per_seed_rho"] == {str(run.seed): run.curves[arm].rhos
                                             for run in tiny_report.runs}
        # one largest |gamma * inv_std| per layer and seed
        scales = back[arm]["bn_scale"]
        assert set(scales) == {"0", "1"}
        assert all(len(v) == tiny_report.config.num_layers and min(v) > 0
                   for v in scales.values())


def test_chart_series_structure(tiny_report):
    curves = [run.curves["trained"] for run in tiny_report.runs]
    series = metric_chart_series(curves, "fd")
    assert len(series) == len(curves) + 1
    assert series[-1].label == "mean"
    first_mean = np.mean([c.metric_values("fd")[0] for c in curves])
    assert series[-1].ys[0] == pytest.approx(first_mean)


def test_write_outputs_artifacts(tiny_report, tmp_path):
    write_outputs(tiny_report, tmp_path)
    assert (tmp_path / "curves-trained.csv").exists()
    assert (tmp_path / "curves-random.csv").exists()
    assert (tmp_path / "summary.json").exists()
    for name in METRIC_NAMES:
        assert (tmp_path / f"{name}.svg").exists()
    # csv: header plus one row per (seed, ratio)
    lines = (tmp_path / "curves-trained.csv").read_text().strip().splitlines()
    ratios = tiny_report.runs[0].curves["trained"].ratios
    assert len(lines) == 1 + len(tiny_report.runs) * len(ratios)
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["dataset"] == tiny_report.dataset_name


def test_summary_names_the_zero_variance_metrics(tiny_report, tmp_path):
    write_outputs(tiny_report, tmp_path)
    summary = json.loads((tmp_path / "summary.json").read_text())
    for arm in ARMS:
        # the ratios vary, so a flag means the metric's curve is constant
        want = {str(run.seed): [name for name in METRIC_NAMES
                                if len(set(run.curves[arm].metric_values(name))) == 1]
                for run in tiny_report.runs}
        assert summary[arm]["zero_variance"] == want
    # twelve graphs with k = 5 cover every reference ball at every ratio
    assert all("coverage" in names for names in summary["trained"]["zero_variance"].values())


def test_run_writes_checkpoints(tmp_path):
    run_reproduction(tiny_config(), out_dir=tmp_path)
    assert (tmp_path / "encoder-seed0.json").exists()
    assert (tmp_path / "summary.json").exists()


def test_log_callback_receives_progress():
    messages = []
    run_reproduction(tiny_config(), log=messages.append)
    assert any("training" in m for m in messages)
    assert any("loss" in m for m in messages)
