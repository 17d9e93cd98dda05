"""End-to-end pipeline wiring: dataset builder, seed runs, artifacts."""

import json

import numpy as np
import pytest

from ggeval.benchmark import BenchmarkCurve
from ggeval.metrics import METRIC_NAMES
from ggeval.reproduce import (
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
    # fields handed on to EncoderConfig and TrainConfig fail at construction
    for bad in ({"lr": float("nan")}, {"epochs": 0}, {"batch_size": 1}, {"hidden": 0}):
        with pytest.raises(ValueError, match=next(iter(bad))):
            ReproduceConfig(**bad)
    ReproduceConfig(dataset_count=6)


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
        assert isinstance(run.trained_curve, BenchmarkCurve)
        assert run.trained_curve.ratios[0] == 0.0
        assert run.trained_curve.ratios[-1] == 1.0
        assert set(run.trained_rhos) == set(METRIC_NAMES)
        assert set(run.random_rhos) == set(METRIC_NAMES)


def test_mean_rhos_and_trend(tiny_report):
    means = tiny_report.mean_rhos("trained")
    assert set(means) == set(METRIC_NAMES)
    for name in METRIC_NAMES:
        per_seed = [run.trained_rhos[name] for run in tiny_report.runs]
        assert means[name] == pytest.approx(np.mean(per_seed))
    wins = tiny_report.recall_trend_wins()
    expected = sum(run.trained_rhos["recall"] > run.random_rhos["recall"]
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


def test_chart_series_structure(tiny_report):
    curves = [run.trained_curve for run in tiny_report.runs]
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
    ratios = tiny_report.runs[0].trained_curve.ratios
    assert len(lines) == 1 + len(tiny_report.runs) * len(ratios)
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["dataset"] == tiny_report.dataset_name


def test_run_writes_checkpoints(tmp_path):
    run_reproduction(tiny_config(), out_dir=tmp_path)
    assert (tmp_path / "encoder-seed0.json").exists()
    assert (tmp_path / "summary.json").exists()


def test_log_callback_receives_progress():
    messages = []
    run_reproduction(tiny_config(), log=messages.append)
    assert any("training" in m for m in messages)
    assert any("loss" in m for m in messages)
