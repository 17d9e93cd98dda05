"""Tiny configurations of every workload through the real harness.

    python3 -m pytest -q perfbench/test_perfbench.py

Checks that every metric name is printed, that two in-process runs of one
seed give the same output digest, that the exact counts repeat across
traced runs, and that a failed output check fails the run.
"""

from __future__ import annotations

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import run  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS, ReproduceSeed, Score2k, SweepLobster  # noqa: E402

TINY = {
    "reproduce_seed": ReproduceSeed(config=dict(dataset_count=8, node_range=(10, 16),
                                                 epochs=2, batch_size=4, step=0.25)),
    "score_2k": Score2k(count=24),
    "sweep_lobster": SweepLobster(count=12, pool=24, size_deciles=(33, 60), step=0.25,
                                  num_clusters=3),
}
SEED = 3


@pytest.fixture(autouse=True)
def trace_dir(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "TRACE_DIR", str(tmp_path / "traces"))


def run_captured(capsys, workload, trace):
    code = run.run_workload(workload, SEED, seconds=0.01, trace=trace)
    lines = capsys.readouterr().out.strip().splitlines()
    return code, lines, json.loads(lines[-2]), json.loads(lines[-1])


def test_tiny_configurations_cover_every_workload():
    assert set(TINY) == set(WORKLOADS) == set(run.WORKLOAD_NAMES)


@pytest.mark.parametrize("name", sorted(TINY))
def test_end_to_end_metrics_printed_and_digest_repeats(capsys, name):
    digests = []
    for _ in range(2):
        code, lines, detail, result = run_captured(capsys, TINY[name], trace=0)
        assert code == 0
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert list(result["metrics"]) == list(run.END_TO_END_UNITS)
        for metric, unit in run.END_TO_END_UNITS.items():
            assert result["metrics"][metric]["unit"] == unit
            assert result["metrics"][metric]["value"] > 0
        text = "\n".join(lines[:-2])
        for metric in list(run.END_TO_END_UNITS) + ["fail_ratio"]:
            assert metric in text
        assert set(detail["env"]) >= {"nproc", "blas_threads", "python", "numpy",
                                      "scipy", "blas", "commit"}
        digests.append(detail["digest"])
    assert digests[0] == digests[1]


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_run_reports_every_layer_metric_and_exact_counts_repeat(capsys, name):
    counts = []
    for _ in range(2):
        code, lines, detail, result = run_captured(capsys, TINY[name], trace=1)
        assert code == 0 and result["correct"]
        assert list(result["metrics"]) == list(tracer.PER_LAYER_METRICS)
        assert detail["missing_wraps"] == []
        values = {k: v["value"] for k, v in result["metrics"].items()}
        counts.append({k: values[k] for k in tracer.EXACT_COUNTS})
        assert values["trace.spans"] > 0
        assert values["metrics.evaluate_calls"] > 0
        assert values["encoder.pack_calls"] > 0
        for layer in tracer.LAYERS:
            assert values[f"{layer}.self_s"] >= 0
    assert counts[0] == counts[1]


def test_layer_metrics_land_on_the_layers_each_workload_uses(capsys):
    _, _, _, result = run_captured(capsys, TINY["reproduce_seed"], trace=1)
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert values["training.steps"] > 0
    assert values["encoder.spectral_norm_calls"] > 0
    assert values["reproduce.seed_s"] > 0
    # the trained and the random-init sweep rebuild identical perturbed sets
    assert values["benchmark.perturb_unique_ratio"] == 0.5
    assert values["training.augment_redraw_ratio"] >= 1.0

    _, _, _, result = run_captured(capsys, TINY["sweep_lobster"], trace=1)
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert values["training.steps"] == 0
    assert values["features.structural_features_calls"] > 0
    assert values["features.wl_gram_s"] > 0
    assert 0 < values["features.unique_ratio"] < 1


class FailingScore(Score2k):
    """score_2k whose ratio-0 op always fails its output check."""

    def check(self, label, report):
        return super().check(label, report) + (["forced failure"] if label == "ratio=0" else [])


def test_failed_output_check_fails_the_run(capsys):
    code, _, detail, result = run_captured(capsys, FailingScore(count=24), trace=0)
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] >= 1
    assert detail["fail_ratio"] > 0


def test_check_report_flags_out_of_range_values():
    from ggeval.metrics import MetricReport

    good = dict(fd=0.0, precision=1.0, recall=0.5, density=1.2, coverage=0.0, f1_pr=0.6,
                f1_dc=0.0, mmd_linear=-0.1, mmd_rbf=0.0, k=5, rbf_sigma=1.0)
    from workloads import check_report

    assert check_report(MetricReport(**good), "x") == []
    for field, value in (("precision", 1.5), ("coverage", -0.1), ("fd", -1e-3),
                         ("mmd_rbf", float("nan")), ("density", float("inf"))):
        assert check_report(MetricReport(**{**good, field: value}), "x"), field


def test_missing_source_tree_exits_nonzero(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "SRC", str(tmp_path / "src"))
    assert run.main(["--workload", "score_2k", "--seed", "0", "--seconds", "1",
                     "--trace", "0"]) == 2
    assert capsys.readouterr().out == ""
