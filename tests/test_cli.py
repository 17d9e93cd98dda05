"""Exit codes, option resolution, and artifact round trips for the CLI."""

import json
import os
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import ggeval
from ggeval.cli import build_parser, main
from ggeval.encoder import CHECKPOINT_VERSION
from ggeval.graphs import load_graphs
from ggeval.metrics import METRIC_NAMES, REPORT_FIELDS


def run(*argv):
    return main(list(argv))


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A tiny dataset plus a trained checkpoint shared by the round trips."""
    root = tmp_path_factory.mktemp("cliws")
    data = root / "lobsters.jsonl"
    ckpt = root / "enc.json"
    assert run("--seed", "3", "generate", "--recipe", "lobster",
               "--count", "10", "--out", str(data)) == 0
    assert run("--seed", "3", "train", "--data", str(data),
               "--out", str(ckpt), "--epochs", "1", "--batch-size", "4",
               "--layers", "2", "--hidden", "8", "--lr", "0.001") == 0
    return root, data, ckpt


@pytest.fixture
def loaders_fail(monkeypatch):
    """Fail the test if a checkpoint or a graph file is read."""
    import ggeval.encoder
    import ggeval.graphs

    def load(path):
        raise AssertionError("loaded before the options were checked")

    monkeypatch.setattr(ggeval.encoder, "load_params", load)
    monkeypatch.setattr(ggeval.graphs, "load_graphs", load)


# --- generate ----------------------------------------------------------------


def test_generate_round_trip(tmp_path):
    out = tmp_path / "set.jsonl"
    assert run("--seed", "1", "generate", "--recipe", "grid",
               "--count", "5", "--out", str(out)) == 0
    gs = load_graphs(out)
    assert len(gs) == 5


def test_generate_deterministic_in_seed(tmp_path):
    a, b, c = (tmp_path / n for n in ("a.jsonl", "b.jsonl", "c.jsonl"))
    run("--seed", "9", "generate", "--recipe", "lobster", "--count", "4", "--out", str(a))
    run("--seed", "9", "generate", "--recipe", "lobster", "--count", "4", "--out", str(b))
    run("--seed", "8", "generate", "--recipe", "lobster", "--count", "4", "--out", str(c))
    assert a.read_text() == b.read_text()
    assert a.read_text() != c.read_text()


def test_generate_missing_out_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        run("generate", "--recipe", "lobster", "--count", "2")
    assert exc.value.code == 2
    assert "the following arguments are required: --out" in capsys.readouterr().err


def test_generate_bad_recipe_rejected_by_parser():
    with pytest.raises(SystemExit) as exc:
        run("generate", "--recipe", "nope", "--count", "2", "--out", "x")
    assert exc.value.code == 2


# --- features ----------------------------------------------------------------


def test_features_csv(workspace, tmp_path):
    _, data, _ = workspace
    out = tmp_path / "features.csv"
    assert run("features", "--in", str(data), "--out", str(out)) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "graph,node_id,degree,c3,c4"
    total_nodes = sum(g.num_nodes for g in load_graphs(data))
    assert len(lines) == 1 + total_nodes


def test_features_computes_clustering_once_per_graph(workspace, tmp_path, monkeypatch):
    import ggeval.features

    _, data, _ = workspace
    calls = []
    original = ggeval.features.clustering

    def counting(graph):
        calls.append(graph)
        return original(graph)

    monkeypatch.setattr(ggeval.features, "clustering", counting)
    assert run("features", "--in", str(data), "--out", str(tmp_path / "f.csv")) == 0
    assert len(calls) == len(load_graphs(data))


def test_features_missing_file_is_io_error(tmp_path, capsys):
    assert run("features", "--in", str(tmp_path / "nope.jsonl"),
               "--out", str(tmp_path / "o.csv")) == 1
    assert "features" in capsys.readouterr().err


def test_features_malformed_record_is_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"n": 2, "edges": [[0, 1]], "x": {"a": 1}}\n')
    assert run("features", "--in", str(bad), "--out", str(tmp_path / "o.csv")) == 1
    err = capsys.readouterr().err
    assert "ParseError: record 1" in err
    assert len(err.strip().splitlines()) == 1
    assert "Traceback" not in err


# --- train / embed -----------------------------------------------------------


def test_train_history_csv(workspace, tmp_path):
    _, data, _ = workspace
    ckpt = tmp_path / "enc.json"
    hist = tmp_path / "loss.csv"
    assert run("--seed", "5", "train", "--data", str(data), "--out", str(ckpt),
               "--history", str(hist), "--epochs", "2", "--batch-size", "4",
               "--layers", "2", "--hidden", "8", "--lr", "0.001") == 0
    lines = hist.read_text().strip().splitlines()
    assert lines[0] == "epoch,loss"
    assert len(lines) == 3
    assert ckpt.exists()


def test_train_on_a_set_holding_a_graph_without_nodes(tmp_path, capsys):
    data = tmp_path / "mixed.jsonl"
    assert run("--seed", "0", "generate", "--recipe", "community",
               "--count", "20", "--out", str(data)) == 0
    with data.open("a") as f:
        f.write('{"n": 0, "edges": []}\n')
    assert run("train", "--data", str(data), "--out", str(tmp_path / "enc.json"),
               "--epochs", "5") == 0
    # a set of only such graphs has no node to train or calibrate on
    empty = tmp_path / "empty.jsonl"
    empty.write_text('{"n": 0, "edges": []}\n' * 3)
    assert run("train", "--data", str(empty), "--out", str(tmp_path / "e.json"),
               "--epochs", "5") == 1
    assert "DegenerateSetError" in capsys.readouterr().err


def test_embed_matrix_shape(workspace, tmp_path):
    _, data, ckpt = workspace
    out = tmp_path / "emb.csv"
    assert run("embed", "--params", str(ckpt), "--in", str(data),
               "--out", str(out)) == 0
    emb = np.loadtxt(out, delimiter=",", ndmin=2)
    assert emb.shape == (10, 2 * 8)


def test_embed_missing_out_is_usage_error(tmp_path, capsys, loaders_fail):
    with pytest.raises(SystemExit) as exc:
        run("embed", "--params", str(tmp_path / "enc.json"),
            "--in", str(tmp_path / "set.jsonl"))
    assert exc.value.code == 2
    assert "the following arguments are required: --out" in capsys.readouterr().err


def test_separate_embeds_score_as_the_union(tmp_path, capsys):
    # the README flow: embed applies the training set's statistics, so the
    # reference and the generated set embedded apart share one space
    from ggeval.encoder import embed_union, load_params
    from ggeval.metrics import evaluate

    ref, gen, ckpt = tmp_path / "ref.jsonl", tmp_path / "gen.jsonl", tmp_path / "enc.json"
    for seed, path in (("0", ref), ("1", gen)):
        assert run("--seed", seed, "generate", "--recipe", "community",
                   "--count", "12", "--out", str(path)) == 0
    assert run("--seed", "0", "train", "--data", str(ref), "--out", str(ckpt),
               "--epochs", "1", "--batch-size", "4", "--layers", "2", "--hidden", "8",
               "--features", "degree+clustering") == 0
    for path in (ref, gen):
        assert run("embed", "--params", str(ckpt), "--in", str(path),
                   "--out", str(path.with_suffix(".csv"))) == 0
    capsys.readouterr()
    assert run("evaluate", "--ref", str(ref.with_suffix(".csv")),
               "--gen", str(gen.with_suffix(".csv"))) == 0
    report = json.loads(capsys.readouterr().out)
    expected = evaluate(*embed_union(load_params(ckpt), load_graphs(ref),
                                     load_graphs(gen))).as_dict()
    assert report.keys() == expected.keys()
    for name, value in expected.items():
        assert report[name] == pytest.approx(value, rel=1e-12, abs=0), name


@pytest.mark.parametrize("version", [1, 2, 3])
def test_old_checkpoint_version_fails_cleanly(workspace, tmp_path, capsys, version):
    # versions 1 and 2 hold no batch-norm statistics to embed with, and all
    # three hold the first linear's bias, which batch norm cancels
    _, data, ckpt = workspace
    blob = json.loads(ckpt.read_text())
    if version < 3:
        del blob["stats"]
    hidden, layers = blob["config"]["hidden"], blob["config"]["num_layers"]
    blob["weights"].update({f"l{k}.m0.b": [0.0] * hidden for k in range(layers)})
    blob["version"] = version
    old = tmp_path / "old.json"
    old.write_text(json.dumps(blob))
    assert run("embed", "--params", str(old), "--in", str(data),
               "--out", str(tmp_path / "emb.csv")) == 1
    err = capsys.readouterr().err
    assert f"ParseError: unsupported checkpoint version {version}" in err
    assert len(err.strip().splitlines()) == 1
    assert not (tmp_path / "emb.csv").exists()


def test_train_bad_variant_is_parser_error(workspace):
    _, data, _ = workspace
    with pytest.raises(SystemExit) as exc:
        run("train", "--data", str(data), "--out", "x", "--variant", "nope")
    assert exc.value.code == 2


# --- evaluate ----------------------------------------------------------------


def embedding_files(tmp_path):
    rng = np.random.default_rng(0)
    ref, gen = tmp_path / "ref.csv", tmp_path / "gen.csv"
    np.savetxt(ref, rng.normal(size=(20, 4)), delimiter=",")
    np.savetxt(gen, rng.normal(size=(18, 4)), delimiter=",")
    return ref, gen


def test_evaluate_stdout_json(tmp_path, capsys):
    ref, gen = embedding_files(tmp_path)
    assert run("evaluate", "--ref", str(ref), "--gen", str(gen), "--k", "3") == 0
    payload = json.loads(capsys.readouterr().out)
    assert tuple(payload) == tuple(sorted(REPORT_FIELDS))
    assert payload["k"] == 3


def test_evaluate_out_file(tmp_path):
    ref, gen = embedding_files(tmp_path)
    out = tmp_path / "report.json"
    assert run("evaluate", "--ref", str(ref), "--gen", str(gen),
               "--out", str(out)) == 0
    assert json.loads(out.read_text())["k"] == 5


def test_evaluate_k_too_large_fails_cleanly(tmp_path, capsys):
    ref, gen = embedding_files(tmp_path)
    assert run("evaluate", "--ref", str(ref), "--gen", str(gen),
               "--k", "50") == 1
    assert "evaluate" in capsys.readouterr().err


def test_evaluate_out_of_float_range_fails_cleanly(tmp_path, capsys):
    rng = np.random.default_rng(0)
    ref, gen = tmp_path / "ref.csv", tmp_path / "gen.csv"
    np.savetxt(ref, rng.normal(size=(10, 3)) * 1e80, delimiter=",")
    np.savetxt(gen, rng.normal(size=(10, 3)) * 1e80, delimiter=",")
    assert run("evaluate", "--ref", str(ref), "--gen", str(gen), "--k", "3") == 1
    assert "DegenerateSetError: Frechet distance" in capsys.readouterr().err


@pytest.mark.parametrize("text, reason", [("1,2\n3,abc\n", "not a numeric CSV matrix"),
                                          ("1,2,3\n4,5\n", "not a numeric CSV matrix"),
                                          ("", "no rows"), ("\n\n", "no rows")],
                         ids=["non-numeric", "ragged", "empty", "blank lines"])
def test_evaluate_malformed_csv_fails_cleanly(tmp_path, capsys, text, reason):
    ref, _ = embedding_files(tmp_path)
    bad = tmp_path / "bad.csv"
    bad.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy warning escapes
        assert run("evaluate", "--ref", str(ref), "--gen", str(bad)) == 1
    err = capsys.readouterr().err
    assert f"ParseError: {bad}: {reason}" in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("command", ["embed", "benchmark"])
@pytest.mark.parametrize("corruption", ["wrong shape", "dropped key", "invalid json"])
def test_corrupt_checkpoint_fails_cleanly(workspace, tmp_path, capsys, command, corruption):
    _, data, ckpt = workspace
    blob = json.loads(ckpt.read_text())
    if corruption == "wrong shape":
        blob["weights"]["l0.m0.W"] = blob["weights"]["l0.m0.W"] * 2
        text = json.dumps(blob)
    elif corruption == "dropped key":
        del blob["weights"]["l1.m1.b"]
        text = json.dumps(blob)
    else:
        text = ckpt.read_text()[:-10]
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    io = ["--in", str(data)] if command == "embed" else ["--data", str(data)]
    assert run(command, "--params", str(bad), *io,
               "--out", str(tmp_path / "out.csv")) == 1
    err = capsys.readouterr().err
    assert "ParseError" in err
    assert len(err.strip().splitlines()) == 1


# --- benchmark ---------------------------------------------------------------


def test_benchmark_outputs(workspace, tmp_path):
    _, data, ckpt = workspace
    out = tmp_path / "curves.csv"
    plot_stem = tmp_path / "chart.svg"
    assert run("--seed", "2", "benchmark", "--data", str(data),
               "--params", str(ckpt), "--kind", "mix-random",
               "--step", "0.5", "--k", "3",
               "--out", str(out), "--plot", str(plot_stem)) == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 1 + 3  # header + ratios {0, 0.5, 1} for one seed
    summary = json.loads((tmp_path / "curves.summary.json").read_text())
    assert summary["kind"] == "mix_random"
    assert summary["seeds"] == [2]
    assert set(summary["rho"]) == set(METRIC_NAMES)
    for name in METRIC_NAMES:
        assert (tmp_path / f"chart-{name}.svg").exists()


def test_benchmark_summary_names_the_zero_variance_metrics(workspace, tmp_path):
    _, data, ckpt = workspace
    out = tmp_path / "curves.csv"
    assert run("--seed", "2", "benchmark", "--data", str(data), "--params", str(ckpt),
               "--step", "0.5", "--seeds", "2", "--k", "3", "--out", str(out)) == 0
    rows = [line.split(",") for line in out.read_text().strip().splitlines()]
    header, body = rows[0], rows[1:]
    want = {}
    for seed in ("2", "3"):
        columns = list(zip(*[row for row in body if row[0] == seed]))
        # the ratios vary, so a flag means the metric's curve is constant
        want[seed] = [name for name in METRIC_NAMES
                      if len(set(columns[header.index(name)])) == 1]
    summary = json.loads((tmp_path / "curves.summary.json").read_text())
    assert summary["zero_variance"] == want


def test_benchmark_computes_reference_features_once(workspace, tmp_path, monkeypatch):
    import ggeval.encoder
    import ggeval.features
    from ggeval.graphs import Graph

    _, data, _ = workspace
    ckpt = tmp_path / "enc.json"
    assert run("--seed", "3", "train", "--data", str(data), "--out", str(ckpt),
               "--epochs", "1", "--batch-size", "4", "--layers", "2", "--hidden", "8",
               "--features", "degree+clustering") == 0
    computed = []
    clustering = ggeval.features.clustering

    def counting(graph):
        computed.append(graph)
        return clustering(graph)

    def bench(name):
        del computed[:]
        out = tmp_path / f"{name}.csv"
        assert run("--seed", "2", "benchmark", "--data", str(data), "--params", str(ckpt),
                   "--step", "0.5", "--k", "3", "--out", str(out)) == 0
        return out.read_bytes(), (tmp_path / f"{name}.summary.json").read_bytes()

    monkeypatch.setattr(ggeval.features, "clustering", counting)
    cached = bench("cached")
    # the 10 reference graphs once, then only the 0, 5 and 10 graphs that
    # ratios 0, 0.5 and 1 replace, instead of both whole sets at every ratio
    assert len(computed) == 10 + 0 + 5 + 10
    structural_features = ggeval.encoder.structural_features
    monkeypatch.setattr(ggeval.encoder, "structural_features", lambda graph, config:
                        structural_features(Graph(graph.num_nodes, graph.edges), config))
    assert bench("computed") == cached
    # uncached, each union computes its distinct graphs: at ratio 0 the
    # generated set is the reference itself, at 0.5 it adds 5 new graphs
    assert len(computed) == 10 + 15 + 20


def test_benchmark_mode_drop_outputs(workspace, tmp_path):
    _, data, ckpt = workspace
    out = tmp_path / "drop.csv"
    assert run("--seed", "2", "benchmark", "--data", str(data),
               "--params", str(ckpt), "--kind", "mode-drop",
               "--num-clusters", "3", "--k", "3", "--out", str(out)) == 0
    rows = [line.split(",") for line in out.read_text().strip().splitlines()]
    # mode drop stops short of dropping every cluster: ratios 0, 1/3, 2/3
    assert [float(row[1]) for row in rows[1:]] == [0.0, 1 / 3, 2 / 3]
    summary = json.loads((tmp_path / "drop.summary.json").read_text())
    assert summary["kind"] == "mode_drop"
    assert summary["num_clusters"] == 3
    assert set(summary["rho"]) == set(METRIC_NAMES)


def test_benchmark_unknown_kind_is_usage_error(workspace, tmp_path, capsys):
    _, data, ckpt = workspace
    with pytest.raises(SystemExit) as exc:
        run("benchmark", "--data", str(data), "--params", str(ckpt),
            "--kind", "nope", "--out", str(tmp_path / "c.csv"))
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


# --- verify ------------------------------------------------------------------


def test_verify_default_passes(capsys):
    assert run("verify") == 0
    out = capsys.readouterr().out
    assert out.count("cycle-pair") == 3
    assert "wl-ceiling" in out
    assert "FAIL" not in out


def test_verify_custom_tuple(capsys):
    assert run("verify", "--prop1", "5,8,6,7") == 0
    out = capsys.readouterr().out
    assert out.count("cycle-pair") == 1
    assert "wl-ceiling" not in out


def test_verify_bad_tuple_syntax(capsys):
    assert run("verify", "--prop1", "5,8,6") == 2
    assert "--prop1" in capsys.readouterr().err


def test_verify_hypothesis_violation_fails(capsys):
    assert run("verify", "--prop1", "3,5,4,4") == 1
    assert "HypothesisViolationError" in capsys.readouterr().err


# --- reproduce ---------------------------------------------------------------


def test_reproduce_features_default_follows_config(tmp_path):
    from ggeval.reproduce import ReproduceConfig

    out = tmp_path / "repro"
    assert run("reproduce", "--out", str(out), "--count", "6", "--epochs", "1",
               "--step", "0.5", "--seeds", "1", "--layers", "1", "--hidden", "4") == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["config"]["feature_config"] == ReproduceConfig().feature_config


def test_reproduce_defaults_are_the_config_defaults(monkeypatch):
    import ggeval.reproduce
    from ggeval.reproduce import ReproduceConfig

    seen = []

    class Stop(Exception):
        pass

    def fake_run_reproduction(config, **kwargs):
        seen.append(config)
        raise Stop

    monkeypatch.setattr(ggeval.reproduce, "run_reproduction", fake_run_reproduction)
    with pytest.raises(Stop):
        run("reproduce")
    assert seen == [ReproduceConfig()]


# --- option checks and global flags ------------------------------------------


# name -> arguments after the workspace paths
OUT_OF_RANGE_OPTIONS = {
    "train epochs 0": ["train", "--epochs", "0"],
    "train lr nan": ["train", "--lr", "nan"],
    "benchmark step 0.3": ["benchmark", "--step", "0.3"],
    "benchmark step 0": ["benchmark", "--step", "0"],
    "benchmark k 0": ["benchmark", "--k", "0"],
    "evaluate k 0": ["evaluate", "--k", "0"],
    "reproduce layers 0": ["reproduce", "--layers", "0"],
    "reproduce step 0.3": ["reproduce", "--step", "0.3"],
    # spearman needs 3 ratios: each of these sweeps would visit 2
    "reproduce step 1": ["reproduce", "--step", "1"],
    "benchmark step 1": ["benchmark", "--step", "1"],
    "benchmark mode-drop num-clusters 2": ["benchmark", "--kind", "mode-drop",
                                           "--num-clusters", "2"],
    "benchmark seeds 0": ["benchmark", "--seeds", "0"],
    "reproduce seeds 0": ["reproduce", "--seeds", "0"],
    "generate count 0": ["generate", "--count", "0"],
    # k-NN balls of the default k = 5 need 6 graphs; both fail before any set is built
    "reproduce count 0": ["reproduce", "--count", "0"],
    "reproduce count 5": ["reproduce", "--count", "5", "--epochs", "1", "--step", "0.5",
                          "--seeds", "1"],
}


@pytest.mark.parametrize("case", sorted(OUT_OF_RANGE_OPTIONS))
def test_out_of_range_option_is_usage_error(workspace, tmp_path, capsys, case):
    _, data, ckpt = workspace
    args = OUT_OF_RANGE_OPTIONS[case]
    command = args[0]
    ref, gen = embedding_files(tmp_path)
    paths = {
        "generate": ["--recipe", "lobster", "--out", str(tmp_path / "g.jsonl")],
        "evaluate": ["--ref", str(ref), "--gen", str(gen)],
        "train": ["--data", str(data), "--out", str(tmp_path / "enc.json")],
        "benchmark": ["--data", str(data), "--params", str(ckpt),
                      "--out", str(tmp_path / "c.csv")],
        "reproduce": ["--out", str(tmp_path / "repro")],
    }[command]
    assert run(*args, *paths) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: ")
    assert len(err.strip().splitlines()) == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("args", [
    (["--step", "1"], "needs at least 3 ratios"),
    (["--kind", "mode-drop", "--num-clusters", "2"], "needs at least 3 ratios"),
    (["--seeds", "0"], "usage error: benchmark: --seeds must be >= 1, got 0"),
    (["--k", "0"], "usage error: benchmark: --k must be >= 1, got 0"),
])
def test_benchmark_grid_checked_before_loading(tmp_path, capsys, loaders_fail, args):
    options, message = args
    # the files need not exist: nothing is read
    assert run("benchmark", "--data", str(tmp_path / "ref.jsonl"),
               "--params", str(tmp_path / "enc.json"), "--out", str(tmp_path / "c.csv"),
               *options) == 2
    assert message in capsys.readouterr().err


def test_threads_flag_sets_environment(tmp_path):
    saved = {var: os.environ.get(var)
             for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                         "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}
    try:
        out = tmp_path / "t.jsonl"
        assert run("--threads", "2", "generate", "--recipe", "lobster",
                   "--count", "2", "--out", str(out)) == 0
        assert os.environ["OMP_NUM_THREADS"] == "2"
    finally:
        for var, value in saved.items():
            if value is None:
                os.environ.pop(var, None)
            else:
                os.environ[var] = value


@pytest.mark.parametrize("threads", ["-3", "0"])
def test_threads_below_one_is_usage_error(capsys, threads):
    before = os.environ.get("OPENBLAS_NUM_THREADS")
    assert run("--threads", threads, "verify", "--prop1", "5,8,6,7") == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: --threads must be >= 1")
    assert len(err.strip().splitlines()) == 1
    assert os.environ.get("OPENBLAS_NUM_THREADS") == before
    # the check comes before any subcommand loads numpy
    run_python("import sys\nfrom ggeval.cli import main\n"
               f"assert main(['--threads', '{threads}', 'verify']) == 2\n"
               "assert 'numpy' not in sys.modules\n")


def run_python(script):
    """Run script in a fresh interpreter that imports this checkout's ggeval."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [
        os.path.dirname(os.path.dirname(ggeval.__file__)), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_import_leaves_numpy_unloaded():
    # --threads must reach the environment before numpy loads, so importing
    # the package and its CLI may not pull numpy in
    script = (
        "import sys, ggeval, ggeval.cli\n"
        "assert 'numpy' not in sys.modules, 'numpy loaded on import'\n"
    )
    run_python(script)


def test_submodules_leave_slow_scipy_packages_unloaded():
    # importing scipy.stats alone takes about as long as a whole
    # reproduction seed's setup, so no submodule may pull these in
    script = (
        "import importlib, pkgutil, sys, ggeval\n"
        "for info in pkgutil.iter_modules(ggeval.__path__):\n"
        "    importlib.import_module('ggeval.' + info.name)\n"
        "loaded = [m for m in ('scipy.stats', 'scipy.cluster', 'scipy.optimize')\n"
        "          if m in sys.modules]\n"
        "assert not loaded, loaded\n"
    )
    run_python(script)


def test_cli_choices_are_the_library_names():
    # the CLI keeps its own copies so that loading it leaves numpy unloaded
    from ggeval import cli
    from ggeval.benchmark import PERTURBATION_KINDS
    from ggeval.features import FEATURE_CONFIGS
    from ggeval.generators import DATASET_COUNTS
    from ggeval.training import TRAIN_VARIANTS

    assert cli._RECIPES == tuple(DATASET_COUNTS)
    assert cli._FEATURE_CONFIGS == FEATURE_CONFIGS
    assert cli._VARIANTS == tuple(TRAIN_VARIANTS)
    assert cli._KINDS == PERTURBATION_KINDS


def test_readme_quick_start_parses():
    text = (Path(__file__).parents[1] / "README.md").read_text()
    block = text.split("## Command-line quick start", 1)[1].split("```sh\n", 1)[1]
    block = block.split("```", 1)[0].replace("\\\n", " ")
    lines = [line for line in block.splitlines() if line.startswith("ggeval ")]
    assert lines
    parser = build_parser()
    for line in lines:
        parser.parse_args(shlex.split(line)[1:])


def test_readme_names_the_checkpoint_version():
    text = (Path(__file__).parents[1] / "README.md").read_text()
    paragraph = text.split("Checkpoints written by `train`", 1)[1].split("\n\n", 1)[0]
    words = " ".join(paragraph.split())
    assert f"format version {CHECKPOINT_VERSION}:" in words
    assert f"versions 1 to {CHECKPOINT_VERSION - 1}:" in words


def test_missing_subcommand_is_parser_error():
    with pytest.raises(SystemExit) as exc:
        run()
    assert exc.value.code == 2
