"""Exit codes, option resolution, and artifact round trips for the CLI."""

import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ggeval
from ggeval.cli import build_parser, main
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
    assert run("generate", "--recipe", "lobster", "--count", "2") == 2
    assert "missing required option" in capsys.readouterr().err


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


def test_embed_matrix_shape(workspace, tmp_path):
    _, data, ckpt = workspace
    out = tmp_path / "emb.csv"
    assert run("embed", "--params", str(ckpt), "--in", str(data),
               "--out", str(out)) == 0
    emb = np.loadtxt(out, delimiter=",", ndmin=2)
    assert emb.shape == (10, 2 * 8)


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


@pytest.mark.parametrize("text", ["1,2\n3,abc\n", "1,2,3\n4,5\n"],
                         ids=["non-numeric", "ragged"])
def test_evaluate_malformed_csv_fails_cleanly(tmp_path, capsys, text):
    ref, _ = embedding_files(tmp_path)
    bad = tmp_path / "bad.csv"
    bad.write_text(text)
    assert run("evaluate", "--ref", str(ref), "--gen", str(bad)) == 1
    err = capsys.readouterr().err
    assert "ParseError" in err
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


def test_benchmark_unknown_kind_is_usage_error(workspace, tmp_path, capsys):
    _, data, ckpt = workspace
    assert run("benchmark", "--data", str(data), "--params", str(ckpt),
               "--kind", "nope", "--out", str(tmp_path / "c.csv")) == 2
    assert "unknown kind" in capsys.readouterr().err


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


# --- config file and global flags ---------------------------------------------


def test_config_file_supplies_options(tmp_path):
    cfg = tmp_path / "ggeval.ini"
    out = tmp_path / "from-config-100%.jsonl"  # read literally, not interpolated
    cfg.write_text(
        f"[generate]\nrecipe = lobster\ncount = 4\nout = {out}\n"
    )
    assert run("--config", str(cfg), "generate") == 0
    assert len(load_graphs(out)) == 4


def test_flag_beats_config(tmp_path):
    cfg = tmp_path / "ggeval.ini"
    out = tmp_path / "flagged.jsonl"
    cfg.write_text(f"[generate]\nrecipe = lobster\ncount = 4\nout = {out}\n")
    assert run("--config", str(cfg), "generate", "--count", "2") == 0
    assert len(load_graphs(out)) == 2


def test_config_dashed_keys(workspace, tmp_path):
    _, data, _ = workspace
    cfg = tmp_path / "train.ini"
    ckpt = tmp_path / "enc.json"
    cfg.write_text(
        "[train]\nepochs = 1\nbatch-size = 4\nlayers = 2\nhidden = 8\n"
        "lr = 0.001\n"
    )
    assert run("--config", str(cfg), "train", "--data", str(data),
               "--out", str(ckpt)) == 0
    assert ckpt.exists()


def test_config_missing_file(capsys):
    assert run("--config", "/nonexistent.ini", "verify") == 2
    assert "config file not found" in capsys.readouterr().err


@pytest.mark.parametrize("command, text, key", [
    ("generate", "[generate]\nrecipe = lobster\ncount = soon\nout = x\n", "count"),
    ("generate", "[generate]\nrecipe = lobster\ncuont = 7\nout = x\n", "cuont"),
    ("generate", "[generate]\nrecipe = nope\nout = x\n", "recipe"),
    ("verify", "[verify]\nprop1 = 3,5,4,4\n", "prop1"),
    ("generate", "[genrate]\nrecipe = lobster\n", "genrate"),
], ids=["bad count", "unknown key", "recipe outside choices", "command-line only key",
        "unknown section"])
def test_config_bad_value_type(tmp_path, capsys, command, text, key):
    cfg = tmp_path / "bad.ini"
    cfg.write_text(text)
    assert run("--config", str(cfg), command) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: ")
    assert len(err.strip().splitlines()) == 1
    assert key in err


@pytest.mark.parametrize("raw", [b"count = 3\n", b"[generate]\ncount = 3\ncount = 4\n",
                                 b"\xff\xfe[generate]\n"],
                         ids=["no section header", "duplicate key", "not utf-8"])
def test_malformed_config_file_is_usage_error(tmp_path, capsys, raw):
    cfg = tmp_path / "bad.ini"
    cfg.write_bytes(raw)
    assert run("--config", str(cfg), "generate") == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: ")
    assert len(err.strip().splitlines()) == 1


# name -> (arguments after the workspace paths, config file text or None)
OUT_OF_RANGE_OPTIONS = {
    "train epochs 0": (["train", "--epochs", "0"], None),
    "train lr nan": (["train", "--lr", "nan"], None),
    "train config features": (["train"], "[train]\nfeatures = bogus\n"),
    "benchmark step 0.3": (["benchmark", "--step", "0.3"], None),
    "benchmark step 0": (["benchmark", "--step", "0"], None),
    "benchmark k 0": (["benchmark", "--k", "0"], None),
    "evaluate k 0": (["evaluate", "--k", "0"], None),
    "reproduce layers 0": (["reproduce", "--layers", "0"], None),
    "reproduce step 0.3": (["reproduce", "--step", "0.3"], None),
    "benchmark seeds 0": (["benchmark", "--seeds", "0"], None),
    "reproduce seeds 0": (["reproduce", "--seeds", "0"], None),
    "generate count 0": (["generate", "--count", "0"], None),
}


@pytest.mark.parametrize("case", sorted(OUT_OF_RANGE_OPTIONS))
def test_out_of_range_option_is_usage_error(workspace, tmp_path, capsys, case):
    _, data, ckpt = workspace
    args, config_text = OUT_OF_RANGE_OPTIONS[case]
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
    config = []
    if config_text is not None:
        cfg = tmp_path / "bad.ini"
        cfg.write_text(config_text)
        config = ["--config", str(cfg)]
    assert run(*config, *args, *paths) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: ")
    assert len(err.strip().splitlines()) == 1
    assert "Traceback" not in err


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


def run_python(script):
    """Run script in a fresh interpreter that imports this checkout's ggeval."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [
        os.path.dirname(os.path.dirname(ggeval.__file__)), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_import_leaves_numpy_unloaded_and_exports_resolve():
    # --threads must reach the environment before numpy loads, so importing
    # the package and its CLI may not pull numpy in
    script = (
        "import sys, ggeval, ggeval.cli\n"
        "assert 'numpy' not in sys.modules, 'numpy loaded on import'\n"
        "missing = [name for name in ggeval.__all__ if getattr(ggeval, name, None) is None]\n"
        "assert not missing, missing\n"
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
    from ggeval.features import FEATURE_CONFIGS
    from ggeval.generators import DATASET_COUNTS
    from ggeval.training import TRAIN_VARIANTS

    assert cli._RECIPES == tuple(DATASET_COUNTS)
    assert cli._FEATURE_CONFIGS == FEATURE_CONFIGS
    assert cli._VARIANTS == tuple(TRAIN_VARIANTS)


def test_readme_quick_start_parses():
    text = (Path(__file__).parents[1] / "README.md").read_text()
    block = text.split("## Command-line quick start", 1)[1].split("```sh\n", 1)[1]
    block = block.split("```", 1)[0].replace("\\\n", " ")
    lines = [line for line in block.splitlines() if line.startswith("ggeval ")]
    assert lines
    parser = build_parser()
    for line in lines:
        parser.parse_args(shlex.split(line)[1:])


def test_missing_subcommand_is_parser_error():
    with pytest.raises(SystemExit) as exc:
        run()
    assert exc.value.code == 2
