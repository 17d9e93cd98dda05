"""Command-line interface.

Only the standard library is imported at module load so that --threads
can pin BLAS thread counts through the environment before numpy comes in;
every subcommand imports what it needs when it runs.

Exit codes: 0 success, 1 failed checks or invariant violations (with the
failing module's diagnostic on stderr), 2 usage errors, which include an
option value out of range.
"""

from __future__ import annotations

import argparse
import configparser
import json
import logging
import os
import sys
from pathlib import Path

log = logging.getLogger("ggeval")


class UsageError(Exception):
    pass


def _load_config(path):
    if path is None:
        return None
    parser = configparser.ConfigParser()
    try:
        read = parser.read(path)
    except (configparser.Error, UnicodeDecodeError) as exc:
        # some parser messages span lines; the usage error is one line
        raise UsageError(f"config file {path}: {' '.join(str(exc).splitlines())}") from exc
    if not read:
        raise UsageError(f"config file not found: {path}")
    return parser


def _opt(ns, name, default, conv=str):
    """Resolve an option: command-line flag wins, then config, then default."""
    value = getattr(ns, name)
    if value is not None:
        return value
    cfg = ns.loaded_config
    if cfg is not None:
        section = ns.command
        for key in (name, name.replace("_", "-")):
            if cfg.has_option(section, key):
                raw = cfg.get(section, key)
                try:
                    return conv(raw)
                except ValueError as exc:
                    raise UsageError(
                        f"config [{section}] {key} = {raw!r}: {exc}"
                    ) from exc
    return default


def _require(value, what):
    if value is None:
        raise UsageError(f"missing required option: {what}")
    return value


def _write_matrix(path, matrix):
    import io

    import numpy as np

    from .graphs import atomic_write_text

    buf = io.StringIO()
    np.savetxt(buf, matrix, fmt="%.17g", delimiter=",")
    atomic_write_text(path, buf.getvalue())


def _read_matrix(path):
    import numpy as np

    from .errors import ParseError

    try:
        return np.loadtxt(path, delimiter=",", ndmin=2)
    except ValueError as exc:
        raise ParseError(f"{path}: not a numeric CSV matrix: {exc}") from exc


# ---------------------------------------------------------------------------
# subcommands


def cmd_generate(ns) -> int:
    from .generators import DATASET_COUNTS, gen_dataset
    from .graphs import save_graphs

    recipe = _require(_opt(ns, "recipe", None), "--recipe")
    if recipe not in DATASET_COUNTS:
        raise UsageError(f"unknown recipe {recipe!r}; "
                         f"choose from {sorted(DATASET_COUNTS)}")
    count = _opt(ns, "count", None, int)
    out = _require(_opt(ns, "out", None), "--out")
    graph_set = gen_dataset(recipe, count=count, seed=ns.seed)
    save_graphs(graph_set, out)
    log.info("generate recipe=%s count=%d seed=%d out=%s",
             recipe, len(graph_set), ns.seed, out)
    return 0


def cmd_features(ns) -> int:
    from .benchmark import rows_to_csv
    from .features import clustering, degrees
    from .graphs import atomic_write_text, load_graphs

    path = _require(_opt(ns, "infile", None), "--in")
    out = _require(_opt(ns, "out", None), "--out")
    graph_set = load_graphs(path)
    rows = [("graph", "node_id", "degree", "c3", "c4")]
    for gi, g in enumerate(graph_set):
        deg = degrees(g)
        c3, c4 = clustering(g)
        for v in range(g.num_nodes):
            rows.append((gi, v, int(deg[v]), repr(float(c3[v])), repr(float(c4[v]))))
    atomic_write_text(out, rows_to_csv(rows))
    log.info("features in=%s graphs=%d out=%s", path, len(graph_set), out)
    return 0


def _encoder_config(ns):
    from .encoder import EncoderConfig

    return EncoderConfig(
        num_layers=_opt(ns, "layers", EncoderConfig.num_layers, int),
        hidden=_opt(ns, "hidden", EncoderConfig.hidden, int),
        feature_config=_opt(ns, "features", EncoderConfig.feature_config),
    )


def cmd_train(ns) -> int:
    from .benchmark import rows_to_csv
    from .encoder import save_params
    from .graphs import atomic_write_text, load_graphs
    from .training import TRAIN_VARIANTS, TrainConfig, train_graphcl

    data = _require(_opt(ns, "data", None), "--data")
    out = _require(_opt(ns, "out", None), "--out")
    variant = _opt(ns, "variant", "graphcl")
    if variant not in TRAIN_VARIANTS:
        raise UsageError(f"unknown variant {variant!r}; "
                         f"choose from {sorted(TRAIN_VARIANTS)}")
    graph_set = load_graphs(data)
    enc_cfg = _encoder_config(ns)
    train_cfg = TRAIN_VARIANTS[variant](TrainConfig(
        epochs=_opt(ns, "epochs", TrainConfig.epochs, int),
        batch_size=_opt(ns, "batch_size", TrainConfig.batch_size, int),
        lr=_opt(ns, "lr", TrainConfig.lr, float),
        tau=_opt(ns, "tau", TrainConfig.tau, float),
        seed=ns.seed,
    ))
    log.info("train data=%s graphs=%d variant=%s seed=%d epochs=%d",
             data, len(graph_set), variant, ns.seed, train_cfg.epochs)
    result = train_graphcl(graph_set, enc_cfg, train_cfg)
    save_params(result.params, out)
    history = _opt(ns, "history", None)
    if history is not None:
        atomic_write_text(history, rows_to_csv([("epoch", "loss")] + [
            (i, repr(loss)) for i, loss in enumerate(result.epoch_losses)
        ]))
    log.info("train done loss=%.6f -> %.6f ckpt=%s",
             result.epoch_losses[0], result.epoch_losses[-1], out)
    return 0


def cmd_embed(ns) -> int:
    from .encoder import embed_set, load_params
    from .graphs import load_graphs

    params = load_params(_require(_opt(ns, "params", None), "--params"))
    graph_set = load_graphs(_require(_opt(ns, "infile", None), "--in"))
    out = _require(_opt(ns, "out", None), "--out")
    emb = embed_set(params, list(graph_set))
    _write_matrix(out, emb)
    log.info("embed graphs=%d dim=%d out=%s", emb.shape[0], emb.shape[1], out)
    return 0


def cmd_evaluate(ns) -> int:
    from .graphs import atomic_write_text
    from .metrics import DEFAULT_KNN_K, MetricSettings, evaluate

    ref = _read_matrix(_require(_opt(ns, "ref", None), "--ref"))
    gen = _read_matrix(_require(_opt(ns, "gen", None), "--gen"))
    settings = MetricSettings(knn_k=_opt(ns, "k", DEFAULT_KNN_K, int))
    report = evaluate(ref, gen, settings)
    out = _opt(ns, "out", None)
    payload = json.dumps(report.as_dict(), indent=2, sort_keys=True)
    if out is None:
        print(payload)
    else:
        atomic_write_text(out, payload)
    log.info("evaluate ref=%d gen=%d fd=%.6g", ref.shape[0], gen.shape[0],
             report.fd)
    return 0


def cmd_benchmark(ns) -> int:
    from functools import partial

    from . import __version__
    from .benchmark import (DEFAULT_NUM_CLUSTERS, DEFAULT_RATIO_STEP, PERTURBATION_KINDS,
                            curves_to_csv, rho_summary, run_benchmark)
    from .encoder import embed_union, load_params
    from .graphs import atomic_write_text, load_graphs
    from .metrics import DEFAULT_KNN_K, METRIC_NAMES, MetricSettings

    data = _require(_opt(ns, "data", None), "--data")
    kind = _opt(ns, "kind", "mix_random").replace("-", "_")
    if kind not in PERTURBATION_KINDS:
        raise UsageError(f"unknown kind {kind!r}; "
                         f"choose from {sorted(PERTURBATION_KINDS)}")
    out = _require(_opt(ns, "out", None), "--out")
    num_seeds = _opt(ns, "seeds", 1, int)
    step = _opt(ns, "step", DEFAULT_RATIO_STEP, float)
    num_clusters = _opt(ns, "num_clusters", DEFAULT_NUM_CLUSTERS, int)
    params = load_params(_require(_opt(ns, "params", None), "--params"))
    reference = load_graphs(data)
    seeds = tuple(range(ns.seed, ns.seed + num_seeds))
    log.info("benchmark data=%s kind=%s step=%g seeds=%s", data, kind, step, seeds)
    curves = run_benchmark(
        reference, partial(embed_union, params), kind, seeds=seeds, step=step,
        num_clusters=num_clusters,
        settings=MetricSettings(knn_k=_opt(ns, "k", DEFAULT_KNN_K, int)),
    )
    atomic_write_text(out, curves_to_csv(curves))
    summary_path = _opt(ns, "summary", None) or str(Path(out).with_suffix("")) + \
        ".summary.json"
    summary = {
        "version": __version__,
        "kind": kind,
        "step": step,
        "seeds": list(seeds),
        "num_clusters": num_clusters,
        "rho": rho_summary(curves),
    }
    atomic_write_text(summary_path, json.dumps(summary, indent=2, sort_keys=True))
    plot = _opt(ns, "plot", None)
    if plot is not None:
        from .reproduce import metric_chart_series
        from .svgplot import save_chart

        stem = Path(plot)
        for name in METRIC_NAMES:
            target = stem.with_name(f"{stem.stem}-{name}{stem.suffix or '.svg'}")
            save_chart(target, metric_chart_series(curves, name),
                       title=f"{name} vs perturbation ratio ({kind})",
                       x_label="perturbation ratio r", y_label=name)
    for name in METRIC_NAMES:
        log.info("benchmark rho %s mean=%.4f median=%.4f", name,
                 summary["rho"][name]["mean"], summary["rho"][name]["median"])
    return 0


def cmd_verify(ns) -> int:
    from .distinguishability import (
        DEFAULT_CYCLE_TUPLES,
        verify_cycle_pair,
        verify_gnn_ceiling,
    )

    tuples = []
    if ns.prop1:
        for arg_str in ns.prop1:
            parts = arg_str.split(",")
            if len(parts) != 4:
                raise UsageError(f"--prop1 expects a,b,c,d, got {arg_str!r}")
            try:
                tuples.append(tuple(int(p) for p in parts))
            except ValueError as exc:
                raise UsageError(f"--prop1 {arg_str!r}: {exc}") from exc
        run_ceiling = ns.ceiling
    else:
        tuples = list(DEFAULT_CYCLE_TUPLES)
        run_ceiling = True

    all_ok = True
    for a, b, c, d in tuples:
        report = verify_cycle_pair(a, b, c, d)
        ok = report.passed
        all_ok &= ok
        print(f"cycle-pair ({a},{b}) vs ({c},{d}): "
              f"local={'PASS' if report.local.passed else 'FAIL'} "
              f"wl={'PASS' if report.wl_separated else 'FAIL'}"
              f"(iteration {report.wl_iteration} <= {report.wl_budget}) "
              f"=> {'PASS' if ok else 'FAIL'}")
        if report.local.mismatch:
            print(f"  mismatch: {report.local.mismatch}")
    if run_ceiling:
        ceiling = verify_gnn_ceiling()
        all_ok &= ceiling.passed
        print(f"wl-ceiling C6 vs 2xC3: max embedding gap {ceiling.max_gap:.3g} "
              f"(tol {ceiling.tol:g}), clustering differs: "
              f"{ceiling.clustering_differs} "
              f"=> {'PASS' if ceiling.passed else 'FAIL'}")
    return 0 if all_ok else 1


def cmd_reproduce(ns) -> int:
    from .metrics import METRIC_NAMES
    from .reproduce import ReproduceConfig, run_reproduction

    experiment = _opt(ns, "experiment", "community-mix-random")
    if experiment != "community-mix-random":
        raise UsageError(f"unknown experiment {experiment!r}; "
                         f"available: community-mix-random")
    num_seeds = _opt(ns, "seeds", len(ReproduceConfig.seeds), int)
    config = ReproduceConfig(
        dataset_count=_opt(ns, "count", ReproduceConfig.dataset_count, int),
        dataset_seed=ns.seed,
        epochs=_opt(ns, "epochs", ReproduceConfig.epochs, int),
        step=_opt(ns, "step", ReproduceConfig.step, float),
        seeds=tuple(range(ns.seed, ns.seed + num_seeds)),
        variant=_opt(ns, "variant", ReproduceConfig.variant),
        num_layers=_opt(ns, "layers", ReproduceConfig.num_layers, int),
        hidden=_opt(ns, "hidden", ReproduceConfig.hidden, int),
        feature_config=_opt(ns, "features", ReproduceConfig.feature_config),
    )
    out_dir = _opt(ns, "out", "reproduce-out")
    report = run_reproduction(config, out_dir=out_dir, log=log.info)
    mean_trained = report.mean_rhos("trained")
    mean_random = report.mean_rhos("random")
    print(f"experiment {experiment}: {len(report.runs)} seeds, "
          f"{report.elapsed_seconds:.1f}s, outputs in {out_dir}")
    for name in METRIC_NAMES:
        print(f"  rho[{name}]: trained mean {mean_trained[name]:+.4f}, "
              f"random-init mean {mean_random[name]:+.4f}")
    wins = report.recall_trend_wins()
    print(f"  recall trend: trained beats random-init in {wins}/{len(report.runs)} seeds")
    return 0


HANDLERS = {
    "generate": cmd_generate,
    "features": cmd_features,
    "train": cmd_train,
    "embed": cmd_embed,
    "evaluate": cmd_evaluate,
    "benchmark": cmd_benchmark,
    "verify": cmd_verify,
    "reproduce": cmd_reproduce,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ggeval",
        description="Evaluate graph generative models with trained graph "
                    "embeddings and perturbation benchmarks.",
    )
    parser.add_argument("--config", help="INI-style config file; flags win")
    parser.add_argument("--seed", type=int, default=0, help="base RNG seed")
    parser.add_argument("--threads", type=int,
                        help="BLAS/OpenMP thread count (set before numpy loads)")
    parser.add_argument("--verbose", action="store_true",
                        help="debug-level logging")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a synthetic dataset")
    p.add_argument("--recipe", choices=["lobster", "grid", "community"])
    p.add_argument("--count", type=int)
    p.add_argument("--out")

    p = sub.add_parser("features", help="local statistics per node, CSV")
    p.add_argument("--in", dest="infile")
    p.add_argument("--out")

    p = sub.add_parser("train", help="contrastive encoder training")
    p.add_argument("--data")
    p.add_argument("--out")
    p.add_argument("--history", help="loss history CSV")
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-size", dest="batch_size", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--tau", type=float)
    p.add_argument("--layers", type=int)
    p.add_argument("--hidden", type=int)
    p.add_argument("--features", choices=["none", "degree", "degree+clustering"])
    p.add_argument("--variant",
                   choices=["graphcl", "graphcl-nolip", "graphcl-lightaug"])

    p = sub.add_parser("embed", help="embed a graph set with a checkpoint")
    p.add_argument("--params")
    p.add_argument("--in", dest="infile")
    p.add_argument("--out")

    p = sub.add_parser("evaluate", help="metrics between two embedding CSVs")
    p.add_argument("--ref")
    p.add_argument("--gen")
    p.add_argument("--k", type=int)
    p.add_argument("--out")

    p = sub.add_parser("benchmark", help="perturbation rank-correlation sweep")
    p.add_argument("--data")
    p.add_argument("--params")
    p.add_argument("--kind")
    p.add_argument("--step", type=float)
    p.add_argument("--seeds", type=int, help="number of seeds (base --seed)")
    p.add_argument("--num-clusters", dest="num_clusters", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--out")
    p.add_argument("--summary")
    p.add_argument("--plot", help="SVG path stem; one chart per metric")

    p = sub.add_parser("verify", help="cycle-pair and WL-ceiling checks")
    p.add_argument("--prop1", action="append",
                   help="a,b,c,d (repeatable); default: the built-in tuples")
    p.add_argument("--ceiling", action="store_true",
                   help="also run the WL-ceiling check with --prop1")

    p = sub.add_parser("reproduce", help="end-to-end scaled experiment")
    p.add_argument("--experiment")
    p.add_argument("--out")
    p.add_argument("--seeds", type=int)
    p.add_argument("--count", type=int)
    p.add_argument("--epochs", type=int)
    p.add_argument("--step", type=float)
    p.add_argument("--layers", type=int)
    p.add_argument("--hidden", type=int)
    p.add_argument("--features", choices=["none", "degree", "degree+clustering"])
    p.add_argument("--variant",
                   choices=["graphcl", "graphcl-nolip", "graphcl-lightaug"])
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    if ns.threads is not None:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
            os.environ[var] = str(ns.threads)
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.DEBUG if ns.verbose else logging.INFO,
        format="%(asctime)s %(name)s %(levelname)s %(message)s",
    )
    try:
        ns.loaded_config = _load_config(ns.config)
        from .errors import GGEvalError

        try:
            return HANDLERS[ns.command](ns)
        except GGEvalError as exc:
            print(f"ggeval {ns.command}: {type(exc).__name__}: {exc}",
                  file=sys.stderr)
            return 1
        except OSError as exc:
            print(f"ggeval {ns.command}: {exc}", file=sys.stderr)
            return 1
        except ValueError as exc:
            # every ValueError a subcommand lets out is about an option value
            raise UsageError(f"{ns.command}: {exc}") from exc
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
