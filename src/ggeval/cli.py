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
    # values are option values such as paths, taken literally: no % interpolation
    parser = configparser.ConfigParser(interpolation=None)
    try:
        read = parser.read(path)
    except (configparser.Error, UnicodeDecodeError) as exc:
        # some parser messages span lines; the usage error is one line
        raise UsageError(f"config file {path}: {' '.join(str(exc).splitlines())}") from exc
    if not read:
        raise UsageError(f"config file not found: {path}")
    return parser


def _apply_config(parser, ns, argv):
    """Parse argv again with ns.command's config-file section as defaults.

    Sections are named after subcommands. A key names an option by its
    flag, with dashes or underscores; its value is converted with the
    option's type and checked against its choices, and only options that
    take one value can come from the file. Flags still win.
    """
    cfg = _load_config(ns.config)
    # argparse has no public handle on a subparser or on an option's action
    (commands,) = parser._subparsers._group_actions
    for section in cfg.sections():
        if section not in commands.choices:
            raise UsageError(f"config [{section}]: no such subcommand")
    subparser = commands.choices[ns.command]
    section = ns.command if cfg.has_section(ns.command) else cfg.default_section
    values = {}
    for key, raw in cfg.items(section):
        where = f"config [{section}] {key}"
        action = subparser._option_string_actions.get("--" + key.replace("_", "-"))
        if action is None:
            raise UsageError(f"{where}: {ns.command} has no such option")
        if type(action) is not argparse._StoreAction:
            raise UsageError(f"{where}: a command-line only option")
        try:
            value = raw if action.type is None else action.type(raw)
        except ValueError as exc:
            raise UsageError(f"{where} = {raw!r}: {exc}") from exc
        if action.choices is not None and value not in action.choices:
            raise UsageError(f"{where} = {raw!r}: choose from {', '.join(action.choices)}")
        values[action.dest] = value
    subparser.set_defaults(**values)
    return parser.parse_args(argv)


def _given(ns, *fields):
    """The named options that were given, as keyword arguments."""
    return {name: getattr(ns, name) for name in fields if getattr(ns, name) is not None}


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
    from .generators import gen_dataset
    from .graphs import save_graphs

    recipe = _require(ns.recipe, "--recipe")
    out = _require(ns.out, "--out")
    graph_set = gen_dataset(recipe, count=ns.count, seed=ns.seed)
    save_graphs(graph_set, out)
    log.info("generate recipe=%s count=%d seed=%d out=%s",
             recipe, len(graph_set), ns.seed, out)
    return 0


def cmd_features(ns) -> int:
    from .benchmark import rows_to_csv
    from .features import clustering, degrees
    from .graphs import atomic_write_text, load_graphs

    path = _require(ns.infile, "--in")
    out = _require(ns.out, "--out")
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


def cmd_train(ns) -> int:
    from .benchmark import rows_to_csv
    from .encoder import EncoderConfig, save_params
    from .graphs import atomic_write_text, load_graphs
    from .training import TRAIN_VARIANTS, TrainConfig, train_graphcl

    data = _require(ns.data, "--data")
    out = _require(ns.out, "--out")
    graph_set = load_graphs(data)
    enc_cfg = EncoderConfig(**_given(ns, "num_layers", "hidden", "feature_config"))
    train_cfg = TRAIN_VARIANTS[ns.variant](TrainConfig(
        seed=ns.seed, **_given(ns, "epochs", "batch_size", "lr", "tau")))
    log.info("train data=%s graphs=%d variant=%s seed=%d epochs=%d",
             data, len(graph_set), ns.variant, ns.seed, train_cfg.epochs)
    result = train_graphcl(graph_set, enc_cfg, train_cfg)
    save_params(result.params, out)
    if ns.history is not None:
        atomic_write_text(ns.history, rows_to_csv([("epoch", "loss")] + [
            (i, repr(loss)) for i, loss in enumerate(result.epoch_losses)
        ]))
    log.info("train done loss=%.6f -> %.6f ckpt=%s",
             result.epoch_losses[0], result.epoch_losses[-1], out)
    return 0


def cmd_embed(ns) -> int:
    from .encoder import embed_set, load_params
    from .graphs import load_graphs

    params = load_params(_require(ns.params, "--params"))
    graph_set = load_graphs(_require(ns.infile, "--in"))
    out = _require(ns.out, "--out")
    emb = embed_set(params, list(graph_set))
    _write_matrix(out, emb)
    log.info("embed graphs=%d dim=%d out=%s", emb.shape[0], emb.shape[1], out)
    return 0


def cmd_evaluate(ns) -> int:
    from .graphs import atomic_write_text
    from .metrics import evaluate

    ref = _read_matrix(_require(ns.ref, "--ref"))
    gen = _read_matrix(_require(ns.gen, "--gen"))
    report = evaluate(ref, gen, **_given(ns, "k"))
    payload = json.dumps(report.as_dict(), indent=2, sort_keys=True)
    if ns.out is None:
        print(payload)
    else:
        atomic_write_text(ns.out, payload)
    log.info("evaluate ref=%d gen=%d fd=%.6g", ref.shape[0], gen.shape[0],
             report.fd)
    return 0


def cmd_benchmark(ns) -> int:
    from functools import partial

    from . import __version__
    from .benchmark import (DEFAULT_NUM_CLUSTERS, DEFAULT_RATIO_STEP, PERTURBATION_KINDS,
                            curves_to_csv, require_three_ratios, rho_summary, run_benchmark,
                            sweep_ratios, zero_variance_names)
    from .encoder import embed_union, load_params
    from .graphs import atomic_write_text, load_graphs
    from .metrics import METRIC_NAMES

    data = _require(ns.data, "--data")
    kind = ns.kind.replace("-", "_")
    if kind not in PERTURBATION_KINDS:
        raise UsageError(f"unknown kind {kind!r}; "
                         f"choose from {sorted(PERTURBATION_KINDS)}")
    out = _require(ns.out, "--out")
    step = DEFAULT_RATIO_STEP if ns.step is None else ns.step
    num_clusters = DEFAULT_NUM_CLUSTERS if ns.num_clusters is None else ns.num_clusters
    # a grid spearman cannot rank is a usage error before anything loads
    require_three_ratios(sweep_ratios(kind, step, num_clusters))
    params = load_params(_require(ns.params, "--params"))
    reference = load_graphs(data)
    seeds = tuple(range(ns.seed, ns.seed + ns.seeds))
    log.info("benchmark data=%s kind=%s step=%g seeds=%s", data, kind, step, seeds)
    curves = run_benchmark(
        reference, partial(embed_union, params), kind, seeds=seeds, step=step,
        num_clusters=num_clusters, **_given(ns, "k"),
    )
    atomic_write_text(out, curves_to_csv(curves))
    summary_path = ns.summary or str(Path(out).with_suffix("")) + ".summary.json"
    summary = {
        "version": __version__,
        "kind": kind,
        "step": step,
        "seeds": list(seeds),
        "num_clusters": num_clusters,
        "rho": rho_summary(curves),
        "zero_variance": zero_variance_names(curves),
    }
    atomic_write_text(summary_path, json.dumps(summary, indent=2, sort_keys=True))
    if ns.plot is not None:
        from .reproduce import save_metric_charts

        stem = Path(ns.plot)
        save_metric_charts(curves, lambda name: stem.with_name(
            f"{stem.stem}-{name}{stem.suffix or '.svg'}"))
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

    num_seeds = len(ReproduceConfig.seeds) if ns.seeds is None else ns.seeds
    config = ReproduceConfig(
        dataset_seed=ns.seed, seeds=tuple(range(ns.seed, ns.seed + num_seeds)),
        **_given(ns, "dataset_count", "epochs", "step", "variant", "num_layers",
                 "hidden", "feature_config"))
    report = run_reproduction(config, out_dir=ns.out, log=log.info)
    mean_trained = report.mean_rhos("trained")
    mean_random = report.mean_rhos("random")
    print(f"experiment community-mix-random: {len(report.runs)} seeds, "
          f"{report.elapsed_seconds:.1f}s, outputs in {ns.out}")
    for name in METRIC_NAMES:
        print(f"  rho[{name}]: trained mean {mean_trained[name]:+.4f}, "
              f"random-init mean {mean_random[name]:+.4f}")
    wins = report.recall_trend_wins()
    print(f"  recall trend: trained beats random-init in {wins}/{len(report.runs)} seeds")
    return 0


# The library's names, copied so that loading the CLI leaves numpy unloaded.
_RECIPES = ("lobster", "grid", "community")
_FEATURE_CONFIGS = ("none", "degree", "degree+clustering")
_VARIANTS = ("graphcl", "graphcl-nolip", "graphcl-lightaug")


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
    p.set_defaults(handler=cmd_generate)
    p.add_argument("--recipe", choices=_RECIPES)
    p.add_argument("--count", type=int)
    p.add_argument("--out")

    p = sub.add_parser("features", help="local statistics per node, CSV")
    p.set_defaults(handler=cmd_features)
    p.add_argument("--in", dest="infile")
    p.add_argument("--out")

    p = sub.add_parser("train", help="contrastive encoder training")
    p.set_defaults(handler=cmd_train)
    p.add_argument("--data")
    p.add_argument("--out")
    p.add_argument("--history", help="loss history CSV")
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-size", dest="batch_size", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--tau", type=float)
    p.add_argument("--layers", dest="num_layers", type=int)
    p.add_argument("--hidden", type=int)
    p.add_argument("--features", dest="feature_config", choices=_FEATURE_CONFIGS)
    p.add_argument("--variant", choices=_VARIANTS, default="graphcl")

    p = sub.add_parser("embed", help="embed a graph set with a checkpoint")
    p.set_defaults(handler=cmd_embed)
    p.add_argument("--params")
    p.add_argument("--in", dest="infile")
    p.add_argument("--out")

    p = sub.add_parser("evaluate", help="metrics between two embedding CSVs")
    p.set_defaults(handler=cmd_evaluate)
    p.add_argument("--ref")
    p.add_argument("--gen")
    p.add_argument("--k", type=int)
    p.add_argument("--out")

    p = sub.add_parser("benchmark", help="perturbation rank-correlation sweep")
    p.set_defaults(handler=cmd_benchmark)
    p.add_argument("--data")
    p.add_argument("--params")
    p.add_argument("--kind", default="mix_random")
    p.add_argument("--step", type=float)
    p.add_argument("--seeds", type=int, default=1, help="number of seeds (base --seed)")
    p.add_argument("--num-clusters", dest="num_clusters", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--out")
    p.add_argument("--summary")
    p.add_argument("--plot", help="SVG path stem; one chart per metric")

    p = sub.add_parser("verify", help="cycle-pair and WL-ceiling checks")
    p.set_defaults(handler=cmd_verify)
    p.add_argument("--prop1", action="append",
                   help="a,b,c,d (repeatable); default: the built-in tuples")
    p.add_argument("--ceiling", action="store_true",
                   help="also run the WL-ceiling check with --prop1")

    p = sub.add_parser("reproduce", help="end-to-end scaled experiment")
    p.set_defaults(handler=cmd_reproduce)
    p.add_argument("--out", default="reproduce-out")
    p.add_argument("--seeds", type=int, help="number of seeds (base --seed)")
    p.add_argument("--count", dest="dataset_count", type=int)
    p.add_argument("--epochs", type=int)
    p.add_argument("--step", type=float)
    p.add_argument("--layers", dest="num_layers", type=int)
    p.add_argument("--hidden", type=int)
    p.add_argument("--features", dest="feature_config", choices=_FEATURE_CONFIGS)
    p.add_argument("--variant", choices=_VARIANTS)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.DEBUG if ns.verbose else logging.INFO,
        format="%(asctime)s %(name)s %(levelname)s %(message)s",
    )
    try:
        if ns.threads is not None:
            if ns.threads < 1:
                raise UsageError(f"--threads must be >= 1, got {ns.threads}")
            for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                        "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
                os.environ[var] = str(ns.threads)
        if ns.config is not None:
            ns = _apply_config(parser, ns, argv)
        from .errors import GGEvalError

        try:
            return ns.handler(ns)
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
