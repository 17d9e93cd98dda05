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
import json
import logging
import os
import sys
import warnings
from pathlib import Path

log = logging.getLogger("ggeval")


class UsageError(Exception):
    pass


def _given(ns, *fields):
    """The named options that were given, as keyword arguments."""
    return {name: getattr(ns, name) for name in fields if getattr(ns, name) is not None}


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
        with warnings.catch_warnings():
            warnings.simplefilter("error", UserWarning)  # loadtxt's "input contained no data"
            return np.loadtxt(path, delimiter=",", ndmin=2)
    except UserWarning:
        raise ParseError(f"{path}: no rows") from None
    except ValueError as exc:
        raise ParseError(f"{path}: not a numeric CSV matrix: {exc}") from exc


# ---------------------------------------------------------------------------
# subcommands


def cmd_generate(ns) -> int:
    from .generators import gen_dataset
    from .graphs import save_graphs

    graph_set = gen_dataset(ns.recipe, count=ns.count, seed=ns.seed)
    save_graphs(graph_set, ns.out)
    log.info("generate recipe=%s count=%d seed=%d out=%s",
             ns.recipe, len(graph_set), ns.seed, ns.out)
    return 0


def cmd_features(ns) -> int:
    from .benchmark import rows_to_csv
    from .features import clustering, degrees
    from .graphs import atomic_write_text, load_graphs

    graph_set = load_graphs(ns.infile)
    rows = [("graph", "node_id", "degree", "c3", "c4")]
    for gi, g in enumerate(graph_set):
        deg = degrees(g)
        c3, c4 = clustering(g)
        for v in range(g.num_nodes):
            rows.append((gi, v, int(deg[v]), repr(float(c3[v])), repr(float(c4[v]))))
    atomic_write_text(ns.out, rows_to_csv(rows))
    log.info("features in=%s graphs=%d out=%s", ns.infile, len(graph_set), ns.out)
    return 0


def cmd_train(ns) -> int:
    from .benchmark import rows_to_csv
    from .encoder import EncoderConfig, save_params
    from .graphs import atomic_write_text, load_graphs
    from .training import TRAIN_VARIANTS, TrainConfig, train_graphcl

    graph_set = load_graphs(ns.data)
    enc_cfg = EncoderConfig(**_given(ns, "num_layers", "hidden", "feature_config"))
    train_cfg = TRAIN_VARIANTS[ns.variant](TrainConfig(
        seed=ns.seed, **_given(ns, "epochs", "batch_size", "lr", "tau")))
    log.info("train data=%s graphs=%d variant=%s seed=%d epochs=%d",
             ns.data, len(graph_set), ns.variant, ns.seed, train_cfg.epochs)
    result = train_graphcl(graph_set, enc_cfg, train_cfg)
    save_params(result.params, ns.out)
    if ns.history is not None:
        atomic_write_text(ns.history, rows_to_csv([("epoch", "loss")] + [
            (i, repr(loss)) for i, loss in enumerate(result.epoch_losses)
        ]))
    log.info("train done loss=%.6f -> %.6f ckpt=%s",
             result.epoch_losses[0], result.epoch_losses[-1], ns.out)
    return 0


def cmd_embed(ns) -> int:
    from .encoder import embed_set, load_params
    from .graphs import load_graphs

    params = load_params(ns.params)
    graph_set = load_graphs(ns.infile)
    emb = embed_set(params, list(graph_set))
    _write_matrix(ns.out, emb)
    log.info("embed graphs=%d dim=%d out=%s", emb.shape[0], emb.shape[1], ns.out)
    return 0


def cmd_evaluate(ns) -> int:
    from .graphs import atomic_write_text
    from .metrics import evaluate

    ref = _read_matrix(ns.ref)
    gen = _read_matrix(ns.gen)
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
    from .benchmark import (DEFAULT_NUM_CLUSTERS, DEFAULT_RATIO_STEP, curves_to_csv,
                            require_three_ratios, rho_summary, run_benchmark, sweep_ratios,
                            zero_variance_names)
    from .encoder import embed_union, load_params
    from .errors import require_integer
    from .graphs import atomic_write_text, load_graphs
    from .metrics import METRIC_NAMES

    step = DEFAULT_RATIO_STEP if ns.step is None else ns.step
    num_clusters = DEFAULT_NUM_CLUSTERS if ns.num_clusters is None else ns.num_clusters
    # a sweep that cannot run is a usage error before anything loads
    require_three_ratios(sweep_ratios(ns.kind, step, num_clusters))
    require_integer("--seeds", ns.seeds, 1)
    if ns.k is not None:
        require_integer("--k", ns.k, 1)
    params = load_params(ns.params)
    reference = load_graphs(ns.data)
    seeds = tuple(range(ns.seed, ns.seed + ns.seeds))
    log.info("benchmark data=%s kind=%s step=%g seeds=%s", ns.data, ns.kind, step, seeds)
    curves = run_benchmark(
        reference, partial(embed_union, params), ns.kind, seeds=seeds, step=step,
        num_clusters=num_clusters, **_given(ns, "k"),
    )
    atomic_write_text(ns.out, curves_to_csv(curves))
    summary_path = ns.summary or str(Path(ns.out).with_suffix("")) + ".summary.json"
    summary = {
        "version": __version__,
        "kind": ns.kind,
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
    mean_random = report.mean_rhos("random_init")
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
_KINDS = ("mix_random", "rewire", "mode_collapse", "mode_drop")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ggeval",
        description="Evaluate graph generative models with trained graph "
                    "embeddings and perturbation benchmarks.",
    )
    parser.add_argument("--seed", type=int, default=0, help="base RNG seed")
    parser.add_argument("--threads", type=int,
                        help="BLAS/OpenMP thread count (set before numpy loads)")
    parser.add_argument("--verbose", action="store_true",
                        help="debug-level logging")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a synthetic dataset")
    p.set_defaults(handler=cmd_generate)
    p.add_argument("--recipe", choices=_RECIPES, required=True)
    p.add_argument("--count", type=int)
    p.add_argument("--out", required=True)

    p = sub.add_parser("features", help="local statistics per node, CSV")
    p.set_defaults(handler=cmd_features)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("train", help="contrastive encoder training")
    p.set_defaults(handler=cmd_train)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
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
    p.add_argument("--params", required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("evaluate", help="metrics between two embedding CSVs")
    p.set_defaults(handler=cmd_evaluate)
    p.add_argument("--ref", required=True)
    p.add_argument("--gen", required=True)
    p.add_argument("--k", type=int)
    p.add_argument("--out")

    p = sub.add_parser("benchmark", help="perturbation rank-correlation sweep")
    p.set_defaults(handler=cmd_benchmark)
    p.add_argument("--data", required=True)
    p.add_argument("--params", required=True)
    p.add_argument("--kind", type=lambda s: s.replace("-", "_"), choices=_KINDS,
                   default="mix_random")
    p.add_argument("--step", type=float)
    p.add_argument("--seeds", type=int, default=1, help="number of seeds (base --seed)")
    p.add_argument("--num-clusters", dest="num_clusters", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--out", required=True)
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
    ns = build_parser().parse_args(argv)
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
            # data faults must arrive as GGEvalError, above: numpy's LinAlgError
            # is a ValueError too, and here it would read as a bad option value
            raise UsageError(f"{ns.command}: {exc}") from exc
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
