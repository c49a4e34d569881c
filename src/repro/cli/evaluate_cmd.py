"""Evaluation CLI commands: sweep (one Table-2 row) and worst-case (Fig. 3).

All three commands drive one :class:`~repro.core.session.BenchmarkSession`:
load the synthetic dataset, train a zoo classifier from scratch — sized for
a laptop-minute demo by default — then measure SysNoise exactly as the
benchmark harness does.  For the shipped benchmark numbers use
``pytest benchmarks/`` instead, which caches trained weights on disk.
"""

from __future__ import annotations

import argparse

__all__ = ["register", "build_session"]


def register(sub: argparse._SubParsersAction) -> None:
    for name, helptext in (("sweep", "ΔACC per noise type for one model "
                                     "(one Table-2 row)"),
                           ("worst-case", "Fig.-3 cumulative noise stacking")):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--model", default="resnet18x0.25",
                       help="zoo model name (see list-models)")
        p.add_argument("--n", type=int, default=240,
                       help="dataset size (train+val)")
        p.add_argument("--train-frac", type=float, default=0.75)
        p.add_argument("--epochs", type=int, default=15)
        p.add_argument("--seed", type=int, default=0)
        _add_engine_args(p)
        if name == "sweep":
            p.add_argument("--noises", default=None,
                           help="comma-separated subset (default: all "
                                "classification noises)")
            p.add_argument("--no-combined", action="store_true",
                           help="skip the all-noises-at-once column")
            p.set_defaults(func=cmd_sweep)
        else:
            p.set_defaults(func=cmd_worst_case)

    p = sub.add_parser("interaction",
                       help="pairwise noise-interaction matrix (ablation E)")
    p.add_argument("--model", default="resnet18x0.25")
    p.add_argument("--n", type=int, default=240)
    p.add_argument("--train-frac", type=float, default=0.75)
    p.add_argument("--epochs", type=int, default=15)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--noises", default="decoder,resize,color,precision",
                   help="comma-separated noise subset to cross")
    _add_engine_args(p)
    p.set_defaults(func=cmd_interaction)


def _add_engine_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--workers", type=int, default=None,
                   help="fan variant evaluations out over this many workers "
                        "(capped at the cores available to the process; "
                        "default: serial)")
    p.add_argument("--batch-size", type=int, default=None,
                   help="evaluation minibatch size (default: adapter choice)")
    p.add_argument("--shard-size", type=int, default=None,
                   help="stream evaluations in shards of this many items "
                        "(bounded peak memory, shard-granular ledger "
                        "resume; default: monolithic)")


def build_session(args: argparse.Namespace):
    """Dataset + freshly trained zoo classifier at CLI demo scale."""
    from repro.core import BenchmarkSession

    print(f"training {args.model} (n={args.n}, epochs={args.epochs}) ...")
    return (BenchmarkSession()
            .task("cls")
            .seed(args.seed)
            .workers(args.workers)
            .batch(args.batch_size)
            .shards(getattr(args, "shard_size", None))
            .model(args.model)
            .data(n=args.n, native_size=48, input_size=32,
                  train_frac=args.train_frac)
            .fit(epochs=args.epochs))


def _bad_noises(noises, known) -> list[str]:
    return [n for n in noises if n not in known]


def cmd_sweep(args: argparse.Namespace) -> int:
    from repro.core import CLS_NOISES
    from repro.models import MODEL_ZOO

    noises = args.noises.split(",") if args.noises else list(CLS_NOISES)
    bad = _bad_noises(noises, CLS_NOISES)
    if bad:
        print(f"error: unknown classification noise(s) {bad}; "
              f"choose from {list(CLS_NOISES)}")
        return 2
    session = build_session(args).noises(*noises)
    spec = {s.name: s for s in MODEL_ZOO}[args.model]
    if not spec.has_maxpool:
        session.skip("ceil_mode")
    result = session.combined(not args.no_combined).run()
    print(result.render(f"SysNoise sweep — {args.model}"))
    return 0


def cmd_worst_case(args: argparse.Namespace) -> int:
    from repro.core import CLS_NOISES, render_curve

    session = build_session(args)
    curve = session.worst_case(CLS_NOISES)
    print(render_curve(curve, session.adapter.metric_name))
    return 0


def cmd_interaction(args: argparse.Namespace) -> int:
    from repro.core import (TRAIN_CONFIG, combined_config, noise_names,
                            pairwise_interaction, render_interaction)

    noises = args.noises.split(",")
    known = set(noise_names())
    bad = _bad_noises(noises, known)
    if bad:
        print(f"error: unknown noise(s) {bad}; choose from {sorted(known)}")
        return 2
    session = build_session(args)
    # The interaction study's configs are known up front: fan them out over
    # the session engine so --workers applies, then the serial matrix walk
    # below is pure eval-cache hits.
    configs = ([TRAIN_CONFIG]
               + [combined_config([n]) for n in noises]
               + [combined_config([a, b]) for i, a in enumerate(noises)
                  for b in noises[i + 1:]])
    session.engine().map(session.evaluate, configs)
    matrix = pairwise_interaction(
        lambda m, d, cfg: session.evaluate(cfg),
        session.trained_model, session.eval_data, noises)
    print(render_interaction(matrix))
    return 0
