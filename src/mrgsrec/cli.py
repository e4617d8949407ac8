"""Command-line entry point: prepare, train, eval, ablate, verify.

Thread caps must be set before numpy loads, so this module inspects
``sys.argv`` for ``--deterministic`` / ``--threads`` at import time.
Exit codes: 0 success, 2 parse/config, 3 data/graph, 4 numeric/shape,
5 protocol, 1 anything else.
"""

from __future__ import annotations

import os
import sys


def _cap_threads(argv: list[str]) -> None:
    count = None
    if "--deterministic" in argv:
        count = "1"
    if "--threads" in argv:
        idx = argv.index("--threads")
        if idx + 1 < len(argv):
            count = argv[idx + 1]
    if count is not None and "numpy" not in sys.modules:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
            os.environ[var] = count


_cap_threads(sys.argv)

import argparse
import json
from pathlib import Path

from . import config as cfg
from . import data as data_mod
from .errors import (DataError, DimensionError, GraphError, MrgsError,
                     NumericError, ParseError, ProtocolError)
from .fusion import SCORING_HEADS

EXIT_CODES = (
    (ParseError, 2),
    ((DataError, GraphError), 3),
    ((NumericError, DimensionError), 4),
    (ProtocolError, 5),
)


def cmd_prepare(args) -> int:
    run = {"input": str(args.input), "min_count": args.min_count,
           "mode": args.mode, "delimiter": args.delimiter}
    fp = cfg.fingerprint(run)
    dataset, stats, dropped = data_mod.prepare(
        args.input, threshold=args.min_count, mode=args.mode,
        delimiter=args.delimiter)
    data_mod.save_snapshot(args.output, dataset, stats, fingerprint=fp,
                           extra={"dropped_short_users": dropped,
                                  "filter_mode": args.mode})
    print(f"users: {stats.n_users}")
    print(f"items: {stats.n_items}")
    print(f"interactions: {stats.n_interactions}")
    print(f"avg_length: {stats.avg_length:.3f}")
    print(f"dropped_short_users: {dropped}")
    print(f"fingerprint: {fp}")
    print(f"snapshot: {args.output}")
    return 0


def _load_run(args) -> tuple[dict, str]:
    run_config = cfg.load_config(args.config)
    if args.seed is not None:
        run_config["seed"] = args.seed
    if getattr(args, "data", None):
        run_config["data"] = str(args.data)
    config_fp = cfg.fingerprint(run_config)
    return run_config, config_fp


def cmd_train(args) -> int:
    from .model import save_checkpoint
    from .training import fit

    run_config, fp = _load_run(args)
    if not run_config.get("data"):
        raise ParseError("config needs a 'data' snapshot path")
    hyper = cfg.to_hyperparams(run_config)
    dataset, _, _ = data_mod.load_snapshot(run_config["data"])
    ckpt_path = args.out or run_config.get("checkpoint") or "model.ckpt"
    log_path = run_config.get("log")
    params, history = fit(dataset, hyper, log_path=log_path, fingerprint=fp)
    save_checkpoint(ckpt_path, params,
                    {"fingerprint": fp, "seed": hyper.seed,
                     "config": run_config, "epochs_run": len(history)})
    if history:
        last = history[-1]
        print(f"epochs: {len(history)}")
        print(f"best recorded val ndcg10: "
              f"{max(h.val_ndcg10 for h in history):.6f}")
        print(f"last val hr10: {last.val_hr10:.6f}")
    else:
        print("epochs: 0 (initial parameters saved)")
    print(f"checkpoint: {ckpt_path}")
    print(f"fingerprint: {fp}")
    return 0


def cmd_eval(args) -> int:
    from .evaluation import evaluate
    from .model import load_checkpoint

    params, meta = load_checkpoint(args.checkpoint)
    dataset, _, _ = data_mod.load_snapshot(args.data)
    run_config = cfg.resolve_config(meta.get("config") or {})
    if args.head:
        run_config["scoring_head"] = args.head
    if args.include_seen:
        run_config["exclude_seen"] = False
    hyper = cfg.to_hyperparams(run_config)
    fp = meta.get("fingerprint", "")
    report = evaluate(params, dataset, args.split, hyper, fingerprint=fp)
    print(report.text())
    print(report.row())
    return 0


ABLATION_VARIANTS = ("full", "sequential", "graph")


def _variant_config(base: dict, variant: str) -> dict:
    run = dict(base)
    if variant == "sequential":
        run.update({"beta": 0.0, "gamma": 0.0, "delta": 0.0,
                    "scoring_head": "sequential",
                    "alpha": base["alpha"] or 1.0})
    elif variant == "graph":
        run.update({"alpha": 0.0, "gamma": 0.0, "delta": 0.0,
                    "scoring_head": "graph",
                    "beta": base["beta"] or 1.0})
    return run


def cmd_ablate(args) -> int:
    from .evaluation import evaluate
    from .training import fit

    base, _ = _load_run(args)
    if not base.get("data"):
        raise ParseError("config needs a 'data' snapshot path")
    dataset, _, meta = data_mod.load_snapshot(base["data"])
    data_fp = meta.get("fingerprint", "")
    rows = []
    for variant in ABLATION_VARIANTS:
        run = _variant_config(base, variant)
        fp = cfg.fingerprint(run)
        hyper = cfg.to_hyperparams(run)
        params, history = fit(dataset, hyper, fingerprint=fp)
        report = evaluate(params, dataset, "test", hyper, fingerprint=fp)
        rows.append((variant, report, len(history), fp))
    print(f"data fingerprint: {data_fp}")
    header = ("variant", "epochs", "hr5", "hr10", "ndcg5", "ndcg10", "config")
    print("\t".join(header))
    for variant, report, epochs, fp in rows:
        print("\t".join([variant, str(epochs),
                         f"{report.hr5:.6f}", f"{report.hr10:.6f}",
                         f"{report.ndcg5:.6f}", f"{report.ndcg10:.6f}", fp]))
    return 0


def cmd_verify(args) -> int:
    from .verification import run_all

    ok, report = run_all(quick=args.quick)
    print(report)
    print("verification:", "PASS" if ok else "FAIL")
    return 0 if ok else 4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mrgsrec",
        description="Train and evaluate the fused sequential+graph recommender.")
    parser.add_argument("--threads", type=int, default=None,
                        help="cap math library threads")
    parser.add_argument("--deterministic", action="store_true",
                        help="single-threaded, bit-reproducible mode")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prepare", help="preprocess a raw interaction file")
    p.add_argument("input", type=Path)
    p.add_argument("output", type=Path)
    p.add_argument("--min-count", type=int, default=5)
    p.add_argument("--mode", choices=("fixpoint", "single_pass"),
                   default="fixpoint")
    p.add_argument("--delimiter", default=None,
                   help="field separator; default: any whitespace")
    p.set_defaults(func=cmd_prepare)

    p = sub.add_parser("train", help="train from a config file")
    p.add_argument("--config", type=Path, required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--data", type=Path, default=None)
    p.add_argument("--out", type=Path, default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a split")
    p.add_argument("checkpoint", type=Path)
    p.add_argument("data", type=Path)
    p.add_argument("--split", choices=("validation", "test"), default="test")
    p.add_argument("--head", choices=SCORING_HEADS, default=None)
    p.add_argument("--include-seen", action="store_true",
                   help="rank against the full catalog without masking")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("ablate",
                       help="train full / sequential-only / graph-only variants")
    p.add_argument("--config", type=Path, required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--data", type=Path, default=None)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("verify", help="run gradient/graph/metric oracles")
    p.add_argument("--quick", action="store_true")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except MrgsError as exc:
        for classes, code in EXIT_CODES:
            if isinstance(exc, classes):
                print(f"error: {exc}", file=sys.stderr)
                return code
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except json.JSONDecodeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
