"""Command-line driver for the compression pipeline.

Every subcommand reads a JSON run config (see README for the schema) and
writes its artifacts into the configured output directory. Flags override
the corresponding config fields.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import pipeline as pl
from .checkpoint import CheckpointError
from .data import DataError
from .distill import TrainingDiverged
from .importance import ImportanceError
from .moe import ADAPT_MODES, STRATEGIES, MoEError
from .tensor import NonFiniteError


def _add_common(parser: argparse.ArgumentParser):
    parser.add_argument("--config", required=True, help="path to the run config JSON")
    parser.add_argument("--seed", type=int, help="override the config seed")
    parser.add_argument("--out", help="override the output directory")
    parser.add_argument("--routing", choices=STRATEGIES, help="override routing strategy")
    parser.add_argument("--adaptation", choices=ADAPT_MODES,
                        help="override adaptation strategy")
    parser.add_argument("--num-experts", type=int, help="override expert count")
    parser.add_argument("--shared-dim", type=int, help="override shared neuron count")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="moedistill",
        description="Compress a small encoder transformer into a mixture of "
                    "experts with layer-wise distillation.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, descr in [
        ("train-teacher", "fine-tune the dense teacher"),
        ("importance", "score FFN neurons over the training split"),
        ("adapt", "split the teacher FFNs into experts"),
        ("distill", "train the MoE student against the teacher"),
        ("eval", "evaluate a checkpoint on the eval split"),
        ("bench", "benchmark dense vs MoE inference"),
        ("pipeline", "run every stage in order"),
    ]:
        p = sub.add_parser(name, help=descr)
        _add_common(p)
        if name == "eval":
            p.add_argument("--which", choices=["teacher", "student", "student_init"],
                           default="student")
        if name in ("bench", "pipeline"):
            p.add_argument("--repeats", type=int, default=5)
    return parser


def _load_config(args) -> pl.RunConfig:
    if getattr(args, "repeats", 1) < 1:
        raise pl.ConfigError(f"--repeats must be at least 1, got {args.repeats}")
    cfg = pl.RunConfig.from_json_file(args.config)
    if args.seed is not None:
        cfg.seed = args.seed
    if args.out is not None:
        cfg.out_dir = args.out
    if args.routing is not None:
        cfg.routing = args.routing
    if args.adaptation is not None:
        cfg.adaptation = args.adaptation
    if args.num_experts is not None:
        cfg.num_experts = args.num_experts
    if args.shared_dim is not None:
        cfg.shared_dim = args.shared_dim
    cfg.validate()
    return cfg


# non-finite values surface as one NonFiniteError at the model's checks, not as warnings
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _load_config(args)
        data = pl.prepare_data(cfg)
        if args.command == "train-teacher":
            path = pl.stage_train_teacher(cfg, data)
            print(f"teacher checkpoint: {path}")
        elif args.command == "importance":
            path = pl.stage_importance(cfg, data)
            print(f"importance table: {path}")
        elif args.command == "adapt":
            path = pl.stage_adapt(cfg, data)
            print(f"student checkpoint: {path}")
        elif args.command == "distill":
            path = pl.stage_distill(cfg, data)
            print(f"distilled checkpoint: {path}")
        elif args.command == "eval":
            report = pl.stage_eval(cfg, data, which=args.which)
            print(json.dumps(report, sort_keys=True))
        elif args.command == "bench":
            report = pl.stage_bench(cfg, data, repeats=args.repeats)
            print(json.dumps({"dense_eps": report["dense"]["examples_per_second"],
                              "moe_eps": report["moe"]["examples_per_second"]},
                             sort_keys=True))
        elif args.command == "pipeline":
            summary = pl.run_pipeline(cfg, bench_repeats=args.repeats)
            print(json.dumps({"teacher_acc": summary["teacher"]["eval_acc"],
                              "student_acc": summary["student"]["eval_acc"]},
                             sort_keys=True))
    except (pl.ConfigError, DataError, MoEError, CheckpointError,
            ImportanceError, TrainingDiverged, NonFiniteError, OSError) as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
