"""Command-line entry point: thin delegation onto the pipeline module."""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import pipeline, synth
from .corpus import format_profile, profile_corpus, write_profile
from .metrics import format_metrics, write_metrics


def _resolve_config(args) -> pipeline.RunConfig:
    if getattr(args, "config", None):
        config = pipeline.load_config(args.config)
    else:
        config = pipeline.RunConfig()
    # A repeated `--set` key takes its last value; a config file's may not
    # repeat. A pair without "=" is kept apart, so it is still refused.
    last = {(pair.partition("=")[0].strip(), "=" in pair): pair
            for pair in args.set or []}
    return pipeline.apply_overrides(config, last.values())


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="loggate",
        description="Train and evaluate the gated statistics+semantics "
                    "log diagnosis model.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_config_args(p):
        p.add_argument("--config", help="run configuration file (key=value lines)")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override one config key (repeatable)")
        p.add_argument("--out-dir", default=None)

    p = sub.add_parser("profile", help="word-frequency profile of a log file")
    p.add_argument("path", help="log file, one message per line")
    p.add_argument("--out", help="also write the machine-readable profile here")

    p = sub.add_parser("synth", help="generate a synthetic labeled corpus")
    p.add_argument("--preset", choices=sorted(synth.PRESETS), default="default")
    p.add_argument("--out", required=True, help="corpus file to write")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--messages-per-label", type=int, default=500)

    p = sub.add_parser("build-stats", help="build the statistics dictionary")
    add_config_args(p)

    p = sub.add_parser("pretrain-vae",
                       help="pretrain the statistics VAE and cache embeddings")
    add_config_args(p)

    p = sub.add_parser("train", help="run the full training pipeline")
    add_config_args(p)

    p = sub.add_parser("evaluate", help="evaluate a finished run's checkpoint")
    p.add_argument("--run-dir", required=True)
    p.add_argument("--split", choices=("train", "dev", "test"), default="test")
    p.add_argument("--out", help="also write the machine-readable metrics here")

    p = sub.add_parser("ablate", help="train the full model and all ablations")
    add_config_args(p)

    p = sub.add_parser("sweep", help="grid sweep over one hyperparameter")
    add_config_args(p)
    p.add_argument("--axis", choices=sorted(pipeline.SWEEP_AXES), required=True,
                   help="epsilon, or hidden_dim: the classifier's d_model "
                        "(the VAE's hidden width stays 64)")
    p.add_argument("--grid", required=True,
                   help="comma-separated values, e.g. 0,0.1,0.2")

    return parser


def _out_dir(args) -> str:
    root = os.environ.get("LOGGATE_OUT_ROOT", "runs")
    return args.out_dir or str(Path(root) / args.subcommand)


def _dispatch(args) -> int:
    if args.subcommand == "profile":
        profile = profile_corpus(args.path)
        print(format_profile(profile))
        if args.out:
            write_profile(profile, args.out)
        return 0
    if args.subcommand == "synth":
        spec = synth.PRESETS[args.preset](args.messages_per_label)
        manifest = synth.generate_synthetic(spec, args.seed, args.out)
        print(f"wrote {manifest['total_lines']} lines to {args.out} "
              f"(preset {args.preset}, seed {args.seed})")
        return 0
    if args.subcommand == "build-stats":
        path = pipeline.build_stats(_resolve_config(args), _out_dir(args))
        print(f"statistics dictionary written to {path}")
        return 0
    if args.subcommand == "pretrain-vae":
        result = pipeline.preprocess(_resolve_config(args), _out_dir(args))
        print(f"VAE checkpoint and embedding cache written to {result.run_dir}")
        return 0
    if args.subcommand == "train":
        result = pipeline.train(_resolve_config(args), _out_dir(args))
        print(format_metrics(result.report))
        print(f"artifacts in {result.run_dir}")
        return 0
    if args.subcommand == "evaluate":
        report = pipeline.evaluate(args.run_dir, split=args.split)
        print(format_metrics(report))
        if args.out:
            write_metrics(report, args.out)
        return 0
    if args.subcommand == "ablate":
        reports = pipeline.run_ablation(_resolve_config(args), _out_dir(args))
        for mode, report in reports.items():
            print(f"{mode:14s} macro-F1 {report.macro_f1:.4f} "
                  f"micro-F1 {report.micro_f1:.4f}")
        return 0
    if args.subcommand == "sweep":
        grid = [v for v in args.grid.split(",") if v]
        results = pipeline.run_sweep(_resolve_config(args), args.axis, grid,
                                     _out_dir(args))
        for value, report in results:
            print(f"{args.axis}={value} macro-F1 {report.macro_f1:.4f} "
                  f"micro-F1 {report.micro_f1:.4f}")
        return 0
    raise AssertionError(f"unhandled subcommand {args.subcommand}")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
