"""Command-line entry points.

Subcommands: train, generate, evaluate, sweep-nfe, check.
Exit codes: 0 success, 1 validation/config error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import io, objectives, pipeline, sampler
from .config import ExperimentConfig, key_parser, load_config, validate

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2


def _apply_overrides(cfg: ExperimentConfig, args) -> ExperimentConfig:
    """Set every config key named by a flag's 'section.key' dest, then
    revalidate every section."""
    for dest, value in vars(args).items():
        section, dot, key = dest.partition(".")
        if dot and value is not None:
            setattr(getattr(cfg, section), key, value)
    validate(cfg)
    return cfg


def check_out(out) -> None:
    """Refuse an --out that is, or lies under, a file, before any work."""
    out = Path(out)
    existing = next(p for p in (out, *out.parents) if p.exists())
    if not existing.is_dir():
        raise ValueError(f"--out {out}: {existing} is not a directory")


def cmd_train(args) -> int:
    cfg = _apply_overrides(load_config(args.config), args)
    manifest = pipeline.train_run(cfg, args.out)
    print(f"run {manifest.run_id}: wrote "
          f"{', '.join(sorted(manifest.files))} to {args.out}")
    return EXIT_OK


def cmd_generate(args) -> int:
    cfg = _apply_overrides(load_config(args.config), args)
    pipeline.checked_manifest(args.manifest, cfg)
    net, table, meta = pipeline.load_run(args.manifest)
    batch = sampler.generate(net, table, meta, cfg.sample, args.class_id,
                             cfg.train.seed, args.fixed_submode)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    samples_path = out_dir / f"samples-class{args.class_id}.csv"
    io.write_samples_csv(samples_path, batch)
    real = pipeline.real_set(cfg)
    svg_path = out_dir / f"scatter-class{args.class_id}.svg"
    io.write_scatter_svg(svg_path, real.xs, batch.xs, batch.submode_ids,
                         cfg.mixture.bounding_box())
    print(f"wrote {samples_path} and {svg_path}")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    cfg = _apply_overrides(load_config(args.config), args)
    report = pipeline.evaluate_run(args.manifest, cfg,
                                   Path(args.out) / "metrics.csv")
    print(f"frechet={report.frechet:.4f} precision={report.precision:.4f} "
          f"recall={report.recall:.4f} mode_tv={report.mode_tv:.4f} "
          f"coverage={report.coverage_count}"
          + (f" field_rmse={report.field_rmse:.4f}"
             if report.field_rmse is not None else ""))
    return EXIT_OK


def cmd_sweep_nfe(args) -> int:
    try:
        nfe_list = [int(x) for x in args.nfe_list.split(",")]
    except ValueError:
        raise ValueError(f"--nfe-list {args.nfe_list!r}: not a "
                         "comma-separated list of integers") from None
    cfg = _apply_overrides(load_config(args.config), args)
    out_csv = Path(args.out) / "nfe_sweep.csv"
    pipeline.sweep_nfe(args.manifest, cfg, out_csv, nfe_list)
    print(f"wrote {out_csv}")
    return EXIT_OK


def cmd_check(args) -> int:
    bad = io.RunManifest.read(args.manifest).check()
    if bad:
        print(f"stale or missing artifacts: {', '.join(bad)}")
        return EXIT_VALIDATION
    print("all artifacts present; checksums match")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="subflow",
        description="Sub-mode conditioned flow matching lab on 2D mixtures")
    sub = parser.add_subparsers(dest="command", required=True)

    def override(p, flag, key, **kwargs):
        # the dest names the config key the flag sets; see _apply_overrides
        p.add_argument(flag, dest=key, type=key_parser(key), **kwargs)

    def common(p, manifest=False):
        p.add_argument("--config", required=True, help="config file path")
        p.add_argument("--out", required=True, help="output directory")
        override(p, "--seed", "train.seed")
        if manifest:
            p.add_argument("--manifest", required=True,
                           help="manifest of a finished training run")

    def sampling(p):
        override(p, "--count", "sample.count")
        override(p, "--nfe", "sample.nfe")
        override(p, "--guidance-scale", "sample.guidance_scale")
        override(p, "--submode-strategy", "sample.submode_strategy",
                 choices=list(sampler.STRATEGIES))

    p = sub.add_parser("train", help="cluster + train + checkpoint")
    common(p)
    override(p, "--steps", "train.steps")
    override(p, "--objective", "train.objective",
             choices=list(objectives.OBJECTIVES))
    override(p, "--conditioning", "train.conditioning",
             choices=list(objectives.CONDITIONINGS))
    override(p, "--cluster-k", "cluster.k")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("generate", help="sample one class, write CSV + SVG")
    common(p, manifest=True)
    p.add_argument("--class-id", type=int, required=True)
    sampling(p)
    p.add_argument("--fixed-submode", dest="fixed_submode", type=int,
                   default=-1)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("evaluate", help="generate + compute metric row")
    common(p, manifest=True)
    sampling(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("sweep-nfe", help="evaluate across NFE values")
    common(p, manifest=True)
    p.add_argument("--nfe-list",
                   default=",".join(map(str, pipeline.NFE_LADDER)))
    p.set_defaults(func=cmd_sweep_nfe)

    p = sub.add_parser("check", help="verify a run manifest's artifacts")
    p.add_argument("--manifest", required=True)
    p.set_defaults(func=cmd_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if hasattr(args, "out"):
            check_out(args.out)
        return args.func(args)
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except Exception as exc:  # runtime failure
        print(f"runtime failure: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
