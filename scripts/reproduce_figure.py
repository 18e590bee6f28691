"""Reproduce the headline four-peak comparison.

Trains three one-step models on the toy mixture (class-conditional,
sub-mode-conditional, and a multi-step flow-matching baseline), generates
samples from each, and writes per-model scatter SVGs plus a CSV of mode
shares.  Everything is seeded through the config, so reruns are identical.

Usage:
    python scripts/reproduce_figure.py --config configs/toy.cfg --out runs/figure
"""

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from subflow import io, metrics, pipeline, sampler  # noqa: E402
from subflow.cli import check_out  # noqa: E402
from subflow.config import load_config  # noqa: E402


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--config", default="configs/toy.cfg")
    parser.add_argument("--out", default="runs/figure")
    parser.add_argument("--baseline-nfe", type=int, default=100)
    parser.add_argument("--baseline-steps", type=int, default=5000)
    args = parser.parse_args()

    try:  # before any training, as the CLI checks it
        check_out(args.out)
    except ValueError as exc:
        parser.error(str(exc))
    base = load_config(args.config)
    panels = [("class-1step", "meanflow", "class", 1, base.train.steps),
              ("subflow-1step", "meanflow", "subflow", 1, base.train.steps),
              ("cfm-baseline", "cfm", "class", args.baseline_nfe,
               args.baseline_steps)]
    try:  # every panel's config is built before the first training run
        cfgs = [dataclasses.replace(
            base, train=dataclasses.replace(base.train, objective=obj,
                                            conditioning=cond, steps=steps),
            sample=sampler.SampleConfig(base.sample.count, nfe, 1.0, "prior"))
            for _, obj, cond, nfe, steps in panels]
    except ValueError as exc:
        parser.error(f"--baseline-nfe/--baseline-steps: {exc}")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    real_xs = pipeline.real_set(base).xs
    bbox = base.mixture.bounding_box()

    rows = []
    for (label, objective, conditioning, nfe, _), cfg in zip(panels, cfgs):
        manifest = pipeline.train_run(cfg, out_dir, run_prefix=label)
        net, table, meta = pipeline.load_run(
            out_dir / f"{manifest.run_id}.manifest.json")
        sample = cfg.sample
        batch = pipeline.generate_all_classes(
            net, table, meta, cfg, sample.count, sample.nfe,
            sample.guidance_scale, sample.submode_strategy, cfg.train.seed)
        shares, tv, coverage = metrics.mode_shares(cfg.mixture, batch.xs)
        io.write_scatter_svg(out_dir / f"{label}.svg", real_xs, batch.xs,
                             batch.submode_ids, bbox)
        rows.append([label, objective, conditioning, nfe,
                     " ".join(f"{s:.3f}" for s in shares),
                     f"{tv:.4f}", coverage])
        print(f"{label}: shares {np.round(shares, 3)} tv {tv:.3f} "
              f"coverage {coverage}")

    io.write_csv(out_dir / "mode_shares.csv",
                 ["panel", "objective", "conditioning", "nfe", "mode_shares",
                  "mode_tv", "coverage_count"], rows)
    print(f"wrote {out_dir}/mode_shares.csv and one SVG per panel")


if __name__ == "__main__":
    main()
