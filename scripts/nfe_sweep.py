"""Sweep solver steps for the class-conditional and sub-mode models.

Trains both one-step models once, then evaluates each at a doubling ladder
of NFE values, appending one metric row per (model, nfe) to a shared CSV.
Shows that extra solver steps do not repair dominant-mode bias, while the
sub-mode model is already calibrated at a single step.

Usage:
    python scripts/nfe_sweep.py --config configs/toy.cfg --out runs/sweep
"""

import argparse
import copy
import dataclasses
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from subflow import pipeline  # noqa: E402
from subflow.config import load_config  # noqa: E402


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--config", default="configs/toy.cfg")
    parser.add_argument("--out", default="runs/sweep")
    parser.add_argument("--nfe-list",
                        default=",".join(map(str, pipeline.NFE_LADDER)))
    args = parser.parse_args()

    base = load_config(args.config)
    try:  # every NFE is checked before the first training run
        nfe_list = [dataclasses.replace(base.sample, nfe=int(x)).nfe
                    for x in args.nfe_list.split(",")]
    except ValueError as exc:
        parser.error(f"--nfe-list: {exc}")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    for conditioning in ("class", "subflow"):
        cfg = copy.deepcopy(base)
        cfg.train.objective = "meanflow"
        cfg.train.conditioning = conditioning
        cfg.train.__post_init__()
        manifest = pipeline.train_run(cfg, out_dir, run_prefix=conditioning)
        manifest_path = out_dir / f"{manifest.run_id}.manifest.json"
        out_csv = out_dir / f"nfe_sweep_{conditioning}.csv"
        reports = pipeline.sweep_nfe(manifest_path, cfg, out_csv, nfe_list)
        for nfe, rep in zip(nfe_list, reports):
            print(f"{conditioning} nfe={nfe}: mode_tv {rep.mode_tv:.3f} "
                  f"coverage {rep.coverage_count} recall {rep.recall:.3f}")
        print(f"wrote {out_csv}")


if __name__ == "__main__":
    main()
