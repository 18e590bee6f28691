"""Sweep solver steps for the class-conditional and sub-mode models.

A grid of two rows, one per conditioning: `pipeline.run_grid` trains each
one-step model once, then evaluates it at a doubling ladder of NFE values,
appending one metric row per (model, nfe) to nfe_sweep.csv.  Shows that
extra solver steps do not repair dominant-mode bias, while the sub-mode
model's mode frequencies are already calibrated at a single step.  That
calibration is of frequencies only: the sub-mode net is trained as a
one-step map, and its precision falls as NFE grows while its `mode_tv`
holds.  Each printed row gives precision beside `mode_tv`, coverage and
recall.

Usage:
    python scripts/nfe_sweep.py --config configs/toy.cfg --out runs/sweep
"""

import argparse
import dataclasses
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from subflow import pipeline  # noqa: E402
from subflow.cli import check_out  # noqa: E402
from subflow.config import load_config  # noqa: E402


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--config", default="configs/toy.cfg")
    parser.add_argument("--out", default="runs/sweep")
    parser.add_argument("--nfe-list",
                        default=",".join(map(str, pipeline.NFE_LADDER)))
    args = parser.parse_args()

    try:  # before any training, as the CLI checks it
        check_out(args.out)
    except ValueError as exc:
        parser.error(str(exc))
    base = load_config(args.config)
    try:  # every NFE is checked before the first training run
        nfe_list = [dataclasses.replace(base.sample, nfe=int(x)).nfe
                    for x in args.nfe_list.split(",")]
    except ValueError as exc:
        parser.error(f"--nfe-list: {exc}")
    runs = [(cond, dataclasses.replace(base, train=dataclasses.replace(
                base.train, objective="meanflow", conditioning=cond)))
            for cond in ("class", "subflow")]
    out_csv = Path(args.out) / "nfe_sweep.csv"
    grid = pipeline.run_grid(runs, nfe_list, out_csv)
    for (conditioning, _), reports in zip(runs, grid):
        for nfe, rep in zip(nfe_list, reports):
            print(f"{conditioning} nfe={nfe}: mode_tv {rep.mode_tv:.3f} "
                  f"coverage {rep.coverage_count} precision "
                  f"{rep.precision:.3f} recall {rep.recall:.3f}")
    print(f"wrote {out_csv}")


if __name__ == "__main__":
    main()
