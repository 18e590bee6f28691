"""Run the sub-mode conditioning ablations.

One grid through `pipeline.run_grid`: the default configuration once, then
each variant (random sub-mode labels, uniform instead of empirical
sampling at inference, dropping the sub-mode index during training), each
trained once and scored at the config's NFE into one ablation.csv.

Usage:
    python scripts/run_ablations.py --config configs/toy.cfg --out runs/ablations
"""

import argparse
import sys
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from subflow import pipeline  # noqa: E402
from subflow.cli import check_out  # noqa: E402
from subflow.config import load_config  # noqa: E402

# variant -> base config -> variant config
VARIANTS = {
    "random_assignment": lambda base: replace(
        base, cluster=replace(base.cluster, labels="random")),
    "uniform_sampling": lambda base: replace(
        base, sample=replace(base.sample, submode_strategy="uniform")),
    "drop_k": lambda base: replace(base, train=replace(
        base.train, p_drop_submode=base.train.p_drop_class)),
}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--config", default="configs/toy.cfg")
    parser.add_argument("--out", default="runs/ablations")
    parser.add_argument("--variants", default=",".join(VARIANTS))
    args = parser.parse_args()

    try:  # before any training, as the CLI checks it
        check_out(args.out)
    except ValueError as exc:
        parser.error(str(exc))
    variants = args.variants.split(",")
    unknown = [v for v in variants if v not in VARIANTS]
    if unknown:  # checked before the first training run
        parser.error(f"--variants: unknown {', '.join(unknown)}")
    base = load_config(args.config)
    runs = [("ablate-default", base)] + [
        (f"ablate-{variant}", VARIANTS[variant](base)) for variant in variants]
    out_csv = Path(args.out) / "ablation.csv"
    grid = pipeline.run_grid(runs, [base.sample.nfe], out_csv)
    for name, (rep,) in zip(["default", *variants], grid):
        print(f"{name}: mode_tv {rep.mode_tv:.3f} "
              f"coverage {rep.coverage_count} recall {rep.recall:.3f}")
    print(f"wrote {out_csv}")


if __name__ == "__main__":
    main()
