"""Run the sub-mode conditioning ablations.

For each variant (random sub-mode labels, uniform instead of empirical
sampling at inference, dropping the sub-mode index during training), trains
the default configuration and the variant side by side and writes a
comparison CSV.

Usage:
    python scripts/run_ablations.py --config configs/toy.cfg --out runs/ablations
"""

import argparse
import copy
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from subflow import pipeline  # noqa: E402
from subflow.config import load_config  # noqa: E402


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--config", default="configs/toy.cfg")
    parser.add_argument("--out", default="runs/ablations")
    parser.add_argument("--variants", default=",".join(
        pipeline.ABLATION_VARIANTS))
    args = parser.parse_args()

    variants = args.variants.split(",")
    unknown = [v for v in variants if v not in pipeline.ABLATION_VARIANTS]
    if unknown:  # checked before the first training run
        parser.error(f"--variants: unknown {', '.join(unknown)}")
    base = load_config(args.config)
    for variant in variants:
        out_dir = Path(args.out) / variant
        reports = pipeline.ablate(copy.deepcopy(base), variant, out_dir)
        for name, rep in reports.items():
            print(f"{variant}/{name}: mode_tv {rep.mode_tv:.3f} "
                  f"coverage {rep.coverage_count} recall {rep.recall:.3f}")
        print(f"wrote {out_dir}/comparison.csv")


if __name__ == "__main__":
    main()
