"""Print the training-bit digest of every objective x conditioning x
`p_drop_submode` setting, one `objective/conditioning/p_drop_submode
digest` line each.

Each run trains on 2000 points of `toy_spec` drawn at seed 0, with their
generating sub-mode labels, for 40 steps of batch 256 at seed 0 and
`p_drop_class` 0.1.  The digest is the first 16 hex digits of sha256 over
the float64 bytes of the parameters, the EMA parameters and the loss
curve, so two trees train bit-identically where their tables are equal.
The bits depend on the BLAS thread count: compare tables made with the
same `OPENBLAS_NUM_THREADS`.

Usage:
    python scripts/train_digests.py
"""

import hashlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from subflow import mixture, objectives  # noqa: E402
from subflow.clustering import SubmodeTable  # noqa: E402

P_DROP_SUBMODE = (0.0, 0.3)
KEYS = [f"{objective}/{conditioning}/{p}"
        for objective in objectives.OBJECTIVES
        for conditioning in objectives.CONDITIONINGS
        for p in P_DROP_SUBMODE]


def digest(key: str) -> str:
    """Train the run a key names and digest its parameters, EMA and losses."""
    objective, conditioning, p_drop_submode = key.split("/")
    spec = mixture.toy_spec()
    data = mixture.sample_dataset(spec, 2000, 0)
    _, cs, ks = mixture.dataset_arrays(data)
    table = SubmodeTable.from_labels(
        {int(c): ks[cs == c] for c in np.unique(cs)}, 2)
    cfg = objectives.TrainConfig(
        objective=objective, conditioning=conditioning, p_drop_class=0.1,
        p_drop_submode=float(p_drop_submode), steps=40, batch_size=256,
        seed=0)
    state, losses = objectives.train(data, spec, cfg, table)
    sha = hashlib.sha256()
    for array in (state.net.params, state.ema_params, losses):
        sha.update(np.asarray(array, dtype=np.float64).tobytes())
    return sha.hexdigest()[:16]


def main():
    for key in KEYS:
        print(key, digest(key))


if __name__ == "__main__":
    main()
