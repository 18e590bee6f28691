"""Print the training-bit and generation-bit digests of every objective x
conditioning x `p_drop_submode` setting, one `objective/conditioning/
p_drop_submode training-digest generation-digest` line each.

Each run trains on 2000 points of `toy_spec` drawn at seed 0, with their
generating sub-mode labels, for 40 steps of batch 256 at seed 0 and
`p_drop_class` 0.1.  The training digest is the first 16 hex digits of
sha256 over the float64 bytes of the parameters, the EMA parameters and the
loss curve, so two trees train bit-identically where that column is equal.
The generation digest hashes the EMA net's `generate_all_classes` output
(points, class ids and sub-mode ids) for 512 samples at seed 0 with the
prior strategy, at NFE 1 and 3 and guidance scale 1 and 1.5, so two trees
that train alike also sample alike where that column is equal.  The bits
depend on the BLAS thread count: compare tables made with the same
`OPENBLAS_NUM_THREADS`.

The line `configs/toy.cfg/100 training-digest` digests the run that
`subflow train --config configs/toy.cfg` trains, stopped after 100 steps:
the figure the README quotes.

The line `clustering labels-digest` digests the K-Means labels the runs
above never compute, since they train on generating labels: for
`configs/toy.cfg` at seeds 0-9, the labels and priors of each class that
`pipeline.cluster_dataset` returns, then `clustering.lloyd`'s labels at
K = 2, 6 and 12 on a fixed six-mode ring (20k points, radius 4, std 0.4,
weights 0.40 down to 0.06), so two trees cluster alike where that line is
equal.  It does not depend on the BLAS thread count.

The line `oracle oracle-digest` digests the analytic oracle: one
`oracle_velocity_batch` call per time t in {0, 0.25, 0.5, 0.75, 0.99}
over `toy_spec`'s default grid and three far rows (one resolved, two whose
densities underflow), stacked once per context (the null class, each
class, each class and sub-mode), so two trees give every context the same
field where that line is equal.

The line `field_rmse rmse-digest` digests `pipeline.model_field_rmse` of
every EMA net above, in key order, so two trees whose nets train alike
also score the learned field alike where that line is equal.

A last line, `metrics metrics-digest`, digests the scoring path: the
squared k-NN radii (`knn_radii_sq`) of the default config's 10k-point real
set, then every `evaluate_all` field of each generation above, scored
against that real set with those radii, so two trees that sample alike
also score alike where that line is equal.

Usage:
    python scripts/train_digests.py
"""

import dataclasses
import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from subflow import (clustering, metrics, mixture, objectives,  # noqa: E402
                     pipeline)
from subflow.clustering import SubmodeTable  # noqa: E402
from subflow.config import load_config, parse_config  # noqa: E402
from subflow.net import VelocityNet  # noqa: E402
from subflow.rng import stream  # noqa: E402

P_DROP_SUBMODE = (0.0, 0.3)
KEYS = [f"{objective}/{conditioning}/{p}"
        for objective in objectives.OBJECTIVES
        for conditioning in objectives.CONDITIONINGS
        for p in P_DROP_SUBMODE]
# (NFE, guidance scale) of each generation the generation digest covers
GENERATIONS = [(nfe, w) for nfe in (1, 3) for w in (1.0, 1.5)]
TOY_STEPS = 100
CLUSTER_SEEDS = range(10)  # toy.cfg seeds the clustering digest covers
RING_K = (2, 6, 12)  # Lloyd's K on the ring
ORACLE_TIMES = (0.0, 0.25, 0.5, 0.75, 0.99)
# rows far off the grid: one resolved, two whose densities underflow
FAR_ROWS = ((1e9, 1e9), (1e200, 1e200), (1e160, -1e160))


def _sha(arrays) -> str:
    sha = hashlib.sha256()
    for array in arrays:
        sha.update(np.asarray(array).tobytes())
    return sha.hexdigest()[:16]


def train(key: str):
    """(state, losses, table) of the run a key names."""
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
    return state, losses, table


def train_toy(steps: int = TOY_STEPS):
    """(state, losses) of configs/toy.cfg's run, trained for `steps` steps
    as `pipeline.train_run` trains it."""
    cfg = load_config(ROOT / "configs" / "toy.cfg")
    cfg = dataclasses.replace(cfg, train=dataclasses.replace(cfg.train,
                                                             steps=steps))
    data = pipeline.build_dataset(cfg)
    table, _ = pipeline.cluster_dataset(cfg, data)
    return objectives.train(data, cfg.mixture, cfg.train, table)


def ring_points() -> np.ndarray:
    """20k points of one class with six sub-modes spaced evenly on a circle
    of radius 4, std 0.4, weights 0.40/0.22/0.14/0.10/0.08/0.06, at seed
    0."""
    angles = np.arange(6) * np.pi / 3
    spec = mixture.MixtureSpec(tuple(
        mixture.MixtureComponent(w, (4 * np.cos(a), 4 * np.sin(a)), 0.4,
                                 class_id=0, submode_id=j)
        for j, (w, a) in enumerate(zip((0.40, 0.22, 0.14, 0.10, 0.08, 0.06),
                                       angles))))
    return mixture.sample_dataset(spec, 20000, 0).xs


def clustering_digest() -> str:
    """Digest of `pipeline.cluster_dataset`'s labels and priors per class
    for toy.cfg at each of CLUSTER_SEEDS, then of `clustering.lloyd`'s
    labels at each of RING_K on `ring_points`."""
    cfg = load_config(ROOT / "configs" / "toy.cfg")
    arrays = []
    for seed in CLUSTER_SEEDS:
        cfg = dataclasses.replace(cfg, train=dataclasses.replace(cfg.train,
                                                                 seed=seed))
        table, labels = pipeline.cluster_dataset(cfg,
                                                 pipeline.build_dataset(cfg))
        for c in sorted(labels):
            arrays += [labels[c], table.per_class[c].priors]
    ring = ring_points()
    arrays += [clustering.lloyd(ring, k, stream(0, "train_digests.ring", k))[1]
               for k in RING_K]
    return _sha(arrays)


def oracle_contexts(spec) -> list:
    """(c, k) of every context of `spec` as the net numbers them: the null
    class, then each class, then each (class, sub-mode)."""
    return ([(spec.num_classes, -1)] + [(c, -1) for c in spec.class_ids]
            + [(comp.class_id, comp.submode_id) for comp in spec.components])


def oracle_points(spec) -> np.ndarray:
    """The default grid of `spec`, then FAR_ROWS."""
    return np.concatenate([metrics.default_grid(spec), FAR_ROWS])


def oracle_digest() -> str:
    """Digest of `oracle_velocity_batch` on toy_spec at each of
    ORACLE_TIMES: one call over `oracle_points` stacked once per context of
    `oracle_contexts`."""
    spec = mixture.toy_spec()
    points = oracle_points(spec)
    contexts = np.array(oracle_contexts(spec))
    cs, ks = np.repeat(contexts.T, len(points), axis=1)
    xs = np.tile(points, (len(contexts), 1))
    return _sha(mixture.oracle_velocity_batch(spec, xs, t, cs, ks)
                for t in ORACLE_TIMES)


def train_digest(state, losses) -> str:
    return _sha(np.asarray(array, dtype=np.float64)
                for array in (state.net.params, state.ema_params, losses))


def ema_run(key: str, state):
    """(EMA net, run meta, config) of a trained key; the config's [mixture]
    is toy_spec, as in training."""
    objective, conditioning, _ = key.split("/")
    cfg = parse_config("")
    ema = VelocityNet(state.net.config, state.ema_params)
    meta = {"objective": objective, "conditioning": conditioning,
            "source_std": cfg.mixture.source_std}
    return ema, meta, cfg


def generations(key: str, state, table) -> list:
    """The EMA net's sample batches, one per entry of GENERATIONS."""
    ema, meta, cfg = ema_run(key, state)
    return [pipeline.generate_all_classes(ema, table, meta, cfg, 512, nfe, w,
                                          "prior", 0)
            for nfe, w in GENERATIONS]


def field_rmse_digest(keyed_states) -> str:
    """Digest of `pipeline.model_field_rmse` of each (key, state)'s EMA
    net."""
    return _sha(np.float64(pipeline.model_field_rmse(*ema_run(key, state)))
                for key, state in keyed_states)


def generation_digest(batches) -> str:
    """Digest of the points, class ids and sub-mode ids of `batches`."""
    return _sha(array for batch in batches
                for array in (batch.xs, batch.class_ids, batch.submode_ids))


def metrics_digest(batches) -> str:
    """Digest of the default config's real-set k-NN radii and of every
    `evaluate_all` field of each batch, scored against that set."""
    cfg = parse_config("")
    real = pipeline.real_set(cfg).xs
    radii_sq = metrics.knn_radii_sq(real)
    arrays = [radii_sq]
    for batch in batches:
        report = metrics.evaluate_all(cfg.mixture, real, batch.xs,
                                      tau=cfg.metrics.coverage_tau,
                                      real_radii_sq=radii_sq)
        arrays += [np.asarray(value, dtype=np.float64)
                   for value in vars(report).values() if value is not None]
    return _sha(arrays)


def digest(key: str) -> str:
    """Train the run a key names and digest its parameters, EMA and losses."""
    return train_digest(*train(key)[:2])


def main():
    scored, states = [], []
    for key in KEYS:
        state, losses, table = train(key)
        batches = generations(key, state, table)
        scored += batches
        states.append((key, state))
        print(key, train_digest(state, losses), generation_digest(batches))
    print(f"configs/toy.cfg/{TOY_STEPS}", train_digest(*train_toy()))
    print("clustering", clustering_digest())
    print("oracle", oracle_digest())
    print("field_rmse", field_rmse_digest(states))
    print("metrics", metrics_digest(scored))


if __name__ == "__main__":
    main()
