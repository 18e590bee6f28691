"""Helpers shared by the test modules: the repository root, a tiny config
and in-memory training of one configuration.

A plain module rather than conftest.py, so that test modules can import it
by name while another suite's conftest.py is collected in the same process.
"""

import dataclasses
from pathlib import Path
from types import SimpleNamespace

from subflow.net import VelocityNet
from subflow.objectives import train
from subflow.pipeline import build_dataset, cluster_dataset

ROOT = Path(__file__).resolve().parent.parent

# a subflow run small enough for the CLI and the scripts to finish in
# about a second
TINY_CONFIG = """\
[data]
n_train = 2000

[train]
objective = meanflow
conditioning = subflow
steps = 60
batch_size = 128
seed = 3

[sample]
count = 200
nfe = 1

[metrics]
n_real = 400
"""


def train_variant(base_cfg, objective, conditioning, steps=None):
    """Train one configuration in memory and wrap the evaluation bundle."""
    train_cfg = dataclasses.replace(
        base_cfg.train, objective=objective, conditioning=conditioning,
        steps=base_cfg.train.steps if steps is None else steps)
    cfg = dataclasses.replace(base_cfg, train=train_cfg)
    dataset = build_dataset(cfg)
    table, _ = cluster_dataset(cfg, dataset)
    state, losses = train(dataset, cfg.mixture, cfg.train, table)
    meta = {"objective": objective, "conditioning": conditioning,
            "source_std": cfg.mixture.source_std}
    net = VelocityNet(state.net.config, state.ema_params.copy())
    return SimpleNamespace(cfg=cfg, table=table, net=net,
                           meta=meta, losses=losses)
