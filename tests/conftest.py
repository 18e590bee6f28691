"""Session-scoped trained runs shared by the acceptance tests.

Training a handful of small nets dominates the suite's runtime, so each
configuration is trained once per session and handed out read-only.
"""

from dataclasses import replace

import pytest

from subflow.config import load_config

from support import ROOT, train_variant


@pytest.fixture(scope="session")
def toy_cfg():
    return load_config(ROOT / "configs" / "toy.cfg")


@pytest.fixture(scope="session")
def meanflow_class_run(toy_cfg):
    return train_variant(toy_cfg, "meanflow", "class")


@pytest.fixture(scope="session")
def meanflow_subflow_run(toy_cfg):
    return train_variant(toy_cfg, "meanflow", "subflow")


@pytest.fixture(scope="session")
def meanflow_random_run(toy_cfg):
    random_cfg = replace(toy_cfg, cluster=replace(toy_cfg.cluster,
                                                  labels="random"))
    return train_variant(random_cfg, "meanflow", "subflow")


@pytest.fixture(scope="session")
def cfm_class_run(toy_cfg):
    return train_variant(toy_cfg, "cfm", "class", steps=5000)
