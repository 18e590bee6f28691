"""Sub-mode conditioned flow matching laboratory on 2D Gaussian mixtures."""

from .mixture import (Dataset, MixtureComponent, MixtureSpec,
                      oracle_velocity_batch, posterior_weights_batch,
                      sample_dataset, toy_spec)
from .net import NetConfig, VelocityNet
from .objectives import TrainConfig, TrainState, cfm_loss, meanflow_loss, \
    train
from .clustering import SubmodeTable, assign_submodes, random_assignment
from .sampler import GenerationBatch, SampleConfig, euler_integrate, \
    generate, sample_submode
from .metrics import MetricReport, field_rmse, frechet_2d, \
    knn_precision_recall, mode_shares

__all__ = [
    "Dataset", "MixtureComponent", "MixtureSpec", "oracle_velocity_batch",
    "posterior_weights_batch", "sample_dataset", "toy_spec",
    "NetConfig", "VelocityNet",
    "TrainConfig", "TrainState", "cfm_loss", "meanflow_loss", "train",
    "SubmodeTable", "assign_submodes", "random_assignment",
    "GenerationBatch", "SampleConfig", "euler_integrate", "generate",
    "sample_submode",
    "MetricReport", "field_rmse", "frechet_2d", "knn_precision_recall",
    "mode_shares",
]

__version__ = "0.1.0"
