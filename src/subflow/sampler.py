"""Inference: sub-mode sampling, classifier-free guidance, Euler integration.

Generation draws a sub-mode index per sample (from the empirical prior by
default), draws source noise, and integrates the guided field with fixed-step
Euler.  Interval-trained nets evaluate their average-velocity head over each
step's endpoints, so a single step reproduces one-step generation exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .clustering import SubmodeTable
from .net import VelocityNet
from .rng import stream

STRATEGIES = ("prior", "uniform")


@dataclass
class SampleConfig:
    """The [sample] config section: how many samples to draw and how."""
    count: int = 10000
    nfe: int = 1
    guidance_scale: float = 1.0
    submode_strategy: str = "prior"

    def __post_init__(self):
        if self.count < 1:
            raise ValueError("count must be >= 1")
        if self.nfe < 1:
            raise ValueError("nfe must be >= 1")
        if not 0.0 <= self.guidance_scale < math.inf:  # NaN fails too
            raise ValueError("guidance scale must be finite and >= 0")
        if self.submode_strategy not in STRATEGIES:
            raise ValueError(
                f"unknown submode strategy {self.submode_strategy!r}")


@dataclass
class GenerationBatch:
    xs: np.ndarray                 # (n, 2) endpoints
    class_ids: np.ndarray          # (n,)
    submode_ids: np.ndarray        # (n,), -1 when unconditioned on k


def sample_submode(table: SubmodeTable, class_id: int, strategy: str,
                   rng: np.random.Generator, count: int,
                   fixed: int = -1) -> np.ndarray:
    """Draw `count` sub-mode indices for a class under the given strategy,
    or return sub-mode `fixed` every time unless it is the default -1.

    Returns an (count,) int64 array; numpy fills it in order, so draw i is
    the same at any count.
    """
    cc = table.per_class[class_id]
    if fixed != -1:
        if not 0 <= fixed < len(cc.counts) or cc.counts[fixed] == 0:
            raise ValueError(f"fixed submode {fixed}: class {class_id} has "
                             f"no training mass there")
        return np.full(count, fixed, dtype=np.int64)
    if strategy == "prior":
        return rng.choice(len(cc.priors), size=count, p=cc.priors)
    if strategy == "uniform":
        live = np.flatnonzero(cc.counts > 0)
        return live[rng.integers(len(live), size=count)]
    raise ValueError(f"unknown strategy {strategy!r}")


def _cfg_velocity_batch(net: VelocityNet, x, t, r, c, k, w: float) -> np.ndarray:
    """Guided field over a batch: v(null,k) + w * (v(c,k) - v(null,k)).

    The same k is used in both branches.  w=1 evaluates only the conditional
    branch, so it is bit-identical to the unguided conditional field.  w is
    a SampleConfig's guidance scale, which that class checks.
    """
    if w == 1.0:
        return net.forward_batch(x, t, r, c, k)
    null = np.full(len(c), net.config.null_class, dtype=np.int64)
    v_cond = net.forward_batch(x, t, r, c, k)
    v_null = net.forward_batch(x, t, r, null, k)
    return v_null + w * (v_cond - v_null)


def euler_integrate(field: Callable[[np.ndarray, float], np.ndarray],
                    x0: np.ndarray, nfe: int) -> np.ndarray:
    """Fixed-step Euler for an instantaneous field (x, t) -> v, batched."""
    x = np.array(x0, dtype=np.float64)
    h = 1.0 / nfe
    for j in range(nfe):
        x = x + h * field(x, j * h)
    return x


def generate(net: VelocityNet, table: Optional[SubmodeTable], meta: dict,
             sample: SampleConfig, class_id: int, seed: int,
             fixed_submode: int = -1) -> GenerationBatch:
    """Generate `sample.count` samples for one class.

    `conditioning` and `source_std` come from the checkpoint's `meta`.
    `class_id` must be one of the net's classes on every run; an uncond run
    feeds the null token instead.  Only subflow runs read the sub-mode
    strategy and accept a `fixed_submode` other than -1, which overrides
    the strategy.  The noise and the sub-modes come from one stream each,
    keyed by (seed, purpose): sample i takes the i-th draw of each, so each
    sample index gets the same draws at any count.
    """
    n = sample.count
    conditioning = meta["conditioning"]
    if not 0 <= class_id < net.config.num_classes:
        raise ValueError(f"class {class_id} out of range")
    if fixed_submode != -1 and conditioning != "subflow":
        raise ValueError(f"fixed submode {fixed_submode}: a {conditioning} "
                         f"run is not conditioned on a sub-mode")
    cs = np.full(n, net.config.null_class if conditioning == "uncond"
                 else class_id, dtype=np.int64)
    if conditioning == "subflow":
        if table is None:
            raise ValueError("subflow generation needs a SubmodeTable")
        ks = sample_submode(table, class_id, sample.submode_strategy,
                            stream(seed, "sample.submode"), n, fixed_submode)
    else:
        ks = np.full(n, -1, dtype=np.int64)
    x0 = meta["source_std"] * stream(seed, "sample.noise").standard_normal(
        (n, 2))

    h = 1.0 / sample.nfe

    def field(x, s):
        t_arr = np.full(n, s)
        if net.config.uses_interval:
            # average-velocity head over the step's endpoints (s, s+h)
            return _cfg_velocity_batch(net, x, np.full(n, s + h), t_arr, cs,
                                       ks, sample.guidance_scale)
        return _cfg_velocity_batch(net, x, t_arr, None, cs, ks,
                                   sample.guidance_scale)

    return GenerationBatch(
        xs=euler_integrate(field, x0, sample.nfe),
        class_ids=np.full(n, class_id if conditioning != "uncond" else -1,
                          dtype=np.int64),
        submode_ids=ks)
