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
    class_ids: np.ndarray          # (n,), -1 when unconditioned on c
    submode_ids: np.ndarray        # (n,), -1 when unconditioned on k

    @classmethod
    def concatenate(cls, batches: list) -> "GenerationBatch":
        """The rows of `batches`, in order."""
        return cls(xs=np.concatenate([b.xs for b in batches]),
                   class_ids=np.concatenate([b.class_ids for b in batches]),
                   submode_ids=np.concatenate([b.submode_ids
                                               for b in batches]))


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


def net_field(net: VelocityNet, cs: np.ndarray, ks: np.ndarray,
              w: float = 1.0,
              h: float = 0.0) -> Callable[[np.ndarray, float], np.ndarray]:
    """A trained net's batched field (x, s) -> v, row i in the context
    (cs[i], ks[i]) as the net numbers it: the null class is
    `net.config.null_class`, an empty sub-mode slot -1.

    An interval net gives its average velocity over [s, s + h], so h = 0
    is its instantaneous field (r = t = s); other nets are evaluated at s.
    The guided value is v(null, k) + w (v(c, k) - v(null, k)), the same k
    in both branches; w = 1 runs only the conditional pass, bit-identical
    to the unguided field.  SampleConfig checks w.
    """
    null = np.full(len(cs), net.config.null_class)

    def field(x, s):
        n = len(x)
        r = np.full(n, s) if net.config.uses_interval else None
        t = np.full(n, s if r is None else s + h)
        v = net.forward_batch(x, t, r, cs, ks)
        if w == 1.0:
            return v
        v_null = net.forward_batch(x, t, r, null, ks)
        return v_null + w * (v - v_null)
    return field


def euler_integrate(field: Callable[[np.ndarray, float], np.ndarray],
                    x0: np.ndarray, nfe: int) -> np.ndarray:
    """Fixed-step Euler from s = 0 to 1 of a batched field (x, s) -> v, read
    at each step's start s; `net_field` at h = 1/nfe makes that an interval
    net's average velocity over the step."""
    x = np.array(x0, dtype=np.float64)
    h = 1.0 / nfe
    for j in range(nfe):
        x = x + h * field(x, j * h)
    return x


def draw(net: VelocityNet, table: Optional[SubmodeTable], meta: dict,
         sample: SampleConfig, class_id: int, seed: int,
         fixed_submode: int = -1) -> GenerationBatch:
    """The draws of `sample.count` samples of one class, before
    integration: a batch whose xs hold the source noise.

    `conditioning` and `source_std` come from the checkpoint's `meta`.
    `class_id` must be one of the net's classes on every run; an uncond run
    records -1 and feeds the null token instead.  Only subflow runs read
    the sub-mode strategy and accept a `fixed_submode` other than -1, which
    overrides the strategy.  The noise and the sub-modes come from one
    stream each, keyed by (seed, purpose): sample i takes the i-th draw of
    each, so each sample index gets the same draws at any count.
    """
    n = sample.count
    conditioning = meta["conditioning"]
    if not 0 <= class_id < net.config.num_classes:
        raise ValueError(f"class {class_id} out of range")
    if fixed_submode != -1 and conditioning != "subflow":
        raise ValueError(f"fixed submode {fixed_submode}: a {conditioning} "
                         f"run is not conditioned on a sub-mode")
    if conditioning == "subflow":
        if table is None:
            raise ValueError("subflow generation needs a SubmodeTable")
        ks = sample_submode(table, class_id, sample.submode_strategy,
                            stream(seed, "sample.submode"), n, fixed_submode)
    else:
        ks = np.full(n, -1, dtype=np.int64)
    x0 = meta["source_std"] * stream(seed, "sample.noise").standard_normal(
        (n, 2))
    c = -1 if conditioning == "uncond" else class_id
    return GenerationBatch(xs=x0, class_ids=np.full(n, c, dtype=np.int64),
                           submode_ids=ks)


def integrate(net: VelocityNet, drawn: GenerationBatch,
              sample: SampleConfig) -> GenerationBatch:
    """Carry every row of `drawn` from its source noise to its sample in
    one Euler integration at `sample`'s NFE and guidance scale, each row in
    its own (class, sub-mode) context; a class id of -1 reads the null
    token.  A row's bits do not depend on the other rows."""
    cs = np.where(drawn.class_ids < 0, net.config.null_class,
                  drawn.class_ids)
    field = net_field(net, cs, drawn.submode_ids, sample.guidance_scale,
                      1 / sample.nfe)
    return GenerationBatch(xs=euler_integrate(field, drawn.xs, sample.nfe),
                           class_ids=drawn.class_ids,
                           submode_ids=drawn.submode_ids)


def generate(net: VelocityNet, table: Optional[SubmodeTable], meta: dict,
             sample: SampleConfig, class_id: int, seed: int,
             fixed_submode: int = -1) -> GenerationBatch:
    """Generate `sample.count` samples for one class: `draw`, then
    `integrate`."""
    return integrate(net, draw(net, table, meta, sample, class_id, seed,
                               fixed_submode), sample)
