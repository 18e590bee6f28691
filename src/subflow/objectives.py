"""Training losses and the training loop, one table entry per objective.

`OBJECTIVES` maps an objective's name to its `Objective`: whether a step
draws an interval r <= t (and so trains a net that takes r as an input),
and the name of its loss.  `train` calls the loss through that module
attribute, so a tracer that swaps `cfm_loss` or `meanflow_loss` sees every
call.  Both losses take (net, x0, x1, c, k, r, t), with r None for cfm,
and supply only their net pass and target to one shared body,
`_regression`: the checks, the path point, v = x1 - x0, the residual, the
loss and `backward` on the pass's cache.

The class and sub-mode indices the losses take are the ones the net sees:
`train` resolves them once per step in `_condition_inputs` (class dropout
to the null token with probability p_drop_class, the sub-mode index kept
unless the drop-k ablation is on).  Optimization is plain Adam plus an EMA
of the parameters, deterministic for a fixed seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .clustering import SubmodeTable
from .mixture import Dataset, MixtureSpec, dataset_arrays
from .net import NetConfig, VelocityNet
from .rng import stream


class Objective(NamedTuple):
    interval: bool  # a step draws r <= t, and the net takes r as an input
    loss: str  # the loss's attribute name in this module


OBJECTIVES = {"cfm": Objective(interval=False, loss="cfm_loss"),
              "meanflow": Objective(interval=True, loss="meanflow_loss")}
CONDITIONINGS = ("uncond", "class", "subflow")

ADAM_BETA1, ADAM_BETA2 = 0.9, 0.95  # Adam's moment decay rates
RT_EQUAL_FRACTION = 0.75  # meanflow's r = t share (arXiv:2505.13447)


@dataclass
class TrainConfig:
    objective: str = "cfm"
    conditioning: str = "class"
    p_drop_class: float = 0.1
    p_drop_submode: float = 0.0
    steps: int = 5000
    batch_size: int = 256
    learning_rate: float = 1e-3
    ema_decay: float = 0.999
    seed: int = 0

    def __post_init__(self):
        if self.objective not in OBJECTIVES:
            raise ValueError(f"unknown objective {self.objective!r}")
        if self.conditioning not in CONDITIONINGS:
            raise ValueError(f"unknown conditioning {self.conditioning!r}")
        for p in (self.p_drop_class, self.p_drop_submode):
            if not 0.0 <= p <= 1.0:
                raise ValueError("probabilities must be in [0,1]")
        if self.steps < 0 or self.batch_size < 1:
            raise ValueError("steps must be >= 0 and batch_size >= 1")
        if not 0.0 <= self.ema_decay < 1.0:
            raise ValueError("ema_decay must be in [0,1)")
        if not 0.0 < self.learning_rate < np.inf:  # NaN fails too
            raise ValueError("learning_rate must be finite and > 0")

    @property
    def uses_interval(self) -> bool:
        return OBJECTIVES[self.objective].interval


@dataclass
class TrainState:
    net: VelocityNet
    ema_params: np.ndarray
    adam_m: np.ndarray
    adam_v: np.ndarray
    step: int = 0

    @staticmethod
    def fresh(net: VelocityNet) -> "TrainState":
        return TrainState(net=net,
                          ema_params=net.params.copy(),
                          adam_m=np.zeros_like(net.params),
                          adam_v=np.zeros_like(net.params))


def _condition_inputs(net: VelocityNet, c: np.ndarray, k: np.ndarray,
                      cfg: TrainConfig, rng: np.random.Generator):
    """Resolve the (class, submode) inputs actually fed to the net."""
    n = len(c)
    null = net.config.null_class
    if cfg.conditioning == "uncond":
        return np.full(n, null, dtype=np.int64), np.full(n, -1, dtype=np.int64)
    drop = rng.random(n) < cfg.p_drop_class
    c_in = np.where(drop, null, c)
    if cfg.conditioning == "class":
        return c_in, np.full(n, -1, dtype=np.int64)
    if np.any(k < 0):
        raise ValueError("subflow conditioning needs submode labels on every sample")
    k_in = k
    if cfg.p_drop_submode > 0.0:
        k_in = np.where(rng.random(n) < cfg.p_drop_submode, -1, k)
    return c_in, k_in


def _regression(net: VelocityNet, x0, x1, r, t, net_pass):
    """The body both losses share: mean_i || pred_i - target_i ||^2 at the
    path point x_s, s = r (t when r is None), and its parameter gradient.
    `net_pass(x_s, t, r_in, v)` returns (prediction, target, cache)."""
    x0 = np.asarray(x0, dtype=np.float64)
    x1 = np.asarray(x1, dtype=np.float64)
    t = np.asarray(t, dtype=np.float64)
    s = t if r is None else np.asarray(r, dtype=np.float64)
    if len(x0) == 0:
        raise ValueError("batch must be nonempty")
    if np.any(s > t):
        raise ValueError("r must not exceed t")
    if not np.all((s >= 0.0) & (t <= 1.0)):  # NaN fails too
        raise ValueError("times must be in [0,1]")
    x_s = (1.0 - s)[:, None] * x0 + s[:, None] * x1
    v = x1 - x0
    # cfm on an interval net evaluates it at r = t: the instantaneous field
    r_in = s if net.config.uses_interval else None
    pred, target, cache = net_pass(x_s, t, r_in, v)
    resid = pred - target
    loss = float(np.mean(np.sum(resid ** 2, axis=1)))
    grad = net.backward(2.0 * resid / len(x0), cache)
    return loss, grad


def cfm_loss(net: VelocityNet, x0, x1, c, k, r, t):
    """Flow-matching loss and gradient onto v = x1 - x0; r must be None."""
    if r is not None:
        raise ValueError("cfm_loss draws no interval: r must be None")

    def net_pass(x_t, t, r_in, v):
        pred, cache = net.forward_batch(x_t, t, r_in, c, k, cache=True)
        return pred, v, cache
    return _regression(net, x0, x1, None, t, net_pass)


def meanflow_loss(net: VelocityNet, x0, x1, c, k, r, t):
    """Average-velocity loss and gradient (r <= t per element).

    The net learns u(x_r, r, t), the average velocity over [r, t], so a
    sampler step x <- x + (t - r) * u uses it where it was trained.
    Differentiating (t - r) * u = the integral of the velocity over [r, t]
    in r, along the path, gives the target v + (t - r) * du/dr, with no
    gradient through it; one jvp pass yields u, the cache and du/dr on the
    rows with r < t: on rows with r = t the target is exactly v.
    """
    if not net.config.uses_interval:
        raise ValueError("meanflow_loss needs a net built with uses_interval")

    def net_pass(x_r, t, r, v):
        rows = np.flatnonzero(r < t)
        u, dudr, cache = net.jvp_batch(x_r, t, r, c, k, v, np.zeros_like(t),
                                       np.ones_like(r), rows=rows, cache=True)
        target = v.copy()
        target[rows] += (t - r)[rows, None] * dudr
        return u, target, cache
    return _regression(net, x0, x1, r, t, net_pass)


def draw_times(n: int, rt_equal_fraction: float, rng: np.random.Generator):
    """(r, t) pairs: two sorted uniforms, with r := t at the given rate."""
    a = rng.random(n)
    b = rng.random(n)
    r = np.minimum(a, b)
    t = np.maximum(a, b)
    equal = rng.random(n) < rt_equal_fraction
    r = np.where(equal, t, r)
    return r, t


def adam_update(state: TrainState, grad: np.ndarray, cfg: TrainConfig) -> None:
    """One Adam step and EMA update, in place.

    Each array is updated in the order of b1 * m + (1 - b1) * grad,
    b2 * v + (1 - b2) * grad ** 2, params - lr * mhat / (sqrt(vhat) + eps)
    and decay * ema + (1 - decay) * params, so the bits equal that
    out-of-place composition.
    """
    state.step += 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    m, v, ema = state.adam_m, state.adam_v, state.ema_params
    m *= b1
    m += (1.0 - b1) * grad
    v *= b2
    v += (1.0 - b2) * grad ** 2
    update = m / (1.0 - b1 ** state.step)
    update *= cfg.learning_rate
    denom = v / (1.0 - b2 ** state.step)
    np.sqrt(denom, out=denom)
    denom += 1e-8
    update /= denom
    state.net.params -= update
    ema *= cfg.ema_decay
    ema += (1.0 - cfg.ema_decay) * state.net.params


def train(dataset: Dataset, spec: MixtureSpec, cfg: TrainConfig,
          table: Optional[SubmodeTable] = None):
    """Run the training loop; returns (final TrainState, loss curve).

    The dataset must carry submode labels when conditioning is subflow:
    `_condition_inputs` rejects a batch with an unlabeled row.
    Deterministic for a fixed config seed.
    """
    xs, cs, ks = dataset_arrays(dataset)
    num_submodes = table.num_submodes() if table is not None else max(
        int(ks.max()) + 1, 1)
    net = VelocityNet.initialized(
        NetConfig(num_classes=spec.num_classes, num_submodes=num_submodes,
                  uses_interval=cfg.uses_interval), cfg.seed)
    state = TrainState.fresh(net)
    loss_fn = globals()[OBJECTIVES[cfg.objective].loss]
    losses = np.zeros(cfg.steps)
    n = len(dataset)
    for step in range(cfg.steps):
        # the training bits depend on this draw order: rows, source noise,
        # times, then the conditioning
        rng = stream(cfg.seed, "train.step", step)
        idx = rng.integers(0, n, size=cfg.batch_size)
        x0 = spec.source_std * rng.standard_normal((cfg.batch_size, 2))
        if cfg.uses_interval:
            r, t = draw_times(cfg.batch_size, RT_EQUAL_FRACTION, rng)
        else:
            r, t = None, rng.random(cfg.batch_size)
        c, k = _condition_inputs(net, cs[idx], ks[idx], cfg, rng)
        loss, grad = loss_fn(net, x0, xs[idx], c, k, r, t)
        if not np.isfinite(loss):
            raise RuntimeError(
                f"non-finite loss at step {step} "
                f"(parameter norm {np.linalg.norm(net.params):.3e})")
        adam_update(state, grad, cfg)
        losses[step] = loss
    return state, losses
