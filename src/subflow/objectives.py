"""Training losses and the training loop.

Supported objectives:

* ``cfm`` — regress the net onto the per-pair velocity x1 - x0 of the linear
  path (unconditional, class-conditional, or sub-mode-conditional).
* ``meanflow`` — average-velocity regression for one-step generation.  The
  net learns u(x_r, r, t): the average velocity over [r, t] given the state
  at the interval start, so a sampler step x <- x + (t - r) * u consumes the
  net exactly where it was trained.  With v = x1 - x0 the bootstrap target
  is v + (t - r) * d/dr u_theta(x_r, r, t, .), the total derivative taken
  along the path (a forward-mode jvp along (v, 1, 0) for (x, r, t)), and no
  gradient flows through the target.

The losses take the class and sub-mode indices the net actually sees.
`train` resolves them once per step, in `_condition_inputs`, from the
run's TrainConfig: classifier-free-guidance dropout replaces the class label
with the null token with probability p_drop_class, and the sub-mode index is
kept unless the drop-k ablation is enabled.  Optimization is plain Adam plus
an EMA of the parameters, all deterministic for a fixed seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .clustering import SubmodeTable
from .mixture import Dataset, MixtureSpec, dataset_arrays
from .net import NetConfig, VelocityNet
from .rng import stream

OBJECTIVES = ("cfm", "meanflow")
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
        return self.objective == "meanflow"


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


def cfm_loss(net: VelocityNet, x0, x1, c, k, t):
    """Flow-matching MSE loss and its parameter gradient.

    loss = mean_i || net(x_t_i, t_i, c_i, k_i) - (x1_i - x0_i) ||^2, with
    c and k the resolved inputs (null token and -1 already in place).
    """
    x0 = np.asarray(x0, dtype=np.float64)
    x1 = np.asarray(x1, dtype=np.float64)
    t = np.asarray(t, dtype=np.float64)
    if len(x0) == 0:
        raise ValueError("batch must be nonempty")
    if np.any(t < 0.0) or np.any(t > 1.0):
        raise ValueError("t must be in [0,1]")
    x_t = (1.0 - t)[:, None] * x0 + t[:, None] * x1
    v = x1 - x0
    # an interval net evaluated at r = t degenerates to the instantaneous field
    r_in = t if net.config.uses_interval else None
    pred, cache = net.forward_batch(x_t, t, r_in, c, k, cache=True)
    resid = pred - v
    loss = float(np.mean(np.sum(resid ** 2, axis=1)))
    grad = net.backward(x_t, t, r_in, c, k, 2.0 * resid / len(x0), cache=cache)
    return loss, grad


def meanflow_loss(net: VelocityNet, x0, x1, c, k, r, t):
    """Average-velocity regression loss and gradient (r <= t per element).

    Differentiating the defining identity (t - r) * u(x_r, r, t) =
    integral of the instantaneous velocity over [r, t] with respect to r,
    along the path, gives u = v + (t - r) * du/dr.  Regressing onto that
    identity with the per-pair velocity standing in for v yields a
    one-step-consistent average-velocity field; at r = t it reduces to the
    plain flow-matching loss.  c and k are the resolved inputs.
    """
    if not net.config.uses_interval:
        raise ValueError("meanflow_loss needs a net built with uses_interval")
    x0 = np.asarray(x0, dtype=np.float64)
    x1 = np.asarray(x1, dtype=np.float64)
    r = np.asarray(r, dtype=np.float64)
    t = np.asarray(t, dtype=np.float64)
    if len(x0) == 0:
        raise ValueError("batch must be nonempty")
    if np.any(r > t):
        raise ValueError("r must not exceed t")
    if np.any(r < 0.0) or np.any(t > 1.0):
        raise ValueError("times must be in [0,1]")
    x_r = (1.0 - r)[:, None] * x0 + r[:, None] * x1
    v = x1 - x0
    # one pass yields the prediction, the path derivative and the cache
    u, dudr, cache = net.jvp_batch(x_r, t, r, c, k, dx=v,
                                   dt=np.zeros_like(t), dr=np.ones_like(r),
                                   cache=True)
    u_tgt = v + (t - r)[:, None] * dudr  # constant: no gradient through it
    resid = u - u_tgt
    loss = float(np.mean(np.sum(resid ** 2, axis=1)))
    grad = net.backward(x_r, t, r, c, k, 2.0 * resid / len(x0), cache=cache)
    return loss, grad


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
    losses = np.zeros(cfg.steps)
    n = len(dataset)
    for step in range(cfg.steps):
        # the training bits depend on this draw order: rows, source noise,
        # times, then the conditioning
        rng = stream(cfg.seed, "train.step", step)
        idx = rng.integers(0, n, size=cfg.batch_size)
        x0 = spec.source_std * rng.standard_normal((cfg.batch_size, 2))
        if cfg.objective == "meanflow":
            r, t = draw_times(cfg.batch_size, RT_EQUAL_FRACTION, rng)
        else:
            t = rng.random(cfg.batch_size)
        c, k = _condition_inputs(net, cs[idx], ks[idx], cfg, rng)
        if cfg.objective == "meanflow":
            loss, grad = meanflow_loss(net, x0, xs[idx], c, k, r, t)
        else:
            loss, grad = cfm_loss(net, x0, xs[idx], c, k, t)
        if not np.isfinite(loss):
            raise RuntimeError(
                f"non-finite loss at step {step} "
                f"(parameter norm {np.linalg.norm(net.params):.3e})")
        adam_update(state, grad, cfg)
        losses[step] = loss
    return state, losses
