"""Conditional velocity MLP with hand-rolled reverse- and forward-mode autodiff.

The network maps (x, t[, r], class, sub-mode) to a 2D velocity.  Conditioning
enters by concatenating learned class / sub-mode embeddings and a sinusoidal
time encoding with the coordinates at the input.  The class table carries one
extra row used as the null token for classifier-free guidance; an absent
sub-mode fills its slot with zeros.

Everything runs in float64.  Gradients (reverse mode, over parameters and
embedding tables) and directional derivatives (forward mode, over x/t/r only)
are exact, which the tests verify against finite differences.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rng import stream

# Frequency ladder top kept moderate: the average-velocity objective
# differentiates the encoding in time, and high frequencies make that
# total-derivative target orders of magnitude larger than the data scale.
N_FREQS = 16
FREQ_MIN = 1.0
FREQ_MAX = 30.0
TIME_ENC_DIM = 1 + 2 * N_FREQS

# The primal sweep evaluates rows in fixed blocks of this many, the last one
# padded, so row i always sits at position i % BLOCK_ROWS of a block of the
# same shape and its bits do not depend on the batch size.  It equals the
# training batch, so a training step is one unpadded block; at thousands of
# rows, blocks also keep the elementwise work in cache.
BLOCK_ROWS = 256


@dataclass(frozen=True)
class NetConfig:
    num_classes: int
    num_submodes: int
    hidden_width: int = 128
    hidden_layers: int = 3
    embed_dim: int = 32
    uses_interval: bool = False

    def __post_init__(self):
        for name in ("num_classes", "num_submodes", "hidden_width",
                     "hidden_layers", "embed_dim"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")

    @property
    def null_class(self) -> int:
        return self.num_classes

    @property
    def input_dim(self) -> int:
        n_times = 2 if self.uses_interval else 1
        return 2 + n_times * TIME_ENC_DIM + 2 * self.embed_dim


def _layout(cfg: NetConfig) -> list[tuple[str, tuple[int, ...]]]:
    entries = []
    in_dim = cfg.input_dim
    for layer in range(cfg.hidden_layers):
        entries.append((f"w{layer}", (cfg.hidden_width, in_dim)))
        entries.append((f"b{layer}", (cfg.hidden_width,)))
        in_dim = cfg.hidden_width
    entries.append(("w_out", (2, cfg.hidden_width)))
    entries.append(("b_out", (2,)))
    entries.append(("class_emb", (cfg.num_classes + 1, cfg.embed_dim)))
    entries.append(("submode_emb", (cfg.num_submodes, cfg.embed_dim)))
    return entries


def _silu_grad(z: np.ndarray, sig: np.ndarray) -> np.ndarray:
    """Derivative of z * sigmoid(z), given sig = sigmoid(z)."""
    return sig * (1.0 + z * (1.0 - sig))


class VelocityNet:
    """Flat-parameter MLP; views into the flat array are exposed by name."""

    def __init__(self, config: NetConfig, params: np.ndarray | None = None):
        self.config = config
        self.layout = _layout(config)
        # name -> (start, stop, shape) of each block in the flat array
        self._blocks = {}
        offset = 0
        for name, shape in self.layout:
            size = int(np.prod(shape))
            self._blocks[name] = (offset, offset + size, shape)
            offset += size
        self.num_params = offset
        if params is None:
            params = np.zeros(self.num_params, dtype=np.float64)
        else:
            params = np.asarray(params, dtype=np.float64)
            if params.shape != (self.num_params,):
                raise ValueError(
                    f"expected {self.num_params} parameters, got {params.shape}")
        self.params = params
        self._freqs = np.geomspace(FREQ_MIN, FREQ_MAX, N_FREQS)

    def view(self, name: str, params: np.ndarray | None = None) -> np.ndarray:
        """Reshaped view of one parameter block (of self.params by default)."""
        flat = self.params if params is None else params
        start, stop, shape = self._blocks[name]
        return flat[start:stop].reshape(shape)

    @staticmethod
    def initialized(config: NetConfig, seed: int) -> "VelocityNet":
        """Kaiming-uniform hidden layers, zero output layer, gaussian embeddings."""
        net = VelocityNet(config)
        rng = stream(seed, "net.init")
        for layer in range(config.hidden_layers):
            w = net.view(f"w{layer}")
            bound = np.sqrt(6.0 / w.shape[1])
            w[:] = rng.uniform(-bound, bound, size=w.shape)
        net.view("class_emb")[:] = 0.5 * rng.standard_normal(
            net.view("class_emb").shape)
        net.view("submode_emb")[:] = 0.5 * rng.standard_normal(
            net.view("submode_emb").shape)
        return net

    # ---- feature construction -------------------------------------------

    def _time_enc(self, t: np.ndarray) -> np.ndarray:
        phase = t[:, None] * self._freqs[None, :]
        return np.concatenate([t[:, None], np.sin(phase), np.cos(phase)], axis=1)

    def _time_enc_dot(self, t: np.ndarray, dt: np.ndarray) -> np.ndarray:
        phase = t[:, None] * self._freqs[None, :]
        dphase = dt[:, None] * self._freqs[None, :]
        return np.concatenate(
            [dt[:, None], np.cos(phase) * dphase, -np.sin(phase) * dphase], axis=1)

    def _check_inputs(self, r, c, k) -> None:
        cfg = self.config
        if cfg.uses_interval:
            if r is None:
                raise ValueError("net uses_interval: r is required")
        elif r is not None:
            raise ValueError("net does not use an interval: r must be None")
        if np.any(c < 0) or np.any(c > cfg.null_class):
            raise IndexError("class index out of range")
        if np.any(k < -1) or np.any(k >= cfg.num_submodes):
            raise IndexError("submode index out of range")

    def _features(self, x, t, r, c, k, out: np.ndarray) -> None:
        """Write the input features of a block of rows into `out`."""
        parts = [x, self._time_enc(t)]
        if r is not None:
            parts.append(self._time_enc(r))
        parts.append(self.view("class_emb")[c])
        kemb = np.where((k >= 0)[:, None], self.view("submode_emb")[np.maximum(k, 0)], 0.0)
        parts.append(kemb)
        np.concatenate(parts, axis=1, out=out)

    # ---- forward / reverse / forward-mode -------------------------------

    def _sweep(self, x, t, r, c, k, cache: bool):
        """The primal pass: (n,2) output and, when `cache`, the (hs, zs, c, k)
        activation cache of the n rows (None otherwise).

        hs holds the input of every layer and the last hidden state; zs holds
        each hidden layer's (pre-activation, sigmoid) pair.  Rows run in
        blocks of BLOCK_ROWS; a short last block is padded with rows whose
        results are dropped.  Without a cache, every block reuses one
        block-sized set of buffers.
        """
        x = np.asarray(x, dtype=np.float64)
        t = np.asarray(t, dtype=np.float64)
        r = None if r is None else np.asarray(r, dtype=np.float64)
        c = np.asarray(c, dtype=np.int64)
        k = np.asarray(k, dtype=np.int64)
        self._check_inputs(r, c, k)
        n = len(x)
        pad = -n % BLOCK_ROWS
        rows = [x, t, r, c, k]
        if pad:  # all-zero rows are valid inputs: class 0, sub-mode 0
            rows = [None if a is None else np.concatenate(
                [a, np.zeros((pad, *a.shape[1:]), dtype=a.dtype)])
                for a in rows]
        total = n + pad
        depth = self.config.hidden_layers
        width = self.config.hidden_width
        held = total if cache else BLOCK_ROWS
        # Every array of the pass is a view of one allocation: hs, then each
        # layer's (z, sig).  Once a block that large is freed, glibc raises
        # its dynamic mmap and trim thresholds, so later passes (each
        # training step) reuse heap pages instead of faulting in fresh ones.
        widths = [self.config.input_dim] + [width] * (3 * depth)
        work = np.empty(held * sum(widths))
        ends = np.cumsum([held * w for w in widths])[:-1]
        arrays = [a.reshape(held, w)
                  for a, w in zip(np.split(work, ends), widths)]
        hs = arrays[:depth + 1]
        zs = list(zip(arrays[depth + 1::2], arrays[depth + 2::2]))
        out = np.empty((total, 2))
        layers = [(self.view(f"w{layer}").T, self.view(f"b{layer}"))
                  for layer in range(depth)]
        for lo in range(0, total, BLOCK_ROWS):
            block = slice(lo, lo + BLOCK_ROWS)
            at = block if cache else slice(None)
            self._features(*(None if a is None else a[block] for a in rows),
                           out=hs[0][at])
            for layer, (w_t, b) in enumerate(layers):
                z, sig = zs[layer][0][at], zs[layer][1][at]
                np.matmul(hs[layer][at], w_t, out=z)
                z += b
                # sig = 1 / (1 + exp(-z)), in place
                np.negative(z, out=sig)
                np.exp(sig, out=sig)
                sig += 1.0
                np.divide(1.0, sig, out=sig)
                np.multiply(z, sig, out=hs[layer + 1][at])
            np.matmul(hs[-1][at], self.view("w_out").T, out=out[block])
            out[block] += self.view("b_out")
        if not cache:
            return out[:n], None
        hs = [h[:n] for h in hs]
        zs = [(z[:n], sig[:n]) for z, sig in zs]
        return out[:n], (hs, zs, c, k)

    def forward_batch(self, x, t, r, c, k, *, cache: bool = False):
        """Evaluate the net on a batch.

        x: (n,2); t, r: (n,) (r None unless uses_interval); c: (n,) class or
        null indices; k: (n,) sub-mode indices with -1 meaning absent.
        Returns the (n,2) output, plus the activation cache when requested;
        `backward(..., cache=...)` consumes that cache without a second pass.
        """
        out, act = self._sweep(x, t, r, c, k, cache)
        return (out, act) if cache else out

    def backward(self, x, t, r, c, k, cotangents: np.ndarray, *,
                 cache=None) -> np.ndarray:
        """Gradient of sum_i <cotangent_i, forward_i> over all parameters.

        `cache` is the activation cache that `forward_batch` or `jvp_batch`
        returned for these same inputs and parameters; given one, only the
        reverse sweep runs.  Without it the primal pass is recomputed.
        Accumulation order is fixed, so results are bit-reproducible.
        """
        cotangents = np.asarray(cotangents, dtype=np.float64)
        if cache is None:
            _, cache = self.forward_batch(x, t, r, c, k, cache=True)
        hs, zs, c_arr, k_arr = cache
        if cotangents.shape != (len(hs[0]), 2):
            raise ValueError("cotangent shape mismatch")
        grad = np.zeros_like(self.params)
        g = cotangents
        self.view("w_out", grad)[:] += g.T @ hs[-1]
        self.view("b_out", grad)[:] += g.sum(axis=0)
        gh = g @ self.view("w_out")
        for layer in reversed(range(self.config.hidden_layers)):
            gz = gh * _silu_grad(*zs[layer])
            self.view(f"w{layer}", grad)[:] += gz.T @ hs[layer]
            self.view(f"b{layer}", grad)[:] += gz.sum(axis=0)
            gh = gz @ self.view(f"w{layer}")
        # gh is now the cotangent on the input features
        d = self.config.embed_dim
        gclass = gh[:, -2 * d:-d]
        gsub = gh[:, -d:]
        np.add.at(self.view("class_emb", grad), c_arr, gclass)
        live = k_arr >= 0
        if np.any(live):
            np.add.at(self.view("submode_emb", grad), k_arr[live], gsub[live])
        return grad

    def jvp_batch(self, x, t, r, c, k, dx, dt, dr=None, *,
                  cache: bool = False):
        """Forward-mode directional derivative in the (x, t[, r]) inputs.

        Embedding tables are constants under this derivative.  Returns the
        (n,2) tangent; with cache=True returns (out, tangent, cache), where
        out and cache are those of `forward_batch` on the same inputs: one
        primal pass, then the tangent through each layer's cached (z, sig).
        """
        dx = np.asarray(dx, dtype=np.float64)
        dt = np.asarray(dt, dtype=np.float64)
        if dx.shape != np.shape(x) or dt.shape != np.shape(t):
            raise ValueError("tangent shape mismatch")
        out, act = self._sweep(x, t, r, c, k, cache=True)
        n = len(dx)
        parts = [dx, self._time_enc_dot(np.asarray(t, dtype=np.float64), dt)]
        if self.config.uses_interval:
            dr = np.zeros(n) if dr is None else np.asarray(dr, dtype=np.float64)
            parts.append(self._time_enc_dot(np.asarray(r, dtype=np.float64), dr))
        parts.append(np.zeros((n, 2 * self.config.embed_dim)))
        dh = np.concatenate(parts, axis=1)
        for layer, (z, sig) in enumerate(act[1]):
            dh = (dh @ self.view(f"w{layer}").T) * _silu_grad(z, sig)
        tangent = dh @ self.view("w_out").T
        return (out, tangent, act) if cache else tangent
