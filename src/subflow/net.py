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

import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
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

# Blocks are independent, so the sweep runs them on one worker per CPU with
# unchanged bits, but only when BLAS runs one thread: on top of a
# multi-threaded BLAS, block workers oversubscribe the cores.  The package
# does not pin BLAS itself, because training bits depend on its thread count.
_BLAS_THREADS = os.environ.get("OPENBLAS_NUM_THREADS",
                               os.environ.get("OMP_NUM_THREADS"))
if _BLAS_THREADS != "1":
    SWEEP_WORKERS = 1
elif hasattr(os, "sched_getaffinity"):  # not on macOS or Windows
    SWEEP_WORKERS = len(os.sched_getaffinity(0))
else:
    SWEEP_WORKERS = os.cpu_count() or 1

# name -> (pid, threads, executor): helper threads, created on first use
# and again in a forked child, which inherits the executor but not its threads
_pools = {}
_pool_lock = threading.Lock()


def _executor(threads: int, name: str = "sweep") -> ThreadPoolExecutor:
    """The process's pool `name` of `threads` helper threads."""
    with _pool_lock:
        pool = _pools.get(name)
        if pool is None or pool[:2] != (os.getpid(), threads):
            if pool is not None and pool[0] == os.getpid():
                pool[2].shutdown(wait=False)
            pool = _pools[name] = (os.getpid(), threads, ThreadPoolExecutor(
                threads, thread_name_prefix=f"subflow-{name}"))
        return pool[2]


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


def _silu_grad(z: np.ndarray, sig: np.ndarray, out: np.ndarray) -> None:
    """Write sig * (1 + z * (1 - sig)), the derivative of z * sigmoid(z)
    given sig = sigmoid(z), into `out`."""
    np.subtract(1.0, sig, out=out)
    out *= z
    out += 1.0
    out *= sig


def _row_sums(index: np.ndarray, values: np.ndarray, num_rows: int) -> np.ndarray:
    """(num_rows, d) table whose row j sums the `values` rows with index j,
    added in batch order onto zero, as np.add.at onto a zero table does."""
    d = values.shape[1]
    flat = (index[:, None] * d + np.arange(d)).ravel()
    return np.bincount(flat, weights=values.ravel(),
                       minlength=num_rows * d).reshape(num_rows, d)


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

    def _features(self, x, t, r, c, k, encs, out: np.ndarray) -> None:
        """Write the input features of a block of rows into `out`.  A time
        (t, then r) whose entry in `encs` is not None is that encoding,
        shared by every row."""
        out[:, :2] = x
        for i, (s, enc) in enumerate(zip((t, r), encs)):
            col = 2 + i * TIME_ENC_DIM
            out[:, col:col + TIME_ENC_DIM] = (self._time_enc(s) if enc is None
                                              else enc)
        d = self.config.embed_dim
        out[:, -2 * d:-d] = self.view("class_emb")[c]
        out[:, -d:] = np.where((k >= 0)[:, None],
                               self.view("submode_emb")[np.maximum(k, 0)], 0.0)

    # ---- forward / reverse / forward-mode -------------------------------

    def _sweep(self, x, t, r, c, k, cache: bool):
        """The primal pass: (n,2) output and, when `cache`, the (hs, ds, c, k)
        activation cache of the n rows (None otherwise).

        hs holds the input of every layer and the last hidden state; ds holds
        each hidden layer's SiLU derivative.  Rows run in blocks of
        BLOCK_ROWS; a short last block is padded with rows whose results are
        dropped.  Up to SWEEP_WORKERS workers run the blocks: the calling
        thread and helper threads, each claiming the next block when free.
        Each worker reuses one block-sized set of scratch buffers, and
        without a cache also of hs.
        """
        x = np.asarray(x, dtype=np.float64)
        t = np.asarray(t, dtype=np.float64)
        r = None if r is None else np.asarray(r, dtype=np.float64)
        c = np.asarray(c, dtype=np.int64)
        k = np.asarray(k, dtype=np.int64)
        self._check_inputs(r, c, k)
        n = len(x)
        if x.shape != (n, 2) or any(a is not None and a.shape != (n,)
                                    for a in (t, r, c, k)):
            raise ValueError("x must have shape (n, 2) and t, r, c, k (n,)")
        # a time every row holds bit for bit (an Euler step, a field pass)
        # is encoded once for the whole pass
        encs = [self._time_enc(s[:1]) if n and np.all(
                    s.view(np.int64) == s[:1].view(np.int64)) else None
                for s in (t, r) if s is not None]
        pad = -n % BLOCK_ROWS
        rows = [x, t, r, c, k]
        if pad:  # all-zero rows are valid inputs: class 0, sub-mode 0
            rows = [None if a is None else np.concatenate(
                [a, np.zeros((pad, *a.shape[1:]), dtype=a.dtype)])
                for a in rows]
        total = n + pad
        starts = range(0, total, BLOCK_ROWS)
        workers = min(SWEEP_WORKERS, len(starts))
        depth = self.config.hidden_layers
        width = self.config.hidden_width
        held = total if cache else BLOCK_ROWS * workers
        # Every array of the pass is a view of one allocation: hs, then with
        # a cache ds, then each worker's block of (z, sigmoid(z)).  Once a
        # block that large is freed, glibc raises its dynamic mmap and trim
        # thresholds, so later passes (each training step) reuse heap pages
        # instead of faulting in fresh ones.
        shapes = ([(held, self.config.input_dim)]
                  + [(held, width)] * (depth * (2 if cache else 1))
                  + [(BLOCK_ROWS * workers, width)] * 2)
        sizes = [a * b for a, b in shapes]
        work = np.empty(sum(sizes))
        arrays = [a.reshape(shape) for a, shape
                  in zip(np.split(work, np.cumsum(sizes)[:-1]), shapes)]
        hs, ds, scratch = arrays[:depth + 1], arrays[depth + 1:-2], arrays[-2:]
        out = np.empty((total, 2))
        layers = [(self.view(f"w{layer}").T, self.view(f"b{layer}"))
                  for layer in range(depth)]
        # workers claim the next block as they become free, so one that the
        # OS deschedules does not hold back the others
        claim = threading.Lock()
        todo = iter(starts)

        def next_block():
            with claim:
                return next(todo, None)

        args = (rows, encs, layers, hs, ds, scratch, out, next_block)
        slots = [slice(j * BLOCK_ROWS, (j + 1) * BLOCK_ROWS)
                 for j in range(workers)]
        futures = [_executor(workers - 1).submit(self._run_blocks, *args, slot)
                   for slot in slots[1:]]
        try:
            self._run_blocks(*args, slots[0])
        finally:
            wait(futures)
        for future in futures:
            future.result()
        if not cache:
            return out[:n], None
        return out[:n], ([h[:n] for h in hs], [d[:n] for d in ds], c, k)

    def _run_blocks(self, rows, encs, layers, hs, ds, scratch, out,
                    next_block, slot):
        """Run the primal pass over the blocks that `next_block` hands out
        (their first rows; None when none are left), using the worker's
        `slot` rows of the scratch (and of hs when there is no cache, that
        is when ds is empty).  Calls nothing traced, so it can run on a
        helper thread."""
        z, sig = (a[slot] for a in scratch)
        w_out_t, b_out = self.view("w_out").T, self.view("b_out")
        while (lo := next_block()) is not None:
            block = slice(lo, lo + BLOCK_ROWS)
            at = block if ds else slot
            self._features(*(None if a is None else a[block] for a in rows),
                           encs, out=hs[0][at])
            for layer, (w_t, b) in enumerate(layers):
                np.matmul(hs[layer][at], w_t, out=z)
                z += b
                # sig = 1 / (1 + exp(-z)), in place
                np.negative(z, out=sig)
                np.exp(sig, out=sig)
                sig += 1.0
                np.divide(1.0, sig, out=sig)
                np.multiply(z, sig, out=hs[layer + 1][at])
                if ds:
                    _silu_grad(z, sig, out=ds[layer][block])
            np.matmul(hs[-1][at], w_out_t, out=out[block])
            out[block] += b_out

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
        hs, ds, c_arr, k_arr = cache
        if cotangents.shape != (len(hs[0]), 2):
            raise ValueError("cotangent shape mismatch")
        grad = np.zeros_like(self.params)
        d = self.config.embed_dim
        g = cotangents
        self.view("w_out", grad)[:] += g.T @ hs[-1]
        self.view("b_out", grad)[:] += g.sum(axis=0)
        gh = g @ self.view("w_out")
        for layer in reversed(range(self.config.hidden_layers)):
            gz = gh * ds[layer]
            self.view(f"w{layer}", grad)[:] += gz.T @ hs[layer]
            self.view(f"b{layer}", grad)[:] += gz.sum(axis=0)
            w = self.view(f"w{layer}")
            # of the input features, only the embeddings have parameters
            gh = gz @ (w if layer else w[:, -2 * d:])
        # gh is now the cotangent on the class and sub-mode embeddings
        self.view("class_emb", grad)[:] = _row_sums(
            c_arr, gh[:, :d], self.config.num_classes + 1)
        live = k_arr >= 0
        if np.any(live):
            self.view("submode_emb", grad)[:] = _row_sums(
                k_arr[live], gh[live, d:], self.config.num_submodes)
        return grad

    def jvp_batch(self, x, t, r, c, k, dx, dt, dr=None, *,
                  cache: bool = False):
        """Forward-mode directional derivative in the (x, t[, r]) inputs.

        Embedding tables are constants under this derivative.  Returns the
        (n,2) tangent; with cache=True returns (out, tangent, cache), where
        out and cache are those of `forward_batch` on the same inputs: one
        primal pass, then the tangent through each layer's cached SiLU
        derivative.
        """
        dx = np.asarray(dx, dtype=np.float64)
        dt = np.asarray(dt, dtype=np.float64)
        if dx.shape != np.shape(x) or dt.shape != np.shape(t):
            raise ValueError("tangent shape mismatch")
        out, act = self._sweep(x, t, r, c, k, cache=True)
        hs, ds = act[:2]
        times = [dt]
        if self.config.uses_interval:
            times.append(np.zeros(len(dx)) if dr is None
                         else np.asarray(dr, dtype=np.float64))
        # along a time tangent u, the encoding [s, sin(s f), cos(s f)] moves
        # by u * [1, f cos(s f), -f sin(s f)]; sin and cos are read from the
        # cached features
        parts = [dx]
        for i, u in enumerate(times):
            col = 2 + i * TIME_ENC_DIM + 1
            sin = hs[0][:, col:col + N_FREQS]
            cos = hs[0][:, col + N_FREQS:col + 2 * N_FREQS]
            dphase = u[:, None] * self._freqs[None, :]
            parts += [u[:, None], cos * dphase, -sin * dphase]
        dh = np.concatenate(parts, axis=1)
        for layer in range(self.config.hidden_layers):
            w = self.view(f"w{layer}")
            # the embedding features' tangent is zero, so the first product
            # skips their columns
            dh = (dh @ (w if layer else w[:, :dh.shape[1]]).T) * ds[layer]
        tangent = dh @ self.view("w_out").T
        return (out, tangent, act) if cache else tangent
