"""Conditional velocity MLP with hand-rolled reverse- and forward-mode autodiff.

The network maps (x, t[, r], class, sub-mode) to a 2D velocity.  Its input is
the coordinates, a sinusoidal time encoding and learned class / sub-mode
embeddings; the embeddings only add one term per (class, sub-mode) context to
layer 0's pre-activation, which each pass reads from a table instead of
multiplying embedding columns row by row.  The class table carries one extra
row used as the null token for classifier-free guidance; an absent sub-mode
fills its slot with zeros.

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

# name -> (pid, executor): helper threads, created on first use and again
# in a forked child, which inherits the executor but not its threads
_pools = {}
_pool_lock = threading.Lock()


def _silu(neg_z, h, s, d=None) -> None:
    """SiLU of z, given neg_z = -z, into h: with e = exp(-z) and
    s = -(1 + e), h = (-z) / s = z / (1 + e), three passes.  `s` is
    scratch, left holding s; `d`, when given, receives the derivative
    sig (1 + z - h) as ((-z + h) - 1) / s, three more."""
    np.exp(neg_z, out=s)
    np.subtract(-1.0, s, out=s)
    np.divide(neg_z, s, out=h)
    if d is not None:
        np.add(neg_z, h, out=d)
        d -= 1.0
        d /= s


def _executor(name: str = "sweep") -> ThreadPoolExecutor:
    """The process's helper pool `name`: it starts a thread only when no
    idle one is free, so one pool serves passes of any worker count."""
    with _pool_lock:
        pool = _pools.get(name)
        if pool is None or pool[0] != os.getpid():
            pool = _pools[name] = (os.getpid(), ThreadPoolExecutor(
                thread_name_prefix=f"subflow-{name}"))
        return pool[1]


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

    @property
    def _plain_dim(self) -> int:
        """Input columns that are not embeddings: x, then each time's
        encoding.  They are the columns of a cache's hs[0]."""
        return self.config.input_dim - 2 * self.config.embed_dim

    def _contexts(self, c: np.ndarray, k: np.ndarray) -> np.ndarray:
        """Row index into the context table of each (class, sub-mode) pair."""
        return c * (self.config.num_submodes + 1) + k + 1

    def _context_table(self) -> np.ndarray:
        """Layer 0's conditioning term of every context, one row per
        (class including null, sub-mode slot including empty) as
        `_contexts` numbers them: class_emb[c] W_c^T + b0, plus
        submode_emb[k] W_k^T when k >= 0."""
        cfg = self.config
        d, col = cfg.embed_dim, self._plain_dim
        w0 = self.view("w0")
        base = self.view("class_emb") @ w0[:, col:col + d].T
        base += self.view("b0")
        sub = self.view("submode_emb") @ w0[:, col + d:].T
        table = np.empty((cfg.num_classes + 1, cfg.num_submodes + 1,
                          cfg.hidden_width))
        table[:, 0] = base
        np.add(base[:, None], sub[None], out=table[:, 1:])
        return table.reshape(-1, cfg.hidden_width)

    # ---- forward / reverse / forward-mode -------------------------------

    def _sweep(self, x, t, r, c, k, cache: bool):
        """The primal pass: (n,2) output and, when `cache`, the (hs, ds, c, k)
        activation cache of the n rows (None otherwise).

        hs holds the input of every layer and the last hidden state; ds holds
        each hidden layer's SiLU derivative, sig (1 + z - h) with h its
        output.  The pass negates W_x, W_t, the context table and each
        hidden W^T once, so the blocks form -z exactly (negation commutes
        with rounding) and take each SiLU from it in three passes
        (`_silu`).  Layer 0 reads the embeddings through the pass's context
        table (`_context_table`), so hs[0] holds only the plain input
        columns: x, then each time's encoding, where a row whose r holds
        t's bits copies t's encoding.  Its pre-activation is
        x W_x^T + (T W_t^T + table[context]), with T the time encoding.
        When every row holds one t (and one r), T W_t^T is computed once, on
        one full block of that encoding, and added into the table; a block
        then costs one K = 2 matmul and one gather-add, and without a cache
        hs[0] holds only x.  Both paths add in the same order, so a row's
        bits do not depend on whether its time is shared.

        Rows run in blocks of BLOCK_ROWS, read in place; the last block
        reads a copy of its rows, padded when short with rows whose results
        are dropped.  Up to SWEEP_WORKERS workers run the blocks: the calling
        thread and helper threads, each claiming the next block (its first
        row and input rows) when free.  Each worker reuses one block-sized
        set of scratch buffers, and without a cache also of hs, whose hidden
        layers then alternate between two buffers.
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
        times = [s for s in (t, r) if s is not None]
        # a time every row holds bit for bit (an Euler step, a field pass)
        # is encoded once for the whole pass
        encs = [self._time_enc(s[:1]) if n and np.all(
                    s.view(np.int64) == s[:1].view(np.int64)) else None
                for s in times]
        shared = all(enc is not None for enc in encs)
        pad = -n % BLOCK_ROWS
        rows = [x, self._contexts(c, k), *times]
        total = n + pad
        # the last block's rows, padded to a full block; all-zero rows are
        # valid inputs: context 0 is class 0, k -1
        last = total - BLOCK_ROWS
        tail = [np.concatenate([a[last:], np.zeros((pad, *a.shape[1:]),
                                                   dtype=a.dtype)])
                for a in rows]
        starts = range(0, total, BLOCK_ROWS)
        # at least the calling thread, which finds no block in an empty batch
        workers = max(1, min(SWEEP_WORKERS, len(starts)))
        depth = self.config.hidden_layers
        width = self.config.hidden_width
        held = total if cache else BLOCK_ROWS * workers
        # layer 0's terms, negated so that a block forms -z
        w0 = self.view("w0")
        w_x, w_t = -w0[:, :2].T, -w0[:, 2:self._plain_dim].T
        table = -self._context_table()
        if shared:
            block = np.repeat(np.concatenate(encs, axis=1), BLOCK_ROWS, axis=0)
            table += (block @ w_t)[0]
            w_t = None
        # Every array of the pass is a view of one allocation: hs, then with
        # a cache ds, then each worker's block of (-z, s).  Once a
        # block that large is freed, glibc raises its dynamic mmap and trim
        # thresholds, so later passes (each training step) reuse heap pages
        # instead of faulting in fresh ones.
        shapes = ([(held, self._plain_dim if cache or not shared else 2)]
                  + [(held, width)] * (2 * depth if cache else min(depth, 2))
                  + [(BLOCK_ROWS * workers, width)] * 2)
        sizes = [a * b for a, b in shapes]
        work = np.empty(sum(sizes))
        arrays = [a.reshape(shape) for a, shape
                  in zip(np.split(work, np.cumsum(sizes)[:-1]), shapes)]
        hidden, scratch = arrays[1:-2], arrays[-2:]
        if cache:
            hs, ds = arrays[:1] + hidden[:depth], hidden[depth:]
        else:  # the layers alternate between two buffers
            hs, ds = arrays[:1] + [hidden[i % 2] for i in range(depth)], []
        out = np.empty((total, 2))
        layers = [(-self.view(f"w{layer}").T, self.view(f"b{layer}"))
                  for layer in range(1, depth)]
        # workers claim the next block as they become free, so one that the
        # OS deschedules does not hold back the others
        claim = threading.Lock()
        todo = iter(starts)

        def next_block():
            with claim:
                lo = next(todo, None)
            if lo is None:
                return None
            return lo, tail if lo == last else [a[lo:lo + BLOCK_ROWS]
                                                for a in rows]

        args = (encs, (w_x, w_t, table), layers, hs, ds, scratch, out,
                next_block)
        slots = [slice(j * BLOCK_ROWS, (j + 1) * BLOCK_ROWS)
                 for j in range(workers)]
        futures = [_executor().submit(self._run_blocks, *args, slot)
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

    def _run_blocks(self, encs, layer0, layers, hs, ds, scratch, out,
                    next_block, slot):
        """Run the primal pass over the blocks that `next_block` hands out
        (each block's first row and its BLOCK_ROWS rows of x, the contexts
        and each time; None when none are left), using the worker's
        `slot` rows of the scratch (and of hs when there is no cache, that
        is when ds is empty).  `layer0` is (-W_x^T, -W_t^T, -context table),
        with -W_t^T None when the table holds the shared time's term, and
        `layers` the (-W^T, b) of the later hidden layers, so each layer
        forms -z, subtracting b, and takes its SiLU (and with a cache its
        derivative) from -z by `_silu`.  Calls nothing traced, so it can run
        on a helper thread."""
        neg_z, s = (a[slot] for a in scratch)
        w_x, w_t, table = layer0
        w_out_t, b_out = self.view("w_out").T, self.view("b_out")
        while (claimed := next_block()) is not None:
            lo, (x, contexts, *times) = claimed
            block = slice(lo, lo + BLOCK_ROWS)
            at = block if ds else slot
            h = hs[0][at]
            h[:, :2] = x
            if h.shape[1] > 2:  # the time columns: per-row times, or a cache
                t_bits = times[0].view(np.int64)
                for i, (t, enc) in enumerate(zip(times, encs)):
                    col = 2 + i * TIME_ENC_DIM
                    cols = h[:, col:col + TIME_ENC_DIM]
                    if enc is not None:
                        cols[:] = enc
                    elif i:  # r copies t's encoding where it holds t's bits
                        fresh = t.view(np.int64) != t_bits
                        cols[:] = h[:, 2:2 + TIME_ENC_DIM]
                        cols[fresh] = self._time_enc(t[fresh])
                    else:
                        cols[:] = self._time_enc(t)
            # -z = x (-W_x^T) + (T (-W_t^T) + (-table)[context]), s as
            # scratch; the contexts are checked, and mode="clip" lets take
            # fill its out unbuffered
            if w_t is None:
                np.take(table, contexts, axis=0, out=neg_z, mode="clip")
            else:
                np.matmul(h[:, 2:], w_t, out=neg_z)
                np.take(table, contexts, axis=0, out=s, mode="clip")
                neg_z += s
            np.matmul(h[:, :2], w_x, out=s)
            neg_z += s
            for layer in range(len(hs) - 1):
                if layer:
                    w_layer, b = layers[layer - 1]
                    np.matmul(hs[layer][at], w_layer, out=neg_z)
                    neg_z -= b
                _silu(neg_z, hs[layer + 1][at], s,
                      ds[layer][block] if ds else None)
            np.matmul(hs[-1][at], w_out_t, out=out[block])
            out[block] += b_out

    def forward_batch(self, x, t, r, c, k, *, cache: bool = False):
        """Evaluate the net on a batch.

        x: (n,2); t, r: (n,) (r None unless uses_interval); c: (n,) class or
        null indices; k: (n,) sub-mode indices with -1 meaning absent.
        Returns the (n,2) output, plus the activation cache when requested,
        which `backward(cotangents, cache)` consumes without a second pass.
        """
        out, act = self._sweep(x, t, r, c, k, cache)
        return (out, act) if cache else out

    def backward(self, cotangents: np.ndarray, cache) -> np.ndarray:
        """Gradient of sum_i <cotangent_i, forward_i> over all parameters.

        `cache` is the activation cache that `forward_batch` or `jvp_batch`
        returned for the rows the cotangents belong to, under these
        parameters; only the reverse sweep runs.  Accumulation order is
        fixed, so results are bit-reproducible.
        """
        cotangents = np.asarray(cotangents, dtype=np.float64)
        hs, ds, c_arr, k_arr = cache
        if cotangents.shape != (len(hs[0]), 2):
            raise ValueError("cotangent shape mismatch")
        cfg = self.config
        # every block of the gradient is written exactly once, by out=
        grad = np.empty_like(self.params)
        g = cotangents
        np.matmul(g.T, hs[-1], out=self.view("w_out", grad))
        np.sum(g, axis=0, out=self.view("b_out", grad))
        gh = g @ self.view("w_out")
        for layer in reversed(range(1, cfg.hidden_layers)):
            gh *= ds[layer]  # gz, in place
            np.matmul(gh.T, hs[layer], out=self.view(f"w{layer}", grad))
            np.sum(gh, axis=0, out=self.view(f"b{layer}", grad))
            gh = gh @ self.view(f"w{layer}")
        gh *= ds[0]
        # layer 0: the plain columns read hs[0]; b0, the embedding columns
        # and the tables read the sums of gz over each context's rows (one
        # one-hot product), split into a class's rows and a sub-mode's (k >= 0)
        d, col, g_w0 = cfg.embed_dim, self._plain_dim, self.view("w0", grad)
        w_c, w_k = np.split(self.view("w0")[:, col:], [d], axis=1)
        np.matmul(gh.T, hs[0], out=g_w0[:, :col])
        shape = (cfg.num_classes + 1, cfg.num_submodes + 1)
        onehot = np.equal.outer(np.arange(np.prod(shape)),
                                self._contexts(c_arr, k_arr))
        sums = (onehot.astype(np.float64) @ gh).reshape(*shape, -1)
        g_class, g_sub = sums.sum(axis=1), sums[:, 1:].sum(axis=0)
        np.sum(g_class, axis=0, out=self.view("b0", grad))
        np.matmul(g_class.T, self.view("class_emb"), out=g_w0[:, col:col + d])
        np.matmul(g_sub.T, self.view("submode_emb"), out=g_w0[:, col + d:])
        np.matmul(g_class, w_c, out=self.view("class_emb", grad))
        np.matmul(g_sub, w_k, out=self.view("submode_emb", grad))
        return grad

    def jvp_batch(self, x, t, r, c, k, dx, dt, dr=None, *, rows=None,
                  cache: bool = False):
        """Forward-mode directional derivative in the (x, t[, r]) inputs.

        Embedding tables are constants under this derivative.  Returns the
        (len(rows), 2) tangent of the `rows` (1-D integer indices, all n by
        default); with cache=True returns (out, tangent, cache), where out
        and cache are those of `forward_batch` on all n rows: one primal
        pass, then the tangent through each layer's cached SiLU derivative,
        unblocked, so its bits can depend on how many rows it runs on.
        """
        n = len(x)
        dx = np.asarray(dx, dtype=np.float64)
        times = [np.asarray(dt, dtype=np.float64)]
        if self.config.uses_interval:
            times.append(np.zeros(n) if dr is None
                         else np.asarray(dr, dtype=np.float64))
        elif dr is not None:
            raise ValueError("net does not use an interval: dr must be None")
        if dx.shape != np.shape(x) or any(u.shape != np.shape(t)
                                          for u in times):
            raise ValueError("tangent shape mismatch")
        sel = slice(None) if rows is None else np.asarray(rows)
        if rows is not None and (sel.ndim != 1 or sel.dtype.kind not in "iu"
                                 or np.any((sel < 0) | (sel >= n))):
            raise ValueError("rows must be 1-D integer indices in [0, n)")
        out, act = self._sweep(x, t, r, c, k, cache=True)
        hs, ds = act[:2]
        # along a time tangent u, the encoding [s, sin(s f), cos(s f)] moves
        # by u * [1, f cos(s f), -f sin(s f)]; sin and cos are read from the
        # cached features.  The first product skips the columns of the
        # embeddings and of a time whose tangent is zero on every row.
        parts, cols = [dx[sel]], [np.arange(2)]
        for i, u in enumerate(times):
            u = u[sel]
            if not u.any():
                continue
            col = 2 + i * TIME_ENC_DIM
            sin = hs[0][sel, col + 1:col + 1 + N_FREQS]
            cos = hs[0][sel, col + 1 + N_FREQS:col + TIME_ENC_DIM]
            dphase = u[:, None] * self._freqs[None, :]
            parts += [u[:, None], cos * dphase, -sin * dphase]
            cols.append(np.arange(col, col + TIME_ENC_DIM))
        dh = np.concatenate(parts, axis=1)
        w_in = self.view("w0")[:, np.concatenate(cols)]
        for layer in range(self.config.hidden_layers):
            w = self.view(f"w{layer}") if layer else w_in
            dh = (dh @ w.T) * ds[layer][sel]
        tangent = dh @ self.view("w_out").T
        return (out, tangent, act) if cache else tangent
