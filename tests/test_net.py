"""Network forward pass and hand-rolled autodiff tests.

The reverse-mode gradient and the forward-mode directional derivative are
checked against central finite differences, and the forward pass of a tiny
net is checked against an independent matrix-arithmetic transcription.
"""

import multiprocessing
import os
import pickle
import sys
import threading
import time
import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from subflow import io, objectives
from subflow import net as net_module
from subflow.clustering import SubmodeTable
from subflow.net import (BLOCK_ROWS, FREQ_MAX, FREQ_MIN, N_FREQS, TIME_ENC_DIM,
                         NetConfig, VelocityNet, _silu)


def tiny_config(uses_interval=False) -> NetConfig:
    return NetConfig(num_classes=2, num_submodes=2, hidden_width=2,
                     hidden_layers=1, embed_dim=1, uses_interval=uses_interval)


def random_net(cfg: NetConfig, seed: int = 0, scale: float = 0.3) -> VelocityNet:
    net = VelocityNet(cfg)
    net.params[:] = scale * np.random.default_rng(seed).standard_normal(
        net.num_params)
    return net


def silu(z):
    return z / (1.0 + np.exp(-z))


def silu_reference(zs):
    """z sig(z), sig(z) (1 + z - h) and the size sig (1 + |z| + |h|) of the
    derivative's terms, each rounded once from 40 decimal digits."""
    out = []
    with localcontext() as ctx:
        ctx.prec = 40
        for z in zs:
            z = Decimal(float(z))
            sig = 1 / (1 + (-z).exp())
            h = z * sig
            out.append((float(h), float(sig * (1 + z - h)),
                        float(sig * (1 + abs(z) + abs(h)))))
    return np.array(out).T


def run_silu(z):
    """`_silu` of z with its derivative: (h, d)."""
    h, s, d = (np.empty_like(z) for _ in range(3))
    _silu(-z, h, s, d)
    return h, d


class TestSilu:
    """The pass's SiLU, taken from -z, against an independent reference."""

    Z = np.concatenate([np.linspace(-700.0, 700.0, 14001),
                        np.linspace(-5.0, 5.0, 10001),
                        [0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300]])

    def test_within_a_few_ulp_of_the_reference(self):
        """h within 4 ulp of z sig(z); the derivative within 4 ulp of the
        size of its terms, since 1 + z - h cancels near z = -1.28."""
        h, d = run_silu(self.Z)
        h_ref, d_ref, d_size = silu_reference(self.Z)
        assert np.all(np.abs(h - h_ref) <= 4 * np.spacing(np.abs(h_ref)))
        assert np.all(np.abs(d - d_ref) <= 4 * np.spacing(d_size))

    def test_finite_z_warns_only_where_exp_overflows(self):
        """No warning on [-700, 700]; beyond, down to -max, only exp's
        overflow (as 1 / (1 + exp(-z)) gives), and h and d go to -0.0."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            run_silu(self.Z)
        big = np.finfo(np.float64).max
        z = np.array([-big, -1e300, -746.0, -710.0, 710.0, 1e300, big])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            h, d = run_silu(z)
        assert {str(w.message) for w in caught} == {
            "overflow encountered in exp"}
        assert np.array_equal(h, [-0.0, -0.0, -0.0, -0.0, 710.0, 1e300, big])
        assert np.all(np.signbit(h[:4]))
        assert np.array_equal(d, [0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0])


class TestForward:
    def test_matches_hand_computation(self):
        """Tiny net transcribed independently with explicit matrices."""
        cfg = tiny_config()
        net = random_net(cfg, seed=4)
        x = np.array([0.3, -1.1])
        t = 0.37
        c, k = 1, 0

        freqs = np.geomspace(FREQ_MIN, FREQ_MAX, N_FREQS)
        enc = np.concatenate([[t], np.sin(t * freqs), np.cos(t * freqs)])
        feats = np.concatenate([x, enc, net.view("class_emb")[c],
                                net.view("submode_emb")[k]])
        h = silu(net.view("w0") @ feats + net.view("b0"))
        expected = net.view("w_out") @ h + net.view("b_out")
        out = net.forward_batch(x[None], [t], None, [c], [k])
        np.testing.assert_allclose(out[0], expected, atol=1e-14)

    def test_zero_params_give_zero_output(self):
        net = VelocityNet(tiny_config())
        out = net.forward_batch(np.array([[1.0, 2.0]]), [0.5], None, [0], [-1])
        np.testing.assert_array_equal(out, np.zeros((1, 2)))

    def test_bit_identical_determinism(self):
        cfg = NetConfig(num_classes=3, num_submodes=2, uses_interval=True)
        net = VelocityNet.initialized(cfg, seed=1)
        x = np.random.default_rng(0).standard_normal((16, 2))
        t = np.full(16, 0.4)
        r = np.full(16, 0.1)
        c = np.zeros(16, dtype=np.int64)
        k = np.ones(16, dtype=np.int64)
        a = net.forward_batch(x, t, r, c, k)
        b = net.forward_batch(x, t, r, c, k)
        assert np.array_equal(a, b)

    def test_null_token_ignores_original_class(self):
        cfg = tiny_config()
        net = random_net(cfg, seed=7)
        x = np.array([[0.2, 0.9], [0.2, 0.9]])
        out_null, out_c0 = net.forward_batch(x, [0.3, 0.3], None,
                                             [cfg.null_class, 0], [0, 0])
        # the null row is its own embedding; any concrete class differs
        assert not np.allclose(out_null, out_c0)

    def test_absent_submode_is_zero_slot(self):
        cfg = tiny_config()
        net = random_net(cfg, seed=8)
        net.view("submode_emb")[:] = 0.0
        x = np.array([[0.5, 0.5], [0.5, 0.5]])
        absent, zeroed = net.forward_batch(x, [0.6, 0.6], None, [0, 0], [-1, 1])
        np.testing.assert_allclose(absent, zeroed, atol=1e-15)

    def test_index_bounds_checked(self):
        net = VelocityNet(tiny_config())
        with pytest.raises(IndexError):
            net.forward_batch(np.zeros((1, 2)), [0.5], None, [5], [0])
        with pytest.raises(IndexError):
            net.forward_batch(np.zeros((1, 2)), [0.5], None, [0], [2])

    def test_interval_flag_enforced(self):
        net_plain = VelocityNet(tiny_config(uses_interval=False))
        net_int = VelocityNet(tiny_config(uses_interval=True))
        with pytest.raises(ValueError):
            net_plain.forward_batch(np.zeros((1, 2)), [0.5], [0.2], [0], [-1])
        with pytest.raises(ValueError):
            net_int.forward_batch(np.zeros((1, 2)), [0.5], None, [0], [-1])

    @pytest.mark.parametrize("rows", [
        (np.zeros((2, 2)), [0.5], None, [0, 0], [0, 0]),
        (np.zeros((2, 1)), [0.5, 0.5], None, [0, 0], [0, 0]),
        (np.zeros((2, 2)), [0.5, 0.5], None, [0], [0, 0]),
        (np.zeros((2, 2)), [0.5, 0.5], None, [0, 0], [0]),
        (np.zeros((2, 2)), [0.5, 0.5], [0.2], [0, 0], [0, 0]),
    ], ids=["t", "x", "c", "k", "r"])
    def test_row_counts_checked(self, rows):
        """An input that would broadcast to the n rows of x is refused."""
        net = VelocityNet(tiny_config(uses_interval=rows[2] is not None))
        with pytest.raises(ValueError, match="must have shape"):
            net.forward_batch(*rows)

    def test_initialized_output_layer_zero(self):
        net = VelocityNet.initialized(tiny_config(), seed=0)
        assert np.all(net.view("w_out") == 0.0)
        assert np.all(net.view("b_out") == 0.0)
        out = net.forward_batch(np.array([[3.0, -2.0]]), [0.8], None, [1], [1])
        np.testing.assert_array_equal(out, np.zeros((1, 2)))


class TestBatchInvariance:
    """Rows run in fixed blocks of BLOCK_ROWS, so a row's bits do not depend
    on how many rows share its call."""

    @staticmethod
    def wide_net_and_rows(uses_interval, n=5000):
        cfg = NetConfig(num_classes=2, num_submodes=2,
                        uses_interval=uses_interval)
        assert cfg.hidden_width == 128
        net = random_net(cfg, seed=12, scale=0.1)
        rng = np.random.default_rng(13)
        t = rng.uniform(0, 1, n)
        return net, (rng.standard_normal((n, 2)), t,
                     t * rng.uniform(0, 1, n) if uses_interval else None,
                     rng.integers(0, 3, n), rng.integers(-1, 2, n))

    @pytest.mark.parametrize("uses_interval", [False, True])
    def test_rows_independent_of_batch_size(self, uses_interval):
        net, rows = self.wide_net_and_rows(uses_interval)
        full = net.forward_batch(*rows)
        for n in (1, 7, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 5000):
            head = [None if a is None else a[:n] for a in rows]
            assert np.array_equal(net.forward_batch(*head), full[:n]), n

    @pytest.mark.parametrize("uses_interval", [False, True])
    def test_cached_block_matches_uncached(self, uses_interval):
        """At one full block the cached passes return the uncached output,
        and their cache holds exactly the block's rows."""
        net, rows = self.wide_net_and_rows(uses_interval, n=BLOCK_ROWS)
        check_cached_block(net, rows)


class TestEmptyBatch:
    """A batch of zero rows runs no block: every pass returns (0, 2)
    outputs and a zero-row cache, and backward a zero gradient."""

    @pytest.mark.parametrize("uses_interval", [False, True])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_every_pass_accepts_zero_rows(self, uses_interval, workers,
                                          monkeypatch):
        monkeypatch.setattr(net_module, "SWEEP_WORKERS", workers)
        cfg = NetConfig(num_classes=2, num_submodes=2,
                        uses_interval=uses_interval)
        net = random_net(cfg, seed=14, scale=0.1)
        x, t = np.zeros((0, 2)), np.zeros(0)
        r = np.zeros(0) if uses_interval else None
        rows = (x, t, r, np.zeros(0, np.int64), np.zeros(0, np.int64))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = net.forward_batch(*rows)
            fwd_out, cache = net.forward_batch(*rows, cache=True)
            tangent = net.jvp_batch(*rows, x, t, r)
            jvp_out, jvp_tangent, jvp_cache = net.jvp_batch(*rows, x, t, r,
                                                            cache=True)
            grads = [net.backward(np.zeros((0, 2)), cache),
                     net.backward(np.zeros((0, 2)), jvp_cache)]
        for a in (out, fwd_out, tangent, jvp_out, jvp_tangent):
            assert a.shape == (0, 2)
        hs, ds, c, k = cache
        assert all(len(a) == 0 for a in (*hs, *ds, c, k))
        for grad in grads:
            assert grad.shape == (net.num_params,)
            assert not grad.any()


def check_cached_block(net, rows):
    """The cached forward and jvp passes over one full block return the
    uncached output, and their cache holds exactly the block's rows, with
    x and the time encodings, not the embeddings, in hs[0]."""
    out = net.forward_batch(*rows)
    uses_interval = rows[2] is not None
    tangents = (np.ones((BLOCK_ROWS, 2)), np.ones(BLOCK_ROWS),
                np.ones(BLOCK_ROWS) if uses_interval else None)
    fwd_out, fwd_cache = net.forward_batch(*rows, cache=True)
    jvp_out, _, jvp_cache = net.jvp_batch(*rows, *tangents, cache=True)
    for got, (hs, ds, c, k) in ((fwd_out, fwd_cache), (jvp_out, jvp_cache)):
        assert np.array_equal(got, out)
        arrays = [*hs, *ds, c, k]
        assert all(len(a) == BLOCK_ROWS for a in arrays)
        assert hs[0].shape[1] == 2 + (2 if uses_interval else 1) * \
            TIME_ENC_DIM


def shared_time_rows(rows, n, t=0.37, r=0.21):
    """The first n of `rows` with every row at time t (and r)."""
    x, _, r_rows, c, k = (None if a is None else a[:n] for a in rows)
    return (x, np.full(n, t), None if r_rows is None else np.full(n, r), c,
            k)


class TestSharedTime:
    """A pass whose rows all hold one t (and r), as every Euler step and
    field pass does, encodes that time once; its bits are those of the
    per-row encoding."""

    @pytest.mark.parametrize("uses_interval", [False, True])
    @pytest.mark.parametrize("n", [1, BLOCK_ROWS - 1, BLOCK_ROWS,
                                   BLOCK_ROWS + 1, 5000])
    def test_equals_rows_of_a_mixed_time_pass(self, uses_interval, n):
        """The shared-time rows, null-class and k = -1 rows among them,
        equal the same rows in a pass with one more row at other times."""
        net, rows = TestBatchInvariance.wide_net_and_rows(uses_interval)
        shared = shared_time_rows(rows, n)
        assert np.any(shared[3] == net.config.null_class) or n < 10
        assert np.any(shared[4] == -1) or n < 10
        mixed = [None if a is None else np.concatenate([a, b[-1:]])
                 for a, b in zip(shared, rows)]
        assert mixed[1][-1] != mixed[1][0]
        out = net.forward_batch(*shared)
        assert np.array_equal(out, net.forward_batch(*mixed)[:n])

    @pytest.mark.parametrize("uses_interval", [False, True])
    def test_cached_block_matches_uncached(self, uses_interval):
        """At a shared time the uncached pass writes only x and reads the
        time's term from the context table; the cached pass also writes the
        time columns.  Their outputs are equal."""
        net, rows = TestBatchInvariance.wide_net_and_rows(uses_interval,
                                                          n=BLOCK_ROWS)
        check_cached_block(net, shared_time_rows(rows, BLOCK_ROWS))

    @pytest.mark.parametrize("uses_interval", [False, True])
    def test_cached_time_columns_are_the_row_encoding(self, uses_interval):
        """A cached pass's input features hold, in each time's columns, the
        per-row encoding's bits, whether the rows share their time or not,
        and on an interval net whether r equals t or not."""
        net, rows = TestBatchInvariance.wide_net_and_rows(uses_interval,
                                                          n=BLOCK_ROWS + 1)
        batches = [rows, shared_time_rows(rows, BLOCK_ROWS + 1)]
        if uses_interval:
            # r = t on every other row, where r copies t's encoding, and a
            # -0.0 r at t = 0.0, equal by value but not by bits
            x, t, r, c, k = rows
            r = np.where(np.arange(len(t)) % 2 == 0, t, r)
            t, r = t.copy(), r.copy()
            t[1], r[1] = 0.0, -0.0
            batches.append((x, t, r, c, k))
        for batch in batches:
            _, (hs, _, _, _) = net.forward_batch(*batch, cache=True)
            times = [s for s in batch[1:3] if s is not None]
            for i, s in enumerate(times):
                col = 2 + i * TIME_ENC_DIM
                cached = hs[0][:, col:col + TIME_ENC_DIM]
                assert np.array_equal(cached.view(np.int64),  # bit for bit
                                      net._time_enc(s).view(np.int64))


class TestContextTable:
    """Layer 0 reads the embeddings' term from a table of every (class,
    sub-mode) context, built from the parameters alone, so a row's bits do
    not depend on which contexts the other rows of its pass hold."""

    @pytest.mark.parametrize("uses_interval", [False, True])
    @pytest.mark.parametrize("shared", [False, True],
                             ids=["row-times", "shared-time"])
    def test_row_independent_of_the_pass_contexts(self, uses_interval,
                                                  shared):
        """Each context's rows, null class and k = -1 among them, equal the
        same rows in a pass where every row holds that one context."""
        net, rows = TestBatchInvariance.wide_net_and_rows(uses_interval,
                                                          n=BLOCK_ROWS + 1)
        if shared:
            rows = shared_time_rows(rows, BLOCK_ROWS + 1)
        cfg = net.config
        c, k = rows[3], rows[4]
        contexts = [(a, b) for a in range(cfg.null_class + 1)
                    for b in range(-1, cfg.num_submodes)]
        assert set(zip(c.tolist(), k.tolist())) == set(contexts)
        full = net.forward_batch(*rows)
        for a, b in contexts:
            alone = net.forward_batch(*rows[:3], np.full_like(c, a),
                                      np.full_like(k, b))
            mask = (c == a) & (k == b)
            assert np.array_equal(alone[mask], full[mask]), (a, b)


def _forward_in_child(conn, net, rows):
    out = net.forward_batch(*rows)
    conn.send((out, net_module._pool[0] == os.getpid()))


class TestParallelSweep:
    """The sweep runs its blocks on SWEEP_WORKERS workers, and its bits do
    not depend on how many."""

    @pytest.mark.parametrize("uses_interval", [False, True])
    def test_bits_independent_of_worker_count(self, uses_interval,
                                              monkeypatch):
        net, rows = TestBatchInvariance.wide_net_and_rows(uses_interval)
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # more thread switches inside blocks
        try:
            for n in (1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 5000):
                head = [None if a is None else a[:n] for a in rows]
                tangents = (np.ones((n, 2)), np.ones(n),
                            np.ones(n) if uses_interval else None)
                results = []
                for workers in (1, 2, 3):
                    monkeypatch.setattr(net_module, "SWEEP_WORKERS", workers)
                    out = net.forward_batch(*head)
                    fwd_out, (hs, ds, _, _) = net.forward_batch(*head,
                                                                cache=True)
                    jvp_out, tangent, (jhs, jds, _, _) = net.jvp_batch(
                        *head, *tangents, cache=True)
                    shared = shared_time_rows(head, n)
                    shared_out = net.forward_batch(*shared)
                    _, (shs, sds, _, _) = net.forward_batch(*shared,
                                                            cache=True)
                    results.append([out, fwd_out, *hs, *ds, jvp_out, tangent,
                                    *jhs, *jds, shared_out, *shs, *sds])
                for other in results[1:]:
                    assert len(other) == len(results[0])
                    assert all(np.array_equal(a, b)
                               for a, b in zip(results[0], other)), n
        finally:
            sys.setswitchinterval(switch)

    def test_one_pool_serves_any_worker_count(self, monkeypatch):
        """Passes of 2 and 3 blocks take 1 and 2 helper threads, all from
        the one lane pool: a pass of another worker count builds no new
        one."""
        monkeypatch.setattr(net_module, "SWEEP_WORKERS", 3)
        net, rows = TestBatchInvariance.wide_net_and_rows(False)
        pools = []
        for blocks in (2, 3, 2, 3, 2):
            n = blocks * BLOCK_ROWS
            net.forward_batch(*(None if a is None else a[:n] for a in rows))
            pools.append(net_module._pool[-1])
        assert all(pool is pools[0] for pool in pools)

    def test_forked_child_gets_parent_bits(self, monkeypatch):
        """A child forked after the parent used its helper threads builds
        its own, and returns the parent's bits."""
        monkeypatch.setattr(net_module, "SWEEP_WORKERS", 2)
        net, rows = TestBatchInvariance.wide_net_and_rows(True)
        expected = net.forward_batch(*rows)
        assert net_module._pool[0] == os.getpid()
        ctx = multiprocessing.get_context("fork")
        receive, send = ctx.Pipe(duplex=False)
        child = ctx.Process(target=_forward_in_child, args=(send, net, rows))
        child.start()
        try:
            assert receive.poll(60), "child returned nothing within 60 s"
            out, own_pool = receive.recv()
        finally:
            child.join(10)
            if child.is_alive():
                child.terminate()
                child.join(10)
        assert not child.is_alive() and child.exitcode == 0
        assert own_pool
        assert np.array_equal(out, expected)


def _lanes_in_child(conn):
    names = net_module.lanes(*[lambda: threading.current_thread().name] * 2)
    conn.send((names, net_module._pool[0] == os.getpid()))


def _run_bounded(fn, timeout=60):
    """fn() on a daemon thread, joined within `timeout` seconds, so a lane
    that waits on itself fails the test instead of hanging it."""
    box = []
    runner = threading.Thread(target=lambda: box.append(fn()), daemon=True)
    runner.start()
    runner.join(timeout)
    assert not runner.is_alive(), f"lanes did not return within {timeout} s"
    return box[0]


def _fail(exc):
    def call():
        raise exc
    return call


class TestLanes:
    """`net.lanes`, the one helper-thread primitive: the first call on the
    caller, the others on one pool where SWEEP_WORKERS > 1."""

    def test_results_in_argument_order(self, monkeypatch):
        """Later calls that finish first still return in argument order;
        the first runs on the caller, the others on the pool's threads."""
        monkeypatch.setattr(net_module, "SWEEP_WORKERS", 3)

        def call(i, delay):
            def run():
                time.sleep(delay)
                return i, threading.current_thread().name
            return run

        results = net_module.lanes(*(call(i, 0.05 * (4 - i))
                                     for i in range(4)))
        assert [i for i, _ in results] == [0, 1, 2, 3]
        assert results[0][1] == threading.current_thread().name
        assert all(name.startswith("subflow-lane") for _, name in results[1:])

    @pytest.mark.parametrize("workers, n_calls", [(1, 3), (3, 1)])
    def test_inline_without_a_pool(self, workers, n_calls, monkeypatch):
        """At one worker, or with one call, every call runs on the caller,
        in order, and no pool is built."""
        monkeypatch.setattr(net_module, "SWEEP_WORKERS", workers)
        monkeypatch.setattr(net_module, "_pool", None)
        ran = []

        def call(i):
            def run():
                ran.append((i, threading.current_thread().name))
                return i
            return run

        assert net_module.lanes(*map(call, range(n_calls))) == list(
            range(n_calls))
        here = threading.current_thread().name
        assert ran == [(i, here) for i in range(n_calls)]
        assert net_module._pool is None

    @pytest.mark.parametrize("workers", [1, 3])
    def test_earliest_exception_wins(self, workers, monkeypatch):
        """Of several failing calls, the earliest in argument order raises,
        even when a later one fails sooner; threaded, every call finishes
        before it does."""
        monkeypatch.setattr(net_module, "SWEEP_WORKERS", workers)
        with pytest.raises(KeyError, match="first"):
            net_module.lanes(_fail(KeyError("first")),
                             _fail(ValueError("second")))
        finished = []

        def slow_failure():
            time.sleep(0.1)
            finished.append(True)
            raise KeyError("second")

        with pytest.raises(KeyError, match="second"):
            net_module.lanes(lambda: 0, slow_failure,
                             _fail(ValueError("third")))
        assert finished == [True]

    def test_nested_lanes(self, monkeypatch):
        """A lane that calls `lanes` runs its own first call where it runs,
        from the calling thread and from a helper, and returns in order."""
        monkeypatch.setattr(net_module, "SWEEP_WORKERS", 2)

        def name():
            return threading.current_thread().name

        def inner(tag):
            return lambda: [name(), *net_module.lanes(
                lambda: (tag, 0, name()), lambda: (tag, 1, name()))]

        outer, helper = _run_bounded(lambda: net_module.lanes(inner("a"),
                                                              inner("b")))
        assert [r[:2] for r in outer[1:]] == [("a", 0), ("a", 1)]
        assert [r[:2] for r in helper[1:]] == [("b", 0), ("b", 1)]
        # each inner first call runs on the thread that ran its lane
        assert outer[1][2] == outer[0]
        assert helper[0].startswith("subflow-lane")
        assert helper[1][2] == helper[0]
        assert outer[2][2].startswith("subflow-lane")
        assert helper[2][2].startswith("subflow-lane")
        assert helper[2][2] != helper[0]

    def test_forked_child_builds_its_own_pool(self, monkeypatch):
        """A child forked after the parent built the pool builds its own,
        whose threads run its lanes."""
        monkeypatch.setattr(net_module, "SWEEP_WORKERS", 2)
        net_module.lanes(lambda: None, lambda: None)
        assert net_module._pool[0] == os.getpid()
        ctx = multiprocessing.get_context("fork")
        receive, send = ctx.Pipe(duplex=False)
        child = ctx.Process(target=_lanes_in_child, args=(send,))
        child.start()
        try:
            assert receive.poll(60), "child returned nothing within 60 s"
            names, own_pool = receive.recv()
        finally:
            child.join(10)
            if child.is_alive():
                child.terminate()
                child.join(10)
        assert not child.is_alive() and child.exitcode == 0
        assert own_pool
        assert names[1].startswith("subflow-lane") and names[0] != names[1]


class TestBackward:
    def grad_fd(self, net, x, t, r, c, k, cot, i, eps=1e-6):
        saved = net.params[i]
        net.params[i] = saved + eps
        up = float(np.sum(cot * net.forward_batch(x, t, r, c, k)))
        net.params[i] = saved - eps
        dn = float(np.sum(cot * net.forward_batch(x, t, r, c, k)))
        net.params[i] = saved
        return (up - dn) / (2 * eps)

    @pytest.mark.parametrize("uses_interval, from_forward", [
        (False, False), (True, False), (False, True), (True, True)],
        ids=["False", "True", "False-cache", "True-cache"])
    def test_gradient_matches_finite_differences(self, uses_interval,
                                                 from_forward):
        """Layer 0's embedding columns, b0, both tables and 50 random
        parameter coordinates, relative error < 1e-4.

        Checked on the cache of each pass a loss runs: `forward_batch`'s
        (ids ending in -cache) and `jvp_batch`'s.
        """
        cfg = NetConfig(num_classes=2, num_submodes=2, hidden_width=8,
                        hidden_layers=2, embed_dim=3,
                        uses_interval=uses_interval)
        net = random_net(cfg, seed=3)
        rng = np.random.default_rng(5)
        n = 6
        x = rng.standard_normal((n, 2))
        t = rng.uniform(0, 1, n)
        r = np.minimum(t, rng.uniform(0, 1, n)) if uses_interval else None
        c = rng.integers(0, 3, n)
        k = rng.integers(-1, 2, n)
        # rows of the null class and rows with k = -1, in other contexts
        assert np.any(c == cfg.null_class) and np.any(c < cfg.null_class)
        assert np.any(k == -1) and np.any(k >= 0)
        cot = rng.standard_normal((n, 2))
        if from_forward:
            _, cache = net.forward_batch(x, t, r, c, k, cache=True)
        else:
            dr = None if r is None else np.ones(n)
            _, _, cache = net.jvp_batch(x, t, r, c, k, x, t, dr, cache=True)
        grad = net.backward(cot, cache)
        # every coordinate that reads the per-context sums of layer 0, and
        # b0, then 50 random coordinates
        index = np.arange(net.num_params)
        coords = [net.view("w0", index)[:, -2 * cfg.embed_dim:],
                  *(net.view(name, index)
                    for name in ("b0", "class_emb", "submode_emb")),
                  rng.choice(net.num_params, size=50, replace=False)]
        for i in np.concatenate([a.ravel() for a in coords]):
            fd = self.grad_fd(net, x, t, r, c, k, cot, i)
            denom = max(abs(fd), abs(grad[i]), 1e-8)
            assert abs(grad[i] - fd) / denom < 1e-4, (i, grad[i], fd)

    def test_embedding_rows_accumulate(self):
        # two samples sharing a class row must sum their contributions
        cfg = tiny_config()
        net = random_net(cfg, seed=9)
        x = np.array([[0.1, 0.2], [0.3, -0.4]])
        t = np.array([0.2, 0.8])
        c = np.array([1, 1])
        k = np.array([0, 1])
        cot = np.ones((2, 2))
        def grad(rows):
            _, cache = net.forward_batch(x[rows], t[rows], None, c[rows],
                                         k[rows], cache=True)
            return net.backward(cot[rows], cache)
        grad_both = grad(slice(None))
        g1, g2 = grad(slice(0, 1)), grad(slice(1, 2))
        np.testing.assert_allclose(grad_both, g1 + g2, atol=1e-12)

    def test_unused_contexts_get_exact_zeros(self):
        """The gradient is written block by block into uninitialised
        memory: on a batch of one class with no sub-mode, the other class
        rows, the sub-mode table and its columns of W0 get exact zeros, and
        every entry is finite."""
        cfg = NetConfig(num_classes=2, num_submodes=2, uses_interval=True)
        net = random_net(cfg, seed=2, scale=0.1)
        rng = np.random.default_rng(6)
        n = BLOCK_ROWS
        t = rng.uniform(0, 1, n)
        rows = (rng.standard_normal((n, 2)), t, t * rng.uniform(0, 1, n),
                np.zeros(n, dtype=np.int64), np.full(n, -1))
        cot = rng.standard_normal((n, 2))
        _, cache = net.forward_batch(*rows, cache=True)
        junk = np.full(net.num_params, np.nan)  # memory the gradient may reuse
        del junk
        grad = net.backward(cot, cache)
        assert np.all(np.isfinite(grad))
        d = cfg.embed_dim
        assert np.all(net.view("class_emb", grad)[1:] == 0.0)
        assert np.all(net.view("submode_emb", grad) == 0.0)
        assert np.all(net.view("w0", grad)[:, -d:] == 0.0)
        assert np.any(net.view("class_emb", grad)[0] != 0.0)

    def test_cotangent_shape_checked(self):
        net = VelocityNet(tiny_config())
        inputs = (np.zeros((2, 2)), np.zeros(2), None,
                  np.zeros(2, dtype=int), np.zeros(2, dtype=int))
        _, cache = net.forward_batch(*inputs, cache=True)
        with pytest.raises(ValueError, match="cotangent"):
            net.backward(np.zeros((3, 2)), cache)


class TestJvp:
    @pytest.mark.parametrize("uses_interval", [False, True])
    def test_matches_central_differences(self, uses_interval):
        cfg = NetConfig(num_classes=2, num_submodes=3, hidden_width=16,
                        hidden_layers=2, embed_dim=4,
                        uses_interval=uses_interval)
        net = random_net(cfg, seed=1)
        rng = np.random.default_rng(2)
        x = rng.standard_normal((1, 2))
        t = np.array([0.45])
        r = np.array([0.2]) if uses_interval else None
        dx = rng.standard_normal((1, 2))
        dt = np.array([0.7])
        dr = np.array([0.4]) if uses_interval else None
        jvp = net.jvp_batch(x, t, r, [1], [0], dx, dt, dr)
        eps = 1e-6
        up = net.forward_batch(x + eps * dx, t + eps * dt,
                               None if r is None else r + eps * dr, [1], [0])
        dn = net.forward_batch(x - eps * dx, t - eps * dt,
                               None if r is None else r - eps * dr, [1], [0])
        fd = (up - dn) / (2 * eps)
        assert np.max(np.abs(jvp - fd)) < 1e-5

    def test_linearity(self):
        cfg = tiny_config(uses_interval=True)
        net = random_net(cfg, seed=6)
        rng = np.random.default_rng(3)
        x = rng.standard_normal((1, 2))
        u = (rng.standard_normal((1, 2)), np.array([0.3]), np.array([0.1]))
        w = (rng.standard_normal((1, 2)), np.array([-0.9]), np.array([0.5]))
        a, b = 1.7, -0.4

        def jvp(dx, dt, dr):
            return net.jvp_batch(x, [0.6], [0.2], [0], [1], dx, dt, dr)

        combo = jvp(a * u[0] + b * w[0], a * u[1] + b * w[1],
                    a * u[2] + b * w[2])
        parts = a * jvp(*u) + b * jvp(*w)
        np.testing.assert_allclose(combo, parts, atol=1e-10)

    @pytest.mark.parametrize("uses_interval", [False, True])
    def test_cached_pass_matches_forward_and_tangent_only(self, uses_interval):
        """cache=True returns forward_batch's output and cache, bit for bit."""
        cfg = NetConfig(num_classes=2, num_submodes=2, hidden_width=16,
                        hidden_layers=2, embed_dim=3,
                        uses_interval=uses_interval)
        net = random_net(cfg, seed=4)
        rng = np.random.default_rng(9)
        n = 12
        x = rng.standard_normal((n, 2))
        t = rng.uniform(0, 1, n)
        r = t * rng.uniform(0, 1, n) if uses_interval else None
        dr = rng.standard_normal(n) if uses_interval else None
        c = rng.integers(0, 3, n)
        k = rng.integers(-1, 2, n)
        dx = rng.standard_normal((n, 2))
        dt = rng.standard_normal(n)
        out, tangent, (hs, ds, c_arr, k_arr) = net.jvp_batch(
            x, t, r, c, k, dx, dt, dr, cache=True)
        ref_out, (ref_hs, ref_ds, ref_c, ref_k) = net.forward_batch(
            x, t, r, c, k, cache=True)
        assert np.array_equal(out, ref_out)
        assert np.array_equal(tangent,
                              net.jvp_batch(x, t, r, c, k, dx, dt, dr))
        cached = [*hs, *ds, c_arr, k_arr]
        ref = [*ref_hs, *ref_ds, ref_c, ref_k]
        assert len(cached) == len(ref)
        assert all(np.array_equal(a, b) for a, b in zip(cached, ref))

    @staticmethod
    def wide_batch(uses_interval, n=40, seed=0):
        """A 128-wide net, n rows with r < t, and tangents in every input."""
        cfg = NetConfig(num_classes=2, num_submodes=2,
                        uses_interval=uses_interval)
        net = random_net(cfg, seed=seed, scale=0.1)
        rng = np.random.default_rng(seed + 1)
        t = rng.uniform(0, 1, n)
        rows = (rng.standard_normal((n, 2)), t,
                t * rng.uniform(0, 1, n) if uses_interval else None,
                rng.integers(0, 3, n), rng.integers(-1, 2, n))
        tangents = (rng.standard_normal((n, 2)), rng.standard_normal(n),
                    rng.standard_normal(n) if uses_interval else None)
        return net, rows, tangents

    @pytest.mark.parametrize("uses_interval", [False, True])
    @pytest.mark.parametrize("idx", [[], [17], list(range(40))],
                             ids=["empty", "one", "all"])
    def test_selected_rows_match_the_full_tangent(self, uses_interval, idx):
        net, rows, tangents = self.wide_batch(uses_interval)
        full = net.jvp_batch(*rows, *tangents)
        idx = np.array(idx, dtype=np.int64)
        out, part, _ = net.jvp_batch(*rows, *tangents, rows=idx, cache=True)
        assert part.shape == (len(idx), 2)
        assert np.array_equal(out, net.forward_batch(*rows))
        scale = np.max(np.abs(full))
        assert np.max(np.abs(part - full[idx]), initial=0.0) <= 1e-12 * scale

    @pytest.mark.parametrize("uses_interval", [False, True])
    def test_zero_time_tangent_drops_its_columns(self, uses_interval):
        """A dt that is zero on every row adds no columns to the first
        product; the tangent equals its linear decomposition through a
        nonzero dt, whose t columns are carried."""
        net, rows, (dx, dt, dr) = self.wide_batch(uses_interval)
        zero = np.zeros_like(dt)
        dropped = net.jvp_batch(*rows, dx, zero, dr)
        carried = (net.jvp_batch(*rows, dx, dt, dr)
                   - net.jvp_batch(*rows, np.zeros_like(dx), dt,
                                   None if dr is None else np.zeros_like(dr)))
        scale = np.max(np.abs(dropped))
        assert np.max(np.abs(dropped - carried)) <= 1e-12 * scale

    @pytest.mark.parametrize("uses_interval, dr, rows, match", [
        (True, np.zeros(4), None, "tangent shape mismatch"),
        (True, np.float64(1.0), None, "tangent shape mismatch"),
        (False, np.zeros(3), None, "dr must be None"),
        (True, None, [[0, 1]], "1-D integer"),
        (True, None, [0.0, 1.0], "1-D integer"),
        (True, None, np.int64(1), "1-D integer"),
        (True, None, [0, 3], "1-D integer"),
        (True, None, [-1], "1-D integer"),
    ], ids=["dr-long", "dr-0d", "dr-no-interval", "rows-2d", "rows-float",
            "rows-0d", "rows-past-end", "rows-negative"])
    def test_tangent_inputs_checked(self, uses_interval, dr, rows, match):
        """A dr of the wrong shape, a dr on a net without an interval and
        rows that are not 1-D integer indices in range are refused."""
        net = random_net(tiny_config(uses_interval), seed=0)
        inputs = (np.zeros((3, 2)), np.full(3, 0.5),
                  np.full(3, 0.2) if uses_interval else None, [0, 1, 2],
                  [0, 1, -1])
        with pytest.raises(ValueError, match=match):
            net.jvp_batch(*inputs, np.zeros((3, 2)), np.zeros(3), dr,
                          rows=rows)

    def test_zero_tangent_gives_zero(self):
        net = random_net(tiny_config(), seed=0)
        out = net.jvp_batch(np.ones((1, 2)), [0.5], None, [0], [0],
                            np.zeros((1, 2)), [0.0])
        np.testing.assert_array_equal(out, np.zeros((1, 2)))

    @settings(deadline=None, max_examples=25)
    @given(t=st.floats(0.01, 0.99), dt=st.floats(-2, 2))
    def test_time_direction_consistency(self, t, dt):
        """jvp in t alone equals the derivative of the time encoding path."""
        net = random_net(tiny_config(), seed=11)
        x = np.array([[0.4, -0.2]])
        jvp = net.jvp_batch(x, [t], None, [0], [0], np.zeros((1, 2)), [dt])
        eps = 1e-7
        fd = (net.forward_batch(x, [t + eps * dt], None, [0], [0])
              - net.forward_batch(x, [t - eps * dt], None, [0], [0])) / (2 * eps)
        np.testing.assert_allclose(jvp, fd, atol=5e-5)


class TestLayoutAndViews:
    def test_param_count_consistent(self):
        cfg = NetConfig(num_classes=2, num_submodes=2)
        net = VelocityNet(cfg)
        total = sum(int(np.prod(shape)) for _, shape in net.layout)
        assert net.num_params == total == len(net.params)

    def test_input_dim(self):
        cfg = tiny_config()
        assert cfg.input_dim == 2 + TIME_ENC_DIM + 2 * cfg.embed_dim
        cfg2 = tiny_config(uses_interval=True)
        assert cfg2.input_dim == 2 + 2 * TIME_ENC_DIM + 2 * cfg2.embed_dim

    def test_views_alias_flat_params(self):
        net = VelocityNet(tiny_config())
        net.view("b_out")[:] = 7.0
        assert np.sum(net.params == 7.0) == 2

    def test_wrong_param_length_rejected(self):
        with pytest.raises(ValueError):
            VelocityNet(tiny_config(), params=np.zeros(3))

    def test_unknown_view_name(self):
        with pytest.raises(KeyError):
            VelocityNet(tiny_config()).view("w9")

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            NetConfig(num_classes=0, num_submodes=1)


class TestBoundViews:
    """A net binds its named views of `params` once; every update writes
    `params` in place, so no pass reads a stale value."""

    @staticmethod
    def net_and_rows(uses_interval=True, n=300):
        cfg = NetConfig(num_classes=2, num_submodes=3, hidden_width=16,
                        uses_interval=uses_interval)
        rng = np.random.default_rng(21)
        t = rng.random(n)
        rows = (rng.standard_normal((n, 2)), t,
                t * rng.random(n) if uses_interval else None,
                rng.integers(0, cfg.null_class + 1, n),
                rng.integers(-1, cfg.num_submodes, n))
        return random_net(cfg, seed=22), rows

    @staticmethod
    def assert_current(net, rows, before):
        """The net's outputs moved from `before` and equal those of a
        fresh net over a copy of its parameters, bit for bit."""
        fresh = VelocityNet(net.config, net.params.copy())
        out = net.forward_batch(*rows)
        assert not np.array_equal(out, before)
        assert np.array_equal(out, fresh.forward_batch(*rows))
        tangents = (rows[0], rows[1], rows[1])
        got, want = (m.jvp_batch(*rows, *tangents, cache=True)
                     for m in (net, fresh))
        assert all(np.array_equal(a, b) for a, b in zip(got[:2], want[:2]))
        assert np.array_equal(net.backward(got[0], got[2]),
                              fresh.backward(want[0], want[2]))

    def test_adam_step(self):
        net, rows = self.net_and_rows()
        before = net.forward_batch(*rows)
        state = objectives.TrainState.fresh(net)
        x0 = np.zeros((len(rows[0]), 2))
        _, grad = objectives.meanflow_loss(net, x0, rows[0], rows[3],
                                           rows[4], rows[2], rows[1])
        objectives.adam_update(state, grad, objectives.TrainConfig())
        self.assert_current(net, rows, before)

    def test_slice_assignment(self):
        net, rows = self.net_and_rows()
        before = net.forward_batch(*rows)
        net.params[:] = 0.3 * np.random.default_rng(5).standard_normal(
            net.num_params)
        self.assert_current(net, rows, before)

    def test_loaded_checkpoint(self, tmp_path):
        """load_checkpoint builds its net, then writes the file's
        parameters into it: the net computes with those parameters."""
        net, rows = self.net_and_rows()
        path = tmp_path / "run.checkpoint.bin"
        table = SubmodeTable.from_counts({0: [3, 2, 1], 1: [1, 1, 1]})
        io.save_checkpoint(path, net, net.params, 0,
                           {"objective": "meanflow", "conditioning": "subflow",
                            "source_std": 0.1}, table)
        loaded = io.load_checkpoint(path)[0]
        self.assert_current(loaded, rows,
                            VelocityNet(net.config).forward_batch(*rows))
        assert np.array_equal(loaded.forward_batch(*rows),
                              net.forward_batch(*rows))

    def test_shares_the_callers_array(self):
        """A net built over a float64 array computes with that array, as
        pipeline.load_run's EMA net does; params cannot be rebound, but an
        in-place operator on them still works."""
        net, rows = self.net_and_rows()
        params = net.params.copy()
        shared = VelocityNet(net.config, params)
        assert shared.params is params
        before = shared.forward_batch(*rows)
        params *= 1.5
        self.assert_current(shared, rows, before)
        shared.params -= 0.01
        assert shared.params is params
        with pytest.raises(AttributeError, match="in place"):
            shared.params = params.copy()

    def test_pickled_copy_binds_its_own_params(self):
        net, rows = self.net_and_rows()
        before = net.forward_batch(*rows)
        copy = pickle.loads(pickle.dumps(net))
        assert np.array_equal(copy.forward_batch(*rows), before)
        assert not np.shares_memory(copy.params, net.params)
        copy.params[:] = 0.3 * np.random.default_rng(6).standard_normal(
            copy.num_params)
        self.assert_current(copy, rows, before)
        assert np.array_equal(net.forward_batch(*rows), before)
