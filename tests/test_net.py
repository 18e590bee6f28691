"""Network forward pass and hand-rolled autodiff tests.

The reverse-mode gradient and the forward-mode directional derivative are
checked against central finite differences, and the forward pass of a tiny
net is checked against an independent matrix-arithmetic transcription.
"""

import multiprocessing
import os
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from subflow import net as net_module
from subflow.net import (BLOCK_ROWS, FREQ_MAX, FREQ_MIN, N_FREQS, TIME_ENC_DIM,
                         NetConfig, VelocityNet)


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
        out = net.forward_batch(*rows)
        tangents = (np.ones((BLOCK_ROWS, 2)), np.ones(BLOCK_ROWS),
                    np.ones(BLOCK_ROWS) if uses_interval else None)
        fwd_out, fwd_cache = net.forward_batch(*rows, cache=True)
        jvp_out, _, jvp_cache = net.jvp_batch(*rows, *tangents, cache=True)
        for got, (hs, ds, c, k) in ((fwd_out, fwd_cache),
                                    (jvp_out, jvp_cache)):
            assert np.array_equal(got, out)
            arrays = [*hs, *ds, c, k]
            assert all(len(a) == BLOCK_ROWS for a in arrays)


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
    def test_cached_time_columns_are_the_row_encoding(self, uses_interval):
        """A cached pass's input features hold, in each time's columns, the
        per-row encoding, whether the rows share their time or not."""
        net, rows = TestBatchInvariance.wide_net_and_rows(uses_interval,
                                                          n=BLOCK_ROWS + 1)
        for batch in (rows, shared_time_rows(rows, BLOCK_ROWS + 1)):
            _, (hs, _, _, _) = net.forward_batch(*batch, cache=True)
            times = [s for s in batch[1:3] if s is not None]
            for i, s in enumerate(times):
                col = 2 + i * TIME_ENC_DIM
                assert np.array_equal(hs[0][:, col:col + TIME_ENC_DIM],
                                      net._time_enc(s))


def _forward_in_child(conn, net, rows):
    out = net.forward_batch(*rows)
    conn.send((out, net_module._pools["sweep"][0] == os.getpid()))


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

    def test_forked_child_gets_parent_bits(self, monkeypatch):
        """A child forked after the parent used its helper threads builds
        its own, and returns the parent's bits."""
        monkeypatch.setattr(net_module, "SWEEP_WORKERS", 2)
        net, rows = TestBatchInvariance.wide_net_and_rows(True)
        expected = net.forward_batch(*rows)
        assert net_module._pools["sweep"][0] == os.getpid()
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


class TestBackward:
    def grad_fd(self, net, x, t, r, c, k, cot, i, eps=1e-6):
        saved = net.params[i]
        net.params[i] = saved + eps
        up = float(np.sum(cot * net.forward_batch(x, t, r, c, k)))
        net.params[i] = saved - eps
        dn = float(np.sum(cot * net.forward_batch(x, t, r, c, k)))
        net.params[i] = saved
        return (up - dn) / (2 * eps)

    @pytest.mark.parametrize("uses_interval, cached", [
        (False, False), (True, False), (False, True), (True, True)],
        ids=["False", "True", "False-cache", "True-cache"])
    def test_gradient_matches_finite_differences(self, uses_interval, cached):
        """50 random parameter coordinates, relative error < 1e-4.

        Checked on the reference path (backward reruns the primal pass) and
        on the fused path (backward consumes the cache of one pass).
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
        cot = rng.standard_normal((n, 2))
        cache = None
        if cached:
            _, cache = net.forward_batch(x, t, r, c, k, cache=True)
        grad = net.backward(x, t, r, c, k, cot, cache=cache)
        for i in rng.choice(net.num_params, size=50, replace=False):
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
        grad_both = net.backward(x, t, None, c, k, cot)
        g1 = net.backward(x[:1], t[:1], None, c[:1], k[:1], cot[:1])
        g2 = net.backward(x[1:], t[1:], None, c[1:], k[1:], cot[1:])
        np.testing.assert_allclose(grad_both, g1 + g2, atol=1e-12)

    def test_cotangent_shape_checked(self):
        net = VelocityNet(tiny_config())
        inputs = (np.zeros((2, 2)), np.zeros(2), None,
                  np.zeros(2, dtype=int), np.zeros(2, dtype=int))
        with pytest.raises(ValueError, match="cotangent"):
            net.backward(*inputs, np.zeros((3, 2)))
        _, cache = net.forward_batch(*inputs, cache=True)
        with pytest.raises(ValueError, match="cotangent"):
            net.backward(*inputs, np.zeros((3, 2)), cache=cache)


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
