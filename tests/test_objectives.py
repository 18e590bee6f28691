"""Loss, optimizer, and training-loop tests.

The meanflow total-derivative term gets a finite-difference oracle; losses
get hand-computed reference values on constructed nets.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from subflow import mixture, objectives
from subflow.mixture import MixtureComponent, MixtureSpec
from subflow.net import NetConfig, VelocityNet
from subflow.objectives import (RT_EQUAL_FRACTION, TrainConfig, TrainState,
                                _condition_inputs, adam_update, cfm_loss,
                                draw_times, meanflow_loss, train)
from subflow.rng import stream


def small_net(uses_interval=False, seed=0, scale=0.3) -> VelocityNet:
    cfg = NetConfig(num_classes=2, num_submodes=2, hidden_width=8,
                    hidden_layers=2, embed_dim=3, uses_interval=uses_interval)
    net = VelocityNet(cfg)
    net.params[:] = scale * np.random.default_rng(seed).standard_normal(
        net.num_params)
    return net


def constant_net(vector, uses_interval=False) -> VelocityNet:
    """Net whose output is the given constant vector everywhere."""
    cfg = NetConfig(num_classes=2, num_submodes=2, hidden_width=4,
                    hidden_layers=1, embed_dim=2, uses_interval=uses_interval)
    net = VelocityNet(cfg)
    net.view("b_out")[:] = np.asarray(vector, dtype=np.float64)
    return net


class TestTrainConfig:
    def test_rejects_unknown_objective(self):
        with pytest.raises(ValueError):
            TrainConfig(objective="ddpm")

    def test_rejects_unknown_conditioning(self):
        with pytest.raises(ValueError):
            TrainConfig(conditioning="pixel")

    def test_rejects_bad_probability(self):
        with pytest.raises(ValueError):
            TrainConfig(p_drop_class=1.5)

    def test_uses_interval_only_for_meanflow(self):
        assert not TrainConfig(objective="cfm").uses_interval
        assert TrainConfig(objective="meanflow").uses_interval

    @pytest.mark.parametrize("objective", list(objectives.OBJECTIVES))
    def test_entry_interval_is_the_trained_nets(self, objective):
        """An entry's interval flag is what the net `train` builds takes."""
        spec = mixture.toy_spec()
        state, _ = train(mixture.sample_dataset(spec, 50, 0), spec,
                         TrainConfig(objective=objective, steps=0))
        assert (state.net.config.uses_interval
                == objectives.OBJECTIVES[objective].interval)


class TestCfgDropout:
    """Class dropout as training applies it, in _condition_inputs."""

    def test_extremes(self):
        net = small_net()
        rng = np.random.default_rng(0)
        c = np.array([0, 1, 1, 0])
        k = np.array([1, 0, 1, 0])
        null = net.config.null_class
        for conditioning in ("class", "subflow"):
            kept, _ = _condition_inputs(
                net, c, k, TrainConfig(conditioning=conditioning,
                                       p_drop_class=0.0), rng)
            dropped, k_in = _condition_inputs(
                net, c, k, TrainConfig(conditioning=conditioning,
                                       p_drop_class=1.0), rng)
            np.testing.assert_array_equal(kept, c)
            np.testing.assert_array_equal(dropped, np.full(4, null))
        # under subflow conditioning the sub-mode index survives class dropout
        np.testing.assert_array_equal(k_in, k)

    def test_empirical_rate(self):
        net = small_net()
        rng = np.random.default_rng(1)
        c = np.zeros(100000, dtype=np.int64)
        c_in, k_in = _condition_inputs(net, c, np.full(100000, -1),
                                       TrainConfig(p_drop_class=0.1), rng)
        assert abs(np.mean(c_in == net.config.null_class) - 0.1) < 0.01
        assert np.all(c_in[c_in != net.config.null_class] == 0)
        assert np.all(k_in == -1)


class TestCfmLoss:
    def test_zero_net_single_pair(self):
        net = VelocityNet(NetConfig(num_classes=2, num_submodes=2))
        loss, _ = cfm_loss(net, [[0.0, 0.0]], [[3.0, 4.0]], [0], [-1], None,
                           [0.5])
        assert loss == pytest.approx(25.0)

    def test_exact_net_zero_loss(self):
        # constant-output net, batch whose velocity equals that constant
        net = constant_net([2.0, -1.0])
        x0 = np.array([[1.0, 1.0], [0.0, 3.0]])
        x1 = x0 + np.array([2.0, -1.0])
        loss, grad = cfm_loss(net, x0, x1, [0, 1], [-1, -1], None,
                              [0.2, 0.9])
        assert loss == pytest.approx(0.0, abs=1e-24)
        np.testing.assert_allclose(grad, 0.0, atol=1e-12)

    def test_matches_hand_matrix_computation(self):
        """Two-element batch against an independent transcription."""
        net = small_net(seed=12)
        x0 = np.array([[0.5, -0.5], [1.0, 0.0]])
        x1 = np.array([[2.0, 1.0], [-1.0, 1.5]])
        t = np.array([0.3, 0.7])
        c = np.array([0, 1])
        k = np.array([-1, -1])
        loss, _ = cfm_loss(net, x0, x1, c, k, None, t)
        xt = (1 - t)[:, None] * x0 + t[:, None] * x1
        preds = np.concatenate([
            net.forward_batch(xt[i:i + 1], t[i:i + 1], None, c[i:i + 1],
                              k[i:i + 1]) for i in range(2)])
        expected = float(np.mean(np.sum((preds - (x1 - x0)) ** 2, axis=1)))
        assert loss == pytest.approx(expected, rel=1e-12)

    def test_gradient_finite_differences(self):
        net = small_net(seed=2)
        rng = np.random.default_rng(3)
        x0 = rng.standard_normal((5, 2))
        x1 = rng.standard_normal((5, 2)) + 2.0
        t = rng.uniform(0, 1, 5)
        c = rng.integers(0, 2, 5)
        k = rng.integers(0, 2, 5)
        _, grad = cfm_loss(net, x0, x1, c, k, None, t)
        eps = 1e-6
        for i in rng.choice(net.num_params, size=25, replace=False):
            net.params[i] += eps
            up, _ = cfm_loss(net, x0, x1, c, k, None, t)
            net.params[i] -= 2 * eps
            dn, _ = cfm_loss(net, x0, x1, c, k, None, t)
            net.params[i] += eps
            fd = (up - dn) / (2 * eps)
            denom = max(abs(fd), abs(grad[i]), 1e-8)
            assert abs(grad[i] - fd) / denom < 1e-4

    def test_batch_permutation_invariance(self):
        net = small_net(seed=5)
        rng = np.random.default_rng(6)
        x0 = rng.standard_normal((8, 2))
        x1 = rng.standard_normal((8, 2))
        t = rng.uniform(0, 1, 8)
        c = rng.integers(0, 2, 8)
        k = np.full(8, -1)
        loss_a, _ = cfm_loss(net, x0, x1, c, k, None, t)
        perm = rng.permutation(8)
        loss_b, _ = cfm_loss(net, x0[perm], x1[perm], c[perm], k[perm],
                             None, t[perm])
        assert loss_a == pytest.approx(loss_b, rel=1e-12)

    def test_submode_labels_change_loss(self):
        """Permuting k within the batch moves the loss (non-degeneracy)."""
        net = small_net(seed=8)
        x0 = np.zeros((4, 2))
        x1 = np.array([[1.0, 0], [0, 1.0], [-1.0, 0], [0, -1.0]])
        t = np.full(4, 0.5)
        c = np.array([0, 0, 1, 1])
        k = np.array([0, 1, 0, 1])
        loss_a, _ = cfm_loss(net, x0, x1, c, k, None, t)
        loss_b, _ = cfm_loss(net, x0, x1, c, k[::-1].copy(), None, t)
        assert abs(loss_a - loss_b) > 1e-8

    def test_subflow_requires_labels(self):
        net = small_net()
        with pytest.raises(ValueError, match="submode"):
            _condition_inputs(net, np.array([0]), np.array([-1]),
                              TrainConfig(conditioning="subflow"),
                              np.random.default_rng(0))

    def test_empty_batch_rejected(self):
        net = small_net()
        with pytest.raises(ValueError):
            cfm_loss(net, np.zeros((0, 2)), np.zeros((0, 2)), [], [], None,
                     [])

    def test_interval_rejected(self):
        """cfm draws no interval: an r is a caller's mistake, not ignored."""
        with pytest.raises(ValueError, match="r must be None"):
            cfm_loss(small_net(uses_interval=True), [[0, 0]], [[1, 1]], [0],
                     [-1], [0.2], [0.5])


class TestMeanflowLoss:
    def test_requires_interval_net(self):
        net = small_net(uses_interval=False)
        with pytest.raises(ValueError, match="interval"):
            meanflow_loss(net, [[0, 0]], [[1, 1]], [0], [-1], [0.2], [0.5])

    def test_r_equal_t_reduces_to_cfm(self):
        net = small_net(uses_interval=True, seed=4)
        rng = np.random.default_rng(1)
        x0 = rng.standard_normal((6, 2))
        x1 = rng.standard_normal((6, 2))
        t = rng.uniform(0, 1, 6)
        c = rng.integers(0, 2, 6)
        k = np.full(6, -1)
        loss_mf, grad_mf = meanflow_loss(net, x0, x1, c, k, t, t)
        loss_cfm, grad_cfm = cfm_loss(net, x0, x1, c, k, None, t)
        assert loss_mf == pytest.approx(loss_cfm, rel=1e-12)
        np.testing.assert_allclose(grad_mf, grad_cfm, atol=1e-12)

    def test_tangent_only_on_rows_with_r_below_t(self, monkeypatch):
        """The jvp pass forms du/dr on the r < t rows alone: there the
        target is v + (t - r) du/dr, and on r = t rows it is v, bit for
        bit."""
        net = small_net(uses_interval=True, seed=12)
        rng = np.random.default_rng(13)
        n = 16
        x0, x1 = rng.standard_normal((n, 2)), rng.standard_normal((n, 2))
        r, t = draw_times(n, 0.5, rng)
        below = r < t
        assert np.any(below) and not np.all(below)
        c, k = rng.integers(0, 3, n), rng.integers(-1, 2, n)
        seen = {}
        jvp = net.jvp_batch

        def spy_jvp(*args, rows=None, **kwargs):
            seen["rows"] = rows
            return jvp(*args, rows=rows, **kwargs)

        def regression(net, x0, x1, r, t, net_pass):
            seen["x_r"] = (1 - r)[:, None] * x0 + r[:, None] * x1
            seen["target"] = net_pass(seen["x_r"], t, r, x1 - x0)[1]
            return 0.0, None

        monkeypatch.setattr(net, "jvp_batch", spy_jvp)
        monkeypatch.setattr(objectives, "_regression", regression)
        meanflow_loss(net, x0, x1, c, k, r, t)
        assert np.array_equal(seen["rows"], np.flatnonzero(below))
        v, target = x1 - x0, seen["target"]
        assert np.array_equal(target[~below], v[~below])
        dudr = jvp(seen["x_r"], t, r, c, k, v, np.zeros(n), np.ones(n))
        np.testing.assert_allclose(target[below],
                                   (v + (t - r)[:, None] * dudr)[below],
                                   rtol=1e-12)

    def test_constant_field_target_is_v(self):
        g = np.array([1.5, -0.5])
        net = constant_net(g, uses_interval=True)
        x0 = np.array([[0.0, 0.0], [1.0, 1.0]])
        x1 = np.array([[1.0, 0.0], [0.0, 2.0]])
        r = np.array([0.1, 0.3])
        t = np.array([0.9, 0.8])
        loss, _ = meanflow_loss(net, x0, x1, [0, 1], [-1, -1], r, t)
        v = x1 - x0
        expected = float(np.mean(np.sum((g - v) ** 2, axis=1)))
        assert loss == pytest.approx(expected, rel=1e-12)

    def test_total_derivative_matches_finite_differences(self):
        """The jvp-based du/dr term against central differences along the path.

        Perturbing r by eps moves the interpolation point by eps * v, so the
        path derivative is forward(x_r + eps v, t, r + eps) differenced.
        """
        net = small_net(uses_interval=True, seed=10)
        rng = np.random.default_rng(11)
        x0 = rng.standard_normal((1, 2))
        x1 = rng.standard_normal((1, 2)) + 1.0
        v = x1 - x0
        r, t = np.array([0.25]), np.array([0.8])
        x_r = (1 - r) * x0 + r * x1
        jvp = net.jvp_batch(x_r, t, r, [1], [0], dx=v, dt=[0.0], dr=[1.0])
        eps = 1e-6
        up = net.forward_batch(x_r + eps * v, t, r + eps, [1], [0])
        dn = net.forward_batch(x_r - eps * v, t, r - eps, [1], [0])
        fd = (up - dn) / (2 * eps)
        denom = np.maximum(np.abs(fd), 1e-8)
        assert np.max(np.abs(jvp - fd) / denom) < 1e-4

    def test_gradient_finite_differences(self):
        """FD check of the stop-gradient objective.

        The regression target is a constant under differentiation, so the
        reference loss freezes the target at the base parameters and only
        the prediction head moves with the perturbation.
        """
        net = small_net(uses_interval=True, seed=14)
        rng = np.random.default_rng(15)
        n = 4
        x0 = rng.standard_normal((n, 2))
        x1 = rng.standard_normal((n, 2))
        a = rng.uniform(0, 1, n)
        b = rng.uniform(0, 1, n)
        r, t = np.minimum(a, b), np.maximum(a, b)
        c = rng.integers(0, 2, n)
        k = rng.integers(0, 2, n)
        _, grad = meanflow_loss(net, x0, x1, c, k, r, t)

        x_r = (1 - r)[:, None] * x0 + r[:, None] * x1
        v = x1 - x0
        dudr = net.jvp_batch(x_r, t, r, c, k, dx=v, dt=np.zeros(n),
                             dr=np.ones(n))
        u_tgt = v + (t - r)[:, None] * dudr  # frozen at the base parameters

        def frozen_loss():
            pred = net.forward_batch(x_r, t, r, c, k)
            return float(np.mean(np.sum((pred - u_tgt) ** 2, axis=1)))

        eps = 1e-6
        for i in rng.choice(net.num_params, size=25, replace=False):
            net.params[i] += eps
            up = frozen_loss()
            net.params[i] -= 2 * eps
            dn = frozen_loss()
            net.params[i] += eps
            fd = (up - dn) / (2 * eps)
            denom = max(abs(fd), abs(grad[i]), 1e-8)
            assert abs(grad[i] - fd) / denom < 1e-4

    @pytest.mark.parametrize("r, t", [(None, np.nan), (np.nan, 0.5),
                                      (-0.1, 0.5), (0.5, 1.5)])
    def test_times_outside_unit_interval_rejected(self, r, t):
        """Both losses share the time checks; a NaN time fails them too."""
        net = small_net(uses_interval=True)
        loss = cfm_loss if r is None else meanflow_loss
        with pytest.raises(ValueError, match=r"times must be in \[0,1\]"):
            loss(net, [[0, 0]], [[1, 1]], [0], [-1],
                 None if r is None else [r], [t])

    def test_r_greater_than_t_rejected(self):
        net = small_net(uses_interval=True)
        with pytest.raises(ValueError, match="r must not exceed"):
            meanflow_loss(net, [[0, 0]], [[1, 1]], [0], [-1], [0.9], [0.5])


def three_pass_loss(net, objective, x0, x1, c_in, k_in, r, t):
    """Loss and gradient from separate passes: forward, tangent-only jvp,
    and a backward on the forward pass's cache (the unfused reference)."""
    x_s = (1.0 - r)[:, None] * x0 + r[:, None] * x1
    v = x1 - x0
    r_in = r if net.config.uses_interval else None
    pred, cache = net.forward_batch(x_s, t, r_in, c_in, k_in, cache=True)
    target = v
    if objective == "meanflow":
        dudr = net.jvp_batch(x_s, t, r, c_in, k_in, dx=v,
                             dt=np.zeros_like(t), dr=np.ones_like(r))
        target = v + (t - r)[:, None] * dudr
    resid = pred - target
    loss = float(np.mean(np.sum(resid ** 2, axis=1)))
    grad = net.backward(2.0 * resid / len(x0), cache)
    return loss, grad


class TestFusedPass:
    """The one-pass losses equal the three-pass composition, bit for bit."""

    @pytest.mark.parametrize("objective, uses_interval", [
        ("meanflow", True), ("cfm", False), ("cfm", True)])
    @pytest.mark.parametrize("p_drop_submode", [0.0, 0.4])
    def test_matches_unfused_composition(self, objective, uses_interval,
                                         p_drop_submode):
        net = small_net(uses_interval=uses_interval, seed=21)
        rng = np.random.default_rng(22)
        n = 64
        x0 = rng.standard_normal((n, 2))
        x1 = rng.standard_normal((n, 2)) + 1.0
        c = rng.integers(0, 2, n)
        k = rng.integers(0, 2, n)
        t = rng.uniform(0, 1, n)
        # meanflow rows with r < t and rows with r = t; cfm sits at r = t
        r = (np.where(rng.random(n) < 0.5, t, t * rng.uniform(0, 1, n))
             if objective == "meanflow" else t)
        cfg = TrainConfig(conditioning="subflow", p_drop_class=0.3,
                          p_drop_submode=p_drop_submode)
        c_in, k_in = _condition_inputs(net, c, k, cfg,
                                       np.random.default_rng(23))
        assert np.any(c_in == net.config.null_class)
        assert np.any(k_in == -1) == (p_drop_submode > 0)

        if objective == "meanflow":
            loss, grad = meanflow_loss(net, x0, x1, c_in, k_in, r, t)
        else:
            loss, grad = cfm_loss(net, x0, x1, c_in, k_in, None, t)
        ref_loss, ref_grad = three_pass_loss(net, objective, x0, x1, c_in,
                                             k_in, r, t)
        assert loss == ref_loss
        assert np.array_equal(grad, ref_grad)


class TestDrawTimes:
    @given(frac=st.floats(0.0, 1.0))
    @settings(deadline=None, max_examples=20)
    def test_ordering(self, frac):
        rng = np.random.default_rng(0)
        r, t = draw_times(500, frac, rng)
        assert np.all(r <= t)
        assert np.all((0 <= r) & (t <= 1))

    def test_equal_fraction(self):
        rng = np.random.default_rng(1)
        r, t = draw_times(100000, 0.75, rng)
        assert abs(np.mean(r == t) - 0.75) < 0.01


class TestAdamAndEma:
    def test_ema_is_convex_combination(self):
        net = small_net(seed=3)
        state = TrainState.fresh(net)
        cfg = TrainConfig(ema_decay=0.9)
        ema_before = state.ema_params.copy()
        grad = np.random.default_rng(0).standard_normal(net.num_params)
        adam_update(state, grad, cfg)
        expected = 0.9 * ema_before + 0.1 * net.params
        np.testing.assert_allclose(state.ema_params, expected, atol=1e-12)

    def test_first_step_is_signed_gradient_scale(self):
        # with bias correction, step 1 moves each coordinate by about lr * sign
        net = small_net(seed=3)
        state = TrainState.fresh(net)
        cfg = TrainConfig(learning_rate=1e-2)
        before = net.params.copy()
        grad = np.ones(net.num_params)
        adam_update(state, grad, cfg)
        np.testing.assert_allclose(before - net.params, 1e-2, rtol=1e-6)


class TestTrainLoop:
    def single_gaussian_dataset(self, n=2000, seed=0):
        spec = MixtureSpec(components=(
            MixtureComponent(1.0, (1.0, -1.0), 0.7, 0, 0),), source_std=1.0)
        return spec, mixture.sample_dataset(spec, n, seed)

    def test_zero_steps_returns_initialization(self):
        spec, data = self.single_gaussian_dataset()
        cfg = TrainConfig(steps=0, seed=1)
        state, losses = train(data, spec, cfg)
        ref = VelocityNet.initialized(state.net.config, 1)
        np.testing.assert_array_equal(state.net.params, ref.params)
        assert len(losses) == 0

    def test_deterministic(self):
        spec, data = self.single_gaussian_dataset(500)
        cfg = TrainConfig(steps=20, seed=5)
        s1, l1 = train(data, spec, cfg)
        s2, l2 = train(data, spec, cfg)
        assert np.array_equal(s1.net.params, s2.net.params)
        assert np.array_equal(l1, l2)

    def test_loss_decreases_over_seeds(self):
        """Mean of the last 10% of losses beats the first 10%, 10 seeds."""
        spec, _ = self.single_gaussian_dataset()
        wins = 0
        for seed in range(10):
            data = mixture.sample_dataset(spec, 1000, seed)
            cfg = TrainConfig(steps=200, seed=seed, batch_size=128)
            _, losses = train(data, spec, cfg)
            head = losses[:20].mean()
            tail = losses[-20:].mean()
            wins += tail < head
        assert wins == 10

    @pytest.mark.parametrize("objective, conditioning, p_drop_submode", [
        ("meanflow", "subflow", 0.3), ("cfm", "class", 0.0)])
    def test_matches_step_composed_by_hand(self, objective, conditioning,
                                           p_drop_submode):
        """A few steps of `train` equal the step written out, bit for bit:
        the stream's row and source draws, the times, `_condition_inputs`,
        the loss, then `adam_update`."""
        spec = mixture.toy_spec()
        data = mixture.sample_dataset(spec, 500, 0)
        cfg = TrainConfig(objective=objective, conditioning=conditioning,
                          p_drop_submode=p_drop_submode, steps=3,
                          batch_size=64, seed=7)
        state, losses = train(data, spec, cfg)

        xs, cs, ks = mixture.dataset_arrays(data)
        net = VelocityNet.initialized(state.net.config, cfg.seed)
        ref = TrainState.fresh(net)
        null = net.config.null_class
        saw_null_class = saw_null_submode = False
        for step in range(cfg.steps):
            rng = stream(cfg.seed, "train.step", step)
            idx = rng.integers(0, len(xs), size=cfg.batch_size)
            x0 = spec.source_std * rng.standard_normal((cfg.batch_size, 2))
            if objective == "meanflow":
                r, t = draw_times(cfg.batch_size, RT_EQUAL_FRACTION, rng)
            else:
                t = rng.random(cfg.batch_size)
            c, k = _condition_inputs(net, cs[idx], ks[idx], cfg, rng)
            saw_null_class |= bool(np.any(c == null))
            saw_null_submode |= bool(np.any(k == -1))
            if objective == "meanflow":
                loss, grad = meanflow_loss(net, x0, xs[idx], c, k, r, t)
            else:
                loss, grad = cfm_loss(net, x0, xs[idx], c, k, None, t)
            adam_update(ref, grad, cfg)
            assert loss == losses[step]
        # class dropout, and a sub-mode slot left empty, were exercised
        assert saw_null_class and saw_null_submode
        assert np.array_equal(ref.net.params, state.net.params)
        assert np.array_equal(ref.ema_params, state.ema_params)

    def test_subflow_needs_labels(self):
        spec, data = self.single_gaussian_dataset(100)
        data.submode_ids[:] = -1
        cfg = TrainConfig(conditioning="subflow", steps=1)
        with pytest.raises(ValueError, match="submode"):
            train(data, spec, cfg)

    def test_meanflow_smoke(self):
        spec, data = self.single_gaussian_dataset(500)
        cfg = TrainConfig(objective="meanflow", conditioning="uncond",
                          steps=10, seed=2)
        state, losses = train(data, spec, cfg)
        assert state.net.config.uses_interval
        assert np.all(np.isfinite(losses))
