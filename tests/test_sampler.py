"""Sampler tests: Euler steps against hand integration, guidance arithmetic.

Constant and linear fields have exact Euler solutions, so endpoints are
checked in closed form.  The guidance combination is checked against direct
evaluation of both branches.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from subflow import mixture, pipeline, sampler
from subflow.clustering import SubmodeTable, assign_submodes
from subflow.config import parse_config
from subflow.mixture import oracle_velocity_batch, toy_spec
from subflow.net import NetConfig, VelocityNet
from subflow.rng import stream
from subflow.sampler import (SampleConfig, euler_integrate, generate,
                             net_field, sample_submode)


def tiny_net(uses_interval=False, seed=0):
    cfg = NetConfig(num_classes=2, num_submodes=2, hidden_width=8,
                    hidden_layers=1, embed_dim=2, uses_interval=uses_interval)
    return VelocityNet.initialized(cfg, seed)


def meta(conditioning="subflow"):
    """Run metadata as a checkpoint holds it."""
    return {"objective": "meanflow", "conditioning": conditioning,
            "source_std": 1.0}


def toy_table(n=4000, seed=0):
    data = mixture.sample_dataset(toy_spec(), n, seed)
    xs, cs, _ = mixture.dataset_arrays(data)
    return SubmodeTable.from_labels(
        assign_submodes({c: xs[cs == c] for c in (0, 1)}, 2, seed=seed), 2)


def rows(n, *ids):
    """Each id as an (n,) int64 column."""
    return [np.full(n, i, dtype=np.int64) for i in ids]


class TestSampleConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SampleConfig(count=0)
        with pytest.raises(ValueError):
            SampleConfig(count=1, nfe=0)
        with pytest.raises(ValueError):
            SampleConfig(count=1, guidance_scale=-0.5)
        with pytest.raises(ValueError):
            SampleConfig(count=1, submode_strategy="magic")
        with pytest.raises(ValueError, match="unknown submode strategy"):
            SampleConfig(count=1, submode_strategy="fixed")


class TestEulerIntegrate:
    def test_zero_field_identity(self):
        x0 = np.array([[1.0, -2.0], [0.5, 3.0]])
        out = euler_integrate(lambda x, t: np.zeros_like(x), x0, 7)
        np.testing.assert_allclose(out, x0)

    @settings(deadline=None, max_examples=20)
    @given(nfe=st.sampled_from([1, 2, 4, 8]),
           vx=st.floats(-3, 3), vy=st.floats(-3, 3))
    def test_constant_field_exact_any_nfe(self, nfe, vx, vy):
        """A constant field moves every point by exactly v regardless of nfe."""
        v = np.array([vx, vy])
        x0 = np.array([[0.0, 0.0], [1.0, 1.0]])
        out = euler_integrate(lambda x, t: np.tile(v, (len(x), 1)), x0, nfe)
        np.testing.assert_allclose(out, x0 + v, atol=1e-12)

    def test_linear_field_two_steps(self):
        # v(x) = x, x0 = (1, 0): Euler with h=1/2 gives (1+1/2)^2 = 2.25
        out = euler_integrate(lambda x, t: x, np.array([[1.0, 0.0]]), 2)
        np.testing.assert_allclose(out, [[2.25, 0.0]], atol=1e-12)

    def test_discretization_error_strictly_decreases(self):
        """Halving the step size shrinks the endpoint error for a smooth field.

        The analytic mixture field is integrated from fixed starting points;
        errors are measured against a 4096-step reference.
        """
        spec = toy_spec()
        rng = np.random.default_rng(0)
        x0 = rng.standard_normal((64, 2))

        def field(x, t):
            return oracle_velocity_batch(spec, x, t, *rows(len(x), 2, -1))

        ref = euler_integrate(field, x0, 4096)
        errs = []
        nfe = 2
        while nfe <= 128:
            end = euler_integrate(field, x0, nfe)
            errs.append(float(np.mean(np.linalg.norm(end - ref, axis=1))))
            nfe *= 2
        assert all(a > b for a, b in zip(errs, errs[1:]))


def guided(net, x, t, c, k, w):
    """The guided net_field on a batch of rows sharing (t, c, k), no r."""
    return net_field(net, *rows(len(x), c, k), w)(x, t)


def branch(net, x, t, c, k):
    """One unguided branch of the field, for the same rows."""
    n = len(x)
    return net.forward_batch(x, np.full(n, t), None,
                             np.full(n, c, dtype=np.int64),
                             np.full(n, k, dtype=np.int64))


class TestCfgVelocity:
    X = np.array([[0.3, -0.7], [0.1, 0.2], [-0.4, 0.9]])

    def test_w1_bit_identical_to_conditional(self):
        net = tiny_net()
        assert np.array_equal(guided(net, self.X, 0.4, 1, 0, 1.0),
                              branch(net, self.X, 0.4, 1, 0))

    def test_w0_is_null_branch(self):
        net = tiny_net()
        np.testing.assert_allclose(
            guided(net, self.X, 0.5, 0, 1, 0.0),
            branch(net, self.X, 0.5, net.config.null_class, 1), atol=1e-15)

    def test_w2_extrapolates(self):
        net = tiny_net()
        v_cond = branch(net, self.X, 0.3, 1, 1)
        v_null = branch(net, self.X, 0.3, net.config.null_class, 1)
        np.testing.assert_allclose(guided(net, self.X, 0.3, 1, 1, 2.0),
                                   v_null + 2.0 * (v_cond - v_null),
                                   atol=1e-14)

    def test_negative_w_rejected(self):
        """The guided field does not check w itself: a negative scale stops
        at the SampleConfig that generation builds from it."""
        with pytest.raises(ValueError, match="guidance"):
            pipeline.generate_all_classes(tiny_net(), None, meta("class"),
                                          parse_config(""), 10, 1, -1.0,
                                          "prior", 0)

    def test_same_submode_in_both_branches(self):
        """Zeroing out the class embeddings makes guidance collapse to the
        shared-k field for any w, confirming k enters both branches."""
        net = tiny_net()
        params = net.params.copy()
        clone = VelocityNet(net.config, params)
        clone.view("class_emb")[:] = 0.0
        for w in (0.0, 0.7, 1.0, 3.0):
            np.testing.assert_allclose(guided(clone, self.X, 0.6, 0, 1, w),
                                       branch(clone, self.X, 0.6, 0, 1),
                                       atol=1e-12)


class TestNetField:
    X = TestCfgVelocity.X

    def test_interval_net_averages_over_the_step(self):
        """At h an interval net is read over [s, s + h]: t = s + h, r = s;
        at h = 0, r = t = s."""
        net = tiny_net(uses_interval=True)
        n = len(self.X)
        assert np.array_equal(
            net_field(net, *rows(n, 1, 0), h=0.25)(self.X, 0.5),
            net.forward_batch(self.X, np.full(n, 0.75), np.full(n, 0.5),
                              *rows(n, 1, 0)))
        assert np.array_equal(
            net_field(net, *rows(n, 1, 0))(self.X, 0.5),
            net.forward_batch(self.X, np.full(n, 0.5), np.full(n, 0.5),
                              *rows(n, 1, 0)))

    def test_plain_net_ignores_h(self):
        net = tiny_net()
        expected = branch(net, self.X, 0.5, 1, 0)
        for h in (0.0, 0.25, 1.0):
            assert np.array_equal(
                net_field(net, *rows(len(self.X), 1, 0), h=h)(self.X, 0.5),
                expected)

    def test_per_row_ids_pass_through(self):
        """The arrays hold one index per row: a mixed batch equals each
        row's own context, and a wrong length is refused, not broadcast."""
        net = tiny_net()
        cs, ks = np.array([0, 1, 2]), np.array([1, -1, 0])
        out = net_field(net, cs, ks)(self.X, 0.4)
        for i in range(len(self.X)):
            assert np.array_equal(
                out[i:i + 1],
                net_field(net, cs[i:i + 1], ks[i:i + 1])(self.X[i:i + 1],
                                                         0.4))
        for c, k in ((cs[:2], ks), (cs, ks[:2]), (cs[:1], ks[:1])):
            with pytest.raises(ValueError, match="shape"):
                net_field(net, c, k)(self.X, 0.4)

    @pytest.mark.parametrize("conditioning", ["uncond", "class", "subflow"])
    @pytest.mark.parametrize("w", [1.0, 1.5])
    def test_one_step_generation_is_one_field_step(self, conditioning, w):
        """At NFE 1, generate moves the noise by the net's field over the
        whole interval [0, 1], bit for bit."""
        net = tiny_net(uses_interval=True)
        batch = generate(net, toy_table(), meta(conditioning),
                         SampleConfig(count=5, guidance_scale=w), 1, 2)
        x0 = stream(2, "sample.noise").standard_normal((5, 2))
        c = net.config.null_class if conditioning == "uncond" else 1
        field = net_field(net, np.full(5, c), batch.submode_ids, w, h=1.0)
        assert np.array_equal(batch.xs, x0 + field(x0, 0.0))


class TestSampleSubmode:
    def test_prior_frequencies(self):
        table = toy_table()
        draws = sample_submode(table, 0, "prior", stream(3, "t"), 20000)
        assert draws.shape == (20000,) and draws.dtype == np.int64
        freq = np.bincount(draws, minlength=2) / len(draws)
        prior = table.per_class[0].priors
        np.testing.assert_allclose(np.sort(freq), np.sort(prior), atol=0.01)

    def test_uniform_frequencies(self):
        table = toy_table()
        draws = sample_submode(table, 1, "uniform", stream(4, "t"), 20000)
        assert draws.shape == (20000,) and draws.dtype == np.int64
        freq = np.bincount(draws, minlength=2) / len(draws)
        np.testing.assert_allclose(freq, 0.5, atol=0.01)

    def test_fixed_returns_index(self):
        """A fixed sub-mode overrides either strategy."""
        table = toy_table()
        for strategy in sampler.STRATEGIES:
            draws = sample_submode(table, 0, strategy, stream(0, "t"), 5,
                                   fixed=1)
            np.testing.assert_array_equal(draws, np.ones(5, dtype=np.int64))
            assert draws.dtype == np.int64

    def test_fixed_needs_index(self):
        """-1 is the default, no fixed sub-mode; other negatives are not
        sub-mode indices."""
        with pytest.raises(ValueError, match="fixed submode -2"):
            sample_submode(toy_table(), 0, "prior", stream(0, "t"), 5,
                           fixed=-2)

    def test_fixed_out_of_range(self):
        table = toy_table()
        with pytest.raises(ValueError):
            sample_submode(table, 0, "prior", stream(0, "t"), 5, fixed=9)

    def test_fixed_without_mass_rejected(self):
        table = SubmodeTable.from_counts({0: [706, 0]})
        with pytest.raises(ValueError, match="no training mass"):
            sample_submode(table, 0, "prior", stream(0, "t"), 5, fixed=1)


class TestGenerate:
    def test_zero_net_returns_noise(self):
        """A zero-output net leaves the source points unchanged."""
        net = tiny_net()
        zero = VelocityNet(net.config, np.zeros_like(net.params))
        batch = generate(zero, toy_table(), meta(),
                         SampleConfig(count=16, nfe=4), 0, 1)
        x0 = stream(1, "sample.noise").standard_normal((16, 2))
        np.testing.assert_allclose(batch.xs, x0, atol=1e-15)

    def test_deterministic(self):
        net = tiny_net(uses_interval=True)
        table = toy_table()
        sample = SampleConfig(count=32, nfe=2)
        a = generate(net, table, meta(), sample, 1, 5)
        b = generate(net, table, meta(), sample, 1, 5)
        np.testing.assert_array_equal(a.xs, b.xs)
        np.testing.assert_array_equal(a.submode_ids, b.submode_ids)

    def test_class_conditioning_without_table(self):
        """A class run needs no table and ignores the sub-mode strategy."""
        net = tiny_net()
        batch = generate(net, None, meta("class"),
                         SampleConfig(count=4, submode_strategy="uniform"), 0,
                         0)
        assert np.all(batch.submode_ids == -1)
        assert np.all(batch.class_ids == 0)

    @pytest.mark.parametrize("conditioning", ["uncond", "class"])
    @pytest.mark.parametrize("fixed", [1, 7])
    def test_fixed_submode_needs_subflow(self, conditioning, fixed):
        """Only a subflow run is conditioned on a sub-mode: elsewhere a
        fixed sub-mode is rejected, not ignored."""
        with pytest.raises(ValueError, match=f"fixed submode {fixed}: a "
                           f"{conditioning} run"):
            generate(tiny_net(), toy_table(), meta(conditioning),
                     SampleConfig(count=4), 0, 0, fixed_submode=fixed)

    def test_subflow_without_table_rejected(self):
        net = tiny_net()
        with pytest.raises(ValueError):
            generate(net, None, meta(), SampleConfig(count=4), 0, 0)

    @pytest.mark.parametrize("conditioning", ["uncond", "class", "subflow"])
    def test_class_out_of_range(self, conditioning):
        net = tiny_net()
        with pytest.raises(ValueError, match="class 7 out of range"):
            generate(net, toy_table(), meta(conditioning),
                     SampleConfig(count=4), 7, 0)

    def test_uncond_uses_null_class(self):
        net = tiny_net()
        batch = generate(net, None, meta("uncond"), SampleConfig(count=4), 0,
                         3)
        assert np.all(batch.class_ids == -1)

    def test_results_independent_of_count(self):
        """Sample i takes the i-th draw of each (seed, purpose) stream, and
        the net runs rows in fixed blocks: rows 0-6 of a 4000-sample run
        equal a 7-sample run bit for bit, on a 128-wide net with nonzero
        parameters, for every strategy and a fixed sub-mode at NFE 1 and
        4."""
        cfg = NetConfig(num_classes=2, num_submodes=2, uses_interval=True)
        assert cfg.hidden_width == 128
        net = VelocityNet.initialized(cfg, seed=5)
        net.view("w_out")[:] = 0.1 * stream(6, "test.w_out").standard_normal(
            net.view("w_out").shape)
        table = toy_table()
        for strategy, fixed in (("prior", -1), ("uniform", -1), ("prior", 1)):
            for nfe in (1, 4):
                big, small = (generate(
                    net, table, meta(), SampleConfig(
                        count=n, nfe=nfe, submode_strategy=strategy), 0, 11,
                    fixed_submode=fixed)
                    for n in (4000, 7))
                assert np.array_equal(big.xs[:7], small.xs), (strategy, nfe)
                assert np.array_equal(big.submode_ids[:7], small.submode_ids)

    def test_interval_single_step_uses_full_interval(self):
        """At nfe=1 an interval net is queried with (r, t) = (0, 1)."""
        net = tiny_net(uses_interval=True)
        batch = generate(net, toy_table(), meta(), SampleConfig(count=4), 0,
                         4)
        x0 = stream(4, "sample.noise").standard_normal((4, 2))
        u = net.forward_batch(x0, np.ones(4), np.zeros(4),
                              np.zeros(4, dtype=np.int64), batch.submode_ids)
        np.testing.assert_allclose(batch.xs, x0 + u, atol=1e-14)


class TestGenerateAllClasses:
    """generate_all_classes splits a count over the classes by largest
    remainder of their mass, ties to the lowest class id."""

    FOUR_CLASSES = ("[mixture]\n"
                    "component_0 = 0.3 -4 0 0.5 0 0\n"
                    "component_1 = 0.3 0 0 0.5 1 0\n"
                    "component_2 = 0.3 4 0 0.5 2 0\n"
                    "component_3 = 0.1 8 0 0.5 3 0\n")

    @pytest.mark.parametrize("count, per_class", [
        (5, [2, 2, 1, 0]),   # rounded quotas 2 + 2 + 2 left the last -1
        (3, [1, 1, 1, 0]),   # fewer samples than classes
        (10, [3, 3, 3, 1]),
        (11, [4, 3, 3, 1]),
    ])
    def test_counts_sum_and_never_go_negative(self, count, per_class):
        cfg = parse_config(self.FOUR_CLASSES)
        net = VelocityNet.initialized(
            NetConfig(num_classes=4, num_submodes=1, hidden_width=8,
                      hidden_layers=1, embed_dim=2), seed=0)
        batch = pipeline.generate_all_classes(net, None, meta("class"), cfg,
                                              count, 1, 1.0, "prior", 0)
        assert len(batch.xs) == count
        assert np.bincount(batch.class_ids, minlength=4).tolist() == per_class

    @pytest.mark.parametrize("count, per_class", [(5, [2, 2, 1, 0]),
                                                  (700, [210, 210, 210, 70])])
    @pytest.mark.parametrize("nfe", [1, 3])
    @pytest.mark.parametrize("w", [1.0, 1.5])
    @pytest.mark.parametrize("conditioning", ["class", "subflow", "uncond"])
    def test_class_rows_equal_one_class_generation(self, conditioning, w,
                                                   nfe, count, per_class):
        """All classes run as one integration, yet class c's rows are
        `generate(..., c, seed + c)` bit for bit, wherever they fall in the
        net's row blocks; a class with no samples adds no rows."""
        cfg = parse_config(self.FOUR_CLASSES)
        # both kinds of net: the class run's plain, the others' interval
        net = VelocityNet(NetConfig(num_classes=4, num_submodes=2,
                                    hidden_width=32, hidden_layers=2,
                                    embed_dim=4,
                                    uses_interval=conditioning != "class"))
        net.params[:] = 0.3 * np.random.default_rng(1).standard_normal(
            net.num_params)
        table = SubmodeTable.from_labels(
            {c: np.array([0, 1, 1]) for c in range(4)}, 2)
        seed = 7
        batch = pipeline.generate_all_classes(net, table, meta(conditioning),
                                              cfg, count, nfe, w, "prior",
                                              seed)
        parts = [generate(net, table, meta(conditioning),
                          SampleConfig(n_c, nfe, w, "prior"), c, seed + c)
                 for c, n_c in enumerate(per_class) if n_c]
        for name in ("xs", "class_ids", "submode_ids"):
            assert np.array_equal(
                getattr(batch, name),
                np.concatenate([getattr(part, name) for part in parts]))
