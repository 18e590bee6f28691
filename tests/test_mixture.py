"""Mixture model and analytic velocity oracle tests.

The closed-form posterior weights and velocities are cross-checked against
independent estimators: Gauss-Hermite quadrature for the time-marginal
densities and a kernel-regression Monte Carlo estimate for the conditional
mean velocity.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from subflow import mixture
from subflow.mixture import MixtureComponent, MixtureSpec, toy_spec


def single_gaussian(mean=(1.0, -2.0), std=0.7, source_std=1.0) -> MixtureSpec:
    return MixtureSpec(
        components=(MixtureComponent(1.0, mean, std, 0, 0),),
        source_std=source_std)


def quadrature_marginal_density(comp: MixtureComponent, source_std: float,
                                x: np.ndarray, t: float, n_nodes: int = 150) -> float:
    """Density of x_t = (1-t) x0 + t x1 under one component, by quadrature.

    One axis at a time (both Gaussians are isotropic, so the integrand
    factorizes).  Gauss-Hermite nodes are placed on whichever endpoint
    leaves the smoother integrand: x1 for small t, x0 otherwise.
    """
    nodes, weights = np.polynomial.hermite_e.hermegauss(n_nodes)
    density = 1.0
    over_x1 = t < 0.5
    for dim in range(2):
        if over_x1:
            if t == 0.0:
                density *= np.exp(-0.5 * (x[dim] / source_std) ** 2) / (
                    np.sqrt(2 * np.pi) * source_std)
                continue
            x1 = comp.mean[dim] + comp.std * nodes
            x0 = (x[dim] - t * x1) / (1 - t)
            lik = np.exp(-0.5 * (x0 / source_std) ** 2) / (
                np.sqrt(2 * np.pi) * source_std * (1 - t))
        else:
            x0 = source_std * nodes
            x1 = (x[dim] - (1 - t) * x0) / t
            lik = np.exp(-0.5 * ((x1 - comp.mean[dim]) / comp.std) ** 2) / (
                np.sqrt(2 * np.pi) * comp.std * t)
        density *= float(np.sum(weights * lik) / np.sqrt(2 * np.pi))
    return density


class TestSpecValidation:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum"):
            MixtureSpec(components=(
                MixtureComponent(0.4, (0, 0), 1.0, 0, 0),
                MixtureComponent(0.4, (1, 1), 1.0, 0, 1)))

    def test_duplicate_label_pair_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            MixtureSpec(components=(
                MixtureComponent(0.5, (0, 0), 1.0, 0, 0),
                MixtureComponent(0.5, (1, 1), 1.0, 0, 0)))

    def test_nonpositive_std_rejected(self):
        with pytest.raises(ValueError):
            MixtureComponent(1.0, (0, 0), 0.0, 0, 0)

    def test_toy_spec_structure(self):
        spec = toy_spec()
        assert len(spec.components) == 4
        assert spec.class_ids == [0, 1]
        np.testing.assert_allclose(spec.weights().sum(), 1.0)
        # within-class renormalized weights are 0.7 / 0.3
        for c in (0, 1):
            w = np.array([comp.weight for comp in spec.components
                          if comp.class_id == c])
            np.testing.assert_allclose(w / w.sum(), [0.7, 0.3])


class TestSampling:
    def test_component_frequencies(self):
        spec = toy_spec()
        samples = mixture.sample_dataset(spec, 100000, seed=3)
        xs, cs, ks = mixture.dataset_arrays(samples)
        for comp in spec.components:
            freq = np.mean((cs == comp.class_id) & (ks == comp.submode_id))
            assert abs(freq - comp.weight) < 0.01

    def test_deterministic_per_seed(self):
        spec = toy_spec()
        a = mixture.dataset_arrays(mixture.sample_dataset(spec, 50, 9))[0]
        b = mixture.dataset_arrays(mixture.sample_dataset(spec, 50, 9))[0]
        np.testing.assert_array_equal(a, b)

    def test_component_moments(self):
        spec = single_gaussian(mean=(2.0, 3.0), std=0.5)
        xs, _, _ = mixture.dataset_arrays(mixture.sample_dataset(spec, 100000, 1))
        np.testing.assert_allclose(xs.mean(axis=0), [2.0, 3.0], atol=0.02)
        np.testing.assert_allclose(xs.std(axis=0), [0.5, 0.5], atol=0.02)


def rows(n, *ids):
    """Each id as an (n,) int64 column."""
    return [np.full(n, i, dtype=np.int64) for i in ids]


def free(spec, n):
    """n rows of the null class with an empty sub-mode slot: every
    component of the mixture."""
    return rows(n, spec.num_classes, -1)


def oracle_at(spec, x, t, c, k=-1):
    """The batched oracle at one point, in the context (c, k)."""
    return mixture.oracle_velocity_batch(spec, np.asarray(x)[None], t,
                                         *rows(1, c, k))[0]


def weights_at(spec, x, t, c, k=-1):
    """(indices, weights, underflowed) of the batched posterior at one point,
    in the context (c, k)."""
    idx, w, under = mixture.posterior_weights_batch(spec, np.asarray(x)[None],
                                                    t, *rows(1, c, k))
    return idx[0], w[0], bool(under[0])


class TestPosteriorWeights:
    def test_sum_to_one_and_nonnegative(self):
        spec = toy_spec()
        rng = np.random.default_rng(0)
        for _ in range(50):
            x = rng.uniform(-6, 6, size=2)
            t = rng.uniform(0, 0.99)
            _, w, under = weights_at(spec, x, t, spec.num_classes)
            assert not under
            assert np.all(w >= 0)
            np.testing.assert_allclose(w.sum(), 1.0, atol=1e-12)

    def test_t_zero_gives_renormalized_priors(self):
        spec = toy_spec()
        idx, w, _ = weights_at(spec, np.array([0.3, -0.8]), 0.0, 1)
        np.testing.assert_allclose(w, [0.7, 0.3], atol=1e-12)

    def test_matches_quadrature(self):
        """Posterior weights against Gauss-Hermite marginal densities."""
        spec = toy_spec()
        rng = np.random.default_rng(5)
        for _ in range(10):
            x = rng.uniform(-5, 5, size=2)
            t = rng.uniform(0.05, 0.95)
            _, w, _ = weights_at(spec, x, t, spec.num_classes)
            dens = np.array([
                comp.weight * quadrature_marginal_density(comp, spec.source_std, x, t)
                for comp in spec.components])
            np.testing.assert_allclose(w, dens / dens.sum(), atol=1e-8)

    def test_far_point_concentrates(self):
        spec = toy_spec()
        _, w, _ = weights_at(spec, np.array([4.0, 2.0]), 0.9,
                             spec.num_classes)
        assert w[2] > 0.99  # component with mean (4, 2)

    def test_condition_filter_restricts(self):
        spec = toy_spec()
        idx, w, _ = weights_at(spec, np.array([0.0, 0.0]), 0.5, 0, 1)
        assert list(idx) == [1]
        np.testing.assert_allclose(w, [1.0])


class TestOracleVelocity:
    def test_single_gaussian_closed_form(self):
        """One component: the oracle is an explicit affine function of x."""
        spec = single_gaussian(mean=(1.0, -1.0), std=0.5, source_std=2.0)
        t = 0.4
        x = np.array([0.7, 0.3])
        s2 = (1 - t) ** 2 * 4.0 + t ** 2 * 0.25
        coef = (t * 0.25 - (1 - t) * 4.0) / s2
        expected = np.array([1.0, -1.0]) + coef * (x - t * np.array([1.0, -1.0]))
        np.testing.assert_allclose(oracle_at(spec, x, t, spec.num_classes),
                                   expected, atol=1e-12)

    def test_t_zero_is_mean_minus_x(self):
        # at t=0 the pairing is independent, so E[x1 - x0 | x0 = x] = mu - x
        spec = toy_spec()
        x = np.array([0.5, 1.5])
        v = oracle_at(spec, x, 0.0, 1, 0)
        np.testing.assert_allclose(v, np.array([4.0, 2.0]) - x, atol=1e-12)

    def test_batch_matches_single(self):
        """Each row of a batch is bit-identical to that row queried alone."""
        spec = toy_spec()
        rng = np.random.default_rng(2)
        xs = rng.uniform(-5, 5, size=(64, 2))
        for t in (0.1, 0.5, 0.9):
            batch = mixture.oracle_velocity_batch(spec, xs, t, *free(spec, 64))
            single = np.stack([oracle_at(spec, x, t, spec.num_classes)
                               for x in xs])
            np.testing.assert_array_equal(batch, single)

    def test_matches_kernel_regression(self):
        """Monte Carlo oracle: Nadaraya-Watson estimate of E[v | x_t near x].

        Two million path pairs, narrow Gaussian kernel in x_t.  The analytic
        oracle must sit within three standard errors of the estimate.
        """
        spec = toy_spec()
        rng = np.random.default_rng(11)
        n = 2_000_000
        comp_idx = rng.choice(4, size=n, p=spec.weights())
        x1 = spec.means()[comp_idx] + spec.stds()[comp_idx, None] * \
            rng.standard_normal((n, 2))
        x0 = rng.standard_normal((n, 2))
        v = x1 - x0
        for t, x in [(0.3, np.array([-1.0, 0.5])), (0.6, np.array([2.0, 0.0]))]:
            xt = (1 - t) * x0 + t * x1
            h = 0.05
            logk = -0.5 * np.sum((xt - x) ** 2, axis=1) / h ** 2
            k = np.exp(logk - logk.max())
            wsum = k.sum()
            est = (k[:, None] * v).sum(axis=0) / wsum
            # weighted standard error per coordinate
            var = (k[:, None] * (v - est) ** 2).sum(axis=0) / wsum
            n_eff = wsum ** 2 / np.sum(k ** 2)
            se = np.sqrt(var / n_eff) + 3e-3  # kernel-bias allowance
            exact = oracle_at(spec, x, t, spec.num_classes)
            assert np.all(np.abs(exact - est) < 3 * se), (exact, est, se)

    def test_class_oracle_is_posterior_mix_of_submode_oracles(self):
        """The class-conditional field decomposes exactly over sub-modes."""
        spec = toy_spec()
        rng = np.random.default_rng(7)
        xs = rng.uniform(-8, 8, size=(1000, 2))
        worst = 0.0
        for t in rng.uniform(0.0, 0.999, size=10):
            for c in (0, 1):
                ctx = rows(len(xs), c, -1)
                v_class = mixture.oracle_velocity_batch(spec, xs, t, *ctx)
                idx, w, _ = mixture.posterior_weights_batch(spec, xs, t, *ctx)
                mix = np.zeros_like(xs)
                for col, j in enumerate(idx[0]):
                    comp = spec.components[j]
                    mix += w[:, col, None] * mixture.oracle_velocity_batch(
                        spec, xs, t,
                        *rows(len(xs), comp.class_id, comp.submode_id))
                worst = max(worst, float(np.max(np.abs(v_class - mix))))
        assert worst < 1e-10

    @settings(deadline=None, max_examples=40)
    @given(x=st.tuples(st.floats(-10, 10), st.floats(-10, 10)),
           t=st.floats(0.0, 0.99))
    def test_velocity_finite_everywhere(self, x, t):
        spec = toy_spec()
        v = oracle_at(spec, np.array(x), t, spec.num_classes)
        assert np.all(np.isfinite(v))

    def test_distant_query_stays_resolved(self):
        # max-subtraction keeps a very distant query numerically resolved
        spec = toy_spec()
        _, w, under = weights_at(spec, np.array([1e9, 1e9]), 0.5,
                                 spec.num_classes)
        assert not under
        np.testing.assert_allclose(w, [0, 0, 1, 0], atol=1e-300)

    def test_underflow_fallback(self):
        # coordinates whose squared distance overflows: uniform fallback
        spec = toy_spec()
        _, w, under = weights_at(spec, np.array([1e200, 1e200]), 0.5,
                                 spec.num_classes)
        assert under
        np.testing.assert_allclose(w, 0.25)

    def test_underflowed_row_is_finite_and_leaves_other_rows_alone(self):
        """A row whose densities all underflow gets the uniform-weight
        velocity, is flagged, and changes no bit of the other rows."""
        spec = toy_spec()
        xs = np.random.default_rng(3).uniform(-5, 5, size=(16, 2))
        far = np.array([[1e160, 1e160]])
        mixed = np.concatenate([xs[:5], far, xs[5:]])
        v = mixture.oracle_velocity_batch(spec, mixed, 0.5, *free(spec, 17))
        _, _, under = mixture.posterior_weights_batch(spec, mixed, 0.5,
                                                      *free(spec, 17))
        np.testing.assert_array_equal(under, np.arange(17) == 5)
        # coef = (t sig^2 - (1-t) s0^2) / s2 = -1.2 for every toy component
        np.testing.assert_allclose(v[5], [-1.2e160, -1.2e160], rtol=1e-12)
        np.testing.assert_array_equal(
            np.delete(v, 5, axis=0),
            mixture.oracle_velocity_batch(spec, xs, 0.5, *free(spec, 16)))


def seven_components() -> MixtureSpec:
    """Two classes of unequal size: sub-modes 0-2 of class 0, 0-3 of
    class 1, listed out of (class, sub-mode) order."""
    comps = [((-4, 2), 0.5, 0, 0), ((4, -2), 0.4, 1, 1), ((-4, -2), 0.3, 0, 1),
             ((4, 2), 0.5, 1, 0), ((-1, 0), 0.7, 0, 2), ((2, 5), 0.6, 1, 2),
             ((0, -5), 0.2, 1, 3)]
    weights = (0.2, 0.25, 0.1, 0.15, 0.05, 0.15, 0.1)
    return MixtureSpec(tuple(MixtureComponent(w, mean, std, c, k)
                             for w, (mean, std, c, k) in zip(weights, comps)),
                       source_std=1.3)


def every_context(spec):
    """(c, k) of every context in the mixture: the null class, each class,
    each (class, sub-mode)."""
    return ([(spec.num_classes, -1)] + [(c, -1) for c in spec.class_ids]
            + [(comp.class_id, comp.submode_id) for comp in spec.components])


class TestMixedContexts:
    """One call over rows of many contexts gives each row the bits of a
    call over its context's rows alone."""

    @pytest.mark.parametrize("spec", [toy_spec(), seven_components()],
                             ids=["toy", "seven"])
    def test_rows_equal_per_context_calls(self, spec):
        contexts = every_context(spec)
        rng = np.random.default_rng(4)
        n = 300
        xs = rng.uniform(-9, 9, size=(n, 2))
        xs[[3, 7, 11]] = [[1e9, 1e9], [1e200, 1e200], [1e160, -1e160]]
        which = rng.integers(len(contexts), size=n)
        which[:len(contexts)] = np.arange(len(contexts))
        which[7] = 0  # the underflowed row reads the null class
        cs, ks = np.array(contexts).T[:, which]
        for t in (0.0, 0.3, 0.5, 0.97):
            v = mixture.oracle_velocity_batch(spec, xs, t, cs, ks)
            idx, w, under = mixture.posterior_weights_batch(spec, xs, t, cs,
                                                            ks)
            assert under[7] and under.sum() <= 2
            for j, (c, k) in enumerate(contexts):
                sel = which == j
                ctx = rows(sel.sum(), c, k)
                assert np.array_equal(v[sel], mixture.oracle_velocity_batch(
                    spec, xs[sel], t, *ctx))
                one_idx, one_w, one_under = mixture.posterior_weights_batch(
                    spec, xs[sel], t, *ctx)
                width = one_idx.shape[1]
                assert np.array_equal(idx[sel, :width], one_idx)
                assert np.array_equal(w[sel, :width], one_w)
                assert np.array_equal(under[sel], one_under)
                # the padding: index -1 at weight 0
                assert np.all(idx[sel, width:] == -1)
                assert np.all(w[sel, width:] == 0.0)

    def test_a_context_selects_its_components_in_order(self):
        spec = seven_components()
        xs = np.zeros((4, 2))
        idx, _, _ = mixture.posterior_weights_batch(
            spec, xs, 0.5, np.array([2, 0, 1, 1]), np.array([-1, -1, 3, 0]))
        pad = [-1] * 7
        assert idx.tolist() == [[0, 1, 2, 3, 4, 5, 6], [0, 2, 4] + pad[:4],
                                [6] + pad[:6], [3] + pad[:6]]


class TestConditionFilter:
    """A context (c, k) selects the components it names; one that selects
    none is refused, wherever it sits in the batch."""

    def test_empty_selection_rejected(self):
        """A class the mixture does not have, or a sub-mode its class does
        not have."""
        toy, seven = toy_spec(), seven_components()
        for spec, c, k in ((toy, 3, -1), (toy, -1, -1), (toy, 7, 0),
                           (toy, 0, 2), (toy, 1, -2), (seven, 0, 3)):
            for fn in (mixture.posterior_weights_batch,
                       mixture.oracle_velocity_batch):
                with pytest.raises(ValueError, match="not in the mixture"):
                    fn(spec, np.zeros((3, 2)), 0.5, np.array([0, c, 1]),
                       np.array([-1, k, 0]))

    def test_submode_without_class_rejected(self):
        """The null class holds every class, so it takes no sub-mode."""
        spec = toy_spec()
        with pytest.raises(ValueError, match="null class 2 takes sub-mode"):
            mixture.oracle_velocity_batch(spec, np.zeros((1, 2)), 0.5,
                                          *rows(1, 2, 0))

    def test_contexts_are_per_row_arrays(self):
        spec = toy_spec()
        for c, k in ((2, -1), (np.full(2, 2), np.full(3, -1))):
            with pytest.raises(ValueError, match=r"two \(3,\) arrays"):
                mixture.oracle_velocity_batch(spec, np.zeros((3, 2)), 0.5,
                                              c, k)

    def test_bounding_box_covers_means(self):
        spec = toy_spec()
        xmin, ymin, xmax, ymax = spec.bounding_box()
        means = spec.means()
        assert xmin < means[:, 0].min() and xmax > means[:, 0].max()
        assert ymin < means[:, 1].min() and ymax > means[:, 1].max()
