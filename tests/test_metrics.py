"""Metric tests with exhaustive and spectral oracles.

knn_precision_recall is compared to a brute-force pairwise-ball membership
check on small sets; frechet_2d to an eigendecomposition-based matrix
square root.
"""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from subflow import metrics
from subflow.metrics import (field_rmse, frechet_2d, knn_precision_recall,
                             mode_shares)
from subflow.mixture import MixtureComponent, MixtureSpec, toy_spec


def brute_force_pr(real, gen, k):
    """Exhaustive manifold membership, quadratic in the set sizes."""
    def radius(points, i):
        d = np.sort(np.linalg.norm(points - points[i], axis=1))
        return d[k]  # d[0] is the self distance 0

    def covered(y, support):
        return any(np.linalg.norm(y - support[i]) <= radius(support, i)
                   for i in range(len(support)))

    precision = np.mean([covered(g, real) for g in gen])
    recall = np.mean([covered(r, gen) for r in real])
    return float(precision), float(recall)


def spectral_frechet(real, gen):
    mu1, mu2 = real.mean(axis=0), gen.mean(axis=0)
    s1 = np.cov(real, rowvar=False)
    s2 = np.cov(gen, rowvar=False)
    covmean = scipy.linalg.sqrtm(s1 @ s2)
    if np.iscomplexobj(covmean):
        covmean = covmean.real
    return float(np.sum((mu1 - mu2) ** 2) + np.trace(s1 + s2 - 2 * covmean))


class TestKnnPrecisionRecall:
    def test_identical_sets(self):
        pts = np.random.default_rng(0).standard_normal((50, 2))
        p, r = knn_precision_recall(pts, pts.copy(), k=3)
        assert p == 1.0 and r == 1.0

    def test_disjoint_sets(self):
        rng = np.random.default_rng(1)
        real = rng.standard_normal((40, 2))
        gen = rng.standard_normal((40, 2)) + 1e6
        p, r = knn_precision_recall(real, gen, k=3)
        assert p == 0.0 and r == 0.0

    def test_matches_brute_force_handcrafted(self):
        real = np.array([[0, 0], [1, 0], [0, 1], [1, 1],
                         [5, 5], [6, 5], [5, 6], [6, 6]], dtype=float)
        gen = np.array([[0.5, 0.5], [5.5, 5.5], [10, 10], [0, 2],
                        [1.2, 0.1], [5, 4.8], [-1, -1], [6.5, 6.5]],
                       dtype=float)
        p, r = knn_precision_recall(real, gen, k=2)
        bp, br = brute_force_pr(real, gen, 2)
        assert p == pytest.approx(bp) and r == pytest.approx(br)

    @settings(deadline=None, max_examples=25)
    @given(seed=st.integers(0, 10_000), k=st.integers(1, 4))
    def test_matches_brute_force_random(self, seed, k):
        rng = np.random.default_rng(seed)
        real = rng.standard_normal((rng.integers(k + 2, 32), 2))
        gen = rng.standard_normal((rng.integers(k + 2, 32), 2)) * 1.5
        p, r = knn_precision_recall(real, gen, k=k)
        bp, br = brute_force_pr(real, gen, k)
        assert p == pytest.approx(bp) and r == pytest.approx(br)

    def test_small_sets_rejected(self):
        with pytest.raises(ValueError):
            knn_precision_recall(np.zeros((3, 2)), np.zeros((10, 2)), k=3)

    def test_chunking_agrees_with_direct(self):
        """Sets larger than the internal chunk size give the same answer."""
        rng = np.random.default_rng(9)
        real = rng.standard_normal((1500, 2))
        gen = rng.standard_normal((1300, 2)) + 0.5
        p, r = knn_precision_recall(real, gen, k=3)
        d_real = np.linalg.norm(real[:, None] - real[None], axis=2)
        np.fill_diagonal(d_real, np.inf)
        radii = np.sort(d_real, axis=1)[:, 2]
        d_rg = np.linalg.norm(gen[:, None] - real[None], axis=2)
        p_ref = float(np.mean(np.any(d_rg <= radii[None, :], axis=1)))
        assert p == pytest.approx(p_ref, abs=1e-12)


class TestFrechet:
    def test_identical_sets_zero(self):
        pts = np.random.default_rng(2).standard_normal((100, 2))
        assert frechet_2d(pts, pts.copy()) < 1e-9

    def test_mean_shift_dominates(self):
        """Moment-matched sets d apart give d^2; the trace terms cancel."""
        rng = np.random.default_rng(3)
        base = rng.standard_normal((5000, 2))
        base = (base - base.mean(axis=0)) @ np.linalg.inv(
            np.linalg.cholesky(np.cov(base, rowvar=False)).T)
        d = 3.0
        shifted = base + np.array([d, 0.0])
        assert frechet_2d(base, shifted) == pytest.approx(d * d, abs=1e-6)

    @settings(deadline=None, max_examples=30)
    @given(seed=st.integers(0, 10_000))
    def test_matches_spectral_oracle(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((60, 2)) @ rng.uniform(0.3, 2, (2, 2))
        b = rng.standard_normal((70, 2)) @ rng.uniform(0.3, 2, (2, 2)) + 1.0
        ours = frechet_2d(a, b)
        ref = spectral_frechet(a, b)
        assert ours == pytest.approx(ref, abs=1e-8)

    def test_symmetry(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((50, 2))
        b = rng.standard_normal((50, 2)) * 2 + 1
        assert frechet_2d(a, b) == pytest.approx(frechet_2d(b, a), abs=1e-9)

    def test_degenerate_covariance_handled(self):
        # all points on a line: determinant zero, jitter path
        a = np.column_stack([np.linspace(0, 1, 10), np.zeros(10)])
        b = np.random.default_rng(5).standard_normal((10, 2))
        val = frechet_2d(a, b)
        assert np.isfinite(val) and val >= 0

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            frechet_2d(np.zeros((2, 2)), np.zeros((10, 2)))


class TestModeShares:
    def test_all_on_one_mean(self):
        spec = toy_spec()
        gen = np.tile(spec.means()[0], (100, 1))
        shares, tv, cov = mode_shares(spec, gen)
        np.testing.assert_allclose(shares, [1, 0, 0, 0])
        assert tv == pytest.approx(0.65)  # 0.5 * (0.65 + 0.15 + 0.35 + 0.15)
        assert cov == 1

    def test_exact_weights_zero_tv(self):
        spec = toy_spec()
        counts = (np.array([0.35, 0.15, 0.35, 0.15]) * 2000).astype(int)
        gen = np.concatenate([np.tile(m, (c, 1))
                              for m, c in zip(spec.means(), counts)])
        shares, tv, cov = mode_shares(spec, gen)
        assert tv == pytest.approx(0.0, abs=1e-12)
        assert cov == 4

    def test_tie_breaks_to_lowest_index(self):
        spec = MixtureSpec(components=(
            MixtureComponent(0.5, (-1.0, 0.0), 1.0, 0, 0),
            MixtureComponent(0.5, (1.0, 0.0), 1.0, 1, 0)))
        shares, _, _ = mode_shares(spec, np.array([[0.0, 0.0]]))
        np.testing.assert_allclose(shares, [1.0, 0.0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mode_shares(toy_spec(), np.zeros((0, 2)))

    def test_coverage_threshold(self):
        spec = toy_spec()
        # minority modes get just under half their weight
        n = 10000
        counts = [4250, 650, 4450, 650]
        gen = np.concatenate([np.tile(m, (c, 1))
                              for m, c in zip(spec.means(), counts)])
        _, _, cov = mode_shares(spec, gen, tau=0.5)
        assert cov == 2


class TestFieldRmse:
    def test_identical_fields(self):
        grid = metrics.default_grid(toy_spec())
        f = lambda xs, t: xs * t
        assert field_rmse(f, f, grid) == 0.0

    def test_constant_offset(self):
        grid = np.zeros((10, 2))
        a = lambda xs, t: np.zeros_like(xs)
        b = lambda xs, t: np.full_like(xs, 1.0)  # offset norm sqrt(2)
        assert field_rmse(a, b, grid) == pytest.approx(np.sqrt(2.0))

    def test_grid_shape(self):
        grid = metrics.default_grid(toy_spec())
        assert grid.shape == (41 * 41, 2)


class TestEvaluateAll:
    def test_report_fields_populated(self):
        rng = np.random.default_rng(6)
        spec = toy_spec()
        comp_idx = rng.choice(4, size=800, p=spec.weights())
        pts = spec.means()[comp_idx] + 0.5 * rng.standard_normal((800, 2))
        report = metrics.evaluate_all(spec, pts, pts.copy())
        assert report.frechet < 1e-9
        assert report.precision == 1.0 and report.recall == 1.0
        assert report.coverage_count == 4
        assert report.field_rmse is None

    def test_csv_row_round_trip(self, tmp_path):
        report = metrics.MetricReport(frechet=0.5, precision=0.9, recall=0.8,
                                      mode_shares=np.array([1.0]), mode_tv=0.1,
                                      coverage_count=3, field_rmse=None)
        path = tmp_path / "m.csv"
        metrics.append_report_csv(path, report, "run-x", 4, 1.0)
        metrics.append_report_csv(path, report, "run-x", 8, 1.0)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == ",".join(metrics.MetricReport.CSV_HEADER)
        assert len(lines) == 3
