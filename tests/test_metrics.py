"""Metric tests with exhaustive and spectral oracles.

knn_precision_recall is compared to a brute-force pairwise-ball membership
check on small sets, and its grid search to a difference-formula brute
force (radii and hit masks, bit for bit) on large and degenerate sets and
to scipy's k-d tree; frechet_2d to an eigendecomposition-based matrix
square root.
"""

import multiprocessing
import os
import threading
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st
from scipy.spatial import cKDTree

from subflow import io, metrics, mixture, net, pipeline, sampler
from subflow.config import parse_config
from subflow.metrics import (field_rmse, frechet_2d, knn_precision_recall,
                             mode_shares)
from subflow.mixture import (MixtureComponent, MixtureSpec, sample_dataset,
                             toy_spec)


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


def sq_dist(a, b):
    """Squared distances between the rows of a and b, by the difference
    formula dx*dx + dy*dy the grid search uses."""
    dx = a[:, None, 0] - b[None, :, 0]
    dy = a[:, None, 1] - b[None, :, 1]
    return dx * dx + dy * dy


def brute_radii_sq(points, k):
    """Squared k-th neighbour distance of every point, self excluded."""
    radii = np.empty(len(points))
    for lo in range(0, len(points), 500):
        d2 = sq_dist(points[lo:lo + 500], points)
        rows = np.arange(len(d2))
        d2[rows, lo + rows] = np.inf
        radii[lo:lo + 500] = np.partition(d2, k - 1, axis=1)[:, k - 1]
    return radii


def brute_hits(queries, support, radii_sq):
    """Whether each query lies in some support ball (distance <= radius)."""
    return np.concatenate([np.any(sq_dist(queries[lo:lo + 500], support)
                                  <= radii_sq[None, :], axis=1)
                           for lo in range(0, len(queries), 500)])


def lanes_agree(monkeypatch, *args, **kwargs):
    """knn_precision_recall(*args, **kwargs), checked to give the same
    result, and radii and hit masks of the same bits, with both lanes
    inline (net.SWEEP_WORKERS = 1) and with the precision lane on the
    helper thread (2)."""
    runs = []
    for workers in (1, 2):
        monkeypatch.setattr(net, "SWEEP_WORKERS", workers)
        outputs, threads = [], set()

        def recorded(fn):
            def wrapper(*a, **kw):
                out = fn(*a, **kw)
                outputs.append(out.tobytes())
                threads.add(threading.current_thread().name)
                return out
            return wrapper

        with monkeypatch.context() as m:
            for name in ("knn_radii_sq", "_in_manifold"):
                m.setattr(metrics, name, recorded(getattr(metrics, name)))
            result = knn_precision_recall(*args, **kwargs)
        helper = any(t.startswith("subflow-knn") for t in threads)
        assert helper == (workers == 2), threads
        runs.append((result, sorted(outputs)))
    assert runs[0] == runs[1]
    return runs[0][0]


def assert_grid_search_exact(real, gen, k, monkeypatch):
    """Radii, hit masks, precision and recall equal the brute force, with
    the lanes inline and on the helper thread."""
    hits = []
    for support, queries in ((real, gen), (gen, real)):
        radii = metrics.knn_radii_sq(support, k)
        np.testing.assert_array_equal(radii, brute_radii_sq(support, k))
        hit = metrics._in_manifold(queries, support, radii,
                                   metrics._frame("sets", real, gen))
        np.testing.assert_array_equal(hit, brute_hits(queries, support, radii))
        hits.append(float(np.mean(hit)))
    assert lanes_agree(monkeypatch, real, gen, k) == tuple(hits)


def _lattice_sets():
    """A 17 x 17 integer lattice whose points sit on cell edges, and
    queries on and between its points."""
    xs, ys = np.meshgrid(np.arange(17.0), np.arange(17.0))
    real = np.column_stack([xs.ravel(), ys.ravel()])
    inner = real[(real[:, 0] < 16) & (real[:, 1] < 15)]
    return real, np.concatenate([inner[::3] + [0.5, 0.0], real[1::5],
                                 inner[::7] + [0.0, 2.0]])


def _duplicate_sets():
    """Every real point three times over, and queries that repeat some of
    them exactly."""
    rng = np.random.default_rng(22)
    real = np.repeat(rng.standard_normal((300, 2)), 3, axis=0)
    return real, np.concatenate([real[::4], rng.standard_normal((200, 2))])


def _toy_sets():
    """Toy-mixture points and a generated set collapsed onto its means."""
    spec = toy_spec()
    rng = np.random.default_rng(23)
    idx = rng.choice(4, size=1500, p=spec.weights())
    gen = spec.means()[idx] + 1e-3 * rng.standard_normal((1500, 2))
    return sample_dataset(spec, 2000, seed=24).xs, gen


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
        """Sets of over a thousand points give the brute-force answer."""
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

    @pytest.mark.parametrize("name", ["real", "gen"])
    @pytest.mark.parametrize("bad, count", [
        (np.nan, 1), (np.inf, 2), (-np.inf, 1)])
    def test_non_finite_rejected(self, name, bad, count):
        """The grid floors coordinates: a NaN or inf is refused first,
        naming the set and counting its bad rows."""
        sets = {"real": np.zeros((10, 2)), "gen": np.ones((10, 2))}
        sets[name][3:3 + count, count % 2] = bad
        with pytest.raises(ValueError,
                           match=f"{name} has {count} rows with non-finite"):
            knn_precision_recall(sets["real"], sets["gen"], k=3)

    @pytest.mark.parametrize("shape", [(10,), (10, 3), (2, 5, 2)])
    def test_wrong_shape_rejected(self, shape):
        with pytest.raises(ValueError, match=r"gen must have shape \(n, 2\)"):
            knn_precision_recall(np.zeros((10, 2)), np.zeros(shape), k=3)

    def test_given_real_radii_equal_the_default(self, monkeypatch):
        """Radii a caller computed once give the default call's answer."""
        rng = np.random.default_rng(10)
        real = rng.standard_normal((800, 2))
        gen = 1.2 * rng.standard_normal((700, 2)) + 0.3
        for k in (1, 3):
            radii = metrics.knn_radii_sq(real, k)
            assert (lanes_agree(monkeypatch, real, gen, k, real_radii_sq=radii)
                    == lanes_agree(monkeypatch, real, gen, k))

    @pytest.mark.parametrize("damage", [
        lambda r: r[:-1], lambda r: r[:, None], lambda r: r - 1.0,
        lambda r: np.where(np.arange(len(r)) == 3, np.nan, r),
        lambda r: np.where(np.arange(len(r)) == 3, np.inf, r),
    ], ids=["short", "column", "negative", "nan", "inf"])
    def test_bad_real_radii_rejected(self, damage):
        real = np.random.default_rng(11).standard_normal((50, 2))
        radii = damage(metrics.knn_radii_sq(real))
        with pytest.raises(ValueError, match="real_radii_sq"):
            knn_precision_recall(real, real + 0.1, real_radii_sq=radii)

    @pytest.mark.parametrize("k, n", [(0, 10), (3, 3)])
    def test_radii_need_k_below_the_point_count(self, k, n):
        with pytest.raises(ValueError, match=f"more than k={k} points"):
            metrics.knn_radii_sq(np.zeros((n, 2)), k)

    @pytest.mark.parametrize("call, name", [
        (lambda pts: metrics.knn_radii_sq(pts), "points"),
        (lambda pts: knn_precision_recall(pts, pts), "real and gen"),
        (lambda pts: knn_precision_recall(pts, pts,
                                          real_radii_sq=np.ones(len(pts))),
         "real and gen"),
    ], ids=["radii", "precision_recall", "given_radii"])
    @pytest.mark.parametrize("half", [6e153, 1e200, 1e308])
    def test_overflowing_span_rejected(self, call, name, half):
        """A span whose squared distances overflow float64, or itself does,
        raises the same ValueError naming the set, whoever searches it (a
        bare OverflowError once squared cell sides overflowed)."""
        pts = half * np.array([[-1.0, -1.0], [1.0, -1.0], [-1.0, 1.0],
                               [1.0, 1.0], [0.0, 0.5]])
        with pytest.raises(ValueError,
                           match=f"{name} span .*overflow float64"):
            call(pts)

    def test_given_radii_beyond_the_span(self, monkeypatch):
        """Given radii may exceed every distance by far: once cells are as
        wide as the span, all remaining balls form one last level, and the
        cell side never squares past float64."""
        real = np.random.default_rng(14).standard_normal((50, 2))
        for r2 in (1e300, 1.7e308):
            assert lanes_agree(monkeypatch, real, real + 0.1,
                               real_radii_sq=np.full(50, r2)) == (1.0, 1.0)

    @pytest.mark.parametrize("k", [1, 3, 5])
    @pytest.mark.parametrize("gen_kind", ["collapsed", "realistic"])
    def test_matches_kd_tree_at_scale(self, gen_kind, k, monkeypatch):
        """3000 toy-mixture points: every radius equals the difference
        formula at the k-th neighbour a k-d tree finds, every hit mask
        the brute-force membership, and precision and recall their shares,
        with the lanes inline and on the helper thread."""
        spec = toy_spec()
        real = sample_dataset(spec, 3000, seed=5).xs
        if gen_kind == "collapsed":
            rng = np.random.default_rng(6)
            idx = rng.choice(4, size=3000, p=spec.weights())
            gen = spec.means()[idx] + 1e-3 * rng.standard_normal((3000, 2))
        else:
            gen = sample_dataset(spec, 3000, seed=6).xs
        shares = []
        for support, queries in ((real, gen), (gen, real)):
            _, nbr = cKDTree(support).query(support, k=k + 1)
            diff = support[nbr[:, k]] - support
            tree_radii = diff[:, 0] * diff[:, 0] + diff[:, 1] * diff[:, 1]
            radii = metrics.knn_radii_sq(support, k)
            np.testing.assert_array_equal(radii, tree_radii)
            hits = metrics._in_manifold(queries, support, radii,
                                        metrics._frame("sets", real, gen))
            np.testing.assert_array_equal(
                hits, brute_hits(queries, support, radii))
            shares.append(float(np.mean(hits)))
        assert lanes_agree(monkeypatch, real, gen, k) == tuple(shares)


class TestGridSearchDegenerateSets:
    """Sets that stress the cell grid, against the brute force."""

    def test_all_points_identical(self, monkeypatch):
        """One cell holds all 3000 points, every block all of them; the
        pair budget keeps the search far below the 3000 x 3000 matrix,
        also with both lanes in flight at once."""
        same = np.full((3000, 2), 1.5)
        for workers in (1, 2):
            monkeypatch.setattr(net, "SWEEP_WORKERS", workers)
            tracemalloc.start()
            try:
                p, r = knn_precision_recall(same, same.copy(), k=3)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert (p, r) == (1.0, 1.0)
            assert peak < 3000 * 3000, (workers, peak)  # 1/8 of its bytes
        assert not metrics.knn_radii_sq(same, 3).any()

    def test_points_on_one_line(self, monkeypatch):
        """Zero span on one axis: every point in one row of cells."""
        rng = np.random.default_rng(11)
        real = np.column_stack([rng.standard_normal(400), np.full(400, 2.0)])
        gen = np.column_stack([rng.standard_normal(300) * 1.5,
                               np.full(300, 2.0)])
        assert_grid_search_exact(real, gen, 3, monkeypatch)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_lattice_on_cell_edges_with_ties(self, k, monkeypatch):
        """Integer lattices whose coordinates sit on cell edges; each inner
        point has four neighbours at distance 1, tied at the k-th, and
        queries at exactly a ball's radius count as inside."""
        real, gen = _lattice_sets()
        for sets in ((real,), (real, gen)):
            lo, _, h = metrics._frame("sets", *sets)
            assert np.all(np.mod(np.concatenate(sets) - lo, h) == 0.0)
        assert_grid_search_exact(real, gen, k, monkeypatch)

    @pytest.mark.parametrize("make_sets", [_toy_sets, _duplicate_sets,
                                           _lattice_sets],
                             ids=["toy", "duplicates", "lattice"])
    @pytest.mark.parametrize("k", [1, 3])
    def test_independent_of_input_order(self, make_sets, k, monkeypatch):
        """The grid sorts cell keys without keeping the order of ties, so
        no result may depend on it: permuted sets give radii and hit masks
        permuted bit for bit, and the same precision and recall with the
        lanes inline and on the helper thread."""
        real, gen = make_sets()
        rng = np.random.default_rng(25)
        p_real, p_gen = (rng.permutation(len(real)),
                         rng.permutation(len(gen)))
        frame = metrics._frame("sets", real, gen)
        for support, p_support, queries, p_queries in (
                (real, p_real, gen, p_gen), (gen, p_gen, real, p_real)):
            radii = metrics.knn_radii_sq(support, k)
            shuffled = metrics.knn_radii_sq(support[p_support], k)
            np.testing.assert_array_equal(shuffled, radii[p_support])
            hits = metrics._in_manifold(queries, support, radii, frame)
            np.testing.assert_array_equal(
                metrics._in_manifold(queries[p_queries], support[p_support],
                                     shuffled, frame), hits[p_queries])
        assert (lanes_agree(monkeypatch, real[p_real], gen[p_gen], k)
                == lanes_agree(monkeypatch, real, gen, k))

    def test_far_outlier(self, monkeypatch):
        """A real point 1e6 away, whose ball reaches back to the bulk and
        so covers every generated point, also those far from the bulk."""
        rng = np.random.default_rng(12)
        real = np.concatenate([rng.standard_normal((500, 2)), [[1e6, 0.0]]])
        gen = np.concatenate([
            rng.standard_normal((300, 2)) + [10.0, 0.0],
            np.column_stack([rng.uniform(20.0, 9e5, 100), np.zeros(100)])])
        assert_grid_search_exact(real, gen, 3, monkeypatch)
        assert knn_precision_recall(real, gen, k=3)[0] == 1.0

    @pytest.mark.parametrize("k", [1, 2])
    def test_exact_duplicate_pairs(self, k, monkeypatch):
        """Each point twice: its first neighbour is its copy, at 0."""
        rng = np.random.default_rng(13)
        real = np.repeat(rng.standard_normal((200, 2)), 2, axis=0)
        gen = np.concatenate([real[::4], rng.standard_normal((150, 2))])
        assert_grid_search_exact(real, gen, k, monkeypatch)
        if k == 1:
            assert not metrics.knn_radii_sq(real, 1).any()

    def test_margin_covers_cell_rounding(self):
        """Two points (1 - 5.2e-11) h apart that floor((p - lo) / h) puts
        two cells apart, in a grid 1.05e6 cells wide: their distance lies
        past the grid's reach, which a bare h, or a fixed 1e-12 margin,
        would not ensure."""
        h = 0.19427836032550444
        pts = np.array([[-243.44605407958443, 0.0],
                        [203472.37418095686, 0.0],
                        [203472.56845931718, 0.0]])
        lo = pts.min(axis=0)
        span = float(pts[2, 0] - lo[0])
        grid = metrics._Grid(pts, lo, span, h)
        cells = grid.keys(pts) // grid.width
        d2 = (pts[2, 0] - pts[1, 0]) ** 2
        assert cells[2] - cells[1] == 2
        assert d2 <= (h * (1.0 - 1e-12)) ** 2
        assert d2 > metrics._reach_sq(span, h)


def _pr_in_child(conn, real, gen):
    result = knn_precision_recall(real, gen)
    conn.send((result, net._pools["knn"][0] == os.getpid()))


class TestKnnLanes:
    """Precision runs on the k-NN helper thread where the net puts a second
    worker; nothing else about the call changes."""

    def test_helper_exception_reaches_the_caller(self, monkeypatch):
        """An exception in the helper's lane leaves knn_precision_recall
        with its type and message."""
        rng = np.random.default_rng(15)
        real, gen = rng.standard_normal((60, 2)), rng.standard_normal((50, 2))
        in_manifold = metrics._in_manifold
        failed_on = []

        def failing(queries, *args):
            if len(queries) == len(gen):  # the precision lane
                failed_on.append(threading.current_thread().name)
                raise KeyError("precision lane failed")
            return in_manifold(queries, *args)

        monkeypatch.setattr(net, "SWEEP_WORKERS", 2)
        monkeypatch.setattr(metrics, "_in_manifold", failing)
        with pytest.raises(KeyError, match="precision lane failed"):
            knn_precision_recall(real, gen)
        assert failed_on[0].startswith("subflow-knn")

    def test_forked_child_gets_parent_bits(self, monkeypatch):
        """A child forked after the parent used its helper thread builds
        its own, and returns the parent's precision and recall."""
        monkeypatch.setattr(net, "SWEEP_WORKERS", 2)
        spec = toy_spec()
        real = sample_dataset(spec, 2000, seed=16).xs
        gen = sample_dataset(spec, 1500, seed=17).xs * 1.1
        expected = knn_precision_recall(real, gen)
        assert net._pools["knn"][0] == os.getpid()
        ctx = multiprocessing.get_context("fork")
        receive, send = ctx.Pipe(duplex=False)
        child = ctx.Process(target=_pr_in_child, args=(send, real, gen))
        child.start()
        try:
            assert receive.poll(60), "child returned nothing within 60 s"
            result, own_pool = receive.recv()
        finally:
            child.join(10)
            if child.is_alive():
                child.terminate()
                child.join(10)
        assert not child.is_alive() and child.exitcode == 0
        assert own_pool
        assert result == expected


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

    @pytest.mark.parametrize("name", ["real", "gen"])
    def test_non_finite_rejected(self, name):
        """A NaN row is refused, naming its set, rather than giving nan."""
        sets = {"real": np.random.default_rng(7).standard_normal((50, 2)),
                "gen": np.random.default_rng(8).standard_normal((50, 2))}
        sets[name][5, 1] = np.nan
        with pytest.raises(ValueError, match=f"{name} has 1 rows"):
            frechet_2d(sets["real"], sets["gen"])

    def test_points_of_another_dimension_rejected(self):
        """The closed form is for 2x2 covariances: 3D sets are refused."""
        rng = np.random.default_rng(9)
        with pytest.raises(ValueError, match=r"real must have shape \(n, 2\)"):
            frechet_2d(rng.standard_normal((50, 3)),
                       rng.standard_normal((50, 3)))
        with pytest.raises(ValueError, match=r"gen must have shape \(n, 2\)"):
            frechet_2d(rng.standard_normal((50, 2)),
                       rng.standard_normal((50, 3)))


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

    def test_non_finite_rejected(self):
        """A NaN row is not assigned to component 0: it is refused."""
        with pytest.raises(ValueError, match="gen has 10 rows"):
            mode_shares(toy_spec(), np.full((10, 2), np.nan))
        gen = np.tile(toy_spec().means()[0], (5, 1))
        gen[3, 1] = np.inf
        with pytest.raises(ValueError, match="gen has 1 rows"):
            mode_shares(toy_spec(), gen)

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

    @pytest.mark.parametrize("conditioning", ["uncond", "class", "subflow"])
    def test_model_field_rmse_matches_one_pass_per_context(self,
                                                           conditioning,
                                                           monkeypatch):
        """`model_field_rmse` reads the grid stacked once per context in
        one net pass and one oracle call per time, with the bits of one
        RMS over the rows of a net pass and an oracle call per context,
        stacked in context order."""
        cfg = parse_config("")
        model = net.VelocityNet(net.NetConfig(
            num_classes=2, num_submodes=2, hidden_width=32, hidden_layers=2,
            embed_dim=4, uses_interval=conditioning != "class"))
        model.params[:] = 0.3 * np.random.default_rng(9).standard_normal(
            model.num_params)
        meta = {"objective": "meanflow", "conditioning": conditioning,
                "source_std": cfg.mixture.source_std}
        spec, grid = cfg.mixture, metrics.default_grid(cfg.mixture)
        n = len(grid)
        contexts = {"uncond": [(2, -1)], "class": [(0, -1), (1, -1)],
                    "subflow": [(0, 0), (0, 1), (1, 0), (1, 1)]}[conditioning]
        total_sq = 0.0
        for t in (0.25, 0.5, 0.75):
            diff = np.concatenate([
                sampler.net_field(model, np.full(n, c), np.full(n, k))(grid, t)
                - mixture.oracle_velocity_batch(spec, grid, t, np.full(n, c),
                                                np.full(n, k))
                for c, k in contexts])
            total_sq += float(np.sum(diff ** 2))
        calls = []
        oracle = mixture.oracle_velocity_batch
        monkeypatch.setattr(mixture, "oracle_velocity_batch",
                            lambda *args: calls.append(args) or oracle(*args))
        assert pipeline.model_field_rmse(model, meta, cfg) == float(
            np.sqrt(total_sq / (3 * n * len(contexts))))
        assert len(calls) == 3


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
        io.append_report_csv(path, report, "run-x", 4, 1.0)
        io.append_report_csv(path, report, "run-x", 8, 1.0)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == ",".join(["run_id", "nfe", "w",
                                     *io.REPORT_FIELDS])
        assert len(lines) == 3
