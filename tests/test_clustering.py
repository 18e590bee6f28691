"""K-Means sub-mode discovery tests.

The two-blob case is validated against a brute-force search over every
2-coloring; priors are validated on the toy dataset.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from subflow import clustering, io, mixture, pipeline
from subflow.clustering import (SubmodeTable, assign_submodes, lloyd,
                                match_labels, random_assignment)
from subflow.config import load_config
from subflow.mixture import toy_spec
from subflow.rng import stream

from support import ROOT


def two_blobs(n_per=10, sep=20.0, std=1.0, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.normal([0.0, 0.0], std, size=(n_per, 2))
    b = rng.normal([sep, 0.0], std, size=(n_per, 2))
    return np.concatenate([a, b])


def brute_force_two_partition(points):
    """Minimum-SSE 2-partition by exhaustive search over colorings."""
    n = len(points)
    best_sse = np.inf
    best = None
    for bits in itertools.product([0, 1], repeat=n - 1):
        labels = np.array((0,) + bits)
        sse = 0.0
        for j in (0, 1):
            mask = labels == j
            if not np.any(mask):
                sse = np.inf
                break
            centroid = points[mask].mean(axis=0)
            sse += float(np.sum((points[mask] - centroid) ** 2))
        if sse < best_sse:
            best_sse = sse
            best = labels
    return best, best_sse


def reference_lloyd(points, k, rng):
    """Lloyd as it stood before the column passes: the 3-D arg-min
    assignment and the masked-mean update, stopping once the labels stop
    changing or an assignment no longer lowers the SSE.  Returns
    (centroids, labels, how many empty clusters were re-seeded)."""
    def assign(centroids):
        d2 = np.sum((points[:, None, :] - centroids[None, :, :]) ** 2, axis=2)
        return np.argmin(d2, axis=1), float(np.min(d2, axis=1).sum())

    n = len(points)
    centroids = np.empty((k, points.shape[1]))
    centroids[0] = points[rng.integers(n)]
    d2 = np.sum((points - centroids[0]) ** 2, axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total <= 0.0:
            centroids[j] = points[rng.integers(n)]
            continue
        centroids[j] = points[rng.choice(n, p=d2 / total)]
        d2 = np.minimum(d2, np.sum((points - centroids[j]) ** 2, axis=1))
    (labels, sse), reseeds = assign(centroids), 0
    for _ in range(clustering.LLOYD_MAX_ITERS):
        for j in range(k):
            mask = labels == j
            if np.any(mask):
                centroids[j] = points[mask].mean(axis=0)
            else:
                residual = np.sum((points - centroids[labels]) ** 2, axis=1)
                far = int(np.argmax(residual))
                centroids[j] = points[far]
                labels[far] = j
                reseeds += 1
        new_labels, new_sse = assign(centroids)
        done = np.array_equal(new_labels, labels) or not new_sse < sse
        labels, sse = new_labels, new_sse
        if done:
            break
    return centroids, labels, reseeds


def point_sets(kind, trials, seed):
    """(points, k) cases: gaussian clouds ("random"), small integer
    lattices, whose distances tie ("lattice"), and a few distinct points
    repeated, which leave clusters empty ("few")."""
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        n = int(rng.integers(1, 3000))
        if kind == "random":
            points = (rng.standard_normal((n, 2)) * rng.uniform(0.1, 10)
                      + rng.uniform(-5, 5, 2))
        elif kind == "lattice":
            points = rng.integers(-3, 4, size=(n, 2)).astype(np.float64)
        else:
            distinct = rng.standard_normal((int(rng.integers(1, 5)), 2))
            points = distinct[rng.integers(0, len(distinct), n)]
        yield points, min(int(rng.integers(1, 13)), n)


class TestLloydMatchesReference:
    """`lloyd`'s column passes give the reference's labels and centroids
    bit for bit."""

    @pytest.mark.parametrize("kind", ["random", "lattice", "few"])
    def test_labels_and_centroids_equal(self, kind):
        reseeds = 0
        for trial, (points, k) in enumerate(point_sets(kind, 40, seed=17)):
            want = reference_lloyd(points, k, stream(trial, "test.ref"))
            centroids, labels = lloyd(points, k, stream(trial, "test.ref"))
            assert labels.dtype == want[1].dtype
            assert np.array_equal(labels, want[1]), (kind, trial)
            assert np.array_equal(centroids, want[0]), (kind, trial)
            reseeds += want[2]
        if kind == "few":  # the re-seed path ran
            assert reseeds > 0

    @pytest.mark.parametrize("k", range(1, 13))
    def test_every_k_on_one_set(self, k):
        points = np.random.default_rng(k).standard_normal((2000, 2))
        points[::7] = points[0]  # exact duplicates, so distances tie
        want = reference_lloyd(points, k, stream(k, "test.ref.k"))
        centroids, labels = lloyd(points, k, stream(k, "test.ref.k"))
        assert np.array_equal(labels, want[1])
        assert np.array_equal(centroids, want[0])

    @pytest.mark.parametrize("n, k", [(1, 1), (17, 3), (30_000, 12)])
    def test_bincount_mean_is_the_masked_mean(self, n, k):
        rng = np.random.default_rng(n)
        points = rng.standard_normal((n, 2)) * 3.0 + 1.0
        labels = rng.integers(0, k, n)
        counts, sums = clustering._cluster_sums(
            np.ascontiguousarray(points.T), labels, k)
        for j in range(k):
            mask = labels == j
            assert counts[j] == mask.sum()
            if counts[j]:
                assert np.array_equal(sums[j] / counts[j],
                                      points[mask].mean(axis=0))


class TestLloyd:
    def test_two_blobs_match_brute_force(self):
        points = two_blobs(n_per=8)
        rng = stream(0, "test.lloyd")
        _, labels = lloyd(points, 2, rng)
        expected, _ = brute_force_two_partition(points)
        # compare partitions up to a label swap
        same = np.array_equal(labels, expected)
        swapped = np.array_equal(1 - labels, expected)
        assert same or swapped

    def test_k1_centroid_is_mean(self):
        points = two_blobs()
        centroids, labels = lloyd(points, 1, stream(1, "test.lloyd"))
        assert np.all(labels == 0)
        np.testing.assert_allclose(centroids[0], points.mean(axis=0), atol=1e-12)

    @pytest.mark.parametrize("k", [3, 4, 6])
    def test_more_clusters_than_distinct_points_converge(self, k,
                                                         monkeypatch):
        """300 points on 3 locations: at K > 3 a re-seeded duplicate ties
        its way back to the cluster it left, and Lloyd stops there, after
        the seeding's assignment and one iteration's.  The labels (one per
        location, the extra clusters empty) are those Lloyd returned when
        it went on re-seeding to LLOYD_MAX_ITERS."""
        points = np.repeat([[0.0, 0.0], [3.0, 1.0], [-2.0, 4.0]], 100,
                           axis=0)
        calls = []
        assign = clustering._assign
        monkeypatch.setattr(clustering, "_assign",
                            lambda *args: calls.append(1) or assign(*args))
        _, labels = lloyd(points, k, stream(0, "test.lloyd.duplicates", k))
        assert len(calls) <= 3
        per_location = {3: [0, 2, 1], 4: [1, 0, 2], 6: [0, 2, 1]}[k]
        assert np.array_equal(labels, np.repeat(per_location, 100))

    def test_identical_points_degenerate(self):
        points = np.zeros((12, 2))
        centroids, labels = lloyd(points, 3, stream(2, "test.lloyd"))
        sse = float(np.sum((points - centroids[labels]) ** 2))
        assert sse == 0.0

    def test_assignments_optimal_at_convergence(self):
        points = two_blobs(n_per=30, sep=6.0)
        centroids, labels = lloyd(points, 2, stream(3, "test.lloyd"))
        d2 = np.sum((points[:, None] - centroids[None]) ** 2, axis=2)
        np.testing.assert_array_equal(labels, np.argmin(d2, axis=1))

    def test_sse_monotone_under_instrumentation(self):
        """Track SSE across restarts; the internal check never fires."""
        rng = np.random.default_rng(4)
        for trial in range(20):
            points = rng.standard_normal((40, 2)) * rng.uniform(0.5, 3)
            lloyd(points, rng.integers(1, 5), stream(trial, "test.lloyd.mono"))

    def test_sse_increase_raises(self, monkeypatch):
        """The check is an explicit error, so it also holds under python -O."""
        calls = iter(range(100))
        monkeypatch.setattr(clustering, "_sse",
                            lambda *args: float(next(calls)))
        with pytest.raises(RuntimeError, match="SSE increased"):
            lloyd(two_blobs(), 2, stream(5, "test.lloyd"))

    @settings(deadline=None, max_examples=15)
    @given(seed=st.integers(0, 10_000), k=st.integers(1, 4))
    def test_partition_covers_all_points(self, seed, k):
        points = np.random.default_rng(seed).standard_normal((25, 2))
        centroids, labels = lloyd(points, k, stream(seed, "test.lloyd.prop"))
        assert labels.shape == (25,)
        assert np.all((labels >= 0) & (labels < k))


class TestAssignSubmodes:
    def test_toy_priors_recovered(self):
        """Four-peak toy dataset: per-class priors land on (0.7, 0.3)."""
        spec = toy_spec()
        data = mixture.sample_dataset(spec, 100000, seed=0)
        xs, cs, _ = mixture.dataset_arrays(data)
        feats = {c: xs[cs == c] for c in (0, 1)}
        table = SubmodeTable.from_labels(assign_submodes(feats, 2, seed=0), 2)
        for c in (0, 1):
            prior = np.sort(table.per_class[c].priors)[::-1]
            np.testing.assert_allclose(prior, [0.7, 0.3], atol=0.02)

    def test_centroids_near_true_means(self):
        spec = toy_spec()
        data = mixture.sample_dataset(spec, 50000, seed=1)
        xs, cs, _ = mixture.dataset_arrays(data)
        points = xs[cs == 0]
        labels = assign_submodes({0: points}, 2, seed=0)[0]
        cents = np.sort([points[labels == j, 1].mean() for j in (0, 1)])
        np.testing.assert_allclose(cents, [-2.0, 2.0], atol=0.05)

    def test_reduced_k_flagged(self):
        feats = {0: np.array([[0.0, 0.0], [1.0, 1.0]])}
        table = SubmodeTable.from_labels(assign_submodes(feats, 5, seed=0), 5)
        np.testing.assert_array_equal(table.per_class[0].counts, [1, 1])
        assert table.num_submodes() == 2

    def test_k_below_one_rejected(self):
        with pytest.raises(ValueError):
            assign_submodes({0: np.zeros((3, 2))}, 0, seed=0)

    def test_priors_consistent_with_assignments(self):
        feats = {0: two_blobs(n_per=15), 1: two_blobs(n_per=7, seed=3)}
        labels = assign_submodes(feats, 2, seed=5)
        table = SubmodeTable.from_labels(labels, 2)
        for c, cc in table.per_class.items():
            counts = np.bincount(labels[c], minlength=2)
            np.testing.assert_array_equal(counts, cc.counts)
            assert np.array_equal(cc.priors, counts / counts.sum())

    def test_deterministic(self):
        feats = {0: two_blobs(seed=9)}
        a = assign_submodes(feats, 2, seed=4)[0]
        b = assign_submodes(feats, 2, seed=4)[0]
        np.testing.assert_array_equal(a, b)


class TestEmpiricalPrior:
    def test_simple_counts(self):
        feats = {0: np.concatenate([np.zeros((7, 2)), np.full((3, 2), 10.0)])}
        table = SubmodeTable.from_labels(assign_submodes(feats, 2, seed=0), 2)
        prior = np.sort(table.per_class[0].priors)[::-1]
        np.testing.assert_allclose(prior, [0.7, 0.3])

    def test_empty_sub_mode_kept(self):
        """A sub-mode without points keeps its row, with prior 0."""
        table = SubmodeTable.from_labels({0: np.zeros(5, dtype=np.int64)}, 2)
        np.testing.assert_array_equal(table.per_class[0].counts, [5, 0])
        np.testing.assert_array_equal(table.per_class[0].priors, [1.0, 0.0])

    @pytest.mark.parametrize("counts", [[3, -1], [0, 0]])
    def test_counts_without_mass_rejected(self, counts):
        with pytest.raises(ValueError, match="class 4: counts"):
            SubmodeTable.from_counts({4: counts})


class TestRandomAssignment:
    def test_label_frequencies_uniform(self):
        feats = {0: np.random.default_rng(0).standard_normal((100000, 2))}
        labels = random_assignment(feats, 4, seed=2)[0]
        np.testing.assert_allclose(np.bincount(labels) / len(labels), 0.25,
                                   atol=0.01)

    def test_reproducible(self):
        feats = {0: np.zeros((50, 2))}
        a = random_assignment(feats, 3, seed=1)[0]
        b = random_assignment(feats, 3, seed=1)[0]
        np.testing.assert_array_equal(a, b)

    def test_k1_matches_kmeans_k1(self):
        feats = {0: two_blobs(seed=8)}
        np.testing.assert_array_equal(random_assignment(feats, 1, seed=0)[0],
                                      assign_submodes(feats, 1, seed=0)[0])

    def test_reduced_k(self):
        """Like K-Means, a class of fewer points than k draws from that
        many sub-modes."""
        labels = random_assignment({0: np.zeros((2, 2))}, 5, seed=0)[0]
        assert np.all((labels >= 0) & (labels < 2))


class TestMatchLabels:
    def test_swapped_clusters_renumbered(self):
        labels = np.array([0, 0, 0, 1, 1])
        reference = np.array([1, 1, 0, 0, 0])
        np.testing.assert_array_equal(match_labels(labels, reference),
                                      [1, 1, 1, 0, 0])

    @pytest.mark.parametrize("labels, reference", [
        ([0, 0, 1, 1], [0, 0, 0, 0]),      # both clusters mostly sub-mode 0
        ([0, 0, 1, 1], [2, 2, 0, 0]),      # sub-mode 2 is not a cluster id
        ([0, 1, 2, 2], [1, 0, 1, 1]),      # three clusters, two sub-modes
    ])
    def test_no_one_to_one_map_keeps_numbers(self, labels, reference):
        labels = np.array(labels)
        assert match_labels(labels, np.array(reference)) is labels


class TestClusterDataset:
    def test_clusters_numbered_after_generating_sub_modes(self):
        """toy.cfg at seed 13: K-Means numbers both classes' clusters in the
        opposite order to the mixture; cluster_dataset renumbers them, so
        cluster j is mostly generating sub-mode j in both classes, and the
        table counts the renumbered labels."""
        cfg = load_config(ROOT / "configs" / "toy.cfg")
        cfg.train.seed = 13
        dataset = pipeline.build_dataset(cfg)
        xs, cs, ks = mixture.dataset_arrays(dataset)
        generating = ks.copy()
        raw = assign_submodes({c: xs[cs == c] for c in (0, 1)}, 2, seed=13)
        table, labels = pipeline.cluster_dataset(cfg, dataset)
        for c in (0, 1):
            np.testing.assert_array_equal(labels[c], 1 - raw[c])
            np.testing.assert_array_equal(ks[cs == c], labels[c])
            for j in (0, 1):
                from_j = generating[cs == c][labels[c] == j]
                assert np.mean(from_j == j) > 0.99, (c, j)
            np.testing.assert_array_equal(table.per_class[c].counts,
                                          np.bincount(labels[c]))


class TestCsvRoundTrip:
    def test_assignments_and_priors(self, tmp_path):
        """The assignments CSV holds every point's label, and the table's
        priors are the shares of those rows per class."""
        feats = {0: two_blobs(seed=1), 1: two_blobs(seed=2)}
        labels = assign_submodes(feats, 2, seed=0)
        ap = tmp_path / "assignments.csv"
        io.write_assignments_csv(ap, labels)
        lines = ap.read_text().strip().splitlines()
        assert lines[0] == "sample_index,class_id,submode_id"
        assert len(lines) == 1 + 40
        rows = np.array([line.split(",") for line in lines[1:]], dtype=int)
        table = SubmodeTable.from_labels(labels, 2)
        for c in (0, 1):
            counts = np.bincount(rows[rows[:, 1] == c, 2], minlength=2)
            assert np.array_equal(table.per_class[c].priors,
                                  counts / counts.sum())
