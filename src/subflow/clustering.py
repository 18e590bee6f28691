"""Per-class sub-mode discovery via K-Means, plus ablation baselines.

Sub-mode labels come from clustering each class separately: k-means++
seeding followed by Lloyd iterations over squared Euclidean distance
(arg-min assignment, ties to the lowest index).  `train` clusters each
class's raw 2D coordinates (`pipeline.cluster_dataset`).  A `SubmodeTable`
holds per class each sub-mode's count and prior; checkpoints store counts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rng import stream

LLOYD_MAX_ITERS = 100  # Lloyd stops here if its labels still change
LABELINGS = ("kmeans", "random")  # a run's [cluster] labels


@dataclass(frozen=True)
class ClassCounts:
    counts: np.ndarray           # (K_c,) training points per sub-mode
    priors: np.ndarray           # (K_c,), counts / counts.sum()


@dataclass
class SubmodeTable:
    per_class: dict[int, ClassCounts]

    @classmethod
    def from_counts(cls, counts_by_class: dict) -> "SubmodeTable":
        """The one constructor: each class's priors are its counts' share.
        Negative counts, or counts with a zero sum, raise ValueError."""
        per_class = {}
        for class_id in sorted(counts_by_class):
            counts = np.asarray(counts_by_class[class_id], dtype=np.int64)
            if np.any(counts < 0) or counts.sum() == 0:
                raise ValueError(f"class {class_id}: counts {counts.tolist()}"
                                 f" are not >= 0 with a positive sum")
            per_class[class_id] = ClassCounts(counts, counts / counts.sum())
        return cls(per_class)

    @classmethod
    def from_labels(cls, labels_by_class: dict, k: int) -> "SubmodeTable":
        """Counts of each class's labels over its min(k, n_c) sub-modes."""
        return cls.from_counts({
            class_id: np.bincount(labels, minlength=min(k, len(labels)))
            for class_id, labels in labels_by_class.items()})

    def num_submodes(self) -> int:
        return max(len(cc.counts) for cc in self.per_class.values())


def _sq_dist(cols: np.ndarray, centroid) -> np.ndarray:
    """Squared distance of each point, given as the (d, n) contiguous
    columns of its coordinates, to `centroid` (d scalars, or d (n,) columns
    of a per-point centroid): (x - cx)^2 + (y - cy)^2, added in column
    order.  In 2-D that is the sum numpy's reduction forms over a length-2
    axis, so it matches `np.sum((points - centroid) ** 2, axis=-1)` bit for
    bit."""
    d2 = cols[0] - centroid[0]
    d2 *= d2
    for col, c in zip(cols[1:], centroid[1:]):
        term = col - c
        term *= term
        d2 += term
    return d2


def _kmeanspp_seeds(cols: np.ndarray, k: int,
                    rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeds of the points in (d, n) columns: the first uniform,
    each next one drawn with probability proportional to the squared
    distance (`_sq_dist`) to the nearest seed so far, or uniform when every
    point sits on a seed."""
    n = cols.shape[1]
    centroids = np.empty((k, len(cols)))
    centroids[0] = cols[:, rng.integers(n)]
    d2 = _sq_dist(cols, centroids[0])
    for j in range(1, k):
        total = d2.sum()
        if total <= 0.0:
            centroids[j] = cols[:, rng.integers(n)]
            continue
        centroids[j] = cols[:, rng.choice(n, p=d2 / total)]
        d2 = np.minimum(d2, _sq_dist(cols, centroids[j]))
    return centroids


def _assign(cols: np.ndarray, centroids: np.ndarray):
    """(labels, squared distances to them) of the points in (d, n)
    columns: one `_sq_dist` pass per centroid and a running minimum that
    moves only on a strict `<`, so ties go to the lowest index as `argmin`
    breaks them, without an (n, K, d) temporary."""
    best = _sq_dist(cols, centroids[0])
    labels = np.zeros(cols.shape[1], dtype=np.intp)
    for j in range(1, len(centroids)):
        d2 = _sq_dist(cols, centroids[j])
        closer = d2 < best
        labels[closer] = j
        np.copyto(best, d2, where=closer)
    return labels, best


def _cluster_sums(cols: np.ndarray, labels: np.ndarray, k: int):
    """(counts, (k, d) coordinate sums) of each cluster.  bincount adds a
    cluster's coordinates one point at a time in point order, the sum that
    `points[labels == j].mean(axis=0)` forms before it divides."""
    counts = np.bincount(labels, minlength=k)
    sums = np.stack([np.bincount(labels, weights=col, minlength=k)
                     for col in cols], axis=1)
    return counts, sums


def _sse(d2: np.ndarray) -> float:
    """Within-cluster SSE from each point's squared distance to its
    centroid."""
    return float(d2.sum())


def lloyd(points: np.ndarray, k: int,
          rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Lloyd's algorithm with k-means++ seeding; returns (centroids, labels).

    Each iteration works on the contiguous coordinate columns of the
    points: K column passes assign (`_assign`), and one bincount per
    column gives every centroid as its cluster's sum over its count.  Labels
    and centroids are those of the arg-min assignment over
    `np.sum((points[:, None] - centroids[None]) ** 2, axis=2)` and of the
    masked `points[labels == j].mean(axis=0)` update, bit for bit, in 2-D.

    Within-cluster SSE, read from the assignment's squared distances, is
    checked non-increasing across iterations, and Lloyd stops once the
    labels stop changing or an assignment no longer lowers it: where K
    exceeds the distinct points, a re-seeded duplicate would otherwise
    tie its way back at every iteration.  Clusters update in index
    order, and an empty one is re-seeded to the point farthest from its
    current centroid (with the clusters before it already moved), which
    then joins it; the sums are recomputed after each re-seed, so the
    clusters after it see the move.
    """
    cols = np.ascontiguousarray(np.asarray(points, dtype=np.float64).T)
    centroids = _kmeanspp_seeds(cols, k, rng)
    labels, d2 = _assign(cols, centroids)
    prev_sse = _sse(d2)
    for _ in range(LLOYD_MAX_ITERS):
        counts, sums = _cluster_sums(cols, labels, k)
        for j in range(k):
            if counts[j]:
                centroids[j] = sums[j] / counts[j]
                continue
            far = int(np.argmax(_sq_dist(cols, centroids[labels].T)))
            centroids[j] = cols[:, far]
            labels[far] = j
            counts, sums = _cluster_sums(cols, labels, k)
        new_labels, d2 = _assign(cols, centroids)
        cur_sse = _sse(d2)
        if not cur_sse <= prev_sse + 1e-9:
            raise RuntimeError(
                f"Lloyd SSE increased from {prev_sse!r} to {cur_sse!r}")
        done = np.array_equal(new_labels, labels) or not cur_sse < prev_sse
        prev_sse, labels = cur_sse, new_labels
        if done:
            break
    return centroids, labels


def assign_submodes(features_by_class: dict[int, np.ndarray], k: int,
                    seed: int) -> dict[int, np.ndarray]:
    """Cluster each class into k sub-modes; returns its labels per class.

    A class with fewer samples than k gets its effective k reduced to the
    sample count.
    """
    if k < 1:
        raise ValueError("K must be >= 1")
    labels = {}
    for class_id in sorted(features_by_class):
        points = np.asarray(features_by_class[class_id], dtype=np.float64)
        rng = stream(seed, "clustering.kmeans", class_id)
        _, labels[class_id] = lloyd(points, min(k, len(points)), rng)
    return labels


def random_assignment(features_by_class: dict[int, np.ndarray], k: int,
                      seed: int) -> dict[int, np.ndarray]:
    """Ablation baseline: uniform random labels over min(k, n_c) sub-modes."""
    if k < 1:
        raise ValueError("K must be >= 1")
    labels = {}
    for class_id in sorted(features_by_class):
        n = len(features_by_class[class_id])
        rng = stream(seed, "clustering.random_assignment", class_id)
        labels[class_id] = rng.integers(0, min(k, n), size=n)
    return labels


def match_labels(labels: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """Renumber each cluster after the reference label most of its points
    carry (ties to the lowest), when that map is one-to-one onto the
    cluster ids; otherwise the labels are returned as they are.  Cluster
    membership never changes."""
    k, m = int(labels.max()) + 1, int(reference.max()) + 1
    votes = np.bincount(labels * m + reference, minlength=k * m)
    majority = votes.reshape(k, m).argmax(axis=1)
    if np.array_equal(np.sort(majority), np.arange(k)):
        return majority[labels]
    return labels

