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


def _kmeanspp_seeds(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
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
    return centroids


def _assign(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    d2 = np.sum((points[:, None, :] - centroids[None, :, :]) ** 2, axis=2)
    # argmin ties break to the lowest index
    return np.argmin(d2, axis=1)


def _sse(points: np.ndarray, centroids: np.ndarray, labels: np.ndarray) -> float:
    return float(np.sum((points - centroids[labels]) ** 2))


def lloyd(points: np.ndarray, k: int,
          rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Lloyd's algorithm with k-means++ seeding; returns (centroids, labels).

    Within-cluster SSE is checked non-increasing across iterations.  Empty
    clusters are re-seeded to the point farthest from its current centroid.
    """
    centroids = _kmeanspp_seeds(points, k, rng)
    labels = _assign(points, centroids)
    prev_sse = _sse(points, centroids, labels)
    for _ in range(LLOYD_MAX_ITERS):
        for j in range(k):
            mask = labels == j
            if np.any(mask):
                centroids[j] = points[mask].mean(axis=0)
            else:
                residual = np.sum((points - centroids[labels]) ** 2, axis=1)
                far = int(np.argmax(residual))
                centroids[j] = points[far]
                labels[far] = j
        new_labels = _assign(points, centroids)
        cur_sse = _sse(points, centroids, new_labels)
        if not cur_sse <= prev_sse + 1e-9:
            raise RuntimeError(
                f"Lloyd SSE increased from {prev_sse!r} to {cur_sse!r}")
        prev_sse = cur_sse
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
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

