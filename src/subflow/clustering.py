"""Per-class sub-mode discovery via K-Means, plus ablation baselines.

Sub-mode labels come from clustering each class separately: k-means++
seeding followed by Lloyd iterations over squared Euclidean distance
(arg-min assignment, ties to the lowest index).  At toy scale the features
are the raw 2D coordinates; externally supplied feature vectors of any
dimension are accepted through the same interface.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .rng import stream


@dataclass
class ClassClusters:
    centroids: np.ndarray        # (K_eff, d)
    assignments: np.ndarray      # (n_c,) indices into centroids
    counts: np.ndarray           # (K_eff,)
    priors: np.ndarray           # (K_eff,), counts / n_c


@dataclass
class SubmodeTable:
    per_class: dict[int, ClassClusters] = field(default_factory=dict)

    def num_submodes(self) -> int:
        return max(len(cc.centroids) for cc in self.per_class.values())

    def validate(self) -> None:
        for cid, cc in self.per_class.items():
            # phrased so that a NaN prior fails it too
            if not (np.all(cc.priors >= 0)
                    and abs(cc.priors.sum() - 1.0) <= 1e-12):
                raise ValueError(f"class {cid}: priors must be a distribution")
            if np.any(cc.assignments < 0) or np.any(
                    cc.assignments >= len(cc.centroids)):
                raise ValueError(f"class {cid}: assignment index out of range")


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


def lloyd(points: np.ndarray, k: int, rng: np.random.Generator,
          max_iters: int = 100) -> tuple[np.ndarray, np.ndarray]:
    """Lloyd's algorithm with k-means++ seeding; returns (centroids, labels).

    Within-cluster SSE is checked non-increasing across iterations.  Empty
    clusters are re-seeded to the point farthest from its current centroid.
    """
    centroids = _kmeanspp_seeds(points, k, rng)
    labels = _assign(points, centroids)
    prev_sse = _sse(points, centroids, labels)
    for _ in range(max_iters):
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
            labels = new_labels
            break
        labels = new_labels
    return centroids, labels


def assign_submodes(features_by_class: dict[int, np.ndarray], k: int,
                    seed: int, max_iters: int = 100) -> SubmodeTable:
    """Cluster each class into k sub-modes and estimate empirical priors.

    A class with fewer samples than k gets its effective k reduced to the
    sample count.
    """
    if k < 1:
        raise ValueError("K must be >= 1")
    table = SubmodeTable()
    for class_id in sorted(features_by_class):
        points = np.asarray(features_by_class[class_id], dtype=np.float64)
        k_eff = min(k, len(points))
        rng = stream(seed, "clustering.kmeans", class_id)
        centroids, labels = lloyd(points, k_eff, rng, max_iters=max_iters)
        counts = np.bincount(labels, minlength=k_eff).astype(np.int64)
        table.per_class[class_id] = ClassClusters(
            centroids=centroids, assignments=labels, counts=counts,
            priors=counts / counts.sum())
    table.validate()
    return table


def random_assignment(features_by_class: dict[int, np.ndarray], k: int,
                      seed: int) -> SubmodeTable:
    """Ablation baseline: uniform random sub-mode labels, semantics ignored."""
    if k < 1:
        raise ValueError("K must be >= 1")
    table = SubmodeTable()
    for class_id in sorted(features_by_class):
        points = np.asarray(features_by_class[class_id], dtype=np.float64)
        rng = stream(seed, "clustering.random_assignment", class_id)
        labels = rng.integers(0, k, size=len(points))
        centroids = np.zeros((k, points.shape[1]))
        for j in range(k):
            mask = labels == j
            if np.any(mask):
                centroids[j] = points[mask].mean(axis=0)
        counts = np.bincount(labels, minlength=k).astype(np.int64)
        table.per_class[class_id] = ClassClusters(
            centroids=centroids, assignments=labels, counts=counts,
            priors=counts / counts.sum())
    table.validate()
    return table


def standardize(features: np.ndarray) -> np.ndarray:
    """Per-dimension standardization for external feature files (opt-in)."""
    mu = features.mean(axis=0)
    sd = features.std(axis=0)
    sd[sd == 0.0] = 1.0
    return (features - mu) / sd


# ---- CSV serialization ---------------------------------------------------

def write_assignments_csv(table: SubmodeTable, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["sample_index", "class_id", "submode_id"])
        for class_id in sorted(table.per_class):
            for i, label in enumerate(table.per_class[class_id].assignments):
                writer.writerow([i, class_id, int(label)])


def write_priors_csv(table: SubmodeTable, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["class_id", "submode_id", "count", "prior"])
        for class_id in sorted(table.per_class):
            cc = table.per_class[class_id]
            for j in range(len(cc.centroids)):
                writer.writerow([class_id, j, int(cc.counts[j]),
                                 repr(float(cc.priors[j]))])


def read_feature_csv(path) -> dict[int, np.ndarray]:
    """External feature file: one row per sample, last column is the class id.

    A non-numeric cell, a file without a feature column, a class id that is
    not a non-negative integer, or a non-finite feature raises ValueError
    naming the path (and the first bad row, from 1).
    """
    try:
        rows = np.loadtxt(path, delimiter=",", ndmin=2)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    if rows.shape[1] < 2:
        raise ValueError(f"{path}: need feature columns before the class id")
    features = rows[:, :-1]
    labels = rows[:, -1]
    for bad, what in (
            (~(np.isfinite(labels) & (labels >= 0)
               & (labels == np.floor(labels))),
             "class ids that are not non-negative integers"),
            (~np.isfinite(features).all(axis=1), "non-finite features")):
        if bad.any():
            raise ValueError(
                f"{path}: {int(bad.sum())} rows with {what}, the first "
                f"at row {int(np.argmax(bad)) + 1}")
    classes = labels.astype(np.int64)
    return {int(c): features[classes == c] for c in np.unique(classes)}
