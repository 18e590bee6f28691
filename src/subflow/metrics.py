"""Quality and diversity metrics for 2D point sets.

Fidelity/diversity follow the k-NN manifold protocol (precision: generated
points inside the real manifold; recall: real points inside the generated
manifold).  The Fréchet distance is the moment-based Gaussian distance on
raw coordinates with the closed-form 2x2 matrix square root.  Mode shares
quantify collapse directly against the known mixture weights.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .mixture import MixtureSpec


@dataclass
class MetricReport:
    frechet: float
    precision: float
    recall: float
    mode_shares: np.ndarray
    mode_tv: float
    coverage_count: int
    field_rmse: Optional[float] = None

    CSV_FIELDS = ["frechet", "precision", "recall", "mode_tv",
                  "coverage_count", "field_rmse"]
    CSV_HEADER = ["run_id", "nfe", "w", *CSV_FIELDS]

    def csv_fields(self) -> list:
        """The CSV_FIELDS of this report, floats as their shortest repr."""
        return [repr(float(self.frechet)), repr(float(self.precision)),
                repr(float(self.recall)), repr(float(self.mode_tv)),
                self.coverage_count,
                "" if self.field_rmse is None
                else repr(float(self.field_rmse))]

    def csv_row(self, run_id: str, nfe: int, w: float) -> list:
        return [run_id, nfe, repr(w), *self.csv_fields()]


_CHUNK = 1024


def _pairwise_sq(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    d2 = (np.sum(a ** 2, axis=1)[:, None] + np.sum(b ** 2, axis=1)[None, :]
          - 2.0 * a @ b.T)
    return np.maximum(d2, 0.0)


def _knn_radii_sq(points: np.ndarray, k: int) -> np.ndarray:
    """Squared distance from each point to its k-th nearest neighbor (self excluded)."""
    radii = np.empty(len(points))
    for lo in range(0, len(points), _CHUNK):
        d2 = _pairwise_sq(points[lo:lo + _CHUNK], points)
        rows = np.arange(d2.shape[0])
        d2[rows, lo + rows] = np.inf
        radii[lo:lo + _CHUNK] = np.partition(d2, k - 1, axis=1)[:, k - 1]
    return radii


def _in_manifold(queries: np.ndarray, support: np.ndarray,
                 radii_sq: np.ndarray) -> np.ndarray:
    hits = np.empty(len(queries), dtype=bool)
    for lo in range(0, len(queries), _CHUNK):
        d2 = _pairwise_sq(queries[lo:lo + _CHUNK], support)
        hits[lo:lo + _CHUNK] = np.any(d2 <= radii_sq[None, :], axis=1)
    return hits


def knn_precision_recall(real: np.ndarray, gen: np.ndarray,
                         k: int = 3) -> tuple[float, float]:
    """k-NN manifold precision and recall between two point sets."""
    real = np.asarray(real, dtype=np.float64)
    gen = np.asarray(gen, dtype=np.float64)
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if len(real) <= k or len(gen) <= k:
        raise ValueError(f"need more than k={k} points per set")
    precision = float(np.mean(_in_manifold(gen, real, _knn_radii_sq(real, k))))
    recall = float(np.mean(_in_manifold(real, gen, _knn_radii_sq(gen, k))))
    return precision, recall


def _moments(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    mu = points.mean(axis=0)
    cov = np.cov(points, rowvar=False, bias=False)
    if np.linalg.det(cov) <= 0.0:
        cov = cov + 1e-9 * np.eye(2)
    return mu, cov


def frechet_2d(real: np.ndarray, gen: np.ndarray) -> float:
    """Moment-based Fréchet distance between two 2D point sets.

    d^2 = ||mu1 - mu2||^2 + tr(S1) + tr(S2) - 2 tr((S1 S2)^{1/2}), with
    tr((S1 S2)^{1/2}) = sqrt(tr(S1 S2) + 2 sqrt(det(S1 S2))) for 2x2 matrices.
    """
    real = np.asarray(real, dtype=np.float64)
    gen = np.asarray(gen, dtype=np.float64)
    if len(real) < 3 or len(gen) < 3:
        raise ValueError("need at least 3 points per set")
    mu1, s1 = _moments(real)
    mu2, s2 = _moments(gen)
    prod = s1 @ s2
    det = max(float(np.linalg.det(prod)), 0.0)
    tr_sqrt = np.sqrt(max(float(np.trace(prod)) + 2.0 * np.sqrt(det), 0.0))
    d2 = (float(np.sum((mu1 - mu2) ** 2)) + float(np.trace(s1))
          + float(np.trace(s2)) - 2.0 * tr_sqrt)
    return max(float(d2), 0.0)


def mode_shares(spec: MixtureSpec, gen: np.ndarray, tau: float = 0.5):
    """Nearest-mean mode assignment frequencies, TV distance, coverage count.

    Ties in the nearest-mean assignment break to the lowest component index.
    A component counts as covered when its share is at least tau times its
    true weight.
    """
    gen = np.asarray(gen, dtype=np.float64)
    if len(gen) == 0:
        raise ValueError("gen must be nonempty")
    d2 = _pairwise_sq(gen, spec.means())
    assign = np.argmin(d2, axis=1)
    shares = np.bincount(assign, minlength=len(spec.components)) / len(gen)
    weights = spec.weights()
    tv = 0.5 * float(np.sum(np.abs(shares - weights)))
    coverage = int(np.sum(shares >= tau * weights))
    return shares, tv, coverage


def default_grid(spec: MixtureSpec) -> np.ndarray:
    """41x41 lattice over the mixture's 3-sigma bounding box."""
    xmin, ymin, xmax, ymax = spec.bounding_box()
    gx = np.linspace(xmin, xmax, 41)
    gy = np.linspace(ymin, ymax, 41)
    xx, yy = np.meshgrid(gx, gy)
    return np.column_stack([xx.ravel(), yy.ravel()])


def field_rmse(field_a: Callable[[np.ndarray, float], np.ndarray],
               field_b: Callable[[np.ndarray, float], np.ndarray],
               grid: np.ndarray) -> float:
    """RMS of ||A(x,t) - B(x,t)|| over grid x times t in {0.25, 0.5, 0.75}.

    Both fields take an (n,2) batch and a scalar time.
    """
    grid = np.asarray(grid, dtype=np.float64)
    if len(grid) == 0:
        raise ValueError("grid must be nonempty")
    sq = 0.0
    count = 0
    for t in (0.25, 0.5, 0.75):
        diff = field_a(grid, t) - field_b(grid, t)
        sq += float(np.sum(diff ** 2))
        count += len(grid)
    return float(np.sqrt(sq / count))


def evaluate_all(spec: MixtureSpec, real: np.ndarray, gen: np.ndarray,
                 k: int = 3, tau: float = 0.5,
                 rmse: Optional[float] = None) -> MetricReport:
    shares, tv, coverage = mode_shares(spec, gen, tau)
    precision, recall = knn_precision_recall(real, gen, k)
    return MetricReport(frechet=frechet_2d(real, gen), precision=precision,
                        recall=recall, mode_shares=shares, mode_tv=tv,
                        coverage_count=coverage, field_rmse=rmse)


def append_report_csv(path, report: MetricReport, run_id: str, nfe: int,
                      w: float) -> None:
    import os
    new = not os.path.exists(path)
    with open(path, "a", newline="") as fh:
        writer = csv.writer(fh)
        if new:
            writer.writerow(MetricReport.CSV_HEADER)
        writer.writerow(report.csv_row(run_id, nfe, w))
