"""Quality and diversity metrics for 2D point sets.

Fidelity/diversity follow the k-NN manifold protocol (precision: generated
points inside the real manifold; recall: real points inside the generated
manifold), found by an exact search over a grid of square cells.  The
Fréchet distance is the moment-based Gaussian distance on raw coordinates
with the closed-form 2x2 matrix square root.  Mode shares quantify collapse
directly against the known mixture weights.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import net
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


KNN_K = 3  # the k of the k-NN manifolds behind precision and recall

# Upper bound on the padded (query, candidate) pairs of one batch; the
# precision and recall lanes (see two_lanes) together hold two batches.
_PAIR_BUDGET = 1 << 14


def _pairwise_sq(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    d2 = (np.sum(a ** 2, axis=1)[:, None] + np.sum(b ** 2, axis=1)[None, :]
          - 2.0 * a @ b.T)
    return np.maximum(d2, 0.0)


def _check_points(name: str, points) -> np.ndarray:
    """`points` as an (n, 2) float64 array of finite coordinates."""
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[1] != 2:
        raise ValueError(f"{name} must have shape (n, 2), got {points.shape}")
    bad = int(np.count_nonzero(~np.isfinite(points).all(axis=1)))
    if bad:
        raise ValueError(f"{name} has {bad} rows with non-finite coordinates")
    return points


def _frame(name: str, *sets: np.ndarray) -> tuple[np.ndarray, float, float]:
    """Anchor, span and starting cell side shared by the grids of a search.

    The start is 2^-12 of the extent of the central 98 % of the points, so
    a far outlier does not coarsen the grid of the rest, but at least 2^-24
    of the span, which keeps cell keys far inside int64.  A search squares
    distances up to 2 span^2 and cell sides below 2 span, so a span whose
    square times 4 overflows float64 raises a ValueError naming the sets.
    """
    pts = np.concatenate(sets)
    lo = pts.min(axis=0)
    with np.errstate(over="ignore"):
        span = float(np.max(pts.max(axis=0) - lo))
    if not np.isfinite(4.0 * span * span):
        raise ValueError(f"{name} span {span:g}: squared distances "
                         f"overflow float64")
    q_lo, q_hi = np.percentile(pts, [1.0, 99.0], axis=0)
    h = max(float(np.max(q_hi - q_lo)) * 2.0 ** -12, span * 2.0 ** -24)
    return lo, span, (h if h > 0.0 else 1.0)


def _reach_sq(span: float, h: float) -> float:
    """Squared distance within which a point lies in a query's block.

    The cell index floor((p - lo) / h) carries a rounding error of about
    4 * 2^-53 * span / h cells, so a point outside the 3 x 3 block can sit
    as near as h * (1 - 4 * 2^-53 * span / h); the distance itself rounds
    by a few ulp more.  The margin (span / h + 1) * 2^-50 covers both
    twice over, and stays below 2^-26 because span / h <= 2^24.
    """
    return (h * (1.0 - (span / h + 1.0) * 2.0 ** -50)) ** 2


class _Grid:
    """Points bucketed into square cells of side h, as a table sorted by
    cell key.  A query's block is the 3 x 3 cells around its own, which in
    key order are three runs of the table, one per cell column."""

    def __init__(self, points: np.ndarray, lo: np.ndarray, span: float,
                 h: float):
        self.lo, self.h = lo, h
        # one spare column: a cell index can round up past span / h
        self.width = int(span / h) + 4
        keys = self.keys(points)
        # tie order is free: a radius is a k-th smallest value, a hit an any
        self.order = np.argsort(keys)
        self.table = keys[self.order]
        # a sentinel at infinity pads blocks of unequal size
        self.xs = np.append(points[self.order, 0], np.inf)
        self.ys = np.append(points[self.order, 1], np.inf)

    def keys(self, points: np.ndarray) -> np.ndarray:
        cells = np.floor((points - self.lo) / self.h).astype(np.int64)
        return (cells[:, 0] + 1) * self.width + cells[:, 1] + 1

    def blocks(self, queries: np.ndarray, least: int, keys=None):
        """Yield (rows, idx, d2) batches for the queries whose block holds
        at least `least` table points; the others get none.  The six
        lookups per query (start and end of three runs) go in key order,
        so each scans the table near-sequentially: `keys` are the queries'
        cell keys where the caller has them in ascending order, as a
        search of the table's own points does; otherwise the queries are
        sorted by key here.  Row i pairs query rows[i] with the table
        positions idx[i] of its block, padded with the sentinel (position
        len(table)); d2 holds their squared distances, inf on the padding.
        Rows are batched in order of block size, with at most _PAIR_BUDGET
        padded pairs per batch (one row if its block alone is larger)."""
        by_key = None
        if keys is None:
            keys = self.keys(queries)
            by_key = np.argsort(keys)
            keys, queries = keys[by_key], queries[by_key]
        # one ascending run of needles per block column
        cols = keys + self.width * np.arange(-1, 2)[:, None]
        starts = np.searchsorted(self.table, cols - 1, side="left")
        stops = np.searchsorted(self.table, cols + 1, side="right")
        ends = np.cumsum(stops - starts, axis=0)
        full = np.flatnonzero(ends[2] >= least)
        by_size = full[np.argsort(ends[2, full])]
        # where a row's offset reaches ends[j], its table position jumps
        # from the end of run j to the start of the next, or after run 2
        # past the table, where it is clamped to the sentinel
        nexts = np.append(starts[1:, by_size],
                          np.full((1, len(by_size)), len(self.table)), axis=0)
        jumps = nexts - stops[:, by_size]
        starts, ends = starts[0, by_size], ends[:, by_size]
        first = 0
        while first < len(by_size):
            rest = ends[2, first:]
            fits = np.arange(1, len(rest) + 1) * rest <= _PAIR_BUDGET
            last = first + max(1, int(np.count_nonzero(fits)))
            widest = ends[2, last - 1]
            # positions as a running sum of steps of 1 plus the jumps; the
            # spare last column takes the jumps at the widest block's end
            steps = np.ones((last - first, widest + 1), dtype=np.int64)
            steps[:, 0] = starts[first:last]
            lanes = np.arange(last - first)
            for j in range(3):
                steps[lanes, ends[j, first:last]] += jumps[j, first:last]
            idx = np.cumsum(steps[:, :widest], axis=1)
            np.minimum(idx, len(self.table), out=idx)
            rows = by_size[first:last]
            dx = self.xs[idx]
            np.subtract(queries[rows, 0:1], dx, out=dx)
            dy = self.ys[idx]
            np.subtract(queries[rows, 1:2], dy, out=dy)
            dx *= dx
            dy *= dy
            dx += dy
            yield rows if by_key is None else by_key[rows], idx, dx
            first = last


def knn_radii_sq(points: np.ndarray, k: int = KNN_K) -> np.ndarray:
    """Squared distance from each point to its k-th nearest neighbor (self
    excluded).  A row is final once its block holds its k-th neighbour
    within reach, or every point once h reaches the span; the others try
    again with cells twice as wide."""
    points = _check_points("points", points)
    if not 1 <= k < len(points):
        raise ValueError(f"need k >= 1 and more than k={k} points")
    lo, span, h = _frame("points", points)
    radii = np.empty(len(points))
    todo = np.ones(len(points), dtype=bool)
    while todo.any():
        grid = _Grid(points, lo, span, h)
        # the open rows in the table's own key order
        open_ = todo[grid.order]
        rows, keys = grid.order[open_], grid.table[open_]
        kth = np.full(len(rows), np.inf)
        # a block holds its own point, at distance 0: index k is the k-th
        # neighbour, and a block of k points or fewer cannot finish its row
        for batch, _, d2 in grid.blocks(points[rows], k + 1, keys):
            kth[batch] = np.partition(d2, k, axis=1)[:, k]
        done = (kth <= _reach_sq(span, h)) | (h >= span)
        radii[rows[done]] = kth[done]
        todo[rows[done]] = False
        h *= 2.0
    return radii


def _in_manifold(queries: np.ndarray, support: np.ndarray,
                 radii_sq: np.ndarray, frame) -> np.ndarray:
    """Whether each query lies in some ball support[j] of squared radius
    radii_sq[j].  Balls are visited in levels of doubling cell side h; a
    ball within reach of h can only hold queries whose block contains its
    centre, which is the same as the centre's block containing them.  So
    a level looks up the smaller of its balls and its open queries in a
    grid of the other.  Once h reaches the span, every block holds every
    centre, so the remaining balls form the last level, however large
    their radii.  `frame` is `_frame` of both sets, in either order."""
    lo, span, h = frame
    hits = np.zeros(len(queries), dtype=bool)
    balls = np.arange(len(support))
    while len(balls) and not hits.all():
        level = (radii_sq[balls] <= _reach_sq(span, h)) | (h >= span)
        if level.any():
            centres, r2 = support[balls[level]], radii_sq[balls[level]]
            open_rows = np.flatnonzero(~hits)
            if len(centres) < len(open_rows):
                grid = _Grid(queries[open_rows], lo, span, h)
                for rows, idx, d2 in grid.blocks(centres, 1):
                    # the sentinel's d2 is inf, above every radius
                    inside = idx[d2 <= r2[rows, None]]
                    hits[open_rows[grid.order[inside]]] = True
            else:
                grid = _Grid(centres, lo, span, h)
                r2 = np.append(r2[grid.order], -np.inf)
                for rows, idx, d2 in grid.blocks(queries[open_rows], 1):
                    hits[open_rows[rows]] = np.any(d2 <= r2[idx], axis=1)
            balls = balls[~level]
        h *= 2.0
    return hits


def two_lanes(side: Callable, main: Callable) -> tuple:
    """(side(), main()): side on the k-NN helper thread while the caller
    runs main where net.SWEEP_WORKERS > 1 (read at call time), else both
    inline, side first; side's exception wins over main's either way.  The
    helper is not in the sweep's pool, so main's net passes never queue
    behind it.  side must call nothing perfbench traces (its tracer keeps
    one stack of spans) and no two_lanes (the helper would wait on itself).
    """
    if net.SWEEP_WORKERS < 2:
        return side(), main()
    future = net._executor("knn").submit(side)
    try:
        main_result = main()
    finally:
        side_result = future.result()
    return side_result, main_result


def knn_precision_recall(real: np.ndarray, gen: np.ndarray, k: int = KNN_K,
                         real_radii_sq=None) -> tuple[float, float]:
    """k-NN manifold precision and recall between two point sets.

    `real_radii_sq` is `knn_radii_sq(real, k)` when the caller already has
    it, as a sweep scoring many generated sets against one real set does.
    Precision and recall share nothing, so they run as two lanes.
    """
    real = _check_points("real", real)
    gen = _check_points("gen", gen)
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if len(real) <= k or len(gen) <= k:
        raise ValueError(f"need more than k={k} points per set")
    frame = _frame("real and gen", real, gen)
    if real_radii_sq is not None:
        real_radii_sq = np.asarray(real_radii_sq, dtype=np.float64)
        if real_radii_sq.shape != (len(real),) or not np.all(
                np.isfinite(real_radii_sq) & (real_radii_sq >= 0.0)):
            raise ValueError(f"real_radii_sq must hold {len(real)} finite "
                             f"values >= 0, got shape {real_radii_sq.shape}")

    def share(queries, support, radii):
        radii = knn_radii_sq(support, k) if radii is None else radii
        return float(np.mean(_in_manifold(queries, support, radii, frame)))

    return two_lanes(lambda: share(gen, real, real_radii_sq),
                     lambda: share(real, gen, None))


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
    real = _check_points("real", real)
    gen = _check_points("gen", gen)
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
    gen = _check_points("gen", gen)
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
    total_sq = 0.0
    for t in (0.25, 0.5, 0.75):
        total_sq += float(np.sum((field_a(grid, t) - field_b(grid, t)) ** 2))
    return float(np.sqrt(total_sq / (3 * len(grid))))


def evaluate_all(spec: MixtureSpec, real: np.ndarray, gen: np.ndarray,
                 tau: float = 0.5, rmse: Optional[float] = None,
                 real_radii_sq=None) -> MetricReport:
    shares, tv, coverage = mode_shares(spec, gen, tau)
    precision, recall = knn_precision_recall(real, gen,
                                             real_radii_sq=real_radii_sq)
    return MetricReport(frechet=frechet_2d(real, gen), precision=precision,
                        recall=recall, mode_shares=shares, mode_tv=tv,
                        coverage_count=coverage, field_rmse=rmse)
