"""Ground-truth 2D Gaussian-mixture data model and analytic velocity oracles.

The target distribution is a mixture of isotropic Gaussians, each component
carrying a class label and a sub-mode label.  Because source and target are
jointly Gaussian per component, the MSE-optimal velocity field of the linear
interpolation path has a closed form, which this module evaluates exactly for
the unconditional, class-conditional, and sub-mode-conditional cases.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from .rng import stream

WEIGHT_TOL = 1e-12


@dataclass(frozen=True)
class MixtureComponent:
    weight: float
    mean: tuple[float, float]
    std: float
    class_id: int
    submode_id: int

    def __post_init__(self):
        # phrased so that NaN fails too
        if not 0.0 < self.weight < np.inf:
            raise ValueError(f"component weight {self.weight} not in (0, inf)")
        if not np.isfinite(self.mean).all():
            raise ValueError(f"component mean {self.mean} is not finite")
        if not 0.0 < self.std < np.inf:
            raise ValueError(f"component std {self.std} not in (0, inf)")


@dataclass(frozen=True)
class MixtureSpec:
    components: tuple[MixtureComponent, ...]
    source_std: float = 1.0

    def __post_init__(self):
        if len(self.components) == 0:
            raise ValueError("mixture needs at least one component")
        total = sum(c.weight for c in self.components)
        if abs(total - 1.0) > WEIGHT_TOL:
            raise ValueError(f"component weights sum to {total}, expected 1")
        keys = [(c.class_id, c.submode_id) for c in self.components]
        if len(set(keys)) != len(keys):
            raise ValueError("duplicate (class_id, submode_id) pair in mixture")
        # the net embeds classes and sub-modes by index: class id C would
        # be the guidance null token
        if self.class_ids != list(range(len(self.class_ids))):
            raise ValueError(f"class ids {self.class_ids} are not "
                             f"0..{len(self.class_ids) - 1}")
        for c in self.class_ids:
            subs = sorted(k for cid, k in keys if cid == c)
            if subs != list(range(len(subs))):
                raise ValueError(f"class {c}: submode ids {subs} are not "
                                 f"0..{len(subs) - 1}")
        if not 0.0 < self.source_std < np.inf:
            raise ValueError(f"source_std {self.source_std} not in (0, inf)")

    @property
    def class_ids(self) -> list[int]:
        return sorted({c.class_id for c in self.components})

    @property
    def num_classes(self) -> int:
        return len(self.class_ids)

    def weights(self) -> np.ndarray:
        return np.array([c.weight for c in self.components])

    def means(self) -> np.ndarray:
        return np.array([c.mean for c in self.components])

    def stds(self) -> np.ndarray:
        return np.array([c.std for c in self.components])

    def bounding_box(self) -> tuple[float, float, float, float]:
        """(xmin, ymin, xmax, ymax) covering every component mean +- 3 std."""
        means = self.means()
        stds = self.stds()[:, None]
        lo = (means - 3.0 * stds).min(axis=0)
        hi = (means + 3.0 * stds).max(axis=0)
        return (lo[0], lo[1], hi[0], hi[1])


@dataclass(eq=False)
class Dataset:
    """Labeled points as parallel arrays, one row per sample.

    submode_ids is -1 where a row carries no sub-mode label; clustering
    overwrites it in place.
    """

    xs: np.ndarray           # (n, 2) float64 coordinates
    class_ids: np.ndarray    # (n,) int64
    submode_ids: np.ndarray  # (n,) int64

    def __post_init__(self):
        if not np.all(np.isfinite(self.xs)):
            raise ValueError("sample coordinates must be finite")

    def __len__(self) -> int:
        return len(self.xs)


def toy_spec(source_std: float = 1.0) -> MixtureSpec:
    """The shipped 4-peak toy target: 2 classes x 2 sub-modes.

    Within each class the majority sub-mode has weight 0.35 and the minority
    0.15 (0.70 / 0.30 after within-class renormalization).  Means are at
    least 4 std apart so collapse and recovery are unambiguous.
    """
    return MixtureSpec(
        components=(
            MixtureComponent(0.35, (-4.0, 2.0), 0.5, class_id=0, submode_id=0),
            MixtureComponent(0.15, (-4.0, -2.0), 0.5, class_id=0, submode_id=1),
            MixtureComponent(0.35, (4.0, 2.0), 0.5, class_id=1, submode_id=0),
            MixtureComponent(0.15, (4.0, -2.0), 0.5, class_id=1, submode_id=1),
        ),
        source_std=source_std,
    )


def sample_dataset(spec: MixtureSpec, n: int, seed: int) -> Dataset:
    """Draw n labeled points from the mixture, deterministically per seed."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = stream(seed, "mixture.sample_dataset")
    comp_idx = rng.choice(len(spec.components), size=n, p=spec.weights())
    noise = rng.standard_normal((n, 2))
    means = spec.means()[comp_idx]
    stds = spec.stds()[comp_idx, None]
    class_of = np.array([c.class_id for c in spec.components], dtype=np.int64)
    submode_of = np.array([c.submode_id for c in spec.components],
                          dtype=np.int64)
    return Dataset(xs=means + stds * noise, class_ids=class_of[comp_idx],
                   submode_ids=submode_of[comp_idx])


def dataset_arrays(dataset: Dataset):
    """(n,2) coordinates, (n,) class ids, (n,) submode ids (-1 if absent).

    The dataset's own arrays, not copies.
    """
    return dataset.xs, dataset.class_ids, dataset.submode_ids


def _select(spec: MixtureSpec, class_id, submode_id) -> np.ndarray:
    """Indices of the components in the context (class_id, submode_id).

    None leaves that label free; a sub-mode needs its class.
    """
    if class_id is None and submode_id is not None:
        raise ValueError(f"sub-mode {submode_id} given without its class")
    idx = np.array([i for i, c in enumerate(spec.components)
                    if class_id in (None, c.class_id)
                    and submode_id in (None, c.submode_id)], dtype=int)
    if idx.size == 0:
        raise ValueError(f"context (class {class_id}, sub-mode {submode_id}) "
                         "selects no component")
    return idx


def posterior_weights_batch(spec: MixtureSpec, xs, t: float,
                            class_id=None, submode_id=None):
    """Posterior component weights given x_t = x for each row of an (n,2) batch.

    Returns (indices, weights (n, m), underflowed (n,)), restricted to the
    components of the context (class_id, submode_id); None leaves a label
    free.  Weights are computed in log-space with per-row max-subtraction; a row
    where every density underflows falls back to uniform weights over the
    subset and is flagged in `underflowed`.
    """
    idx = _select(spec, class_id, submode_id)
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"t must be in [0,1], got {t}")
    xs = np.asarray(xs, dtype=np.float64)

    pri = spec.weights()[idx]
    mu = spec.means()[idx]
    sig = spec.stds()[idx]
    s2 = (1.0 - t) ** 2 * spec.source_std ** 2 + t ** 2 * sig ** 2
    diff = xs[:, None, :] - t * mu[None, :, :]
    with np.errstate(over="ignore", invalid="ignore"):
        logw = (np.log(pri)[None, :]
                - 0.5 * np.sum(diff ** 2, axis=2) / s2[None, :]
                - np.log(2.0 * np.pi * s2)[None, :])
        m = logw.max(axis=1, keepdims=True)
        w = np.exp(logw - m)
        w /= w.sum(axis=1, keepdims=True)
    underflowed = ~np.isfinite(m[:, 0])
    w[underflowed] = 1.0 / len(idx)
    return idx, w, underflowed


def oracle_velocity_batch(spec: MixtureSpec, xs: np.ndarray, t: float,
                          class_id=None, submode_id=None) -> np.ndarray:
    """Closed-form conditional mean velocity E[x1 - x0 | x_t = x, context]
    per row, for the context (class_id, submode_id); None leaves a label free.

    Per component, (x_t, x1 - x0) are jointly Gaussian, so the conditional
    mean is mu_j plus a linear correction; components are then mixed with
    their posterior weights (`posterior_weights_batch`).
    """
    idx, w, _ = posterior_weights_batch(spec, xs, t, class_id, submode_id)
    xs = np.asarray(xs, dtype=np.float64)
    mu = spec.means()[idx]
    sig = spec.stds()[idx]
    s0 = spec.source_std
    s2 = (1.0 - t) ** 2 * s0 ** 2 + t ** 2 * sig ** 2
    coef = (t * sig ** 2 - (1.0 - t) * s0 ** 2) / s2
    per_comp = mu[None, :, :] + coef[None, :, None] * (
        xs[:, None, :] - t * mu[None, :, :])
    return np.einsum("nj,njd->nd", w, per_comp)
