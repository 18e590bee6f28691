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


def _context_components(spec: MixtureSpec, c, k, n: int) -> np.ndarray:
    """(n, width) component indices of each row's context (c[i], k[i]), in
    component order, padded with -1 to the widest context among the rows.

    Contexts are numbered as the net numbers them: c == spec.num_classes is
    the null class (every class) and k == -1 every sub-mode of the class.
    A table holds the components of each context; a context that selects
    none raises ValueError.
    """
    c, k = np.asarray(c, dtype=np.int64), np.asarray(k, dtype=np.int64)
    if c.shape != (n,) or k.shape != (n,):
        raise ValueError(f"contexts must be two ({n},) arrays, got "
                         f"{c.shape} and {k.shape}")
    classes = np.array([comp.class_id for comp in spec.components])
    subs = np.array([comp.submode_id for comp in spec.components])
    null, slots = spec.num_classes, int(subs.max()) + 2
    # context c * slots + k + 1, as a (class, slot = k + 1) pair per row
    ctx_c, slot = np.divmod(np.arange((null + 1) * slots)[:, None], slots)
    member = ((ctx_c == classes) & ((slot == subs + 1) | (slot == 0))
              | (ctx_c == null) & (slot == 0))
    order = np.argsort(~member, axis=1, kind="stable")
    table = np.where(np.take_along_axis(member, order, axis=1), order, -1)
    counts = member.sum(axis=1)
    known = (c >= 0) & (c <= null) & (k >= -1) & (k < slots - 1)
    ids = np.where(known, c * slots + k + 1, 0)
    bad = np.flatnonzero(~known | (counts[ids] == 0))
    if bad.size:
        raise ValueError(f"context (class {c[bad[0]]}, sub-mode {k[bad[0]]}) "
                         f"is not in the mixture: its classes are "
                         f"0..{null - 1}, and the null class {null} takes "
                         f"sub-mode -1 only")
    return table[ids, :counts[ids].max(initial=0)]


def _padded_terms(spec: MixtureSpec, t: float):
    """Per component, then for a padding entry that index -1 reads: log
    prior, mean, s2 = Var(x_t) per coordinate, and the velocity's linear
    coefficient.  The padding entry has prior 0 and velocity 0."""
    s0, sig = spec.source_std, spec.stds()
    s2 = (1.0 - t) ** 2 * s0 ** 2 + t ** 2 * sig ** 2
    coef = (t * sig ** 2 - (1.0 - t) * s0 ** 2) / s2
    return (np.append(np.log(spec.weights()), -np.inf),
            np.append(spec.means(), [[0.0, 0.0]], axis=0),
            np.append(s2, 1.0), np.append(coef, 0.0))


def posterior_weights_batch(spec: MixtureSpec, xs, t: float, c, k):
    """Posterior component weights given x_t = x for each row of an (n,2)
    batch, within row i's context (c[i], k[i]) (`_context_components`).

    Returns (indices (n, width), weights (n, width), underflowed (n,)): row
    i's components, padded with -1 at weight 0.  Weights are computed in
    log-space with per-row max-subtraction; a row where every density
    underflows falls back to uniform weights over its context and is
    flagged in `underflowed`.
    """
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"t must be in [0,1], got {t}")
    xs = np.asarray(xs, dtype=np.float64)
    idx = _context_components(spec, c, k, len(xs))
    log_pri, mu, s2, _ = (term[idx] for term in _padded_terms(spec, t))
    diff = xs[:, None, :] - t * mu
    with np.errstate(over="ignore", invalid="ignore"):
        logw = (log_pri - 0.5 * np.sum(diff ** 2, axis=2) / s2
                - np.log(2.0 * np.pi * s2))
        m = logw.max(axis=1, keepdims=True)
        w = np.exp(logw - m)
        w /= w.sum(axis=1, keepdims=True)
    underflowed = ~np.isfinite(m[:, 0])
    live = idx[underflowed] >= 0
    w[underflowed] = live / live.sum(axis=1, keepdims=True)
    return idx, w, underflowed


def oracle_velocity_batch(spec: MixtureSpec, xs: np.ndarray, t: float,
                          c, k) -> np.ndarray:
    """Closed-form conditional mean velocity E[x1 - x0 | x_t = x, context]
    per row, row i in the context (c[i], k[i]): c == spec.num_classes is
    the null class, k == -1 every sub-mode of the class.

    Per component, (x_t, x1 - x0) are jointly Gaussian, so the conditional
    mean is mu_j plus a linear correction; components are then mixed with
    their posterior weights (`posterior_weights_batch`).
    """
    idx, w, _ = posterior_weights_batch(spec, xs, t, c, k)
    xs = np.asarray(xs, dtype=np.float64)
    _, mu, _, coef = (term[idx] for term in _padded_terms(spec, t))
    per_comp = mu + coef[:, :, None] * (xs[:, None, :] - t * mu)
    return np.einsum("nj,njd->nd", w, per_comp)
