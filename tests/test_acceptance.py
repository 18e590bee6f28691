"""End-to-end acceptance suite.

One test per headline claim, each printing a single PASS line via its own
pytest verdict: one-step collapse of the class-conditional average-velocity
model, one-step recovery under sub-mode conditioning, multi-step baseline
coverage, exact oracle identities, differentiation and clustering checks,
metric oracles, byte-level determinism, and the ablation directions.

Trained models come from the session fixtures in conftest.py; every
quantitative threshold is asserted with the measured value in the failure
message.
"""

import copy
import filecmp
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from subflow import clustering, io, metrics, mixture, pipeline, sampler
from subflow.config import load_config
from subflow.mixture import MixtureComponent, MixtureSpec
from subflow.net import NetConfig, VelocityNet
from subflow.objectives import cfm_loss, meanflow_loss
from subflow.rng import stream

from support import ROOT, train_variant


def within_class_minority_shares(spec, xs):
    """Share of each class's rare sub-mode among that class's samples."""
    shares, _, _ = metrics.mode_shares(spec, xs)
    out = []
    for c in spec.class_ids:
        idx = [i for i, comp in enumerate(spec.components)
               if comp.class_id == c]
        mass = shares[idx]
        weights = np.array([spec.components[i].weight for i in idx])
        rare = int(np.argmin(weights))
        out.append(float(mass[rare] / max(mass.sum(), 1e-12)))
    return out


def one_step_per_class(run, count, nfe=1):
    """Generate `count` samples for each class and concatenate them."""
    sample = sampler.SampleConfig(count=count, nfe=nfe)
    return np.concatenate([
        sampler.generate(run.net, run.table, run.meta, sample, c,
                         run.cfg.train.seed + c).xs
        for c in run.cfg.mixture.class_ids])


def test_criterion_01_one_step_collapse(meanflow_class_run):
    """Class-conditional one-step model loses the rare sub-modes."""
    run = meanflow_class_run
    xs = one_step_per_class(run, 10000)
    minority = within_class_minority_shares(run.cfg.mixture, xs)
    assert all(m < 0.15 for m in minority), (
        f"minority within-class shares {minority} (expected all < 0.15)")


def test_criterion_02_one_step_recovery(meanflow_subflow_run):
    """Sub-mode conditioning restores both peaks in a single step."""
    run = meanflow_subflow_run
    xs = one_step_per_class(run, 10000)
    shares, _, _ = metrics.mode_shares(run.cfg.mixture, xs)
    for c in run.cfg.mixture.class_ids:
        idx = [i for i, comp in enumerate(run.cfg.mixture.components)
               if comp.class_id == c]
        within = shares[idx] / shares[idx].sum()
        true = np.array([run.cfg.mixture.components[i].weight for i in idx])
        true = true / true.sum()
        err = np.max(np.abs(within - true))
        assert err <= 0.05, (
            f"class {c}: within-class shares {within} vs true {true}, "
            f"max deviation {err:.3f} > 0.05")


def test_criterion_03_multi_step_baseline_coverage(cfm_class_run):
    """The 100-step flow-matching baseline covers all four modes."""
    run = cfm_class_run
    batch = pipeline.generate_all_classes(run.net, run.table, run.meta,
                                          run.cfg, 10000, 100, 1.0, "prior",
                                          run.cfg.train.seed)
    _, _, coverage = metrics.mode_shares(run.cfg.mixture, batch.xs)
    assert coverage == 4, f"coverage_count {coverage} != 4"


def test_criterion_04_oracle_decomposition_identity():
    """Class oracle = posterior-weighted mixture of sub-mode oracles."""
    spec = mixture.toy_spec()
    rng = np.random.default_rng(101)
    xs = rng.uniform(-8, 8, size=(1000, 2))
    worst = 0.0
    for t in rng.uniform(0.0, 0.999, size=10):
        for c in (0, 1):
            ctx = np.full(len(xs), c), np.full(len(xs), -1)
            v_class = mixture.oracle_velocity_batch(spec, xs, t, *ctx)
            idx, w, _ = mixture.posterior_weights_batch(spec, xs, t, *ctx)
            mix = np.zeros_like(xs)
            for col, j in enumerate(idx[0]):  # every row's class components
                comp = spec.components[j]
                mix += w[:, col, None] * mixture.oracle_velocity_batch(
                    spec, xs, t, np.full(len(xs), comp.class_id),
                    np.full(len(xs), comp.submode_id))
            worst = max(worst, float(np.max(np.abs(v_class - mix))))
    assert worst < 1e-10, f"max decomposition error {worst:.3e}"


def test_criterion_05_single_gaussian_field_regression():
    """CFM on a single-Gaussian target matches the analytic field closely."""
    cfg = load_config(ROOT / "configs" / "single_gaussian.cfg")
    run = train_variant(cfg, "cfm", "uncond")
    rmse = pipeline.model_field_rmse(run.net, run.meta, run.cfg)
    spec = run.cfg.mixture
    grid = metrics.default_grid(spec)
    free = np.full(len(grid), spec.num_classes), np.full(len(grid), -1)
    speeds = [np.linalg.norm(
        mixture.oracle_velocity_batch(spec, grid, t, *free), axis=1)
        for t in (0.25, 0.5, 0.75)]
    mean_speed = float(np.mean(np.concatenate(speeds)))
    assert rmse < 0.1, f"field_rmse {rmse:.4f} >= 0.1"
    assert rmse < 0.15 * mean_speed, (
        f"field_rmse {rmse:.4f} not below 15% of mean speed {mean_speed:.3f}")


def test_criterion_06_nfe_sweep_trend(meanflow_class_run):
    """The deficit persists across NFE while Euler error shrinks with NFE."""
    run = meanflow_class_run
    for nfe in (1, 2, 4, 8, 16, 32, 64, 128):
        xs = one_step_per_class(run, 5000, nfe=nfe)
        minority = within_class_minority_shares(run.cfg.mixture, xs)
        assert all(m < 0.15 for m in minority), (
            f"nfe={nfe}: minority shares {minority} (expected all < 0.15)")

    spec = mixture.toy_spec()
    x0 = np.random.default_rng(55).standard_normal((64, 2))
    free = np.full(len(x0), spec.num_classes), np.full(len(x0), -1)
    field = lambda x, t: mixture.oracle_velocity_batch(spec, x, t, *free)
    ref = sampler.euler_integrate(field, x0, 4096)
    errors = []
    nfe = 2
    while nfe <= 128:
        end = sampler.euler_integrate(field, x0, nfe)
        errors.append(float(np.mean(np.linalg.norm(end - ref, axis=1))))
        nfe *= 2
    assert all(a > b for a, b in zip(errors, errors[1:])), (
        f"Euler errors not strictly decreasing: {errors}")


def test_criterion_07_differentiation_suite():
    """Gradients, jvps, and the bootstrap-target derivative vs differences."""
    net_cfg = NetConfig(num_classes=2, num_submodes=2, hidden_width=6,
                        hidden_layers=2, embed_dim=3, uses_interval=True)
    net = VelocityNet.initialized(net_cfg, seed=21)
    rng = np.random.default_rng(22)
    n = 8
    x0 = rng.standard_normal((n, 2))
    x1 = rng.standard_normal((n, 2))
    a, b = rng.random(n), rng.random(n)
    r, t = np.minimum(a, b), np.maximum(a, b)
    c = rng.integers(0, 2, n)
    k = rng.integers(0, 2, n)

    # 1) loss gradient vs central differences on 50 random coordinates,
    #    with the bootstrap target frozen at the base parameters
    _, grad = meanflow_loss(net, x0, x1, c, k, r, t)
    x_r = (1 - r)[:, None] * x0 + r[:, None] * x1
    v = x1 - x0
    dudr = net.jvp_batch(x_r, t, r, c, k, dx=v, dt=np.zeros(n), dr=np.ones(n))
    u_tgt = v + (t - r)[:, None] * dudr

    def frozen_loss():
        pred = net.forward_batch(x_r, t, r, c, k)
        return float(np.mean(np.sum((pred - u_tgt) ** 2, axis=1)))

    eps = 1e-6
    coords = rng.choice(net.num_params, size=50, replace=False)
    for i in coords:
        net.params[i] += eps
        up = frozen_loss()
        net.params[i] -= 2 * eps
        dn = frozen_loss()
        net.params[i] += eps
        fd = (up - dn) / (2 * eps)
        rel = abs(grad[i] - fd) / max(abs(fd), abs(grad[i]), 1e-8)
        assert rel < 1e-4, f"coordinate {i}: relative error {rel:.2e}"

    # 2) jvp vs central differences along random input tangents
    for trial in range(10):
        dx = rng.standard_normal((n, 2))
        dt = rng.standard_normal(n)
        dr = rng.standard_normal(n)
        jvp = net.jvp_batch(x_r, t, r, c, k, dx=dx, dt=dt, dr=dr)
        up = net.forward_batch(x_r + eps * dx, t + eps * dt, r + eps * dr, c, k)
        dn = net.forward_batch(x_r - eps * dx, t - eps * dt, r - eps * dr, c, k)
        fd = (up - dn) / (2 * eps)
        denom = max(float(np.max(np.abs(fd))), 1.0)
        err = float(np.max(np.abs(jvp - fd))) / denom
        assert err < 1e-5, f"trial {trial}: jvp error {err:.2e}"

    # 3) the total-derivative term along the path (x advances with v as the
    #    interval start r advances) vs finite differences
    def u_on_path(e):
        return net.forward_batch(x_r + e * v, t, r + e, c, k)

    fd = (u_on_path(eps) - u_on_path(-eps)) / (2 * eps)
    err = float(np.max(np.abs(dudr - fd)))
    assert err < 1e-4, f"total-derivative error {err:.2e}"


def test_criterion_08_clustering_suite():
    """Lloyd monotonicity, brute-force optimality, toy prior recovery."""
    # monotonicity is asserted inside lloyd on every iteration
    rng = np.random.default_rng(31)
    for trial in range(10):
        pts = rng.standard_normal((40, 2)) * rng.uniform(0.5, 2.5)
        clustering.lloyd(pts, int(rng.integers(1, 5)),
                         stream(trial, "accept.lloyd"))

    pts = np.concatenate([
        rng.normal([0.0, 0.0], 1.0, size=(10, 2)),
        rng.normal([20.0, 0.0], 1.0, size=(10, 2))])
    _, labels = clustering.lloyd(pts, 2, stream(0, "accept.twoblob"))
    # every two-way partition with point 0 in cluster 0, one row each; a
    # cluster's SSE is sum |p|^2 - |sum p|^2 / n
    n = len(pts)
    bits = ((np.arange(2 ** (n - 1))[:, None] >> np.arange(n - 2, -1, -1))
            & 1).astype(np.float64)
    n1 = bits.sum(axis=1)
    s1 = bits @ pts[1:]
    s0 = pts.sum(axis=0) - s1
    with np.errstate(divide="ignore", invalid="ignore"):
        sse = (np.sum(pts ** 2) - np.sum(s0 ** 2, axis=1) / (n - n1)
               - np.sum(s1 ** 2, axis=1) / n1)
    sse[n1 == 0] = np.inf  # one cluster empty
    best = np.concatenate([[0], bits[np.argmin(sse)]])
    assert (np.array_equal(labels, best)
            or np.array_equal(1 - labels, best)), "partition not optimal"

    spec = mixture.toy_spec()
    data = mixture.sample_dataset(spec, 100000, seed=0)
    xs, cs, _ = mixture.dataset_arrays(data)
    table = clustering.SubmodeTable.from_labels(clustering.assign_submodes(
        {c: xs[cs == c] for c in (0, 1)}, 2, seed=0), 2)
    for c in (0, 1):
        prior = np.sort(table.per_class[c].priors)[::-1]
        err = float(np.max(np.abs(prior - [0.7, 0.3])))
        assert err <= 0.02, f"class {c}: priors {prior}, deviation {err:.3f}"


def test_criterion_09_metric_oracles():
    """Chunked metrics equal their exhaustive and spectral references."""
    rng = np.random.default_rng(41)
    for trial in range(20):
        k = int(rng.integers(1, 5))
        real = rng.standard_normal((int(rng.integers(k + 2, 64)), 2))
        gen = rng.standard_normal((int(rng.integers(k + 2, 64)), 2)) * 1.5

        def covered(y, support):
            d = np.linalg.norm(support[:, None] - support[None], axis=2)
            np.fill_diagonal(d, np.inf)
            radii = np.sort(d, axis=1)[:, k - 1]
            return np.linalg.norm(y - support, axis=1) <= radii

        p_ref = float(np.mean([covered(g, real).any() for g in gen]))
        r_ref = float(np.mean([covered(r_, gen).any() for r_ in real]))
        p, r = metrics.knn_precision_recall(real, gen, k=k)
        assert p == p_ref and r == r_ref, (
            f"trial {trial}: ({p}, {r}) != brute force ({p_ref}, {r_ref})")

    for trial in range(20):
        a = rng.standard_normal((80, 2)) @ rng.uniform(0.3, 2.0, (2, 2))
        b = rng.standard_normal((90, 2)) @ rng.uniform(0.3, 2.0, (2, 2)) + 1.0
        ours = metrics.frechet_2d(a, b)
        covmean = scipy.linalg.sqrtm(np.cov(a, rowvar=False)
                                     @ np.cov(b, rowvar=False))
        if np.iscomplexobj(covmean):
            covmean = covmean.real
        ref = float(np.sum((a.mean(0) - b.mean(0)) ** 2)
                    + np.trace(np.cov(a, rowvar=False)
                               + np.cov(b, rowvar=False) - 2 * covmean))
        assert abs(ours - ref) < 1e-8, f"trial {trial}: {ours} vs {ref}"

    pts = rng.standard_normal((200, 2))
    assert metrics.frechet_2d(pts, pts.copy()) < 1e-9


def test_criterion_10_pipeline_determinism(tmp_path):
    """Identical seeds give byte-identical checkpoints and CSVs."""
    cfg = load_config(ROOT / "configs" / "toy.cfg")
    cfg.train.steps = 150
    cfg.sample.count = 300
    cfg.metrics.n_real = 300
    cfg.data.n_train = 4000

    outputs = []
    for rep in ("a", "b"):
        out = tmp_path / rep
        manifest = pipeline.train_run(copy.deepcopy(cfg), out)
        manifest_path = out / f"{manifest.run_id}.manifest.json"
        net, table, meta = pipeline.load_run(manifest_path)
        batch = sampler.generate(net, table, meta, cfg.sample, 0,
                                 cfg.train.seed)
        io.write_samples_csv(out / "samples.csv", batch)
        pipeline.evaluate_run(manifest_path, cfg, out / "metrics.csv")
        outputs.append(out)

    a, b = outputs
    names = sorted(p.name for p in a.iterdir() if p.suffix != ".json")
    assert names == sorted(p.name for p in b.iterdir()
                           if p.suffix != ".json")
    for name in names:
        assert filecmp.cmp(a / name, b / name, shallow=False), (
            f"{name} differs between identical runs")


def test_criterion_11_ablation_directions(meanflow_class_run,
                                          meanflow_subflow_run,
                                          meanflow_random_run):
    """Random sub-mode labels do not help; discovered ones do."""
    def tv_of(run):
        batch = pipeline.generate_all_classes(
            run.net, run.table, run.meta, run.cfg, 20000, 1, 1.0, "prior",
            run.cfg.train.seed)
        _, tv, _ = metrics.mode_shares(run.cfg.mixture, batch.xs)
        return tv

    tv_class = tv_of(meanflow_class_run)
    tv_sub = tv_of(meanflow_subflow_run)
    tv_rand = tv_of(meanflow_random_run)
    assert abs(tv_rand - tv_class) <= 0.05, (
        f"random-assignment tv {tv_rand:.3f} vs class baseline "
        f"{tv_class:.3f}: gap {abs(tv_rand - tv_class):.3f} > 0.05")
    assert tv_class - tv_sub >= 0.1, (
        f"k-means sub-mode tv {tv_sub:.3f} vs class baseline "
        f"{tv_class:.3f}: reduction {tv_class - tv_sub:.3f} < 0.1")
