"""High-level experiment pipelines shared by the CLI and the test suite.

A pipeline run writes its artifacts (checkpoint, CSVs, SVG, manifest) into
an output directory; run ids are deterministic in (config, seed) so reruns
are reproducible byte for byte.
"""

from __future__ import annotations

import dataclasses
import os
import platform
import time
from pathlib import Path

import numpy as np

from . import clustering, io, metrics, mixture, objectives, sampler
from . import net as net_module
from .config import (ConfigError, ExperimentConfig, emit_config,
                     parse_config)


def environment() -> dict:
    """The build and threads a run's bits and times depend on: the numpy
    version, the BLAS numpy was built with, the machine, the BLAS thread
    variables, the CPU count and `net.SWEEP_WORKERS`."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get(
        "blas", {})
    return {"numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "machine": platform.machine(),
            **{var: os.environ.get(var)
               for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
            "cpu_count": os.cpu_count(),
            "sweep_workers": net_module.SWEEP_WORKERS}


def build_dataset(cfg: ExperimentConfig):
    return mixture.sample_dataset(cfg.mixture, cfg.data.n_train,
                                  cfg.train.seed)


def real_set(cfg: ExperimentConfig):
    """The n_real points that metrics and scatter plots compare against."""
    return mixture.sample_dataset(cfg.mixture, cfg.metrics.n_real,
                                  cfg.train.seed + 1)


def cluster_dataset(cfg: ExperimentConfig, dataset):
    """Label the dataset's points per class as `[cluster] labels` says and
    write the labels into its submode_ids, in place.

    Returns (table, per-class labels).  `kmeans` clusters each class and
    renumbers its clusters after the generating sub-mode most of their
    points came from, where that map is one-to-one (`match_labels`), so
    cluster k is sub-mode k wherever the two pair up; `random` labels keep
    their numbers.  Training then consumes these labels in place of the
    generating sub-mode ids, as the offline pre-processing stage would.
    A `[mixture]` class with no points raises ValueError naming it.
    """
    xs, cs, ks = mixture.dataset_arrays(dataset)
    index_by_class = {c: np.flatnonzero(cs == c)
                      for c in cfg.mixture.class_ids}
    empty = [c for c, idx in index_by_class.items() if not len(idx)]
    if empty:
        raise ValueError(f"[data] n_train = {cfg.data.n_train} leaves "
                         f"[mixture] classes {empty} with no points")
    features = {c: xs[idx] for c, idx in index_by_class.items()}
    k, seed = cfg.cluster.k, cfg.train.seed
    if cfg.cluster.labels == "random":
        labels = clustering.random_assignment(features, k, seed)
    else:
        labels = clustering.assign_submodes(features, k, seed)
        labels = {c: clustering.match_labels(labels[c], ks[idx])
                  for c, idx in index_by_class.items()}
    for c, idx in index_by_class.items():
        ks[idx] = labels[c]
    return clustering.SubmodeTable.from_labels(labels, k), labels


def train_run(cfg: ExperimentConfig, out_dir,
              run_prefix: str = "train") -> io.RunManifest:
    """Cluster, train, and persist all artifacts of the run `cfg` records.

    The manifest records the run's `environment()` and the wall seconds of
    each stage: dataset, cluster, train, and save (the checkpoint and the
    CSVs)."""
    out_dir = Path(out_dir)
    config_text = emit_config(cfg)
    run_id = io.new_run_id(run_prefix, config_text, cfg.train.seed)
    marks = [time.monotonic()]  # when each stage ends, after the start

    dataset = build_dataset(cfg)
    marks.append(time.monotonic())
    table, labels = cluster_dataset(cfg, dataset)
    marks.append(time.monotonic())
    out_dir.mkdir(parents=True, exist_ok=True)  # once the dataset is checked
    state, losses = objectives.train(dataset, cfg.mixture, cfg.train, table)
    marks.append(time.monotonic())

    ckpt_path = out_dir / f"{run_id}.checkpoint.bin"
    meta = {
        "objective": cfg.train.objective,
        "conditioning": cfg.train.conditioning,
        "source_std": cfg.mixture.source_std,
    }
    io.save_checkpoint(ckpt_path, state.net, state.ema_params, state.step,
                       meta, table)
    loss_path = out_dir / f"{run_id}.loss.csv"
    io.write_loss_csv(loss_path, losses)
    assign_path = out_dir / f"{run_id}.assignments.csv"
    io.write_assignments_csv(assign_path, labels)
    marks.append(time.monotonic())

    manifest = io.RunManifest(
        run_id=run_id, config_text=config_text, seed=cfg.train.seed,
        stages_s=dict(zip(("dataset", "cluster", "train", "save"),
                          np.diff(marks).tolist())),
        environment=environment())
    manifest.add_file("checkpoint", ckpt_path)
    manifest.add_file("loss_curve", loss_path)
    manifest.add_file("assignments", assign_path)
    manifest.duration_s = time.monotonic() - marks[0]
    manifest.write(out_dir / f"{run_id}.manifest.json")
    return manifest


def checked_manifest(manifest_path, cfg: ExperimentConfig) -> io.RunManifest:
    """The run's manifest, if its config's [mixture] is cfg's: a run is
    sampled and scored only under its own mixture."""
    manifest = io.RunManifest.read(manifest_path)
    try:
        trained = parse_config(manifest.config_text).mixture
    except ConfigError as exc:
        raise ValueError(f"{manifest_path}: bad run config: {exc}") from exc
    if trained != cfg.mixture:
        raise ValueError(f"{manifest_path}: the run was trained on another "
                         f"[mixture] than the config's")
    return manifest


def load_run(manifest_path):
    """(net with EMA parameters, sub-mode table, meta) for a finished run:
    its checkpoint alone drives inference."""
    manifest = io.RunManifest.read(manifest_path)
    if "checkpoint" not in manifest.files:
        raise ValueError(f"{manifest_path}: manifest lists no checkpoint")
    net, ema, _, meta, table = io.load_checkpoint(manifest.files["checkpoint"])
    return net.__class__(net.config, ema), table, meta  # EMA weights


def generate_all_classes(net, table, meta, cfg: ExperimentConfig, count: int,
                         nfe: int, w: float, strategy: str, seed: int):
    """Generate `count` samples spread over classes by their true mass,
    with seed + c for class c.

    Counts are apportioned by largest remainder: each class gets the floor
    of its quota, and the classes with the largest fractional parts (ties
    to the lowest class id) one more each, so they sum to `count`.  Each
    class draws its noise and sub-modes as `sampler.generate` does at
    seed + c, and all classes then run as one Euler integration, so class
    c's rows equal that call's samples bit for bit.
    """
    spec = cfg.mixture
    sample = sampler.SampleConfig(count, nfe, w, strategy)
    mass = np.array([sum(comp.weight for comp in spec.components
                         if comp.class_id == c) for c in spec.class_ids])
    quotas = count * mass / mass.sum()
    counts = np.floor(quotas).astype(np.int64)
    by_remainder = np.argsort(-(quotas - counts), kind="stable")
    counts[by_remainder[:count - int(counts.sum())]] += 1
    drawn = sampler.GenerationBatch.concatenate([
        sampler.draw(net, table, meta, dataclasses.replace(sample, count=n_c),
                     c, seed + c)
        for c, n_c in zip(spec.class_ids, counts.tolist()) if n_c])
    return sampler.integrate(net, drawn, sample)


def model_field_rmse(net, meta, cfg: ExperimentConfig) -> float | None:
    """Learned-field error against the analytic oracle over the
    conditioning contexts the model was trained with, or None.

    A context is a (class, sub-mode) pair as the net numbers it: the null
    class where the run is not conditioned on a class, -1 where it is not
    conditioned on a sub-mode.  The default grid is stacked once per
    context, and the same per-row arrays drive the net and the oracle, so
    each time is one pass of each.  A subflow net is given the generating
    sub-mode id as its cluster id: `cluster_dataset` renumbers each class's
    clusters after their generating sub-mode wherever `match_labels` finds
    a one-to-one map, and keeps K-Means' numbering elsewhere.  With a
    different number of sub-modes per class there is no such pairing, and
    the result is None.
    """
    spec = cfg.mixture
    grid = metrics.default_grid(spec)
    conditioning = meta["conditioning"]
    if conditioning == "subflow" and net.config.num_submodes != 1 + max(
            comp.submode_id for comp in spec.components):
        return None
    contexts = np.array(list(dict.fromkeys(
        (net.config.null_class if conditioning == "uncond" else comp.class_id,
         comp.submode_id if conditioning == "subflow" else -1)
        for comp in spec.components)))
    cs, ks = np.repeat(contexts.T, len(grid), axis=1)
    return metrics.field_rmse(
        sampler.net_field(net, cs, ks),
        lambda xs, t: mixture.oracle_velocity_batch(spec, xs, t, cs, ks),
        np.tile(grid, (len(contexts), 1)))


# the default NFE values of a sweep: a doubling ladder from one step
NFE_LADDER = (1, 2, 4, 8, 16, 32, 64, 128)


def _scored_samples(sample: sampler.SampleConfig, nfe_list) -> list:
    """`sample` at each NFE, for scoring: the list must name an NFE, every
    NFE is checked, and the count must exceed the k of the k-NN metrics."""
    if sample.count <= metrics.KNN_K:
        raise ValueError(f"[sample] count {sample.count} must exceed the "
                         f"kNN k ({metrics.KNN_K}) to be scored")
    samples = [dataclasses.replace(sample, nfe=nfe) for nfe in nfe_list]
    if not samples:
        raise ValueError("the NFE list is empty: there is nothing to score")
    return samples


def evaluate_run(manifest_path, cfg: ExperimentConfig,
                 out_csv) -> metrics.MetricReport:
    """One report (and CSV row) at the config's NFE."""
    return sweep_nfe(manifest_path, cfg, out_csv, [cfg.sample.nfe])[0]


def sweep_nfe(manifest_path, cfg: ExperimentConfig, out_csv,
              nfe_list=NFE_LADDER) -> list:
    """One report (and CSV row) per NFE, with the sampling settings of
    `cfg`.  The run, the real set, the real set's k-NN radii and the field
    RMSE do not depend on the NFE, so they are computed once per call.  The
    RMSE (on the caller: its net passes are traced) and the radii run as
    two `net.lanes`, as each NFE's recall and precision do; the k-NN pair
    budget bounds both lanes together."""
    # the sampling settings are checked before the run loads
    samples = _scored_samples(cfg.sample, nfe_list)
    run_id = checked_manifest(manifest_path, cfg).run_id
    net, table, meta = load_run(manifest_path)
    real = real_set(cfg)
    rmse, real_radii_sq = net_module.lanes(
        lambda: model_field_rmse(net, meta, cfg),
        lambda: metrics.knn_radii_sq(real.xs))
    reports = []
    for sample in samples:
        batch = generate_all_classes(net, table, meta, cfg, sample.count,
                                     sample.nfe, sample.guidance_scale,
                                     sample.submode_strategy, cfg.train.seed)
        report = metrics.evaluate_all(cfg.mixture, real.xs, batch.xs,
                                      tau=cfg.metrics.coverage_tau, rmse=rmse,
                                      real_radii_sq=real_radii_sq)
        # the directory appears only once there is a row to write
        Path(out_csv).parent.mkdir(parents=True, exist_ok=True)
        io.append_report_csv(out_csv, report, run_id, sample.nfe,
                             sample.guidance_scale)
        reports.append(report)
    return reports


def run_grid(runs, nfe_list, out_csv) -> list:
    """Train each (prefix, cfg) row once into `out_csv`'s directory, then
    score it at every NFE with its own sampling settings: one CSV row per
    (row, NFE), all in `out_csv`.  Returns each row's list of reports.

    Every row's sampling settings are checked at every NFE before the first
    training run, so a rejected grid writes nothing and creates no
    directory.
    """
    for _, cfg in runs:
        _scored_samples(cfg.sample, nfe_list)
    out_dir = Path(out_csv).parent
    grid = []
    for prefix, cfg in runs:
        manifest = train_run(cfg, out_dir, prefix)
        grid.append(sweep_nfe(out_dir / f"{manifest.run_id}.manifest.json",
                              cfg, out_csv, nfe_list))
    return grid
