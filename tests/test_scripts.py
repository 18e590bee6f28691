"""Smoke tests for scripts/: each experiment script runs as its own process
on a tiny config and writes its CSVs, one row per panel, NFE or model;
train_digests.py is imported and checked for its invariants."""

import dataclasses
import importlib.util
import subprocess
import sys

import numpy as np
import pytest

from subflow import clustering, io, mixture, net, pipeline
from subflow.config import load_config

from support import ROOT, TINY_CONFIG
from test_clustering import reference_lloyd

# script, extra flags, {CSV written: lines including the header}
SCRIPTS = [
    ("reproduce_figure.py", ["--baseline-steps", "20", "--baseline-nfe", "4"],
     {"mode_shares.csv": 4}),
    ("nfe_sweep.py", ["--nfe-list", "1,2"], {"nfe_sweep.csv": 5}),
    ("run_ablations.py", [], {"ablation.csv": 5}),
]


@pytest.mark.parametrize("script, flags, csvs", SCRIPTS,
                         ids=[entry[0] for entry in SCRIPTS])
def test_script_runs(tmp_path, script, flags, csvs):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(TINY_CONFIG)
    out = tmp_path / "out"
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), "--config", str(cfg),
         "--out", str(out), *flags],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    for name, lines in csvs.items():
        assert len((out / name).read_text().splitlines()) == lines, name


@pytest.mark.parametrize("script, flags, match", [
    ("nfe_sweep.py", ["--nfe-list", "1,2,0"], "nfe must be >= 1"),
    ("run_ablations.py", ["--variants", "random_assignment,typo"],
     "unknown typo"),
    ("reproduce_figure.py", ["--baseline-nfe", "0"], "nfe must be >= 1"),
    ("reproduce_figure.py", ["--baseline-steps", "-1"], "steps must be >= 0"),
    ("nfe_sweep.py", ["--out", "taken"], "--out taken: taken is not a"),
    ("run_ablations.py", ["--out", "taken"], "--out taken: taken is not a"),
    ("reproduce_figure.py", ["--out", "taken/x"],
     "--out taken/x: taken is not a"),
], ids=["nfe_list", "variants", "baseline_nfe", "baseline_steps",
        "out_file_nfe_sweep", "out_file_ablations", "out_under_file_figure"])
def test_script_checks_its_list_before_training(tmp_path, script, flags,
                                                 match):
    """A bad flag, --out a file or under one included, is a usage error
    (exit 2) before any training: nothing is written."""
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(TINY_CONFIG)
    out = tmp_path / "out"
    taken = tmp_path / "taken"
    taken.write_text("keep")
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), "--config", str(cfg),
         "--out", str(out), *flags],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert done.returncode == 2 and match in done.stderr, done.stderr
    assert not out.exists()
    assert taken.read_text() == "keep"


@pytest.fixture(scope="module")
def digests():
    """scripts/train_digests.py, imported."""
    spec = importlib.util.spec_from_file_location(
        "train_digests", ROOT / "scripts" / "train_digests.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_train_digests_ignore_submode_dropout_without_subflow(digests):
    """scripts/train_digests.py digests a run by its key; a class run never
    sees a sub-mode, so its sub-mode dropout leaves the bits alone on any
    BLAS."""
    assert "cfm/class/0.3" in digests.KEYS
    first, second = (digests.digest(f"cfm/class/{p}")
                     for p in digests.P_DROP_SUBMODE)
    assert first == second and len(first) == 16


def test_generation_digests_ignore_submode_dropout_without_subflow(digests):
    """Beside each training digest, scripts/train_digests.py digests the EMA
    net's samples; a class run's sub-mode dropout leaves those alone too."""
    first, second = (
        digests.generation_digest(digests.generations(key, state, table))
        for key in ("cfm/class/0.0", "cfm/class/0.3")
        for state, _, table in [digests.train(key)])
    assert first == second and len(first) == 16


def test_metrics_digest_independent_of_worker_count(digests, monkeypatch):
    """The last line of scripts/train_digests.py digests the k-NN radii of
    the real set and the scores of the generations: the same bits whether
    the net's blocks and the k-NN lanes run on one worker or on two."""
    key = "meanflow/subflow/0.0"
    state, _, table = digests.train(key)
    lines = []
    for workers in (1, 2):
        monkeypatch.setattr(net, "SWEEP_WORKERS", workers)
        lines.append(digests.metrics_digest(
            digests.generations(key, state, table)))
    assert lines[0] == lines[1] and len(lines[0]) == 16


def test_toy_digest_trains_the_toy_run(digests, tmp_path):
    """The toy line of scripts/train_digests.py trains the run that
    `subflow train --config configs/toy.cfg` writes, bit for bit."""
    cfg = load_config(ROOT / "configs" / "toy.cfg")
    cfg = dataclasses.replace(cfg, train=dataclasses.replace(cfg.train,
                                                             steps=3))
    manifest = pipeline.train_run(cfg, tmp_path)
    net, ema, step, _, _ = io.load_checkpoint(manifest.files["checkpoint"])
    state, losses = digests.train_toy(steps=3)
    assert step == state.step == len(losses) == 3
    assert np.array_equal(net.params, state.net.params)
    assert np.array_equal(ema, state.ema_params)


def test_clustering_digest_reads_the_reference_lloyd(digests, monkeypatch):
    """The clustering line of scripts/train_digests.py is the same when
    every Lloyd run is the masked-mean reference's: toy.cfg's labels and
    priors at ten seeds and the ring at K = 2, 6 and 12."""
    line = digests.clustering_digest()
    monkeypatch.setattr(clustering, "lloyd",
                        lambda points, k, rng: reference_lloyd(points, k,
                                                               rng)[:2])
    assert digests.clustering_digest() == line and len(line) == 16


def test_oracle_digest_is_the_per_context_calls(digests):
    """The oracle line of scripts/train_digests.py digests one call over
    every context of toy_spec (the null class, 2 classes, 4 sub-modes)
    with the bits of one call per context, stacked in the same order."""
    spec = mixture.toy_spec()
    points = digests.oracle_points(spec)
    contexts = digests.oracle_contexts(spec)
    assert len(contexts) == 7 and len(points) == 41 * 41 + 3
    n = len(points)
    per_context = [np.concatenate([
        mixture.oracle_velocity_batch(spec, points, t, np.full(n, c),
                                      np.full(n, k))
        for c, k in contexts]) for t in digests.ORACLE_TIMES]
    line = digests.oracle_digest()
    assert line == digests._sha(per_context) and len(line) == 16
