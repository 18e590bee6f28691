"""The three benchmark workloads: set-up, timed operation and checks.

Every workload reads ``configs/toy.cfg``, overrides only what it names below,
and feeds the benchmark seed to the program as ``[train] seed``.  A workload
calls subflow only through module attributes (``pipeline.train_run``), so the
tracer sees every call when it is installed.

Each set-up and each operation returns an `Outcome`: timing samples keyed by
end-to-end metric, quality values to print, the checks that failed, and a
fingerprint of its outputs.  Repeats of the same work must give the same
fingerprint; a difference is a failed check.  Every time is taken with a
`refspeed.Clock`, in reference seconds; ``raw_wall`` keeps the wall seconds.
"""

from __future__ import annotations

import hashlib
import math
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from subflow import config, metrics, objectives, pipeline

from refspeed import Clock

ROOT = Path(__file__).resolve().parent.parent
TOY_CFG = ROOT / "configs" / "toy.cfg"

# Step budgets are short so that a 35 s run holds several operations: on a
# shared 2-vCPU VM, speed swings by up to 2x over seconds to minutes, and the
# run reports medians.  Mode coverage needs the net to follow its sub-mode
# index, which it does after 250 meanflow or 300 CFM steps.
TRAIN_STEPS = 250          # meanflow steps per train_onestep operation
CFM_STEPS = 300            # CFM steps in sample_multistep's set-up
SWEEP_TRAIN_STEPS = 200    # meanflow steps in evaluate_sweep's set-up
SWEEP_EMA_DECAY = 0.9      # so that the EMA net evaluate_run loads is trained
MULTISTEP_NFE = 25         # 50 forward passes at 5k rows, about 3 s
NFE_LADDER = (1, 2)
GEN_REPEATS = 2            # NFE-1 generations per train_onestep operation
MODE_TV_BOUND = 0.05       # seen: 0.004-0.016 meanflow, 0.005-0.016 CFM
NUM_MODES = 4
# Share of interpreter-bound work in a timed section, which sets how the
# Clock's two probe parts scale it (see refspeed).  Fitted by least squares
# on sections alternated with probes over several speed phases: training
# steps 0.0-0.16, kNN 0.0, NFE-25 generation at 5k rows 0.0, NFE-1
# generation 0.34, dataset and clustering set-up 0.40.
BLAS_BOUND = 0.0   # training steps; NFE-25 generation; the sweep, 80 % kNN
MIXED = 0.4        # NFE-1 generation and its per-sample streams; set-up


@dataclass
class Outcome:
    samples: dict[str, list[float]] = field(default_factory=dict)
    quality: dict[str, float] = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)
    fingerprint: str = ""
    wall: float = 0.0      # reference seconds
    raw_wall: float = 0.0  # wall seconds
    state: object = None

    def add(self, metric: str, value: float) -> None:
        self.samples.setdefault(metric, []).append(value)

    def require(self, ok: bool, message: str) -> None:
        if not ok:
            self.failures.append(message)

    def lap(self, clock: Clock, interpreter_share: float) -> float:
        """End a lap of `clock`, add it to this outcome's wall time and
        return it in reference seconds."""
        raw, ref = clock.lap(interpreter_share)
        self.raw_wall += raw
        self.wall += ref
        return ref


def fingerprint(*arrays) -> str:
    digest = hashlib.sha256()
    for a in arrays:
        digest.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return digest.hexdigest()


def load_cfg(seed: int, **train):
    cfg = config.load_config(TOY_CFG)
    cfg.train.seed = seed
    for key, value in train.items():
        setattr(cfg.train, key, value)
    cfg.train.__post_init__()
    return cfg


def _meta(cfg) -> dict:
    return {"objective": cfg.train.objective,
            "conditioning": cfg.train.conditioning,
            "source_std": cfg.mixture.source_std}


def check_modes(out: Outcome, cfg, xs: np.ndarray) -> None:
    """Mode shares of generated samples: all four covered, TV under bound."""
    shares, tv, coverage = metrics.mode_shares(cfg.mixture, xs,
                                               cfg.metrics.coverage_tau)
    out.quality.update(mode_tv=tv, coverage_count=coverage)
    out.require(bool(np.all(np.isfinite(xs))), "non-finite samples")
    out.require(coverage == NUM_MODES,
                f"coverage_count {coverage} != {NUM_MODES}")
    out.require(tv < MODE_TV_BOUND, f"mode_tv {tv:.4f} >= {MODE_TV_BOUND}")


def check_losses(out: Outcome, losses: np.ndarray) -> None:
    out.quality["final_loss"] = float(losses[-1])
    out.require(bool(np.all(np.isfinite(losses))), "non-finite loss")


class Workload:
    name = ""
    why = ""

    def setup(self, seed: int, work_dir: Path, clock: Clock) -> Outcome:
        raise NotImplementedError

    def run(self, state, clock: Clock) -> Outcome:
        raise NotImplementedError


class TrainOneStep(Workload):
    name = "train_onestep"
    why = ("toy.cfg meanflow + subflow training, then NFE-1 generation of "
           "10k and mode shares: the paper's headline one-step model")

    def setup(self, seed, work_dir, clock):
        out = Outcome()
        clock.start()
        cfg = load_cfg(seed, steps=TRAIN_STEPS)
        dataset = pipeline.build_dataset(cfg)
        table, _ = pipeline.cluster_dataset(cfg, dataset)
        out.lap(clock, MIXED)
        priors = np.concatenate([table.per_class[c].priors
                                 for c in sorted(table.per_class)])
        out.fingerprint = fingerprint(priors)
        out.state = (cfg, dataset, table)
        return out

    def run(self, state, clock):
        cfg, dataset, table = state
        out = Outcome()
        clock.start()
        trained, losses = objectives.train(dataset, cfg.mixture, cfg.train,
                                           table)
        out.add("train_steps_per_s",
                cfg.train.steps / out.lap(clock, BLAS_BOUND))
        check_losses(out, losses)
        # the live net: after 250 steps an EMA with decay 0.999 still holds
        # most of the initial weights
        xs = None
        for _ in range(GEN_REPEATS):
            batch = pipeline.generate_all_classes(
                trained.net, table, _meta(cfg), cfg, cfg.sample.count, 1,
                cfg.sample.guidance_scale, cfg.sample.submode_strategy,
                cfg.train.seed)
            generated = out.lap(clock, MIXED)
            check_modes(out, cfg, batch.xs)
            out.add("eval_s", generated + out.lap(clock, MIXED))
            out.add("gen_samples_per_s", len(batch.xs) / generated)
            if xs is None:
                xs = batch.xs
            out.require(np.array_equal(xs, batch.xs),
                        "repeated generation differs")
        out.fingerprint = fingerprint(losses, xs)
        return out


class SampleMultiStep(Workload):
    name = "sample_multistep"
    why = ("CFM + subflow net trained in set-up, then NFE-25 generation of "
           "10k: forward passes at 5k rows, no jvp")

    def setup(self, seed, work_dir, clock):
        out = Outcome()
        clock.start()
        cfg = load_cfg(seed, objective="cfm", steps=CFM_STEPS)
        dataset = pipeline.build_dataset(cfg)
        table, _ = pipeline.cluster_dataset(cfg, dataset)
        out.lap(clock, MIXED)
        trained, losses = objectives.train(dataset, cfg.mixture, cfg.train,
                                           table)
        out.add("train_steps_per_s",
                cfg.train.steps / out.lap(clock, BLAS_BOUND))
        check_losses(out, losses)
        out.fingerprint = fingerprint(losses, trained.net.params)
        out.state = (cfg, table, trained.net)
        return out

    def run(self, state, clock):
        cfg, table, net = state
        out = Outcome()
        clock.start()
        batch = pipeline.generate_all_classes(
            net, table, _meta(cfg), cfg, cfg.sample.count, MULTISTEP_NFE,
            cfg.sample.guidance_scale, cfg.sample.submode_strategy,
            cfg.train.seed)
        out.add("gen_samples_per_s",
                len(batch.xs) / out.lap(clock, BLAS_BOUND))
        check_modes(out, cfg, batch.xs)
        out.lap(clock, BLAS_BOUND)
        out.add("eval_s", out.wall)
        out.fingerprint = fingerprint(batch.xs)
        return out


class EvaluateSweep(Workload):
    name = "evaluate_sweep"
    why = ("pipeline.sweep_nfe over NFE 1 and 2 on a short toy.cfg run: "
           "10k x 10k kNN, checkpoint reloads, oracle field RMSE; here "
           "train_steps_per_s = 200/setup_s, gen_samples_per_s = 20k/wall_s")

    def setup(self, seed, work_dir, clock):
        out = Outcome()
        # its own directory: the run id repeats, and a later set-up must not
        # overwrite the files the operations read
        run_dir = Path(tempfile.mkdtemp(dir=work_dir))
        clock.start()
        cfg = load_cfg(seed, steps=SWEEP_TRAIN_STEPS,
                       ema_decay=SWEEP_EMA_DECAY)
        manifest = pipeline.train_run(cfg, run_dir)
        out.lap(clock, BLAS_BOUND)  # 200 steps: mostly training
        # the whole train_run, not objectives.train alone: here this is
        # SWEEP_TRAIN_STEPS / setup_s
        out.add("train_steps_per_s", cfg.train.steps / out.wall)
        out.fingerprint = manifest.checksums["checkpoint"]
        out.state = (cfg, run_dir / f"{manifest.run_id}.manifest.json",
                     run_dir)
        return out

    def run(self, state, clock):
        cfg, manifest_path, work_dir = state
        out = Outcome()
        out_csv = Path(tempfile.mkdtemp(dir=work_dir)) / "sweep.csv"
        clock.start()
        reports = pipeline.sweep_nfe(manifest_path, cfg, out_csv,
                                     nfe_list=NFE_LADDER)
        out.lap(clock, BLAS_BOUND)
        rows = out_csv.read_text().splitlines()
        shutil.rmtree(out_csv.parent)
        out.add("eval_s", out.wall / len(NFE_LADDER))
        # samples over the whole sweep, kNN included: 2 * count / wall_s
        out.add("gen_samples_per_s",
                cfg.sample.count * len(NFE_LADDER) / out.wall)
        out.require(len(reports) == len(NFE_LADDER),
                    f"{len(reports)} reports for {len(NFE_LADDER)} NFE values")
        out.require(len(rows) == len(NFE_LADDER) + 1,
                    f"{len(rows)} CSV lines for {len(NFE_LADDER)} NFE values")
        values = []
        for nfe, rep in zip(NFE_LADDER, reports):
            fields = [rep.frechet, rep.precision, rep.recall, rep.mode_tv,
                      rep.field_rmse, *rep.mode_shares]
            values.extend(fields)
            out.require(all(f is not None and math.isfinite(f)
                            for f in fields),
                        f"non-finite MetricReport field at NFE {nfe}")
            out.require(0.0 <= rep.precision <= 1.0,
                        f"precision {rep.precision} outside [0, 1]")
            out.require(0.0 <= rep.recall <= 1.0,
                        f"recall {rep.recall} outside [0, 1]")
            out.quality.update({f"nfe{nfe}.precision": rep.precision,
                                f"nfe{nfe}.recall": rep.recall,
                                f"nfe{nfe}.frechet": rep.frechet,
                                f"nfe{nfe}.field_rmse": rep.field_rmse,
                                f"nfe{nfe}.mode_tv": rep.mode_tv})
        out.fingerprint = fingerprint(values)
        return out


WORKLOADS = {w.name: w for w in (TrainOneStep(), SampleMultiStep(),
                                 EvaluateSweep())}
