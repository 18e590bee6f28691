"""In-process span tracing of subflow's public functions.

A `Tracer` replaces each traced function with a wrapper that records one span
per call: (id, parent id, run id, name, start, end, counts).  A function that
other modules import by name (``from .rng import stream``) is replaced in
every subflow module that holds it; a method is replaced on its class, so a
call made through ``self`` (``backward`` rerunning ``forward_batch``) shows
up as a child span.  Leaving the ``with`` block puts every original back.

Spans stay in memory; the caller writes them out when the run ends.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Optional

LAYERS = ("mixture", "net", "objectives", "clustering", "sampler", "metrics",
          "rng", "io", "pipeline", "config")

ADAM_ARRAY_PASSES = 9  # reads grad, m, v, params, ema; writes m, v, params, ema


@dataclass
class Span:
    id: int
    parent: Optional[int]
    run: str
    name: str
    start: float
    end: float
    counts: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


# ---- computed work counts ------------------------------------------------

def _net_flop(net, rows: int) -> float:
    """Multiply-adds x 2 of one primal pass over `rows` inputs."""
    cfg = net.config
    h = cfg.hidden_width
    per_row = cfg.input_dim * h + (cfg.hidden_layers - 1) * h * h + h * 2
    return 2.0 * per_row * rows


def _forward_counts(args, kwargs, result):
    net, x = args[0], args[1]
    return {"rows": len(x), "flop": _net_flop(net, len(x))}


def _tangent_counts(args, kwargs, result):
    # jvp carries primal and tangent through every layer; backward forms the
    # weight and the input cotangent products (its primal pass is a child)
    net, x = args[0], args[1]
    return {"rows": len(x), "flop": 2.0 * _net_flop(net, len(x))}


def _adam_counts(args, kwargs, result):
    state = args[0]
    return {"bytes": ADAM_ARRAY_PASSES * state.net.params.nbytes}


def _knn_counts(args, kwargs, result):
    n_real, n_gen = len(args[0]), len(args[1])
    return {"pairs": n_real * n_real + n_gen * n_gen + 2 * n_real * n_gen}


def _generate_counts(args, kwargs, result):
    return {"samples": len(result.xs)}


def _rows_counts(args, kwargs, result):
    return {"rows": len(args[1])}


def _file_counts(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


def traced_functions():
    """(span name, owner, attribute, counts function) for every traced call."""
    from subflow import (clustering, config, io, metrics, mixture, net,
                         objectives, pipeline, rng, sampler)
    return [
        ("mixture.oracle_velocity_batch", mixture, "oracle_velocity_batch",
         _rows_counts),
        ("mixture.sample_dataset", mixture, "sample_dataset", None),
        ("mixture.dataset_arrays", mixture, "dataset_arrays", None),
        ("net.forward_batch", net.VelocityNet, "forward_batch",
         _forward_counts),
        ("net.jvp_batch", net.VelocityNet, "jvp_batch", _tangent_counts),
        ("net.backward", net.VelocityNet, "backward", _tangent_counts),
        ("objectives.train", objectives, "train", None),
        ("objectives.meanflow_loss", objectives, "meanflow_loss", None),
        ("objectives.cfm_loss", objectives, "cfm_loss", None),
        ("objectives.adam_update", objectives, "adam_update", _adam_counts),
        ("clustering.assign_submodes", clustering, "assign_submodes", None),
        ("sampler.generate", sampler, "generate", _generate_counts),
        ("sampler.sample_submode", sampler, "sample_submode", None),
        ("metrics.knn_precision_recall", metrics, "knn_precision_recall",
         _knn_counts),
        ("metrics.field_rmse", metrics, "field_rmse", None),
        ("metrics.frechet_2d", metrics, "frechet_2d", None),
        ("metrics.mode_shares", metrics, "mode_shares", None),
        ("rng.stream", rng, "stream", None),
        ("io.load_checkpoint", io, "load_checkpoint", _file_counts),
        ("io.save_checkpoint", io, "save_checkpoint", _file_counts),
        ("io.RunManifest.write", io.RunManifest, "write", None),
        ("pipeline.build_dataset", pipeline, "build_dataset", None),
        ("pipeline.cluster_dataset", pipeline, "cluster_dataset", None),
        ("pipeline.train_run", pipeline, "train_run", None),
        ("pipeline.load_run", pipeline, "load_run", None),
        ("pipeline.generate_all_classes", pipeline, "generate_all_classes",
         None),
        ("pipeline.model_field_rmse", pipeline, "model_field_rmse", None),
        ("pipeline.evaluate_run", pipeline, "evaluate_run", None),
        ("pipeline.sweep_nfe", pipeline, "sweep_nfe", None),
        ("config.load_config", config, "load_config", None),
    ]


def _subflow_modules() -> list:
    return [mod for name, mod in list(sys.modules.items())
            if mod is not None
            and (name == "subflow" or name.startswith("subflow."))]


def binding_snapshot() -> dict:
    """Identity of every attribute of subflow's modules and classes.

    Two snapshots are equal exactly when no traced name is left wrapped.
    """
    snap = {}
    for mod in _subflow_modules():
        for attr, value in vars(mod).items():
            snap[(mod.__name__, attr)] = id(value)
            if isinstance(value, type) and value.__module__ == mod.__name__:
                for cattr, cvalue in vars(value).items():
                    snap[(mod.__name__, attr, cattr)] = id(cvalue)
    return snap


class Tracer:
    """Records spans while installed; `with tracer:` installs and restores."""

    def __init__(self):
        self.spans: list[Span] = []
        self.run = "setup"
        self._stack: list[int] = []
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn: Callable, counts_fn) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1] if tracer._stack else None
            tracer._stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
            counts = counts_fn(args, kwargs, result) if counts_fn else {}
            tracer.spans.append(Span(sid, parent, tracer.run, name, start,
                                     end, counts))
            return result

        return traced

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for name, owner, attr, counts_fn in traced_functions():
            original = vars(owner)[attr]
            wrapper = self._wrap(name, original, counts_fn)
            # a function: every subflow module that holds it, under any name
            holders = [owner] if isinstance(owner, type) else _subflow_modules()
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._patches.append((holder, key, original))
                        setattr(holder, key, wrapper)

    def restore(self) -> None:
        while self._patches:
            holder, key, original = self._patches.pop()
            setattr(holder, key, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


# ---- analysis ------------------------------------------------------------

def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the durations of its direct children."""
    out = {s.id: s.duration for s in spans}
    for s in spans:
        if s.parent in out:
            out[s.parent] -= s.duration
    return out


def descendants_of(spans: list[Span], name: str) -> set[int]:
    """Ids of spans that have an ancestor (or are a span) called `name`."""
    by_id = {s.id: s for s in spans}
    inside: dict[int, bool] = {}

    def check(sid):
        if sid not in inside:
            s = by_id.get(sid)
            inside[sid] = s is not None and (
                s.name == name
                or (s.parent is not None and check(s.parent)))
        return inside[sid]

    return {s.id for s in spans if check(s.id)}


def aggregate(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: calls, s (total), self_s and summed counts."""
    selfs = self_times(spans)
    out: dict[str, dict[str, float]] = defaultdict(
        lambda: defaultdict(float))
    for s in spans:
        row = out[s.name]
        row["calls"] += 1
        row["s"] += s.duration
        row["self_s"] += selfs[s.id]
        for key, value in s.counts.items():
            row[key] += value
    return {k: dict(v) for k, v in out.items()}


def layer_self_times(spans: list[Span]) -> dict[str, float]:
    selfs = self_times(spans)
    out = {layer: 0.0 for layer in LAYERS}
    for s in spans:
        out[s.layer] = out.get(s.layer, 0.0) + selfs[s.id]
    return out
