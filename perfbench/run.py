"""subflow benchmark: one workload per process, checked outputs, JSON result.

    python3 perfbench/run.py --workload train_onestep --seed 0 --seconds 35 --trace 0

Run from the root of a source checkout; subflow is imported from its
``src/`` directory.  BLAS threads are pinned to 1 before numpy loads.

Each run sets the workload up, then repeats the timed operation until one
more would take the run past ``--seconds``.  Before each later operation it
sets up again, as many times as add up to ``SETUP_GAP_S`` (at least once),
and at least 4 times in all; the first set-up's state serves every operation.
Spreading many set-ups over the run lets ``setup_s`` (their median) see the
same swings in machine speed as the operations do.  Every time is in
reference seconds (see ``refspeed``): wall seconds scaled by how much slower
than nominal a fixed numpy kernel ran just before and just after; the wall
seconds are printed and recorded too.  With ``--trace 1`` the
operations alternate untraced and traced, after one extra traced set-up; the
per-layer metrics come from the traced spans and the tracing overhead is
traced minus untraced ``wall_s``.

The last line of standard output is the JSON result.  The full record
(environment, every sample, quality values, failures, and with tracing every
span) goes to ``perfbench/out/<workload>-seed<seed>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

BLAS_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
SETUP_MIN_REPS = 4
SETUP_GAP_S = 1.0  # set-up time gathered between two operations
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)
MIN_BEYOND = 10

# end-to-end metric -> unit
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "train_steps_per_s": "1/s",
    "gen_samples_per_s": "1/s",
    "eval_s": "s",
    "peak_rss_mb": "MB",
}
TRACE_METRICS = ("trace.untraced_wall_s", "trace.traced_wall_s",
                 "trace.overhead_s")

# ROADMAP baseline (2 vCPU, ad-hoc timing) next to the traced metric that
# reproduces it, the workload that runs it, and the factor from the metric to
# the baseline's work (NFE 100 where sample_multistep runs NFE 25)
ROADMAP_BASELINE = (
    ("train_onestep", "objectives.train.ms_per_step", 9.6, "ms", 1),
    ("train_onestep", "net.forward_batch.ms_per_step", 2.6, "ms", 1),
    ("train_onestep", "net.jvp_batch.ms_per_step", 3.3, "ms", 1),
    ("train_onestep", "net.backward.ms_per_step", 4.5, "ms", 1),
    ("train_onestep", "pipeline.generate_all_classes.s_per_call", 0.52, "s",
     1),
    ("sample_multistep", "pipeline.generate_all_classes.s_per_call", 8.8,
     "s", 4),
    ("evaluate_sweep", "metrics.knn_precision_recall.s_per_call", 3.7, "s",
     1),
    ("evaluate_sweep", "pipeline.model_field_rmse.s_per_call", 0.12, "s", 1),
)


def import_program():
    """Import subflow from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    if not (src / "subflow" / "__init__.py").is_file():
        sys.exit(f"error: no subflow sources under {src}; run from the root "
                 "of a subflow checkout")
    sys.path.insert(0, str(src))
    import subflow
    if Path(subflow.__file__).resolve().parent != (src / "subflow").resolve():
        sys.exit(f"error: imported subflow from {subflow.__file__}, "
                 f"not from {src}")


# ---- statistics ----------------------------------------------------------

def median(values):
    import numpy as np
    return float(np.median(values))


def tail(values, slow_is_low=False):
    """(percentile, value) for the most extreme percentile on the slow side
    with >= 10 samples beyond it, or None when there are too few samples.
    For a rate the slow side is the low end (p1 rather than p99)."""
    import numpy as np
    for p in TAIL_PERCENTILES:
        if len(values) * (1.0 - p / 100.0) >= MIN_BEYOND:
            q = 100.0 - p if slow_is_low else p
            return q, float(np.percentile(values, q))
    return None


def describe(values, unit) -> str:
    t = tail(values, slow_is_low=unit == "1/s")
    tail_text = (f"p{t[0]:g} {t[1]:.6g} {unit}" if t
                 else f"no percentile with {MIN_BEYOND} samples beyond")
    return f"median {median(values):.6g} {unit}, {tail_text}, n={len(values)}"


# ---- environment ---------------------------------------------------------

def git_commit():
    """HEAD of this checkout, or None when it is not a git repository."""
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "--git-dir", str(ROOT / ".git"),
                               "rev-parse", "HEAD"], capture_output=True,
                              text=True)
    except OSError:  # no git program
        return None
    return proc.stdout.strip() or None


def environment(args) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get(
        "blas", {})
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version",
                                          "openblas configuration")},
        "python": platform.python_version(),
        "machine": platform.machine(),
        "git_commit": git_commit(),
    }


# ---- per-layer metrics ---------------------------------------------------

def layer_metrics(setup_spans, op_spans, n_ops) -> dict:
    """Per-layer metrics of one traced set-up plus one (mean) traced
    operation.  gflop and gbytes are computed from array shapes."""
    import tracing as tr
    spans = setup_spans + op_spans
    setup, ops = tr.aggregate(setup_spans), tr.aggregate(op_spans)

    def get(name, key):
        return (setup.get(name, {}).get(key, 0.0)
                + ops.get(name, {}).get(key, 0.0) / n_ops)

    def ratio(a, b):
        return a / b if b else 0.0

    in_train = tr.descendants_of(spans, "objectives.train")
    in_generate = tr.descendants_of(spans, "sampler.generate")

    def count_in(ids, name):
        return sum(1 for s in spans if s.id in ids and s.name == name)

    steps = count_in(in_train, "objectives.adam_update")
    names = {s.id: s.name for s in spans}
    m = {}
    for name in ("net.forward_batch", "net.jvp_batch", "net.backward"):
        m[f"{name}.calls"] = get(name, "calls")
        m[f"{name}.s"] = get(name, "s")
        m[f"{name}.gflop"] = get(name, "flop") / 1e9
        # per training step, outermost net calls only: backward's own
        # forward pass counts under backward, as in the ROADMAP baseline
        m[f"{name}.ms_per_step"] = 1e3 * ratio(
            sum(s.duration for s in spans if s.id in in_train
                and s.name == name
                and not names.get(s.parent, "").startswith("net.")), steps)
    m["net.forward_batch.rows"] = get("net.forward_batch", "rows")
    m["net.forward_batch.self_s"] = get("net.forward_batch", "self_s")
    m["net.forward_batch.gflops"] = ratio(m["net.forward_batch.gflop"],
                                          m["net.forward_batch.s"])
    m["net.backward.self_s"] = get("net.backward", "self_s")
    m["net.primal_passes_per_step"] = ratio(
        count_in(in_train, "net.forward_batch")
        + count_in(in_train, "net.jvp_batch"), steps)
    for name in ("objectives.meanflow_loss", "objectives.cfm_loss"):
        m[f"{name}.s"] = get(name, "s")
        m[f"{name}.self_s"] = get(name, "self_s")
    m["objectives.adam_update.calls"] = get("objectives.adam_update", "calls")
    m["objectives.adam_update.s"] = get("objectives.adam_update", "s")
    m["objectives.adam_update.gbytes"] = get("objectives.adam_update",
                                             "bytes") / 1e9
    m["objectives.train.self_s"] = get("objectives.train", "self_s")
    m["objectives.train.ms_per_step"] = 1e3 * ratio(
        sum(s.duration for s in spans if s.name == "objectives.train"), steps)
    m["rng.stream.calls"] = get("rng.stream", "calls")
    m["rng.stream.s"] = get("rng.stream", "s")
    m["rng.stream.calls_per_sample"] = ratio(
        count_in(in_generate, "rng.stream"),
        sum(s.counts.get("samples", 0) for s in spans
            if s.name == "sampler.generate"))
    for key in ("calls", "samples", "s", "self_s"):
        m[f"sampler.generate.{key}"] = get("sampler.generate", key)
    m["sampler.sample_submode.calls"] = get("sampler.sample_submode", "calls")
    m["sampler.sample_submode.s"] = get("sampler.sample_submode", "s")
    knn = "metrics.knn_precision_recall"
    m[f"{knn}.calls"] = get(knn, "calls")
    m[f"{knn}.s"] = get(knn, "s")
    m[f"{knn}.pairs"] = get(knn, "pairs")
    m[f"{knn}.s_per_call"] = ratio(m[f"{knn}.s"], m[f"{knn}.calls"])
    for name in ("metrics.field_rmse", "metrics.frechet_2d",
                 "metrics.mode_shares", "mixture.dataset_arrays",
                 "clustering.assign_submodes", "pipeline.train_run",
                 "io.RunManifest.write", "config.load_config"):
        m[f"{name}.s"] = get(name, "s")
    oracle = "mixture.oracle_velocity_batch"
    for key in ("calls", "rows", "s"):
        m[f"{oracle}.{key}"] = get(oracle, key)
    m["mixture.sample_dataset.calls"] = get("mixture.sample_dataset", "calls")
    m["mixture.sample_dataset.s"] = get("mixture.sample_dataset", "s")
    m["pipeline.cluster_dataset.self_s"] = get("pipeline.cluster_dataset",
                                               "self_s")
    for name in ("pipeline.evaluate_run", "pipeline.load_run",
                 "pipeline.generate_all_classes", "pipeline.model_field_rmse"):
        m[f"{name}.calls"] = get(name, "calls")
        m[f"{name}.s"] = get(name, "s")
        m[f"{name}.s_per_call"] = ratio(m[f"{name}.s"], m[f"{name}.calls"])
    m["io.load_checkpoint.calls"] = get("io.load_checkpoint", "calls")
    m["io.load_checkpoint.bytes"] = get("io.load_checkpoint", "bytes")
    m["io.load_checkpoint.s"] = get("io.load_checkpoint", "s")
    m["io.save_checkpoint.bytes"] = get("io.save_checkpoint", "bytes")
    m["io.save_checkpoint.s"] = get("io.save_checkpoint", "s")
    setup_self = tr.layer_self_times(setup_spans)
    op_self = tr.layer_self_times(op_spans)
    for layer in tr.LAYERS:
        m[f"layer.{layer}.self_s"] = (setup_self[layer]
                                      + op_self[layer] / n_ops)
    return m


COMPUTED_UNITS = ("gflop", "gflop/s", "GB")


def layer_unit(name: str) -> str:
    last = name.rsplit(".", 1)[1]
    return {"calls": "count", "rows": "count", "samples": "count",
            "pairs": "count", "bytes": "B", "gflop": "gflop",
            "gflops": "gflop/s", "gbytes": "GB", "ms_per_step": "ms",
            "primal_passes_per_step": "count",
            "calls_per_sample": "count"}.get(last, "s")


# ---- the run -------------------------------------------------------------

class Run:
    """Counts attempts and failed checks, and collects timing samples."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.samples: dict[str, list[float]] = {k: [] for k in END_TO_END}
        self.raw_walls: dict[str, list[float]] = {"setup": [], "op": []}
        self.quality: list[dict] = []
        self.fingerprints: dict[str, str] = {}

    def attempt(self, label: str, fn, *args, timed: bool = True):
        import workloads
        self.attempted += 1
        try:
            out = fn(*args)
        except Exception:
            out = workloads.Outcome(
                failures=[traceback.format_exc(limit=3).strip()])
        kind = label.rstrip("0123456789")
        if out.fingerprint:
            first = self.fingerprints.setdefault(kind, out.fingerprint)
            out.require(out.fingerprint == first,
                        f"{label}: output differs from the first {kind}")
        if out.failures:
            self.failed += 1
            self.failures.extend(f"{label}: {f}" for f in out.failures)
        if timed:
            for metric, values in out.samples.items():
                self.samples[metric].extend(values)
        self.quality.append({"label": label, **out.quality})
        return out


def measure(workload, seed: int, seconds: float, trace: bool,
            work_dir: Path) -> tuple[Run, dict]:
    import tracing as tr
    from refspeed import Clock
    run = Run()
    extra = {}
    clock = Clock()
    extra["probe_s"] = clock.probes

    def setup():
        i = len(run.samples["setup_s"])
        out = run.attempt(f"setup{i}", workload.setup, seed, work_dir, clock)
        run.samples["setup_s"].append(out.wall)
        run.raw_walls["setup"].append(out.raw_wall)
        return out

    state = setup().state
    if state is None or run.failed:
        return run, extra

    tracer = tr.Tracer() if trace else None

    def traced(label, fn, *args):
        before = tr.binding_snapshot()
        tracer.run = label
        with tracer:
            out = run.attempt(label, fn, *args, timed=False)
        if tr.binding_snapshot() != before:
            run.failed += 1
            run.failures.append(f"{label}: traced names not restored")
        return out

    def set_up_gap():
        """Set up again until this gap holds SETUP_GAP_S of set-up time."""
        spent = 0.0
        while True:
            out = setup()
            spent += out.wall
            if out.failures or spent >= SETUP_GAP_S:
                return

    start = time.perf_counter()
    if trace:
        traced("setup", workload.setup, seed, work_dir, clock)
    walls = {False: [], True: []}
    i = 0
    while True:
        cycle_start = time.perf_counter()
        if i > 0:
            set_up_gap()
        is_traced = trace and i % 2 == 1
        label = f"op{i}"
        if is_traced:
            out = traced(label, workload.run, state, clock)
        else:
            out = run.attempt(label, workload.run, state, clock)
            run.samples["wall_s"].append(out.wall)
            run.raw_walls["op"].append(out.raw_wall)
        walls[is_traced].append(out.wall)
        i += 1
        if trace and i < 2:
            continue
        now = time.perf_counter()
        # stop when one more cycle like this one would pass `seconds`
        if out.failures or 2 * now - cycle_start - start > seconds:
            break
    while len(run.samples["setup_s"]) < SETUP_MIN_REPS:
        setup()
    if trace:
        setup_spans = [s for s in tracer.spans if s.run == "setup"]
        op_spans = [s for s in tracer.spans if s.run != "setup"]
        layers = layer_metrics(setup_spans, op_spans, len(walls[True]))
        untraced, traced_wall = median(walls[False]), median(walls[True])
        layers.update(zip(TRACE_METRICS, (untraced, traced_wall,
                                          traced_wall - untraced)))
        extra["per_layer"] = layers
        extra["spans"] = [[s.id, s.parent, s.run, s.name, s.start, s.end,
                           s.counts] for s in tracer.spans]
    return run, extra


def peak_rss_mb() -> float:
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_program()
    sys.path.insert(0, str(HERE))
    import workloads
    from refspeed import REF_NOMINAL_S
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    env = environment(args)

    OUT_DIR.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR))
    try:
        run, extra = measure(workload, args.seed, args.seconds,
                             bool(args.trace), work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    run.samples["peak_rss_mb"].append(peak_rss_mb())

    print(f"# {args.workload} seed={args.seed} threads={BLAS_THREADS} "
          f"nproc={env['nproc']} numpy={env['numpy']} "
          f"blas={env['blas']['name']} {env['blas']['version']} "
          f"python={env['python']} commit={env['git_commit']}")
    summary = {}
    for metric, unit in END_TO_END.items():
        values = run.samples[metric]
        if values:
            summary[metric] = {"median": median(values),
                               "tail": tail(values, unit == "1/s"),
                               "n": len(values), "unit": unit,
                               "samples": values}
            print(f"{metric:<20} {describe(values, unit)}")
    for kind, values in run.raw_walls.items():
        if values:
            print(f"{kind + ' wall seconds':<20} median "
                  f"{median(values):.6g} s, n={len(values)}")
    probes = extra.get("probe_s")
    if probes:
        for part, values, nominal in zip(("BLAS", "interpreter"),
                                         zip(*probes), REF_NOMINAL_S):
            print(f"{part + ' probe':<20} median {1e3 * median(values):.4g} "
                  f"ms (nominal {1e3 * nominal:g} ms), n={len(values)}")
    for q in run.quality:
        fields = " ".join(f"{k}={v:.6g}" if isinstance(v, float)
                          else f"{k}={v}"
                          for k, v in q.items() if k != "label")
        if fields:
            print(f"quality {q['label']:<7} {fields}")
    fail_share = run.failed / max(run.attempted, 1)
    print(f"fail_share {fail_share:.4f} ({run.failed} of {run.attempted} "
          "operations failed a check)")
    for f in run.failures:
        print(f"FAILED {f}")

    layers = extra.get("per_layer", {})
    for name, value in layers.items():
        unit = layer_unit(name)
        note = " (computed from shapes)" if unit in COMPUTED_UNITS else ""
        print(f"layer  {name:<46} {value:.6g} {unit}{note}")
    for wl, name, base, unit, factor in ROADMAP_BASELINE:
        if wl == args.workload and name in layers:
            scaled = f" x {factor}" if factor != 1 else ""
            print(f"roadmap {name:<46}{scaled} {factor * layers[name]:.4g} "
                  f"{unit} (ROADMAP baseline {base:g} {unit})")

    correct = run.failed == 0 and run.attempted > 0
    if args.trace:
        metrics = {name: {"value": value, "unit": layer_unit(name)}
                   for name, value in layers.items()}
        correct = correct and bool(metrics)
    else:
        metrics = {name: {"value": summary[name]["median"], "unit": unit}
                   for name, unit in END_TO_END.items() if name in summary}
        correct = correct and len(metrics) == len(END_TO_END)
    record = {"environment": env, "end_to_end": summary,
              "raw_wall_s": run.raw_walls, "ref_nominal_s": REF_NOMINAL_S,
              "fail_share": fail_share, "failures": run.failures,
              "quality": run.quality, **extra}
    out_path = OUT_DIR / (f"{args.workload}-seed{args.seed}"
                          f"-trace{args.trace}.json")
    out_path.write_text(json.dumps(record))
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    # before numpy loads: BLAS reads these once, at import
    for _var in THREAD_VARS:
        os.environ[_var] = BLAS_THREADS
    sys.exit(main())
