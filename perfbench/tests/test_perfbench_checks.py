"""Correctness checks count in fail_share; BENCHMARK.json matches the code."""

import json
from pathlib import Path

import numpy as np

import run
import workloads
from workloads import Outcome

BENCHMARK_JSON = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def test_collapsed_samples_fail_the_mode_checks():
    cfg = workloads.load_cfg(0)
    collapsed = np.tile(cfg.mixture.means()[0], (1000, 1))
    out = Outcome()
    workloads.check_modes(out, cfg, collapsed)
    assert out.quality["coverage_count"] == 1
    assert len(out.failures) == 2  # coverage and mode_tv


def test_non_finite_losses_and_samples_fail():
    cfg = workloads.load_cfg(0)
    out = Outcome()
    workloads.check_losses(out, np.array([1.0, np.nan]))
    xs = cfg.mixture.means().repeat(100, axis=0)
    xs[0, 0] = np.inf
    with np.errstate(invalid="ignore"):
        workloads.check_modes(out, cfg, xs)
    assert out.failures[:2] == ["non-finite loss", "non-finite samples"]


def test_every_failed_check_counts_in_fail_share():
    r = run.Run()
    r.attempt("op0", lambda: Outcome(fingerprint="a"))
    r.attempt("op1", lambda: Outcome(failures=["forced"]))
    r.attempt("op2", lambda: 1 / 0)
    r.attempt("op3", lambda: Outcome(fingerprint="b"))  # differs from op0
    r.attempt("setup0", lambda: Outcome(fingerprint="b"))  # own kind
    assert (r.attempted, r.failed) == (5, 3)
    assert r.failures[0] == "op1: forced"
    assert "ZeroDivisionError" in r.failures[1]
    assert "op3: output differs from the first op" in r.failures[2]


class ForcedFailure(workloads.Workload):
    name = "forced_failure"

    def setup(self, seed, work_dir, clock):
        return Outcome(wall=0.01, state=seed)

    def run(self, state, clock):
        out = Outcome(wall=0.01)
        out.require(False, "forced check failure")
        return out


def test_a_forced_failure_reaches_the_result(tmp_path):
    r, _ = run.measure(ForcedFailure(), 0, seconds=1.0, trace=False,
                       work_dir=tmp_path)
    assert r.attempted == run.SETUP_MIN_REPS + 1
    assert r.failed == 1
    assert r.failures == ["op0: forced check failure"]


def test_benchmark_json_names_what_the_code_reports():
    spec = json.loads(BENCHMARK_JSON.read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    layer_names = list(run.layer_metrics([], [], 1)) + list(run.TRACE_METRICS)
    assert [m["name"] for m in spec["per_layer"]] == layer_names
    for m in spec["per_layer"]:
        assert m["unit"] == run.layer_unit(m["name"])
