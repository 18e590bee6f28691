"""Tracer: self-time arithmetic, span nesting, and restoring wrapped names."""

import numpy as np
import pytest

import tracing
from tracing import Span, Tracer


def span(sid, parent, name, start, end):
    return Span(sid, parent, "op0", name, start, end)


def test_self_time_subtracts_direct_children_only():
    spans = [
        span(0, None, "pipeline.evaluate_run", 0.0, 10.0),
        span(1, 0, "io.load_checkpoint", 1.0, 3.0),
        span(2, 0, "metrics.knn_precision_recall", 4.0, 8.0),
        span(3, 2, "metrics.frechet_2d", 5.0, 6.0),  # grandchild
    ]
    selfs = tracing.self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - 2.0 - 4.0)
    assert selfs[1] == pytest.approx(2.0)
    assert selfs[2] == pytest.approx(4.0 - 1.0)
    assert selfs[3] == pytest.approx(1.0)
    # self times partition the root span
    assert sum(selfs.values()) == pytest.approx(10.0)


def test_layer_self_times_and_aggregate():
    spans = [
        span(0, None, "objectives.train", 0.0, 10.0),
        span(1, 0, "net.backward", 1.0, 5.0),
        span(2, 1, "net.forward_batch", 2.0, 3.0),
        span(3, 0, "rng.stream", 6.0, 6.5),
    ]
    layers = tracing.layer_self_times(spans)
    assert layers["objectives"] == pytest.approx(5.5)
    assert layers["net"] == pytest.approx(4.0)
    assert layers["rng"] == pytest.approx(0.5)
    assert set(tracing.LAYERS) <= set(layers)
    agg = tracing.aggregate(spans)
    assert agg["net.backward"] == {"calls": 1, "s": 4.0, "self_s": 3.0}
    assert tracing.descendants_of(spans, "net.backward") == {1, 2}


def _tiny_training(objective):
    from subflow import config, objectives, pipeline
    cfg = config.parse_config("[train]\nobjective = %s\nconditioning = "
                              "subflow\nsteps = 2\nbatch_size = 8\n"
                              "[data]\nn_train = 64\n" % objective)
    dataset = pipeline.build_dataset(cfg)
    table, _ = pipeline.cluster_dataset(cfg, dataset)
    return objectives.train(dataset, cfg.mixture, cfg.train, table)


@pytest.mark.parametrize("objective,passes", [("meanflow", 3), ("cfm", 2)])
def test_traced_training_nests_spans_and_restores_names(objective, passes):
    from subflow import net, objectives, rng, sampler
    import run
    original_stream = rng.stream
    before = tracing.binding_snapshot()
    with Tracer() as tracer:
        assert net.stream is not original_stream
        assert objectives.stream is not original_stream
        assert sampler.stream is not original_stream
        state, losses = _tiny_training(objective)
    assert tracing.binding_snapshot() == before
    for module in (net, objectives, rng, sampler):
        assert module.stream is original_stream

    by_id = {s.id: s for s in tracer.spans}
    names = [s.name for s in tracer.spans]
    assert names.count("objectives.adam_update") == 2
    backward_children = [s for s in tracer.spans
                         if s.name == "net.forward_batch"
                         and by_id[s.parent].name == "net.backward"]
    assert len(backward_children) == 2
    # stream is imported by name into objectives: its calls are seen there
    assert any(s.name == "rng.stream"
               and by_id[s.parent].name == "objectives.train"
               for s in tracer.spans)

    m = run.layer_metrics([], tracer.spans, 1)
    assert m["net.primal_passes_per_step"] == passes
    assert m["objectives.adam_update.calls"] == 2
    # one direct forward plus the one backward reruns, per step
    assert m["net.forward_batch.rows"] == 2 * 2 * 8

    # tracing does not change results
    untraced, untraced_losses = _tiny_training(objective)
    assert np.array_equal(untraced_losses, losses)
    assert np.array_equal(untraced.net.params, state.net.params)


def test_tracer_restores_names_when_the_call_raises(tmp_path):
    from subflow import pipeline
    before = tracing.binding_snapshot()
    tracer = Tracer()
    with pytest.raises(FileNotFoundError):
        with tracer:
            pipeline.load_run(tmp_path / "missing.manifest.json")
    assert tracing.binding_snapshot() == before
    assert tracer._stack == []
