"""The benchmark calls subflow by name and wraps its functions by name.

`perfbench/tracing.py` lists every (owner, attribute) it replaces while a
traced run is measured.  Renaming or deleting one of them breaks only
`perfbench/run.py --trace 1`, so this test reads that list and checks each
name against the program, and that a traced training run records every
step's loss under its name.  The benchmark's own code calls subflow module
functions with fixed arguments; each such call must still bind to the
function's signature.  The tests read perfbench/ by path and change nothing
there.
"""

import ast
import importlib
import importlib.util
import inspect
import sys

import pytest

from subflow import mixture, objectives
from support import ROOT


def _load_tracing():
    # registered only while it runs: its dataclasses look their module up
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing_by_path", ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


TRACING = _load_tracing()
TRACED = TRACING.traced_functions()


@pytest.mark.parametrize("name, owner, attr, counts", TRACED,
                         ids=[entry[0] for entry in TRACED])
def test_traced_name_exists(name, owner, attr, counts):
    assert attr in vars(owner), f"{name}: {owner.__name__}.{attr} is gone"
    assert callable(vars(owner)[attr])


def test_net_passes_keep_their_positional_arguments():
    """The tracer's work counts read positional arguments of the net passes:
    the net, then an argument with one entry per row (x, or backward's
    cotangents)."""
    from subflow.net import VelocityNet
    expected = {
        "forward_batch": ["self", "x", "t", "r", "c", "k"],
        "jvp_batch": ["self", "x", "t", "r", "c", "k", "dx", "dt", "dr"],
        "backward": ["self", "cotangents", "cache"],
    }
    for attr, params in expected.items():
        sig = inspect.signature(vars(VelocityNet)[attr])
        positional = [p.name for p in sig.parameters.values()
                      if p.kind is p.POSITIONAL_OR_KEYWORD]
        assert positional == params, attr


def test_knn_keeps_its_sets_first():
    """The tracer's pair count reads the first two positional arguments of
    knn_precision_recall as the real and the generated set."""
    from subflow.metrics import knn_precision_recall
    params = list(inspect.signature(knn_precision_recall).parameters)
    assert params[:2] == ["real", "gen"]


@pytest.mark.parametrize("objective", list(objectives.OBJECTIVES))
def test_traced_training_times_every_loss(objective):
    """`train` reaches its loss through the module attribute the tracer
    swaps, so a traced run records one loss span per step: a table that
    held the loss functions themselves would record none."""
    spec = mixture.toy_spec()
    data = mixture.sample_dataset(spec, 200, 0)
    cfg = objectives.TrainConfig(objective=objective, steps=2, batch_size=32)
    with TRACING.Tracer() as tracer:
        objectives.train(data, spec, cfg)
    names = [span.name for span in tracer.spans]
    for other in objectives.OBJECTIVES:
        assert names.count(f"objectives.{other}_loss") == (
            cfg.steps if other == objective else 0), other


def _perfbench_calls():
    """(label, function, positional count, keyword names) for every call
    `<module>.<name>(...)` on a subflow module in perfbench's sources; the
    label counts repeats of a name within its file, in line order."""
    calls = []
    for path in sorted((ROOT / "perfbench").rglob("*.py")):
        tree = ast.parse(path.read_text())
        modules = {alias.asname or alias.name:
                   importlib.import_module(f"subflow.{alias.name}")
                   for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom)
                   and node.module == "subflow"
                   for alias in node.names}
        found = sorted((node for node in ast.walk(tree)
                        if isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and isinstance(node.func.value, ast.Name)
                        and node.func.value.id in modules),
                       key=lambda node: (node.lineno, node.col_offset))
        seen = {}
        for node in found:
            name = ast.unparse(node.func)
            seen[name] = seen.get(name, 0) + 1
            assert not any(isinstance(a, ast.Starred) for a in node.args)
            assert all(kw.arg is not None for kw in node.keywords)
            calls.append((f"{path.relative_to(ROOT)}:{name}:{seen[name]}",
                          getattr(modules[node.func.value.id], node.func.attr),
                          len(node.args), [kw.arg for kw in node.keywords]))
    return calls


PERFBENCH_CALLS = _perfbench_calls()


def test_perfbench_calls_found():
    assert PERFBENCH_CALLS, "no subflow call found under perfbench/"


@pytest.mark.parametrize("label, function, n_positional, keywords",
                         PERFBENCH_CALLS,
                         ids=[entry[0] for entry in PERFBENCH_CALLS])
def test_perfbench_call_binds(label, function, n_positional, keywords):
    """The call's argument count and keyword names fit the signature."""
    inspect.signature(function).bind(*[None] * n_positional,
                                     **dict.fromkeys(keywords))
