"""The benchmark's tracer wraps subflow functions by name.

`perfbench/tracing.py` lists every (owner, attribute) it replaces while a
traced run is measured.  Renaming or deleting one of them breaks only
`perfbench/run.py --trace 1`, so this test reads that list and checks each
name against the program.  It loads the module by path and changes nothing
under perfbench/.
"""

import importlib.util
import inspect
import sys

import pytest

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


TRACED = _load_tracing().traced_functions()


@pytest.mark.parametrize("name, owner, attr, counts", TRACED,
                         ids=[entry[0] for entry in TRACED])
def test_traced_name_exists(name, owner, attr, counts):
    assert attr in vars(owner), f"{name}: {owner.__name__}.{attr} is gone"
    assert callable(vars(owner)[attr])


def test_net_passes_keep_their_positional_arguments():
    """The tracer's work counts read positional arguments of the net passes
    (the net, then the input rows)."""
    from subflow.net import VelocityNet
    expected = {
        "forward_batch": ["self", "x", "t", "r", "c", "k"],
        "jvp_batch": ["self", "x", "t", "r", "c", "k", "dx", "dt", "dr"],
        "backward": ["self", "x", "t", "r", "c", "k", "cotangents"],
    }
    for attr, params in expected.items():
        sig = inspect.signature(vars(VelocityNet)[attr])
        positional = [p.name for p in sig.parameters.values()
                      if p.kind is p.POSITIONAL_OR_KEYWORD]
        assert positional == params, attr
