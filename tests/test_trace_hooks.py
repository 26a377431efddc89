"""The benchmark's tracer (`perfbench/spans.py`) wraps program functions it
looks up by name: every `slicerank.<layer>.<fn>` of its `_TRACED` table.  A
renamed or deleted function makes every traced benchmark run fail, so these
names, and the verify arguments the tracer reads, are part of the program's
interface."""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

from slicerank import tensor

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _traced():
    tree = ast.parse(SPANS.read_text(), filename=str(SPANS))
    for node in tree.body:
        if isinstance(node, ast.Assign) and [ast.unparse(t) for t in node.targets] == ["_TRACED"]:
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/spans.py defines no _TRACED table")


TRACED = [(layer, fn) for layer, fns in _traced().items() for fn in fns]


@pytest.mark.parametrize("layer,fn", TRACED, ids=[f"{layer}.{fn}" for layer, fn in TRACED])
def test_traced_function_exists(layer, fn):
    assert inspect.isfunction(getattr(importlib.import_module(f"slicerank.{layer}"), fn, None))


@pytest.mark.parametrize("fn", ["verify_expansion", "verify_decomposition"])
def test_verify_takes_mode_and_samples(fn):
    # the tracer binds each verify call's arguments and reads these two
    assert {"mode", "samples"} <= set(inspect.signature(getattr(tensor, fn)).parameters)
