"""The benchmark in perfbench/ rebinds sharedformer functions by name; each
name it lists must still resolve, or the benchmark breaks while tests pass."""

import ast
import importlib
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _literal(name):
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{name} not found in {TRACER}")


def _targets():
    spans = [(module, qual) for module, names in _literal("SPAN_FUNCS").items()
             for qual in names]
    ops = [("autodiff", qual) for names in _literal("OP_GROUPS").values() for qual in names]
    return spans + ops


@pytest.mark.parametrize("module,qual", _targets())
def test_traced_function_resolves(module, qual):
    obj = importlib.import_module(f"sharedformer.{module}")
    owner, _, attr = qual.rpartition(".")
    if owner:
        obj = getattr(obj, owner)
        assert attr in vars(obj), f"{module}.{qual} is not defined on the class itself"
    assert callable(getattr(obj, attr))
