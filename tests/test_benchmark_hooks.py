"""The benchmark in perfbench/ rebinds sharedformer functions by name and calls
some of them directly; each name must still resolve, and each direct call must
still bind, or the benchmark breaks while tests pass."""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACER = PERFBENCH / "tracer.py"
WORKLOADS = PERFBENCH / "workloads.py"


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


def _workload_calls():
    """(module, attribute, positional count, keywords) of every call workloads.py
    makes on a module it imports from the sharedformer package."""
    tree = ast.parse(WORKLOADS.read_text(encoding="utf-8"))
    modules = {alias.asname or alias.name: alias.name for node in tree.body
               if isinstance(node, ast.ImportFrom) and node.module == "sharedformer"
               for alias in node.names}
    calls = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name) and node.func.value.id in modules):
            calls.add((modules[node.func.value.id], node.func.attr, len(node.args),
                       tuple(sorted(k.arg for k in node.keywords))))
    return sorted(calls)


def test_workload_calls_found():
    found = {(module, attr) for module, attr, _, _ in _workload_calls()}
    assert found >= {("cli", "main"), ("encoder", "load_checkpoint"),
                     ("encoder", "store_from_checkpoint"), ("encoder", "forward"),
                     ("encoder", "sli_forward"), ("features", "load_features")}


@pytest.mark.parametrize("module,attr,n_args,keywords", [
    pytest.param(*call, id=f"{call[0]}.{call[1]}") for call in _workload_calls()])
def test_workload_call_binds(module, attr, n_args, keywords):
    fn = getattr(importlib.import_module(f"sharedformer.{module}"), attr)
    inspect.signature(fn).bind(*range(n_args), **dict.fromkeys(keywords))
