"""The benchmark in perfbench/ rebinds sharedformer functions by name, calls
some of them directly and reads arguments and results of some traced calls;
each name must still resolve, each direct call must still bind, and each read
must still find its argument or attribute, or the benchmark breaks while tests
pass."""

import ast
import importlib
import inspect
import sys
from pathlib import Path

import numpy as np
import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACER = PERFBENCH / "tracer.py"
WORKLOADS = PERFBENCH / "workloads.py"


def _assigned(name):
    """The expression assigned to module-level `name` in perfbench/tracer.py."""
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return node.value
    raise AssertionError(f"{name} not found in {TRACER}")


def _literal(name):
    return ast.literal_eval(_assigned(name))


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


# ---- what the tracer's post hooks read ---------------------------------------

PATH_FIRST = ("encoder.save_checkpoint", "features.load_features", "features.load_labels")


def test_every_post_hook_has_its_contract_checked():
    hooked = {key.value for key in _assigned("_POST_HOOKS").keys}
    assert hooked == {*PATH_FIRST, "masking.plan_masks", "encoder.store_from_checkpoint",
                      "encoder.ParameterStore.init", "training.train"}


@pytest.mark.parametrize("qual", PATH_FIRST)
def test_file_hook_finds_the_path_first(qual):
    # the hook reads args[0], or kwargs["path"] for a call by keyword
    module, _, attr = qual.partition(".")
    fn = getattr(importlib.import_module(f"sharedformer.{module}"), attr)
    assert next(iter(inspect.signature(fn).parameters)) == "path"


def test_plan_masks_returns_the_hooked_counts():
    from sharedformer import masking
    plan = masking.plan_masks(40, masking.MaskConfig(), np.random.default_rng(0))
    assert 0 < plan.num_masked <= plan.total_frames == 40


def test_store_builders_return_a_parameter_store(tmp_path):
    from sharedformer import encoder
    store = encoder.ParameterStore.init(encoder.ConformerConfig(), np.random.default_rng(0))
    assert isinstance(store, encoder.ParameterStore)
    encoder.save_checkpoint(tmp_path / "s.ckpt", store)
    restored = encoder.store_from_checkpoint(*encoder.load_checkpoint(tmp_path / "s.ckpt"))
    assert isinstance(restored, encoder.ParameterStore)


def test_train_result_carries_its_store():
    from sharedformer import encoder, features, training
    # the hook reads kwargs["out_dir"] and the result's .store
    assert "out_dir" in inspect.signature(training.train).parameters
    corpus = features.synth_corpus(0, 4, (10, 12), 16, 2)
    result = training.train(corpus, encoder.ConformerConfig(), training.TrainConfig(max_steps=0))
    assert isinstance(result.store, encoder.ParameterStore)
    assert result.store.block_applications == 0


# ---- the timed spans are entered ---------------------------------------------


def _spy(monkeypatch, module, attr):
    """Count the calls into sharedformer.<module>.<attr> through every package
    module that binds it, as the tracer's rebinding does; returns the call list."""
    original = getattr(importlib.import_module(f"sharedformer.{module}"), attr)
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name.startswith("sharedformer"):
            for key, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, key, spy)
    return calls


@pytest.fixture
def desk_files(tmp_path):
    from sharedformer import cli, encoder
    assert cli.main(["synth", "--out", str(tmp_path / "data"), "--data.num_utts=10",
                     "--data.t_min=15", "--data.t_max=25"]) == 0
    store = encoder.ParameterStore.init(encoder.ConformerConfig(), np.random.default_rng(0))
    encoder.save_checkpoint(tmp_path / "init.ckpt", store)
    return ["--checkpoint", str(tmp_path / "init.ckpt"),
            "--data", str(tmp_path / "data" / "features.bin")]


def test_train_enters_validation_loss_at_each_validation_point(monkeypatch):
    from sharedformer import encoder, features, training
    calls = _spy(monkeypatch, "training", "validation_loss")
    corpus = features.synth_corpus(0, 12, (15, 25), 16, 4)
    training.train(corpus, encoder.ConformerConfig(), training.TrainConfig(
        max_steps=4, warmup_steps=2, batch_size=4, validation_every=2))
    assert len(calls) == 2


def test_diagnose_transitions_enters_collect_traces_once(monkeypatch, tmp_path, desk_files):
    from sharedformer import cli
    calls = _spy(monkeypatch, "diagnostics", "collect_traces")
    assert cli.main(["diagnose", "--which", "transitions", *desk_files,
                     "--out", str(tmp_path / "o")]) == 0
    assert len(calls) == 1


def test_probe_enters_sli_sweep_once(monkeypatch, tmp_path, desk_files):
    from sharedformer import cli
    calls = _spy(monkeypatch, "diagnostics", "sli_sweep")
    assert cli.main(["probe", *desk_files, "--labels", str(tmp_path / "data" / "labels.bin"),
                     "--layers", "2,5", "--out", str(tmp_path / "o")]) == 0
    assert len(calls) == 1


def test_probe_enters_layer_embeddings_per_split_and_linear_probe_once(monkeypatch, tmp_path,
                                                                      desk_files):
    # diagnostics.layer_embeddings_ms and linear_probe_ms time these two spans
    from sharedformer import cli
    embeddings = _spy(monkeypatch, "diagnostics", "layer_embeddings")
    probes = _spy(monkeypatch, "diagnostics", "linear_probe")
    assert cli.main(["probe", *desk_files, "--labels", str(tmp_path / "data" / "labels.bin"),
                     "--layers", "2,5", "--out", str(tmp_path / "o")]) == 0
    assert len(embeddings) == 2
    assert len(probes) == 1


# ---- what the workloads read from their direct calls -------------------------


def test_workload_reads_of_direct_call_results(tmp_path, desk_files):
    from sharedformer import encoder, features
    store = encoder.ParameterStore.init(encoder.ConformerConfig(), np.random.default_rng(0))
    H = store.config.max_layers
    x = np.random.default_rng(1).normal(size=(23, store.config.input_dim)).astype(np.float32)
    # sli_references keeps trace.embeddings; sli_pass compares entry m with sli_forward
    embeddings = encoder.forward(x, store, H, collect_trace=True)[1].embeddings
    assert len(embeddings) == H + 1
    for m in range(1, H + 1):
        assert embeddings[m].shape == encoder.sli_forward(x, store, m).data.shape
    # check_pretrain unpacks load_checkpoint and reads train.step from the config
    encoder.save_checkpoint(tmp_path / "s.ckpt", store, {"train.step": "3"})
    config, tensors = encoder.load_checkpoint(tmp_path / "s.ckpt")
    assert config.get("train.step") == "3" and tensors
    # set-up keeps the .frames of every loaded utterance
    seqs = features.load_features(desk_files[desk_files.index("--data") + 1])
    assert seqs and all(s.frames.shape == (s.num_frames, 16) for s in seqs)
