"""Mutated feature, label, checkpoint and config files raise only the package's own errors.

Each binary example takes a valid file, applies one to three truncations, bit
flips or byte overwrites, and loads the result. A loader may accept the
mutated bytes or raise a ``SharedformerError`` subclass (the CLI maps those to
exit codes); any other exception is a bare traceback and fails the test.

Config files are generated from the schema itself: every section and key,
with values drawn from valid tokens, non-finite and huge numbers, empty
strings and raw bytes, and keys that may repeat. They are only parsed and
validated; nothing is built from them, since their sizes are unbounded.

The text a `pretrain --resume` reads besides the checkpoint's tensors, the
`metrics.jsonl` rows and the checkpoint's `train.*` values, is fuzzed the same
way: it may parse or raise ``FormatError``, and a rejected metrics file is
left as it was.
"""

import json
import math
import struct
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sharedformer import codec, training
from sharedformer.config import SECTIONS, RunConfig, load_config
from sharedformer.encoder import (CHECKPOINT_MAGIC, ConformerConfig, ParameterStore,
                                  load_checkpoint, save_checkpoint, store_from_checkpoint)
from sharedformer.errors import ConfigError, FormatError, SharedformerError
from sharedformer.features import (load_features, load_labels, save_features,
                                   save_labels, synth_corpus)

EXAMPLES = 150


def _write_features(path):
    save_features(synth_corpus(1, 3, (2, 5), 4, 3).sequences, path)


def _write_labels(path):
    save_labels(synth_corpus(1, 3, (2, 5), 4, 3), path)


def _write_checkpoint(path):
    cfg = ConformerConfig(input_dim=4, model_dim=4, num_heads=2, ff_dim=4,
                          conv_kernel=3, max_layers=2)
    save_checkpoint(path, ParameterStore.init(cfg, np.random.default_rng(0)))


def _load_checkpoint_store(path):
    store_from_checkpoint(*load_checkpoint(path))


CASES = {
    "features": (_write_features, load_features),
    "labels": (_write_labels, load_labels),
    "checkpoint": (_write_checkpoint, _load_checkpoint_store),
}


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("valid")
    files = {}
    for kind, (write, _) in CASES.items():
        write(root / kind)
        files[kind] = (root / kind).read_bytes()
    return root, files


def _mutate(data: bytes, edits) -> bytes:
    out = bytearray(data)
    for kind, at, payload in edits:
        if not out:
            break
        at %= len(out)
        if kind == "truncate":
            del out[at:]
        elif kind == "flip":
            out[at] ^= 1 << (payload[0] % 8)
        else:
            out[at:at + len(payload)] = payload
    return bytes(out)


EDITS = st.lists(st.tuples(st.sampled_from(["truncate", "flip", "overwrite"]),
                           st.integers(0, 1 << 16),
                           st.binary(min_size=1, max_size=8)),
                 min_size=1, max_size=3)


@pytest.mark.parametrize("kind", list(CASES))
@settings(max_examples=EXAMPLES, deadline=None)
@given(edits=EDITS)
def test_mutated_file_raises_only_package_errors(valid_files, kind, edits):
    root, files = valid_files
    path = root / f"mutated-{kind}"
    path.write_bytes(_mutate(files[kind], edits))
    try:
        CASES[kind][1](path)
    except SharedformerError:
        pass


@pytest.mark.parametrize("kind", list(CASES))
def test_every_truncation_raises_only_package_errors(valid_files, kind):
    root, files = valid_files
    path = root / f"truncated-{kind}"
    for cut in range(len(files[kind])):
        path.write_bytes(files[kind][:cut])
        with pytest.raises(SharedformerError):
            CASES[kind][1](path)


@pytest.mark.parametrize("dims", [(1,) * 65, (0, 1 << 31, 1 << 31, 1 << 31)],
                         ids=["rank-65", "empty-huge"])
def test_implausible_tensor_shape_is_format_error(tmp_path, dims):
    size = 0 if 0 in dims else 1
    path = tmp_path / "odd.ckpt"
    path.write_bytes(codec.header(CHECKPOINT_MAGIC) + codec.string("") + struct.pack("<Q", 1)
                     + codec.string("extra") + struct.pack(f"<I{len(dims)}I", len(dims), *dims)
                     + b"\0" * 4 * size)
    with pytest.raises(FormatError, match="implausible"):
        load_checkpoint(path)


# ---- config files ------------------------------------------------------------

SCHEMA = {name: fields(getattr(RunConfig(), name)) for name in SECTIONS}

TOKENS = ["0", "1", "2", "7", "0.1", "0.3", "0.49", "true", "false", "maybe", "zero", "tera",
          "none", "relative-bias", "uniform:2:8", "fixed:3", "all-frames", "masked-only",
          "float32", "float64", "nan", "inf", "-inf", "NaN", "-nan", "1e400", "", " ",
          "-1", "-0.0", "5%", "%(seed)s", str(2 ** 64), str(-2 ** 63), "9" * 5000]

NON_FINITE = ["nan", "inf", "-inf", "NaN", "-nan", "1e400"]

TYPED = {
    "float": st.one_of(st.sampled_from(NON_FINITE), st.floats().map(repr)),
    "int": st.integers(-(1 << 80), 1 << 80).map(str),
    "bool": st.sampled_from(["true", "false", "True", "0", "1"]),
    "str": st.sampled_from(TOKENS),
}

FIELDS = [(name, f) for name, schema in SCHEMA.items() for f in schema]


def _entry(field):
    """One (section, key, raw value) line; the value is the key's default 3 times in 5."""
    name, f = field
    default = st.just(str(getattr(getattr(RunConfig(), name), f.name)).encode())
    odd = st.one_of(TYPED[f.type].map(str.encode), st.sampled_from(TOKENS).map(str.encode),
                    st.binary(max_size=6))  # raw bytes: non-UTF-8, newlines, brackets, '%'
    return st.tuples(st.just(name), st.just(f.name), st.one_of(default, default, default,
                                                               odd, odd))


ENTRIES = st.lists(st.sampled_from(FIELDS).flatmap(_entry), max_size=6)


@pytest.fixture(scope="module")
def config_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("configs")


@settings(max_examples=500, deadline=None)
@given(entries=ENTRIES)
@example(entries=[("train", "val_fraction", b"nan")])
@example(entries=[("data", "seed", b"5%")])
def test_fuzzed_config_raises_only_config_error(config_dir, entries):
    lines: dict[str, list[bytes]] = {}
    for name, key, value in entries:  # a key may repeat within its section
        lines.setdefault(name, []).append(key.encode() + b"=" + value)
    path = config_dir / "fuzzed.ini"
    path.write_bytes(b"".join(b"[" + name.encode() + b"]\n" + b"\n".join(body) + b"\n"
                              for name, body in lines.items()))
    try:
        cfg = load_config(path)
        cfg.validate()
    except ConfigError:
        return
    for name, schema in SCHEMA.items():
        for f in schema:
            if f.type == "float":
                assert math.isfinite(getattr(getattr(cfg, name), f.name)), f"{name}.{f.name}"


# ---- pretrain --resume inputs -------------------------------------------------

JSON = st.recursive(st.none() | st.booleans() | st.integers(-5, 1 << 40) | st.floats()
                    | st.text(max_size=4),
                    lambda inner: st.lists(inner, max_size=3)
                    | st.dictionaries(st.sampled_from(["step", "lr", "x"]), inner, max_size=3),
                    max_leaves=6)
ROW = st.one_of(st.integers(1, 6).map(lambda s: json.dumps({"step": s, "lr": 0.5}).encode()),
                JSON.map(lambda v: json.dumps(v).encode()),
                st.dictionaries(st.just("step"), JSON, min_size=1).map(
                    lambda v: json.dumps(v).encode()),
                st.integers(1, 300_000).map(lambda n: b"[" * n),
                st.binary(max_size=12))


@settings(max_examples=EXAMPLES, deadline=None)
@given(rows=st.lists(ROW.filter(lambda r: b"\n" not in r), max_size=5), step=st.integers(0, 4),
       partial=st.binary(max_size=4))
@example(rows=[b"[" * 200_000], step=1, partial=b"")
def test_fuzzed_metrics_rows_raise_only_format_error(config_dir, rows, step, partial):
    path = config_dir / "metrics.jsonl"
    data = b"".join(r + b"\n" for r in rows) + partial.replace(b"\n", b"")
    path.write_bytes(data)
    try:
        training._truncate_metrics(path, step)
    except FormatError:
        assert path.read_bytes() == data  # a rejected file is left as it was
        return
    kept = path.read_bytes()
    assert data.startswith(kept) and (not kept or kept.endswith(b"\n"))


@settings(max_examples=EXAMPLES, deadline=None)
@given(values=st.dictionaries(st.sampled_from([key for key, _, _ in training._TRAIN_STATE]),
                              st.one_of(st.text(max_size=8), st.sampled_from(TOKENS))))
@example(values={"train.step": "x"})
@example(values={"train.best_val_loss": "0.3.1"})
def test_fuzzed_train_state_raises_only_format_error(values):
    try:
        step, best_val, best_step, layer_apps = training._train_state(values)
    except FormatError:
        return
    assert min(step, best_step, layer_apps) >= 0 and not math.isnan(best_val)
