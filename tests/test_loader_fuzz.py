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
left as it was. The same mutations then go through ``cli.main`` on a real
run directory: ``pretrain --resume`` may exit only 0, 2 or 3, a rejected
resume leaves every file as it was, and a finished one ends at its
``max_steps`` under the resumed checkpoint's seed.
"""

import contextlib
import io
import json
import math
import struct
import tempfile
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sharedformer import codec, training
from sharedformer.cli import main
from sharedformer.config import SECTIONS, RunConfig, load_config
from sharedformer.encoder import (CHECKPOINT_MAGIC, ConformerConfig, ParameterStore,
                                  load_checkpoint, save_checkpoint, store_from_checkpoint)
from sharedformer.errors import ConfigError, FormatError, SharedformerError
from sharedformer.features import (load_features, load_labels, save_features,
                                   save_labels, synth_corpus)
from sharedformer.rng import substream

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
@example(entries=[("data", "seed", b"-1")])
@example(entries=[("train", "seed", b"-1")])
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
    substream(cfg.data.seed, "corpus")  # a validated seed builds its streams
    substream(cfg.train.seed, "data", 0)


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
@example(values={"train.seed": "-1"})
def test_fuzzed_train_state_raises_only_format_error(values):
    try:
        state = training.train_state(values)
    except FormatError:
        return
    assert min(state.step, state.best_step, state.cum_layer_apps) >= 0
    assert not math.isnan(state.best_val_loss)
    assert state.seed is None if "train.seed" not in values else state.seed >= 0


# ---- pretrain --resume on a mutated run directory ----------------------------

RUN = ["--data.num_utts=12", "--data.t_min=6", "--data.t_max=12", "--model.model_dim=8",
       "--model.ff_dim=8", "--model.max_layers=2", "--train.depth=uniform:1:2",
       "--train.batch_size=3", "--train.warmup_steps=2", "--train.validation_every=2"]


@pytest.fixture(scope="module")
def run_files(tmp_path_factory):
    """A real 4-step run directory (its files' bytes) and the corpus it trained on."""
    root = tmp_path_factory.mktemp("resume-fuzz")
    assert main(["synth", "--out", str(root / "corpus"), *RUN]) == 0
    data = ["--data", str(root / "corpus/features.bin")]
    assert main(["pretrain", *data, *RUN, "--train.max_steps=4", "--out", str(root / "run")]) == 0
    return data, {p.name: p.read_bytes() for p in (root / "run").iterdir()}


def _config_block(ckpt: bytes) -> tuple[list[str], bytes]:
    (size,) = struct.unpack_from("<I", ckpt, 8)
    return ckpt[12:12 + size].decode().splitlines(), ckpt[12 + size:]


def _with_config_block(ckpt: bytes, lines: list[str]) -> bytes:
    _, rest = _config_block(ckpt)
    block = "".join(line + "\n" for line in lines).encode()
    return ckpt[:8] + struct.pack("<I", len(block)) + block + rest


VALUE = st.one_of(st.sampled_from(TOKENS + ["3", "4", "5", "8", "12", "16"]),
                  st.integers(-2, 10).map(str), st.text(max_size=6).filter(lambda t: "\n" not in t))


@settings(max_examples=60, deadline=None)
@given(rows=st.lists(st.tuples(st.integers(0, 5), ROW.filter(lambda r: b"\n" not in r)),
                     max_size=2),
       values=st.lists(st.tuples(st.integers(0, 1 << 10), VALUE), max_size=2),
       max_steps=st.integers(0, 8))
@example(rows=[], values=[], max_steps=2)  # below the checkpoint's step
@example(rows=[], values=[(0, "7")], max_steps=6)  # line 0 after sorting: a train.* key
@example(rows=[(1, b"[" * 200_000)], values=[], max_steps=6)
def test_fuzzed_run_directory_resume_exits_cleanly(run_files, rows, values, max_steps):
    """`pretrain --resume` on a mutated run directory exits 0, 2 or 3; a
    rejected resume leaves every file as it was, and a finished one ends its
    rows and its final checkpoint at max_steps, under the resumed seed."""
    data, files = run_files
    metrics = files["metrics.jsonl"].splitlines(keepends=True)
    for at, row in rows:  # replace a row, or append one past the end
        metrics[at:at + 1] = [row + b"\n"]
    lines, _ = _config_block(files["final.ckpt"])
    lines = sorted(lines, key=lambda l: (not l.startswith("train."), l))
    for at, value in values:
        key = lines[at % len(lines)].partition("=")[0]
        lines[at % len(lines)] = f"{key}={value}"
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        for name, blob in files.items():
            (out / name).write_bytes(blob)
        (out / "metrics.jsonl").write_bytes(b"".join(metrics))
        (out / "final.ckpt").write_bytes(_with_config_block(files["final.ckpt"], lines))
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        with contextlib.redirect_stderr(io.StringIO()), contextlib.redirect_stdout(io.StringIO()):
            code = main(["pretrain", *data, *RUN, f"--train.max_steps={max_steps}",
                         "--out", str(out), "--resume", str(out / "final.ckpt")])
        assert code in (0, 2, 3)
        after = {p.name: p.read_bytes() for p in out.iterdir()}
        if code:
            assert after == before
            return
        seed = dict(line.partition("=")[::2] for line in lines).get("train.seed")
        final = load_checkpoint(out / "final.ckpt")[0]
        assert int(final["train.step"]) == max_steps
        assert seed is None or int(final["train.seed"]) == int(seed)
        rows = after["metrics.jsonl"].splitlines()
        assert (json.loads(rows[-1])["step"] if rows else 0) == max_steps
