"""Mutated feature, label and checkpoint files raise only the package's own errors.

Each example takes a valid file, applies one to three truncations, bit flips
or byte overwrites, and loads the result. A loader may accept the mutated
bytes or raise a ``SharedformerError`` subclass (the CLI maps those to exit
codes); any other exception is a bare traceback and fails the test.
"""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sharedformer import codec
from sharedformer.encoder import (CHECKPOINT_MAGIC, ConformerConfig, ParameterStore,
                                  load_checkpoint, save_checkpoint, store_from_checkpoint)
from sharedformer.errors import FormatError, SharedformerError
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
