import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sharedformer.diagnostics import linear_probe
from sharedformer.errors import ConfigError, ContractError, FormatError, InputError
from sharedformer.features import (FeatureSequence, LabeledCorpus, load_features,
                                   load_labels, save_features, save_labels,
                                   synth_corpus)


def rng(seed):
    return np.random.default_rng(seed)


def random_sequences(seed, n):
    """n utterances of random lengths, all of one random feature dim, as a file holds them."""
    r = rng(seed)
    dim = int(r.integers(1, 12))
    return [
        FeatureSequence(f"utt-{seed}-{i}", r.normal(size=(int(r.integers(1, 40)),
                                                          dim)).astype(np.float32))
        for i in range(n)
    ]


# ---- binary round trips -----------------------------------------------------


def test_feature_round_trip_bit_exact(tmp_path):
    seqs = random_sequences(0, 3)
    path = tmp_path / "f.bin"
    save_features(seqs, path)
    loaded = load_features(path)
    assert [s.utterance_id for s in loaded] == [s.utterance_id for s in seqs]
    for a, b in zip(seqs, loaded):
        np.testing.assert_array_equal(a.frames, b.frames)
        assert a.frame_shift_ms == b.frame_shift_ms


def test_save_is_deterministic(tmp_path):
    seqs = random_sequences(1, 5)
    save_features(seqs, tmp_path / "a.bin")
    save_features(seqs, tmp_path / "b.bin")
    assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()


def test_empty_file_rejected(tmp_path):
    path = tmp_path / "empty.bin"
    path.write_bytes(b"")
    with pytest.raises(FormatError):
        load_features(path)


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"XXXX" + b"\x00" * 16)
    with pytest.raises(FormatError):
        load_features(path)


def test_mixed_feature_dims_rejected_at_the_odd_utterance(tmp_path):
    seqs = [FeatureSequence(f"u{i}", np.zeros((3, 12 if i == 2 else 16), dtype=np.float32))
            for i in range(4)]
    path = tmp_path / "mixed.bin"
    save_features(seqs, path)
    with pytest.raises(FormatError, match="feature dim") as e:
        load_features(path)
    assert "'u2'" in str(e.value)
    # the header, two 16-dim records, u2's id and T precede u2's D
    record = 4 + 2 + 12 + 3 * 16 * 4
    assert e.value.offset == 12 + 2 * record + 4 + 2 + 4


def test_truncated_payload_reports_offset(tmp_path):
    seqs = random_sequences(2, 2)
    path = tmp_path / "t.bin"
    save_features(seqs, path)
    data = path.read_bytes()
    path.write_bytes(data[:-7])
    with pytest.raises(FormatError) as e:
        load_features(path)
    assert e.value.offset is not None


def test_zero_sequences_round_trip(tmp_path):
    path = tmp_path / "z.bin"
    save_features([], path)
    assert load_features(path) == []


def test_count_field_matches(tmp_path):
    seqs = [FeatureSequence(f"u{i}", np.zeros((1, 1), dtype=np.float32)) for i in range(1000)]
    path = tmp_path / "many.bin"
    save_features(seqs, path)
    count = int.from_bytes(path.read_bytes()[8:12], "little")
    assert count == 1000


def test_minimal_single_frame(tmp_path):
    path = tmp_path / "one.bin"
    save_features([FeatureSequence("u", np.array([[0.5]], dtype=np.float32))], path)
    loaded = load_features(path)
    assert len(loaded) == 1
    assert loaded[0].frames.shape == (1, 1)
    assert loaded[0].frames[0, 0] == np.float32(0.5)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.integers(0, 6))
def test_round_trip_property(tmp_path_factory, seed, n):
    tmp = tmp_path_factory.mktemp("rt")
    seqs = random_sequences(seed, n)
    save_features(seqs, tmp / "x.bin")
    save_features(load_features(tmp / "x.bin"), tmp / "y.bin")
    assert (tmp / "x.bin").read_bytes() == (tmp / "y.bin").read_bytes()


def test_label_round_trip(tmp_path):
    corpus = synth_corpus(5, 4, (5, 20), 8, 3)
    path = tmp_path / "l.bin"
    save_labels(corpus, path)
    labels, num_classes = load_labels(path)
    assert num_classes == 3
    for seq, lab in zip(corpus.sequences, corpus.labels):
        np.testing.assert_array_equal(labels[seq.utterance_id], lab)


def test_label_round_trip_at_the_u16_limit(tmp_path):
    seqs = random_sequences(0, 2)
    labels = [np.full(s.num_frames, 65535, dtype=np.int64) for s in seqs]
    labels[0][0] = 0
    path = tmp_path / "l.bin"
    save_labels(LabeledCorpus(seqs, labels, 65536), path)
    loaded, num_classes = load_labels(path)
    assert num_classes == 65536
    for seq, lab in zip(seqs, labels):
        np.testing.assert_array_equal(loaded[seq.utterance_id], lab)


def test_label_beyond_u16_is_refused_not_wrapped(tmp_path):
    corpus = synth_corpus(0, 20, (40, 60), 4, 70000)
    assert max(int(lab.max()) for lab in corpus.labels) >= 65536
    path = tmp_path / "l.bin"
    with pytest.raises(ContractError, match="65535"):
        save_labels(corpus, path)
    assert not path.exists()


def _label_file(path, records):
    """Label file written byte by byte: records are (utterance id, C, labels)."""
    parts = [b"LCLB", struct.pack("<II", 1, len(records))]
    for uid, num_classes, labels in records:
        raw = uid.encode("utf-8")
        parts += [struct.pack("<I", len(raw)), raw,
                  struct.pack("<II", len(labels), num_classes),
                  np.asarray(labels, dtype="<u2").tobytes()]
    path.write_bytes(b"".join(parts))


def test_label_outside_class_count_rejected(tmp_path):
    path = tmp_path / "l.bin"
    _label_file(path, [("a", 3, [0, 1, 2]), ("b", 3, [1, 9])])
    with pytest.raises(FormatError, match="9"):
        load_labels(path)


def test_label_class_count_must_agree(tmp_path):
    path = tmp_path / "l.bin"
    _label_file(path, [("a", 3, [0, 1]), ("b", 7, [1, 2])])
    with pytest.raises(FormatError, match="class count"):
        load_labels(path)


def test_non_utf8_utterance_id_rejected(tmp_path):
    path = tmp_path / "f.bin"
    save_features([FeatureSequence("ab", np.zeros((1, 1), dtype=np.float32))], path)
    data = bytearray(path.read_bytes())
    data[16] = 0xFF  # first byte of the id, after magic, version, count, id length
    path.write_bytes(bytes(data))
    with pytest.raises(FormatError):
        load_features(path)


# ---- synthetic corpus -------------------------------------------------------


def test_synth_deterministic():
    a = synth_corpus(9, 5, (10, 30), 8, 3)
    b = synth_corpus(9, 5, (10, 30), 8, 3)
    for sa, sb in zip(a.sequences, b.sequences):
        np.testing.assert_array_equal(sa.frames, sb.frames)
    for la, lb in zip(a.labels, b.labels):
        np.testing.assert_array_equal(la, lb)


def test_synth_noiseless_emits_exact_means():
    corpus = synth_corpus(3, 4, (30, 50), 8, 4, noise_sigma=0.0)
    for seq in corpus.sequences:
        unique = np.unique(seq.frames, axis=0)
        assert unique.shape[0] <= 4


def test_synth_label_marginals_near_uniform():
    corpus = synth_corpus(11, 500, (200, 300), 4, 4)
    all_labels = np.concatenate(corpus.labels)
    assert all_labels.size >= 100_000
    freqs = np.bincount(all_labels, minlength=4) / all_labels.size
    np.testing.assert_allclose(freqs, 0.25, atol=0.02)


def test_synth_linear_separability():
    corpus = synth_corpus(7, 200, (20, 60), 16, 4)
    x = np.concatenate([s.frames for s in corpus.sequences[:160]])
    y = np.concatenate(corpus.labels[:160])
    xt = np.concatenate([s.frames for s in corpus.sequences[160:]])
    yt = np.concatenate(corpus.labels[160:])
    result = linear_probe([x], y, [xt], yt, 4)[0]
    assert result.accuracy >= 0.95


def test_synth_config_contracts():
    with pytest.raises(ConfigError):
        synth_corpus(0, 2, (5, 10), 8, 1)
    with pytest.raises(ConfigError):
        synth_corpus(0, 2, (5, 10), 2, 4)
    with pytest.raises(ConfigError):
        synth_corpus(0, 2, (10, 5), 8, 4)


def test_label_alignment_enforced():
    seq = FeatureSequence("u", np.zeros((5, 4), dtype=np.float32))
    with pytest.raises(InputError):
        LabeledCorpus([seq], [np.zeros(3, dtype=np.int64)], 2)
