"""Deterministic named RNG substreams.

All randomness in a run flows from one root seed. Components draw from
independent substreams keyed by (stream name, *integer indices), so e.g. the
mask stream at step 120 is identical whether or not dropout was enabled, and
training can resume statelessly from any step.
"""

from __future__ import annotations

import zlib

import numpy as np

def _stream_key(name: str) -> int:
    return zlib.crc32(name.encode("utf-8"))


def substream(seed: int, name: str, *indices: int) -> np.random.Generator:
    """Generator for the given stream and index tuple, e.g. ("mask", step, utt)."""
    entropy = [int(seed), _stream_key(name), *[int(i) for i in indices]]
    return np.random.default_rng(np.random.SeedSequence(entropy))


def utterance_seed(utterance_id: str) -> int:
    """Stable seed derived from an utterance id (fixed validation masks)."""
    return zlib.crc32(utterance_id.encode("utf-8"))
