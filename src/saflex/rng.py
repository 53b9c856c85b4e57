"""Counter-based random streams.

Every stochastic component draws from its own Philox stream, keyed by a
hash of (seed, purpose, epoch, batch, ...): the 128-bit blake2b digest of
the "/"-joined key path is the Philox key, with the counter at zero.
Building a stream draws nothing from the OS. Streams are independent of
call order and of any batch-level parallelism, so runs are reproducible
bit for bit from the seed alone.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np


class _Key(np.random.bit_generator.ISeedSequence):
    """Seed source that hands Philox a precomputed 128-bit key.

    Philox(_Key(key)) is the stream of Philox(key=key): counter zero,
    empty buffer. Passing the key as the seed skips the SeedSequence that
    Philox(key=...) builds and discards, and its os.urandom draw.
    """

    __slots__ = ("key",)

    def __init__(self, key: np.ndarray) -> None:
        self.key = key

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        # Philox asks for its key as 2 uint64 words
        return self.key


def stream(*key_parts: int | str) -> np.random.Generator:
    """Return a fresh Generator keyed by the given path.

    The same key parts always yield the same stream; any change to any
    part yields an unrelated stream.
    """
    tag = "/".join(str(p) for p in key_parts).encode("utf-8")
    digest = hashlib.blake2b(tag, digest_size=16).digest()
    key = np.frombuffer(digest, dtype=np.uint64)
    return np.random.Generator(np.random.Philox(_Key(key)))


def thread_cap() -> int:
    """Upper bound on worker parallelism: SAFLEX_THREADS, or 1 if unset or empty.

    All numeric results are required to be independent of this value;
    it only caps how many workers a parallel section may use.
    """
    raw = os.environ.get("SAFLEX_THREADS") or "1"
    try:
        n = int(raw)
    except ValueError as exc:
        raise ValueError(f"SAFLEX_THREADS must be an integer, got {raw!r}") from exc
    if n < 1:
        raise ValueError(f"SAFLEX_THREADS must be >= 1, got {n}")
    return n
