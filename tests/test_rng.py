import hashlib

import numpy as np
import pytest

from saflex.rng import stream, thread_cap

KEY_PATHS = [
    (0,),
    (0, "init"),
    (7, "augment", 3, 128),
    (123456789, "gumbel", 0, 0),
    ("a/b", -1, "val_order", 2),
]


def _reference(*parts) -> np.random.Generator:
    """Philox keyed directly by the blake2b digest of the joined key path."""
    tag = "/".join(str(p) for p in parts).encode("utf-8")
    key = np.frombuffer(hashlib.blake2b(tag, digest_size=16).digest(), dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _draws(g: np.random.Generator) -> list[np.ndarray]:
    return [
        g.bit_generator.random_raw(5),
        g.standard_normal(7),
        g.random(3),
        g.gumbel(size=(4, 3)),
        g.integers(0, 1000, size=6),
        g.permutation(50),
    ]


@pytest.mark.parametrize("parts", KEY_PATHS)
def test_stream_equals_philox_keyed_by_blake2b(parts):
    got, ref = stream(*parts), _reference(*parts)
    s_got, s_ref = got.bit_generator.state, ref.bit_generator.state
    assert np.array_equal(s_got["state"]["key"], s_ref["state"]["key"])
    assert np.array_equal(s_got["state"]["counter"], s_ref["state"]["counter"])
    for a, b in zip(_draws(got), _draws(ref)):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    s_got, s_ref = got.bit_generator.state, ref.bit_generator.state
    assert np.array_equal(s_got["state"]["counter"], s_ref["state"]["counter"])
    assert np.array_equal(s_got["buffer"], s_ref["buffer"])
    assert s_got["buffer_pos"] == s_ref["buffer_pos"]


def test_stream_key_derivation_is_pinned():
    raw = stream(0, "init").bit_generator.random_raw(4)
    assert raw.tolist() == [
        9931131463365527678, 4559166736133684114, 12876780966917499255, 15498099710218624988
    ]


def test_thread_cap_reads_saflex_threads(monkeypatch):
    monkeypatch.delenv("SAFLEX_THREADS", raising=False)
    assert thread_cap() == 1
    for raw, want in (("", 1), ("1", 1), ("4", 4)):
        monkeypatch.setenv("SAFLEX_THREADS", raw)
        assert thread_cap() == want
    for raw, message in (("0", "must be >= 1"), ("-2", "must be >= 1"), ("two", "must be an integer")):
        monkeypatch.setenv("SAFLEX_THREADS", raw)
        with pytest.raises(ValueError, match=f"^SAFLEX_THREADS {message}"):
            thread_cap()
